"""Closed-form star-graph predictions and a branch-permutation-symmetric
Hilbert space for exact diagonalization at large branch counts.

A star has n_b branches (paths of even length ell) joined at a centre.  Its
unique maximum independent set has size alpha = ell*n_b/2 + 1.  The first
excited manifold is dominated by sets with the centre absent and one domain
wall per branch; the per-branch wall hops on ell/2 + 1 positions, giving the
spin-exchange density c_ell = 2*cos(pi/(ell/2 + 2)) per branch.

The ground and first-excited states are symmetric under branch permutation,
so spectra are computed in the bosonic multiset basis: with K per-branch
states, dimension drops from K^n_b to C(K + n_b - 1, n_b), which reaches
hundreds of branches for ell = 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement

import numpy as np
import scipy.sparse

from .bits import Space, enumerate_independent_sets
from .errors import CapacityError
from .graphs import Graph
from .spectral import GapReport, scan_minimum_gap

# SymmetricStarSpace's row limit: a space and its first hamiltonian peak at
# 1.0-1.6 KiB a row (star(20,4)'s 898,656 rows: 1068 MiB), so about 2 GiB
STAR_ROW_LIMIT = 1_300_000


def exchange_density(ell: int) -> float:
    """Largest adjacency eigenvalue of the per-branch domain-wall path."""
    if ell < 2 or ell % 2:
        raise ValueError("ell must be even and >= 2")
    return 2.0 * math.cos(math.pi / (ell // 2 + 2))


def central_present_count(n_b: int, ell: int) -> int:
    """Number of size-(alpha-1) independent sets containing the centre.

    With the centre present, every branch avoids its first vertex; exactly
    one branch is one vertex short of its unique constrained maximum, and a
    deficient branch has C(ell/2 + 1, 2) arrangements.  For ell in {4, 6}
    this equals the compact form 3*n_b*(ell/2 - 1); at ell = 2 that
    expression gives 0 while the true count is n_b, and it undercounts for
    ell >= 8.
    """
    return n_b * math.comb(ell // 2 + 1, 2)


def central_absent_count(n_b: int, ell: int) -> int:
    """Size-(alpha-1) sets without the centre: one domain wall per branch."""
    return (ell // 2 + 1) ** n_b


@dataclass(frozen=True)
class StarPrediction:
    """Asymptotic level-crossing parameters for a star graph.

    Quantities follow second-order perturbation theory in Omega/delta and
    carry the per-branch exchange density c_ell; they sharpen as n_b grows
    (the predictions are exact only in the n_b -> infinity limit).
    """

    n_b: int
    ell: int
    alpha: int
    c_ell: float
    crossing: float                 # (Omega/delta)*
    minus_e_star_over_n: float      # -E*/n in units of delta
    tilde_gap: float                # leading-order coupling estimate
    central_absent: int
    central_present: int
    asymptotic: bool = True

    def to_document(self) -> dict:
        return {
            "version": 1,
            "kind": "star_prediction",
            "n_b": self.n_b,
            "ell": self.ell,
            "alpha": self.alpha,
            "c_ell": self.c_ell,
            "crossing": self.crossing,
            "minus_e_star_over_n": self.minus_e_star_over_n,
            "tilde_gap": self.tilde_gap,
            "central_absent": str(self.central_absent),
            "central_present": str(self.central_present),
            "asymptotic": self.asymptotic,
        }


def star_level_crossing(n_b: int, ell: int, omega: float = 1.0) -> StarPrediction:
    """Predicted avoided-crossing location, ground energy and coupling."""
    if n_b < 2:
        raise ValueError("n_b must be >= 2 for a finite crossing")
    c = exchange_density(ell)
    radicand = c * n_b - 1.0
    if radicand <= 0:
        raise ValueError(f"c_ell*n_b - 1 = {radicand} must be positive")
    crossing = math.sqrt(1.0 / radicand)
    n = n_b * ell + 1
    alpha = ell * n_b // 2 + 1
    minus_e = (alpha / n) * (1.0 + 1.0 / radicand)
    per_branch = math.sin(math.pi / (ell // 2 + 2)) / math.sqrt(ell / 4.0 + 1.0)
    tilde = 2.0 * omega * per_branch ** n_b
    return StarPrediction(
        n_b=n_b, ell=ell, alpha=alpha, c_ell=c, crossing=crossing,
        minus_e_star_over_n=minus_e, tilde_gap=tilde,
        central_absent=central_absent_count(n_b, ell),
        central_present=central_present_count(n_b, ell),
    )


class SymmetricStarSpace:
    """Star-graph operators in the branch-permutation-symmetric sector.

    Basis row i holds occupation numbers: ``occ[i, 0]`` is the centre and
    ``occ[i, 1 + s]`` counts the branches in branch state s.  Sector A (the
    leading rows) has the centre absent, sector B (the rows of ``sector_b``)
    present, and every branch of sector B avoids its first vertex.  Every
    operator is a sum of moves (dec, inc): take one from each occupation
    column in dec and add one to each column in inc.  A move leaves one
    configuration of orbit occ in prod occ[dec] ways, and its matrix element
    is sqrt(prod occ[dec] * prod occ'[inc]), occ' the target's occupations,
    which is the bosonic <m - e_b + e_a| sum_i T_i |m> = sqrt(m_b (m_a + 1))
    of a one-branch move a <- b.  The ground and first-excited states of the
    full star Hamiltonian lie in this sector (non-positive off-diagonals
    plus permutation symmetry), so minimum-gap scans and resolvent work are
    exact here.

    The drive, exchange, Laplacian, degree and free-vertex operators are
    built once, on first use; callers share them and must not modify them.
    """

    def __init__(self, n_b: int, ell: int):
        if ell < 2 or ell % 2:
            raise ValueError("ell must be even and >= 2")
        if n_b < 1:
            raise ValueError("n_b must be >= 1")
        self.n_b = n_b
        self.ell = ell
        self.n = n_b * ell + 1
        self.alpha = ell * n_b // 2 + 1
        # one branch is the ell-vertex path whose vertex 0 touches the centre
        path = Graph(n=ell, edges=tuple((v, v + 1) for v in range(ell - 1)))
        states = sorted(enumerate_independent_sets(ell, path.adjacency()))
        branch = Space.of(path, states)
        self.branch_states = states
        K = len(states)
        self.size = branch.sizes.tolist()
        constrained = ((branch.masks & np.uint64(1)) == 0).tolist()

        def moves(table):
            # one branch goes from state b to state a
            return [([1 + b], [1 + a]) for b, row in enumerate(table.tolist())
                    for a in row if a >= 0]

        # the centre hops onto the first vertex of a branch, and back
        hops = [([0, 1 + b], [1 + a])
                for b, a in enumerate(branch.flips[:, 0].tolist())
                if constrained[b] and a >= 0]
        self.drive_moves = moves(branch.flips) + [([], [0]), ([0], [])]
        self.exchange_moves = (moves(branch.exchanges) + hops
                               + [(inc, dec) for dec, inc in hops])

        # sector A: any branch states; sector B: first branch vertex empty
        sectors = [range(K), [s for s in range(K) if constrained[s]]]
        self._dim_a, dim_b = (math.comb(len(c) + n_b - 1, n_b) for c in sectors)
        self.dim = self._dim_a + dim_b
        if self.dim > STAR_ROW_LIMIT:
            raise CapacityError(
                f"star({n_b},{ell}) has {self.dim} symmetric-sector rows, "
                f"over the STAR_ROW_LIMIT of {STAR_ROW_LIMIT}")
        multisets = np.fromiter(
            (m for c in sectors for m in combinations_with_replacement(c, n_b)),
            dtype=np.dtype((np.int32, n_b)), count=self.dim)
        # int32 counts: the class serves hundreds of branches at ell = 2
        self.occ = np.zeros((self.dim, 1 + K), dtype=np.int32)
        self.occ[self._dim_a:, 0] = 1
        for s in range(K):
            self.occ[:, 1 + s] = (multisets == s).sum(axis=1)
        del multisets  # before _key's temporaries: star(20,4) peaks 69 MiB lower
        self.sector_b = self.occ[:, 0] == 1
        self.total_size = self.occ @ np.array([1] + self.size, dtype=np.int64)
        # rank[v, S]: the multisets that agree with a row on its branches up
        # to state v, then hold one more in state v and S - 1 from v on, where
        # the row holds S branches above v; they precede the row, and their
        # sum over v is its lexicographic rank
        self._rank = np.array([[math.comb(K - v - 2 + S, S - 1) if S else 0
                                for S in range(n_b + 1)]
                               for v in range(K - 1)], dtype=np.int64)
        self._keys = self._key(self.occ)
        self._pattern = (None,)  # see hamiltonian

    def _key(self, occ: np.ndarray) -> np.ndarray:
        """Lexicographic rank of each row's branch multiset, plus the centre
        times the number of multisets: the basis rows ascend in key."""
        above = self.n_b - np.cumsum(occ[:, 1:-1], axis=1)
        rank = self._rank[np.arange(len(self._rank)), above].sum(axis=1)
        return rank + occ[:, 0] * np.int64(self._dim_a)

    def _assemble(self, moves):
        """The operator summed over ``moves``, and per basis row the moves
        out of one configuration of its orbit.  Targets outside the basis
        are dropped."""
        rows, cols, vals, counts = [], [], [], []
        for dec, inc in moves:
            src = np.flatnonzero(self.occ[:, dec].all(axis=1))
            occ = self.occ[src]
            ways = occ[:, dec].prod(axis=1, dtype=np.int64)
            occ[:, dec] -= 1
            occ[:, inc] += 1
            key = self._key(occ)
            pos = np.minimum(np.searchsorted(self._keys, key), self.dim - 1)
            hit = self._keys[pos] == key
            vals.append(np.sqrt(ways * occ[:, inc].prod(axis=1))[hit])
            rows.append(pos[hit])
            cols.append(src[hit])
            counts.append(ways[hit])
        cols = np.concatenate(cols)
        matrix = scipy.sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), cols)),
            shape=(self.dim, self.dim))
        return matrix, np.bincount(cols, weights=np.concatenate(counts),
                                   minlength=self.dim)

    @cached_property
    def _drive(self):
        return self._assemble(self.drive_moves)[0]

    @cached_property
    def _exchange(self):
        return self._assemble(self.exchange_moves)

    @cached_property
    def _laplacian(self):
        return (scipy.sparse.diags(self.exchange_degree_diag())
                - self.spin_exchange_matrix()).tocsr()

    def drive_matrix(self) -> scipy.sparse.csr_matrix:
        """Single-spin-flip generator (matrix elements 1 per allowed flip)."""
        return self._drive

    def spin_exchange_matrix(self) -> scipy.sparse.csr_matrix:
        return self._exchange[0]

    def exchange_degree_diag(self) -> np.ndarray:
        """Configuration-graph degree of each basis state (possible spin
        exchanges, including hops on or off the centre)."""
        return self._exchange[1]

    def laplacian_matrix(self) -> scipy.sparse.csr_matrix:
        return self._laplacian

    def hamiltonian(self, omega: float, delta: float,
                    lam: float = 0.0) -> scipy.sparse.csr_matrix:
        """H = H_cost - omega * H_drive + lam * H_laplacian, a fresh matrix:
        a copy of the last (omega, lam)'s pattern, NaN in each diagonal slot,
        with the diagonal written and zeros dropped."""
        if self._pattern[0] != (omega, lam):
            H = scipy.sparse.diags(np.full(self.dim, np.nan))
            H = (H - omega * self.drive_matrix()).tocsr()
            H = H + lam * self.laplacian_matrix() if lam else H
            const = lam * self.exchange_degree_diag() if lam else 0.0
            self._pattern = (omega, lam), H, np.isnan(H.data), const
        _, H, slots, const = self._pattern
        H = H.copy()
        H.data[slots] = -delta * self.total_size.astype(float) + const
        H.eliminate_zeros()
        return H


def star_gap_scan(n_b: int, ell: int, omega: float = 1.0, lam: float = 0.0,
                  points: int = 64, span: tuple[float, float] = (0.3, 2.2)
                  ) -> GapReport:
    """Minimum-gap scan of star(n_b, ell) in the branch-symmetric sector.

    At omega = 1 the detuning grid runs from span[0] * c (at least 0.2) to
    span[1] * c + 0.8, where c = 1 / crossing is the predicted crossing
    detuning (sqrt(n_b) when no finite crossing is predicted).  Since
    H(omega, delta) = omega * H(1, delta / omega), other drives scan that
    grid scaled by omega, so omega must be positive.
    """
    if not omega > 0:
        raise ValueError(f"star scans need a positive drive, got omega "
                         f"{omega:g}")
    space = SymmetricStarSpace(n_b, ell)
    try:
        centre = 1.0 / star_level_crossing(n_b, ell).crossing
    except ValueError:
        centre = math.sqrt(max(n_b, 2.0))
    grid = omega * np.linspace(max(0.2, span[0] * centre),
                               span[1] * centre + 0.8, points)
    report = scan_minimum_gap(lambda d: space.hamiltonian(omega, d, lam), grid,
                              derivative=-space.total_size)
    if report.delta_star:
        report.crossing = omega / report.delta_star
    report.method.update({"omega": omega, "lam": lam,
                          "basis": "branch-symmetric", "dim": space.dim})
    return report
