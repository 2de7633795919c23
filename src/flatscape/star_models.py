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

import functools
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np
import scipy.sparse

from .bits import Space, enumerate_independent_sets
from .graphs import Graph
from .spectral import GapReport, scan_minimum_gap


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


def star_wavefunction(n_b: int, ell: int, walls) -> float:
    """Amplitude of the first-excited manifold state at domain-wall
    positions x_i in {1, .., ell/2 + 1}: a product of sine modes."""
    walls = tuple(walls)
    if len(walls) != n_b:
        raise ValueError(f"expected {n_b} domain-wall positions, got {len(walls)}")
    m = ell // 2 + 1
    amp = 1.0
    for x in walls:
        if not 1 <= x <= m:
            raise ValueError(f"wall position {x} outside 1..{m}")
        amp *= math.sin(math.pi * x / (m + 1)) / math.sqrt(ell / 4.0 + 1.0)
    return amp


def _built_once(method):
    """Memoise a zero-argument operator method on its space instance."""
    @functools.wraps(method)
    def once(self):
        built = vars(self).setdefault("_built", {})
        if method.__name__ not in built:
            built[method.__name__] = method(self)
        return built[method.__name__]
    return once


class SymmetricStarSpace:
    """Star-graph operators in the branch-permutation-symmetric sector.

    Basis states are (sector, multiset-of-branch-states): sector A has the
    centre absent, sector B present (every branch then avoids its first
    vertex).  One-branch operators T act bosonically,
    <m - e_b + e_a| sum_i T_i |m> = T_ab * sqrt(m_b (m_a + 1)).
    The ground and first-excited states of the full star Hamiltonian lie in
    this sector (non-positive off-diagonals plus permutation symmetry), so
    minimum-gap scans and resolvent work are exact here.

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
        self.constrained = ((branch.masks & np.uint64(1)) == 0).tolist()

        def moves(table, keep):
            """Per source branch state b, the states a its moves reach
            (a <- b), both ends kept."""
            return [[a for a in row if a >= 0 and keep[a]] if keep[b] else []
                    for b, row in enumerate(table.tolist())]

        # sector B (centre present) keeps vertex 0 empty at both ends
        every = [True] * K
        self.flips_a = moves(branch.flips, every)
        self.flips_b = moves(branch.flips, self.constrained)
        self.exchanges_a = moves(branch.exchanges, every)
        self.exchanges_b = moves(branch.exchanges, self.constrained)
        # centre -> first-vertex hop target, defined where the hop lands on
        # an independent set
        self.centre_hop = {b: a for b, a in enumerate(branch.flips[:, 0].tolist())
                           if self.constrained[b] and a >= 0}

        self.basis_a = list(combinations_with_replacement(range(K), n_b))
        con_states = [i for i in range(K) if self.constrained[i]]
        self.basis_b = list(combinations_with_replacement(con_states, n_b))
        self.index_a = {m: i for i, m in enumerate(self.basis_a)}
        off = len(self.basis_a)
        self.index_b = {m: off + i for i, m in enumerate(self.basis_b)}
        self.dim = off + len(self.basis_b)
        self.total_size = np.zeros(self.dim, dtype=np.int64)
        self.sector_b = np.zeros(self.dim, dtype=bool)
        for m, i in self.index_a.items():
            self.total_size[i] = sum(self.size[s] for s in m)
        for m, i in self.index_b.items():
            self.total_size[i] = 1 + sum(self.size[s] for s in m)
            self.sector_b[i] = True

    @staticmethod
    def _counts(m) -> dict:
        c: dict[int, int] = {}
        for s in m:
            c[s] = c.get(s, 0) + 1
        return c

    def _accumulate_one_branch(self, targets, basis, index, sink, coef):
        """sum_i T_i for off-diagonal one-branch transitions, ``targets[b]``
        listing the states a with a <- b."""
        for m in basis:
            i = index[m]
            counts = self._counts(m)
            for b, cnt in counts.items():
                for a in targets[b]:
                    m2 = list(m)
                    m2.remove(b)
                    m2.append(a)
                    j = index[tuple(sorted(m2))]
                    amp = math.sqrt(cnt * (counts.get(a, 0) + 1))
                    sink(j, i, coef * amp)

    def _centre_exchange(self, sink, coef):
        """Centre occupation hops onto a branch's first vertex (B -> A) and
        back; valid only when every other branch stays constrained, which
        the sector-B support already guarantees."""
        for m in self.basis_b:
            i = self.index_b[m]
            counts = self._counts(m)
            for b, cnt in counts.items():
                a = self.centre_hop.get(b)
                if a is None:
                    continue
                m2 = list(m)
                m2.remove(b)
                m2.append(a)
                m2 = tuple(sorted(m2))
                j = self.index_a[m2]
                amp = math.sqrt(cnt * self._counts(m2)[a])
                sink(j, i, coef * amp)
                sink(i, j, coef * amp)

    def _centre_flip(self, sink, coef):
        for m in self.basis_b:
            i, j = self.index_a[m], self.index_b[m]
            sink(i, j, coef)
            sink(j, i, coef)

    @_built_once
    def drive_matrix(self) -> scipy.sparse.csr_matrix:
        """Single-spin-flip generator (matrix elements 1 per allowed flip)."""
        rows, cols, vals = [], [], []
        sink = lambda r, c, v: (rows.append(r), cols.append(c), vals.append(v))
        self._accumulate_one_branch(self.flips_a, self.basis_a, self.index_a,
                                    sink, 1.0)
        self._accumulate_one_branch(self.flips_b, self.basis_b, self.index_b,
                                    sink, 1.0)
        self._centre_flip(sink, 1.0)
        return scipy.sparse.csr_matrix((vals, (rows, cols)),
                                       shape=(self.dim, self.dim))

    @_built_once
    def spin_exchange_matrix(self) -> scipy.sparse.csr_matrix:
        rows, cols, vals = [], [], []
        sink = lambda r, c, v: (rows.append(r), cols.append(c), vals.append(v))
        self._accumulate_one_branch(self.exchanges_a, self.basis_a, self.index_a,
                                    sink, 1.0)
        self._accumulate_one_branch(self.exchanges_b, self.basis_b, self.index_b,
                                    sink, 1.0)
        self._centre_exchange(sink, 1.0)
        return scipy.sparse.csr_matrix((vals, (rows, cols)),
                                       shape=(self.dim, self.dim))

    def _moves_out(self, op, raising: bool = False) -> np.ndarray:
        """Moves of ``op`` out of one configuration of each orbit, counting
        only the size-raising ones if ``raising``.  With s = sqrt(permutation
        multiplicity), the entry <m'|op|m> stands for op[m', m] * s[m'] / s[m]
        moves out of orbit m; the counts are integers."""
        t = op.tocoo()
        log_s = np.array([0.5 * math.log(self.permutation_multiplicity(i))
                          for i in range(self.dim)])
        w = t.data * np.exp(log_s[t.row] - log_s[t.col])
        if raising:
            w = w * (self.total_size[t.row] > self.total_size[t.col])
        return np.rint(np.bincount(t.col, weights=w, minlength=self.dim))

    @_built_once
    def exchange_degree_diag(self) -> np.ndarray:
        """Configuration-graph degree of each basis state (possible spin
        exchanges, including hops on or off the centre)."""
        return self._moves_out(self.spin_exchange_matrix())

    @_built_once
    def free_vertex_diag(self) -> np.ndarray:
        """Vertices each basis state can add, centre included."""
        return self._moves_out(self.drive_matrix(), raising=True)

    @_built_once
    def laplacian_matrix(self) -> scipy.sparse.csr_matrix:
        return (scipy.sparse.diags(self.exchange_degree_diag())
                - self.spin_exchange_matrix()).tocsr()

    def hamiltonian(self, omega: float, delta: float,
                    lam: float = 0.0) -> scipy.sparse.csr_matrix:
        """H = H_cost - omega * H_drive + lam * H_laplacian, a fresh matrix."""
        H = scipy.sparse.diags(-delta * self.total_size.astype(float))
        H = H - omega * self.drive_matrix()
        if lam:
            H = H + lam * self.laplacian_matrix()
        return H.tocsr()

    def manifold_indices(self, b: int) -> np.ndarray:
        return np.where(self.total_size == b)[0]

    def perturbation_block(self, b: int) -> tuple[np.ndarray, np.ndarray]:
        """Dense (H_se - H_fv) block on the size-b manifold.

        The second-order effective Hamiltonian within a manifold is
        -(Omega^2/delta) (H_se + b - H_fv) up to the uniform shift, so its
        ground state is this block's maximal eigenvector.
        """
        sel = self.manifold_indices(b)
        block = (self.spin_exchange_matrix()[sel][:, sel].toarray()
                 - np.diag(self.free_vertex_diag()[sel]))
        return sel, block

    def permutation_multiplicity(self, i: int) -> int:
        """Number of distinct branch arrangements collapsed into basis
        state i (the multinomial coefficient of its multiset)."""
        m = self.basis_b[i - len(self.basis_a)] if self.sector_b[i] \
            else self.basis_a[i]
        total = math.factorial(self.n_b)
        for cnt in self._counts(m).values():
            total //= math.factorial(cnt)
        return total

    def uniform_state(self, b: int) -> np.ndarray:
        """The normalized uniform superposition of all size-b independent
        sets, expressed in the symmetric basis."""
        sel = self.manifold_indices(b)
        vec = np.zeros(self.dim)
        for i in sel:
            vec[i] = math.sqrt(self.permutation_multiplicity(int(i)))
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise ValueError(f"empty manifold b={b}")
        return vec / norm

    def maximum_state(self) -> np.ndarray:
        """The unique maximum independent set as a symmetric basis vector."""
        vec = np.zeros(self.dim)
        sel = self.manifold_indices(self.alpha)
        if len(sel) != 1:
            raise RuntimeError("star maximum independent set should be unique")
        vec[sel[0]] = 1.0
        return vec

    def product_wall_state(self) -> np.ndarray:
        """The sine-product domain-wall state in the symmetric basis."""
        m = self.ell // 2 + 1
        # branch states with a single domain wall: centre-absent sets of
        # size ell/2; wall position x means first vertex occupied iff x > 1
        vec = np.zeros(self.dim)
        wall_amp = {}
        for i, s in enumerate(self.branch_states):
            if self.size[i] != self.ell // 2:
                continue
            # wall coordinate: x = 1 for the state reachable from the maximum
            # set by flipping the centre (first branch vertex empty), growing
            # by one per occupied odd-numbered site as the wall moves outward
            x = 1 + sum((s >> v) & 1 for v in range(0, self.ell, 2))
            wall_amp[i] = math.sin(math.pi * x / (m + 1)) / math.sqrt(
                self.ell / 4.0 + 1.0)
        for mset, idx in self.index_a.items():
            if any(s not in wall_amp for s in mset):
                continue
            amp = 1.0
            for s in mset:
                amp *= wall_amp[s]
            vec[idx] = amp * math.sqrt(self.permutation_multiplicity(idx))
        return vec


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
