"""Hamiltonians on the independent-set-restricted space, low-lying spectra,
minimum-gap scans, and the effective-two-level (resolvent) gap machinery.

Conventions: every operator acts on the independent sets, ordered by
(size, mask), so each fixed-size manifold is a contiguous run of rows.  The
assembled operator is H = H_cost - H_drive + lam * H_lap with H_cost
diagonal (-delta per occupied vertex), drive entries Omega between
configurations one spin flip apart, and H_lap the configuration-graph
Laplacian acting within each manifold.
Fixing delta = 1 and scanning the drive-to-detuning ratio is the usual
workflow; all coefficients stay explicit so any scale convention can be
expressed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .bits import (Space, enumerate_independent_sets, popcount,
                   require_mask_width)
from .errors import CapacityError, ConvergenceError
from .graphs import Graph

# dense eigh up to here, Lanczos above: the two cost the same near 250 rows
# for two eigenpairs with vectors at SCAN_ARPACK_TOL, on star-sector and
# unit-disk operators alike (BENCH_13.json)
DENSE_EIG_LIMIT = 256
# build_operator raises CapacityError past this many estimated nonzeros
NNZ_LIMIT = 2_000_000
DEGENERACY_RTOL = 1e-8
SERIES_MAX_TERMS = 64  # resolvent moment series; about 12 terms when h << pole
# every Lanczos pair must reach ||H v - E v|| <= RESIDUAL_RTOL * ||H||
RESIDUAL_RTOL = 1e-9
# ARPACK's stopping tolerance at scan points: a tenth of RESIDUAL_RTOL, so
# ARPACK stops near where the residual gate passes
SCAN_ARPACK_TOL = 1e-10
# scan anchors above DENSE_EIG_LIMIT, and their basis's pivoted-QR drop level
ANCHOR_STRIDE = 3
BASIS_DROP_TOL = 1e-12
# scan_minimum_gap refines delta* to this relative resolution
SCAN_REL_TOL = 1e-6
# manifolds alpha-1 .. alpha-4 compete as the crossing partner
CROSSING_CANDIDATES = 4
# the resolvent factors z0 - QHQ up to this many rows and runs MINRES, to
# this relative residual, above
RESOLVENT_DENSE_LIMIT = 4096
RESOLVENT_SOLVE_TOL = 1e-10


def restricted_basis(graph: Graph) -> list[int]:
    """All independent sets ordered by (size, mask)."""
    sets = enumerate_independent_sets(graph.n, graph.adjacency())
    return sorted(sets, key=lambda z: (popcount(z), z))


def _move_matrix(moves: np.ndarray) -> scipy.sparse.csr_matrix:
    """Unit entries from each row to every row one move away, for a move
    table of a ``Space`` (its flips or its exchanges)."""
    rows, slots = np.nonzero(moves >= 0)
    dim = len(moves)
    return scipy.sparse.csr_matrix(
        (np.ones(len(rows)), (rows, moves[rows, slots])), shape=(dim, dim))


def _laplacian(exchanges: np.ndarray) -> scipy.sparse.csr_matrix:
    exchange = _move_matrix(exchanges)
    degree = np.asarray(exchange.sum(axis=1)).ravel()
    return (scipy.sparse.diags(degree) - exchange).tocsr()


def free_vertex_diag(graph: Graph, basis: list[int]) -> np.ndarray:
    """Per-configuration count of vertices addable without a violation."""
    masks = np.asarray(basis, dtype=np.uint64)
    out = np.zeros(len(masks))
    for v, nbrs in enumerate(graph.adjacency()):
        out += (masks & np.uint64(nbrs | 1 << v)) == 0
    return out


@dataclass
class OperatorHandle:
    """A sparse symmetric operator on an explicit configuration basis."""

    space: Space
    matrix: scipy.sparse.csr_matrix

    @property
    def basis(self) -> list[int]:
        return self.space.basis

    @property
    def dim(self) -> int:
        return len(self.space.basis)

    def sizes(self) -> np.ndarray:
        return self.space.sizes


def build_operator(graph: Graph, omega: float, delta: float,
                   lam: float = 0.0) -> OperatorHandle:
    """Assemble H = H_cost - Omega*H_drive + lam*H_laplacian on
    ``restricted_basis(graph)``.  An operator whose ~dim*(n+2) nonzeros
    exceed NNZ_LIMIT raises CapacityError before it is built.
    """
    require_mask_width(graph.n)
    basis = restricted_basis(graph)
    # generous upfront estimate: flips + exchanges per row
    est_nnz = len(basis) * (graph.n + 2)
    if est_nnz > NNZ_LIMIT:
        raise CapacityError(
            f"operator would need ~{est_nnz} nonzeros, over the {NNZ_LIMIT} limit")
    space = Space.of(graph, basis)
    H = scipy.sparse.diags(-delta * space.sizes.astype(float)).tocsr()
    if omega:
        H = H - omega * _move_matrix(space.flips)
    if lam:
        H = H + lam * _laplacian(space.exchanges)
    return OperatorHandle(space=space, matrix=H.tocsr())


def operator_norm_bound(H) -> float:
    """Infinity norm of the sparse matrix: cheap upper bound on ||H||."""
    return float(np.max(np.abs(H).sum(axis=1)))


def lowest_eigenpairs(op, count: int = 2, tol: float = 0.0):
    """(values, vectors) of the ``count`` algebraically smallest eigenpairs
    of an OperatorHandle or a matrix: the one eigensolver entry point.

    Dense eigh up to DENSE_EIG_LIMIT rows, Lanczos above from a fixed start;
    every Lanczos pair is residual-checked against
    ||H v - E v|| <= RESIDUAL_RTOL * ||H||, and ConvergenceError carries the
    residuals of a solve that misses it.  ``tol`` is ARPACK's stopping
    tolerance (0: machine precision); a Ritz pair stops at a residual of
    about tol * |E|, so tol below RESIDUAL_RTOL lets ARPACK stop at the gate.
    """
    H = op.matrix if isinstance(op, OperatorHandle) else op
    dim = H.shape[0]
    count = min(count, dim)
    if dim <= DENSE_EIG_LIMIT:
        return scipy.linalg.eigh(H.toarray(), subset_by_index=(0, count - 1))
    # a positive uniform Philox (0, 0) draw: generic, so it overlaps the
    # states odd under a graph symmetry, which all ones can miss
    v0 = np.random.Generator(np.random.Philox(key=[0, 0])).random(dim)
    scale, last_residuals = operator_norm_bound(H), None
    for ncv, maxiter in ((max(20, 4 * count), 2000),
                         (max(64, 8 * count), 20000)):
        try:
            w, v = scipy.sparse.linalg.eigsh(
                H, k=count, which="SA", ncv=min(dim - 1, ncv), maxiter=maxiter,
                v0=v0, tol=tol)
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            last_residuals = _residuals(H, exc.eigenvalues, exc.eigenvectors)
            continue
        order = np.argsort(w)
        w, v = w[order], v[:, order]
        last_residuals = _residuals(H, w, v)
        if max(last_residuals) <= RESIDUAL_RTOL * scale:
            return w, v
    raise ConvergenceError(
        f"Lanczos failed to reach residual {RESIDUAL_RTOL:.1e} * ||H||",
        residuals=last_residuals)


def _residuals(H, w, v) -> list[float] | None:
    """||H v - w v|| per pair, or None when there is no pair."""
    if v is None or np.size(w) == 0:
        return None
    return np.linalg.norm(H @ v - v * w, axis=0).tolist()


@dataclass
class GapReport:
    """Minimum gap, crossing location and resolvent estimates for one scan."""

    gap: float | None = None
    delta_star: float | None = None
    crossing: float | None = None            # (Omega/delta)*
    e_star: float | None = None
    boundary_minimum: bool = False
    curve: list = field(default_factory=list)  # (delta, gap) samples
    tilde_gap: float | None = None
    corrected_gap: float | None = None
    slopes: dict = field(default_factory=dict)
    validity: float | None = None
    method: dict = field(default_factory=dict)
    operator: OperatorHandle | None = field(default=None, repr=False)

    def to_document(self) -> dict:
        def enc(x):
            if x is None:
                return None
            if isinstance(x, float) and math.isinf(x):
                return "inf"
            return x
        return {
            "version": 1,
            "kind": "gap_report",
            "gap": enc(self.gap),
            "delta_star": enc(self.delta_star),
            "crossing": enc(self.crossing),
            "e_star": enc(self.e_star),
            "boundary_minimum": self.boundary_minimum,
            "tilde_gap": enc(self.tilde_gap),
            "corrected_gap": enc(self.corrected_gap),
            "slopes": self.slopes,
            "validity": enc(self.validity),
            "method": self.method,
            "curve": [[float(d), float(g)] for d, g in self.curve],
        }


def _brent_root(fn, a, b, fa, fb, xtol):
    """A root of ``fn`` in [a, b], where fa = fn(a) and fb = fn(b) differ in
    sign: Brent's safeguarded inverse-quadratic / secant / bisection search
    (Brent 1973, ch. 4), stopped once the bracket is under ``xtol``.
    Returns the last iterate, the end of the final bracket with the smaller
    |fn|."""
    c, fc = b, fb
    d = e = b - a
    eps = np.finfo(float).eps
    while True:
        if (fb > 0 and fc > 0) or (fb < 0 and fc < 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * eps * abs(b) + 0.5 * xtol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * xm * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = fn(b)


def _scan_grid(deltas) -> np.ndarray:
    """``deltas`` as a float array of at least 3 strictly increasing
    points, checked before any point is solved."""
    deltas = np.asarray(list(deltas), dtype=float)
    if len(deltas) < 3:
        raise ValueError("scan grid needs at least 3 points")
    if not (np.diff(deltas) > 0).all():
        raise ValueError("scan grid must be strictly increasing, got "
                         f"{deltas[0]:g} .. {deltas[-1]:g}")
    return deltas


def minimize_gap(gap_at, deltas, rel_tol: float, grid=None) -> GapReport:
    """Minimum of ``gap_at(delta)``, which returns (gap, d gap/d delta),
    over a coarse grid, refined around every interior local minimum k (the
    dip can be narrower than the grid spacing).  ``grid``, the gaps at
    ``deltas`` if known, stands in for the grid pass.  The sign of the slope
    at delta_k picks the half bracket [delta_k-1, delta_k] or
    [delta_k, delta_k+1]; where the slope there goes from - to +, Brent's
    root search finds its zero to rel_tol / 2 (refinement "root"), else the
    dip keeps its grid point, solved in full (refinement "grid").  Each
    delta is evaluated once.  The best refined value wins and the grid ends
    compete with it.  The report carries the coarse curve, the gap, its
    delta, ``boundary_minimum`` and, in ``method``, the evaluations (grid,
    refine) and the refinement of each dip.
    """
    deltas = _scan_grid(deltas)
    seen = {}

    def evaluate(d):
        if d not in seen:
            seen[d] = gap_at(d)
        return seen[d]

    gaps = np.asarray([evaluate(d)[0] for d in deltas.tolist()]
                      if grid is None else grid, dtype=float)
    curve = list(zip(deltas.tolist(), gaps.tolist()))
    interior = [k for k in range(1, len(deltas) - 1)
                if gaps[k] <= gaps[k - 1] and gaps[k] <= gaps[k + 1]]
    report = GapReport(curve=curve)
    best_gap, best_delta, refinements = math.inf, None, []
    for k in interior:
        d_min = float(deltas[k])
        g_min, slope = evaluate(d_min)
        lo, hi = (k - 1, k) if slope >= 0 else (k, k + 1)
        a, b = float(deltas[lo]), float(deltas[hi])
        fa, fb = evaluate(a)[1], evaluate(b)[1]
        if fa < 0 <= fb:
            d_min = _brent_root(lambda d: evaluate(d)[1], a, b, fa, fb,
                                0.5 * rel_tol * max(1.0, abs(a), abs(b)))
            g_min = evaluate(d_min)[0]
        refinements.append("root" if fa < 0 <= fb else "grid")
        if g_min < best_gap:
            best_gap, best_delta = g_min, d_min
    edge = 0 if gaps[0] <= gaps[-1] else -1
    edge_gap, edge_delta = float(gaps[edge]), float(deltas[edge])
    if edge_gap < best_gap:
        report.boundary_minimum = True
        report.gap, report.delta_star = edge_gap, edge_delta
    else:
        report.gap, report.delta_star = best_gap, best_delta
    on_grid = set(deltas.tolist())
    report.method = {"evaluations": {"grid": len(on_grid),
                                     "refine": len(seen.keys() - on_grid)},
                     "refinement": refinements}
    return report


def _gap_of(w, v, derivative):  # (ground energy, gap, slope) of two pairs
    slope = float(derivative @ (v[:, 1] ** 2 - v[:, 0] ** 2))
    return float(w[0]), float(w[1] - w[0]), slope


def _reduced_grid(factory, deltas: np.ndarray, derivative, solve):
    """(gaps, method entries) of a reduced-basis grid; see scan_minimum_gap."""
    anchors = sorted({*range(0, len(deltas), ANCHOR_STRIDE), len(deltas) - 1})
    gaps, fallbacks, worst = np.empty(len(deltas)), [], 0.0
    V = np.empty((len(derivative), 2 * len(anchors)), order="F")
    for j, k in enumerate(anchors):  # H(delta) = H + s * diag(derivative)
        H = factory(deltas[k]) if k == len(deltas) - 1 else None
        gaps[k], V[:, 2 * j:2 * j + 2] = solve(deltas[k], H)
    V, R, _ = scipy.linalg.qr(V, overwrite_a=True, mode="economic",
                              pivoting=True)
    V = V[:, :np.count_nonzero(abs(R.diagonal()) >= BASIS_DROP_TOL)]
    blocks = [slice(c, c + 8) for c in range(0, V.shape[1], 8)]
    A = np.hstack([V.T @ (H @ V[:, b]) for b in blocks])  # bounds peak memory
    N = np.hstack([V.T @ (derivative[:, None] * V[:, b]) for b in blocks])
    diag = H.diagonal()
    off = np.asarray(abs(H).sum(axis=1)).ravel() - np.abs(diag)
    for k in sorted(set(range(len(deltas))) - set(anchors)):
        s = deltas[k] - deltas[-1]
        theta, y = scipy.linalg.eigh(A + s * N, subset_by_index=(0, 1))
        x = V @ y
        gate = RESIDUAL_RTOL * np.max(np.abs(diag + s * derivative) + off)
        ratio = float(np.linalg.norm(H @ x + s * derivative[:, None] * x
                                     - x * theta, axis=0).max() / gate)
        if ratio <= 1.0:
            gaps[k], worst = theta[1] - theta[0], max(worst, ratio)
        else:
            fallbacks.append(k)
    del H  # fallback solves then hold no more memory than anchor solves
    for k in fallbacks:
        gaps[k] = solve(deltas[k])[0]
    return gaps, {"anchors": len(anchors), "fallbacks": len(fallbacks),
                  "ritz_residual": worst}


def scan_minimum_gap(factory, deltas, derivative) -> GapReport:
    """Minimum-gap scan of ``factory(delta)``, affine in delta with
    ``derivative`` the diagonal of dH/d delta, over the grid ``deltas`` (see
    ``minimize_gap``), plus the ground energy ``e_star`` there, from the
    scan's own solve at delta*; the report keeps no eigenvectors, and
    ``lowest_eigenpairs(factory(delta_star), 2, tol=SCAN_ARPACK_TOL)``
    repeats that solve.  Refinement points, and up to DENSE_EIG_LIMIT rows
    every grid point, are full solves.  Above it, anchors (every
    ANCHOR_STRIDE-th point and both ends) are solved and span V; any other
    grid point takes the Ritz pairs of V^T H V if their residuals pass the
    Lanczos gate, else a full solve.  A level among the lowest two at
    ANCHOR_STRIDE or more consecutive grid points is solved at an anchor;
    one there at fewer can be missed."""
    deltas = _scan_grid(deltas)
    points = {}

    def solve(d, H=None):  # H is factory(d) when it is built already
        w, v = lowest_eigenpairs(factory(d) if H is None else H, 2,
                                 tol=SCAN_ARPACK_TOL)
        points[d] = _gap_of(w, v, derivative)  # (ground, gap, slope)
        return points[d][1], v

    def gap_at(d):
        if d not in points:
            solve(d)
        return points[d][1:]

    grid, stats = (None, {}) if len(derivative) <= DENSE_EIG_LIMIT else \
        _reduced_grid(factory, deltas, derivative, solve)
    report = minimize_gap(gap_at, deltas, SCAN_REL_TOL, grid=grid)
    report.method.update(stats)
    report.e_star = points[report.delta_star][0]
    return report


def min_gap_scan(graph: Graph, omega: float = 1.0, lam: float = 0.0,
                 delta_range: tuple[float, float] = (0.1, 6.0),
                 points: int = 64) -> GapReport:
    """Minimum-gap scan over the detuning at fixed drive for the (possibly
    Laplacian-modified) Hamiltonian on the restricted space."""
    base = build_operator(graph, omega, 0.0, lam)

    def factory(d):
        return base.matrix + scipy.sparse.diags(-d * base.sizes())

    grid = np.linspace(delta_range[0], delta_range[1], points)
    report = scan_minimum_gap(factory, grid, -base.sizes())
    report.operator = OperatorHandle(base.space, factory(report.delta_star))
    if report.delta_star is not None and report.delta_star != 0.0:
        report.crossing = omega / report.delta_star
    report.method.update({"omega": omega, "lam": lam, "points": points,
                          "delta_range": list(delta_range),
                          "basis": "restricted", "dim": base.dim})
    return report


@dataclass
class PerturbativeStates:
    """Leading-order crossing states and second-order crossing estimates."""

    ground: np.ndarray          # amplitudes on the alpha manifold
    ground_rows: slice          # its rows of the space
    excited: np.ndarray         # amplitudes on the crossing manifold
    excited_rows: slice
    b_excited: int
    alpha: int
    crossing: float             # predicted (Omega/delta)*
    e_star: float               # predicted ground energy at the crossing
    condition_ratio: float      # LHS/RHS of the perturbative-regime check
    degenerate: bool


def _manifold_ground(exchange, free: np.ndarray):
    """(vec, <H_se>, <H_fv>, degenerate) of the ground state of the
    second-order Hamiltonian on one non-empty fixed-size manifold, from its
    exchange adjacency and free-vertex counts: the maximal eigenvector of
    M = H_se - H_fv, the lowest pair of lowest_eigenpairs(-M, 2)."""
    if len(free) == 1:
        return np.ones(1), 0.0, float(free[0]), False
    M = (exchange - scipy.sparse.diags(free)).tocsr()
    w, v = lowest_eigenpairs(-M, 2)
    vec = v[:, 0] if v[:, 0].sum() >= 0 else -v[:, 0]
    scale = max(operator_norm_bound(M), 1.0)  # bounds |every eigenvalue|
    degenerate = abs(w[1] - w[0]) < DEGENERACY_RTOL * scale
    se = float(vec @ (exchange @ vec))
    fv = float(vec @ (free * vec))
    return vec, se, fv, degenerate


def perturbative_states(space: Space) -> PerturbativeStates:
    """Identify the crossing pair: the alpha-manifold ground state and the
    manifold b, among the CROSSING_CANDIDATES below alpha, whose
    second-order energy first intersects it.

    ``space`` is the restricted space in (size, mask) order, as
    ``build_operator`` enumerates it, so a manifold is a contiguous run of
    its rows, and the states come back as row slices of it.  An exchange
    keeps the set size, so each manifold's H_se - H_fv is a diagonal block
    of the space's exchange matrix and free-vertex counts.  alpha is the
    size of the last row, and no manifold up to alpha is empty.
    The crossing location solves
    (Omega/delta)^2 = (alpha - b) / (<E|Hse|E> - <G|Hse|G> - <E|Hfv|E> - alpha + b)
    and the perturbative-regime condition compares the exchange-expectation
    difference against 3 (alpha - b).
    """
    exchange = _move_matrix(space.exchanges)
    free = free_vertex_diag(space.graph, space.basis)
    alpha = int(space.sizes[-1])

    def manifold(b):  # (rows, vec, <H_se>, <H_fv>, degenerate)
        rows = slice(*np.searchsorted(space.sizes, [b, b + 1]).tolist())
        return rows, *_manifold_ground(exchange[rows, rows], free[rows])

    g_rows, g_vec, g_se, _, g_degen = manifold(alpha)
    found = []  # (crossing, b, rows, vec, <H_se>, degenerate)
    for b in range(alpha - 1, max(alpha - 1 - CROSSING_CANDIDATES, 0), -1):
        e_rows, e_vec, e_se, e_fv, e_degen = manifold(b)
        denom = e_se - g_se - e_fv - (alpha - b)
        if denom > 0:
            found.append((math.sqrt((alpha - b) / denom), b, e_rows, e_vec,
                          e_se, e_degen))
    if not found:
        raise ConvergenceError("no manifold produces a finite positive crossing")
    crossing, b, e_rows, e_vec, e_se, e_degen = min(
        found, key=lambda c: c[0])  # the first of equal crossings
    return PerturbativeStates(
        ground=g_vec, ground_rows=g_rows,
        excited=e_vec, excited_rows=e_rows,
        b_excited=b, alpha=alpha, crossing=crossing,
        e_star=-alpha - crossing ** 2 * (alpha + g_se),  # units of delta
        condition_ratio=(e_se - g_se) / (3.0 * (alpha - b)),
        degenerate=g_degen or e_degen,
    )


# Schur-complement columns updated per sector solve: the one transient
SECTOR_CHUNK = 64
# a sector with a pivot under this times max|A| merges into the next one
SECTOR_PIVOT_RTOL = 1e-8


class _BunchKaufman:
    """S = P L D L^T P^T of one dense symmetric sector S (lower triangle,
    overwritten) by LAPACK dsytrf; dsyconv splits off the tridiagonal D, so
    a solve is two BLAS-3 dtrsm and a banded solve."""

    def __init__(self, S: np.ndarray):
        # lwork n * block size: the default, n, runs unblocked and 10x slower
        ldl, ipiv, self.info = scipy.linalg.lapack.dsytrf(
            S, lower=1, overwrite_a=1, lwork=64 * len(S))
        self.L, e, _ = scipy.linalg.lapack.dsyconv(ldl, ipiv, lower=1,
                                                   overwrite_a=1)
        d = self.L.diagonal().copy()
        self.D = np.array([np.r_[0.0, e[:-1]], d, e])  # solve_banded's (1, 1)
        w = scipy.linalg.eigvalsh_tridiagonal(d, e[:-1])
        self.negatives, self.smallest = int(np.sum(w < 0)), np.abs(w).min()
        # P as row swaps: a 2x2 block of D swaps only its second row
        self.piv, pairs = np.abs(ipiv) - 1, np.flatnonzero(ipiv < 0)[::2]
        self.piv[pairs] = pairs

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """S^-1 rhs for a 2-D ``rhs``."""
        lapack, blas = scipy.linalg.lapack, scipy.linalg.blas
        y = lapack.dlaswp(np.array(rhs, order="F"), self.piv, overwrite_a=1)
        y = blas.dtrsm(1.0, self.L, y, lower=1, diag=1, overwrite_b=1)
        y = scipy.linalg.solve_banded((1, 1), self.D, y, overwrite_b=True)
        y = blas.dtrsm(1.0, self.L, y, lower=1, diag=1, trans_a=1,
                       overwrite_b=1)
        return lapack.dlaswp(y, self.piv, inc=-1, overwrite_a=1)


def _sector_ldl(C, X: np.ndarray | None = None, Y: np.ndarray | None = None):
    """(below, solve) of the symmetric A = C + X Y^T (C sparse, X Y^T
    symmetric of rank r), from one block LDL^T, a sector at a time.

    Row 0 is the first sector; each next one ends just past the last column
    the rows before it reach, so A is block tridiagonal over them (the
    set-size sectors of a size-sorted basis with a drive).  Each sector's
    Schur complement is factored by _BunchKaufman and eliminated into the
    next, SECTOR_CHUNK columns at a time; a sector with a pivot under
    SECTOR_PIVOT_RTOL * max|A| merges into the next instead, so one block
    is the dense factorization.  ``below`` maps each sector boundary m to
    the number of negative eigenvalues of A[:m, :m], the sum of the counts
    of the sectors before m (Haynsworth inertia additivity);
    ``solve(rhs)`` is A^-1 rhs from the stored sector factors, or None when
    A is singular.
    """
    n = C.shape[0]
    if X is None:
        X = Y = np.zeros((n, 0))
    last = np.arange(n)  # the last column each row reaches
    np.maximum.at(last, np.repeat(np.arange(n), np.diff(C.indptr)), C.indices)
    for x, y in zip(X.T, Y.T):
        if y.any():
            last[x != 0] = np.maximum(last[x != 0], np.flatnonzero(y)[-1])
    last, bounds = np.maximum.accumulate(last), [0, 1]
    while bounds[-1] < n:
        bounds.append(max(int(last[bounds[-1] - 1]), bounds[-1]) + 1)
    # sectors: (rows, factor, C[rows, previous sector's rows])
    scale, sectors, below = abs(C).max(), [], {}
    lo, i = 0, 1
    while lo < n:
        rows, down = slice(lo, bounds[i]), None
        S = scipy.linalg.blas.dsyr2k(0.5, X[rows], Y[rows], beta=1.0, lower=1,
                                     c=C[rows, rows].toarray(order="F"),
                                     overwrite_c=1)
        if sectors:
            prev, factor, _ = sectors[-1]
            down = C[rows, prev]
            for c0 in range(0, rows.stop - lo, SECTOR_CHUNK):
                c = slice(c0, min(c0 + SECTOR_CHUNK, rows.stop - lo))
                x = factor.solve(down[c].T.toarray()  # A[prev, rows][:, c]
                                 + X[prev] @ Y[lo + c.start:lo + c.stop].T)
                S[:, c] -= down @ x
                S[:, c] -= X[rows] @ (Y[prev].T @ x)
                del x  # one chunk live at a time
        factor, i = _BunchKaufman(S), i + 1
        below[rows.stop] = below.get(lo, 0) + factor.negatives
        if factor.smallest > SECTOR_PIVOT_RTOL * scale or rows.stop == n:
            sectors.append((rows, factor, down))
            lo = rows.stop

    def solve(rhs):  # forward over the sectors, then back from the last
        z, t = np.array(rhs, dtype=float), None
        for k, (rows, factor, down) in enumerate(sectors):
            if k:
                prev = sectors[k - 1][0]
                z[rows] -= down @ t + X[rows] @ (Y[prev].T @ t)
            t = factor.solve(z[rows])
        z[rows] = t
        for (rows, factor, _), (after, _, down) in zip(sectors[-2::-1],
                                                       sectors[:0:-1]):
            z[rows] = factor.solve(z[rows] - down.T @ z[after]
                                   - X[rows] @ (Y[after].T @ z[after]))
        return z
    return below, (None if factor.info > 0 else solve)


def _project_out(x: np.ndarray, G: np.ndarray, E: np.ndarray) -> np.ndarray:
    """x with its components along the orthonormal G and E removed."""
    return x - G * (G @ x) - E * (E @ x)


def _heff_solver(H, G: np.ndarray, E: np.ndarray, z0: float):
    """(entries, counts): entries maps z to <a| H + H Q (z - QHQ)^{-1} Q H |b>
    for a, b in {G, E}; counts holds the LDL^T factorizations and the most
    series terms summed.

    Both paths solve only M = z0 - QHQ, whose powers feed the series below:
    up to RESOLVENT_DENSE_LIMIT rows ``_sector_ldl`` factors M once as
    sparse z0 - H plus U W^T + W U^T (U = [G E], W = HU - U (U^T H U) / 2),
    rank 4 on the sectors of G and E and their neighbours, so M stays block
    tridiagonal; above, each column is a MINRES solve to RESOLVENT_SOLVE_TOL
    of M on Q and the identity on P.  At z = z0 + s the resolvent term is
    sum_{k>=1} (-s)^{k-1} rhs^T M^{-k} rhs, cut below double precision of
    the entries; it diverges (ConvergenceError) when z - QHQ has an
    eigenvalue within about |s| of z0.
    """
    U = np.column_stack([G, E])
    HU = H @ U
    base = U.T @ HU
    rhs = HU - U @ base  # Q H [G E]
    counts = {"factorizations": 0, "series_terms": None}
    dim = H.shape[0]
    if dim <= RESOLVENT_DENSE_LIMIT:
        C = (z0 * scipy.sparse.identity(dim)
             - scipy.sparse.csr_matrix(H)).tocsr()
        W = HU - 0.5 * U @ base
        _, solve = _sector_ldl(C, np.hstack([U, W]), np.hstack([W, U]))
        if solve is None:
            raise ConvergenceError(f"z0 = {z0!r} is an eigenvalue of QHQ")
        counts["factorizations"] = 1
    else:
        def av(x):  # M on Q, the identity on P, so MINRES stays well-posed
            qx = _project_out(x, G, E)
            return z0 * qx - _project_out(H @ qx, G, E) + (x - qx)

        linop = scipy.sparse.linalg.LinearOperator((dim, dim), matvec=av)

        def solve(b):  # every column of b lies in Q
            cols = []
            for col in b.T:
                y, info = scipy.sparse.linalg.minres(
                    linop, col, rtol=RESOLVENT_SOLVE_TOL, maxiter=40 * dim)
                if info != 0:
                    ritz = scipy.sparse.linalg.eigsh(
                        linop, k=1, which="SA", return_eigenvectors=False,
                        maxiter=2000, tol=1e-6)
                    raise ConvergenceError(
                        "resolvent solve did not converge; smallest Ritz "
                        f"value of (z0 - QHQ) is {float(ritz[0]):.3e} "
                        "(pole proximity)", residuals=[float(ritz[0])])
                cols.append(_project_out(y, G, E))
            return np.column_stack(cols)
    ys = [HU, solve(rhs)]

    def moment(k):  # Y_a^T Y_{k-a}, Y_j = M^-j rhs; Y_0 = HU, Y_1 is in Q
        while len(ys) <= (k + 1) // 2:
            ys.append(solve(ys[-1]))
        return ys[k // 2].T @ ys[k - k // 2]

    def resolvent(z):
        s, total, k = z - z0, moment(1), 1
        cut = np.finfo(float).eps * np.abs(base + total).max()
        while np.abs(term := (-s) ** k * moment(k + 1)).max() > cut:
            if k == SERIES_MAX_TERMS:
                pole = abs(moment(k)).max() / abs(moment(k + 1)).max()
                raise ConvergenceError(
                    f"resolvent series at z0 {s:+.3e} does not converge "
                    f"in {k} terms: z - QHQ has an eigenvalue about "
                    f"{pole:.3e} from z0", residuals=[pole])
            total, k = total + term, k + 1
        counts["series_terms"] = max(counts["series_terms"] or 0, k)
        return total

    def entries(z):
        m = base + resolvent(z)
        return {"GG": float(m[0, 0]), "GE": float(m[0, 1]),
                "EG": float(m[1, 0]), "EE": float(m[1, 1])}
    return entries, counts


def resolvent_gap(H, G: np.ndarray, E: np.ndarray, z0: float,
                  h_rel: float = 1e-4, exact_pairs=None) -> GapReport:
    """Effective-two-level gap estimates of the matrix ``H`` at the crossing.

    Returns tilde (twice the off-diagonal coupling at z0), the corrected gap
    tilde / sqrt(f_gg * f_ee) with f = 1 - d<Heff>/dz, the finite-difference
    slopes, and, when ``exact_pairs`` (the eigenvectors psi0, psi1) are
    supplied, the overlap-area validity diagnostic.

    H_eff(z) is _heff_solver's exact moment series about z0 on either path;
    it raises ConvergenceError when z - QHQ has a pole within about h of z0.
    A slope is the central difference at step h/2, or its Richardson
    extrapolation with the one at h where the two differ by over 1%.
    ``method`` records the LDL^T factorizations and the most series terms.
    """
    G, E = G / np.linalg.norm(G), E / np.linalg.norm(E)
    if abs(float(G @ E)) > 1e-10:
        raise ValueError("crossing states must be orthogonal")

    entries, counts = _heff_solver(H, G, E, z0)
    ent0 = entries(z0)
    tilde = 2.0 * abs(ent0["GE"])
    h = h_rel * max(abs(z0), 1.0)

    def slopes_at(step):
        ep, em = entries(z0 + step), entries(z0 - step)
        return {key: (ep[key] - em[key]) / (2.0 * step)
                for key in ("GG", "EE", "GE")}

    s_h = slopes_at(h)
    s_h2 = slopes_at(h / 2.0)
    slopes = {}
    for key in ("GG", "EE", "GE"):
        a, b = s_h[key], s_h2[key]
        if abs(a - b) > 0.01 * max(abs(a), abs(b), 1e-30):
            slopes[key] = (4.0 * b - a) / 3.0  # Richardson fallback
        else:
            slopes[key] = b
    m_gg, m_ee, m_ge = slopes["GG"], slopes["EE"], slopes["GE"]
    f_gg, f_ee = 1.0 - m_gg, 1.0 - m_ee
    corrected = tilde / math.sqrt(f_gg * f_ee)
    report = GapReport(
        tilde_gap=tilde, corrected_gap=corrected,
        slopes={"m_gg": m_gg, "m_ee": m_ee, "m_ge": m_ge,
                "f_gg": f_gg, "f_ee": f_ee},
        method={"z0": z0, "dense": H.shape[0] <= RESOLVENT_DENSE_LIMIT,
                "h": h, **counts},
    )
    if exact_pairs is not None:
        psi0, psi1 = exact_pairs
        area = (float(psi0 @ G) * float(psi1 @ E)
                - float(psi0 @ E) * float(psi1 @ G))
        report.validity = abs(area) ** 2
    return report


def hamming_gap_estimate(g_basis: list[int], g_amps: np.ndarray,
                         e_basis: list[int], e_amps: np.ndarray,
                         crossing: float):
    """Low-order coupling estimate from pairwise Hamming distances:
    2 * sum over pairs of crossing^d(z,z') <z|G><z'|E>, plus the
    (distance, population-product) histogram."""
    g_masks = np.asarray(g_basis, dtype=np.uint64)
    e_masks = np.asarray(e_basis, dtype=np.uint64)
    dist = np.bitwise_count(g_masks[:, None] ^ e_masks[None, :])
    amp_products = np.outer(g_amps, e_amps)
    estimate = 2.0 * float(np.sum(crossing ** dist * amp_products))
    pop_products = np.outer(g_amps ** 2, e_amps ** 2)
    histogram = {}
    for d in np.unique(dist):
        histogram[int(d)] = float(pop_products[dist == d].sum())
    return estimate, histogram
