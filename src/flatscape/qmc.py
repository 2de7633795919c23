"""Path-integral worldline sampler for the (optionally Laplacian-modified)
annealing Hamiltonian, with the diagonal/off-diagonal Trotter split, plus
the Gibbs-enhancement inputs feeding the QMC runtime bound.

A worldline is a cyclic stack of M configuration slices; its weight is the
product of 2M local factors, an off-diagonal bond matrix element between
consecutive slices and a diagonal factor per slice:

    w = prod_i  <z_i| exp(-beta H_od / M) |z_{i+1}>  exp(-beta H_d(z_{i+1}) / M)

All off-diagonal entries of the Hamiltonian are non-positive, so every bond
factor is non-negative (no sign problem); weights are kept in log domain
throughout because products of 2M factors underflow quickly.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
import scipy.linalg

from .classical_mc import _Uniforms, _stream
from .errors import CapacityError, ConfigError, ConvergenceError
from .graphs import Graph
from .landscape import independence_polynomial
from .spectral import DENSE_EIG_LIMIT, build_operator, lowest_eigenpairs

DENSE_WORLDLINE_LIMIT = 4096


@dataclass
class QMCConfig:
    """Worldline-chain parameters.

    Moves alter at most one spin per slice: single-slice flips, contiguous
    segment flips of one vertex (length 1..M, cyclic), and an exact
    conditional resampling of one vertex's full timeline by 2x2 transfer
    matrices (heat bath, acceptance one).  The heat-bath pass is what turns
    kink pairs over at large M; Metropolis site/segment flips alone leave
    the kink number frozen for thousands of sweeps.  A sweep is
    slices * n site attempts, ceil(segment_factor * n) segment attempts,
    then one heat-bath pass over the vertices when enabled.
    ``site_weight``/``segment_weight`` set the one-update mixture used by
    the exact transition-matrix construction.
    """

    beta: float = 1.0
    slices: int = 32
    omega: float = 0.3
    delta: float = 1.0
    lam: float = 0.0
    sweeps: int = 10_000
    seed: int = 0
    segment_factor: float = 1.0
    heat_bath_lines: bool = True
    site_weight: float = 0.5
    segment_weight: float = 0.5
    burn_in: int = 0

    def __post_init__(self):
        if self.slices < 2:
            raise ConfigError("need at least 2 Trotter slices")
        if self.segment_factor < 0:
            raise ConfigError("segment_factor must be non-negative")
        if self.site_weight < 0 or self.segment_weight < 0 or \
                self.site_weight + self.segment_weight <= 0:
            raise ConfigError("update mix has zero total weight")

    def weights(self) -> tuple[float, float]:
        total = self.site_weight + self.segment_weight
        return self.site_weight / total, self.segment_weight / total


@dataclass
class QMCResult:
    # mask -> visit count; every slice is tallied, and by cyclic invariance
    # each slice's marginal estimates the same Gibbs diagonal as slice 1
    marginal: dict
    acceptance: dict
    sweeps: int
    slices: int
    rng: dict
    config: dict

    def marginal_probs(self) -> dict:
        total = sum(self.marginal.values())
        return {z: c / total for z, c in self.marginal.items()}


class WorldlineEngine:
    """Precomputed tables for one (graph, config) worldline chain.

    Holds the restricted basis, the dense log bond matrix, per-slice
    diagonal log factors, and the flip table mapping (state, vertex) to the
    flipped state's index (-1 when the flip leaves the independent-set
    space).
    """

    def __init__(self, graph: Graph, config: QMCConfig):
        self.graph = graph
        self.config = config
        op = build_operator(graph, config.omega, config.delta, config.lam)
        if op.dim > DENSE_WORLDLINE_LIMIT:
            raise CapacityError(
                f"restricted dimension {op.dim} exceeds the dense "
                f"exponentiation limit {DENSE_WORLDLINE_LIMIT}")
        self.basis = op.basis
        self.index = op.space.index
        H = op.matrix.toarray()
        diag = np.diag(H).copy()
        H_od = H - np.diag(diag)
        bond = scipy.linalg.expm(-config.beta / config.slices * H_od)
        bond = np.maximum(bond, 0.0)  # clip roundoff negatives
        with np.errstate(divide="ignore"):
            self.log_bond = np.where(bond > 0.0, np.log(np.maximum(bond, 1e-300)),
                                     -np.inf)
        self.log_diag = -config.beta / config.slices * diag
        # plain-list mirrors for the samplers' hot loops
        self.bond_rows = bond.tolist()
        self.diag_list = np.exp(self.log_diag - self.log_diag.max()).tolist()
        self.log_bond_rows = self.log_bond.tolist()
        self.log_diag_list = self.log_diag.tolist()
        self.flip_to = op.space.flips
        self.flip_rows = self.flip_to.tolist()

    def log_weight(self, slices: list[int]) -> float:
        total = 0.0
        m = len(slices)
        for i in range(m):
            j = slices[(i + 1) % m]
            total += self.log_bond[slices[i], j] + self.log_diag[j]
        return total


def resample_vertex_line(engine: WorldlineEngine, state, v: int, u01):
    """Exact Gibbs draw of vertex v's occupation timeline conditioned on all
    other vertices: forward transfer-matrix products around the cycle, then
    sequential backward sampling.  Returns the new slice indices.

    Scalar 2x2 arithmetic throughout; the per-slice normalizations cancel in
    every conditional, so only relative weights are kept.
    """
    m = len(state)
    bond = engine.bond_rows
    diag = engine.diag_list
    flip_rows = engine.flip_rows
    basis = engine.basis
    bit = 1 << v
    opt0 = [0] * m
    opt1 = [0] * m
    for i, s in enumerate(state):
        if basis[s] & bit:
            opt1[i] = s
            opt0[i] = flip_rows[s][v]
        else:
            opt0[i] = s
            opt1[i] = flip_rows[s][v]
    # per-bond 2x2 transfer entries, normalized by their max
    t00 = [0.0] * m
    t01 = [0.0] * m
    t10 = [0.0] * m
    t11 = [0.0] * m
    for i in range(m):
        j = (i + 1) % m
        a0, a1 = opt0[i], opt1[i]
        b0, b1 = opt0[j], opt1[j]
        row0 = bond[a0]
        w00 = row0[b0] * diag[b0]
        w01 = row0[b1] * diag[b1] if b1 >= 0 else 0.0
        if a1 >= 0:
            row1 = bond[a1]
            w10 = row1[b0] * diag[b0]
            w11 = row1[b1] * diag[b1] if b1 >= 0 else 0.0
        else:
            w10 = w11 = 0.0
        peak = max(w00, w01, w10, w11)
        if peak <= 0.0:
            raise ConfigError("vertex line has no admissible timeline")
        t00[i], t01[i] = w00 / peak, w01 / peak
        t10[i], t11[i] = w10 / peak, w11 / peak
    # suffix products S[k] = T_k ... T_{m-1}, normalized per step
    s00 = [0.0] * (m + 1)
    s01 = [0.0] * (m + 1)
    s10 = [0.0] * (m + 1)
    s11 = [0.0] * (m + 1)
    s00[m] = s11[m] = 1.0
    for k in range(m - 1, -1, -1):
        a, b, c, d = t00[k], t01[k], t10[k], t11[k]
        e, f, g, h = s00[k + 1], s01[k + 1], s10[k + 1], s11[k + 1]
        p00 = a * e + b * g
        p01 = a * f + b * h
        p10 = c * e + d * g
        p11 = c * f + d * h
        peak = max(p00, p01, p10, p11)
        inv = 1.0 / peak if peak > 0.0 else 1.0
        s00[k], s01[k] = p00 * inv, p01 * inv
        s10[k], s11[k] = p10 * inv, p11 * inv
    total = s00[0] + s11[0]
    if total <= 0.0:
        raise ConfigError("vertex line has no admissible timeline")
    draws = u01.take(m)
    x0 = 0 if draws[0] * total < s00[0] else 1
    prev = x0
    out = [0] * m
    out[0] = opt0[0] if x0 == 0 else opt1[0]
    for k in range(1, m):
        if prev == 0:
            w0 = t00[k - 1] * (s00[k] if x0 == 0 else s01[k])
            w1 = t01[k - 1] * (s10[k] if x0 == 0 else s11[k])
        else:
            w0 = t10[k - 1] * (s00[k] if x0 == 0 else s01[k])
            w1 = t11[k - 1] * (s10[k] if x0 == 0 else s11[k])
        total = w0 + w1
        if total <= 0.0:
            raise ConfigError("conditional timeline weight vanished")
        prev = 0 if draws[k] * total < w0 else 1
        out[k] = opt0[k] if prev == 0 else opt1[k]
    return out


def _segment_delta(state, flipped_slots, proposal, log_bond, log_diag, m):
    """Log-weight change when slices in ``flipped_slots`` (a set) take the
    values in ``proposal`` (a dict slot -> new index)."""
    d_log = 0.0
    touched_bonds = set()
    for s in flipped_slots:
        touched_bonds.add((s - 1) % m)
        touched_bonds.add(s)
    for i in touched_bonds:
        j = (i + 1) % m
        old_i, old_j = state[i], state[j]
        new_i = proposal.get(i, old_i)
        new_j = proposal.get(j, old_j)
        d_log += log_bond[new_i][new_j] - log_bond[old_i][old_j]
    for s in flipped_slots:
        d_log += log_diag[proposal[s]] - log_diag[state[s]]
    return d_log


def qmc_run(graph: Graph, config: QMCConfig) -> QMCResult:
    """Sample worldlines with one-vertex segment flips.

    A sweep makes slices * n single-slice attempts followed by
    ceil(segment_factor * n) random-length segment attempts.  Every slice is
    tallied once per sweep after burn-in: by the cyclic invariance of the
    worldline weight each slice's marginal estimates the same Gibbs diagonal
    as slice 1.
    """
    engine = WorldlineEngine(graph, config)
    m = config.slices
    n = max(graph.n, 1)
    state = [engine.index[0]] * m
    log_bond = engine.log_bond_rows
    log_diag = engine.log_diag_list
    flip_rows = engine.flip_rows
    u01 = _Uniforms(_stream(config.seed, 0))
    draw = iter(u01).__next__
    marginal: dict[int, int] = {}
    site_acc = site_att = seg_acc = seg_att = 0
    segment_attempts = math.ceil(config.segment_factor * n)
    for sweep in range(config.sweeps):
        for _ in range(m * n):
            site_att += 1
            s = int(draw() * m)
            v = int(draw() * n)
            cur = state[s]
            new = flip_rows[cur][v]
            if new < 0:
                continue
            prev = state[s - 1 if s else m - 1]
            nxt = state[s + 1 if s < m - 1 else 0]
            d_log = (log_bond[prev][new] + log_bond[new][nxt]
                     + log_diag[new]
                     - log_bond[prev][cur] - log_bond[cur][nxt]
                     - log_diag[cur])
            if d_log >= 0 or draw() < math.exp(d_log):
                state[s] = new
                site_acc += 1
        for _ in range(segment_attempts):
            seg_att += 1
            v = int(draw() * n)
            start = int(draw() * m)
            length = 1 + int(draw() * m)
            slots = [(start + j) % m for j in range(length)]
            proposal = {}
            valid = True
            for s in slots:
                j = flip_rows[state[s]][v]
                if j < 0:
                    valid = False
                    break
                proposal[s] = j
            if not valid:
                continue
            d_log = _segment_delta(state, set(slots), proposal,
                                   log_bond, log_diag, m)
            if d_log >= 0 or draw() < math.exp(d_log):
                for s, j in proposal.items():
                    state[s] = j
                seg_acc += 1
        if config.heat_bath_lines:
            for v in range(n):
                state = resample_vertex_line(engine, state, v, u01)
        if sweep >= config.burn_in:
            for s in state:
                z = engine.basis[s]
                marginal[z] = marginal.get(z, 0) + 1
    return QMCResult(
        marginal=marginal,
        acceptance={"site": site_acc / max(site_att, 1),
                    "segment": seg_acc / max(seg_att, 1)},
        sweeps=config.sweeps, slices=m,
        rng={"generator": "philox", "key": [config.seed, 0]},
        config=asdict(config))


def trotter_error_proxy(graph: Graph, config: QMCConfig) -> float:
    """Total-variation distance between the exact slice-1 marginals at M and
    2M slices (transfer-matrix evaluation, no sampling noise)."""
    marg = {}
    for slices in (config.slices, 2 * config.slices):
        cfg = QMCConfig(beta=config.beta, slices=slices, omega=config.omega,
                        delta=config.delta, lam=config.lam, sweeps=1,
                        seed=config.seed)
        engine = WorldlineEngine(graph, cfg)
        T = np.exp(engine.log_bond) @ np.diag(np.exp(engine.log_diag))
        power = np.linalg.matrix_power(T, slices)
        diag = np.clip(np.diag(power), 0.0, None)
        marg[slices] = diag / diag.sum()
    a = marg[config.slices]
    b = marg[2 * config.slices]
    return float(0.5 * np.abs(a - b).sum())


def worldline_transition_matrix(graph: Graph, config: QMCConfig):
    """Exact transition matrix of the mixture update kernel over all
    worldlines; exhaustive, so only for tiny (n, M)."""
    engine = WorldlineEngine(graph, config)
    dim = len(engine.basis)
    m = config.slices
    if dim ** m > 40_000:
        raise CapacityError(f"worldline space {dim}^{m} too large to enumerate")
    n = graph.n
    from itertools import product

    states = [tuple(s) for s in product(range(dim), repeat=m)]
    index = {s: k for k, s in enumerate(states)}
    logw = np.array([engine.log_weight(list(s)) for s in states])
    p_site, p_seg = config.weights()
    P = np.zeros((len(states), len(states)))
    for k, s in enumerate(states):
        for slot in range(m):
            for v in range(n):
                new = engine.flip_to[s[slot], v]
                if new < 0:
                    continue
                s2 = list(s)
                s2[slot] = int(new)
                k2 = index[tuple(s2)]
                acc = min(1.0, math.exp(min(logw[k2] - logw[k], 0.0)))
                P[k, k2] += p_site / (m * n) * acc
        # segment proposals: uniform (vertex, start, length)
        for v in range(n):
            for start in range(m):
                for length in range(1, m + 1):
                    s2 = list(s)
                    ok = True
                    for j in range(length):
                        slot = (start + j) % m
                        new = engine.flip_to[s2[slot], v]
                        if new < 0:
                            ok = False
                            break
                        s2[slot] = int(new)
                    if not ok:
                        continue
                    k2 = index[tuple(s2)]
                    if k2 == k:
                        continue
                    acc = min(1.0, math.exp(min(logw[k2] - logw[k], 0.0)))
                    P[k, k2] += p_seg / (n * m * m) * acc
        P[k, k] = 0.0
        P[k, k] = 1.0 - P[k].sum()
    weights = np.exp(logw - logw.max())
    pi = weights / weights.sum()
    return P, pi, states


@dataclass
class QMCBoundReport:
    """Gibbs-enhancement factors and the resulting runtime lower bound."""

    e_max: dict                # set size b -> enhancement factor
    z_max: dict                # set size b -> argmax configuration
    bound: float | None
    params: dict

    def to_document(self) -> dict:
        return {
            "version": 1,
            "kind": "qmc_bound",
            "e_max": {str(b): v for b, v in self.e_max.items()},
            "z_max": {str(b): z for b, z in self.z_max.items()},
            "bound": self.bound,
            "params": self.params,
        }


def _lanczos_window(H, top: float):
    """The eigenpairs of H up to ``top`` by Lanczos, or None.

    The Sylvester inertia of H - top*I, from one dense Bunch-Kaufman LDL^T,
    counts them first; Lanczos asks for one more, and its window must hold
    that many (it can miss a copy of a repeated eigenvalue).  None also when
    Gershgorin's bound puts the whole block below ``top``, when the window
    holds over 1/32 of it (near dim 2700-3000, Lanczos for k pairs costs as
    much as dense ``eigh`` at k = dim/32), or when Lanczos does not converge."""
    diag = H.diagonal()
    radius = np.asarray(abs(H).sum(axis=1)).ravel() - abs(diag)
    if (diag + radius).max() <= top:
        return None
    A = H.toarray(order="F")
    A[np.diag_indices_from(A)] -= top
    # lwork n * block size: the default, n, runs unblocked and 10x slower
    ldu, ipiv, _ = scipy.linalg.lapack.dsytrf(A, lower=1, overwrite_a=1,
                                              lwork=64 * len(A))
    d, pair = ldu.diagonal(), ipiv < 0      # pair: rows of 2x2 blocks of D
    j = np.flatnonzero(pair)[::2]
    det = d[j] * d[j + 1] - ldu[j + 1, j] ** 2
    below = (np.count_nonzero(d[~pair] < 0) + np.count_nonzero(det < 0)
             + 2 * np.count_nonzero((det > 0) & (d[j] < 0)))
    if not 0 < below <= len(A) // 32:
        return None
    try:
        w, V = lowest_eigenpairs(H, below + 1)
    except ConvergenceError:
        return None
    inside = w <= top
    return (w[inside], V[:, inside]) if inside.sum() == below else None


def _restricted_gibbs_populations(full, b: int, beta: float) -> np.ndarray:
    """Diagonal Gibbs populations of the operator ``full`` restricted to
    configurations of size < b, the leading rows of its size-sorted basis.

    Each diagonal entry is a Rayleigh quotient, so min(diag H) >= E0; the
    eigenpairs above min(diag H) + 40/beta weigh under e^-40 of the ground
    state and are left out; dense ``eigh`` covers what _lanczos_window does not.
    """
    dim = int(np.searchsorted(full.sizes(), b))
    if dim > DENSE_WORLDLINE_LIMIT:
        raise CapacityError(
            f"restricted space of {dim} states exceeds the dense limit")
    H = full.matrix[:dim, :dim]
    top = H.diagonal().min() + 40.0 / beta if beta > 0 else np.inf
    pairs = (_lanczos_window(H, top) if dim > DENSE_EIG_LIMIT and beta > 0
             else None)
    w, V = pairs or scipy.linalg.eigh(H.toarray(order="F"), overwrite_a=True,
                                      subset_by_value=(-np.inf, top))
    pops = (V ** 2) @ np.exp(-beta * (w - w[0]))
    return pops / pops.sum()


def qmc_bound_inputs(graph: Graph, b: int | None = None, omega: float = 0.3,
                     delta: float = 1.0, lam: float = 0.0, beta: float = 2.0,
                     k: int = 1, eps: float = 0.25) -> QMCBoundReport:
    """Enhancement factor(s) e_max and the QMC runtime lower bound.

    For each set size b the restricted space holds sets smaller than b; the
    enhancement multiplies the top Gibbs population among configurations
    within k flips of a size-b independent set by the count of size-(b-1)
    sets.  Passing an explicit ``b`` evaluates that size only; otherwise
    every size past the profile's turning point contributes and the bound
    maximizes over them.
    """
    if eps >= 0.5:
        raise ValueError("eps must be < 1/2")
    if k < 1:
        raise ValueError("k must be >= 1")
    profile = independence_polynomial(graph)
    sizes = [b] if b is not None else profile.bound_sizes()
    if any(size < 1 or size > profile.alpha for size in sizes):
        raise ValueError(f"set sizes {sizes} outside 1..alpha")
    full = build_operator(graph, omega, delta, lam)
    e_max: dict[int, float] = {}
    z_arg: dict[int, int] = {}
    for size in sizes:
        pops = _restricted_gibbs_populations(full, size, beta)
        # independent sets within Hamming distance k of a size-b set are
        # within k flips through independent sets (drop the surplus
        # vertices first, then add the missing ones)
        ball = full.sizes() == size
        for _ in range(k):
            reached = full.space.flips[ball]
            ball[reached[reached >= 0]] = True
        rows = np.flatnonzero(ball[:len(pops)])
        best = rows[np.argmax(pops[rows])]
        e_max[size] = float(pops[best]) * profile.counts[size - 1]
        z_arg[size] = full.basis[best]
    log_factor = math.log(1.0 / (2.0 * eps))
    n = graph.n
    prefactor = log_factor / (2.0 * n * k * n ** k)
    bound = prefactor * max(
        float(profile.suffix_ratio(size)) / e_max[size] for size in e_max)
    return QMCBoundReport(e_max=e_max, z_max=z_arg, bound=bound,
                          params={"omega": omega, "delta": delta, "lam": lam,
                                  "beta": beta, "k": k, "eps": eps,
                                  "b": b, "alpha": profile.alpha})
