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
from dataclasses import dataclass
from itertools import islice

import numpy as np
import scipy.linalg
import scipy.sparse

from .classical_mc import _Uniforms, _stream
from .errors import CapacityError, ConfigError, ConvergenceError
from .graphs import Graph
from .landscape import check_bound_parameters, independence_polynomial
from .spectral import (DENSE_EIG_LIMIT, _sector_ldl, build_operator,
                       lowest_eigenpairs)

DENSE_WORLDLINE_LIMIT = 4096


def _check_physics(beta: float, omega: float, delta: float, lam: float):
    """Reject a non-finite coefficient or a negative beta (0 is valid)."""
    for name, value in zip(("beta", "omega", "delta", "lambda"),
                           (beta, omega, delta, lam)):
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    if beta < 0:
        raise ConfigError(f"beta must be >= 0, got {beta}")


@dataclass
class QMCConfig:
    """Worldline-chain parameters.

    Moves alter at most one spin per slice: single-slice flips, contiguous
    segment flips of one vertex (length 1..M, cyclic), and an exact
    conditional resampling of one vertex's full timeline by 2x2 transfer
    matrices (heat bath, acceptance one).  The heat-bath pass is what turns
    kink pairs over at large M; Metropolis site/segment flips alone leave
    the kink number frozen for thousands of sweeps.  A sweep is
    slices * n site attempts, n segment attempts, then one heat-bath pass
    over the vertices.
    """

    beta: float = 1.0
    slices: int = 32
    omega: float = 0.3
    delta: float = 1.0
    lam: float = 0.0
    sweeps: int = 10_000
    seed: int = 0
    burn_in: int = 0

    def __post_init__(self):
        if self.slices < 2:
            raise ConfigError("need at least 2 Trotter slices")
        _check_physics(self.beta, self.omega, self.delta, self.lam)
        if not 0 <= self.burn_in < self.sweeps:
            raise ConfigError(f"burn-in must satisfy 0 <= burn-in < sweeps, "
                              f"got {self.burn_in} of {self.sweeps} sweeps")


@dataclass
class QMCResult:
    # mask -> visit count; every slice is tallied, and by cyclic invariance
    # each slice's marginal estimates the same Gibbs diagonal as slice 1
    marginal: dict
    acceptance: dict
    rng: dict

    def marginal_probs(self) -> dict:
        total = sum(self.marginal.values())
        return {z: c / total for z, c in self.marginal.items()}


def _dense_split(graph: Graph, config: QMCConfig):
    """(operator, diagonal, dense off-diagonal part) of ``config`` on
    ``graph``; CapacityError past DENSE_WORLDLINE_LIMIT rows."""
    op = build_operator(graph, config.omega, config.delta, config.lam)
    if op.dim > DENSE_WORLDLINE_LIMIT:
        raise CapacityError(f"restricted dimension {op.dim} exceeds the dense "
                            "exponentiation limit DENSE_WORLDLINE_LIMIT = "
                            f"{DENSE_WORLDLINE_LIMIT}")
    diag = op.matrix.diagonal()
    return op, diag, (op.matrix - scipy.sparse.diags(diag)).toarray()


class WorldlineEngine:
    """Precomputed tables for one (graph, config) worldline chain.

    Holds the restricted basis and, as plain lists for the samplers' hot
    loops, the bond matrix and its log, the per-slice diagonal factors and
    their logs, and the flip table mapping (state, vertex) to the flipped
    state's index (-1 when the flip leaves the independent-set space).  For
    the heat bath, per vertex v: ``lower[v][s]`` is state s with v removed,
    ``upper[v][s]`` is s with v added (-1 when that leaves the space), and
    ``blocks[v]`` memoizes the normalized 2x2 transfer block of each pair of
    consecutive v-free slice states (see ``transfer_block``); it fills on
    first use and lives with the engine.  ``lines[v]`` keeps the suffix
    products of v's last resampled line (see ``resample_vertex_line``).
    """

    def __init__(self, graph: Graph, config: QMCConfig):
        op, diag, H_od = _dense_split(graph, config)
        self.basis = op.basis
        self.index = op.space.index
        bond = scipy.linalg.expm(-config.beta / config.slices * H_od)
        bond = np.maximum(bond, 0.0)  # clip roundoff negatives
        log_diag = -config.beta / config.slices * diag
        self.bond_rows = bond.tolist()
        self.diag_list = np.exp(log_diag - log_diag.max()).tolist()
        self.log_bond_rows = np.where(
            bond > 0.0, np.log(np.maximum(bond, 1e-300)), -np.inf).tolist()
        self.log_diag_list = log_diag.tolist()
        flips = op.space.flips
        self.flip_rows = flips.tolist()
        rows = np.arange(op.dim)[:, None]
        occupied = (op.space.masks[:, None]
                    >> np.arange(graph.n, dtype=np.uint64)) & np.uint64(1) == 1
        self.lower = np.where(occupied, flips, rows).T.tolist()
        self.upper = np.where(occupied, rows, flips).T.tolist()
        self.blocks = [{} for _ in range(graph.n)]
        self.lines = [None] * graph.n

    def transfer_block(self, v: int, a0: int, b0: int) -> tuple:
        """The transfer block (t00, t01, t10, t11) of vertex v's line
        between consecutive slices whose v-free states are a0 and b0:
        t_xy = bond[a_x][b_y] * diag[b_y] over the largest of the four, with
        a1, b1 the states with v added (weight 0 when that is not
        independent).  Memoized in ``blocks[v]``; an inadmissible block (all
        four weights 0) raises ConfigError and is never stored."""
        bond = self.bond_rows
        diag = self.diag_list
        a1, b1 = self.upper[v][a0], self.upper[v][b0]
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
        block = (w00 / peak, w01 / peak, w10 / peak, w11 / peak)
        self.blocks[v][a0 * len(self.basis) + b0] = block
        return block

    def log_weight(self, slices: list[int]) -> float:
        total = 0.0
        m = len(slices)
        for i in range(m):
            j = slices[(i + 1) % m]
            total += self.log_bond_rows[slices[i]][j] + self.log_diag_list[j]
        return total


def _suffix_products(engine: WorldlineEngine, v: int, opt0: list) -> tuple:
    """(opt0, blocks, s00, s01, s10, s11) of vertex v's line whose slices
    have v-free states ``opt0``: the 2x2 block from slice k to k+1, read
    from the engine's memo, and the suffix products S[k] = T_k ... T_{m-1},
    normalized per step (the normalizations cancel in every conditional).
    Raises ConfigError when the line has no admissible timeline."""
    m = len(opt0)
    memo = engine.blocks[v]
    dim = len(engine.basis)
    blocks = [None] * m
    s00 = [0.0] * m
    s01 = [0.0] * m
    s10 = [0.0] * m
    s11 = [0.0] * m
    e = h = 1.0
    f = g = 0.0
    b0 = opt0[0]
    for k in range(m - 1, -1, -1):
        a0 = opt0[k]
        block = memo.get(a0 * dim + b0)
        if block is None:
            block = engine.transfer_block(v, a0, b0)
        blocks[k] = block
        a, b, c, d = block
        p00 = a * e + b * g
        p01 = a * f + b * h
        p10 = c * e + d * g
        p11 = c * f + d * h
        peak = p00
        if p01 > peak:
            peak = p01
        if p10 > peak:
            peak = p10
        if p11 > peak:
            peak = p11
        inv = 1.0 / peak if peak > 0.0 else 1.0
        s00[k] = e = p00 * inv
        s01[k] = f = p01 * inv
        s10[k] = g = p10 * inv
        s11[k] = h = p11 * inv
        b0 = a0
    if e + h <= 0.0:
        raise ConfigError("vertex line has no admissible timeline")
    return opt0, blocks, s00, s01, s10, s11


def resample_vertex_line(engine: WorldlineEngine, state, v: int, u01):
    """Exact Gibbs draw of vertex v's occupation timeline conditioned on all
    other vertices: transfer-matrix products around the cycle, then
    sequential sampling.  Returns the new slice indices.

    Slice k takes v-free state opt0[k] (x = 0) or that state with v added
    (x = 1).  The suffix products come from ``_suffix_products``, or, when
    opt0 equals that of v's previous line, from the engine's copy of that
    line's; x0 is drawn from the trace, then x1..x_{m-1} from the column of
    S that x0 picks.
    """
    m = len(state)
    lower = engine.lower[v]
    upper = engine.upper[v]
    opt0 = [lower[s] for s in state]
    line = engine.lines[v]
    if line is None or line[0] != opt0:
        line = engine.lines[v] = _suffix_products(engine, v, opt0)
    _, blocks, s00, s01, s10, s11 = line
    e = s00[0]
    total = e + s11[0]
    draws = u01.take(m)
    if draws[0] * total < e:
        prev, col0, col1 = 0, s00, s10
    else:
        prev, col0, col1 = 1, s01, s11
    out = opt0[:]
    if prev:
        out[0] = upper[out[0]]
    for k in range(1, m):
        t00, t01, t10, t11 = blocks[k - 1]
        if prev:
            w0 = t10 * col0[k]
            w1 = t11 * col1[k]
        else:
            w0 = t00 * col0[k]
            w1 = t01 * col1[k]
        total = w0 + w1
        if total <= 0.0:
            raise ConfigError("conditional timeline weight vanished")
        if draws[k] * total < w0:
            prev = 0
        else:
            prev = 1
            out[k] = upper[out[k]]
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

    A sweep makes slices * n single-slice attempts, n random-length segment
    attempts, then one heat-bath pass over the vertices.  Every slice is
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
    exp = math.exp
    trunc = math.trunc  # int(x) for x >= 0, at half the cost of the int call
    u01 = _Uniforms(_stream(config.seed, 0))
    it = iter(u01)
    pairs = zip(it, it)  # (slice, vertex) draws; accept draws read between
    draw = it.__next__
    visits = [0] * len(engine.basis)
    site_acc = seg_acc = 0
    for sweep in range(config.sweeps):
        for r_s, r_v in islice(pairs, m * n):
            s = trunc(r_s * m)
            v = trunc(r_v * n)
            cur = state[s]
            new = flip_rows[cur][v]
            if new < 0:
                continue
            prev = state[s - 1]
            nxt = state[s + 1 - m]
            d_log = (log_bond[prev][new] + log_bond[new][nxt]
                     + log_diag[new]
                     - log_bond[prev][cur] - log_bond[cur][nxt]
                     - log_diag[cur])
            if d_log >= 0 or draw() < exp(d_log):
                state[s] = new
                site_acc += 1
        for _ in range(n):
            v = trunc(draw() * n)
            start = trunc(draw() * m)
            length = 1 + trunc(draw() * m)
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
            if d_log >= 0 or draw() < exp(d_log):
                for s, j in proposal.items():
                    state[s] = j
                seg_acc += 1
        for v in range(n):
            state = resample_vertex_line(engine, state, v, u01)
        if sweep >= config.burn_in:
            for s in state:
                visits[s] += 1
    marginal = {z: c for z, c in zip(engine.basis, visits) if c}
    return QMCResult(
        marginal=marginal,
        acceptance={"site": site_acc / max(config.sweeps * m * n, 1),
                    "segment": seg_acc / max(config.sweeps * n, 1)},
        rng={"generator": "philox", "key": [config.seed, 0]})


def trotter_error_proxy(graph: Graph, config: QMCConfig) -> float:
    """Total-variation distance between the exact slice-1 marginals at M and
    2M slices (transfer-matrix evaluation, no sampling noise)."""
    _, diag, H_od = _dense_split(graph, config)
    half = scipy.linalg.expm(-config.beta / (2 * config.slices) * H_od)
    marg = []  # expm(-(beta/M) H_od) is the square of the 2M-slice bond
    for slices, bond in ((config.slices, half @ half),
                         (2 * config.slices, half)):
        tau = config.beta / slices
        T = np.maximum(bond, 0.0)
        T *= np.exp(-tau * diag)  # column j times exp(-tau H_d(j))
        power = np.linalg.matrix_power(T, slices).diagonal().clip(0.0)
        marg.append(power / power.sum())
    return float(0.5 * np.abs(marg[0] - marg[1]).sum())


def worldline_transition_matrix(graph: Graph, config: QMCConfig,
                                p_site: float = 0.5):
    """Exact transition matrix over all worldlines of the one-update kernel
    that makes a site flip with probability ``p_site`` and a segment flip
    otherwise; exhaustive, so only for tiny (n, M)."""
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
    p_seg = 1.0 - p_site
    P = np.zeros((len(states), len(states)))
    for k, s in enumerate(states):
        for slot in range(m):
            for v in range(n):
                new = engine.flip_rows[s[slot]][v]
                if new < 0:
                    continue
                s2 = list(s)
                s2[slot] = new
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
                        new = engine.flip_rows[s2[slot]][v]
                        if new < 0:
                            ok = False
                            break
                        s2[slot] = new
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


def _lanczos_window(H, top: float, inertia):
    """The eigenpairs of H up to ``top`` by Lanczos, or None.

    ``inertia(top, dim)``, the Sylvester inertia of H - top*I, counts them
    first; Lanczos asks for one more, and its window must hold that many
    (it can miss a copy of a repeated eigenvalue).  None also when
    Gershgorin's bound puts the whole block below ``top`` (then no count is
    made), when the window holds over 1/32 of it (near dim 2700-3000,
    Lanczos for k pairs costs as much as dense ``eigh`` at k = dim/32), or
    when Lanczos does not converge."""
    diag = H.diagonal()
    radius = np.asarray(abs(H).sum(axis=1)).ravel() - abs(diag)
    if (diag + radius).max() <= top:
        return None
    below = inertia(top, H.shape[0])
    if not 0 < below <= H.shape[0] // 32:
        return None
    try:
        w, V = lowest_eigenpairs(H, below + 1)
    except ConvergenceError:
        return None
    inside = w <= top
    return (w[inside], V[:, inside]) if inside.sum() == below else None


def _restricted_gibbs_populations(full, sizes, beta: float) -> dict:
    """Per set size b in ``sizes``, the diagonal Gibbs populations of the
    operator ``full`` restricted to configurations of size < b, the leading
    rows of its size-sorted basis.

    Each diagonal entry is a Rayleigh quotient, so min(diag H) >= E0; the
    eigenpairs above top = min(diag H) + 40/beta weigh under e^-40 of the
    ground state and are left out.  _lanczos_window finds them above
    DENSE_EIG_LIMIT rows, counted by one block LDL^T (``_sector_ldl``) per
    top, of the largest block sharing it: its sector boundaries are the
    smaller blocks.  Dense ``eigh`` covers what _lanczos_window does not.
    """
    dims = {b: int(np.searchsorted(full.sizes(), b)) for b in sizes}
    if max(dims.values()) > DENSE_WORLDLINE_LIMIT:
        raise CapacityError(f"restricted space of {max(dims.values())} "
                            "states exceeds the dense limit "
                            f"DENSE_WORLDLINE_LIMIT = {DENSE_WORLDLINE_LIMIT}")
    diag = full.matrix.diagonal()
    tops = {b: diag[:dim].min() + 40.0 / beta if beta > 0 else np.inf
            for b, dim in dims.items()}
    counts = {}  # window top -> negative-eigenvalue count per boundary

    def inertia(top, dim):
        if top not in counts:
            m = max(dims[b] for b in sizes if tops[b] == top)
            counts[top] = _sector_ldl((full.matrix[:m, :m] - top
                                       * scipy.sparse.identity(m)).tocsr())[0]
        return counts[top][dim]

    pops = {}
    for b, dim in dims.items():
        H = full.matrix[:dim, :dim]
        pairs = (_lanczos_window(H, tops[b], inertia)
                 if dim > DENSE_EIG_LIMIT and beta > 0 else None)
        w, V = pairs or scipy.linalg.eigh(H.toarray(order="F"),
                                          overwrite_a=True,
                                          subset_by_value=(-np.inf, tops[b]))
        p = (V ** 2) @ np.exp(-beta * (w - w[0]))
        pops[b] = p / p.sum()
    return pops


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
    check_bound_parameters(eps, k)
    _check_physics(beta, omega, delta, lam)
    profile = independence_polynomial(graph)
    sizes = [b] if b is not None else profile.bound_sizes()
    if any(size < 1 or size > profile.alpha for size in sizes):
        raise ValueError(f"set sizes {sizes} outside 1..alpha")
    full = build_operator(graph, omega, delta, lam)
    e_max: dict[int, float] = {}
    z_arg: dict[int, int] = {}
    for size, pops in _restricted_gibbs_populations(full, sizes,
                                                    beta).items():
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
