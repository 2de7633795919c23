"""Metropolis-Hastings simulated annealing and parallel tempering for
maximum-independent-set landscapes, plus empirical time-to-solution.

Proposal measures are symmetric by construction: spin flips pick a uniform
vertex, spin exchanges pick a uniform directed edge of the problem graph
(the move fires only when its tail is occupied and its head is free), so
p(z -> z') = p(z' -> z) and the Metropolis rule alone enforces detailed
balance.  "Restricted" dynamics auto-reject any proposal that breaks
independence (the infinite-penalty limit); "penalty" dynamics run on all
2^n configurations with a finite constraint penalty.

A sweep is n proposed updates; first-hit times are reported in sweeps.
Fixed (seed, trial) pairs give bit-identical results: every trial consumes
its own Philox stream keyed by (seed, trial index).
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .bits import Space, components, popcount
from .errors import ConfigError
from .graphs import Graph
from .landscape import independence_polynomial
from .spectral import restricted_basis, violation_count

RNG_CHUNK = 8192
# the TTS bootstrap's stream index; trial indices never reach it
BOOTSTRAP_STREAM = 2 ** 63 - 1


def geometric_betas(lo: float = 0.1, hi: float = 5.0, num: int = 16):
    return tuple(float(b) for b in np.geomspace(lo, hi, num))


def _stream(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


class _Uniforms:
    """Chunked uniform draws from one Philox stream."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.buf = rng.random(RNG_CHUNK)
        self.pos = 0

    def __call__(self) -> float:
        if self.pos == len(self.buf):
            self.buf = self.rng.random(RNG_CHUNK)
            self.pos = 0
        v = self.buf[self.pos]
        self.pos += 1
        return v


@dataclass
class SAConfig:
    """Single-chain annealing configuration.

    ``betas`` is the non-decreasing inverse-temperature ladder; the chain
    spends ``sweeps_per_beta`` sweeps at each rung.  ``k`` (the most spins
    one proposal can alter) is 2 whenever exchange moves are enabled.
    """

    betas: tuple[float, ...] = geometric_betas()
    sweeps_per_beta: int = 200
    flip_weight: float = 0.5
    exchange_weight: float = 0.5
    mode: str = "restricted"
    penalty: float | None = None
    delta: float = 1.0
    seed: int = 0
    record_histogram: bool = False
    trace_stride: int = 0

    def __post_init__(self):
        self.betas = tuple(float(b) for b in self.betas)
        if any(b2 < b1 for b1, b2 in zip(self.betas, self.betas[1:])):
            raise ConfigError("beta schedule must be non-decreasing")
        if self.flip_weight < 0 or self.exchange_weight < 0:
            raise ConfigError("update weights must be non-negative")
        if self.flip_weight + self.exchange_weight <= 0:
            raise ConfigError("update mix has zero total weight")
        if self.mode not in ("restricted", "penalty"):
            raise ConfigError(f"unknown dynamics mode {self.mode!r}")

    @property
    def k(self) -> int:
        return 2 if self.exchange_weight > 0 else 1

    def weights(self) -> tuple[float, float]:
        total = self.flip_weight + self.exchange_weight
        return self.flip_weight / total, self.exchange_weight / total


@dataclass
class PTConfig:
    """Replica ladder for parallel tempering."""

    betas: tuple[float, ...] = geometric_betas(0.2, 4.0, 6)
    sweeps: int = 2000
    swap_every: int = 1
    flip_weight: float = 0.5
    exchange_weight: float = 0.5
    isoenergetic: bool = False
    mode: str = "restricted"
    penalty: float | None = None
    delta: float = 1.0
    seed: int = 0
    record_histogram: bool = False

    def __post_init__(self):
        self.betas = tuple(float(b) for b in self.betas)
        if sorted(self.betas) != list(self.betas):
            raise ConfigError("replica betas must be sorted")
        if self.isoenergetic and len(self.betas) < 2:
            raise ConfigError("isoenergetic updates need at least 2 replicas")
        if self.flip_weight + self.exchange_weight <= 0:
            raise ConfigError("update mix has zero total weight")
        if self.mode not in ("restricted", "penalty"):
            raise ConfigError(f"unknown dynamics mode {self.mode!r}")

    @property
    def replicas(self) -> int:
        return len(self.betas)

    def weights(self) -> tuple[float, float]:
        total = self.flip_weight + self.exchange_weight
        return self.flip_weight / total, self.exchange_weight / total


@dataclass
class MCResult:
    best_mask: int
    best_size: int
    first_hit_sweep: float | None
    sweeps: int
    acceptance: dict
    histogram: dict | None
    replica_histograms: list | None
    trace: list | None
    rng: dict
    config: dict


class _Chain:
    """One Metropolis chain on bitmask states."""

    def __init__(self, graph: Graph, mode: str, penalty: float | None,
                 delta: float):
        self.graph = graph
        self.n = graph.n
        self.adj = graph.adjacency()
        self.dir_edges = graph.directed_edges()
        self.mode = mode
        self.delta = delta
        self.penalty = (2.0 * graph.n if penalty is None else penalty) \
            if mode == "penalty" else None
        self.mask = 0
        self.size = 0
        self.violations = 0

    def energy(self) -> float:
        e = -self.delta * self.size
        if self.mode == "penalty":
            e += self.penalty * self.violations
        return e

    def propose(self, u01, p_flip: float, beta: float) -> bool:
        """One proposed update; three uniforms consumed; returns accepted."""
        r_move, r_pick, r_acc = u01(), u01(), u01()
        if r_move < p_flip:
            v = int(r_pick * self.n)
            bit = 1 << v
            conflicts = popcount(self.adj[v] & self.mask)
            if self.mask & bit:
                d_h = self.delta
                if self.mode == "penalty":
                    d_h -= self.penalty * conflicts
                if d_h <= 0 or r_acc < math.exp(-beta * d_h):
                    self.mask ^= bit
                    self.size -= 1
                    if self.mode == "penalty":
                        self.violations -= conflicts
                    return True
                return False
            if self.mode == "restricted":
                if conflicts:
                    return False
                self.mask |= bit
                self.size += 1
                return True
            d_h = -self.delta + self.penalty * conflicts
            if d_h <= 0 or r_acc < math.exp(-beta * d_h):
                self.mask |= bit
                self.size += 1
                self.violations += conflicts
                return True
            return False
        if not self.dir_edges:
            return False
        u, v = self.dir_edges[int(r_pick * len(self.dir_edges))]
        ubit, vbit = 1 << u, 1 << v
        if not (self.mask & ubit) or (self.mask & vbit):
            return False
        without = self.mask ^ ubit
        if self.mode == "restricted":
            if self.adj[v] & without:
                return False
            self.mask = without | vbit
            return True
        old_conf = popcount(self.adj[u] & without)
        new_conf = popcount(self.adj[v] & without)
        d_h = self.penalty * (new_conf - old_conf)
        if d_h <= 0 or r_acc < math.exp(-beta * d_h):
            self.mask = without | vbit
            self.violations += new_conf - old_conf
            return True
        return False


def _resolve_alpha(graph: Graph, alpha: int | None) -> int:
    if alpha is not None:
        return alpha
    return independence_polynomial(graph).alpha


def sa_run(graph: Graph, config: SAConfig, alpha: int | None = None,
           stop_at_hit: bool = False, trial: int = 0) -> MCResult:
    """Anneal one chain through the beta ladder on the Philox stream
    (config.seed, trial)."""
    alpha = _resolve_alpha(graph, alpha)
    p_flip, _ = config.weights()
    chain = _Chain(graph, config.mode, config.penalty, config.delta)
    u01 = _Uniforms(_stream(config.seed, trial))
    n = max(graph.n, 1)
    histogram: dict[int, int] | None = {} if config.record_histogram else None
    trace: list | None = [] if config.trace_stride else None
    acceptance = {}
    best_mask, best_size = 0, 0
    first_hit = None
    proposals = 0
    sweeps_done = 0
    stopped = False
    for beta in config.betas:
        accepted = 0
        attempted = 0
        for _ in range(config.sweeps_per_beta):
            for _ in range(n):
                accepted += chain.propose(u01, p_flip, beta)
                attempted += 1
                proposals += 1
                size = chain.size if config.mode == "restricted" else (
                    chain.size if chain.violations == 0 else -1)
                if size > best_size:
                    best_mask, best_size = chain.mask, size
                if first_hit is None and size >= alpha:
                    first_hit = proposals / n
                    stopped = stop_at_hit
                    if stopped:
                        break
            if stopped:
                break
            sweeps_done += 1
            if histogram is not None:
                histogram[chain.mask] = histogram.get(chain.mask, 0) + 1
            if trace is not None and sweeps_done % config.trace_stride == 0:
                trace.append((sweeps_done, chain.energy()))
        acceptance[beta] = accepted / max(attempted, 1)
        if stopped:
            break
    return MCResult(best_mask=best_mask, best_size=best_size,
                    first_hit_sweep=first_hit, sweeps=sweeps_done,
                    acceptance=acceptance, histogram=histogram,
                    replica_histograms=None, trace=trace,
                    rng={"generator": "philox", "key": [config.seed, trial]},
                    config=asdict(config))


def _clusters(mask_i: int, mask_j: int, adj: list[int]) -> list[int]:
    """Connected components of the symmetric-difference subgraph."""
    return components(mask_i ^ mask_j, adj)


def pt_run(graph: Graph, config: PTConfig, alpha: int | None = None,
           trial: int = 0) -> MCResult:
    """Parallel tempering on the Philox stream (config.seed, trial):
    per-replica local sweeps, adjacent replica exchange, and optional
    isoenergetic cluster moves."""
    alpha = _resolve_alpha(graph, alpha)
    p_flip, _ = config.weights()
    m_rep = config.replicas
    chains = [_Chain(graph, config.mode, config.penalty, config.delta)
              for _ in range(m_rep)]
    u01 = _Uniforms(_stream(config.seed, trial))
    n = max(graph.n, 1)
    adj = graph.adjacency()
    histograms = [dict() for _ in range(m_rep)] if config.record_histogram else None
    acceptance = {}
    swap_attempts = swap_accepts = 0
    iso_attempts = iso_accepts = 0
    local_acc = [0] * m_rep
    local_att = [0] * m_rep
    best_mask, best_size = 0, 0
    first_hit = None
    proposals = 0
    for sweep in range(config.sweeps):
        for i, chain in enumerate(chains):
            beta = config.betas[i]
            for _ in range(n):
                local_acc[i] += chain.propose(u01, p_flip, beta)
                local_att[i] += 1
            proposals += n
            size = chain.size if config.mode == "restricted" or \
                chain.violations == 0 else -1
            if size > best_size:
                best_mask, best_size = chain.mask, size
            if first_hit is None and size >= alpha:
                first_hit = proposals / (n * m_rep)
        if histograms is not None:
            for i, chain in enumerate(chains):
                histograms[i][chain.mask] = histograms[i].get(chain.mask, 0) + 1
        if config.swap_every and (sweep + 1) % config.swap_every == 0:
            for i in range(m_rep - 1):
                swap_attempts += 1
                bi, bj = config.betas[i], config.betas[i + 1]
                ei, ej = chains[i].energy(), chains[i + 1].energy()
                log_acc = (bi - bj) * (ei - ej)
                if log_acc >= 0 or u01() < math.exp(log_acc):
                    swap_accepts += 1
                    chains[i], chains[i + 1] = chains[i + 1], chains[i]
            if config.isoenergetic and m_rep >= 2:
                iso_attempts += 1
                pair = int(u01() * (m_rep - 1))
                ci, cj = chains[pair], chains[pair + 1]
                comps = _clusters(ci.mask, cj.mask, adj)
                if comps:
                    cluster = comps[int(u01() * len(comps))]
                    di = popcount(ci.mask & cluster)
                    dj = popcount(cj.mask & cluster)
                    bi, bj = config.betas[pair], config.betas[pair + 1]
                    # swapping the cluster changes each replica's size by
                    # +-(dj - di); the pair's total energy is conserved
                    d_h_i = -ci.delta * (dj - di)
                    log_acc = -(bi - bj) * d_h_i
                    if log_acc >= 0 or u01() < math.exp(log_acc):
                        iso_accepts += 1
                        new_i = (ci.mask & ~cluster) | (cj.mask & cluster)
                        new_j = (cj.mask & ~cluster) | (ci.mask & cluster)
                        ci.mask, cj.mask = new_i, new_j
                        ci.size += dj - di
                        cj.size += di - dj
    for i, beta in enumerate(config.betas):
        acceptance[f"local_beta_{beta:g}"] = local_acc[i] / max(local_att[i], 1)
    acceptance["replica_exchange"] = swap_accepts / max(swap_attempts, 1)
    if config.isoenergetic:
        acceptance["isoenergetic"] = iso_accepts / max(iso_attempts, 1)
    return MCResult(best_mask=best_mask, best_size=best_size,
                    first_hit_sweep=first_hit, sweeps=config.sweeps,
                    acceptance=acceptance, histogram=None,
                    replica_histograms=histograms, trace=None,
                    rng={"generator": "philox", "key": [config.seed, trial]},
                    config=asdict(config))


def _metropolis(beta: float, d_e: np.ndarray) -> np.ndarray:
    """min(1, exp(-beta * dE)) per entry, as exp(min(0, -beta * dE)) so it
    never overflows.  The exponent takes a few distinct values; math.exp
    on each keeps the entries identical to the scalar rule the samplers
    apply (np.exp may differ in the last bit)."""
    x, inverse = np.unique(np.minimum(0.0, -beta * d_e), return_inverse=True)
    return np.array([math.exp(v) for v in x.tolist()])[inverse]


def transition_matrix(graph: Graph, beta: float, config: SAConfig,
                      basis: list[int] | None = None):
    """Exact single-update transition matrix of the SA kernel.

    Constructed from the proposal measure and Metropolis rule directly (not
    sampled); rows sum to one with the self-loop on the diagonal.  Moves
    that leave the basis (blocked additions in restricted mode) stay put.
    """
    if basis is None:
        basis = restricted_basis(graph) if config.mode == "restricted" \
            else list(range(1 << graph.n))
    space = Space.of(graph, basis)
    p_flip, p_ex = config.weights()
    energy = -config.delta * space.sizes
    if config.mode == "penalty":
        penalty = config.penalty if config.penalty is not None \
            else 2.0 * graph.n
        energy = energy + penalty * violation_count(graph, space.masks)
    dim = len(basis)
    P = np.zeros((dim, dim))
    for moves, p_move in ((space.flips, p_flip), (space.exchanges, p_ex)):
        rows, slots = np.nonzero(moves >= 0)
        cols = moves[rows, slots]
        P[rows, cols] += p_move / max(moves.shape[1], 1) * _metropolis(
            beta, energy[cols] - energy[rows])
    P[np.diag_indices(dim)] = 1.0 - P.sum(axis=1)
    return P, basis


@dataclass
class TTSEstimate:
    tts: float | None
    sweeps_at_min: float | None
    p_target: float
    success_curve: list
    ci_low: float | None
    ci_high: float | None
    censored: bool
    trials: int


def estimate_tts(graph: Graph, config: SAConfig, p_target: float = 0.75,
                 sweep_grid=None, trials: int = 64, alpha: int | None = None,
                 bootstrap: int = 200) -> TTSEstimate:
    """Empirical time-to-solution for a fixed-schedule SA chain.

    Each trial runs once to the longest budget and records its first-hit
    sweep; success probabilities at every budget follow from the first-hit
    distribution.  TTS(T) = T * ln(1 - p_target) / ln(1 - p(T)), with the
    saturation convention TTS(T) = T when p(T) = 1; censored trials (no hit
    anywhere) set the flag instead of crashing.  Trial t runs on the
    Philox stream (config.seed, t); the bootstrap resamples on
    (config.seed, BOOTSTRAP_STREAM).
    """
    alpha = _resolve_alpha(graph, alpha)
    if sweep_grid is None:
        sweep_grid = [2 ** k for k in range(3, 12)]
    sweep_grid = sorted(sweep_grid)
    horizon = sweep_grid[-1]
    n_rungs = max(len(config.betas), 1)
    per_rung = max(horizon // n_rungs + 1, 1)
    trial_config = replace(config, sweeps_per_beta=per_rung,
                           record_histogram=False, trace_stride=0)
    hits = []
    for trial in range(trials):
        result = sa_run(graph, trial_config, alpha=alpha, stop_at_hit=True,
                        trial=trial)
        hits.append(result.first_hit_sweep if result.first_hit_sweep is not None
                    else math.inf)
    hits = np.array(hits)

    def tts_from(sample):
        curve = []
        best = (math.inf, None)
        for T in sweep_grid:
            p = float(np.mean(sample <= T))
            curve.append((T, p))
            if p <= 0.0:
                continue
            value = T if p >= 1.0 else \
                T * math.log(1.0 - p_target) / math.log(1.0 - p)
            if value < best[0]:
                best = (value, T)
        return best, curve

    (tts, at_min), curve = tts_from(hits)
    censored = not np.isfinite(hits).any()
    ci_low = ci_high = None
    if not censored and bootstrap:
        rng = _stream(config.seed, BOOTSTRAP_STREAM)
        values = []
        for _ in range(bootstrap):
            sample = hits[rng.integers(0, len(hits), size=len(hits))]
            (v, _), _ = tts_from(sample)
            if math.isfinite(v):
                values.append(v)
        if values:
            ci_low, ci_high = (float(np.percentile(values, 2.5)),
                               float(np.percentile(values, 97.5)))
    return TTSEstimate(tts=None if censored else tts,
                       sweeps_at_min=at_min, p_target=p_target,
                       success_curve=curve, ci_low=ci_low, ci_high=ci_high,
                       censored=censored, trials=trials)
