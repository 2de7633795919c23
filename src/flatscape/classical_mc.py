"""Metropolis-Hastings simulated annealing and parallel tempering for
maximum-independent-set landscapes, plus empirical time-to-solution.

Proposal measures are symmetric by construction: spin flips pick a uniform
vertex, spin exchanges pick a uniform directed edge of the problem graph
(the move fires only when its tail is occupied and its head is free), so
p(z -> z') = p(z' -> z) and the Metropolis rule alone enforces detailed
balance.  The energy of a configuration z is -|z| (detuning Delta = 1:
the cost enters the Metropolis rule only as beta * Delta, so beta alone
sets it), plus ``penalty`` per violated edge in penalty mode.
"Restricted" dynamics auto-reject any proposal that breaks
independence (the infinite-penalty limit); "penalty" dynamics run on all
2^n configurations with a finite constraint penalty.

A sweep is n proposed updates; first-hit times are reported in sweeps.
Fixed (seed, trial) pairs give bit-identical results: every trial consumes
its own Philox stream keyed by (seed, trial index).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, islice

import numpy as np

from .bits import Space, components, popcount
from .errors import ConfigError
from .graphs import Graph
from .landscape import independence_polynomial
from .spectral import restricted_basis, violation_count

RNG_CHUNK = 512
# the TTS bootstrap's resamples and stream index (no trial index reaches it)
BOOTSTRAP_RESAMPLES = 200
BOOTSTRAP_STREAM = 2 ** 63 - 1


def geometric_betas(lo: float = 0.1, hi: float = 5.0, num: int = 16):
    return tuple(float(b) for b in np.geomspace(lo, hi, num))


def _stream(seed: int, stream: int) -> np.random.Generator:
    if not (0 <= seed < 2 ** 64 and 0 <= stream < 2 ** 64):
        raise ConfigError(f"Philox key ({seed}, {stream}) outside [0, 2^64)")
    return np.random.Generator(np.random.Philox(
        key=np.array([seed, stream], dtype=np.uint64)))


class _Uniforms:
    """The uniform draws of one Philox stream in stream order, generated
    RNG_CHUNK at a time as lists of Python floats (the doubles numpy
    returns).  Iterating and ``take`` read on from one position; hot loops
    zip the iterator or call its ``__next__``."""

    def __init__(self, rng: np.random.Generator):
        chunks = iter(lambda: rng.random(RNG_CHUNK).tolist(), None)
        self.draws = chain.from_iterable(chunks)

    def __iter__(self):
        return self.draws

    def take(self, k: int) -> list[float]:
        """The next k draws."""
        return list(islice(self.draws, k))


class _UpdateMix:
    """The inverse temperatures, flip/exchange mix and dynamics mode that
    SAConfig and PTConfig share."""

    def _check_common(self, sweeps: int) -> None:
        self.betas = tuple(float(b) for b in self.betas)
        if not all(b >= 0 for b in self.betas):
            raise ConfigError(f"inverse temperatures must be >= 0, got "
                              f"{self.betas}")
        if sweeps < 1:
            raise ConfigError(f"sweeps must be >= 1, got {sweeps}")
        if self.flip_weight < 0 or self.exchange_weight < 0:
            raise ConfigError("update weights must be non-negative")
        if self.flip_weight + self.exchange_weight <= 0:
            raise ConfigError("update mix has zero total weight")
        if self.mode not in ("restricted", "penalty"):
            raise ConfigError(f"unknown dynamics mode {self.mode!r}")

    def weights(self) -> tuple[float, float]:
        total = self.flip_weight + self.exchange_weight
        return self.flip_weight / total, self.exchange_weight / total

    def penalty_for(self, graph: Graph) -> float | None:
        """The penalty per violated edge: ``penalty``, 2n by default, and
        None in restricted mode."""
        if self.mode != "penalty":
            return None
        return 2.0 * graph.n if self.penalty is None else self.penalty


@dataclass
class SAConfig(_UpdateMix):
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
    seed: int = 0
    record_histogram: bool = False

    def __post_init__(self):
        self._check_common(self.sweeps_per_beta)
        if any(b2 < b1 for b1, b2 in zip(self.betas, self.betas[1:])):
            raise ConfigError("beta schedule must be non-decreasing")

    @property
    def k(self) -> int:
        return 2 if self.exchange_weight > 0 else 1


@dataclass
class PTConfig(_UpdateMix):
    """Replica ladder for parallel tempering."""

    betas: tuple[float, ...] = geometric_betas(0.2, 4.0, 6)
    sweeps: int = 2000
    swap_every: int = 1
    flip_weight: float = 0.5
    exchange_weight: float = 0.5
    isoenergetic: bool = False
    mode: str = "restricted"
    penalty: float | None = None
    seed: int = 0
    record_histogram: bool = False

    def __post_init__(self):
        self._check_common(self.sweeps)
        if sorted(self.betas) != list(self.betas):
            raise ConfigError("replica betas must be sorted")
        if self.isoenergetic and len(self.betas) < 2:
            raise ConfigError("isoenergetic updates need at least 2 replicas")

    @property
    def replicas(self) -> int:
        return len(self.betas)


@dataclass
class MCResult:
    best_mask: int
    best_size: int
    first_hit_sweep: float | None
    sweeps: int
    acceptance: dict
    histogram: dict | None
    replica_histograms: list | None
    rng: dict


def _moves(graph: Graph, config) -> tuple:
    """(p_flip, flips, exchanges, penalty) of one chain: flips[v] is
    (bit, neighbours) of v, exchanges[e] (tail bit, head bit, tail and head
    neighbours) of directed edge e; penalty is None in restricted mode."""
    adj = graph.adjacency()
    return (config.weights()[0],
            [(1 << v, adj[v]) for v in range(graph.n)],
            [(1 << u, 1 << v, adj[u], adj[v])
             for u, v in graph.directed_edges()],
            config.penalty_for(graph))


def _local_moves(moves: tuple, reps: list, rungs, accepted: list, triples,
                 count: int, target: int) -> int:
    """Metropolis proposals on each replica (mask, size, violations) of
    ``reps`` in turn at its rung (beta, exp(-beta)): ``count`` each, one per
    (move, pick, accept) triple of ``triples``, ending a replica's run at an
    accepted move to a valid set of ``target`` or more vertices.  Updates
    ``reps`` and ``accepted`` in place; returns the proposals made."""
    p_flip, flips, exchanges, penalty = moves
    n, n_ex = len(flips), len(exchanges)
    trunc = math.trunc  # int(x) for x >= 0, at half the cost of the int call
    done = 0
    for i, (beta, w_remove) in enumerate(rungs):
        mask, size, viol = reps[i]
        acc = 0
        for r_move, r_pick, r_acc in islice(triples, count):
            done += 1
            if r_move < p_flip:
                bit, near = flips[trunc(r_pick * n)]
                if penalty is not None:
                    d_viol = (near & mask).bit_count()
                    if mask & bit:
                        d_h, d_size, d_viol = 1.0 - penalty * d_viol, -1, -d_viol
                    else:
                        d_h, d_size = -1.0 + penalty * d_viol, 1
                    if not (d_h <= 0 or r_acc < math.exp(-beta * d_h)):
                        continue
                    viol += d_viol
                elif mask & bit:
                    if not r_acc < w_remove:
                        continue
                    d_size = -1
                elif near & mask:
                    continue
                else:
                    d_size = 1
                mask ^= bit
                size += d_size
            elif n_ex:
                ubit, vbit, near_u, near_v = exchanges[trunc(r_pick * n_ex)]
                if not mask & ubit or mask & vbit:
                    continue
                without = mask ^ ubit
                if penalty is not None:
                    d_viol = ((near_v & without).bit_count()
                              - (near_u & without).bit_count())
                    d_h = penalty * d_viol
                    if not (d_h <= 0 or r_acc < math.exp(-beta * d_h)):
                        continue
                    viol += d_viol
                elif near_v & without:
                    continue
                mask = without | vbit
            else:
                continue
            acc += 1
            if size >= target and not viol:
                break
        reps[i] = (mask, size, viol)
        accepted[i] += acc
    return done


def _energy(rep: tuple, penalty: float) -> float:
    """Penalty-mode energy: -|z| plus ``penalty`` per violated edge."""
    return -float(rep[1]) + penalty * rep[2]


def sa_run(graph: Graph, config: SAConfig, alpha: int | None = None,
           stop_at_hit: bool = False, trial: int = 0) -> MCResult:
    """Anneal one chain through the beta ladder on the Philox stream
    (config.seed, trial).  Best and first-hit sets are checked after every
    proposal; _local_moves returns at each proposal that can change them."""
    alpha = independence_polynomial(graph).alpha if alpha is None else alpha
    moves = _moves(graph, config)
    it = iter(_Uniforms(_stream(config.seed, trial)))
    triples = zip(it, it, it)
    n = max(graph.n, 1)
    histogram: dict[int, int] | None = {} if config.record_histogram else None
    acceptance = {}
    reps = [(0, 0, 0)]
    best_mask = best_size = size = 0  # size: the chain's, -1 when invalid
    first_hit = None
    proposals = 0
    stopped = False
    for beta in config.betas:
        rung = ((beta, math.exp(-beta)),)
        accepted = [0]
        rung_start = proposals
        rung_end = proposals + n * config.sweeps_per_beta
        while proposals < rung_end:
            # run to the next recorded sweep or the rung's end; a set already
            # at the target is recorded after one more proposal
            target = best_size + 1 if first_hit else min(best_size + 1, alpha)
            count = 1 if size >= target else rung_end - proposals \
                if histogram is None else n - proposals % n
            proposals += _local_moves(moves, reps, rung, accepted, triples,
                                      count, target)
            mask, size, viol = reps[0]
            size = -1 if viol else size
            if size > best_size:
                best_mask, best_size = mask, size
            if first_hit is None and size >= alpha:
                first_hit = proposals / n
                if stop_at_hit:
                    stopped = True
                    break
            if histogram is not None and not proposals % n:
                histogram[mask] = histogram.get(mask, 0) + 1
        acceptance[beta] = accepted[0] / max(proposals - rung_start, 1)
        if stopped:
            break
    # a stopped chain does not count the sweep of its hit
    return MCResult(best_mask=best_mask, best_size=best_size,
                    first_hit_sweep=first_hit,
                    sweeps=(proposals - stopped) // n,
                    acceptance=acceptance, histogram=histogram,
                    replica_histograms=None,
                    rng={"generator": "philox", "key": [config.seed, trial]})


def _cluster_swap(graph: Graph, rep_i: tuple, rep_j: tuple, cluster: int,
                  penalty: float) -> tuple:
    """Both penalty-mode replicas after swapping ``cluster`` between them,
    and the energy change of the first.  The pair's total energy is
    conserved, penalties included: every edge leaving a cluster ends where
    the two masks agree."""
    (mi, si, _), (mj, sj, _) = rep_i, rep_j
    di, dj = popcount(mi & cluster), popcount(mj & cluster)
    mi, mj = mi ^ cluster, mj ^ cluster  # the masks differ on all of it
    new_i = (mi, si + dj - di, violation_count(graph, mi))
    new_j = (mj, sj + di - dj, violation_count(graph, mj))
    return new_i, new_j, _energy(new_i, penalty) - _energy(rep_i, penalty)


def pt_run(graph: Graph, config: PTConfig, alpha: int | None = None,
           trial: int = 0) -> MCResult:
    """Parallel tempering on the Philox stream (config.seed, trial):
    per-replica local sweeps, adjacent replica exchange, and optional
    isoenergetic cluster moves.  Best and first-hit sets are checked after
    each replica's sweep.  In restricted mode the energy is -|z|, so the
    exchange and cluster moves read the replicas' sizes alone."""
    alpha = independence_polynomial(graph).alpha if alpha is None else alpha
    moves = _moves(graph, config)
    penalty = moves[3]
    betas = config.betas
    rungs = [(beta, math.exp(-beta)) for beta in betas]
    gaps = [b_i - b_j for b_i, b_j in zip(betas, betas[1:])]
    m_rep = config.replicas
    reps = [(0, 0, 0)] * m_rep
    it = iter(_Uniforms(_stream(config.seed, trial)))
    triples = zip(it, it, it)
    draw = it.__next__
    n = max(graph.n, 1)
    adj = graph.adjacency()
    histograms = [dict() for _ in range(m_rep)] if config.record_histogram else None
    swap_attempts = swap_accepts = iso_attempts = iso_accepts = 0
    local_acc = [0] * m_rep
    best_mask, best_size = 0, 0
    first_hit = None
    for sweep in range(config.sweeps):
        _local_moves(moves, reps, rungs, local_acc, triples, n, n + 1)
        for i, (mask, size, viol) in enumerate(reps):
            size = -1 if viol else size
            if size > best_size:
                best_mask, best_size = mask, size
            if first_hit is None and size >= alpha:
                first_hit = (sweep * m_rep + i + 1) / m_rep
        if histograms is not None:
            for hist, (mask, _, _) in zip(histograms, reps):
                hist[mask] = hist.get(mask, 0) + 1
        if config.swap_every and (sweep + 1) % config.swap_every == 0:
            swap_attempts += m_rep - 1
            for i, gap in enumerate(gaps):
                d_e = reps[i + 1][1] - reps[i][1] if penalty is None else \
                    _energy(reps[i], penalty) - _energy(reps[i + 1], penalty)
                log_acc = gap * d_e
                if log_acc >= 0 or draw() < math.exp(log_acc):
                    swap_accepts += 1
                    reps[i], reps[i + 1] = reps[i + 1], reps[i]
            if config.isoenergetic:
                iso_attempts += 1
                pair = int(draw() * (m_rep - 1))
                (mi, si, _), (mj, sj, _) = reps[pair], reps[pair + 1]
                comps = components(mi ^ mj, adj)
                if comps:
                    cluster = comps[int(draw() * len(comps))]
                    if penalty is None:  # independent sets stay independent
                        di, dj = popcount(mi & cluster), popcount(mj & cluster)
                        d_h_i = di - dj
                    else:
                        new_i, new_j, d_h_i = _cluster_swap(
                            graph, reps[pair], reps[pair + 1], cluster,
                            penalty)
                    log_acc = -gaps[pair] * d_h_i
                    if log_acc >= 0 or draw() < math.exp(log_acc):
                        iso_accepts += 1
                        if penalty is None:
                            new_i = (mi ^ cluster, si + dj - di, 0)
                            new_j = (mj ^ cluster, sj + di - dj, 0)
                        reps[pair], reps[pair + 1] = new_i, new_j
    acceptance = {f"local_beta_{beta:g}": acc / max(config.sweeps * n, 1)
                  for beta, acc in zip(betas, local_acc)}
    acceptance["replica_exchange"] = swap_accepts / max(swap_attempts, 1)
    if config.isoenergetic:
        acceptance["isoenergetic"] = iso_accepts / max(iso_attempts, 1)
    return MCResult(best_mask=best_mask, best_size=best_size,
                    first_hit_sweep=first_hit, sweeps=config.sweeps,
                    acceptance=acceptance, histogram=None,
                    replica_histograms=histograms,
                    rng={"generator": "philox", "key": [config.seed, trial]})


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
    energy = -space.sizes.astype(float)
    if config.mode == "penalty":
        energy = energy + (config.penalty_for(graph)
                           * violation_count(graph, space.masks))
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
                 sweep_grid=None, trials: int = 64,
                 alpha: int | None = None) -> TTSEstimate:
    """Empirical time-to-solution for a fixed-schedule SA chain.

    Each trial runs once to the longest budget and records its first-hit
    sweep; success probabilities at every budget follow from the first-hit
    distribution.  TTS(T) = T * ln(1 - p_target) / ln(1 - p(T)), with the
    saturation convention TTS(T) = T when p(T) = 1; censored trials (no hit
    anywhere) set the flag instead of crashing.  Trial t runs on the
    Philox stream (config.seed, t); the BOOTSTRAP_RESAMPLES resamples of the
    confidence interval draw on (config.seed, BOOTSTRAP_STREAM).
    """
    if sweep_grid is None:
        sweep_grid = [2 ** k for k in range(3, 12)]
    sweep_grid = sorted(sweep_grid)
    if not sweep_grid:
        raise ValueError("TTS needs at least one sweep budget; the grid is "
                         "empty")
    if trials < 1:
        raise ValueError(f"TTS needs at least 1 trial, got {trials}")
    if not 0 < p_target < 1:
        raise ValueError(f"TTS needs a target probability in (0, 1), got "
                         f"{p_target:g}")
    alpha = independence_polynomial(graph).alpha if alpha is None else alpha
    horizon = sweep_grid[-1]
    n_rungs = max(len(config.betas), 1)
    per_rung = max(horizon // n_rungs + 1, 1)
    trial_config = replace(config, sweeps_per_beta=per_rung,
                           record_histogram=False)
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
    if not censored:
        rng = _stream(config.seed, BOOTSTRAP_STREAM)
        values = []
        for _ in range(BOOTSTRAP_RESAMPLES):
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
