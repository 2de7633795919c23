import math
from itertools import islice

import numpy as np
import pytest

from flatscape import classical_mc

from oracles import (brute_counts, gibbs_distribution, scalar_pt_run,
                     scalar_sa_run, total_variation)

from flatscape.bits import components
from flatscape.classical_mc import (RNG_CHUNK, MCResult, PTConfig, SAConfig,
                                    _stream, _Uniforms, estimate_tts,
                                    geometric_betas, pt_run, sa_run,
                                    transition_matrix)
from flatscape.errors import ConfigError
from flatscape.graphs import Graph, generate_star, generate_unit_disk
from flatscape.landscape import independence_polynomial


def gibbs_dict(graph, beta):
    masks, probs = gibbs_distribution(graph, beta)
    return dict(zip(masks, probs))


def hist_to_probs(hist):
    total = sum(hist.values())
    return {k: v / total for k, v in hist.items()}


def test_config_validation():
    with pytest.raises(ConfigError):
        SAConfig(betas=(2.0, 1.0))
    with pytest.raises(ConfigError):
        SAConfig(flip_weight=0.0, exchange_weight=0.0)
    with pytest.raises(ConfigError):
        PTConfig(betas=(1.0,), isoenergetic=True)


@pytest.mark.parametrize("config", [SAConfig, PTConfig])
@pytest.mark.parametrize("flip, exchange", [(-0.5, 1.0), (1.0, -0.5)])
def test_negative_update_weight_rejected(config, flip, exchange):
    # a negative weight would give weights() outside [0, 1]: at (-0.5, 1.0)
    # PT proposed exchanges only and never left the empty set
    with pytest.raises(ConfigError, match="non-negative"):
        config(flip_weight=flip, exchange_weight=exchange)


def test_single_vertex_hits_immediately():
    g = Graph(n=1, edges=())
    config = SAConfig(betas=(1.0,), sweeps_per_beta=400, exchange_weight=0.0,
                      seed=3)
    result = sa_run(g, config)
    assert result.best_size == 1
    assert result.first_hit_sweep is not None
    assert result.first_hit_sweep <= 10  # downhill move accepted on sight
    # adds always accepted, removals at e^{-beta}: acceptance ~ 0.54
    assert 0.4 < result.acceptance[1.0] < 0.7


def test_fixed_seed_bit_identical(star22):
    config = SAConfig(betas=geometric_betas(0.5, 3.0, 4), sweeps_per_beta=50,
                      seed=11, record_histogram=True)
    a = sa_run(star22, config)
    b = sa_run(star22, config)
    assert a == b
    c = sa_run(star22, SAConfig(betas=geometric_betas(0.5, 3.0, 4),
                                sweeps_per_beta=50, seed=12,
                                record_histogram=True))
    assert a != c


def test_detailed_balance_exact_restricted(small_unit_disks, star22):
    graphs = [star22] + [g for g in small_unit_disks if g.n <= 10][:4]
    config = SAConfig(betas=(0.7,), flip_weight=0.4, exchange_weight=0.6)
    for g in graphs:
        P, basis = transition_matrix(g, 0.7, config)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-14)
        sizes = np.array([bin(z).count("1") for z in basis])
        logw = 0.7 * sizes  # pi ~ e^{beta*delta*|z|}
        w = np.exp(logw - logw.max())
        pi = w / w.sum()
        flow = pi[:, None] * P
        assert np.abs(flow - flow.T).max() <= 1e-12


# "800.0-restricted-None" is this case's established test id; keep it stable
@pytest.mark.parametrize("beta", [800.0], ids=["800.0-restricted-None"])
def test_transition_matrix_at_large_beta(star22, beta):
    # exp(-beta * dE) alone overflows once -beta * dE > 709
    config = SAConfig(betas=(beta,))
    P, _ = transition_matrix(star22, beta, config)
    assert (P >= 0.0).all()
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-14)


def test_zero_temperature_moves_follow_exchange_graph(star22):
    # at beta -> infinity from a size-2 set, only exchanges fire until the
    # maximum set is reached via the centre-adjacent configurations
    config = SAConfig(betas=(200.0,), sweeps_per_beta=500, seed=5)
    P, basis = transition_matrix(star22, 200.0, config)
    index = {z: i for i, z in enumerate(basis)}
    start = index[0b01010]  # {1, 3}: two branch-inner vertices
    reachable = P[start].nonzero()[0]
    moves = {basis[j] for j in reachable if basis[j] != basis[start]}
    # removals are exponentially suppressed; additions blocked; exchanges and
    # the (allowed) size-increasing flips dominate
    for z in moves:
        dsize = bin(z).count("1") - 2
        if dsize < 0:
            assert P[start, index[z]] < 1e-30
    # the two-domain-wall set exchanges along the configuration graph
    assert any(bin(z ^ 0b01010).count("1") == 2 for z in moves)


def test_sa_stationary_matches_gibbs(star22):
    beta = 1.0
    config = SAConfig(betas=(beta,), sweeps_per_beta=120_000, seed=42,
                      record_histogram=True)
    result = sa_run(star22, config)
    burn = 2_000
    # rebuild histogram from a fresh run skipping burn-in is overkill here:
    # the chain starts at the empty set whose weight is small at beta=1,
    # and 1.2e5 sweeps swamp the transient
    empirical = hist_to_probs(result.histogram)
    tv = total_variation(empirical, gibbs_dict(star22, beta))
    assert result.sweeps >= burn
    assert tv <= 0.02


def test_sa_tv_decreases_with_sweep_count(star22):
    beta = 1.5
    exact = gibbs_dict(star22, beta)
    tvs = []
    for sweeps in (2_000, 20_000, 200_000):
        seed_tvs = []
        for seed in (8, 9, 10):
            config = SAConfig(betas=(beta,), sweeps_per_beta=sweeps,
                              seed=seed, record_histogram=True)
            result = sa_run(star22, config)
            seed_tvs.append(total_variation(hist_to_probs(result.histogram),
                                            exact))
        tvs.append(np.mean(seed_tvs))
    assert tvs[0] > tvs[1] > tvs[2]
    assert tvs[-1] <= 0.02


def test_pt_marginals_match_gibbs(star22):
    betas = (0.5, 1.0, 1.5, 2.0)
    config = PTConfig(betas=betas, sweeps=60_000, swap_every=5, seed=9,
                      record_histogram=True)
    result = pt_run(star22, config)
    for i, beta in enumerate(betas):
        empirical = hist_to_probs(result.replica_histograms[i])
        tv = total_variation(empirical, gibbs_dict(star22, beta))
        assert tv <= 0.03, f"replica at beta={beta}: TV={tv}"
    assert result.acceptance["replica_exchange"] > 0.2


def test_pt_with_isoenergetic_preserves_gibbs(star22):
    betas = (0.6, 1.2, 1.8)
    config = PTConfig(betas=betas, sweeps=60_000, swap_every=5, seed=4,
                      isoenergetic=True, record_histogram=True)
    result = pt_run(star22, config)
    for i, beta in enumerate(betas):
        empirical = hist_to_probs(result.replica_histograms[i])
        assert total_variation(empirical, gibbs_dict(star22, beta)) <= 0.03
    assert result.acceptance["isoenergetic"] > 0.0


def test_equal_beta_replica_exchange_always_accepts(star22):
    config = PTConfig(betas=(1.0, 1.0), sweeps=300, swap_every=1, seed=2)
    result = pt_run(star22, config)
    assert result.acceptance["replica_exchange"] == pytest.approx(1.0)


def test_isoenergetic_noop_for_identical_replicas():
    g = generate_star(2, 2)
    adj = g.adjacency()
    assert components(0b10101 ^ 0b10101, adj) == []
    # symmetric-difference clusters swap occupancy between replicas and
    # conserve the pair's total occupation
    comps = components(0b00110 ^ 0b01001, adj)
    total = sum(bin(c).count("1") for c in comps)
    assert total == bin(0b00110 ^ 0b01001).count("1")


def test_isoenergetic_cluster_swap_conserves_energy_exhaustive(star22):
    # every cluster swap between independent sets keeps both replicas
    # independent and conserves the total occupation
    from oracles import brute_independent_sets

    adj = star22.adjacency()
    sets = brute_independent_sets(star22)
    rng = np.random.default_rng(0)
    pairs = rng.integers(0, len(sets), size=(200, 2))
    for a_idx, b_idx in pairs:
        zi, zj = sets[a_idx], sets[b_idx]
        for cluster in components(zi ^ zj, adj):
            ni = (zi & ~cluster) | (zj & cluster)
            nj = (zj & ~cluster) | (zi & cluster)
            assert bin(ni).count("1") + bin(nj).count("1") == \
                bin(zi).count("1") + bin(zj).count("1")
            for z in (ni, nj):
                members = [v for v in range(star22.n) if (z >> v) & 1]
                assert all(not (adj[u] >> v) & 1 for u in members
                           for v in members)


def test_tts_deterministic_solver_saturation():
    g = Graph(n=1, edges=())
    config = SAConfig(betas=(2.0,), exchange_weight=0.0, seed=0)
    est = estimate_tts(g, config, sweep_grid=[4, 16, 64], trials=32)
    assert not est.censored
    assert est.tts is not None
    # certain success at every budget: saturation convention TTS = T
    assert est.tts == pytest.approx(min(T for T, p in est.success_curve
                                        if p >= 1.0))


def test_tts_fixed_point_when_p_equals_target():
    # synthetic check of the formula: p(T) == p_target gives TTS = T
    T, p_target = 100.0, 0.75
    value = T * math.log(1 - p_target) / math.log(1 - p_target)
    assert value == T


def test_tts_censored_flag():
    # a graph the restricted chain can never finish within budget: make the
    # target unreachable by passing alpha larger than the true maximum
    g = generate_star(2, 2)
    config = SAConfig(betas=(1.0,), seed=1)
    est = estimate_tts(g, config, sweep_grid=[4, 8], trials=8, alpha=99)
    assert est.censored
    assert est.tts is None


def test_tts_star_family_tracks_bound_slope():
    # empirical TTS against the bound's landscape ratio across the family
    xs, ys = [], []
    for n_b in (2, 3, 4, 5):
        g = generate_star(n_b, 2)
        profile = independence_polynomial(g)
        config = SAConfig(betas=(2.5,), seed=100 + n_b)
        est = estimate_tts(g, config, sweep_grid=[2 ** k for k in range(2, 13)],
                           trials=48)
        assert not est.censored
        xs.append(math.log(float(profile.max_suffix_ratio)))
        ys.append(math.log(est.tts))
    slope = np.polyfit(xs, ys, 1)[0]
    assert 0.6 <= slope <= 1.4  # quadratic-speedup baseline is slope 1


def test_trial_keys_are_recorded(star22):
    sa = SAConfig(betas=(1.0,), sweeps_per_beta=20, seed=9)
    pt = PTConfig(betas=(0.5, 1.0), sweeps=20, seed=9)
    for t in (0, 1, 5):
        assert sa_run(star22, sa, trial=t).rng["key"] == [9, t]
        assert pt_run(star22, pt, trial=t).rng["key"] == [9, t]
    assert sa_run(star22, sa) == sa_run(star22, sa, trial=0)
    assert sa_run(star22, sa, trial=1) != sa_run(star22, sa, trial=2)


def test_tts_trial_t_is_sa_trial_t(monkeypatch):
    g = generate_star(4, 2)
    config = SAConfig(betas=(2.0,), seed=4)
    hits = []
    real = classical_mc.sa_run

    def recorded(*args, **kwargs):
        result = real(*args, **kwargs)
        hits.append(result.first_hit_sweep)
        return result

    monkeypatch.setattr(classical_mc, "sa_run", recorded)
    estimate_tts(g, config, sweep_grid=[4, 16, 64], trials=12)
    # a trial runs horizon // rungs + 1 sweeps per rung
    single = SAConfig(betas=(2.0,), sweeps_per_beta=65, seed=4)
    assert hits == [sa_run(g, single, stop_at_hit=True, trial=t).first_hit_sweep
                    for t in range(12)]
    assert len(set(hits)) > 1


def test_tts_bootstrap_key_differs_from_trial_keys(monkeypatch):
    keys = []
    real = classical_mc._stream

    def recorded(seed, stream):
        keys.append((seed, stream))
        return real(seed, stream)

    monkeypatch.setattr(classical_mc, "_stream", recorded)
    est = estimate_tts(generate_star(2, 2), SAConfig(betas=(2.0,), seed=3),
                       sweep_grid=[4, 16], trials=8)
    assert est.ci_low is not None
    assert keys[:-1] == [(3, t) for t in range(8)]
    assert keys[-1] not in keys[:-1]


def test_mc_result_summary_fields(star22):
    config = SAConfig(betas=(1.0, 2.0), sweeps_per_beta=200, seed=0)
    result = sa_run(star22, config)
    assert isinstance(result, MCResult)
    assert result.sweeps == 400
    assert set(result.acceptance) == {1.0, 2.0}
    assert result.best_size <= 3
    assert result.rng["generator"] == "philox"


def test_uniforms_follow_the_generator_across_chunks():
    # iteration, take(k) and zipped triples read one sequence: rng.random's
    expected = _stream(5, 2).random(5 * RNG_CHUNK).tolist()
    u = _Uniforms(_stream(5, 2))
    it = iter(u)
    got = u.take(1) + [next(it)] + u.take(0) + u.take(RNG_CHUNK + 1)
    # one triple straddles the second chunk boundary
    triples = RNG_CHUNK // 3 + 1
    for triple in islice(zip(it, it, it), triples):
        got += triple
    got += u.take(2 * RNG_CHUNK) + [next(it) for _ in range(5)]
    assert len(got) == 2 + (RNG_CHUNK + 1) + 3 * triples + 2 * RNG_CHUNK + 5
    assert got == expected[:len(got)]
    assert all(type(x) is float for x in got)


def test_philox_key_words_are_uint64():
    # 2^64 - 1 is a key word of its own, not a float64 wrap to 0
    assert not np.array_equal(_stream(2 ** 64 - 1, 0).random(4),
                              _stream(0, 0).random(4))
    # keys in range keep the stream numpy draws for the plain list key
    for key in ([5, 3], [5, 2 ** 63 - 1]):
        assert np.array_equal(_stream(*key).bit_generator.random_raw(8),
                              np.random.Philox(key=key).random_raw(8))
    for seed, stream in ((-1, 0), (2 ** 64, 0), (0, -1), (0, 2 ** 64)):
        with pytest.raises(ConfigError):
            _stream(seed, stream)


UD43 = generate_unit_disk(4, 3, 0.8, seed=3)
# the "restricted-None-" ids are these cases' established test ids; keep
# them stable
MC_GRAPHS = pytest.mark.parametrize(
    "graph", [generate_star(2, 2), UD43],
    ids=["restricted-None-star22", "restricted-None-ud-4x3-s3"])


def _alpha(graph):
    return len(brute_counts(graph)) - 1


@MC_GRAPHS
def test_sa_matches_scalar_chain(graph):
    # every field of sa_run equals the one-proposal-at-a-time reference,
    # over runs that cross many RNG_CHUNK-draw chunks (3 draws per proposal)
    alpha = _alpha(graph)
    # (stop_at_hit, record_histogram, flip_weight, alpha, seed, trial)
    cases = [
        (False, True, 0.5, alpha, 3, 0),
        (False, False, 0.3, alpha, 4, 2),
        (True, True, 0.5, alpha, 5, 1),
        (True, False, 0.5, 0, 6, 0),       # hit in hand before any proposal
        (False, True, 0.5, alpha + 1, 7, 0),
    ]
    for stop, histogram, flip, a, seed, trial in cases:
        config = SAConfig(betas=geometric_betas(0.3, 3.0, 4),
                          sweeps_per_beta=6000 // graph.n, flip_weight=flip,
                          exchange_weight=1.0 - flip, seed=seed,
                          record_histogram=histogram)
        got = sa_run(graph, config, alpha=a, stop_at_hit=stop, trial=trial)
        want = scalar_sa_run(graph, config, a, stop_at_hit=stop, trial=trial)
        assert {k: getattr(got, k) for k in want} == want, (stop, histogram)


@MC_GRAPHS
def test_pt_matches_scalar_chain(graph):
    alpha = _alpha(graph)
    for swap_every, iso, seed, trial in ((1, False, 3, 0), (3, True, 4, 1),
                                         (2, True, 5, 0)):
        config = PTConfig(betas=(0.5, 1.0, 1.5, 2.0), sweeps=6000 // graph.n,
                          swap_every=swap_every, isoenergetic=iso, seed=seed,
                          record_histogram=True)
        got = pt_run(graph, config, alpha=alpha, trial=trial)
        want = scalar_pt_run(graph, config, alpha, trial=trial)
        assert {k: getattr(got, k) for k in want} == want, (swap_every, iso)


@MC_GRAPHS
def test_sweep_kernel_edge_cases_match_scalar_chain(graph):
    # the one-call-per-sweep paths the cases above leave out: PT without
    # histograms, without exchange, with one replica, and with flips alone
    # beside cluster moves; SA with flips alone
    alpha = _alpha(graph)
    sweeps = 6000 // graph.n
    # (betas, swap_every, isoenergetic, exchange_weight, record_histogram)
    for seed, (betas, swap_every, iso, exchange, histogram) in enumerate([
            ((0.5, 1.0, 2.0), 1, True, 0.5, False),
            ((0.5, 1.0, 2.0), 0, False, 0.5, True),
            ((1.5,), 1, False, 0.5, True),
            ((0.5, 1.0, 1.5, 2.0), 2, True, 0.0, True)]):
        config = PTConfig(betas=betas, sweeps=sweeps, swap_every=swap_every,
                          isoenergetic=iso, exchange_weight=exchange,
                          seed=seed, record_histogram=histogram)
        got = pt_run(graph, config, alpha=alpha, trial=1)
        want = scalar_pt_run(graph, config, alpha, trial=1)
        assert {k: getattr(got, k) for k in want} == want, seed
    for stop, histogram in ((False, True), (True, False)):
        config = SAConfig(betas=geometric_betas(0.3, 3.0, 4),
                          sweeps_per_beta=sweeps, exchange_weight=0.0,
                          seed=7, record_histogram=histogram)
        got = sa_run(graph, config, alpha=alpha, stop_at_hit=stop, trial=3)
        want = scalar_sa_run(graph, config, alpha, stop_at_hit=stop, trial=3)
        assert {k: getattr(got, k) for k in want} == want, stop
