import math

import numpy as np
import pytest

from oracles import (brute_emax, dense_hamiltonian, gibbs_diagonal,
                     gibbs_distribution, log_weight, marginal_probs,
                     scalar_qmc_run, total_variation, trotter_marginal,
                     worldline_transition_matrix)

from flatscape.errors import CapacityError, ConfigError
from flatscape.graphs import Graph, generate_star, generate_unit_disk
from flatscape.qmc import (QMCConfig, WorldlineEngine, qmc_bound_inputs,
                           qmc_run, trotter_error_proxy)
from flatscape.spectral import lowest_eigenpairs, restricted_basis


def test_config_validation():
    with pytest.raises(ConfigError):
        QMCConfig(slices=1)


def test_no_sign_problem_bond_matrix(star22):
    engine = WorldlineEngine(star22, QMCConfig(beta=2.0, slices=16, omega=0.4,
                                               lam=1.0))
    bond = np.exp(np.array(engine.log_bond_rows))
    assert (bond >= 0).all()
    assert (np.diag(bond) > 0).all()


def test_worldline_weight_cyclic_invariance(star22):
    config = QMCConfig(beta=1.5, slices=6, omega=0.5, lam=0.5)
    engine = WorldlineEngine(star22, config)
    rng = np.random.default_rng(1)
    for _ in range(20):
        slices = [int(rng.integers(0, len(engine.basis))) for _ in range(6)]
        w0 = log_weight(engine, slices)
        for shift in range(1, 6):
            rotated = slices[shift:] + slices[:shift]
            assert log_weight(engine, rotated) == pytest.approx(w0, abs=1e-12)


def test_detailed_balance_exhaustive_small_worldlines():
    # path on 3 vertices, M = 3 slices: every worldline pair checked
    g = generate_star(1, 2)
    for lam in (0.0, 0.7):
        config = QMCConfig(beta=1.2, slices=3, omega=0.6, lam=lam)
        P, pi, states = worldline_transition_matrix(g, config, p_site=0.7)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
        flow = pi[:, None] * P
        assert np.abs(flow - flow.T).max() <= 1e-12


def test_detailed_balance_two_vertices_m4():
    g = Graph(n=2, edges=((0, 1),))
    config = QMCConfig(beta=2.0, slices=4, omega=0.8)
    P, pi, states = worldline_transition_matrix(g, config, p_site=0.5)
    flow = pi[:, None] * P
    assert np.abs(flow - flow.T).max() <= 1e-12


def test_diagonal_limit_reduces_to_classical_gibbs():
    # Omega = lam = 0: only temporal-line moves fire and the slice-1
    # marginal is exactly the classical Gibbs distribution
    g = generate_star(1, 2)
    config = QMCConfig(beta=1.0, slices=8, omega=0.0, lam=0.0, sweeps=20_000,
                       seed=3)
    result = qmc_run(g, config)
    masks, probs = gibbs_distribution(g, 1.0)
    tv = total_variation(marginal_probs(result), dict(zip(masks, probs)))
    assert tv <= 0.02
    # with no off-diagonal terms a single-slice flip creates a zero-weight
    # bond and can never be accepted
    assert result.acceptance["site"] == 0.0


def test_single_vertex_symmetric_two_level():
    g = Graph(n=1, edges=())
    config = QMCConfig(beta=12.0, slices=64, omega=1.0, delta=0.0,
                       sweeps=4_000, seed=5)
    result = qmc_run(g, config)
    probs = marginal_probs(result)
    assert probs.get(0, 0.0) == pytest.approx(0.5, abs=0.03)
    assert probs.get(1, 0.0) == pytest.approx(0.5, abs=0.03)


def test_marginal_matches_dense_gibbs_star22(star22):
    beta, omega, lam, slices = 2.0, 0.3, 1.0, 64
    config = QMCConfig(beta=beta, slices=slices, omega=omega, delta=1.0,
                       lam=lam, sweeps=8_000, seed=17, burn_in=200)
    result = qmc_run(star22, config)
    basis = restricted_basis(star22)
    H = dense_hamiltonian(star22, basis, omega, 1.0, lam)
    exact = dict(zip(basis, gibbs_diagonal(H, beta)))
    tv = total_variation(marginal_probs(result), exact)
    assert tv <= 0.05


def test_trotter_convergence_and_proxy(star22):
    basis = restricted_basis(star22)
    H = dense_hamiltonian(star22, basis, 0.3, 1.0, 1.0)
    exact = gibbs_diagonal(H, 2.0)
    tvs, margs = [], {}
    for slices in (8, 16, 32, 64):
        margs[slices] = trotter_marginal(H, 2.0, slices)
        tvs.append(0.5 * np.abs(margs[slices] - exact).sum())
    assert all(b < a for a, b in zip(tvs, tvs[1:]))  # halves as M doubles
    proxy = trotter_error_proxy(star22, QMCConfig(beta=2.0, slices=32,
                                                  omega=0.3, lam=1.0))
    assert 0.0 < proxy < 1e-3
    assert proxy == pytest.approx(
        0.5 * np.abs(margs[32] - margs[64]).sum(), rel=1e-10)


def test_capacity_error_on_large_restricted_space():
    g = generate_star(4, 6)
    with pytest.raises(CapacityError):
        WorldlineEngine(g, QMCConfig(beta=1.0, slices=4))
    with pytest.raises(CapacityError):
        trotter_error_proxy(g, QMCConfig(beta=1.0, slices=4))


def test_capacity_errors_name_the_dense_limit(star22, monkeypatch):
    # both dense steps name the limit they refuse, and its value
    from flatscape import qmc

    monkeypatch.setattr(qmc, "DENSE_WORLDLINE_LIMIT", 2)
    named = r"DENSE_WORLDLINE_LIMIT = 2\b"
    with pytest.raises(CapacityError, match=named):
        WorldlineEngine(star22, QMCConfig(beta=1.0, slices=4))
    with pytest.raises(CapacityError, match=named):
        qmc_bound_inputs(star22)


def test_emax_uniform_at_infinite_temperature(star22):
    # beta -> 0: populations uniform over the restricted space, so
    # e_max = D_{b-1} / #restricted
    report = qmc_bound_inputs(star22, b=3, omega=0.3, beta=1e-9, lam=0.0)
    restricted = 1 + 5 + 6  # sizes 0..2
    assert report.e_max[3] == pytest.approx(6 / restricted, rel=1e-6)
    assert report.e_max[3] <= 1.0


def test_emax_delocalized_at_large_lambda(star22):
    report = qmc_bound_inputs(star22, b=3, omega=0.3, beta=2.0, lam=50.0)
    assert report.e_max[3] <= 1.1


def test_qmc_bound_reduces_to_pt_local_when_emax_one(star22):
    from flatscape.landscape import classical_bound, independence_polynomial

    report = qmc_bound_inputs(star22, omega=0.3, beta=2.0, lam=50.0, k=1)
    profile = independence_polynomial(star22)
    pt = classical_bound(profile, "pt_local")
    # with e_max <= 1 the QMC bound is at least the local-update PT bound
    assert report.bound >= pt * 0.999
    manual = max(float(profile.suffix_ratio(b)) / report.e_max[b]
                 for b in report.e_max) * math.log(2.0) / (2 * 5 * 1 * 5)
    assert report.bound == pytest.approx(manual, rel=1e-12)


def test_qmc_bound_rejects_zero_flip_radius(star22):
    with pytest.raises(ValueError, match="k must be"):
        qmc_bound_inputs(star22, k=0)


def test_qmc_run_deterministic(star22):
    config = QMCConfig(beta=1.0, slices=8, omega=0.4, sweeps=500, seed=21)
    a = qmc_run(star22, config)
    b = qmc_run(star22, config)
    assert a.marginal == b.marginal
    assert a.acceptance == b.acceptance


def test_heat_bath_line_matches_exact_conditional():
    """The timeline resampler's draws follow the exact conditional
    distribution (brute-force enumeration over one vertex's timelines)."""
    from itertools import product

    from flatscape.classical_mc import _Uniforms, _stream
    from flatscape.qmc import WorldlineEngine, resample_vertex_line

    g = generate_star(1, 2)  # path on 3 vertices
    config = QMCConfig(beta=1.5, slices=4, omega=0.7, lam=0.4)
    engine = WorldlineEngine(g, config)
    rng_state = [engine.index[0b010], engine.index[0b000],
                 engine.index[0b100], engine.index[0b100]]
    v = 0
    bit = 1 << v
    # brute-force conditional over v's timelines given the rest
    weights = {}
    for occ in product((0, 1), repeat=4):
        cand = []
        ok = True
        for slot, x in enumerate(occ):
            base = engine.basis[rng_state[slot]] & ~bit
            mask = base | (bit if x else 0)
            idx = engine.index.get(mask)
            if idx is None:
                ok = False
                break
            cand.append(idx)
        if ok:
            weights[occ] = math.exp(log_weight(engine, cand))
    total = sum(weights.values())
    exact = {k: w / total for k, w in weights.items()}
    u01 = _Uniforms(_stream(3, 0))
    counts = {}
    draws = 40_000
    for _ in range(draws):
        new = resample_vertex_line(engine, rng_state, v, u01)
        occ = tuple(int(bool(engine.basis[i] & bit)) for i in new)
        counts[occ] = counts.get(occ, 0) + 1
    empirical = {k: c / draws for k, c in counts.items()}
    tv = 0.5 * sum(abs(empirical.get(k, 0.0) - exact.get(k, 0.0))
                   for k in set(empirical) | set(exact))
    assert tv <= 0.01


@pytest.mark.parametrize("graph", [generate_star(2, 2),
                                   generate_unit_disk(4, 3, 0.8, seed=3),
                                   generate_star(3, 4)],
                         ids=["star22", "unit-disk-4x3-s3", "star34"])
def test_qmc_matches_scalar_chain(graph):
    # marginal and acceptances equal, draw for draw, to the reference chain
    # that builds every transfer block afresh; M = 17 leaves the Philox
    # chunks at odd offsets, M = 64 is the benchmark's setting
    for seed, (lam, slices) in enumerate(
            [(lam, slices) for lam in (0.0, 1.0) for slices in (8, 17, 64)]):
        config = QMCConfig(beta=2.0, slices=slices, omega=0.3, lam=lam,
                           sweeps=200, seed=seed, burn_in=seed * 5)
        got = qmc_run(graph, config)
        want = scalar_qmc_run(graph, config)
        assert got.marginal == want["marginal"], (lam, slices)
        assert got.acceptance == want["acceptance"], (lam, slices)


def test_heat_bath_inadmissible_line_raises_every_call():
    # with no drive the bond matrix is the identity, so a line whose other
    # vertices change between two slices has no admissible timeline; the
    # failing block is rebuilt (and fails) on every call, never memoized
    from flatscape.classical_mc import _Uniforms, _stream
    from flatscape.qmc import resample_vertex_line

    g = generate_star(1, 2)  # path 0 - 1 - 2
    engine = WorldlineEngine(g, QMCConfig(beta=1.0, slices=4, omega=0.0))
    index = engine.index
    # vertex 1's blocks are built from the last slice back: 000 -> 000 is
    # admissible (its largest weight, diag[010] = e^-1/4, normalizes to 1),
    # 100 -> 000 is not
    state = [index[0b000], index[0b100], index[0b000], index[0b000]]
    u01 = _Uniforms(_stream(3, 0))
    for _ in range(3):
        with pytest.raises(ConfigError, match="no admissible timeline"):
            resample_vertex_line(engine, state, 1, u01)
        memo = list(engine.blocks[1].values())
        assert len(memo) == 1 and max(memo[0]) == 1.0
    assert next(iter(u01)) == _Uniforms(_stream(3, 0)).take(1)[0]


@pytest.mark.parametrize("graph", [generate_star(2, 2),
                                   generate_unit_disk(4, 3, 0.8, seed=3)],
                         ids=["star22", "unit-disk-4x3-s3"])
@pytest.mark.parametrize("lam", [0.0, 50.0])
@pytest.mark.parametrize("beta", [1e-9, 2.0, 20.0])
def test_emax_matches_full_eigh_oracle(graph, lam, beta):
    for k in (1, 2):
        report = qmc_bound_inputs(graph, omega=0.3, delta=1.0, lam=lam,
                                  beta=beta, k=k)
        assert report.e_max
        for b, e in report.e_max.items():
            oracle = brute_emax(graph, b, 0.3, 1.0, lam, beta, k)
            assert e == pytest.approx(oracle, rel=1e-10), (k, b)


@pytest.mark.parametrize("lam", [0.0, 50.0])
@pytest.mark.parametrize("beta", [2.0, 20.0])
def test_emax_gibbs_window_on_degenerate_star(lam, beta):
    # generic basis of star(3, 4): branch permutations repeat eigenvalues
    # inside the Gibbs window, which Lanczos alone may miss
    g = generate_star(3, 4)
    report = qmc_bound_inputs(g, omega=0.3, delta=1.0, lam=lam, beta=beta)
    for b, e in report.e_max.items():
        oracle = brute_emax(g, b, 0.3, 1.0, lam, beta)
        assert e == pytest.approx(oracle, rel=1e-10), b


def test_gibbs_window_falls_back_when_lanczos_drops_a_copy(monkeypatch):
    # the dropped copy sits inside the window, so the inertia count must
    # send every block to the dense solve, bit for bit
    from flatscape import qmc

    g = generate_star(3, 4)
    args = dict(omega=0.3, delta=1.0, lam=50.0, beta=20.0)
    with monkeypatch.context() as m:
        m.setattr(qmc, "DENSE_EIG_LIMIT", 10 ** 6)
        dense = qmc_bound_inputs(g, **args).e_max
    dropped = []

    def drop_one_copy(H, count):
        w, V = lowest_eigenpairs(H, count)
        repeated = np.flatnonzero(np.diff(w) < 1e-9)
        if len(repeated):
            dropped.append(float(w[repeated[0]]))
            w, V = np.delete(w, repeated[0]), np.delete(V, repeated[0], axis=1)
        return w, V

    monkeypatch.setattr(qmc, "lowest_eigenpairs", drop_one_copy)
    assert qmc_bound_inputs(g, **args).e_max == dense
    assert dropped


def test_gibbs_window_falls_back_when_lanczos_fails(monkeypatch):
    from flatscape import qmc
    from flatscape.errors import ConvergenceError

    g = generate_star(3, 4)
    args = dict(omega=0.3, delta=1.0, lam=50.0, beta=20.0)
    with monkeypatch.context() as m:
        m.setattr(qmc, "DENSE_EIG_LIMIT", 10 ** 6)
        dense = qmc_bound_inputs(g, **args).e_max
    failed = []

    def no_convergence(H, count):
        failed.append(count)
        raise ConvergenceError("no convergence")

    monkeypatch.setattr(qmc, "lowest_eigenpairs", no_convergence)
    assert qmc_bound_inputs(g, **args).e_max == dense
    assert failed


def test_gibbs_window_skips_the_count_when_it_holds_every_state(monkeypatch):
    # at lambda = 0 Gershgorin's bound puts every eigenvalue of each block
    # below the window's top, so no block pays for the inertia count
    import scipy.linalg.lapack

    factor, counts = scipy.linalg.lapack.dsytrf, []

    def counted(*args, **kwargs):
        counts[-1] += 1
        return factor(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dsytrf", counted)
    g = generate_star(3, 4)
    for lam in (0.0, 50.0):
        counts.append(0)
        qmc_bound_inputs(g, omega=0.3, delta=1.0, lam=lam, beta=2.0)
    assert counts[0] == 0 < counts[1]


def test_bound_sizes_sharing_a_window_top_share_one_elimination(monkeypatch):
    # all four bound sizes of this dim-1732 instance have the window top
    # min(diag H) + 40/beta = 20, so one block LDL^T of the largest leading
    # block counts for every size
    from flatscape import qmc
    from flatscape.landscape import independence_polynomial

    g = generate_unit_disk(5, 5, 0.7, seed=0)
    assert independence_polynomial(g).bound_sizes() == [5, 6, 7, 8]
    kernel, calls = qmc._sector_ldl, []

    def counted(C, *args):
        calls.append(C.shape[0])
        return kernel(C, *args)

    monkeypatch.setattr(qmc, "_sector_ldl", counted)
    report = qmc_bound_inputs(g, omega=0.3, delta=1.0, lam=50.0, beta=2.0)
    assert list(report.e_max) == [5, 6, 7, 8]
    assert calls == [1731]  # the sets smaller than 8
