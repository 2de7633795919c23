import math

import numpy as np
import pytest
import scipy.linalg

from flatscape.errors import ConfigError
from flatscape.graphs import Graph, generate_star
from flatscape.landscape import LandscapeProfile, independence_polynomial
from flatscape.star_models import SymmetricStarSpace
from flatscape.tight_binding import (ChainModel, build_chain, bulk_diagnostics,
                                     chain_gap_profile, locate_resonance,
                                     synthesize_schedule)


def test_star22_couplings(star22):
    profile = independence_polynomial(star22)
    chain = build_chain(profile, omega=1.0)
    expected = [math.sqrt(5), 2 * math.sqrt(6 / 5), 3 * math.sqrt(1 / 6)]
    assert np.allclose(chain.hops, expected, atol=1e-14)
    scaled = build_chain(profile, omega=0.5)
    assert np.allclose(scaled.hops, 0.5 * np.array(expected), atol=1e-14)


def test_edgeless_couplings_are_binomial_ratios():
    n = 8
    profile = independence_polynomial(Graph(n=n, edges=()))
    chain = build_chain(profile)
    for b in range(1, n + 1):
        assert chain.hops[b - 1] == pytest.approx(
            b * math.sqrt((n - b + 1) / b), rel=1e-12)
    assert chain.hops[0] == pytest.approx(math.sqrt(n), rel=1e-12)


def test_first_coupling_is_sqrt_n(small_unit_disks):
    for g in small_unit_disks[:5]:
        profile = independence_polynomial(g)
        chain = build_chain(profile)
        assert chain.hops[0] == pytest.approx(math.sqrt(g.n), rel=1e-12)


def test_broken_chain_rejected():
    profile = LandscapeProfile(n=3, counts=(1, 0, 1), alpha=2, b_star=2,
                               unimodal=False)
    with pytest.raises(ConfigError):
        build_chain(profile)


def test_small_chain_gap_against_dense_oracle():
    # alpha = 2 chain with a weak final hop: near resonance the gap is
    # approximately t2 * |<psi0|site 1>|
    t1, t2 = 1.0, 1e-3
    chain = ChainModel(alpha=2, hops=(t1, t2), omega=1.0)
    diag = chain_gap_profile(chain, (0.05, 3.0), points=256)

    def dense_gap(d):
        H = np.array([[0.0, -t1, 0.0],
                      [-t1, -d, -t2],
                      [0.0, -t2, -2 * d]])
        w = scipy.linalg.eigvalsh(H)
        return w[1] - w[0]

    assert diag.min_gap == pytest.approx(dense_gap(diag.min_gap_delta), abs=1e-12)
    _, psi0 = chain.bulk_ground(diag.delta_star)
    assert diag.bj_coupling == pytest.approx(t2 * abs(psi0[-1]), rel=1e-12)
    assert diag.min_gap == pytest.approx(2 * diag.bj_coupling, rel=0.05)
    # resonance location and gap minimum coincide for a weak final hop
    assert diag.delta_star == pytest.approx(diag.min_gap_delta, abs=1e-3)


def test_eigenvalues_match_dense_oracle_uniform_chain():
    alpha = 12
    t = 0.7
    chain = ChainModel(alpha=alpha, hops=(t * alpha,) * alpha, omega=1.0)
    for d in (0.0, 0.3, 1.1):
        w = chain.eigenvalues(d, count=3)
        H = np.diag([-d * b for b in range(alpha + 1)])
        for i in range(alpha):
            H[i, i + 1] = H[i + 1, i] = -t * alpha
        dense = scipy.linalg.eigvalsh(H)[:3]
        assert np.allclose(w, dense, atol=1e-10)


def test_uniform_coupling_bulk_diagnostics():
    alpha = 24
    t = 0.5
    chain = ChainModel(alpha=alpha, hops=(t * alpha,) * alpha, omega=1.0)
    diag = bulk_diagnostics(chain, deltas=np.linspace(0.0, 2.0, 9))
    assert diag.u1 == pytest.approx(t ** -0.5, rel=1e-12)
    assert diag.fundamental_bound == pytest.approx(
        3 * math.pi ** 2 * t / alpha ** 2, rel=1e-12)
    for _, g in diag.bulk_gaps:
        assert g >= diag.fundamental_bound


def test_fundamental_bound_holds_for_random_instances(small_unit_disks):
    for g in small_unit_disks:
        profile = independence_polynomial(g)
        if profile.alpha < 4:
            continue
        chain = build_chain(profile)
        diag = bulk_diagnostics(chain)
        for _, gap in diag.bulk_gaps:
            assert gap >= diag.fundamental_bound


def test_fit_recovers_universal_curve():
    # synthesize couplings on the reported universal form and refit
    alpha = 120
    A0, c0 = 1.80, 1.04
    xs = np.arange(1, alpha + 1) / alpha
    hops = alpha * A0 * np.sqrt(xs) * np.clip(1 - xs, 1e-12, None) ** c0
    hops[-1] = 1e-3  # instance-specific tiny final hop
    chain = ChainModel(alpha=alpha, hops=tuple(hops), omega=1.0)
    diag = bulk_diagnostics(chain, deltas=[0.0])
    assert diag.fit_amplitude == pytest.approx(A0, rel=0.02)
    assert diag.fit_exponent == pytest.approx(c0, rel=0.05)


def test_u1_grows_with_system_size():
    u1s = []
    for n_b in (4, 8, 16, 32):
        profile = independence_polynomial(generate_star(n_b, 2))
        diag = bulk_diagnostics(build_chain(profile), deltas=[0.0])
        u1s.append(diag.u1)
    assert u1s == sorted(u1s)


def test_chain_vs_full_modified_gap_star62():
    profile = independence_polynomial(generate_star(6, 2))
    chain = build_chain(profile, omega=1.0)
    diag = chain_gap_profile(chain, (0.3, 4.0), points=192)
    sym = SymmetricStarSpace(6, 2)

    def full_gap(d):
        H = sym.hamiltonian(1.0, d, 50.0)
        w = scipy.linalg.eigh(H.toarray(), eigvals_only=True,
                              subset_by_index=(0, 1))
        return w[1] - w[0]

    ds = np.linspace(max(0.3, diag.min_gap_delta - 0.5),
                     diag.min_gap_delta + 0.5, 41)
    best = min(full_gap(d) for d in ds)
    assert abs(diag.min_gap - best) / diag.min_gap <= 0.1


def test_resonance_matches_argmin_when_final_hop_weak():
    # the identification of the gap minimum with the bulk/last-site
    # resonance needs the final hop to be genuinely weak, as on hard
    # instances; synthesize such chains deterministically
    rng = np.random.default_rng(7)
    for alpha in (5, 9, 14):
        bulk = 2.0 + rng.random(alpha - 1) * 3.0
        chain = ChainModel(alpha=alpha, hops=tuple(bulk) + (1e-2,), omega=1.0)
        diag = chain_gap_profile(chain, (0.05, 8.0), points=256)
        assert not diag.boundary
        cell = (8.0 - 0.05) / 255
        assert abs(diag.delta_star - diag.min_gap_delta) <= cell
        assert diag.min_gap == pytest.approx(2 * diag.bj_coupling, rel=0.05)


def test_min_gap_within_factor_three_of_smallest_hop():
    # hard-instance behaviour: the chain minimum gap tracks the smallest
    # coupling when that coupling is the weak final one
    rng = np.random.default_rng(3)
    for alpha in (6, 10):
        for weak in (1e-1, 1e-2):
            bulk = 2.0 + rng.random(alpha - 1) * 2.0
            chain = ChainModel(alpha=alpha, hops=tuple(bulk) + (weak,),
                               omega=1.0)
            diag = chain_gap_profile(chain, (0.05, 8.0), points=256)
            ratio = diag.min_gap / min(chain.hops)
            assert 1.0 / 3.0 <= ratio <= 3.0


def test_schedule_slowdown_scaling():
    chain = ChainModel(alpha=2, hops=(1.0, 1e-3), omega=1.0)
    diag = chain_gap_profile(chain, (0.05, 3.0), points=256)
    sched = synthesize_schedule(diag, (0.05, 3.0))
    slow = [s for s in sched.segments
            if abs((s.delta_start + s.delta_end) / 2 - diag.delta_star)
            < diag.min_gap]
    assert len(slow) == 1
    # slow segment duration = window / (rate_factor * gap^2) ~ 10 / gap
    assert slow[0].duration == pytest.approx(
        diag.min_gap / (0.1 * diag.min_gap ** 2), rel=1e-6)
    assert sched.total_duration >= slow[0].duration
    assert sched.delta_star == diag.delta_star


def test_schedule_refuses_without_resonance():
    chain = ChainModel(alpha=2, hops=(1.0, 0.9), omega=1.0)
    diag = chain_gap_profile(chain, (2.5, 3.0), points=32)  # off-resonant range
    with pytest.raises(ConfigError):
        synthesize_schedule(diag, (2.5, 3.0))


def test_alpha_one_chain_refused():
    chain = ChainModel(alpha=1, hops=(1.0,), omega=1.0)
    with pytest.raises(ConfigError):
        chain_gap_profile(chain, (0.1, 2.0))


def test_resonance_bisection_consistency(star22):
    profile = independence_polynomial(star22)
    chain = build_chain(profile)
    dstar = locate_resonance(chain)
    e0, _ = chain.bulk_ground(dstar)
    assert e0 == pytest.approx(-dstar * chain.alpha, abs=1e-9)


def test_chain_scan_goes_through_scan_minimum_gap(monkeypatch):
    # one scan routine for every spectrum; its minimum is the zero of the
    # Hellmann-Feynman slope sum_b b (psi0_b^2 - psi1_b^2) of the chain gap
    from flatscape import spectral, tight_binding

    calls = []

    def counted_scan(*args, **kwargs):
        calls.append(args)
        return spectral.scan_minimum_gap(*args, **kwargs)

    monkeypatch.setattr(tight_binding, "scan_minimum_gap", counted_scan)
    chain = ChainModel(alpha=5, hops=(2.0, 3.5, 2.5, 4.0, 1e-2), omega=1.0)
    diag = chain_gap_profile(chain, (0.05, 8.0), points=64)
    assert len(calls) == 1

    def slope(d):
        _, v = scipy.linalg.eigh(chain.matrix(d).toarray(),
                                 subset_by_index=(0, 1))
        return float(np.arange(chain.alpha + 1) @ (v[:, 0] ** 2 - v[:, 1] ** 2))

    cell = (8.0 - 0.05) / 63
    lo, hi = diag.min_gap_delta - cell, diag.min_gap_delta + cell
    assert slope(lo) < 0 < slope(hi)
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if slope(mid) < 0 else (lo, mid)
    assert abs(diag.min_gap_delta - lo) <= spectral.SCAN_REL_TOL * lo
