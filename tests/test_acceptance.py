"""Acceptance suite: every criterion at a pinned tolerance, one printed
pass/fail line each (run pytest with -s to see the lines inline).

Regression-style criteria (6 and 11) regress against the runtime bound's
landscape factor max D_{b-1}/D_b rather than the full bound value: the
bound's 1/(2nk) polynomial prefactor drifts by a factor ~3 across the small
star families used here, which swamps the exponential content the slopes
are meant to capture (the full-bound regressions are reported in the
printed lines for reference).  Criteria marked xfail are implemented at
their pinned tolerances and genuinely fail at desk scale; the printed line
carries the measured values and the xfail reason the analysis.
"""
import math
import time

import numpy as np
import pytest
import scipy.linalg

from oracles import (brute_counts, configuration_graph, dense_fiedler_gap,
                     dense_hamiltonian, gibbs_diagonal, gibbs_distribution,
                     laplacian_gap, marginal_probs, maximum_state,
                     perturbation_block, total_variation,
                     worldline_transition_matrix)

from flatscape.bits import Space
from flatscape.classical_mc import (PTConfig, SAConfig, estimate_tts, pt_run,
                                    sa_run, transition_matrix)
from flatscape.graphs import Graph, generate_star, generate_unit_disk
from flatscape.landscape import (classical_bound, independence_polynomial,
                                 unimodality_scan)
from flatscape.qmc import QMCConfig, qmc_bound_inputs, qmc_run
from flatscape.spectral import (_laplacian, _move_matrix, build_operator,
                                resolvent_gap, restricted_basis,
                                scan_minimum_gap)
from flatscape.star_models import (SymmetricStarSpace, central_absent_count,
                                   central_present_count, star_gap_scan,
                                   star_level_crossing)
from flatscape.tight_binding import ChainModel, build_chain, bulk_diagnostics


def check(num: str, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num}: {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def unit_disk_pool(count, width, height, filling, n_max, n_min=2, seed0=0):
    out = []
    seed = seed0
    while len(out) < count and seed < seed0 + 50 * count:
        g = generate_unit_disk(width, height, filling, seed)
        seed += 1
        if n_min <= g.n <= n_max:
            out.append(g)
    return out


def star_symmetric_scan(n_b, ell, lam=0.0, points=64):
    report = star_gap_scan(n_b, ell, lam=lam, points=points, span=(0.35, 1.6))
    assert not report.boundary_minimum
    return SymmetricStarSpace(n_b, ell), report


def test_c01_landscape_exactness():
    start = time.time()
    graphs = []
    for (w, h, f, s0) in ((4, 4, 0.8, 0), (4, 5, 0.65, 5000), (3, 5, 0.9, 9000)):
        graphs += unit_disk_pool(70, w, h, f, n_max=16, seed0=s0)
    graphs = graphs[:200]
    assert len(graphs) == 200
    mismatches = 0
    for g in graphs:
        profile = independence_polynomial(g)
        if list(profile.counts) != brute_counts(g):
            mismatches += 1
    elapsed = time.time() - start
    check("C1", "landscape exactness vs 2^n oracle",
          mismatches == 0 and elapsed < 60.0,
          f"200 graphs, {mismatches} mismatches, {elapsed:.1f}s")


def test_c02_star_counting_exact_decomposition():
    bad = []
    for ell in (2, 4, 6):
        for n_b in (1, 2, 3, 4):
            profile = independence_polynomial(generate_star(n_b, ell),
                                              method="generic")
            expected = (central_absent_count(n_b, ell)
                        + central_present_count(n_b, ell))
            if profile.counts[profile.alpha - 1] != expected:
                bad.append((n_b, ell))
    check("C2", "star D_{alpha-1} decomposition vs enumeration",
          not bad, "exact central-present term n_b*C(ell/2+1,2); "
          "compact 3n_b(ell/2-1) form agrees for ell in {4,6}")
    # the compact closed form is exact at ell = 4, 6
    for ell in (4, 6):
        for n_b in (1, 2, 3, 4):
            profile = independence_polynomial(generate_star(n_b, ell),
                                              method="generic")
            assert profile.counts[profile.alpha - 1] == \
                (ell // 2 + 1) ** n_b + 3 * n_b * (ell // 2 - 1)


@pytest.mark.xfail(strict=True, reason=(
    "the compact count 3 n_b (ell/2 - 1) vanishes at ell = 2 but enumeration "
    "gives n_b centre-present sets (e.g. the frozen counts [1,5,6,1] for the "
    "two-branch, length-2 star demand D_2 = 6, not 4); the exact term is "
    "n_b * C(ell/2 + 1, 2)"))
def test_c02_star_counting_compact_form_at_ell2():
    ok = True
    for n_b in (1, 2, 3, 4):
        profile = independence_polynomial(generate_star(n_b, 2),
                                          method="generic")
        compact = (2 // 2 + 1) ** n_b + 3 * n_b * (2 // 2 - 1)
        ok = ok and profile.counts[profile.alpha - 1] == compact
    check("C2x", "compact star count at ell=2", ok,
          "2^n_b + 0 vs enumerated 2^n_b + n_b")


def test_c03_sa_bound_arithmetic():
    profile = independence_polynomial(generate_star(2, 2))
    bound = classical_bound(profile, "sa", k=1, eps=0.25)
    expected = math.log(2.0) / 10.0 * 6.0
    ok = abs(bound - expected) <= 1e-9 and abs(bound - 0.41589) < 5e-6
    check("C3", "SA bound arithmetic on the 2-branch star", ok,
          f"bound={bound:.9f}")


def test_c04_detailed_balance():
    worst = 0.0
    # SA kernels on instances up to n = 10
    graphs = [generate_star(2, 2), generate_star(2, 4), generate_star(4, 2)]
    graphs += unit_disk_pool(3, 3, 4, 0.8, n_max=10, seed0=100)
    beta = 0.9
    for g in graphs:
        config = SAConfig(betas=(beta,), flip_weight=0.45, exchange_weight=0.55)
        P, basis = transition_matrix(g, beta, config)
        energies = np.array([-float(bin(z).count("1")) for z in basis])
        w = np.exp(-beta * (energies - energies.min()))
        pi = w / w.sum()
        flow = pi[:, None] * P
        worst = max(worst, float(np.abs(flow - flow.T).max()))
    # QMC worldline kernels on n <= 4, M <= 4
    qmc_cases = [(generate_star(1, 2), 3, 0.7), (Graph(n=2, edges=((0, 1),)), 4, 0.0),
                 (Graph(n=4, edges=((0, 1), (1, 2), (2, 3))), 3, 0.5)]
    for g, slices, lam in qmc_cases:
        config = QMCConfig(beta=1.3, slices=slices, omega=0.6, lam=lam)
        P, pi, _ = worldline_transition_matrix(g, config, p_site=0.6)
        flow = pi[:, None] * P
        worst = max(worst, float(np.abs(flow - flow.T).max()))
    check("C4", "detailed balance of constructed SA and QMC kernels",
          worst <= 1e-12, f"max |pi P - (pi P)^T| = {worst:.2e}")


def test_c05_sampler_correctness():
    start = time.time()
    star = generate_star(2, 2)
    beta = 2.0
    masks, probs = gibbs_distribution(star, beta)
    gibbs = dict(zip(masks, probs))

    config = SAConfig(betas=(beta,), sweeps_per_beta=1_000_000, seed=12,
                      record_histogram=True)
    result = sa_run(star, config)
    total = sum(result.histogram.values())
    sa_tv = total_variation({z: c / total for z, c in result.histogram.items()},
                            gibbs)

    betas = (0.5, 1.0, 1.5, 2.0)
    pt_config = PTConfig(betas=betas, sweeps=1_000_000, swap_every=5, seed=7,
                         isoenergetic=True, record_histogram=True)
    pt_result = pt_run(star, pt_config)
    pt_tv = 0.0
    for i, b in enumerate(betas):
        hist = pt_result.replica_histograms[i]
        tot = sum(hist.values())
        ref = dict(zip(*gibbs_distribution(star, b)))
        pt_tv = max(pt_tv, total_variation(
            {z: c / tot for z, c in hist.items()}, ref))

    qmc_config = QMCConfig(beta=2.0, slices=64, omega=0.3, delta=1.0, lam=1.0,
                           sweeps=8_000, seed=18, burn_in=200)
    qmc_result = qmc_run(star, qmc_config)
    basis = restricted_basis(star)
    H = dense_hamiltonian(star, basis, 0.3, 1.0, 1.0)
    exact = dict(zip(basis, gibbs_diagonal(H, 2.0)))
    qmc_tv = total_variation(marginal_probs(qmc_result), exact)

    ok = sa_tv <= 0.03 and pt_tv <= 0.03 and qmc_tv <= 0.05
    check("C5", "sampler stationary distributions",
          ok, f"SA TV={sa_tv:.4f} (<=0.03), PT max TV={pt_tv:.4f} (<=0.03), "
          f"QMC TV={qmc_tv:.4f} (<=0.05), {time.time()-start:.0f}s")


def test_c06_tts_tracks_sa_bound():
    xs_ratio, xs_bound, ys = [], [], []
    for n_b in range(2, 8):
        g = generate_star(n_b, 2)
        profile = independence_polynomial(g)
        config = SAConfig(betas=(4.0,), seed=50 + n_b)
        est = estimate_tts(g, config,
                           sweep_grid=[2 ** k for k in range(2, 15)],
                           trials=256)
        assert not est.censored
        xs_ratio.append(math.log(float(profile.max_suffix_ratio)))
        xs_bound.append(math.log(classical_bound(profile, "sa", k=1, eps=0.25)))
        ys.append(math.log(est.tts))
    slope = float(np.polyfit(xs_ratio, ys, 1)[0])
    slope_bound = float(np.polyfit(xs_bound, ys, 1)[0])
    check("C6", "log TTS vs log SA-bound slope = 1.0 +- 0.15",
          0.85 <= slope <= 1.15,
          f"slope={slope:.3f} vs landscape ratio "
          f"(vs full bound incl. 1/(2nk): {slope_bound:.3f})")


def test_c07_drive_coupling_identity():
    graphs = [generate_star(2, 2), generate_star(3, 2), generate_star(2, 4)]
    graphs += unit_disk_pool(47, 4, 4, 0.8, n_max=14, n_min=4, seed0=300)
    assert len(graphs) == 50
    worst = 0.0
    for g in graphs:
        profile = independence_polynomial(g)
        basis = restricted_basis(g)
        drive = _move_matrix(Space.of(g, basis).flips)
        sizes = np.array([bin(z).count("1") for z in basis])
        for b in range(1, profile.alpha + 1):
            u = np.where(sizes == b, 1.0, 0.0)
            u /= np.linalg.norm(u)
            v = np.where(sizes == b - 1, 1.0, 0.0)
            v /= np.linalg.norm(v)
            elem = float(v @ (drive @ u))
            closed = b * math.sqrt(profile.counts[b] / profile.counts[b - 1])
            worst = max(worst, abs(elem - closed) / closed)
    check("C7", "uniform-state drive coupling identity (50 instances)",
          worst <= 1e-12, f"max rel err = {worst:.2e}")


def test_c08_chain_matches_full_modified_gap():
    instances = []
    seed = 0
    while len(instances) < 20 and seed < 600:
        g = generate_unit_disk(4, 4, 0.8, seed)
        seed += 1
        if not 8 <= g.n <= 14:
            continue
        profile = independence_polynomial(g)
        if profile.alpha < 3:
            continue
        cg_a = configuration_graph(g, profile.alpha)
        cg_b = configuration_graph(g, profile.alpha - 1)
        if not (cg_a.connected and cg_b.connected):
            continue
        instances.append((g, profile))
    assert len(instances) == 20
    worst = 0.0
    for g, profile in instances:
        chain = build_chain(profile, omega=1.0)
        from flatscape.tight_binding import chain_gap_profile

        diag = chain_gap_profile(chain, (0.2, 6.0), points=192)
        base = build_operator(g, 1.0, 0.0, 50.0)
        sizes = base.sizes().astype(float)
        import scipy.sparse

        def factory(d, _base=base.matrix, _sizes=sizes):
            return _base + scipy.sparse.diags(-d * _sizes)

        lo = max(0.1, diag.min_gap_delta - 0.6)
        grid = np.linspace(lo, diag.min_gap_delta + 0.6, 41)
        rep = scan_minimum_gap(factory, grid, derivative=-sizes)
        worst = max(worst, abs(diag.min_gap - rep.gap) / diag.min_gap)
    check("C8", "chain vs full modified gap at strong delocalizer (20 inst.)",
          worst <= 0.10, f"max rel dev = {worst:.4f}")


@pytest.fixture(scope="module")
def star_scan_cache():
    cache = {}

    def get(n_b, ell, lam=0.0):
        key = (n_b, ell, lam)
        if key not in cache:
            cache[key] = star_symmetric_scan(n_b, ell, lam)
        return cache[key]

    return get


@pytest.mark.xfail(strict=True, reason=(
    "measured crossing-location errors at n_b = 6 are 30% (ell=2) and 19% "
    "(ell=4) against the exact scan; the asymptotic prediction error decays "
    "like ~1.8/n_b and first dips under 15% near n_b = 12 (verified in the "
    "companion test), so 15% at n_b = 6 is unattainable"))
def test_c09_star_crossing_predictions_at_nb6(star_scan_cache):
    errors = {}
    for ell in (2, 4):
        pred = star_level_crossing(6, ell)
        _, report = star_scan_cache(6, ell)
        errors[ell] = abs(pred.crossing - report.crossing) / report.crossing
    ok = all(err <= 0.15 for err in errors.values())
    check("C9a", "star crossing prediction within 15% at n_b=6", ok,
          f"rel errors: ell=2: {errors[2]:.3f}, ell=4: {errors[4]:.3f}")


def test_c09_star_ground_energy_and_error_decay(star_scan_cache):
    energy_errors = {}
    for ell in (2, 4):
        pred = star_level_crossing(6, ell)
        _, report = star_scan_cache(6, ell)
        n = 6 * ell + 1
        measured = -report.e_star / (n * report.delta_star)
        energy_errors[ell] = abs(pred.minus_e_star_over_n - measured) / measured
    ok_energy = all(err <= 0.15 for err in energy_errors.values())
    check("C9b", "star ground-energy prediction within 15% at n_b=6",
          ok_energy, f"rel errors: ell=2: {energy_errors[2]:.3f}, "
          f"ell=4: {energy_errors[4]:.3f}")

    crossing_errors = []
    for n_b in (4, 6, 8, 10, 12):
        pred = star_level_crossing(n_b, 2)
        _, report = star_scan_cache(n_b, 2)
        crossing_errors.append(abs(pred.crossing - report.crossing)
                               / report.crossing)
    decays = all(b < a for a, b in zip(crossing_errors, crossing_errors[1:]))
    check("C9c", "crossing error decreases in n_b and meets 15% by n_b=12",
          decays and crossing_errors[-1] <= 0.15,
          "errors " + ", ".join(f"{e:.3f}" for e in crossing_errors))


def _star_resolvent(space, report):
    sel, block = perturbation_block(space, space.alpha - 1)
    w, v = scipy.linalg.eigh(block)
    E = np.zeros(space.dim)
    E[sel] = v[:, -1]
    G = maximum_state(space)
    H = space.hamiltonian(1.0, report.delta_star, 0.0)
    return resolvent_gap(H, G, E, z0=report.e_star)


def test_c10_resolvent_ratios(star_scan_cache):
    ratios2, corr2 = [], []
    for n_b in (6, 7, 8, 9, 10):
        space, report = star_scan_cache(n_b, 2)
        res = _star_resolvent(space, report)
        ratios2.append(res.tilde_gap / report.gap)
        corr2.append(res.corrected_gap / report.gap)
    space4, report4 = star_scan_cache(6, 4)
    res4 = _star_resolvent(space4, report4)
    ratio4 = res4.tilde_gap / report4.gap
    corr4 = res4.corrected_gap / report4.gap
    ok_2 = all(abs(r - 4.53) <= 0.15 * 4.53 for r in ratios2)
    ok_4 = abs(ratio4 - 7.85) <= 0.15 * 7.85
    ok_corr = all(abs(c - 1.0) <= 0.05 for c in corr2) and \
        abs(corr4 - 1.0) <= 0.05
    check("C10", "resolvent ratios 4.53/7.85 and corrected gap within 5%",
          ok_2 and ok_4 and ok_corr,
          f"ell=2 ratios {['%.2f' % r for r in ratios2]}, ell=4 {ratio4:.2f}; "
          f"corrected/exact ell=2 {['%.3f' % c for c in corr2]}, "
          f"ell=4 {corr4:.3f}; adjudicates the factor-of-2 choice: corrected "
          "= tilde / sqrt(f_gg f_ee) with no extra factor 2")


def test_c11_speedup_slope_ell2(star_scan_cache):
    xs_ratio, xs_bound, ys = [], [], []
    for n_b in range(2, 11):
        profile = independence_polynomial(generate_star(n_b, 2))
        _, report = star_scan_cache(n_b, 2)
        xs_ratio.append(math.log(float(profile.max_suffix_ratio)))
        xs_bound.append(math.log(classical_bound(profile, "sa", k=1, eps=0.25)))
        ys.append(math.log(1.0 / report.gap))
    slope = float(np.polyfit(xs_ratio, ys, 1)[0])
    slope_bound = float(np.polyfit(xs_bound, ys, 1)[0])
    check("C11a", "quadratic speedup slope 0.5 +- 0.1 (ell=2, n_b=2..10)",
          0.4 <= slope <= 0.6,
          f"slope={slope:.3f} vs landscape ratio "
          f"(vs full bound: {slope_bound:.3f})")


@pytest.mark.xfail(strict=True, reason=(
    "against the bound's landscape ratio the ell=8 inverse-gap slope is "
    "~0.84 at n_b=2..3 and the small-angle asymptote caps it at "
    "ln((ell/2+1)/per-branch-amplitude...) ~ 0.77, first exceeding 1 only "
    "for ell ~ 40; the >1 appearance at ell=8 arises only against the full "
    "bound value (~1.22 here), where the shrinking 1/(2nk) prefactor, not "
    "the landscape, supplies the excess"))
def test_c11_slowdown_slope_ell8():
    xs_ratio, xs_bound, ys = [], [], []
    for n_b in (2, 3):
        profile = independence_polynomial(generate_star(n_b, 8))
        _, report = star_symmetric_scan(n_b, 8, points=40)
        xs_ratio.append(math.log(float(profile.max_suffix_ratio)))
        xs_bound.append(math.log(classical_bound(profile, "sa", k=1, eps=0.25)))
        ys.append(math.log(1.0 / report.gap))
    slope = float(np.polyfit(xs_ratio, ys, 1)[0])
    slope_bound = float(np.polyfit(xs_bound, ys, 1)[0])
    check("C11b", "slowdown slope exceeds 1 at ell=8",
          slope > 1.0,
          f"slope={slope:.3f} vs landscape ratio "
          f"(vs full bound: {slope_bound:.3f})")


def test_c12_delocalizer_properties():
    # Laplacian annihilates uniform manifold states on connected manifolds
    worst_norm = 0.0
    graphs = [generate_star(2, 2), generate_star(3, 2)]
    graphs += unit_disk_pool(6, 4, 3, 0.8, n_max=12, n_min=4, seed0=40)
    for g in graphs:
        profile = independence_polynomial(g)
        for b in range(1, profile.alpha + 1):
            cg = configuration_graph(g, b)
            if not cg.connected:
                continue
            basis = list(cg.nodes)
            lap = _laplacian(Space.of(g, basis).exchanges)
            uniform = np.ones(len(basis)) / math.sqrt(len(basis))
            worst_norm = max(worst_norm, float(np.linalg.norm(lap @ uniform)))
    # laplacian_gap equals the dense Fiedler oracle on a large config graph
    big = None
    for seed in range(2000, 2400):
        g = generate_unit_disk(6, 5, 0.8, seed)
        if g.n > 24:
            continue
        profile = independence_polynomial(g)
        for b in (profile.alpha - 1, profile.alpha - 2):
            if b >= 1 and 800 <= profile.counts[b] <= 2000:
                big = (g, b, profile.counts[b])
                break
        if big:
            break
    assert big is not None
    g, b, nodes = big
    cg = configuration_graph(g, b)
    gap = laplacian_gap(cg)
    comp = cg.largest_component()
    comp_set = set(comp)
    edges = [(i, j) for i in comp for j in cg.neighbors[i]
             if j in comp_set and i < j]
    oracle = dense_fiedler_gap(comp, edges)
    fiedler_ok = abs(gap - oracle) <= 1e-10
    check("C12", "delocalizer kernel and Fiedler-oracle agreement",
          worst_norm <= 1e-12 and fiedler_ok,
          f"max ||H_l |S_b>|| = {worst_norm:.2e}; config graph with "
          f"{nodes} nodes: |gap - oracle| = {abs(gap - oracle):.2e}")


def test_c13_continuum_diagnostics():
    violations = 0
    chains = []
    for g in unit_disk_pool(10, 4, 4, 0.8, n_max=16, n_min=8, seed0=700):
        profile = independence_polynomial(g)
        if profile.alpha >= 4:
            chains.append(build_chain(profile))
    for n_b in (4, 8, 12):
        chains.append(build_chain(independence_polynomial(
            generate_star(n_b, 2))))
    assert len(chains) >= 10
    for chain in chains:
        diag = bulk_diagnostics(chain)
        for _, gap in diag.bulk_gaps:
            if gap < diag.fundamental_bound:
                violations += 1
    # uniform-coupling chain against the dense tridiagonal oracle
    alpha, t = 20, 0.8
    chain = ChainModel(alpha=alpha, hops=(t * alpha,) * alpha, omega=1.0)
    worst = 0.0
    for d in (0.0, 0.4, 1.0, 2.0):
        w = chain.eigenvalues(d, count=2, bulk_only=True)
        H = np.diag([-d * b for b in range(alpha)])
        for i in range(alpha - 1):
            H[i, i + 1] = H[i + 1, i] = -t * alpha
        dense = scipy.linalg.eigvalsh(H)[:2]
        worst = max(worst, float(np.abs(w - dense).max()))
    check("C13", "fundamental bulk-gap bound and tridiagonal oracle",
          violations == 0 and worst <= 1e-10,
          f"{len(chains)} chains, 0 bound violations, oracle dev {worst:.1e}")


def test_c14_unimodality_scan():
    start = time.time()
    graphs = (generate_unit_disk(5, 6, 0.8, seed) for seed in range(500))
    report = unimodality_scan(graphs, limit=30)
    check("C14", "unimodality over 500 unit-disk instances (n <= 30)",
          report.checked >= 500 - report.capacity_skips and
          report.violation_count == 0,
          f"checked={report.checked}, violations={report.violation_count}, "
          f"skips={report.capacity_skips}, {time.time()-start:.0f}s")


def test_c15_qmc_enhancement_factors():
    values = []
    star = generate_star(2, 2)
    rep = qmc_bound_inputs(star, b=3, omega=0.3, delta=1.0, lam=50.0, beta=2.0)
    values.append(max(rep.e_max.values()))
    for g in unit_disk_pool(10, 4, 3, 0.8, n_max=12, n_min=6, seed0=101):
        profile = independence_polynomial(g)
        rep = qmc_bound_inputs(g, b=profile.alpha, omega=0.3, delta=1.0,
                               lam=50.0, beta=2.0)
        values.append(max(rep.e_max.values()))
    check("C15", "Gibbs enhancement e_max <= 1.1 at strong delocalizer",
          all(v <= 1.1 for v in values),
          f"max e_max = {max(values):.4f} over {len(values)} instances")
