import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from oracles import (brute_heff_entries, brute_heff_slopes,
                     brute_independent_sets, dense_hamiltonian, gap_point)

from flatscape.bits import Space, enumerate_independent_sets_of_size
from flatscape.errors import CapacityError, ConvergenceError
from flatscape.graphs import Graph, generate_star, generate_unit_disk
from flatscape.landscape import independence_polynomial
from flatscape.spectral import (_laplacian, build_operator, embed_state,
                                free_vertex_diag, hamming_gap_estimate,
                                lowest_eigenpairs, min_gap_scan,
                                minimize_gap, perturbative_states,
                                resolvent_gap, restricted_basis,
                                scan_minimum_gap)
from flatscape.star_models import SymmetricStarSpace, star_gap_scan


def test_single_vertex_operator_matrix():
    g = Graph(n=1, edges=())
    op = build_operator(g, omega=0.7, delta=1.3)
    H = op.matrix.toarray()
    assert np.allclose(H, [[0.0, -0.7], [-0.7, -1.3]])
    w, _ = lowest_eigenpairs(op, 2)
    delta, omega = 1.3, 0.7
    exact = sorted([(-delta - math.sqrt(delta**2 + 4 * omega**2)) / 2,
                    (-delta + math.sqrt(delta**2 + 4 * omega**2)) / 2])
    assert np.allclose(w, exact, atol=1e-12)


def test_operator_symmetry_and_dim(star22):
    op = build_operator(star22, omega=0.4, delta=1.0, lam=0.8)
    assert op.dim == 13
    asym = (op.matrix - op.matrix.T)
    assert abs(asym).max() <= 1e-14 * abs(op.matrix).max()


def test_matrix_matches_pairwise_oracle(star22):
    basis = restricted_basis(star22)
    for omega, delta, lam in ((0.3, 1.0, 0.0), (1.0, 0.5, 2.0)):
        op = build_operator(star22, omega, delta, lam)
        oracle = dense_hamiltonian(star22, basis, omega, delta, lam)
        assert np.allclose(op.matrix.toarray(), oracle, atol=1e-12)


@pytest.mark.parametrize("omega, delta, lam", [(1, 0, 0), (1, 1, 0),
                                               (2, 3, 1)])
def test_build_operator_takes_integer_coefficients(star22, omega, delta, lam):
    # integer coefficients build the float operator bit for bit, with no
    # warning from an integer diagonal
    got = build_operator(star22, omega, delta, lam).matrix
    want = build_operator(star22, float(omega), float(delta),
                          float(lam)).matrix
    assert got.dtype == want.dtype == np.float64
    for part in ("data", "indices", "indptr"):
        assert getattr(got, part).tobytes() == getattr(want, part).tobytes()


def test_diagonal_operator_multiplicities(star22):
    op = build_operator(star22, omega=0.0, delta=1.0)
    w = np.sort(np.diag(op.matrix.toarray()))
    profile = independence_polynomial(star22)
    expected = sorted(-b for b in range(profile.alpha + 1)
                      for _ in range(profile.counts[b]))
    assert np.allclose(w, expected)


def test_capacity_error(monkeypatch):
    from flatscape import spectral

    monkeypatch.setattr(spectral, "NNZ_LIMIT", 1000)
    g = generate_star(4, 6)  # n = 25, eight-ish thousand sets exceed tiny cap
    with pytest.raises(CapacityError):
        build_operator(g, 1.0, 1.0)


def test_mask_width_limit_fails_before_enumeration(monkeypatch):
    from flatscape import spectral

    def enumerate_nothing(*args):
        raise AssertionError("enumerated past the mask-width limit")

    monkeypatch.setattr(spectral, "enumerate_independent_sets",
                        enumerate_nothing)
    k65 = Graph(n=65, edges=tuple((u, v) for u in range(65)
                                  for v in range(u + 1, 65)))
    with pytest.raises(CapacityError, match="64"):
        build_operator(k65, 1.0, 1.0)


def test_laplacian_rows_sum_to_zero_within_manifolds(star22):
    for b in (1, 2, 3):
        basis = brute_independent_sets(star22, b)
        lap = _laplacian(Space.of(star22, basis).exchanges)
        assert np.abs(np.asarray(lap.sum(axis=1))).max() <= 1e-14


def test_laplacian_annihilates_uniform_state_connected_manifold(star22):
    basis = brute_independent_sets(star22, 2)
    lap = _laplacian(Space.of(star22, basis).exchanges)
    uniform = np.ones(len(basis)) / math.sqrt(len(basis))
    assert np.linalg.norm(lap @ uniform) <= 1e-12
    w = scipy.linalg.eigvalsh(lap.toarray())
    assert abs(w[0]) <= 1e-12
    assert w[1] > 0  # unique zero mode on a connected manifold


def test_drive_coupling_identity(small_unit_disks):
    """<S_{b-1}| H_drive |S_b> = b * sqrt(D_b / D_{b-1}) at unit drive."""
    for g in small_unit_disks[:6]:
        profile = independence_polynomial(g)
        basis = restricted_basis(g)
        op = build_operator(g, omega=1.0, delta=0.0)
        sizes = op.sizes()
        for b in range(1, profile.alpha + 1):
            u = np.where(sizes == b, 1.0, 0.0)
            u /= np.linalg.norm(u)
            v = np.where(sizes == b - 1, 1.0, 0.0)
            v /= np.linalg.norm(v)
            elem = float(v @ (-op.matrix @ u))  # matrix holds -H_drive
            closed = b * math.sqrt(profile.counts[b] / profile.counts[b - 1])
            assert abs(elem - closed) <= 1e-12 * max(1.0, abs(closed))


def test_lowest_eigenpairs_krylov_matches_dense():
    g = generate_star(4, 4)  # dim 4721: exercises the sparse path
    op = build_operator(g, omega=0.2, delta=1.0)
    w_sparse, v = lowest_eigenpairs(op, 2)
    dense = scipy.linalg.eigh(op.matrix.toarray(), eigvals_only=True,
                              subset_by_index=(0, 1))
    assert np.allclose(w_sparse, dense, atol=1e-10)
    for i in range(2):
        r = np.linalg.norm(op.matrix @ v[:, i] - w_sparse[i] * v[:, i])
        assert r <= 1e-9 * abs(op.matrix).sum(axis=1).max()


@pytest.mark.parametrize("partial", [1, 0])
def test_no_convergence_reports_residual_norms(monkeypatch, partial):
    # ARPACK's partial pairs on no convergence: the error carries their
    # residual norms ||H v - theta v||, not their eigenvalues
    import scipy.sparse.linalg

    from flatscape import spectral

    g = Graph(n=10, edges=tuple((i, i + 1) for i in range(9)))
    op = build_operator(g, omega=1.0, delta=1.0)
    w, v = scipy.linalg.eigh(op.matrix.toarray(), subset_by_index=(0, 1))
    theta = w[:partial] + 1e-3
    vecs = v[:, :partial] + 1e-3

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("stub", theta, vecs)

    monkeypatch.setattr(spectral, "DENSE_EIG_LIMIT", 0)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    with pytest.raises(ConvergenceError) as err:
        lowest_eigenpairs(op, 2)
    if partial:
        want = np.linalg.norm(op.matrix @ vecs - vecs * theta, axis=0)
        assert err.value.residuals == pytest.approx(want.tolist(), rel=1e-12)
        assert err.value.residuals != pytest.approx(theta.tolist())
    else:
        assert err.value.residuals is None


def test_min_gap_scan_boundary_flag_single_vertex():
    g = Graph(n=1, edges=())
    report = min_gap_scan(g, omega=1.0, delta_range=(0.2, 4.0), points=16)
    assert report.boundary_minimum
    assert report.delta_star == pytest.approx(0.2)


def _lowest_branch(*branches):
    """gap_at of the pointwise minimum of (gap, slope) branches: the gap
    and analytic slope of the lowest branch."""
    return lambda d: min(branch(d) for branch in branches)


def test_minimize_gap_refines_narrow_dip_between_grid_points():
    # a wide shallow dip holds the coarse minimum (0.6 at delta = 3); the
    # deeper V at 7.2 lies between grid points and shows on the grid only
    # as a shallower local minimum (0.65 at delta = 7)
    gap_at = _lowest_branch(
        lambda d: (0.6 + 0.1 * (d - 3.0) ** 2, 0.2 * (d - 3.0)),
        lambda d: (0.05 + 3.0 * abs(d - 7.2), math.copysign(3.0, d - 7.2)),
        lambda d: (1.0 + 0.01 * d, 0.01))

    grid = np.linspace(0.0, 10.0, 21)
    report = minimize_gap(gap_at, grid, rel_tol=1e-9)
    assert report.curve == [(d, gap_at(d)[0]) for d in grid.tolist()]
    assert min(report.curve, key=lambda p: p[1])[0] == 3.0
    assert not report.boundary_minimum
    assert report.gap == pytest.approx(0.05, abs=1e-7)
    assert report.delta_star == pytest.approx(7.2, abs=1e-7)


def test_minimize_gap_lower_boundary_wins():
    # the interior dip sits at 3.2, off the grid, so refining it takes
    # points beyond the grid
    calls = []
    gap_slope = _lowest_branch(
        lambda d: (0.8 + 0.1 * (d - 3.2) ** 2, 0.2 * (d - 3.2)),
        lambda d: (0.2 + 0.3 * (10.0 - d), -0.3))

    def gap_at(d):
        calls.append(d)
        return gap_slope(d)

    grid = np.linspace(0.0, 10.0, 21)
    report = minimize_gap(gap_at, grid, rel_tol=1e-6)
    assert len(calls) > len(grid)  # the interior dip at 3.2 was refined
    assert report.boundary_minimum
    assert report.gap == 0.2
    assert report.delta_star == 10.0


def _avoided_crossing(g0, s, d0):
    def gap_slope(d):
        gap = math.sqrt(g0 ** 2 + s ** 2 * (d - d0) ** 2)
        return gap, s ** 2 * (d - d0) / gap
    return gap_slope


def test_minimize_gap_root_search_on_avoided_crossing():
    # sqrt(g0^2 + s^2 (delta - delta0)^2): the slope's root is delta0
    calls = []
    gap_slope = _avoided_crossing(1e-3, 1.0, 2.3456)

    def gap_at(d):
        calls.append(d)
        return gap_slope(d)

    grid = np.linspace(0.2, 6.0, 64)
    report = minimize_gap(gap_at, grid, rel_tol=1e-6)
    assert report.method["refinement"] == ["root"]
    assert report.method["evaluations"] == {
        "grid": 64, "refine": len(calls) - 64}
    assert len(calls) - 64 <= 12
    assert len(set(calls)) == len(calls)
    assert abs(report.delta_star - 2.3456) <= 1e-6 * 2.3456
    assert report.gap == gap_slope(report.delta_star)[0]


def test_minimize_gap_root_search_takes_the_half_bracket():
    # slopes -, +, - at the grid minimum delta = 4: the outer slopes share a
    # sign, the left half [3, 4] holds the minimum
    def gap_at(d):
        return (1.5 + math.sin(3.1 * d) + 0.2 * d + 0.02 * (d - 3.0) ** 2,
                3.1 * math.cos(3.1 * d) + 0.2 + 0.04 * (d - 3.0))

    grid = np.linspace(0.0, 6.0, 7)
    assert [np.sign(gap_at(d)[1]) for d in (3.0, 4.0, 5.0)] == [-1, 1, -1]
    report = minimize_gap(gap_at, grid, rel_tol=1e-9)
    assert report.method["refinement"] == ["root"]
    lo, hi = 3.0, 4.0  # bisect the slope for the reference minimum
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if gap_at(mid)[1] < 0 else (lo, mid)
    assert report.delta_star == pytest.approx(lo, abs=1e-8)


def test_minimize_gap_without_sign_change_keeps_the_grid_point():
    # slopes +, +, + around the grid minimum delta = 3: no bracket, so the
    # dip keeps its grid point
    def gap_slope(d):
        return (1.5 + math.sin(5.9 * d) + 0.1 * d + 0.02 * (d - 3.0) ** 2,
                5.9 * math.cos(5.9 * d) + 0.1 + 0.04 * (d - 3.0))

    grid = np.linspace(0.0, 6.0, 7)
    assert all(gap_slope(d)[1] > 0 for d in (2.0, 3.0, 4.0))
    report = minimize_gap(gap_slope, grid, rel_tol=1e-6)
    assert report.method["refinement"] == ["grid"]
    assert report.delta_star == 3.0
    assert report.gap == gap_slope(3.0)[0]


@pytest.mark.parametrize("case", ["star-3-6-sector", "unit-disk-4x3"])
def test_hellmann_feynman_slope_matches_central_difference(case):
    if case == "star-3-6-sector":
        space = SymmetricStarSpace(3, 6)
        deltas = (0.6, 1.0, 1.4)

        def factory(d):
            return space.hamiltonian(1.0, d)
        derivative = -space.total_size
    else:
        g = generate_unit_disk(4, 3, 0.8, seed=3)
        base = build_operator(g, omega=1.0, delta=0.0)
        deltas = (0.5, 1.5, 3.0)

        def factory(d):
            return base.matrix + scipy.sparse.diags(-d * base.sizes())
        derivative = -base.sizes()
    h = 1e-5
    for d in deltas:
        _, _, slope = gap_point(factory(d), derivative)
        _, up, _ = gap_point(factory(d + h), derivative)
        _, down, _ = gap_point(factory(d - h), derivative)
        assert slope == pytest.approx((up - down) / (2 * h), rel=1e-6), d


def test_min_gap_scan_star22_interior_minimum(star22):
    report = min_gap_scan(star22, omega=1.0, delta_range=(0.3, 2.0), points=48)
    assert not report.boundary_minimum
    # bracketing: neighbours on the coarse curve are larger
    ds = [d for d, _ in report.curve]
    gs = [g for _, g in report.curve]
    k = min(range(len(ds)), key=lambda i: abs(ds[i] - report.delta_star))
    assert report.gap <= gs[max(k - 1, 0)] + 1e-12
    assert report.gap <= gs[min(k + 1, len(gs) - 1)] + 1e-12
    assert report.crossing == pytest.approx(1.0 / report.delta_star)
    assert report.e_star < 0


def test_perturbative_states_star(star22):
    ps = perturbative_states(star22)
    assert ps.alpha == 3
    assert ps.b_excited == 2
    # unique maximum set cannot spin-exchange
    assert ps.exchange_expectations["ground_se"] == pytest.approx(0.0, abs=1e-12)
    assert not ps.degenerate
    assert ps.crossing == pytest.approx(1.0, rel=1e-10)  # 1/sqrt(c*nb - 1) = 1


def test_h2_ground_overlap_with_exact_eigenstate(star22):
    # at small drive the exact first-excited state is the manifold ground
    ps = perturbative_states(star22)
    op = build_operator(star22, omega=0.05, delta=1.0)
    w, v = lowest_eigenpairs(op, 2)
    excited_full = embed_state(op.basis, ps.excited_basis, ps.excited)
    assert abs(float(excited_full @ v[:, 1])) >= 0.99


def test_resolvent_corrected_matches_exact_gap(star22):
    ps = perturbative_states(star22)
    scan = min_gap_scan(star22, omega=1.0, delta_range=(0.3, 2.0), points=48)
    op = build_operator(star22, omega=1.0, delta=scan.delta_star)
    G = embed_state(op.basis, ps.ground_basis, ps.ground)
    E = embed_state(op.basis, ps.excited_basis, ps.excited)
    w, v = lowest_eigenpairs(op, 3)
    report = resolvent_gap(op.matrix, G, E, z0=scan.e_star,
                           exact_pairs=(v[:, 0], v[:, 1]))
    assert report.slopes["f_gg"] >= 1.0
    assert report.slopes["f_ee"] >= 1.0
    assert report.corrected_gap <= report.tilde_gap
    assert report.corrected_gap == pytest.approx(scan.gap, rel=0.02)
    # the effective-two-level hypothesis is only marginal at this size (the
    # crossing ratio is ~1), so just check the diagnostic is reported sanely
    assert report.validity is not None and 0.0 < report.validity <= 1.0


def test_heff_determinant_vanishes_at_exact_eigenvalues(star22):
    from flatscape.spectral import _heff_solver

    ps = perturbative_states(star22)
    scan = min_gap_scan(star22, omega=1.0, delta_range=(0.3, 2.0), points=48)
    op = build_operator(star22, omega=1.0, delta=scan.delta_star)
    G = embed_state(op.basis, ps.ground_basis, ps.ground)
    E = embed_state(op.basis, ps.excited_basis, ps.excited)
    w, _ = lowest_eigenpairs(op, 2)
    for z in w:
        ent = _heff_solver(op.matrix, G, E, float(z))[0](float(z))
        det = (z - ent["GG"]) * (z - ent["EE"]) - ent["GE"] * ent["EG"]
        assert abs(det) <= 1e-8 * max(1.0, z * z)


def test_hamming_estimate_single_pair():
    est, hist = hamming_gap_estimate([0b01], np.array([1.0]),
                                     [0b11], np.array([1.0]), crossing=0.3)
    assert est == pytest.approx(2 * 0.3)
    assert hist == {1: 1.0}


def test_hamming_estimate_uses_all_64_bits():
    top = 1 << 63
    est, hist = hamming_gap_estimate([top], np.array([1.0]),
                                     [top | 0b1], np.array([1.0]),
                                     crossing=0.3)
    assert est == pytest.approx(2 * 0.3)
    assert hist == {1: 1.0}


def test_hamming_estimate_leading_order_scaling():
    # min distance 2: estimate ~ crossing^2 for small crossing
    g_basis, e_basis = [0b0011], [0b1100]
    amps = np.array([1.0])
    r1 = hamming_gap_estimate(g_basis, amps, e_basis, amps, 1e-3)[0]
    r2 = hamming_gap_estimate(g_basis, amps, e_basis, amps, 1e-4)[0]
    slope = (math.log(r1) - math.log(r2)) / (math.log(1e-3) - math.log(1e-4))
    assert slope == pytest.approx(4.0, rel=1e-6)  # distance 4 here


def test_hamming_estimate_tracks_exact_gap_on_stars():
    # the low-order estimate is built from perturbative inputs, so it is
    # meaningful where the crossing ratio is small; star(2,2) sits at
    # crossing ~ 1 and the estimate degrades to ~4x there (checked), while
    # larger stars land within a factor of 3
    for n_b, factor in ((2, 5.0), (4, 3.0), (6, 3.0)):
        g = generate_star(n_b, 2)
        ps = perturbative_states(g)
        scan = min_gap_scan(g, omega=1.0,
                            delta_range=(0.3, 0.6 * math.sqrt(n_b) + 1.5),
                            points=48)
        est, hist = hamming_gap_estimate(ps.ground_basis, ps.ground,
                                         ps.excited_basis, ps.excited,
                                         ps.crossing)
        assert est / scan.gap < factor
        assert scan.gap / est < factor
        assert abs(sum(hist.values()) - 1.0) < 1e-9


def test_manifold_ground_degeneracy_flag():
    # two disjoint edges: the size-1 manifold splits into two identical
    # exchange components, so the manifold ground state is exactly degenerate
    from flatscape.errors import ConvergenceError
    from flatscape.spectral import _manifold_ground, _move_matrix

    g = Graph(n=4, edges=((0, 1), (2, 3)))
    basis = brute_independent_sets(g, 1)
    exchange = _move_matrix(Space.of(g, basis).exchanges)
    *_, degenerate = _manifold_ground(exchange, free_vertex_diag(g, basis))
    assert degenerate
    # this toy has no finite crossing at all; the pipeline reports that
    with pytest.raises(ConvergenceError):
        perturbative_states(g)


def test_manifold_ground_degeneracy_flag_on_lanczos_path():
    # two disjoint 8-vertex paths: an exchange keeps each path's set size,
    # so the size-5 manifold (920 rows) splits into blocks (b1, 5 - b1), and
    # (2, 3) mirrors (3, 2): its top pair is exactly degenerate; the size-4
    # manifold's top lies in the self-mirrored block (2, 2)
    from flatscape.spectral import (DENSE_EIG_LIMIT, _manifold_ground,
                                    _move_matrix)

    path = tuple((v, v + 1) for v in range(7))
    g = Graph(n=16, edges=path + tuple((u + 8, v + 8) for u, v in path))
    space = Space.of(g, restricted_basis(g))
    exchange = _move_matrix(space.exchanges)
    free = free_vertex_diag(g, space.basis)
    for b, expect in ((5, True), (4, False)):
        rows = slice(*np.searchsorted(space.sizes, [b, b + 1]))
        assert rows.stop - rows.start > DENSE_EIG_LIMIT
        *_, degenerate = _manifold_ground(exchange[rows, rows], free[rows])
        assert degenerate == expect


def test_manifold_ground_lanczos_matches_dense_oracle():
    # the b = 4 manifold of the 5x5 unit disk has 1059 rows, so its ground
    # comes from Lanczos; a dense eigh of the same block is the oracle
    from flatscape.bits import Space
    from flatscape.spectral import (DENSE_EIG_LIMIT, _manifold_ground,
                                    _move_matrix)

    g = generate_unit_disk(5, 5, 0.8, 7)
    space = Space.of(g, restricted_basis(g))
    rows = slice(*np.searchsorted(space.sizes, [4, 5]))
    exchange = _move_matrix(space.exchanges)[rows, rows]
    free = free_vertex_diag(g, space.basis)[rows]
    assert len(free) == 1059 > DENSE_EIG_LIMIT
    vec, se, fv, degenerate = _manifold_ground(exchange, free)
    w, v = scipy.linalg.eigh(exchange.toarray() - np.diag(free))
    top = v[:, -1]
    assert se - fv == pytest.approx(w[-1], rel=1e-10)
    assert abs(vec @ top) == pytest.approx(1.0, abs=1e-10)
    assert se == pytest.approx(top @ (exchange @ top), rel=1e-10)
    assert fv == pytest.approx(top @ (free * top), rel=1e-10)
    assert not degenerate


def test_resolvent_iterative_path_matches_dense(star22, monkeypatch):
    from flatscape import spectral

    ps = perturbative_states(star22)
    scan = min_gap_scan(star22, omega=1.0, delta_range=(0.3, 2.0), points=48)
    op = build_operator(star22, omega=1.0, delta=scan.delta_star)
    G = embed_state(op.basis, ps.ground_basis, ps.ground)
    E = embed_state(op.basis, ps.excited_basis, ps.excited)
    dense = resolvent_gap(op.matrix, G, E, z0=scan.e_star)
    monkeypatch.setattr(spectral, "RESOLVENT_DENSE_LIMIT", 1)
    iterative = resolvent_gap(op.matrix, G, E, z0=scan.e_star)
    assert iterative.tilde_gap == pytest.approx(dense.tilde_gap, rel=1e-8)
    assert iterative.corrected_gap == pytest.approx(dense.corrected_gap,
                                                    rel=1e-6)


def test_basis_is_sorted_and_manifolds_are_its_runs(small_unit_disks,
                                                    star22):
    """restricted_basis is the brute-force list in (size, mask) order, and
    the sets of each size, enumerated on their own, are its contiguous run
    of that size: the order that perturbative_states slices by."""
    for g in small_unit_disks + [star22]:
        basis = restricted_basis(g)
        assert basis == sorted(brute_independent_sets(g),
                               key=lambda z: (bin(z).count("1"), z))
        sizes = [bin(z).count("1") for z in basis]
        for b in range(sizes[-1] + 2):
            lo = sizes.index(b) if b in sizes else len(sizes)
            run = basis[lo:lo + sizes.count(b)]
            assert all(bin(z).count("1") == b for z in run)
            assert sorted(enumerate_independent_sets_of_size(
                g.n, g.adjacency(), b)) == run


def test_perturbative_states_enumerates_once(monkeypatch, star22):
    # one enumeration and one Space serve every manifold, and each manifold
    # of more than one row takes one lowest_eigenpairs solve: here b = 2 and
    # b = 1, while the maximum set is a single row
    from flatscape import spectral

    runs = {b: brute_independent_sets(star22, b) for b in range(4)}
    calls = {"enumerate": 0, "space": 0, "eig": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spectral, "enumerate_independent_sets",
                        counted("enumerate",
                                spectral.enumerate_independent_sets))
    monkeypatch.setattr(spectral.Space, "of",
                        counted("space", spectral.Space.of))
    monkeypatch.setattr(spectral, "lowest_eigenpairs",
                        counted("eig", spectral.lowest_eigenpairs))
    ps = perturbative_states(star22)
    assert calls == {"enumerate": 1, "space": 1, "eig": 2}
    assert ps.alpha == 3
    assert ps.ground_basis == runs[3]
    assert ps.excited_basis == runs[ps.b_excited]


def test_perturbative_states_at_thirty_vertices():
    # dim 56,336 with a 17,357-row manifold: a dense copy of that manifold
    # alone would take 2.4 GB
    g = generate_unit_disk(6, 6, 0.8, seed=7)
    assert g.n == 30
    ps = perturbative_states(g)
    assert ps.b_excited == 8
    assert ps.crossing == pytest.approx(0.7003942308779314, rel=1e-9)
    assert not ps.degenerate


def test_free_vertex_diag(star22):
    # edges: (0,1), (1,2), (0,3), (3,4)
    basis = brute_independent_sets(star22, 1)
    by_mask = dict(zip(basis, free_vertex_diag(star22, basis)))
    assert by_mask[0b00001] == 2.0   # {0}: addable 2 and 4
    assert by_mask[0b00100] == 3.0   # {2}: addable 0, 3, 4
    full = brute_independent_sets(star22, 3)
    assert free_vertex_diag(star22, full)[0] == 0.0  # maximum set: none free


def test_unit_disk_scan_smoke():
    g = generate_unit_disk(3, 3, 0.8, seed=11)
    if g.n < 4:
        return
    report = min_gap_scan(g, omega=1.0, delta_range=(0.2, 3.0), points=24)
    assert report.gap is not None and report.gap > 0


@pytest.mark.parametrize("graph", [generate_star(2, 2),
                                   generate_unit_disk(4, 3, 0.8, seed=3)],
                         ids=["star22", "unit-disk-4x3-s3"])
def test_heff_entries_dense_match_projector_oracle(graph):
    from flatscape.spectral import _heff_solver

    ps = perturbative_states(graph)
    op = build_operator(graph, omega=1.0, delta=1.0 / ps.crossing)
    G = embed_state(op.basis, ps.ground_basis, ps.ground)
    E = embed_state(op.basis, ps.excited_basis, ps.excited)
    G, E = G / np.linalg.norm(G), E / np.linalg.norm(E)
    w, _ = lowest_eigenpairs(op, 2)
    for z in (w[0] - 0.5, w[0], 0.5 * (w[0] + w[1]), w[1] + 0.25):
        got = _heff_solver(op.matrix, G, E, float(z))[0](float(z))
        want = brute_heff_entries(op.matrix, G, E, float(z))
        for key in ("GG", "GE", "EG", "EE"):
            assert got[key] == pytest.approx(want[key], rel=1e-10), (z, key)


def test_scan_solves_once_per_gap_evaluation(star22, monkeypatch):
    # e_star comes from the search's own solve at delta*, not a repeat
    from flatscape import spectral

    calls = {"eig": 0, "gap": 0}
    eig, search = spectral.lowest_eigenpairs, spectral.minimize_gap

    def counted_eig(*args, **kwargs):
        calls["eig"] += 1
        return eig(*args, **kwargs)

    def counted_search(gap_at, *args, **kwargs):
        def counted_gap(d):
            calls["gap"] += 1
            return gap_at(d)
        return search(counted_gap, *args, **kwargs)

    monkeypatch.setattr(spectral, "lowest_eigenpairs", counted_eig)
    monkeypatch.setattr(spectral, "minimize_gap", counted_search)
    report = min_gap_scan(star22, omega=1.0, delta_range=(0.3, 2.0),
                          points=24)
    assert calls["gap"] > 24
    assert calls["eig"] == calls["gap"]
    op = build_operator(star22, omega=1.0, delta=report.delta_star)
    assert report.e_star == eig(op)[0][0]


@pytest.mark.parametrize("n", [12, 14])
def test_lanczos_scan_matches_dense_on_paths(n, monkeypatch):
    # the first excited state of a path is odd under its reflection, so a
    # reflection-even start vector (all ones) can miss it
    from flatscape import spectral

    monkeypatch.setattr(spectral, "DENSE_EIG_LIMIT", 0)
    g = Graph(n=n, edges=tuple((i, i + 1) for i in range(n - 1)))
    report = min_gap_scan(g, omega=1.0, delta_range=(0.1, 6.0), points=24)
    for d, gap in report.curve:
        op = build_operator(g, omega=1.0, delta=d)
        w = scipy.linalg.eigh(op.matrix.toarray(), eigvals_only=True,
                              subset_by_index=(0, 1))
        assert gap == pytest.approx(w[1] - w[0], abs=1e-10), d


def _per_point_scan(factory, deltas, derivative):
    """The scan with a full gap_point solve at every grid point."""
    ground = {}

    def gap_at(d):
        ground[d], gap, slope = gap_point(factory(d), derivative)
        return gap, slope

    report = minimize_gap(gap_at, deltas, rel_tol=1e-6)
    report.e_star = ground[report.delta_star]
    return report


def _assert_same_scan(got, want):
    for key in ("gap", "delta_star", "e_star", "boundary_minimum"):
        assert getattr(got, key) == getattr(want, key), key
    for (d, gap), (d_want, gap_want) in zip(got.curve, want.curve):
        assert d == d_want
        assert gap == pytest.approx(gap_want, abs=1e-10), d


def _hidden_level_scan(centre):
    """(factory, grid, derivative) of a block-diagonal operator, affine in
    delta, on 22 grid points 0.1 apart.  With x = delta - delta_c and
    delta_c 0.03 above grid point ``centre``, the first block holds
    +-sqrt(x^2 + g^2) (a 2x2 avoided crossing, the ground state), the lines
    P +- kappa x and a 300-row tridiagonal background far above; the second
    block is one level at -0.03.  That level is among the lowest two exactly
    at grid points centre - 1 .. centre + 1, and its gap to the ground
    state there makes the scan's only interior dip."""
    grid = np.linspace(0.0, 2.1, 22)
    dc, g, kappa, hidden = grid[centre] + 0.03, 0.05, 1.05, -0.03
    peak = hidden + 1.5 * kappa * 0.1
    n_bg = 300
    background = scipy.sparse.diags(
        [np.full(n_bg - 1, 0.5), np.linspace(10.0, 13.0, n_bg),
         np.full(n_bg - 1, 0.5)], [-1, 0, 1])
    first = scipy.sparse.block_diag([
        np.array([[-dc, g], [g, dc]]),
        np.diag([peak - kappa * dc, peak + kappa * dc]), background])
    A = scipy.sparse.block_diag([first, np.array([[hidden]])]).tocsr()
    derivative = np.concatenate(
        [[1.0, -1.0, kappa, -kappa], np.linspace(-1.0, 0.0, n_bg), [0.0]])

    def factory(d):
        return (A + scipy.sparse.diags(d * derivative)).tocsr()

    among = [k for k, d in enumerate(grid) if np.abs(scipy.linalg.eigh(
        factory(d).toarray(), subset_by_index=(0, 1))[1][-1]).max() > 0.5]
    assert among == [centre - 1, centre, centre + 1]
    return factory, grid, derivative


@pytest.mark.parametrize("centre", [10, 11, 12])
def test_reduced_scan_finds_a_level_low_at_three_grid_points(centre):
    # the hidden level's window starts at each offset from the anchors
    from flatscape import spectral

    factory, grid, derivative = _hidden_level_scan(centre)
    assert len(derivative) > spectral.DENSE_EIG_LIMIT
    report = scan_minimum_gap(factory, grid, derivative)
    assert report.method["anchors"] == 8
    _assert_same_scan(report, _per_point_scan(factory, grid, derivative))
    assert not report.boundary_minimum
    assert report.gap == pytest.approx(0.02, abs=1e-9)


def test_reduced_scan_misses_a_level_no_anchor_solves(monkeypatch):
    # the guarantee's limit: at a stride of 4 no anchor lands in the window
    # 9 .. 11, and the curve there shows the first block's levels alone
    from flatscape import spectral

    monkeypatch.setattr(spectral, "ANCHOR_STRIDE", 4)
    factory, grid, derivative = _hidden_level_scan(10)
    report = scan_minimum_gap(factory, grid, derivative)
    want = _per_point_scan(factory, grid, derivative)
    assert report.method["fallbacks"] == 0
    assert [k for k, ((_, gap), (_, gap_want))
            in enumerate(zip(report.curve, want.curve))
            if abs(gap - gap_want) > 1e-10] == [9, 10, 11]


@pytest.mark.parametrize("case", ["star-3-6", "unit-disk-5x4-s7"])
def test_reduced_scan_locates_the_per_point_minimum(case):
    if case == "star-3-6":
        space = SymmetricStarSpace(3, 6)
        report = star_gap_scan(3, 6)

        def factory(d):
            return space.hamiltonian(1.0, d)
        derivative, dim = -space.total_size, 2226
    else:
        graph = generate_unit_disk(5, 4, 0.8, seed=7)
        report = min_gap_scan(graph)
        base = build_operator(graph, 1.0, 0.0)

        def factory(d):
            return base.matrix + scipy.sparse.diags(-d * base.sizes())
        derivative, dim = -base.sizes(), 661
    assert report.method["dim"] == dim
    assert report.method["anchors"] == 22
    grid = [d for d, _ in report.curve]
    _assert_same_scan(report, _per_point_scan(factory, grid, derivative))


def test_min_gap_scan_solution_is_the_full_solve_at_delta_star():
    from flatscape import spectral

    graph = generate_unit_disk(5, 4, 0.8, seed=7)
    report = min_gap_scan(graph, delta_range=(0.3, 2.0), points=24)
    op, (w, v) = report.operator, report.pair
    want = build_operator(graph, 1.0, report.delta_star)
    assert op.basis == want.basis
    assert (op.matrix != want.matrix).nnz == 0
    e0, gap, _ = gap_point(want, -op.sizes())
    assert (w[0], w[1] - w[0]) == (report.e_star, report.gap) == (e0, gap)
    assert np.linalg.norm(want.matrix @ v - v * w, axis=0).max() <= \
        spectral.RESIDUAL_RTOL * spectral.operator_norm_bound(want.matrix)



def _crossing_pair(graph):
    ps = perturbative_states(graph)
    scan = min_gap_scan(graph, omega=1.0, delta_range=(0.3, 2.0), points=48)
    op = build_operator(graph, omega=1.0, delta=scan.delta_star)
    G = embed_state(op.basis, ps.ground_basis, ps.ground)
    E = embed_state(op.basis, ps.excited_basis, ps.excited)
    return op, G / np.linalg.norm(G), E / np.linalg.norm(E), scan.e_star


@pytest.mark.parametrize("h_rel", [1e-4, 1e-2])
@pytest.mark.parametrize("graph", [generate_star(2, 2),
                                   generate_unit_disk(4, 3, 0.8, seed=3)],
                         ids=["star22", "unit-disk-4x3-s3"])
def test_heff_series_matches_projector_oracle_at_shifts(graph, h_rel):
    """One factorization at z0 serves z0 +- h and z0 +- h/2 through the
    moment series, as accurately as a fresh dense solve at each."""
    from flatscape.spectral import _heff_solver

    op, G, E, z0 = _crossing_pair(graph)
    entries, counts = _heff_solver(op.matrix, G, E, z0)
    h = h_rel * max(abs(z0), 1.0)
    for z in (z0 + h, z0 - h, z0 + h / 2, z0 - h / 2):
        got = entries(z)
        want = brute_heff_entries(op.matrix, G, E, z)
        for key in ("GG", "GE", "EG", "EE"):
            assert got[key] == pytest.approx(want[key], rel=1e-10), (z, key)
    assert counts["factorizations"] == 1
    assert counts["series_terms"] >= 4


@pytest.mark.parametrize(("graph", "dense"), [
    (generate_star(2, 2), True),
    (generate_unit_disk(4, 3, 0.8, seed=3), True),
    (generate_star(2, 2), False),
    (generate_unit_disk(4, 3, 0.8, seed=3), False),
], ids=["star22", "unit-disk-4x3-s3", "star22-minres",
        "unit-disk-4x3-s3-minres"])
def test_resolvent_step_past_a_pole_raises(graph, dense, monkeypatch):
    """A step h that carries z0 + h past the lowest eigenvalue of QHQ on Q
    has no convergent series, on the LDL and the MINRES path alike; the
    error names the pole distance."""
    from flatscape import spectral
    from flatscape.errors import ConvergenceError

    op, G, E, z0 = _crossing_pair(graph)
    if not dense:
        monkeypatch.setattr(spectral, "RESOLVENT_DENSE_LIMIT", 1)
    H = op.matrix.toarray()
    B = scipy.linalg.null_space(np.column_stack([G, E]).T)  # basis of Q
    pole = float(np.linalg.eigvalsh(B.T @ H @ B)[0]) - z0
    assert pole > 0
    scale = max(abs(z0), 1.0)
    assert resolvent_gap(op.matrix, G, E, z0, h_rel=0.1 * pole / scale) \
        .method["factorizations"] == int(dense)
    with pytest.raises(ConvergenceError) as err:
        resolvent_gap(op.matrix, G, E, z0, h_rel=1.5 * pole / scale)
    assert err.value.residuals[0] == pytest.approx(pole, rel=0.05)


@pytest.mark.xfail(strict=True, reason=(
    "resolvent_gap's slopes are central differences in z; they miss the "
    "exact slope by 2.4e-8 to 9.0e-8 relative here (star22: m_gg 2.8e-8, "
    "m_ee 2.6e-8, m_ge 4.3e-8; 4x3 disk: m_gg 9.0e-8, m_ee 8.9e-8, m_ge "
    "2.4e-8)"))
@pytest.mark.parametrize("graph", [generate_star(2, 2),
                                   generate_unit_disk(4, 3, 0.8, seed=3)],
                         ids=["star22", "unit-disk-4x3-s3"])
def test_resolvent_slopes_match_exact_derivative(graph):
    """m = d<a|H_eff|b>/dz at z0 is -rhs^T (z0 - QHQ)^-2 rhs exactly."""
    op, G, E, z0 = _crossing_pair(graph)
    slopes = resolvent_gap(op.matrix, G, E, z0).slopes
    want = brute_heff_slopes(op.matrix, G, E, z0)
    for key in ("m_gg", "m_ee", "m_ge"):
        assert slopes[key] == pytest.approx(want[key], rel=1e-10), key


def test_resolvent_method_records_solver_counts(star22, monkeypatch):
    from flatscape import spectral

    op, G, E, z0 = _crossing_pair(star22)
    dense = resolvent_gap(op.matrix, G, E, z0)
    assert dense.method["factorizations"] == 1
    assert dense.method["series_terms"] >= 2
    monkeypatch.setattr(spectral, "RESOLVENT_DENSE_LIMIT", 1)
    iterative = resolvent_gap(op.matrix, G, E, z0)
    assert iterative.method["factorizations"] == 0
    assert iterative.method["series_terms"] >= 2


@pytest.mark.parametrize("lam", [0.0, 1.0, 50.0])
@pytest.mark.parametrize("graph", [generate_star(2, 2), generate_star(3, 4),
                                   generate_unit_disk(4, 3, 0.8, seed=3),
                                   generate_unit_disk(4, 3, 0.8, seed=5)],
                         ids=["star22", "star34", "unit-disk-4x3-s3",
                              "unit-disk-4x3-s5"])
def test_sector_ldl_counts_and_solves_match_dense(graph, lam):
    from flatscape.spectral import _sector_ldl

    op = build_operator(graph, omega=0.3, delta=1.0, lam=lam)
    H, dim, sizes = op.matrix, op.dim, op.sizes()
    dense = H.toarray()
    w = np.linalg.eigvalsh(dense)
    apart = np.flatnonzero(np.diff(w) > 1e-6)
    # Gibbs-window tops at beta 2 and 20, midpoints between eigenvalues, and
    # -delta k, where a sector's Schur complement is exactly singular at
    # lam = 0 and the elimination has to merge it into the next sector
    tops = [H.diagonal().min() + 40.0 / beta for beta in (2.0, 20.0)]
    tops += [0.5 * (w[i] + w[i + 1]) for i in apart[::max(1, len(apart) // 6)]]
    tops += [-float(k) for k in range(int(sizes.max()) + 1)]
    ends = np.searchsorted(sizes, np.arange(1, sizes.max() + 2)).tolist()
    prefix = {m: np.linalg.eigvalsh(dense[:m, :m]) for m in ends}
    tol = 1e-9 * np.abs(dense).max()
    for t in tops:
        below, _ = _sector_ldl((H - t * scipy.sparse.identity(dim)).tocsr())
        assert sorted(below) == ends
        for m, count in below.items():
            ev = prefix[m]
            # eigenvalues at t to rounding may count either way, here and
            # in any dense factorization
            assert np.sum(ev < t - tol) <= count <= np.sum(ev < t + tol), \
                (t, m, count, np.sum(ev < t))
    # the resolvent's shape: a rank-4 term on the top two sectors
    rng = np.random.default_rng(5)
    U = np.zeros((dim, 2))
    for col, size in enumerate((sizes.max(), sizes.max() - 1)):
        U[sizes == size, col] = rng.standard_normal(np.sum(sizes == size))
    W = H @ U
    K = dense - U @ W.T - W @ U.T
    k = np.linalg.eigvalsh(K)
    gap = np.argmax(np.diff(k[:dim // 4 + 2]))
    rhs = rng.standard_normal((dim, 2))
    for z in (k[0] - 1.0, 0.5 * (k[gap] + k[gap + 1]), k[-1] + 1.0):
        _, solve = _sector_ldl((z * scipy.sparse.identity(dim) - H).tocsr(),
                               np.hstack([U, W]), np.hstack([W, U]))
        want = scipy.linalg.solve(z * np.eye(dim) - K, rhs)
        assert np.abs(solve(rhs) - want).max() <= 1e-12 * np.abs(want).max()


def test_dense_solves_allocate_no_dim_squared_array():
    # neither the resolvent's factorization nor the Gibbs-window counts hold
    # a dense dim x dim copy: each traced peak stays under half of one
    import tracemalloc

    from flatscape.qmc import qmc_bound_inputs
    from flatscape.spectral import _heff_solver

    g = generate_unit_disk(5, 5, 0.7, seed=0)
    ps = perturbative_states(g)
    op = build_operator(g, omega=1.0, delta=1.0 / ps.crossing)
    assert op.dim >= 1000
    G = embed_state(op.basis, ps.ground_basis, ps.ground)
    E = embed_state(op.basis, ps.excited_basis, ps.excited)
    G, E = G / np.linalg.norm(G), E / np.linalg.norm(E)
    z0 = float(lowest_eigenpairs(op, 1)[0][0])

    def resolvent():
        entries, _ = _heff_solver(op.matrix, G, E, z0)
        entries(z0)

    def bound():
        qmc_bound_inputs(g, omega=0.3, delta=1.0, lam=50.0, beta=2.0)

    for run in (resolvent, bound):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < op.dim ** 2 * 8 / 2, run.__name__


def test_perturbative_states_allocate_no_manifold_squared_array():
    # no manifold ground holds a dense copy of its block: the traced peak
    # stays under one dense copy of the largest manifold (1059 rows)
    import tracemalloc

    g = generate_unit_disk(5, 5, 0.8, seed=7)
    largest = max(independence_polynomial(g).counts)
    assert largest == 1059
    tracemalloc.start()
    try:
        perturbative_states(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < largest ** 2 * 8
