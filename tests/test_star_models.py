import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from oracles import (brute_independent_sets, manifold_indices, maximum_state,
                     permutation_multiplicity, perturbation_block,
                     product_wall_state, star_wavefunction, uniform_state)

from flatscape.bits import Space
from flatscape.graphs import generate_star
from flatscape.landscape import independence_polynomial
from flatscape.spectral import (build_operator, free_vertex_diag,
                                lowest_eigenpairs, restricted_basis)
from flatscape.star_models import (SymmetricStarSpace, central_absent_count,
                                   central_present_count, exchange_density,
                                   star_gap_scan, star_level_crossing)


def test_exchange_density_reference_values():
    assert exchange_density(2) == pytest.approx(1.0, abs=1e-14)
    assert exchange_density(4) == pytest.approx(math.sqrt(2.0), abs=1e-14)
    for ell in (2, 4, 6, 8, 10):
        assert 1.0 <= exchange_density(ell) < 2.0


def test_level_crossing_star62():
    pred = star_level_crossing(6, 2)
    assert pred.alpha == 7
    assert pred.crossing == pytest.approx(math.sqrt(1.0 / 5.0), rel=1e-12)
    assert pred.minus_e_star_over_n == pytest.approx((7 / 13) * (1 + 1 / 5),
                                                     rel=1e-12)
    assert pred.tilde_gap == pytest.approx(2.0 * (1 / math.sqrt(2)) ** 6,
                                           rel=1e-12)


def test_level_crossing_tilde_matches_flat_wall_form():
    # ell = 2 per-branch factor is exactly 1/sqrt(2)
    for n_b in (2, 5, 9):
        pred = star_level_crossing(n_b, 2)
        assert pred.tilde_gap == pytest.approx(2.0 * 0.5 ** (n_b / 2), rel=1e-12)


def test_level_crossing_domain_errors():
    with pytest.raises(ValueError):
        star_level_crossing(1, 2)  # c*nb - 1 = 0
    with pytest.raises(ValueError):
        star_level_crossing(4, 3)


def test_central_counts_match_enumeration():
    for ell in (2, 4, 6):
        for n_b in (1, 2, 3):
            g = generate_star(n_b, ell)
            if g.n > 20:
                continue
            alpha = ell * n_b // 2 + 1
            sets = brute_independent_sets(g, alpha - 1)
            present = sum(1 for z in sets if z & 1)
            absent = len(sets) - present
            assert absent == central_absent_count(n_b, ell)
            assert present == central_present_count(n_b, ell)


def test_central_present_reduces_to_compact_form_at_ell_4_6():
    for ell in (4, 6):
        for n_b in (1, 2, 3, 4, 7):
            assert central_present_count(n_b, ell) == 3 * n_b * (ell // 2 - 1)


def test_wavefunction_normalization():
    from itertools import product

    for n_b, ell in ((1, 2), (2, 2), (2, 4), (3, 4)):
        positions = range(1, ell // 2 + 2)
        total = sum(star_wavefunction(n_b, ell, walls) ** 2
                    for walls in product(positions, repeat=n_b))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_wavefunction_flat_at_ell2():
    # both wall positions carry amplitude 1/sqrt(2) per branch
    assert star_wavefunction(1, 2, (1,)) == pytest.approx(1 / math.sqrt(2))
    assert star_wavefunction(1, 2, (2,)) == pytest.approx(1 / math.sqrt(2))
    assert star_wavefunction(2, 2, (1, 1)) == pytest.approx(0.5)


def test_wavefunction_peaks_mid_branch_for_ell4():
    amps = [star_wavefunction(1, 4, (x,)) for x in (1, 2, 3)]
    assert amps[1] > amps[0]
    assert amps[1] > amps[2]
    assert amps[0] == pytest.approx(amps[2], rel=1e-12)


def test_wavefunction_rejects_out_of_range():
    with pytest.raises(ValueError):
        star_wavefunction(1, 2, (3,))
    with pytest.raises(ValueError):
        star_wavefunction(2, 2, (1,))


@pytest.mark.parametrize("n_b,ell", [(2, 2), (3, 2), (2, 4), (3, 4)])
def test_symmetric_space_matches_explicit_spectra(n_b, ell):
    g = generate_star(n_b, ell)
    sym = SymmetricStarSpace(n_b, ell)
    assert sym.n == g.n
    for omega, delta, lam in ((1.0, 0.7, 0.0), (0.3, 1.0, 0.0),
                              (1.0, 1.3, 2.5), (1.0, 0.5, 50.0)):
        op = build_operator(g, omega, delta, lam)
        w_full, _ = lowest_eigenpairs(op, 2)
        Hs = sym.hamiltonian(omega, delta, lam)
        w_sym = scipy.linalg.eigh(Hs.toarray(), eigvals_only=True,
                                  subset_by_index=(0, min(1, Hs.shape[0] - 1)))
        assert np.allclose(w_full[:2], w_sym[:2], atol=1e-10)


@pytest.mark.parametrize("n_b,ell", [(3, 2), (2, 4)])
def test_hamiltonian_from_stored_operators_is_exact(n_b, ell):
    # the stored drive and Laplacian serve every (omega, delta, lam) in any
    # order, and a caller writing into one result cannot reach the store
    sym = SymmetricStarSpace(n_b, ell)
    points = ((1.0, 0.7, 50.0), (2.0, 1.3, 0.0), (0.3, 2.0, 1.0),
              (1.0, 0.7, 50.0))
    for omega, delta, lam in points:
        fresh = SymmetricStarSpace(n_b, ell)
        want = (scipy.sparse.diags(-delta * fresh.total_size.astype(float))
                - omega * fresh.drive_matrix())
        if lam:
            want = want + lam * fresh.laplacian_matrix()
        want = want.tocsr()
        got = sym.hamiltonian(omega, delta, lam)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)
        got.data[:] = 0.0


@pytest.mark.parametrize("lam,passes", [(0.0, 1), (1.0, 2)])
def test_star_scan_builds_operators_once(monkeypatch, lam, passes):
    # one move pass for the drive (and one for the spin exchange when
    # lam != 0), yet one assembly per gap evaluation
    from flatscape import spectral

    calls = {"assemble": 0, "hamiltonian": 0, "gap": 0}
    assemble = SymmetricStarSpace._assemble
    hamiltonian = SymmetricStarSpace.hamiltonian
    search = spectral.minimize_gap

    def counted_assemble(*args, **kwargs):
        calls["assemble"] += 1
        return assemble(*args, **kwargs)

    def counted_hamiltonian(*args, **kwargs):
        calls["hamiltonian"] += 1
        return hamiltonian(*args, **kwargs)

    def counted_search(gap_at, *args, **kwargs):
        def counted_gap(d):
            calls["gap"] += 1
            return gap_at(d)
        return search(counted_gap, *args, **kwargs)

    monkeypatch.setattr(SymmetricStarSpace, "_assemble", counted_assemble)
    monkeypatch.setattr(SymmetricStarSpace, "hamiltonian", counted_hamiltonian)
    monkeypatch.setattr(spectral, "minimize_gap", counted_search)
    report = star_gap_scan(3, 2, lam=lam)
    assert report.gap is not None
    assert calls["gap"] > 64
    assert calls["assemble"] == passes
    assert calls["hamiltonian"] == calls["gap"]


@pytest.mark.parametrize("n_b,ell", [(3, 2), (4, 2), (2, 4), (1, 6), (2, 6)])
def test_sector_diagonals_count_generic_moves(n_b, ell):
    # the moves out of one configuration of every orbit equal the generic basis's exchange
    # degree and free-vertex count at one configuration of every orbit
    g = generate_star(n_b, ell)
    space = Space.of(g, restricted_basis(g))
    degree = (space.exchanges >= 0).sum(axis=1)
    free = free_vertex_diag(g, space.basis)
    sym = SymmetricStarSpace(n_b, ell)
    for i, occ in enumerate(sym.occ.tolist()):
        mask = occ[0]  # the centre
        multiset = [s for s, count in enumerate(occ[1:]) for _ in range(count)]
        for branch, state in enumerate(multiset):
            mask |= sym.branch_states[state] << (1 + branch * ell)
        row = space.index[mask]
        assert sym.exchange_degree_diag()[i] == degree[row]
        assert sym.free_vertex_diag()[i] == free[row]


def test_symmetric_dimension_reduction():
    sym = SymmetricStarSpace(10, 2)
    assert sym.dim == 77  # vs 3^10 + 2^10 unsymmetrized
    profile = independence_polynomial(generate_star(10, 2))
    # total sizes must reproduce the landscape counts through multiplicities
    for b in (0, 1, profile.alpha - 1, profile.alpha):
        sel = manifold_indices(sym, b)
        total = sum(permutation_multiplicity(sym, int(i)) for i in sel)
        assert total == profile.counts[b]


def test_symmetric_uniform_state_is_laplacian_kernel():
    sym = SymmetricStarSpace(4, 2)
    lap = sym.laplacian_matrix()
    for b in (1, 2, sym.alpha - 1):
        u = uniform_state(sym, b)
        assert np.linalg.norm(lap @ u) <= 1e-12


def _check_drive_coupling(n_b, sizes):
    sym = SymmetricStarSpace(n_b, 2)
    profile = independence_polynomial(generate_star(n_b, 2))
    drive = sym.drive_matrix()
    for b in sizes:
        u, v = uniform_state(sym, b), uniform_state(sym, b - 1)
        elem = float(v @ (drive @ u))
        closed = b * math.sqrt(profile.counts[b] / profile.counts[b - 1])
        assert elem == pytest.approx(closed, rel=1e-12)


def test_symmetric_drive_coupling_identity():
    _check_drive_coupling(5, range(1, 7))


def test_symmetric_drive_coupling_identity_past_255_branches():
    # occupation counts above 255: 8-bit counts would wrap without an error
    _check_drive_coupling(260, (1, 2, 130, 260, 261))


def test_product_wall_state_matches_perturbation_ground():
    # overlap with the manifold ground state approaches 1 in branch count
    overlaps = []
    for n_b in (2, 4, 6, 8):
        sym = SymmetricStarSpace(n_b, 2)
        sel, block = perturbation_block(sym, sym.alpha - 1)
        w, v = scipy.linalg.eigh(block)
        ground = np.zeros(sym.dim)
        ground[sel] = v[:, -1]
        wall = product_wall_state(sym)
        overlaps.append(abs(float(ground @ wall)))
    assert all(o >= 1.0 - 10.0 / 3 ** n for o, n in zip(overlaps, (2, 4, 6, 8)))
    assert overlaps == sorted(overlaps)


@pytest.mark.parametrize("n_b,ell", [(5, 2), (3, 4), (2, 6)])
def test_product_wall_state_matches_per_row_products(n_b, ell):
    # reference: per sector-A row, star_wavefunction of its branches' wall
    # positions (x = 1 + occupied even-indexed vertices) times sqrt of the
    # orbit size; the product order differs, so equal to a few ulps
    sym = SymmetricStarSpace(n_b, ell)
    want = np.zeros(sym.dim)
    for i, occ in enumerate(sym.occ.tolist()):
        states = [s for s, count in enumerate(occ[1:]) for _ in range(count)]
        if occ[0] or any(sym.size[s] != ell // 2 for s in states):
            continue
        walls = [1 + sum((sym.branch_states[s] >> v) & 1
                         for v in range(0, ell, 2)) for s in states]
        want[i] = star_wavefunction(n_b, ell, walls) * math.sqrt(
            permutation_multiplicity(sym, i))
    got = product_wall_state(sym)
    assert np.flatnonzero(got).tolist() == np.flatnonzero(want).tolist()
    assert np.abs(got - want).max() <= 8 * np.finfo(float).eps * want.max()
    assert np.linalg.norm(got) == pytest.approx(1.0, rel=1e-12)


def test_closed_form_tilde_is_wall_state_leading_coupling():
    # the closed-form coupling equals twice the drive matrix element between
    # the maximum set and the product wall state (the single centre flip)
    for n_b, ell in ((4, 2), (6, 2), (4, 4)):
        sym = SymmetricStarSpace(n_b, ell)
        wall = product_wall_state(sym)
        coupling = 2.0 * abs(float(maximum_state(sym)
                                   @ (sym.drive_matrix() @ wall)))
        pred = star_level_crossing(n_b, ell).tilde_gap
        assert coupling == pytest.approx(pred, rel=1e-12)


def test_slowdown_exponent_grows_toward_three_halves():
    # ratio of log inverse-coupling to log wall-count per branch: the
    # large-branch-length slowdown exponent approaches 3/2 from below
    def exponent(ell):
        amp = math.sin(math.pi / (ell // 2 + 2)) / math.sqrt(ell / 4 + 1)
        return math.log(1.0 / amp) / math.log(ell // 2 + 1)

    values = [exponent(ell) for ell in (8, 40, 400, 10 ** 5, 10 ** 7)]
    assert values == sorted(values)
    assert values[0] < 1.0 < values[-1] < 1.5
    assert values[-1] > 1.4


def test_wall_state_connects_to_maximum_by_centre_flip():
    sym = SymmetricStarSpace(3, 4)
    wall = product_wall_state(sym)
    drive = sym.drive_matrix()
    gmax = maximum_state(sym)
    # <G| drive |E> equals the x=1 product amplitude (one centre flip)
    coupling = float(gmax @ (drive @ wall))
    expected = star_wavefunction(3, 4, (1, 1, 1))
    assert coupling == pytest.approx(expected, rel=1e-12)
