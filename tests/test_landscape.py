import decimal
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (EmptyManifoldError, brute_counts,
                     brute_exchange_neighbors, brute_independent_sets,
                     brute_isoenergetic_term, configuration_graph,
                     dense_fiedler_gap, laplacian_gap, profile_from_document)

from flatscape.errors import CapacityError
from flatscape.graphs import Graph, generate_star, generate_unit_disk
from flatscape.landscape import (LandscapeProfile, _log_isoenergetic_terms,
                                 _profile_from_counts, classical_bound,
                                 independence_polynomial, unimodality_scan)


def test_star22_counts(star22):
    profile = independence_polynomial(star22)
    assert list(profile.counts) == [1, 5, 6, 1]
    assert profile.alpha == 3
    assert profile.b_star == 2
    assert profile.unimodal
    assert profile.counts == tuple(brute_counts(star22))


def test_edgeless_counts_are_binomial():
    g = Graph(n=6, edges=())
    profile = independence_polynomial(g)
    assert list(profile.counts) == [math.comb(6, b) for b in range(7)]
    assert profile.unimodal


def test_counts_match_brute_force_oracle(small_unit_disks):
    for g in small_unit_disks:
        profile = independence_polynomial(g)
        assert list(profile.counts) == brute_counts(g)
        assert sum(profile.counts) == len(brute_independent_sets(g))


def test_star_closed_form_matches_generic_recursion():
    for n_b in (1, 2, 3):
        for ell in (2, 4, 6):
            g = generate_star(n_b, ell)
            if g.n > 26:
                continue
            star = independence_polynomial(g, method="star")
            generic = independence_polynomial(g, method="generic")
            assert star.counts == generic.counts


def test_star_alpha_formula():
    for n_b, ell in ((2, 2), (3, 4), (4, 2), (2, 6)):
        profile = independence_polynomial(generate_star(n_b, ell))
        assert profile.alpha == ell * n_b // 2 + 1


def test_capacity_error_names_limit():
    g = Graph(n=40, edges=tuple((i, i + 1) for i in range(39)))
    with pytest.raises(CapacityError, match="n <= 30"):
        independence_polynomial(g)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 5000))
def test_profile_properties_random(seed):
    g = generate_unit_disk(3, 3, 0.8, seed)
    if g.n == 0:
        return
    profile = independence_polynomial(g)
    assert profile.counts[0] == 1
    assert profile.counts[profile.alpha] >= 1
    assert sum(profile.counts) == len(brute_independent_sets(g))
    # suffix after b_star is non-increasing
    c = profile.counts
    assert all(c[b - 1] >= c[b] for b in range(profile.b_star + 1, profile.alpha + 1))
    if profile.unimodal:
        assert all(c[b] <= c[b + 1] for b in range(profile.b_star))


def test_config_graph_star22_b2(star22):
    cg = configuration_graph(star22, 2)
    assert cg.n_nodes == 6
    assert cg.n_edges == 6
    assert cg.connected
    # structure: a 4-cycle plus two pendant nodes containing the centre
    degree_hist = sorted(len(nb) for nb in cg.neighbors)
    assert degree_hist == [1, 1, 2, 2, 3, 3]


def test_config_graph_star22_b3_single_node(star22):
    cg = configuration_graph(star22, 3)
    assert cg.n_nodes == 1
    assert cg.n_edges == 0
    assert laplacian_gap(cg) == math.inf


def test_config_graph_b1_is_problem_graph_on_edges(star22):
    cg = configuration_graph(star22, 1)
    masks = cg.nodes
    edge_set = set()
    for i, z in enumerate(masks):
        u = z.bit_length() - 1
        for j in cg.neighbors[i]:
            v = masks[j].bit_length() - 1
            edge_set.add((min(u, v), max(u, v)))
    assert edge_set == set(star22.edges)


def test_config_graph_adjacency_matches_oracle(small_unit_disks):
    for g in small_unit_disks[:8]:
        profile = independence_polynomial(g)
        b = max(1, profile.alpha - 1)
        cg = configuration_graph(g, b)
        assert set(cg.nodes) == set(brute_independent_sets(g, b))
        for i, z in enumerate(cg.nodes):
            expected = brute_exchange_neighbors(g, z)
            assert {cg.nodes[j] for j in cg.neighbors[i]} == expected
            # adjacency is symmetric and Hamming distance is 2
            for j in cg.neighbors[i]:
                assert i in cg.neighbors[j]
                assert bin(z ^ cg.nodes[j]).count("1") == 2


def test_empty_manifold_error(star22):
    with pytest.raises(EmptyManifoldError):
        configuration_graph(star22, 4)


def test_laplacian_gap_two_node_manifold_analytic():
    # single edge, size-1 manifold: a two-node exchange graph with Laplacian
    # eigenvalues {0, 2}
    g = Graph(n=2, edges=((0, 1),))
    cg = configuration_graph(g, 1)
    assert cg.n_nodes == 2
    assert laplacian_gap(cg) == pytest.approx(2.0, abs=1e-12)


def test_laplacian_gap_three_node_path():
    g = generate_star(1, 2)  # path 0-1-2; size-1 sets {0},{2} exchange with {1}
    cg = configuration_graph(g, 1)
    assert cg.n_nodes == 3
    gap = laplacian_gap(cg)
    oracle = dense_fiedler_gap(
        list(range(cg.n_nodes)),
        [(i, j) for i, nb in enumerate(cg.neighbors) for j in nb if i < j])
    assert gap == pytest.approx(oracle, abs=1e-12)


def test_laplacian_gap_star22_b2_fiedler(star22):
    cg = configuration_graph(star22, 2)
    oracle = dense_fiedler_gap(
        list(range(cg.n_nodes)),
        [(i, j) for i, nb in enumerate(cg.neighbors) for j in nb if i < j])
    assert laplacian_gap(cg) == pytest.approx(oracle, abs=1e-10)
    assert laplacian_gap(cg) >= 0


def test_laplacian_gap_uses_largest_component():
    # two triangle components of different sizes: build graph whose size-1
    # manifold splits: vertices {0,1,2} mutually exchangeable, {3} isolated
    g = Graph(n=4, edges=((0, 1), (1, 2), (0, 2)))
    cg = configuration_graph(g, 1)
    assert cg.n_components == 2
    gap = laplacian_gap(cg)
    # largest component is the size-3 exchange triangle: Laplacian gap 3
    assert gap == pytest.approx(3.0, abs=1e-10)


def test_sa_bound_star22_pinned_value(star22):
    profile = independence_polynomial(star22)
    bound = classical_bound(profile, "sa", k=1, eps=0.25)
    assert bound == pytest.approx(math.log(2.0) / 10.0 * 6.0, abs=1e-9)
    assert bound == pytest.approx(0.41588830833596715, abs=1e-9)


def test_sa_bound_single_vertex():
    profile = independence_polynomial(Graph(n=1, edges=()))
    assert list(profile.counts) == [1, 1]
    bound = classical_bound(profile, "sa", k=1, eps=0.25)
    assert bound == pytest.approx(math.log(2.0) / 2.0, abs=1e-12)


def test_star_family_sa_bound_exceeds_flat_floor():
    for n_b in (2, 3, 4):
        g = generate_star(n_b, 2)
        profile = independence_polynomial(g)
        bound = classical_bound(profile, "sa", k=1, eps=0.25)
        floor = math.log(2.0) / (2 * g.n) * 2 ** n_b
        assert bound >= floor - 1e-12


def test_bound_domain_errors(star22):
    profile = independence_polynomial(star22)
    with pytest.raises(ValueError):
        classical_bound(profile, "sa", eps=0.5)
    with pytest.raises(ValueError):
        classical_bound(profile, "nope")
    with pytest.raises(ValueError):
        classical_bound(profile, "sa", k=0)


def _exact_log(value: Fraction) -> float:
    # math.log of a numerator and a denominator near 1e50 loses 1e-13
    with decimal.localcontext(prec=50):
        return float(decimal.Decimal(value.numerator).ln()
                     - decimal.Decimal(value.denominator).ln())


def _assert_isoenergetic_terms_match_oracle(profile, rel):
    got = _log_isoenergetic_terms(profile)
    want = [_exact_log(brute_isoenergetic_term(profile, b))
            for b in profile.bound_sizes()]
    assert len(got) == len(want)
    for g, w in zip(got, want):  # log-space error of a relative error
        assert abs(g - w) <= rel * max(1.0, abs(w))


@pytest.mark.parametrize("n_b, ell", [(1, 2), (1, 4), (2, 2), (2, 4), (3, 4),
                                      (5, 4), (8, 8), (14, 8)])
def test_isoenergetic_terms_match_the_triple_sum_on_stars(n_b, ell):
    profile = independence_polynomial(generate_star(n_b, ell))
    _assert_isoenergetic_terms_match_oracle(profile, 1e-12)


@pytest.mark.parametrize("seed", [7, 1685])
def test_isoenergetic_terms_match_the_triple_sum_on_unit_disks(seed):
    profile = independence_polynomial(generate_unit_disk(5, 5, 0.8, seed))
    _assert_isoenergetic_terms_match_oracle(profile, 1e-12)
    iso = classical_bound(profile, "pt_isoenergetic")
    best = min(brute_isoenergetic_term(profile, b)
               for b in profile.bound_sizes())
    assert iso == pytest.approx(
        math.log(2.0) * float(Fraction(1, 2 * profile.n) / best), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40),
       counts=st.lists(st.integers(1, 10 ** 400), min_size=2, max_size=9))
@example(n=3, counts=[1, 3, 9])                 # fallback: bound_sizes [alpha]
@example(n=4, counts=[3, 2, 1])                 # sizes 1..3; b = 1 has no k term
@example(n=9, counts=[1, 10 ** 320, 7, 10 ** 330, 10 ** 310, 5])  # past 1e308
def test_isoenergetic_terms_match_the_triple_sum_on_count_tuples(n, counts):
    # counts need not be unimodal, nor fit a double
    profile = _profile_from_counts(n, list(counts), {})
    _assert_isoenergetic_terms_match_oracle(profile, 1e-12)


def test_pt_bounds_ordering(star22):
    profile = independence_polynomial(star22)
    sa = classical_bound(profile, "sa")
    pt = classical_bound(profile, "pt_local")
    iso = classical_bound(profile, "pt_isoenergetic")
    # collective updates weaken the bound by n^k'; isoenergetic weakens further
    assert pt == pytest.approx(sa / star22.n, rel=1e-12)
    assert iso <= pt + 1e-15


def test_qmc_bound_reduces_to_pt_local_when_emax_one(star22):
    profile = independence_polynomial(star22)
    qmc = classical_bound(profile, "qmc", k=1)
    pt = classical_bound(profile, "pt_local")
    assert qmc == pytest.approx(pt, rel=1e-12)


def test_sa_bound_monotone_in_eps_and_ratio():
    profile = LandscapeProfile(n=5, counts=(1, 5, 6, 1), alpha=3, b_star=2,
                               unimodal=True)
    b1 = classical_bound(profile, "sa", eps=0.25)
    b2 = classical_bound(profile, "sa", eps=0.1)
    assert b2 > b1
    bigger = LandscapeProfile(n=5, counts=(1, 5, 12, 1), alpha=3, b_star=2,
                              unimodal=True)
    assert classical_bound(bigger, "sa") > b1


def test_bound_fallback_when_counts_strictly_increase():
    # complete graph on 3 vertices: counts [1, 3]; b_star = ... suffix 1 >= 3
    # fails, so b_star = alpha and the fallback uses b = alpha.
    g = Graph(n=3, edges=((0, 1), (0, 2), (1, 2)))
    profile = independence_polynomial(g)
    assert list(profile.counts) == [1, 3]
    assert profile.b_star == profile.alpha == 1
    assert profile.bound_sizes() == [1]
    assert classical_bound(profile, "sa", k=1, eps=0.25) == pytest.approx(
        math.log(2.0) / 6.0 * Fraction(1, 3), rel=1e-12)


def test_unimodality_scan_star_and_edgeless(star22):
    report = unimodality_scan([star22, Graph(n=5, edges=())])
    assert report.checked == 2
    assert report.violation_count == 0


def test_unimodality_scan_collects_capacity_errors(star22):
    big = Graph(n=64, edges=())
    report = unimodality_scan([star22, big])
    assert report.checked == 1
    assert report.capacity_skips == 1


def test_profile_document_roundtrip(star22):
    profile = independence_polynomial(star22)
    doc = profile.to_document()
    assert doc["counts"] == ["1", "5", "6", "1"]
    assert profile_from_document(doc) == profile
