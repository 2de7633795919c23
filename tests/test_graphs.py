import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatscape.bits import popcount
from flatscape.errors import ConsistencyError, ParseError
from flatscape.graphs import (Graph, deserialize, edges_from_coords,
                              generate_star, generate_unit_disk, serialize)


def test_full_lattice_2x2_is_complete():
    g = generate_unit_disk(2, 2, 1.0, seed=0)
    assert g.n == 4
    assert g.m == 6  # all pairwise distances^2 in {1, 2}


def test_single_site():
    g = generate_unit_disk(1, 1, 1.0, seed=123)
    assert g.n == 1
    assert g.m == 0


def test_empty_graph_is_valid():
    g = generate_unit_disk(3, 3, 0.0, seed=7)
    assert g.n == 0
    assert g.edges == ()


def test_generation_deterministic():
    a = generate_unit_disk(5, 4, 0.8, seed=42)
    b = generate_unit_disk(5, 4, 0.8, seed=42)
    assert a == b
    assert serialize(a) == serialize(b)
    c = generate_unit_disk(5, 4, 0.8, seed=43)
    assert serialize(a) != serialize(c)


def test_occupancy_chi_square_at_80_percent():
    # Aggregate per-cell occupancy over many seeds; each cell is
    # Binomial(n_seeds, 0.8), chi-square should pass at the 1% level.
    from scipy.stats import chi2

    w, h, p, n_seeds = 4, 4, 0.8, 1000
    hits = np.zeros((h, w))
    total_vertices = 0
    for seed in range(n_seeds):
        g = generate_unit_disk(w, h, p, seed)
        total_vertices += g.n
        for (x, y) in g.coords:
            hits[y, x] += 1
    stat = np.sum((hits - n_seeds * p) ** 2 / (n_seeds * p * (1 - p)))
    assert chi2.sf(stat, df=w * h) > 0.01
    assert abs(total_vertices / n_seeds - p * w * h) < 0.5


def test_unit_disk_edges_match_coords_recomputation():
    for seed in range(10):
        g = generate_unit_disk(5, 5, 0.8, seed)
        recomputed = set()
        pts = g.coords
        for i in range(g.n):
            for j in range(i + 1, g.n):
                dx = pts[i][0] - pts[j][0]
                dy = pts[i][1] - pts[j][1]
                if dx * dx + dy * dy <= 2:
                    recomputed.add((i, j))
        assert set(g.edges) == recomputed


def test_star_2_2_structure():
    g = generate_star(2, 2)
    assert g.n == 5
    assert set(g.edges) == {(0, 1), (1, 2), (0, 3), (3, 4)}


def test_star_degenerate_single_branch():
    g = generate_star(1, 2)
    assert g.n == 3
    assert set(g.edges) == {(0, 1), (1, 2)}


def test_star_rejects_odd_branch_length():
    with pytest.raises(ValueError):
        generate_star(2, 3)
    with pytest.raises(ValueError):
        generate_star(0, 2)


@given(n_b=st.integers(1, 5), half=st.integers(1, 4))
def test_star_degrees(n_b, half):
    ell = 2 * half
    g = generate_star(n_b, ell)
    deg = [popcount(mask) for mask in g.adjacency()]
    assert deg[0] == n_b
    tips = [i * ell + ell for i in range(n_b)]
    for v in range(1, g.n):
        assert deg[v] == (1 if v in tips else 2)


def test_roundtrip_star(star22):
    assert deserialize(serialize(star22)) == star22


def test_roundtrip_canonical_bytes():
    g = generate_unit_disk(4, 4, 0.7, seed=5)
    text = serialize(g)
    assert serialize(deserialize(text)) == text


@settings(max_examples=30)
@given(seed=st.integers(0, 10**6), filling=st.floats(0.0, 1.0))
def test_roundtrip_random_unit_disks(seed, filling):
    g = generate_unit_disk(3, 3, filling, seed)
    assert deserialize(serialize(g)) == g


def test_deserialize_reports_offending_field(star22):
    doc = json.loads(serialize(star22))
    del doc["edges"]
    with pytest.raises(ParseError) as err:
        deserialize(json.dumps(doc))
    assert err.value.field == "edges"

    with pytest.raises(ParseError):
        deserialize("{not json")


def test_unit_disk_consistency_error():
    # sites at squared distance 4 must not be connected
    coords = [[0, 0], [2, 0]]
    doc = {
        "version": 1,
        "kind": "unit_disk",
        "n": 2,
        "coords": coords,
        "edges": [[0, 1]],
        "meta": {"radius_sq": 2},
    }
    with pytest.raises(ConsistencyError):
        deserialize(json.dumps(doc))


def test_missing_in_radius_edge_is_inconsistent():
    doc = {
        "version": 1,
        "kind": "unit_disk",
        "n": 2,
        "coords": [[0, 0], [1, 0]],
        "edges": [],
        "meta": {"radius_sq": 2},
    }
    with pytest.raises(ConsistencyError):
        deserialize(json.dumps(doc))


def test_graph_validation_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(n=2, edges=((0, 0),))
    with pytest.raises(ValueError):
        Graph(n=2, edges=((0, 5),))
    with pytest.raises(ValueError):
        Graph(n=3, edges=((2, 1),))


def test_configurable_blockade_radius():
    coords = ((0, 0), (2, 0))
    assert edges_from_coords(coords, radius_sq=2) == ()
    assert edges_from_coords(coords, radius_sq=4) == ((0, 1),)
