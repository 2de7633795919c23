"""Problem instances: random unit-disk graphs on a square lattice and the
parameterized star-graph family, plus canonical JSON (de)serialization.

Reproducibility: site occupancy is sampled with numpy's counter-based
Philox generator keyed by the seed, one uniform double per lattice site in
row-major order (y outer, x inner), so a (seed, filling) pair defines the
instance unambiguously on any platform.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .bits import adjacency_masks
from .errors import ConsistencyError, ParseError

DOCUMENT_VERSION = 1

# Squared blockade radius in grid units: covers nearest and next-nearest
# lattice neighbours.
DEFAULT_RADIUS_SQ = 2


@dataclass(frozen=True)
class Graph:
    """Immutable vertex/edge structure, optionally with 2D lattice coords."""

    n: int
    edges: tuple[tuple[int, int], ...]
    coords: tuple[tuple[int, int], ...] | None = None
    kind: str = "generic"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) endpoint out of range")
            if u > v:
                raise ValueError(f"edge ({u}, {v}) not in canonical (u < v) order")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        if self.coords is not None and len(self.coords) != self.n:
            raise ValueError("coords length does not match vertex count")

    def adjacency(self) -> list[int]:
        return adjacency_masks(self.n, self.edges)

    def directed_edges(self) -> list[tuple[int, int]]:
        """Both orientations of every edge, in canonical order."""
        out = []
        for u, v in self.edges:
            out.append((u, v))
            out.append((v, u))
        return out


def _sorted_edges(pairs) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((min(u, v), max(u, v)) for u, v in pairs))


def edges_from_coords(coords, radius_sq: int = DEFAULT_RADIUS_SQ):
    """Unit-disk edge rule: connect sites within the blockade radius."""
    pts = list(coords)
    edges = []
    for i in range(len(pts)):
        xi, yi = pts[i]
        for j in range(i + 1, len(pts)):
            dx = xi - pts[j][0]
            dy = yi - pts[j][1]
            if dx * dx + dy * dy <= radius_sq:
                edges.append((i, j))
    return tuple(edges)


def generate_unit_disk(width: int, height: int, filling: float, seed: int,
                       radius_sq: int = DEFAULT_RADIUS_SQ) -> Graph:
    """Random unit-disk instance: each site of a width x height lattice is
    occupied independently with probability ``filling``."""
    if width < 1 or height < 1:
        raise ValueError("lattice dimensions must be >= 1")
    if not 0.0 <= filling <= 1.0:
        raise ValueError("filling must lie in [0, 1]")
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random(width * height)
    coords = []
    i = 0
    for y in range(height):
        for x in range(width):
            if u[i] < filling:
                coords.append((x, y))
            i += 1
    coords = tuple(coords)
    return Graph(
        n=len(coords),
        edges=edges_from_coords(coords, radius_sq),
        coords=coords,
        kind="unit_disk",
        meta={"seed": int(seed), "filling": float(filling), "width": int(width),
              "height": int(height), "radius_sq": int(radius_sq)},
    )


def generate_star(n_b: int, ell: int) -> Graph:
    """Star graph: ``n_b`` paths of even length ``ell`` joined at vertex 0.

    Branch i occupies vertices 1 + i*ell .. (i+1)*ell; the first vertex of
    each branch is attached to the centre.
    """
    if n_b < 1:
        raise ValueError("n_b must be >= 1")
    if ell < 2 or ell % 2 != 0:
        raise ValueError("branch length ell must be even and >= 2")
    edges = []
    for i in range(n_b):
        first = 1 + i * ell
        edges.append((0, first))
        for j in range(ell - 1):
            edges.append((first + j, first + j + 1))
    return Graph(
        n=n_b * ell + 1,
        edges=_sorted_edges(edges),
        coords=None,
        kind="star",
        meta={"n_b": int(n_b), "ell": int(ell)},
    )


def to_document(graph: Graph) -> dict:
    doc = {
        "version": DOCUMENT_VERSION,
        "kind": graph.kind,
        "n": graph.n,
        "edges": [list(e) for e in graph.edges],
        "meta": graph.meta,
    }
    if graph.coords is not None:
        doc["coords"] = [list(c) for c in graph.coords]
    return doc


def serialize(graph: Graph) -> str:
    """Canonical JSON text: sorted keys, sorted edges, deterministic bytes."""
    return json.dumps(to_document(graph), sort_keys=True, indent=2) + "\n"


def from_document(doc: dict) -> Graph:
    if not isinstance(doc, dict):
        raise ParseError("<root>", "document must be a JSON object")
    for name in ("version", "kind", "n", "edges", "meta"):
        if name not in doc:
            raise ParseError(name, "missing required field")
    if doc["version"] != DOCUMENT_VERSION:
        raise ParseError("version", f"unsupported document version {doc['version']!r}")
    kind = doc["kind"]
    if kind not in ("unit_disk", "star", "generic"):
        raise ParseError("kind", f"unknown graph kind {kind!r}")
    n = doc["n"]
    if not isinstance(n, int) or n < 0:
        raise ParseError("n", "vertex count must be a non-negative integer")
    try:
        edges = _sorted_edges((int(u), int(v)) for u, v in doc["edges"])
    except (TypeError, ValueError) as exc:
        raise ParseError("edges", f"expected a list of vertex pairs: {exc}") from None
    coords = None
    if doc.get("coords") is not None:
        try:
            coords = tuple((int(x), int(y)) for x, y in doc["coords"])
        except (TypeError, ValueError) as exc:
            raise ParseError("coords", f"expected a list of 2D points: {exc}") from None
    meta = doc["meta"]
    if not isinstance(meta, dict):
        raise ParseError("meta", "must be a JSON object")
    try:
        graph = Graph(n=n, edges=edges, coords=coords, kind=kind, meta=meta)
    except ValueError as exc:
        raise ParseError("edges", str(exc)) from None
    if kind == "unit_disk":
        if coords is None:
            raise ParseError("coords", "unit_disk documents require coordinates")
        radius_sq = meta.get("radius_sq", DEFAULT_RADIUS_SQ)
        expected = set(edges_from_coords(coords, radius_sq))
        if set(edges) != expected:
            extra = sorted(set(edges) - expected)
            missing = sorted(expected - set(edges))
            raise ConsistencyError(
                f"edges contradict coords under radius_sq={radius_sq}: "
                f"{len(extra)} edge(s) beyond the radius {extra[:4]}, "
                f"{len(missing)} in-radius pair(s) missing {missing[:4]}")
    return graph


def deserialize(text: str) -> Graph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("<document>", f"invalid JSON: {exc}") from None
    return from_document(doc)
