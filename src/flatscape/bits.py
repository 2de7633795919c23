"""Bitmask helpers for independent-set enumeration.

Vertex subsets are Python ints with bit v set when vertex v is in the set,
so arbitrary n is supported and set algebra is plain integer arithmetic.
An enumerated ``Space`` also keeps its masks as uint64, so it needs n <= 64.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError

MASK_BITS = 64


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def adjacency_masks(n: int, edges) -> list[int]:
    """Per-vertex neighbour masks."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def enumerate_independent_sets(n: int, adj: list[int]) -> list[int]:
    """All independent sets of the graph, every mask exactly once.

    Vertices are added in increasing order; each extension excludes the new
    vertex's neighbours, so the recursion visits each set once and runs in
    O(#sets * n).
    """
    out: list[int] = []

    def rec(mask: int, candidates: int) -> None:
        out.append(mask)
        c = candidates
        while c:
            low = c & -c
            v = low.bit_length() - 1
            c ^= low
            rec(mask | low, c & ~adj[v])

    rec(0, (1 << n) - 1)
    return out


def enumerate_independent_sets_of_size(n: int, adj: list[int], b: int) -> list[int]:
    """All independent sets of exactly ``b`` vertices."""
    out: list[int] = []

    def rec(mask: int, candidates: int, size: int) -> None:
        if size == b:
            out.append(mask)
            return
        c = candidates
        remaining = bin(c).count("1")
        while c and remaining >= b - size:
            low = c & -c
            v = low.bit_length() - 1
            c ^= low
            remaining -= 1
            rec(mask | low, c & ~adj[v], size + 1)

    rec(0, (1 << n) - 1, 0)
    return out


def components(vertices: int, adj: list[int]) -> list[int]:
    """Connected components of the subgraph induced on ``vertices``, as
    masks in order of their lowest vertex."""
    comps = []
    todo = vertices
    while todo:
        seed = todo & -todo
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            f = frontier
            while f:
                low = f & -f
                v = low.bit_length() - 1
                f ^= low
                grow |= adj[v] & todo & ~comp
            comp |= grow
            frontier = grow
        comps.append(comp)
        todo &= ~comp
    return comps


def require_mask_width(n: int) -> None:
    """Fail fast when an enumerated space's uint64 masks cannot hold n."""
    if n > MASK_BITS:
        raise CapacityError(
            f"enumerated spaces hold n <= {MASK_BITS} vertices in uint64 "
            f"masks (got n={n})")


@dataclass(frozen=True, eq=False)
class Space:
    """An ordered configuration basis and the rows its moves land on.

    ``flips[i, v]`` is the row of ``basis[i]`` with vertex v toggled and
    ``exchanges[i, e]`` the row reached by moving the occupied tail of the
    e-th entry of ``graph.directed_edges()`` to its free head; -1 marks a
    move that leaves the basis or does not apply.  Each table is built on
    first access.  Rows are int32, half the memory of int64; operators stay
    far below 2^31 rows.
    """

    graph: object
    basis: list[int]
    masks: np.ndarray     # uint64, in basis order
    sizes: np.ndarray     # occupied vertices per row
    index: dict           # mask -> row

    @classmethod
    def of(cls, graph, basis) -> "Space":
        """The space of any ordered list of distinct masks."""
        require_mask_width(graph.n)
        basis = list(basis)
        masks = np.array(basis, dtype=np.uint64)
        return cls(graph=graph, basis=basis, masks=masks,
                   sizes=np.bitwise_count(masks).astype(np.int64),
                   index={z: i for i, z in enumerate(basis)})

    def _table(self, moves) -> np.ndarray:
        masks = self.masks
        order = np.argsort(masks)
        ordered = masks[order]
        out = np.full((len(masks), len(moves)), -1, dtype=np.int32)
        for col, (applies, flipped) in enumerate(moves):
            targets = masks ^ flipped
            pos = np.minimum(np.searchsorted(ordered, targets),
                             max(len(masks) - 1, 0))
            hit = applies & (ordered[pos] == targets)
            out[hit, col] = order[pos[hit]]
        return out

    @cached_property
    def flips(self) -> np.ndarray:     # [dim, n]
        return self._table([(True, np.uint64(1 << v))
                            for v in range(self.graph.n)])

    @cached_property
    def exchanges(self) -> np.ndarray:  # [dim, 2m]
        bit = [np.uint64(1 << v) for v in range(self.graph.n)]
        occupied = [(self.masks & b) != 0 for b in bit]
        return self._table([(occupied[u] & ~occupied[v], bit[u] | bit[v])
                            for u, v in self.graph.directed_edges()])
