"""Bitmask helpers for independent-set enumeration.

Vertex subsets are Python ints with bit v set when vertex v is in the set,
so arbitrary n is supported and set algebra is plain integer arithmetic.
"""
from __future__ import annotations


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


def spin_exchange_targets(mask: int, adj: list[int]) -> list[int]:
    """Independent sets reachable by moving one occupied vertex to an
    unoccupied neighbour (the configuration-graph adjacency rule)."""
    out = []
    m = mask
    while m:
        low = m & -m
        u = low.bit_length() - 1
        m ^= low
        without = mask ^ low
        free = adj[u] & ~mask
        while free:
            fl = free & -free
            v = fl.bit_length() - 1
            free ^= fl
            if adj[v] & without:
                continue
            out.append(without | fl)
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
