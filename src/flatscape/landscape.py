"""Landscape analysis: independence polynomial and the analytic classical
runtime lower bounds.

All counts are exact Python integers; they overflow 64 bits well below the
sizes this module targets, so bound arithmetic goes through fractions,
except for the isoenergetic PT bound, an O(alpha^2) sum taken in logs.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bits import components, popcount
from .errors import CapacityError
from .graphs import Graph

ENUMERATION_LIMIT = 30          # default exact-counting vertex limit

BOUND_KINDS = ("sa", "pt_local", "pt_isoenergetic", "qmc")


@dataclass(frozen=True)
class LandscapeProfile:
    """Independence polynomial D_0..D_alpha and derived bound quantities.

    ``b_star`` is the smallest index after which the counts are monotone
    non-increasing; ``unimodal`` additionally requires a non-decreasing
    prefix up to ``b_star``.
    """

    n: int
    counts: tuple[int, ...]
    alpha: int
    b_star: int
    unimodal: bool
    source: dict = field(default_factory=dict)

    def suffix_ratio(self, b: int) -> Fraction:
        """D_{b-1} / D_b."""
        return Fraction(self.counts[b - 1], self.counts[b])

    def bound_sizes(self) -> list[int]:
        """Set sizes the runtime bounds maximize over: b in (b_star, alpha],
        falling back to [alpha] when that range is empty."""
        if self.b_star < self.alpha:
            return list(range(self.b_star + 1, self.alpha + 1))
        return [self.alpha]

    @property
    def max_suffix_ratio(self) -> Fraction:
        return max(self.suffix_ratio(b) for b in self.bound_sizes())

    def to_document(self) -> dict:
        return {
            "version": 1,
            "kind": "profile",
            "n": self.n,
            "counts": [str(c) for c in self.counts],
            "alpha": self.alpha,
            "b_star": self.b_star,
            "unimodal": self.unimodal,
            "source": self.source,
        }


def _profile_from_counts(n: int, counts: list[int], source: dict) -> LandscapeProfile:
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    alpha = len(counts) - 1
    b_star = alpha
    for b in range(alpha, 0, -1):
        if counts[b - 1] >= counts[b]:
            b_star = b - 1
        else:
            break
    unimodal = all(counts[b] <= counts[b + 1] for b in range(b_star))
    return LandscapeProfile(n=n, counts=tuple(counts), alpha=alpha,
                            b_star=b_star, unimodal=unimodal, source=source)


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _count_component(comp: int, adj: list[int]) -> list[int]:
    k = popcount(comp)
    if k == 0:
        return [1]
    if k == 1:
        return [1, 1]
    # branch on a maximum-degree vertex: I(G) = I(G - v) + x * I(G - N[v])
    best_v, best_deg = -1, -1
    m = comp
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        deg = popcount(adj[v] & comp)
        if deg > best_deg:
            best_v, best_deg = v, deg
    if best_deg == 0:
        # edgeless component: binomial counts
        return [math.comb(k, b) for b in range(k + 1)]
    vbit = 1 << best_v
    without = _count_recursive(comp & ~vbit, adj)
    with_v = _count_recursive(comp & ~(vbit | adj[best_v]), adj)
    out = without + [0] * (len(with_v) + 1 - len(without))
    for i, c in enumerate(with_v):
        out[i + 1] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def _count_recursive(vertices: int, adj: list[int]) -> list[int]:
    result = [1]
    for comp in components(vertices, adj):
        result = _poly_mul(result, _count_component(comp, adj))
    return result


def path_counts(m: int) -> list[int]:
    """Independence polynomial coefficients of a path with m vertices."""
    if m <= 0:
        return [1]
    prev2, prev = [1], [1, 1]
    for _ in range(m - 1):
        cur = prev + [0] * (len(prev2) + 1 - len(prev))
        for k, c in enumerate(prev2):
            cur[k + 1] += c
        prev2, prev = prev, cur
    return prev


def _count_star(n_b: int, ell: int) -> list[int]:
    """Exact star-graph counts by per-branch products: the centre is either
    absent (branches free) or present (first branch vertices excluded)."""
    absent = [1]
    p = path_counts(ell)
    for _ in range(n_b):
        absent = _poly_mul(absent, p)
    present = [1]
    q = path_counts(ell - 1)
    for _ in range(n_b):
        present = _poly_mul(present, q)
    out = absent + [0] * (len(present) + 1 - len(absent))
    for k, c in enumerate(present):
        out[k + 1] += c
    return out


def independence_polynomial(graph: Graph, method: str = "auto",
                            limit: int = ENUMERATION_LIMIT) -> LandscapeProfile:
    """Exact counts of independent sets by size.

    method "auto" uses the closed per-branch product for star graphs and
    branch-and-bound recursion otherwise; "generic" forces the recursion,
    "star" forces the product form.
    """
    if method not in ("auto", "generic", "star"):
        raise ValueError(f"unknown method {method!r}")
    source = {"kind": graph.kind, **graph.meta}
    if method == "star" or (method == "auto" and graph.kind == "star"):
        if "n_b" not in graph.meta or "ell" not in graph.meta:
            raise ValueError("star counting requires n_b/ell metadata")
        counts = _count_star(graph.meta["n_b"], graph.meta["ell"])
        return _profile_from_counts(graph.n, counts, source)
    if graph.n > limit:
        raise CapacityError(
            f"exact counting limited to n <= {limit} vertices (got n={graph.n}); "
            "star instances use the closed form at any size")
    counts = _count_recursive((1 << graph.n) - 1, graph.adjacency())
    return _profile_from_counts(graph.n, counts, source)


def _log_isoenergetic_terms(profile: LandscapeProfile) -> np.ndarray:
    """log T(b) for b in ``bound_sizes()``, the isoenergetic bound's
    denominator T(b) = n D_b / D_{b-1} + sum_{k=1}^{b-1} A_k(b) C_k(b), with
    A_k(b) = sum_{j=b}^{min(alpha, b+k-1)} D_j / D_{j-k} and C_k(b) =
    sum_{i=0}^{b-1-k} D_i / D_{i+k}.  All terms are positive, so the logs
    only accumulate: C_k is a prefix, and split at multiples of k, A_k's
    window of length k is one block's suffix plus the next block's prefix."""
    sizes = np.array(profile.bound_sizes())
    logd = np.array([math.log(c) for c in profile.counts])  # counts pass 1e308
    total = math.log(profile.n) + logd[sizes] - logd[sizes - 1]
    for k in range(1, sizes[-1]):
        b = sizes[sizes > k]
        ratios = logd[:-k] - logd[k:]  # log D_i / D_{i+k}
        c = np.logaddexp.accumulate(ratios)[b - 1 - k]
        blocks = np.full(-(-profile.alpha // k) * k, -np.inf)
        blocks[:len(ratios)] = -ratios
        blocks = blocks.reshape(-1, k)
        prefix = np.logaddexp.accumulate(blocks, axis=1).ravel()
        suffix = np.logaddexp.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
        a = np.where((b - k) % k, np.logaddexp(suffix[b - k], prefix[b - 1]),
                     suffix[b - k])
        total[sizes > k] = np.logaddexp(total[sizes > k], a + c)
    return total


def check_float_range(log_value: float, what: str) -> None:
    """Raise CapacityError when exp(log_value) exceeds the largest double."""
    if log_value > math.log(sys.float_info.max):
        raise CapacityError(f"the {what} exceeds the float range "
                            f"(largest double {sys.float_info.max:.3e})")


def check_bound_parameters(eps: float, k: int) -> None:
    """Reject an error target outside 0 < eps < 1/2 (NaN included), where
    log(1 / (2 eps)) is not a positive number, and an update size k < 1."""
    if not 0.0 < eps < 0.5:
        raise ValueError(f"error target eps must satisfy 0 < eps < 1/2, "
                         f"got {eps!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")


def classical_bound(profile: LandscapeProfile, kind: str, *, k: int = 1,
                    eps: float = 0.25) -> float:
    """Analytic runtime lower bounds for SA, parallel tempering (with and
    without isoenergetic cluster updates), and path-integral QMC.

    ``k`` bounds the spins altered per update (SA/QMC); PT alters one spin
    per replica per update, and QMC takes a Gibbs enhancement of 1.  Each
    bound but the isoenergetic one is an exact fraction rounded once.
    """
    if kind not in BOUND_KINDS:
        raise ValueError(f"unknown bound kind {kind!r}; expected one of {BOUND_KINDS}")
    check_bound_parameters(eps, k)
    n = profile.n
    log_factor = math.log(1.0 / (2.0 * eps))
    if kind == "pt_isoenergetic":
        value = None
        log_value = -math.log(2 * n) - float(_log_isoenergetic_terms(profile).min())
    else:
        per_update = k if kind == "sa" else n if kind == "pt_local" else k * n ** k
        value = profile.max_suffix_ratio / (2 * n * per_update)
        log_value = math.log(value.numerator) - math.log(value.denominator)
    check_float_range(log_value + math.log(max(log_factor, 1.0)), f"{kind} bound")
    return log_factor * (math.exp(log_value) if value is None else float(value))


@dataclass
class UnimodalityReport:
    checked: int = 0
    violations: list = field(default_factory=list)
    capacity_skips: int = 0

    @property
    def violation_count(self) -> int:
        return len(self.violations)


def unimodality_scan(graphs, limit: int = ENUMERATION_LIMIT) -> UnimodalityReport:
    """Check every instance's independence polynomial for unimodality.

    Capacity errors are collected, not fatal; violations carry the instance
    metadata so the offending case can be reproduced.
    """
    report = UnimodalityReport()
    for g in graphs:
        try:
            profile = independence_polynomial(g, limit=limit)
        except CapacityError:
            report.capacity_skips += 1
            continue
        report.checked += 1
        if not profile.unimodal:
            report.violations.append({"meta": g.meta, "counts": profile.counts})
    return report
