"""The strong-delocalizer reduction: a one-dimensional chain over the
uniform size-manifold superpositions, its resonance and minimum gap,
continuum diagnostics, and a classical annealing-schedule synthesizer.

Sites b = 0..alpha carry energy -delta*b; the hop between sites b-1 and b
is t_b = Omega * b * sqrt(D_b / D_{b-1}).  The chain's minimum gap sits at
the detuning where the bulk (sites 0..alpha-1) ground level is resonant
with the last site, and is set by the final hop times the bulk ground
state's weight on the penultimate site.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.sparse

from .errors import ConfigError
from .landscape import LandscapeProfile
from .spectral import _brent_root, lowest_eigenpairs, scan_minimum_gap

SCHEDULE_RATE_FACTOR = 0.1  # adiabatic safety factor on |d delta / dt|


@dataclass(frozen=True)
class ChainModel:
    """Tridiagonal chain: hop[i] couples sites i and i+1, i = 0..alpha-1."""

    alpha: int
    hops: tuple[float, ...]
    omega: float

    def __post_init__(self):
        if len(self.hops) != self.alpha:
            raise ValueError("need exactly alpha couplings")
        if any(t <= 0 for t in self.hops):
            raise ConfigError("broken chain: non-positive coupling")

    def matrix(self, delta: float, bulk_only: bool = False):
        """Sparse tridiagonal H(delta): -delta*b on site b and -hop between
        neighbouring sites; sites 0..alpha-1 only when ``bulk_only``."""
        top = self.alpha - 1 if bulk_only else self.alpha
        off = -np.asarray(self.hops[:top], dtype=float)
        return scipy.sparse.diags([off, -delta * np.arange(top + 1.0), off],
                                  [-1, 0, 1], format="csr")

    def eigenvalues(self, delta: float, count: int = 2,
                    bulk_only: bool = False) -> np.ndarray:
        """The ``count`` lowest eigenvalues of H(delta)."""
        return lowest_eigenpairs(self.matrix(delta, bulk_only), count)[0]

    def bulk_ground(self, delta: float) -> tuple[float, np.ndarray]:
        w, v = lowest_eigenpairs(self.matrix(delta, bulk_only=True), 1)
        return float(w[0]), v[:, 0]


def build_chain(profile: LandscapeProfile, omega: float = 1.0) -> ChainModel:
    """Chain couplings from an exact landscape profile."""
    counts = profile.counts
    if any(c == 0 for c in counts):
        raise ConfigError("broken chain: a size class is empty mid-landscape")
    hops = tuple(
        omega * b * math.sqrt(Fraction(counts[b], counts[b - 1]))
        for b in range(1, profile.alpha + 1))
    return ChainModel(alpha=profile.alpha, hops=hops, omega=omega)


@dataclass
class ChainDiagnostics:
    """Resonance location, minimum gap and continuum-limit diagnostics."""

    delta_star: float | None = None
    min_gap: float | None = None
    min_gap_delta: float | None = None
    bj_coupling: float | None = None      # final hop * bulk weight on site alpha-1
    curve: list = field(default_factory=list)
    boundary: bool = False
    u1: float | None = None
    fundamental_bound: float | None = None
    fit_amplitude: float | None = None
    fit_exponent: float | None = None
    bulk_gaps: list = field(default_factory=list)

    def to_document(self) -> dict:
        return {
            "version": 1,
            "kind": "chain_diagnostics",
            "delta_star": self.delta_star,
            "min_gap": self.min_gap,
            "min_gap_delta": self.min_gap_delta,
            "bj_coupling": self.bj_coupling,
            "boundary": self.boundary,
            "u1": self.u1,
            "fundamental_bound": self.fundamental_bound,
            "fit_amplitude": self.fit_amplitude,
            "fit_exponent": self.fit_exponent,
            "bulk_gaps": [[float(a), float(b)] for a, b in self.bulk_gaps],
            "curve": [[float(a), float(b)] for a, b in self.curve],
        }


def locate_resonance(chain: ChainModel,
                     delta_hi: float | None = None) -> float | None:
    """Detuning where the bulk ground level crosses the last site's energy:
    the root of E0_bulk(delta) + delta*alpha, bracketed on [0, hi] by
    doubling hi from ``delta_hi`` (or 1), then found by Brent's search to
    1e-12 * max(1, hi).  None when no bracket exists."""
    alpha = chain.alpha

    def mismatch(d):
        return chain.bulk_ground(d)[0] + d * alpha

    f_lo = mismatch(0.0)
    if f_lo > 0:
        return None
    hi = delta_hi or 1.0
    for _ in range(200):
        f_hi = mismatch(hi)
        if f_hi > 0:
            break
        hi *= 2.0
    else:
        return None
    return _brent_root(mismatch, 0.0, hi, f_lo, f_hi, 1e-12 * max(1.0, hi))


def chain_gap_profile(chain: ChainModel, delta_range: tuple[float, float],
                      points: int = 128) -> ChainDiagnostics:
    """Gap-vs-detuning curve and its minimum from ``scan_minimum_gap``
    (dH/d delta = -b on site b), resonance and its coupling."""
    if chain.alpha < 2:
        raise ConfigError("chain too short for a resonance analysis")
    scan = scan_minimum_gap(chain.matrix, np.linspace(*delta_range, points),
                            -np.arange(chain.alpha + 1))
    out = ChainDiagnostics(curve=scan.curve, min_gap=scan.gap,
                           min_gap_delta=scan.delta_star,
                           boundary=scan.boundary_minimum)
    dstar = locate_resonance(chain, delta_hi=delta_range[1])
    if dstar is None or not delta_range[0] <= dstar <= delta_range[1]:
        out.boundary = True
    out.delta_star = dstar
    if dstar is not None:
        _, psi0 = chain.bulk_ground(dstar)
        out.bj_coupling = float(chain.hops[-1] * abs(psi0[-1]))
    return out


def bulk_diagnostics(chain: ChainModel, deltas=None) -> ChainDiagnostics:
    """Continuum-limit diagnostics of the bulk chain.

    u1 integrates t(x)^(-1/2) over x = b/alpha by the trapezoid rule on the
    normalized couplings t_b/alpha; the fundamental lower bound on the bulk
    gap is 3*pi^2/(alpha*u1)^2.  The couplings are fit to A*sqrt(x)(1-x)^c
    with the last two bulk points weighted 0.1.
    """
    alpha = chain.alpha
    if alpha < 4:
        raise ConfigError("bulk diagnostics need alpha >= 4")
    out = ChainDiagnostics()
    xs = np.arange(1, alpha + 1) / alpha
    t_norm = np.asarray(chain.hops) / alpha
    integrand = t_norm ** -0.5
    # trapezoid over the sampled x = b/alpha plus a left rectangle covering
    # [0, 1/alpha), so constant couplings integrate exactly
    out.u1 = float(np.trapezoid(integrand, xs) + integrand[0] / alpha)
    out.fundamental_bound = 3.0 * math.pi ** 2 / (alpha * out.u1) ** 2
    # weighted fit of log(t/sqrt(x)) = log A + c log(1 - x) over bulk points
    bulk = slice(0, alpha - 1)  # x < 1
    xb, tb = xs[bulk], t_norm[bulk]
    y = np.log(tb / np.sqrt(xb))
    X = np.log(1.0 - xb)
    w = np.ones_like(xb)
    w[-2:] = 0.1
    A = np.vstack([np.ones_like(X), X]).T * w[:, None]
    coef, *_ = np.linalg.lstsq(A, y * w, rcond=None)
    out.fit_amplitude = float(math.exp(coef[0]))
    out.fit_exponent = float(coef[1])
    if deltas is None:
        hi = locate_resonance(chain) or 1.0
        deltas = np.linspace(0.0, 1.5 * hi, 16)
    for d in deltas:
        w2 = chain.eigenvalues(float(d), count=2, bulk_only=True)
        out.bulk_gaps.append((float(d), float(w2[1] - w2[0])))
    return out


@dataclass(frozen=True)
class ScheduleSegment:
    duration: float
    delta_start: float
    delta_end: float


@dataclass(frozen=True)
class Schedule:
    segments: tuple[ScheduleSegment, ...]
    delta_star: float
    window: float
    rate_factor: float
    total_duration: float

    def to_document(self) -> dict:
        return {
            "version": 1,
            "kind": "schedule",
            "delta_star": self.delta_star,
            "window": self.window,
            "rate_factor": self.rate_factor,
            "total_duration": self.total_duration,
            "segments": [[s.duration, s.delta_start, s.delta_end]
                         for s in self.segments],
        }


def synthesize_schedule(diag: ChainDiagnostics,
                        delta_range: tuple[float, float]) -> Schedule:
    """Piecewise-linear detuning sweep that slows to |d delta/dt| =
    SCHEDULE_RATE_FACTOR * gap^2 inside a window of width gap around the
    resonance; total duration scales as 1/gap up to the bookkeeping of
    the fast segments."""
    if diag.delta_star is None or diag.min_gap is None or diag.boundary:
        raise ConfigError("cannot synthesize a schedule without a resolved "
                          "interior resonance")
    lo, hi = delta_range
    gap = diag.min_gap
    centre = diag.delta_star
    w_lo = max(lo, centre - gap / 2.0)
    w_hi = min(hi, centre + gap / 2.0)
    if not lo < centre < hi:
        raise ConfigError("resonance lies outside the requested sweep range")
    # fast-rate reference: the typical (off-resonant) gap along the curve
    gaps = [g for _, g in diag.curve] or [gap]
    reference = float(np.median(gaps))
    fast_rate = SCHEDULE_RATE_FACTOR * reference ** 2
    slow_rate = SCHEDULE_RATE_FACTOR * gap ** 2
    segments = []
    if w_lo > lo:
        segments.append(ScheduleSegment((w_lo - lo) / fast_rate, lo, w_lo))
    segments.append(ScheduleSegment((w_hi - w_lo) / slow_rate, w_lo, w_hi))
    if hi > w_hi:
        segments.append(ScheduleSegment((hi - w_hi) / fast_rate, w_hi, hi))
    total = sum(s.duration for s in segments)
    return Schedule(segments=tuple(segments), delta_star=centre, window=gap,
                    rate_factor=SCHEDULE_RATE_FACTOR, total_duration=total)
