"""Adaptive Gauss-Kronrod quadrature for complex-valued integrands on paths.

Each path segment is mapped to a real parameter interval (lines by an affine
map, arcs by angle) and integrated with an embedded (G7, K15) pair. The error
of a subinterval is the |K15 - G7| difference (a non-finite one is the
worst); the worst subinterval is bisected until one of four stops: the
global tolerance is met, the subdivision budget runs out, both halves of a
bisected subinterval are not finite, or six bisections have stalled on
rounding. A stall is a bisection that leaves its subinterval's value alone
(to a relative 1e-5) and does not shrink its error (to 99 %), the roundoff
test of QUADPACK's qag (Piessens et al., 1983). The stopping test reads
running totals of value and error over all subintervals, kept as compensated
(TwoSum) sums with an O(1) update per bisection. The returned result is
summed afresh in a fixed order (sorted by left endpoint) so that outputs are
reproducible; an unconverged one reports an error no smaller than the
rounding in its sum. Alongside the value, the integral of |g| |dz| is
accumulated as an absolute-convergence diagnostic. A real segment is first
cut toward its pole, so that no piece is longer than its distance to it.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .expr import evaluate
from .paths import ComplexPath, IntegralSpec

__all__ = [
    "QuadConfig",
    "QuadResult",
    "RouteResult",
    "integrate_function",
    "integrate_on_path",
    "integrate_path",
    "integrate_real_segment",
    "singular_integrand",
]

# 15-point Kronrod nodes/weights on [-1, 1] and the embedded 7-point Gauss
# weights (Gauss nodes are the odd-index Kronrod nodes).
_XGK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])

_MAX_STALLS = 6  # bisections that change neither value nor error, as in qag
_ROUNDING_ERR = 8 * math.ulp(1.0)  # per unit of |g| |dz|: the least error reported


@dataclass(frozen=True)
class QuadConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0 or self.max_subdivisions < 1:
            raise ValueError("invalid quadrature configuration")


@dataclass(frozen=True)
class QuadResult:
    value: complex
    err_estimate: float
    evals: int
    converged: bool
    abs_integral: float = 0.0  # integral of |g(z)| |dz|, finiteness diagnostic

    def __add__(self, other: "QuadResult") -> "QuadResult":
        return QuadResult(
            value=self.value + other.value,
            err_estimate=self.err_estimate + other.err_estimate,
            evals=self.evals + other.evals,
            converged=self.converged and other.converged,
            abs_integral=self.abs_integral + other.abs_integral,
        )


@dataclass(frozen=True)
class RouteResult:
    """What every route returns: value, error estimate, integrand evaluations,
    convergence (never of a value that is not finite), the QuadResults the
    value is built from (`diagnostics`) and all else it computed (`detail`).
    Scalars are stored as plain Python ones."""

    value: float
    err_estimate: float
    evals: int
    converged: bool
    diagnostics: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, kind in (("value", float), ("err_estimate", float), ("evals", int)):
            object.__setattr__(self, name, kind(getattr(self, name)))
        object.__setattr__(self, "converged", bool(self.converged) and math.isfinite(self.value))


def _kronrod_panel(g, lo, hi):
    """One (G7, K15) panel: returns (k15, |k15-g7|, abs_k15)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid + half * _XGK
    y = g(x)
    k15 = half * np.add.reduce(_WGK * y)
    g7 = half * np.add.reduce(_WG * y[1::2])
    abs15 = half * float(np.add.reduce(_WGK * np.abs(y)))
    return k15, abs(k15 - g7), abs15


def _two_sum(s, c, x):
    """Add x to the compensated sum (s, c) with an error-free TwoSum (Knuth)."""
    t = s + x
    bb = t - s
    return t, c + ((s - (t - bb)) + (x - bb))


def _heap_key(err):
    """Heap order: the largest error first, and a non-finite one before all."""
    return -err if math.isfinite(err) else -math.inf


def integrate_function(g, lo: float, hi: float, cfg: QuadConfig) -> QuadResult:
    """Adaptively integrate the complex-valued vectorized g over [lo, hi].

    Bisection stops at the tolerance, at cfg.max_subdivisions, when both
    halves of a subinterval are not finite, or after _MAX_STALLS stalls on
    rounding. Each bisection updates the running value and error totals of
    the heap in O(1), as compensated (sum, correction) pairs; they decide
    only when to stop. The result is summed afresh in fixed left-endpoint
    order; an unconverged one's finite error is raised to at least
    _ROUNDING_ERR times the integral of |g|.
    """
    if lo == hi:
        return QuadResult(0j, 0.0, 0, True, 0.0)
    sign = 1.0
    if hi < lo:
        lo, hi = hi, lo
        sign = -1.0
    value, err, absint = _kronrod_panel(g, lo, hi)
    evals = 15
    # heap of (_heap_key(err), left, right, value, err, absint)
    heap = [(_heap_key(err), lo, hi, value, err, absint)]
    total, total_c = value, 0.0
    total_err, err_c = err, 0.0
    nsub, stalls = 1, 0
    while nsub < cfg.max_subdivisions and stalls < _MAX_STALLS:
        est, est_err = total + total_c, total_err + err_c
        if not (cmath.isfinite(est) and math.isfinite(est_err)):
            # a non-finite panel poisons the corrections for good, even after
            # it is bisected away: re-sum the heap as it stands
            total, total_c = sum(item[3] for item in heap), 0.0
            total_err, err_c = sum(item[4] for item in heap), 0.0
            est, est_err = total, total_err
        if est_err <= max(cfg.abs_tol, cfg.rel_tol * abs(est)):
            break
        _, a, b, v, e, _ = heapq.heappop(heap)
        m = 0.5 * (a + b)
        v1, e1, s1 = _kronrod_panel(g, a, m)
        v2, e2, s2 = _kronrod_panel(g, m, b)
        evals += 30
        heapq.heappush(heap, (_heap_key(e1), a, m, v1, e1, s1))
        heapq.heappush(heap, (_heap_key(e2), m, b, v2, e2, s2))
        for dv, de in ((v1, e1), (v2, e2), (-v, -e)):
            total, total_c = _two_sum(total, total_c, dv)
            total_err, err_c = _two_sum(total_err, err_c, de)
        nsub += 1
        if abs(v1 + v2 - v) <= 1e-5 * abs(v1 + v2) and e1 + e2 >= 0.99 * e:
            stalls += 1
        if not (math.isfinite(e1) or math.isfinite(e2)):
            break  # halving does not make the value finite: not converged
    intervals = sorted(heap, key=lambda item: item[1])
    value = sum(item[3] for item in intervals)
    err = float(sum(item[4] for item in intervals))
    absint = float(sum(item[5] for item in intervals))
    converged = bool(err <= max(cfg.abs_tol, cfg.rel_tol * abs(value)))
    if not converged and math.isfinite(err):
        err = max(err, _ROUNDING_ERR * absint)
    return QuadResult(sign * complex(value), err, evals, converged, absint)


def integrate_on_path(func, path: ComplexPath, cfg: QuadConfig | None = None) -> QuadResult:
    """Integrate an arbitrary vectorized complex function along a path."""
    cfg = cfg or QuadConfig()
    total = QuadResult(0j, 0.0, 0, True, 0.0)
    for seg in path.segments:
        lo, hi = seg.param_interval

        def g(t, seg=seg):
            z = seg.point(t)
            return func(z) * seg.derivative(t)

        total = total + integrate_function(g, float(lo), float(hi), cfg)
    return total


def singular_integrand(spec: IntegralSpec, center: complex | None = None):
    """The integrand f(z) / (z - c)^(n+1), vectorized over real or complex z.

    The pole c is x0 unless given.
    """
    c = spec.x0 if center is None else center

    def g(z):
        z = np.asarray(z, dtype=np.complex128)
        return evaluate(spec.f, z) / (z - c) ** (spec.n + 1)

    return g


def integrate_path(spec: IntegralSpec, path: ComplexPath, cfg: QuadConfig | None = None) -> QuadResult:
    """Integral of f(z)/(z-x0)^(n+1) along the given pole-avoiding path."""
    if path.min_distance_to(complex(spec.x0)) <= 0.0:
        raise ValueError("path passes through the pole x0")
    return integrate_on_path(singular_integrand(spec), path, cfg)


def integrate_real_segment(spec: IntegralSpec, lo: float, hi: float,
                           cfg: QuadConfig | None = None, center: complex | None = None) -> QuadResult:
    """Integral of f(x)/(x - c)^(n+1) over a real interval that misses the pole
    c (x0 unless given), cut at the foot x of c and at Re c +/- |c - x| 2^k so
    that no piece is longer than its distance to c (Trefethen, ATAP, Thm 19.3)."""
    cfg = cfg or QuadConfig()
    c = complex(spec.x0 if center is None else center)
    a, b = sorted((float(lo), float(hi)))
    if c.imag == 0.0 and a <= c.real <= b:
        raise ValueError(f"real segment [{lo}, {hi}] contains the pole {c}")
    x = min(max(c.real, a), b)
    cuts, step = {a, b, x}, abs(c - x)
    while step < b - a:
        cuts.update(t for t in (c.real - step, c.real + step) if a < t < b)
        step *= 2
    cuts = sorted(cuts)
    g = singular_integrand(spec, center)
    total = QuadResult(0j, 0.0, 0, True, 0.0)
    for t0, t1 in zip(cuts, cuts[1:]):
        total = total + integrate_function(g, t0, t1, cfg)
    return total if lo <= hi else replace(total, value=-total.value)
