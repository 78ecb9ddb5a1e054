"""Classical definitions used as independent oracles.

Both oracles read one Taylor kernel, `taylor_from_expr`, and one window sum,
`_window`: the finite part of the Taylor series of f about x0, term by term,
over a window about x0.

* `fox_limit`: Fox's symmetric limit (Cauchy principal value for n = 0,
  Hadamard finite part for n >= 1). Its own real-axis quadrature outside
  [x0 - eps, x0 + eps], graded toward x0, plus the window sum inside,
  which is minus the divergent terms H_n(eps) over k < n and the remainder
  of the limit eps -> 0 over k > n, so one eps closes the limit.
* `series_fpi`: the window sum over all of [a, b].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import evaluate
from .paths import IntegralSpec
from .quadrature import QuadConfig, RouteResult, integrate_real_segment

__all__ = [
    "TaylorCoeffs",
    "fox_limit",
    "series_Fn",
    "series_fpi",
    "taylor_from_expr",
]


# trapezoid nodes on the circle of taylor_from_expr (at least 4 per coefficient)
TAYLOR_SAMPLES = 512


@dataclass(frozen=True)
class TaylorCoeffs:
    """Scaled derivatives c_k = f^(k)(x0) / k!, the sampling radius used, the
    largest |f| sampled on that circle and the number of samples taken."""

    c: tuple
    radius_check: float
    f_max: float = 0.0
    evals: int = 0

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(float(x) for x in self.c))

    def __len__(self):
        return len(self.c)


def fox_limit(spec: IntegralSpec, cfg: QuadConfig | None = None) -> RouteResult:
    """Fox's symmetric limit, closed at one eps: the real integrals over
    [a, x0 - eps] and [x0 + eps, b], each cut toward x0 by
    integrate_real_segment, plus _window(-eps, eps), on c_k from
    taylor_from_expr on a circle of radius 2 eps, so the window's terms fall
    off like 2^-k. eps starts at pole_gap (less if declared poles cap the
    circle) and is halved while the window's error, mostly rounding over
    max|f| on the circle, exceeds the requested tolerance and halving at
    least halves it. detail holds "eps" and "radius"."""
    cfg = cfg or QuadConfig()
    coeffs = taylor_from_expr(spec, radius=2 * spec.pole_gap)
    evals, eps = coeffs.evals, coeffs.radius_check / 2
    window, window_err = _window(coeffs, spec.n, -eps, eps)
    while window_err > max(cfg.abs_tol, cfg.rel_tol * abs(window)):
        coeffs = taylor_from_expr(spec, radius=eps)
        evals += coeffs.evals
        value, err = _window(coeffs, spec.n, -eps / 2, eps / 2)
        if not err < window_err / 2:
            break
        eps, window, window_err = eps / 2, value, err
    left = integrate_real_segment(spec, spec.a, spec.x0 - eps, cfg)
    right = integrate_real_segment(spec, spec.x0 + eps, spec.b, cfg)
    return RouteResult((left.value + right.value).real + window,
                       left.err_estimate + right.err_estimate + window_err,
                       evals + left.evals + right.evals,
                       left.converged and right.converged,
                       detail={"eps": eps, "radius": 2 * eps})


def series_Fn(coeffs: TaylorCoeffs, n: int, s: float):
    """Antiderivative-series kernel of the finite-part value at offset s.

    Sum of -c_k / ((n-k) s^(n-k)) for k < n and c_k s^(k-n) / (k-n) for
    k > n, over every coefficient. Returns (value, last_term_magnitude).
    """
    if s == 0.0 and n >= 1:
        raise ZeroDivisionError("series kernel is singular at s = 0 for n >= 1")
    K = len(coeffs)
    total = last = 0.0
    for k in range(min(n, K)):
        term = -coeffs.c[k] / ((n - k) * s ** (n - k))
        total += term
        last = abs(term)
    for k in range(n + 1, K):
        term = coeffs.c[k] * s ** (k - n) / (k - n)
        total += term
        last = abs(term)
    return total, last


def _window(coeffs: TaylorCoeffs, n: int, sa: float, sb: float):
    """(value, err): the Taylor series' finite part over [x0 + sa, x0 + sb],
    sa < 0 < sb, as F_n(sb) - F_n(sa) + c_n log(sb / -sa) by series_Fn.

    err is the two last terms plus rounding: eps * max|f| / r^k in sampling c_k
    on the circle of radius r, and as much again (Cauchy's |c_k| <= max|f| / r^k)
    in its term, with weight |s|^(k-n) / |k-n| for s in {sa, sb}, |log(sb / -sa)|
    at k = n."""
    r = coeffs.radius_check
    fb, last_b = series_Fn(coeffs, n, sb)
    fa, last_a = series_Fn(coeffs, n, sa)
    log_ratio = math.log(sb) - math.log(-sa)
    value = fb - fa + coeffs.c[n] * log_ratio
    # |s|^(k-n) / r^k written as (|s|/r)^k / |s|^n, which cannot overflow as r >= |s|
    weight = abs(log_ratio) / r ** n + sum(
        (abs(s) / r) ** k / abs(s) ** n / abs(k - n)
        for s in (sa, sb) for k in range(len(coeffs)) if k != n)
    return value, last_a + last_b + 2 * np.finfo(float).eps * coeffs.f_max * weight


def series_fpi(spec: IntegralSpec) -> RouteResult:
    """Closed-form finite part (Cauchy principal value at n = 0): the window
    sum _window over all of [a, b] on taylor_from_expr(spec), whose circle's
    "radius" r is in detail."""
    coeffs = taylor_from_expr(spec)
    r = coeffs.radius_check
    reach = max(abs(spec.a - spec.x0), abs(spec.b - spec.x0))
    if r < reach:
        raise ValueError(f"series radius {r} does not cover the interval reach {reach}")
    value, err = _window(coeffs, spec.n, spec.a - spec.x0, spec.b - spec.x0)
    return RouteResult(value, err, coeffs.evals, True, detail={"radius": r})


def taylor_from_expr(spec: IntegralSpec, radius: float | None = None) -> TaylorCoeffs:
    """The first max(64, n + 48) Taylor coefficients about x0, by uniform
    sampling of the Cauchy integral on a circle (trapezoid rule on the circle
    is spectrally accurate).

    The circle has the given radius, else 1.1x the interval reach, capped at
    0.9 of the way to any declared pole (the caller sees the radius used in
    radius_check).
    """
    K = max(64, spec.n + 48)
    if radius is None:
        radius = max(abs(spec.a - spec.x0), abs(spec.b - spec.x0)) * 1.1
    radius = min(radius, 0.9 * spec.pole_distance)
    if radius <= 0:
        raise ValueError("no admissible sampling circle about x0")
    m = max(TAYLOR_SAMPLES, 4 * K)
    theta = 2 * np.pi * np.arange(m) / m
    z = spec.x0 + radius * np.exp(1j * theta)
    fz = evaluate(spec.f, z)
    coeff = np.fft.fft(fz) / m
    c = [float((coeff[k] / radius ** k).real) for k in range(K)]
    return TaylorCoeffs(tuple(c), radius_check=radius, f_max=float(np.max(np.abs(fz))), evals=m)
