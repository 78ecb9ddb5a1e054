"""Classical definitions used as independent oracles.

Two oracles live here:

* the symmetric epsilon-limit (Cauchy principal value for n=0, Hadamard
  finite part for n>=1), realized by subtracting the known divergent terms
  H_n(x0, eps) from the two-sided real integrals and Richardson-extrapolating
  eps -> 0;

* closed-form Taylor-series evaluation for functions whose complex extension
  is entire (or analytic on a large enough disk about x0), where the
  principal value reduces to rapidly convergent series plus a logarithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .apv import derivative_at_pole
from .expr import evaluate
from .extrapolate import richardson_zero
from .paths import IntegralSpec
from .quadrature import QuadConfig, integrate_real_segment

__all__ = [
    "EpsSchedule",
    "TaylorCoeffs",
    "divergent_terms",
    "fox_limit",
    "series_Fn",
    "series_cpv",
    "series_fpi",
    "taylor_from_expr",
]


# Richardson columns over the eps samples of fox_limit
FOX_EXTRAPOLATION_ORDER = 6
# default eps schedule: this many samples, halving from a quarter of the pole gap
DEFAULT_EPS_TERMS = 12
# trapezoid nodes on the circle of taylor_from_expr (at least 4 per coefficient)
TAYLOR_SAMPLES = 512


@dataclass(frozen=True)
class EpsSchedule:
    """Strictly decreasing positive eps samples."""

    eps_values: tuple

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps_values)
        if not eps or any(e <= 0 for e in eps) or any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("eps_values must be positive and strictly decreasing")
        object.__setattr__(self, "eps_values", eps)

    @classmethod
    def default(cls, spec: IntegralSpec) -> "EpsSchedule":
        eps0 = spec.pole_gap / 4
        return cls(tuple(eps0 * 2.0 ** (-k) for k in range(DEFAULT_EPS_TERMS)))


@dataclass(frozen=True)
class TaylorCoeffs:
    """Scaled derivatives c_k = f^(k)(x0) / k! and the sampling radius used."""

    c: tuple
    radius_check: float

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(float(x) for x in self.c))

    def __len__(self):
        return len(self.c)


def divergent_terms(derivs, n: int, eps: float) -> float:
    """H_n(x0, eps): the eps-divergent part removed by the finite-part limit.

    `derivs` holds plain derivatives f^(k)(x0) for k = 0..n-1. Terms with
    even n-k carry a vanishing (1 - (-1)^(n-k)) factor.
    """
    if n == 0:
        return 0.0
    total = 0.0
    for k in range(n):
        parity = 1 - (-1) ** (n - k)
        if parity:
            total += derivs[k] / (math.factorial(k) * (n - k)) * parity / eps ** (n - k)
    return total


def fox_limit(spec: IntegralSpec, sched: EpsSchedule | None = None,
              cfg: QuadConfig | None = None) -> dict:
    """Symmetric-removal limit with the divergent terms subtracted.

    Returns {"value", "err_estimate", "samples", "raw_samples", "converged"}
    where samples are the H_n-subtracted two-sided sums per eps and
    raw_samples the unsubtracted sums (which diverge for n >= 1).
    """
    sched = sched or EpsSchedule.default(spec)
    cfg = cfg or QuadConfig()
    if sched.eps_values[0] >= spec.pole_gap:
        raise ValueError("largest eps must be below the pole gap")
    derivs = [ (derivative_at_pole(spec, cfg=cfg, order=k) * math.factorial(k)).real
               for k in range(spec.n) ]
    samples = []
    raw_samples = []
    quad_err_floor = np.inf
    converged = True
    for eps in sched.eps_values:
        left = integrate_real_segment(spec, spec.a, spec.x0 - eps, cfg)
        right = integrate_real_segment(spec, spec.x0 + eps, spec.b, cfg)
        raw = (left.value + right.value).real
        raw_samples.append((eps, raw))
        samples.append(raw - divergent_terms(derivs, spec.n, eps))
        # noisy small-eps samples are discounted by the extrapolation's own
        # consistency estimate; only the cleanest sample bounds from below
        quad_err_floor = min(quad_err_floor, left.err_estimate + right.err_estimate)
        converged = converged and left.converged and right.converged
    ext = richardson_zero(np.array(sched.eps_values), np.array(samples, dtype=np.complex128),
                          max_order=FOX_EXTRAPOLATION_ORDER)
    return {
        "value": ext.value.real,
        "err_estimate": max(ext.err_estimate, float(quad_err_floor)),
        "samples": list(zip(sched.eps_values, samples)),
        "raw_samples": raw_samples,
        "converged": converged and not ext.diverged,
    }


def series_Fn(coeffs: TaylorCoeffs, n: int, s: float):
    """Antiderivative-series kernel of the finite-part value at offset s.

    Sum of -c_k / ((n-k) s^(n-k)) for k < n and c_k s^(k-n) / (k-n) for
    k > n, over every coefficient. Returns (value, last_term_magnitude).
    """
    if s == 0.0 and n >= 1:
        raise ZeroDivisionError("series kernel is singular at s = 0 for n >= 1")
    K = len(coeffs)
    total = 0.0
    last = 0.0
    for k in range(n):
        if k >= K:
            break
        term = -coeffs.c[k] / ((n - k) * s ** (n - k))
        total += term
        last = abs(term)
    for k in range(n + 1, K):
        term = coeffs.c[k] * s ** (k - n) / (k - n)
        total += term
        last = abs(term)
    return total, last


def _check_radius(coeffs: TaylorCoeffs, spec: IntegralSpec):
    reach = max(abs(spec.a - spec.x0), abs(spec.b - spec.x0))
    if coeffs.radius_check < reach:
        raise ValueError(
            f"series radius {coeffs.radius_check} does not cover the interval reach {reach}")


def series_cpv(coeffs: TaylorCoeffs, spec: IntegralSpec) -> float:
    """Closed-form principal value (n = 0) from the Taylor series about x0."""
    if spec.n != 0:
        raise ValueError("series_cpv applies to n = 0 only")
    _check_radius(coeffs, spec)
    sb, sa = spec.b - spec.x0, spec.a - spec.x0
    total = coeffs.c[0] * (math.log(sb) - math.log(-sa))
    for k in range(1, len(coeffs)):
        total += coeffs.c[k] * (sb ** k - sa ** k) / k
    return total


def series_fpi(coeffs: TaylorCoeffs, spec: IntegralSpec) -> float:
    """Closed-form finite-part value (n >= 1) from the Taylor series about x0."""
    if spec.n < 1:
        raise ValueError("series_fpi applies to n >= 1; use series_cpv for n = 0")
    _check_radius(coeffs, spec)
    if len(coeffs) < spec.n + 2:
        raise ValueError(f"need at least n+2 = {spec.n + 2} coefficients, have {len(coeffs)}")
    sb, sa = spec.b - spec.x0, spec.a - spec.x0
    fb, _ = series_Fn(coeffs, spec.n, sb)
    fa, _ = series_Fn(coeffs, spec.n, sa)
    return fb - fa + coeffs.c[spec.n] * (math.log(sb) - math.log(-sa))


def taylor_from_expr(spec: IntegralSpec, K: int = 64) -> TaylorCoeffs:
    """Taylor coefficients about x0 by uniform sampling of the Cauchy integral
    on a circle (trapezoid rule on the circle is spectrally accurate).

    The circle radius is 1.1x the interval reach when declared poles allow,
    otherwise the largest admissible radius (the caller sees the shortfall in
    radius_check).
    """
    reach = max(abs(spec.a - spec.x0), abs(spec.b - spec.x0))
    radius = reach * 1.1
    for p in spec.decl.declared_poles:
        admissible = abs(p - spec.x0) * 0.9
        if admissible <= 0:
            raise ValueError(f"declared pole {p} coincides with x0")
        radius = min(radius, admissible)
    if radius <= 0:
        raise ValueError("no admissible sampling circle about x0")
    m = max(TAYLOR_SAMPLES, 4 * K)
    theta = 2 * np.pi * np.arange(m) / m
    z = spec.x0 + radius * np.exp(1j * theta)
    fz = evaluate(spec.f, z)
    coeff = np.fft.fft(fz) / m
    c = [float((coeff[k] / radius ** k).real) for k in range(K)]
    return TaylorCoeffs(tuple(c), radius_check=radius)
