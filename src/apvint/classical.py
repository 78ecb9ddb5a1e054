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

from .expr import evaluate
from .extrapolate import richardson_zero
from .paths import IntegralSpec, default_circle_radius
from .quadrature import QuadConfig, integrate_real_segment

__all__ = [
    "TaylorCoeffs",
    "divergent_terms",
    "fox_limit",
    "series_Fn",
    "series_fpi",
    "taylor_from_expr",
]


# Richardson columns over the eps samples of fox_limit
FOX_EXTRAPOLATION_ORDER = 6
# eps samples of fox_limit: this many, halving from a quarter of the pole gap
DEFAULT_EPS_TERMS = 12
# trapezoid nodes on the circle of taylor_from_expr (at least 4 per coefficient)
TAYLOR_SAMPLES = 512


@dataclass(frozen=True)
class TaylorCoeffs:
    """Scaled derivatives c_k = f^(k)(x0) / k! and the sampling radius used."""

    c: tuple
    radius_check: float

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(float(x) for x in self.c))

    def __len__(self):
        return len(self.c)


def divergent_terms(c, n: int, eps: float) -> float:
    """H_n(x0, eps): the eps-divergent part removed by the finite-part limit.

    `c` holds the Taylor coefficients c_k = f^(k)(x0) / k! for k = 0..n-1.
    Terms with even n-k cancel between the two sides of x0, and the others
    count twice.
    """
    total = 0.0
    for k in range(n):
        if (n - k) % 2:
            total += c[k] / (n - k) * 2 / eps ** (n - k)
    return total


def fox_limit(spec: IntegralSpec, cfg: QuadConfig | None = None) -> dict:
    """Symmetric-removal limit with the divergent terms subtracted.

    The two-sided real integrals are taken at DEFAULT_EPS_TERMS values of eps,
    halving from a quarter of the pole gap; H_n reads c_0..c_{n-1} from
    taylor_from_expr on the residue's circle, of radius default_circle_radius
    (none at n = 0): a wider circle reaches where f is large and spoils the
    low coefficients by rounding. Returns {"value", "err_estimate",
    "samples", "raw_samples", "converged"} where samples are the
    H_n-subtracted two-sided sums per eps and raw_samples the unsubtracted
    sums (which diverge for n >= 1).
    """
    cfg = cfg or QuadConfig()
    eps_values = tuple(spec.pole_gap / 4 * 2.0 ** (-k) for k in range(DEFAULT_EPS_TERMS))
    c = taylor_from_expr(spec, spec.n, default_circle_radius(spec)).c if spec.n else ()
    samples = []
    raw_samples = []
    quad_err_floor = np.inf
    converged = True
    for eps in eps_values:
        left = integrate_real_segment(spec, spec.a, spec.x0 - eps, cfg)
        right = integrate_real_segment(spec, spec.x0 + eps, spec.b, cfg)
        raw = (left.value + right.value).real
        raw_samples.append((eps, raw))
        samples.append(raw - divergent_terms(c, spec.n, eps))
        # noisy small-eps samples are discounted by the extrapolation's own
        # consistency estimate; only the cleanest sample bounds from below
        quad_err_floor = min(quad_err_floor, left.err_estimate + right.err_estimate)
        converged = converged and left.converged and right.converged
    ext = richardson_zero(np.array(eps_values), np.array(samples, dtype=np.complex128),
                          max_order=FOX_EXTRAPOLATION_ORDER)
    return {
        "value": ext.value.real,
        "err_estimate": max(ext.err_estimate, float(quad_err_floor)),
        "samples": list(zip(eps_values, samples)),
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


def series_fpi(coeffs: TaylorCoeffs, spec: IntegralSpec) -> float:
    """Closed-form value from the Taylor series about x0: the finite part for
    n >= 1 and the Cauchy principal value for n = 0.

    F_n(s_b) - F_n(s_a) + c_n log(s_b / -s_a), with F_n from series_Fn.
    """
    reach = max(abs(spec.a - spec.x0), abs(spec.b - spec.x0))
    if coeffs.radius_check < reach:
        raise ValueError(
            f"series radius {coeffs.radius_check} does not cover the interval reach {reach}")
    if len(coeffs) < spec.n + 2:
        raise ValueError(f"need at least n+2 = {spec.n + 2} coefficients, have {len(coeffs)}")
    sb, sa = spec.b - spec.x0, spec.a - spec.x0
    fb, _ = series_Fn(coeffs, spec.n, sb)
    fa, _ = series_Fn(coeffs, spec.n, sa)
    return fb - fa + coeffs.c[spec.n] * (math.log(sb) - math.log(-sa))


def taylor_from_expr(spec: IntegralSpec, K: int = 64,
                     radius: float | None = None) -> TaylorCoeffs:
    """Taylor coefficients about x0 by uniform sampling of the Cauchy integral
    on a circle (trapezoid rule on the circle is spectrally accurate).

    The circle has the given radius, else 1.1x the interval reach when declared
    poles allow, otherwise the largest admissible radius (the caller sees the
    shortfall in radius_check).
    """
    if radius is None:
        radius = min([max(abs(spec.a - spec.x0), abs(spec.b - spec.x0)) * 1.1]
                     + [abs(p - spec.x0) * 0.9 for p in spec.decl.declared_poles])
    if radius <= 0:
        raise ValueError("no admissible sampling circle about x0")
    m = max(TAYLOR_SAMPLES, 4 * K)
    theta = 2 * np.pi * np.arange(m) / m
    z = spec.x0 + radius * np.exp(1j * theta)
    fz = evaluate(spec.f, z)
    coeff = np.fft.fft(fz) / m
    c = [float((coeff[k] / radius ** k).real) for k in range(K)]
    return TaylorCoeffs(tuple(c), radius_check=radius)
