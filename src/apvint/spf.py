"""Boundary values of the off-axis integral transform and their identities.

Phi(z) = integral over [a, b] of f(x) / (x - z)^(n+1) dx is analytic off the
segment; its limits as z -> x0 from above/below are recovered here by
evaluating at x0 +/- i y over a decreasing y schedule and Richardson
extrapolation to y = 0. The limits differ by the residue jump and straddle
the principal value, and each equals the opposite-side contour integral,
taken along one contour and its mirror image (apv.contour_pair).
"""

from __future__ import annotations

import numpy as np

from .apv import apv_average
from .extrapolate import richardson_zero
from .paths import ComplexPath, IntegralSpec
from .quadrature import QuadConfig, QuadResult, RouteResult, integrate_real_segment

__all__ = [
    "phi_at",
    "default_y_schedule",
    "boundary_values",
    "spf_identity_check",
]

Y_FLOOR_FACTOR = 1e-4  # conditioning floor for the y schedule, times (b - a)


def phi_at(spec: IntegralSpec, z: complex, cfg: QuadConfig | None = None) -> QuadResult:
    """Integral of f(x)/(x - z)^(n+1) over the straight segment [a, b], for z
    off [a, b]: integrate_real_segment cut toward z."""
    return integrate_real_segment(spec, spec.a, spec.b, cfg, center=complex(z))


def default_y_schedule(spec: IntegralSpec) -> tuple:
    """Geometric schedule from (b-a)/8 down to the conditioning floor."""
    width = spec.b - spec.a
    floor = Y_FLOOR_FACTOR * width
    ys = []
    y = width / 8
    while y >= floor:
        ys.append(y)
        y /= 2
    return tuple(ys)


def boundary_values(spec: IntegralSpec, cfg: QuadConfig | None = None) -> RouteResult:
    """Extrapolate Phi(x0 +/- i y) to y = 0 separately for each sign, over
    default_y_schedule. The value is the real part of the mean of the two
    limits; detail holds them as "phi_plus" and "phi_minus", and the
    samples as "y_samples", (y, Phi(x0 + iy), Phi(x0 - iy)) triples."""
    ys = default_y_schedule(spec)
    upper, lower = [], []
    evals = 0
    converged = True
    for y in ys:
        ru = phi_at(spec, complex(spec.x0, y), cfg)
        rl = phi_at(spec, complex(spec.x0, -y), cfg)
        upper.append(ru.value)
        lower.append(rl.value)
        evals += ru.evals + rl.evals
        converged = converged and ru.converged and rl.converged
    eu = richardson_zero(np.array(ys), np.array(upper))
    el = richardson_zero(np.array(ys), np.array(lower))
    return RouteResult(0.5 * (eu.value + el.value).real, max(eu.err_estimate, el.err_estimate),
                       evals, converged and not (eu.diverged or el.diverged),
                       detail={"phi_plus": eu.value, "phi_minus": el.value,
                               "y_samples": tuple(zip(ys, upper, lower))})


def spf_identity_check(spec: IntegralSpec, path: ComplexPath | None = None, *,
                       cfg: QuadConfig | None = None) -> dict:
    """Compare boundary values against the opposite-side contour integrals
    along apv.contour_pair(spec, path), read from the contour-average route."""
    sides = apv_average(spec, path, cfg=cfg).diagnostics
    report = boundary_values(spec, cfg)
    out = {"phi_plus": report.detail["phi_plus"], "phi_minus": report.detail["phi_minus"],
           "int_plus": sides["int_plus"].value, "int_minus": sides["int_minus"].value,
           "extrapolation_err": report.err_estimate}
    out["max_abs_diff"] = max(abs(out["phi_plus"] - out["int_minus"]),
                              abs(out["phi_minus"] - out["int_plus"]))
    return out
