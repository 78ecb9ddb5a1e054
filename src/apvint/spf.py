"""Boundary values of the off-axis integral transform and their identities.

Phi(z) = integral over [a, b] of f(x) / (x - z)^(n+1) dx is analytic off the
segment; its limits as z -> x0 from above/below are recovered here by
evaluating at x0 +/- i y over a decreasing y schedule and Richardson
extrapolation to y = 0. The limits differ by the residue jump and straddle
the principal value, and each equals the opposite-side contour integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .apv import apv_average
from .extrapolate import richardson_zero
from .paths import ComplexPath, IntegralSpec
from .quadrature import QuadConfig, QuadResult, integrate_function, singular_integrand

__all__ = [
    "BoundaryReport",
    "phi_at",
    "default_y_schedule",
    "boundary_values",
    "spf_identity_check",
    "boundary_report_to_dict",
]

Y_FLOOR_FACTOR = 1e-4  # conditioning floor for the y schedule, times (b - a)
EXTRAPOLATION_ORDER = 4  # Richardson columns over the y schedule


@dataclass(frozen=True)
class BoundaryReport:
    phi_plus: complex
    phi_minus: complex
    y_samples: tuple  # (y, phi(x0 + iy), phi(x0 - iy))
    extrapolation_err: float
    converged: bool
    evals: int


def phi_at(spec: IntegralSpec, z: complex, cfg: QuadConfig | None = None) -> QuadResult:
    """Integral of f(x)/(x - z)^(n+1) over the straight segment [a, b].

    z must lie off [a, b]. When z hovers near the segment the integrand peaks
    with width |Im z| around Re z, so the interval is pre-split geometrically
    around the peak before handing each piece to the adaptive rule.
    """
    cfg = cfg or QuadConfig()
    z = complex(z)
    if z.imag == 0.0 and spec.a <= z.real <= spec.b:
        raise ValueError(f"z = {z} lies on the integration segment [{spec.a}, {spec.b}]")
    g = singular_integrand(spec, center=z)
    cuts = _split_points(spec.a, spec.b, z)
    total = QuadResult(0j, 0.0, 0, True, 0.0)
    for lo, hi in zip(cuts, cuts[1:]):
        total = total + integrate_function(g, lo, hi, cfg)
    return total


def _split_points(a: float, b: float, z: complex):
    cuts = {a, b}
    x, y = z.real, abs(z.imag)
    if y > 0.0 and a < x < b:
        cuts.add(x)
        step = y
        while step < (b - a):
            for c in (x - step, x + step):
                if a < c < b:
                    cuts.add(c)
            step *= 2
    return sorted(cuts)


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


def boundary_values(spec: IntegralSpec, y_schedule=None,
                    cfg: QuadConfig | None = None) -> BoundaryReport:
    """Extrapolate Phi(x0 +/- i y) to y = 0 separately for each sign."""
    ys = tuple(default_y_schedule(spec) if y_schedule is None else y_schedule)
    if not ys or any(y <= 0 for y in ys) or any(b >= a for a, b in zip(ys, ys[1:])):
        raise ValueError("y schedule must be positive and strictly decreasing")
    floor = Y_FLOOR_FACTOR * (spec.b - spec.a)
    if ys[-1] < floor * (1 - 1e-12):
        raise ValueError(f"smallest y {ys[-1]} below conditioning floor {floor}")
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
    eu = richardson_zero(np.array(ys), np.array(upper), max_order=EXTRAPOLATION_ORDER)
    el = richardson_zero(np.array(ys), np.array(lower), max_order=EXTRAPOLATION_ORDER)
    return BoundaryReport(
        phi_plus=eu.value,
        phi_minus=el.value,
        y_samples=tuple(zip(ys, upper, lower)),
        extrapolation_err=max(eu.err_estimate, el.err_estimate),
        converged=converged and not (eu.diverged or el.diverged),
        evals=evals,
    )


def spf_identity_check(spec: IntegralSpec, path_plus: ComplexPath,
                       path_minus: ComplexPath, y_schedule=None,
                       cfg: QuadConfig | None = None) -> dict:
    """Compare boundary values against the opposite-side contour integrals,
    read from the contour-average route (which checks each path's side)."""
    contours = apv_average(spec, path_plus, path_minus, cfg)
    report = boundary_values(spec, y_schedule, cfg)
    d1 = abs(report.phi_plus - contours.int_minus)
    d2 = abs(report.phi_minus - contours.int_plus)
    return {
        "max_abs_diff": max(d1, d2),
        "phi_plus": report.phi_plus,
        "phi_minus": report.phi_minus,
        "int_plus": contours.int_plus,
        "int_minus": contours.int_minus,
        "extrapolation_err": report.extrapolation_err,
    }


def boundary_report_to_dict(report: BoundaryReport) -> dict:
    return {
        "phi_plus": [report.phi_plus.real, report.phi_plus.imag],
        "phi_minus": [report.phi_minus.real, report.phi_minus.imag],
        "extrapolation_err": report.extrapolation_err,
        "converged": report.converged,
        "evals": report.evals,
        "y_samples": [[y, [u.real, u.imag], [l.real, l.imag]]
                      for y, u, l in report.y_samples],
    }
