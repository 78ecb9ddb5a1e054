"""Contour-average principal values of hypersingular integrals.

The divergent integral of f(x)/(x-x0)^(n+1) over [a, b] is assigned the
average of two absolutely convergent contour integrals, taken along paths
passing above and below the pole. Equivalent one-path forms follow from the
residue of order n at x0, and the difference of the two one-sided integrals
gives the jump relation used as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .paths import Arc, ComplexPath, IntegralSpec, Line, classify_side, semicircle_path
from .quadrature import (QuadConfig, QuadResult, RouteResult, integrate_on_path, integrate_path,
                         singular_integrand)

__all__ = [
    "derivative_at_pole",
    "default_paths",
    "apv_average",
    "apv_upper",
    "apv_lower",
    "jump_relation_check",
]


def default_circle_radius(spec: IntegralSpec) -> float:
    """Half the distance from x0 to the nearest interval endpoint or declared pole."""
    return min(spec.pole_gap, spec.pole_distance) / 2


def derivative_at_pole(spec: IntegralSpec, cfg: QuadConfig | None = None) -> QuadResult:
    """The residue term f^(n)(x0) / n!, as the QuadResult of the Cauchy
    integral of f(z)/(z-x0)^(n+1) over the full circle of radius
    default_circle_radius about x0 (which keeps at most half way to any
    declared pole), scaled by 1/(2*pi*i)."""
    circle = ComplexPath((Arc(complex(spec.x0), default_circle_radius(spec), -math.pi, math.pi),))
    q = integrate_on_path(singular_integrand(spec), circle, cfg)
    return replace(q, value=q.value / (2j * math.pi), err_estimate=q.err_estimate / (2 * math.pi),
                   abs_integral=q.abs_integral / (2 * math.pi))


def default_paths(spec: IntegralSpec) -> tuple[ComplexPath, ComplexPath]:
    """Semicircle-indented paths above and below, of radius default_circle_radius."""
    eps = default_circle_radius(spec)
    return (semicircle_path(spec, eps, "above"), semicircle_path(spec, eps, "below"))


def _checked_path(spec: IntegralSpec, path: ComplexPath | None, side: str) -> ComplexPath:
    """The given path, or the default semicircle, once it is shown to run from a
    to b on `side` of x0 and to cut off no declared pole of f.

    A pole is cut off when the loop made of the path and the straight return
    from b to a winds around it.
    """
    if path is None:
        path = semicircle_path(spec, default_circle_radius(spec), side)
    a, b = complex(spec.a), complex(spec.b)
    if max(abs(path.start - a), abs(path.end - b)) > 1e-9 * max(1.0, abs(a) + abs(b)):
        raise ValueError(f"path runs from {path.start} to {path.end}, not from a={spec.a} "
                         f"to b={spec.b}")
    got = classify_side(path, spec.x0)
    if got != side:
        raise ValueError(f"path classified as {got!r}, expected {side!r}")
    back = Line(b, a)
    for p in spec.decl.declared_poles:
        if path.min_distance_to(p) <= 0.0:
            raise ValueError(f"declared pole {p} lies on the path")
        if round((path.turn(p) + back.turn(p)) / (2 * math.pi)) != 0:
            raise ValueError(f"path {side} x0 encloses declared pole {p}")
    return path


def _contour_report(spec: IntegralSpec, route: str, path_plus: ComplexPath | None,
                    path_minus: ComplexPath | None, cfg: QuadConfig | None) -> RouteResult:
    """Integrate the sides `route` needs and assemble its result: the average
    of both sides, or one side plus (above) or minus (below) i*pi times the
    residue term. The residue always counts in evals, and enters
    diagnostics only where it enters the value."""
    rp = None if route == "lower" else integrate_path(
        spec, _checked_path(spec, path_plus, "above"), cfg)
    rm = None if route == "upper" else integrate_path(
        spec, _checked_path(spec, path_minus, "below"), cfg)
    residue = derivative_at_pole(spec, cfg=cfg)
    if route == "average":
        total = 0.5 * (rp.value + rm.value)
        err = 0.5 * (rp.err_estimate + rm.err_estimate)
        pieces = {"int_plus": rp, "int_minus": rm}
    elif route == "upper":
        total = rp.value + 1j * math.pi * residue.value
        err = rp.err_estimate + math.pi * residue.err_estimate
        pieces = {"int_plus": rp, "residue": residue}
    else:
        total = rm.value - 1j * math.pi * residue.value
        err = rm.err_estimate + math.pi * residue.err_estimate
        pieces = {"int_minus": rm, "residue": residue}
    return RouteResult(total.real, err, sum(q.evals for q in (rp, rm, residue) if q is not None),
                       all(q.converged for q in pieces.values()), pieces,
                       {"residue_term": residue.value, "imag_residual": total.imag})


def apv_average(spec: IntegralSpec, path_plus: ComplexPath | None = None,
                path_minus: ComplexPath | None = None,
                cfg: QuadConfig | None = None) -> RouteResult:
    """Two-path route: average of the above-path and below-path integrals."""
    return _contour_report(spec, "average", path_plus, path_minus, cfg)


def apv_upper(spec: IntegralSpec, path_plus: ComplexPath | None = None,
              cfg: QuadConfig | None = None) -> RouteResult:
    """One-path route using the above path plus i*pi times the residue term."""
    return _contour_report(spec, "upper", path_plus, None, cfg)


def apv_lower(spec: IntegralSpec, path_minus: ComplexPath | None = None,
              cfg: QuadConfig | None = None) -> RouteResult:
    """One-path route using the below path minus i*pi times the residue term."""
    return _contour_report(spec, "lower", None, path_minus, cfg)


def jump_relation_check(spec: IntegralSpec, path_plus: ComplexPath | None = None,
                        path_minus: ComplexPath | None = None,
                        cfg: QuadConfig | None = None) -> dict:
    """Residue-theorem consistency: Int- minus Int+ against 2*pi*i*residue."""
    rep = apv_average(spec, path_plus, path_minus, cfg)
    lhs = rep.diagnostics["int_minus"].value - rep.diagnostics["int_plus"].value
    rhs = 2j * math.pi * rep.detail["residue_term"]
    return {"lhs": lhs, "rhs": rhs, "abs_diff": abs(lhs - rhs),
            "err_estimate": 2 * rep.err_estimate}

