"""Contour-average principal values of hypersingular integrals.

The divergent integral of f(x)/(x-x0)^(n+1) over [a, b] is assigned the
average of two absolutely convergent contour integrals, taken along paths
passing above and below the pole. Equivalent one-path forms follow from the
residue of order n at x0, and the difference of the two one-sided integrals
gives the jump relation used as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .paths import Arc, ComplexPath, IntegralSpec, Line, classify_side, semicircle_path
from .quadrature import QuadConfig, integrate_on_path, integrate_path, singular_integrand

__all__ = [
    "ApvReport",
    "derivative_at_pole",
    "default_paths",
    "apv_average",
    "apv_upper",
    "apv_lower",
    "jump_relation_check",
    "report_to_dict",
]


@dataclass(frozen=True)
class ApvReport:
    value: float
    int_plus: complex | None
    int_minus: complex | None
    residue_term: complex  # f^(n)(x0) / n!
    route: str  # "average" | "upper" | "lower"
    imag_residual: float
    err_estimate: float
    evals: int
    diagnostics: dict = field(default_factory=dict, compare=False)


def _circle_path(x0: float, radius: float) -> ComplexPath:
    # full positively-oriented circle; 'side' is irrelevant here
    return ComplexPath((Arc(complex(x0), radius, -math.pi, math.pi),), "above")


def default_circle_radius(spec: IntegralSpec) -> float:
    r = spec.pole_gap / 2
    for p in spec.decl.declared_poles:
        r = min(r, abs(p - spec.x0) * 0.5)
    return r


def derivative_at_pole(spec: IntegralSpec, circle_radius: float | None = None,
                       cfg: QuadConfig | None = None, order: int | None = None) -> complex:
    """f^(k)(x0) / k! via the Cauchy integral on a circle about x0 (k = spec.n
    by default). Spectrally accurate for f analytic on the closed disk."""
    r = default_circle_radius(spec) if circle_radius is None else circle_radius
    if r <= 0:
        raise ValueError("circle radius must be positive")
    for p in spec.decl.declared_poles:
        if abs(p - spec.x0) <= r:
            raise ValueError(f"circle of radius {r} about x0 reaches declared pole {p}")
    res = integrate_on_path(singular_integrand(spec, order=order), _circle_path(spec.x0, r), cfg)
    return res.value / (2j * math.pi)


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
        if min(path.min_distance_to(p), back.min_distance_to(p)) <= 0.0:
            raise ValueError(f"declared pole {p} lies on the path or on [a, b]")
        if round((path.turn(p) + back.turn(p)) / (2 * math.pi)) != 0:
            raise ValueError(f"path {side} x0 encloses declared pole {p}")
    return path


def _contour_report(spec: IntegralSpec, route: str, path_plus: ComplexPath | None,
                    path_minus: ComplexPath | None, cfg: QuadConfig | None) -> ApvReport:
    """Integrate the sides `route` needs and assemble its report: the average
    of both sides, or one side plus (above) or minus (below) i*pi times the
    residue term."""
    rp = None if route == "lower" else integrate_path(
        spec, _checked_path(spec, path_plus, "above"), cfg)
    rm = None if route == "upper" else integrate_path(
        spec, _checked_path(spec, path_minus, "below"), cfg)
    residue = derivative_at_pole(spec, cfg=cfg)
    if route == "average":
        total = 0.5 * (rp.value + rm.value)
        err = 0.5 * (rp.err_estimate + rm.err_estimate)
    elif route == "upper":
        total, err = rp.value + 1j * math.pi * residue, rp.err_estimate
    else:
        total, err = rm.value - 1j * math.pi * residue, rm.err_estimate
    sides = {name: r for name, r in (("int_plus", rp), ("int_minus", rm)) if r is not None}
    return ApvReport(
        value=total.real,
        int_plus=None if rp is None else rp.value,
        int_minus=None if rm is None else rm.value,
        residue_term=residue,
        route=route,
        imag_residual=total.imag,
        err_estimate=err,
        evals=sum(r.evals for r in sides.values()),
        diagnostics=sides,
    )


def apv_average(spec: IntegralSpec, path_plus: ComplexPath | None = None,
                path_minus: ComplexPath | None = None,
                cfg: QuadConfig | None = None) -> ApvReport:
    """Two-path route: average of the above-path and below-path integrals."""
    return _contour_report(spec, "average", path_plus, path_minus, cfg)


def apv_upper(spec: IntegralSpec, path_plus: ComplexPath | None = None,
              cfg: QuadConfig | None = None) -> ApvReport:
    """One-path route using the above path plus i*pi times the residue term."""
    return _contour_report(spec, "upper", path_plus, None, cfg)


def apv_lower(spec: IntegralSpec, path_minus: ComplexPath | None = None,
              cfg: QuadConfig | None = None) -> ApvReport:
    """One-path route using the below path minus i*pi times the residue term."""
    return _contour_report(spec, "lower", None, path_minus, cfg)


def jump_relation_check(spec: IntegralSpec, path_plus: ComplexPath | None = None,
                        path_minus: ComplexPath | None = None,
                        cfg: QuadConfig | None = None) -> dict:
    """Residue-theorem consistency: Int- minus Int+ against 2*pi*i*residue."""
    rep = apv_average(spec, path_plus, path_minus, cfg)
    lhs = rep.int_minus - rep.int_plus
    rhs = 2j * math.pi * rep.residue_term
    return {"lhs": lhs, "rhs": rhs, "abs_diff": abs(lhs - rhs),
            "err_estimate": 2 * rep.err_estimate}


def report_to_dict(report: ApvReport) -> dict:
    """JSON-ready form of an ApvReport."""
    def c(v):
        return None if v is None else [v.real, v.imag]

    return {
        "value": report.value,
        "imag_residual": report.imag_residual,
        "int_plus": c(report.int_plus),
        "int_minus": c(report.int_minus),
        "residue_term": c(report.residue_term),
        "route": report.route,
        "err_estimate": report.err_estimate,
        "evals": report.evals,
    }
