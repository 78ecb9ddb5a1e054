"""Contour-average principal values of hypersingular integrals.

The divergent integral of f(x)/(x-x0)^(n+1) over [a, b] is assigned the
average of two absolutely convergent contour integrals, along one contour
and its mirror image, passing above and below the pole (contour_pair).
Equivalent one-path forms follow from the residue of order n at x0, and the
difference of the two one-sided integrals gives the jump relation used as a
cross-check. For a real f the residue is real, and is taken from the upper
half of its circle alone, since the lower half mirrors it (Schwarz reflection).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .expr import evaluate
from .paths import ComplexPath, IntegralSpec, Line, classify_side, semicircle_path
from .quadrature import QuadConfig, QuadResult, RouteResult, integrate_function, integrate_path

__all__ = [
    "derivative_at_pole",
    "contour_pair",
    "apv_average",
    "apv_upper",
    "apv_lower",
    "jump_relation_check",
]


def default_circle_radius(spec: IntegralSpec) -> float:
    """Half the distance from x0 to the nearest interval endpoint or declared pole."""
    return min(spec.pole_gap, spec.pole_distance) / 2


def derivative_at_pole(spec: IntegralSpec, cfg: QuadConfig | None = None) -> QuadResult:
    """The residue term f^(n)(x0) / n!: the mean of h = f(x0 + w)/w^n over
    the circle |w| = r = default_circle_radius (at most half way to any
    declared pole).

    A real f (Expr.is_real) has h(conj w) = conj h(w), so its residue is the
    mean of Re h over the upper half circle alone: exactly real, with
    abs_integral the mean of |Re h|. Re h itself is integrated, so that its
    size, not that of Im h, sets the tolerance. That half is w =
    i*r*e^(i*phi), phi in [-pi/2, pi/2]: a node's rounding grows with |phi|
    and shifts h by about n*|phi|*eps*|h|, so centring phi halves it. A
    complex f takes the full circle, w = r*e^(i*theta), theta in [-pi, pi].

    |K15 - G7| does not see that rounding, so the error reported is at
    least 2*eps*abs_integral, and the result is converged only if that
    meets the tolerance too.
    """
    cfg = cfg or QuadConfig()
    r = default_circle_radius(spec)

    def h(w):
        return evaluate(spec.f, spec.x0 + w) / w ** spec.n

    if spec.f.is_real:
        q = integrate_function(lambda phi: h(1j * r * np.exp(1j * phi)).real,
                               -math.pi / 2, math.pi / 2, cfg)
        length = math.pi
    else:
        q = integrate_function(lambda theta: h(r * np.exp(1j * theta)), -math.pi, math.pi, cfg)
        length = 2 * math.pi
    value, abs_integral = q.value / length, q.abs_integral / length
    err = max(q.err_estimate / length, 2 * math.ulp(1.0) * abs_integral)
    return replace(q, value=value, err_estimate=err, abs_integral=abs_integral,
                   converged=q.converged and err <= max(cfg.abs_tol, cfg.rel_tol * abs(value)))


def contour_pair(spec: IntegralSpec,
                 path: ComplexPath | None = None) -> tuple[ComplexPath, ComplexPath]:
    """The contours above and below x0 that the contour routes integrate:
    `path` (by default the semicircle of radius default_circle_radius) and its
    mirror image. A path below x0, as its winding says, is mirrored first."""
    if path is None:
        above = semicircle_path(spec, default_circle_radius(spec))
        return above, above.conjugate()
    a, b = complex(spec.a), complex(spec.b)
    if max(abs(path.start - a), abs(path.end - b)) > 1e-9 * max(1.0, abs(a) + abs(b)):
        raise ValueError(f"path runs from {path.start} to {path.end}, not from a={spec.a} "
                         f"to b={spec.b}")
    side = classify_side(path, spec.x0)
    if side == "invalid":
        raise ValueError("path classified as 'invalid': it must pass x0 once, above or below")
    above = path.conjugate() if side == "below" else path
    return above, above.conjugate()


def _checked_path(spec: IntegralSpec, path: ComplexPath, side: str) -> ComplexPath:
    """The path on `side` of x0, once it is shown to cut off no declared pole
    of f: none may lie in the loop it makes with the straight return from b
    to a. A pole set need not be mirror-symmetric, so each side is checked."""
    back = Line(complex(spec.b), complex(spec.a))
    for p in spec.decl.declared_poles:
        if path.min_distance_to(p) <= 0.0:
            raise ValueError(f"declared pole {p} lies on the path")
        if round((path.turn(p) + back.turn(p)) / (2 * math.pi)) != 0:
            raise ValueError(f"path {side} x0 encloses declared pole {p}")
    return path


def _contour_report(spec: IntegralSpec, route: str, path: ComplexPath | None,
                    cfg: QuadConfig | None) -> RouteResult:
    """Integrate the sides `route` needs and assemble its result: the average
    of both sides, or one side plus (above) or minus (below) i*pi times the
    residue term. The residue always counts in evals, and enters
    diagnostics only where it enters the value."""
    above, below = contour_pair(spec, path)
    rp = None if route == "lower" else integrate_path(
        spec, _checked_path(spec, above, "above"), cfg)
    rm = None if route == "upper" else integrate_path(
        spec, _checked_path(spec, below, "below"), cfg)
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


def apv_average(spec: IntegralSpec, path: ComplexPath | None = None, *,
                cfg: QuadConfig | None = None) -> RouteResult:
    """Two-path route: average of the above and below contours' integrals."""
    return _contour_report(spec, "average", path, cfg)


def apv_upper(spec: IntegralSpec, path: ComplexPath | None = None, *,
              cfg: QuadConfig | None = None) -> RouteResult:
    """One-path route: the above contour's integral plus i*pi times the residue term."""
    return _contour_report(spec, "upper", path, cfg)


def apv_lower(spec: IntegralSpec, path: ComplexPath | None = None, *,
              cfg: QuadConfig | None = None) -> RouteResult:
    """One-path route: the below contour's integral minus i*pi times the residue term."""
    return _contour_report(spec, "lower", path, cfg)


def jump_relation_check(spec: IntegralSpec, path: ComplexPath | None = None, *,
                        cfg: QuadConfig | None = None) -> dict:
    """Residue-theorem consistency: Int- minus Int+ against 2*pi*i*residue."""
    rep = apv_average(spec, path, cfg=cfg)
    lhs = rep.diagnostics["int_minus"].value - rep.diagnostics["int_plus"].value
    rhs = 2j * math.pi * rep.detail["residue_term"]
    return {"lhs": lhs, "rhs": rhs, "abs_diff": abs(lhs - rhs),
            "err_estimate": 2 * rep.err_estimate}
