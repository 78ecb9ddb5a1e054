"""Command-line front end.

Parses a problem statement, runs the requested routes, cross-checks them
pairwise and emits a text, JSON or CSV report.

Exit codes: 0 all routes agree, 1 usage or parse error, 2 route disagreement,
3 numerical failure (non-convergence, or a value that is not finite).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from . import classical, spf
from .apv import (apv_average, apv_lower, apv_upper, default_paths,
                  report_to_dict)
from .expr import AnalyticityDecl, ParseError, parse, validate_region
from .paths import IntegralSpec, classify_side, path_from_dict, semicircle_path
from .quadrature import QuadConfig, singular_integrand

ROUTES = ("average", "upper", "lower", "fox", "series", "spf")

# The contour routes, given both paths. Each looks its function up in this
# module when called, so a wrapper bound to the module's name sees the call.
_CONTOUR_ROUTES = {
    "average": lambda spec, plus, minus, cfg: apv_average(spec, plus, minus, cfg),
    "upper": lambda spec, plus, minus, cfg: apv_upper(spec, plus, cfg),
    "lower": lambda spec, plus, minus, cfg: apv_lower(spec, minus, cfg),
}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREE = 2
EXIT_NUMERICAL = 3


class CliError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="apv",
        description="Evaluate principal values / finite parts of f(x)/(x-x0)^(n+1) "
                    "on [a, b] by contour-integral and classical routes.")
    p.add_argument("--f", required=True, metavar="EXPR",
                   help="integrand numerator, e.g. 'cos(z)' or '1/(1+z^2)'")
    p.add_argument("-a", type=float, required=True, help="lower endpoint")
    p.add_argument("-b", type=float, required=True, help="upper endpoint")
    p.add_argument("--x0", type=float, required=True, help="pole location, a < x0 < b")
    p.add_argument("-n", type=int, default=0, help="pole order minus one (n >= 0)")
    p.add_argument("--routes", default="average",
                   help=f"comma-separated subset of {','.join(ROUTES)}")
    p.add_argument("--path-eps", type=float, default=None,
                   help="semicircle indentation radius for the contour routes")
    p.add_argument("--path-file", default=None, metavar="FILE.json",
                   help="JSON path description of one contour; its side of x0 is read "
                        "from its winding, and its mirror image is the other contour")
    p.add_argument("--poles", default=None,
                   help="comma-separated declared poles of f, e.g. 'i,-i,2+1i'")
    p.add_argument("--rel-tol", type=float, default=1e-10)
    p.add_argument("--abs-tol", type=float, default=1e-12)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--emit-integrand", default=None, metavar="FILE.csv",
                   help="dump (theta, Re g, Im g) samples of the above-path integrand")
    return p


def _parse_complex(text: str) -> complex:
    text = text.strip().replace("i", "j")
    if text in ("j", "+j"):
        return 1j
    if text == "-j":
        return -1j
    # accept bare reals and python-style complex
    try:
        return complex(text)
    except ValueError as exc:
        raise CliError(f"cannot parse complex number {text!r}") from exc


def _build_problem(args) -> tuple[IntegralSpec, QuadConfig]:
    try:
        f = parse(args.f)
    except ParseError as exc:
        raise CliError(f"invalid expression: {exc}") from exc
    poles = []
    if args.poles:
        poles = [_parse_complex(tok) for tok in args.poles.split(",") if tok.strip()]
    decl = AnalyticityDecl(declared_poles=tuple(poles), entire=not poles)
    try:
        spec = IntegralSpec(f=f, a=args.a, b=args.b, x0=args.x0, n=args.n, decl=decl)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    violation = validate_region(decl, spec)
    if violation is not None:
        raise CliError(f"analyticity region violation: {violation}")
    try:
        cfg = QuadConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return spec, cfg


def _contour_paths(args, spec: IntegralSpec):
    if args.path_file:
        try:
            with open(args.path_file) as fh:
                loaded = path_from_dict(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CliError(f"--path-file {args.path_file}: {type(exc).__name__}: {exc}") from exc
        if classify_side(loaded, spec.x0) == "below":
            return loaded.conjugate(), loaded
        return loaded, loaded.conjugate()
    if args.path_eps is not None:
        try:
            return (semicircle_path(spec, args.path_eps, "above"),
                    semicircle_path(spec, args.path_eps, "below"))
        except ValueError as exc:
            raise CliError(f"--path-eps {args.path_eps}: {exc}") from exc
    return default_paths(spec)


def _run_routes(args, spec: IntegralSpec, cfg: QuadConfig) -> dict:
    names = [r.strip() for r in args.routes.split(",") if r.strip()]
    if not names:
        raise CliError("--routes must name at least one route")
    for name in names:
        if name not in ROUTES:
            raise CliError(f"unknown route {name!r}; choose from {', '.join(ROUTES)}")
    plus, minus = _contour_paths(args, spec)
    results = {}
    for name in names:
        if name in _CONTOUR_ROUTES:
            rep = _CONTOUR_ROUTES[name](spec, plus, minus, cfg)
            results[name] = {"value": rep.value, "err_estimate": rep.err_estimate,
                             "evals": rep.evals, "converged": _report_ok(rep),
                             "report": report_to_dict(rep)}
        elif name == "fox":
            out = classical.fox_limit(spec, cfg=cfg)
            results[name] = {"value": out["value"], "err_estimate": out["err_estimate"],
                             "evals": 0, "converged": out["converged"]}
        elif name == "series":
            value = classical.series_fpi(classical.taylor_from_expr(spec), spec)
            results[name] = {"value": value, "err_estimate": 1e-14, "evals": 0,
                             "converged": True}
        elif name == "spf":
            rep = spf.boundary_values(spec, cfg=cfg)
            value = 0.5 * (rep.phi_plus + rep.phi_minus).real
            results[name] = {"value": value, "err_estimate": rep.extrapolation_err,
                             "evals": rep.evals, "converged": rep.converged,
                             "report": spf.boundary_report_to_dict(rep)}
    for r in results.values():  # a value that is not finite has not converged
        r["converged"] = r["converged"] and math.isfinite(r["value"])
    return results


def _report_ok(rep) -> bool:
    return all(q.converged for q in rep.diagnostics.values())


def _agreement(results: dict) -> dict:
    names = list(results)
    threshold = max(1e-8, 10 * sum(r["err_estimate"] for r in results.values()))
    # a value that is not finite agrees with nothing, not even when alone
    bad = [name for name in names if not math.isfinite(results[name]["value"])]
    worst_pair, worst = (bad, math.nan) if bad else (None, 0.0)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            d = abs(results[names[i]]["value"] - results[names[j]]["value"])
            if d > worst:
                worst, worst_pair = d, [names[i], names[j]]
    return {"ok": worst <= threshold, "worst_pair": worst_pair,
            "abs_diff": worst, "threshold": threshold}


def emit_report(args, spec: IntegralSpec, results: dict, agreement: dict, out=None):
    out = sys.stdout if out is None else out
    if args.format == "json":
        doc = {
            "spec": {"f": args.f, "a": spec.a, "b": spec.b, "x0": spec.x0, "n": spec.n,
                     "poles": [[p.real, p.imag] for p in spec.decl.declared_poles]},
            "routes": results,
            "agreement": agreement,
        }
        json.dump(doc, out, indent=2)
        out.write("\n")
    elif args.format == "csv":
        writer = csv.writer(out)
        writer.writerow(["route", "value", "err_estimate", "evals"])
        for name, r in results.items():
            writer.writerow([name, repr(r["value"]), repr(r["err_estimate"]), r["evals"]])
    else:
        out.write(f"f(x)/(x-x0)^{spec.n + 1} on [{spec.a}, {spec.b}], "
                  f"x0 = {spec.x0}, f = {args.f}\n")
        out.write(f"{'route':<10}{'value':>24}{'err_estimate':>16}{'evals':>10}\n")
        for name, r in results.items():
            out.write(f"{name:<10}{r['value']:>24.15g}{r['err_estimate']:>16.3g}"
                      f"{r['evals']:>10}\n")
        if agreement["ok"]:
            out.write("routes agree within tolerance\n")
        else:
            out.write(f"DISAGREEMENT: {agreement['worst_pair']} differ by "
                      f"{agreement['abs_diff']:.3g} (threshold {agreement['threshold']:.3g})\n")


def _emit_integrand(args, spec: IntegralSpec):
    import numpy as np

    plus, _ = _contour_paths(args, spec)
    integrand = singular_integrand(spec)
    rows = []
    for seg in plus.segments:
        lo, hi = seg.param_interval
        ts = np.linspace(lo, hi, 512)
        g = integrand(seg.point(ts)) * seg.derivative(ts)
        rows.extend(zip(ts.tolist(), g.real.tolist(), g.imag.tolist()))
    with open(args.emit_integrand, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta", "re", "im"])
        writer.writerows(rows)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        spec, cfg = _build_problem(args)
        results = _run_routes(args, spec, cfg)
        if args.emit_integrand:
            _emit_integrand(args, spec)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    agreement = _agreement(results)
    emit_report(args, spec, results, agreement)
    if any(not r["converged"] for r in results.values()):
        return EXIT_NUMERICAL
    if not agreement["ok"]:
        return EXIT_DISAGREE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
