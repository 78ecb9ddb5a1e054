"""Seeded problem generators, solvers and answer checks for the benchmark.

Each workload turns a seed into a list of blocks of problems. A block is the
unit a run measures whole, so every run sees the same mix of problem kinds;
runs cycle through the blocks until their time is up. Solvers call apvint
through module attributes (``apv.apv_average``, ``cli.main``) so that the
tracer's wrappers, installed on those attributes, see every call.

A workload's problems are ones the program solves to the tolerance they
request, so any failure is a regression. Where the program has a known
defect next to a workload, the workload also has a defect probe: the same
problems solved the way that fails (library defaults at high n, the
extrapolation routes at n >= 1). Probes run outside the timed part, in the
traced run, and report how often the defect shows.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from apvint import apv, cli, cosexample, expr, paths, quadrature

ALL_ROUTES = "average,upper,lower,fox,series,spf"
EXACT_ROUTES = "average,upper,lower,series"  # the routes that adapt to the tolerance

# (rel, abs) tolerances a caller requests: the library and CLI defaults, what
# a principal-value (n = 0) cross-check with the extrapolation routes asks
# for, and the settings of acceptance criterion 10.
DEFAULT_TOL = (1e-10, 1e-12)
CPV_CROSS_TOL = (1e-8, 1e-10)
CRIT10_TOL = (1e-13, 1e-14)
CRIT10_CFG = quadrature.QuadConfig(rel_tol=CRIT10_TOL[0], abs_tol=CRIT10_TOL[1],
                                   max_subdivisions=4000)

_ENTIRE_FUNCS = ("sin", "cos", "exp", "sinh", "cosh")


@dataclass(frozen=True)
class Problem:
    """One finite-part problem; `call` is what the solver passes to apvint,
    `tol` the (rel, abs) tolerance it requests, and `probe` what the defect
    probe passes (requesting DEFAULT_TOL)."""

    source: str
    a: float
    b: float
    x0: float
    n: int
    poles: tuple = ()
    call: object = field(default=None, compare=False, repr=False)
    tol: tuple = field(default=DEFAULT_TOL, compare=False)
    probe: object = field(default=None, compare=False, repr=False)

    @property
    def key(self):
        return (self.source, self.a, self.b, self.x0, self.n, self.poles)


@dataclass
class Outcome:
    """What one problem returned: label -> (value, err_estimate, converged,
    error message), the CLI exit code, and the raw text for bit-identity."""

    results: dict
    exit_code: int | None = None
    text: str = ""

    def fingerprint(self) -> str:
        return repr((self.exit_code, sorted(self.results.items()), self.text))


def _spec(source_expr, a, b, x0, n, poles=()):
    decl = expr.AnalyticityDecl(declared_poles=tuple(poles), entire=not poles)
    return paths.IntegralSpec(f=source_expr, a=a, b=b, x0=x0, n=n, decl=decl)


def _report_result(rep) -> tuple:
    converged = all(bool(q.converged) for q in rep.diagnostics.values())
    return (float(rep.value), float(rep.err_estimate), converged, None)


def _error_result(exc: Exception) -> tuple:
    return (None, None, False, f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# routes-mix: the apv CLI, all six routes at n = 0, the exact four above

# Pole gap as a share of b - a; the last class puts x0 within 5% of an end.
# Higher n gets wider intervals and only the wider gaps: when the residue
# circle (radius gap / 2) is small, the residue quadrature hits its
# subdivision cap for some numerators and not others (2 s against 0.1 s per
# problem), which would make throughput depend on the draw. That cost is
# what high-order measures.
GAP_CLASSES = ((0.40, 0.50), (0.18, 0.30), (0.07, 0.12), (0.015, 0.04))
STRATA = tuple((n, g) for n, classes in enumerate((4, 4, 3, 2, 2)) for g in range(classes))
WIDTHS = ((0.8, 2.5), (0.8, 2.5), (2.0, 3.0), (2.0, 3.0), (2.0, 3.0))


def _entire_source(rng: random.Random) -> str:
    parts = [f"{rng.choice(_ENTIRE_FUNCS)}(z)", f"{rng.uniform(0.1, 9):.4g}", "z",
             f"z^{rng.randint(0, 4)}"]
    rng.shuffle(parts)
    ops = [rng.choice("+-*") for _ in range(3)]
    return f"({parts[0]} {ops[0]} {parts[1]}) {ops[1]} ({parts[2]} {ops[2]} {parts[3]})"


def _rational_source(rng: random.Random, x0: float, reach: float):
    """(g(z) + c) / ((z - p)(z - conj p)) with |p - x0| at least 1.8 times
    the interval reach, beyond the radius the series route samples."""
    rho = reach * rng.uniform(1.8, 2.6)
    phi = rng.uniform(0.5, math.pi - 0.5)
    pr, pi = round(x0 + rho * math.cos(phi), 4), round(rho * math.sin(phi), 4)
    c1, c0 = -2.0 * pr, pr * pr + pi * pi
    sign = "-" if c1 < 0 else "+"
    source = (f"({rng.choice(_ENTIRE_FUNCS)}(z) + {rng.uniform(0.5, 3):.3g}) / "
              f"(z^2 {sign} {abs(c1)!r}*z + {c0!r})")
    return source, (complex(pr, pi), complex(pr, -pi))


def _cli_argv(source, a, b, x0, n, poles, routes, tol) -> tuple:
    argv = ["--f", source, "-a", repr(a), "-b", repr(b), "--x0", repr(x0), "-n", str(n),
            "--routes", routes, "--rel-tol", repr(tol[0]), "--abs-tol", repr(tol[1]),
            "--format", "json"]
    if poles:
        argv.append("--poles=" + ",".join(
            f"{p.real!r}{'+' if p.imag >= 0 else ''}{p.imag!r}i" for p in poles))
    return tuple(argv)


def build_routes_mix(seed: int, blocks: int = 12) -> list:
    """Blocks with one problem per stratum (n, gap class); in each block one
    stratum per n gets a declared-pole rational numerator.

    A principal value (n = 0) runs all six routes at CPV_CROSS_TOL, which
    the fox and spf extrapolations meet. At n >= 1 they miss even that (by
    up to 1e-4 relative), so those problems run the four routes that adapt
    to DEFAULT_TOL. The probe runs all six routes at DEFAULT_TOL."""
    rng = random.Random(seed)
    out = []
    for _ in range(blocks):
        rational = {rng.choice([s for s in STRATA if s[0] == n]) for n in range(5)}
        block = []
        for n, g in STRATA:
            lo, hi = GAP_CLASSES[g]
            width = round(rng.uniform(*WIDTHS[n]), 4)
            a = round(-rng.uniform(0.2, 0.8) * width, 4)
            b = round(a + width, 4)
            gap = width * rng.uniform(lo, hi)
            x0 = round(a + gap if rng.random() < 0.5 else b - gap, 4)
            if (n, g) in rational:
                source, poles = _rational_source(rng, x0, max(x0 - a, b - x0))
            else:
                source, poles = _entire_source(rng), ()
            routes, tol = (ALL_ROUTES, CPV_CROSS_TOL) if n == 0 else (EXACT_ROUTES, DEFAULT_TOL)
            args = (source, a, b, x0, n, poles)
            block.append(Problem(*args, call=_cli_argv(*args, routes, tol), tol=tol,
                                 probe=_cli_argv(*args, ALL_ROUTES, DEFAULT_TOL)))
        rng.shuffle(block)
        out.append(block)
    return out


def solve_routes_mix(p: Problem):
    return _run_cli(p.call)


def probe_routes_mix(p: Problem):
    return _run_cli(p.probe)


def _run_cli(argv: tuple):
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    except Exception as exc:  # a crash is a failed problem, not a benchmark crash
        return time.perf_counter() - start, Outcome({"cli": _error_result(exc)})
    elapsed = time.perf_counter() - start
    text = out.getvalue()
    results = {}
    if text:
        for name, r in json.loads(text)["routes"].items():
            results[name] = (float(r["value"]), float(r["err_estimate"]),
                             bool(r["converged"]), None)
    return elapsed, Outcome(results, code, text)


# ---------------------------------------------------------------------------
# high-order: cos(z)/z^(n+1) on [-1, 1] at the criterion-10 settings


def build_high_order(seed: int, blocks: int = 5) -> list:
    """Blocks of two odd n, one from 21..59 and one from 61..101. The probe
    is `apv_average(spec)` with the library defaults, which is what `apv`
    runs and which misses at every such n."""
    rng = random.Random(seed)
    cos = expr.parse("cos(z)")
    low = rng.sample(range(21, 60, 2), blocks)
    high = rng.sample(range(61, 102, 2), blocks)
    return [[Problem("cos(z)", -1.0, 1.0, 0.0, n, (), n, CRIT10_TOL,
                     _spec(cos, -1.0, 1.0, 0.0, n))
             for n in pair] for pair in zip(low, high)]


def solve_high_order(p: Problem):
    start = time.perf_counter()
    try:
        result = (float(cosexample.cos_apv_reference(p.call, CRIT10_CFG)), None, True, None)
    except Exception as exc:
        result = _error_result(exc)
    return time.perf_counter() - start, Outcome({"criterion10": result})


def probe_high_order(p: Problem):
    start = time.perf_counter()
    try:
        result = _report_result(apv.apv_average(p.probe))
    except Exception as exc:
        result = _error_result(exc)
    return time.perf_counter() - start, Outcome({"default": result})


# ---------------------------------------------------------------------------
# collocation: many x0 for one f, n = 1


def _chebyshev_x0s(rng: random.Random, a: float, b: float, m: int) -> list:
    """Jittered Chebyshev points of the first kind, ascending in (a, b)."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return [round(mid - half * math.cos(math.pi * (j + 0.5 + rng.uniform(-0.25, 0.25)) / m), 6)
            for j in range(m)]


def build_collocation(seed: int, m: int = 24) -> list:
    """Four collocation systems on [-1, 1], alternately with an entire f and
    one with declared poles; each block is one system's loop over its x0.

    Both numerators keep f' >= 0.3 on [-1, 1], so that the residue term,
    f'(x0), is never small against f; where it is, the residue quadrature
    near an end hits its subdivision cap and one draw costs 100 times more
    than another.
    """
    rng = random.Random(seed)
    a, b = -1.0, 1.0
    out = []
    for poles_on in (False, True, False, True):
        # f' >= shift/e - amp*freq - 0.65*w >= 1.84 - 0.8 - 0.65 on [-1, 1]
        shift, amp, freq = rng.uniform(5.0, 7.0), rng.uniform(0.2, 0.4), rng.uniform(1.0, 2.0)
        source = f"{shift:.4g}*exp(z) + {amp:.4g}*sin({freq:.4g}*z)"
        poles = ()
        if poles_on:
            w, c0 = rng.uniform(0.5, 1.0), round(rng.uniform(1.0, 2.0), 4)
            source += f" + {w:.4g}/(z^2 + {c0!r})"
            poles = (complex(0, math.sqrt(c0)), complex(0, -math.sqrt(c0)))
        f = expr.parse(source)
        out.append([Problem(source, a, b, x0, 1, poles, _spec(f, a, b, x0, 1, poles))
                    for x0 in _chebyshev_x0s(rng, a, b, m)])
    return out


def solve_collocation(p: Problem):
    start = time.perf_counter()
    try:
        result = _report_result(apv.apv_average(p.call))
    except Exception as exc:
        result = _error_result(exc)
    return time.perf_counter() - start, Outcome({"average": result})


# ---------------------------------------------------------------------------
# checks


@dataclass
class Verdict:
    reasons: list  # (label, reason): error, unconverged, miss or exit<code>
    covered: int   # results whose |value - reference| <= err_estimate
    rated: int     # results that carry an err_estimate

    @property
    def failed(self) -> bool:
        return bool(self.reasons)


def check(outcome: Outcome, reference: float, tol: tuple) -> Verdict:
    """Compare every returned value with the reference, at the (rel, abs)
    tolerance the caller requested."""
    reasons, covered, rated = [], 0, 0
    if outcome.exit_code not in (None, 0):
        reasons.append(("cli", f"exit{outcome.exit_code}"))
    for label, (value, err, converged, error) in sorted(outcome.results.items()):
        if error is not None:
            reasons.append((label, "error"))
            continue
        if not converged:
            reasons.append((label, "unconverged"))
        miss = abs(value - reference)
        rel, absolute = tol
        if not miss <= max(absolute, rel * abs(reference)):
            reasons.append((label, "miss"))
        if err is not None:
            rated += 1
            covered += miss <= err
    return Verdict(reasons, covered, rated)


def near_endpoint(p: Problem) -> bool:
    return min(p.x0 - p.a, p.b - p.x0) < 0.05 * (p.b - p.a)


class Workload(NamedTuple):
    build: Callable        # seed -> blocks of problems
    solve: Callable        # problem -> (latency, Outcome)
    probe: Callable | None = None  # problem -> (latency, Outcome), the failing way
    probe_blocks: int = 0  # leading blocks the probe solves


WORKLOADS = {
    "routes-mix": Workload(build_routes_mix, solve_routes_mix, probe_routes_mix, 2),
    "high-order": Workload(build_high_order, solve_high_order, probe_high_order, 5),
    "collocation": Workload(build_collocation, solve_collocation),
}
