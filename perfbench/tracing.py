"""Span tracing of apvint's public functions, from outside the library.

`Tracer` wraps every public function of each apvint module and installs the
wrapper under every name that binds the function in any apvint module: a
module that does ``from .expr import evaluate`` calls its own binding, so
patching only ``apvint.expr.evaluate`` would miss it. Nothing under ``src/``
changes, and `restore` puts every original back.

Spans are kept in memory as parallel arrays (name, start, end, parent span,
problem id, plus a size: points for ``evaluate``, panels for
``integrate_function``). A span's self time is its duration minus the time
its direct child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("expr", "paths", "quadrature", "apv", "classical", "spf",
           "cosexample", "cli", "extrapolate")

# path constructors whose self time makes up "paths.build"
PATH_BUILDERS = ("paths.semicircle_path", "paths.semicircle_bulge_path",
                 "paths.path_from_dict")

_PANEL_POINTS = 15  # one (G7, K15) panel evaluates the integrand 15 times


def _size_of(name, args, result):
    """Work count recorded with a span, and whether the call fell short."""
    if name == "expr.evaluate":
        return float(np.size(args[1])), False
    if name == "quadrature.integrate_function":
        return result.evals / _PANEL_POINTS, not result.converged
    return 0.0, False


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.problem = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("d")
        self.short = array("b")
        self.problem_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self):
        originals = {}
        for short in MODULES:
            module = sys.modules[f"apvint.{short}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    originals[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for module_name, module in list(sys.modules.items()):
            if module_name != "apvint" and not module_name.startswith("apvint."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def restore(self):
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, name, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.problem.append(self.problem_id)
            self.end.append(0.0)
            self.size.append(0.0)
            self.short.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            size, short = _size_of(name, args, result)
            self.size[idx] = size
            self.short[idx] = short
            return result

        return traced

    # -- aggregation --------------------------------------------------------

    def totals(self) -> dict:
        """Per function name: calls, inclusive seconds, self seconds, summed
        size and count of calls that fell short (unconverged)."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        covered = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        own = dur - covered
        size = np.frombuffer(self.size, dtype=float)
        short = np.frombuffer(self.short, dtype=np.int8)
        out = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            if mask.any():
                out[name] = {"calls": int(mask.sum()), "s": float(dur[mask].sum()),
                             "self_s": float(own[mask].sum()),
                             "size": float(size[mask].sum()),
                             "short": int(short[mask].sum())}
        return out

    def residue_use(self) -> tuple[int, int]:
        """(residues whose value enters a returned result, residues computed).

        ``apv_average`` computes the residue term and drops it; every other
        caller (the one-path routes, fox_limit's derivatives, the jump check)
        uses it.
        """
        if "apv.derivative_at_pole" not in self._name_ids:
            return 0, 0
        res_id = self._name_ids["apv.derivative_at_pole"]
        avg_id = self._name_ids.get("apv.apv_average", -1)
        computed = used = 0
        for nid, parent in zip(self.name_id, self.parent):
            if nid == res_id:
                computed += 1
                used += parent < 0 or self.name_id[parent] != avg_id
        return used, computed


def layer_metrics(tracer: Tracer, problems: int, busy_s: float, src) -> dict:
    """Per-layer metrics, per traced problem where they are counts or times.

    `busy_s` is the summed latency of the traced problems; `src` is the
    directory holding the apvint package, for the line counts.
    """
    totals = tracer.totals()

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    def per_problem(name, key, unit):
        return (get(name, key) / problems, unit)

    evaluate_calls = get("expr.evaluate", "calls")
    used, computed = tracer.residue_use()
    out = {
        "expr.evaluate.calls": per_problem("expr.evaluate", "calls", "calls/problem"),
        "expr.evaluate.points": per_problem("expr.evaluate", "size", "points/problem"),
        "expr.evaluate.self_s": per_problem("expr.evaluate", "self_s", "s/problem"),
        "expr.evaluate.points_per_call": (
            get("expr.evaluate", "size") / evaluate_calls if evaluate_calls else 0.0,
            "points/call"),
        "expr.parse.self_s": per_problem("expr.parse", "self_s", "s/problem"),
        "quadrature.integrate_function.calls": per_problem(
            "quadrature.integrate_function", "calls", "calls/problem"),
        "quadrature.integrate_function.self_s": per_problem(
            "quadrature.integrate_function", "self_s", "s/problem"),
        "quadrature.panels": per_problem("quadrature.integrate_function", "size",
                                         "panels/problem"),
        "quadrature.unconverged": per_problem("quadrature.integrate_function", "short",
                                              "count/problem"),
        "apv.derivative_at_pole.calls": per_problem("apv.derivative_at_pole", "calls",
                                                    "calls/problem"),
        "apv.derivative_at_pole.s": per_problem("apv.derivative_at_pole", "s", "s/problem"),
        "apv.residue_share": (get("apv.derivative_at_pole", "s") / busy_s, "ratio"),
        "apv.residue_used_ratio": (used / computed if computed else 0.0, "ratio"),
        "paths.build.self_s": (sum(get(name, "self_s") for name in PATH_BUILDERS) / problems,
                               "s/problem"),
        "paths.classify_side.calls": per_problem("paths.classify_side", "calls",
                                                 "calls/problem"),
        "paths.classify_side.self_s": per_problem("paths.classify_side", "self_s",
                                                  "s/problem"),
        "classical.fox_limit.s": per_problem("classical.fox_limit", "s", "s/problem"),
        "classical.integrate_real_segment.calls": per_problem(
            "quadrature.integrate_real_segment", "calls", "calls/problem"),
        "classical.taylor_from_expr.s": per_problem("classical.taylor_from_expr", "s",
                                                    "s/problem"),
        "spf.boundary_values.s": per_problem("spf.boundary_values", "s", "s/problem"),
        "spf.phi_at.calls": per_problem("spf.phi_at", "calls", "calls/problem"),
        "extrapolate.richardson_zero.self_s": per_problem("extrapolate.richardson_zero",
                                                          "self_s", "s/problem"),
        "cli.main.self_s": per_problem("cli.main", "self_s", "s/problem"),
    }
    for module in MODULES:
        with open(f"{src}/apvint/{module}.py", encoding="utf-8") as fh:
            out[f"{module}.loc"] = (float(sum(1 for _ in fh)), "lines")
    return out
