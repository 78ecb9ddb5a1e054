"""Tests of the benchmark itself: references, generators, checks, tracing.

    python -m pytest perfbench -q
"""

import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import apvint  # noqa: E402
from apvint import expr, quadrature  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402


def _load_oracles():
    spec = importlib.util.spec_from_file_location("apvint_test_oracles",
                                                  ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ORACLES = _load_oracles()


# -- references ---------------------------------------------------------------

@pytest.mark.parametrize("n, closed_form", [(1, ORACLES.COS_FPI_N1), (3, ORACLES.COS_FPI_N3)])
def test_reference_reproduces_cos_closed_forms(n, closed_form):
    assert reference.finite_part("cos(z)", -1.0, 1.0, 0.0, n) == pytest.approx(closed_form,
                                                                              rel=1e-14)


@pytest.mark.parametrize("a, b", [(-1.0, 2.0), (-0.5, 1.5), (-2.0, 0.25)])
def test_reference_reproduces_exp_cpv_series(a, b):
    assert reference.finite_part("exp(z)", a, b, 0.0, 0) == pytest.approx(
        ORACLES.exp_cpv_series(a, b), rel=1e-14)


def test_reference_does_not_depend_on_the_pole_declaration():
    # a declared pole only shrinks the bulge; the finite part is path independent
    args = ("1/(1+z^2)", -0.5, 0.5, 0.1, 1)
    assert reference.finite_part(*args, poles=(1j, -1j)) == pytest.approx(
        reference.finite_part(*args, poles=(0.3j,)), rel=1e-14)


def test_mp_eval_matches_library_evaluate():
    import mpmath as mp
    problems = [p for block in W.build_routes_mix(3) for p in block]
    problems += [blk[0] for blk in W.build_collocation(3)]
    for p in problems:
        z = complex(p.x0, 0.3)
        want = expr.evaluate(expr.parse(p.source), z)
        got = complex(reference.mp_eval(expr.parse(p.source).ast, mp.mpc(z.real, z.imag)))
        assert got == pytest.approx(want, rel=1e-12), p.source


# -- generators ---------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    build = W.WORKLOADS[name].build

    def keys(seed):
        return [[p.key for p in block] for block in build(seed)]

    assert keys(5) == keys(5)
    assert keys(5) != keys(6)


def test_routes_mix_blocks_share_one_composition():
    for block in W.build_routes_mix(7):
        assert sorted(p.n for p in block) == sorted(n for n, _ in W.STRATA)
        assert sum(bool(p.poles) for p in block) == 5
        assert sum(W.near_endpoint(p) for p in block) == sum(g == 3 for _, g in W.STRATA)
        for p in block:
            assert p.a < p.x0 < p.b
            reach = max(p.x0 - p.a, p.b - p.x0)
            assert all(abs(q - p.x0) >= 1.7 * reach for q in p.poles)
            routes = W.ALL_ROUTES if p.n == 0 else W.EXACT_ROUTES
            assert p.tol == (W.CPV_CROSS_TOL if p.n == 0 else W.DEFAULT_TOL)
            call = dict(zip(p.call[::2], p.call[1::2]))
            assert (call["--routes"], call["--rel-tol"]) == (routes, repr(p.tol[0]))
            probe = dict(zip(p.probe[::2], p.probe[1::2]))
            assert (probe["--routes"], probe["--rel-tol"]) == (W.ALL_ROUTES, "1e-10")


def test_high_order_and_collocation_shapes():
    for lo, hi in W.build_high_order(2):
        assert 21 <= lo.n <= 59 and 61 <= hi.n <= 101 and lo.n % 2 == hi.n % 2 == 1
        assert lo.tol == W.CRIT10_TOL and lo.probe.n == lo.n
    blocks = W.build_collocation(2)
    assert [all(p.poles for p in blk) for blk in blocks] == [False, True, False, True]
    assert not any(p.poles for p in blocks[0])
    for block in blocks:
        x0s = [p.x0 for p in block]
        assert x0s == sorted(x0s) and len(set(x0s)) == len(x0s)
        assert all(-1.0 < x < 1.0 and p.n == 1 for x, p in zip(x0s, block))
        assert sum(W.near_endpoint(p) for p in block) >= len(block) // 5


# -- checks -------------------------------------------------------------------

def test_check_counts_misses_and_error_coverage():
    outcome = W.Outcome({"default": (1.0 + 1e-6, 1e-9, True, None),
                         "criterion10": (1.0, None, True, None)})
    verdict = W.check(outcome, 1.0, W.DEFAULT_TOL)
    assert verdict.reasons == [("default", "miss")] and verdict.failed
    assert (verdict.covered, verdict.rated) == (0, 1)
    verdict = W.check(W.Outcome({"fox": (1.0 + 1e-9, 1e-3, True, None)}), 1.0, W.CPV_CROSS_TOL)
    assert not verdict.failed and (verdict.covered, verdict.rated) == (1, 1)
    assert W.check(W.Outcome({"fox": (1.0 + 1e-9, 1e-3, True, None)}), 1.0,
                   W.DEFAULT_TOL).reasons == [("fox", "miss")]
    unconverged = W.Outcome({"average": (1.0, 0.0, False, None)}, exit_code=3)
    assert W.check(unconverged, 1.0, W.DEFAULT_TOL).reasons == [("cli", "exit3"),
                                                                ("average", "unconverged")]
    crashed = W.Outcome({"cli": (None, None, False, "EvalError: boom")})
    assert W.check(crashed, 1.0, W.DEFAULT_TOL).reasons == [("cli", "error")]


def test_defect_probe_shows_the_default_way_miss_at_high_n():
    problem = next(p for block in W.build_high_order(1) for p in block if p.n >= 61)
    _, outcome = W.probe_high_order(problem)
    ref = reference.finite_part(problem.source, -1.0, 1.0, 0.0, problem.n)
    assert W.check(outcome, ref, W.DEFAULT_TOL).reasons == [("default", "miss")]


def test_tail_percentile_keeps_ten_samples_beyond():
    pct, value = run.tail(list(range(1, 101)))
    assert (pct, value) == (90.0, 90)
    assert run.tail([3.0, 1.0, 2.0, 4.0]) == (50.0, 2.5)
    assert run.tail(list(range(1, 5001))) == (95.0, 4750)


# -- tracing ------------------------------------------------------------------

def test_tracer_wraps_every_binding_and_restores_it():
    original = expr.evaluate
    assert quadrature.evaluate is original
    spec = W.build_collocation(1)[0][0].call
    with Tracer() as tracer:
        assert expr.evaluate is not original
        assert quadrature.evaluate is expr.evaluate
        assert apvint.apv_average is apvint.apv.apv_average
        apvint.apv.apv_average(spec)
    assert expr.evaluate is original and quadrature.evaluate is original
    totals = tracer.totals()
    assert totals["expr.evaluate"]["calls"] == totals["quadrature.integrate_function"]["size"]
    top = totals["apv.apv_average"]
    assert top["calls"] == 1
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(top["s"], rel=1e-6)
    assert tracer.residue_use() == (0, 1)


@pytest.mark.parametrize("name, take", [("routes-mix", 3), ("collocation", 6),
                                        ("high-order", 1)])
def test_traced_answers_are_bit_identical(name, take):
    build, solve = W.WORKLOADS[name][:2]
    problems = [p for block in build(4) for p in block]
    if name == "routes-mix":  # n = 0, the problems that run all six routes
        problems = [p for p in problems if p.n == 0]
    records = [(p, 0.0, None) for p in problems[:take]]
    speed = run.SpeedProbe()
    untraced, _ = run.replay(solve, records, speed)
    tracer = Tracer()
    with tracer:
        traced, _ = run.replay(solve, records, speed, tracer)
    assert [r[2].fingerprint() for r in untraced] == [r[2].fingerprint() for r in traced]
    metrics = layer_metrics(tracer, len(traced), sum(r[1] for r in traced), ROOT / "src")
    assert metrics["expr.evaluate.calls"][0] > 0
    assert metrics["apv.derivative_at_pole.calls"][0] > 0
    if name == "routes-mix":
        assert metrics["cli.main.self_s"][0] > 0
        assert metrics["spf.phi_at.calls"][0] > 0
        assert 0 < metrics["apv.residue_used_ratio"][0] < 1
    else:
        assert metrics["apv.residue_used_ratio"][0] == 0.0
    assert set(tracer.problem) == set(range(len(records)))


# -- the command ------------------------------------------------------------------

def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "collocation",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "{" not in done.stdout


@pytest.mark.parametrize("trace, listed", [(0, "end_to_end"), (1, "per_layer")])
def test_short_run_prints_one_result_line(trace, listed):
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "collocation",
                           "--seed", "1", "--seconds", "0.5", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["attempted"] >= 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in bench[listed]}
    assert all(math.isfinite(m["value"]) for m in doc["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in doc["metrics"].values())
