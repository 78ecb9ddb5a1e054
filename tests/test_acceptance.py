"""End-to-end acceptance checks.

Eleven cross-route criteria, each printed as a single PASS/FAIL line.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete; under plain pytest the verdicts still show up in captured output on
failure.
"""

import math
import random
import time

import numpy as np
import pytest

from apvint.apv import apv_average, apv_lower, apv_upper, jump_relation_check
from apvint.classical import fox_limit, series_fpi
from apvint.cosexample import cos_apv_reference, cos_fpi_asymptotic
from apvint.expr import evaluate, parse, to_source
from apvint.paths import classify_side, semicircle_path
from apvint.quadrature import QuadConfig, integrate_real_segment
from apvint.spf import boundary_values, phi_at

from conftest import (COS_FPI_N1, COS_FPI_N3, entire_corpus, make_spec,
                      route_corpus, si_series)


def verdict(num: int, label: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    pad = "." * max(2, 46 - len(label))
    print(f"criterion {num:2d}  {label} {pad} {tag}  {detail}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def test_criterion_01_golden_n1():
    start = time.perf_counter()
    rep = apv_average(make_spec("cos(z)", -1, 1, 0, 1))
    elapsed = time.perf_counter() - start
    golden = -2.0 * (math.cos(1.0) + si_series(1.0))
    err = abs(rep.value - golden)
    verdict(1, "golden value n=1 equals -2(cos1 + Si1)",
            err <= 1e-9 and elapsed < 1.0,
            f"abs err {err:.2e}, {elapsed * 1e3:.0f} ms")


def test_criterion_02_golden_n3():
    rep = apv_average(make_spec("cos(z)", -1, 1, 0, 3))
    golden = (si_series(1.0) + math.sin(1.0) - math.cos(1.0)) / 3.0
    err = abs(rep.value - golden)
    verdict(2, "golden value n=3 equals (Si1+sin1-cos1)/3",
            err <= 1e-9, f"abs err {err:.2e}")


def test_criterion_03_even_n_vanishes():
    worst = 0.0
    for n in (0, 2, 4, 6):
        worst = max(worst, abs(apv_average(make_spec("cos(z)", -1, 1, 0, n)).value))
    verdict(3, "cos problem vanishes for n in {0,2,4,6}",
            worst <= 1e-10, f"worst |value| {worst:.2e}")


def test_criterion_04_route_equivalence():
    corpus = route_corpus()
    worst = 0.0
    for spec in corpus:
        avg = apv_average(spec).value
        up = apv_upper(spec).value
        lo = apv_lower(spec).value
        worst = max(worst, abs(avg - up), abs(avg - lo))
    verdict(4, f"upper/lower/average equal on {len(corpus)} specs",
            worst <= 1e-8, f"worst diff {worst:.2e}")


def test_criterion_05_jump_relation():
    worst = 0.0
    for spec in route_corpus():
        out = jump_relation_check(spec)
        worst = max(worst, out["abs_diff"])
    verdict(5, "jump Int- - Int+ = 2*pi*i f^(n)(x0)/n!",
            worst <= 1e-8, f"worst |diff| {worst:.2e}")


def test_criterion_06_path_independence():
    worst = 0.0
    for spec in route_corpus():
        values = []
        for eps in (0.05, 0.1, 0.25):
            values.append(apv_average(spec, semicircle_path(spec, eps)).value)
        r = 0.8 * spec.pole_gap
        values.append(apv_average(spec, semicircle_path(spec, r)).value)
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                worst = max(worst, abs(values[i] - values[j]))
    verdict(6, "value independent of indentation path",
            worst <= 1e-8, f"worst pairwise diff {worst:.2e}")


def test_criterion_07_oracle_triangle():
    worst = 0.0
    for spec in entire_corpus():
        contour = apv_average(spec).value
        fox = fox_limit(spec).value
        series = series_fpi(spec).value
        worst = max(worst, abs(contour - fox), abs(contour - series),
                    abs(fox - series))
    verdict(7, "contour / eps-limit / series routes agree",
            worst <= 1e-6, f"worst pairwise diff {worst:.2e}")


def test_criterion_08_boundary_value_identities():
    worst = 0.0
    for spec in route_corpus():
        if spec.n > 2:
            continue
        rep = boundary_values(spec)
        int_plus = apv_upper(spec)
        int_minus = apv_lower(spec)
        worst = max(worst,
                    abs(rep.detail["phi_plus"] - int_minus.diagnostics["int_minus"].value),
                    abs(rep.detail["phi_minus"] - int_plus.diagnostics["int_plus"].value),
                    abs(rep.value - apv_average(spec).value))
    verdict(8, "boundary values match opposite-side contours",
            worst <= 1e-6, f"worst diff {worst:.2e}")


def test_criterion_09_divergence_witness():
    # the unsubtracted symmetric sum S_raw(eps) for cos(x)/x^2, eps halving
    spec = make_spec("cos(z)", -1, 1, 0, 1)
    raw = [(eps, sum(integrate_real_segment(spec, lo, hi).value.real
                     for lo, hi in ((-1.0, -eps), (eps, 1.0))))
           for eps in (0.25 * 2.0 ** -k for k in range(12))]
    growing = all(abs(v2) > abs(v1) for (_, v1), (_, v2) in zip(raw, raw[1:]))
    worst = max(abs(v * eps - 2.0) for eps, v in raw[-3:])
    verdict(9, "raw symmetric sum diverges like 2 f(0)/eps",
            growing and worst <= 0.05, f"worst |S_raw*eps - 2| {worst:.2e}")


def test_criterion_10_asymptotic_decay():
    cfg = QuadConfig(rel_tol=1e-13, abs_tol=1e-14, max_subdivisions=4000)
    ns = list(range(21, 102, 2))
    errs, rel21 = [], None
    for n in ns:
        ref = cos_apv_reference(n, cfg)
        err = abs(cos_fpi_asymptotic(n, 6) - ref)
        errs.append(err)
        if n == 21:
            rel21 = err / abs(ref)
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    verdict(10, "six-term expansion error decays ~ n^-7",
            slope <= -6.5 and rel21 <= 1e-4,
            f"slope {slope:.2f}, rel err at n=21 {rel21:.2e}")


def test_criterion_11_property_suites():
    rng = random.Random(20260823)
    cases = 500

    # expression print -> parse round trip preserves evaluation
    funcs = ("sin", "cos", "tan", "exp", "sinh", "cosh")
    for _ in range(cases):
        parts = [f"{rng.choice(funcs)}(z)", f"{rng.uniform(0.1, 9):.4g}", "z",
                 f"z^{rng.randint(0, 4)}"]
        rng.shuffle(parts)
        ops = [rng.choice("+-*") for _ in range(3)]
        source = f"({parts[0]} {ops[0]} {parts[1]}) {ops[1]} ({parts[2]} {ops[2]} {parts[3]})"
        e = parse(source)
        e2 = parse(to_source(e.ast))
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert evaluate(e2, z) == pytest.approx(evaluate(e, z), rel=1e-12, abs=1e-12)

    # path side classification round trip
    for _ in range(cases):
        a = rng.uniform(-5, -0.2)
        b = rng.uniform(0.2, 5)
        x0 = a + (b - a) * rng.uniform(0.15, 0.85)
        spec = make_spec("cos(z)", a, b, x0, 0)
        eps = rng.uniform(0.05, 0.95) * spec.pole_gap
        if eps < 1e-6 * (b - a):
            continue
        side = rng.choice(("above", "below"))
        path = semicircle_path(spec, eps)
        assert classify_side(path if side == "above" else path.conjugate(), x0) == side

    # quadrature orientation and additivity
    spec = make_spec("cos(z)", -1, 6, 0, 0)
    for _ in range(cases):
        lo = rng.uniform(0.2, 2.0)
        hi = lo + rng.uniform(0.1, 3.0)
        mid = lo + rng.uniform(0.05, 0.95) * (hi - lo)
        fwd = integrate_real_segment(spec, lo, hi)
        bwd = integrate_real_segment(spec, hi, lo)
        assert abs(fwd.value + bwd.value) <= fwd.err_estimate + bwd.err_estimate + 1e-13
        left = integrate_real_segment(spec, lo, mid)
        right = integrate_real_segment(spec, mid, hi)
        assert abs(fwd.value - left.value - right.value) <= \
            fwd.err_estimate + left.err_estimate + right.err_estimate + 1e-13

    # conjugate symmetry of the sectionally analytic function
    spec = make_spec("cos(z)", -1, 1, 0, 1)
    cfg = QuadConfig(rel_tol=1e-8, abs_tol=1e-10)
    for _ in range(cases):
        z = complex(rng.uniform(-0.9, 0.9), rng.uniform(0.01, 2.0))
        up = phi_at(spec, z, cfg).value
        dn = phi_at(spec, z.conjugate(), cfg).value
        assert dn == pytest.approx(up.conjugate(), abs=1e-7)

    verdict(11, "randomized property suites (4 x 500 cases)", True,
            f"{4 * cases} cases")
