import heapq
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apvint.paths import Arc, ComplexPath, Line, semicircle_path
from apvint.quadrature import (_WG, _WGK, _XGK, QuadConfig, QuadResult,
                               integrate_function, integrate_on_path,
                               integrate_path, integrate_real_segment)

from conftest import make_spec

# oracle: Ci(1) - Ci(0.5) by high-order fixed quadrature of cos(x)/x,
# frozen from an independent 10^-12-tolerance computation
CI_1_MINUS_CI_HALF = 0.5151880017075810


class TestRealSegment:
    def test_cos_over_x(self):
        spec = make_spec("cos(z)", -1, 1, 0, 0)
        r = integrate_real_segment(spec, 0.5, 1.0)
        assert r.converged
        assert r.value.real == pytest.approx(CI_1_MINUS_CI_HALF, abs=1e-11)
        assert abs(r.value.imag) < 1e-14

    def test_log_antiderivative(self):
        spec = make_spec("1", 0.5, 3, 1, 0)  # f = 1, pole at 1
        r = integrate_real_segment(spec, 1.5, 3.0)
        assert r.value.real == pytest.approx(math.log(2.0) - math.log(0.5), abs=1e-12)

    def test_pole_inside_interval_rejected(self):
        spec = make_spec("1", -1, 1, 0, 0)
        with pytest.raises(ValueError):
            integrate_real_segment(spec, -1.0, 1.0)

    def test_zero_length(self):
        spec = make_spec("cos(z)", -1, 1, 0, 0)
        r = integrate_real_segment(spec, 0.5, 0.5)
        assert r.value == 0j
        assert r.evals == 0

    def test_far_segment_sees_the_peak(self):
        # closed form: the integral of x^-102 over [-102, -1] is
        # (1 - 102^-101) / 101; one K15 panel over all of it has its node
        # nearest the peak at -1.43, where x^-102 is about 1e-16
        spec = make_spec("1", -1, 1, 0, 101)
        r = integrate_real_segment(spec, -102.0, -1.0)
        assert r.converged
        assert r.value.real == pytest.approx(1 / 101, rel=1e-12)


class TestPathIntegral:
    def test_constant_above_path_gives_minus_i_pi(self):
        # closed form: log(b) - log(-a) - i*pi for the above path
        spec = make_spec("1", -1, 1, 0, 0)
        path = semicircle_path(spec, 0.5)
        r = integrate_path(spec, path)
        assert r.value == pytest.approx(-1j * math.pi, abs=1e-10)

    def test_constant_asymmetric_interval(self):
        spec = make_spec("1", -1, 2, 0, 0)
        r = integrate_path(spec, semicircle_path(spec, 0.5))
        assert r.value == pytest.approx(math.log(2.0) - 1j * math.pi, abs=1e-10)

    def test_cos_unit_semicircle_n1(self, cos_spec_n1):
        from conftest import COS_FPI_N1
        path = semicircle_path(cos_spec_n1, 1.0)
        r = integrate_path(cos_spec_n1, path)
        # Int+ = FPI - i*pi*f'(0)/1! and f'(0) = 0
        assert r.value == pytest.approx(COS_FPI_N1, abs=1e-9)

    def test_abs_integral_diagnostic_finite(self, cos_spec_n1):
        path = semicircle_path(cos_spec_n1, 0.25)
        r = integrate_path(cos_spec_n1, path)
        assert math.isfinite(r.abs_integral)
        assert r.abs_integral >= abs(r.value)

    def test_path_through_pole_rejected(self):
        spec = make_spec("1", -1, 1, 0, 0)
        bad = ComplexPath((Line(-1 + 0j, 1 + 0j),))
        with pytest.raises(ValueError):
            integrate_path(spec, bad)

    def test_nonconvergence_flagged_not_raised(self):
        spec = make_spec("cos(100*z)", -1, 1, 0, 1)
        cfg = QuadConfig(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=3)
        r = integrate_path(spec, semicircle_path(spec, 0.5), cfg)
        assert not r.converged


class TestProperties:
    def test_orientation_negates(self, cos_spec_n1):
        path = semicircle_path(cos_spec_n1, 0.5)
        fwd = integrate_path(cos_spec_n1, path)
        bwd = integrate_path(cos_spec_n1, path.reversed())
        assert abs(fwd.value + bwd.value) <= fwd.err_estimate + bwd.err_estimate + 1e-13

    def test_additivity_under_split(self):
        spec = make_spec("exp(z)", -1, 1, 0, 0)
        g = lambda t: np.exp(t + 0j) / (t + 2.0)  # smooth shifted integrand
        whole = integrate_function(g, 0.0, 1.0, QuadConfig())
        left = integrate_function(g, 0.0, 0.37, QuadConfig())
        right = integrate_function(g, 0.37, 1.0, QuadConfig())
        assert abs(whole.value - left.value - right.value) <= \
            whole.err_estimate + left.err_estimate + right.err_estimate + 1e-14

    def test_path_independence_same_side(self, cos_spec_n1):
        p1 = semicircle_path(cos_spec_n1, 0.1)
        p2 = semicircle_path(cos_spec_n1, 0.45)
        p3 = semicircle_path(cos_spec_n1, 0.9)
        values = [integrate_path(cos_spec_n1, p).value for p in (p1, p2, p3)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(values[i] - values[j]) < 1e-9


@settings(max_examples=500, deadline=None)
@given(lo=st.floats(0.2, 2.0), width=st.floats(0.1, 3.0))
def test_orientation_property_random(lo, width):
    spec = make_spec("cos(z)", -1, 5.5, 0, 0)
    hi = lo + width
    fwd = integrate_real_segment(spec, lo, hi)
    bwd = integrate_real_segment(spec, hi, lo)
    assert abs(fwd.value + bwd.value) <= fwd.err_estimate + bwd.err_estimate + 1e-13


@settings(max_examples=500, deadline=None)
@given(split=st.floats(0.05, 0.95))
def test_additivity_property_random(split):
    spec = make_spec("exp(z)", -1, 2, 0, 0)
    lo, hi = 0.5, 2.0
    mid = lo + split * (hi - lo)
    whole = integrate_real_segment(spec, lo, hi)
    a = integrate_real_segment(spec, lo, mid)
    b = integrate_real_segment(spec, mid, hi)
    assert abs(whole.value - a.value - b.value) <= \
        whole.err_estimate + a.err_estimate + b.err_estimate + 1e-13


class TestConfig:
    def test_invalid_config(self):
        with pytest.raises(ValueError):
            QuadConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadConfig(max_subdivisions=0)

    def test_non_finite_values_end_the_bisection(self):
        # NaN beyond t = 0.9: the NaN panel is bisected first, and once both
        # of its halves are NaN the loop gives up instead of running to the cap
        g = lambda t: np.where(t < 0.9, np.cos(t), np.nan) + 0j
        r = integrate_function(g, 0.0, 1.0, QuadConfig())
        assert not r.converged
        assert math.isnan(r.value.real)
        assert r.evals < 200

    def test_converged_implies_tolerance(self):
        spec = make_spec("cos(z)", -1, 1, 0, 0)
        cfg = QuadConfig()
        r = integrate_real_segment(spec, 0.5, 1.0, cfg)
        assert r.converged
        assert r.err_estimate <= max(cfg.abs_tol, cfg.rel_tol * abs(r.value))


def _reference_integrate(g, lo, hi, cfg):
    """The adaptive loop with its heap re-summed in heap order before every
    bisection and each panel reduced by np.sum: the reference that
    integrate_function's running totals must match bit for bit. It stops
    after six stalls, bisections that keep the value to 1e-5 and the error
    to 99 %, and an unconverged result reports at least 8 eps times the
    integral of |g|."""
    def panel(a, b):
        half, mid = 0.5 * (b - a), 0.5 * (b + a)
        y = g(mid + half * _XGK)
        k15 = half * np.sum(_WGK * y)
        g7 = half * np.sum(_WG * y[1::2])
        return k15, abs(k15 - g7), half * float(np.sum(_WGK * np.abs(y)))

    if lo == hi:
        return QuadResult(0j, 0.0, 0, True, 0.0)
    sign = 1.0
    if hi < lo:
        lo, hi, sign = hi, lo, -1.0
    value, err, absint = panel(lo, hi)
    evals = 15
    heap = [(-err, lo, hi, value, err, absint)]
    nsub, stalls = 1, 0
    while nsub < cfg.max_subdivisions and stalls < 6:
        total = sum(item[3] for item in heap)
        total_err = sum(item[4] for item in heap)
        if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
            break
        _, a, b, v, e, _ = heapq.heappop(heap)
        m = 0.5 * (a + b)
        (v1, e1, s1), (v2, e2, s2) = panel(a, m), panel(m, b)
        heapq.heappush(heap, (-e1, a, m, v1, e1, s1))
        heapq.heappush(heap, (-e2, m, b, v2, e2, s2))
        evals += 30
        nsub += 1
        if abs(v1 + v2 - v) <= 1e-5 * abs(v1 + v2) and e1 + e2 >= 0.99 * e:
            stalls += 1
    intervals = sorted(heap, key=lambda item: item[1])
    value = sum(item[3] for item in intervals)
    err = float(sum(item[4] for item in intervals))
    absint = float(sum(item[5] for item in intervals))
    converged = bool(err <= max(cfg.abs_tol, cfg.rel_tol * abs(value)))
    if not converged and math.isfinite(err):
        err = max(err, 8 * math.ulp(1.0) * absint)
    return QuadResult(sign * complex(value), err, evals, converged, absint)


def _assert_bit_identical(g, lo, hi, cfg):
    new = integrate_function(g, lo, hi, cfg)
    old = _reference_integrate(g, lo, hi, cfg)
    # repr, so that NaN matches NaN and -0.0 differs from 0.0
    assert repr(new) == repr(old)
    return new


_TOLS = st.sampled_from([(1e-6, 1e-8), (1e-10, 1e-12), (1e-13, 1e-14), (1e-14, 1e-16)])


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["peak", "oscillating", "sinc"]), c=st.floats(0.5, 40.0),
       lo=st.floats(-2.0, 0.0), width=st.floats(0.05, 4.0), tols=_TOLS,
       cap=st.integers(1, 400), reverse=st.booleans())
# plain (uncompensated) running totals stop these one bisection early or late
@example(kind="oscillating", c=31.0, lo=0.0, width=1.0, tols=(1e-14, 1e-16), cap=400,
         reverse=False)
@example(kind="oscillating", c=32.0, lo=0.0, width=1.0, tols=(1e-14, 1e-16), cap=400,
         reverse=True)
# six stalls end this one at 51 subdivisions, unconverged, well short of the cap
@example(kind="oscillating", c=35.31, lo=-0.98, width=1.41, tols=(1e-14, 1e-16), cap=398,
         reverse=False)
def test_running_totals_match_heap_resum(kind, c, lo, width, tols, cap, reverse):
    """Smooth integrands, and sin(t)/t whose node at 0 gives a transient NaN
    panel when the interval is symmetric."""
    if kind == "peak":
        g = lambda t: 1.0 / (1.0 + (c * (t - 0.3)) ** 2) + 1j * np.exp(-t)
    elif kind == "oscillating":
        g = lambda t: np.exp(1j * c * t) * np.cos(t)
    else:
        g = lambda t: np.sin(c * t) / t + 0j
        lo = -width / 2
    hi = lo + width
    if reverse:
        lo, hi = hi, lo
    cfg = QuadConfig(rel_tol=tols[0], abs_tol=tols[1], max_subdivisions=cap)
    with np.errstate(invalid="ignore", divide="ignore"):
        _assert_bit_identical(g, lo, hi, cfg)


def _cos_circle(radius):
    """cos(z)/z^22 dz around the circle |z| = radius, in its angle."""
    def g(t):
        z = radius * np.exp(1j * t)
        return np.cos(z) / z ** 22 * 1j * z
    return g


@settings(max_examples=40, deadline=None)
@given(radius=st.floats(0.3, 0.8), cap=st.integers(2, 60), reverse=st.booleans())
def test_running_totals_match_at_cap_on_cancelling_circle(radius, cap, reverse):
    """cos(z)/z^22 around a circle: the integral is 0 and the terms are
    ~radius^-21, so the loop runs to the forced cap. Uncapped, it stops no
    earlier than 77 subdivisions on this radius range (converged near
    radius 0.8, after six stalls at 148 or more below), so no cap here
    is cut short."""
    lo, hi = (2 * math.pi, 0.0) if reverse else (0.0, 2 * math.pi)
    r = _assert_bit_identical(_cos_circle(radius), lo, hi, QuadConfig(max_subdivisions=cap))
    assert r.evals == 15 + 30 * (cap - 1)
    assert not r.converged


def test_stalls_end_the_bisection_on_cancelling_circle():
    """cos(z)/z^22 on the radius-0.5 circle: the terms are ~2^21 and the
    integral is 0, so rounding stalls the bisection long before the cap."""
    r = integrate_function(_cos_circle(0.5), 0.0, 2 * math.pi, QuadConfig(max_subdivisions=4000))
    assert not r.converged
    assert r.evals < 15 + 30 * 199
    assert abs(r.value) <= r.err_estimate
    assert r.err_estimate >= 8 * math.ulp(1.0) * r.abs_integral


@settings(max_examples=200, deadline=None)
@example(n=94, gap=0.96, ratio=300.0, right=True, reverse=False)
@given(n=st.integers(0, 101), gap=st.floats(1e-3, 1.0), ratio=st.floats(1.0, 300.0),
       right=st.booleans(), reverse=st.booleans())
def test_graded_segment_meets_its_tolerance(n, gap, ratio, right, reverse):
    """f = 1 on a segment at distance gap from x0 = 0 and ratio times as
    long, against [x^-n / -n] (log |x| at n = 0): the mesh graded toward the
    pole keeps a converged result within the tolerance."""
    near, far = (gap, gap * (1 + ratio)) if right else (-gap, -gap * (1 + ratio))
    lo, hi = (far, near) if right == reverse else (near, far)
    if n == 0:
        exact = math.log(abs(hi)) - math.log(abs(lo))
    else:
        exact = (hi ** -n - lo ** -n) / -n
    cfg = QuadConfig()
    r = integrate_real_segment(make_spec("1", -1, 1, 0, n), lo, hi, cfg)
    if r.converged:
        assert abs(r.value - exact) <= max(cfg.abs_tol, cfg.rel_tol * abs(exact))
