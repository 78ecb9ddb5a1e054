import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apvint.paths import Arc, ComplexPath, Line, semicircle_path
from apvint.quadrature import (QuadConfig, integrate_function, integrate_on_path,
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


class TestPathIntegral:
    def test_constant_above_path_gives_minus_i_pi(self):
        # closed form: log(b) - log(-a) - i*pi for the above path
        spec = make_spec("1", -1, 1, 0, 0)
        path = semicircle_path(spec, 0.5, "above")
        r = integrate_path(spec, path)
        assert r.value == pytest.approx(-1j * math.pi, abs=1e-10)

    def test_constant_asymmetric_interval(self):
        spec = make_spec("1", -1, 2, 0, 0)
        r = integrate_path(spec, semicircle_path(spec, 0.5, "above"))
        assert r.value == pytest.approx(math.log(2.0) - 1j * math.pi, abs=1e-10)

    def test_cos_unit_semicircle_n1(self, cos_spec_n1):
        from conftest import COS_FPI_N1
        path = semicircle_path(cos_spec_n1, 1.0, "above")
        r = integrate_path(cos_spec_n1, path)
        # Int+ = FPI - i*pi*f'(0)/1! and f'(0) = 0
        assert r.value == pytest.approx(COS_FPI_N1, abs=1e-9)

    def test_abs_integral_diagnostic_finite(self, cos_spec_n1):
        path = semicircle_path(cos_spec_n1, 0.25, "above")
        r = integrate_path(cos_spec_n1, path)
        assert math.isfinite(r.abs_integral)
        assert r.abs_integral >= abs(r.value)

    def test_path_through_pole_rejected(self):
        spec = make_spec("1", -1, 1, 0, 0)
        bad = ComplexPath((Line(-1 + 0j, 1 + 0j),), "above")
        with pytest.raises(ValueError):
            integrate_path(spec, bad)

    def test_nonconvergence_flagged_not_raised(self):
        spec = make_spec("cos(100*z)", -1, 1, 0, 1)
        cfg = QuadConfig(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=3)
        r = integrate_path(spec, semicircle_path(spec, 0.5, "above"), cfg)
        assert not r.converged


class TestProperties:
    def test_orientation_negates(self, cos_spec_n1):
        path = semicircle_path(cos_spec_n1, 0.5, "above")
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
        p1 = semicircle_path(cos_spec_n1, 0.1, "above")
        p2 = semicircle_path(cos_spec_n1, 0.45, "above")
        p3 = semicircle_path(cos_spec_n1, 0.9, "above")
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

    def test_converged_implies_tolerance(self):
        spec = make_spec("cos(z)", -1, 1, 0, 0)
        cfg = QuadConfig()
        r = integrate_real_segment(spec, 0.5, 1.0, cfg)
        assert r.converged
        assert r.err_estimate <= max(cfg.abs_tol, cfg.rel_tol * abs(r.value))
