import math

import pytest

from apvint import classical
from apvint.apv import apv_average
from apvint.classical import (TAYLOR_SAMPLES, TaylorCoeffs, _window, fox_limit, series_Fn,
                              series_fpi, taylor_from_expr)
from apvint.quadrature import integrate_real_segment

from conftest import COS_FPI_N1, COS_FPI_N3, cos_fpi_series, exp_cpv_series, make_spec


class TestTaylorFromExpr:
    def test_cos_maclaurin(self):
        spec = make_spec("cos(z)", -1, 1, 0, 0)
        coeffs = taylor_from_expr(spec)
        expect = [1.0, 0.0, -0.5, 0.0, 1.0 / 24.0]
        for c, e in zip(coeffs.c, expect):
            assert c == pytest.approx(e, abs=1e-13)

    def test_exp_maclaurin(self):
        spec = make_spec("exp(z)", -1, 1, 0, 0)
        coeffs = taylor_from_expr(spec)
        for k, c in enumerate(coeffs.c[:4]):
            assert c == pytest.approx(1.0 / math.factorial(k), abs=1e-13)

    def test_shifted_square(self):
        spec = make_spec("z^2", 0, 2, 1, 0)
        coeffs = taylor_from_expr(spec)
        assert list(coeffs.c[:3]) == pytest.approx([1.0, 2.0, 1.0], abs=1e-12)

    def test_radius_limited_by_declared_pole(self):
        spec = make_spec("1/(1+z^2)", -0.5, 0.5, 0, 0, poles=(1j, -1j))
        coeffs = taylor_from_expr(spec)
        # interval reach is 0.5, so 1.1x reach is admissible under the unit poles
        assert coeffs.radius_check == pytest.approx(0.55)
        # geometric series 1/(1+z^2) = 1 - z^2 + z^4 - ...
        assert coeffs.c[0] == pytest.approx(1.0, abs=1e-10)
        assert coeffs.c[2] == pytest.approx(-1.0, abs=1e-9)


class TestSeriesFn:
    def test_n0_first_sum_empty(self):
        coeffs = TaylorCoeffs((1.0, 0.5, 0.25), radius_check=10.0)
        value, _ = series_Fn(coeffs, 0, 0.5)
        assert value == pytest.approx(0.5 * 0.5 + 0.25 * 0.5 ** 2 / 2)

    def test_cos_n1_structure(self):
        # F_1(1) = -c0 + sum_{j>=1} (-1)^j / ((2j)! (2j-1))
        spec = make_spec("cos(z)", -1, 1, 0, 1)
        coeffs = taylor_from_expr(spec)
        value, _ = series_Fn(coeffs, 1, 1.0)
        oracle = -1.0 + sum((-1) ** j / (math.factorial(2 * j) * (2 * j - 1))
                            for j in range(1, 20))
        assert value == pytest.approx(oracle, abs=1e-13)

    def test_even_function_antisymmetry(self):
        spec = make_spec("cos(z)", -1, 1, 0, 1)
        coeffs = taylor_from_expr(spec)
        f_plus, _ = series_Fn(coeffs, 1, 1.0)
        f_minus, _ = series_Fn(coeffs, 1, -1.0)
        # brute-force term-by-term oracle for the difference
        oracle = -2.0 + 2.0 * sum((-1) ** j / (math.factorial(2 * j) * (2 * j - 1))
                                  for j in range(1, 20))
        assert f_plus - f_minus == pytest.approx(oracle, abs=1e-13)

    def test_singular_at_zero(self):
        coeffs = TaylorCoeffs((1.0, 1.0, 1.0), radius_check=10.0)
        with pytest.raises(ZeroDivisionError):
            series_Fn(coeffs, 1, 0.0)


class TestSeriesCpvFpi:
    def test_cos_cpv_vanishes(self):
        spec = make_spec("cos(z)", -1, 1, 0, 0)
        assert series_fpi(spec).value == pytest.approx(0.0, abs=1e-13)

    def test_exp_cpv(self):
        spec = make_spec("exp(z)", -1, 2, 0, 0)
        value = series_fpi(spec).value
        assert value == pytest.approx(exp_cpv_series(-1, 2), abs=1e-11)

    def test_constant_leaves_log_term(self):
        spec = make_spec("1", -1, 3, 0, 0)
        assert series_fpi(spec).value == pytest.approx(math.log(3.0), abs=1e-12)

    def test_cos_fpi_golden(self):
        for n, expect in ((1, COS_FPI_N1), (3, COS_FPI_N3)):
            spec = make_spec("cos(z)", -1, 1, 0, n)
            assert series_fpi(spec).value == pytest.approx(expect, abs=1e-12)

    def test_cos_fpi_even_vanishes(self):
        spec = make_spec("cos(z)", -1, 1, 0, 2)
        assert series_fpi(spec).value == pytest.approx(0.0, abs=1e-13)

    def test_radius_check_failure(self):
        # the circle keeps within 0.9 of the way to the poles, short of the reach 1
        spec = make_spec("1/(1+4*z^2)", -1, 1, 0, 0, poles=(0.5j, -0.5j))
        with pytest.raises(ValueError, match="radius"):
            series_fpi(spec)

    # closed forms; the last is -1/x^2 - 1/(1+x^2) integrated, as 1/(x^2 (1+x^2))
    @pytest.mark.parametrize("source, a, b, n, poles, expect", [
        ("cos(z)", -1, 1, 1, (), COS_FPI_N1),
        ("cos(z)", -1, 1, 3, (), COS_FPI_N3),
        ("1/(1+z^2)", -0.5, 0.5, 1, (1j, -1j), -4.0 - 2.0 * math.atan(0.5)),
    ])
    def test_error_estimate_covers_error(self, source, a, b, n, poles, expect):
        out = series_fpi(make_spec(source, a, b, 0, n, poles=poles))
        assert abs(out.value - expect) <= out.err_estimate <= 1e-12
        assert out.converged and out.evals == TAYLOR_SAMPLES

    def test_error_estimate_follows_the_problem(self):
        errs = {series_fpi(make_spec(source, -1, 1, 0, n)).err_estimate
                for source, n in (("cos(z)", 1), ("cos(z)", 3), ("exp(3*z)", 1))}
        assert len(errs) == 3


class TestWindow:
    # with c_k = 0 for k >= n the symmetric window sum is minus the divergent
    # terms H_n(eps) that Fox's limit subtracts
    def test_n0_identically_zero(self):
        coeffs = TaylorCoeffs((0.0, 0.0), radius_check=2e-3)
        assert _window(coeffs, 0, -1e-3, 1e-3)[0] == 0.0

    def test_even_gap_terms_vanish(self):
        # terms with even n - k cancel between the two sides of x0
        coeffs = TaylorCoeffs((5.0, 0.0, 7.0, 0.0, 0.0), radius_check=0.02)
        assert _window(coeffs, 4, -0.01, 0.01)[0] == 0.0

    def test_n1_leading_term(self):
        coeffs = TaylorCoeffs((3.0, 0.0), radius_check=0.5)
        assert _window(coeffs, 1, -0.25, 0.25)[0] == pytest.approx(-2 * 3.0 / 0.25)


class TestFoxLimit:
    # closed forms: fox is exact to rounding, and its estimate covers the error
    def test_cos_cpv_zero(self):
        out = fox_limit(make_spec("cos(z)", -1, 1, 0, 0))
        assert abs(out.value) <= min(out.err_estimate, 1e-12)
        assert out.converged

    def test_cos_n1_golden(self):
        out = fox_limit(make_spec("cos(z)", -1, 1, 0, 1))
        assert abs(out.value - COS_FPI_N1) <= min(out.err_estimate, 1e-12)

    def test_constant_asymmetric_log(self):
        out = fox_limit(make_spec("1", -1, 2, 0, 0))
        assert abs(out.value - math.log(2.0)) <= min(out.err_estimate, 1e-12)

    def test_matches_contour_route(self):
        spec = make_spec("exp(z)", -1, 1, 0, 2)
        out = fox_limit(spec)
        assert out.value == pytest.approx(apv_average(spec).value, abs=1e-7)

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_evals_count_quadratures_and_taylor_samples(self, n, monkeypatch):
        spent = []

        def counted(*args, **kwargs):
            q = integrate_real_segment(*args, **kwargs)
            spent.append(q.evals)
            return q

        monkeypatch.setattr(classical, "integrate_real_segment", counted)
        # the window [-1, 1] leaves [1, 2] to quadrature
        out = fox_limit(make_spec("cos(z)", -1, 2, 0, n))
        assert len(spent) == 2 and sum(spent) > 0
        assert out.evals == sum(spent) + TAYLOR_SAMPLES

    @pytest.mark.parametrize("b", [1, 2])
    @pytest.mark.parametrize("n", [21, 61, 101])
    def test_high_order_cos_against_the_series_oracle(self, n, b):
        # no limit is taken numerically, so neither route loses digits as n
        # grows; on [-1, 2] the window [-1, 1] leaves [1, 2] to fox's quadrature
        spec = make_spec("cos(z)", -1, b, 0, n)
        expect = cos_fpi_series(n, -1.0, float(b))
        fox = fox_limit(spec)
        assert fox.converged and fox.detail["eps"] == 1.0
        for out in (fox, series_fpi(spec)):
            assert abs(out.value - expect) <= min(out.err_estimate, 1e-13 * abs(expect))

    def test_long_far_segment_at_high_order(self):
        # the far segment [-102, -1] is 101 times its distance to x0; the
        # reference is perfbench/reference.finite_part at 32 digits
        expect = -0.0052656821088520565
        out = fox_limit(make_spec("cos(z)", -102, 1, 0, 101))
        assert out.converged
        assert abs(out.value - expect) <= max(out.err_estimate, 1e-13 * abs(expect))

    def test_poles_close_to_the_axis(self):
        # 1/(x^2 + d^2) by partial fractions; its poles +-d i cap the Taylor circle
        d, a, b, x0 = 0.01, -1.0, 1.0, 0.5
        A = 1 / (x0 ** 2 + d ** 2)
        expect = (A * math.log((b - x0) / (x0 - a))
                  - A / 2 * math.log((b ** 2 + d ** 2) / (a ** 2 + d ** 2))
                  - A * x0 / d * (math.atan(b / d) - math.atan(a / d)))
        assert expect == pytest.approx(-628.4617285065624, rel=1e-14)
        out = fox_limit(make_spec("1/(z^2+0.0001)", a, b, x0, 0, poles=(d * 1j, -d * 1j)))
        assert out.converged
        assert abs(out.value - expect) <= min(out.err_estimate, 1e-12 * abs(expect))

    @pytest.mark.parametrize("n", [1, 2])
    def test_declared_pole_numerator(self, n):
        # the Taylor circle about x0 stops short of the poles +-i
        spec = make_spec("1/(1+z^2)", -0.5, 0.8, 0.1, n, poles=(1j, -1j))
        out = fox_limit(spec)
        contour = apv_average(spec).value
        assert out.converged
        assert abs(out.value - contour) <= out.err_estimate
        assert out.value == pytest.approx(contour, abs=1e-8)
        series = series_fpi(spec).value
        assert out.value == pytest.approx(series, abs=1e-8)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fast_growing_numerator_mid_interval(self, n):
        # |cos(20 z)| reaches cosh(40) ~ 1e17 on the circle of radius 2 pole_gap;
        # fox halves it until rounding no longer spoils the window sum
        spec = make_spec("cos(20*z)", -1, 1, 0, n)
        out = fox_limit(spec)
        assert out.converged and out.detail["radius"] < 1
        assert out.value == pytest.approx(apv_average(spec).value, abs=1e-8)
        assert out.err_estimate < 1e-8

    def test_fast_growing_numerator_near_endpoint(self):
        # |cos(20 z)| reaches ~1e17 on a circle of the interval's reach; the
        # window sum needs its c_k from a circle close to x0
        spec = make_spec("cos(20*z)", -1, 1, 0.9, 1)
        out = fox_limit(spec)
        assert out.value == pytest.approx(apv_average(spec).value, abs=1e-8)
