import math

import pytest

from apvint.apv import apv_average
from apvint.classical import (TaylorCoeffs, divergent_terms, fox_limit, series_Fn,
                              series_fpi, taylor_from_expr)

from conftest import COS_FPI_N1, COS_FPI_N3, exp_cpv_series, make_spec


class TestTaylorFromExpr:
    def test_cos_maclaurin(self):
        spec = make_spec("cos(z)", -1, 1, 0, 0)
        coeffs = taylor_from_expr(spec, K=5)
        expect = [1.0, 0.0, -0.5, 0.0, 1.0 / 24.0]
        for c, e in zip(coeffs.c, expect):
            assert c == pytest.approx(e, abs=1e-13)

    def test_exp_maclaurin(self):
        spec = make_spec("exp(z)", -1, 1, 0, 0)
        coeffs = taylor_from_expr(spec, K=4)
        for k, c in enumerate(coeffs.c):
            assert c == pytest.approx(1.0 / math.factorial(k), abs=1e-13)

    def test_shifted_square(self):
        spec = make_spec("z^2", 0, 2, 1, 0)
        coeffs = taylor_from_expr(spec, K=3)
        assert list(coeffs.c) == pytest.approx([1.0, 2.0, 1.0], abs=1e-12)

    def test_radius_limited_by_declared_pole(self):
        spec = make_spec("1/(1+z^2)", -0.5, 0.5, 0, 0, poles=(1j, -1j))
        coeffs = taylor_from_expr(spec, K=8)
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
        coeffs = taylor_from_expr(spec, K=40)
        value, _ = series_Fn(coeffs, 1, 1.0)
        oracle = -1.0 + sum((-1) ** j / (math.factorial(2 * j) * (2 * j - 1))
                            for j in range(1, 20))
        assert value == pytest.approx(oracle, abs=1e-13)

    def test_even_function_antisymmetry(self):
        spec = make_spec("cos(z)", -1, 1, 0, 1)
        coeffs = taylor_from_expr(spec, K=40)
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
        assert series_fpi(taylor_from_expr(spec), spec) == pytest.approx(0.0, abs=1e-13)

    def test_exp_cpv(self):
        spec = make_spec("exp(z)", -1, 2, 0, 0)
        value = series_fpi(taylor_from_expr(spec), spec)
        assert value == pytest.approx(exp_cpv_series(-1, 2), abs=1e-11)

    def test_constant_leaves_log_term(self):
        spec = make_spec("1", -1, 3, 0, 0)
        assert series_fpi(taylor_from_expr(spec), spec) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_cos_fpi_golden(self):
        for n, expect in ((1, COS_FPI_N1), (3, COS_FPI_N3)):
            spec = make_spec("cos(z)", -1, 1, 0, n)
            assert series_fpi(taylor_from_expr(spec), spec) == pytest.approx(expect, abs=1e-12)

    def test_cos_fpi_even_vanishes(self):
        spec = make_spec("cos(z)", -1, 1, 0, 2)
        assert series_fpi(taylor_from_expr(spec), spec) == pytest.approx(0.0, abs=1e-13)

    def test_radius_check_failure(self):
        coeffs = TaylorCoeffs(tuple([1.0] * 8), radius_check=0.5)
        spec = make_spec("exp(z)", -1, 1, 0, 0)
        with pytest.raises(ValueError, match="radius"):
            series_fpi(coeffs, spec)


class TestDivergentTerms:
    def test_n0_identically_zero(self):
        assert divergent_terms([], 0, 1e-3) == 0.0

    def test_even_gap_terms_vanish(self):
        # terms with even n - k cancel between the two sides of x0
        c = [5.0, 0.0, 7.0, 0.0]  # c_0, c_2 nonzero but n - k even for k = 0, 2
        assert divergent_terms(c, 4, 0.01) == 0.0

    def test_n1_leading_term(self):
        c = [3.0]
        assert divergent_terms(c, 1, 0.25) == pytest.approx(2 * 3.0 / 0.25)


class TestFoxLimit:
    def test_cos_cpv_zero(self):
        spec = make_spec("cos(z)", -1, 1, 0, 0)
        out = fox_limit(spec)
        assert out["value"] == pytest.approx(0.0, abs=1e-9)
        assert out["converged"]

    def test_cos_n1_golden(self):
        spec = make_spec("cos(z)", -1, 1, 0, 1)
        out = fox_limit(spec)
        assert out["value"] == pytest.approx(COS_FPI_N1, abs=1e-8)

    def test_constant_asymmetric_log(self):
        spec = make_spec("1", -1, 2, 0, 0)
        out = fox_limit(spec)
        assert out["value"] == pytest.approx(math.log(2.0), abs=1e-9)

    def test_matches_contour_route(self):
        spec = make_spec("exp(z)", -1, 1, 0, 2)
        out = fox_limit(spec)
        assert out["value"] == pytest.approx(apv_average(spec).value, abs=1e-7)

    def test_raw_divergence_witness(self):
        # S_raw(eps) ~ 2 f(0) / eps for n = 1
        spec = make_spec("cos(z)", -1, 1, 0, 1)
        out = fox_limit(spec)
        raw = out["raw_samples"]
        mags = [abs(v) for _, v in raw]
        assert all(m2 > m1 for m1, m2 in zip(mags, mags[1:]))
        for eps, v in raw[-3:]:
            assert abs(v * eps - 2.0) <= 0.05

    @pytest.mark.parametrize("n", [1, 2])
    def test_declared_pole_numerator(self, n):
        # the Taylor circle about x0 stops short of the poles +-i
        spec = make_spec("1/(1+z^2)", -0.5, 0.8, 0.1, n, poles=(1j, -1j))
        out = fox_limit(spec)
        contour = apv_average(spec).value
        assert out["converged"]
        assert abs(out["value"] - contour) <= out["err_estimate"]
        assert out["value"] == pytest.approx(contour, abs=1e-8)
        series = series_fpi(taylor_from_expr(spec), spec)
        assert out["value"] == pytest.approx(series, abs=1e-8)

    def test_fast_growing_numerator_near_endpoint(self):
        # |cos(20 z)| reaches ~1e17 on a circle of the interval's reach; the
        # divergent terms need c_0 from a circle close to x0
        spec = make_spec("cos(20*z)", -1, 1, 0.9, 1)
        out = fox_limit(spec)
        assert out["value"] == pytest.approx(apv_average(spec).value, abs=1e-8)
