import math

import pytest

from apvint.apv import (apv_average, apv_lower, apv_upper, contour_pair, default_circle_radius,
                        derivative_at_pole, jump_relation_check)
from apvint.cosexample import cos_problem
from apvint.paths import Arc, ComplexPath, Line, semicircle_path
from apvint.quadrature import QuadConfig, integrate_on_path, singular_integrand

from conftest import (COS_FPI_N1, COS_FPI_N3, WINDS_TWICE, ZIGZAG, exp_cpv_series,
                      make_spec)

CRIT10_CFG = QuadConfig(rel_tol=1e-13, abs_tol=1e-14, max_subdivisions=4000)


def taylor_coefficient(func, k, x, n):
    """Closed form of f^(n)(x)/n! for f(z) = func(k*z)."""
    cycle = {"exp": (math.exp,) * 4,
             "cos": (math.cos, lambda t: -math.sin(t), lambda t: -math.cos(t), math.sin),
             "sin": (math.sin, math.cos, lambda t: -math.sin(t), lambda t: -math.cos(t)),
             "sinh": (math.sinh, math.cosh) * 2,
             "cosh": (math.cosh, math.sinh) * 2}[func]
    return float(k) ** n / math.factorial(n) * cycle[n % 4](k * x)


def full_circle(spec):
    """The residue's Cauchy integral over the whole circle, as a path integral."""
    circle = Arc(complex(spec.x0), default_circle_radius(spec), -math.pi, math.pi)
    return integrate_on_path(singular_integrand(spec), ComplexPath((circle,)))


class TestDerivativeAtPole:
    def test_cos_values(self):
        spec = make_spec("cos(z)", -1, 1, 0, 0)
        assert derivative_at_pole(spec).value == pytest.approx(1.0, abs=1e-12)
        spec1 = make_spec("cos(z)", -1, 1, 0, 1)
        assert derivative_at_pole(spec1).value == pytest.approx(0.0, abs=1e-12)
        spec2 = make_spec("cos(z)", -1, 1, 0, 2)
        assert derivative_at_pole(spec2).value == pytest.approx(-0.5, abs=1e-12)

    def test_rounding_stops_the_high_order_residue(self):
        # f^(101)(0)/101! = 0 from terms ~2^102 on the circle of radius 1/2:
        # the bisection stalls on rounding instead of running to its cap
        # (119985 evals), and the error it reports covers the value
        r = derivative_at_pole(cos_problem(101), CRIT10_CFG)
        assert not r.converged
        assert r.evals <= 10000
        assert r.value.imag == 0.0
        assert abs(r.value) <= r.err_estimate

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    @pytest.mark.parametrize("source,func,k", [("exp(2*z)", "exp", 2), ("cos(z)", "cos", 1),
                                               ("sinh(z)", "sinh", 1)])
    def test_real_numerator_takes_the_upper_half_circle(self, source, func, k, n):
        # the lower half mirrors the upper one, so the residue is exactly
        # real, from at most 0.6 times the full circle's evaluations
        spec = make_spec(source, -1, 2, 0.3, n)
        r = derivative_at_pole(spec)
        assert r.converged
        assert r.value.imag == 0.0
        assert abs(r.value - taylor_coefficient(func, k, 0.3, n)) <= 1e-12
        assert r.evals <= 0.6 * full_circle(spec).evals

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_complex_numerator_keeps_the_full_circle(self, n):
        spec = make_spec("exp(i*z)", -1, 1, 0, n)
        r = derivative_at_pole(spec)
        assert r.converged
        assert abs(r.value - 1j ** n / math.factorial(n)) <= 1e-12
        assert r.evals == full_circle(spec).evals

    @pytest.mark.parametrize("cfg", [QuadConfig(1e-6, 1e-8), QuadConfig(), CRIT10_CFG],
                             ids=["loose", "default", "crit10"])
    @pytest.mark.parametrize("source,func,k", [
        ("cos(z)", "cos", 1), ("exp(z)", "exp", 1), ("sin(z)", "sin", 1),
        ("cosh(z)", "cosh", 1), ("exp(3*z)", "exp", 3), ("cos(5*z)", "cos", 5)])
    def test_error_estimate_covers_the_closed_form(self, source, func, k, cfg):
        # a converged residue is within its tolerance, and an unconverged
        # one within its error estimate, out to n = 101 where rounding rules
        for x0 in (0.0, 0.37, -0.361, -0.61, 0.854):
            for n in (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 101):
                r = derivative_at_pole(make_spec(source, -1, 1, x0, n), cfg)
                want = taylor_coefficient(func, k, x0, n)
                if r.converged:
                    assert abs(r.value - want) <= max(cfg.abs_tol, cfg.rel_tol * abs(want))
                else:
                    assert abs(r.value - want) <= r.err_estimate


class TestAverageRoute:
    def test_cos_cpv_vanishes(self):
        spec = make_spec("cos(z)", -1, 1, 0, 0)
        rep = apv_average(spec, semicircle_path(spec, 1.0))
        assert rep.value == pytest.approx(0.0, abs=1e-10)

    def test_cos_n1_golden(self):
        spec = make_spec("cos(z)", -1, 1, 0, 1)
        rep = apv_average(spec)
        assert rep.value == pytest.approx(COS_FPI_N1, abs=1e-9)
        assert abs(rep.detail["imag_residual"]) <= rep.err_estimate + 1e-13

    @pytest.mark.parametrize("n,evals,value", [
        (21, 945, -0.04732705787512263),
        (61, 3825, -0.017250141144004565),
        (101, 7365, -0.01053136421770369),
    ])
    def test_criterion_10_paths_keep_their_values(self, n, evals, value):
        # the paths converge long before any stall, so the stall stop leaves
        # their bisection, and the value, exactly as it was
        spec = cos_problem(n)
        rep = apv_average(spec, semicircle_path(spec, 1.0), cfg=CRIT10_CFG)
        assert rep.diagnostics["int_plus"].evals == evals
        assert rep.diagnostics["int_minus"].evals == evals
        assert repr(rep.value) == repr(value)

    def test_cos_n3_golden(self):
        spec = make_spec("cos(z)", -1, 1, 0, 3)
        rep = apv_average(spec)
        assert rep.value == pytest.approx(COS_FPI_N3, abs=1e-9)

    def test_average_consistency_invariant(self):
        spec = make_spec("exp(z)", -1, 1, 0, 2)
        rep = apv_average(spec)
        sides = rep.diagnostics["int_plus"].value + rep.diagnostics["int_minus"].value
        assert rep.value == pytest.approx(0.5 * sides.real)

    def test_default_contour_is_the_default_semicircle(self):
        spec = make_spec("cos(z)", -1, 1, 0, 1)
        assert apv_average(spec) == apv_average(
            spec, semicircle_path(spec, default_circle_radius(spec)))

    @pytest.mark.parametrize("route", [apv_average, apv_upper, apv_lower, jump_relation_check])
    def test_path_below_gives_its_mirrors_results(self, route):
        # one contour fixes the pair: a path below is mirrored to the one above
        spec = make_spec("exp(z)", -1, 1, 0.2, 2)
        above = semicircle_path(spec, 0.5)
        assert contour_pair(spec, above.conjugate()) == (above, above.conjugate())
        assert route(spec, above.conjugate()) == route(spec, above)

    def test_self_crossing_path_accepted(self):
        # crossing points change no winding number, so not the value either
        spec = make_spec("cos(z)", -1, 1, 0, 1)
        rep = apv_average(spec, ZIGZAG)
        assert abs(rep.value - COS_FPI_N1) <= rep.err_estimate

    def test_path_winding_twice_rejected(self):
        spec = make_spec("cos(z)", -1, 1, 0, 1)
        assert WINDS_TWICE.turn(0.0) == pytest.approx(-3 * math.pi)
        with pytest.raises(ValueError, match="classified"):
            apv_average(spec, WINDS_TWICE)


class TestPathChecks:
    """User paths must run from a to b and cut off no declared pole."""

    @pytest.fixture
    def spec(self):
        return make_spec("1/(1+z^2)", -2, 2, 0.3, 0, poles=(1j, -1j))

    @staticmethod
    def box(height):
        corners = (-2, -2 + height * 1j, 2 + height * 1j, 2)
        return ComplexPath(tuple(Line(complex(p), complex(q))
                                 for p, q in zip(corners, corners[1:])))

    def test_bulge_enclosing_pole_rejected(self, spec):
        bulge = ComplexPath((Line(-2 + 0j, -1.5 + 0j), Arc(0j, 1.5, math.pi, 0.0),
                             Line(1.5 + 0j, 2 + 0j)))
        with pytest.raises(ValueError, match=r"above x0 encloses declared pole 1j"):
            apv_average(spec, bulge)
        with pytest.raises(ValueError, match=r"above x0 encloses declared pole 1j"):
            apv_upper(spec, bulge)
        with pytest.raises(ValueError, match="below x0 encloses declared pole"):
            apv_lower(spec, bulge.conjugate())

    def test_pole_outside_loop_accepted(self, spec):
        box = self.box(0.5)
        rep = apv_average(spec, box)
        assert rep.value == pytest.approx(apv_average(spec).value, abs=1e-9)

    def test_figure_eight_around_pole_accepted(self, spec):
        # the path passes over i, and the left lobe of a figure-eight winds
        # once the other way round it: the loop's net winding about i is 0
        corners = (-2, -1 + 0.3j, 1.5 + 1.3j, 1.5 + 0.6j, -1 + 1.6j, -1 + 2.5j, 2 + 2.5j, 2)
        figure8 = ComplexPath(tuple(Line(complex(p), complex(q))
                                    for p, q in zip(corners, corners[1:])))
        rep = apv_average(spec, figure8)
        assert rep.value == pytest.approx(apv_average(spec).value, abs=1e-9)

    def test_mirror_is_checked_against_an_asymmetric_pole_set(self):
        # 0.3 - 0.5i is outside the box above and inside its mirror below
        spec = make_spec("1/(z - (0.3 - 0.5i))", -2, 2, 0.3, 1, poles=(0.3 - 0.5j,))
        box = self.box(1.0)
        assert apv_upper(spec, box).converged
        for route in (apv_average, apv_lower):
            with pytest.raises(ValueError, match="below x0 encloses declared pole"):
                route(spec, box)

    def test_pole_on_path_rejected(self, spec):
        with pytest.raises(ValueError, match="lies on the path"):
            apv_upper(spec, self.box(1.0))

    def test_pole_on_interval_rejected(self):
        with pytest.raises(ValueError, match=r"lies on \[a, b\]"):
            make_spec("1/(z-1.5)", -2, 2, 0.3, 0, poles=(1.5,))

    def test_path_for_another_interval_rejected(self, spec):
        other = make_spec("1", -1, 1, 0.3, 0)
        with pytest.raises(ValueError, match="not from a"):
            apv_upper(spec, semicircle_path(other, 0.2))


class TestOnePathRoutes:
    def test_constant_cpv_zero(self):
        spec = make_spec("1", -1, 1, 0, 0)
        rep = apv_upper(spec)
        assert rep.diagnostics["int_plus"].value == pytest.approx(-1j * math.pi, abs=1e-10)
        assert rep.detail["residue_term"] == pytest.approx(1.0, abs=1e-12)
        assert rep.value == pytest.approx(0.0, abs=1e-10)

    def test_cos_n1_upper_equals_average(self):
        spec = make_spec("cos(z)", -1, 1, 0, 1)
        assert apv_upper(spec).value == pytest.approx(COS_FPI_N1, abs=1e-9)

    def test_exp_cpv_upper(self):
        spec = make_spec("exp(z)", -1, 2, 0, 0)
        assert apv_upper(spec).value == pytest.approx(exp_cpv_series(-1, 2), abs=1e-9)

    def test_lower_matches_upper(self):
        for src, a, b, x0, n in [("1", -1, 1, 0, 0),
                                 ("cos(z)", -1, 1, 0, 1),
                                 ("exp(z)", -1, 2, 0, 0)]:
            spec = make_spec(src, a, b, x0, n)
            up, lo = apv_upper(spec), apv_lower(spec)
            assert lo.value == pytest.approx(up.value, abs=1e-9)

    def test_unconverged_residue_is_reported(self):
        # at n = 61 the residue quadrature on the circle of radius 1/2 stalls
        # on rounding short of its tolerance; the one-path routes add it into
        # their value
        rep = apv_upper(make_spec("cos(z)", -1, 1, 0, 61))
        assert rep.diagnostics["residue"].converged is False
        assert rep.converged is False
        assert set(rep.diagnostics) == {"int_plus", "residue"}

    def test_evals_count_the_residue(self):
        spec = make_spec("cos(z)", -1, 1, 0, 1)
        residue = derivative_at_pole(spec)
        for rep in (apv_upper(spec), apv_lower(spec)):
            assert rep.evals == sum(q.evals for q in rep.diagnostics.values())
        rep = apv_average(spec)
        assert set(rep.diagnostics) == {"int_plus", "int_minus"}
        assert rep.evals == sum(q.evals for q in rep.diagnostics.values()) + residue.evals


class TestJumpRelation:
    @pytest.mark.parametrize("src,n,expect", [
        ("cos(z)", 0, 2j * math.pi),
        ("cos(z)", 1, 0j),
        ("exp(z)", 2, 1j * math.pi),
    ])
    def test_known_jumps(self, src, n, expect):
        spec = make_spec(src, -1, 1, 0, n)
        out = jump_relation_check(spec)
        assert out["lhs"] == pytest.approx(expect, abs=1e-9)
        assert out["rhs"] == pytest.approx(expect, abs=1e-9)
        assert out["abs_diff"] <= out["err_estimate"] + 1e-10


class TestInvariants:
    def test_path_invariance_of_report(self):
        spec = make_spec("sinh(z)", -1, 1, 0, 2)
        small = apv_average(spec, semicircle_path(spec, 0.1))
        bulge = apv_average(spec, semicircle_path(spec, 0.9))
        assert small.value == pytest.approx(bulge.value, abs=1e-9)

    def test_eps_independence(self):
        spec = make_spec("cos(z)", -1, 1, 0, 1)
        values = [apv_average(spec, semicircle_path(spec, e)).value
                  for e in (0.05, 0.1, 0.25, 0.5)]
        for v in values[1:]:
            assert v == pytest.approx(values[0], abs=1e-9)

    def test_even_parity_vanishes(self):
        for n in (0, 2, 4, 6):
            spec = make_spec("cos(z)", -1, 1, 0, n)
            assert apv_average(spec).value == pytest.approx(0.0, abs=1e-10)

    def test_reality_for_real_integrand(self):
        spec = make_spec("z^3 + 2*z + 1", -1, 3, 1, 2)
        rep = apv_average(spec)
        assert abs(rep.detail["imag_residual"]) <= rep.err_estimate + 1e-12

