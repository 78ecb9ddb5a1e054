import math

import pytest

from apvint.apv import (apv_average, apv_lower, apv_upper, default_paths,
                        derivative_at_pole, jump_relation_check, report_to_dict)
from apvint.paths import Arc, ComplexPath, Line, semicircle_path
from apvint.quadrature import QuadConfig

from conftest import (COS_FPI_N1, COS_FPI_N3, WINDS_TWICE, ZIGZAG, exp_cpv_series,
                      make_spec)


class TestDerivativeAtPole:
    def test_cos_values(self):
        spec = make_spec("cos(z)", -1, 1, 0, 0)
        assert derivative_at_pole(spec) == pytest.approx(1.0, abs=1e-12)
        spec1 = make_spec("cos(z)", -1, 1, 0, 1)
        assert derivative_at_pole(spec1) == pytest.approx(0.0, abs=1e-12)
        spec2 = make_spec("cos(z)", -1, 1, 0, 2)
        assert derivative_at_pole(spec2) == pytest.approx(-0.5, abs=1e-12)


class TestAverageRoute:
    def test_cos_cpv_vanishes(self):
        spec = make_spec("cos(z)", -1, 1, 0, 0)
        plus = semicircle_path(spec, 1.0, "above")
        minus = semicircle_path(spec, 1.0, "below")
        rep = apv_average(spec, plus, minus)
        assert rep.value == pytest.approx(0.0, abs=1e-10)
        assert rep.route == "average"

    def test_cos_n1_golden(self):
        spec = make_spec("cos(z)", -1, 1, 0, 1)
        rep = apv_average(spec)
        assert rep.value == pytest.approx(COS_FPI_N1, abs=1e-9)
        assert abs(rep.imag_residual) <= rep.err_estimate + 1e-13

    def test_cos_n3_golden(self):
        spec = make_spec("cos(z)", -1, 1, 0, 3)
        rep = apv_average(spec)
        assert rep.value == pytest.approx(COS_FPI_N3, abs=1e-9)

    def test_average_consistency_invariant(self):
        spec = make_spec("exp(z)", -1, 1, 0, 2)
        rep = apv_average(spec)
        assert rep.value == pytest.approx(0.5 * (rep.int_plus + rep.int_minus).real)

    def test_side_misclassification_rejected(self):
        spec = make_spec("cos(z)", -1, 1, 0, 1)
        plus, minus = default_paths(spec)
        with pytest.raises(ValueError, match="classified"):
            apv_average(spec, minus, plus)

    def test_self_crossing_path_accepted(self):
        # crossing points change no winding number, so not the value either
        spec = make_spec("cos(z)", -1, 1, 0, 1)
        rep = apv_average(spec, ZIGZAG, ZIGZAG.conjugate())
        assert abs(rep.value - COS_FPI_N1) <= rep.err_estimate

    def test_path_winding_twice_rejected(self):
        spec = make_spec("cos(z)", -1, 1, 0, 1)
        assert WINDS_TWICE.turn(0.0) == pytest.approx(-3 * math.pi)
        with pytest.raises(ValueError, match="classified"):
            apv_average(spec, WINDS_TWICE, WINDS_TWICE.conjugate())


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
            apv_average(spec, bulge, bulge.conjugate())
        with pytest.raises(ValueError, match=r"above x0 encloses declared pole 1j"):
            apv_upper(spec, bulge)
        with pytest.raises(ValueError, match="below x0 encloses declared pole"):
            apv_lower(spec, bulge.conjugate())

    def test_pole_outside_loop_accepted(self, spec):
        box = self.box(0.5)
        rep = apv_average(spec, box, box.conjugate())
        assert rep.value == pytest.approx(apv_average(spec).value, abs=1e-9)

    def test_figure_eight_around_pole_accepted(self, spec):
        # the path passes over i, and the left lobe of a figure-eight winds
        # once the other way round it: the loop's net winding about i is 0
        corners = (-2, -1 + 0.3j, 1.5 + 1.3j, 1.5 + 0.6j, -1 + 1.6j, -1 + 2.5j, 2 + 2.5j, 2)
        figure8 = ComplexPath(tuple(Line(complex(p), complex(q))
                                    for p, q in zip(corners, corners[1:])))
        rep = apv_average(spec, figure8, figure8.conjugate())
        assert rep.value == pytest.approx(apv_average(spec).value, abs=1e-9)

    def test_pole_on_path_rejected(self, spec):
        with pytest.raises(ValueError, match="lies on the path"):
            apv_upper(spec, self.box(1.0))

    def test_pole_on_interval_rejected(self):
        spec = make_spec("1/(z-1.5)", -2, 2, 0.3, 0, poles=(1.5,))
        with pytest.raises(ValueError, match=r"on the path or on \[a, b\]"):
            apv_upper(spec, self.box(0.5))

    def test_path_for_another_interval_rejected(self, spec):
        other = make_spec("1", -1, 1, 0.3, 0)
        with pytest.raises(ValueError, match="not from a"):
            apv_upper(spec, semicircle_path(other, 0.2, "above"))


class TestOnePathRoutes:
    def test_constant_cpv_zero(self):
        spec = make_spec("1", -1, 1, 0, 0)
        rep = apv_upper(spec)
        assert rep.int_plus == pytest.approx(-1j * math.pi, abs=1e-10)
        assert rep.residue_term == pytest.approx(1.0, abs=1e-12)
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
            assert lo.route == "lower"


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
        small = apv_average(spec, semicircle_path(spec, 0.1, "above"),
                            semicircle_path(spec, 0.1, "below"))
        bulge = apv_average(spec, semicircle_path(spec, 0.9, "above"),
                            semicircle_path(spec, 0.9, "below"))
        assert small.value == pytest.approx(bulge.value, abs=1e-9)

    def test_eps_independence(self):
        spec = make_spec("cos(z)", -1, 1, 0, 1)
        values = [apv_average(spec, semicircle_path(spec, e, "above"),
                              semicircle_path(spec, e, "below")).value
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
        assert abs(rep.imag_residual) <= rep.err_estimate + 1e-12


class TestReportSerialization:
    def test_schema(self):
        spec = make_spec("cos(z)", -1, 1, 0, 1)
        doc = report_to_dict(apv_average(spec))
        assert set(doc) == {"value", "imag_residual", "int_plus", "int_minus",
                            "residue_term", "route", "err_estimate", "evals"}
        assert isinstance(doc["int_plus"], list) and len(doc["int_plus"]) == 2

    def test_one_path_route_has_null_other_side(self):
        spec = make_spec("cos(z)", -1, 1, 0, 1)
        doc = report_to_dict(apv_upper(spec))
        assert doc["int_minus"] is None
