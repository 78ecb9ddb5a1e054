import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apvint.expr import AnalyticityDecl, EvalError, ParseError, evaluate, parse, to_source
from apvint.paths import IntegralSpec

from conftest import make_spec


class TestParse:
    def test_single_call_node(self):
        e = parse("cos(z)")
        assert to_source(e.ast) == "cos(z)"

    def test_precedence_pow_before_mul(self):
        e = parse("z^2 + 3*z")
        assert parse(to_source(e.ast)).ast == e.ast
        # shape check: top node is an addition of Pow and Mul
        assert e.ast.op == "+"
        assert e.ast.left.exponent == 2

    def test_division_shape(self):
        e = parse("1/(1+z^2)")
        assert e.ast.op == "/"
        assert e.ast.right.op == "+"

    def test_unary_minus_binds_looser_than_pow(self):
        e = parse("-z^2")
        assert evaluate(e, 2.0) == -4.0

    def test_imaginary_literal(self):
        assert evaluate(parse("2i"), 0.0) == 2j
        assert evaluate(parse("1.5i*z"), 2.0) == 3j

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("cos(z")
        assert exc.value.offset == 5
        assert ")" in exc.value.expected

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("log(z)")

    def test_multivalued_functions_rejected(self):
        for bad in ("sqrt(z)", "log(z)"):
            with pytest.raises(ParseError):
                parse(bad)

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse("z^2.5")

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("z z")


class TestEvaluate:
    def test_cos_at_zero(self):
        assert evaluate(parse("cos(z)"), 0.0) == 1.0 + 0j

    def test_cos_at_i_is_cosh1(self):
        # oracle: series of cos(iy) = cosh(y)
        cosh1 = sum(1.0 / math.factorial(2 * k) for k in range(20))
        assert evaluate(parse("cos(z)"), 1j) == pytest.approx(cosh1, abs=1e-15)

    def test_cube_of_one_plus_i(self):
        assert evaluate(parse("z^3"), 1 + 1j) == pytest.approx((1 + 1j) ** 3)

    def test_vectorized_matches_scalar(self):
        e = parse("sin(z)*exp(z) - z^2/(1+z^2)")
        zs = np.array([0.3 + 0.1j, -1.2j, 2.0, -0.5 + 0.5j])
        vec = evaluate(e, zs)
        for z, v in zip(zs, vec):
            assert complex(v) == pytest.approx(evaluate(e, complex(z)), rel=1e-14)

    def test_division_by_zero_names_subexpression(self):
        with pytest.raises(EvalError) as exc:
            evaluate(parse("1/(1+z^2)"), 1j)
        assert "1 + z^2" in str(exc.value)

    def test_deterministic(self):
        e = parse("sin(z)^3 / cosh(z)")
        z = 0.7 - 0.2j
        assert evaluate(e, z) == evaluate(e, z)


# -- round-trip property ----------------------------------------------------

_numbers = st.one_of(
    st.integers(min_value=0, max_value=999).map(str),
    st.floats(min_value=0.001, max_value=999, allow_nan=False).map(lambda x: f"{x:.6g}"),
    st.integers(min_value=1, max_value=99).map(lambda k: f"{k}i"),
)
_funcs = st.sampled_from(["sin", "cos", "tan", "exp", "sinh", "cosh"])


def _expr_source(depth):
    if depth == 0:
        return st.one_of(_numbers, st.just("z"))
    sub = st.deferred(lambda: _expr_source(depth - 1))
    return st.one_of(
        _numbers,
        st.just("z"),
        st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(_funcs, sub).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(sub, st.integers(min_value=0, max_value=6)).map(lambda t: f"({t[0]})^{t[1]}"),
        sub.map(lambda s: f"-({s})"),
    )


@settings(max_examples=500, deadline=None)
@given(source=_expr_source(3))
def test_print_parse_round_trip(source):
    tree = parse(source).ast
    assert parse(to_source(tree)).ast == tree


@settings(max_examples=200, deadline=None)
@given(re=st.floats(-3, 3), im=st.floats(-3, 3))
def test_entire_expression_never_divides_by_zero(re, im):
    e = parse("sin(z)*cos(z) + exp(z)^2 - z^3")
    v = evaluate(e, complex(re, im))
    assert cmath.isfinite(v)


class TestValidateRegion:
    def test_entire_with_poles_rejected(self):
        with pytest.raises(ValueError):
            AnalyticityDecl(declared_poles=(1j,), entire=True)


class TestIntegralSpec:
    def test_pole_outside_interval_rejected(self):
        with pytest.raises(ValueError):
            make_spec("cos(z)", 0, 1, 2, 0)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            make_spec("cos(z)", -1, 1, 0, -1)

    @pytest.mark.parametrize("pole", [0.7, -1.0, 1.0])
    def test_declared_pole_on_interval_rejected(self, pole):
        with pytest.raises(ValueError) as info:
            make_spec("1/(z-0.7)", -1, 1, 0, 0, poles=(pole,))
        assert f"declared pole {complex(pole)} lies on [a, b]" in str(info.value)

    def test_declared_pole_near_interval_accepted(self):
        spec = make_spec("cos(z)", -1, 1, 0, 0, poles=(0.5 + 1e-3j, 2j))
        assert spec.pole_distance == abs(0.5 + 1e-3j)
        assert make_spec("cos(z)", -1, 1, 0, 0).pole_distance == math.inf
