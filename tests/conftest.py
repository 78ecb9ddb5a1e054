"""Shared oracles and the cross-route verification corpus.

Oracle helpers here are deliberately independent of the library's own code
paths: plain-Python series summation and closed forms only.
"""

import math

import pytest

from apvint import AnalyticityDecl, Arc, ComplexPath, IntegralSpec, Line, parse


def si_series(x: float) -> float:
    """Sine integral by direct Maclaurin summation."""
    total = 0.0
    for k in range(0, 60):
        total += (-1) ** k * x ** (2 * k + 1) / ((2 * k + 1) * math.factorial(2 * k + 1))
    return total


def cos_fpi_series(n: int, a: float = -1.0, b: float = 1.0) -> float:
    """Finite part of cos(x)/x^(n+1) over [a, b], a < 0 < b, for odd n, by
    direct summation of sum_j (-1)^j (b^(2j-n) - a^(2j-n)) / ((2j)! (2j-n));
    on [-1, 1], n = 1 gives -2(cos 1 + Si 1) and n = 3 gives (Si1+sin1-cos1)/3."""
    total = 0.0
    for j in range(40):
        m = 2 * j - n
        total += (b ** m - a ** m) * (-1) ** j / (math.factorial(2 * j) * m)
    return total


def exp_cpv_series(a: float, b: float) -> float:
    """CPV of exp(x)/x over [a, b] with a < 0 < b, by direct summation."""
    total = math.log(b) - math.log(-a)
    for k in range(1, 80):
        total += (b ** k - a ** k) / (k * math.factorial(k))
    return total


COS_FPI_N1 = cos_fpi_series(1)    # -2.972770752470645...
COS_FPI_N3 = cos_fpi_series(3)    # 0.415750583102313...


# Contours for cos(z)/z^2 on [-1, 1]: a zigzag above 0 that crosses itself,
# and a path that winds once more round 0 before passing above it.
ZIGZAG = ComplexPath((Line(-1 + 0j, 0.5 + 0.5j), Line(0.5 + 0.5j, -0.5 + 0.3j),
                      Line(-0.5 + 0.3j, 1 + 0j)))
WINDS_TWICE = ComplexPath((Line(-1 + 0j, -0.5 + 0j), Arc(0j, 0.5, math.pi, -math.pi),
                           Arc(0j, 0.5, math.pi, 0.0), Line(0.5 + 0j, 1 + 0j)))


def make_spec(source, a, b, x0, n, poles=()):
    decl = AnalyticityDecl(declared_poles=tuple(poles), entire=not poles)
    return IntegralSpec(f=parse(source), a=float(a), b=float(b), x0=float(x0),
                        n=int(n), decl=decl)


def route_corpus():
    """Assorted specs for the route-equivalence / jump-relation checks."""
    specs = [
        make_spec("cos(z)", -1, 1, 0, 0),
        make_spec("cos(z)", -1, 1, 0, 1),
        make_spec("cos(z)", -1, 1, 0, 3),
        make_spec("cos(z)", -0.5, 2, 0.5, 2),
        make_spec("exp(z)", -1, 2, 0, 0),
        make_spec("exp(z)", -1, 1, 0, 2),
        make_spec("exp(z)", -2, 1, -0.5, 4),
        make_spec("z^3 + 2*z + 1", -1, 1, 0, 1),
        make_spec("z^3 + 2*z + 1", -1, 3, 1, 3),
        make_spec("sinh(z)", -1, 1, 0, 0),
        make_spec("sinh(z)", -1.5, 1, -0.25, 2),
        make_spec("1/(1+z^2)", -0.5, 0.5, 0, 0, poles=(1j, -1j)),
        make_spec("1/(1+z^2)", -0.5, 0.5, 0.1, 1, poles=(1j, -1j)),
    ]
    return specs


def entire_corpus():
    return [s for s in route_corpus() if s.decl.entire]


@pytest.fixture
def cos_spec_n1():
    return make_spec("cos(z)", -1, 1, 0, 1)
