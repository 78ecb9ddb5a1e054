"""Worked example: finite parts of cos(x) / x^(n+1) on [-1, 1].

For this problem the contour average over unit semicircles reduces to a
purely real absolutely convergent integral over theta in [0, pi], which makes
it a convenient end-to-end check. The same representation is a Fourier-type
integral in n, so repeated integration by parts gives a large-n expansion
whose first six coefficients are hard-coded below; the expansion vanishes
identically for even n, as does the exact value.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .apv import apv_average
from .expr import parse
from .paths import IntegralSpec, semicircle_path
from .quadrature import QuadConfig, integrate_function

__all__ = [
    "si",
    "cos_apv_integrand",
    "cos_apv_reference",
    "cos_fpi_asymptotic",
    "write_asymptotic_csv",
]


def si(x: float) -> float:
    """Sine integral by its everywhere-convergent Maclaurin series."""
    total = 0.0
    power = x  # x^(2k+1) / (2k+1)!, updated multiplicatively
    k = 0
    while True:
        term = (-1) ** k * power / (2 * k + 1)
        total += term
        k += 1
        if abs(term) <= 1e-17 * max(1.0, abs(total)) or k > 200:
            return total
        power *= x * x / ((2 * k) * (2 * k + 1))


def cos_apv_integrand(theta, n: int):
    """Real integrand whose integral over [0, pi] is the finite part.

    Both terms combined: -sin(cos t) sinh(sin t) cos(n t)
                         -cos(cos t) cosh(sin t) sin(n t).
    """
    t = np.asarray(theta, dtype=float)
    val = (-np.sin(np.cos(t)) * np.sinh(np.sin(t)) * np.cos(n * t)
           - np.cos(np.cos(t)) * np.cosh(np.sin(t)) * np.sin(n * t))
    if np.isscalar(theta):
        return float(val)
    return val


def integrate_cos_apv_integrand(n: int, cfg: QuadConfig | None = None):
    """Quadrature of the real theta-integrand over [0, pi]."""
    cfg = cfg or QuadConfig()
    return integrate_function(lambda t: cos_apv_integrand(t, n) + 0j, 0.0, math.pi, cfg)


_COS_EXPR = parse("cos(z)")


def cos_problem(n: int) -> IntegralSpec:
    return IntegralSpec(f=_COS_EXPR, a=-1.0, b=1.0, x0=0.0, n=n)


def cos_apv_reference(n: int, cfg: QuadConfig | None = None) -> float:
    """Full contour-average value on unit semicircle bulge paths."""
    spec = cos_problem(n)
    return apv_average(spec, semicircle_path(spec, 1.0), cfg=cfg).value


# Large-n expansion coefficients of the finite part, by power of 1/n.
# The whole expansion carries a ((-1)^n - 1) prefactor.
_C1, _S1 = math.cos(1.0), math.sin(1.0)
_ASYM_TERMS = (
    _C1,                 # 1/n
    -_S1,                # 1/n^2
    -(_C1 + _S1),        # 1/n^3
    -3.0 * _C1,          # 1/n^4
    5.0 * _S1 - 6.0 * _C1,       # 1/n^5
    -(5.0 * _C1 - 23.0 * _S1),   # 1/n^6
)
MAX_ASYM_TERMS = len(_ASYM_TERMS)


def cos_fpi_asymptotic(n: int, terms: int = MAX_ASYM_TERMS) -> float:
    """Truncated large-n expansion; exactly zero for even n."""
    if n < 1:
        raise ValueError("expansion applies to n >= 1")
    if not (1 <= terms <= MAX_ASYM_TERMS):
        raise ValueError(f"terms must be in 1..{MAX_ASYM_TERMS}")
    prefactor = (-1) ** n - 1
    if prefactor == 0:
        return 0.0
    total = sum(_ASYM_TERMS[j] / n ** (j + 1) for j in range(terms))
    return prefactor * total


def write_asymptotic_csv(path, n_values, terms: int = MAX_ASYM_TERMS,
                         cfg: QuadConfig | None = None):
    """Emit (n, apv_value, asym_value, abs_err) rows for plotting."""
    rows = []
    for n in n_values:
        ref = cos_apv_reference(n, cfg)
        asym = cos_fpi_asymptotic(n, terms)
        rows.append((n, ref, asym, abs(ref - asym)))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "apv_value", "asym_value", "abs_err"])
        writer.writerows(rows)
    return rows
