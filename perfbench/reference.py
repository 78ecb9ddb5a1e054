"""Independent reference values for the benchmark, computed with mpmath.

The finite part of f(x)/(x-x0)^(n+1) over [a, b] is the average of the
integrals along a path bulging above x0 and its mirror image below. For f
with real coefficients the two integrals are complex conjugates, so the
average is the real part of the upper one. The path used here is the
semicircle of radius R about x0 joined to a and b by real lines, with R the
pole gap (shrunk when a declared pole of f is close), evaluated at 30+
digits. It shares no code with apvint beyond the parsed expression tree,
which a small evaluator below walks with mpmath arithmetic.
"""

from __future__ import annotations

import mpmath as mp

from apvint import expr as E

DPS = 32

_FUNCS = {"sin": mp.sin, "cos": mp.cos, "tan": mp.tan, "exp": mp.exp,
          "sinh": mp.sinh, "cosh": mp.cosh}


def mp_eval(node, z):
    """Value of an apvint.expr AST node at the mpmath number z."""
    if isinstance(node, E.Num):
        return mp.mpc(node.value.real, node.value.imag)
    if isinstance(node, E.Var):
        return z
    if isinstance(node, E.Neg):
        return -mp_eval(node.operand, z)
    if isinstance(node, E.Pow):
        return mp_eval(node.base, z) ** node.exponent
    if isinstance(node, E.Call):
        return _FUNCS[node.func](mp_eval(node.arg, z))
    if isinstance(node, E.BinOp):
        left, right = mp_eval(node.left, z), mp_eval(node.right, z)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        return left / right
    raise TypeError(f"not an AST node: {node!r}")


def _geometric_cuts(x0, near, far):
    """Breakpoints from `near` (at distance R from x0) out to `far`, with the
    distance to x0 doubling, so that each piece resolves the 1/(x-x0)^(n+1)
    growth towards the pole."""
    sign = 1 if far > near else -1
    radius = abs(near - x0)
    cuts = [near]
    dist = 2 * radius
    while dist < abs(far - x0):
        cuts.append(x0 + sign * dist)
        dist *= 2
    cuts.append(far)
    return cuts


def finite_part(source: str, a: float, b: float, x0: float, n: int,
                poles=(), dps: int = DPS) -> float:
    """Cauchy principal value (n = 0) or Hadamard finite part (n >= 1).

    Raises ArithmeticError if mpmath's own error estimate is not far below
    double precision relative to the integrand's scale.
    """
    ast = E.parse(source).ast
    with mp.workdps(dps):
        a, b, x0 = mp.mpf(a), mp.mpf(b), mp.mpf(x0)
        radius = min(x0 - a, b - x0)
        for p in poles:
            radius = min(radius, abs(mp.mpc(p.real, p.imag) - x0) / 2)

        def g(z):
            return mp_eval(ast, z) / (z - x0) ** (n + 1)

        total, err, scale = mp.mpc(0), mp.mpf(0), mp.mpf(0)
        for near, far in ((x0 - radius, a), (x0 + radius, b)):
            if near == far:
                continue
            val, e = mp.quad(g, _geometric_cuts(x0, near, far),
                             method="gauss-legendre", error=True)
            val = -val if far < near else val
            total, err, scale = total + val, err + e, scale + abs(val)

        def on_arc(t):
            w = radius * mp.expj(t)
            return g(x0 + w) * 1j * w

        arc_cuts = mp.linspace(mp.pi, 0, max(4, n // 8 + 1) + 1)
        val, e = mp.quad(on_arc, arc_cuts, method="gauss-legendre", error=True)
        total, err, scale = total + val, err + e, scale + abs(val)
        if not err <= mp.mpf(10) ** (-22) * max(scale, 1):
            raise ArithmeticError(f"reference quadrature error {mp.nstr(err, 3)} "
                                  f"for {source} at x0={x0}, n={n}")
        return float(total.real)
