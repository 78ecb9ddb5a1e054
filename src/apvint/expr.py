"""Expression parsing and evaluation for analytic functions of one complex variable.

The grammar is deliberately small: rational operations, integer powers and a
handful of entire transcendental functions (sin, cos, tan, exp, sinh, cosh).
Multivalued functions (log, sqrt, non-integer powers) are excluded so that a
parsed expression is single-valued everywhere it is finite.

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | power
    power  := atom ("^" integer)?
    atom   := number | "z" | ident "(" expr ")" | "(" expr ")"

Numbers are decimal literals with an optional "i" suffix for imaginary parts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr",
    "AnalyticityDecl",
    "ParseError",
    "EvalError",
    "parse",
    "evaluate",
    "to_source",
]

KNOWN_FUNCTIONS = ("sin", "cos", "tan", "exp", "sinh", "cosh")

_FUNC_IMPL = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "sinh": np.sinh,
    "cosh": np.cosh,
}


class ParseError(ValueError):
    """Syntax error, carrying the byte offset and the tokens that were expected."""

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at offset {offset}" + (f" (expected {', '.join(sorted(expected))})" if expected else ""))
        self.offset = offset
        self.expected = frozenset(expected)


class EvalError(ArithmeticError):
    """Division by zero during evaluation; names the offending subexpression."""

    def __init__(self, subexpr, z):
        super().__init__(f"division by zero in '{subexpr}' at z = {z}")
        self.subexpr = subexpr
        self.z = z


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: complex


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Num | Var | Neg | BinOp | Pow | Call


@dataclass(frozen=True)
class Expr:
    """Immutable parsed expression; evaluation is a pure function of (ast, z)."""

    ast: Node
    source: str

    def __call__(self, z):
        return evaluate(self, z)

    @property
    def is_real(self) -> bool:
        """No literal has a nonzero imaginary part, so f is real on the real
        axis and f(conj z) = conj f(z) (Schwarz reflection)."""
        return _is_real(self.ast)

    def __str__(self):
        return to_source(self.ast)


def _is_real(node: Node) -> bool:
    if isinstance(node, Num):
        return node.value.imag == 0.0
    return all(_is_real(child) for child in vars(node).values() if isinstance(child, Node))


@dataclass(frozen=True)
class AnalyticityDecl:
    """User-declared analyticity metadata: either entire, or a finite pole list.

    Only the declared poles are checked: IntegralSpec refuses one on [a, b],
    a contour may cut none of them off, and the default residue and Taylor
    circles stay inside the nearest one's distance from x0. For functions
    with infinitely many poles (e.g. tan) the user is responsible for
    declaring every pole near the interval of interest.
    """

    declared_poles: tuple = ()
    entire: bool = False

    def __post_init__(self):
        if self.entire and self.declared_poles:
            raise ValueError("an entire declaration cannot carry poles")
        object.__setattr__(self, "declared_poles", tuple(complex(p) for p in self.declared_poles))


# ---------------------------------------------------------------------------
# Tokenizer / parser

_NUMBER_RE = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?i?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Tokenizer:
    def __init__(self, source):
        self.source = source
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.source) and self.source[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.source):
            return ("eof", "", self.pos)
        ch = self.source[self.pos]
        if ch in "+-*/^()":
            return (ch, ch, self.pos)
        m = _NUMBER_RE.match(self.source, self.pos)
        if m:
            return ("number", m.group(), self.pos)
        m = _IDENT_RE.match(self.source, self.pos)
        if m:
            return ("ident", m.group(), self.pos)
        raise ParseError(f"unexpected character {ch!r}", self.pos)

    def next(self):
        kind, text, offset = self.peek()
        self.pos = offset + len(text)
        return kind, text, offset

    def expect(self, kind):
        got, text, offset = self.peek()
        if got != kind:
            raise ParseError(f"unexpected token {text or 'end of input'!r}", offset, {kind})
        return self.next()


def parse(source: str) -> Expr:
    """Parse UTF-8 source into an Expr; raises ParseError on malformed input."""
    tok = _Tokenizer(source)
    ast = _parse_expr(tok)
    kind, text, offset = tok.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {text!r}", offset, {"eof"})
    return Expr(ast=ast, source=source)


def _parse_expr(tok):
    node = _parse_term(tok)
    while True:
        kind, _, _ = tok.peek()
        if kind in ("+", "-"):
            tok.next()
            node = BinOp(kind, node, _parse_term(tok))
        else:
            return node


def _parse_term(tok):
    node = _parse_factor(tok)
    while True:
        kind, _, _ = tok.peek()
        if kind in ("*", "/"):
            tok.next()
            node = BinOp(kind, node, _parse_factor(tok))
        else:
            return node


def _parse_factor(tok):
    kind, _, _ = tok.peek()
    if kind == "-":
        tok.next()
        return Neg(_parse_factor(tok))
    return _parse_power(tok)


def _parse_power(tok):
    base = _parse_atom(tok)
    kind, _, _ = tok.peek()
    if kind == "^":
        tok.next()
        kind, text, offset = tok.expect("number")
        if "." in text or "e" in text or "E" in text or text.endswith("i"):
            raise ParseError(f"exponent must be an integer, got {text!r}", offset, {"integer"})
        return Pow(base, int(text))
    return base


def _parse_atom(tok):
    kind, text, offset = tok.peek()
    if kind == "number":
        tok.next()
        if text.endswith("i"):
            return Num(complex(0.0, float(text[:-1] or "1")))
        return Num(complex(float(text), 0.0))
    if kind == "ident":
        tok.next()
        if text == "z":
            return Var()
        if text == "i":
            return Num(1j)
        if text not in KNOWN_FUNCTIONS:
            raise ParseError(f"unknown identifier {text!r}", offset,
                             set(KNOWN_FUNCTIONS) | {"z"})
        tok.expect("(")
        arg = _parse_expr(tok)
        tok.expect(")")
        return Call(text, arg)
    if kind == "(":
        tok.next()
        node = _parse_expr(tok)
        tok.expect(")")
        return node
    raise ParseError(f"unexpected token {text or 'end of input'!r}", offset,
                     {"number", "z", "(", "function"})


# ---------------------------------------------------------------------------
# Printing

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4, "atom": 5}


def to_source(node: Node) -> str:
    """Render a tree back to source; print(parse(s)) re-parses to the same tree."""
    text, _ = _render(node)
    return text


def _render(node):
    if isinstance(node, Num):
        v = node.value
        if v.real == 0.0 and v.imag != 0.0:
            return _fmt_real(v.imag) + "i", _PREC["atom"]
        if v.imag == 0.0:
            return _fmt_real(v.real), _PREC["atom"]
        # general complex literal: render as a sum
        return f"({_fmt_real(v.real)} + {_fmt_real(v.imag)}i)", _PREC["atom"]
    if isinstance(node, Var):
        return "z", _PREC["atom"]
    if isinstance(node, Call):
        inner, _ = _render(node.arg)
        return f"{node.func}({inner})", _PREC["atom"]
    if isinstance(node, Pow):
        base, prec = _render(node.base)
        if prec < _PREC["atom"]:
            base = f"({base})"
        return f"{base}^{node.exponent}", _PREC["pow"]
    if isinstance(node, Neg):
        inner, prec = _render(node.operand)
        if prec < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}", _PREC["neg"]
    if isinstance(node, BinOp):
        lhs, lp = _render(node.left)
        rhs, rp = _render(node.right)
        prec = _PREC[node.op]
        if lp < prec:
            lhs = f"({lhs})"
        # -, / are left associative: parenthesize right child at equal precedence
        if rp < prec or (rp == prec and node.op in ("-", "/")):
            rhs = f"({rhs})"
        elif rp == prec and node.op in ("+", "*") and isinstance(node.right, BinOp):
            rhs = f"({rhs})"
        return f"{lhs} {node.op} {rhs}", prec
    raise TypeError(f"not an AST node: {node!r}")


def _fmt_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


# ---------------------------------------------------------------------------
# Evaluation

def evaluate(expr: Expr, z):
    """Evaluate at a complex point or ndarray of points.

    Uses principal (numpy) definitions of the transcendental functions.
    Raises EvalError when a division by zero occurs at any requested point.
    """
    scalar = np.isscalar(z) or isinstance(z, complex)
    zz = np.asarray(z, dtype=np.complex128)
    with np.errstate(all="ignore"):
        out = _eval_node(expr.ast, zz)
    out = np.asarray(out, dtype=np.complex128)
    if scalar:
        return complex(out)
    return np.broadcast_to(out, zz.shape).copy() if out.shape != zz.shape else out


def _eval_node(node, z):
    if isinstance(node, Num):
        return np.complex128(node.value)
    if isinstance(node, Var):
        return z
    if isinstance(node, Neg):
        return -_eval_node(node.operand, z)
    if isinstance(node, Pow):
        base = _eval_node(node.base, z)
        return base ** node.exponent
    if isinstance(node, Call):
        return _FUNC_IMPL[node.func](_eval_node(node.arg, z))
    if isinstance(node, BinOp):
        left = _eval_node(node.left, z)
        right = _eval_node(node.right, z)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if np.any(right == 0):
            zeros = np.broadcast_to(right == 0, np.broadcast_shapes(np.shape(right), np.shape(z)))
            bad_z = np.broadcast_to(z, zeros.shape)[zeros]
            raise EvalError(to_source(node), complex(bad_z.flat[0]) if bad_z.size else complex(np.asarray(z).flat[0]))
        return left / right
    raise TypeError(f"not an AST node: {node!r}")
