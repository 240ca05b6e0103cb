"""Immersion component DSL: parsing, printing and differentiation.

Grammar (binding from loosest to tightest, ``^`` right-associative and
restricted to integer literal exponents)::

    sum    := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ['^' ['-'] INT ...]
    atom   := NUMBER | IDENT | IDENT '(' sum ')' | '(' sum ')'

Identifiers resolve against the declared parameter list, the constants
``psi``, ``sqrt5`` and ``pi``, and the functions ``sin``, ``cos``, ``exp``
and ``sqrt``.  Numbers are decimal literals and are kept as exact
fractions in the AST so that affine expressions over Q(sqrt5) can be
lifted to the exact backend.

``parse(to_text(e), params)`` reproduces ``e`` node for node.  Parsing
bounds the work an expression can ask for: the tree may nest at most
``MAX_DEPTH`` levels deep, and an exponent tower ``a^b^c`` is refused
before its value would pass 64 bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import jets
from .errors import DomainError, ExprSyntaxError, UnknownIdentifier
from .jets import Jet2
from .quadrat import PSI, QuadRat, SQRT5

CONSTANT_VALUES = {"psi": float(PSI), "sqrt5": math.sqrt(5.0), "pi": math.pi}
EXACT_CONSTANTS = {"psi": PSI, "sqrt5": SQRT5}
# Evaluation, printing and the parser itself recurse once per level.
MAX_DEPTH = 100
FUNCTIONS: dict[str, Callable[[Jet2], Jet2]] = {
    "sin": jets.sin,
    "cos": jets.cos,
    "exp": jets.exp,
    "sqrt": jets.sqrt,
}


@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class Param:
    name: str
    index: int


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"


Node = Lit | Param | Const | Neg | Bin | Pow | Call


@dataclass(frozen=True)
class Expr:
    """Parsed expression over a fixed parameter list."""

    root: Node
    params: tuple[str, ...]

    @property
    def m(self) -> int:
        return len(self.params)

    def to_text(self) -> str:
        return _print(self.root, 0)

    def eval_jet(self, point: Sequence[float]) -> Jet2:
        """Value, gradient and Hessian at one point: the jets of a batch of one."""
        jet = self.eval_jets([point])
        return Jet2(float(jet.value[0]), jet.grad[0], jet.hess[0])

    def eval_jets(self, points) -> Jet2:
        """Jets at the N rows of ``points`` from one pass over the AST: value (N,),
        grad (N, m), hess (N, m, m).  Overflowing or undefined ones raise DomainError."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.m:
            raise DomainError(f"expected {self.m} coordinates, got {points.shape[-1]}")
        try:
            with np.errstate(all="ignore"):
                jet = _eval_jet(self.root, points)
        except OverflowError as exc:
            raise DomainError(f"overflow: {exc}") from None
        n, m = points.shape
        value = np.array(np.broadcast_to(jet.value, (n,)))
        grad = np.array(np.broadcast_to(jet.grad, (n, m)))
        hess = np.array(np.broadcast_to(jet.hess, (n, m, m)))
        finite = np.isfinite(value) & np.isfinite(grad).all(-1) & np.isfinite(hess).all((-2, -1))
        if not finite.all():
            bad = tuple(points[np.argmin(finite)].tolist())
            raise DomainError(f"value or derivative is not finite at {bad}")
        return Jet2(value, grad, hess)

    def affine_exact(self) -> tuple[QuadRat, list[QuadRat]] | None:
        """Exact ``(constant, coefficients)`` if the expression is affine over Q(sqrt5)."""
        return _affine(self.root, self.m)


# ---------------------------------------------------------------------------
# tokenizer / parser


@dataclass(frozen=True)
class _Token:
    kind: str  # NUM, IDENT, OP, END
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                if j >= n or not text[j].isdigit():
                    raise ExprSyntaxError("malformed number", i)
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(_Token("NUM", text[i:j], i))
            i = j
        elif c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], i))
            i = j
        elif c in "+-*/^()":
            tokens.append(_Token("OP", c, i))
            i += 1
        else:
            raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(_Token("END", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], params: Sequence[str]):
        self.tokens = tokens
        self.pos = 0
        self.params = {name: i for i, name in enumerate(params)}
        self.depth = 0

    def nest(self, step: int) -> None:
        self.depth += step
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels",
                                  self.peek().offset)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if tok.kind != "OP" or tok.text != op:
            raise ExprSyntaxError(f"expected {op!r}", tok.offset)
        self.advance()

    def parse_sum(self) -> Node:
        node = self.parse_term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            node = Bin(op, node, self.parse_term())
        return node

    def parse_term(self) -> Node:
        node = self.parse_unary()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance().text
            node = Bin(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Node:
        self.nest(1)
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            node = Neg(self.parse_unary())
        else:
            node = self.parse_power()
        self.depth -= 1
        return node

    def parse_power(self) -> Node:
        base = self.parse_atom()
        if self.peek().kind == "OP" and self.peek().text == "^":
            self.advance()
            return Pow(base, self.parse_exponent())
        return base

    def parse_exponent(self) -> int:
        sign = 1
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            sign = -1
            tok = self.peek()
        if tok.kind != "NUM" or "." in tok.text:
            raise ExprSyntaxError("exponent must be an integer literal", tok.offset)
        self.advance()
        value = int(tok.text)
        if self.peek().kind == "OP" and self.peek().text == "^":
            self.advance()
            self.nest(1)
            offset = self.peek().offset
            power = self.parse_exponent()
            self.depth -= 1
            if power < 0 or (value > 1 and power * math.log2(value) >= 64):
                raise ExprSyntaxError("an exponent tower must be a nonnegative integer "
                                      "below 2^64", offset)
            value = value ** power
        return sign * value

    def parse_atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            return Lit(Fraction(tok.text))
        if tok.kind == "IDENT":
            self.advance()
            name = tok.text
            if name in FUNCTIONS:
                self.expect_op("(")
                arg = self.parse_sum()
                self.expect_op(")")
                return Call(name, arg)
            if name in self.params:
                return Param(name, self.params[name])
            if name in CONSTANT_VALUES:
                return Const(name)
            raise UnknownIdentifier(name, tok.offset)
        if tok.kind == "OP" and tok.text == "(":
            self.advance()
            node = self.parse_sum()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"expected an operand, found {tok.text or 'end of input'!r}",
                              tok.offset)


def parse(text: str, params: Sequence[str]) -> Expr:
    """Parse ``text`` over the declared parameter names."""
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    if len(set(params)) != len(params):
        raise ExprSyntaxError("duplicate parameter names", 0)
    parser = _Parser(_tokenize(text), params)
    root = parser.parse_sum()
    tail = parser.peek()
    if tail.kind != "END":
        raise ExprSyntaxError(f"unexpected trailing input {tail.text!r}", tail.offset)
    # A long chain such as u+u+...+u is deep without nesting.
    height, level = 0, [root]
    while level:
        height += 1
        level = [c for node in level for c in vars(node).values() if isinstance(c, Node)]
    if height > MAX_DEPTH:
        raise ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels", 0)
    return Expr(root, tuple(params))


# ---------------------------------------------------------------------------
# printing


def _prec(node: Node) -> int:
    if isinstance(node, Bin):
        return 1 if node.op in "+-" else 2
    if isinstance(node, Neg):
        return 3
    if isinstance(node, Pow):
        return 4
    return 5


def _frac_text(fr: Fraction) -> str:
    if fr.denominator == 1:
        return str(fr.numerator)
    den = fr.denominator
    k2 = k5 = 0
    while den % 2 == 0:
        den //= 2
        k2 += 1
    while den % 5 == 0:
        den //= 5
        k5 += 1
    if den != 1:  # not a finite decimal; valid but reparses as a division
        return f"({fr.numerator}/{fr.denominator})"
    k = max(k2, k5)
    digits = fr.numerator * 10**k // fr.denominator
    s = str(digits).rjust(k + 1, "0")
    return f"{s[:-k]}.{s[-k:]}"


def _print(node: Node, min_prec: int) -> str:
    if isinstance(node, Lit):
        out = _frac_text(node.value)
    elif isinstance(node, (Param, Const)):
        out = node.name
    elif isinstance(node, Neg):
        out = "-" + _print(node.operand, 4)
    elif isinstance(node, Bin):
        p = _prec(node)
        out = _print(node.left, p) + node.op + _print(node.right, p + 1)
    elif isinstance(node, Pow):
        out = _print(node.base, 5) + "^" + str(node.exponent)
    elif isinstance(node, Call):
        out = f"{node.fn}({_print(node.arg, 0)})"
    else:  # pragma: no cover
        raise TypeError(f"unknown node {node!r}")
    if _prec(node) < min_prec:
        return f"({out})"
    return out


# ---------------------------------------------------------------------------
# evaluation


def _eval_jet(node: Node, points: np.ndarray) -> Jet2:
    m = points.shape[1]
    if isinstance(node, Lit):
        return Jet2.constant(float(node.value), m)
    if isinstance(node, Const):
        return Jet2.constant(CONSTANT_VALUES[node.name], m)
    if isinstance(node, Param):
        return Jet2.variable(points[:, node.index], node.index, m)
    if isinstance(node, Neg):
        return -_eval_jet(node.operand, points)
    if isinstance(node, Bin):
        left = _eval_jet(node.left, points)
        right = _eval_jet(node.right, points)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        return left / right
    if isinstance(node, Pow):
        return _eval_jet(node.base, points) ** node.exponent
    return FUNCTIONS[node.fn](_eval_jet(node.arg, points))


def _affine(node: Node, m: int) -> tuple[QuadRat, list[QuadRat]] | None:
    """Exact affine form over Q(sqrt5), or None when unavailable."""
    zero = [QuadRat(0)] * m
    if isinstance(node, Lit):
        return QuadRat(node.value), list(zero)
    if isinstance(node, Const):
        exact = EXACT_CONSTANTS.get(node.name)
        return (exact, list(zero)) if exact is not None else None
    if isinstance(node, Param):
        coeffs = list(zero)
        coeffs[node.index] = QuadRat(1)
        return QuadRat(0), coeffs
    if isinstance(node, Neg):
        inner = _affine(node.operand, m)
        if inner is None:
            return None
        c, coeffs = inner
        return -c, [-x for x in coeffs]
    if isinstance(node, Bin):
        left = _affine(node.left, m)
        right = _affine(node.right, m)
        if left is None or right is None:
            return None
        (cl, vl), (cr, vr) = left, right
        if node.op == "+":
            return cl + cr, [x + y for x, y in zip(vl, vr)]
        if node.op == "-":
            return cl - cr, [x - y for x, y in zip(vl, vr)]
        if node.op == "*":
            if not any(vl):
                return cl * cr, [cl * y for y in vr]
            if not any(vr):
                return cl * cr, [cr * x for x in vl]
            return None
        if any(vr) or not cr:
            return None
        inv = cr.inverse()
        return cl * inv, [x * inv for x in vl]
    if isinstance(node, Pow):
        inner = _affine(node.base, m)
        if inner is None:
            return None
        c, coeffs = inner
        if node.exponent == 0:
            return QuadRat(1), list(zero)
        if node.exponent == 1:
            return c, coeffs
        if any(coeffs):
            return None
        if not c and node.exponent < 0:
            return None
        return c**node.exponent, list(zero)
    return None


def eval_jet(e: Expr, point: Sequence[float]) -> Jet2:
    """Value, gradient and Hessian of ``e`` at ``point``."""
    return e.eval_jet(point)


def evaluate(components: Sequence[Expr], points) -> tuple[np.ndarray, np.ndarray]:
    """Jacobians (N, n, m) and Hessians (N, n, m, m) of an immersion at (N, m) ``points``."""
    jets = [comp.eval_jets(points) for comp in components]
    return np.stack([j.grad for j in jets], axis=1), np.stack([j.hess for j in jets], axis=1)


def jacobian(components: Sequence[Expr], point: Sequence[float]) -> np.ndarray:
    """n x m Jacobian of an immersion given by ``components`` at ``point``."""
    return evaluate(components, [point])[0][0]


def hessians(components: Sequence[Expr], point: Sequence[float]) -> np.ndarray:
    """n x m x m array of component Hessians at ``point``."""
    return evaluate(components, [point])[1][0]
