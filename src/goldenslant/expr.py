"""Immersion component DSL: parsing and differentiation.

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

Parsing bounds the work an expression can ask for: the tree may nest at
most ``MAX_DEPTH`` levels deep, and an exponent tower ``a^b^c`` is refused
before its value would pass 64 bits.  The exact lift stops short of constant
powers beyond ``MAX_POWER_BITS``.

Parsing and the exact lift need no numpy: only the evaluation entry points
(``Expr.eval_jets``, :func:`evaluate`, :func:`evaluate_affine`,
:func:`jacobian`, :func:`hessians`) import it when they run, and the jet
route also imports :mod:`.jets`, so a config loads without either.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import DomainError, ExprSyntaxError, UnknownIdentifier
from .quadrat import PSI, SQRT5, QuadRat, from_integers

CONSTANT_VALUES = {"psi": float(PSI), "sqrt5": math.sqrt(5.0), "pi": math.pi}
EXACT_CONSTANTS = {"psi": PSI, "sqrt5": SQRT5}
# Evaluation and the parser itself recurse once per level.
MAX_DEPTH = 100
# Bit budget of an exact constant power c^N, whose size grows linearly in the
# exponent literal: with c = (p + q sqrt5)/d and b the largest bit length of
# p, q and d (of 1/c for N < 0), every integer of c^N has at most (b + 2)|N|
# bits.  A power over budget is not lifted, leaving the float route alone.
MAX_POWER_BITS = 4096
# Their jet rules are the functions of the same names in :mod:`.jets`.
FUNCTIONS = ("sin", "cos", "exp", "sqrt")


class _Record:
    """Fields named by ``__slots__``; equal to a record of the same type with equal fields."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other._values() == self._values()

    def __hash__(self) -> int:
        return hash((type(self), self._values()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self._values()))})"


class Lit(_Record):
    __slots__ = ("value",)  # a Fraction


class Param(_Record):
    __slots__ = ("name", "index")


class Const(_Record):
    __slots__ = ("name",)


class Neg(_Record):
    __slots__ = ("operand",)


class Bin(_Record):
    __slots__ = ("op", "left", "right")  # op is one of + - * /


class Pow(_Record):
    __slots__ = ("base", "exponent")  # an int exponent


class Call(_Record):
    __slots__ = ("fn", "arg")


Node = Lit | Param | Const | Neg | Bin | Pow | Call


class Expr(_Record):
    """Parsed expression over a fixed parameter list: ``root`` and the ``params`` tuple."""

    __slots__ = ("root", "params")

    @property
    def m(self) -> int:
        return len(self.params)

    def eval_jets(self, points):
        """Jets at the N rows of ``points`` from one pass over the AST: value (N,),
        grad (N, m), hess (N, m, m).  Overflowing or undefined ones raise DomainError."""
        import numpy as np

        from .jets import Jet2, evaluate_tree

        points = _points(points, self.m)
        try:
            with np.errstate(all="ignore"):
                jet = evaluate_tree(self.root, points)
        except OverflowError as exc:
            raise DomainError(f"overflow: {exc}") from None
        n, m = points.shape
        value = np.array(np.broadcast_to(jet.value, (n,)))
        grad = np.array(np.broadcast_to(jet.grad, (n, m)))
        hess = np.array(np.broadcast_to(jet.hess, (n, m, m)))
        _require_finite(points, np.isfinite(value) & np.isfinite(grad).all(-1)
                        & np.isfinite(hess).all((-2, -1)))
        return Jet2(value, grad, hess)

    def affine_exact(self) -> tuple[QuadRat, list[QuadRat]] | None:
        """Exact ``(constant, coefficients)`` if the expression is affine over Q(sqrt5)."""
        form = _affine(self.root)
        if form is None:
            return None
        return form[0], [form[1].get(i, _ZERO) for i in range(self.m)]


# ---------------------------------------------------------------------------
# tokenizer / parser


class _Token(NamedTuple):
    kind: str  # NUM, IDENT, OP, END
    text: str
    offset: int


_DIGITS = frozenset("0123456789")  # ASCII only: str.isdigit also takes "²", "①" and "٣"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _DIGITS:
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            if j < n and text[j] == ".":
                j += 1
                if j >= n or text[j] not in _DIGITS:
                    raise ExprSyntaxError("malformed number", i)
                while j < n and text[j] in _DIGITS:
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


def _number(kind: type, tok: _Token):
    """``kind(tok.text)``; a literal past Python's int-string digit limit is an ExprSyntaxError."""
    try:
        return kind(tok.text)
    except ValueError:
        raise ExprSyntaxError("number has too many digits", tok.offset) from None


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
        value = _number(int, tok)
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
            return Lit(_number(Fraction, tok))
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
        level = [c for node in level for c in node._values() if isinstance(c, _Record)]
    if height > MAX_DEPTH:
        raise ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels", 0)
    return Expr(root, tuple(params))


# ---------------------------------------------------------------------------
# exact lift and evaluation entry points


_ZERO, _ONE = QuadRat(0), QuadRat(1)


def _affine(node: Node) -> tuple[QuadRat, dict[int, QuadRat]] | None:
    """Exact affine form over Q(sqrt5): the constant and the nonzero coefficients
    by parameter index, or None when unavailable."""
    kind = type(node)
    if kind is Lit:  # a Fraction, so already in lowest terms
        return from_integers(node.value.numerator, 0, node.value.denominator), {}
    if kind is Const:
        exact = EXACT_CONSTANTS.get(node.name)
        return (exact, {}) if exact is not None else None
    if kind is Param:
        return _ZERO, {node.index: _ONE}
    if kind is Neg:
        inner = _affine(node.operand)
        if inner is None:
            return None
        c, coeffs = inner
        return -c, {i: -x for i, x in coeffs.items()}
    if kind is Bin:
        left = _affine(node.left)
        right = None if left is None else _affine(node.right)
        if right is None:
            return None
        (cl, vl), (cr, vr) = left, right
        if node.op in "+-":
            op = operator.add if node.op == "+" else operator.sub
            coeffs = dict(vl)
            for i, y in vr.items():
                coeffs[i] = op(coeffs.get(i, _ZERO), y)
            return op(cl, cr), {i: x for i, x in coeffs.items() if x}
        if node.op == "*":
            if not vl:
                return cl * cr, _scaled(vr, cl)
            if not vr:
                return cl * cr, _scaled(vl, cr)
            return None
        if vr or not cr:
            return None
        inv = cr.inverse()
        return cl * inv, _scaled(vl, inv)
    if kind is Pow:
        inner = _affine(node.base)
        if inner is None:
            return None
        c, coeffs = inner
        if node.exponent == 0:
            return _ONE, {}
        if node.exponent == 1:
            return c, coeffs
        if coeffs:
            return None
        if not c and node.exponent < 0:
            return None
        base = c if node.exponent > 0 else c.inverse()
        bits = max(x.bit_length() for x in base.integers)
        if abs(node.exponent) * (bits + 2) > MAX_POWER_BITS:
            return None
        return base ** abs(node.exponent), {}
    return None


def _scaled(coeffs: dict[int, QuadRat], c: QuadRat) -> dict[int, QuadRat]:
    return {i: x * c for i, x in coeffs.items()} if c else {}


def _points(points, m: int):
    """``points`` as an (N, m) float array."""
    import numpy as np

    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != m:
        raise DomainError(f"expected {m} coordinates, got {points.shape[-1]}")
    return points


def _require_finite(points, finite) -> None:
    """DomainError at the first of the (N, m) ``points`` where the (N,) ``finite`` is False."""
    if not finite.all():
        bad = tuple(points[finite.argmin()].tolist())
        raise DomainError(f"value or derivative is not finite at {bad}")


def evaluate(components: Sequence[Expr], points):
    """Jacobians (N, n, m) and Hessians (N, n, m, m) of an immersion at (N, m) ``points``."""
    import numpy as np

    jets = [comp.eval_jets(points) for comp in components]
    return np.stack([j.grad for j in jets], axis=1), np.stack([j.hess for j in jets], axis=1)


def evaluate_affine(constant, jacobian, points):
    """The Jacobians (1, n, m), first point and number N of (N, m) ``points`` or a SampleSpec's,
    once ``constant + jacobian @ x`` is known finite at each: for a SampleSpec by its bound
    ``|c| + |J| max|x|`` a factor 2 below the float range, which a computed value or bound misses
    by a factor ``1 + O(m u)`` (Higham 2002, §3.1), else point by point as :func:`evaluate`."""
    import numpy as np

    with np.errstate(all="ignore"):
        if hasattr(points, "first_and_extent"):  # a SampleSpec: built only if the bound fails
            first, extent = points.first_and_extent()
            if np.isfinite(2.0 * (np.abs(constant) + np.abs(jacobian) @ extent)).all():
                return jacobian[None], first, points.size
            points = points.points()
        points = _points(points, jacobian.shape[1])
        values = constant + points @ jacobian.T
    finite = np.isfinite(values) & np.isfinite(jacobian).all(-1)
    for column in finite.T:  # component by component, as in evaluate()
        _require_finite(points, column)
    return jacobian[None], points[:1], len(points)


def jacobian(components: Sequence[Expr], point: Sequence[float]):
    """n x m Jacobian of an immersion given by ``components`` at ``point``."""
    return evaluate(components, [point])[0][0]


def hessians(components: Sequence[Expr], point: Sequence[float]):
    """n x m x m array of component Hessians at ``point``."""
    return evaluate(components, [point])[1][0]
