"""Exact arithmetic in the quadratic field Q(sqrt5).

A :class:`QuadRat` is a number ``a + b*sqrt(5)`` with rational ``a`` and
``b``.  The field is closed under all four ring operations and division,
and it contains the golden ratio ``PSI = (1 + sqrt5)/2`` together with its
algebraic conjugate ``1 - PSI``; both satisfy ``x**2 = x + 1`` exactly.
All structure-level identities in this package are polynomial in these
constants, so computing with QuadRat removes every tolerance question at
the axiom level.

A value is stored as one canonical integer triple ``(p + q*sqrt5) / d``
with ``d > 0`` and ``gcd(p, q, d) = 1`` (H. Cohen, GTM 138, 1993), kept so
by one gcd per operation; ``a`` and ``b`` are Fractions built on demand.
QuadRat is the scalar type: exact matrices (:mod:`.exactlin`) keep whole
arrays of such integers over one denominator, and give a QuadRat for an
entry read out, an exact max or a lambda.  :attr:`QuadRat.integers`,
:func:`from_integers` and :func:`sign` move values between the two forms.

``float(x)`` is :func:`to_float`, which the float view of an exact matrix calls
per entry: two correctly rounded int divisions and one float sum, recomputed from
the integers to within an ulp where the sum cancels more than 2 bits, is the sqrt5
term alone (``p = 0``, which the fast form rounds twice) or leaves the float range
(infinite only past it).  ``str(x)`` past Python's int-string limit is a DomainError.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import total_ordering
from math import gcd, lcm

from .errors import DomainError

Rational = int | Fraction

SQRT5_FLOAT = math.sqrt(5.0)


@total_ordering
class QuadRat:
    """Exact element ``a + b*sqrt(5)`` of Q(sqrt5)."""

    __slots__ = ("_p", "_q", "_d")

    def __init__(self, a: Rational | str = 0, b: Rational | str = 0):
        if type(a) is int and type(b) is int:
            self._p, self._q, self._d = a, b, 1
            return
        a = a if isinstance(a, Fraction) else Fraction(a)
        b = b if isinstance(b, Fraction) else Fraction(b)
        d = lcm(a.denominator, b.denominator)
        self._p = a.numerator * (d // a.denominator)
        self._q = b.numerator * (d // b.denominator)
        self._d = d

    @property
    def a(self) -> Fraction:
        return Fraction(self._p, self._d)

    @property
    def b(self) -> Fraction:
        return Fraction(self._q, self._d)

    def __repr__(self) -> str:
        return f"QuadRat({self.a!s}, {self.b!s})"

    def __str__(self) -> str:
        p, q, d = self._p, self._q, self._d
        if not q:
            return _ratio(p, d)
        if not p:
            return f"{_ratio(q, d)}*sqrt5"
        return f"{_ratio(p, d)}{'+' if q > 0 else '-'}{_ratio(abs(q), d)}*sqrt5"

    def __hash__(self) -> int:
        return hash((self._p, self._q, self._d))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QuadRat(other)
        if isinstance(other, QuadRat):
            return self._p == other._p and self._q == other._q and self._d == other._d
        return NotImplemented

    @property
    def integers(self) -> tuple[int, int, int]:
        """The canonical ``(p, q, d)`` with value ``(p + q*sqrt5)/d``."""
        return self._p, self._q, self._d

    def sign(self) -> int:
        """Exact sign of the real value (-1, 0 or +1)."""
        return sign(self._p, self._q)

    def __lt__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QuadRat(other)
        if isinstance(other, QuadRat):
            return (self - other).sign() < 0
        return NotImplemented

    def __bool__(self) -> bool:
        return self._p != 0 or self._q != 0

    def __add__(self, other: QuadRat | Rational) -> QuadRat:
        o = _exact(other)
        if o is None:
            return NotImplemented
        d1, d2 = self._d, o._d
        return from_integers(self._p * d2 + o._p * d1, self._q * d2 + o._q * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self) -> QuadRat:
        return from_integers(-self._p, -self._q, self._d)

    def __sub__(self, other: QuadRat | Rational) -> QuadRat:
        o = _exact(other)
        if o is None:
            return NotImplemented
        d1, d2 = self._d, o._d
        return from_integers(self._p * d2 - o._p * d1, self._q * d2 - o._q * d1, d1 * d2)

    def __rsub__(self, other: QuadRat | Rational) -> QuadRat:
        return -self + other

    def __mul__(self, other: QuadRat | Rational) -> QuadRat:
        o = _exact(other)
        if o is None:
            return NotImplemented
        p1, q1, p2, q2 = self._p, self._q, o._p, o._q
        return from_integers(p1 * p2 + 5 * q1 * q2, p1 * q2 + q1 * p2, self._d * o._d)

    __rmul__ = __mul__

    def inverse(self) -> QuadRat:
        p, q, d = self._p, self._q, self._d
        norm = p * p - 5 * q * q
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt5)")
        if norm < 0:
            norm, d = -norm, -d
        return from_integers(d * p, -d * q, norm)

    def __truediv__(self, other: QuadRat | Rational) -> QuadRat:
        o = _exact(other)
        return NotImplemented if o is None else self * o.inverse()

    def __rtruediv__(self, other: QuadRat | Rational) -> QuadRat:
        return self.inverse() * other

    def __pow__(self, n: int) -> QuadRat:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = QuadRat(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __abs__(self) -> QuadRat:
        return -self if self.sign() < 0 else self

    def __float__(self) -> float:
        return to_float(self._p, self._q, self._d)


_new = object.__new__


def to_float(p: int, q: int, d: int) -> float:
    """``(p + q*sqrt5)/d`` as the fast sum ``p/d + (q/d)*sqrt5`` of two correctly
    rounded int divisions, or by :func:`rounded` where that sum fails :func:`fast_sum_holds`."""
    try:
        a, b = p / d, q / d * SQRT5_FLOAT
    except OverflowError:  # an int quotient past the float range
        return rounded(p, q, d)
    total = a + b
    return total if fast_sum_holds(total, a, b) else rounded(p, q, d)


def fast_sum_holds(total: float, a: float, b: float) -> bool:
    """Whether the float sum ``total = a + b`` of the two terms is finite and cancels at
    most 2 bits, so that its relative error stays under 2^-49, and is not ``b`` alone (as
    for p = 0), which :func:`rounded` rounds once instead of twice."""
    return abs(a) + abs(b) <= abs(total) * 4 and abs(total) < math.inf and (a != 0 or b == 0)


def rounded(p: int, q: int, d: int) -> float:
    """``(p + q*sqrt5)/d`` within an ulp however its terms cancel; infinite past the range."""
    # Unless 0, |p + q*sqrt5| = |p^2 - 5q^2| / |p - q*sqrt5| >= 1/(|p| + 3|q|), so
    # scaled by 2^k it passes 2^62, and the integer square root is off by under 1.
    k = 2 * max(p.bit_length(), q.bit_length()) + 64
    root = math.isqrt(5 * q * q << 2 * k)
    num = (p << k) + (root if q > 0 else -root)
    try:
        return num / (d << k)
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _ratio(n: int, d: int) -> str:
    """The text of the Fraction ``n/d`` for ``d > 0``: ``n`` alone when it reduces to an integer;
    a DomainError past Python's int-string digit limit."""
    g = gcd(n, d)
    try:
        return str(n // g) if d == g else f"{n // g}/{d // g}"
    except ValueError:
        raise DomainError("exact value has too many digits to write") from None


def _exact(x) -> QuadRat | None:
    """``x`` as a QuadRat, or None unless it is a QuadRat or a rational number.

    Any other operand makes an operator return NotImplemented, so a float
    never becomes exact and a matrix operand gets its own reflected operator.
    """
    if isinstance(x, QuadRat):
        return x
    return QuadRat(x) if isinstance(x, Rational) else None


def from_integers(p: int, q: int, d: int) -> QuadRat:
    """The value ``(p + q*sqrt5) / d`` for integers with ``d > 0``."""
    g = gcd(p, q, d)
    if g != 1:
        p, q, d = p // g, q // g, d // g
    x = _new(QuadRat)
    x._p, x._q, x._d = p, q, d
    return x


def sign(p: int, q: int) -> int:
    """Exact sign (-1, 0 or +1) of ``p + q*sqrt5`` for integers ``p`` and ``q``."""
    if q == 0:
        s = p
    elif p == 0 or (p > 0) == (q > 0):
        s = q
    else:  # opposite signs: the larger of p^2 and 5 q^2 wins
        s = p if p * p > 5 * q * q else q
    return (s > 0) - (s < 0)


PSI = QuadRat(Fraction(1, 2), Fraction(1, 2))
ONE_MINUS_PSI = QuadRat(Fraction(1, 2), Fraction(-1, 2))
SQRT5 = QuadRat(0, 1)

_ENTRY_RE = re.compile(
    r"""^\s*
        (?:(?P<r>[+-]?[0-9][0-9/.]*)\s*(?=[+-]|$))?      # rational part, then a sign or the end
        (?:(?P<sgn>[+-])?\s*
           (?:(?P<s>[0-9][0-9/.]*)\s*\*\s*)?sqrt5\s*)?    # sqrt5 part
        $""",
    re.VERBOSE,
)


def parse_quadrat(text: str) -> QuadRat:
    """Parse an exact matrix entry such as ``"1/2+1/2*sqrt5"`` or ``"-0.25"``.

    Accepted forms are ``r``, ``r+s*sqrt5``, ``r-s*sqrt5``, ``s*sqrt5`` and
    ``sqrt5`` with ``r``, ``s`` decimal or slashed rationals.
    """
    m = _ENTRY_RE.match(text)
    if m is None or (m.group("r") is None and "sqrt5" not in text):
        raise ValueError(f"cannot parse Q(sqrt5) entry: {text!r}")
    try:
        a = Fraction(m.group("r")) if m.group("r") is not None else Fraction(0)
        b = Fraction(0)
        if "sqrt5" in text:
            b = Fraction(m.group("s")) if m.group("s") is not None else Fraction(1)
            if m.group("sgn") == "-":
                b = -b
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in Q(sqrt5) entry: {text!r}") from None
    return QuadRat(a, b)
