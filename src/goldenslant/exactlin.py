"""Small dense linear algebra over Q(sqrt5) on integer numerator arrays.

A :class:`QMatrix` holds a matrix as two object-dtype numpy arrays of
Python ints, ``p`` and ``q``, over one positive denominator ``d``: its value
is ``(p + q*sqrt5)/d``.  Every QMatrix comes from its constructor, which brings
it to lowest terms by one gcd over all of its integers: equal matrices hold equal arrays.

* ``@`` is four integer matrix products: ``p1@p2 + 5*q1@q2`` and
  ``p1@q2 + q1@p2`` over ``d1*d2``.
* ``+``, ``-`` and ``*`` by a matrix or by an int, Fraction or QuadRat
  scalar, and ``/`` by a scalar, are integer array operations over the lcm
  of the denominators.  A scalar may stand on either side.
* ``.T``, ``.mT``, slicing, :meth:`QMatrix.diagonal`, :func:`eye` and
  :func:`concatenate` keep the form; reading one entry gives a QuadRat.
* ``numpy.asarray(m, dtype=float)`` is the float view:
  :func:`~goldenslant.quadrat.to_float` per entry, so each has the bits of
  ``float(QuadRat)``.  Without a dtype it is an object array of QuadRat, by
  :func:`~goldenslant.quadrat.from_integers` per entry.

No float enters: any other operand is a TypeError, and numpy's own
operators defer to these.  One formula therefore serves exact matrices and
float arrays alike.

Elimination (:func:`solve`, :func:`kernel_basis` and the factor :func:`ldl`)
is fraction-free on the integer rows over Z[sqrt5], in the manner of Bareiss
(Math. Comp. 22, 1968): the pivot, made a positive integer by its conjugate,
multiplies the rows it clears instead of dividing the pivot row, and each
changed row is then divided by the gcd of its integers.  The pivots are
divided out once at the end, which for :func:`solve` and :func:`kernel_basis`
gives the unique reduced row echelon form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .quadrat import QuadRat, from_integers, sign, to_float

_quadrats = np.frompyfunc(from_integers, 3, 1)
_floats = np.frompyfunc(to_float, 3, 1)


class QMatrix:
    """Matrix ``(p + q*sqrt5)/d`` over Q(sqrt5): integer object arrays ``p``, ``q`` and ``d > 0``."""

    __slots__ = ("p", "q", "d")
    __array_ufunc__ = None  # numpy operators defer to the exact ones below

    def __init__(self, p: np.ndarray, q: np.ndarray, d: int = 1):
        # Python ints only: fixed-width integers would wrap on overflow.
        p, q = np.asarray(p, dtype=object), np.asarray(q, dtype=object)
        g = gcd(d, *p.flat)
        if g != 1 and (g := gcd(g, *q.flat)) != 1:  # q is read only when d and p share a factor
            p, q, d = p // g, q // g, d // g
        self.p, self.q, self.d = p, q, d

    @property
    def shape(self) -> tuple[int, ...]:
        return self.p.shape

    def __len__(self) -> int:
        return len(self.p)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, key):
        p, q = self.p[key], self.q[key]
        if isinstance(p, np.ndarray):
            return QMatrix(p, q, self.d)
        return from_integers(p, q, self.d)

    @property
    def T(self) -> QMatrix:
        return QMatrix(self.p.T, self.q.T, self.d)

    @property
    def mT(self) -> QMatrix:
        return QMatrix(self.p.mT, self.q.mT, self.d)

    def diagonal(self) -> QMatrix:
        return QMatrix(self.p.diagonal(), self.q.diagonal(), self.d)

    def trace(self) -> QuadRat:
        return from_integers(int(self.p.trace()), int(self.q.trace()), self.d)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if dtype is None or np.dtype(dtype) == object:
            return _quadrats(self.p, self.q, self.d)
        with np.errstate(over="ignore", invalid="ignore"):  # quietly inf past the float range
            return _floats(self.p, self.q, self.d).astype(dtype)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return (self.d == other.d and np.array_equal(self.p, other.p)
                and np.array_equal(self.q, other.q))

    __hash__ = None

    def __matmul__(self, other) -> QMatrix:
        return matmul(self, other)

    def __rmatmul__(self, other) -> QMatrix:
        return matmul(other, self)

    def __neg__(self) -> QMatrix:
        return QMatrix(-self.p, -self.q, self.d)

    def __add__(self, other) -> QMatrix:
        o = _operand(other)
        if o is None:
            return NotImplemented
        (p1, q1), (p2, q2), d = _common(self.p, self.q, self.d, *o)
        return QMatrix(p1 + p2, q1 + q2, d)

    __radd__ = __add__

    def __sub__(self, other) -> QMatrix:
        o = _operand(other)
        if o is None:
            return NotImplemented
        (p1, q1), (p2, q2), d = _common(self.p, self.q, self.d, *o)
        return QMatrix(p1 - p2, q1 - q2, d)

    def __rsub__(self, other) -> QMatrix:
        return -self + other

    def __mul__(self, other) -> QMatrix:
        o = _operand(other)
        if o is None:
            return NotImplemented
        p1, q1, p2, q2 = self.p, self.q, o[0], o[1]
        return QMatrix(p1 * p2 + 5 * (q1 * q2), p1 * q2 + q1 * p2, self.d * o[2])

    __rmul__ = __mul__

    def __truediv__(self, other) -> QMatrix:
        o = _scalar(other)
        if o is None:
            return NotImplemented
        return self * from_integers(*o).inverse()


def _scalar(x) -> tuple[int, int, int] | None:
    """``(p, q, d)`` of an exact scalar, or None."""
    if isinstance(x, QuadRat):
        return x.integers
    if isinstance(x, (int, np.integer)):
        return int(x), 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    return None


def _operand(x):
    return (x.p, x.q, x.d) if isinstance(x, QMatrix) else _scalar(x)


def _common(p1, q1, d1, p2, q2, d2):
    """Both numerator pairs over the lcm of ``d1`` and ``d2``."""
    d = lcm(d1, d2)
    f1, f2 = d // d1, d // d2
    if f1 != 1:
        p1, q1 = p1 * f1, q1 * f1
    if f2 != 1:
        p2, q2 = p2 * f2, q2 * f2
    return (p1, q1), (p2, q2), d


def qmatrix(rows) -> QMatrix:
    """Exact matrix of nested ``rows`` (or an array) of int, Fraction or QuadRat entries."""
    if isinstance(rows, QMatrix):
        return rows
    entries = np.array(rows, dtype=object)
    triples = [_scalar(x) for x in entries.flat]
    if None in triples:
        bad = next(x for x, t in zip(entries.flat, triples) if t is None)
        raise TypeError(f"not an exact Q(sqrt5) entry: {bad!r}")
    d = lcm(*(t[2] for t in triples))
    p = np.array([t[0] * (d // t[2]) for t in triples], dtype=object).reshape(entries.shape)
    q = np.array([t[1] * (d // t[2]) for t in triples], dtype=object).reshape(entries.shape)
    return QMatrix(p, q, d)


def eye(n: int) -> QMatrix:
    """The n x n identity."""
    return QMatrix(np.eye(n, dtype=object), np.zeros((n, n), dtype=object), 1)


def concatenate(mats, axis: int = 0) -> QMatrix:
    """``numpy.concatenate`` of exact matrices, over the lcm of their denominators."""
    d = lcm(*(m.d for m in mats))
    return QMatrix(np.concatenate([m.p * (d // m.d) for m in mats], axis),
                   np.concatenate([m.q * (d // m.d) for m in mats], axis), d)


def matmul(a, b) -> QMatrix:
    a, b = qmatrix(a), qmatrix(b)
    return QMatrix(a.p @ b.p + 5 * (a.q @ b.q), a.p @ b.q + a.q @ b.p, a.d * b.d)


def amax(m: QMatrix) -> QuadRat:
    """Exact max |entry|, comparing integers over the nonzero entries only."""
    p, q = m.p.ravel(), m.q.ravel()
    best_p = best_q = 0
    for i in np.flatnonzero((p != 0) | (q != 0)).tolist():
        x, y = p[i], q[i]
        if sign(x, y) < 0:
            x, y = -x, -y
        if sign(x - best_p, y - best_q) > 0:
            best_p, best_q = x, y
    return from_integers(best_p, best_q, m.d)


# ---------------------------------------------------------------------------
# fraction-free elimination on integer rows p + q*sqrt5, each held as one list [p | q]


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its integers."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _pivot_step(w: list[list[int]], r: int, c: int, first: int) -> None:
    """Clear column ``c`` from rows ``first..`` (all but ``r``) with pivot row ``r``, in place.

    The pivot row is multiplied by the conjugate of its pivot, signed so that
    the pivot becomes a positive integer ``D``, and each cleared row becomes
    ``D * row - entry * pivot_row``; every changed row is then divided by the
    gcd of its integers.  So each row stays a positive rational multiple of
    the row rational Gauss-Jordan elimination would hold, in lowest terms:
    no factor of Z[sqrt5] accumulates.
    """
    k = len(w[r]) // 2
    p, q = w[r][:k], w[r][k:]
    a, b = p[c], q[c]
    if a * a > 5 * b * b:
        b = -b
    else:
        a = -a
    # (a + b sqrt5)(p + q sqrt5) = (a p + 5 b q) + (a q + b p) sqrt5
    w[r] = _primitive([a * x + 5 * b * y for x, y in zip(p, q)]
                      + [a * y + b * x for x, y in zip(p, q)])
    d, p, q = w[r][c], w[r][:k], w[r][k:]
    # (e + h sqrt5) * pivot row, as e * left + h * right over [p | q]
    left, right = p + q, [5 * y for y in q] + p
    for i in range(first, len(w)):
        e, h = w[i][c], w[i][k + c]
        if i != r and (e or h):
            w[i] = _primitive([d * x - e * y - h * z for x, y, z in zip(w[i], left, right)])


def _echelon(w: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free reduced row echelon form of the rows ``[p | q]`` and the pivot columns.

    Pivot ``i`` is a positive integer at ``(i, pivots[i])``, not yet divided out.
    """
    w = [_primitive(row) for row in w]
    k = len(w[0]) // 2 if w else 0
    pivots: list[int] = []
    for c in range(k):
        r = len(pivots)
        if r == len(w):
            break
        i = next((i for i in range(r, len(w)) if w[i][c] or w[i][k + c]), None)
        if i is None:
            continue
        w[r], w[i] = w[i], w[r]
        _pivot_step(w, r, c, 0)
        pivots.append(c)
    return w, pivots


def _rows(*mats: QMatrix) -> list[list[int]]:
    """The integer rows ``[p | q]`` of the side-by-side matrices, each over its own denominator."""
    return np.concatenate([m.p for m in mats] + [m.q for m in mats], axis=1).tolist()


def _divided(w: list[list[int]], pivots: list[int], cols: list[int]) -> QMatrix:
    """Columns ``cols`` of the first ``len(pivots)`` rows, each divided by its pivot."""
    k, m = len(w[0]) // 2, len(cols)
    d = lcm(*(row[c] for row, c in zip(w, pivots)))
    picked = [*cols, *(k + j for j in cols)]  # the p and then the q integers of ``cols``
    scaled = np.array([[d // row[c] * row[j] for j in picked] for row, c in zip(w, pivots)],
                      dtype=object).reshape(len(pivots), 2 * m)
    return QMatrix(scaled[:, :m], scaled[:, m:], d)


def solve(a, b) -> QMatrix:
    """Exact solution of ``a @ x = b`` for square invertible ``a``."""
    a, b = qmatrix(a), qmatrix(b)
    n, cols = len(a), a.shape[1] + b.shape[1]
    w, pivots = _echelon(_rows(a, b))
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix in exact solve")
    # a = A/da and b = B/db over integer rows A, B, so x = (da/db) A^-1 B.
    return _divided(w, pivots, list(range(n, cols))) * Fraction(a.d, b.d)


def ldl(a) -> tuple[QMatrix, QMatrix] | None:
    """``L^T`` and ``D^-1 L^-1`` of ``a = L D L^T`` (L unit lower triangular, D diagonal),
    or None unless ``a`` is positive definite.

    Elimination of ``[a | I]`` without row swaps leaves ``[D L^T | L^-1]``, with rows scaled
    by positive factors only, so all pivots are positive exactly when D is (Sylvester's test).
    """
    a = qmatrix(a)
    n = len(a)
    w = _rows(a, eye(n) * a.d)  # a.d [a | I] over the integers
    for k in range(n):
        if sign(w[k][k], w[k][2 * n + k]) <= 0:
            return None
        _pivot_step(w, k, k, k + 1)
    pivots = list(range(n))
    return _divided(w, pivots, pivots), _divided(w, pivots, list(range(n, 2 * n)))


def kernel_basis(a) -> tuple[QMatrix, list[int]]:
    """Basis of the right kernel ``{x : a @ x = 0}``, one vector per row, and its free
    columns: the basis is the identity on them."""
    a = qmatrix(a)
    cols = a.shape[1]
    w, pivots = _echelon(_rows(a))
    free = [c for c in range(cols) if c not in pivots]
    x = _divided(w, pivots, free)
    # Vector j is e_free[j] minus the pivot coordinates of column free[j].
    kp = np.zeros((len(free), cols), dtype=object)
    kq = np.zeros((len(free), cols), dtype=object)
    kp[:, free] = np.eye(len(free), dtype=object) * x.d
    kp[:, pivots], kq[:, pivots] = -x.p.T, -x.q.T
    return QMatrix(kp, kq, x.d), free
