"""Small dense linear algebra over Q(sqrt5).

Everything here works on plain nested lists of :class:`QuadRat`.  The
matrices in play are tiny (ambient dimension <= 8), so clarity beats
asymptotics: Gaussian elimination with the first nonzero pivot is exact in
a field and is all we need.

:func:`matmul` writes each row and column as integer numerators over one
common denominator, so an output entry is four integer dot products and a
single normalised :class:`QuadRat` instead of 2n intermediate ones.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

import numpy as np

from .quadrat import QuadRat, from_integers, integer_form

QVec = list[QuadRat]
QMat = list[list[QuadRat]]


def identity(n: int) -> QMat:
    return [[QuadRat(1 if i == j else 0) for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> QMat:
    return [[QuadRat(0) for _ in range(cols)] for _ in range(rows)]


def transpose(a: QMat) -> QMat:
    return [list(col) for col in zip(*a)]


def add(a: QMat, b: QMat) -> QMat:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def sub(a: QMat, b: QMat) -> QMat:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(c: QuadRat | int | Fraction, a: QMat) -> QMat:
    c = QuadRat.from_value(c)
    return [[c * x for x in row] for row in a]


def matmul(a: QMat, b: QMat) -> QMat:
    rows = [integer_form(row) for row in a]
    cols = [integer_form(col) for col in zip(*b)]
    return [[_dot(row, col) for col in cols] for row in rows]


def matvec(a: QMat, v: Sequence[QuadRat]) -> QVec:
    col = integer_form(v)
    return [_dot(integer_form(row), col) for row in a]


def _dot(u: tuple[list[int], list[int], int], v: tuple[list[int], list[int], int]) -> QuadRat:
    """Dot product of two vectors in :func:`integer_form`."""
    (up, uq, ud), (vp, vq, vd) = u, v
    return from_integers(sum(map(mul, up, vp)) + 5 * sum(map(mul, uq, vq)),
                         sum(map(mul, up, vq)) + sum(map(mul, uq, vp)), ud * vd)


def max_abs(a: QMat) -> QuadRat:
    out = QuadRat(0)
    for row in a:
        for x in row:
            ax = abs(x)
            if ax > out:
                out = ax
    return out


def solve(a: QMat, b: QMat) -> QMat:
    """Exact solution of ``a @ x = b`` for square invertible ``a``."""
    n = len(a)
    m, pivots = _rref([list(ra) + list(rb) for ra, rb in zip(a, b)])
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix in exact solve")
    return [row[n:] for row in m]


def leading_minors_positive(a: QMat) -> bool:
    """Sylvester's test: elimination without row swaps meets only positive pivots."""
    m = [list(row) for row in a]
    for k, pivot_row in enumerate(m):
        if pivot_row[k].sign() <= 0:
            return False
        inv = pivot_row[k].inverse()
        for r in range(k + 1, len(m)):
            if m[r][k]:
                f = m[r][k] * inv
                m[r] = [x - f * y for x, y in zip(m[r], pivot_row)]
    return True


def _rref(a: QMat) -> tuple[QMat, list[int]]:
    """Reduced row echelon form of ``a`` and its pivot columns."""
    rows = len(a)
    m = [list(row) for row in a]
    pivots: list[int] = []
    r = 0
    for c in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def kernel_basis(a: QMat) -> list[QVec]:
    """Basis of the right kernel ``{x : a @ x = 0}``."""
    if not a:
        return []
    cols = len(a[0])
    m, pivots = _rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [QuadRat(0)] * cols
        v[fc] = QuadRat(1)
        for pr, pc in enumerate(pivots):
            v[pc] = -m[pr][fc]
        basis.append(v)
    return basis


def column_space_basis(a: QMat) -> list[QVec]:
    """Pivot columns of ``a`` (a basis of its column space)."""
    if not a:
        return []
    _, pivots = _rref(a)
    return [[row[c] for row in a] for c in pivots]


def to_float(a: QMat) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in a], dtype=float)


def from_columns(cols: Sequence[Sequence[QuadRat]]) -> QMat:
    return [list(row) for row in zip(*cols)]
