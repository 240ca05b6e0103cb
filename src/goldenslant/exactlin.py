"""Small dense linear algebra over Q(sqrt5).

A :class:`QMatrix` is a numpy object array of :class:`QuadRat` whose ``@``
runs :func:`matmul`.  Everything else is numpy's own elementwise object
arithmetic: ``+``, ``-``, ``*`` and ``/`` by a scalar (written on the
right, ``m * c``), ``abs``, ``.T``/``.mT`` and indexing.  One formula
therefore serves exact matrices and float arrays alike.

The matrices in play are tiny (ambient dimension <= 8), so clarity beats
asymptotics: Gaussian elimination with the first nonzero pivot is exact in
a field and is all we need.  :func:`matmul` writes each row and column as
integer numerators over one common denominator, so an output entry is four
integer dot products and a single normalised :class:`QuadRat` instead of
2n intermediate ones.
"""

from __future__ import annotations

from operator import mul

import numpy as np

from .quadrat import QuadRat, from_integers, integer_form

QVec = list[QuadRat]


class QMatrix(np.ndarray):
    """Matrix over Q(sqrt5): an object array of QuadRat entries with an exact ``@``."""

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)


_to_quadrat = np.frompyfunc(QuadRat.from_value, 1, 1)


def qmatrix(rows) -> QMatrix:
    """Exact matrix of nested ``rows``; int and Fraction entries become QuadRat."""
    if isinstance(rows, QMatrix):
        return rows
    return _to_quadrat(np.array(rows, dtype=object)).view(QMatrix)


def matmul(a, b) -> QMatrix:
    rows = [integer_form(row) for row in np.asarray(a).tolist()]
    cols = [integer_form(col) for col in zip(*np.asarray(b).tolist())]
    return qmatrix([[_dot(row, col) for col in cols] for row in rows])


def _dot(u: tuple[list[int], list[int], int], v: tuple[list[int], list[int], int]) -> QuadRat:
    """Dot product of two vectors in :func:`integer_form`."""
    (up, uq, ud), (vp, vq, vd) = u, v
    return from_integers(sum(map(mul, up, vp)) + 5 * sum(map(mul, uq, vq)),
                         sum(map(mul, up, vq)) + sum(map(mul, uq, vp)), ud * vd)


def solve(a, b) -> QMatrix:
    """Exact solution of ``a @ x = b`` for square invertible ``a``."""
    n = len(a)
    m, pivots = _rref([list(ra) + list(rb) for ra, rb in zip(a, b)])
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix in exact solve")
    return qmatrix([row[n:] for row in m])


def leading_minors_positive(a) -> bool:
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


def _rref(a) -> tuple[list[QVec], list[int]]:
    """Reduced row echelon form of ``a`` and its pivot columns."""
    rows = len(a)
    m = [list(row) for row in a]
    pivots: list[int] = []
    r = 0
    for c in range(len(m[0]) if rows else 0):
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


def kernel_basis(a) -> list[QVec]:
    """Basis of the right kernel ``{x : a @ x = 0}``."""
    if not len(a):
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


def column_space_basis(a: QMatrix) -> QMatrix:
    """The pivot columns of ``a``, a basis of its column space, as a matrix."""
    return a[:, _rref(a)[1]]
