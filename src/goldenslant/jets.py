"""Second-order forward-mode automatic differentiation over a batch of points.

A :class:`Jet2` carries a value, a gradient and a symmetric Hessian with
respect to ``m`` parameters and propagates them through arithmetic and the
elementary functions used by the immersion DSL.  Leading axes are a batch
(value ``(...)``, grad ``(..., m)``, hess ``(..., m, m)``) that every rule
broadcasts over, so one pass differentiates an expression at every sample
point (Taylor propagation, Griewank & Walther, *Evaluating Derivatives*).
:func:`evaluate_tree` runs a parsed :mod:`.expr` tree on these rules.
Overflow gives ``inf``/``nan`` here; ``Expr.eval_jets`` rejects those.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .expr import CONSTANT_VALUES, Bin, Const, Lit, Neg, Node, Param, Pow


class Jet2:
    """Value ``(...)``, gradient ``(..., m)`` and Hessian ``(..., m, m)``."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value: np.ndarray | float, grad: np.ndarray, hess: np.ndarray):
        self.value, self.grad, self.hess = value, grad, hess

    @classmethod
    def constant(cls, value: float, m: int) -> Jet2:
        return cls(float(value), np.zeros(m), np.zeros((m, m)))

    @classmethod
    def variable(cls, value, index: int, m: int) -> Jet2:
        g = np.zeros(m)
        g[index] = 1.0
        return cls(np.asarray(value, dtype=float), g, np.zeros((m, m)))

    @property
    def m(self) -> int:
        return self.grad.shape[-1]

    def __add__(self, other: Jet2) -> Jet2:
        return Jet2(self.value + other.value, self.grad + other.grad, self.hess + other.hess)

    def __neg__(self) -> Jet2:
        return Jet2(-self.value, -self.grad, -self.hess)

    def __sub__(self, other: Jet2) -> Jet2:
        return self + (-other)

    def __mul__(self, other: Jet2) -> Jet2:
        u, v = _axis(self.value), _axis(other.value)
        cross = self.grad[..., :, None] * other.grad[..., None, :]
        return Jet2(
            self.value * other.value,
            u * other.grad + v * self.grad,
            u[..., None] * other.hess + v[..., None] * self.hess + cross
            + np.swapaxes(cross, -1, -2),
        )

    def __truediv__(self, other: Jet2) -> Jet2:
        w = np.asarray(other.value, dtype=float)
        if np.any(w == 0.0):
            raise DomainError("division by zero")
        return self * other._chain(1.0 / w, -1.0 / w**2, 2.0 / w**3)

    def __pow__(self, k: int) -> Jet2:
        v = np.asarray(self.value, dtype=float)
        if k < 0 and np.any(v == 0.0):
            raise DomainError("zero raised to a negative power")
        k = float(k)  # OverflowError beyond the float range
        if k == 0 or not (self.grad.any() or self.hess.any()):  # constant; k v^(k-1) may overflow
            return Jet2(v**k, np.zeros_like(self.grad), np.zeros_like(self.hess))
        return self._chain(v**k, k * v ** (k - 1), k * (k - 1) * v ** (k - 2) if k != 1 else 0.0)

    def _chain(self, f, fp, fpp) -> Jet2:
        """Compose with a scalar function given f(v), f'(v), f''(v).  A constant (a value
        with no point axis) reads no parameter: f' and f'', which may overflow, go unread."""
        if np.ndim(self.value) == 0:
            return Jet2(f, np.zeros_like(self.grad), np.zeros_like(self.hess))
        d1 = _axis(fp)
        outer = self.grad[..., :, None] * self.grad[..., None, :]
        return Jet2(f, d1 * self.grad, d1[..., None] * self.hess + _axis(fpp)[..., None] * outer)


def _axis(x) -> np.ndarray:
    """Batch values with one trailing axis, to scale gradient rows."""
    return np.asarray(x, dtype=float)[..., None]


def sin(x: Jet2) -> Jet2:
    return x._chain(np.sin(x.value), np.cos(x.value), -np.sin(x.value))


def cos(x: Jet2) -> Jet2:
    return x._chain(np.cos(x.value), -np.sin(x.value), -np.cos(x.value))


def exp(x: Jet2) -> Jet2:
    e = np.exp(x.value)
    return x._chain(e, e, e)


def sqrt(x: Jet2) -> Jet2:
    v = np.asarray(x.value)
    if np.any(v < 0.0):
        raise DomainError("sqrt of a negative value")
    if v.ndim and np.any(v == 0.0):  # a constant sqrt(0) is read without derivatives
        raise DomainError("sqrt has no finite derivative at zero")
    r = np.sqrt(v)
    return x._chain(r, 0.5 / r, -0.25 / (r * v))


_FUNCTIONS = {"sin": sin, "cos": cos, "exp": exp, "sqrt": sqrt}


def evaluate_tree(node: Node, points: np.ndarray) -> Jet2:
    """Jets of an expression tree at the (N, m) ``points``, one rule per node."""
    m = points.shape[1]
    if isinstance(node, Lit):
        return Jet2.constant(float(node.value), m)
    if isinstance(node, Const):
        return Jet2.constant(CONSTANT_VALUES[node.name], m)
    if isinstance(node, Param):
        return Jet2.variable(points[:, node.index], node.index, m)
    if isinstance(node, Neg):
        return -evaluate_tree(node.operand, points)
    if isinstance(node, Bin):
        left = evaluate_tree(node.left, points)
        right = evaluate_tree(node.right, points)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        return left / right
    if isinstance(node, Pow):
        return evaluate_tree(node.base, points) ** node.exponent
    return _FUNCTIONS[node.fn](evaluate_tree(node.arg, points))
