"""Second-order forward-mode automatic differentiation over a batch of points.

A :class:`Jet2` carries a value, a gradient and a symmetric Hessian with
respect to ``m`` parameters and propagates them through arithmetic and the
elementary functions used by the immersion DSL.  Leading axes are a batch
(value ``(...)``, grad ``(..., m)``, hess ``(..., m, m)``) that every rule
broadcasts over, so one pass differentiates an expression at every sample
point (Taylor propagation, Griewank & Walther, *Evaluating Derivatives*).
Overflow gives ``inf``/``nan`` here; ``Expr.eval_jets`` rejects those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class Jet2:
    value: np.ndarray | float
    grad: np.ndarray
    hess: np.ndarray

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

    def __add__(self, other: Jet2 | float) -> Jet2:
        other = _lift(other, self.m)
        return Jet2(self.value + other.value, self.grad + other.grad, self.hess + other.hess)

    __radd__ = __add__

    def __neg__(self) -> Jet2:
        return Jet2(-self.value, -self.grad, -self.hess)

    def __sub__(self, other: Jet2 | float) -> Jet2:
        return self + (-_lift(other, self.m))

    def __rsub__(self, other: Jet2 | float) -> Jet2:
        return (-self) + other

    def __mul__(self, other: Jet2 | float) -> Jet2:
        other = _lift(other, self.m)
        u, v = _axis(self.value), _axis(other.value)
        cross = self.grad[..., :, None] * other.grad[..., None, :]
        return Jet2(
            self.value * other.value,
            u * other.grad + v * self.grad,
            u[..., None] * other.hess + v[..., None] * self.hess + cross
            + np.swapaxes(cross, -1, -2),
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Jet2 | float) -> Jet2:
        other = _lift(other, self.m)
        w = np.asarray(other.value, dtype=float)
        if np.any(w == 0.0):
            raise DomainError("division by zero")
        return self * other._chain(1.0 / w, -1.0 / w**2, 2.0 / w**3)

    def __rtruediv__(self, other: Jet2 | float) -> Jet2:
        return _lift(other, self.m) / self

    def __pow__(self, k: int) -> Jet2:
        if k == 0:
            return Jet2.constant(1.0, self.m)
        v = np.asarray(self.value, dtype=float)
        if k < 0 and np.any(v == 0.0):
            raise DomainError("zero raised to a negative power")
        k = float(k)  # OverflowError beyond the float range
        return self._chain(v**k, k * v ** (k - 1), k * (k - 1) * v ** (k - 2) if k != 1 else 0.0)

    def _chain(self, f, fp, fpp) -> Jet2:
        """Compose with a scalar function given f(v), f'(v), f''(v)."""
        d1 = _axis(fp)
        outer = self.grad[..., :, None] * self.grad[..., None, :]
        return Jet2(f, d1 * self.grad, d1[..., None] * self.hess + _axis(fpp)[..., None] * outer)


def _axis(x) -> np.ndarray:
    """Batch values with one trailing axis, to scale gradient rows."""
    return np.asarray(x, dtype=float)[..., None]


def _lift(x: Jet2 | float, m: int) -> Jet2:
    if isinstance(x, Jet2):
        return x
    return Jet2.constant(float(x), m)


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
    if np.any(v == 0.0):
        raise DomainError("sqrt has no finite derivative at zero")
    r = np.sqrt(v)
    return x._chain(r, 0.5 / r, -0.25 / (r * v))
