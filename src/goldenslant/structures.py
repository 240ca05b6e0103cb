"""Golden and almost-product structures on inner-product spaces.

A golden structure is a (1,1) tensor ``phi`` with ``phi**2 = phi + I``
whose metric is compatible, ``g(phi X, Y) = g(X, phi Y)``.  Together with
an almost-product structure ``F`` (``F**2 = I``) it sits in the exact
correspondence

    phi = (I + sqrt5 * F) / 2        F = (2 * phi - I) / sqrt5

Two numeric backends coexist.  The exact backend stores matrices as
:class:`~goldenslant.exactlin.QMatrix` (integer arrays over Q(sqrt5)) and makes
every axiom check a statement about exact zeros; the float backend stores
numpy arrays and checks residuals against ``tol_struct``.  Each axiom is
written once, in matrix operators both types share.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from . import exactlin as xl
from .errors import (
    BadSignature,
    DimensionMismatch,
    DomainError,
    InvalidInvolution,
    InvalidStructure,
    MetricIncompat,
)
from .quadrat import ONE_MINUS_PSI, PSI, SQRT5

DEFAULT_TOL_STRUCT = 1e-9


def is_exact(m) -> bool:
    """An exact matrix, or nested rows or an object array that become one."""
    return isinstance(m, xl.QMatrix) or not isinstance(m, np.ndarray) or m.dtype == object


def as_float(m) -> np.ndarray:
    """Float view of a matrix; an exact entry past the float range is a DomainError."""
    out = np.asarray(m, dtype=float)
    if isinstance(m, xl.QMatrix) and not np.isfinite(out).all():
        entry = np.unravel_index(np.argmin(np.isfinite(out)), out.shape)
        raise DomainError(f"exact entry {tuple(map(int, entry))} is beyond the float range")
    return out


def _eye(a):
    """Identity matching the last axis and the number type of ``a``."""
    if isinstance(a, xl.QMatrix):
        return xl.eye(a.shape[-1])
    return np.eye(a.shape[-1], dtype=a.dtype)


def _amax(a, axis=(-2, -1)):
    """max |entry| over ``axis`` (NaN if any entry is): a scalar, or one per point.

    An exact matrix gives its exact max |entry| as a QuadRat.
    """
    if isinstance(a, xl.QMatrix):
        return xl.amax(a)
    out = np.abs(a).max(axis=axis)
    return out.item() if out.ndim == 0 else out


def _spectral(a):
    """Largest singular value over the last two axes: a scalar, or one per point.

    It is the largest value of the bilinear form of ``a`` on unit pairs, so
    never below the largest entry.  A matrix with a non-finite entry gets its
    :func:`_amax` (Inf or NaN), which fails every check.
    """
    finite = np.isfinite(a).all(axis=(-2, -1))
    norm = np.linalg.norm(np.where(finite[..., None, None], a, 0.0), 2, axis=(-2, -1))
    out = np.where(finite, norm, _amax(a))
    return out.item() if out.ndim == 0 else out


def _check_square(m, name: str) -> int:
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionMismatch(f"{name} must be square")
    return n


def _operands(m, metric: Metric):
    """``m`` and the metric matrix in one number type: exact when both are."""
    if is_exact(m) and metric.backend == "exact":
        return xl.qmatrix(m), metric.entries
    return as_float(m), metric.matrix


class Metric:
    """Symmetric positive-definite bilinear form, exact or float."""

    def __init__(self, entries):
        self.n = _check_square(entries, "metric")
        self.backend = "exact" if is_exact(entries) else "float"
        self.entries = xl.qmatrix(entries) if self.backend == "exact" else entries
        if not np.all(self.entries == self.entries.T):
            raise InvalidStructure("metric is not symmetric")
        if self.backend == "exact":
            positive = xl.leading_minors_positive(self.entries)
        else:
            positive = all(np.linalg.det(entries[:k, :k]) > 0 for k in range(1, self.n + 1))
        if not positive:
            raise InvalidStructure("metric is not positive definite")

    @classmethod
    def euclidean(cls, n: int, backend: str = "exact") -> Metric:
        return cls(xl.eye(n) if backend == "exact" else np.eye(n))

    def to_float(self) -> Metric:
        """Float view, built once per exact metric."""
        return self if self.backend == "float" else self._float_view

    @cached_property
    def _float_view(self) -> Metric:
        return Metric(self.matrix)

    @property
    def matrix(self) -> np.ndarray:
        return as_float(self.entries)

    def cholesky(self) -> np.ndarray:
        return np.linalg.cholesky(self.matrix)


class StructureReport(NamedTuple):
    """Residuals of the golden-structure axioms for a candidate (phi, g)."""

    residual_structure: float
    residual_self_adjoint: float
    residual_compat: float
    passed: bool
    backend: str
    exact_zero: bool


def _structure_residuals(phi, g):
    """Residual matrices of phi^2 - phi - I, G phi - phi^T G and the derived metric identity."""
    phit_g = phi.T @ g
    # g(phi X, phi Y) - g(phi X, Y) - g(X, Y) as bilinear forms
    return phi @ phi - phi - _eye(phi), g @ phi - phit_g, phit_g @ phi - phit_g - g


def verify_golden(phi, metric: Metric, tol_struct: float = DEFAULT_TOL_STRUCT) -> StructureReport:
    """Check the golden-structure axioms and report max-abs residuals."""
    n = _check_square(phi, "phi")
    if n != metric.n:
        raise DimensionMismatch(f"phi is {n}x{n} but metric is {metric.n}x{metric.n}")
    phi, g = _operands(phi, metric)
    rs, ra, rc = (float(_amax(r)) for r in _structure_residuals(phi, g))
    exact = is_exact(phi)
    return StructureReport(rs, ra, rc, passed=all(r <= tol_struct for r in (rs, ra, rc)),
                           backend="exact" if exact else "float",
                           exact_zero=exact and not any((rs, ra, rc)))


class GoldenStructure:
    """Validated golden structure ``(phi, g)`` on an n-dimensional space.

    ``report`` is the :class:`StructureReport` of the axiom check: the one
    validation ran, or (for ``validate=False``) one run on first access.
    """

    def __init__(self, phi, metric: Metric, validate: bool = True,
                 tol_struct: float = DEFAULT_TOL_STRUCT):
        self.n = _check_square(phi, "phi")
        self.phi, _ = _operands(phi, metric)
        self.backend = "exact" if is_exact(self.phi) else "float"
        self.metric = metric if self.backend == "exact" else metric.to_float()
        self.tol_struct = tol_struct
        if validate:
            report = self.report
            if not report.passed:
                raise InvalidStructure(
                    f"golden axioms violated: structure={report.residual_structure:.3e}, "
                    f"self-adjoint={report.residual_self_adjoint:.3e}, "
                    f"compat={report.residual_compat:.3e}"
                )

    @cached_property
    def report(self) -> StructureReport:
        return verify_golden(self.phi, self.metric, self.tol_struct)

    @property
    def phi_float(self) -> np.ndarray:
        return as_float(self.phi)

    def to_float(self) -> GoldenStructure:
        """Float view, built once per exact structure."""
        return self if self.backend == "float" else self._float_view

    @cached_property
    def _float_view(self) -> GoldenStructure:
        return GoldenStructure(self.phi_float, self.metric.to_float(), validate=False)


class AlmostProductStructure:
    """Validated involution ``F`` compatible with the metric."""

    def __init__(self, f, metric: Metric, validate: bool = True,
                 tol_struct: float = DEFAULT_TOL_STRUCT):
        self.n = _check_square(f, "F")
        self.f, _ = _operands(f, metric)
        self.backend = "exact" if is_exact(self.f) else "float"
        self.metric = metric if self.backend == "exact" else metric.to_float()
        if validate:
            _check_involution(self.f, self.metric, tol_struct)


def _check_involution(f, metric: Metric, tol: float) -> None:
    n = _check_square(f, "F")
    if n != metric.n:
        raise DimensionMismatch("F and metric dimensions differ")
    f, g = _operands(f, metric)
    r_inv = float(_amax(f @ f - _eye(f)))
    r_met = float(_amax(g @ f - f.T @ g))
    if r_inv > tol:
        raise InvalidInvolution(f"F^2 - I has residual {r_inv:.3e}")
    if r_met > tol:
        raise MetricIncompat(f"G F - F^T G has residual {r_met:.3e}")


def _sqrt5(m):
    """sqrt5 in the number type of ``m``."""
    return SQRT5 if is_exact(m) else math.sqrt(5.0)


def golden_matrix(f):
    """``phi = (I + sqrt5 F)/2`` for an exact or float involution matrix ``F``."""
    return (_eye(f) + f * _sqrt5(f)) / 2


def product_matrix(phi):
    """``F = (2 phi - I)/sqrt5`` for an exact or float golden matrix ``phi``."""
    return (2 * phi - _eye(phi)) / _sqrt5(phi)


def golden_from_product(f: AlmostProductStructure,
                        tol_struct: float = DEFAULT_TOL_STRUCT) -> GoldenStructure:
    """Golden structure ``phi = (I + sqrt5 F)/2`` induced by an involution."""
    _check_involution(f.f, f.metric, tol_struct)
    return GoldenStructure(golden_matrix(f.f), f.metric, tol_struct=tol_struct)


def product_from_golden(s: GoldenStructure,
                        tol_struct: float = DEFAULT_TOL_STRUCT) -> AlmostProductStructure:
    """Involution ``F = (2 phi - I)/sqrt5`` underlying a golden structure."""
    return AlmostProductStructure(product_matrix(s.phi), s.metric, tol_struct=tol_struct)


def diagonal_golden(pattern: Sequence[str], metric: Metric | None = None) -> GoldenStructure:
    """Exact diagonal golden structure from a list of ``"psi"``/``"one_minus_psi"``."""
    roots = {"psi": PSI, "one_minus_psi": ONE_MINUS_PSI}
    for name in pattern:
        if name not in roots:
            raise InvalidStructure(f"unknown eigenvalue pattern entry {name!r}")
    phi = np.diag(np.array([roots[name] for name in pattern], dtype=object))
    return GoldenStructure(phi, metric or Metric.euclidean(len(pattern)))


def random_golden(n: int, p: int, seed: int) -> GoldenStructure:
    """Random golden structure with a ``p``-dimensional psi-eigenspace.

    A signature matrix diag(+1 x p, -1 x (n-p)) is conjugated by a product
    of seeded Householder reflectors, which keeps ``F**2 = I`` and the
    Euclidean compatibility exact up to rounding.  Deterministic per
    ``(n, p, seed)``.
    """
    if not 0 <= p <= n:
        raise BadSignature(f"need 0 <= p <= n, got p={p}, n={n}")
    rng = np.random.default_rng(seed)
    q = np.eye(n)
    for _ in range(max(n - 1, 1)):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        q = q - 2.0 * np.outer(v, v @ q)
    sig = np.diag([1.0] * p + [-1.0] * (n - p))
    f = q @ sig @ q.T
    f = (f + f.T) / 2.0
    aps = AlmostProductStructure(f, Metric.euclidean(n, backend="float"))
    return golden_from_product(aps)


def golden_eigendecomp(s: GoldenStructure):
    """g-orthogonal eigenspace bases for the eigenvalues psi and 1 - psi.

    Returns a pair of matrices whose columns span the two eigenspaces.  On
    the exact backend the spectral projector ``(phi - (1-psi) I)/sqrt5`` is
    itself exact and the bases are its pivot columns; on the float backend
    the structure is symmetrized through the metric Cholesky factor and
    diagonalized, so the returned columns are g-orthonormal.
    """
    if s.backend == "exact":
        eye = _eye(s.phi)
        return (xl.column_space_basis((s.phi - eye * ONE_MINUS_PSI) / SQRT5),
                xl.column_space_basis((eye * PSI - s.phi) / SQRT5))
    phi = s.phi_float
    lt = s.metric.cholesky().T
    lt_inv = np.linalg.inv(lt)
    sym = lt @ phi @ lt_inv
    sym = (sym + sym.T) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    mid = 0.5  # psi ~ 1.618 vs 1 - psi ~ -0.618
    cols = lt_inv @ vecs
    return cols[:, vals > mid], cols[:, vals <= mid]
