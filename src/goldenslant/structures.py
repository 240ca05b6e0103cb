"""Golden and almost-product structures on inner-product spaces.

A golden structure is a (1,1) tensor ``phi`` with ``phi**2 = phi + I``
whose metric is compatible, ``g(phi X, Y) = g(X, phi Y)``.  Together with
an almost-product structure ``F`` (``F**2 = I``) it sits in the exact
correspondence

    phi = (I + sqrt5 * F) / 2        F = (2 * phi - I) / sqrt5

Two numeric backends coexist.  The exact backend stores matrices as nested
lists of :class:`~goldenslant.quadrat.QuadRat` and makes every axiom check
a statement about exact zeros; the float backend stores numpy arrays and
checks residuals against ``tol_struct``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import exactlin as xl
from .errors import (
    BadSignature,
    DimensionMismatch,
    InvalidInvolution,
    InvalidStructure,
    MetricIncompat,
)
from .quadrat import ONE_MINUS_PSI, PSI, QuadRat, SQRT5

DEFAULT_TOL_STRUCT = 1e-9


def is_exact(m) -> bool:
    return not isinstance(m, np.ndarray)


def as_float(m) -> np.ndarray:
    return m if isinstance(m, np.ndarray) else xl.to_float(m)


def _max_abs(m) -> float:
    if is_exact(m):
        return float(xl.max_abs(m))
    return float(np.abs(m).max()) if m.size else 0.0


def _check_square(m, name: str) -> int:
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionMismatch(f"{name} must be square")
    return n


class Metric:
    """Symmetric positive-definite bilinear form, exact or float."""

    def __init__(self, entries):
        self.entries = entries
        self.n = _check_square(entries, "metric")
        self.backend = "exact" if is_exact(entries) else "float"
        self._float: Metric | None = None
        if self.backend == "exact":
            if any(entries[i][j] != entries[j][i] for i in range(self.n) for j in range(self.n)):
                raise InvalidStructure("metric is not symmetric")
            if not xl.leading_minors_positive(entries):
                raise InvalidStructure("metric is not positive definite")
        else:
            if not np.array_equal(entries, entries.T):
                raise InvalidStructure("metric is not symmetric")
            for k in range(1, self.n + 1):
                if np.linalg.det(entries[:k, :k]) <= 0:
                    raise InvalidStructure("metric is not positive definite")

    @classmethod
    def euclidean(cls, n: int, backend: str = "exact") -> Metric:
        if backend == "exact":
            return cls(xl.identity(n))
        return cls(np.eye(n))

    def to_float(self) -> Metric:
        """Float view, built once per exact metric."""
        if self.backend == "float":
            return self
        if self._float is None:
            self._float = Metric(xl.to_float(self.entries))
        return self._float

    @property
    def matrix(self) -> np.ndarray:
        return as_float(self.entries)

    def inner(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(x @ self.matrix @ y)

    def norm(self, x: np.ndarray) -> float:
        return math.sqrt(max(self.inner(x, x), 0.0))

    def cholesky(self) -> np.ndarray:
        return np.linalg.cholesky(self.matrix)


@dataclass(frozen=True)
class StructureReport:
    """Residuals of the golden-structure axioms for a candidate (phi, g)."""

    residual_structure: float
    residual_self_adjoint: float
    residual_compat: float
    passed: bool
    backend: str
    exact_zero: bool

    def max_residual(self) -> float:
        return max(self.residual_structure, self.residual_self_adjoint, self.residual_compat)


def _structure_residuals(phi, metric: Metric):
    """Residual matrices of phi^2-phi-I, G phi - phi^T G and the derived metric identity."""
    if is_exact(phi) and metric.backend == "exact":
        g = metric.entries
        n = len(phi)
        phi2 = xl.matmul(phi, phi)
        r_struct = xl.sub(xl.sub(phi2, phi), xl.identity(n))
        phit = xl.transpose(phi)
        r_adj = xl.sub(xl.matmul(g, phi), xl.matmul(phit, g))
        # g(phi X, phi Y) - g(phi X, Y) - g(X, Y) as bilinear forms
        r_compat = xl.sub(xl.sub(xl.matmul(phit, xl.matmul(g, phi)), xl.matmul(phit, g)), g)
        return r_struct, r_adj, r_compat, True
    p = as_float(phi)
    g = metric.matrix
    n = p.shape[0]
    r_struct = p @ p - p - np.eye(n)
    r_adj = g @ p - p.T @ g
    r_compat = p.T @ g @ p - p.T @ g - g
    return r_struct, r_adj, r_compat, False


def verify_golden(phi, metric: Metric, tol_struct: float = DEFAULT_TOL_STRUCT) -> StructureReport:
    """Check the golden-structure axioms and report max-abs residuals."""
    n = _check_square(phi, "phi")
    if n != metric.n:
        raise DimensionMismatch(f"phi is {n}x{n} but metric is {metric.n}x{metric.n}")
    r_struct, r_adj, r_compat, exact = _structure_residuals(phi, metric)
    rs, ra, rc = _max_abs(r_struct), _max_abs(r_adj), _max_abs(r_compat)
    passed = max(rs, ra, rc) <= tol_struct
    return StructureReport(
        residual_structure=rs,
        residual_self_adjoint=ra,
        residual_compat=rc,
        passed=passed,
        backend="exact" if exact else "float",
        exact_zero=exact and rs == 0.0 and ra == 0.0 and rc == 0.0,
    )


class GoldenStructure:
    """Validated golden structure ``(phi, g)`` on an n-dimensional space."""

    def __init__(self, phi, metric: Metric, validate: bool = True,
                 tol_struct: float = DEFAULT_TOL_STRUCT):
        self.phi = phi
        self.metric = metric
        self.n = _check_square(phi, "phi")
        self.backend = "exact" if (is_exact(phi) and metric.backend == "exact") else "float"
        self._float: GoldenStructure | None = None
        if validate:
            report = verify_golden(phi, metric, tol_struct)
            if not report.passed:
                raise InvalidStructure(
                    f"golden axioms violated: structure={report.residual_structure:.3e}, "
                    f"self-adjoint={report.residual_self_adjoint:.3e}, "
                    f"compat={report.residual_compat:.3e}"
                )

    @property
    def phi_float(self) -> np.ndarray:
        return as_float(self.phi)

    def to_float(self) -> GoldenStructure:
        """Float view, built once per exact structure."""
        if self.backend == "float":
            return self
        if self._float is None:
            self._float = GoldenStructure(self.phi_float, self.metric.to_float(), validate=False)
        return self._float


class AlmostProductStructure:
    """Validated involution ``F`` compatible with the metric."""

    def __init__(self, f, metric: Metric, validate: bool = True,
                 tol_struct: float = DEFAULT_TOL_STRUCT):
        self.f = f
        self.metric = metric
        self.n = _check_square(f, "F")
        self.backend = "exact" if (is_exact(f) and metric.backend == "exact") else "float"
        if validate:
            _check_involution(f, metric, tol_struct)

    @property
    def f_float(self) -> np.ndarray:
        return as_float(self.f)


def _check_involution(f, metric: Metric, tol: float) -> None:
    n = _check_square(f, "F")
    if n != metric.n:
        raise DimensionMismatch("F and metric dimensions differ")
    if is_exact(f) and metric.backend == "exact":
        r_inv = _max_abs(xl.sub(xl.matmul(f, f), xl.identity(n)))
        g = metric.entries
        r_met = _max_abs(xl.sub(xl.matmul(g, f), xl.matmul(xl.transpose(f), g)))
    else:
        ff = as_float(f)
        g = metric.matrix
        r_inv = _max_abs(ff @ ff - np.eye(n))
        r_met = _max_abs(g @ ff - ff.T @ g)
    if r_inv > tol:
        raise InvalidInvolution(f"F^2 - I has residual {r_inv:.3e}")
    if r_met > tol:
        raise MetricIncompat(f"G F - F^T G has residual {r_met:.3e}")


def golden_from_product(f: AlmostProductStructure,
                        tol_struct: float = DEFAULT_TOL_STRUCT) -> GoldenStructure:
    """Golden structure ``phi = (I + sqrt5 F)/2`` induced by an involution."""
    _check_involution(f.f, f.metric, tol_struct)
    if f.backend == "exact":
        n = f.n
        phi = xl.scale(QuadRat(1, 0) / 2, xl.add(xl.identity(n), xl.scale(SQRT5, f.f)))
    else:
        phi = (np.eye(f.n) + math.sqrt(5.0) * f.f_float) / 2.0
    return GoldenStructure(phi, f.metric, tol_struct=tol_struct)


def product_from_golden(s: GoldenStructure,
                        tol_struct: float = DEFAULT_TOL_STRUCT) -> AlmostProductStructure:
    """Involution ``F = (2 phi - I)/sqrt5`` underlying a golden structure."""
    if s.backend == "exact":
        n = s.n
        f = xl.scale(SQRT5.inverse(), xl.sub(xl.scale(2, s.phi), xl.identity(n)))
    else:
        f = (2.0 * s.phi_float - np.eye(s.n)) / math.sqrt(5.0)
    return AlmostProductStructure(f, s.metric, tol_struct=tol_struct)


def diagonal_golden(pattern: Sequence[str], metric: Metric | None = None) -> GoldenStructure:
    """Exact diagonal golden structure from a list of ``"psi"``/``"one_minus_psi"``."""
    n = len(pattern)
    phi = xl.zeros(n, n)
    for i, name in enumerate(pattern):
        if name == "psi":
            phi[i][i] = PSI
        elif name == "one_minus_psi":
            phi[i][i] = ONE_MINUS_PSI
        else:
            raise InvalidStructure(f"unknown eigenvalue pattern entry {name!r}")
    return GoldenStructure(phi, metric or Metric.euclidean(n))


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
        n = s.n
        proj_psi = xl.scale(SQRT5.inverse(), xl.sub(s.phi, xl.scale(ONE_MINUS_PSI, xl.identity(n))))
        proj_neg = xl.scale(SQRT5.inverse(), xl.sub(xl.scale(PSI, xl.identity(n)), s.phi))
        basis_psi = xl.column_space_basis(proj_psi)
        basis_neg = xl.column_space_basis(proj_neg)
        return xl.from_columns(basis_psi) if basis_psi else [[] for _ in range(n)], \
            xl.from_columns(basis_neg) if basis_neg else [[] for _ in range(n)]
    phi = s.phi_float
    lt = s.metric.cholesky().T
    lt_inv = np.linalg.inv(lt)
    sym = lt @ phi @ lt_inv
    sym = (sym + sym.T) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    mid = 0.5  # psi ~ 1.618 vs 1 - psi ~ -0.618
    cols = lt_inv @ vecs
    return cols[:, vals > mid], cols[:, vals <= mid]
