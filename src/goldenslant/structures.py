"""Golden structures on inner-product spaces, and their almost-product partners.

A golden structure is a (1,1) tensor ``phi`` with ``phi**2 = phi + I``
whose metric is compatible, ``g(phi X, Y) = g(X, phi Y)``.  Its partner is the
involution ``F`` (``F**2 = I``) of the exact correspondence below; ``F`` is checked
through phi alone, as ``phi^2 - phi - I = 5 (F^2 - I)/4``.

    phi = (I + sqrt5 * F) / 2        F = (2 * phi - I) / sqrt5

Two numeric backends coexist.  The exact backend stores matrices as
:class:`~goldenslant.exactlin.QMatrix` (integer arrays over Q(sqrt5)) and makes
every axiom check a statement about exact zeros; the float backend stores
numpy arrays and checks residuals against ``tol`` (``DEFAULT_TOL_STRUCT``) in the
metric's Euclidean model ``y = W x`` (``g = W^T W``), so they do not grow with
g.  Each axiom is written once, in matrix operators both types share.
"""

from __future__ import annotations

import copy
import math
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from . import exactlin as xl
from .config import Tolerances
from .errors import (
    DimensionMismatch,
    DomainError,
    InvalidInvolution,
    InvalidStructure,
    MetricIncompat,
)
from .quadrat import SQRT5

DEFAULT_TOL_STRUCT = Tolerances().tol_struct


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
    never below the largest entry.  It is the square root of the largest
    eigenvalue of ``a^T a``, with each matrix first scaled by the power of two
    ``2^e >= max |entry|`` (exactly, so that squares neither underflow nor
    overflow).  A matrix with a non-finite entry gets its :func:`_amax` (Inf
    or NaN), which fails every check; a zero matrix gets 0.0.
    """
    top = np.abs(a).max(axis=(-2, -1))
    scaled = (top > 0.0) & np.isfinite(top)
    exp = np.frexp(np.where(scaled, top, 1.0))[1][..., None, None]
    b = np.ldexp(np.where(scaled[..., None, None], a, 0.0), -exp)
    norm = np.ldexp(np.sqrt(np.linalg.eigvalsh(b.mT @ b)[..., -1]), exp[..., 0, 0])
    out = np.where(scaled, norm, top)
    return out.item() if out.ndim == 0 else out


def _worst_spectral(stack):
    """The max of :func:`_spectral` over the point axis (-3), one per form, bit for bit, with
    ``eigvalsh`` only where it can be: as ``max |a_ij| <= |A|_2 <= |A|_F``, a point whose
    Frobenius norm, times ``1 + 1e-12``, is below the largest entry of its form's stack is
    dropped, if that entry is in (1e-150, 1e150), where no sum of squares overflows or loses
    to underflow.  A NaN compares below nothing, so it is kept."""
    if stack.shape[-3] == 1:
        return _spectral(stack)[..., 0]
    top = np.abs(stack).max(axis=(-3, -2, -1))[..., None]
    fro = np.sqrt(np.einsum("...ij,...ij->...", stack, stack))
    keep = ~((fro * (1.0 + 1e-12) < top) & (1e-150 < top) & (top < 1e150))
    worst = np.zeros(keep.shape)
    worst[keep] = _spectral(stack[keep])
    return worst.max(axis=-1)


def _check_square(m, name: str) -> int:
    if isinstance(m, (np.ndarray, xl.QMatrix)):  # iterating a QMatrix builds one per row
        square = len(m.shape) == 2 and m.shape[0] == m.shape[1]
    else:
        square = all(len(row) == len(m) for row in m)
    if not square:
        raise DimensionMismatch(f"{name} must be square")
    return len(m)


def _operand(m, metric: Metric):
    """``m`` in the metric's number type: exact when both are."""
    return xl.qmatrix(m) if is_exact(m) and metric.backend == "exact" else as_float(m)


def _in_model(m, metric: Metric, name: str):
    """``m`` and the metric matrix as the axioms are measured: exact when both are, else
    ``W m W^-1`` in the metric's Euclidean model, where the metric is the identity."""
    n = _check_square(m, name)
    if n != metric.n:
        raise DimensionMismatch(f"{name} is {n}x{n} but metric is {metric.n}x{metric.n}")
    m = _operand(m, metric)
    if is_exact(m):
        return m, metric.entries
    model = metric.to_float()
    return model.w @ m @ model.w_inv, np.eye(n)


class Metric:
    """Symmetric positive-definite bilinear form, exact or float, whose Euclidean model is
    the float ``w`` = W (and ``w_inv``) with ``g = W^T W``: g is the dot product of ``y = W x``.

    Exact entries are validated by their exact ``factor`` ``g = L D L^T`` (``L^T`` and
    ``D^-1 L^-1``), and their float view has ``W = D^(1/2) L^T``; float ones by a Cholesky factor.
    ``is_identity`` says the entries are exactly I, known by their value: the factor is then
    (I, I), with no elimination, and the float view's W, W^-1 and entries are the float I.
    """

    def __init__(self, entries):
        self.n = _check_square(entries, "metric")
        self.backend = "exact" if is_exact(entries) else "float"
        self.entries = xl.qmatrix(entries) if self.backend == "exact" else entries
        if not np.all(self.entries == self.entries.T):
            raise InvalidStructure("metric is not symmetric")
        e = self.entries  # exact ones are in lowest terms, where I has d = 1, p = I and q = 0
        self.is_identity = bool(self.backend == "exact" and e.d == 1 and not e.q.any()
                                and (e.p == np.eye(self.n, dtype=int)).all())
        if self.backend == "exact":
            self.factor = (e, e) if self.is_identity else xl.ldl(e)
            if self.factor is None:
                raise InvalidStructure("metric is not positive definite")
            return
        # numpy's Cholesky returns a non-finite factor of non-finite entries without raising.
        if not np.isfinite(entries).all():
            raise InvalidStructure("metric has a non-finite entry")
        try:
            self.w = np.linalg.cholesky(entries).T
        except np.linalg.LinAlgError:
            raise InvalidStructure("metric is not positive definite") from None
        self.factor, self.w_inv = None, np.linalg.inv(self.w)

    @classmethod
    def euclidean(cls, n: int) -> Metric:
        return cls(xl.eye(n))

    def to_float(self) -> Metric:
        """Float view, built once per exact metric."""
        return self if self.backend == "float" else self._float_view

    @cached_property
    def _float_view(self) -> Metric:
        view = copy.copy(self)
        view.backend = "float"
        if self.is_identity:  # no exact entry is converted
            view.entries = view.w = view.w_inv = np.eye(self.n)
            return view
        view.entries = self.matrix
        lt, lower_inv = map(as_float, self.factor)
        root_d = 1.0 / np.sqrt(lower_inv.diagonal())  # L^-1 has a unit diagonal
        view.w, view.w_inv = root_d[:, None] * lt, lower_inv.T * root_d
        return view

    @property
    def matrix(self) -> np.ndarray:
        return as_float(self.entries)


class StructureReport(NamedTuple):
    """Residuals of the golden-structure axioms for a candidate (phi, g).

    ``exact_zero`` says all three residuals of an exact phi are exactly 0, and
    ``structure_exact`` says so of ``phi^2 - phi - I`` alone.
    """

    residual_structure: float
    residual_self_adjoint: float
    residual_compat: float
    passed: bool
    backend: str
    exact_zero: bool
    structure_exact: bool


def _structure_residuals(phi, g):
    """Residual matrices of phi^2 - phi - I, G phi - phi^T G and the derived metric identity.

    :class:`Metric` checks that G is exactly symmetric, so phi^T G is the
    transpose of G phi.
    """
    g_phi = g @ phi
    phit_g = g_phi.T
    # g(phi X, phi Y) - g(phi X, Y) - g(X, Y) as bilinear forms
    return phi @ phi - phi - _eye(phi), g_phi - phit_g, phit_g @ phi - phit_g - g


def _measure(phi, g, tol: float = DEFAULT_TOL_STRUCT) -> tuple[StructureReport, list]:
    """Phi's axiom report against the metric matrix g within ``tol``, and the max-abs residuals."""
    # Exact zeros are read before the float view, where a residual of 10^-400 is 0.0.
    worst = [_amax(r) for r in _structure_residuals(phi, g)]
    rs, ra, rc = map(float, worst)
    exact = is_exact(phi)
    return StructureReport(rs, ra, rc, passed=all(r <= tol for r in (rs, ra, rc)),
                           backend="exact" if exact else "float",
                           exact_zero=exact and not any(worst),
                           structure_exact=exact and not worst[0]), worst


def verify_golden(phi, metric: Metric, tol: float = DEFAULT_TOL_STRUCT) -> StructureReport:
    """The golden axioms checked within ``tol``: max-abs residuals (``phi_hat``'s if float)."""
    return _measure(*_in_model(phi, metric, "phi"), tol)[0]


class GoldenStructure:
    """Golden structure ``(phi, g)`` on an n-dimensional space.

    ``report`` is the :class:`StructureReport` of the axiom check.  Without one the
    constructor measures it with :func:`verify_golden` within ``tol`` and raises
    :class:`InvalidStructure` if it fails; a caller that already holds the check (by
    measuring it or by construction) passes it in, and it is kept as it is.
    """

    def __init__(self, phi, metric: Metric, report: StructureReport | None = None,
                 tol: float = DEFAULT_TOL_STRUCT):
        self.n = _check_square(phi, "phi")
        self.phi = _operand(phi, metric)
        self.backend = "exact" if is_exact(self.phi) else "float"
        self.metric = metric if self.backend == "exact" else metric.to_float()
        self.tol = tol
        if report is None:
            report = verify_golden(self.phi, self.metric, tol)
            if not report.passed:
                raise InvalidStructure(
                    f"golden axioms violated: structure={report.residual_structure:.3e}, "
                    f"self-adjoint={report.residual_self_adjoint:.3e}, "
                    f"compat={report.residual_compat:.3e}"
                )
        self.report = report

    @property
    def phi_float(self) -> np.ndarray:
        return as_float(self.phi)

    @cached_property
    def phi_hat(self) -> np.ndarray:
        """phi in the metric's Euclidean model, ``W phi W^-1``: symmetric when phi is
        g-self-adjoint.  An exact structure rounds the exact congruence
        ``L^T phi (D^-1 L^-1)^T = (D^-1 L^-1) g phi (D^-1 L^-1)^T`` once, then scales by D^(1/2);
        over the identity metric that congruence is phi itself."""
        if self.backend == "float":
            return _in_model(self.phi, self.metric, "phi")[0]
        if self.metric.is_identity:
            return self.phi_float
        lt, lower_inv = self.metric.factor
        root_d = np.diagonal(self.metric.to_float().w)  # L^T has a unit diagonal
        return as_float(lt @ self.phi @ lower_inv.T) * np.outer(root_d, root_d)

    @cached_property
    def eigenspace_dims(self) -> tuple[int, int]:
        """``(p, n - p)``, the dimensions of the psi- and (1 - psi)-eigenspaces.

        ``F = (2 phi - I)/sqrt5`` is +1 on the first and -1 on the second, so
        ``p = (n + tr F)/2``: exact on an exact phi, rounded on a float one.  The
        float view of an exact structure shares the exact one.
        """
        n = self.n
        p = round(float((n + (2 * self.phi.trace() - n) / _sqrt5(self.phi)) / 2))
        return p, n - p

    def to_float(self) -> GoldenStructure:
        """Float view, built once per exact structure."""
        return self if self.backend == "float" else self._float_view

    @cached_property
    def _float_view(self) -> GoldenStructure:
        # It is measured by the exact-rounded phi_hat, not by W phi_float W^-1.
        view = GoldenStructure(self.phi_float, self.metric.to_float(),
                               _measure(self.phi_hat, np.eye(self.n), self.tol)[0], self.tol)
        view.phi_hat, view.eigenspace_dims = self.phi_hat, self.eigenspace_dims
        return view


def _require_involution(r_inv, r_met, tol: float) -> None:
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


def golden_from_product(f, metric: Metric, tol: float = DEFAULT_TOL_STRUCT) -> GoldenStructure:
    """Golden structure ``phi = (I + sqrt5 F)/2`` of an involution matrix ``F``, from one check
    of phi's axioms: F's residual maxima are phi's rescaled, as ``phi^2 - phi - I = 5 (F^2 - I)/4``
    and ``G phi - phi^T G = sqrt5 (G F - F^T G)/2`` (exactly, for an exact F and metric)."""
    _check_square(f, "F")
    phi = golden_matrix(_operand(f, metric))
    report, worst = _measure(*_in_model(phi, metric, "F"), tol)
    _require_involution(float(worst[0] * 4 / 5), float(worst[1] * 2 / _sqrt5(phi)), tol)
    # A phi that fails is measured again by the constructor, which raises its InvalidStructure.
    return GoldenStructure(phi, metric, report if report.passed else None, tol)


def product_from_golden(s: GoldenStructure):
    """Involution matrix ``F = (2 phi - I)/sqrt5`` underlying a golden structure."""
    return product_matrix(s.phi)


def diagonal_golden(pattern: Sequence[str], metric: Metric | None = None,
                    tol: float = DEFAULT_TOL_STRUCT) -> GoldenStructure:
    """Exact diagonal golden structure from a list of ``"psi"``/``"one_minus_psi"``."""
    roots = {"psi": 1, "one_minus_psi": -1}  # (1 +- sqrt5)/2, by the sign of sqrt5
    for name in pattern:
        if name not in roots:
            raise InvalidStructure(f"unknown eigenvalue pattern entry {name!r}")
    n, metric = len(pattern), metric or Metric.euclidean(len(pattern))
    phi = xl.QMatrix(np.eye(n, dtype=int), np.diag([roots[name] for name in pattern]), 2)
    if not (metric.is_identity and metric.n == n):
        return GoldenStructure(phi, metric, tol=tol)
    # Golden by construction: each root x has x^2 = x + 1, a diagonal phi is symmetric and
    # so compatible with g = I, and the metric identity phi^T phi - phi^T - I then vanishes.
    return GoldenStructure(phi, metric, StructureReport(
        0.0, 0.0, 0.0, passed=True, backend="exact", exact_zero=True, structure_exact=True))


def golden_eigendecomp(s: GoldenStructure) -> tuple[np.ndarray, np.ndarray]:
    """g-orthonormal float bases of the eigenspaces for psi and 1 - psi.

    Returns a pair of matrices whose columns span the two eigenspaces: the
    orthonormal eigenvectors of ``phi_hat`` in the metric's Euclidean model,
    mapped back by ``W^-1``.  ``eigh`` sorts them by ascending eigenvalue, so
    the last p of :attr:`GoldenStructure.eigenspace_dims` are the psi-directions.
    """
    cols = s.metric.to_float().w_inv @ np.linalg.eigh(s.phi_hat)[1]
    q = s.eigenspace_dims[1]
    return cols[:, q:], cols[:, :q]
