"""Tangent/normal frames along an immersion and the induced operators.

For a submanifold of a golden Riemannian manifold, applying ``phi`` to
tangent and normal vectors and splitting the results orthogonally yields
four operators: ``P`` (tangent -> tangent), ``Q`` (tangent -> normal),
``t`` (normal -> tangent) and ``s`` (normal -> normal).  Because
``phi**2 = phi + I``, the block decomposition forces

    P^2 = P + I - tQ        Q = QP + sQ
    s^2 = s + I - Qt        t = Pt + ts

together with self-adjointness of ``P`` and the metric split
``g(PX,PY) + g(QX,QY) = g(X,Y) + g(PX,Y)``.

Operators are expressed in orthonormal frames, so plain transposes realize
metric adjoints.  A scenario evaluates all of its sample points in one
batched pass (:func:`point_geometry`); the single-point functions are views
of a batch of one.  Affine immersions with coefficients in Q(sqrt5) also get
an exact route in the raw (non-orthonormal) tangent basis: the same
identity functions, handed the Gram matrices of the raw bases, then check
statements about exact zeros.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from . import exactlin as xl
from .config import SampleSpec
from .errors import DimensionMismatch, RankDeficient
from .expr import Expr, evaluate, evaluate_affine, parse
from .quadrat import QuadRat
from .structures import GoldenStructure, Metric, _amax, _eye, _spectral, is_exact

DEFAULT_TOL_FRAME = 1e-9
DEFAULT_TOL_CLASS = 1e-7
_RANK_TOL = 1e-8


class ImmersionSpec:
    """Parametric map from an m-dimensional domain into n-dimensional space."""

    def __init__(self, params: tuple[str, ...], components: tuple[Expr, ...],
                 sample_spec: SampleSpec | None = None):
        self.params, self.components = params, components
        self.sample_spec = SampleSpec.default(self.m) if sample_spec is None else sample_spec
        if self.m >= self.n:
            raise DimensionMismatch(
                f"immersion needs fewer parameters ({self.m}) than ambient dimensions ({self.n})"
            )

    @classmethod
    def from_strings(cls, params: Sequence[str], components: Sequence[str],
                     sample_spec: SampleSpec | None = None) -> ImmersionSpec:
        exprs = tuple(parse(text, params) for text in components)
        return cls(tuple(params), exprs, sample_spec)

    @property
    def m(self) -> int:
        return len(self.params)

    @property
    def n(self) -> int:
        return len(self.components)

    @cached_property
    def affine_form(self) -> tuple[xl.QMatrix, xl.QMatrix] | None:
        """Exact constant (n,) and Jacobian (n x m) of an affine immersion, else None."""
        forms = [comp.affine_exact() for comp in self.components]
        return None if None in forms else tuple(map(xl.qmatrix, zip(*forms)))


class TangentFrame(NamedTuple):
    """g-orthonormal tangent and normal frames at one parameter point.

    Frames stacked over N points carry a leading point axis: ``point`` is
    then an (N, m) array and every matrix gains an axis of length N.
    """

    point: tuple[float, ...] | np.ndarray
    raw_tangents: np.ndarray  # n x m Jacobian columns
    tangent_onb: np.ndarray  # n x m
    normal_onb: np.ndarray  # n x (n - m)
    metric: Metric

    @property
    def m(self) -> int:
        return self.tangent_onb.shape[-1]

    @property
    def n(self) -> int:
        return self.tangent_onb.shape[-2]

    def at(self, i: int) -> TangentFrame:
        """The frame at point ``i`` of a stack."""
        return TangentFrame(tuple(self.point[i].tolist()), self.raw_tangents[i],
                            self.tangent_onb[i], self.normal_onb[i], self.metric)

    def gram_residual(self) -> np.ndarray | float:
        """Deviation of the combined frame from g-orthonormality, per point of a stack."""
        full = np.concatenate([self.tangent_onb, self.normal_onb], axis=-1)
        return _amax(full.mT @ self.metric.matrix @ full - np.eye(self.n))

    def tangent_coords(self, ambient: np.ndarray) -> np.ndarray:
        return self.tangent_onb.mT @ self.metric.matrix @ ambient


def _stacked_frames(points: np.ndarray, jac: np.ndarray, metric: Metric) -> TangentFrame:
    """Frames at every point from one stacked QR in Cholesky coordinates.

    With ``G = L L^T``, the complete QR of ``L^T J`` is Euclidean-orthonormal,
    so ``L^{-T} Q`` is g-orthonormal.  The tangent columns are signed as
    Gram-Schmidt on the Jacobian columns signs them; the normal columns are
    the QR completion.
    """
    smallest = np.linalg.svd(jac, compute_uv=False).min(axis=-1)
    bad = np.flatnonzero(~(smallest >= _RANK_TOL))
    if bad.size:
        i = bad[0]
        raise RankDeficient(f"Jacobian smallest singular value {smallest[i]:.3e} "
                            f"at {tuple(points[i].tolist())}")
    m = jac.shape[-1]
    chol = metric.cholesky()
    q, r = np.linalg.qr(chol.T @ jac, mode="complete")
    signs = np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)
    q[..., :m] *= signs[..., None, :]
    basis = np.linalg.solve(chol.T, q)
    return TangentFrame(points, jac, basis[..., :m], basis[..., m:], metric)


def frame_at(imm: ImmersionSpec, point: Sequence[float], metric: Metric) -> TangentFrame:
    """Orthonormal tangent/normal frames of ``imm`` at ``point``."""
    return point_geometry(imm, metric, points=[point]).frame.at(0)


class InducedOperators(NamedTuple):
    """Matrices of P, Q, t, s in the orthonormal frames of ``frame``.

    Operators of stacked frames carry the same leading point axis.
    """

    p: np.ndarray  # m x m
    q: np.ndarray  # (n-m) x m
    t: np.ndarray  # m x (n-m)
    s: np.ndarray  # (n-m) x (n-m)
    frame: TangentFrame

    @property
    def m(self) -> int:
        return self.p.shape[-1]

    def at(self, i: int) -> InducedOperators:
        """The operators at point ``i`` of a stack."""
        return InducedOperators(self.p[i], self.q[i], self.t[i], self.s[i], self.frame.at(i))


def induced_operators(frame: TangentFrame, structure: GoldenStructure) -> InducedOperators:
    """Project ``phi`` through the frames of ``frame`` (one point or a stack)."""
    if structure.n != frame.n:
        raise DimensionMismatch("structure and frame ambient dimensions differ")
    m = frame.m
    full = np.concatenate([frame.tangent_onb, frame.normal_onb], axis=-1)
    blocks = full.mT @ (frame.metric.matrix @ structure.phi_float @ full)
    return InducedOperators(p=blocks[..., :m, :m], q=blocks[..., m:, :m],
                            t=blocks[..., :m, m:], s=blocks[..., m:, m:], frame=frame)


class PointGeometry(NamedTuple):
    """Every sample point of a scenario, evaluated once and shared by the point suites.

    Arrays lead with the point axis: the stacked ``frame`` (Jacobians in
    ``raw_tangents``), ``hessians`` (N x n x m x m), ``h`` in normal-frame
    coordinates (N x m x m x (n-m)), ``christoffel`` in the raw tangent basis
    (N x m x m x m) and, given a structure, the stacked ``ops``.  ``exact``
    holds the scenario's exact route (P, Q, t, s over Q(sqrt5)) when it has
    one and a suite reads it.
    """

    imm: ImmersionSpec
    frame: TangentFrame
    hessians: np.ndarray
    h: np.ndarray
    christoffel: np.ndarray
    ops: InducedOperators | None
    structure: GoldenStructure | None
    exact: ExactInducedOperators | None = None

    @property
    def size(self) -> int:
        return self.hessians.shape[0]


def point_geometry(imm: ImmersionSpec, metric: Metric,
                   structure: GoldenStructure | None = None,
                   points: Sequence[Sequence[float]] | None = None) -> PointGeometry:
    """One batched pass over ``points`` (default: the immersion's sample points):
    jets, frames, ``h``, Christoffel coefficients and, given ``structure``, P, Q, t, s.
    An affine immersion reads its exact form instead of jets: its second derivatives are 0."""
    if metric.n != imm.n:
        raise DimensionMismatch("metric dimension does not match the ambient space")
    pts = np.asarray(imm.sample_spec.points() if points is None else points, dtype=float)
    form = imm.affine_form
    if form is None:
        jac, hess = evaluate(imm.components, pts)
    else:
        jac = evaluate_affine(*(np.asarray(x, dtype=float) for x in form), pts)
        size, n, m = jac.shape
        hess = np.zeros((size, n, m, m))
        h, christoffel = np.zeros((size, m, m, n - m)), np.zeros((size, m, m, m))
    if structure is not None:
        structure = structure.to_float()
    # Products that overflow give non-finite values, which fail the checks
    # that read them.
    with np.errstate(over="ignore", invalid="ignore"):
        frame = _stacked_frames(pts, jac, metric.to_float())
        if form is None:
            # Split D2x into its normal part (normal-frame coordinates) and its
            # tangential part (coefficients in the raw tangent basis).
            g = frame.metric.matrix
            etg = jac.mT @ g
            h = np.einsum("...kn,...nij->...ijk", frame.normal_onb.mT @ g, hess)
            rhs = np.einsum("...an,...nij->...ija", etg, hess)
            christoffel = np.linalg.solve((etg @ jac)[:, None, None], rhs[..., None])[..., 0]
        ops = None if structure is None else induced_operators(frame, structure)
    return PointGeometry(imm, frame, hess, h, christoffel, ops, structure)


class IdentityReport(NamedTuple):
    residuals: dict[str, float]


def block_identity_residuals(p, q, t, s, gt, gn, form_norm=_amax) -> dict:
    """Max-abs residuals of the four block identities, self-adjointness and the metric split.

    ``gt`` and ``gn`` are the Gram matrices of the tangent and normal bases
    the blocks are written in (identities for orthonormal frames).  Exact
    blocks give exact residuals; float stacks give one residual per point.
    ``form_norm`` measures the matrices of the two bilinear-form identities.
    """
    eye_m, eye_k = _eye(p), _eye(s)
    return {
        "p_squared": _amax(p @ p - p - eye_m + t @ q),
        "q_projection": _amax(q - q @ p - s @ q),
        "s_squared": _amax(s @ s - s - eye_k + q @ t),
        "t_projection": _amax(t - p @ t - t @ s),
        "p_self_adjoint": form_norm(gt @ p - p.mT @ gt),
        "metric_split": form_norm(p.mT @ gt @ p + q.mT @ gn @ q - gt - p.mT @ gt),
    }


def structural_identity_residuals(ops: InducedOperators, frame: TangentFrame,
                                  structure: GoldenStructure) -> IdentityReport:
    """:func:`block_identity_residuals` in the orthonormal frames, plus reassembly.

    The two metric identities are bilinear forms, measured by the spectral
    norm of their matrices: the worst value of the form on any unit tangent
    pair, and never below the worst entry.  The reassembly residuals confirm
    that ``phi X`` recombines from the operator blocks in ambient
    coordinates.  For stacked operators each residual holds one value per
    point.
    """
    p, q, t, s = ops.p, ops.q, ops.t, ops.s
    res = block_identity_residuals(p, q, t, s, np.eye(p.shape[-1]), np.eye(s.shape[-1]),
                                   form_norm=_spectral)
    phi = structure.phi_float
    tb, nb = frame.tangent_onb, frame.normal_onb
    res["reassembly_tangent"] = _amax(phi @ tb - tb @ p - nb @ q)
    res["reassembly_normal"] = _amax(phi @ nb - tb @ t - nb @ s)
    return IdentityReport({k: float(v) if np.ndim(v) == 0 else v for k, v in res.items()})


def invariance_kinds(ops: InducedOperators,
                     tol_class: float = DEFAULT_TOL_CLASS) -> np.ndarray:
    """invariant where Q vanishes, anti-invariant where P vanishes, else neither: at one
    point (a 0-d array) or at every point of a stack."""
    return np.where(_amax(ops.q) <= tol_class, "invariant",
                    np.where(_amax(ops.p) <= tol_class, "anti_invariant", "neither"))


# ---------------------------------------------------------------------------
# exact route for affine immersions


class ExactFrame(NamedTuple):
    """Raw tangent basis and exact g-orthogonal normal complement."""

    tangent: xl.QMatrix  # n x m constant Jacobian
    normal: xl.QMatrix  # n x (n - m)
    gram_tangent: xl.QMatrix
    gram_normal: xl.QMatrix
    metric: Metric


class ExactInducedOperators(NamedTuple):
    """P, Q, t, s over Q(sqrt5) in the raw tangent / complement bases."""

    p: xl.QMatrix
    q: xl.QMatrix
    t: xl.QMatrix
    s: xl.QMatrix
    frame: ExactFrame


def exact_frame(imm: ImmersionSpec, metric: Metric) -> ExactFrame | None:
    """Exact frame data, or None when the immersion or metric is not exact."""
    if metric.backend != "exact":
        return None
    form = imm.affine_form
    if form is None:
        return None
    jac, g = form[1], metric.entries
    et_g = jac.T @ g
    normal = xl.kernel_basis(et_g).T
    if normal.shape[1] != imm.n - imm.m:
        return None  # exact Jacobian is rank deficient
    return ExactFrame(jac, normal, et_g @ jac, normal.T @ g @ normal, metric)


def exact_induced_operators(frame: ExactFrame,
                            structure: GoldenStructure) -> ExactInducedOperators:
    """Block coordinates of phi in the basis [tangent | normal], exactly."""
    if not is_exact(structure.phi):
        raise DimensionMismatch("exact induced operators need an exact structure")
    m = frame.tangent.shape[1]
    basis = xl.concatenate([frame.tangent, frame.normal], axis=1)
    coords = xl.solve(basis, structure.phi @ basis)
    return ExactInducedOperators(p=coords[:m, :m], q=coords[m:, :m], t=coords[:m, m:],
                                 s=coords[m:, m:], frame=frame)


def exact_identity_residuals(ops: ExactInducedOperators) -> dict[str, QuadRat]:
    """:func:`block_identity_residuals` over Q(sqrt5) in the raw bases (all must be 0)."""
    frame = ops.frame
    return block_identity_residuals(ops.p, ops.q, ops.t, ops.s,
                                    frame.gram_tangent, frame.gram_normal)
