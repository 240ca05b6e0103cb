"""Tangent/normal frames along an immersion and the induced operators.

For a submanifold of a golden Riemannian manifold, applying ``phi`` to
tangent and normal vectors and splitting the results orthogonally yields
four operators: ``P`` (tangent -> tangent), ``Q`` (tangent -> normal),
``t`` (normal -> tangent) and ``s`` (normal -> normal).  Because
``phi**2 = phi + I``, the block decomposition forces four block identities
(``P^2 = P + I - tQ`` and its kin), the self-adjointness of ``P`` and the
metric split: the identities rows of :mod:`goldenslant.checks`.

The four operators are the blocks of one matrix ``C = [[P, t], [Q, s]]``,
the matrix of ``phi`` in a basis ``B = [T | N]`` of tangent vectors ``T``
and normal vectors ``N``.  So ``phi**2 = phi + I`` is ``C**2 = C + I``,
whose four blocks are the four identities above, and the two metric
identities are read from the lowered matrix ``M = B^T g phi B = Gamma C``,
where ``Gamma = diag(Gt, Gn)`` is the Gram matrix of ``B``.  One record,
:class:`InducedOperators`, holds ``C``, ``M``, ``C**2`` and ``Gt`` for both
backends, and one function reads every identity from it.

The float route works in the metric's Euclidean model: in the coordinates
``y = W x`` with ``g = W^T W`` (:class:`~goldenslant.structures.Metric`) the
metric is the dot product and phi is the matrix ``phi_hat = W phi W^-1``;
W is made once per metric and ``phi_hat`` once per structure.  The frames
are the ``Q`` of a Householder QR, orthonormal to a small multiple of n times
the unit roundoff for any finite input (Higham 2002, §19.3), so ``Gamma = I``
and ``M = C``, and plain transposes realize metric adjoints.  A scenario
evaluates all of its sample points in one batched pass (:func:`point_geometry`)
that makes each per-point contraction one batched matmul.  Affine immersions
over Q(sqrt5) also get an exact route in the raw tangent basis ``T`` and the
reduced kernel basis ``N`` of ``T^T g``, the identity on its free rows.  As ``N`` is
g-orthogonal to ``T``, the tangent rows of ``C`` solve one m x m system
against ``Gt``, and the normal rows are read off the free rows of
``phi B = B C``; the identities then check statements about exact zeros.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from . import exactlin as xl
from .checks import BOUNDS
from .config import SampleSpec, Tolerances
from .errors import DimensionMismatch, RankDeficient
from .expr import Expr, evaluate, evaluate_affine, parse
from .quadrat import QuadRat
from .structures import GoldenStructure, Metric, _amax, _eye, _worst_spectral, is_exact

DEFAULT_TOL_CLASS = Tolerances().tol_class


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
    """g-orthonormal frame [tangent | normal] at one parameter point, in the
    coordinates ``y = W x`` of the metric's Euclidean model: ``onb`` is an
    orthogonal matrix, so ``onb^T`` gives frame coordinates.

    Frames stacked over N points carry a leading point axis: ``point`` is
    then an (N, m) array and every matrix gains an axis of length N.
    """

    point: tuple[float, ...] | np.ndarray
    raw_tangents: np.ndarray  # n x m Jacobian columns W J
    onb: np.ndarray  # n x n, the first m columns tangent

    m = property(lambda self: self.raw_tangents.shape[-1])
    tangent_onb = property(lambda self: self.onb[..., :self.m])  # n x m, a view

    def at(self, i: int) -> TangentFrame:
        """The frame at point ``i`` of a stack."""
        return TangentFrame(tuple(self.point[i].tolist()), self.raw_tangents[i], self.onb[i])

    def tangent_coords(self, vectors: np.ndarray) -> np.ndarray:
        # As C-ordered rows: numpy sums a product with a strided transpose in another
        # order, and the reports keep their bits.
        return np.ascontiguousarray(self.tangent_onb.mT) @ vectors

    def split(self, columns: np.ndarray) -> np.ndarray:
        """Frame coordinates [..., i, j, k] of the vectors ``columns[..., :, i * m + j]``."""
        coords = (self.onb.mT @ columns).reshape(*columns.shape[:-1], self.m, self.m)
        return np.moveaxis(coords, -3, -1)


def _stacked_frames(points: np.ndarray, jac: np.ndarray, w: np.ndarray) -> TangentFrame:
    """Frames at every point from one stacked QR of the Jacobians ``W J``.

    In ``y = W x`` the metric is the dot product, so the complete QR of
    ``W J`` is the frame.  The tangent columns are signed as Gram-Schmidt on
    the Jacobian columns signs them; the normal columns are the QR completion.
    Its ``R`` gives the rank: ``|r_jj| / |R[:, j]|`` is the sine of column j's angle to the
    columns before it, which no scaling of a column changes (van der Sluis 1969).  A zero
    column has no angle; one with a non-finite norm is left to the checks that read the frame.
    """
    w_jac = w @ jac
    q, r = np.linalg.qr(w_jac, mode="complete")
    diag, norms = np.diagonal(r, axis1=-2, axis2=-1), np.hypot.reduce(r, axis=-2)  # |R[:, j]|
    bad = (np.abs(diag) < BOUNDS["RANK_SINE"] * norms) & (norms < np.inf) | (norms == 0.0)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise RankDeficient(f"Jacobian column {j + 1} is within sine {BOUNDS['RANK_SINE']:g} "
                            f"of the columns before it at {tuple(points[i].tolist())}")
    q[..., :jac.shape[-1]] *= np.where(diag < 0.0, -1.0, 1.0)[..., None, :]
    return TangentFrame(points, w_jac, q)


def frame_at(imm: ImmersionSpec, point: Sequence[float], metric: Metric) -> TangentFrame:
    """Orthonormal tangent/normal frames of ``imm`` at ``point``."""
    return point_geometry(imm, metric, points=[point]).frame.at(0)


def _block(row: int, col: int) -> property:
    """Block ``(row, col)`` of ``blocks`` split after the m tangent rows and columns:
    (0, 0) is P, (1, 0) is Q, (0, 1) is t and (1, 1) is s."""
    def get(self):
        halves = (slice(None, self.m), slice(self.m, None))
        return self.blocks[..., halves[row], halves[col]]
    return property(get)


class InducedOperators(NamedTuple):
    """phi's matrix C = ``[[P, t], [Q, s]]`` in a basis B = [T | N] of tangent vectors T
    and normal vectors N, with the products every identity reads: ``lowered``, whose
    first m columns are those of M = B^T g phi B (``M_TT = Gt P``, ``M_NT = Gn Q``),
    ``square`` = C^2 and ``gram_tangent`` = Gt = T^T g T, whose size is m.

    The float route fills it in orthonormal frames, where Gt = I and M = C, with a
    leading point axis on every matrix but Gt; the exact route over Q(sqrt5).
    """

    blocks: np.ndarray | xl.QMatrix  # n x n
    lowered: np.ndarray | xl.QMatrix  # n x n (float) or n x m (exact)
    square: np.ndarray | xl.QMatrix  # n x n
    gram_tangent: np.ndarray | xl.QMatrix  # m x m

    m = property(lambda self: self.gram_tangent.shape[-1])
    p = _block(0, 0)  # m x m
    q = _block(1, 0)  # (n-m) x m
    t = _block(0, 1)  # m x (n-m)
    s = _block(1, 1)  # (n-m) x (n-m)

    def at(self, i: int) -> InducedOperators:
        """The operators at point ``i`` of a stack."""
        return InducedOperators(self.blocks[i], self.lowered[i], self.square[i],
                                self.gram_tangent)


def induced_operators(frame: TangentFrame, structure: GoldenStructure) -> InducedOperators:
    """Project ``phi`` through the frames of ``frame`` (one point or a stack)."""
    if structure.n != frame.onb.shape[-1]:
        raise DimensionMismatch("structure and frame ambient dimensions differ")
    blocks = frame.onb.mT @ (structure.phi_hat @ frame.onb)
    return InducedOperators(blocks, blocks, blocks @ blocks, np.eye(frame.m))


class PointGeometry(NamedTuple):
    """Every sample point of a scenario, evaluated once and shared by the point suites.

    Arrays lead with the point axis and hold vectors in the coordinates
    ``y = W x``: the stacked ``frame`` (Jacobians in ``raw_tangents``),
    ``hessians`` (N x n x m x m), their frame coordinates
    split into ``tangential`` (N x m x m x m) and the second fundamental form
    ``h`` (N x m x m x (n-m)), ``hessian_scale`` (N x m x m), max|W D2x_ij| or 1 where that is
    0 or not finite, and, given a structure, the stacked ``ops``.
    ``exact`` holds the scenario's exact route (P, Q, t, s over Q(sqrt5))
    when it has one and a suite reads it.  Each evaluated point stands for
    ``repeats`` sample points: all N of an affine immersion, whose geometry is
    the same at each, are evaluated at the first alone.
    """

    frame: TangentFrame
    hessians: np.ndarray
    tangential: np.ndarray
    h: np.ndarray
    hessian_scale: np.ndarray
    ops: InducedOperators | None
    structure: GoldenStructure | None
    exact: InducedOperators | None = None
    repeats: int = 1

    @property
    def size(self) -> int:
        """The number of sample points."""
        return self.hessians.shape[0] * self.repeats


def point_geometry(imm: ImmersionSpec, metric: Metric,
                   structure: GoldenStructure | None = None,
                   points: Sequence[Sequence[float]] | None = None) -> PointGeometry:
    """One batched pass over ``points`` (default: the immersion's sample points):
    jets, frames, the frame coordinates of the Hessians and, given ``structure``, P, Q, t, s.
    An affine immersion reads its exact form instead of jets: its second derivatives are 0,
    and once its values are known finite at every point, its one Jacobian is evaluated
    at the first point alone."""
    if metric.n != imm.n:
        raise DimensionMismatch("metric dimension does not match the ambient space")
    form = imm.affine_form
    if form is None:
        pts = np.asarray(imm.sample_spec.points() if points is None else points, dtype=float)
        jac, hess = evaluate(imm.components, pts)
    else:
        jac, pts, size = evaluate_affine(*(np.asarray(x, dtype=float) for x in form),
                                         imm.sample_spec if points is None else points)
        hess = np.zeros(jac.shape + jac.shape[-1:])
    w = metric.to_float().w
    # Products that overflow give non-finite values, which fail the checks
    # that read them.
    with np.errstate(over="ignore", invalid="ignore"):
        frame = _stacked_frames(pts[:len(jac)], jac, w)
        columns = w @ hess.reshape(len(jac), imm.n, -1)  # W D2x_ij
        scale = _amax(columns, -2).reshape(len(jac), *hess.shape[2:])  # max|W D2x_ij|
        scale = np.where((scale > 0.0) & (scale < np.inf), scale, 1.0)
        # Coordinates of W D2x_ij in [tangent | normal]: the first m are its
        # tangential part, the rest the second fundamental form h_ij.
        split = frame.split(columns)
        ops = None if structure is None else induced_operators(frame, structure)
    return PointGeometry(frame, columns.reshape(hess.shape), split[..., :frame.m],
                         split[..., frame.m:], scale, ops, structure,
                         repeats=1 if form is None else size)


def block_identity_residuals(ops: InducedOperators) -> dict:
    """Residual matrices of the four block identities, self-adjointness and the metric split.

    The four block identities are the four blocks of ``C^2 - C - I``;
    self-adjointness is ``M_TT = M_TT^T`` and the metric split is
    ``C[:, :m]^T M[:, :m] = P^T Gt P + Q^T Gn Q = Gt + M_TT^T``, the last two the
    m x m matrices of bilinear forms.  Exact and float records alike; float stacks
    give one matrix per point.
    """
    c, lowered, m = ops.blocks, ops.lowered, ops.m
    r = ops.square - c - _eye(c)
    m_tt = lowered[..., :m, :m]
    return {
        "p_squared": r[..., :m, :m],
        "q_projection": r[..., m:, :m],
        "s_squared": r[..., m:, m:],
        "t_projection": r[..., :m, m:],
        "p_self_adjoint": m_tt - m_tt.mT,
        "metric_split": c[..., :m].mT @ lowered[..., :m] - ops.gram_tangent - m_tt.mT,
    }


def structural_identity_residuals(ops: InducedOperators) -> dict:
    """Worst residuals of :func:`block_identity_residuals` in the orthonormal frames, over
    one point or every point of a stack.

    The block identities are measured by their max |entry|.  The two metric
    identities are bilinear forms, measured by the spectral norm of their
    matrices, both in one :func:`~goldenslant.structures._worst_spectral` call: the worst
    value of the form on any unit tangent pair, and never below the worst entry.
    """
    res, m = block_identity_residuals(ops), ops.m
    forms = np.stack([res.pop("p_self_adjoint"), res.pop("metric_split")]).reshape(2, -1, m, m)
    res = {k: _amax(v, None) for k, v in res.items()}
    res["p_self_adjoint"], res["metric_split"] = _worst_spectral(forms)
    return {k: float(v) for k, v in res.items()}


def invariance_kind(ops: InducedOperators, tol_class: float = DEFAULT_TOL_CLASS) -> str:
    """invariant where Q vanishes, else anti-invariant where P vanishes, else neither, when
    that is so at every point of ``ops`` (one point or a stack); mixed when the points differ."""
    invariant, anti = _amax(ops.q) <= tol_class, _amax(ops.p) <= tol_class
    if np.any(invariant):
        return "invariant" if np.all(invariant) else "mixed"
    return "anti_invariant" if np.all(anti) else "mixed" if np.any(anti) else "neither"


# ---------------------------------------------------------------------------
# exact route for affine immersions


class ExactFrame(NamedTuple):
    """Raw tangent basis T and its exact g-orthogonal complement N."""

    tangent: xl.QMatrix  # n x m constant Jacobian
    normal: xl.QMatrix  # n x (n - m), the identity on the rows ``free``
    free: list[int]
    tangent_g: xl.QMatrix  # T^T g (m x n)
    gram_tangent: xl.QMatrix  # Gt = T^T g T
    metric: Metric


def exact_frame(imm: ImmersionSpec, metric: Metric) -> ExactFrame | None:
    """Exact frame data, or None when the immersion or metric is not exact."""
    if metric.backend != "exact":
        return None
    form = imm.affine_form
    if form is None:
        return None
    jac = form[1]
    et_g = jac.T @ metric.entries
    kernel, free = xl.kernel_basis(et_g)
    if len(free) != imm.n - imm.m:
        return None  # exact Jacobian is rank deficient
    return ExactFrame(jac, kernel.T, free, et_g, et_g @ jac, metric)


def exact_induced_operators(frame: ExactFrame, structure: GoldenStructure) -> InducedOperators:
    """phi's matrix C in the basis B = [T | N], exactly, with its lowered and squared forms.

    ``phi B = B C``.  The tangent rows ``[P | t]`` solve the m x m system
    ``Gt [P | t] = T^T g phi B``, because ``T^T g N = 0``.  The normal rows
    need no solve: on the free rows of N, where N is the identity,
    ``phi B = T [P | t] + [Q | s]``.
    """
    if not is_exact(structure.phi):
        raise DimensionMismatch("exact induced operators need an exact structure")
    tangent, free, m = frame.tangent, frame.free, frame.tangent.shape[1]
    phi_b = structure.phi @ xl.concatenate([tangent, frame.normal], axis=1)
    m_t = frame.tangent_g @ phi_b  # T^T g phi B, the tangent rows of M
    c_t = xl.solve(frame.gram_tangent, m_t)
    c = xl.concatenate([c_t, phi_b[free] - tangent[free] @ c_t])
    m_nt = frame.normal.T @ (frame.metric.entries @ phi_b[:, :m])
    lowered = xl.concatenate([m_t[:, :m], m_nt])
    return InducedOperators(c, lowered, c @ c, frame.gram_tangent)


def exact_identity_residuals(ops: InducedOperators) -> dict[str, QuadRat]:
    """Max |entry| of each :func:`block_identity_residuals` over Q(sqrt5) in the raw bases
    (all must be 0)."""
    return {k: _amax(v) for k, v in block_identity_residuals(ops).items()}
