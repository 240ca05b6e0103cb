"""Second fundamental form, shape operator and tangential/normal split checks.

The ambient space is flat with a constant ``phi``, so the ambient
derivative of a coordinate tangent field is just the immersion Hessian and
the derivative of ``phi Y`` along ``X`` is ``phi`` applied to it.  Splitting
these vectors through the frames gives the induced connection coefficients
(tangential part) and the second fundamental form ``h`` (normal part), and
turns the tangential/normal split of the structure equation into entrywise
residual checks.

The checks take a :class:`~goldenslant.submanifold.PointGeometry` and
return one residual per point; the single-point functions are views of a
geometry of one point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotAntiInvariant, NotInvariant
from .structures import GoldenStructure, Metric
from .submanifold import (
    DEFAULT_TOL_CLASS,
    ImmersionSpec,
    PointGeometry,
    TangentFrame,
    _amax,
    _t,
    frame_at,  # noqa: F401  (still importable from this module)
    invariance_kinds,
    point_geometry,
)


@dataclass(frozen=True)
class SecondFundamentalForm:
    """Normal and tangential parts of the immersion Hessian at a point (or a stack).

    ``h[i, j]`` holds the normal-frame coordinates of the normal part of
    d^2 x / du_i du_j; ``christoffel_t[i, j]`` holds the induced-connection
    coefficients of its tangential part in the raw tangent basis.  Both are
    symmetric in (i, j) because mixed partials are.
    """

    h: np.ndarray  # m x m x (n - m)
    christoffel_t: np.ndarray  # m x m x m
    frame: TangentFrame

    def h_onb(self) -> np.ndarray:
        """h re-indexed by the orthonormal tangent frame instead of raw tangents."""
        e = self.frame.raw_tangents
        etg = _t(e) @ self.frame.metric.matrix
        coords = np.linalg.solve(etg @ e, etg @ self.frame.tangent_onb)  # m x m
        return np.einsum("...ia,...jb,...ijc->...abc", coords, coords, self.h)


@dataclass(frozen=True)
class ShapeOperator:
    """Map V -> A_V with g(A_V X, Y) = g(h(X, Y), V), in orthonormal frames."""

    h_onb: np.ndarray  # m x m x (n - m)

    def __call__(self, v_normal: np.ndarray) -> np.ndarray:
        return np.einsum("abc,c->ab", self.h_onb, v_normal)


def second_fundamental_form(imm: ImmersionSpec, point: Sequence[float],
                            metric: Metric) -> SecondFundamentalForm:
    """Split each Hessian vector into tangential and normal parts."""
    geom = point_geometry(imm, metric, points=[point])
    return SecondFundamentalForm(h=geom.h[0], christoffel_t=geom.christoffel[0],
                                 frame=geom.frame.at(0))


def shape_operator(sff: SecondFundamentalForm) -> ShapeOperator:
    return ShapeOperator(sff.h_onb())


def _amax3(a: np.ndarray) -> np.ndarray:
    return _amax(a, (-3, -2, -1))


def _phi_hessian_split(geom: PointGeometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tangent and normal coordinates of phi D2x_ij, and tangent coordinates of
    the connection term sum_k Gamma_ij^k e_k, each indexed [point, i, j, coordinate]."""
    frame = geom.frame
    g = frame.metric.matrix
    v = np.einsum("ab,...bij->...aij", geom.structure.phi_float, geom.hessians)
    tg = _t(frame.tangent_onb) @ g
    tan = np.einsum("...an,...nij->...ija", tg, v)
    nor = np.einsum("...kn,...nij->...ijk", _t(frame.normal_onb) @ g, v)
    nabla = np.einsum("...ab,...ijb->...ija", tg @ frame.raw_tangents, geom.christoffel)
    return tan, nor, nabla


def _apply(op: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``op`` applied to every vector ``vectors[..., i, j, :]``."""
    return np.einsum("...ab,...ijb->...ija", op, vectors)


def gauss_split_residuals(geom: PointGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Per-point residuals of the tangential and normal split of ``phi`` applied to Hessians.

    tangential(phi D2x_ij) = P christoffel_ij + t h_ij and
    normal(phi D2x_ij) = Q christoffel_ij + s h_ij.  The split is
    definitional for any linear ambient operator, so these vanish whether or
    not ``phi`` is golden; they validate the frame/operator bookkeeping.
    """
    ops = geom.ops
    tan, nor, nabla = _phi_hessian_split(geom)
    r_tan = _amax3(tan - _apply(ops.p, nabla) - _apply(ops.t, geom.h))
    r_nor = _amax3(nor - _apply(ops.q, nabla) - _apply(ops.s, geom.h))
    return r_tan, r_nor


def gauss_split_residual(imm: ImmersionSpec, point: Sequence[float],
                         structure: GoldenStructure) -> tuple[float, float]:
    """:func:`gauss_split_residuals` at one point."""
    r_tan, r_nor = gauss_split_residuals(point_geometry(imm, structure.metric, structure,
                                                        [point]))
    return float(r_tan[0]), float(r_nor[0])


def invariant_residuals(geom: PointGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Per-point residuals of both invariant-submanifold identities.

    First value: the parallelism of the induced structure, i.e. the
    tangential part of ``phi D2x_ij`` minus ``P`` applied to the connection
    coefficients (the ``t h`` term drops since ``t = 0`` wherever ``Q = 0``).
    Second value: ``h(X, PY) - s h(X, Y)`` over the coordinate basis.  Both
    presume invariant tangent spaces.
    """
    ops = geom.ops
    tan, _, nabla = _phi_hessian_split(geom)
    e = geom.frame.raw_tangents
    etg = _t(e) @ geom.frame.metric.matrix
    p_raw = np.linalg.solve(etg @ e, etg @ geom.structure.phi_float @ e)
    h_py = np.einsum("...kj,...ikc->...ijc", p_raw, geom.h)
    return _amax3(tan - _apply(ops.p, nabla)), _amax3(h_py - _apply(ops.s, geom.h))


def invariant_connection_check(imm: ImmersionSpec, point: Sequence[float],
                               structure: GoldenStructure,
                               tol_class: float = DEFAULT_TOL_CLASS) -> tuple[float, float]:
    """:func:`invariant_residuals` at one point, which must be invariant."""
    geom = point_geometry(imm, structure.metric, structure, [point])
    if invariance_kinds(geom.ops, tol_class)[0] != "invariant":
        raise NotInvariant(f"tangent space at {tuple(point)} is not phi-invariant")
    r_parallel, r_weingarten = invariant_residuals(geom)
    return float(r_parallel[0]), float(r_weingarten[0])


def shape_vanishing_probe(geom: PointGeometry) -> np.ndarray:
    """Per-point max-abs of the shape operators A_{phi Y} over tangent frame directions Y.

    The anti-invariant claim under test predicts this is zero.  The value is
    computed from the defining relation g(A_V X, Z) = g(h(X, Z), V), with
    ``Q e_b`` the normal coordinates of ``phi e_b``, so a nonzero result is
    a genuine finding about the claim, not an artifact.
    """
    h_onb = SecondFundamentalForm(geom.h, geom.christoffel, geom.frame).h_onb()
    return _amax3(np.einsum("...abc,...cd->...abd", h_onb, geom.ops.q))


def anti_invariant_shape_vanishing(imm: ImmersionSpec, point: Sequence[float],
                                   structure: GoldenStructure,
                                   tol_class: float = DEFAULT_TOL_CLASS) -> float:
    """:func:`shape_vanishing_probe` at one point, which must be anti-invariant."""
    geom = point_geometry(imm, structure.metric, structure, [point])
    if invariance_kinds(geom.ops, tol_class)[0] != "anti_invariant":
        raise NotAntiInvariant(f"tangent space at {tuple(point)} is not anti-invariant")
    return float(shape_vanishing_probe(geom)[0])
