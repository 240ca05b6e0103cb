"""Second fundamental form, shape operator and tangential/normal split checks.

The ambient space is flat with a constant ``phi``, so the ambient
derivative of a coordinate tangent field is just the immersion Hessian and
the derivative of ``phi Y`` along ``X`` is ``phi`` applied to it.  Splitting
these vectors through the orthonormal frames gives their tangential part and
the second fundamental form ``h`` (normal part), and turns the
tangential/normal split of the structure equation into entrywise residual
checks.  Everything is written in the frames that P, Q, t and s live in, so
no connection coefficients are solved for.

The checks take a :class:`~goldenslant.submanifold.PointGeometry` and
return one residual per point.
"""

from __future__ import annotations

import numpy as np

from .submanifold import (
    PointGeometry,
    _amax,
    frame_at,  # noqa: F401  (perfbench's wrapper test reads this binding)
)


def _amax3(a: np.ndarray) -> np.ndarray:
    return _amax(a, (-3, -2, -1))


def _phi_hessian_split(geom: PointGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Tangent and normal coordinates of phi D2x_ij, each indexed [point, i, j, coordinate]."""
    frame, hess = geom.frame, geom.hessians
    coords = frame.split(geom.structure.phi_hat @ hess.reshape(*hess.shape[:-2], -1))
    return coords[..., :frame.m], coords[..., frame.m:]


def _apply(op: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``op`` applied to every vector ``vectors[..., i, j, :]``, as one matmul on their columns."""
    columns = vectors.reshape(*vectors.shape[:-3], -1, vectors.shape[-1]).mT
    return (op @ columns).mT.reshape(*vectors.shape[:-1], op.shape[-2])


def gauss_split_residuals(geom: PointGeometry, phi_split) -> tuple[np.ndarray, np.ndarray]:
    """Per-point residuals of the tangential and normal split of ``phi`` applied to Hessians.

    tan(phi D2x_ij) = P tan(D2x_ij) + t h_ij and
    nor(phi D2x_ij) = Q tan(D2x_ij) + s h_ij, all in frame coordinates.  The
    split is definitional for any linear ambient operator, so these vanish
    whether or not ``phi`` is golden; they validate the frame/operator
    bookkeeping.  ``phi_split`` is the :func:`_phi_hessian_split` of ``geom``.
    """
    ops = geom.ops
    tan, nor = phi_split
    r_tan = _amax3(tan - _apply(ops.p, geom.tangential) - _apply(ops.t, geom.h))
    r_nor = _amax3(nor - _apply(ops.q, geom.tangential) - _apply(ops.s, geom.h))
    return r_tan, r_nor


def invariant_residuals(geom: PointGeometry, phi_split) -> tuple[np.ndarray, np.ndarray]:
    """Per-point residuals of both invariant-submanifold identities.

    First value: the parallelism of the induced structure, i.e. the
    tangential part of ``phi D2x_ij`` minus ``P`` applied to the tangential
    part of ``D2x_ij`` (the ``t h`` term drops since ``t = 0`` wherever
    ``Q = 0``).  Second value: ``h(X, PY) - s h(X, Y)`` over the coordinate
    basis.  Both presume invariant tangent spaces.  ``phi_split`` is as above.
    """
    ops = geom.ops
    tan, _ = phi_split
    # The raw tangents are E = T C, so P reads C^-1 P C in the raw basis.
    c = geom.frame.tangent_coords(geom.frame.raw_tangents)
    h_py = np.einsum("...kj,...ikc->...ijc", np.linalg.solve(c, ops.p @ c), geom.h)
    return _amax3(tan - _apply(ops.p, geom.tangential)), _amax3(h_py - _apply(ops.s, geom.h))


def shape_vanishing_probe(geom: PointGeometry) -> np.ndarray:
    """Per-point max-abs of the shape operators A_{phi Y} over tangent frame directions Y.

    The anti-invariant claim under test predicts this is zero.  The value is
    computed from the defining relation g(A_V X, Z) = g(h(X, Z), V), with
    ``Q e_b`` the normal coordinates of ``phi e_b``, so a nonzero result is
    a genuine finding about the claim, not an artifact.
    """
    return _amax3(np.einsum("...abc,...cd->...abd", _h_onb(geom), geom.ops.q))


def _h_onb(geom: PointGeometry) -> np.ndarray:
    """h re-indexed by the orthonormal tangent frame instead of raw tangents."""
    # The raw tangents are E = T C, so the frame is T = E C^-1.
    coords = np.linalg.inv(geom.frame.tangent_coords(geom.frame.raw_tangents))
    return np.einsum("...ia,...jb,...ijc->...abc", coords, coords, geom.h)
