"""Second fundamental form, shape operator and tangential/normal split checks.

The ambient space is flat with a constant ``phi``, so the ambient
derivative of a coordinate tangent field is just the immersion Hessian and
the derivative of ``phi Y`` along ``X`` is ``phi`` applied to it.  Splitting
these vectors through the orthonormal frames gives their tangential part and
the second fundamental form ``h`` (normal part), and turns the
tangential/normal split of the structure equation into entrywise residual
checks.  Everything is written in the frames that P, Q, t and s live in, so
no connection coefficients are solved for.

:func:`extrinsic_residuals` takes a :class:`~goldenslant.submanifold.PointGeometry` and
returns the worst value of each residual over its points.  Each entry (i, j) of a residual
is divided by max|W D2x_ij|, the largest entry of its own Hessian column at its point, before
the reduction, so that no change of units (x -> c x, u -> s u, g -> c g) moves it.
"""

from __future__ import annotations

import numpy as np

from .submanifold import (
    PointGeometry,
    _amax,
    frame_at,  # noqa: F401  (perfbench's wrapper test reads this binding)
)


def _phi_hessian_split(geom: PointGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Tangent and normal coordinates of phi D2x_ij, each indexed [point, i, j, coordinate]."""
    frame, hess = geom.frame, geom.hessians
    coords = frame.split(geom.structure.phi_hat @ hess.reshape(*hess.shape[:-2], -1))
    return coords[..., :frame.m], coords[..., frame.m:]


def _apply(op: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``op`` applied to every vector ``vectors[..., i, j, :]``, as one matmul on their columns."""
    columns = vectors.reshape(*vectors.shape[:-3], -1, vectors.shape[-1]).mT
    return (op @ columns).mT.reshape(*vectors.shape[:-1], op.shape[-2])


def extrinsic_residuals(geom: PointGeometry, kind: str) -> dict[str, float]:
    """The worst value, over every point and pair (i, j), of each residual that applies to
    invariance ``kind``, each entry (i, j) divided by ``geom.hessian_scale`` first.

    Always the tangential and normal split of ``phi`` applied to the Hessians,
    tan(phi D2x_ij) = P tan(D2x_ij) + t h_ij and nor(phi D2x_ij) = Q tan(D2x_ij) + s h_ij
    in frame coordinates, and the symmetry of h.  The split is definitional for any linear
    ambient operator, so these vanish whether or not ``phi`` is golden; they validate the
    frame/operator bookkeeping.  ``invariant`` adds the parallelism of the induced
    structure (the ``t h`` term drops since ``t = 0`` wherever ``Q = 0``) and
    ``h(X, PY) = s h(X, Y)`` over the coordinate basis.  ``anti_invariant`` adds
    ``shape_operator_max``, max |g(h(X_i, X_j), phi e_b)| over the raw tangents X_i and the
    orthonormal tangent frame e_b: the shape operators A_{phi Y}, by g(A_V X, Z) =
    g(h(X, Z), V), with ``Q e_b`` the normal coordinates of ``phi e_b``.  The claim under
    test predicts it is zero, so a nonzero result is a genuine finding, not an artifact.
    """
    ops, tangential, h = geom.ops, geom.tangential, geom.h
    tan, nor = _phi_hessian_split(geom)
    p_tan = _apply(ops.p, tangential)
    residuals = {
        "gauss_tangential": tan - p_tan - _apply(ops.t, h),
        "gauss_normal": nor - _apply(ops.q, tangential) - _apply(ops.s, h),
        "h_symmetry": h - h.transpose(0, 2, 1, 3),
    }
    if kind == "invariant":
        # The raw tangents are E = T C, so P reads C^-1 P C in the raw basis.
        c = geom.frame.tangent_coords(geom.frame.raw_tangents)
        h_py = np.einsum("...kj,...ikc->...ijc", np.linalg.solve(c, ops.p @ c), h)
        residuals["invariant_parallel"] = tan - p_tan
        residuals["invariant_weingarten"] = h_py - _apply(ops.s, h)
    elif kind == "anti_invariant":
        residuals["shape_operator_max"] = h @ ops.q[:, None]
    # Where the Hessian column is 0 or not finite the scale is 1, so NaN and Inf stay.
    scale = geom.hessian_scale[..., None]
    return {key: _amax(value / scale, None) for key, value in residuals.items()}
