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
returns its :func:`invariance` kind and the worst value of each residual over its points,
each entry (i, j) divided first by max|W D2x_ij|, the largest entry of its own Hessian
column at its point, so that no change of units (x -> c x, u -> s u, g -> c g) moves it.
"""

from __future__ import annotations

import numpy as np

from .config import Tolerances
from .submanifold import InducedOperators, PointGeometry, _amax, invariance_kind
from .submanifold import frame_at  # noqa: F401  (perfbench's wrapper test reads this binding)


def _phi_hessian_split(geom: PointGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Tangent and normal coordinates of phi D2x_ij, each indexed [point, i, j, coordinate]."""
    frame, hess = geom.frame, geom.hessians
    coords = frame.split(geom.structure.phi_hat @ hess.reshape(*hess.shape[:-2], -1))
    return coords[..., :frame.m], coords[..., frame.m:]


def _apply(op: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``op`` applied to every vector ``vectors[..., i, j, :]``, as one matmul on their columns."""
    columns = vectors.reshape(*vectors.shape[:-3], -1, vectors.shape[-1]).mT
    return (op @ columns).mT.reshape(*vectors.shape[:-1], op.shape[-2])


def invariance(geom: PointGeometry, ops: InducedOperators, tol_class: float, tol_frame: float,
               tan: np.ndarray | None = None) -> tuple[str, dict[str, float]]:
    """:func:`invariance_kind` of ``ops``, where a point within ``tol_class`` of invariant is
    invariant only if both invariant rows of ``geom.ops`` hold there within ``tol_frame``, and
    each row's worst value over those points (no row is formed when there is none):
    tan(phi D2x_ij) = P tan(D2x_ij), ``tan`` its left side if split, and h(X, PY) = s h(X, Y)."""
    near, scale = _amax(ops.q) <= tol_class, geom.hessian_scale[..., None]
    if not np.any(near):
        return invariance_kind(ops, tol_class), {}
    tan = _phi_hessian_split(geom)[0] if tan is None else tan
    # The raw tangents are E = T C, so P reads C^-1 P C in the raw basis.
    c = geom.frame.tangent_coords(geom.frame.raw_tangents)
    h_py = np.einsum("...kj,...ikc->...ijc", np.linalg.solve(c, geom.ops.p @ c), geom.h)
    rows = {"invariant_parallel": tan - _apply(geom.ops.p, geom.tangential),
            "invariant_weingarten": h_py - _apply(geom.ops.s, geom.h)}
    rows = {key: _amax(row / scale, (-3, -2, -1)) for key, row in rows.items()}
    kind = invariance_kind(ops, tol_class, np.logical_and(*(v <= tol_frame for v in rows.values())))
    return kind, {key: _amax(row[near], None) for key, row in rows.items()}


def extrinsic_residuals(geom: PointGeometry, tol: Tolerances) -> tuple[str, dict[str, float]]:
    """The :func:`invariance` kind (exact when the exact route ran) and the worst value, over
    every point and pair (i, j), of each residual that applies to it, each entry (i, j)
    divided by ``geom.hessian_scale`` first.

    Always the tangential and normal split of ``phi`` applied to the Hessians,
    tan(phi D2x_ij) = P tan(D2x_ij) + t h_ij and nor(phi D2x_ij) = Q tan(D2x_ij) + s h_ij
    in frame coordinates, and the symmetry of h.  The split is definitional for any linear
    ambient operator, so these vanish whether or not ``phi`` is golden; they validate the
    frame/operator bookkeeping.  ``invariant`` adds the rows that decided it, where ``t h``
    drops (t = 0 within ``tol_class`` of Q = 0, and the rows must hold).  ``anti_invariant``
    adds ``shape_operator_max``, max |g(h(X_i, X_j), phi e_b)| over the raw tangents X_i and
    the orthonormal tangent frame e_b: the shape operators A_{phi Y}, by g(A_V X, Z) =
    g(h(X, Z), V), with ``Q e_b`` the normal coordinates of ``phi e_b``.  The claim under
    test predicts it is zero, so a nonzero result is a genuine finding, not an artifact.
    """
    ops, tangential, h = geom.ops, geom.tangential, geom.h
    tan, nor = _phi_hessian_split(geom)
    route = (ops, tol.tol_class) if geom.exact is None else (geom.exact, 0)
    kind, rows = invariance(geom, *route, tol.tol_frame, tan)
    residuals = {
        "gauss_tangential": tan - _apply(ops.p, tangential) - _apply(ops.t, h),
        "gauss_normal": nor - _apply(ops.q, tangential) - _apply(ops.s, h),
        "h_symmetry": h - h.transpose(0, 2, 1, 3),
    }
    if kind == "anti_invariant":
        residuals["shape_operator_max"] = h @ ops.q[:, None]
    # Where the Hessian column is 0 or not finite the scale is 1, so NaN and Inf stay.
    scale = geom.hessian_scale[..., None]
    worst = {key: _amax(value / scale, None) for key, value in residuals.items()}
    return kind, {**worst, **rows} if kind == "invariant" else worst
