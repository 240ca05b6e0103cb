"""Second fundamental form and tangential/normal split checks.

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
               first_order=None) -> tuple[str, dict[str, float]]:
    """:func:`invariance_kind` of ``ops``, a point within ``tol_class`` of invariant (of
    anti-invariant) being so only where ``first_order()`` (default ``geom.first_order``; not
    called when no point is, which is neither) has ``invariant_parallel`` and
    ``invariant_weingarten`` (``anti_invariant``) within ``tol_frame``; and each term's worst."""
    near_q, near_p = _amax(ops.q) <= tol_class, _amax(ops.p) <= tol_class
    if not (np.any(near_q) or np.any(near_p)):
        return "neither", {}
    first = (first_order or geom.first_order)()
    invariant = np.maximum(first["invariant_parallel"], first["invariant_weingarten"]) <= tol_frame
    kind = invariance_kind(ops, tol_class, invariant, first["anti_invariant"] <= tol_frame)
    terms = {"invariant_parallel": near_q, "invariant_weingarten": near_q, "anti_invariant": near_p}
    return kind, {key: _amax(first[key][near], None) for key, near in terms.items() if np.any(near)}


def extrinsic_residuals(geom: PointGeometry, tol: Tolerances, first_order=None) -> tuple[str, dict]:
    """The :func:`invariance` kind (exact when the exact route ran) and the worst value, over
    every point and pair (i, j), of each residual that applies to it, each entry (i, j)
    divided by ``geom.hessian_scale`` first.

    Always the tangential and normal split of ``phi`` applied to the Hessians,
    tan(phi D2x_ij) = P tan(D2x_ij) + t h_ij and nor(phi D2x_ij) = Q tan(D2x_ij) + s h_ij
    in frame coordinates, and the symmetry of h.  The split is definitional for any linear
    ambient operator, so these vanish whether or not ``phi`` is golden; they validate the
    frame/operator bookkeeping.  ``invariant`` adds the two invariant terms that decided it.
    ``first_order`` is the worst :func:`invariance` term, if one was tested.
    """
    ops, tangential, h = geom.ops, geom.tangential, geom.h
    tan, nor = _phi_hessian_split(geom)
    route = (ops, tol.tol_class) if geom.exact is None else (geom.exact, 0)
    kind, terms = invariance(geom, *route, tol.tol_frame, first_order)
    residuals = {
        "gauss_tangential": tan - _apply(ops.p, tangential) - _apply(ops.t, h),
        "gauss_normal": nor - _apply(ops.q, tangential) - _apply(ops.s, h),
        "h_symmetry": h - h.transpose(0, 2, 1, 3),
    }
    # Where the Hessian column is 0 or not finite the scale is 1, so NaN and Inf stay.
    scale = geom.hessian_scale[..., None]
    worst = {key: _amax(value / scale, None) for key, value in residuals.items()}
    if kind == "invariant":
        worst.update((key, terms[key]) for key in ("invariant_parallel", "invariant_weingarten"))
    if terms:
        worst["first_order"] = _amax(np.array([*terms.values()]), None)
    return kind, worst
