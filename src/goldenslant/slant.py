"""Slant angle, submanifold classification and the slant identity suite.

The angle between ``phi X`` and the tangent space has cosine
``|g(phi X, PX)| / (|PX| |phi X|)``; a submanifold is slant when that angle
is direction- and point-independent.  Slantness is equivalent to the
operator identity ``P^2 = lambda (P + I)`` on tangent vectors with
``lambda = cos^2(theta)``, which also pins the companion identities of the
slant rows of :mod:`goldenslant.checks` (lemmas, corollary and ``tQ``),
checked here both in floating point at every sample point and exactly over
Q(sqrt5) for affine immersions, each by one function for both backends.
Those functions read the matrices of ``g(X, PY)`` and ``g(V, QY)`` (V
normal) as ``Gt P`` and ``Gn Q``, blocks of the lowered matrix
``M = B^T g phi B`` (see :mod:`goldenslant.submanifold`), both read from the
one :class:`~goldenslant.submanifold.InducedOperators` record of either route;
the exact certificate reads ``tQ`` as ``(C^2)_TT - P^2``, so it shares each
product with the exact identities.  In the orthonormal frames of the float
route ``Gt = I`` and ``M = C``.

One reference formula for a worked slant family omits the ``|X|``
normalization from the cosine; :func:`reference_cosine` computes that
variant so reports can flag the discrepancy (its magnitude exceeds 1 for
steep members of the family) without guessing intent.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .config import Tolerances
from .errors import ZeroVector
from .structures import GoldenStructure, _amax, _eye, _worst_spectral
from .submanifold import (
    DEFAULT_TOL_CLASS,
    ImmersionSpec,
    InducedOperators,
    PointGeometry,
    frame_at,  # noqa: F401  (perfbench's wrapper test reads this binding)
    invariance_kind,
    point_geometry,
)

INVARIANT = "invariant"
ANTI_INVARIANT = "anti_invariant"
PROPER_SLANT = "proper_slant"
NON_SLANT = "non_slant"


def _angles(p: np.ndarray, q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Angles of phi X with the tangent space for directions ``x`` (..., D, m)."""
    # Because g(phi X, PX) = |PX|^2, the defining arccos equals
    # atan2(|QX|, |PX|), which stays accurate where arccos degenerates.
    pn = np.linalg.norm(x @ p.mT, axis=-1)
    qn = np.linalg.norm(x @ q.mT, axis=-1)
    if np.any((pn == 0.0) & (qn == 0.0)):
        raise ZeroVector("phi X vanished; structure cannot be golden")
    return np.arctan2(qn, pn)


def reference_cosine(ops: InducedOperators, x: Sequence[float]) -> float:
    """Signed cosine variant g(phi X, X)/|phi X| that skips the |X| factor.

    Not scale-invariant: it matches the definitional cosine only for unit
    ``X``, so callers reproducing the flagged reference value must pass the
    raw (unnormalized) tangent coordinates.
    """
    vec = np.asarray(x, dtype=float)
    # The value is homogeneous of degree 1 in X.  Evaluating it at X / 2^e with
    # 2^e >= max |X_i| and scaling back keeps every product finite and, the
    # scaling being exact, gives the same bits whenever nothing overflowed.
    exp = math.frexp(float(np.max(np.abs(vec))))[1]
    vec = np.ldexp(vec, -exp)
    px = ops.p @ vec
    qx = ops.q @ vec
    phin = math.sqrt(float(px @ px) + float(qx @ qx))
    if phin == 0.0:
        raise ZeroVector("phi X vanished")
    with np.errstate(over="ignore"):  # a value beyond the float range becomes inf
        return float(np.ldexp(float(px @ vec) / phin, exp))


def classify(imm: ImmersionSpec, structure: GoldenStructure,
             tol_frame: float = Tolerances().tol_frame,
             tol_class: float = DEFAULT_TOL_CLASS) -> dict:
    """:func:`classify_geometry` at the immersion's sample points."""
    geom = point_geometry(imm, structure.metric, structure)
    return classify_geometry(geom, tol_frame, tol_class)


def classify_geometry(geom: PointGeometry, tol_frame: float = Tolerances().tol_frame,
                      tol_class: float = DEFAULT_TOL_CLASS) -> dict:
    """Slant angles at the eigen-directions of P at every point of a geometry, then classify.

    In orthonormal frames P is symmetric and ``|phi X|^2 = g(X, (P + I) X)``,
    so along ``X = sum c_i v_i`` over P's eigenvectors ``cos^2 theta(X)`` is a
    positive-weighted average of ``mu_i^2 / (mu_i + 1)``: the extreme angles
    over all directions are taken at the eigenvectors.  It is slant when every
    slant identity holds within ``tol_frame`` for lambda = cos^2 of their mean
    angle, the characterization tested first on P's eigenvalues as
    ``mu^2 - lambda (mu + 1)``; only then are the characterization, the P/Q
    product identities and the tQ identity evaluated at every point, their
    worst residuals attached to a slant record.  The bilinear-form identities
    are measured by the spectral norm of their matrices, all in one
    :func:`~goldenslant.structures._worst_spectral` call: the worst value of the form on
    any unit pair, and never below the worst entry.  A slant geometry is invariant or
    anti-invariant when :func:`invariance_kind` says so, else proper slant.

    Returns the slant suite's float fields: ``classification``, ``theta``, ``cos_theta``,
    ``lambda``, ``sin_sq``, ``angle_spread`` and ``residuals`` (empty unless slant).
    """
    ops = geom.ops
    mu, vectors = np.linalg.eigh((ops.p + ops.p.mT) / 2.0)
    angles = _angles(ops.p, ops.q, vectors.mT)
    # Each evaluated point stands for geom.repeats sample points; the mean is summed over
    # all of their rows, in the order of a pass that evaluated each.
    theta = float(np.mean(np.repeat(angles, geom.repeats, axis=0)))
    lam = math.cos(theta) ** 2
    record = {"classification": NON_SLANT, "theta": theta, "cos_theta": math.sqrt(max(lam, 0.0)),
              "lambda": lam, "sin_sq": 1.0 - lam,
              "angle_spread": float(angles.max() - angles.min()), "residuals": {}}
    if not _amax(mu * mu - lam * (mu + 1.0)) <= tol_frame:  # NaN frames fail here too
        return record
    kind = invariance_kind(ops, tol_class)
    kind = kind if kind in (INVARIANT, ANTI_INVARIANT) else PROPER_SLANT
    p, q = ops.p, ops.q
    pp = p @ p
    forms = [_characterization(p, pp, lam),
             *_lemma_residuals(ops, *_cos2_forms(ops), lam, record["sin_sq"])]
    if kind != ANTI_INVARIANT:
        forms.append(_corollary(p, pp, lam))
    keys = ("characterization", "lemma_p", "lemma_q", "corollary")
    residuals = dict(zip(keys, map(float, _worst_spectral(np.stack(forms)))))
    tq = ops.t @ q
    residuals["tq"] = float(np.maximum(_amax(_tq_lambda_form(p, tq, lam), None),
                                       _amax(tq + pp - p - _eye(p), None)))
    if all(v <= tol_frame for v in residuals.values()):
        record.update(classification=kind, residuals=residuals)
    return record


# ---------------------------------------------------------------------------
# the slant identities, written once for exact matrices and float stacks (one
# matrix or value per point); ``pp`` is P^2, formed once by the caller and shared


def _characterization(p, pp, lam):
    """The matrix P^2 - lambda (P + I)."""
    return pp - (p + _eye(p)) * lam


def _corollary(p, pp, lam):
    """The matrix of g(phi^2 X, Y) - g(P^2 X, Y) / lambda, with
    g(phi^2 X, Y) = g(PX, Y) + g(X, Y)."""
    return p + _eye(p) - pp / lam


def _cos2_forms(ops):
    """Matrices of g(PX, PY) and g(X, Y) + g(X, PY), from the tangent basis Gram
    matrix Gt and the block Gt P of ``ops.lowered``, the matrix of g(X, PY)."""
    gt_p = ops.lowered[..., :ops.m, :ops.m]
    return gt_p.mT @ ops.p, ops.gram_tangent + gt_p


def _lemma_residuals(ops, pp_form, p_rhs, lam, k):
    """The residual matrices of g(PX, PY) = lambda (g(X, Y) + g(X, PY)) and
    g(QX, QY) = k (g(X, Y) + g(PX, Y)), from the :func:`_cos2_forms` ``pp_form`` and
    ``p_rhs`` (whose transpose is the matrix of g(X, Y) + g(PX, Y)) and the block Gn Q
    of ``ops.lowered``, the matrix of g(V, QY) for normal V."""
    return pp_form - p_rhs * lam, ops.q.mT @ ops.lowered[..., ops.m:, :ops.m] - p_rhs.mT * k


def _tq_lambda_form(p, tq, lam):
    """The matrix tQ - (1 - lambda)(P + I)."""
    return tq - (p + _eye(p)) * (1 - lam)


# ---------------------------------------------------------------------------
# exact route


def exact_slant_data(eops: InducedOperators) -> dict:
    """Exact slant certificate: the classification, lambda, ``is_slant`` and, under
    ``residuals``, every identity residual.

    The immersion is exactly slant iff the lambda candidates agree and the
    characterization residual is zero; the remaining residuals are then
    forced to zero and double-check the arithmetic.  A slant immersion is
    invariant when lambda is 1 (Q = 0) and anti-invariant when it is 0 (P = 0).
    Gt P and Gn Q are the blocks of ``eops.lowered`` and tQ is ``(C^2)_TT - P^2``,
    products the exact identities share; three more exact matmuls are formed here.
    """
    p, m = eops.p, eops.m
    forms = _cos2_forms(eops)
    # cos^2(theta) along each raw basis direction e_i: the ratio of the
    # diagonals of the lemma's g(PX, PY) and g(X, Y) + g(X, PY) matrices
    candidates = [x / y for x, y in zip(forms[0].diagonal(), forms[1].diagonal())]
    lam = candidates[0]
    uniform = all(c == lam for c in candidates)
    pp = p @ p
    char = _amax(_characterization(p, pp, lam))
    lemma_p, lemma_q = map(_amax, _lemma_residuals(eops, *forms, lam, 1 - lam))
    tq = _amax(_tq_lambda_form(p, eops.square[:m, :m] - pp, lam))
    slant = uniform and not char
    return {
        "classification": (NON_SLANT if not slant else INVARIANT if lam == 1
                           else ANTI_INVARIANT if not lam else PROPER_SLANT),
        "lambda": lam,
        "is_slant": slant,
        "residuals": {"characterization": char, "lemma_p": lemma_p, "lemma_q": lemma_q,
                      "tq_lambda_form": tq},
    }
