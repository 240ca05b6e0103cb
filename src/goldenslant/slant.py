"""Slant angle, submanifold classification and the slant identity suite.

The angle between ``phi X`` and the tangent space has cosine
``|g(phi X, PX)| / (|PX| |phi X|)``; a submanifold is slant when that angle
is direction- and point-independent.  Slantness is equivalent to the
operator identity ``P^2 = lambda (P + I)`` on tangent vectors with
``lambda = cos^2(theta)``, which also pins the companion identities

    g(PX, PY) = cos^2(theta) (g(X, Y) + g(X, PY))
    g(QX, QY) = sin^2(theta) (g(X, Y) + g(PX, Y))
    tQ = (1 - lambda) (P + I) = -P^2 + P + I

checked here both in floating point at every sample point and exactly over
Q(sqrt5) for affine immersions, each by one function for both backends.
Those functions read the matrices of ``g(X, PY)`` and ``g(V, QY)`` (V
normal) as ``Gt P`` and ``Gn Q``, blocks of the lowered matrix
``M = B^T g phi B`` (see :mod:`goldenslant.submanifold`), and ``tQ`` as
``(C^2)_TT - P^2``, all read from the one
:class:`~goldenslant.submanifold.InducedOperators` record of either route,
so the exact certificate shares each product with the exact identities.  In
the orthonormal frames of the float route ``Gt = I`` and ``M = C``.

One reference formula for a worked slant family omits the ``|X|``
normalization from the cosine; :func:`reference_cosine` computes that
variant so reports can flag the discrepancy (its magnitude exceeds 1 for
steep members of the family) without guessing intent.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ZeroVector
from .structures import GoldenStructure, _amax, _eye, _spectral
from .submanifold import (
    DEFAULT_TOL_CLASS,
    ImmersionSpec,
    InducedOperators,
    PointGeometry,
    frame_at,  # noqa: F401  (perfbench's wrapper test reads this binding)
    point_geometry,
)

DEFAULT_TOL_ANGLE = 1e-6

INVARIANT = "invariant"
ANTI_INVARIANT = "anti_invariant"
PROPER_SLANT = "proper_slant"
NON_SLANT = "non_slant"
_SLANT_KINDS = (INVARIANT, ANTI_INVARIANT, PROPER_SLANT)


class SlantReport(NamedTuple):
    """Classification plus the angle data and identity residuals backing it."""

    classification: str
    theta: float
    lam: float  # cos^2 theta
    k: float  # sin^2 theta
    angle_spread: float
    residuals: Mapping[str, float] = MappingProxyType({})

    @property
    def cos_theta(self) -> float:
        return math.sqrt(max(self.lam, 0.0))

    def is_slant(self) -> bool:
        return self.classification in _SLANT_KINDS


def _angles(p: np.ndarray, q: np.ndarray, x: np.ndarray, tol_class: float) -> np.ndarray:
    """Angles of phi X with the tangent space for directions ``x`` (..., D, m)."""
    # Because g(phi X, PX) = |PX|^2, the defining arccos equals
    # atan2(|QX|, |PX|), which stays accurate where arccos degenerates.
    pn = np.linalg.norm(x @ p.mT, axis=-1)
    qn = np.linalg.norm(x @ q.mT, axis=-1)
    if np.any((pn == 0.0) & (qn == 0.0)):
        raise ZeroVector("phi X vanished; structure cannot be golden")
    return np.where(pn <= tol_class * np.hypot(pn, qn), math.pi / 2, np.arctan2(qn, pn))


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
             tol_angle: float = DEFAULT_TOL_ANGLE,
             tol_class: float = DEFAULT_TOL_CLASS) -> SlantReport:
    """:func:`classify_geometry` at the immersion's sample points."""
    geom = point_geometry(imm, structure.metric, structure)
    return classify_geometry(geom, tol_angle, tol_class)


def classify_geometry(geom: PointGeometry, tol_angle: float = DEFAULT_TOL_ANGLE,
                      tol_class: float = DEFAULT_TOL_CLASS) -> SlantReport:
    """Slant angles at the eigen-directions of P at every point of a geometry, then classify.

    In orthonormal frames P is symmetric and ``|phi X|^2 = g(X, (P + I) X)``,
    so along ``X = sum c_i v_i`` over P's eigenvectors ``cos^2 theta(X)`` is a
    positive-weighted average of ``mu_i^2 / (mu_i + 1)``: the extreme angles
    over all directions are taken at the eigenvectors.  Their spread
    (max - min) decides slantness exactly; their mean angle then separates
    invariant, anti-invariant and proper slant.  For slant results the
    characterization, the P/Q product identities and the tQ identity are
    evaluated at every point and their worst residuals attached to the
    report.  The bilinear-form identities are measured by the spectral norm
    of their matrices, all in one call: the worst value of the form on any
    unit pair, and never below the worst entry.
    """
    ops = geom.ops
    _, vectors = np.linalg.eigh((ops.p + ops.p.mT) / 2.0)
    angles = _angles(ops.p, ops.q, vectors.mT, tol_class)
    # Each evaluated point stands for geom.repeats sample points; the mean is summed over
    # all of their rows, in the order of a pass that evaluated each.
    theta = float(np.mean(np.repeat(angles, geom.repeats, axis=0)))
    spread = float(angles.max() - angles.min())
    if spread <= tol_angle:
        if theta <= tol_angle:
            kind = INVARIANT
        elif math.pi / 2 - theta <= tol_angle:
            kind = ANTI_INVARIANT
        else:
            kind = PROPER_SLANT
    else:
        kind = NON_SLANT
    lam = math.cos(theta) ** 2
    report = SlantReport(
        classification=kind,
        theta=theta,
        lam=lam,
        k=1.0 - lam,
        angle_spread=spread,
    )
    if not report.is_slant():
        return report
    p, q = ops.p, ops.q
    pp = p @ p
    forms = [_characterization(p, pp, lam),
             *_lemma_residuals(ops, *_cos2_forms(ops), lam, report.k)]
    if kind != ANTI_INVARIANT:
        forms.append(_corollary(p, pp, lam))
    keys = ("characterization", "lemma_p", "lemma_q", "corollary")
    residuals = dict(zip(keys, _spectral(np.stack(forms))))
    residuals["tq"] = np.maximum(*_tq_residuals(p, pp, ops.t @ q, lam))
    return report._replace(residuals={k: float(np.max(v)) for k, v in residuals.items()})


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


def _tq_residuals(p, pp, tq, lam):
    """Worst residuals of tQ = (1 - lambda)(P + I) and tQ = -P^2 + P + I."""
    eye = _eye(p)
    return _amax(tq - (p + eye) * (1 - lam)), _amax(tq + pp - p - eye)


# ---------------------------------------------------------------------------
# exact route


def exact_slant_data(eops: InducedOperators) -> dict:
    """Exact slant certificate: lambda candidates plus all identity residuals.

    The immersion is exactly slant iff the lambda candidates agree and the
    characterization residual is zero; the remaining residuals are then
    forced to zero and double-check the arithmetic.  Gt P and Gn Q are the
    blocks of ``eops.lowered`` and tQ is ``(C^2)_TT - P^2``, products the
    exact identities share; three more exact matmuls are formed here.
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
    tq1, tq2 = _tq_residuals(p, pp, eops.square[:m, :m] - pp, lam)
    return {
        "lambda": lam,
        "lambda_uniform": uniform,
        "is_slant": uniform and not char,
        "characterization": char,
        "lemma_p": lemma_p,
        "lemma_q": lemma_q,
        "tq_lambda_form": tq1,
        "tq_block_form": tq2,
    }
