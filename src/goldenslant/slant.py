"""Slant angle, submanifold classification and the slant identity suite.

The angle between ``phi X`` and the tangent space has cosine
``|g(phi X, PX)| / (|PX| |phi X|)``; a submanifold is slant when that angle
is direction- and point-independent.  Slantness is equivalent to the
operator identity ``P^2 = lambda (P + I)`` on tangent vectors with
``lambda = cos^2(theta)``, which also pins the companion identities

    g(PX, PY) = cos^2(theta) (g(X, Y) + g(X, PY))
    g(QX, QY) = sin^2(theta) (g(X, Y) + g(PX, Y))
    tQ = (1 - lambda) (P + I) = -P^2 + P + I

checked here both in floating point along sampled frames and exactly over
Q(sqrt5) for affine immersions.

One reference formula for a worked slant family omits the ``|X|``
normalization from the cosine; :func:`reference_cosine` computes that
variant so reports can flag the discrepancy (its magnitude exceeds 1 for
steep members of the family) without guessing intent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import exactlin as xl
from .errors import LambdaZero, NotSlant, ZeroVector
from .quadrat import QuadRat
from .structures import GoldenStructure
from .submanifold import (
    DEFAULT_TOL_CLASS,
    DEFAULT_TOL_FRAME,
    ExactInducedOperators,
    ImmersionSpec,
    InducedOperators,
    PointGeometry,
    SampleSpec,
    TangentFrame,
    _amax,
    _dot,
    _t,
    frame_at,  # noqa: F401  (still importable from this module)
    point_geometry,
    trial_draws,
)

DEFAULT_TOL_ANGLE = 1e-6

INVARIANT = "invariant"
ANTI_INVARIANT = "anti_invariant"
PROPER_SLANT = "proper_slant"
NON_SLANT = "non_slant"
_SLANT_KINDS = (INVARIANT, ANTI_INVARIANT, PROPER_SLANT)


@dataclass(frozen=True)
class SlantReport:
    """Classification plus the angle data and identity residuals backing it."""

    classification: str
    theta: float
    lam: float  # cos^2 theta
    k: float  # sin^2 theta
    angle_spread: float
    residuals: dict[str, float] = field(default_factory=dict)

    @property
    def cos_theta(self) -> float:
        return math.sqrt(max(self.lam, 0.0))

    def is_slant(self) -> bool:
        return self.classification in _SLANT_KINDS


def _angles(p: np.ndarray, q: np.ndarray, x: np.ndarray, tol_class: float) -> np.ndarray:
    """Angles of phi X with the tangent space for directions ``x`` (..., D, m)."""
    # Because g(phi X, PX) = |PX|^2, the defining arccos equals
    # atan2(|QX|, |PX|), which stays accurate where arccos degenerates.
    pn = np.linalg.norm(x @ _t(p), axis=-1)
    qn = np.linalg.norm(x @ _t(q), axis=-1)
    if np.any((pn == 0.0) & (qn == 0.0)):
        raise ZeroVector("phi X vanished; structure cannot be golden")
    return np.where(pn <= tol_class * np.hypot(pn, qn), math.pi / 2, np.arctan2(qn, pn))


def slant_angle_at(frame: TangentFrame, ops: InducedOperators, x: Sequence[float],
                   tol_class: float = DEFAULT_TOL_CLASS) -> float:
    """Angle between ``phi X`` and the tangent space, ``X`` in tangent-frame coordinates."""
    vec = np.asarray(x, dtype=float)
    if vec.shape != (frame.m,):
        raise ZeroVector(f"direction must have {frame.m} tangent coordinates")
    if not np.linalg.norm(vec):
        raise ZeroVector("slant angle of the zero vector is undefined")
    return float(_angles(ops.p, ops.q, vec[None], tol_class)[0])


def reference_cosine(ops: InducedOperators, x: Sequence[float]) -> float:
    """Signed cosine variant g(phi X, X)/|phi X| that skips the |X| factor.

    Not scale-invariant: it matches the definitional cosine only for unit
    ``X``, so callers reproducing the flagged reference value must pass the
    raw (unnormalized) tangent coordinates.
    """
    vec = np.asarray(x, dtype=float)
    px = ops.p @ vec
    qx = ops.q @ vec
    phin = math.sqrt(float(px @ px) + float(qx @ qx))
    if phin == 0.0:
        raise ZeroVector("phi X vanished")
    return float(px @ vec) / phin


def classify(imm: ImmersionSpec, structure: GoldenStructure,
             samples: SampleSpec | None = None, directions: int = 20, seed: int = 0,
             tol_angle: float = DEFAULT_TOL_ANGLE, tol_class: float = DEFAULT_TOL_CLASS,
             tol_frame: float = DEFAULT_TOL_FRAME, trials: int = 100) -> SlantReport:
    """:func:`classify_geometry` at the points of ``samples`` (default: the immersion's)."""
    spec = samples or imm.sample_spec
    geom = point_geometry(imm, structure.metric, structure, spec.points())
    return classify_geometry(geom, directions, seed, tol_angle, tol_class, trials)


def classify_geometry(geom: PointGeometry, directions: int = 20, seed: int = 0,
                      tol_angle: float = DEFAULT_TOL_ANGLE,
                      tol_class: float = DEFAULT_TOL_CLASS, trials: int = 100) -> SlantReport:
    """Sample the slant angle over the points of a geometry and a direction set, then classify.

    Each point takes the m tangent-frame axes and ``directions`` random unit
    directions, all drawn from one stream seeded with ``seed``, point by point.
    The angle spread (max - min over all samples) decides slantness; the
    mean angle then separates invariant, anti-invariant and proper slant.
    For slant results the characterization, the P/Q product identities and
    the tQ identity are evaluated along every sampled frame and their worst
    residuals attached to the report.
    """
    ops, n_points, m = geom.ops, geom.size, geom.ops.m
    rng = np.random.default_rng(seed)
    drawn = rng.standard_normal((n_points, directions, m))
    drawn /= np.linalg.norm(drawn, axis=-1, keepdims=True)
    axes = np.broadcast_to(np.eye(m), (n_points, m, m))
    angles = _angles(ops.p, ops.q, np.concatenate([axes, drawn], axis=1), tol_class)
    theta = float(np.mean(angles))
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
    lemma_p, lemma_q = lemma_pq_identities(ops, report, trials, seed)
    residuals = {
        "characterization": characterization_residual(ops, report, seed=seed),
        "lemma_p": lemma_p,
        "lemma_q": lemma_q,
        "tq": tq_identity_residual(ops, report),
    }
    if kind != ANTI_INVARIANT:
        residuals["corollary"] = corollary_residual(ops, report, seed=seed)
    return replace(report, residuals={k: float(np.max(v)) for k, v in residuals.items()})


def _require_slant(report: SlantReport) -> None:
    if not report.is_slant():
        raise NotSlant(f"classification is {report.classification}")


def _out(value: np.ndarray) -> np.ndarray | float:
    """A float for one point, the per-point array for stacked operators.

    The residuals below take the operators of one point or of a stack; point
    i of a stack samples its trials from ``seed + i``.
    """
    return float(value) if np.ndim(value) == 0 else value


def characterization_residual(ops: InducedOperators, report: SlantReport,
                              trials: int = 20, seed: int = 0) -> float:
    """Worst residual of ``P^2 = lambda (P + I)``, operator and quadratic form."""
    _require_slant(report)
    p, lam = ops.p, report.lam
    x = trial_draws(seed, p.shape[:-2], (trials, ops.m))
    px = x @ _t(p)
    form = _dot(x, px @ _t(p)) - lam * (_dot(x, x) + _dot(x, px))
    return _out(np.maximum(_amax(p @ p - lam * (p + np.eye(ops.m))), _amax(form, -1)))


def corollary_residual(ops: InducedOperators, report: SlantReport,
                       trials: int = 20, seed: int = 0) -> float:
    """Quadratic-form residual of ``phi^2 = P^2 / lambda`` on tangent vectors."""
    _require_slant(report)
    if report.classification == ANTI_INVARIANT or report.lam <= 0.0:
        raise LambdaZero("corollary needs lambda > 0 (not anti-invariant)")
    p = ops.p
    x = trial_draws(seed, p.shape[:-2], (trials, ops.m))
    px = x @ _t(p)
    phi2 = _dot(x, px) + _dot(x, x)  # g(phi^2 X, X) = g(PX, X) + g(X, X)
    return _out(_amax(phi2 - _dot(x, px @ _t(p)) / report.lam, -1))


def lemma_pq_identities(ops: InducedOperators, report: SlantReport,
                        trials: int = 100, seed: int = 0) -> tuple[float, float]:
    """Residuals of the cos^2 and sin^2 product identities over random pairs."""
    _require_slant(report)
    p, q = ops.p, ops.q
    pairs = trial_draws(seed, p.shape[:-2], (trials, 2, ops.m))
    x, y = pairs[..., 0, :], pairs[..., 1, :]
    px, py = x @ _t(p), y @ _t(p)
    worst_p = _amax(_dot(px, py) - report.lam * (_dot(x, y) + _dot(x, py)), -1)
    worst_q = _amax(_dot(x @ _t(q), y @ _t(q)) - report.k * (_dot(x, y) + _dot(px, y)), -1)
    return worst_p, worst_q


def tq_identity_residual(ops: InducedOperators, report: SlantReport) -> float:
    """Worst residual of ``tQ = (1 - lambda)(P + I)`` and ``tQ = -P^2 + P + I``."""
    _require_slant(report)
    p = ops.p
    tq = ops.t @ ops.q
    eye = np.eye(ops.m)
    return _out(np.maximum(_amax(tq - (1.0 - report.lam) * (p + eye)),
                           _amax(tq + p @ p - p - eye)))


# ---------------------------------------------------------------------------
# exact route


def exact_lambda_candidates(eops: ExactInducedOperators) -> list[QuadRat]:
    """cos^2(theta) per raw basis direction: |P e_i|^2 / |phi e_i|^2, exactly."""
    p = eops.p
    gt = eops.frame.gram_tangent
    m = len(p)
    out = []
    for i in range(m):
        x = [QuadRat(1 if j == i else 0) for j in range(m)]
        px = xl.matvec(p, x)
        num = _bilinear(px, gt, px)
        den = _bilinear(x, gt, x) + _bilinear(px, gt, x)
        out.append(num / den)
    return out


def _bilinear(u, gram, v) -> QuadRat:
    total = QuadRat(0)
    for i, row in enumerate(gram):
        for j, gij in enumerate(row):
            total = total + u[i] * gij * v[j]
    return total


def exact_characterization_residual(eops: ExactInducedOperators, lam: QuadRat) -> QuadRat:
    p = eops.p
    m = len(p)
    target = xl.scale(lam, xl.add(p, xl.identity(m)))
    return xl.max_abs(xl.sub(xl.matmul(p, p), target))


def exact_lemma_residuals(eops: ExactInducedOperators,
                          lam: QuadRat) -> tuple[QuadRat, QuadRat]:
    p, q = eops.p, eops.q
    gt, gn = eops.frame.gram_tangent, eops.frame.gram_normal
    pt = xl.transpose(p)
    kos = xl.sub(
        xl.matmul(pt, xl.matmul(gt, p)),
        xl.scale(lam, xl.add(gt, xl.matmul(gt, p))),
    )
    sin2 = QuadRat(1) - lam
    sin_part = xl.sub(
        xl.matmul(xl.transpose(q), xl.matmul(gn, q)),
        xl.scale(sin2, xl.add(gt, xl.matmul(pt, gt))),
    )
    return xl.max_abs(kos), xl.max_abs(sin_part)


def exact_tq_residuals(eops: ExactInducedOperators, lam: QuadRat) -> tuple[QuadRat, QuadRat]:
    p = eops.p
    m = len(p)
    eye = xl.identity(m)
    tq = xl.matmul(eops.t, eops.q)
    r1 = xl.max_abs(xl.sub(tq, xl.scale(QuadRat(1) - lam, xl.add(p, eye))))
    r2 = xl.max_abs(xl.sub(xl.add(tq, xl.matmul(p, p)), xl.add(p, eye)))
    return r1, r2


def exact_slant_data(eops: ExactInducedOperators) -> dict:
    """Exact slant certificate: lambda candidates plus all identity residuals.

    The immersion is exactly slant iff the lambda candidates agree and the
    characterization residual is zero; the remaining residuals are then
    forced to zero and double-check the arithmetic.
    """
    candidates = exact_lambda_candidates(eops)
    lam = candidates[0]
    uniform = all(c == lam for c in candidates)
    char = exact_characterization_residual(eops, lam)
    lemma_p, lemma_q = exact_lemma_residuals(eops, lam)
    tq1, tq2 = exact_tq_residuals(eops, lam)
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
