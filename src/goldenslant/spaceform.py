"""Algebraic point-model of a locally golden product space form.

The model fixes an inner-product space with a constant golden structure
and evaluates the closed-form curvature tensor

    R(X,Y)Z = A {g(Y,Z)X - g(X,Z)Y + g(phiY,Z)phiX - g(phiX,Z)phiY}
            + B {g(phiY,Z)X - g(phiX,Z)Y + g(Y,Z)phiX - g(X,Z)phiY}

with A = -((1-psi) c_p - psi c_q) / (2 sqrt5) and
B = -((1-psi) c_p + psi c_q) / 4, together with its Ricci contraction and
the derivation action R.S.  Every statement about these tensors is
pointwise multilinear algebra, so checks are direct evaluations over
seeded random tuples.

The tensor functions take vectors with leading trial axes, shape
``(..., n)``, and every probe evaluates all of its trials at once: one bulk
draw of shape ``(trials, k, n)`` gives the same tuples as ``trials``
sequential ``(k, n)`` draws from the same generator, and one NumPy max
reduces the residuals, so a NaN anywhere shows up in the result.

The commutation of R(X,Y) with phi and its corollaries are genuinely open
probes here: for B != 0 this tensor does NOT commute with phi (which is
exactly what makes the R.S derivation action nonvanishing), so those
checks report conformance findings instead of assuming the claims.
Covariant-derivative statements are certified structurally: every
coefficient in R and S is a point-independent constant, so nabla R and
nabla S vanish identically and both sides of their phi-identities are 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .quadrat import PSI
from .structures import GoldenStructure, golden_eigendecomp

_PSI = float(PSI)
_SQRT5 = math.sqrt(5.0)


@dataclass(frozen=True)
class SpaceFormModel:
    """Constant-coefficient model with sectional curvatures (c_p, c_q)."""

    n: int
    p: int
    c_p: float
    c_q: float
    structure: GoldenStructure
    frame: np.ndarray  # columns: g-orthonormal frame E_1..E_n

    @classmethod
    def build(cls, n: int, p: int, c_p: float, c_q: float) -> SpaceFormModel:
        """Diagonal model: psi on the first p axes, 1 - psi on the rest."""
        from .structures import Metric

        phi = np.diag([_PSI] * p + [1.0 - _PSI] * (n - p))
        structure = GoldenStructure(phi, Metric.euclidean(n, backend="float"))
        return cls(n=n, p=p, c_p=float(c_p), c_q=float(c_q), structure=structure,
                   frame=np.eye(n))

    @classmethod
    def from_structure(cls, structure: GoldenStructure, c_p: float,
                       c_q: float) -> SpaceFormModel:
        s = structure.to_float()
        basis_psi, basis_neg = golden_eigendecomp(s)
        frame = np.hstack([basis_psi, basis_neg])
        return cls(n=s.n, p=basis_psi.shape[1], c_p=float(c_p), c_q=float(c_q),
                   structure=s, frame=frame)

    @property
    def phi(self) -> np.ndarray:
        return self.structure.phi_float

    @property
    def g(self) -> np.ndarray:
        return self.structure.metric.matrix

    @property
    def trace_phi(self) -> float:
        return float(np.trace(self.phi))

    @property
    def coeff_a(self) -> float:
        return -((1.0 - _PSI) * self.c_p - _PSI * self.c_q) / (2.0 * _SQRT5)

    @property
    def coeff_b(self) -> float:
        return -((1.0 - _PSI) * self.c_p + _PSI * self.c_q) / 4.0

    @property
    def ricci_g_coeff(self) -> float:
        """Coefficient of g(Y, Z) in the closed-form Ricci tensor."""
        return self.coeff_a * (self.n - 2) + self.coeff_b * self.trace_phi

    @property
    def ricci_phi_coeff(self) -> float:
        """Coefficient of g(phi Y, Z) in the closed-form Ricci tensor."""
        return self.coeff_a * (self.trace_phi - 1.0) + self.coeff_b * (self.n - 2)


def _phi(model: SpaceFormModel, v: np.ndarray) -> np.ndarray:
    """phi V for every vector along the last axis of ``v``."""
    return v @ model.phi.T


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Euclidean dot product along the last axis, over the leading axes."""
    return np.einsum("...i,...i->...", u, v)


def _inner(model: SpaceFormModel, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """g(U, V) over the leading axes of ``u`` and ``v`` (g is symmetric)."""
    return _dot(u @ model.g, v)


def _tuples(model: SpaceFormModel, trials: int, seed: int, k: int) -> np.ndarray:
    """``trials`` seeded random k-tuples, as k arrays of shape (trials, n).

    One bulk (trials, k, n) draw yields the same numbers as ``trials``
    sequential (k, n) draws from a generator seeded with ``seed``.
    """
    draw = np.random.default_rng(seed).standard_normal((trials, k, model.n))
    return draw.transpose(1, 0, 2)


def _worst(residual: np.ndarray) -> float:
    """Largest |entry| of a residual; NaN when any entry is NaN."""
    return float(np.abs(residual).max())


def curvature(model: SpaceFormModel, x: np.ndarray, y: np.ndarray,
              z: np.ndarray) -> np.ndarray:
    """R(X, Y)Z of the space-form model, broadcast over leading trial axes."""
    for v in (x, y, z):
        if np.shape(v)[-1:] != (model.n,):
            raise DimensionMismatch(f"expected vectors of length {model.n}")
    px, py = _phi(model, x), _phi(model, y)
    gz = z @ model.g
    gyz, gxz, gpyz, gpxz = _dot(y, gz), _dot(x, gz), _dot(py, gz), _dot(px, gz)
    a, b = model.coeff_a, model.coeff_b
    return ((a * gyz + b * gpyz)[..., None] * x - (a * gxz + b * gpxz)[..., None] * y
            + (a * gpyz + b * gyz)[..., None] * px - (a * gpxz + b * gxz)[..., None] * py)


def ricci_framesum(model: SpaceFormModel, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """S(Y, Z) as the frame contraction sum_i g(R(E_i, Y)Z, E_i).

    Each term of g(R(E, Y)Z, E) is a product of a Y/Z factor and a frame
    factor.  The Y/Z factors (phi Y, g Z and their inner products) are
    computed once, the frame factors once per frame vector as matrix
    products over the frame, so memory stays that of Y and Z.
    """
    e, a, b = model.frame, model.coeff_a, model.coeff_b
    pe, ge = model.phi @ e, model.g @ e
    py, gz = _phi(model, y), z @ model.g
    gyz, gpyz = _dot(y, gz), _dot(py, gz)
    gez, gpez = gz @ e, gz @ pe  # g(E_i, Z), g(phi E_i, Z)
    return ((a * gyz + b * gpyz) * np.sum(e * ge) + (a * gpyz + b * gyz) * np.sum(pe * ge)
            - ((a * gez + b * gpez) * (y @ ge)).sum(axis=-1)
            - ((a * gpez + b * gez) * (py @ ge)).sum(axis=-1))


def ricci_closed(model: SpaceFormModel, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """S(Y, Z) in closed form from the two constant coefficients."""
    return (model.ricci_g_coeff * _inner(model, y, z)
            + model.ricci_phi_coeff * _inner(model, _phi(model, y), z))


def _ricci(model: SpaceFormModel, path: str):
    return ricci_framesum if path == "framesum" else ricci_closed


def ricci_agreement(model: SpaceFormModel, trials: int = 100, seed: int = 0) -> float:
    """Worst |framesum - closed| over random pairs (the two must coincide)."""
    y, z = _tuples(model, trials, seed, 2)
    return _worst(ricci_framesum(model, y, z) - ricci_closed(model, y, z))


def curvature_commutation_checks(model: SpaceFormModel, trials: int = 100,
                                 seed: int = 0) -> dict[str, float]:
    """Max residuals of the five phi-commutation statements for R.

    These hold for curvature tensors of metrics with parallel golden
    structures; for this model's closed-form tensor they fail whenever the
    mixed coefficient B is nonzero, so treat the output as a finding.
    """
    x, y, z, w = _tuples(model, trials, seed, 4)
    px, py, pz, pw = (_phi(model, v) for v in (x, y, z, w))
    rz = curvature(model, x, y, z)
    rpz = curvature(model, x, y, pz)
    r_px = curvature(model, px, y, z)
    return {
        "phi_argument": _worst(rpz - _phi(model, rz)),
        "first_slots": _worst(r_px - curvature(model, x, py, z)),
        "both_slots": _worst(curvature(model, px, py, z) - r_px - rz),
        "form_both_phi": _worst(_inner(model, rpz, pw) - _inner(model, rz, pw)
                                - _inner(model, rz, w)),
        "form_swap": _worst(_inner(model, rpz, w) - _inner(model, rz, pw)),
    }


def ricci_phi_checks(model: SpaceFormModel, trials: int = 100, seed: int = 0,
                     path: str = "framesum") -> dict[str, float]:
    """Max residuals of the four phi-identities of the Ricci tensor."""
    s = _ricci(model, path)
    x, y = _tuples(model, trials, seed, 2)
    px, py = _phi(model, x), _phi(model, y)
    s_xy, s_pxy = s(model, x, y), s(model, px, y)
    return {
        "phi_sq_left": _worst(s(model, _phi(model, px), y) - s_pxy - s_xy),
        "phi_sq_right": _worst(s(model, x, _phi(model, py)) - s(model, x, py) - s_xy),
        "phi_both": _worst(s(model, px, py) - s_pxy - s_xy),
        "phi_swap": _worst(s_pxy - s(model, py, x)),
    }


def r_dot_s(model: SpaceFormModel, x: np.ndarray, y: np.ndarray, z: np.ndarray,
            w: np.ndarray, path: str = "closed") -> np.ndarray:
    """Derivation action (R(X,Y).S)(Z,W) = -S(R(X,Y)Z, W) - S(Z, R(X,Y)W)."""
    s = _ricci(model, path)
    rz = curvature(model, x, y, z)
    rw = curvature(model, x, y, w)
    return -s(model, rz, w) - s(model, z, rw)


def r_dot_s_closed_form(model: SpaceFormModel, x: np.ndarray, y: np.ndarray,
                        z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The claimed product shape -2 beta g(R(X,Y)W, phi Z) of the derivation action."""
    rw = curvature(model, x, y, w)
    return -2.0 * model.ricci_phi_coeff * _inner(model, rw, _phi(model, z))


def r_dot_s_closed_form_gap(model: SpaceFormModel, trials: int = 100,
                            seed: int = 0) -> float:
    """Worst |definitional - claimed closed form| of R.S over random tuples."""
    x, y, z, w = _tuples(model, trials, seed, 4)
    return _worst(r_dot_s(model, x, y, z, w) - r_dot_s_closed_form(model, x, y, z, w))


def non_semi_symmetry_probe(model: SpaceFormModel, trials: int = 100,
                            seed: int = 0) -> float:
    """max |(R(X,Y).S)(Z,W)|; a value above threshold certifies R.S != 0."""
    x, y, z, w = _tuples(model, trials, seed, 4)
    return _worst(r_dot_s(model, x, y, z, w))


def rs_corollary_residual(model: SpaceFormModel, trials: int = 100,
                          seed: int = 0) -> float:
    """max |(R(phi X, Y).S)(phi Z, W)| over random tuples (claimed to vanish)."""
    x, y, z, w = _tuples(model, trials, seed, 4)
    return _worst(r_dot_s(model, _phi(model, x), y, _phi(model, z), w))


def rs_phi_propositions(model: SpaceFormModel, trials: int = 100,
                        seed: int = 0) -> dict[str, float]:
    """Max residuals of the two phi-expansion identities of R.S (findings)."""
    x1, x2, x, y = _tuples(model, trials, seed, 4)
    px1, px2, px, py = (_phi(model, v) for v in (x1, x2, x, y))
    base = r_dot_s(model, x1, x2, x, y)
    return {
        "arguments": _worst(r_dot_s(model, px1, px2, x, y)
                            - r_dot_s(model, px1, x2, x, y) - base),
        "values": _worst(r_dot_s(model, x1, x2, px, py)
                         - r_dot_s(model, x1, x2, px, y) - base),
    }


def bianchi_residual(model: SpaceFormModel, trials: int = 100, seed: int = 0) -> float:
    """First Bianchi identity R(X,Y)Z + R(Y,Z)X + R(Z,X)Y = 0."""
    x, y, z = _tuples(model, trials, seed, 3)
    return _worst(curvature(model, x, y, z) + curvature(model, y, z, x)
                  + curvature(model, z, x, y))


def pair_symmetry_residual(model: SpaceFormModel, trials: int = 100,
                           seed: int = 0) -> float:
    """Pair symmetry g(R(X,Y)Z, W) = g(R(Z,W)X, Y)."""
    x, y, z, w = _tuples(model, trials, seed, 4)
    return _worst(_inner(model, curvature(model, x, y, z), w)
                  - _inner(model, curvature(model, z, w, x), y))


def antisymmetry_residual(model: SpaceFormModel, trials: int = 100,
                          seed: int = 0) -> float:
    """Antisymmetry R(X,Y)Z = -R(Y,X)Z."""
    x, y, z = _tuples(model, trials, seed, 3)
    return _worst(curvature(model, x, y, z) + curvature(model, y, x, z))


@dataclass(frozen=True)
class NablaCertificate:
    """Structural certificate that nabla R and nabla S vanish in this model.

    All four displayed constants are point-independent, and phi and g are
    constant matrices, so every covariant derivative of R and S is
    identically zero; the phi-identities for nabla R and nabla S then hold
    as 0 = 0.  No numerical residual is involved.
    """

    coeff_a: float
    coeff_b: float
    ricci_g_coeff: float
    ricci_phi_coeff: float
    statements: tuple[str, ...]
    certified: bool = True


def nabla_identities_certificate(model: SpaceFormModel) -> NablaCertificate:
    return NablaCertificate(
        coeff_a=model.coeff_a,
        coeff_b=model.coeff_b,
        ricci_g_coeff=model.ricci_g_coeff,
        ricci_phi_coeff=model.ricci_phi_coeff,
        statements=(
            "curvature coefficients A, B are constants and phi, g are constant,"
            " so nabla R = 0 and (nabla R)(X,Y)phiZ = phi (nabla R)(X,Y)Z holds as 0 = 0",
            "Ricci coefficients are constants, so nabla S = 0 and"
            " (nabla S)(phiX, Y) = (nabla S)(X, phiY) holds as 0 = 0",
        ),
    )
