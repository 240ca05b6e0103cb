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
``(..., n)``.  :func:`curvature_program` runs every probe over one seeded
draw of ``4 * trials * n`` normals.  A probe on k-tuples reads the first
``k * trials * n`` of them, which are exactly the numbers a fresh
``(trials, k, n)`` draw from the same seed would give, and that in turn
equals ``trials`` sequential ``(k, n)`` draws.  Each distinct tuple, phi
image and tensor value is evaluated once and shared by the probes that
read it; one NumPy max reduces each residual, so a NaN anywhere shows up in
the result.

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
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch
from .quadrat import PSI
from .structures import GoldenStructure, golden_eigendecomp

_PSI = float(PSI)
_SQRT5 = math.sqrt(5.0)


class SpaceFormModel:
    """Constant-coefficient model with sectional curvatures (c_p, c_q).

    The constants every tensor evaluation reads (phi, g, trace(phi), A, B and
    the two Ricci coefficients) are computed once, when the model is made.
    """

    __slots__ = ("n", "p", "c_p", "c_q", "structure", "frame", "phi", "g", "trace_phi",
                 "coeff_a", "coeff_b", "ricci_g_coeff", "ricci_phi_coeff")

    def __init__(self, n: int, p: int, c_p: float, c_q: float,
                 structure: GoldenStructure, frame: np.ndarray):
        self.n, self.p, self.c_p, self.c_q = n, p, c_p, c_q
        self.structure = structure
        self.frame = frame  # columns: g-orthonormal frame E_1..E_n
        self.phi = structure.phi_float
        self.g = structure.metric.matrix
        self.trace_phi = float(np.trace(self.phi))
        a = self.coeff_a = -((1.0 - _PSI) * c_p - _PSI * c_q) / (2.0 * _SQRT5)
        b = self.coeff_b = -((1.0 - _PSI) * c_p + _PSI * c_q) / 4.0
        # The coefficients of g(Y, Z) and g(phi Y, Z) in the closed-form Ricci tensor.
        self.ricci_g_coeff = a * (n - 2) + b * self.trace_phi
        self.ricci_phi_coeff = a * (self.trace_phi - 1.0) + b * (n - 2)

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


def _prefix(tuples: np.ndarray, k: int) -> np.ndarray:
    """The k-tuples that ``_tuples`` would draw from the seed of ``tuples``.

    NumPy fills a draw in order, so they are the first ``k * trials * n``
    numbers of the larger draw: views, laid out as a fresh draw would be.
    """
    _, trials, n = tuples.shape
    flat = tuples.transpose(1, 0, 2).reshape(-1)
    return flat[:k * trials * n].reshape(trials, k, n).transpose(1, 0, 2)


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


def r_dot_s(model: SpaceFormModel, x: np.ndarray, y: np.ndarray, z: np.ndarray,
            w: np.ndarray, path: str = "closed") -> np.ndarray:
    """Derivation action (R(X,Y).S)(Z,W) = -S(R(X,Y)Z, W) - S(Z, R(X,Y)W)."""
    s = ricci_framesum if path == "framesum" else ricci_closed
    return _derivation(model, s, z, w, curvature(model, x, y, z), curvature(model, x, y, w))


def _derivation(model: SpaceFormModel, s, z: np.ndarray, w: np.ndarray,
                rz: np.ndarray, rw: np.ndarray) -> np.ndarray:
    """(R(X,Y).S)(Z, W) from RZ = R(X,Y)Z and RW = R(X,Y)W, with S = ``s``."""
    return -s(model, rz, w) - s(model, z, rw)


def r_dot_s_closed_form(model: SpaceFormModel, x: np.ndarray, y: np.ndarray,
                        z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The claimed product shape -2 beta g(R(X,Y)W, phi Z) of the derivation action."""
    return _claimed_r_dot_s(model, curvature(model, x, y, w), _phi(model, z))


def _claimed_r_dot_s(model: SpaceFormModel, rw: np.ndarray, pz: np.ndarray) -> np.ndarray:
    """-2 beta g(RW, phi Z) from RW = R(X,Y)W and phi Z."""
    return -2.0 * model.ricci_phi_coeff * _inner(model, rw, pz)


class CurvatureProgram(NamedTuple):
    """The worst residual of every curvature-suite probe over one draw."""

    identities: dict[str, float]  # hard checks: Ricci agreement, Bianchi, symmetries
    ricci_phi: dict[str, dict[str, float]]  # path (framesum, closed) -> phi-identities
    commutation: dict[str, float]
    rs_corollary: float
    rs_phi_propositions: dict[str, float]
    rs_closed_form_gap: float
    non_semi_symmetry_probe: float


def curvature_program(model: SpaceFormModel, trials: int = 100,
                      seed: int = 0) -> CurvatureProgram:
    """Every probe of the curvature suite over ``trials`` tuples drawn from ``seed``.

    The probes on pairs and on triples read prefixes of the one 4-tuple
    draw (see :func:`_prefix`).  Each group of probes runs in its own
    function, so its arrays are released before the next group starts.
    """
    quads = _tuples(model, trials, seed, 4)
    agreement, ricci_phi = _pair_probes(model, *_prefix(quads, 2))
    bianchi, antisymmetry = _triple_probes(model, *_prefix(quads, 3))
    pair_symmetry, commutation, corollary, rs_props, gap, probe = _quad_probes(model, *quads)
    return CurvatureProgram(
        identities={"ricci_framesum_vs_closed": agreement, "bianchi": bianchi,
                    "pair_symmetry": pair_symmetry, "antisymmetry": antisymmetry},
        ricci_phi=ricci_phi,
        commutation=commutation,
        rs_corollary=corollary,
        rs_phi_propositions=rs_props,
        rs_closed_form_gap=gap,
        non_semi_symmetry_probe=probe,
    )


def _pair_probes(model: SpaceFormModel, x: np.ndarray, y: np.ndarray):
    """Framesum vs closed Ricci, and the four phi-identities of S on both paths."""
    px, py = _phi(model, x), _phi(model, y)
    ppx, ppy = _phi(model, px), _phi(model, py)
    ricci_phi, s_pair = {}, {}
    for path, s in (("framesum", ricci_framesum), ("closed", ricci_closed)):
        s_xy, s_pxy = s(model, x, y), s(model, px, y)
        ricci_phi[path] = {
            "phi_sq_left": _worst(s(model, ppx, y) - s_pxy - s_xy),
            "phi_sq_right": _worst(s(model, x, ppy) - s(model, x, py) - s_xy),
            "phi_both": _worst(s(model, px, py) - s_pxy - s_xy),
            "phi_swap": _worst(s_pxy - s(model, py, x)),
        }
        s_pair[path] = s_xy
    return _worst(s_pair["framesum"] - s_pair["closed"]), ricci_phi


def _triple_probes(model: SpaceFormModel, x: np.ndarray, y: np.ndarray, z: np.ndarray):
    """First Bianchi identity and antisymmetry R(X,Y)Z = -R(Y,X)Z."""
    rz = curvature(model, x, y, z)
    bianchi = _worst(rz + curvature(model, y, z, x) + curvature(model, z, x, y))
    return bianchi, _worst(rz + curvature(model, y, x, z))


def _quad_probes(model: SpaceFormModel, x: np.ndarray, y: np.ndarray, z: np.ndarray,
                 w: np.ndarray):
    """Pair symmetry, the phi-commutation family and the R.S findings.

    ``rs_*`` values are (R(X,Y).S)(Z,W) with the closed-form S, the suffix
    naming the phi images among X, Y, Z, W.  The order keeps at most three
    curvature arrays alive at once.
    """
    px, py, pz, pw = (_phi(model, v) for v in (x, y, z, w))
    rz = curvature(model, x, y, z)
    pair_symmetry = _worst(_inner(model, rz, w) - _inner(model, curvature(model, z, w, x), y))
    rw = curvature(model, x, y, w)
    rs = _derivation(model, ricci_closed, z, w, rz, rw)
    gap = _worst(rs - _claimed_r_dot_s(model, rw, pz))
    rpz = curvature(model, x, y, pz)
    rs_pz = _derivation(model, ricci_closed, pz, w, rpz, rw)
    del rw
    rs_pz_pw = _derivation(model, ricci_closed, pz, pw, rpz, curvature(model, x, y, pw))
    values = _worst(rs_pz_pw - rs_pz - rs)
    g_rz_pw = _inner(model, rz, pw)
    phi_argument = _worst(rpz - _phi(model, rz))
    form_both_phi = _worst(_inner(model, rpz, pw) - g_rz_pw - _inner(model, rz, w))
    form_swap = _worst(_inner(model, rpz, w) - g_rz_pw)
    del rpz
    r_px = curvature(model, px, y, z)
    first_slots = _worst(r_px - curvature(model, x, py, z))
    r_pxpy = curvature(model, px, py, z)
    both_slots = _worst(r_pxpy - r_px - rz)
    del rz
    rs_pxpy = _derivation(model, ricci_closed, z, w, r_pxpy, curvature(model, px, py, w))
    del r_pxpy
    rw_px = curvature(model, px, y, w)
    arguments = _worst(rs_pxpy - _derivation(model, ricci_closed, z, w, r_px, rw_px) - rs)
    del r_px
    corollary = _worst(_derivation(model, ricci_closed, pz, w, curvature(model, px, y, pz),
                                   rw_px))
    commutation = {"phi_argument": phi_argument, "first_slots": first_slots,
                   "both_slots": both_slots, "form_both_phi": form_both_phi,
                   "form_swap": form_swap}
    rs_props = {"arguments": arguments, "values": values}
    return pair_symmetry, commutation, corollary, rs_props, gap, _worst(rs)


class NablaCertificate(NamedTuple):
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
