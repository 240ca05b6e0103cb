"""Test helpers: the batched geometry pass at one point and on the jet route, the frames'
distance from orthonormal, a mean over repeated rows, sample specs and floats at the float
range's edges, the extrinsic residuals point by point, seeded random golden structures,
planes with a known class and lambda and their reparametrizations, float reference space-form models with the
reference ``curvature``, the sampled curvature program, the curvature certificate in QuadRat
arithmetic and the report's JSON by ``json.dumps``."""

import json
import math
import re
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from goldenslant import spaceform
from goldenslant.config import SampleSpec
from goldenslant.errors import DimensionMismatch
from goldenslant.expr import Expr
from goldenslant.extrinsic import _apply, _phi_hessian_split
from goldenslant.quadrat import ONE_MINUS_PSI, PSI, SQRT5, QuadRat, from_integers
from goldenslant.structures import Metric, diagonal_golden, golden_from_product
from goldenslant.submanifold import ImmersionSpec, InducedOperators, point_geometry


def at_point(imm, point, structure=None, metric=None):
    """:func:`~goldenslant.submanifold.point_geometry` of ``imm`` at the one ``point``
    (metric: the structure's unless given); its arrays keep a point axis of length 1."""
    return point_geometry(imm, structure.metric if metric is None else metric, structure,
                          [point])


def orthonormality_gap(onb: np.ndarray) -> np.ndarray:
    """max |onb^T onb - I|, the frames' distance from orthonormal, per point of a stack."""
    return np.abs(onb.mT @ onb - np.eye(onb.shape[-1])).max(axis=(-2, -1))


def frame_operators(blocks: np.ndarray, m: int) -> InducedOperators:
    """The float route's record of the operators ``blocks`` (one matrix or a stack), given
    in orthonormal frames with m tangent axes: there Gt = I and M = C."""
    return InducedOperators(blocks, blocks, blocks @ blocks, np.eye(m))


def jet_route(imm, metric, structure, points=None):
    """``point_geometry`` of ``imm`` on the jet route, which evaluates every sample point
    (or ``points``), also of an affine immersion: a copy whose components claim no affine form."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Expr, "affine_exact", lambda self: None)
        copy = ImmersionSpec(imm.params, imm.components, imm.sample_spec)
        return point_geometry(copy, metric, structure, points)


def repeated_mean(row, count: int) -> float:
    """The mean of ``count`` rows equal to ``row``, stored as one C-ordered array as a pass
    that evaluated each row would hold them."""
    return float(np.mean(np.tile(row, (count, 1))))


EDGES = (0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1e-300, 1e154, -1e154, 1e300, 8.9e307, -8.9e307,
         1e308, -1e308, 1.7e308, -1.7e308)
edge_floats = st.sampled_from(EDGES) | st.floats(-1e308, 1e308, allow_nan=False)


def sample_specs(m: int):
    """Sample specs in ``m`` parameters: grid ends and extra coordinates from ``edge_floats``,
    1 to 3 values per axis and up to 2 extra points."""
    axis = st.tuples(edge_floats, edge_floats, st.integers(1, 3))
    extra = st.lists(st.tuples(*[edge_floats] * m), max_size=2).map(tuple)
    return st.builds(SampleSpec, st.tuples(*[axis] * m), extra)


# -- the extrinsic residuals point by point: the reference of the one worst-value pass ------


def _relative(geom, *residuals):
    """Per point, for each residual, the max of |``residual[..., i, j, :]``| / max|W D2x_ij|
    over (i, j), by ``geom.hessian_scale``."""
    scale = geom.hessian_scale[..., None]
    return tuple(np.abs(residual / scale).max(axis=(-3, -2, -1)) for residual in residuals)


def gauss_split_residuals(geom, phi_split):
    """Per point: tan(phi D2x_ij) - P tan(D2x_ij) - t h_ij and
    nor(phi D2x_ij) - Q tan(D2x_ij) - s h_ij, from ``phi_split`` = ``_phi_hessian_split``."""
    ops = geom.ops
    tan, nor = phi_split
    return _relative(geom, tan - _apply(ops.p, geom.tangential) - _apply(ops.t, geom.h),
                     nor - _apply(ops.q, geom.tangential) - _apply(ops.s, geom.h))


def invariant_residuals(geom, phi_split):
    """Per point: tan(phi D2x_ij) - P tan(D2x_ij) and h(X, PY) - s h(X, Y)."""
    ops = geom.ops
    tan, _ = phi_split
    # The raw tangents are E = T C, so P reads C^-1 P C in the raw basis.
    c = geom.frame.tangent_coords(geom.frame.raw_tangents)
    h_py = np.einsum("...kj,...ikc->...ijc", np.linalg.solve(c, ops.p @ c), geom.h)
    return _relative(geom, tan - _apply(ops.p, geom.tangential), h_py - _apply(ops.s, geom.h))


def shape_vanishing_probe(geom):
    """Per point: max |g(h(X_i, X_j), phi e_b)|, with ``Q e_b`` the normal part of phi e_b."""
    return _relative(geom, geom.h @ geom.ops.q[:, None])[0]


def extrinsic_per_point(geom, kind: str) -> dict:
    """Every residual that ``extrinsic_residuals`` reports on invariance ``kind``, one value per
    point."""
    phi_split = _phi_hessian_split(geom)
    out = dict(zip(("gauss_tangential", "gauss_normal"), gauss_split_residuals(geom, phi_split)))
    out["h_symmetry"] = _relative(geom, geom.h - geom.h.transpose(0, 2, 1, 3))[0]
    if kind == "invariant":
        out["invariant_parallel"], out["invariant_weingarten"] = invariant_residuals(geom,
                                                                                     phi_split)
    elif kind == "anti_invariant":
        out["shape_operator_max"] = shape_vanishing_probe(geom)
    return out


def random_golden(n: int, p: int, seed: int):
    """Float golden structure on Euclidean R^n with a ``p``-dimensional psi-eigenspace.

    A signature matrix diag(+1 x p, -1 x (n-p)) is conjugated by a product
    of seeded Householder reflectors, which keeps ``F**2 = I`` and the
    Euclidean compatibility exact up to rounding.  Deterministic per
    ``(n, p, seed)``.
    """
    rng = np.random.default_rng(seed)
    q = np.eye(n)
    for _ in range(max(n - 1, 1)):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        q = q - 2.0 * np.outer(v, v @ q)
    f = q @ np.diag([1.0] * p + [-1.0] * (n - p)) @ q.T
    f = (f + f.T) / 2.0
    return golden_from_product(f, Metric(np.eye(n)))


# -- planes whose class and lambda are known before the run ---------------------------------

# Ratios b/a of a direction a e_i + b e_j, with e_i in the psi- and e_j in the
# (1 - psi)-eigenspace of a pattern phi: 0 is invariant (lambda = 1), psi anti-invariant
# (lambda = 0), psi - 1 (mu = 1) and 2 + sqrt5 (mu = -1/2) share lambda = 1/2, and psi - 2
# is paper_example_3's (lambda = 16/21).  Every other pair of lambdas differs by 0.035 or more.
PLANE_RATIOS = (QuadRat(0), PSI, PSI - 1, 2 + SQRT5, QuadRat(1), QuadRat(2), PSI - 2,
                QuadRat(Fraction(1, 2)), QuadRat(3), SQRT5)
_PLANE_SCALES = (QuadRat(1), QuadRat(2), QuadRat(Fraction(1, 3)), PSI, SQRT5 - 1)


class KnownPlane(NamedTuple):
    config: dict  # a config with the structure, identities, extrinsic and slant suites
    classification: str
    lam: QuadRat | None  # the exact lambda when the plane is slant


def plane_lambda(ratio: QuadRat) -> QuadRat:
    """cos^2 theta = mu^2 / (mu + 1) of a direction a e_i + b e_j with ``b/a = ratio``: it is
    a unit P-eigenvector times |X|, with ``mu = (psi + (1 - psi) r) / (1 + r)``, r = b^2/a^2,
    and |phi v|^2 = g(phi^2 v, v) = mu + 1 on a unit P-eigenvector v."""
    r = ratio * ratio
    mu = (PSI + (1 - PSI) * r) / (1 + r)
    return mu * mu / (mu + 1)


@st.composite
def known_planes(draw, ratio: QuadRat | None = None) -> KnownPlane:
    """An affine plane of R^n (n <= 8) under the identity metric and a pattern phi, spanned
    by m <= 3 directions ``a e_i + b e_j`` on distinct coordinates, with signed scales a, b/a
    from :data:`PLANE_RATIOS`, its coordinates permuted.  The directions are g-orthogonal
    P-eigenvectors, so the plane is slant exactly when every :func:`plane_lambda` agrees:
    invariant at lambda 1, anti-invariant at 0, else proper slant; non_slant otherwise.
    Given ``ratio``, every direction has it."""
    m = draw(st.integers(1, 3))
    ratios = [ratio] * m if ratio is not None else draw(st.one_of(
        st.sampled_from(PLANE_RATIOS).map(lambda ratio: [ratio] * m),
        st.lists(st.sampled_from((PSI - 1, 2 + SQRT5)), min_size=m, max_size=m),
        st.lists(st.sampled_from(PLANE_RATIOS), min_size=m, max_size=m)))
    normals = sum(1 for ratio in ratios if ratio)
    p = draw(st.integers(m, 8 - normals))  # coordinates in the psi-eigenspace
    n = draw(st.integers(max(p + normals, m + 1), 8))
    axes = draw(st.permutations(range(n)))  # the first p in the psi-eigenspace
    pattern = ["psi" if axes.index(axis) < p else "one_minus_psi" for axis in range(n)]
    components, free = ["0"] * n, iter(axes[p:])
    for k, ratio in enumerate(ratios):
        a = draw(st.sampled_from(_PLANE_SCALES)) * draw(st.sampled_from((1, -1)))
        components[axes[k]] = f"({a})*u{k + 1}"
        if ratio:
            components[next(free)] = f"({a * ratio * draw(st.sampled_from((1, -1)))})*u{k + 1}"
    lams = {plane_lambda(ratio) for ratio in ratios}
    lam = lams.pop() if len(lams) == 1 else None
    classification = ("non_slant" if lam is None else "invariant" if lam == 1
                      else "anti_invariant" if not lam else "proper_slant")
    config = {"ambient": {"dim": n, "phi": {"pattern": pattern}},
              "immersion": {"params": [f"u{k + 1}" for k in range(m)], "components": components,
                            "samples": {"grid": [[-1, 1, 2]] * m}},
              "suites": ["structure", "identities", "extrinsic", "slant"]}
    return KnownPlane(config, classification, lam)


def reparametrized(plane: KnownPlane, scales=None, shifts=None) -> KnownPlane:
    """``plane`` with each parameter u_k replaced by ``u_k + u_k^3``, the same plane with
    h = 0 but nonzero Hessians; or, given ``scales`` and ``shifts``, by ``s_k u_k + b_k``, an
    affine one whose grid is mapped so that it samples the same points of the plane."""
    immersion = plane.config["immersion"]
    params, grid = immersion["params"], immersion["samples"]["grid"]
    if scales is None:
        new = {u: f"({u}+{u}^3)" for u in params}
    else:
        new = {u: f"({s}*{u}+{b})" for u, s, b in zip(params, scales, shifts)}
        grid = [[(lo - b) / s, (hi - b) / s, count]
                for (lo, hi, count), s, b in zip(grid, scales, shifts)]
    components = [re.sub(r"u\d", lambda match: new[match[0]], text)
                  for text in immersion["components"]]
    samples = {**immersion["samples"], "grid": grid}
    config = {**plane.config, "immersion": {**immersion, "components": components,
                                            "samples": samples}}
    return plane._replace(config=config)


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """g(U, V), the dot product along the last axis, over the leading axes."""
    return np.einsum("...i,...i->...", u, v)


def curvature(phi: np.ndarray, a: float, b: float, x: np.ndarray, y: np.ndarray,
              z: np.ndarray) -> np.ndarray:
    """R(X, Y)Z with coefficients A = ``a`` and B = ``b`` in ``y = W x``, where phi is the
    symmetric ``phi_hat``, broadcast over leading trial axes: the reference that the
    certificate and the oracle's bound are tested against."""
    n = len(phi)
    for v in (x, y, z):
        if np.shape(v)[-1:] != (n,):
            raise DimensionMismatch(f"expected vectors of length {n}")
    px, py = x @ phi.T, y @ phi.T
    gyz, gxz, gpyz, gpxz = _dot(y, z), _dot(x, z), _dot(py, z), _dot(px, z)
    return ((a * gyz + b * gpyz)[..., None] * x - (a * gxz + b * gpxz)[..., None] * y
            + (a * gpyz + b * gyz)[..., None] * px - (a * gpxz + b * gxz)[..., None] * py)


class ReferenceModel(NamedTuple):
    """A space-form model in floats, by the README formulas: the sampled program's input.

    ``phi`` is the structure's ``phi_hat``, p the number of its eigenvalues above
    1/2 and ``trace_phi`` its trace; A, B and the Ricci coefficients alpha, beta are
    float evaluations of their closed forms.
    """

    n: int
    p: int
    c_p: float
    c_q: float
    phi: np.ndarray
    trace_phi: float
    coeff_a: float
    coeff_b: float
    ricci_g_coeff: float
    ricci_phi_coeff: float

    def curvature(self, x, y, z) -> np.ndarray:
        """R(X, Y)Z by :func:`curvature` with this model's A and B."""
        return curvature(self.phi, self.coeff_a, self.coeff_b, x, y, z)


def reference_model(structure, c_p: float, c_q: float) -> ReferenceModel:
    phi = structure.phi_hat
    n, trace, psi = len(phi), float(np.trace(phi)), float(PSI)
    c_p, c_q = float(c_p), float(c_q)
    a = -((1.0 - psi) * c_p - psi * c_q) / (2.0 * math.sqrt(5.0))
    b = -((1.0 - psi) * c_p + psi * c_q) / 4.0
    return ReferenceModel(n, int(np.count_nonzero(np.linalg.eigvalsh(phi) > 0.5)), c_p, c_q,
                          phi, trace, a, b, a * (n - 2) + b * trace, a * (trace - 1) + b * (n - 2))


def diagonal_model(n: int, p: int, c_p: float, c_q: float) -> ReferenceModel:
    """Reference model on Euclidean R^n over the exact diagonal structure with psi on the
    first ``p`` axes and 1 - psi on the rest."""
    return reference_model(diagonal_golden(["psi"] * p + ["one_minus_psi"] * (n - p)), c_p, c_q)


# -- the sampled curvature program: the reference the exact certificate replaced ----------
#
# Every tensor function takes vectors in the metric's Euclidean model y = W x, with leading
# trial axes, shape (..., n).  ``curvature_program`` runs every probe over one seeded draw of
# 4 * trials * n normals; a probe on k-tuples reads the first k * trials * n of them, which
# are exactly the numbers a fresh (trials, k, n) draw from the same seed would give.
# ``probe_program`` runs the same probes on given tuples, such as basis tuples.


def _phi(model: ReferenceModel, v: np.ndarray) -> np.ndarray:
    """phi V for every vector along the last axis of ``v``."""
    return v @ model.phi.T


def _amax(a) -> float:
    """max |entry| (NaN if any entry is)."""
    return np.abs(a).max().item()


def tuples(model: ReferenceModel, trials: int, seed: int, k: int) -> np.ndarray:
    """``trials`` seeded random k-tuples, as k arrays of shape (trials, n).

    One bulk (trials, k, n) draw yields the same numbers as ``trials``
    sequential (k, n) draws from a generator seeded with ``seed``.
    """
    draw = np.random.default_rng(seed).standard_normal((trials, k, model.n))
    return draw.transpose(1, 0, 2)


def prefix(quads: np.ndarray, k: int) -> np.ndarray:
    """The k-tuples that ``tuples`` would draw from the seed of ``quads``: views of the
    first ``k * trials * n`` numbers of the larger draw, laid out as a fresh draw would be."""
    _, trials, n = quads.shape
    flat = quads.transpose(1, 0, 2).reshape(-1)
    return flat[:k * trials * n].reshape(trials, k, n).transpose(1, 0, 2)


def ricci_framesum(model: ReferenceModel, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """S(Y, Z) as the contraction sum_i g(R(e_i, Y)Z, e_i) over the standard basis e_i of y.

    There g(e_i, V) is the component V_i and g(phi e_i, Z) is (phi Z)_i, as phi is
    symmetric, so the n terms are componentwise products of Y, phi Y, Z and phi Z.
    """
    a, b = model.coeff_a, model.coeff_b
    py, pz = _phi(model, y), _phi(model, z)
    gyz, gpyz = _dot(y, z), _dot(py, z)
    return ((a * gyz + b * gpyz) * model.n + (a * gpyz + b * gyz) * model.trace_phi
            - ((a * z + b * pz) * y).sum(axis=-1)
            - ((a * pz + b * z) * py).sum(axis=-1))


def ricci_closed(model: ReferenceModel, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """S(Y, Z) in closed form from the two constant coefficients."""
    return model.ricci_g_coeff * _dot(y, z) + model.ricci_phi_coeff * _dot(_phi(model, y), z)


def _derivation(model, s, z, w, rz, rw):
    """(R(X,Y).S)(Z, W) from RZ = R(X,Y)Z and RW = R(X,Y)W, with S = ``s``."""
    return -s(model, rz, w) - s(model, z, rw)


def r_dot_s(model: ReferenceModel, x, y, z, w, path: str = "closed") -> np.ndarray:
    """Derivation action (R(X,Y).S)(Z,W) = -S(R(X,Y)Z, W) - S(Z, R(X,Y)W)."""
    s = ricci_framesum if path == "framesum" else ricci_closed
    return _derivation(model, s, z, w, model.curvature(x, y, z), model.curvature(x, y, w))


def _claimed_r_dot_s(model, rw, pz):
    """-2 beta g(RW, phi Z) from RW = R(X,Y)W and phi Z."""
    return -2.0 * model.ricci_phi_coeff * _dot(rw, pz)


def r_dot_s_closed_form(model: ReferenceModel, x, y, z, w) -> np.ndarray:
    """The claimed product shape -2 beta g(R(X,Y)W, phi Z) of the derivation action."""
    return _claimed_r_dot_s(model, model.curvature(x, y, w), _phi(model, z))


class CurvatureProgram(NamedTuple):
    """The worst residual of every curvature-suite probe over the tuples."""

    identities: dict
    ricci_phi: dict
    commutation: dict
    rs_corollary: float
    rs_phi_propositions: dict
    rs_closed_form_gap: float
    non_semi_symmetry_probe: float


def curvature_program(model: ReferenceModel, trials: int = 100, seed: int = 0):
    """Every probe over ``trials`` tuples drawn from ``seed``; pairs and triples are
    prefixes of the one 4-tuple draw."""
    quads = tuples(model, trials, seed, 4)
    return probe_program(model, prefix(quads, 2), prefix(quads, 3), quads)


def probe_program(model: ReferenceModel, pairs, triples, quads) -> CurvatureProgram:
    """Every probe on the given (X, Y) pairs, (X, Y, Z) triples and (X, Y, Z, W) 4-tuples."""
    agreement, ricci_phi = _pair_probes(model, *pairs)
    bianchi, antisymmetry = _triple_probes(model, *triples)
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


def _pair_probes(model, x, y):
    """Framesum vs closed Ricci, and the four phi-identities of S on both paths."""
    px, py = _phi(model, x), _phi(model, y)
    ppx, ppy = _phi(model, px), _phi(model, py)
    ricci_phi, s_pair = {}, {}
    for path, s in (("framesum", ricci_framesum), ("closed", ricci_closed)):
        s_xy, s_pxy = s(model, x, y), s(model, px, y)
        ricci_phi[path] = {
            "phi_sq_left": _amax(s(model, ppx, y) - s_pxy - s_xy),
            "phi_sq_right": _amax(s(model, x, ppy) - s(model, x, py) - s_xy),
            "phi_both": _amax(s(model, px, py) - s_pxy - s_xy),
            "phi_swap": _amax(s_pxy - s(model, py, x)),
        }
        s_pair[path] = s_xy
    return _amax(s_pair["framesum"] - s_pair["closed"]), ricci_phi


def _triple_probes(model, x, y, z):
    """First Bianchi identity and antisymmetry R(X,Y)Z = -R(Y,X)Z."""
    rz = model.curvature(x, y, z)
    bianchi = _amax(rz + model.curvature(y, z, x) + model.curvature(z, x, y))
    return bianchi, _amax(rz + model.curvature(y, x, z))


def _quad_probes(model, x, y, z, w):
    """Pair symmetry, the phi-commutation family and the R.S findings (closed-form S)."""
    px, py, pz, pw = (_phi(model, v) for v in (x, y, z, w))
    rz = model.curvature(x, y, z)
    pair_symmetry = _amax(_dot(rz, w) - _dot(model.curvature(z, w, x), y))
    rw = model.curvature(x, y, w)
    rs = _derivation(model, ricci_closed, z, w, rz, rw)
    gap = _amax(rs - _claimed_r_dot_s(model, rw, pz))
    rpz = model.curvature(x, y, pz)
    rs_pz = _derivation(model, ricci_closed, pz, w, rpz, rw)
    rs_pz_pw = _derivation(model, ricci_closed, pz, pw, rpz, model.curvature(x, y, pw))
    values = _amax(rs_pz_pw - rs_pz - rs)
    g_rz_pw = _dot(rz, pw)
    phi_argument = _amax(rpz - _phi(model, rz))
    form_both_phi = _amax(_dot(rpz, pw) - g_rz_pw - _dot(rz, w))
    form_swap = _amax(_dot(rpz, w) - g_rz_pw)
    r_px = model.curvature(px, y, z)
    first_slots = _amax(r_px - model.curvature(x, py, z))
    r_pxpy = model.curvature(px, py, z)
    both_slots = _amax(r_pxpy - r_px - rz)
    rs_pxpy = _derivation(model, ricci_closed, z, w, r_pxpy, model.curvature(px, py, w))
    rw_px = model.curvature(px, y, w)
    rs_px = _derivation(model, ricci_closed, z, w, r_px, rw_px)
    arguments = _amax(rs_pxpy - rs_px - rs)
    corollary = _amax(_derivation(model, ricci_closed, pz, w, model.curvature(px, y, pz),
                                  rw_px))
    commutation = {"phi_argument": phi_argument, "first_slots": first_slots,
                   "both_slots": both_slots, "form_both_phi": form_both_phi,
                   "form_swap": form_swap}
    rs_props = {"arguments": arguments, "values": values}
    return pair_symmetry, commutation, corollary, rs_props, gap, _amax(rs)


# -- the certificate in QuadRat arithmetic: the reference of the integer engine -----------

# A = -((1-psi) c_p - psi c_q) / (2 sqrt5) and B = -((1-psi) c_p + psi c_q) / 4, by c_p, c_q
_A = (-ONE_MINUS_PSI / (SQRT5 * 2), PSI / (SQRT5 * 2))
_B = (-ONE_MINUS_PSI / 4, -PSI / 4)
# kappa_ij = A (1 + phi_i phi_j) + B (phi_i + phi_j) for the eigenvalue pairs pp, pq, qq
_KAPPA = [(1 + x * y, x + y) for x, y in ((PSI, PSI), (PSI, ONE_MINUS_PSI),
                                          (ONE_MINUS_PSI, ONE_MINUS_PSI))]


def reference_worst(check: str, atoms: list[QuadRat], p: int, q: int) -> QuadRat:
    """max |sum_m (a_m + b_m psi) atom_m| over the rows of ``spaceform._ROWS[check]`` that p
    psi- and q (1 - psi)-eigenvectors realize, term by term in QuadRat."""
    values = set()
    for row, uses in spaceform._ROWS[check].items():
        if any(used_p <= p and used_q <= q for used_p, used_q in uses):
            terms = [from_integers(2 * a + b, b, 2) * atom
                     for atom, a, b in zip(atoms, row[::2], row[1::2]) if a or b]
            values.add(abs(sum(terms[1:], terms[0])))
    return max(values, default=QuadRat(0))


def reference_certificate(n: int, p: int, c_p: float, c_q: float):
    """:func:`goldenslant.spaceform.curvature_certificate` from QuadRat operations on the
    closed forms of A, B, kappa, alpha, beta and the frame sums."""
    cp, cq = Fraction(c_p), Fraction(c_q)
    a = _A[0] * cp + _A[1] * cq
    b = _B[0] * cp + _B[1] * cq
    kappa = [a * a_factor + b * b_factor for a_factor, b_factor in _KAPPA]
    counts = (p, n - p)
    trace = PSI * p + ONE_MINUS_PSI * (n - p)
    alpha, beta = a * (n - 2) + b * trace, a * (trace - 1) + b * (n - 2)
    framesum = [kappa[la] * (counts[0] - (la == 0)) + kappa[la + 1] * (counts[1] - (la == 1))
                for la in (0, 1)]
    closed = [alpha + beta * PSI, alpha + beta * ONE_MINUS_PSI]
    rs_atoms = [k * s for k in kappa for s in (*closed, beta)]

    def worst(check, atoms):
        return reference_worst(check, atoms, p, n - p)

    commutator = worst("phi_argument", kappa)
    return spaceform.CurvatureCertificate(
        coefficients={"coeff_a": a, "coeff_b": b,
                      "ricci_g_coeff": alpha, "ricci_phi_coeff": beta},
        kappa=dict(zip(("pp", "pq", "qq"), kappa)),
        identities={"ricci_framesum_vs_closed": worst("ricci_framesum_vs_closed",
                                                      framesum + closed),
                    **{check: worst(check, kappa)
                       for check in ("bianchi", "pair_symmetry", "antisymmetry")}},
        ricci_phi={path: {check: worst(check, s)
                          for check in ("phi_sq_left", "phi_sq_right", "phi_both", "phi_swap")}
                   for path, s in (("framesum", framesum), ("closed", closed))},
        commutation={"phi_argument": commutator,
                     **{check: worst(check, kappa)
                        for check in ("first_slots", "both_slots", "form_both_phi")},
                     "form_swap": commutator},
        rs_corollary=worst("rs_corollary", rs_atoms),
        rs_phi_propositions={check: worst(check, rs_atoms) for check in ("arguments", "values")},
        rs_closed_form_gap=worst("rs_closed_form_gap", rs_atoms),
        non_semi_symmetry_probe=worst("non_semi_symmetry_probe", rs_atoms),
    )


# -- the report's JSON: the conversion the one-pass writer replaced ------------------------

# Strict JSON has no NaN or Infinity, so non-finite floats become these strings.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def jsonable(value):
    """``value`` as plain JSON data: numpy values by ``.item()``/``.tolist()``, QuadRat by
    str and non-finite floats by their strict-JSON strings."""
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if type(value) in (list, tuple):  # not a NamedTuple record
        return [jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, QuadRat):
        return str(value)
    if isinstance(value, float) and not math.isfinite(value):
        return _NON_FINITE[repr(value)]
    return value


def reference_render(report) -> str:
    """The report text as ``json.dumps`` writes it from :func:`jsonable`."""
    return json.dumps(jsonable(report), sort_keys=True, indent=2, allow_nan=False) + "\n"
