"""The batched point pass against a plain per-point numpy reference.

The reference below takes hand-derived Jacobians and Hessians, builds
g-orthonormal frames by Gram-Schmidt (tangent) and by orthonormalising the
null space of ``J^T G`` (normal), and splits the Hessians point by point.
Normal frames of the two routes may differ by a rotation, so the
comparisons use frame-invariant quantities: ``P`` in the Gram-Schmidt
tangent frame, ``Q^T Q``, ``h`` mapped back to ambient vectors through the
normal frame, the tangential part of the Hessians (from the textbook
Christoffel symbols), the slant angles and the frame Gram residual.
"""

import math

import numpy as np
import pytest

import goldenslant.exactlin as xl
from goldenslant.config import Tolerances
from goldenslant.extrinsic import _phi_hessian_split, extrinsic_residuals
from goldenslant.slant import (
    _angles,
    _characterization,
    _corollary,
    _cos2_forms,
    _lemma_residuals,
    classify_geometry,
)
from goldenslant.structures import (
    GoldenStructure,
    Metric,
    _spectral,
    diagonal_golden,
    golden_from_product,
)
from goldenslant.submanifold import (
    ImmersionSpec,
    SampleSpec,
    frame_at,
    induced_operators,
    point_geometry,
    structural_identity_residuals,
)
from support import (at_point, frame_operators, gauss_split_residuals, orthonormality_gap,
                     random_golden)

TOL = 1e-12

CURVED = ImmersionSpec.from_strings(["u", "v"], ["u*cos(v)", "u*sin(v)", "v", "u^2/3"])
CURVED_STRUCT = diagonal_golden(["psi", "one_minus_psi", "psi", "one_minus_psi"]).to_float()


def _curved_derivatives(u, v):
    jac = np.array([[math.cos(v), -u * math.sin(v)], [math.sin(v), u * math.cos(v)],
                    [0.0, 1.0], [2.0 * u / 3.0, 0.0]])
    hess = np.zeros((4, 2, 2))
    hess[0] = [[0.0, -math.sin(v)], [-math.sin(v), -u * math.cos(v)]]
    hess[1] = [[0.0, math.cos(v)], [math.cos(v), -u * math.sin(v)]]
    hess[3] = [[2.0 / 3.0, 0.0], [0.0, 0.0]]
    return jac, hess


SURFACE5 = ImmersionSpec.from_strings(["u", "v"], ["u", "v", "u*v", "u^2-v", "sin(u)+cos(v)"])


def _surface5_derivatives(u, v):
    jac = np.array([[1.0, 0.0], [0.0, 1.0], [v, u], [2.0 * u, -1.0],
                    [math.cos(u), -math.sin(v)]])
    hess = np.zeros((5, 2, 2))
    hess[2] = [[0.0, 1.0], [1.0, 0.0]]
    hess[3] = [[2.0, 0.0], [0.0, 0.0]]
    hess[4] = [[-math.sin(u), 0.0], [0.0, -math.cos(v)]]
    return jac, hess


def _skewed_structure(n: int, p: int, seed: int, cond: float | None = None) -> GoldenStructure:
    """phi = A^-1 phi0 A is golden and self-adjoint for the metric G = A^T A.

    Given ``cond``, A has singular values spread geometrically from 1 to sqrt(cond) between
    random rotations, so that cond(G) = ``cond``.
    """
    phi0 = random_golden(n, p, seed).phi_float
    rng = np.random.default_rng(seed)
    if cond is None:
        a = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    else:
        u, v = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
        a = u @ np.diag(np.geomspace(1.0, math.sqrt(cond), n)) @ v.T
    g = a.T @ a
    return GoldenStructure(np.linalg.solve(a, phi0 @ a), Metric((g + g.T) / 2.0))


def _gram_schmidt(columns, g):
    out = []
    for col in columns.T:
        w = col.astype(float).copy()
        for _ in range(2):
            for b in out:
                w -= (b @ g @ w) * b
        out.append(w / math.sqrt(w @ g @ w))
    return np.column_stack(out)


def _reference(jac, hess, g, phi):
    """Per-point frames, operators and Hessian split in plain numpy."""
    n, m = jac.shape
    tangent = _gram_schmidt(jac, g)
    null = np.linalg.svd(jac.T @ g)[2][m:].T  # Euclidean basis of ker(J^T G)
    normal = _gram_schmidt(null, g)
    gram = jac.T @ g @ jac
    christoffel = np.zeros((m, m, m))
    normal_part = np.zeros((m, m, n))
    for i in range(m):
        for j in range(m):
            christoffel[i, j] = np.linalg.solve(gram, jac.T @ g @ hess[:, i, j])
            normal_part[i, j] = hess[:, i, j] - jac @ christoffel[i, j]
    return {
        "p": tangent.T @ g @ phi @ tangent,
        "q": normal.T @ g @ phi @ tangent,
        # sum_k Gamma_ij^k e_k in the Gram-Schmidt tangent frame
        "tangential": np.einsum("ak,ijk->ija", tangent.T @ g @ jac, christoffel),
        "normal_part": normal_part,
    }


def _angle(p, q, x):
    return math.atan2(np.linalg.norm(q @ x), np.linalg.norm(p @ x))


ILL_CONDITIONED = _skewed_structure(5, 2, seed=5, cond=1e4)


def _cond(structure) -> float:
    return float(np.linalg.cond(structure.metric.matrix))


# The ill-conditioned case's tolerance is TOL scaled by cond(g): its frames, and the
# reference's, are only that accurate.
CASES = [
    pytest.param(CURVED, CURVED_STRUCT, _curved_derivatives, (0.5, 1.5), (-1.0, 1.0), TOL,
                 id="curved_grid"),
    pytest.param(SURFACE5, _skewed_structure(5, 2, seed=3), _surface5_derivatives,
                 (-0.8, 0.8), (-0.8, 0.8), TOL, id="skewed_metric"),
    pytest.param(SURFACE5, ILL_CONDITIONED, _surface5_derivatives, (-0.8, 0.8), (-0.8, 0.8),
                 TOL * _cond(ILL_CONDITIONED), id="ill_conditioned_metric"),
]


def test_ill_conditioned_case_has_cond_near_10_to_the_4():
    assert 0.99e4 <= _cond(ILL_CONDITIONED) <= 1.01e4


@pytest.mark.parametrize("imm,structure,derivatives,u_range,v_range,tol", CASES)
def test_batched_geometry_matches_per_point_reference(imm, structure, derivatives,
                                                      u_range, v_range, tol):
    rng = np.random.default_rng(17)
    points = np.column_stack([rng.uniform(*u_range, 25), rng.uniform(*v_range, 25)])
    geom = point_geometry(imm, structure.metric, structure, points)
    g, phi = structure.metric.matrix, structure.phi_float
    # The pass works in y = W x; W^-1 maps its vectors back to ambient coordinates.
    w_inv = structure.metric.w_inv
    assert np.all(orthonormality_gap(geom.frame.onb) <= tol)
    for i, (u, v) in enumerate(points):
        jac, hess = derivatives(u, v)
        ref = _reference(jac, hess, g, phi)
        assert np.abs(w_inv @ geom.frame.raw_tangents[i] - jac).max() <= tol
        assert np.abs(np.einsum("an,nij->aij", w_inv, geom.hessians[i]) - hess).max() <= tol
        assert np.abs(geom.ops.p[i] - ref["p"]).max() <= tol
        assert np.abs(geom.ops.q[i].T @ geom.ops.q[i] - ref["q"].T @ ref["q"]).max() <= tol
        assert np.abs(geom.tangential[i] - ref["tangential"]).max() <= tol
        normal_part = np.einsum("nc,ijc->ijn", w_inv @ geom.frame.onb[i, :, 2:], geom.h[i])
        assert np.abs(normal_part - ref["normal_part"]).max() <= tol


@pytest.mark.parametrize("imm,structure,derivatives,u_range,v_range",
                         [pytest.param(*case.values[:5], id=case.id) for case in CASES])
def test_batched_frames_equal_per_point_qr(imm, structure, derivatives, u_range, v_range):
    # The pass takes the stacked QR of W J in y = W x, with W^T the Cholesky factor of g.
    # Point by point, the QR of the oracle's Jacobian in the same coordinates gives the
    # same frame, to a few ulps of cond(W) = sqrt(cond(g)).
    rng = np.random.default_rng(29)
    points = np.column_stack([rng.uniform(*u_range, 25), rng.uniform(*v_range, 25)])
    geom = point_geometry(imm, structure.metric, structure, points)
    w = np.linalg.cholesky(structure.metric.matrix).T
    bound = 4 * imm.n * np.finfo(float).eps * math.sqrt(_cond(structure))
    for i, point in enumerate(points):
        q, r = np.linalg.qr(w @ derivatives(*point)[0], mode="complete")
        q[:, :imm.m] *= np.where(np.diag(r) < 0.0, -1.0, 1.0)
        assert np.abs(geom.frame.onb[i] - q).max() <= bound


def _exact_skewed_structure() -> GoldenStructure:
    """An exact golden structure F = S D S^-1 on R^5 with the compatible metric
    g = S^-T B S^-1 (D = diag(+-1), B positive diagonal), far from Euclidean."""
    s = xl.qmatrix([[1, 2, 0, -1, 3], [0, 1, 4, 1, -2], [2, 0, 1, 3, 1], [1, -1, 2, 1, 0],
                    [0, 3, -1, 2, 1]])
    s_inv = xl.solve(s, xl.eye(5))
    f = s @ xl.qmatrix(np.diag([1, -1, 1, -1, -1])) @ s_inv
    g = s_inv.T @ xl.qmatrix(np.diag([1, 2, 3, 1, 2])) @ s_inv
    return golden_from_product(f, Metric(g))


@pytest.mark.parametrize("structure", [ILL_CONDITIONED, _exact_skewed_structure()],
                         ids=["float", "exact"])
def test_point_pass_factors_the_metric_once(monkeypatch, structure):
    # The metric's model is made when the metric (float) or its float view (exact) is,
    # not per pass: the pass makes the stacked QR only, which the rank check reads, and
    # no LAPACK call broadcasts a single matrix against the stack of points.
    calls = []
    for name in ("cholesky", "inv", "solve", "qr", "svd"):
        def recorded(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls.append((_name, tuple(np.ndim(a) for a in args)))
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recorded)
    points = [(0.1, 0.2), (-0.4, 0.7), (0.6, -0.3)]
    point_geometry(SURFACE5, structure.metric, structure, points)
    assert calls == [("qr", (3,))]


@pytest.mark.parametrize("imm,structure,derivatives,u_range,v_range,tol", CASES)
def test_batched_slant_angles_match_per_point_reference(imm, structure, derivatives,
                                                        u_range, v_range, tol):
    rng = np.random.default_rng(23)
    points = np.column_stack([rng.uniform(*u_range, 12), rng.uniform(*v_range, 12)])
    geom = point_geometry(imm, structure.metric, structure, points)
    report = classify_geometry(geom)
    angles = []
    for u, v in points:
        jac, hess = derivatives(u, v)
        ref = _reference(jac, hess, structure.metric.matrix, structure.phi_float)
        # The extreme angles over all directions are taken at P's eigenvectors.
        _, vectors = np.linalg.eigh(ref["p"])
        angles.extend(_angle(ref["p"], ref["q"], d) for d in vectors.T)
    assert abs(report["theta"] - float(np.mean(angles))) <= tol
    assert abs(report["angle_spread"] - (max(angles) - min(angles))) <= tol


def test_one_point_geometry_equals_its_batch_entries():
    structure = _skewed_structure(5, 2, seed=3)
    points = [(0.1, 0.2), (-0.4, 0.7), (0.6, -0.3)]
    geom = point_geometry(SURFACE5, structure.metric, structure, points)
    batched = structural_identity_residuals(geom.ops)
    entries = [structural_identity_residuals(geom.ops.at(i)) for i in range(len(points))]
    assert batched == {key: max(entry[key] for entry in entries) for key in batched}
    extrinsic = extrinsic_residuals(geom, Tolerances())[1]
    gauss = gauss_split_residuals(geom, _phi_hessian_split(geom))
    assert extrinsic["gauss_tangential"] == gauss[0].max()
    assert extrinsic["gauss_normal"] == gauss[1].max()
    one_points = []
    for i, point in enumerate(points):
        frame = frame_at(SURFACE5, point, structure.metric)
        ops = induced_operators(frame, structure)
        assert frame.point == point
        assert np.abs(frame.tangent_onb - geom.frame.tangent_onb[i]).max() <= 1e-14
        assert np.abs(ops.s - geom.ops.s[i]).max() <= 1e-14
        for key, value in structural_identity_residuals(ops).items():
            assert abs(value - entries[i][key]) <= 1e-14, key
        one = at_point(SURFACE5, point, structure)
        assert np.abs(one.h[0] - geom.h[i]).max() <= 1e-14
        one_points.append(extrinsic_residuals(one, Tolerances())[1])
        r_tan, r_nor = one_points[-1]["gauss_tangential"], one_points[-1]["gauss_normal"]
        assert (r_tan, r_nor) == pytest.approx((gauss[0][i], gauss[1][i]), abs=1e-14)
    assert extrinsic == pytest.approx(
        {key: max(entry[key] for entry in one_points) for key in extrinsic}, abs=1e-14)


@pytest.mark.parametrize("field", ["tangential", "h"])
def test_gauss_split_sees_a_small_change_at_one_point(field):
    structure = _skewed_structure(5, 2, seed=3)
    points = [(0.1, 0.2), (-0.4, 0.7), (0.6, -0.3)]
    geom = point_geometry(SURFACE5, structure.metric, structure, points)
    phi_split = _phi_hessian_split(geom)
    before = np.maximum(*gauss_split_residuals(geom, phi_split))
    changed = getattr(geom, field).copy()
    changed[1, 0, 1, 0] += 1e-6
    geom = geom._replace(**{field: changed})
    after = np.maximum(*gauss_split_residuals(geom, phi_split))
    residuals = extrinsic_residuals(geom, Tolerances())[1]
    assert max(residuals["gauss_tangential"], residuals["gauss_normal"]) == after.max()
    assert np.all(before <= 1e-12)
    # phi is invertible, so the changed column of [P; Q] or [t; s] is not zero.
    assert after[1] >= 1e-7
    assert after[0] == before[0] and after[2] == before[2]


def _sampled_classification(geom, tol_frame, tol_class=1e-7, directions=20, seed=0):
    """A sampled oracle of the slant rule: each point's m frame axes plus ``directions``
    random unit directions, all drawn from one stream, point by point, with lambda cos^2 of
    their mean angle.  In orthonormal frames every slant identity is the characterization
    P^2 - lambda (P + I) up to sign, the corollary divided by lambda, so the worst identity
    is estimated by the largest |(P^2 - lambda (P + I)) X| over the directions, over lambda
    unless P vanishes.  Returns the sampled spread, that estimate and the verdict."""
    ops, n_points, m = geom.ops, geom.size, geom.ops.m
    drawn = np.random.default_rng(seed).standard_normal((n_points, directions, m))
    drawn /= np.linalg.norm(drawn, axis=-1, keepdims=True)
    axes = np.broadcast_to(np.eye(m), (n_points, m, m))
    x = np.concatenate([axes, drawn], axis=1)
    angles = _angles(ops.p, ops.q, x)
    lam, spread = math.cos(float(np.mean(angles))) ** 2, float(angles.max() - angles.min())
    p = ops.p
    residual = float(np.linalg.norm(x @ (p @ p - lam * (p + np.eye(m))).mT, axis=-1).max())
    invariant = bool(np.all(np.abs(ops.q).max(axis=(-2, -1)) <= tol_class))
    anti = bool(np.all(np.abs(p).max(axis=(-2, -1)) <= tol_class))
    residual = residual if anti else residual / lam
    if residual > tol_frame:
        return spread, residual, "non_slant"
    return spread, residual, ("invariant" if invariant else "anti_invariant" if anti
                              else "proper_slant")


def _eigenbases(structure):
    """g-orthonormal bases of the psi and 1 - psi eigenspaces of phi."""
    g = structure.metric.matrix
    chol = np.linalg.cholesky(g)
    gphi = g @ structure.phi_float  # symmetric: phi is g-self-adjoint
    sym = np.linalg.solve(chol, np.linalg.solve(chol, gphi.T).T)
    mu, y = np.linalg.eigh((sym + sym.T) / 2.0)
    basis = np.linalg.solve(chol.T, y)
    return basis[:, mu > 0.5], basis[:, mu < 0.5]


def _random_scenario(rng, seed):
    """A skewed golden structure and an immersion that is invariant, anti-invariant,
    proper slant, generic affine or curved."""
    n = int(rng.integers(4, 8))
    p = int(rng.integers(2, n - 1))
    structure = _skewed_structure(n, p, seed)
    v, w = _eigenbases(structure)
    kind = ["invariant", "anti_invariant", "slant", "affine", "curved"][seed % 5]
    if kind == "invariant":
        m = int(rng.integers(1, min(p, n - 1) + 1))
        tangents = v[:, :m]
    elif kind in ("anti_invariant", "slant"):
        m = int(rng.integers(1, min(p, n - p) + 1))
        # tan(alpha) = psi makes g(phi X, X) vanish: P = 0.
        alpha = math.atan((1 + math.sqrt(5)) / 2) if kind == "anti_invariant" else rng.uniform(0.1, 1.4)
        tangents = math.cos(alpha) * v[:, :m] + math.sin(alpha) * w[:, :m]
    else:
        m = int(rng.integers(1, n))
        tangents = rng.standard_normal((n, m))
    tangents = tangents @ (np.eye(m) + 0.3 * rng.standard_normal((m, m)))
    params = [f"u{j + 1}" for j in range(m)]
    components = []
    for i, row in enumerate(tangents):
        terms = [f"({c:.17f})*{u}" for c, u in zip(row, params)]
        if kind == "curved":
            terms.append(f"({rng.uniform(-1, 1):.17f})*{params[i % m]}^2")
        components.append("+".join(terms))
    count = 3 if m <= 2 else 2
    imm = ImmersionSpec.from_strings(params, components,
                                     SampleSpec(grid=((-0.7, 0.7, count),) * m))
    return imm, structure


def test_exact_spread_bounds_the_sampled_spread_on_random_scenarios():
    rng = np.random.default_rng(2024)
    tol_frame = 1e-9
    kinds = set()
    for seed in range(60):
        imm, structure = _random_scenario(rng, seed)
        geom = point_geometry(imm, structure.metric, structure)
        report = classify_geometry(geom, tol_frame=tol_frame)
        sampled_spread, residual, sampled_kind = _sampled_classification(geom, tol_frame)
        assert report["angle_spread"] >= sampled_spread - 1e-12, seed
        if not tol_frame / 10 <= residual <= 10 * tol_frame:
            assert report["classification"] == sampled_kind, seed
        kinds.add(report["classification"])
    assert kinds == {"invariant", "anti_invariant", "proper_slant", "non_slant"}


def _unit(rng, shape):
    x = rng.standard_normal(shape)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def test_spectral_residuals_bound_entries_and_forms_on_unit_pairs():
    rng = np.random.default_rng(41)
    structure = _skewed_structure(5, 2, seed=3)
    points = np.column_stack([rng.uniform(-0.8, 0.8, 9), rng.uniform(-0.8, 0.8, 9)])
    geom = point_geometry(SURFACE5, structure.metric, structure, points)
    # Perturbed operators, so that every identity leaves a visible residual.
    blocks = geom.ops.blocks.copy()
    blocks[..., :2] += 1e-3 * rng.standard_normal(blocks[..., :2].shape)  # P and Q
    ops = frame_operators(blocks, 2)
    lam = 0.6
    k = 1.0 - lam
    p, q, eye = ops.p, ops.q, np.eye(2)
    x, y = _unit(rng, (9, 200, 2)), _unit(rng, (9, 200, 2))
    px, py, qx, qy = x @ p.mT, y @ p.mT, x @ q.mT, y @ q.mT

    def dot(a, b):
        return np.einsum("...i,...i->...", a, b)

    identities = structural_identity_residuals(ops)
    at_points = [structural_identity_residuals(ops.at(i)) for i in range(9)]
    per_point = {key: np.array([values[key] for values in at_points]) for key in identities}
    assert all(identities[key] == per_point[key].max() for key in identities)
    # the residuals classify_geometry attaches, at the given lambda
    lemma_p, lemma_q = map(_spectral, _lemma_residuals(ops, *_cos2_forms(ops), lam, k))
    # residual, its matrix, and the form the earlier samples evaluated on (x, y)
    cases = {
        "p_self_adjoint": (per_point["p_self_adjoint"], p.mT - p, dot(px, y) - dot(x, py)),
        "metric_split": (per_point["metric_split"], p.mT @ p + q.mT @ q - eye - p.mT,
                         dot(px, py) + dot(qx, qy) - dot(x, y) - dot(px, y)),
        "characterization": (_spectral(_characterization(p, p @ p, lam)),
                             p @ p - lam * (p + eye),
                             dot(x, px @ p.mT) - lam * (dot(x, x) + dot(x, px))),
        "corollary": (_spectral(_corollary(p, p @ p, lam)), p + eye - p @ p / lam,
                      dot(x, px) + dot(x, x) - dot(x, px @ p.mT) / lam),
        "lemma_p": (lemma_p, p.mT @ p - lam * (eye + p),
                    dot(px, py) - lam * (dot(x, y) + dot(x, py))),
        "lemma_q": (lemma_q, q.mT @ q - k * (eye + p.mT),
                    dot(qx, qy) - k * (dot(x, y) + dot(px, y))),
    }
    for name, (value, matrix, form) in cases.items():
        assert value.shape == (9,), name
        assert np.all(value >= np.abs(matrix).max(axis=(-2, -1)) * (1 - 1e-12)), name
        assert np.all(value >= np.abs(form).max(axis=-1) * (1 - 1e-12)), name
        assert np.all(value <= 2 * np.abs(matrix).max(axis=(-2, -1))), name  # ||M|| <= m max|M_ij|


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spectral_residual_of_a_non_finite_operator_fails(bad):
    structure = _skewed_structure(5, 2, seed=3)
    geom = point_geometry(SURFACE5, structure.metric, structure, [(0.1, 0.2), (0.3, -0.4)])
    blocks = geom.ops.blocks.copy()
    blocks[1, 0, 1] = bad  # an entry of P
    with np.errstate(invalid="ignore"):
        ops = frame_operators(blocks, 2)
        worst = structural_identity_residuals(ops)
        res = [structural_identity_residuals(ops.at(i)) for i in range(2)]
    for key in ("p_self_adjoint", "metric_split"):
        assert res[0][key] <= 1e-12
        assert not res[1][key] <= 1e9, key
        assert not worst[key] <= 1e9, key
