"""The batched point pass against a plain per-point numpy reference.

The reference below takes hand-derived Jacobians and Hessians, builds
g-orthonormal frames by Gram-Schmidt (tangent) and by orthonormalising the
null space of ``J^T G`` (normal), and splits the Hessians point by point.
Normal frames of the two routes may differ by a rotation, so the
comparisons use frame-invariant quantities: ``P`` in the Gram-Schmidt
tangent frame, ``Q^T Q``, ``h`` mapped back to ambient vectors through the
normal frame, the Christoffel coefficients, the slant angles and the
frame Gram residual.
"""

import math

import numpy as np
import pytest

from goldenslant.extrinsic import (
    gauss_split_residual,
    gauss_split_residuals,
    second_fundamental_form,
)
from goldenslant.slant import classify_geometry
from goldenslant.structures import GoldenStructure, Metric, diagonal_golden, random_golden
from goldenslant.submanifold import (
    ImmersionSpec,
    frame_at,
    induced_operators,
    point_geometry,
    structural_identity_residuals,
    trial_draws,
)

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


def _skewed_structure(n: int, p: int, seed: int) -> GoldenStructure:
    """phi = A^-1 phi0 A is golden and self-adjoint for the metric G = A^T A."""
    phi0 = random_golden(n, p, seed).phi_float
    a = np.eye(n) + 0.3 * np.random.default_rng(seed).standard_normal((n, n))
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
        "christoffel": christoffel,
        "normal_part": normal_part,
    }


def _angle(p, q, x):
    return math.atan2(np.linalg.norm(q @ x), np.linalg.norm(p @ x))


CASES = [
    pytest.param(CURVED, CURVED_STRUCT, _curved_derivatives, (0.5, 1.5), (-1.0, 1.0),
                 id="curved_grid"),
    pytest.param(SURFACE5, _skewed_structure(5, 2, seed=3), _surface5_derivatives,
                 (-0.8, 0.8), (-0.8, 0.8), id="skewed_metric"),
]


@pytest.mark.parametrize("imm,structure,derivatives,u_range,v_range", CASES)
def test_batched_geometry_matches_per_point_reference(imm, structure, derivatives,
                                                      u_range, v_range):
    rng = np.random.default_rng(17)
    points = np.column_stack([rng.uniform(*u_range, 25), rng.uniform(*v_range, 25)])
    geom = point_geometry(imm, structure.metric, structure, points)
    g, phi = structure.metric.matrix, structure.phi_float
    assert np.all(geom.frame.gram_residual() <= TOL)
    for i, (u, v) in enumerate(points):
        jac, hess = derivatives(u, v)
        ref = _reference(jac, hess, g, phi)
        assert np.abs(geom.frame.raw_tangents[i] - jac).max() <= TOL
        assert np.abs(geom.hessians[i] - hess).max() <= TOL
        assert np.abs(geom.ops.p[i] - ref["p"]).max() <= TOL
        assert np.abs(geom.ops.q[i].T @ geom.ops.q[i] - ref["q"].T @ ref["q"]).max() <= TOL
        assert np.abs(geom.christoffel[i] - ref["christoffel"]).max() <= TOL
        normal_part = np.einsum("nc,ijc->ijn", geom.frame.normal_onb[i], geom.h[i])
        assert np.abs(normal_part - ref["normal_part"]).max() <= TOL


@pytest.mark.parametrize("imm,structure,derivatives,u_range,v_range", CASES)
def test_batched_slant_angles_match_per_point_reference(imm, structure, derivatives,
                                                        u_range, v_range):
    rng = np.random.default_rng(23)
    points = np.column_stack([rng.uniform(*u_range, 12), rng.uniform(*v_range, 12)])
    geom = point_geometry(imm, structure.metric, structure, points)
    report = classify_geometry(geom, directions=7, seed=5)
    draws = np.random.default_rng(5)  # one stream, drawn point by point
    angles = []
    for u, v in points:
        jac, hess = derivatives(u, v)
        ref = _reference(jac, hess, structure.metric.matrix, structure.phi_float)
        dirs = list(np.eye(2))
        for _ in range(7):
            d = draws.standard_normal(2)
            dirs.append(d / np.linalg.norm(d))
        angles.extend(_angle(ref["p"], ref["q"], d) for d in dirs)
    assert abs(report.theta - float(np.mean(angles))) <= TOL
    assert abs(report.angle_spread - (max(angles) - min(angles))) <= TOL


def test_bulk_direction_draw_equals_sequential_draws():
    bulk = np.random.default_rng(11).standard_normal((6, 20, 3))
    rng = np.random.default_rng(11)
    sequential = np.array([[rng.standard_normal(3) for _ in range(20)] for _ in range(6)])
    assert np.array_equal(bulk, sequential)


def test_stacked_trial_draws_use_one_stream_per_point():
    stacked = trial_draws(40, (5,), (3, 2, 2))
    assert np.array_equal(trial_draws(40, (), (3, 2, 2)), stacked[0])
    for i, draw in enumerate(stacked):
        assert np.array_equal(draw, np.random.default_rng(40 + i).standard_normal((3, 2, 2)))


def test_single_point_views_equal_their_batch_entries():
    structure = _skewed_structure(5, 2, seed=3)
    points = [(0.1, 0.2), (-0.4, 0.7), (0.6, -0.3)]
    geom = point_geometry(SURFACE5, structure.metric, structure, points)
    batched = structural_identity_residuals(geom.ops, geom.frame, structure, seed=9).residuals
    gauss = gauss_split_residuals(geom)
    for i, point in enumerate(points):
        frame = frame_at(SURFACE5, point, structure.metric)
        ops = induced_operators(frame, structure)
        assert frame.point == point
        assert np.abs(frame.tangent_onb - geom.frame.tangent_onb[i]).max() <= 1e-14
        assert np.abs(ops.s - geom.ops.s[i]).max() <= 1e-14
        report = structural_identity_residuals(ops, frame, structure, seed=9 + i)
        for key, value in report.residuals.items():
            assert abs(value - batched[key][i]) <= 1e-14, key
        sff = second_fundamental_form(SURFACE5, point, structure.metric)
        assert np.abs(sff.h - geom.h[i]).max() <= 1e-14
        r_tan, r_nor = gauss_split_residual(SURFACE5, point, structure)
        assert (r_tan, r_nor) == pytest.approx((gauss[0][i], gauss[1][i]), abs=1e-14)

