"""The first-order terms of ``PointGeometry.first_order`` against central differences.

Along u_i the orthonormal frames B = [T | N] move as dB = B Omega_i, and phi's matrix
C = B^T phi B as dC = [C, Omega_i].  Differencing the frames and C of the point pass at
u +- delta e_i gives Omega_i, dP, dQ and the derivative of P^2 - lambda (P + I); taking out
the turn of the frames (the blocks A and D of Omega_i) leaves the terms:
S_i = dP - [P, A] = Q^T H_i + H_i^T Q, its part t H_i = S_i - H_i^T Q,
s H_i - H_i P = dQ - Q A + D Q and
S_i P + P S_i - lambda S_i = d(P^2 - lambda (P + I)) - [P^2 - lambda (P + I), A] at
lambda = tr P^2 / (tr P + m), with H_i = h_i C^-1 the normal-tangent block of Omega_i.
The invariant terms are also the rows their Gauss split and Weingarten formula give.
Random curved immersions under diagonal metrics and permuted pattern structures; affine
ones give exactly 0.
"""

import numpy as np
import pytest

from goldenslant.extrinsic import _phi_hessian_split
from goldenslant.structures import Metric, diagonal_golden
from goldenslant.submanifold import ImmersionSpec, point_geometry

from support import invariant_residuals

DELTA = 1e-5
TOL = 1e-6  # central differences: about delta^2 and eps / delta, relative to the terms


def _scenario(seed: int, curved: bool = True):
    """A random immersion of R^m into R^n, a diagonal metric, a permuted pattern phi and a
    point, all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    m = int(rng.integers(1, min(3, n - 1) + 1))
    params = [f"u{k + 1}" for k in range(m)]
    components = []
    for _ in range(n):
        terms = [f"({c:.6f})*{u}" for c, u in zip(rng.uniform(-1, 1, m), params)]
        if curved:
            u, v = rng.choice(params, 2)
            terms += [f"({rng.uniform(-1, 1):.6f})*{u}*{v}",
                      f"({rng.uniform(-0.5, 0.5):.6f})*{u}^3",
                      f"({rng.uniform(-1, 1):.6f})*sin({v})"]
        components.append("+".join(terms))
    psi = int(rng.integers(1, n))  # both eigenvalues, so that phi is no multiple of I
    pattern = list(rng.permutation(["psi"] * psi + ["one_minus_psi"] * (n - psi)))
    metric = Metric(np.diag(rng.uniform(0.5, 3.0, n)))
    structure = diagonal_golden(pattern, metric).to_float()
    return ImmersionSpec.from_strings(params, components), structure, rng.uniform(-0.5, 0.5, m)


def _differences(seed: int):
    """The point pass at the point and at +- delta along each u_i, its first-order terms
    at the point, and per direction i: Omega_i and the differences of C."""
    imm, structure, point = _scenario(seed)
    m = imm.m
    steps = np.vstack([np.zeros(m), DELTA * np.eye(m), -DELTA * np.eye(m)])
    geom = point_geometry(imm, structure.metric, structure, point + steps)
    onb, blocks = geom.frame.onb, geom.ops.blocks
    omega = [onb[0].T @ (onb[1 + i] - onb[1 + m + i]) / (2 * DELTA) for i in range(m)]
    d_c = [(blocks[1 + i] - blocks[1 + m + i]) / (2 * DELTA) for i in range(m)]
    return geom, geom.first_order(), omega, d_c


def _close(got, want):
    assert np.all(np.abs(got - want) <= TOL * max(1.0, np.abs(want).max())), (got, want)


@pytest.mark.parametrize("seed", range(12))
def test_the_frames_turn_by_h_c_inverse(seed):
    geom, _, omega, _ = _differences(seed)
    m = geom.frame.m
    c = geom.frame.tangent_coords(geom.frame.raw_tangents)[0]
    for i in range(m):
        h_i = geom.h[0, i].T  # h(X_i, X_j) as column j
        _close(np.linalg.solve(c.T, h_i.T).T, omega[i][m:, :m])
        _close(omega[i], -omega[i].T)  # skew: the frames stay orthonormal


@pytest.mark.parametrize("seed", range(12))
def test_each_term_is_its_central_difference_less_the_turn_of_the_frames(seed):
    geom, first, omega, d_c = _differences(seed)
    m, c0 = geom.frame.m, geom.ops.blocks[0]
    p, q = c0[:m, :m], c0[m:, :m]
    c = geom.frame.tangent_coords(geom.frame.raw_tangents)[0]
    # lambda = tr P^2 / (tr P + m), held at its value at the point
    lam = np.trace(p @ p) / (np.trace(p) + m)
    char = p @ p - lam * (p + np.eye(m))
    worst = dict.fromkeys(("invariant_parallel", "invariant_weingarten", "anti_invariant",
                           "slant"), 0.0)
    for i in range(m):
        a, d, turn = omega[i][:m, :m], omega[i][m:, m:], omega[i][m:, :m]
        dp, dq = d_c[i][:m, :m], d_c[i][m:, :m]
        terms = {"invariant_parallel": dp - p @ a + a @ p - turn.T @ q,
                 "invariant_weingarten": dq - q @ a + d @ q, "anti_invariant": dp - p @ a + a @ p,
                 "slant": dp @ p + p @ dp - lam * dp - char @ a + a @ char}
        for key, term in terms.items():
            # relative to the Hessian column (i, j), each times C to read in column j
            worst[key] = max(worst[key], np.abs(term @ c / geom.hessian_scale[0, i]).max())
    for key, value in worst.items():
        _close(first[key][0], value)


@pytest.mark.parametrize("seed", range(12))
def test_the_invariant_terms_are_their_gauss_split_and_weingarten_rows(seed):
    # t h_ij = tan(phi D2x_ij) - P tan(D2x_ij) by the Gauss split, and
    # s H_i - H_i P = s h(X_i, .) - h(X_i, P .), both nonzero here (Q != 0 and h != 0).
    imm, structure, point = _scenario(seed)
    geom = point_geometry(imm, structure.metric, structure, [point])
    first = geom.first_order()
    for key, want in zip(("invariant_parallel", "invariant_weingarten"),
                         invariant_residuals(geom, _phi_hessian_split(geom))):
        assert want[0] > 1e-3
        assert abs(first[key][0] - want[0]) <= 1e-12 * want[0], (key, first[key], want)


@pytest.mark.parametrize("seed", range(6))
def test_an_affine_immersion_has_every_term_exactly_zero(seed):
    imm, structure, point = _scenario(seed, curved=False)
    first = point_geometry(imm, structure.metric, structure, [point]).first_order()
    assert first.keys() == {"invariant_parallel", "invariant_weingarten", "anti_invariant",
                            "slant"}
    assert not any(np.any(value) for value in first.values())
