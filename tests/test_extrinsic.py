"""Second fundamental form, Gauss split and the invariant/anti-invariant probes."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import goldenslant.extrinsic as extrinsic
import goldenslant.suites as suites
from goldenslant.cli import resolve_config
from goldenslant.config import Tolerances, load_config, parse_config
from goldenslant.extrinsic import _apply, _phi_hessian_split, extrinsic_residuals
from goldenslant.structures import GoldenStructure, Metric, diagonal_golden, verify_golden
from goldenslant.submanifold import (
    ImmersionSpec,
    PointGeometry,
    TangentFrame,
    invariance_kind,
)
from support import at_point, extrinsic_per_point, frame_operators, shape_vanishing_probe

ROOT = Path(__file__).resolve().parent.parent
EUCLID4 = Metric(np.eye(4))
STRUCT4 = diagonal_golden(["psi", "psi", "one_minus_psi", "one_minus_psi"]).to_float()

PARABOLOID = ImmersionSpec.from_strings(["u1", "u2"], ["u1", "u2", "u1^2+u2^2", "0"])
SPHERE_PATCH = ImmersionSpec.from_strings(
    ["u1", "u2"], ["cos(u1)*cos(u2)", "cos(u1)*sin(u2)", "sin(u1)", "0"]
)


def _gauss_split(imm, point, structure):
    residuals = extrinsic_residuals(at_point(imm, point, structure), Tolerances())[1]
    return residuals["gauss_tangential"], residuals["gauss_normal"]


def _invariant(imm, point, structure):
    """Both invariant residuals at ``point``, whose tangent space must be invariant."""
    geom = at_point(imm, point, structure)
    kind, residuals = extrinsic_residuals(geom, Tolerances())
    assert kind == "invariant"
    return residuals["invariant_parallel"], residuals["invariant_weingarten"]


def _shape_probe(imm, point, structure):
    """max |g(h(X_i, X_j), phi e_b)| at ``point``, which the rule must call anti-invariant."""
    geom = at_point(imm, point, structure)
    assert extrinsic_residuals(geom, Tolerances())[0] == "anti_invariant"
    return shape_vanishing_probe(geom)[0]


class TestSecondFundamentalForm:
    def test_affine_immersion_has_no_curvature_data(self):
        imm = ImmersionSpec.from_strings(["u1", "u2"], ["u1", "u2", "u1+u2", "0"])
        geom = at_point(imm, (0.5, -0.5), metric=EUCLID4)
        assert np.abs(geom.h).max() == 0.0
        assert np.abs(geom.tangential).max() == 0.0

    def test_sphere_patch_normal_curvature(self):
        # At (0, 0): tangents are e3 and e2; d2x/du1^2 = (-1, 0, 0, 0), purely
        # normal with unit magnitude along the first axis.
        geom = at_point(SPHERE_PATCH, (0.0, 0.0), metric=EUCLID4)
        h = geom.h[0]
        ambient_h11 = geom.frame.onb[0, :, 2:] @ h[0, 0]
        assert np.abs(ambient_h11 - np.array([-1.0, 0.0, 0.0, 0.0])).max() <= 1e-12
        assert math.isclose(np.linalg.norm(h[0, 0]), 1.0, abs_tol=1e-12)

    def test_paraboloid_hessian_split(self):
        geom = at_point(PARABOLOID, (0.0, 0.0), metric=EUCLID4)
        h, normal = geom.h[0], geom.frame.onb[0, :, 2:]
        h11 = normal @ h[0, 0]
        h22 = normal @ h[1, 1]
        assert np.abs(h11 - np.array([0, 0, 2.0, 0])).max() <= 1e-12
        assert np.abs(h22 - np.array([0, 0, 2.0, 0])).max() <= 1e-12
        assert np.abs(h[0, 1]).max() <= 1e-12
        assert np.abs(geom.tangential).max() <= 1e-12

    def test_h_is_symmetric(self):
        imm = ImmersionSpec.from_strings(
            ["u1", "u2"], ["u1", "u2", "u1^2*u2+sin(u1*u2)", "cos(u1)*u2^2"]
        )
        geom = at_point(imm, (0.3, 0.7), metric=EUCLID4)
        h, tangential = geom.h[0], geom.tangential[0]
        assert np.abs(h - h.transpose(1, 0, 2)).max() <= 1e-12
        assert np.abs(tangential - tangential.transpose(1, 0, 2)).max() <= 1e-12

    def test_shape_operator_self_adjoint(self):
        # A_V is the contraction of h with V: g(A_V X, Y) = g(h(X, Y), V).
        geom = at_point(PARABOLOID, (0.2, 0.6), metric=EUCLID4)
        # h re-indexed by the orthonormal tangent frame T = E C^-1 instead of raw tangents E.
        coords = np.linalg.inv(geom.frame.tangent_coords(geom.frame.raw_tangents))[0]
        h_onb = np.einsum("ia,jb,ijc->abc", coords, coords, geom.h[0])
        a_v = np.einsum("abc,c->ab", h_onb, np.array([1.0, -2.0]))
        assert np.abs(a_v - a_v.T).max() <= 1e-12


class TestGaussSplit:
    def test_affine_is_exactly_zero(self):
        imm = ImmersionSpec.from_strings(["u1", "u2"], ["u1", "u2", "u1-u2", "0"])
        assert _gauss_split(imm, (0.1, 0.9), STRUCT4) == (0.0, 0.0)

    def test_paraboloid_residuals_vanish(self):
        r_tan, r_nor = _gauss_split(PARABOLOID, (0.3, -0.2), STRUCT4)
        assert r_tan <= 1e-9 and r_nor <= 1e-9

    def test_split_is_structure_independent(self):
        # The Gauss split is definitional for any linear ambient operator, so a
        # perturbed, non-golden phi still splits cleanly.
        phi = STRUCT4.phi_float.copy()
        phi[0, 1] += 0.3
        phi[1, 0] += 0.3
        broken = GoldenStructure(phi, EUCLID4, verify_golden(phi, EUCLID4))
        r_tan, r_nor = _gauss_split(PARABOLOID, (0.3, -0.2), broken)
        assert r_tan <= 1e-9 and r_nor <= 1e-9

    def test_random_quadratic_immersions(self):
        rng = np.random.default_rng(77)
        for trial in range(30):
            coeffs = rng.uniform(-1, 1, (4, 6))
            components = [
                f"{c[0]:.5f}+{c[1]:.5f}*u1+{c[2]:.5f}*u2"
                f"+{c[3]:.5f}*u1^2+{c[4]:.5f}*u1*u2+{c[5]:.5f}*u2^2"
                for c in coeffs
            ]
            imm = ImmersionSpec.from_strings(["u1", "u2"], components)
            point = tuple(rng.uniform(-0.5, 0.5, 2))
            try:
                r_tan, r_nor = _gauss_split(imm, point, STRUCT4)
            except Exception:
                continue  # rank-deficient draw
            assert max(r_tan, r_nor) <= 1e-9


class TestInvariantConnection:
    def test_affine_invariant_case_is_zero(self):
        imm = ImmersionSpec.from_strings(
            ["u1", "u2"], ["u1*cos(0.5)", "u1*sin(0.5)", "u2", "0"]
        )
        assert _invariant(imm, (0.2, 0.4), STRUCT4) == (0.0, 0.0)

    def test_jacobian_near_the_float_range_does_not_overflow(self):
        # E^T g E is about 1e600 here; the residuals never form it.
        imm = ImmersionSpec.from_strings(["u1", "u2"], ["10^300*u1", "u2", "0", "0"])
        assert _invariant(imm, (0.2, 0.4), STRUCT4) == (0.0, 0.0)

    def test_bent_inside_psi_plane_stays_invariant(self):
        # bending confined to the psi eigenplane keeps the tangent space
        # invariant at the origin; both residuals stay at rounding level
        imm = ImmersionSpec.from_strings(["u1", "u2"], ["u1+u1^2", "u2", "0", "0"])
        r_par, r_wei = _invariant(imm, (0.0, 0.0), STRUCT4)
        assert r_par <= 1e-9 and r_wei <= 1e-9

    def test_curved_invariant_submanifold_with_nonzero_h(self):
        # 4-dimensional psi eigenspace; a paraboloid inside it is invariant in
        # a whole neighborhood and genuinely curved, so h(X, PY) = s h(X, Y)
        # is exercised with h != 0.
        struct6 = diagonal_golden(["psi"] * 4 + ["one_minus_psi"] * 2).to_float()
        imm = ImmersionSpec.from_strings(
            ["u1", "u2"], ["u1", "u2", "u1^2+u2^2", "u1*u2", "0", "0"]
        )
        for point in [(0.0, 0.0), (0.3, -0.2)]:
            sff_residuals = _invariant(imm, point, struct6)
            assert max(sff_residuals) <= 1e-9
        geom = at_point(imm, (0.3, -0.2), metric=struct6.metric)
        assert np.abs(geom.h).max() > 0.1  # the check was not vacuous


def test_extrinsic_suite_splits_the_phi_hessians_once(monkeypatch):
    calls = []
    original = extrinsic._phi_hessian_split

    def counted(geom):
        calls.append(geom.size)
        return original(geom)

    monkeypatch.setattr(extrinsic, "_phi_hessian_split", counted)
    report = suites.run_scenario(load_config(resolve_config("paper_example_2")))
    extrinsic_suite = report["suites"]["extrinsic"]
    assert extrinsic_suite["pass"] and extrinsic_suite["classification"] == "invariant"
    # One split per run, the extrinsic suite's: the invariance rule reads t h instead.
    assert calls == [extrinsic_suite["points"]]


# A curved invariant surface: each tangent space is spanned by a vector of the
# psi-eigenspace (axes 0 and 1) and one of the 1 - psi-eigenspace (axes 2 and 3).
SHEARED = {"ambient": {"dim": 4, "phi": {"pattern": ["psi", "psi", "one_minus_psi",
                                                     "one_minus_psi"]}},
           "immersion": {"params": ["u", "v"], "components": ["u+v", "(u+v)^2", "v", "v^3/3"],
                         "samples": {"grid": [[-1, 1, 3], [-1, 1, 3]]}},
           "suites": ["extrinsic", "slant"]}
SOURCES = {**{f"curved_grid-{seed}": (0, 0) for seed in (1, 7, 101)},
           "paper_example_2": (1, 1), "sheared": (1, 1)}


def _config(source, tmp_path):
    if source.startswith("curved_grid"):
        sys.path.insert(0, str(ROOT))
        try:
            from perfbench import workloads
        finally:
            sys.path.remove(str(ROOT))
        seed = int(source.split("-")[1])
        return load_config(workloads.build("curved_grid", seed, tmp_path).sources[0])
    if source == "sheared":
        return parse_config(SHEARED)
    return load_config(resolve_config(source))


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("point_suites", [("extrinsic",), ("slant",), ("extrinsic", "slant")])
def test_a_point_suite_computes_the_invariant_rows_at_most_once(monkeypatch, tmp_path, source,
                                                               point_suites):
    # A run forms the first-order terms at most once, with one solve of the frames'
    # coordinates, shared by both point suites.  No point of curved_grid is within tol_class
    # of invariant or anti-invariant (min max|Q| is about 0.36) and it is no slant candidate,
    # so nothing is formed there.
    formed, solves = [], []
    first_order, solve = PointGeometry.first_order, np.linalg.solve

    def counted_first_order(self):
        formed.append(self.size)
        return first_order(self)

    def counted_solve(*args):
        solves.append(args[0].shape)
        return solve(*args)

    monkeypatch.setattr(PointGeometry, "first_order", counted_first_order)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    cfg = _config(source, tmp_path)
    report = suites.run_scenario(cfg._replace(suites=point_suites))
    assert report["overall_pass"]
    assert (len(formed), len(solves)) == SOURCES[source]


class TestAntiInvariantProbe:
    STRUCT = diagonal_golden(["psi", "one_minus_psi", "psi", "one_minus_psi"]).to_float()

    def test_affine_anti_invariant_vanishes(self):
        imm = ImmersionSpec.from_strings(["u1", "u2"], ["u1", "psi*u1", "u2", "psi*u2"])
        assert _shape_probe(imm, (0.2, 0.8), self.STRUCT) == 0.0

    def test_curved_anti_invariant_patch_reports_violation(self):
        # Quadratic normal bending keeps the origin tangent space anti-invariant but makes h
        # nonzero; since the normal space equals phi(TM) here, A_{phi Y} cannot vanish.  P
        # leaves 0 at first order there (dP = Q^T H + H^T Q), so the patch is anti-invariant
        # at the origin alone: it is neither, and its first-order term reports the bending.
        imm = ImmersionSpec.from_strings(
            ["u1", "u2"], ["u1", "psi*u1+0.05*u1^2", "u2", "psi*u2"]
        )
        geom = at_point(imm, (0.0, 0.0), self.STRUCT)
        kind, residuals = extrinsic_residuals(geom, Tolerances())
        assert kind == "neither" and residuals["first_order"] > 1e-3
        assert shape_vanishing_probe(geom)[0] > 1e-3

    def test_curved_anti_invariant_curve_conforms(self):
        # phi X is normal to X = (cos u, psi, sin u, 0) at every u, so the curve is
        # anti-invariant to first order, and then every A_{phi Y} vanishes: g(h(X, Y), phi Z)
        # is symmetric in X, Y and, as dP = 0, antisymmetric in Y, Z.
        imm = ImmersionSpec.from_strings(["u"], ["sin(u)", "psi*u", "1-cos(u)", "0"])
        for point in [(0.0,), (0.7,)]:
            assert abs(at_point(imm, point, self.STRUCT).h).max() > 0.5
            assert _shape_probe(imm, point, self.STRUCT) <= 1e-15


# Random stacks stand in for the point pass, with m < n as an immersion needs: the
# Hessians are not symmetric in (i, j), so an i/j swap in a contraction changes its value.
STACKS = [(size, n, m) for size in (1, 9, 196) for n in (3, 5) for m in (1, 2, 3) if m < n]
EPS = np.finfo(float).eps


def _random_geometry(size, n, m, seed=None):
    rng = np.random.default_rng(1000 * size + 10 * n + m if seed is None else seed)
    frame = TangentFrame(rng.standard_normal((size, m)), rng.standard_normal((size, n, m)),
                         rng.standard_normal((size, n, n)))
    hess = rng.standard_normal((size, n, m, m))
    split = frame.split(hess.reshape(size, n, -1))
    phi = rng.standard_normal((n, n))
    metric = Metric(np.eye(n))
    structure = GoldenStructure(phi, metric, verify_golden(phi, metric))
    ops = frame_operators(rng.standard_normal((size, n, n)), m)
    return PointGeometry(frame, hess, split[..., :m], split[..., m:], np.abs(hess).max(axis=-3),
                         ops, structure)


def _einsum(spec, *operands):
    """The einsum and the same sum of |terms|, the scale its rounding is measured in."""
    return np.einsum(spec, *operands), np.einsum(spec, *map(np.abs, operands))


def _assert_close(got, want, scale, steps):
    """``got`` and ``want`` are two roundings of one sum whose terms take at most ``steps``
    roundings each: both lie within ``steps`` ulps of ``scale`` of the exact sum."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 2 * steps * EPS * scale)


class TestContractionsMatchTheirEinsumDefinitions:
    @pytest.mark.parametrize("size,n,m", STACKS)
    def test_hessian_split(self, size, n, m):
        geom = _random_geometry(size, n, m)
        got = np.concatenate([geom.tangential, geom.h], axis=-1)
        want = _einsum("...nk,...nij->...ijk", geom.frame.onb, geom.hessians)
        _assert_close(got, *want, n + 1)

    @pytest.mark.parametrize("size,n,m", STACKS)
    def test_phi_hessian_split(self, size, n, m):
        geom = _random_geometry(size, n, m)
        got = np.concatenate(_phi_hessian_split(geom), axis=-1)
        phi, onb = geom.structure.phi_hat, geom.frame.onb
        v, v_scale = _einsum("ab,...bij->...aij", phi, geom.hessians)
        want = np.einsum("...nk,...nij->...ijk", onb, v)
        scale = np.einsum("...nk,...nij->...ijk", np.abs(onb), v_scale)
        _assert_close(got, want, scale, 2 * n + 2)

    @pytest.mark.parametrize("size,n,m", STACKS)
    def test_apply(self, size, n, m):
        geom = _random_geometry(size, n, m)
        for op, vectors in [(geom.ops.p, geom.tangential), (geom.ops.t, geom.h),
                            (geom.ops.q, geom.tangential), (geom.ops.s, geom.h)]:
            want = _einsum("...ab,...ijb->...ija", op, vectors)
            _assert_close(_apply(op, vectors), *want, op.shape[-1] + 1)


# The arrays an edge value may be written into: three of the geometry's and the operators'.
INJECTED_INTO = ("hessians", "tangential", "h", "blocks")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_extrinsic_residuals_have_the_bits_of_the_max_over_points(data):
    size, n = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 5))
    m = data.draw(st.integers(1, n - 1))
    geom = _random_geometry(size, n, m, seed=data.draw(st.integers(0, 2**32 - 1)))
    arrays = {"hessians": geom.hessians.copy(), "tangential": geom.tangential.copy(),
              "h": geom.h.copy(), "blocks": geom.ops.blocks.copy()}
    special = st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300, 5e-324, 0.0])
    for field, index, value in data.draw(st.lists(st.tuples(
            st.sampled_from(INJECTED_INTO), st.integers(0, 10**6), special), max_size=3)):
        arrays[field].flat[index % arrays[field].size] = value
    # Tolerances that reach every kind: no point, some or every point near invariant, with
    # its rows holding or not.
    tol = Tolerances(tol_class=data.draw(st.sampled_from([-1.0, 2.0, np.inf])),
                     tol_frame=data.draw(st.sampled_from([-1.0, 1.0, np.inf])))
    with np.errstate(over="ignore", invalid="ignore"):  # a product past the float range
        ops = frame_operators(arrays.pop("blocks"), m)
        geom = geom._replace(**arrays, ops=ops)
        kind, got = extrinsic_residuals(geom, tol)
        first = geom.first_order()
        rows_hold = ((first["invariant_parallel"] <= tol.tol_frame)
                     & (first["invariant_weingarten"] <= tol.tol_frame))
        assert kind == invariance_kind(ops, tol.tol_class, rows_hold,
                                       first["anti_invariant"] <= tol.tol_frame)
        want = {key: value.max() for key, value in extrinsic_per_point(geom).items()}
        # The terms are checked against their own references elsewhere; here only the worst
        # over the points that the rule tested.
        if kind == "invariant":
            want.update((key, first[key].max()) for key in ("invariant_parallel",
                                                            "invariant_weingarten"))
        near_q = np.abs(ops.q).max(axis=(-2, -1)) <= tol.tol_class
        near_p = np.abs(ops.p).max(axis=(-2, -1)) <= tol.tol_class
        tested = np.concatenate([first["invariant_parallel"][near_q],
                                 first["invariant_weingarten"][near_q],
                                 first["anti_invariant"][near_p]])
        if tested.size:
            want["first_order"] = tested.max()
    assert got.keys() == want.keys()
    assert all(type(value) is float for value in got.values())
    assert {key: np.float64(value).tobytes() for key, value in got.items()} == {
        key: value.tobytes() for key, value in want.items()}
