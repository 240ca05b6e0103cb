"""Frames, induced operators and the structural identity suite."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from goldenslant.errors import DimensionMismatch, RankDeficient
from goldenslant.quadrat import ONE_MINUS_PSI, PSI, QuadRat
from goldenslant.structures import (
    GoldenStructure,
    Metric,
    diagonal_golden,
    random_golden,
    verify_golden,
)
from goldenslant.submanifold import (
    ImmersionSpec,
    SampleSpec,
    exact_frame,
    exact_identity_residuals,
    exact_induced_operators,
    frame_at,
    induced_operators,
    invariance_kinds,
    structural_identity_residuals,
)

PSI_F = float(PSI)

INVARIANT_IMM = ImmersionSpec.from_strings(
    ["u1", "u2"], ["u1*cos(0.5)", "u1*sin(0.5)", "u2", "0"]
)
INVARIANT_STRUCT = diagonal_golden(["psi", "psi", "one_minus_psi", "one_minus_psi"])

SLANT_IMM = ImmersionSpec.from_strings(
    ["u1", "u2"], ["psi*u1", "(1-psi)*u1", "psi*u2", "(1-psi)*u2"]
)
SLANT_STRUCT = diagonal_golden(["psi", "one_minus_psi", "psi", "one_minus_psi"])

# ambient phi = diag(psi, 1-psi); the line spanned by (1, psi) satisfies
# g(phi e, e) = psi + psi^2 (1 - psi) = psi - psi = 0, so it is anti-invariant.
ANTI_IMM = ImmersionSpec.from_strings(["u1"], ["u1", "psi*u1"])
ANTI_STRUCT = diagonal_golden(["psi", "one_minus_psi"])


class TestFrameAt:
    def test_invariant_example_frame(self):
        frame = frame_at(INVARIANT_IMM, (0.3, -0.4), INVARIANT_STRUCT.metric.to_float())
        expected = np.array([math.cos(0.5), math.sin(0.5), 0.0, 0.0])
        assert np.abs(frame.tangent_onb[:, 0] - expected).max() <= 1e-12
        assert np.abs(frame.tangent_onb[:, 1] - np.array([0, 0, 1, 0])).max() <= 1e-12
        assert frame.gram_residual() <= 1e-10

    def test_raw_tangent_norms_are_sqrt_three(self):
        frame = frame_at(SLANT_IMM, (0.0, 0.0), SLANT_STRUCT.metric.to_float())
        norms = np.linalg.norm(frame.raw_tangents, axis=0)
        assert np.allclose(norms, math.sqrt(3.0), atol=1e-12)
        # exactly: |e1|^2 = psi^2 + (1 - psi)^2 = 3
        assert PSI**2 + ONE_MINUS_PSI**2 == QuadRat(3)

    def test_degenerate_immersion_rank_deficient(self):
        imm = ImmersionSpec.from_strings(["u1", "u2"], ["u1", "u1", "0", "0"])
        with pytest.raises(RankDeficient):
            frame_at(imm, (0.0, 0.0), Metric.euclidean(4, backend="float"))

    def test_frame_spans_raw_tangents(self):
        frame = frame_at(INVARIANT_IMM, (1.0, 1.0), Metric.euclidean(4, backend="float"))
        # raw tangents must be reproducible from the tangent frame alone
        coeffs = frame.tangent_onb.T @ frame.raw_tangents
        assert np.abs(frame.tangent_onb @ coeffs - frame.raw_tangents).max() <= 1e-12

    def test_non_euclidean_metric_frames(self):
        g = np.diag([2.0, 1.0, 3.0, 1.0])
        metric = Metric(g)
        frame = frame_at(INVARIANT_IMM, (0.5, 0.5), metric)
        assert frame.gram_residual() <= 1e-10

    def test_metric_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            frame_at(INVARIANT_IMM, (0.0, 0.0), Metric.euclidean(3, backend="float"))


class TestSampleSpec:
    @pytest.mark.parametrize("grid,extra", [
        (((-1.0, 1.0, 3),), ()),
        (((-1.0, 1.0, 3), (0.0, 2.5, 4)), ((0.3, -0.7), (9.0, 9.0))),
        (((0.1, 0.2, 1), (-3.0, 3.0, 5), (1.0, -1.0, 2)), ((0.0, 0.0, 0.0),)),
    ])
    def test_points_follow_the_product_order(self, grid, extra):
        spec = SampleSpec(grid=grid, extra_points=extra)
        axes = [np.linspace(lo, hi, count) for lo, hi, count in grid]
        expected = [tuple(float(x) for x in combo) for combo in itertools.product(*axes)]
        expected += [tuple(p) for p in extra]
        points = spec.points()
        assert points.shape == (spec.size, len(grid)) and len(points) == spec.size
        assert [tuple(p) for p in points.tolist()] == expected


class TestInducedOperators:
    def test_invariant_example_operators(self):
        frame = frame_at(INVARIANT_IMM, (0.2, 0.7), INVARIANT_STRUCT.metric.to_float())
        ops = induced_operators(frame, INVARIANT_STRUCT.to_float())
        assert np.abs(ops.p - np.diag([PSI_F, 1 - PSI_F])).max() <= 1e-12
        assert np.abs(ops.q).max() <= 1e-12

    def test_slant_example_p_is_four_thirds_identity_exactly(self):
        ef = exact_frame(SLANT_IMM, SLANT_STRUCT.metric)
        eops = exact_induced_operators(ef, SLANT_STRUCT)
        four_thirds = QuadRat(Fraction(4, 3))
        assert eops.p[0][0] == four_thirds and eops.p[1][1] == four_thirds
        assert eops.p[0][1].sign() == 0 and eops.p[1][0].sign() == 0

    def test_anti_invariant_toy_has_vanishing_p(self):
        frame = frame_at(ANTI_IMM, (0.4,), ANTI_STRUCT.metric.to_float())
        ops = induced_operators(frame, ANTI_STRUCT.to_float())
        assert np.abs(ops.p).max() <= 1e-12
        # exact route agrees
        eops = exact_induced_operators(exact_frame(ANTI_IMM, ANTI_STRUCT.metric),
                                       ANTI_STRUCT)
        assert not np.any(np.asarray(eops.p))

    def test_dimension_mismatch(self):
        frame = frame_at(ANTI_IMM, (0.0,), ANTI_STRUCT.metric.to_float())
        with pytest.raises(DimensionMismatch):
            induced_operators(frame, INVARIANT_STRUCT.to_float())


class TestStructuralIdentities:
    def test_invariant_example_passes_with_extra_identities(self):
        frame = frame_at(INVARIANT_IMM, (0.3, 0.3), INVARIANT_STRUCT.metric.to_float())
        ops = induced_operators(frame, INVARIANT_STRUCT.to_float())
        rep = structural_identity_residuals(ops, frame, INVARIANT_STRUCT.to_float())
        assert max(rep.residuals.values()) <= 1e-10
        # invariant case: tQ = 0 and P^2 - P - I = 0 on their own
        assert np.abs(ops.t @ ops.q).max() <= 1e-12
        assert np.abs(ops.p @ ops.p - ops.p - np.eye(2)).max() <= 1e-12

    def test_slant_example_passes(self):
        frame = frame_at(SLANT_IMM, (0.1, -0.2), SLANT_STRUCT.metric.to_float())
        ops = induced_operators(frame, SLANT_STRUCT.to_float())
        rep = structural_identity_residuals(ops, frame, SLANT_STRUCT.to_float())
        assert max(rep.residuals.values()) <= 1e-9

    def test_exact_residuals_are_zero(self):
        for imm, structure in [(SLANT_IMM, SLANT_STRUCT), (ANTI_IMM, ANTI_STRUCT)]:
            eops = exact_induced_operators(exact_frame(imm, structure.metric), structure)
            residuals = exact_identity_residuals(eops)
            assert all(v.sign() == 0 for v in residuals.values()), residuals

    def test_perturbed_structure_is_detected(self):
        phi = INVARIANT_STRUCT.to_float().phi_float.copy()
        phi[0, 0] += 0.01
        broken = GoldenStructure(phi, Metric.euclidean(4, backend="float"),
                                 validate=False)
        frame = frame_at(INVARIANT_IMM, (0.3, 0.3), broken.metric)
        ops = induced_operators(frame, broken)
        rep = structural_identity_residuals(ops, frame, broken)
        assert max(rep.residuals.values()) > 1e-9

    def test_random_pairs_property(self):
        rng = np.random.default_rng(2024)
        for trial in range(30):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(1, min(4, n - 1) + 1))
            p = int(rng.integers(0, n + 1))
            structure = random_golden(n, p, seed=trial)
            components = []
            for row in rng.uniform(-2, 2, (n, m + 1)):
                terms = [f"{row[0]:.6f}"]
                terms += [f"{c:.6f}*u{i + 1}" for i, c in enumerate(row[1:])]
                components.append("+".join(terms))
            imm = ImmersionSpec.from_strings(
                [f"u{i + 1}" for i in range(m)], components,
                SampleSpec(grid=tuple((-1.0, 1.0, 2) for _ in range(m))),
            )
            for point in imm.sample_spec.points()[:2]:
                frame = frame_at(imm, point, structure.metric)
                ops = induced_operators(frame, structure)
                rep = structural_identity_residuals(ops, frame, structure, seed=trial)
                assert max(rep.residuals.values()) <= 1e-9, rep.residuals


class TestInvarianceKinds:
    def test_invariant_case_checks_induced_structure(self):
        frame = frame_at(INVARIANT_IMM, (0.3, 0.3), INVARIANT_STRUCT.metric.to_float())
        ops = induced_operators(frame, INVARIANT_STRUCT.to_float())
        assert invariance_kinds(ops) == "invariant"
        # the induced pair (P, g) is itself golden
        report = verify_golden(ops.p, Metric.euclidean(2, backend="float"))
        assert report.residual_structure <= 1e-10
        assert report.residual_self_adjoint <= 1e-10

    def test_anti_invariant_case(self):
        frame = frame_at(ANTI_IMM, (0.0,), ANTI_STRUCT.metric.to_float())
        ops = induced_operators(frame, ANTI_STRUCT.to_float())
        assert invariance_kinds(ops) == "anti_invariant"

    def test_slant_case_is_neither(self):
        frame = frame_at(SLANT_IMM, (0.0, 0.0), SLANT_STRUCT.metric.to_float())
        ops = induced_operators(frame, SLANT_STRUCT.to_float())
        assert invariance_kinds(ops) == "neither"
        # converse of the induced-structure theorem: Q != 0 here, and (P, g)
        # is indeed not golden: P^2 - P - I = -(5/9) I
        gap = np.abs(ops.p @ ops.p - ops.p - np.eye(2)).max()
        assert math.isclose(gap, 5.0 / 9.0, abs_tol=1e-12)

    def test_reassembly_invariant(self):
        structure = random_golden(5, 2, seed=8)
        imm = ImmersionSpec.from_strings(
            ["u1", "u2"], ["u1", "u2", "u1+u2", "u1-u2", "2*u1"]
        )
        frame = frame_at(imm, (0.3, 0.9), structure.metric)
        ops = induced_operators(frame, structure)
        phi = structure.phi_float
        assert np.abs(
            phi @ frame.tangent_onb - frame.tangent_onb @ ops.p - frame.normal_onb @ ops.q
        ).max() <= 1e-9
        assert np.abs(
            phi @ frame.normal_onb - frame.tangent_onb @ ops.t - frame.normal_onb @ ops.s
        ).max() <= 1e-9
