"""Slant angles, classification and the slant identity residuals."""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from goldenslant.cli import list_bundled, resolve_config
from goldenslant.config import load_config
from goldenslant.errors import ZeroVector
from goldenslant.quadrat import PSI, QuadRat
from goldenslant.slant import (
    _angles,
    _cos2_forms,
    classify,
    classify_geometry,
    exact_slant_data,
    reference_cosine,
)
from goldenslant.structures import diagonal_golden
from goldenslant.submanifold import (
    ImmersionSpec,
    exact_frame,
    exact_induced_operators,
    frame_at,
    induced_operators,
    point_geometry,
)
from goldenslant.suites import run_scenario
from support import at_point

INVARIANT_IMM = ImmersionSpec.from_strings(
    ["u1", "u2"], ["u1*cos(0.5)", "u1*sin(0.5)", "u2", "0"]
)
INVARIANT_STRUCT = diagonal_golden(["psi", "psi", "one_minus_psi", "one_minus_psi"]).to_float()

SLANT_IMM = ImmersionSpec.from_strings(
    ["u1", "u2"], ["psi*u1", "(1-psi)*u1", "psi*u2", "(1-psi)*u2"]
)
SLANT_STRUCT_EXACT = diagonal_golden(["psi", "one_minus_psi", "psi", "one_minus_psi"])
SLANT_STRUCT = SLANT_STRUCT_EXACT.to_float()

STEEP_IMM = ImmersionSpec.from_strings(
    ["u1", "u2"], ["psi*u1", "psi*u2", "(1-psi)*u1", "(1-psi)*u2"]
)
STEEP_STRUCT_EXACT = diagonal_golden(["one_minus_psi", "one_minus_psi", "psi", "psi"])
STEEP_STRUCT = STEEP_STRUCT_EXACT.to_float()

ANTI_IMM = ImmersionSpec.from_strings(["u1"], ["u1", "psi*u1"])
ANTI_STRUCT = diagonal_golden(["psi", "one_minus_psi"]).to_float()


def _ops(imm, structure, point):
    frame = frame_at(imm, point, structure.metric)
    return frame, induced_operators(frame, structure)


def _residual(imm, structure, point, name):
    """The slant identity residual ``name`` that classification attaches at one point."""
    return classify_geometry(at_point(imm, point, structure))["residuals"][name]


def _angle_of(ops, x):
    """Angle between phi X and the tangent space, X in tangent-frame coordinates."""
    return float(_angles(ops.p, ops.q, np.asarray(x, dtype=float)[None])[0])


class TestSlantAngle:
    def test_invariant_direction_has_zero_angle(self):
        _, ops = _ops(INVARIANT_IMM, INVARIANT_STRUCT, (0.3, 0.3))
        assert _angle_of(ops, [1.0, 0.0]) <= 1e-12
        assert _angle_of(ops, [0.0, 1.0]) <= 1e-12

    def test_slant_example_cosine(self):
        _, ops = _ops(SLANT_IMM, SLANT_STRUCT, (0.0, 0.0))
        theta = _angle_of(ops, [1.0, 0.0])
        assert math.isclose(math.cos(theta), 4 / math.sqrt(21), abs_tol=1e-12)

    def test_anti_invariant_direction_is_right_angle(self):
        _, ops = _ops(ANTI_IMM, ANTI_STRUCT, (0.0,))
        assert _angle_of(ops, [1.0]) == math.pi / 2

    def test_scale_invariance(self):
        _, ops = _ops(SLANT_IMM, SLANT_STRUCT, (0.5, -0.5))
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal(2)
            base = _angle_of(ops, x)
            for c in (2.0, -1.0, 0.03, -57.0):
                assert math.isclose(_angle_of(ops, c * x), base,
                                    abs_tol=1e-12)

    def test_zero_vector_rejected(self):
        _, ops = _ops(SLANT_IMM, SLANT_STRUCT, (0.0, 0.0))
        with pytest.raises(ZeroVector):
            _angle_of(ops, [0.0, 0.0])


class TestClassify:
    def test_invariant_example(self):
        rep = classify(INVARIANT_IMM, INVARIANT_STRUCT)
        assert rep["classification"] == "invariant"
        assert rep["theta"] <= 1e-9
        assert rep["angle_spread"] <= 1e-9

    def test_proper_slant_example(self):
        rep = classify(SLANT_IMM, SLANT_STRUCT)
        assert rep["classification"] == "proper_slant"
        assert math.isclose(rep["cos_theta"], 4 / math.sqrt(21), abs_tol=1e-12)
        assert math.isclose(rep["theta"], math.acos(4 / math.sqrt(21)), abs_tol=1e-12)
        assert math.isclose(rep["theta"], 0.5097396788, abs_tol=1e-9)

    def test_steep_example_cosine_is_one_over_sqrt_six(self):
        rep = classify(STEEP_IMM, STEEP_STRUCT)
        assert rep["classification"] == "proper_slant"
        assert math.isclose(rep["cos_theta"], 1 / math.sqrt(6), abs_tol=1e-12)

    def test_anti_invariant_toy(self):
        rep = classify(ANTI_IMM, ANTI_STRUCT)
        assert rep["classification"] == "anti_invariant"
        assert math.isclose(rep["theta"], math.pi / 2, abs_tol=1e-12)

    def test_non_slant_surface(self):
        imm = ImmersionSpec.from_strings(["u1", "u2"], ["u1", "u2", "u1^2", "0"])
        rep = classify(imm, INVARIANT_STRUCT)
        assert rep["classification"] == "non_slant"
        assert rep["angle_spread"] > 1e-3

    def test_lambda_k_partition_of_unity(self):
        for rep in (classify(SLANT_IMM, SLANT_STRUCT), classify(ANTI_IMM, ANTI_STRUCT)):
            assert abs(rep["lambda"] + rep["sin_sq"] - 1.0) <= 1e-12

    def test_residuals_attached_for_slant_results(self):
        rep = classify(SLANT_IMM, SLANT_STRUCT)
        assert set(rep["residuals"]) == {"characterization", "lemma_p", "lemma_q",
                                         "tq", "corollary"}
        assert max(rep["residuals"].values()) <= 1e-10

    def test_p_eigenvalues_solve_slant_quadratic(self):
        # eigenvalues of P satisfy mu^2 - lam*mu - lam = 0 for slant samples
        for imm, structure in [(SLANT_IMM, SLANT_STRUCT), (STEEP_IMM, STEEP_STRUCT),
                               (INVARIANT_IMM, INVARIANT_STRUCT)]:
            rep = classify(imm, structure)
            _, ops = _ops(imm, structure, (0.25, -0.75))
            for mu in np.linalg.eigvalsh(ops.p):
                assert abs(mu * mu - rep["lambda"] * mu - rep["lambda"]) <= 1e-8


class TestCharacterization:
    def test_slant_example_exact_rational_check(self):
        # P = (4/3) I and lam = 16/21: P^2 = (16/9) I = lam (P + I) exactly
        lam = QuadRat(Fraction(16, 21))
        p = QuadRat(Fraction(4, 3))
        assert p * p == lam * (p + 1)

    def test_float_residual_small(self):
        assert _residual(SLANT_IMM, SLANT_STRUCT, (0.0, 0.0), "characterization") <= 1e-12

    def test_invariant_reduces_to_golden_identity(self):
        rep = classify(INVARIANT_IMM, INVARIANT_STRUCT)
        assert rep["lambda"] == pytest.approx(1.0, abs=1e-12)
        assert _residual(INVARIANT_IMM, INVARIANT_STRUCT, (0.3, 0.3),
                         "characterization") <= 1e-9

    def test_not_slant_gets_no_residuals(self):
        imm = ImmersionSpec.from_strings(["u1", "u2"], ["u1", "u2", "u1^2", "0"])
        rep = classify(imm, INVARIANT_STRUCT)
        assert rep["classification"] == "non_slant" and not rep["residuals"]


class TestCorollaryAndLemma:
    def test_corollary_zero_for_slant_example(self):
        assert _residual(SLANT_IMM, SLANT_STRUCT, (0.0, 0.0), "corollary") <= 1e-12

    def test_corollary_zero_for_invariant(self):
        assert _residual(INVARIANT_IMM, INVARIANT_STRUCT, (0.1, 0.1), "corollary") <= 1e-9

    def test_corollary_skipped_for_anti_invariant(self):
        # The corollary divides by lambda, which is 0 here.
        rep = classify(ANTI_IMM, ANTI_STRUCT)
        assert rep["classification"] == "anti_invariant" and rep["lambda"] <= 1e-24
        assert "corollary" not in rep["residuals"] and "tq" in rep["residuals"]

    def test_lemma_identities_small_on_examples(self):
        for imm, structure in [(SLANT_IMM, SLANT_STRUCT), (STEEP_IMM, STEEP_STRUCT),
                               (INVARIANT_IMM, INVARIANT_STRUCT)]:
            assert _residual(imm, structure, (0.4, 0.2), "lemma_p") <= 1e-10
            assert _residual(imm, structure, (0.4, 0.2), "lemma_q") <= 1e-10


class TestTqIdentity:
    def test_invariant_gives_zero(self):
        assert _residual(INVARIANT_IMM, INVARIANT_STRUCT, (0.1, 0.2), "tq") <= 1e-9

    def test_slant_example_value_is_five_ninths(self):
        _, ops = _ops(SLANT_IMM, SLANT_STRUCT, (0.0, 0.0))
        tq = ops.t @ ops.q
        assert np.abs(tq - (5.0 / 9.0) * np.eye(2)).max() <= 1e-12
        assert _residual(SLANT_IMM, SLANT_STRUCT, (0.0, 0.0), "tq") <= 1e-12
        # rational identity: (1 - 16/21)(4/3 + 1) = 5/9 = -(4/3)^2 + 4/3 + 1
        lam = Fraction(16, 21)
        p = Fraction(4, 3)
        assert (1 - lam) * (p + 1) == Fraction(5, 9) == -p * p + p + 1

    def test_anti_invariant_tq_is_identity(self):
        _, ops = _ops(ANTI_IMM, ANTI_STRUCT, (0.0,))
        tq = ops.t @ ops.q
        assert np.abs(tq - np.eye(1)).max() <= 1e-12
        assert _residual(ANTI_IMM, ANTI_STRUCT, (0.0,), "tq") <= 1e-12


class TestExactRoute:
    def test_slant_example_lambda(self):
        eops = exact_induced_operators(
            exact_frame(SLANT_IMM, SLANT_STRUCT_EXACT.metric), SLANT_STRUCT_EXACT
        )
        data = exact_slant_data(eops)
        assert data["lambda"] == QuadRat(Fraction(16, 21))
        assert data["is_slant"]
        assert set(data["residuals"]) == {"characterization", "lemma_p", "lemma_q",
                                          "tq_lambda_form"}
        assert all(value.sign() == 0 for value in data["residuals"].values())

    def test_steep_example_lambda_is_one_sixth(self):
        eops = exact_induced_operators(
            exact_frame(STEEP_IMM, STEEP_STRUCT_EXACT.metric), STEEP_STRUCT_EXACT
        )
        data = exact_slant_data(eops)
        assert data["lambda"] == QuadRat(Fraction(1, 6))
        assert data["is_slant"]

    def test_lambda_candidates_agree_across_directions(self):
        eops = exact_induced_operators(
            exact_frame(SLANT_IMM, SLANT_STRUCT_EXACT.metric), SLANT_STRUCT_EXACT
        )
        # cos^2(theta) along each raw basis direction: the ratio of the diagonals of the
        # lemma's g(PX, PY) and g(X, Y) + g(X, PY) matrices
        pp_form, p_rhs = _cos2_forms(eops)
        candidates = [x / y for x, y in zip(pp_form.diagonal(), p_rhs.diagonal())]
        assert len(candidates) == 2
        assert all(c == exact_slant_data(eops)["lambda"] for c in candidates)


class TestReferenceCosine:
    def test_matches_definitional_on_unit_tangents(self):
        frame, ops = _ops(INVARIANT_IMM, INVARIANT_STRUCT, (0.3, 0.3))
        assert math.isclose(abs(reference_cosine(ops, [1.0, 0.0])), 1.0, abs_tol=1e-12)

    def test_raw_tangent_reproduces_reference_family_value(self):
        # steep family with k = 2: the variant evaluates to
        # (-1 + psi - 4 psi)/sqrt(5) = -(1 + 3 psi)/sqrt5, magnitude > 1
        imm = ImmersionSpec.from_strings(
            ["u1", "u2"], ["2*psi*u1", "2*psi*u2", "(1-psi)*u1", "(1-psi)*u2"]
        )
        frame, ops = _ops(imm, STEEP_STRUCT, (0.0, 0.0))
        raw = frame.tangent_coords(frame.raw_tangents[:, 0])
        value = reference_cosine(ops, raw)
        expected = float(-1 + PSI - 4 * PSI) / math.sqrt(5.0)
        assert math.isclose(value, expected, abs_tol=1e-12)
        assert abs(value) > 1.0
        # while the definitional cosine stays in [0, 1]
        rep = classify(imm, STEEP_STRUCT)
        assert 0.0 <= rep["cos_theta"] <= 1.0

    def test_k1_reference_value_is_valid_but_differs(self):
        frame, ops = _ops(STEEP_IMM, STEEP_STRUCT, (0.0, 0.0))
        raw = frame.tangent_coords(frame.raw_tangents[:, 0])
        value = reference_cosine(ops, raw)
        assert math.isclose(value, -1 / math.sqrt(2.0), abs_tol=1e-12)
        rep = classify(STEEP_IMM, STEEP_STRUCT)
        assert abs(abs(value) - rep["cos_theta"]) > 0.1  # mismatch to be flagged


def test_the_slant_record_is_the_float_report_of_the_slant_suite():
    configs = [resolve_config(name) for name in list_bundled()]
    configs += sorted((Path(__file__).parent / "configs").glob("*.cfg"))
    checked = 0
    for path in configs:
        cfg = load_config(path)
        if "slant" not in cfg.suites:
            continue
        structure = cfg.build_structure().to_float()
        geom = point_geometry(cfg.build_immersion(), structure.metric, structure)
        tol = cfg.tolerances
        record = classify_geometry(geom, tol_frame=tol.tol_frame, tol_class=tol.tol_class)
        slant = run_scenario(cfg, backend="float")["suites"]["slant"]
        assert record.keys() == {"classification", "theta", "cos_theta", "lambda", "sin_sq",
                                 "angle_spread", "residuals"}, path
        assert record == {key: slant[key] for key in record}, path
        checked += 1
    assert checked == 5
