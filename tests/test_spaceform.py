"""Space-form curvature model: the exact certificate, its oracle and the sampled reference.

The certificate (``curvature_certificate``) evaluates every check exactly on one
basis tuple per class; ``ambient_oracle`` ties it to the structure by a bound on
``phi_hat``.  The sampled program it replaced lives in ``tests/support.py`` as the
reference, with ``curvature``: evaluated on every basis tuple it gives the
certificate's values, on random tuples it stays within the certified bounds, and on
perturbed structures within the oracle's bound.  The tensors are evaluated in the metric's
Euclidean model ``y = W x``; the term-by-term transcription below works in the
ambient coordinates x, with the metric g and a g-orthonormal eigenframe, and
the two agree once vectors are mapped by W.
"""

import itertools
import math
from fractions import Fraction
from functools import partial
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from goldenslant import spaceform
from goldenslant.checks import BOUNDS
from goldenslant.config import parse_config
from goldenslant.errors import DimensionMismatch
from goldenslant.quadrat import ONE_MINUS_PSI, PSI, SQRT5, QuadRat, from_integers
from goldenslant.spaceform import (
    NABLA_STATEMENTS,
    ambient_oracle,
    curvature_certificate,
)
from goldenslant.structures import (
    GoldenStructure,
    Metric,
    diagonal_golden,
    golden_eigendecomp,
    verify_golden,
)
from goldenslant.suites import run_curvature_suite
import support
from support import (
    _amax,
    _dot,
    _phi,
    ReferenceModel,
    curvature,
    curvature_program,
    diagonal_model,
    prefix,
    probe_program,
    r_dot_s,
    r_dot_s_closed_form,
    random_golden,
    reference_model,
    ricci_closed,
    ricci_framesum,
    tuples,
)

ORACLE_TOL = BOUNDS["ORACLE_TOL"]

PSI_F = float(PSI)


class Ambient(NamedTuple):
    """A model's structure in the ambient coordinates x, where the reference works."""

    model: ReferenceModel
    phi: np.ndarray  # phi in x
    g: np.ndarray
    w: np.ndarray  # y = W x, with g = W^T W
    w_inv: np.ndarray
    frame: np.ndarray  # columns: a g-orthonormal eigenframe of phi


def _ambient(structure, c_p, c_q):
    s = structure.to_float()
    return Ambient(reference_model(structure, c_p, c_q), s.phi_float, s.metric.matrix,
                   s.metric.w, s.metric.w_inv, np.hstack(golden_eigendecomp(s)))


def _diagonal_ambient(n, p, c_p, c_q):
    return _ambient(diagonal_golden(["psi"] * p + ["one_minus_psi"] * (n - p)), c_p, c_q)


def _naive_coefficients(model):
    a = -((1 - PSI_F) * model.c_p - PSI_F * model.c_q) / (2 * math.sqrt(5))
    b = -((1 - PSI_F) * model.c_p + PSI_F * model.c_q) / 4
    return a, b


def _g(amb, u, v):
    return float(u @ amb.g @ v)


def _naive_curvature(amb, x, y, z):
    """Independent term-by-term transcription of the curvature formula in x."""
    n = amb.model.n
    phi, g = amb.phi, partial(_g, amb)
    a, b = _naive_coefficients(amb.model)
    px = phi @ x
    py = phi @ y
    out = np.zeros(n)
    out += a * g(y, z) * x
    out -= a * g(x, z) * y
    out += a * g(py, z) * px
    out -= a * g(px, z) * py
    out += b * g(py, z) * x
    out -= b * g(px, z) * y
    out += b * g(y, z) * px
    out -= b * g(x, z) * py
    return out


def _certificate(model):
    return curvature_certificate(model.n, model.p, model.c_p, model.c_q)


def _oracle(model):
    return ambient_oracle(model.phi, model.p, _certificate(model))


def _agreement(model):
    return _certificate(model).identities["ricci_framesum_vs_closed"]


def _commutation(model):
    return _certificate(model).commutation


def _exact_b(c_p, c_q):
    return -(ONE_MINUS_PSI * Fraction(c_p) + PSI * Fraction(c_q)) / 4


def _read(result, keys):
    for key in keys:
        result = result[key]
    return result


DIAGONAL_AMBIENTS = [_diagonal_ambient(n, n // 2, cp, cq)
                     for n in (2, 4, 6, 8)
                     for cp, cq in ((0, 0), (1, 1), (1, -1), (2, 3))]
MODELS = [amb.model for amb in DIAGONAL_AMBIENTS]


class TestCurvatureTensor:
    def test_flat_model_vanishes(self):
        model = diagonal_model(4, 2, 0.0, 0.0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, y, z = rng.standard_normal((3, 4))
            assert np.abs(model.curvature(x, y, z)).max() == 0.0

    def test_matches_independent_transcription(self):
        amb = _diagonal_ambient(4, 2, 1.0, 2.0)
        model, e = amb.model, np.eye(4)
        direct = model.curvature(e[0], e[2], e[0])
        assert np.abs(direct - _naive_curvature(amb, e[0], e[2], e[0])).max() <= 1e-14
        rng = np.random.default_rng(1)
        for _ in range(50):
            x, y, z = rng.standard_normal((3, 4))
            assert np.abs(model.curvature(x, y, z)
                          - _naive_curvature(amb, x, y, z)).max() <= 1e-12

    def test_antisymmetry_manifest(self):
        for model in MODELS:
            assert _certificate(model).identities["antisymmetry"] == 0

    def test_bianchi_and_pair_symmetry(self):
        for model in MODELS:
            identities = _certificate(model).identities
            assert identities["bianchi"] == 0
            assert identities["pair_symmetry"] == 0

    def test_dimension_mismatch(self):
        model = diagonal_model(4, 2, 1.0, 1.0)
        with pytest.raises(DimensionMismatch):
            model.curvature(np.ones(3), np.ones(4), np.ones(4))


class TestRicci:
    def test_flat_ricci_vanishes(self):
        model = diagonal_model(4, 2, 0.0, 0.0)
        rng = np.random.default_rng(2)
        y, z = rng.standard_normal((2, 4))
        assert ricci_framesum(model, y, z) == 0.0
        assert ricci_closed(model, y, z) == 0.0

    def test_symmetry_of_framesum(self):
        model = diagonal_model(6, 3, 1.0, -1.0)
        rng = np.random.default_rng(3)
        for _ in range(40):
            y, z = rng.standard_normal((2, 6))
            assert abs(ricci_framesum(model, y, z)
                       - ricci_framesum(model, z, y)) <= 1e-10

    def test_framesum_agrees_with_closed_form(self):
        for model in MODELS:
            assert _agreement(model) == 0

    def test_coefficient_recovery_by_least_squares(self):
        # Fitting S samples against {g(Y,Z), g(phiY,Z)} must recover the two
        # closed-form constants; point-independence of those constants is the
        # content of Ricci symmetry in this constant model.
        model = diagonal_model(4, 2, 1.0, 2.0)
        rng = np.random.default_rng(4)
        rows, rhs = [], []
        for _ in range(100):
            y, z = rng.standard_normal((2, 4))
            rows.append([float(y @ z), float((model.phi @ y) @ z)])
            rhs.append(ricci_framesum(model, y, z))
        fitted, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
        assert abs(fitted[0] - model.ricci_g_coeff) <= 1e-9
        assert abs(fitted[1] - model.ricci_phi_coeff) <= 1e-9

    def test_phi_identities_hold_on_both_paths(self):
        for model in MODELS:
            ricci_phi = _certificate(model).ricci_phi
            for path in ("framesum", "closed"):
                assert not any(ricci_phi[path].values()), (model.c_p, model.c_q, path)

    def test_random_structure_model(self):
        structure = random_golden(6, 2, seed=5)
        model = reference_model(structure, 1.0, -1.0)
        assert model.p == 2
        assert _agreement(model) == 0
        assert _oracle(model) <= ORACLE_TOL


class TestCommutationFindings:
    """The phi-commutation family is probed, not assumed.

    For this closed-form tensor the commutation fails exactly when the mixed
    coefficient B is nonzero; these tests pin that computed behavior in both
    directions so regressions in either the checks or the tensor show up.
    """

    def test_flat_model_conforms(self):
        model = diagonal_model(4, 2, 0.0, 0.0)
        assert not any(_commutation(model).values())

    def test_scalar_structure_conforms_for_any_curvatures(self):
        # p = n: phi is a multiple of the identity and commutes with anything.
        model = diagonal_model(4, 4, 1.0, -1.0)
        assert not any(_commutation(model).values())

    def test_mixed_eigenspaces_violate_commutation_when_b_nonzero(self):
        for cp, cq in ((1.0, 1.0), (1.0, -1.0), (2.0, 3.0)):
            model = diagonal_model(4, 2, cp, cq)
            assert abs(model.coeff_b) > 0.1
            res = _commutation(model)
            # On a mixed basis pair the commutator has magnitude sqrt5 |B|.
            assert res["phi_argument"] == res["first_slots"] == SQRT5 * abs(_exact_b(cp, cq))
            assert min(res.values()) > QuadRat(Fraction(1, 10)), (cp, cq, res)

    def test_violation_magnitude_on_canonical_tuple(self):
        # R(e1, e3) e1 = -B e3 with e1, e3 in different eigenspaces, so the
        # phi-argument residual on (e1, e3, e1) is exactly sqrt5 |B|.
        model = diagonal_model(4, 2, 1.0, 1.0)
        e = np.eye(4)
        lhs = model.curvature(e[0], e[2], model.phi @ e[0])
        rhs = model.phi @ model.curvature(e[0], e[2], e[0])
        gap = np.abs(lhs - rhs).max()
        assert math.isclose(gap, math.sqrt(5.0) * abs(model.coeff_b), abs_tol=1e-12)

    def test_corrupted_structure_detected(self):
        # The certificate reads (n, p, c_p, c_q) only; the oracle reads the structure.
        phi = np.diag([PSI_F, PSI_F, 1 - PSI_F, 1 - PSI_F])
        phi[0, 1] = 0.05
        metric = Metric(np.eye(4))
        structure = GoldenStructure(phi, metric, verify_golden(phi, metric))
        model = reference_model(structure, 1.0, 1.0)
        assert _oracle(model) > 1e-3
        cfg = _curvature_config(4, 1.0, 1.0)
        report = run_curvature_suite(cfg, structure, cfg.tolerances)
        assert not report["pass"] and report["identities"]["ambient_oracle"] > 1e-3
        assert report["identities"]["bianchi"] == 0.0


class TestDerivationAction:
    def test_definitional_value_matches_independent_evaluation(self):
        amb = _diagonal_ambient(4, 2, 1.0, -1.0)
        model = amb.model
        rng = np.random.default_rng(6)
        for _ in range(50):
            x, y, z, w = rng.standard_normal((4, 4))
            rz = _naive_curvature(amb, x, y, z)
            rw = _naive_curvature(amb, x, y, w)
            independent = -ricci_framesum(model, rz, w) - ricci_framesum(model, z, rw)
            assert abs(r_dot_s(model, x, y, z, w) - independent) <= 1e-9
            assert abs(r_dot_s(model, x, y, z, w, path="framesum")
                       - independent) <= 1e-9

    def test_flat_model_everything_vanishes(self):
        result = _certificate(diagonal_model(4, 2, 0.0, 0.0))
        assert result.non_semi_symmetry_probe == 0
        assert result.rs_corollary == 0
        assert result.rs_closed_form_gap == 0
        assert not any(result.rs_phi_propositions.values())

    def test_balanced_equal_curvatures_kill_the_phi_coefficient(self):
        # c_p = c_q with a balanced signature forces beta = 0, hence R.S = 0.
        for n in (4, 6, 8):
            model = diagonal_model(n, n // 2, 1.0, 1.0)
            assert abs(model.ricci_phi_coeff) <= 1e-12
            result = _certificate(model)
            assert result.non_semi_symmetry_probe == 0
            assert result.rs_corollary == 0

    def test_generic_curvatures_are_not_semi_symmetric(self):
        model = diagonal_model(4, 2, 1.0, -1.0)
        # |R.S| = sqrt5 |B beta| on a mixed basis pair, with B = sqrt5/4 and beta = 2/sqrt5.
        assert _certificate(model).non_semi_symmetry_probe == SQRT5 / 2

    def test_closed_form_gap_formula(self):
        # definitional - claimed = -beta (g(RZ, phi W) - g(RW, phi Z))
        model = diagonal_model(4, 2, 1.0, -1.0)
        beta = model.ricci_phi_coeff
        rng = np.random.default_rng(7)
        for _ in range(30):
            x, y, z, w = rng.standard_normal((4, 4))
            rz = model.curvature(x, y, z)
            rw = model.curvature(x, y, w)
            predicted_gap = -beta * (float(rz @ (model.phi @ w))
                                     - float(rw @ (model.phi @ z)))
            actual = r_dot_s(model, x, y, z, w) - r_dot_s_closed_form(model, x, y, z, w)
            assert abs(actual - predicted_gap) <= 1e-9

    def test_corollary_and_propositions_fail_for_generic_models(self):
        # Pinned finding: with beta != 0 and mixed eigenspaces, the claimed
        # vanishing of (R(phiX, Y).S)(phiZ, W) and the phi-expansions fail.
        for cp, cq in ((1.0, -1.0), (2.0, 3.0)):
            model = diagonal_model(4, 2, cp, cq)
            assert abs(model.ricci_phi_coeff) > 0.1
            result = _certificate(model)
            assert result.rs_corollary > QuadRat(Fraction(1, 10))
            assert min(result.rs_phi_propositions.values()) > QuadRat(Fraction(1, 10))


class TestCoefficients:
    def test_certificate_carries_the_exact_coefficients(self):
        cert = curvature_certificate(4, 2, 1.0, 2.0)
        # A = -((1-psi) - 2 psi)/(2 sqrt5) = (15 + sqrt5)/20 and
        # B = -((1-psi) + 2 psi)/4 = -(1 + psi)/4; tr phi = 2 psi + 2 (1 - psi) = 2, so
        # alpha = A (n - 2) + B tr phi = 2 A + 2 B and beta = A (tr phi - 1) + B (n - 2) = A + 2 B.
        a, b = (15 + SQRT5) / 20, -(1 + PSI) / 4
        assert cert.coefficients == {"coeff_a": a, "coeff_b": b,
                                     "ricci_g_coeff": 2 * a + 2 * b, "ricci_phi_coeff": a + 2 * b}

    def test_flat_certificate_has_zero_coefficients(self):
        assert not any(curvature_certificate(4, 2, 0.0, 0.0).coefficients.values())

    def test_reference_floats_round_the_exact_coefficients(self):
        for model in MODELS + CERTIFIED_MODELS:
            for key, exact in _certificate(model).coefficients.items():
                assert math.isclose(getattr(model, key), float(exact), rel_tol=1e-15,
                                    abs_tol=1e-15), (model.n, model.p, key)

    @pytest.mark.parametrize("n,c_p,c_q", [(4, 0.0, 0.0), (4, 1.0, -1.0), (6, 2.0, 3.0),
                                           (8, -3.0, 0.125)])
    def test_report_certificate_is_the_floats_of_the_exact_coefficients(self, n, c_p, c_q):
        cfg = _curvature_config(n, c_p, c_q)
        report = run_curvature_suite(cfg, cfg.build_structure(), cfg.tolerances)
        cert = curvature_certificate(n, n // 2, c_p, c_q)
        assert report["certificate"] == {
            "certified": True, **{key: float(v) for key, v in cert.coefficients.items()},
            "statements": list(NABLA_STATEMENTS)}


# -- batched probes against a per-trial oracle ----------------------------------


def _skewed_ambient(c_p, c_q):
    """Model with a non-diagonal phi and a non-Euclidean metric.

    A golden phi that is self-adjoint for the identity becomes L^-1 phi L,
    self-adjoint for g = L^T L, under an upper-triangular change of basis L.
    """
    n = 6
    lt = np.triu(np.random.default_rng(8).uniform(-0.5, 0.5, (n, n)), 1) + np.diag(
        np.linspace(1.0, 2.0, n))
    phi = np.linalg.solve(lt, random_golden(n, 2, seed=5).phi_float @ lt)
    g = lt.T @ lt
    return _ambient(GoldenStructure(phi, Metric((g + g.T) / 2.0)), c_p, c_q)


ORACLE_AMBIENTS = DIAGONAL_AMBIENTS + [_skewed_ambient(1.0, -1.0), _skewed_ambient(2.0, 3.0)]
SKEWED = ORACLE_AMBIENTS[-1]


def _naive_ricci_coefficients(amb):
    n, tr = amb.model.n, float(np.trace(amb.phi))
    a, b = _naive_coefficients(amb.model)
    return a * (n - 2) + b * tr, a * (tr - 1) + b * (n - 2)


def _naive_ricci(amb, y, z, path="closed"):
    if path == "framesum":
        return sum(_g(amb, _naive_curvature(amb, e, y, z), e) for e in amb.frame.T)
    alpha, beta = _naive_ricci_coefficients(amb)
    return alpha * _g(amb, y, z) + beta * _g(amb, amb.phi @ y, z)


def _naive_rs(amb, x, y, z, w):
    rz, rw = _naive_curvature(amb, x, y, z), _naive_curvature(amb, x, y, w)
    return -_naive_ricci(amb, rz, w) - _naive_ricci(amb, z, rw)


def _trial_commutation(m, x, y, z, w):
    r, phi = partial(_naive_curvature, m), m.phi
    rz, rpz = r(x, y, z), r(x, y, phi @ z)
    return {
        "phi_argument": rpz - phi @ rz,
        "first_slots": r(phi @ x, y, z) - r(x, phi @ y, z),
        "both_slots": r(phi @ x, phi @ y, z) - r(phi @ x, y, z) - rz,
        "form_both_phi": _g(m, rpz, phi @ w) - _g(m, rz, phi @ w) - _g(m, rz, w),
        "form_swap": _g(m, rpz, w) - _g(m, rz, phi @ w),
    }


def _trial_ricci_phi(path):
    def residuals(m, x, y):
        s, phi = partial(_naive_ricci, m, path=path), m.phi
        px, py = phi @ x, phi @ y
        return {
            "phi_sq_left": s(phi @ px, y) - s(px, y) - s(x, y),
            "phi_sq_right": s(x, phi @ py) - s(x, py) - s(x, y),
            "phi_both": s(px, py) - s(px, y) - s(x, y),
            "phi_swap": s(px, y) - s(py, x),
        }
    return residuals


def _trial_rs_props(m, x1, x2, x, y):
    rs, phi = partial(_naive_rs, m), m.phi
    return {
        "arguments": rs(phi @ x1, phi @ x2, x, y) - rs(phi @ x1, x2, x, y) - rs(x1, x2, x, y),
        "values": rs(x1, x2, phi @ x, phi @ y) - rs(x1, x2, phi @ x, y) - rs(x1, x2, x, y),
    }


def _naive_claimed_rs(m, x, y, z, w):
    _, beta = _naive_ricci_coefficients(m)
    return -2 * beta * _g(m, _naive_curvature(m, x, y, w), m.phi @ z)


def _trial_rs_gap(m, x, y, z, w):
    return _naive_rs(m, x, y, z, w) - _naive_claimed_rs(m, x, y, z, w)


# probe name, the keys of its value in the program's result, tuple size k,
# per-trial residuals in x on one sequential (k, n) draw mapped to x = W^-1 y
ORACLE = [
    ("ricci_agreement", ("identities", "ricci_framesum_vs_closed"), 2,
     lambda m, y, z: _naive_ricci(m, y, z, "framesum") - _naive_ricci(m, y, z)),
    ("bianchi_residual", ("identities", "bianchi"), 3,
     lambda m, x, y, z: _naive_curvature(m, x, y, z) + _naive_curvature(m, y, z, x)
     + _naive_curvature(m, z, x, y)),
    ("pair_symmetry_residual", ("identities", "pair_symmetry"), 4,
     lambda m, x, y, z, w: _g(m, _naive_curvature(m, x, y, z), w)
     - _g(m, _naive_curvature(m, z, w, x), y)),
    ("antisymmetry_residual", ("identities", "antisymmetry"), 3,
     lambda m, x, y, z: _naive_curvature(m, x, y, z) + _naive_curvature(m, y, x, z)),
    ("curvature_commutation_checks", ("commutation",), 4, _trial_commutation),
    ("ricci_phi_checks-framesum", ("ricci_phi", "framesum"), 2,
     _trial_ricci_phi("framesum")),
    ("ricci_phi_checks-closed", ("ricci_phi", "closed"), 2, _trial_ricci_phi("closed")),
    ("rs_corollary_residual", ("rs_corollary",), 4,
     lambda m, x, y, z, w: _naive_rs(m, m.phi @ x, y, m.phi @ z, w)),
    ("rs_phi_propositions", ("rs_phi_propositions",), 4, _trial_rs_props),
    ("r_dot_s_closed_form_gap", ("rs_closed_form_gap",), 4, _trial_rs_gap),
    ("non_semi_symmetry_probe", ("non_semi_symmetry_probe",), 4, _naive_rs),
]


def _per_trial_worst(amb, k, trial, trials, seed):
    """The residual maxima of a scalar loop over sequential (k, n) draws of y.

    Each draw is mapped to x = W^-1 y for the reference, and each vector
    residual back by W; scalars need no map.
    """
    rng = np.random.default_rng(seed)

    def in_y(value):
        return amb.w @ value if np.ndim(value) else value

    rows = []
    for _ in range(trials):
        row = trial(amb, *(rng.standard_normal((k, amb.model.n)) @ amb.w_inv.T))
        rows.append({key: in_y(v) for key, v in row.items()} if isinstance(row, dict)
                    else in_y(row))
    if isinstance(rows[0], dict):
        return {key: max(float(np.abs(row[key]).max()) for row in rows) for key in rows[0]}
    return max(float(np.abs(row).max()) for row in rows)


def _agree(batched, looped):
    # 1e-12 relative; residuals at rounding level (below 1) compare absolutely.
    return abs(batched - looped) <= 1e-12 * max(1.0, abs(looped))


class TestBatchedProbes:
    @pytest.mark.parametrize("keys,k,trial", [row[1:] for row in ORACLE],
                             ids=[row[0] for row in ORACLE])
    def test_probe_matches_per_trial_loop(self, keys, k, trial):
        for amb in ORACLE_AMBIENTS:
            model = amb.model
            batched = _read(curvature_program(model, trials=6, seed=11)._asdict(), keys)
            looped = _per_trial_worst(amb, k, trial, trials=6, seed=11)
            if isinstance(looped, dict):
                assert batched.keys() == looped.keys()
                for key in looped:
                    assert _agree(batched[key], looped[key]), (model.n, key)
            else:
                assert _agree(batched, looped), (model.n, model.c_p, model.c_q)

    def test_skewed_model_is_not_diagonal(self):
        model = SKEWED.model
        assert model.p == 2
        assert np.abs(SKEWED.g - np.eye(model.n)).max() > 0.1
        assert np.abs(model.phi - np.diag(np.diag(model.phi))).max() > 0.1
        assert np.abs(model.phi - SKEWED.phi).max() > 0.1
        assert _agreement(model) == 0
        assert _oracle(model) <= ORACLE_TOL

    def test_tensors_are_the_ambient_ones_under_w(self):
        # R maps by W; S, R.S and the claimed R.S are scalars and agree as they are.
        model, w = SKEWED.model, SKEWED.w
        ys = np.random.default_rng(14).standard_normal((20, 4, model.n))
        for y1, y2, y3, y4 in ys:
            x1, x2, x3, x4 = (SKEWED.w_inv @ v for v in (y1, y2, y3, y4))
            rz = w @ _naive_curvature(SKEWED, x1, x2, x3)
            assert np.abs(model.curvature(y1, y2, y3) - rz).max() <= 1e-12 * np.abs(rz).max()
            pairs = [(ricci_framesum(model, y1, y2), _naive_ricci(SKEWED, x1, x2, "framesum")),
                     (ricci_closed(model, y1, y2), _naive_ricci(SKEWED, x1, x2)),
                     (r_dot_s(model, y1, y2, y3, y4), _naive_rs(SKEWED, x1, x2, x3, x4)),
                     (r_dot_s(model, y1, y2, y3, y4, path="framesum"),
                      _naive_rs(SKEWED, x1, x2, x3, x4)),
                     (r_dot_s_closed_form(model, y1, y2, y3, y4),
                      _naive_claimed_rs(SKEWED, x1, x2, x3, x4))]
            for got, want in pairs:
                assert abs(got - want) <= 1e-12 * abs(want), (got, want)

    def test_model_reads_the_euclidean_model_only(self):
        for amb in ORACLE_AMBIENTS:
            model = amb.model
            assert not hasattr(model, "g") and not hasattr(model, "frame")
            assert model.p == np.count_nonzero(np.linalg.eigvals(amb.phi).real > 0.5)
            assert math.isclose(model.trace_phi, np.trace(amb.phi), abs_tol=1e-12)

    def test_curvature_broadcasts_over_trials(self):
        model = SKEWED.model
        x, y, z = np.random.default_rng(12).standard_normal((3, 5, model.n))
        batched = model.curvature(x, y, z)
        assert batched.shape == (5, model.n)
        for t in range(5):
            single = model.curvature(x[t], y[t], z[t])
            assert single.shape == (model.n,)
            assert np.abs(single - batched[t]).max() <= 1e-12
            reference = SKEWED.w @ _naive_curvature(
                SKEWED, *(SKEWED.w_inv @ v for v in (x[t], y[t], z[t])))
            assert np.abs(single - reference).max() <= 1e-12

    def test_dimension_mismatch_on_the_last_axis(self):
        model = diagonal_model(4, 2, 1.0, 1.0)
        good = np.ones((5, 4))
        with pytest.raises(DimensionMismatch):
            model.curvature(np.ones((5, 3)), good, good)
        with pytest.raises(DimensionMismatch):
            model.curvature(good, good, np.ones((4, 5)))

    def test_bulk_draw_equals_sequential_draws(self):
        model = diagonal_model(8, 4, 1.0, -1.0)
        x, y, z = tuples(model, trials=7, seed=13, k=3)
        rng = np.random.default_rng(13)
        for t in range(7):
            sequential = rng.standard_normal((3, model.n))
            assert np.array_equal(np.stack([x[t], y[t], z[t]]), sequential)


# -- the one-draw program against the per-probe bodies it replaced --------------


def _probe_by_probe(model, trials, seed):
    """Each probe with its own draw, sharing nothing: the bodies before the program."""
    r, phi, inner = model.curvature, partial(_phi, model), _dot
    _worst = _amax

    def ricci_phi(path):
        s = ricci_framesum if path == "framesum" else ricci_closed
        x, y = tuples(model, trials, seed, 2)
        px, py = phi(x), phi(y)
        s_xy, s_pxy = s(model, x, y), s(model, px, y)
        return {
            "phi_sq_left": _worst(s(model, phi(px), y) - s_pxy - s_xy),
            "phi_sq_right": _worst(s(model, x, phi(py)) - s(model, x, py) - s_xy),
            "phi_both": _worst(s(model, px, py) - s_pxy - s_xy),
            "phi_swap": _worst(s_pxy - s(model, py, x)),
        }

    y, z = tuples(model, trials, seed, 2)
    agreement = _worst(ricci_framesum(model, y, z) - ricci_closed(model, y, z))
    x, y, z = tuples(model, trials, seed, 3)
    bianchi = _worst(r(x, y, z) + r(y, z, x) + r(z, x, y))
    x, y, z = tuples(model, trials, seed, 3)
    antisymmetry = _worst(r(x, y, z) + r(y, x, z))
    x, y, z, w = tuples(model, trials, seed, 4)
    pair_symmetry = _worst(inner(r(x, y, z), w) - inner(r(z, w, x), y))

    x, y, z, w = tuples(model, trials, seed, 4)
    px, py, pz, pw = (phi(v) for v in (x, y, z, w))
    rz, rpz, r_px = r(x, y, z), r(x, y, pz), r(px, y, z)
    commutation = {
        "phi_argument": _worst(rpz - phi(rz)),
        "first_slots": _worst(r_px - r(x, py, z)),
        "both_slots": _worst(r(px, py, z) - r_px - rz),
        "form_both_phi": _worst(inner(rpz, pw) - inner(rz, pw) - inner(rz, w)),
        "form_swap": _worst(inner(rpz, w) - inner(rz, pw)),
    }
    x, y, z, w = tuples(model, trials, seed, 4)
    corollary = _worst(r_dot_s(model, phi(x), y, phi(z), w))
    x1, x2, x, y = tuples(model, trials, seed, 4)
    px1, px2, px, py = (phi(v) for v in (x1, x2, x, y))
    base = r_dot_s(model, x1, x2, x, y)
    rs_props = {
        "arguments": _worst(r_dot_s(model, px1, px2, x, y) - r_dot_s(model, px1, x2, x, y)
                            - base),
        "values": _worst(r_dot_s(model, x1, x2, px, py) - r_dot_s(model, x1, x2, px, y)
                         - base),
    }
    x, y, z, w = tuples(model, trials, seed, 4)
    gap = _worst(r_dot_s(model, x, y, z, w) - r_dot_s_closed_form(model, x, y, z, w))
    x, y, z, w = tuples(model, trials, seed, 4)
    probe = _worst(r_dot_s(model, x, y, z, w))
    return {
        "identities": {"ricci_framesum_vs_closed": agreement, "bianchi": bianchi,
                       "pair_symmetry": pair_symmetry, "antisymmetry": antisymmetry},
        "ricci_phi": {"framesum": ricci_phi("framesum"), "closed": ricci_phi("closed")},
        "commutation": commutation,
        "rs_corollary": corollary,
        "rs_phi_propositions": rs_props,
        "rs_closed_form_gap": gap,
        "non_semi_symmetry_probe": probe,
    }


def _curvature_config(n, c_p, c_q):
    p = n // 2
    return parse_config({
        "ambient": {"dim": n, "phi": {"pattern": ["psi"] * p + ["one_minus_psi"] * (n - p)}},
        "spaceform": {"c_p": c_p, "c_q": c_q, "p": p},
        "suites": ["curvature"],
    })


class TestCurvatureProgram:
    @pytest.mark.parametrize("trials", [1, 5, 200])
    def test_smaller_tuples_are_prefixes_of_the_four_tuple_draw(self, trials):
        model = diagonal_model(8, 4, 1.0, -1.0)
        quads = tuples(model, trials, 13, 4)
        flat = np.random.default_rng(13).standard_normal(4 * trials * model.n)
        for k in (2, 3):
            fresh = tuples(model, trials, 13, k)
            head = flat[:k * trials * model.n].reshape(trials, k, model.n).transpose(1, 0, 2)
            assert np.array_equal(fresh, head)
            shared = prefix(quads, k)
            assert np.array_equal(shared, fresh)
            # The same layout too, so every product over them rounds the same way.
            assert shared.strides == fresh.strides

    @pytest.mark.parametrize("trials,seed", [(100, 0), (100, 7), (1, 0), (1, 7)])
    def test_program_equals_the_probe_by_probe_bodies(self, trials, seed):
        for model in MODELS:
            expected = _probe_by_probe(model, trials, seed)
            assert curvature_program(model, trials, seed)._asdict() == expected


# -- the exact certificate against the reference and the structure --------------------


def _leaves(tree, path=()):
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _leaves(value, path + (key,))
    else:
        yield path, tree


def _arity(path):
    """How many of (X, Y, Z, W) the check at ``path`` reads."""
    if path[0] == "ricci_phi" or path[-1] == "ricci_framesum_vs_closed":
        return 2
    if path[-1] in ("bianchi", "antisymmetry", "phi_argument", "first_slots", "both_slots"):
        return 3
    return 4


def _scale(model):
    """A magnitude of the tensors, for rounding allowances: (1 + max|kappa|)(1 + max|s|, |beta|)."""
    kappa = max(abs(float(v)) for v in _certificate(model).kappa.values())
    alpha, beta = model.ricci_g_coeff, model.ricci_phi_coeff
    return (1.0 + kappa) * (1.0 + abs(alpha) + 2.0 * abs(beta))


def _basis_tuples(n):
    """Every (e_i, e_j, e_k, e_l) of the standard basis, as 4 arrays of shape (n^4, n)."""
    index = np.array(list(itertools.product(range(n), repeat=4)))
    return np.eye(n)[index.T]


# Curvatures at the ends of the float range, and both zeros.
EXTREMES = [1e300, -1e300, 5e-324, -5e-324, 1.7976931348623157e308, 0.0, -0.0]
CERTIFIED_MODELS = [diagonal_model(n, p, cp, cq)
                    for (n, p), (cp, cq) in zip(
                        [(2, 1), (3, 0), (3, 3), (4, 2), (5, 2), (6, 1), (4, 1), (5, 4)],
                        [(1.0, -1.0), (2.0, 3.0), (1.0, -1.0), (0.5, -0.25), (2.0, 3.0),
                         (1.0, 1.0), (-3.0, 0.125), (1.0, -1.0)])]


class TestCertificate:
    def test_exact_on_the_acceptance_grid(self):
        for model in MODELS:
            cert = _certificate(model)
            assert not any(cert.identities.values())
            assert not any(v for path in cert.ricci_phi.values() for v in path.values())
            b = _exact_b(model.c_p, model.c_q)
            assert cert.kappa["pq"] == b
            assert cert.commutation["phi_argument"] == SQRT5 * abs(b)
            assert all(isinstance(v, QuadRat) for _, v in _leaves(cert._asdict()))

    @pytest.mark.parametrize("model", CERTIFIED_MODELS,
                             ids=[f"n{m.n}-p{m.p}-{m.c_p}-{m.c_q}" for m in CERTIFIED_MODELS])
    def test_certificate_is_the_program_on_every_basis_tuple(self, model):
        # phi_hat is diagonal, so the standard basis is the eigenframe.
        quads = _basis_tuples(model.n)
        program = probe_program(model, quads[:2], quads[:3], quads)._asdict()
        cert = _certificate(model)._asdict()
        allowance = 1e-12 * _scale(model)
        for path, value in _leaves(program):
            assert abs(value - float(_read(cert, path))) <= allowance, path

    @pytest.mark.parametrize("model", CERTIFIED_MODELS,
                             ids=[f"n{m.n}-p{m.p}-{m.c_p}-{m.c_q}" for m in CERTIFIED_MODELS])
    def test_each_class_value_is_the_program_on_its_representative(self, model, monkeypatch):
        # The largest basis values alone miss a mistake that permutes values between
        # classes, so each realized class is certified alone: every check keeps only its
        # own row, and the program runs unreduced on the representative's basis tuple.
        values = spaceform._basis_values()
        realized = np.flatnonzero((spaceform._P_USED <= model.p)
                                  & (spaceform._Q_USED <= model.n - model.p))
        # Indices 0-3 are psi-eigenvectors and 4-7 (1 - psi)-ones; the model's eigenframe is
        # the standard basis, psi on its first p axes.
        rows = spaceform._CLASSES[realized]
        quads = np.eye(model.n)[np.where(rows < 4, rows, rows - 4 + model.p).T]
        monkeypatch.setattr(support, "_amax", lambda a: a)
        program = probe_program(model, quads[:2], quads[:3], quads)._asdict()
        w = quads[3]
        allowance = 1e-12 * _scale(model)
        for t, c in enumerate(realized.tolist()):
            monkeypatch.setattr(spaceform, "_TERMS", spaceform._terms({
                check: {tuple(v[c].ravel().tolist()): {(0, 0)}} if v[c].any() else {}
                for check, v in values.items()}))
            cert = _certificate(model)._asdict()
            for path, value in _leaves(program):
                # A vector-valued check is certified as g(V(X, Y, Z), W).
                reference = abs(value[t] @ w[t] if value.ndim == 2 else value[t])
                assert abs(reference - float(_read(cert, path))) <= allowance, (c, path)

    def test_integer_engine_is_the_quadrat_reference_on_every_certified_model(self):
        for model in MODELS + CERTIFIED_MODELS:
            cert = _certificate(model)
            assert cert == support.reference_certificate(model.n, model.p, model.c_p, model.c_q)
            assert all(isinstance(v, QuadRat) for _, v in _leaves(cert._asdict()))

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 40), share=st.floats(0.0, 1.0),
           c_p=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EXTREMES),
           c_q=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EXTREMES))
    @example(n=8, share=0.5, c_p=1e300, c_q=5e-324)
    @example(n=5, share=0.0, c_p=-0.0, c_q=-1e300)
    @example(n=3, share=1.0, c_p=0.0, c_q=-5e-324)
    def test_integer_engine_is_the_quadrat_reference_on_random_models(self, n, share, c_p, c_q):
        p = round(share * n)
        assert (curvature_certificate(n, p, c_p, c_q)
                == support.reference_certificate(n, p, c_p, c_q))

    def test_one_from_integers_per_check_result(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return from_integers(*args)

        monkeypatch.setattr(spaceform, "from_integers", counted)
        for n, p, c_p, c_q in ((4, 2, 1.0, -1.0), (8, 4, 2.0, 3.0), (32, 16, 1e300, 5e-324),
                               (5, 0, 0.0, 0.0)):
            calls.clear()
            cert = curvature_certificate(n, p, c_p, c_q)
            assert 0 < len(calls) <= len(list(_leaves(cert._asdict()))), (n, p)

    @pytest.mark.parametrize("p,q", [(p, q) for p in range(5) for q in range(5) if p + q])
    def test_classes_are_one_per_realized_pattern(self, p, q):
        def pattern(row):
            return tuple(i >= 4 for i in row), tuple(a == b for a in row for b in row)

        frame = [*range(p), *range(4, 4 + q)]
        realized = {pattern(row) for row in itertools.product(frame, repeat=4)}
        rows = spaceform._CLASSES[(spaceform._P_USED <= p) & (spaceform._Q_USED <= q)]
        assert len({pattern(row) for row in rows.tolist()}) == len(rows)
        assert {pattern(row) for row in rows.tolist()} == realized
        if p == q == 4:
            assert len(rows) == 94

    @settings(max_examples=80, deadline=None)
    @given(model=st.sampled_from(MODELS + CERTIFIED_MODELS), seed=st.integers(0, 2**32 - 1))
    def test_sampled_residuals_within_the_certified_bound(self, model, seed):
        # A check multilinear in k vectors is at most its largest basis value times the
        # product of their l1 norms (in the eigenframe, here the standard basis).
        quads = tuples(model, 1, seed, 4)
        program = probe_program(model, quads[:2], quads[:3], quads)._asdict()
        cert = _certificate(model)._asdict()
        norms = np.abs(quads[:, 0]).sum(axis=-1)
        allowance = 1e-12 * _scale(model)
        for path, value in _leaves(program):
            bound = float(_read(cert, path)) + allowance
            assert value <= bound * np.prod(norms[:_arity(path)]), (path, value, bound)


def _kappa(cert):
    return max(abs(float(v)) for v in cert.kappa.values())


def _coefficients(cert):
    return tuple(float(cert.coefficients[key]) for key in ("coeff_a", "coeff_b"))


def _golden(rng, n, p):
    """A symmetric golden matrix of the certified spectrum (ascending: 1 - psi, then psi) in
    a random orthonormal eigenframe."""
    frame = np.linalg.qr(rng.standard_normal((n, n)))[0]
    golden = (frame * np.repeat([float(ONE_MINUS_PSI), PSI_F], [n - p, p])) @ frame.T
    return (golden + golden.T) / 2.0


def _gaps(phi_hat, golden, cert, x, y, z):
    """|R_phi_hat(X,Y)Z - R_Phi(X,Y)Z| / max|kappa| by the reference (with A and B divided
    by max|kappa|, as R is linear in them, so that huge curvatures do not overflow), and
    |X| |Y| |Z|."""
    a, b = (v / _kappa(cert) for v in _coefficients(cert))
    gap = np.linalg.norm(curvature(phi_hat, a, b, x, y, z) - curvature(golden, a, b, x, y, z),
                         axis=-1)
    return gap, np.prod(np.linalg.norm([x, y, z], axis=-1), axis=0)


def _rounding(phi_hat, cert):
    """Slack for float rounding alone, relative to |X| |Y| |Z| max|kappa|: 1e-13 of the
    size of R's terms, (|A| + |B|)(1 + |phi_hat|_2)^2, about 450 ulps of it."""
    a, b = (v / _kappa(cert) for v in _coefficients(cert))
    return 1e-13 * (abs(a) + abs(b)) * (1.0 + np.linalg.norm(phi_hat, 2)) ** 2


CURVATURE_PAIRS = [(1.0, -1.0), (2.0, 3.0), (1.0, 0.0), (-3.0, 0.125), (1e308, -1e308)]


class TestOracle:
    def test_flat_model_passes(self):
        cfg = _curvature_config(4, 0.0, 0.0)
        report = run_curvature_suite(cfg, cfg.build_structure(), cfg.tolerances)
        assert report["pass"] and report["identities"]["ambient_oracle"] == 0.0
        assert report["findings"]["commutation_conforms"]
        assert not report["findings"]["non_semi_symmetry_nonvanishing"]
        # A flat tensor is 0 for every phi, so the bound is 0 however far phi_hat is.
        model = diagonal_model(4, 2, 0.0, 0.0)
        assert ambient_oracle(model.phi + 1.0, 2, _certificate(model)) == 0.0

    def test_skewed_and_random_structures_pass(self):
        models = [amb.model for amb in ORACLE_AMBIENTS]
        models += [reference_model(random_golden(n, p, seed=n), 2.0, -0.5)
                   for n, p in ((3, 1), (6, 4), (8, 5))]
        for model in models:
            assert _oracle(model) <= ORACLE_TOL

    def test_reference_curvature_is_the_certified_tensor_on_every_eigenframe_triple(self):
        # The bound compares R of phi_hat with the certified tensor, R(e_i, e_j)e_k =
        # kappa_ij (d_jk e_i - d_ik e_j) in an orthonormal eigenframe; the reference, with
        # the closed-form A and B, gives it, and not a tensor with a wrong kappa.
        models = [SKEWED.model, reference_model(random_golden(8, 5, seed=8), 2.0, -0.5),
                  diagonal_model(4, 2, 1.0, 1.0)]
        for model in models:
            n, p = model.n, model.p
            frame = np.linalg.eigh(model.phi)[1]  # ascending: psi on the last p
            q = (np.arange(n) < n - p).astype(np.int64)
            kappa = _certificate(model).kappa
            i, j, k = np.array(list(itertools.product(range(n), repeat=3))).T
            got = model.curvature(frame.T[i], frame.T[j], frame.T[k]) @ frame
            eye = np.eye(n)
            for wrong in (False, True):
                values = dict(kappa, pq=QuadRat(0)) if wrong else kappa
                k_ij = np.array([float(values[key]) for key in ("pp", "pq", "qq")])[q[i] + q[j]]
                want = k_ij[:, None] * ((j == k)[:, None] * eye[i] - (i == k)[:, None] * eye[j])
                gap = np.abs(got - want).max() / _kappa(_certificate(model))
                assert gap > 1e-3 if wrong else gap <= 1e-12, (n, p, wrong, gap)

    def test_a_wrong_p_fails(self):
        # r puts p values psi at the top of the ascending spectrum, so one too many or too
        # few leaves an eigenvalue sqrt5 from its r; the certificate is the one of that p.
        models = [SKEWED.model, reference_model(random_golden(8, 5, seed=8), 2.0, -0.5),
                  diagonal_model(4, 2, 1.0, 1.0)]
        for model in models:
            for p in (model.p - 1, model.p + 1):
                cert = curvature_certificate(model.n, p, model.c_p, model.c_q)
                assert ambient_oracle(model.phi, p, cert) > 1e-3, (model.n, p)

    @pytest.mark.parametrize("n,p", [(4, 2), (5, 1), (5, 4), (3, 3), (6, 0)])
    @pytest.mark.parametrize("c_p,c_q", CURVATURE_PAIRS[:4])
    def test_bound_is_its_formula_on_a_shifted_structure(self, n, p, c_p, c_q):
        # phi_hat = Phi + s I: no skew part and mu = r + s, so e = s, and the oracle is
        # (2 |A| (2 psi s + s^2) + 4 |B| s) / max|kappa| with |Phi|_2 = psi.
        cert = curvature_certificate(n, p, c_p, c_q)
        a, b = _coefficients(cert)
        phi = diagonal_model(n, p, c_p, c_q).phi
        for s in (0.25, 3.0):
            expected = (2 * abs(a) * (2 * PSI_F * s + s * s) + 4 * abs(b) * s) / _kappa(cert)
            assert math.isclose(ambient_oracle(phi + s * np.eye(n), p, cert), expected,
                                rel_tol=1e-12), s

    @pytest.mark.parametrize("shift", [1e-6, 1.0, 10.0, -10.0])
    @pytest.mark.parametrize("c_p,c_q", CURVATURE_PAIRS)
    def test_bound_holds_on_the_aligned_triple(self, shift, c_p, c_q):
        # With phi_hat = Phi + s I and X = e_0, Y = Z = e_1 in the psi-eigenspace, the gap is
        # |A (2 psi s + s^2) + 2 B s|, half the bound when A and B have one sign (as for
        # (1, 0)); past |s| = 2 psi + 2 |B| / |A| it needs the bound's e^2 term.
        model = diagonal_model(4, 4, c_p, c_q)
        cert = _certificate(model)
        phi_hat = model.phi + shift * np.eye(4)
        x, y = np.eye(4)[:2, None]
        gap, scale = _gaps(phi_hat, model.phi, cert, x, y, y)
        bound = ambient_oracle(phi_hat, 4, cert)
        assert gap[0] <= (bound + _rounding(phi_hat, cert)) * scale[0], (gap, bound * scale)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 10), share=st.floats(0.0, 1.0), size=st.floats(-10.0, 0.0),
           symmetric=st.floats(0.0, 1.0), curvatures=st.sampled_from(CURVATURE_PAIRS),
           seed=st.integers(0, 2**32 - 1))
    @example(n=8, share=0.5, size=0.0, symmetric=0.0, curvatures=(1.0, -1.0), seed=0)
    @example(n=2, share=1.0, size=-10.0, symmetric=1.0, curvatures=(1.0, 0.0), seed=1)
    def test_bound_holds_on_perturbed_structures(self, n, share, size, symmetric, curvatures,
                                                 seed):
        # phi_hat = Phi + E, with E = t S + (1 - t) K (S symmetric, K skew) scaled to
        # |E|_2 = 10^size: every drawn gap is within the bound, up to float rounding.
        rng = np.random.default_rng(seed)
        p = round(share * n)
        golden = _golden(rng, n, p)
        noise = rng.standard_normal((n, n))
        e = symmetric * (noise + noise.T) + (1.0 - symmetric) * (noise - noise.T)
        phi_hat = golden + e * (10.0 ** size / np.linalg.norm(e, 2))
        cert = curvature_certificate(n, p, *curvatures)
        x, y, z = rng.standard_normal((3, 50, n))
        gap, scale = _gaps(phi_hat, golden, cert, x, y, z)
        bound = ambient_oracle(phi_hat, p, cert)
        assert np.all(gap <= (bound + _rounding(phi_hat, cert)) * scale), (gap / scale).max()

    def test_huge_curvatures_give_a_finite_bound(self):
        # A and B are near 1e307: they are divided by max|kappa| before any product.
        for model in (diagonal_model(4, 2, 1e308, -1e308),
                      reference_model(random_golden(6, 2, seed=5), 1.7976931348623157e308,
                                      -1e308)):
            gap = _oracle(model)
            assert math.isfinite(gap) and gap <= ORACLE_TOL, (model.n, gap)

    @pytest.mark.filterwarnings("error")  # quietly: a RuntimeWarning would reach stderr
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (1, 2)])
    def test_non_finite_phi_hat_fails(self, bad, entry):
        model = diagonal_model(4, 2, 1.0, -1.0)
        phi = model.phi.copy()
        phi[entry] = bad
        gap = ambient_oracle(phi, 2, _certificate(model))
        assert math.isnan(gap) and not gap <= ORACLE_TOL

    def test_suite_draws_nothing_and_does_fixed_exact_work(self, monkeypatch):
        calls, ops = [], []

        def no_draw(*args, **kwargs):
            raise AssertionError("the curvature suite draws nothing")

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                   "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse"):
            monkeypatch.setattr(QuadRat, op, counted("op", vars(QuadRat)[op]))
        # The certificate's exact work is integer arithmetic, with a QuadRat per result.
        monkeypatch.setattr(spaceform, "from_integers", counted("op", from_integers))
        for n in (4, 32):
            cfg = _curvature_config(n, 1.0, -1.0)
            structure = cfg.build_structure()
            structure.phi_hat  # the structure's own exact work, before counting
            calls.clear()
            assert run_curvature_suite(cfg, structure, cfg.tolerances)["pass"]
            ops.append(calls.count("op"))
        assert ops[0] == ops[1] > 0, ops
