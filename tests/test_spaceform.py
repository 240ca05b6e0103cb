"""Space-form curvature model: identities, Ricci program and probed claims."""

import math
from functools import partial

import numpy as np
import pytest

from goldenslant import spaceform
from goldenslant.config import parse_config
from goldenslant.errors import DimensionMismatch
from goldenslant.quadrat import PSI
from goldenslant.spaceform import (
    SpaceFormModel,
    _inner,
    _phi,
    _prefix,
    _tuples,
    _worst,
    curvature,
    curvature_program,
    nabla_identities_certificate,
    r_dot_s,
    r_dot_s_closed_form,
    ricci_closed,
    ricci_framesum,
)
from goldenslant.structures import GoldenStructure, Metric, random_golden
from goldenslant.suites import run_curvature_suite

PSI_F = float(PSI)


def _naive_coefficients(model):
    a = -((1 - PSI_F) * model.c_p - PSI_F * model.c_q) / (2 * math.sqrt(5))
    b = -((1 - PSI_F) * model.c_p + PSI_F * model.c_q) / 4
    return a, b


def _g(model, u, v):
    return float(u @ model.g @ v)


def _naive_curvature(model, x, y, z):
    """Independent term-by-term transcription of the curvature formula."""
    n = model.n
    phi, g = model.phi, partial(_g, model)
    a, b = _naive_coefficients(model)
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


def _agreement(model, trials):
    return curvature_program(model, trials).identities["ricci_framesum_vs_closed"]


def _commutation(model, trials):
    return curvature_program(model, trials).commutation


def _read(result, keys):
    for key in keys:
        result = result[key]
    return result


MODELS = [SpaceFormModel.build(n, n // 2, cp, cq)
          for n in (2, 4, 6, 8)
          for cp, cq in ((0, 0), (1, 1), (1, -1), (2, 3))]


class TestCurvatureTensor:
    def test_flat_model_vanishes(self):
        model = SpaceFormModel.build(4, 2, 0.0, 0.0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, y, z = rng.standard_normal((3, 4))
            assert np.abs(curvature(model, x, y, z)).max() == 0.0

    def test_matches_independent_transcription(self):
        model = SpaceFormModel.build(4, 2, 1.0, 2.0)
        e = np.eye(4)
        direct = curvature(model, e[0], e[2], e[0])
        assert np.abs(direct - _naive_curvature(model, e[0], e[2], e[0])).max() <= 1e-14
        rng = np.random.default_rng(1)
        for _ in range(50):
            x, y, z = rng.standard_normal((3, 4))
            assert np.abs(curvature(model, x, y, z)
                          - _naive_curvature(model, x, y, z)).max() <= 1e-12

    def test_antisymmetry_manifest(self):
        for model in MODELS:
            assert curvature_program(model, trials=20).identities["antisymmetry"] <= 1e-12

    def test_bianchi_and_pair_symmetry(self):
        for model in MODELS:
            identities = curvature_program(model, trials=50).identities
            assert identities["bianchi"] <= 1e-10
            assert identities["pair_symmetry"] <= 1e-10

    def test_dimension_mismatch(self):
        model = SpaceFormModel.build(4, 2, 1.0, 1.0)
        with pytest.raises(DimensionMismatch):
            curvature(model, np.ones(3), np.ones(4), np.ones(4))


class TestRicci:
    def test_flat_ricci_vanishes(self):
        model = SpaceFormModel.build(4, 2, 0.0, 0.0)
        rng = np.random.default_rng(2)
        y, z = rng.standard_normal((2, 4))
        assert ricci_framesum(model, y, z) == 0.0
        assert ricci_closed(model, y, z) == 0.0

    def test_symmetry_of_framesum(self):
        model = SpaceFormModel.build(6, 3, 1.0, -1.0)
        rng = np.random.default_rng(3)
        for _ in range(40):
            y, z = rng.standard_normal((2, 6))
            assert abs(ricci_framesum(model, y, z)
                       - ricci_framesum(model, z, y)) <= 1e-10

    def test_framesum_agrees_with_closed_form(self):
        for model in MODELS:
            assert _agreement(model, trials=100) <= 1e-9

    def test_coefficient_recovery_by_least_squares(self):
        # Fitting S samples against {g(Y,Z), g(phiY,Z)} must recover the two
        # closed-form constants; point-independence of those constants is the
        # content of Ricci symmetry in this constant model.
        model = SpaceFormModel.build(4, 2, 1.0, 2.0)
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
            ricci_phi = curvature_program(model, trials=50).ricci_phi
            for path in ("framesum", "closed"):
                assert max(ricci_phi[path].values()) <= 1e-9, (model.c_p, model.c_q, path)

    def test_random_structure_model(self):
        structure = random_golden(6, 2, seed=5)
        model = SpaceFormModel.from_structure(structure, 1.0, -1.0)
        assert model.p == 2
        assert _agreement(model, trials=50) <= 1e-9


class TestCommutationFindings:
    """The phi-commutation family is probed, not assumed.

    For this closed-form tensor the commutation fails exactly when the mixed
    coefficient B is nonzero; these tests pin that computed behavior in both
    directions so regressions in either the checks or the tensor show up.
    """

    def test_flat_model_conforms(self):
        model = SpaceFormModel.build(4, 2, 0.0, 0.0)
        assert max(_commutation(model, trials=20).values()) == 0.0

    def test_scalar_structure_conforms_for_any_curvatures(self):
        # p = n: phi is a multiple of the identity and commutes with anything.
        model = SpaceFormModel.build(4, 4, 1.0, -1.0)
        assert max(_commutation(model, trials=20).values()) <= 1e-12

    def test_mixed_eigenspaces_violate_commutation_when_b_nonzero(self):
        for cp, cq in ((1.0, 1.0), (1.0, -1.0), (2.0, 3.0)):
            model = SpaceFormModel.build(4, 2, cp, cq)
            assert abs(model.coeff_b) > 0.1
            res = _commutation(model, trials=50)
            assert max(res.values()) > 0.1, (cp, cq, res)

    def test_violation_magnitude_on_canonical_tuple(self):
        # R(e1, e3) e1 = -B e3 with e1, e3 in different eigenspaces, so the
        # phi-argument residual on (e1, e3, e1) is exactly sqrt5 |B|.
        model = SpaceFormModel.build(4, 2, 1.0, 1.0)
        e = np.eye(4)
        lhs = curvature(model, e[0], e[2], model.phi @ e[0])
        rhs = model.phi @ curvature(model, e[0], e[2], e[0])
        gap = np.abs(lhs - rhs).max()
        assert math.isclose(gap, math.sqrt(5.0) * abs(model.coeff_b), abs_tol=1e-12)

    def test_corrupted_structure_detected(self):
        phi = np.diag([PSI_F, PSI_F, 1 - PSI_F, 1 - PSI_F])
        phi[0, 1] = 0.05
        structure = GoldenStructure(phi, Metric.euclidean(4, backend="float"),
                                    validate=False)
        model = SpaceFormModel(n=4, p=2, c_p=1.0, c_q=1.0, structure=structure,
                               frame=np.eye(4))
        res = _commutation(model, trials=50)
        assert max(res.values()) > 1e-3


class TestDerivationAction:
    def test_definitional_value_matches_independent_evaluation(self):
        model = SpaceFormModel.build(4, 2, 1.0, -1.0)
        rng = np.random.default_rng(6)
        for _ in range(50):
            x, y, z, w = rng.standard_normal((4, 4))
            rz = _naive_curvature(model, x, y, z)
            rw = _naive_curvature(model, x, y, w)
            independent = -ricci_framesum(model, rz, w) - ricci_framesum(model, z, rw)
            assert abs(r_dot_s(model, x, y, z, w) - independent) <= 1e-9
            assert abs(r_dot_s(model, x, y, z, w, path="framesum")
                       - independent) <= 1e-9

    def test_flat_model_everything_vanishes(self):
        result = curvature_program(SpaceFormModel.build(4, 2, 0.0, 0.0), trials=20)
        assert result.non_semi_symmetry_probe == 0.0
        assert result.rs_corollary == 0.0
        assert result.rs_closed_form_gap == 0.0
        assert max(result.rs_phi_propositions.values()) == 0.0

    def test_balanced_equal_curvatures_kill_the_phi_coefficient(self):
        # c_p = c_q with a balanced signature forces beta = 0, hence R.S = 0.
        for n in (4, 6, 8):
            model = SpaceFormModel.build(n, n // 2, 1.0, 1.0)
            assert abs(model.ricci_phi_coeff) <= 1e-12
            result = curvature_program(model, trials=20)
            assert result.non_semi_symmetry_probe <= 1e-10
            assert result.rs_corollary <= 1e-10

    def test_generic_curvatures_are_not_semi_symmetric(self):
        model = SpaceFormModel.build(4, 2, 1.0, -1.0)
        assert curvature_program(model, trials=100, seed=1).non_semi_symmetry_probe > 1e-6

    def test_closed_form_gap_formula(self):
        # definitional - claimed = -beta (g(RZ, phi W) - g(RW, phi Z))
        model = SpaceFormModel.build(4, 2, 1.0, -1.0)
        beta = model.ricci_phi_coeff
        rng = np.random.default_rng(7)
        for _ in range(30):
            x, y, z, w = rng.standard_normal((4, 4))
            rz = curvature(model, x, y, z)
            rw = curvature(model, x, y, w)
            predicted_gap = -beta * (float(rz @ (model.phi @ w))
                                     - float(rw @ (model.phi @ z)))
            actual = r_dot_s(model, x, y, z, w) - r_dot_s_closed_form(model, x, y, z, w)
            assert abs(actual - predicted_gap) <= 1e-9

    def test_corollary_and_propositions_fail_for_generic_models(self):
        # Pinned finding: with beta != 0 and mixed eigenspaces, the claimed
        # vanishing of (R(phiX, Y).S)(phiZ, W) and the phi-expansions fail.
        for cp, cq in ((1.0, -1.0), (2.0, 3.0)):
            model = SpaceFormModel.build(4, 2, cp, cq)
            assert abs(model.ricci_phi_coeff) > 0.1
            result = curvature_program(model, trials=50)
            assert result.rs_corollary > 0.1
            assert max(result.rs_phi_propositions.values()) > 0.1


class TestNablaCertificate:
    def test_certificate_reports_constant_coefficients(self):
        model = SpaceFormModel.build(4, 2, 1.0, 2.0)
        cert = nabla_identities_certificate(model)
        assert cert.certified
        # A = -((1-psi) - 2 psi)/(2 sqrt5) = (15 + sqrt5)/20 and
        # B = -((1-psi) + 2 psi)/4 = -(1 + psi)/4, evaluated exactly:
        assert math.isclose(cert.coeff_a, (15 + math.sqrt(5)) / 20, abs_tol=1e-15)
        assert math.isclose(cert.coeff_b, -(1 + PSI_F) / 4, abs_tol=1e-15)
        assert len(cert.statements) == 2

    def test_flat_certificate_has_zero_coefficients(self):
        cert = nabla_identities_certificate(SpaceFormModel.build(4, 2, 0.0, 0.0))
        assert cert.coeff_a == 0.0 and cert.coeff_b == 0.0
        assert cert.ricci_g_coeff == 0.0 and cert.ricci_phi_coeff == 0.0


# -- batched probes against a per-trial oracle ----------------------------------


def _skewed_model(c_p, c_q):
    """Model with a non-diagonal phi and a non-Euclidean metric.

    A golden phi that is self-adjoint for the identity becomes L^-1 phi L,
    self-adjoint for g = L^T L, under an upper-triangular change of basis L.
    """
    n = 6
    lt = np.triu(np.random.default_rng(8).uniform(-0.5, 0.5, (n, n)), 1) + np.diag(
        np.linspace(1.0, 2.0, n))
    phi = np.linalg.solve(lt, random_golden(n, 2, seed=5).phi_float @ lt)
    g = lt.T @ lt
    structure = GoldenStructure(phi, Metric((g + g.T) / 2.0))
    return SpaceFormModel.from_structure(structure, c_p, c_q)


ORACLE_MODELS = MODELS + [_skewed_model(1.0, -1.0), _skewed_model(2.0, 3.0)]


def _naive_ricci_coefficients(model):
    n, tr = model.n, float(np.trace(model.phi))
    a, b = _naive_coefficients(model)
    return a * (n - 2) + b * tr, a * (tr - 1) + b * (n - 2)


def _naive_ricci(model, y, z, path="closed"):
    if path == "framesum":
        return sum(_g(model, _naive_curvature(model, e, y, z), e) for e in model.frame.T)
    alpha, beta = _naive_ricci_coefficients(model)
    return alpha * _g(model, y, z) + beta * _g(model, model.phi @ y, z)


def _naive_rs(model, x, y, z, w):
    rz, rw = _naive_curvature(model, x, y, z), _naive_curvature(model, x, y, w)
    return -_naive_ricci(model, rz, w) - _naive_ricci(model, z, rw)


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


def _trial_rs_gap(m, x, y, z, w):
    _, beta = _naive_ricci_coefficients(m)
    claimed = -2 * beta * _g(m, _naive_curvature(m, x, y, w), m.phi @ z)
    return _naive_rs(m, x, y, z, w) - claimed


# probe name, the keys of its value in the program's result, tuple size k,
# per-trial residuals on one sequential (k, n) draw
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


def _per_trial_worst(model, k, trial, trials, seed):
    """The residual maxima of a scalar loop over sequential (k, n) draws."""
    rng = np.random.default_rng(seed)
    rows = [trial(model, *rng.standard_normal((k, model.n))) for _ in range(trials)]
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
        for model in ORACLE_MODELS:
            batched = _read(curvature_program(model, trials=6, seed=11)._asdict(), keys)
            looped = _per_trial_worst(model, k, trial, trials=6, seed=11)
            if isinstance(looped, dict):
                assert batched.keys() == looped.keys()
                for key in looped:
                    assert _agree(batched[key], looped[key]), (model.n, key)
            else:
                assert _agree(batched, looped), (model.n, model.c_p, model.c_q)

    def test_skewed_model_is_not_diagonal(self):
        model = ORACLE_MODELS[-1]
        assert model.p == 2
        assert np.abs(model.g - np.eye(model.n)).max() > 0.1
        assert np.abs(model.phi - np.diag(np.diag(model.phi))).max() > 0.1
        assert _agreement(model, trials=50) <= 1e-9

    def test_curvature_broadcasts_over_trials(self):
        model = ORACLE_MODELS[-1]
        x, y, z = np.random.default_rng(12).standard_normal((3, 5, model.n))
        batched = curvature(model, x, y, z)
        assert batched.shape == (5, model.n)
        for t in range(5):
            single = curvature(model, x[t], y[t], z[t])
            assert single.shape == (model.n,)
            assert np.abs(single - batched[t]).max() <= 1e-12
            assert np.abs(single - _naive_curvature(model, x[t], y[t], z[t])).max() <= 1e-12

    def test_dimension_mismatch_on_the_last_axis(self):
        model = SpaceFormModel.build(4, 2, 1.0, 1.0)
        good = np.ones((5, 4))
        with pytest.raises(DimensionMismatch):
            curvature(model, np.ones((5, 3)), good, good)
        with pytest.raises(DimensionMismatch):
            curvature(model, good, good, np.ones((4, 5)))

    def test_worst_keeps_a_single_nan(self):
        assert math.isnan(_worst(np.array([[0.5, np.nan], [-2.0, 1.0]])))
        assert _worst(np.array([[0.5, -3.0], [-2.0, 1.0]])) == 3.0

    def test_bulk_draw_equals_sequential_draws(self):
        model = SpaceFormModel.build(8, 4, 1.0, -1.0)
        x, y, z = _tuples(model, trials=7, seed=13, k=3)
        rng = np.random.default_rng(13)
        for t in range(7):
            sequential = rng.standard_normal((3, model.n))
            assert np.array_equal(np.stack([x[t], y[t], z[t]]), sequential)


# -- the one-draw program against the per-probe bodies it replaced --------------


def _probe_by_probe(model, trials, seed):
    """Each probe with its own draw, sharing nothing: the bodies before the program."""
    r, phi, inner = partial(curvature, model), partial(_phi, model), partial(_inner, model)

    def ricci_phi(path):
        s = ricci_framesum if path == "framesum" else ricci_closed
        x, y = _tuples(model, trials, seed, 2)
        px, py = phi(x), phi(y)
        s_xy, s_pxy = s(model, x, y), s(model, px, y)
        return {
            "phi_sq_left": _worst(s(model, phi(px), y) - s_pxy - s_xy),
            "phi_sq_right": _worst(s(model, x, phi(py)) - s(model, x, py) - s_xy),
            "phi_both": _worst(s(model, px, py) - s_pxy - s_xy),
            "phi_swap": _worst(s_pxy - s(model, py, x)),
        }

    y, z = _tuples(model, trials, seed, 2)
    agreement = _worst(ricci_framesum(model, y, z) - ricci_closed(model, y, z))
    x, y, z = _tuples(model, trials, seed, 3)
    bianchi = _worst(r(x, y, z) + r(y, z, x) + r(z, x, y))
    x, y, z = _tuples(model, trials, seed, 3)
    antisymmetry = _worst(r(x, y, z) + r(y, x, z))
    x, y, z, w = _tuples(model, trials, seed, 4)
    pair_symmetry = _worst(inner(r(x, y, z), w) - inner(r(z, w, x), y))

    x, y, z, w = _tuples(model, trials, seed, 4)
    px, py, pz, pw = (phi(v) for v in (x, y, z, w))
    rz, rpz, r_px = r(x, y, z), r(x, y, pz), r(px, y, z)
    commutation = {
        "phi_argument": _worst(rpz - phi(rz)),
        "first_slots": _worst(r_px - r(x, py, z)),
        "both_slots": _worst(r(px, py, z) - r_px - rz),
        "form_both_phi": _worst(inner(rpz, pw) - inner(rz, pw) - inner(rz, w)),
        "form_swap": _worst(inner(rpz, w) - inner(rz, pw)),
    }
    x, y, z, w = _tuples(model, trials, seed, 4)
    corollary = _worst(r_dot_s(model, phi(x), y, phi(z), w))
    x1, x2, x, y = _tuples(model, trials, seed, 4)
    px1, px2, px, py = (phi(v) for v in (x1, x2, x, y))
    base = r_dot_s(model, x1, x2, x, y)
    rs_props = {
        "arguments": _worst(r_dot_s(model, px1, px2, x, y) - r_dot_s(model, px1, x2, x, y)
                            - base),
        "values": _worst(r_dot_s(model, x1, x2, px, py) - r_dot_s(model, x1, x2, px, y)
                         - base),
    }
    x, y, z, w = _tuples(model, trials, seed, 4)
    gap = _worst(r_dot_s(model, x, y, z, w) - r_dot_s_closed_form(model, x, y, z, w))
    x, y, z, w = _tuples(model, trials, seed, 4)
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


def _curvature_config(n, c_p, c_q, trials, seed):
    p = n // 2
    return parse_config({
        "ambient": {"dim": n, "phi": {"pattern": ["psi"] * p + ["one_minus_psi"] * (n - p)}},
        "spaceform": {"c_p": c_p, "c_q": c_q, "p": p, "trials": trials, "seed": seed},
        "suites": ["curvature"],
    })


class TestCurvatureProgram:
    @pytest.mark.parametrize("trials", [1, 5, 200])
    def test_smaller_tuples_are_prefixes_of_the_four_tuple_draw(self, trials):
        model = SpaceFormModel.build(8, 4, 1.0, -1.0)
        quads = _tuples(model, trials, 13, 4)
        flat = np.random.default_rng(13).standard_normal(4 * trials * model.n)
        for k in (2, 3):
            fresh = _tuples(model, trials, 13, k)
            head = flat[:k * trials * model.n].reshape(trials, k, model.n).transpose(1, 0, 2)
            assert np.array_equal(fresh, head)
            shared = _prefix(quads, k)
            assert np.array_equal(shared, fresh)
            # The same layout too, so every product over them rounds the same way.
            assert shared.strides == fresh.strides

    @pytest.mark.parametrize("trials,seed", [(100, 0), (100, 7), (1, 0), (1, 7)])
    def test_probes_and_suite_equal_the_probe_by_probe_bodies(self, trials, seed):
        for model in MODELS:
            expected = _probe_by_probe(model, trials, seed)
            assert curvature_program(model, trials, seed)._asdict() == expected
            cfg = _curvature_config(model.n, model.c_p, model.c_q, trials, seed)
            structure = cfg.build_structure()
            expected = _probe_by_probe(
                SpaceFormModel.from_structure(structure, model.c_p, model.c_q), trials, seed)
            report = run_curvature_suite(cfg, structure, cfg.tolerances)
            assert report["identities"] == expected["identities"]
            assert report["ricci_phi"] == expected["ricci_phi"]
            for key in ("commutation", "rs_corollary", "rs_phi_propositions",
                        "rs_closed_form_gap", "non_semi_symmetry_probe"):
                assert report["findings"][key] == expected[key], key

    def test_suite_draws_once_and_evaluates_each_curvature_once(self, monkeypatch):
        calls = []

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.random, "default_rng",
                            counted("draw", np.random.default_rng))
        monkeypatch.setattr(spaceform, "curvature", counted("curvature", curvature))
        cfg = _curvature_config(8, 1.0, -1.0, trials=200, seed=7)
        run_curvature_suite(cfg, cfg.build_structure(), cfg.tolerances)
        # 4 distinct R values on the triples and 11 on the 4-tuples.
        assert calls.count("draw") == 1
        assert calls.count("curvature") == 15
