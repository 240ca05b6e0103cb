"""Golden structures, involutions and their conversions."""

import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import goldenslant.exactlin as xl
import goldenslant.suites as suites
from goldenslant.cli import list_bundled, resolve_config
from goldenslant.config import load_config
from goldenslant.errors import (
    DimensionMismatch,
    InvalidInvolution,
    InvalidStructure,
    MetricIncompat,
)
from goldenslant.quadrat import ONE_MINUS_PSI, PSI, SQRT5, QuadRat
from goldenslant.structures import (
    GoldenStructure,
    Metric,
    _amax,
    _spectral,
    _worst_spectral,
    diagonal_golden,
    golden_eigendecomp,
    golden_from_product,
    golden_matrix,
    product_from_golden,
    product_matrix,
    verify_golden,
)
from goldenslant.suites import run_scenario
from support import random_golden

PSI_F = float(PSI)


def _diag_exact(values):
    return xl.qmatrix(np.diag(np.array(values, dtype=object)))


def _eye_exact(n):
    return _diag_exact([1] * n)


class TestVerifyGolden:
    def test_diagonal_structure_is_exactly_golden(self):
        phi = _diag_exact([PSI, PSI, ONE_MINUS_PSI, ONE_MINUS_PSI])
        report = verify_golden(phi, Metric.euclidean(4))
        assert report.passed and report.exact_zero
        assert max(report.residual_structure, report.residual_self_adjoint,
                   report.residual_compat) == 0.0

    def test_alternating_diagonal_is_exactly_golden(self):
        phi = _diag_exact([PSI, ONE_MINUS_PSI, PSI, ONE_MINUS_PSI])
        report = verify_golden(phi, Metric.euclidean(4))
        assert report.passed and report.exact_zero

    def test_identity_fails_with_unit_residual(self):
        phi = _eye_exact(3)
        report = verify_golden(phi, Metric.euclidean(3))
        assert not report.passed
        assert report.residual_structure == 1.0  # phi^2 - phi - I = -I

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            verify_golden(_eye_exact(3), Metric.euclidean(4))

    @pytest.mark.parametrize("matrix", [
        np.ones((2, 3)),  # read by its shape
        xl.qmatrix([[1, 0, 0], [0, 1, 0]]),  # read by its shape, not row by row
        [[1, 0], [0, 1, 0]],  # nested rows are read row by row
        np.ones(4),
    ], ids=["ndarray", "qmatrix", "ragged-rows", "vector"])
    def test_non_square_matrices(self, matrix):
        with pytest.raises(DimensionMismatch, match="must be square"):
            Metric(matrix)
        with pytest.raises(DimensionMismatch, match="must be square"):
            GoldenStructure(matrix, Metric(np.eye(2)))
        with pytest.raises(DimensionMismatch, match="must be square"):
            golden_from_product(matrix, Metric.euclidean(2))

    def test_square_check_reads_no_qmatrix_row(self, monkeypatch):
        monkeypatch.setattr(xl.QMatrix, "__iter__", None)
        phi = _diag_exact([PSI, ONE_MINUS_PSI])
        assert GoldenStructure(phi, Metric(xl.eye(2))).n == 2

    def test_float_backend(self):
        phi = np.diag([PSI_F, 1 - PSI_F])
        report = verify_golden(phi, Metric(np.eye(2)))
        assert report.passed and report.backend == "float" and not report.exact_zero


class TestConversions:
    def test_identity_involution_gives_psi_scaling(self):
        s = golden_from_product(_eye_exact(2), Metric.euclidean(2))
        assert np.array_equal(s.phi, _diag_exact([PSI, PSI]))

    def test_signature_involution_matches_known_structure(self):
        s = golden_from_product(_diag_exact([1, 1, -1, -1]), Metric.euclidean(4))
        assert np.array_equal(s.phi, _diag_exact([PSI, PSI, ONE_MINUS_PSI, ONE_MINUS_PSI]))
        assert verify_golden(s.phi, s.metric).exact_zero

    def test_negated_identity_gives_conjugate_root(self):
        s = golden_from_product(_diag_exact([-1, -1, -1]), Metric.euclidean(3))
        assert np.array_equal(s.phi, _diag_exact([ONE_MINUS_PSI] * 3))

    def test_product_from_golden_recovers_signature(self):
        s = diagonal_golden(["psi", "psi", "one_minus_psi", "one_minus_psi"])
        assert np.array_equal(product_from_golden(s), _diag_exact([1, 1, -1, -1]))

    def test_psi_identity_maps_to_identity_involution(self):
        s = diagonal_golden(["psi", "psi"])
        assert np.array_equal(product_from_golden(s), _eye_exact(2))

    def test_roundtrip_exact_is_bit_exact(self):
        s = diagonal_golden(["psi", "one_minus_psi", "psi", "one_minus_psi"])
        back = golden_from_product(product_from_golden(s), s.metric)
        assert np.array_equal(back.phi, s.phi)

    def test_roundtrip_float_random(self):
        s = random_golden(6, 2, seed=11)
        back = golden_from_product(product_from_golden(s), s.metric)
        assert np.abs(back.phi_float - s.phi_float).max() <= 1e-12

    def test_invalid_involution_rejected(self):
        with pytest.raises(InvalidInvolution):
            golden_from_product(_diag_exact([1, 2]), Metric.euclidean(2))

    def test_metric_incompatibility_rejected(self):
        f = [[QuadRat(0), QuadRat(1)], [QuadRat(1), QuadRat(0)]]
        metric = Metric([[QuadRat(2), QuadRat(0)], [QuadRat(0), QuadRat(1)]])
        with pytest.raises(MetricIncompat):
            golden_from_product(f, metric)


class TestRandomGolden:
    def test_all_plus_signature_is_psi_identity(self):
        s = random_golden(4, 4, seed=3)
        assert np.abs(s.phi_float - PSI_F * np.eye(4)).max() <= 1e-12

    def test_all_minus_signature_is_conjugate_identity(self):
        s = random_golden(4, 0, seed=5)
        assert np.abs(s.phi_float - (1 - PSI_F) * np.eye(4)).max() <= 1e-12

    def test_random_structure_verifies(self):
        s = random_golden(6, 3, seed=7)
        report = verify_golden(s.phi, s.metric)
        assert max(report.residual_structure, report.residual_self_adjoint,
                   report.residual_compat) <= 1e-12

    def test_deterministic_per_seed(self):
        a = random_golden(5, 2, seed=9)
        b = random_golden(5, 2, seed=9)
        assert np.array_equal(a.phi_float, b.phi_float)
        c = random_golden(5, 2, seed=10)
        assert not np.array_equal(a.phi_float, c.phi_float)

    def test_determinant_is_product_of_eigenvalues(self):
        for n, p, seed in [(4, 2, 0), (6, 2, 3), (5, 4, 1), (8, 4, 2)]:
            s = random_golden(n, p, seed)
            expected = PSI_F**p * (1 - PSI_F) ** (n - p)
            assert np.isclose(np.linalg.det(s.phi_float), expected, rtol=1e-9)
            if 2 * p == n:  # balanced signature: paired roots multiply to -1
                assert np.isclose(np.linalg.det(s.phi_float), (-1.0) ** (n - p))

    def test_eigenvalues_are_the_two_roots(self):
        s = random_golden(7, 3, seed=13)
        vals = np.sort(np.linalg.eigvalsh(s.phi_float))
        assert np.allclose(vals[:4], 1 - PSI_F, atol=1e-10)
        assert np.allclose(vals[4:], PSI_F, atol=1e-10)


class TestEigendecomp:
    def test_diagonal_structure_spans(self):
        s = diagonal_golden(["psi", "psi", "one_minus_psi", "one_minus_psi"])
        basis_psi, basis_neg = golden_eigendecomp(s)
        psi_cols = np.asarray(basis_psi, dtype=float)
        neg_cols = np.asarray(basis_neg, dtype=float)
        assert psi_cols.shape == (4, 2) and neg_cols.shape == (4, 2)
        assert np.abs(psi_cols[2:]).max() == 0.0  # spans {e1, e2}
        assert np.abs(neg_cols[:2]).max() == 0.0  # spans {e3, e4}

    def test_scalar_structure_has_full_and_empty_spaces(self):
        s = diagonal_golden(["psi", "psi", "psi"])
        basis_psi, basis_neg = golden_eigendecomp(s)
        assert len(basis_psi) == 3 and len(basis_psi[0]) == 3
        assert all(len(row) == 0 for row in basis_neg)

    def test_random_structure_matches_involution_eigenspaces(self):
        s = random_golden(6, 2, seed=3)
        basis_psi, basis_neg = golden_eigendecomp(s)
        assert basis_psi.shape[1] == 2 and basis_neg.shape[1] == 4
        phi = s.phi_float
        assert np.abs(phi @ basis_psi - PSI_F * basis_psi).max() <= 1e-10
        assert np.abs(phi @ basis_neg - (1 - PSI_F) * basis_neg).max() <= 1e-10
        # The psi eigenspace is the +1 eigenspace of the underlying involution.
        f = product_from_golden(s)
        assert np.abs(f @ basis_psi - basis_psi).max() <= 1e-10
        # g-orthogonality across the two spaces
        assert np.abs(basis_psi.T @ basis_neg).max() <= 1e-10


def _count_above_one_half(s) -> int:
    return int(np.count_nonzero(np.linalg.eigvalsh(s.phi_hat) > 0.5))


CONFIG_PATHS = ([resolve_config(name) for name in list_bundled()]
                + sorted((Path(__file__).parent / "configs").glob("*.cfg")))


class TestEigenspaceDims:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 32])
    def test_random_structures_count_the_eigenvalues_above_one_half(self, n):
        for p in sorted({0, 1, n // 2, n - 1, n}):
            s = random_golden(n, p, seed=n + p)
            assert s.eigenspace_dims == (_count_above_one_half(s), n - p) == (p, n - p)

    @pytest.mark.parametrize("path", CONFIG_PATHS, ids=lambda path: path.stem)
    def test_config_structures_on_both_backends(self, path):
        exact = load_config(path).build_structure()
        for s in (exact, exact.to_float()):
            p = _count_above_one_half(s)
            assert s.eigenspace_dims == (p, s.n - p), (s.backend, s.eigenspace_dims)


_big = st.integers(-10 ** 40, 10 ** 40)
_entries = st.builds(lambda a, b, d: QuadRat(Fraction(a, d), Fraction(b, d)), _big, _big,
                     st.integers(1, 10 ** 12))


class TestProductRoundTrip:
    """``(I + sqrt5 (2 phi - I)/sqrt5)/2 = phi`` is an identity of Q(sqrt5), so the structure
    suite reports 0 for an exact phi without computing it; these tests compute it."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(_entries, min_size=n,
                                                                  max_size=n),
                                                         min_size=n, max_size=n)))
    def test_golden_of_product_is_any_exact_matrix_exactly(self, rows):
        phi = xl.qmatrix(rows)
        assert golden_matrix(product_matrix(phi)) == phi

    @pytest.mark.parametrize("path", CONFIG_PATHS, ids=lambda path: path.stem)
    def test_golden_of_product_is_each_config_phi_exactly(self, path):
        phi = load_config(path).build_structure().phi
        assert golden_matrix(product_matrix(phi)) == phi

    def test_structure_suite_measures_the_round_trip_on_the_float_backend(self, monkeypatch):
        calls = []
        monkeypatch.setattr(suites, "product_matrix",
                            lambda phi: calls.append(1) or product_matrix(phi))
        cfg = load_config(Path(__file__).parent / "configs" / "ill_conditioned_involution.cfg")
        roundtrip = {backend: run_scenario(cfg, backend=backend)["suites"]["structure"][
            "residuals"]["product_roundtrip"] for backend in ("auto", "float")}
        phi = cfg.build_structure().to_float().phi
        assert roundtrip["auto"] == 0.0 and len(calls) == 1
        assert roundtrip["float"] == float(_amax(golden_matrix(product_matrix(phi)) - phi)) > 0


class TestMetricAndInvariants:
    def test_metric_requires_symmetry(self):
        with pytest.raises(InvalidStructure):
            Metric([[QuadRat(1), QuadRat(1)], [QuadRat(0), QuadRat(1)]])

    def test_metric_requires_positive_definiteness(self):
        with pytest.raises(InvalidStructure):
            Metric(_diag_exact([1, -1]))

    @pytest.mark.parametrize("entries", [
        [[np.inf, 0.0], [0.0, 1.0]], [[1.0, np.inf], [np.inf, 1.0]], [[1.0, np.nan], [np.nan, 1.0]],
        [[1.0, 0.0], [0.0, -1.0]], [[1.0, 2.0], [2.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]],
    ], ids=["inf_diagonal", "inf_off_diagonal", "nan", "negative", "indefinite", "singular"])
    def test_float_metric_must_be_finite_and_positive_definite(self, entries):
        with pytest.raises(InvalidStructure):
            Metric(np.array(entries))

    def test_non_euclidean_exact_metric_with_compatible_phi(self):
        metric = Metric(_diag_exact([2, 3]))
        phi = _diag_exact([PSI, ONE_MINUS_PSI])
        report = verify_golden(phi, metric)
        assert report.passed and report.exact_zero

    def test_compatibility_on_random_vectors(self):
        s = random_golden(5, 3, seed=21)
        phi, g = s.phi_float, s.metric.matrix
        rng = np.random.default_rng(0)
        for _ in range(100):
            x, y = rng.standard_normal((2, 5))
            lhs = (phi @ x) @ g @ (phi @ y)
            rhs = (phi @ x) @ g @ y + x @ g @ y
            assert abs(lhs - rhs) <= 1e-10

    def test_invalid_structure_rejected_at_construction(self):
        with pytest.raises(InvalidStructure):
            GoldenStructure(_eye_exact(2), Metric.euclidean(2))

    def test_a_given_report_is_kept_unchecked(self):
        report = verify_golden(_eye_exact(2), Metric.euclidean(2))
        s = GoldenStructure(_eye_exact(2), Metric.euclidean(2), report)
        assert s.report is report and not s.report.passed


def _general_identity(n):
    """``Metric.euclidean(n)`` handled as any other exact metric: factored by ``xl.ldl``."""
    metric = Metric.euclidean(n)
    metric.is_identity, metric.factor = False, xl.ldl(metric.entries)
    return metric


def _patterns():
    """Every pattern with n <= 6, and seeded random ones at n = 8, 16 and 32."""
    out = [list(p) for n in range(1, 7)
           for p in itertools.product(["psi", "one_minus_psi"], repeat=n)]
    rng = np.random.default_rng(20)
    return out + [list(rng.choice(["psi", "one_minus_psi"], size=n))
                  for n in (8, 16, 32) for _ in range(3)]


def _counting(monkeypatch, *names):
    """Count the calls of the exactlin functions ``names``."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _f=getattr(xl, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(xl, name, counted)
    return calls


class TestIdentityMetric:
    def test_identity_is_known_by_its_value(self):
        assert Metric.euclidean(3).is_identity
        assert Metric(_diag_exact([Fraction(2, 2), 1])).is_identity
        assert Metric(_eye_exact(2)).factor == (_eye_exact(2), _eye_exact(2))
        # p = I but d = 2, p = I and d = 1 but q != 0, and d = 1, q = 0 but p = 2 I
        for entries in ([Fraction(1, 2)] * 2, [1 + SQRT5, 1], [2, 2]):
            assert not Metric(_diag_exact(entries)).is_identity
        assert not Metric(np.eye(2)).is_identity

    def test_pattern_structure_equals_the_validated_reference(self):
        roots = {"psi": PSI, "one_minus_psi": ONE_MINUS_PSI}
        for pattern in _patterns():
            built = diagonal_golden(pattern)
            ref = GoldenStructure(_diag_exact([roots[name] for name in pattern]),
                                  _general_identity(len(pattern)))
            assert built.phi == ref.phi and built.report == ref.report, pattern
            assert built.phi_hat.tobytes() == ref.phi_hat.tobytes(), pattern
            view, ref_view = built.to_float(), ref.to_float()
            for name in ("phi", "phi_hat"):
                assert getattr(view, name).tobytes() == getattr(ref_view, name).tobytes()
            for name in ("entries", "w", "w_inv"):
                assert getattr(view.metric, name).tobytes() == getattr(ref_view.metric,
                                                                         name).tobytes()
            assert view.report == ref_view.report, pattern

    def test_build_and_phi_hat_do_no_elimination_or_product(self, monkeypatch):
        calls = _counting(monkeypatch, "ldl", "matmul")
        for n in (4, 32):
            s = diagonal_golden(["psi", "one_minus_psi"] * (n // 2))
            s.report, s.phi_hat
            assert s.report.exact_zero
        assert calls == {"ldl": 0, "matmul": 0}

    def test_float_view_converts_no_exact_entry(self, monkeypatch):
        views = []
        to_array = xl.QMatrix.__array__
        monkeypatch.setattr(xl.QMatrix, "__array__",
                            lambda self, *args, **kw: views.append(1) or to_array(self, *args, **kw))
        view = Metric.euclidean(4).to_float()
        assert not views
        for name in ("entries", "w", "w_inv", "matrix"):
            assert np.array_equal(getattr(view, name), np.eye(4)), name

    def test_other_metrics_are_still_validated(self, monkeypatch):
        calls = _counting(monkeypatch, "ldl", "matmul")
        s = diagonal_golden(["psi", "one_minus_psi"], Metric(_diag_exact([2, 3])))
        assert s.report.exact_zero and calls["ldl"] == 1 and calls["matmul"] > 0
        with pytest.raises(InvalidStructure):
            diagonal_golden(["psi", "one_minus_psi"], Metric(xl.qmatrix([[2, 1], [1, 2]])))
        with pytest.raises(DimensionMismatch):
            diagonal_golden(["psi"] * 3, Metric.euclidean(4))


class TestSpectralNorm:
    @pytest.mark.parametrize("scale", [1.0, 1e-170, 1e200])
    @pytest.mark.parametrize("shape", [(40, 2, 2), (30, 3, 3), (20, 5, 5), (10, 4, 6), (3, 3)])
    def test_matches_the_svd_norm_and_bounds_the_entries(self, shape, scale):
        rng = np.random.default_rng(sum(shape))
        a = rng.standard_normal(shape) * scale
        got, svd = _spectral(a), np.linalg.norm(a, 2, axis=(-2, -1))
        eps = np.finfo(float).eps
        assert np.all(np.abs(got - svd) <= 4 * eps * svd)
        assert np.all(got >= np.abs(a).max(axis=(-2, -1)) * (1 - 4 * eps))

    def test_zero_and_non_finite_matrices(self):
        a = np.zeros((4, 2, 2))
        a[1, 0, 1], a[2, 1, 1], a[3, 0, 0] = np.nan, np.inf, -0.0
        got = _spectral(a)
        assert got[0] == 0.0 and np.isnan(got[1]) and got[2] == np.inf
        assert got[3] == 0.0 and not np.signbit(got[3])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_stacked_stacks_give_each_stack_its_own_bits(self, data):
        # The point suites measure several same-shape stacks in one call.
        k, points, rows, cols = (data.draw(st.integers(1, hi)) for hi in (4, 5, 4, 4))
        entry = st.one_of(
            st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]),
            st.sampled_from([1e300, -1e300, 1e-300, -1e-300, 1.7e308, 5e-324]))
        stacks = np.array(data.draw(st.lists(entry, min_size=k * points * rows * cols,
                                             max_size=k * points * rows * cols)))
        stacks = stacks.reshape(k, points, rows, cols)
        with np.errstate(over="ignore", invalid="ignore"):  # a norm past the float range
            together = _spectral(stacks)
            apart = np.array([_spectral(stack) for stack in stacks])
        assert together.shape == (k, points)
        assert together.tobytes() == apart.tobytes()


    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_worst_value_has_the_bits_of_the_max_over_points(self, data):
        k, points, rows, cols = (data.draw(st.integers(1, hi)) for hi in (3, 6, 3, 3))
        size = k * points * rows * cols
        # Few distinct values give tied maxima; the scale moves them past either float limit.
        entry = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0]))
        stack = np.array(data.draw(st.lists(entry, min_size=size, max_size=size)))
        stack *= data.draw(st.sampled_from([1.0, 1e-300, 1e-160, 1e145, 1e300, 5e-324]))
        special = st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300, 1e-300, 5e-324,
                                   1.7e308])
        for i, value in data.draw(st.lists(st.tuples(st.integers(0, size - 1), special),
                                           max_size=2)):
            stack[i] = value
        stack = stack.reshape(k, points, rows, cols)
        with np.errstate(over="ignore", invalid="ignore"):  # a norm past the float range
            worst = _worst_spectral(stack)
            want = _spectral(stack).max(axis=-1)
        assert worst.shape == (k,)
        assert worst.tobytes() == want.tobytes()

    def test_worst_value_keeps_a_point_whose_sum_of_squares_underflows(self):
        # Every square of 5e-324 rounds to 0, but the 3 x 3 matrix of it has norm 1.5e-323,
        # above the largest entry, 1e-323, of the other point.
        tiny = np.finfo(float).smallest_subnormal
        stack = np.zeros((1, 2, 3, 3))
        stack[0, 0], stack[0, 1, 0, 0] = tiny, 2 * tiny
        assert _worst_spectral(stack)[0] == _spectral(stack[0, 0]) == 3 * tiny

    def test_worst_value_runs_eigvalsh_only_where_the_worst_can_be(self, monkeypatch):
        sizes, original = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: sizes.append(a.shape[:-2]) or original(a))
        stack = np.zeros((2, 50, 2, 2))
        stack[:, :, 0, 0] = np.arange(1.0, 51.0)  # the last point holds each form's worst
        stack[1, 10, 1, 1] = np.nan  # is kept, and makes its form's worst NaN
        worst = _worst_spectral(stack)
        assert worst[0] == 50.0 and np.isnan(worst[1]) and sizes == [(51,)]


class TestAmax:
    def test_keeps_a_single_nan(self):
        assert math.isnan(_amax(np.array([[0.5, np.nan], [-2.0, 1.0]]), None))
        worst = _amax(np.array([[0.5, -3.0], [-2.0, 1.0]]), None)
        assert worst == 3.0 and type(worst) is float
        assert _amax(np.array([0.5, -4.0, 1.0]), None) == 4.0
