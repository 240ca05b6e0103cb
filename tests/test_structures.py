"""Golden structures, involutions and their conversions."""

import numpy as np
import pytest

import goldenslant.exactlin as xl
from goldenslant.errors import (
    BadSignature,
    DimensionMismatch,
    InvalidInvolution,
    InvalidStructure,
    MetricIncompat,
)
from goldenslant.quadrat import ONE_MINUS_PSI, PSI, QuadRat
from goldenslant.structures import (
    AlmostProductStructure,
    GoldenStructure,
    Metric,
    diagonal_golden,
    golden_eigendecomp,
    golden_from_product,
    product_from_golden,
    random_golden,
    verify_golden,
)

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

    def test_float_backend(self):
        phi = np.diag([PSI_F, 1 - PSI_F])
        report = verify_golden(phi, Metric.euclidean(2, backend="float"))
        assert report.passed and report.backend == "float" and not report.exact_zero


class TestConversions:
    def test_identity_involution_gives_psi_scaling(self):
        f = AlmostProductStructure(_eye_exact(2), Metric.euclidean(2))
        s = golden_from_product(f)
        assert np.array_equal(s.phi, _diag_exact([PSI, PSI]))

    def test_signature_involution_matches_known_structure(self):
        f = AlmostProductStructure(_diag_exact([1, 1, -1, -1]), Metric.euclidean(4))
        s = golden_from_product(f)
        assert np.array_equal(s.phi, _diag_exact([PSI, PSI, ONE_MINUS_PSI, ONE_MINUS_PSI]))
        assert verify_golden(s.phi, s.metric).exact_zero

    def test_negated_identity_gives_conjugate_root(self):
        f = AlmostProductStructure(_diag_exact([-1, -1, -1]), Metric.euclidean(3))
        s = golden_from_product(f)
        assert np.array_equal(s.phi, _diag_exact([ONE_MINUS_PSI] * 3))

    def test_product_from_golden_recovers_signature(self):
        s = diagonal_golden(["psi", "psi", "one_minus_psi", "one_minus_psi"])
        f = product_from_golden(s)
        assert np.array_equal(f.f, _diag_exact([1, 1, -1, -1]))

    def test_psi_identity_maps_to_identity_involution(self):
        s = diagonal_golden(["psi", "psi"])
        assert np.array_equal(product_from_golden(s).f, _eye_exact(2))

    def test_roundtrip_exact_is_bit_exact(self):
        s = diagonal_golden(["psi", "one_minus_psi", "psi", "one_minus_psi"])
        back = golden_from_product(product_from_golden(s))
        assert np.array_equal(back.phi, s.phi)

    def test_roundtrip_float_random(self):
        s = random_golden(6, 2, seed=11)
        back = golden_from_product(product_from_golden(s))
        assert np.abs(back.phi_float - s.phi_float).max() <= 1e-12

    def test_invalid_involution_rejected(self):
        bad = AlmostProductStructure(_diag_exact([1, 2]), Metric.euclidean(2),
                                     validate=False)
        with pytest.raises(InvalidInvolution):
            golden_from_product(bad)

    def test_metric_incompatibility_rejected(self):
        f = [[QuadRat(0), QuadRat(1)], [QuadRat(1), QuadRat(0)]]
        metric = Metric([[QuadRat(2), QuadRat(0)], [QuadRat(0), QuadRat(1)]])
        bad = AlmostProductStructure(f, metric, validate=False)
        with pytest.raises(MetricIncompat):
            golden_from_product(bad)


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

    def test_bad_signature(self):
        with pytest.raises(BadSignature):
            random_golden(3, 4, seed=0)

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
        f = product_from_golden(s).f
        assert np.abs(f @ basis_psi - basis_psi).max() <= 1e-10
        # g-orthogonality across the two spaces
        assert np.abs(basis_psi.T @ basis_neg).max() <= 1e-10


class TestMetricAndInvariants:
    def test_metric_requires_symmetry(self):
        with pytest.raises(InvalidStructure):
            Metric([[QuadRat(1), QuadRat(1)], [QuadRat(0), QuadRat(1)]])

    def test_metric_requires_positive_definiteness(self):
        with pytest.raises(InvalidStructure):
            Metric(_diag_exact([1, -1]))

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

    def test_validate_false_escape_hatch(self):
        s = GoldenStructure(_eye_exact(2), Metric.euclidean(2), validate=False)
        assert not verify_golden(s.phi, s.metric).passed
