"""The metric's Euclidean model: one exact factor per metric, shared by every float route.

An exact metric is factored once as ``g = L D L^T``; the float routes work in
``y = W x`` with ``W = D^(1/2) L^T`` and read phi as ``phi_hat = W phi W^-1``,
the exact congruence rounded once.  So their rounding does not grow with
``cond(g)``, which the ill-conditioned scenarios below check.  A float
structure's axioms and the space-form curvature program are measured in the
same model.
"""

import json
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import goldenslant.exactlin as xl
from goldenslant.cli import EXIT_OK, main
from goldenslant.config import SpaceformSection, Tolerances, load_config
from goldenslant.quadrat import QuadRat
from goldenslant.structures import (
    GoldenStructure,
    Metric,
    golden_from_product,
    product_matrix,
    verify_golden,
)
from goldenslant.submanifold import (
    ImmersionSpec,
    SampleSpec,
    exact_frame,
    exact_identity_residuals,
    exact_induced_operators,
    point_geometry,
    structural_identity_residuals,
)
from goldenslant.suites import run_curvature_suite, run_scenario
from support import orthonormality_gap

CONFIGS = Path(__file__).parent / "configs"
ILL_CONDITIONED = CONFIGS / "ill_conditioned_involution.cfg"
FLOAT_BOUND = 1e-13
EPS = np.finfo(float).eps


def test_ill_conditioned_involution_config_passes(tmp_path, capsys):
    # Its frames once lost 1e-9 in Cholesky coordinates of g, failing the identities suite.
    assert np.linalg.cond(load_config(ILL_CONDITIONED).build_structure().metric.matrix) >= 1e6
    path = tmp_path / "report.json"
    assert main(["run", str(ILL_CONDITIONED), "--report", str(path)]) == EXIT_OK
    capsys.readouterr()
    identities = json.loads(path.read_text())["suites"]["identities"]
    assert identities["exact"]["all_zero"]
    assert max(identities["residuals"].values()) <= FLOAT_BOUND, identities["residuals"]
    cfg = load_config(ILL_CONDITIONED)
    structure = cfg.build_structure()
    geom = point_geometry(cfg.build_immersion(), structure.metric, structure)
    assert np.max(orthonormality_gap(geom.frame.onb)) <= FLOAT_BOUND


def _text(x: QuadRat) -> str:
    return f"({x.a.numerator}/{x.a.denominator}+{x.b.numerator}/{x.b.denominator}*sqrt5)"


def _ill_conditioned_scenarios(seed: int, count: int, min_cond: float = 1e5):
    """``count`` exact golden structures F = S D S^-1 with the compatible metric
    g = S^-T B S^-1 (S integer in [-8, 8], D = diag(+-1), B = diag of 1..3, n = 3..5)
    with cond(g) >= ``min_cond``, each with a linear immersion of full rank whose
    Jacobian entries are (a + b sqrt5)/d, a, b in [-2, 2] and d in {1, 2, 3}."""
    rng = random.Random(seed)
    while count:
        n = rng.randint(3, 5)
        m = rng.randint(1, n - 1)
        rows = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(n)]
        signs = [rng.choice([1, -1]) for _ in range(n)]
        weights = [rng.randint(1, 3) for _ in range(n)]
        # cond(g) = cond(g^-1) = cond(S B^-1 S^T), screened in floats before the exact work
        s_float = np.array(rows, dtype=float)
        if not np.linalg.cond(s_float @ np.diag(1.0 / np.array(weights)) @ s_float.T) >= min_cond:
            continue
        s = xl.qmatrix(rows)
        try:
            s_inv = xl.solve(s, xl.eye(n))
        except ZeroDivisionError:
            continue
        g = s_inv.T @ xl.qmatrix(np.diag(weights)) @ s_inv
        if not np.linalg.cond(np.asarray(g, dtype=float)) >= min_cond:
            continue
        jac = [[QuadRat(Fraction(rng.randint(-2, 2), d), Fraction(rng.randint(-2, 2), d))
                for d in [rng.choice([1, 2, 3])] for _ in range(m)] for _ in range(n)]
        if np.linalg.svd(np.asarray(xl.qmatrix(jac), dtype=float), compute_uv=False).min() < 1e-3:
            continue
        count -= 1
        yield s @ xl.qmatrix(np.diag(signs)) @ s_inv, Metric(g), jac


def test_float_residuals_stay_flat_on_ill_conditioned_exact_scenarios():
    worst, count = {}, 0
    for f, metric, jac in _ill_conditioned_scenarios(seed=3, count=150):
        structure = golden_from_product(f, metric)
        params = [f"u{j + 1}" for j in range(len(jac[0]))]
        components = ["+".join(f"{_text(c)}*{u}" for c, u in zip(row, params)) for row in jac]
        imm = ImmersionSpec.from_strings(params, components,
                                         SampleSpec(grid=((-1.0, 1.0, 2),) * len(params)))
        exact = exact_identity_residuals(exact_induced_operators(exact_frame(imm, metric),
                                                                 structure))
        assert not any(exact.values())
        geom = point_geometry(imm, metric, structure)
        residuals = structural_identity_residuals(geom.ops)
        residuals["frame_gram"] = orthonormality_gap(geom.frame.onb)
        for key, values in residuals.items():
            worst[key] = max(worst.get(key, 0.0), float(np.max(values)))
        count += 1
    assert count == 150 and len(worst) == 7
    assert max(worst.values()) <= FLOAT_BOUND, worst


def test_curvature_program_passes_on_ill_conditioned_exact_scenarios():
    # In the ambient coordinates x all 150 failed, with pair symmetry up to 4.8.
    worst = {}
    for f, metric, _ in _ill_conditioned_scenarios(seed=3, count=150):
        structure = golden_from_product(f, metric)
        p = int((f.shape[0] + float(sum(f.diagonal()))) / 2)  # F is +1 on the psi-eigenspace
        cfg = SimpleNamespace(spaceform=SpaceformSection(c_p=1.0, c_q=-1.0, p=p, seed=7))
        report = run_curvature_suite(cfg, structure, Tolerances())
        assert report["pass"], report["identities"]
        for key, value in report["identities"].items():
            worst[key] = max(worst.get(key, 0.0), value)
    # Four exact identities and the oracle, which reads the structure through phi_hat.
    assert len(worst) == 5 and max(worst.values()) <= 1e-12, worst


def test_float_axioms_are_measured_in_the_model():
    # In x, g's entries of 4.4e3 gave a metric_compat residual of 9.6e-9 > tol_struct.
    structure = load_config(ILL_CONDITIONED).build_structure()
    view = structure.to_float()
    report = view.report
    assert max(report.residual_structure, report.residual_self_adjoint,
               report.residual_compat) <= 4 * EPS
    # A float phi or F is read through W phi W^-1, rounded in floats.
    assert verify_golden(view.phi, view.metric).passed
    assert GoldenStructure(view.phi, structure.metric).report.passed
    assert golden_from_product(product_matrix(view.phi), view.metric).report.passed


@pytest.mark.parametrize("backend", ["auto", "float"])
@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda path: path.stem)
def test_regression_configs_pass(path, backend, capsys):
    assert main(["run", str(path), "--backend", backend]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["overall_pass"]


def _refuse(*args, **kwargs):
    raise AssertionError("a float factor of an exact metric")


def test_float_view_shares_the_exact_model(monkeypatch):
    structure = load_config(ILL_CONDITIONED).build_structure()
    view = structure.to_float()
    assert view.phi_hat is structure.phi_hat
    w, g = view.metric.w, structure.metric.matrix
    assert np.abs(w.T @ w - g).max() <= 4e-16 * np.abs(g).max()
    w_inv = view.metric.w_inv
    assert np.all(np.abs(w @ w_inv - np.eye(4)) <= 8 * EPS * (np.abs(w) @ np.abs(w_inv)))
    # An exactly compatible phi gives an exactly symmetric congruence, rounded once.
    assert np.array_equal(view.phi_hat, view.phi_hat.T)
    for name in ("cholesky", "inv"):
        monkeypatch.setattr(np.linalg, name, _refuse)
    # The first-order terms solve the frames' m x m tangent coordinates; a system of the
    # metric's size n x n is refused.
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: _refuse() if a.shape[-1] == structure.n
                        else solve(a, b))
    cfg = load_config(ILL_CONDITIONED)
    suites = run_scenario(cfg, backend="float")["suites"]
    assert suites["identities"]["pass"] and suites["slant"]["pass"]
    fresh = cfg.build_structure()
    geom = point_geometry(cfg.build_immersion(), fresh.metric, fresh)
    assert np.max(orthonormality_gap(geom.frame.onb)) <= FLOAT_BOUND
