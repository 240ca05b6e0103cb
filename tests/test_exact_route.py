"""One implementation per identity, one exact pass per scenario, one validation per build."""

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import goldenslant.exactlin as xl
from goldenslant.cli import resolve_config
from goldenslant.config import load_config, parse_config
from goldenslant.expr import Expr
from goldenslant.quadrat import PSI, QuadRat
from goldenslant.slant import (
    _characterization,
    _cos2_forms,
    _lemma_residuals,
    _tq_residuals,
    exact_slant_data,
)
from goldenslant.structures import (
    AlmostProductStructure,
    Metric,
    _amax,
    _check_involution,
    _structure_residuals,
    diagonal_golden,
    golden_from_product,
    verify_golden,
)
from goldenslant.submanifold import (
    ImmersionSpec,
    SampleSpec,
    block_identity_residuals,
    exact_frame,
    exact_identity_residuals,
    exact_induced_operators,
    point_geometry,
)
from goldenslant.suites import run_scenario


def _text(x: QuadRat) -> str:
    return f"({x.a.numerator}/{x.a.denominator}+{x.b.numerator}/{x.b.denominator}*sqrt5)"


def _immersion(jac, grid=2) -> ImmersionSpec:
    """Linear immersion with the exact n x m Jacobian ``jac``."""
    m = len(jac[0])
    params = [f"u{j + 1}" for j in range(m)]
    components = ["+".join(f"{_text(c)}*{u}" for c, u in zip(row, params)) for row in jac]
    return ImmersionSpec.from_strings(params, components,
                                      SampleSpec(grid=((-1.0, 1.0, grid),) * m))


_small = st.integers(-2, 2)
_quad = st.builds(lambda a, b, d: QuadRat(Fraction(a, d), Fraction(b, d)), _small, _small,
                  st.sampled_from([1, 2, 3]))


@st.composite
def exact_scenarios(draw):
    """A golden structure F = S D S^-1 with the compatible metric g = S^-T B S^-1
    (D = diag(+-1), B positive diagonal) and a linear immersion with a Q(sqrt5) Jacobian."""
    n = draw(st.integers(3, 5))
    m = draw(st.integers(1, n - 1))
    s = xl.qmatrix(draw(st.lists(st.lists(_small, min_size=n, max_size=n),
                                 min_size=n, max_size=n)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    jac = draw(st.lists(st.lists(_quad, min_size=m, max_size=m), min_size=n, max_size=n))
    eye = xl.qmatrix(np.eye(n, dtype=object))
    try:
        s_inv = xl.solve(s, eye)
    except ZeroDivisionError:
        assume(False)
    f = s @ xl.qmatrix(np.diag(signs)) @ s_inv
    g = s_inv.T @ xl.qmatrix(np.diag(weights)) @ s_inv
    return f, Metric(g), jac


@settings(max_examples=40, deadline=None)
@given(exact_scenarios())
def test_shared_identities_are_exact_zeros_and_float_small(scenario):
    f, metric, jac = scenario
    _check_involution(f, metric, 0.0)  # raises on a nonzero residual
    structure = golden_from_product(AlmostProductStructure(f, metric, validate=False))
    assert structure.report.exact_zero
    imm = _immersion(jac)
    frame = exact_frame(imm, metric)
    assume(frame is not None)  # a rank-deficient Jacobian has no exact route
    exact = exact_identity_residuals(exact_induced_operators(frame, structure))
    assert all(isinstance(v, QuadRat) and not v for v in exact.values()), exact
    assume(np.linalg.svd(np.asarray(xl.qmatrix(jac), dtype=float), compute_uv=False).min() > 1e-3)
    ops = point_geometry(imm, metric, structure).ops
    eye_m, eye_k = np.eye(ops.p.shape[-1]), np.eye(ops.s.shape[-1])
    floats = block_identity_residuals(ops.p, ops.q, ops.t, ops.s, eye_m, eye_k)
    assert set(floats) == set(exact)
    # Float rounding in the frames grows with the condition number of g.
    bound = 1e-12 * max(1.0, np.linalg.cond(metric.matrix))
    assert all(np.max(v) <= bound for v in floats.values()), floats


@settings(max_examples=30, deadline=None)
@given(a=_quad, b=_quad, k=st.integers(1, 3), data=st.data())
def test_slant_identities_are_exact_zeros_and_float_small(a, b, k, data):
    # phi = diag(psi, 1 - psi) on each of k planes, each spanned by one tangent
    # c_i (a, b): P is a multiple of I, so the immersion is slant.
    assume(a or b)
    scales = data.draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    weights = data.draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    metric = Metric(np.diag(np.repeat(np.array(weights, dtype=object), 2)))
    structure = diagonal_golden(["psi", "one_minus_psi"] * k, metric)
    jac = [[QuadRat(0)] * k for _ in range(2 * k)]
    for i, c in enumerate(scales):
        jac[2 * i][i], jac[2 * i + 1][i] = a * c, b * c
    imm = _immersion(jac, grid=1)
    data_exact = exact_slant_data(exact_induced_operators(exact_frame(imm, metric), structure))
    assert data_exact["is_slant"]
    keys = ("characterization", "lemma_p", "lemma_q", "tq_lambda_form", "tq_block_form")
    assert all(isinstance(data_exact[key], QuadRat) and not data_exact[key] for key in keys)
    lam = float(data_exact["lambda"])
    ops = point_geometry(imm, structure.metric, structure).ops
    eye_m, eye_k = np.eye(k), np.eye(k)
    pp = ops.p @ ops.p
    floats = (_characterization(ops.p, pp, lam),
              *_lemma_residuals(*_cos2_forms(ops.p, eye_m), ops.q, eye_k, lam, 1 - lam),
              *_tq_residuals(ops.p, pp, ops.t, ops.q, lam))
    assert max(float(np.max(v)) for v in floats) <= 1e-12, floats


class TestExactMatrix:
    def test_operators_keep_the_exact_type(self):
        a = xl.qmatrix([[PSI, 1], [0, Fraction(1, 2)]])
        assert isinstance(a[0, 1], QuadRat) and a[0, 1] == 1
        for value in (a @ a, a + a, a - a, a * PSI, a / 2, a.T, a.mT, a[:1, :]):
            assert isinstance(value, xl.QMatrix)
        assert _amax(a) == PSI and isinstance(_amax(a), QuadRat)
        assert (a @ a)[0, 0] == PSI * PSI
        assert np.array_equal((a * 2 - a).T, a.T)

    def test_matmul_runs_the_exactlin_kernel(self, monkeypatch):
        calls = []
        kernel = xl.matmul
        monkeypatch.setattr(xl, "matmul", lambda a, b: calls.append(1) or kernel(a, b))
        a = xl.qmatrix([[1, 2], [3, 4]])
        assert np.array_equal(a @ a, [[7, 10], [15, 22]]) and len(calls) == 1

    def test_float_arrays_convert_entrywise(self):
        a = xl.qmatrix([[PSI, 0], [0, 1]])
        assert np.array_equal(np.asarray(a, dtype=float), np.diag([float(PSI), 1.0]))

    @pytest.mark.parametrize("k", [10, 40, 200, 1000])
    def test_float_view_of_cancelling_entries_is_accurate(self, k):
        # (1 - psi)^k = (L_k - F_k sqrt5)/2, whose two terms cancel about 1.4 k bits.
        view = np.asarray(xl.qmatrix([[(1 - PSI) ** k, PSI]]), dtype=float)
        assert view[0, 0] == pytest.approx(float(1 - PSI) ** k, rel=4 * k * 2.0 ** -52)
        assert view[0, 1] == float(PSI)

    def test_float_view_past_the_float_range_is_infinite(self):
        view = np.asarray(xl.qmatrix([[10 ** 400, -(10 ** 400), (1 - PSI) ** 1000 * 7]]),
                          dtype=float)
        assert view[0, 0] == np.inf and view[0, 1] == -np.inf
        assert view[0, 2] == pytest.approx(7 * float(1 - PSI) ** 1000, rel=1e-12)


# A from_involution scenario: F swaps e1 and e2 and fixes e3, negates e4.
INVOLUTION = [["0", "1", "0", "0"], ["1", "0", "0", "0"],
              ["0", "0", "1", "0"], ["0", "0", "0", "-1"]]


def _scenario(suites, f=INVOLUTION, metric=None):
    ambient = {"dim": 4, "phi": {"from_involution": f}}
    if metric is not None:
        ambient["metric"] = metric
    return parse_config({
        "ambient": ambient,
        "immersion": {"params": ["u", "v"], "components": ["u", "v", "u+v", "2*v"],
                      "samples": {"grid": [[-1, 1, 2], [-1, 1, 2]]}},
        "suites": suites,
    })


def _count(monkeypatch, module, name) -> list:
    """Count calls to ``module.name`` through every goldenslant module that binds it."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("goldenslant") and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.fixture
def counters(monkeypatch):
    import goldenslant.structures as structures
    import goldenslant.submanifold as submanifold
    return {
        "verify_golden": _count(monkeypatch, structures, "verify_golden"),
        "involution": _count(monkeypatch, structures, "_check_involution"),
        "exact_frame": _count(monkeypatch, submanifold, "exact_frame"),
        "exact_induced_operators": _count(monkeypatch, submanifold, "exact_induced_operators"),
    }


class TestOnePass:
    def test_exact_scenario_validates_and_builds_the_exact_route_once(self, counters):
        report = run_scenario(_scenario(["structure", "identities", "extrinsic", "slant"]))
        assert report["overall_pass"]
        assert report["suites"]["identities"]["exact"]["all_zero"]
        assert report["suites"]["slant"]["exact"]["available"]
        assert {name: len(calls) for name, calls in counters.items()} == {
            "verify_golden": 1, "involution": 1, "exact_frame": 1, "exact_induced_operators": 1}

    def test_extrinsic_only_scenario_skips_the_exact_route(self, counters):
        assert run_scenario(_scenario(["extrinsic"]))["overall_pass"]
        assert len(counters["exact_frame"]) == 0
        assert len(counters["exact_induced_operators"]) == 0

    def test_structure_suite_reports_the_build_validation(self):
        cfg = _scenario(["structure"])
        structure = cfg.build_structure()
        report = structure.report
        assert report is structure.report and report.exact_zero
        assert report == verify_golden(structure.phi, structure.metric)
        suite = run_scenario(cfg)["suites"]["structure"]
        assert suite["exact_zero"] and suite["eigenspace_dims"] == [2, 2]

    @pytest.mark.parametrize("f,metric,error", [
        ([["1", "0", "0", "0"], ["0", "2", "0", "0"], ["0", "0", "1", "0"],
          ["0", "0", "0", "1"]], None, "InvalidInvolution: F^2 - I has residual 3.000e+00"),
        (INVOLUTION, [["2", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"],
                      ["0", "0", "0", "1"]], "MetricIncompat: G F - F^T G has residual 1.000e+00"),
    ])
    def test_bad_involution_keeps_its_message(self, f, metric, error):
        suites = run_scenario(_scenario(["structure", "identities"], f, metric))["suites"]
        assert suites["structure"] == {"pass": False, "error": error}
        assert suites["identities"] == suites["structure"]


class _CountedMatmuls(np.ndarray):
    """A float array that counts the matmuls it takes part in."""

    calls: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.calls.append(1)
        return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)


def test_structure_residuals_take_four_matmuls(monkeypatch):
    # phi^2, phi^T g, g phi and (phi^T g) phi: phi^T g is formed once.
    structure = _scenario(["structure"]).build_structure()
    calls = _count(monkeypatch, xl, "matmul")
    assert verify_golden(structure.phi, structure.metric).exact_zero
    assert len(calls) == 4
    calls = _CountedMatmuls.calls = []
    float_view = structure.to_float()
    residuals = _structure_residuals(float_view.phi.view(_CountedMatmuls),
                                     float_view.metric.matrix)
    assert max(np.abs(r).max() for r in residuals) <= 1e-12
    assert len(calls) == 4


def test_exact_slant_data_takes_six_matmuls(monkeypatch):
    # g_t P, (g_t P)^T P, P^2, Q^T g_n, (Q^T g_n) Q and tQ: each formed once.
    cfg = _scenario(["slant"])
    structure = cfg.build_structure()
    eops = exact_induced_operators(exact_frame(cfg.build_immersion(), structure.metric),
                                   structure)
    calls = _count(monkeypatch, xl, "matmul")
    exact_slant_data(eops)
    assert len(calls) == 6


# -- the affine route: the exact Jacobian feeds the float pass ------------------

ROOT = Path(__file__).resolve().parents[1]
AFFINE_BUNDLED = ("paper_example_3", "paper_example_4_k1", "paper_example_4_k2_paperformula")


def _jet_route(imm: ImmersionSpec, metric, structure):
    """``point_geometry`` of ``imm`` on the jet route: a copy whose components claim
    no affine form."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Expr, "affine_exact", lambda self: None)
        copy = ImmersionSpec(imm.params, imm.components, imm.sample_spec)
        return point_geometry(copy, metric, structure)


def _assert_routes_agree(imm: ImmersionSpec, metric, structure) -> None:
    affine = point_geometry(imm, metric, structure)
    assert imm.affine_form is not None
    jets = _jet_route(imm, metric, structure)
    for name in ("hessians", "h", "christoffel"):
        assert getattr(affine, name).shape == getattr(jets, name).shape, name
        assert not getattr(affine, name).any() and not getattr(jets, name).any(), name
    # A few ulp, grown by the conditioning of the metric the frames are built in.
    ulps = 8 * np.finfo(float).eps * np.linalg.cond(metric.to_float().matrix)
    pairs = {
        "jacobian": (affine.frame.raw_tangents, jets.frame.raw_tangents),
        "tangent_onb": (affine.frame.tangent_onb, jets.frame.tangent_onb),
        "normal_onb": (affine.frame.normal_onb, jets.frame.normal_onb),
        **{name: (getattr(affine.ops, name), getattr(jets.ops, name)) for name in "pqts"},
    }
    for name, (a, b) in pairs.items():
        assert np.abs(a - b).max() <= ulps * max(1.0, np.abs(b).max()), name


@pytest.mark.parametrize("source", AFFINE_BUNDLED)
def test_affine_route_matches_the_jet_route_on_bundled_configs(source):
    cfg = load_config(resolve_config(source))
    structure = cfg.build_structure()
    _assert_routes_agree(cfg.build_immersion(), structure.metric, structure)


def test_affine_route_matches_the_jet_route_on_cancelling_coefficients():
    # The exact coefficients (1 - psi)^k are differences of huge integers.
    imm = ImmersionSpec.from_strings(["u1", "u2"], ["u1", "(1-psi)^20*u1+u2",
                                                    "(1-psi)^200*u2", "u1-u2"])
    structure = diagonal_golden(["psi", "one_minus_psi", "psi", "one_minus_psi"])
    _assert_routes_agree(imm, structure.metric, structure)


@pytest.mark.parametrize("seed", [1, 7, 101])
def test_affine_route_matches_the_jet_route_on_exact_dense(seed, tmp_path):
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench import workloads
    finally:
        sys.path.remove(str(ROOT))
    cfg = load_config(workloads.build("exact_dense", seed, tmp_path).sources[0])
    structure = cfg.build_structure()
    _assert_routes_agree(cfg.build_immersion(), structure.metric, structure)


@settings(max_examples=40, deadline=None)
@given(exact_scenarios())
def test_affine_route_matches_the_jet_route_on_drawn_immersions(scenario):
    f, metric, jac = scenario
    assume(np.linalg.svd(np.asarray(xl.qmatrix(jac), dtype=float), compute_uv=False).min() > 1e-3)
    structure = golden_from_product(AlmostProductStructure(f, metric, validate=False))
    _assert_routes_agree(_immersion(jac), metric, structure)


def _count_method(monkeypatch, cls, name) -> list:
    """Count calls to the method ``cls.name``."""
    calls = []
    original = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_affine_scenario_walks_each_component_once_and_evaluates_no_jets(monkeypatch):
    jets = _count_method(monkeypatch, Expr, "eval_jets")
    walks = _count_method(monkeypatch, Expr, "affine_exact")
    report = run_scenario(_scenario(["structure", "identities", "slant"]))
    assert report["overall_pass"] and report["suites"]["slant"]["exact"]["available"]
    assert (len(jets), len(walks)) == (0, 4)


def test_curved_scenario_evaluates_jets_once_per_component(monkeypatch):
    jets = _count_method(monkeypatch, Expr, "eval_jets")
    cfg = parse_config({
        "ambient": {"dim": 4, "phi": {"pattern": ["psi", "one_minus_psi", "psi",
                                                  "one_minus_psi"]}},
        "immersion": {"params": ["u", "v"],
                      "components": ["u*cos(v)", "u*sin(v)", "v", "u^2/3"]},
        "suites": ["identities", "extrinsic", "slant"],
    })
    assert run_scenario(cfg)["overall_pass"]
    assert len(jets) == 4
