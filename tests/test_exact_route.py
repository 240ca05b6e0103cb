"""One implementation per identity, one exact pass per scenario, one validation per build."""

import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import goldenslant.exactlin as xl
import goldenslant.structures as structures
from goldenslant.cli import resolve_config
from goldenslant.config import Tolerances, load_config, parse_config
from goldenslant.errors import DomainError, GoldenslantError, InvalidStructure
from goldenslant.expr import Expr
from goldenslant.quadrat import PSI, QuadRat
from goldenslant.slant import (
    _angles,
    _characterization,
    _cos2_forms,
    _lemma_residuals,
    _tq_residuals,
    classify_geometry,
    exact_slant_data,
)
from goldenslant.structures import (
    GoldenStructure,
    Metric,
    _amax,
    _structure_residuals,
    diagonal_golden,
    golden_from_product,
    golden_matrix,
    verify_golden,
)
from goldenslant.submanifold import (
    DEFAULT_TOL_CLASS,
    ImmersionSpec,
    InducedOperators,
    SampleSpec,
    block_identity_residuals,
    exact_frame,
    exact_identity_residuals,
    exact_induced_operators,
    point_geometry,
)
from goldenslant.suites import run_scenario, run_structure_suite
from support import (at_point, edge_floats, jet_route, random_golden, repeated_mean,
                     sample_specs)


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
    structure = golden_from_product(f, metric)
    # phi^2 - phi - I = 5 (F^2 - I)/4 and g phi - phi^T g = sqrt5 (g F - F^T g)/2, so
    # F is an exact involution, exactly g-compatible, when these are exact zeros.
    assert structure.report.exact_zero
    imm = _immersion(jac)
    frame = exact_frame(imm, metric)
    assume(frame is not None)  # a rank-deficient Jacobian has no exact route
    exact = exact_identity_residuals(exact_induced_operators(frame, structure))
    assert all(isinstance(v, QuadRat) and not v for v in exact.values()), exact
    assume(np.linalg.svd(np.asarray(xl.qmatrix(jac), dtype=float), compute_uv=False).min() > 1e-3)
    ops = point_geometry(imm, metric, structure).ops
    floats = block_identity_residuals(ops)
    assert set(floats) == set(exact)
    # The metric's Euclidean model comes from its exact factor, so the rounding in the
    # frames does not grow with the condition number of g.
    assert all(np.abs(v).max() <= 1e-13 for v in floats.values()), floats


def test_both_routes_fill_one_operator_record():
    cfg = _scenario(["identities", "slant"])
    structure, imm = cfg.build_structure(), cfg.build_immersion()
    frame = exact_frame(imm, structure.metric)
    exact = exact_induced_operators(frame, structure)
    floats = jet_route(imm, structure.metric, structure).ops  # a stack of 4 points
    assert type(exact) is type(floats) is InducedOperators
    assert exact.m == floats.m == imm.m
    assert exact.gram_tangent == frame.gram_tangent
    assert np.array_equal(floats.gram_tangent, np.eye(imm.m))
    for i in range(4):
        one = floats.at(i)
        assert type(one) is InducedOperators and one.gram_tangent is floats.gram_tangent
        for field in ("blocks", "lowered", "square"):
            assert np.array_equal(getattr(one, field), getattr(floats, field)[i]), field
    keys = {"p_squared", "q_projection", "s_squared", "t_projection", "p_self_adjoint",
            "metric_split"}
    assert set(block_identity_residuals(exact)) == set(block_identity_residuals(floats)) == keys


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
    pp = ops.p @ ops.p
    floats = (_characterization(ops.p, pp, lam),
              *_lemma_residuals(ops, *_cos2_forms(ops), lam, 1 - lam),
              *_tq_residuals(ops.p, pp, ops.t @ ops.q, lam))
    assert max(float(np.abs(v).max()) for v in floats) <= 1e-12, floats


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
        # (1 - psi)^k = (L_k - F_k sqrt5)/2, whose two terms cancel about 1.4 k bits;
        # in -10^308 + 10^308 sqrt5 the second term alone is past the float range.
        entries = [(1 - PSI) ** k, PSI, QuadRat(-(10 ** 308), 10 ** 308)]
        view = np.asarray(xl.qmatrix([entries]), dtype=float)
        assert view[0, 0] == pytest.approx(float(1 - PSI) ** k, rel=4 * k * 2.0 ** -52)
        assert view[0, 1] == float(PSI)
        assert view[0, 2] == pytest.approx((math.sqrt(5.0) - 1) * 1e308, rel=2.0 ** -51)
        # float(QuadRat) is the same formula, entry by entry
        assert [float(x).hex() for x in entries] == [x.hex() for x in view[0].tolist()]

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
        "axioms": _count(monkeypatch, structures, "_measure"),
        "involution": _count(monkeypatch, structures, "_require_involution"),
        "exact_frame": _count(monkeypatch, submanifold, "exact_frame"),
        "exact_induced_operators": _count(monkeypatch, submanifold, "exact_induced_operators"),
    }


class TestOnePass:
    def test_exact_scenario_validates_and_builds_the_exact_route_once(self, counters):
        report = run_scenario(_scenario(["structure", "identities", "extrinsic", "slant"]))
        assert report["overall_pass"]
        assert report["suites"]["identities"]["exact"]["all_zero"]
        assert report["suites"]["slant"]["exact"]["available"]
        # golden_from_product measures phi's axioms once and reads F's residuals from them.
        assert {name: len(calls) for name, calls in counters.items()} == {
            "verify_golden": 0, "axioms": 1, "involution": 1, "exact_frame": 1,
            "exact_induced_operators": 1}

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

    def test_structure_suite_needs_no_elimination(self, monkeypatch):
        structure = _scenario(["structure"]).build_structure()
        eliminations = _count(monkeypatch, xl, "_echelon")
        assert run_structure_suite(structure, Tolerances())["pass"]
        assert eliminations == []

    @pytest.mark.parametrize("p", range(5))
    def test_eigenspace_dims_on_both_backends(self, p):
        exact = diagonal_golden(["psi"] * p + ["one_minus_psi"] * (4 - p))
        for structure in (exact, exact.to_float(), random_golden(4, p, seed=p)):
            suite = run_structure_suite(structure, Tolerances())
            assert suite["pass"] and suite["eigenspace_dims"] == [p, 4 - p]

    @pytest.mark.parametrize("eps", [Fraction(1, 10**12), Fraction(1, 10**400)])
    def test_nearly_golden_exact_phi_builds_but_fails_the_structure_suite(self, eps):
        # Within the build's tolerance, but phi^2 - phi - I is not exactly 0; at
        # 10^-400 its float view is 0.0.
        phi = np.diag(np.array([PSI + eps, PSI, 1 - PSI, 1 - PSI], dtype=object))
        structure = GoldenStructure(phi, Metric.euclidean(4))
        suite = run_structure_suite(structure, Tolerances())
        assert suite["residuals"]["structure_equation"] <= Tolerances().tol_struct
        assert not suite["exact_zero"] and not suite["pass"]

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


def test_structure_residuals_take_three_matmuls(monkeypatch):
    # phi^2, g phi and (phi^T g) phi: phi^T g is the transpose of g phi.
    structure = _scenario(["structure"]).build_structure()
    calls = _count(monkeypatch, xl, "matmul")
    assert verify_golden(structure.phi, structure.metric).exact_zero
    assert len(calls) == 3
    calls = _CountedMatmuls.calls = []
    float_view = structure.to_float()
    residuals = _structure_residuals(float_view.phi.view(_CountedMatmuls),
                                     float_view.metric.matrix)
    assert max(np.abs(r).max() for r in residuals) <= 1e-12
    assert len(calls) == 3


def test_golden_from_product_takes_three_matmuls(monkeypatch):
    # phi^2, g phi and (phi^T g) phi for phi = (I + sqrt5 F)/2: F's residuals are
    # exact rescalings of phi's, so F^2 and g F are never formed.
    metric = Metric(xl.qmatrix([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]]))
    f = xl.qmatrix([[int(x) for x in row] for row in INVOLUTION])
    calls = _count(monkeypatch, xl, "matmul")
    structure = golden_from_product(f, metric)
    assert structure.report.exact_zero
    assert len(calls) == 3


def test_golden_from_product_raises_past_an_involution_within_tolerance():
    # F^2 - I is 0.9e-9, inside the involution tolerance, so phi^2 - phi - I is
    # 5/4 of it, past the golden one: the golden check raises as a validated build does.
    d = Fraction(45, 10**11)
    f = xl.qmatrix(np.diag(np.array([1 + d, -1, 1, -1], dtype=object)))
    assert 2 * d + d * d < Fraction(1, 10**9) < 5 * (2 * d + d * d) / 4
    metric = Metric.euclidean(4)
    with pytest.raises(InvalidStructure) as built:
        GoldenStructure(golden_matrix(f), metric)
    with pytest.raises(InvalidStructure) as induced:
        golden_from_product(f, metric)
    assert str(induced.value) == str(built.value)


def test_exact_slant_data_takes_three_matmuls(monkeypatch):
    # (Gt P)^T P, P^2 and Q^T (Gn Q): Gt P and Gn Q are blocks of the lowered
    # matrix and tQ = (C^2)_TT - P^2, all formed once by exact_induced_operators.
    cfg = _scenario(["slant"])
    structure = cfg.build_structure()
    eops = exact_induced_operators(exact_frame(cfg.build_immersion(), structure.metric),
                                   structure)
    calls = _count(monkeypatch, xl, "matmul")
    exact_slant_data(eops)
    assert len(calls) == 3


def test_exact_identities_take_one_matmul(monkeypatch):
    # c[:, :m]^T M[:, :m]; the four block identities are blocks of C^2 - C - I.
    cfg = _scenario(["identities"])
    structure = cfg.build_structure()
    eops = exact_induced_operators(exact_frame(cfg.build_immersion(), structure.metric),
                                   structure)
    calls = _count(monkeypatch, xl, "matmul")
    assert not any(exact_identity_residuals(eops).values())
    assert len(calls) == 1


# -- the exact route as one block matrix ------------------------------------------


def _oracle_blocks(frame, structure):
    """phi's matrix in the basis [T | N] by the n x 2n elimination of solve(B, phi B)."""
    basis = xl.concatenate([frame.tangent, frame.normal], axis=1)
    return xl.solve(basis, structure.phi @ basis)


@settings(max_examples=40, deadline=None)
@given(exact_scenarios())
def test_blocks_equal_the_full_solve(scenario):
    f, metric, jac = scenario
    structure = golden_from_product(f, metric)
    frame = exact_frame(_immersion(jac), metric)
    assume(frame is not None)
    eops = exact_induced_operators(frame, structure)
    oracle = _oracle_blocks(frame, structure)
    m = eops.m
    assert eops.p == oracle[:m, :m] and eops.q == oracle[m:, :m]
    assert eops.t == oracle[:m, m:] and eops.s == oracle[m:, m:]
    assert eops.blocks == oracle and eops.square == oracle @ oracle
    # M = diag(Gt, Gn) C, with the normal Gram matrix formed only here
    gram_normal = frame.normal.T @ metric.entries @ frame.normal
    assert eops.lowered[:m] == frame.gram_tangent @ eops.p
    assert eops.lowered[m:] == gram_normal @ eops.q
    assert frame.normal[frame.free] == xl.eye(len(frame.free))


def test_exact_route_solves_only_the_tangent_gram_system(monkeypatch):
    cfg = _scenario(["identities", "slant"])
    structure = cfg.build_structure()
    imm = cfg.build_immersion()
    eliminations = _count(monkeypatch, xl, "_echelon")
    frame = exact_frame(imm, structure.metric)
    assert len(eliminations) == 1  # the kernel basis of T^T g
    eliminations.clear()
    solves = []
    solve = xl.solve
    monkeypatch.setattr(xl, "solve", lambda a, b: solves.append(a.shape) or solve(a, b))
    exact_induced_operators(frame, structure)
    assert solves == [(imm.m, imm.m)] and len(eliminations) == 1


# -- the affine route: the exact Jacobian feeds the float pass ------------------

ROOT = Path(__file__).resolve().parents[1]
AFFINE_BUNDLED = ("paper_example_3", "paper_example_4_k1", "paper_example_4_k2_paperformula")


def _assert_routes_agree(imm: ImmersionSpec, metric, structure) -> None:
    affine = point_geometry(imm, metric, structure)
    assert imm.affine_form is not None
    jets = jet_route(imm, metric, structure)
    # The affine route evaluates its first point for all of them; it is compared with each.
    assert affine.size == affine.repeats == jets.size
    for name in ("hessians", "tangential", "h"):
        assert getattr(affine, name).shape == (1, *getattr(jets, name).shape[1:]), name
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
    structure = golden_from_product(f, metric)
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


def _on_grid(source: str, count: int):
    """The structure and immersion of a bundled config, sampled on a ``count`` x ``count`` grid."""
    cfg = load_config(resolve_config(source))
    imm = cfg.build_immersion()
    return cfg.build_structure(), ImmersionSpec(imm.params, imm.components,
                                                SampleSpec(grid=((-1.0, 1.0, count),) * 2))


def test_affine_point_pass_builds_one_frame_and_counts_every_point(monkeypatch):
    qr_shapes = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, mode: qr_shapes.append(a.shape) or qr(a, mode))
    structure, imm = _on_grid("paper_example_3", 30)
    geom = point_geometry(imm, structure.metric, structure)
    assert qr_shapes == [(1, 4, 2)]
    assert (geom.size, geom.repeats, geom.frame.onb.shape[0], geom.ops.blocks.shape[0]) == \
        (900, 900, 1, 1)
    cfg = load_config(resolve_config("paper_example_3"))
    report = run_scenario(cfg._replace(immersion_samples=imm.sample_spec))
    assert report["overall_pass"] and report["suites"]["identities"]["points"] == 900


def test_affine_value_overflowing_at_the_last_grid_point_names_it():
    # 10^308 (u1 + u2) is finite at every point of the 2 x 2 grid on [0, 1]^2 but (1, 1).
    big = "1" + "0" * 308  # a literal, whose jets have no derivative to overflow
    imm = ImmersionSpec.from_strings(["u1", "u2"], ["u1", "u2", "u1-u2", f"{big}*(u1+u2)"],
                                     SampleSpec(grid=((0.0, 1.0, 2),) * 2))
    structure = diagonal_golden(["psi", "one_minus_psi", "psi", "one_minus_psi"])
    assert imm.affine_form is not None
    with pytest.raises(DomainError) as affine:
        point_geometry(imm, structure.metric, structure)
    with pytest.raises(DomainError) as jets:
        jet_route(imm, structure.metric, structure)
    assert str(affine.value) == str(jets.value) == "value or derivative is not finite at (1.0, 1.0)"


_row = st.tuples(edge_floats, edge_floats, edge_floats)  # c, J[:, 0], J[:, 1]


def _affine_component(row) -> str:
    c, a, b = (f"({Fraction(x)})" for x in row)
    return f"{c}+{a}*u1+{b}*u2"


def _outcome(imm, structure, points=None):
    """The geometry of ``point_geometry`` as bytes, or the error it raised."""
    try:
        geom = point_geometry(imm, structure.metric, structure, points)
    except GoldenslantError as exc:
        return type(exc).__name__, str(exc)
    arrays = (geom.frame.point, geom.frame.raw_tangents, geom.frame.onb, geom.hessians,
              geom.tangential, geom.h, geom.ops.blocks)
    return geom.size, geom.repeats, [(a.shape, a.tobytes()) for a in arrays]


@settings(max_examples=150, deadline=None)
@given(sample_specs(2), _row, _row)
@example(SampleSpec(((0.0, 1.0, 2), (-1.0, 1.0, 3))), (-1e308, 1e308, 0.0), (1.0, 1.0, 1.0))
@example(SampleSpec(((-1.0, 1.0, 2), (0.0, 1.0, 2))), (-1e308, 1e308, 0.0), (1.0, 1.0, 1.0))
@example(SampleSpec(((0.0, 1.0, 2),) * 2, ((2.0, 0.0),)), (0.0, 1e308, 0.0), (0.0, 1.0, 1.0))
@example(SampleSpec(((-1.7e308, 1.7e308, 3), (-1.0, 1.0, 2))), (1.0, 0.0, 1.0), (0.0, 0.0, 2.0))
def test_affine_bound_gives_the_scan_s_geometry_or_error(spec, row_3, row_4):
    # The first two examples have c and J x cancel, to 0 at u1 = 1 or to -2 10^308 at u1 = -1;
    # the third overflows at the extra point alone; the fourth has grid values past the float
    # range in a parameter no component reads.
    structure = diagonal_golden(["psi", "one_minus_psi", "psi", "one_minus_psi"])
    imm = ImmersionSpec.from_strings(["u1", "u2"], ["u1", "u2", _affine_component(row_3),
                                                    _affine_component(row_4)], spec)
    assert imm.affine_form is not None
    with np.errstate(all="ignore"):  # the scan of every point, as explicit points get it
        assert _outcome(imm, structure) == _outcome(imm, structure, spec.points())


def test_affine_run_within_the_bound_builds_no_sample_points(monkeypatch):
    calls = _count_method(monkeypatch, SampleSpec, "points")
    _, imm = _on_grid("paper_example_3", 300)
    cfg = load_config(resolve_config("paper_example_3"))
    report = run_scenario(cfg._replace(immersion_samples=imm.sample_spec))
    assert report["overall_pass"] and report["suites"]["identities"]["points"] == 90_000
    assert calls == []
    curved = parse_config({
        "ambient": {"dim": 4, "phi": {"pattern": ["psi", "one_minus_psi", "psi",
                                                  "one_minus_psi"]}},
        "immersion": {"params": ["u", "v"],
                      "components": ["u*cos(v)", "u*sin(v)", "v", "u^2/3"]},
        "suites": ["identities", "extrinsic", "slant"],
    })
    assert run_scenario(curved)["overall_pass"] and len(calls) == 1


def test_affine_run_past_the_bound_builds_the_sample_points_once(monkeypatch):
    calls = _count_method(monkeypatch, SampleSpec, "points")
    big = "1" + "0" * 308
    imm = ImmersionSpec.from_strings(["u1", "u2"], ["u1", "u2", "u1-u2", f"{big}*(u1+u2)"],
                                     SampleSpec(grid=((0.0, 0.5, 2),) * 2))
    structure = diagonal_golden(["psi", "one_minus_psi", "psi", "one_minus_psi"])
    # 10^308 (u1 + u2) is finite on [0, 0.5]^2, but its bound 2 10^308 x 0.5 is not.
    assert point_geometry(imm, structure.metric, structure).size == 4 and len(calls) == 1


@pytest.mark.parametrize("k", [305, 306, 308])
def test_curved_component_with_a_constant_power_is_evaluated_as_its_literal(k):
    # k 10^(k - 1), the derivative of v^k at 10, overflows from k = 306 on; the constant
    # base has no gradient for it to scale, so 10^k must give the jets of the literal.
    structure = diagonal_golden(["psi", "one_minus_psi", "psi", "one_minus_psi"])
    grid = SampleSpec(grid=((0.0, 1.0, 2),) * 2)
    power, literal = (ImmersionSpec.from_strings(["u1", "u2"], ["u1", "u2", "u1-u2",
                                                                f"{c}*u1+u2^2"], grid)
                      for c in (f"10^{k}", str(10 ** k)))
    assert power.affine_form is literal.affine_form is None
    assert _outcome(power, structure) == _outcome(literal, structure)
    assert _outcome(power, structure)[0] == 4
    cfg = parse_config({"ambient": {"dim": 4, "phi": {"pattern": ["psi", "one_minus_psi", "psi",
                                                                  "one_minus_psi"]}},
                        "immersion": {"params": ["u1", "u2"],
                                      "components": ["u1", "u2", "u1-u2", f"10^{k}*u1+u2^2"],
                                      "samples": {"grid": [[0, 1, 2], [0, 1, 2]]}},
                        "suites": ["identities", "extrinsic", "slant"]})
    assert run_scenario(cfg)["overall_pass"]


def test_affine_theta_is_the_mean_over_every_point():
    structure, imm = _on_grid("paper_example_4_k1", 300)
    theta = classify_geometry(point_geometry(imm, structure.metric, structure)).theta
    # The angles at the first point, which stands for all 90,000.
    ops = at_point(imm, imm.sample_spec.points()[0], structure).ops
    angles = _angles(ops.p, ops.q, np.linalg.eigh((ops.p + ops.p.mT) / 2.0)[1].mT,
                     DEFAULT_TOL_CLASS)
    assert theta == repeated_mean(angles[0], 90_000)
    assert theta != float(np.mean(angles))  # the mean of the one point differs in its last bit


@pytest.mark.parametrize("backend", ["auto", "float"])
@pytest.mark.parametrize("source", ["paper_example_2", "paper_example_3"])  # curved, affine
def test_identities_and_slant_suites_each_call_the_spectral_norm_once(monkeypatch, source,
                                                                      backend):
    calls = _count(monkeypatch, structures, "_spectral")
    cfg = load_config(resolve_config(source))
    for suites in (("identities",), ("slant",), ("identities", "slant")):
        calls.clear()
        report = run_scenario(cfg._replace(suites=suites), backend=backend)
        assert report["overall_pass"] and len(calls) == len(suites), suites
    # Neither example is anti-invariant, so the slant call measured all four of its forms.
    assert {"characterization", "lemma_p", "lemma_q", "corollary"} <= set(
        report["suites"]["slant"]["residuals"])


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
