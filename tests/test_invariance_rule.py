"""One first-order rule for every class: a point is invariant (anti-invariant) only where
max|Q| (max|P|) is within tol_class and the class's first-order term within tol_frame, a
slant candidate (angle_spread within tol_frame) is proper slant only where the slant term
S_i P + P S_i - lambda S_i is within tol_frame at every point, and both point suites read
that one rule.

Three surfaces on the pattern ``[psi, psi, 1-psi, 1-psi]`` have sample points within
tol_class of invariant whose rows fail: ``-cos(2 pi u1)/(2 pi)`` is tangent to the
psi-eigenspace at half-integer u1, where its Hessian leaves it (``invariant_weingarten`` is
sqrt5); ``u1^2`` sampled on u1 = 0 likewise; and ``[u, u^2, v + eps u, v^2]`` has |Q| about
eps, with rows about eps too.  Two more have the slope ``a + sin(2 pi k (u - u0))`` in both
directions, which is ``a`` at every sample and varies between them: at ``a = 2`` every sample
is proper slant and at ``a = psi`` anti-invariant, but neither surface is.  None of them
is of a class, so every run passes.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from goldenslant.cli import EXIT_OK, main
from goldenslant.config import parse_config
from goldenslant.suites import run_scenario

PATTERN = ["psi", "psi", "one_minus_psi", "one_minus_psi"]
BACKENDS = ["auto", "float"]
CLASSES = ("invariant", "anti_invariant", "proper_slant")
TOL_FRAME = 1e-9


def _surface(components, grid, params=("u1", "u2")) -> dict:
    return {"ambient": {"dim": 4, "phi": {"pattern": PATTERN}},
            "immersion": {"params": list(params), "components": components,
                          "samples": {"grid": grid}},
            "suites": ["identities", "extrinsic", "slant"]}


def _cosine(frequency="1", count=3, count_v=3) -> dict:
    return _surface(["u1", "u2", f"-cos(2*pi*{frequency}*u1)/(2*pi*{frequency})", "0"],
                    [[-1, 1, count], [-1, 1, count_v]])


def _tilted(eps="10^-8", count=3) -> dict:
    return _surface(["u", "u^2", f"v+{eps}*u", "v^2"], [[-1, 1, count]] * 2, ("u", "v"))


def _slope(slope="2", frequency="1", phase="0", count=3, count_v=3) -> dict:
    """Both raw tangents (1, 0, a, 0) and (0, 1, 0, a) with a = ``slope`` at the samples,
    which u - ``phase`` = -1 + 2j/(count - 1) puts where sin(2 pi ``frequency`` (u - phase))
    is 0 when count - 1 divides 4 ``frequency``."""
    def component(u):
        angle = f"2*pi*{frequency}*({u}-({phase}))"
        return f"{slope}*{u}+(1-cos({angle}))/(2*pi*{frequency})"

    u0 = float(Fraction(phase))
    grid = [[u0 - 1, u0 + 1, count], [u0 - 1, u0 + 1, count_v]]
    return _surface(["u1", "u2", component("u1"), component("u2")], grid)


FAULTS = {**{f"cosine-{count}": _cosine(count=count) for count in (3, 4, 5)},
          "square-on-u1=0": _surface(["u1", "u2", "u1^2", "0"], [[0, 0, 1], [-1, 1, 3]]),
          "tilt-1e-8": _tilted("10^-8")}


def _run(data: dict, backend: str, tmp_path, capsys) -> tuple[int, dict]:
    """The exit code of ``goldenslant run`` and the report it prints."""
    path = tmp_path / "surface.cfg"
    path.write_text(json.dumps(data))
    code = main(["run", str(path), "--backend", backend])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", FAULTS)
def test_a_point_whose_invariant_rows_fail_is_not_invariant(name, backend, tmp_path, capsys):
    code, report = _run(FAULTS[name], backend, tmp_path, capsys)
    assert code == EXIT_OK and report["overall_pass"]
    assert report["suites"]["extrinsic"]["classification"] == "neither"
    assert report["suites"]["slant"]["classification"] == "non_slant"


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_tilt_below_the_rows_tolerance_stays_invariant(backend, tmp_path, capsys):
    code, report = _run(_tilted("10^-10"), backend, tmp_path, capsys)
    assert code == EXIT_OK and report["overall_pass"]
    extrinsic = report["suites"]["extrinsic"]
    assert extrinsic["classification"] == "invariant"
    assert report["suites"]["slant"]["classification"] == "invariant"
    assert 1e-11 < extrinsic["residuals"]["invariant_weingarten"] <= 1e-9


def _check(report: dict) -> None:
    """No run calls a surface invariant and then fails it, a slant invariant (anti-invariant)
    verdict is the extrinsic suite's too, and no report has a class that its own first-order
    term contradicts."""
    extrinsic, slant = report["suites"]["extrinsic"], report["suites"]["slant"]
    assert extrinsic["pass"] or extrinsic["classification"] != "invariant", extrinsic
    for kind in ("invariant", "anti_invariant"):
        assert slant["classification"] != kind or extrinsic["classification"] == kind
    for suite, kinds in ((extrinsic, CLASSES[:2]), (slant, CLASSES)):
        if suite["classification"] in kinds:
            assert suite["first_order"] <= TOL_FRAME, suite
    assert report["overall_pass"], report


@settings(max_examples=40, deadline=None)
@given(frequency=st.sampled_from(["1/2", "1", "3/2", "2", "5/2", "3"]),
       count=st.integers(1, 7), count_v=st.integers(1, 3), backend=st.sampled_from(BACKENDS))
def test_no_cosine_surface_is_called_invariant_and_failed(frequency, count, count_v, backend):
    _check(run_scenario(parse_config(_cosine(frequency, count, count_v)), backend=backend))


@settings(max_examples=40, deadline=None)
@given(mantissa=st.integers(1, 9), exponent=st.integers(-12, -6), count=st.integers(1, 4),
       backend=st.sampled_from(BACKENDS))
def test_no_tilted_surface_is_called_invariant_and_failed(mantissa, exponent, count, backend):
    _check(run_scenario(parse_config(_tilted(f"{mantissa}*10^{exponent}", count)),
                        backend=backend))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("count", [3, 5])
@pytest.mark.parametrize("slope,term", [("2", 0.3), ("psi", 1.05)])
def test_a_surface_of_a_class_at_every_sample_alone_is_of_none(slope, term, count, backend,
                                                                tmp_path, capsys):
    code, report = _run(_slope(slope, count=count, count_v=count), backend, tmp_path, capsys)
    assert code == EXIT_OK and report["overall_pass"]
    extrinsic, slant = report["suites"]["extrinsic"], report["suites"]["slant"]
    assert extrinsic["classification"] == "neither"
    assert slant["classification"] == "non_slant" and slant["angle_spread"] <= 1e-15
    # The slant term at a = 2, dP at a = psi: the rule, not a large Q, decided.
    assert slant["first_order"] == pytest.approx(term, abs=0.01)
    assert extrinsic["first_order"] == (None if slope == "2" else slant["first_order"])


# Each frequency k with the grid counts whose samples sit where sin(2 pi k (u - u0)) is 0.
FREQUENCIES = {"1/2": (2, 3), "1": (2, 3, 5), "3/2": (2, 3, 4, 7), "2": (2, 3, 5, 9),
               "3": (2, 3, 4, 5, 7)}


@settings(max_examples=30, deadline=None)
@given(slope=st.sampled_from(["2", "psi", "1/2", "-3"]),
       frequency=st.sampled_from(sorted(FREQUENCIES)), phase=st.sampled_from(["0", "1/3", "-5/7"]),
       counts=st.data(), backend=st.sampled_from(BACKENDS))
def test_no_slope_surface_is_called_slant(slope, frequency, phase, counts, backend):
    count, count_v = (counts.draw(st.sampled_from(FREQUENCIES[frequency])) for _ in range(2))
    report = run_scenario(parse_config(_slope(slope, frequency, phase, count, count_v)),
                          backend=backend)
    _check(report)
    assert report["suites"]["slant"]["angle_spread"] <= 1e-14
    assert report["suites"]["slant"]["classification"] == "non_slant"
    assert report["suites"]["extrinsic"]["classification"] == "neither"


@pytest.mark.parametrize("backend", BACKENDS)
def test_one_tolerance_means_one_angle_near_theta_zero(backend):
    # A spread of 1.4e-5 rad near theta = 0 has a characterization residual near its square,
    # which once passed as proper_slant under float: the spread itself decides now.
    report = run_scenario(parse_config(_surface(["u1", "u2", "10^-5*u1", "0"],
                                                [[-1, 1, 3], [-1, 1, 3]])), backend=backend)
    slant = report["suites"]["slant"]
    assert report["overall_pass"] and slant["classification"] == "non_slant"
    assert 1e-5 < slant["angle_spread"] < 2e-5
    assert slant["first_order"] is None and not slant["flags"].get("float_exact_disagree")


CURVED = {
    # paper_example_3's plane under u_i -> u_i + u_i^3: curved coordinates, h = 0
    "proper_slant": _surface(["psi*(u1+u1^3)", "(1-psi)*(u1+u1^3)", "psi*(u2+u2^3)",
                              "(1-psi)*(u2+u2^3)"], [[-1, 1, 3]] * 2),
    "invariant": _surface(["u+v", "(u+v)^2", "v", "v^3/3"], [[-1, 1, 3]] * 2, ("u", "v")),
    "anti_invariant": _surface(["u1+u1^3", "u2", "psi*(u1+u1^3)", "psi*u2"], [[-1, 1, 3]] * 2),
}
CURVED["proper_slant"]["ambient"]["phi"]["pattern"] = ["psi", "one_minus_psi", "psi",
                                                       "one_minus_psi"]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", CURVED)
def test_curved_examples_keep_their_classes(kind, backend):
    report = run_scenario(parse_config(CURVED[kind]), backend=backend)
    _check(report)
    extrinsic, slant = report["suites"]["extrinsic"], report["suites"]["slant"]
    assert slant["classification"] == kind
    assert extrinsic["classification"] == (kind if kind != "proper_slant" else "neither")
    assert slant["first_order"] <= 1e-15
