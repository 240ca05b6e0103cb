"""One slant verdict: the float rule never calls a failing immersion slant, both point suites
read one invariance rule, and the exact route decides.

Two ladders approach a verdict boundary.  The e-ladder perturbs the proper slant
``paper_example_3`` by ``1/10^e`` in one coefficient; the exact route proves every row
non-slant, and the float rule calls the rows slant from some e on.  The eps-ladder tilts an
invariant (or anti-invariant) plane by ``eps``, so that the extrinsic and slant suites both
classify rows near the invariance boundary.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from goldenslant.cli import resolve_config
from goldenslant.config import parse_config
from goldenslant.suites import run_scenario

SLANT_KINDS = {"invariant", "anti_invariant", "proper_slant"}
BACKENDS = ["auto", "float"]
EPS_LADDER = [f"{mantissa}*10^{k}" for k in range(-10, -4) for mantissa in (1, 3)] + ["10^-4"]
COEFFICIENTS = ["psi", "(1-psi)", "psi", "(1-psi)"]  # paper_example_3's component i is c_i * u


def _example_3(component=3, e=7, count=3) -> dict:
    """``paper_example_3`` with ``1/10^e`` added to the coefficient of ``component``, on a
    ``count`` x ``count`` grid."""
    data = json.loads(resolve_config("paper_example_3").read_text())
    params = data["immersion"]["params"]
    data["immersion"]["components"][component] = (
        f"({COEFFICIENTS[component]}+1/10^{e})*{params[component // 2]}")
    data["immersion"]["samples"]["grid"] = [[-1, 1, count]] * 2
    return data


def _tilted(eps="10^-7", component=2, param="u1", anti=False, count=3) -> dict:
    """An invariant plane (pattern [psi, psi, 1-psi, 1-psi], components [u1, u2, 0, 0]) or an
    anti-invariant one (pattern [psi, 1-psi, psi, 1-psi], components [u1, psi*u1, u2, psi*u2])
    with ``eps*param`` added to ``component``."""
    if anti:
        pattern = ["psi", "one_minus_psi", "psi", "one_minus_psi"]
        components = ["u1", "psi*u1", "u2", "psi*u2"]
    else:
        pattern = ["psi", "psi", "one_minus_psi", "one_minus_psi"]
        components = ["u1", "u2", "0", "0"]
    components[component] += f"+{eps}*{param}"
    return {"ambient": {"dim": 4, "phi": {"pattern": pattern}},
            "immersion": {"params": ["u1", "u2"], "components": components,
                          "samples": {"grid": [[-1, 1, count]] * 2}},
            "suites": ["extrinsic", "slant"]}


def _e_row(data: dict, backend: str) -> str:
    """Run one e-ladder row, check it and return its float verdict.

    The run passes and no slant verdict has a failing identity; under auto the exact
    route decides non_slant and flags a float verdict that differs."""
    report = run_scenario(parse_config(data), backend=backend)
    assert report["overall_pass"], report
    slant = report["suites"]["slant"]
    if slant["classification"] in SLANT_KINDS:
        assert max(slant["residuals"].values()) <= 1e-9
    if backend == "float":
        assert not slant["exact"]["available"]
        assert "float_exact_disagree" not in slant["flags"]
        return slant["classification"]
    verdict = slant["exact"]["float_classification"]
    assert slant["exact"]["is_slant"] is False
    assert slant["classification"] == "non_slant"
    assert slant["flags"]["float_exact_disagree"] == (verdict != "non_slant")
    return verdict


def _assert_monotone(verdicts: list[str]) -> None:
    """Once slant, the float verdict stays slant as the perturbation shrinks."""
    first = next((i for i, kind in enumerate(verdicts) if kind != "non_slant"), len(verdicts))
    assert set(verdicts[:first]) <= {"non_slant"}
    assert set(verdicts[first:]) <= {"proper_slant"}, verdicts


@pytest.mark.parametrize("backend", BACKENDS)
def test_e_ladder_never_calls_a_failing_row_slant_and_flags_the_exact_verdict(backend):
    verdicts = [_e_row(_example_3(e=e), backend) for e in range(1, 15)]
    _assert_monotone(verdicts)
    # Both verdicts occur, so the ladder crosses the boundary.
    assert verdicts[0] == "non_slant" and verdicts[-1] == "proper_slant"


def _check_eps_row(report: dict) -> None:
    """The two suites agree on invariant and on anti-invariant."""
    assert report["overall_pass"], report
    extrinsic = report["suites"]["extrinsic"]["classification"]
    slant = report["suites"]["slant"]["classification"]
    for kind in ("invariant", "anti_invariant"):
        assert (extrinsic == kind) == (slant == kind), (extrinsic, slant)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("eps", EPS_LADDER)
def test_eps_ladder_suites_agree_on_invariance(eps, backend):
    report = run_scenario(parse_config(_tilted(eps)), backend=backend)
    _check_eps_row(report)
    if backend == "auto":  # the exact route sees the tilt at every eps
        assert report["suites"]["extrinsic"]["classification"] == "neither"
        assert report["suites"]["slant"]["classification"] == "non_slant"


@settings(max_examples=25, deadline=None)
@given(component=st.integers(0, 3), exponents=st.lists(st.integers(1, 14), min_size=2,
                                                        max_size=4, unique=True),
       count=st.integers(1, 4), backend=st.sampled_from(BACKENDS))
def test_e_ladder_properties_hold_for_any_component_and_grid(component, exponents, count,
                                                              backend):
    _assert_monotone([_e_row(_example_3(component, e, count), backend)
                      for e in sorted(exponents)])


@settings(max_examples=40, deadline=None)
@given(exponent=st.integers(-10, -4), mantissa=st.integers(1, 9), component=st.integers(0, 3),
       param=st.sampled_from(["u1", "u2"]), anti=st.booleans(), count=st.integers(1, 4),
       backend=st.sampled_from(BACKENDS))
def test_eps_ladder_properties_hold_for_any_component_and_grid(exponent, mantissa, component,
                                                                param, anti, count, backend):
    data = _tilted(f"{mantissa}*10^{exponent}", component, param, anti, count)
    _check_eps_row(run_scenario(parse_config(data), backend=backend))
