"""One invariance rule: a point is invariant only where max|Q| is within tol_class and the
extrinsic suite's invariant rows hold within tol_frame, and both point suites read it.

Three surfaces on the pattern ``[psi, psi, 1-psi, 1-psi]`` have sample points within
tol_class of invariant whose rows fail: ``-cos(2 pi u1)/(2 pi)`` is tangent to the
psi-eigenspace at half-integer u1, where its Hessian leaves it (``invariant_weingarten`` is
sqrt5); ``u1^2`` sampled on u1 = 0 likewise; and ``[u, u^2, v + eps u, v^2]`` has |Q| about
eps, with rows about eps too.  None of them is invariant, so every run passes.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from goldenslant.cli import EXIT_OK, main
from goldenslant.config import parse_config
from goldenslant.suites import run_scenario

PATTERN = ["psi", "psi", "one_minus_psi", "one_minus_psi"]
BACKENDS = ["auto", "float"]


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
    """No run calls a surface invariant and then fails it, and a slant invariant verdict is
    the extrinsic suite's too."""
    extrinsic, slant = report["suites"]["extrinsic"], report["suites"]["slant"]
    assert extrinsic["pass"] or extrinsic["classification"] != "invariant", extrinsic
    assert slant["classification"] != "invariant" or extrinsic["classification"] == "invariant"
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
