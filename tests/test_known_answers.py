"""Scenarios whose verdicts are known before the run: planes built from the slant
characterization, a sheared curved invariant surface, and an off-golden exact phi that a
slant plane must still fail on."""

import json

import numpy as np
from hypothesis import given, settings

from goldenslant.cli import resolve_config
from goldenslant.config import parse_config
from goldenslant.quadrat import parse_quadrat
from goldenslant.suites import run_scenario
from support import KnownPlane, known_planes

# The float lambda is cos^2 of a mean of atan2 angles in orthonormal frames of the identity
# metric: c * eps from the exact one with c = 16 (1.5 ulp measured over 600 draws).
LAMBDA_ULPS = 16 * np.finfo(float).eps


@settings(max_examples=150, deadline=None)
@given(known_planes())
def test_a_known_plane_gets_its_class_and_lambda_under_both_backends(plane: KnownPlane):
    for backend in ("auto", "float"):
        report = run_scenario(parse_config(plane.config), backend=backend)
        suites = report["suites"]
        assert report["overall_pass"], (backend, suites)
        slant = suites["slant"]
        assert slant["classification"] == plane.classification, backend
        assert not slant["flags"].get("float_exact_disagree", False), backend
        assert slant["exact"]["available"] == (backend == "auto")
        if plane.lam is None:
            continue
        assert abs(slant["lambda"] - float(plane.lam)) <= LAMBDA_ULPS, backend
        if backend == "auto":
            assert slant["exact"]["is_slant"]
            assert parse_quadrat(slant["exact"]["lambda"]) == plane.lam


def test_sheared_curved_invariant_surface_passes_its_weingarten_check():
    # P has the eigenvalues psi and 1 - psi on this surface, and the raw tangent
    # X_v = (1, 2(u+v), 1, v^2) is not a P-eigenvector, so h(X, PY) = s h(X, Y) must read P
    # in the raw basis: read in the frame basis it gives sqrt5.
    config = {"ambient": {"dim": 4,
                          "phi": {"pattern": ["psi", "psi", "one_minus_psi", "one_minus_psi"]}},
              "immersion": {"params": ["u", "v"], "components": ["u+v", "(u+v)^2", "v", "v^3/3"],
                            "samples": {"grid": [[-1, 1, 3], [-1, 1, 3]]}},
              "suites": ["identities", "extrinsic", "slant"]}
    for backend in ("auto", "float"):
        report = run_scenario(parse_config(config), backend=backend)
        assert report["overall_pass"], backend
        extrinsic = report["suites"]["extrinsic"]
        assert extrinsic["classification"] == "invariant"
        assert extrinsic["residuals"]["invariant_weingarten"] <= 1e-14
        assert report["suites"]["slant"]["classification"] == "invariant"


def test_an_off_golden_exact_phi_fails_the_slant_and_identities_suites():
    # phi = diag(a, b, a, b) with a = psi + 1/10^4 is not golden, and tol_struct = 1e-3 lets
    # it through.  On paper_example_3's plane P^2 = lambda (P + I) holds exactly, but the
    # exact tQ = (1 - lambda)(P + I) and lemma_q do not: they read 1.95e-4 and 5.85e-4, as
    # the identities' p_squared and metric_split do.
    a, b = "5001/10000+1/2*sqrt5", "1/2-1/2*sqrt5"
    data = json.loads(resolve_config("paper_example_3").read_text())
    data["ambient"]["phi"] = {"matrix": [[(a, b)[i % 2] if i == j else "0" for j in range(4)]
                                         for i in range(4)]}
    data["tolerances"] = {"tol_struct": 1e-3}
    data["suites"] = ["identities", "slant"]
    suites = run_scenario(parse_config(data))["suites"]
    slant, identities = suites["slant"], suites["identities"]
    assert slant["exact"]["is_slant"] and slant["exact"]["residuals"]["characterization"] == 0
    assert abs(slant["exact"]["residuals"]["tq_lambda_form"] - 1.95e-4) <= 1e-6
    assert abs(slant["exact"]["residuals"]["lemma_q"] - 5.85e-4) <= 1e-6
    assert abs(identities["exact"]["residuals"]["p_squared"] - 1.95e-4) <= 1e-6
    assert abs(identities["exact"]["residuals"]["metric_split"] - 5.85e-4) <= 1e-6
    assert slant["pass"] is False and identities["pass"] is False
