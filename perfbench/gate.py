"""Correctness gate applied to every pass.

The expectations come from the README's documented results and from the
workload generators' own plain-numpy and plain-Fraction reasoning, never
from goldenslant itself:

* bundled configs: exit codes and verdicts listed in the README (all pass
  except ``paper_example_4_k2_paperformula``), the stated classifications,
  ``cos(theta)`` values and space-form coefficients A and B;
* ``curved_grid``: a numpy oracle with the hand-derived Jacobian of
  ``(u cos v, u sin v, v, u^2/3)`` decides the expected classifications;
* ``exact_dense``: exact zeros and the eigenspace split fixed by the
  reflection's construction;
* ``spaceform_trials``: the model echo and the README's closed forms.

Byte identity across repeated passes is checked by the runner.
"""

from __future__ import annotations

import math

import numpy as np

from .workloads import BUNDLED, CURVED_PHI, Workload

PSI = (1.0 + math.sqrt(5.0)) / 2.0
SQRT5 = math.sqrt(5.0)
TOL = 1e-9

# README, "Bundled configs": all exit 0 except the paperformula demonstration.
BUNDLED_EXIT = {name: int(name == "paper_example_4_k2_paperformula") for name in BUNDLED}


def expected_exit(workload: Workload, source: str) -> int:
    return BUNDLED_EXIT[source] if workload.name == "bundled_mix" else 0


def spaceform_coefficients(c_p: float, c_q: float) -> tuple[float, float]:
    """README closed forms A = -((1-psi) c_p - psi c_q)/(2 sqrt5), B = -((1-psi) c_p + psi c_q)/4."""
    return (-((1.0 - PSI) * c_p - PSI * c_q) / (2.0 * SQRT5),
            -((1.0 - PSI) * c_p + PSI * c_q) / 4.0)


def _near(value, target: float, tol: float = TOL) -> bool:
    return isinstance(value, (int, float)) and abs(value - target) <= tol


class Gate:
    """Expectations for one workload; :meth:`check` lists what a report gets wrong."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.curved = _curved_oracle(workload.params) if workload.name == "curved_grid" else None

    def check(self, source: str, report: dict) -> list[str]:
        problems: list[str] = []
        suites = report.get("suites", {})

        def expect(ok: bool, what: str) -> None:
            if not ok:
                problems.append(f"{source}: {what}")

        expect(report.get("overall_pass") == (expected_exit(self.workload, source) == 0),
               f"overall_pass is {report.get('overall_pass')}")
        for name, suite in suites.items():
            expect("error" not in suite, f"suite {name} raised {suite.get('error')}")
        name = self.workload.name
        if name == "bundled_mix":
            self._bundled(source, suites, expect)
        elif name == "curved_grid":
            self._curved(suites, expect)
        elif name == "exact_dense":
            self._exact(suites, expect)
        else:
            self._spaceform(suites, self.workload.params, expect)
        return problems

    def _bundled(self, source: str, suites: dict, expect) -> None:
        slant = suites.get("slant", {})
        if source == "paper_example_1":
            structure = suites.get("structure", {})
            expect(structure.get("exact_zero") is True, "structure axioms are not exact zeros")
            expect(structure.get("eigenspace_dims") == [2, 2], "eigenspace dims are not [2, 2]")
        elif source == "paper_example_2":
            expect(slant.get("classification") == "invariant", "slant class is not invariant")
            expect(suites.get("extrinsic", {}).get("classification") == "invariant",
                   "extrinsic class is not invariant")
        elif source == "paper_example_3":
            expect(slant.get("classification") == "proper_slant", "not proper slant")
            expect(_near(slant.get("cos_theta"), 4.0 / math.sqrt(21.0)), "cos(theta) != 4/sqrt(21)")
            expect(slant.get("exact", {}).get("lambda") == "16/21", "exact lambda != 16/21")
        elif source == "paper_example_4_k1":
            expect(slant.get("classification") == "proper_slant", "not proper slant")
            expect(_near(slant.get("cos_theta"), 1.0 / math.sqrt(6.0)), "cos(theta) != 1/sqrt(6)")
        elif source == "paper_example_4_k2_paperformula":
            expect(slant.get("flags", {}).get("reference_invalid") is True,
                   "reference cosine above 1 is not flagged")
        elif source == "spaceform_n4":
            params = {"n": 4, "p": 2, "trials": 100, "c_p": 1.0, "c_q": -1.0}
            self._spaceform(suites, params, expect, seed=7)

    def _curved(self, suites: dict, expect) -> None:
        points = self.workload.items
        for name in ("identities", "extrinsic"):
            expect(suites.get(name, {}).get("points") == points, f"{name} did not see {points} points")
            expect(suites.get(name, {}).get("pass") is True, f"{name} failed")
        expect(suites.get("extrinsic", {}).get("classification") == self.curved["extrinsic"],
               f"extrinsic class is not {self.curved['extrinsic']}")
        if self.curved["slant"] is not None:
            expect(suites.get("slant", {}).get("classification") == self.curved["slant"],
                   f"slant class is not {self.curved['slant']}")

    def _exact(self, suites: dict, expect) -> None:
        n, k, m = (self.workload.params[key] for key in ("n", "k", "m"))
        structure = suites.get("structure", {})
        expect(structure.get("exact_zero") is True, "structure.exact_zero is not true")
        # F = -1 on the k-dimensional W, so phi = (I + sqrt5 F)/2 has 1 - psi there.
        expect(structure.get("eigenspace_dims") == [n - k, k], f"eigenspace dims != {[n - k, k]}")
        identities = suites.get("identities", {})
        expect(identities.get("exact", {}).get("all_zero") is True,
               "identities.exact.all_zero is not true")
        expect(identities.get("points") == 2 ** m, f"identities did not see {2 ** m} points")
        expect(suites.get("slant", {}).get("exact", {}).get("available") is True,
               "slant.exact.available is not true")

    def _spaceform(self, suites: dict, params: dict, expect, seed: int | None = None) -> None:
        curvature = suites.get("curvature", {})
        expect(curvature.get("pass") is True, "curvature suite failed")
        model = curvature.get("model", {})
        want = {"n": params["n"], "p": params["p"], "c_p": params["c_p"], "c_q": params["c_q"],
                "trials": params["trials"],
                "seed": self.workload.seed if seed is None else seed}
        expect({key: model.get(key) for key in want} == want, f"model echo is not {want}")
        n, p = params["n"], params["p"]
        expect(_near(model.get("trace_phi"), p * PSI + (n - p) * (1.0 - PSI)),
               "trace(phi) != p psi + (n - p)(1 - psi)")
        coeff_a, coeff_b = spaceform_coefficients(params["c_p"], params["c_q"])
        cert = curvature.get("certificate", {})
        expect(_near(cert.get("coeff_a"), coeff_a), "coefficient A differs from the README form")
        expect(_near(cert.get("coeff_b"), coeff_b), "coefficient B differs from the README form")
        findings = curvature.get("findings", {})
        # README: the commutation family fails exactly when B != 0, and the
        # non-semi-symmetry probe is nonvanishing for generic (c_p, c_q).
        expect(findings.get("commutation_conforms") is (coeff_b == 0.0),
               "commutation finding does not track B != 0")
        expect(findings.get("non_semi_symmetry_nonvanishing") is True,
               "non-semi-symmetry probe vanished")


def _curved_oracle(params: dict) -> dict:
    """Expected classifications of the curved_grid immersion, from numpy alone.

    The Jacobian columns of (u cos v, u sin v, v, u^2/3) are
    (cos v, sin v, 0, 2u/3) and (-u sin v, u cos v, 1, 0); the metric is
    Euclidean and phi is the diagonal pattern of the workload.
    """
    phi = np.diag([PSI if e == "psi" else 1.0 - PSI for e in CURVED_PHI])
    count = params["count"]
    kinds, angles = set(), []
    for u in np.linspace(*params["u"], count):
        for v in np.linspace(*params["v"], count):
            jac = np.array([[math.cos(v), -u * math.sin(v)], [math.sin(v), u * math.cos(v)],
                            [0.0, 1.0], [2.0 * u / 3.0, 0.0]])
            full, _ = np.linalg.qr(np.hstack([jac, np.eye(4)[:, :2]]))
            tangent, normal = full[:, :2], full[:, 2:]
            p, q = tangent.T @ phi @ tangent, normal.T @ phi @ tangent
            if np.abs(q).max() <= 1e-7:
                kinds.add("invariant")
            elif np.abs(p).max() <= 1e-7:
                kinds.add("anti_invariant")
            else:
                kinds.add("neither")
            for x in np.eye(2):  # angle of phi X with the tangent plane
                angles.append(math.atan2(np.linalg.norm(q @ x), np.linalg.norm(p @ x)))
    extrinsic = kinds.pop() if len(kinds) == 1 else "mixed"
    # An angle spread far above tol_angle (1e-6) can only classify as non_slant.
    slant = "non_slant" if max(angles) - min(angles) > 1e-3 else None
    return {"extrinsic": extrinsic, "slant": slant}
