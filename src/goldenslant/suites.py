"""Verification suites: turn a scenario config into a deterministic report.

Suites run in the fixed order structure -> identities -> extrinsic ->
slant -> curvature.  Each suite result separates two kinds of content:

* hard checks whose failure fails the suite (axioms, definitional splits,
  internal consistency between independent evaluation routes), and
* findings: claims the toolkit probes rather than assumes (the
  phi-commutation family for the space-form tensor, the anti-invariant
  shape-operator claim, the unnormalized reference cosine).  Findings carry
  ``conforms`` flags and never flip the exit code by themselves.

Reports are plain dictionaries of numbers, classifications, certificates
and flags, rendered as sorted JSON so identical (config, seed) pairs give
byte-identical output.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quoted
from typing import Any

import numpy as np

from . import __version__
from .config import ANGLE_FORMULA_UNNORMALIZED, IMMERSION_SUITES, ScenarioConfig, Tolerances
from .errors import ConfigError, GoldenslantError
from .extrinsic import (_phi_hessian_split, gauss_split_residuals, invariant_residuals,
                        shape_vanishing_probe)
from .quadrat import QuadRat
from .slant import classify_geometry, exact_slant_data, reference_cosine
from .spaceform import NABLA_STATEMENTS, ORACLE_TOL, ambient_oracle, curvature_certificate
from .structures import GoldenStructure, _amax, golden_matrix, product_matrix
from .submanifold import (
    PointGeometry,
    exact_frame,
    exact_identity_residuals,
    exact_induced_operators,
    frame_at,  # noqa: F401  (perfbench's wrapper test reads this binding)
    invariance_kinds,
    point_geometry,
    structural_identity_residuals,
)

EXACT_SUITES = {"identities", "slant"}


def run_structure_suite(structure: GoldenStructure, tol: Tolerances) -> dict:
    """Report the axiom check the structure's build ran, the F round trip and the eigenspaces.

    The two eigenspaces of an exact phi span the space exactly when ``phi^2 - phi - I`` is
    exactly zero, which the pass requires.  Its F round trip is 0, an identity of Q(sqrt5).
    """
    report, phi = structure.report, structure.phi
    residuals = {
        "structure_equation": report.residual_structure,
        "self_adjoint": report.residual_self_adjoint,
        "metric_compat": report.residual_compat,
        "product_roundtrip": 0.0 if structure.backend == "exact"
        else float(_amax(golden_matrix(product_matrix(phi)) - phi)),
    }
    spans = report.backend == "float" or report.structure_exact
    return {
        "pass": all(v <= tol.tol_struct for v in residuals.values()) and spans,
        "backend": report.backend,
        "residuals": residuals,
        "exact_zero": report.exact_zero,
        "eigenspace_dims": list(structure.eigenspace_dims),
    }


def run_identities_suite(geom: PointGeometry, tol: Tolerances) -> dict:
    residuals = structural_identity_residuals(geom.ops, geom.frame, geom.structure)
    worst = {key: float(np.max(values)) for key, values in residuals.items()}
    gram = float(np.max(geom.frame.gram_residual()))
    result = {
        "points": geom.size,
        "residuals": worst,
        "frame_gram": gram,
    }
    passed = all(v <= tol.tol_frame for v in worst.values()) and gram <= 1e-10
    result["exact"] = {"available": False}
    if geom.exact is not None:
        exact = exact_identity_residuals(geom.exact)
        all_zero = all(not v for v in exact.values())
        result["exact"] = {
            "available": True,
            "all_zero": all_zero,
            "residuals": {k: float(v) for k, v in exact.items()},
        }
        passed = passed and all_zero
    result["pass"] = passed
    return result


def run_extrinsic_suite(geom: PointGeometry, tol: Tolerances) -> dict:
    phi_split = _phi_hessian_split(geom)
    r_tan, r_nor = (float(np.max(r)) for r in gauss_split_residuals(geom, phi_split))
    h_sym = float(np.max(np.abs(geom.h - geom.h.transpose(0, 2, 1, 3))))
    kinds = set(invariance_kinds(geom.ops, tol.tol_class).tolist())
    kind = kinds.pop() if len(kinds) == 1 else "mixed"
    result: dict[str, Any] = {
        "points": geom.size,
        "classification": kind,
        "residuals": {
            "gauss_tangential": r_tan,
            "gauss_normal": r_nor,
            "h_symmetry": h_sym,
        },
    }
    passed = all(v <= tol.tol_frame for v in (r_tan, r_nor, h_sym))
    findings: dict[str, Any] = {}
    if kind == "invariant":
        r_par, r_wei = (float(np.max(r)) for r in invariant_residuals(geom, phi_split))
        result["residuals"]["invariant_parallel"] = r_par
        result["residuals"]["invariant_weingarten"] = r_wei
        passed = passed and r_par <= tol.tol_frame and r_wei <= tol.tol_frame
    elif kind == "anti_invariant":
        probe = float(np.max(shape_vanishing_probe(geom)))
        findings["shape_operator_max"] = probe
        findings["shape_vanishing_conforms"] = probe <= tol.tol_frame
    result["findings"] = findings
    result["pass"] = passed
    return result


def run_slant_suite(cfg: ScenarioConfig, geom: PointGeometry, tol: Tolerances) -> dict:
    report = classify_geometry(geom, tol_angle=tol.tol_angle, tol_class=tol.tol_class)
    frame, ops = geom.frame.at(0), geom.ops.at(0)
    # The variant formula is not scale-invariant, so feed it the raw tangent.
    raw_e1 = frame.tangent_coords(frame.raw_tangents[:, 0])
    ref = reference_cosine(ops, raw_e1)
    # Written so that a non-finite cosine sets both flags.
    flags = {
        "reference_mismatch": not abs(abs(ref) - report.cos_theta) <= tol.tol_angle,
        "reference_invalid": not abs(ref) <= 1.0 + 1e-12,
    }
    result: dict[str, Any] = {
        "classification": report.classification,
        "theta": report.theta,
        "cos_theta": report.cos_theta,
        "lambda": report.lam,
        "sin_sq": report.k,
        "angle_spread": report.angle_spread,
        "residuals": dict(report.residuals),
        "reference_cosine": ref,
        "angle_formula": cfg.angle_formula,
        "flags": flags,
    }
    # NaN frames give a NaN spread: non_slant, with no residual to fail.
    passed = math.isfinite(report.angle_spread) and all(
        v <= tol.tol_frame for v in report.residuals.values())
    if cfg.angle_formula == ANGLE_FORMULA_UNNORMALIZED:
        # The requested cosine variant must at least be a valid cosine.
        passed = passed and not flags["reference_invalid"]
    result["exact"] = {"available": False}
    if geom.exact is not None:
        data = exact_slant_data(geom.exact)
        exact_result = {
            "available": True,
            "is_slant": bool(data["is_slant"]),
            "lambda": str(data["lambda"]),
            "lambda_float": float(data["lambda"]),
            "residuals": {
                k: float(data[k])
                for k in ("characterization", "lemma_p", "lemma_q",
                          "tq_lambda_form", "tq_block_form")
            },
        }
        result["exact"] = exact_result
        if data["is_slant"]:
            passed = passed and all(v == 0.0 for v in exact_result["residuals"].values())
    result["pass"] = passed
    return result


def _floats(value):
    """The float of every exact value in a nested dictionary."""
    if isinstance(value, dict):
        return {k: _floats(v) for k, v in value.items()}
    return float(value)


def run_curvature_suite(cfg: ScenarioConfig, structure: GoldenStructure,
                        tol: Tolerances) -> dict:
    """The exact certificate of ``(n, p, c_p, c_q)`` and the oracle tying it to the structure.

    Hard checks pass when their exact values are 0 and the oracle's relative bound
    is at most ``ORACLE_TOL``; a finding conforms when its exact value is 0, so no
    tolerance of ``tol`` applies.
    """
    sf, n, p = cfg.spaceform, structure.n, structure.eigenspace_dims[0]
    if p != sf.p:
        raise ConfigError("/spaceform/p", f"must equal {p}, the dimension of "
                          "the psi-eigenspace of the ambient phi")
    phi = structure.phi_hat
    cert = curvature_certificate(n, p, sf.c_p, sf.c_q)
    oracle = ambient_oracle(phi, p, cert)
    # Hard checks are exact zeros when they pass, so only the tensor and the findings
    # carry their exact values.
    exact = {key: value for key, value in cert._asdict().items()
             if key not in ("coefficients", "identities", "ricci_phi")}
    passed = (oracle <= ORACLE_TOL and not any(cert.identities.values())
              and not any(v for path in cert.ricci_phi.values() for v in path.values()))
    findings = {
        "commutation": _floats(cert.commutation),
        "commutation_conforms": not any(cert.commutation.values()),
        "rs_corollary": float(cert.rs_corollary),
        "rs_corollary_conforms": not cert.rs_corollary,
        "rs_phi_propositions": _floats(cert.rs_phi_propositions),
        "rs_phi_conforms": not any(cert.rs_phi_propositions.values()),
        "rs_closed_form_gap": float(cert.rs_closed_form_gap),
        "rs_closed_form_conforms": not cert.rs_closed_form_gap,
        "non_semi_symmetry_probe": float(cert.non_semi_symmetry_probe),
        "non_semi_symmetry_nonvanishing": bool(cert.non_semi_symmetry_probe),
    }
    # spaceform.trials and spaceform.seed size nothing: they are only echoed.
    return {
        "pass": passed,
        "model": {"n": n, "p": p, "c_p": sf.c_p, "c_q": sf.c_q,
                  "trace_phi": float(np.trace(phi)), "trials": sf.trials, "seed": sf.seed},
        "identities": {**_floats(cert.identities), "ambient_oracle": oracle},
        "ricci_phi": _floats(cert.ricci_phi),
        "findings": findings,
        "exact": exact,
        "certificate": {"certified": True, **_floats(cert.coefficients),
                        "statements": list(NABLA_STATEMENTS)},
    }


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value fails its check instead
def run_scenario(cfg: ScenarioConfig, seed: int | None = None,
                 backend: str = "auto") -> dict:
    """Execute the requested suites and assemble the report dictionary.

    The run seed (default: the config's) is echoed as ``meta.seed``; no suite draws
    anything at random.
    """
    tol = cfg.tolerances
    seed = cfg.seed if seed is None else seed
    report: dict[str, Any] = {
        "meta": {
            "tool": "goldenslant",
            "versions": {"goldenslant": __version__, "numpy": np.__version__},
            "seed": seed,
            "backend": backend,
            "tolerances": tol._asdict(),
        },
        "suites": {},
    }
    structure: GoldenStructure | None = None
    build_error: str | None = None
    try:
        structure = cfg.build_structure()
        if backend == "float":
            structure = structure.to_float()
    except GoldenslantError as exc:
        build_error = f"{type(exc).__name__}: {exc}"

    # Every point suite reads one batched pass over the sample points.
    geom, geom_error = None, None
    if build_error is None and IMMERSION_SUITES.intersection(cfg.suites):
        try:
            imm = cfg.build_immersion()
            geom = point_geometry(imm, structure.metric, structure)
            # The exact route, when the scenario has one and a suite reads it.
            frame = exact_frame(imm, structure.metric) if EXACT_SUITES & set(cfg.suites) else None
            if frame is not None:
                geom = geom._replace(exact=exact_induced_operators(frame, structure))
        except GoldenslantError as exc:
            geom_error = f"{type(exc).__name__}: {exc}"

    for suite in cfg.suites:
        error = geom_error if suite in IMMERSION_SUITES else None
        if build_error is not None or error is not None:
            report["suites"][suite] = {"pass": False, "error": build_error or error}
            continue
        try:
            if suite == "structure":
                report["suites"][suite] = run_structure_suite(structure, tol)
            elif suite == "identities":
                report["suites"][suite] = run_identities_suite(geom, tol)
            elif suite == "extrinsic":
                report["suites"][suite] = run_extrinsic_suite(geom, tol)
            elif suite == "slant":
                report["suites"][suite] = run_slant_suite(cfg, geom, tol)
            elif suite == "curvature":
                report["suites"][suite] = run_curvature_suite(cfg, structure, tol)
        except GoldenslantError as exc:
            report["suites"][suite] = {"pass": False,
                                       "error": f"{type(exc).__name__}: {exc}"}
    report["overall_pass"] = all(s.get("pass", False) for s in report["suites"].values())
    return report


# Strict JSON has no NaN or Infinity, so non-finite floats become these strings.
_NON_FINITE = {"nan": '"NaN"', "inf": '"Infinity"', "-inf": '"-Infinity"'}


def _key(key) -> str:
    """A dictionary key as ``json`` writes it: a str, or the JSON of a number, bool or None."""
    if not isinstance(key, (str, int, float)) and key is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return _quoted(key if isinstance(key, str) else json.dumps(key, allow_nan=False))


def _float_text(value: float) -> str:
    """A float as ``json`` writes it, or a non-finite one as its strict-JSON string."""
    text = float.__repr__(value)
    return text if math.isfinite(value) else _NON_FINITE[text]


# The text of a value of each leaf type a report holds, looked up by its exact type.
_LEAVES = {str: _quoted, float: _float_text, int: int.__repr__, bool: ("false", "true").__getitem__,
           type(None): lambda _: "null", QuadRat: lambda value: _quoted(str(value))}


def _text(value, newline: str) -> str:
    """``value`` as ``json.dumps(..., indent=2)`` writes it after ``newline`` (a line break
    and the indent of its line), numpy values by ``.item()``/``.tolist()`` and QuadRat by str."""
    leaf = _LEAVES.get(type(value))
    if leaf is not None:
        return leaf(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [(_quoted(k) if type(k) is str else _key(k)) + ": "
                 + (leaf(v) if (leaf := _LEAVES.get(type(v))) else _text(v, inner))
                 for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        items = [leaf(v) if (leaf := _LEAVES.get(type(v))) else _text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    for kind in (str, float, int, QuadRat):  # subclasses of the leaf types, np.float64 among them
        if isinstance(value, kind):
            return _LEAVES[kind](value)
    if isinstance(value, (np.floating, np.integer)):
        return _text(value.item(), newline)
    if isinstance(value, np.ndarray):
        return _text(value.tolist(), newline)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_report(report: dict) -> str:
    """Deterministic strict-JSON text of a report (sorted keys, stable floats): the bytes of
    ``json.dumps(report, sort_keys=True, indent=2, allow_nan=False)``, written in one walk
    with non-finite floats as the strings ``"NaN"``, ``"Infinity"`` and ``"-Infinity"``."""
    return _text(report, "\n") + "\n"
