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
from dataclasses import replace
from typing import Any

import numpy as np

from . import __version__
from .config import ANGLE_FORMULA_UNNORMALIZED, IMMERSION_SUITES, ScenarioConfig, Tolerances
from .errors import ConfigError, GoldenslantError
from .extrinsic import gauss_split_residuals, invariant_residuals, shape_vanishing_probe
from .quadrat import QuadRat
from .slant import classify_geometry, exact_slant_data, reference_cosine
from .spaceform import (
    SpaceFormModel,
    antisymmetry_residual,
    bianchi_residual,
    curvature_commutation_checks,
    nabla_identities_certificate,
    non_semi_symmetry_probe,
    pair_symmetry_residual,
    r_dot_s_closed_form_gap,
    ricci_agreement,
    ricci_phi_checks,
    rs_corollary_residual,
    rs_phi_propositions,
)
from .structures import (
    GoldenStructure,
    _amax,
    golden_eigendecomp,
    golden_matrix,
    product_matrix,
)
from .submanifold import (
    PointGeometry,
    exact_frame,
    exact_identity_residuals,
    exact_induced_operators,
    frame_at,  # noqa: F401  (still importable from this module)
    invariance_kinds,
    point_geometry,
    structural_identity_residuals,
)

NONVANISHING_THRESHOLD = 1e-6
EXACT_SUITES = {"identities", "slant"}


def run_structure_suite(structure: GoldenStructure, tol: Tolerances) -> dict:
    """Report the axiom check the structure's build ran, the F round trip and the eigenspaces."""
    report = structure.report
    phi = structure.phi
    residuals = {
        "structure_equation": report.residual_structure,
        "self_adjoint": report.residual_self_adjoint,
        "metric_compat": report.residual_compat,
        "product_roundtrip": float(_amax(golden_matrix(product_matrix(phi)) - phi)),
    }
    dims = [int(basis.shape[1]) for basis in golden_eigendecomp(structure)]
    return {
        "pass": all(v <= tol.tol_struct for v in residuals.values()) and sum(dims) == structure.n,
        "backend": report.backend,
        "residuals": residuals,
        "exact_zero": report.exact_zero,
        "eigenspace_dims": dims,
    }


def run_identities_suite(geom: PointGeometry, tol: Tolerances) -> dict:
    rep = structural_identity_residuals(geom.ops, geom.frame, geom.structure)
    worst = {key: float(np.max(values)) for key, values in rep.residuals.items()}
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
    r_tan, r_nor = (float(np.max(r)) for r in gauss_split_residuals(geom))
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
        r_par, r_wei = (float(np.max(r)) for r in invariant_residuals(geom))
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
    passed = all(v <= tol.tol_frame for v in report.residuals.values())
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


def run_curvature_suite(cfg: ScenarioConfig, structure: GoldenStructure,
                        tol: Tolerances) -> dict:
    sf = cfg.spaceform
    model = SpaceFormModel.from_structure(structure, sf.c_p, sf.c_q)
    if model.p != sf.p:
        raise ConfigError("/spaceform/p", f"must equal {model.p}, the dimension of "
                          "the psi-eigenspace of the ambient phi")
    trials, seed = sf.trials, sf.seed
    # Overflowing curvatures give Inf/NaN residuals, which fail the checks below.
    with np.errstate(over="ignore", invalid="ignore"):
        identities = {
            "ricci_framesum_vs_closed": ricci_agreement(model, trials, seed),
            "bianchi": bianchi_residual(model, trials, seed),
            "pair_symmetry": pair_symmetry_residual(model, trials, seed),
            "antisymmetry": antisymmetry_residual(model, trials, seed),
        }
        ricci_phi = {
            "framesum": ricci_phi_checks(model, trials, seed, path="framesum"),
            "closed": ricci_phi_checks(model, trials, seed, path="closed"),
        }
        commutation = curvature_commutation_checks(model, trials, seed)
        corollary = rs_corollary_residual(model, trials, seed)
        rs_props = rs_phi_propositions(model, trials, seed)
        gap = r_dot_s_closed_form_gap(model, trials, seed)
        probe = non_semi_symmetry_probe(model, trials, seed)
    passed = (identities["ricci_framesum_vs_closed"] <= tol.tol_frame
              and identities["bianchi"] <= 1e-10
              and identities["pair_symmetry"] <= 1e-10
              and identities["antisymmetry"] <= 1e-10
              and all(v <= tol.tol_frame for path in ricci_phi.values()
                      for v in path.values()))
    findings = {
        "commutation": commutation,
        "commutation_conforms": all(v <= tol.tol_frame for v in commutation.values()),
        "rs_corollary": corollary,
        "rs_corollary_conforms": corollary <= tol.tol_frame,
        "rs_phi_propositions": rs_props,
        "rs_phi_conforms": all(v <= 1e-8 for v in rs_props.values()),
        "rs_closed_form_gap": gap,
        "rs_closed_form_conforms": gap <= tol.tol_frame,
        "non_semi_symmetry_probe": probe,
        "non_semi_symmetry_nonvanishing": probe > NONVANISHING_THRESHOLD,
    }
    cert = nabla_identities_certificate(model)
    return {
        "pass": passed,
        "model": {"n": model.n, "p": model.p, "c_p": model.c_p, "c_q": model.c_q,
                  "trace_phi": model.trace_phi, "trials": trials, "seed": seed},
        "identities": identities,
        "ricci_phi": ricci_phi,
        "findings": findings,
        "certificate": {
            "certified": cert.certified,
            "coeff_a": cert.coeff_a,
            "coeff_b": cert.coeff_b,
            "ricci_g_coeff": cert.ricci_g_coeff,
            "ricci_phi_coeff": cert.ricci_phi_coeff,
            "statements": list(cert.statements),
        },
    }


def run_scenario(cfg: ScenarioConfig, seed: int | None = None,
                 backend: str = "auto") -> dict:
    """Execute the requested suites and assemble the report dictionary.

    The run seed (default: the config's) is echoed as ``meta.seed``; the point
    suites draw nothing at random, and the curvature suite uses ``spaceform.seed``.
    """
    tol = cfg.tolerances
    seed = cfg.seed if seed is None else seed
    report: dict[str, Any] = {
        "meta": {
            "tool": "goldenslant",
            "versions": {"goldenslant": __version__, "numpy": np.__version__},
            "seed": seed,
            "backend": backend,
            "tolerances": tol.as_dict(),
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
                geom = replace(geom, exact=exact_induced_operators(frame, structure))
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
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, QuadRat):
        return str(value)
    if isinstance(value, float) and not math.isfinite(value):
        return _NON_FINITE[repr(value)]
    return value


def render_report(report: dict) -> str:
    """Deterministic strict-JSON text of a report (sorted keys, stable floats)."""
    return json.dumps(_jsonable(report), sort_keys=True, indent=2, allow_nan=False) + "\n"
