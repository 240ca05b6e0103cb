"""Verification suites: turn a scenario config into a deterministic report.

Suites run in the fixed order structure -> identities -> extrinsic ->
slant -> curvature.  What each reported value states, and whether it is a
hard check, a finding, a flag or metadata, is a row of :mod:`goldenslant.checks`;
every suite decides its pass by :func:`~goldenslant.checks.verdict` over those
rows, and its findings and flags by :func:`~goldenslant.checks.holds`.

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
from .checks import holds, verdict
from .config import ANGLE_FORMULA_UNNORMALIZED, IMMERSION_SUITES, ScenarioConfig, Tolerances
from .errors import ConfigError, GoldenslantError
from .extrinsic import extrinsic_residuals
from .quadrat import QuadRat
from .slant import (INVARIANT, NON_SLANT, PROPER_SLANT, classify_geometry, exact_slant_data,
                    reference_cosine)
from .spaceform import NABLA_STATEMENTS, ambient_oracle, curvature_certificate
from .structures import GoldenStructure, _amax, golden_matrix, product_matrix
from .submanifold import (
    PointGeometry,
    exact_frame,
    exact_identity_residuals,
    exact_induced_operators,
    frame_at,  # noqa: F401  (perfbench's wrapper test reads this binding)
    point_geometry,
    structural_identity_residuals,
)


def run_structure_suite(structure: GoldenStructure, tol: Tolerances) -> dict:
    """Report the axiom check the structure's build ran, the F round trip and the eigenspaces.

    The two eigenspaces of an exact phi span the space exactly when ``phi^2 - phi - I`` is
    exactly zero, which the pass requires.  Its F round trip is 0, an identity of Q(sqrt5).
    """
    report, phi = structure.report, structure.phi
    result = {
        "backend": report.backend,
        "residuals": {
            "structure_equation": report.residual_structure,
            "self_adjoint": report.residual_self_adjoint,
            "metric_compat": report.residual_compat,
            "product_roundtrip": 0.0 if structure.backend == "exact"
            else float(_amax(golden_matrix(product_matrix(phi)) - phi)),
        },
        "exact_zero": report.exact_zero,
        "eigenspace_dims": list(structure.eigenspace_dims),
    }
    result["pass"] = verdict("structure", {**result, "eigenspace_dims": report.structure_exact},
                             tol, exact=report.backend == "exact")
    return result


def run_identities_suite(geom: PointGeometry, tol: Tolerances) -> dict:
    result = {"points": geom.size, "residuals": structural_identity_residuals(geom.ops),
              "exact": {"available": False}}
    values = result
    if geom.exact is not None:
        exact = exact_identity_residuals(geom.exact)
        result["exact"] = {
            "available": True,
            "all_zero": holds("identities", "exact.residuals", exact, tol),
            "residuals": {k: float(v) for k, v in exact.items()},
        }
        values = {**result, "exact": {"residuals": exact}}
    result["pass"] = verdict("identities", values, tol, exact=geom.exact is not None)
    return result


def run_extrinsic_suite(geom: PointGeometry, tol: Tolerances) -> dict:
    kind, residuals = extrinsic_residuals(geom, tol)
    findings = {}
    if kind == "anti_invariant":
        probe = residuals.pop("shape_operator_max")
        findings = {"shape_operator_max": probe, "shape_vanishing_conforms": holds(
            "extrinsic", "findings.shape_operator_max", probe, tol)}
    result = {"points": geom.size, "classification": kind, "residuals": residuals,
              "findings": findings}
    result["pass"] = verdict("extrinsic", result, tol, invariant=kind == "invariant")
    return result


def run_slant_suite(cfg: ScenarioConfig, geom: PointGeometry, tol: Tolerances) -> dict:
    record = classify_geometry(geom, tol_frame=tol.tol_frame, tol_class=tol.tol_class)
    float_kind = record["classification"]
    frame, ops = geom.frame.at(0), geom.ops.at(0)
    # The variant formula is not scale-invariant, so feed it the raw tangent.
    raw_e1 = frame.tangent_coords(frame.raw_tangents[:, 0])
    ref = reference_cosine(ops, raw_e1)
    # A non-finite cosine meets no bound, so it sets both flags.
    flags = {
        "reference_mismatch": not holds("slant", "flags.reference_mismatch",
                                        abs(abs(ref) - record["cos_theta"]), tol),
        "reference_invalid": not holds("slant", "flags.reference_invalid", abs(ref), tol),
    }
    result: dict[str, Any] = {**record, "reference_cosine": ref,
                              "angle_formula": cfg.angle_formula, "flags": flags,
                              "exact": {"available": False}}
    values = {**result, "flags": {"reference_invalid": abs(ref)}}
    data = None if geom.exact is None else exact_slant_data(geom.exact)
    if data is not None:
        # The exact verdict decides; the float one stays next to it, flagged if it differs.
        result["classification"] = data["classification"]
        flags["float_exact_disagree"] = data["classification"] != float_kind
        result["exact"] = {
            "available": True,
            "float_classification": float_kind,
            "is_slant": bool(data["is_slant"]),
            "lambda": str(data["lambda"]),
            "lambda_float": float(data["lambda"]),
            "residuals": {k: float(v) for k, v in data["residuals"].items()},
        }
        values["exact"] = data
    result["pass"] = verdict(
        "slant", values, tol, float_slant=float_kind != NON_SLANT,
        float_lambda_positive=float_kind in (INVARIANT, PROPER_SLANT),
        is_slant=data is not None and bool(data["is_slant"]),
        unnormalized=cfg.angle_formula == ANGLE_FORMULA_UNNORMALIZED)
    return result


def _floats(value):
    """The float of every exact value in a nested dictionary."""
    if isinstance(value, dict):
        return {k: _floats(v) for k, v in value.items()}
    return float(value)


def run_curvature_suite(cfg: ScenarioConfig, structure: GoldenStructure,
                        tol: Tolerances) -> dict:
    """The exact certificate of ``(n, p, c_p, c_q)`` and the oracle tying it to the structure.

    Every check but the oracle is decided on its exact value, so no tolerance of ``tol``
    applies.
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
    identities = {**cert.identities, "ambient_oracle": oracle}

    def conforms(key):
        return holds("curvature", f"findings.{key}", exact[key], tol)

    findings = {
        "commutation": _floats(cert.commutation),
        "commutation_conforms": conforms("commutation"),
        "rs_corollary": float(cert.rs_corollary),
        "rs_corollary_conforms": conforms("rs_corollary"),
        "rs_phi_propositions": _floats(cert.rs_phi_propositions),
        "rs_phi_conforms": conforms("rs_phi_propositions"),
        "rs_closed_form_gap": float(cert.rs_closed_form_gap),
        "rs_closed_form_conforms": conforms("rs_closed_form_gap"),
        "non_semi_symmetry_probe": float(cert.non_semi_symmetry_probe),
        "non_semi_symmetry_nonvanishing": not conforms("non_semi_symmetry_probe"),
    }
    # spaceform.trials and spaceform.seed size nothing: they are only echoed.
    return {
        "pass": verdict("curvature", {"identities": identities, "ricci_phi": cert.ricci_phi}, tol),
        "model": {"n": n, "p": p, "c_p": sf.c_p, "c_q": sf.c_q,
                  "trace_phi": float(np.trace(phi)), "trials": sf.trials, "seed": sf.seed},
        "identities": _floats(identities),
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
            # The exact route, when the scenario has one.
            frame = exact_frame(imm, structure.metric)
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
