"""The table of checks: every value a suite reports, what it states and how it decides.

A row's kind is ``hard`` (the suite fails unless it holds; under ``when`` only then),
``finding`` (a claim probed, not assumed, next to a ``conforms`` flag), ``flag`` (a
boolean the report sets) or ``metadata``.  Its bound is a ``Tolerances`` field, a name in
``BOUNDS``, ``ZERO`` (exactly 0, decided on the exact value, so that an exact value below
the float range still fails), ``FINITE`` or ``TRUE``.  The suites decide ``pass`` by
:func:`verdict` and their findings and flags by :func:`holds`; ``goldenslant explain``
prints :func:`explain`.  The module imports nothing numeric.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import groupby
from typing import NamedTuple

HARD, FINDING, FLAG, METADATA = "hard", "finding", "flag", "metadata"
ZERO, FINITE, TRUE = "exactly 0", "finite", "true"
# The fixed bounds, each written only here; the README's tolerance tables list them.
BOUNDS = {"COSINE_MAX": 1.0 + 1e-12, "ORACLE_TOL": 1e-12, "RANK_SINE": 1e-8}
# The conditions of a run under which a row applies, by the names the suites pass.
WHEN = {"exact": "when the exact backend or route ran",
        "invariant": "on an invariant classification",
        "anti_invariant": "on an anti-invariant classification",
        "float_slant": "when the float verdict is slant", "is_slant": "when exact.is_slant",
        "float_lambda_positive": "when the float verdict is slant and not anti_invariant",
        "unnormalized": "when angle_formula is unnormalized"}


class Check(NamedTuple):
    key: str  # the value's path in the suite's report
    kind: str
    bound: str | None
    statement: str  # what ``explain`` prints
    when: str | None = None
    implied_by: tuple[str, ...] = ()  # rows of the suite that bound this one


def _suite(rows: tuple, meta: dict[str, str]) -> tuple[Check, ...]:
    """``rows``, then a metadata row for each entry of ``meta`` and for pass and error."""
    meta = {**meta, "pass": "every hard check that applies holds",
            "error": "why the suite could not run; it then fails"}
    return tuple(Check(*row) for row in rows) + tuple(
        Check(key, METADATA, None, text) for key, text in meta.items())


_BLOCKS = (("p_squared", "P^2 = P + I - tQ", "block TT of C^2 - C - I"),
           ("q_projection", "Q = QP + sQ", "block NT of C^2 - C - I"),
           ("s_squared", "s^2 = s + I - Qt", "block NN of C^2 - C - I"),
           ("t_projection", "t = Pt + ts", "block TN of C^2 - C - I"),
           ("p_self_adjoint", "g(PX, Y) = g(X, PY)", "M_TT = M_TT^T"),
           ("metric_split", "g(PX, PY) + g(QX, QY) = g(X, Y) + g(PX, Y)",
            "C[:, :m]^T M[:, :m] = Gt + M_TT^T"))
_SLANT = (("characterization", "P^2 = lambda (P + I)", "float_slant"),
          ("lemma_p", "g(PX, PY) = lambda (g(X, Y) + g(X, PY))", "float_slant"),
          ("lemma_q", "g(QX, QY) = (1 - lambda) (g(X, Y) + g(PX, Y))", "float_slant"),
          ("tq", "tQ = (1 - lambda)(P + I) = -P^2 + P + I", "float_slant"),
          ("corollary", "g(phi^2 X, X) = g(P^2 X, X) / lambda", "float_lambda_positive"))
_RICCI_PHI = (("phi_sq_left", "S(phi^2 X, Y) = S(phi X, Y) + S(X, Y)"),
              ("phi_sq_right", "S(X, phi^2 Y) = S(X, phi Y) + S(X, Y)"),
              ("phi_both", "S(phi X, phi Y) = S(phi X, Y) + S(X, Y)"),
              ("phi_swap", "S(phi X, Y) = S(phi Y, X)"))
_COMMUTATION = (("phi_argument", "R(X,Y)phi Z = phi R(X,Y)Z"),
                ("form_swap", "g(R(X,Y)phi Z, W) = g(R(X,Y)Z, phi W)"),
                ("first_slots", "R(phi X, Y)Z = R(X, phi Y)Z"),
                ("both_slots", "R(phi X, phi Y)Z = R(phi X, Y)Z + R(X,Y)Z"),
                ("form_both_phi", "g(R(X,Y)phi Z, phi W) = g(R(X,Y)Z, phi W) + g(R(X,Y)Z, W)"))

TABLE = {
    "structure": _suite((
        ("residuals.structure_equation", HARD, "tol_struct", "phi^2 - phi - I = 0"),
        ("residuals.self_adjoint", HARD, "tol_struct", "g(phi X, Y) = g(X, phi Y)"),
        ("residuals.metric_compat", HARD, "tol_struct", "g(phi X, phi Y) = g(phi X, Y) + g(X, Y)"),
        ("residuals.product_roundtrip", HARD, "tol_struct", "(I + sqrt5 F)/2 = phi for "
         "F = (2 phi - I)/sqrt5:\n0 by the field identity when exact"),
        ("eigenspace_dims", HARD, TRUE, "[p, n - p], p = (n + tr F)/2, the dimensions of the "
         "eigenspaces;\nthey span the space: phi^2 - phi - I is exactly 0", "exact"),
        ("exact_zero", FLAG, None, "all three axiom residuals of an exact phi are exactly 0")),
        {"backend": "exact (over Q(sqrt5)) or float"}),
    "identities": _suite((
        *((f"residuals.{key}", HARD, "tol_frame", text) for key, text, _ in _BLOCKS),
        *((f"exact.residuals.{key}", HARD, ZERO, f"{text}: {block}", "exact")
          for key, text, block in _BLOCKS),
        ("exact.all_zero", FLAG, None, "every exact residual is exactly 0", "exact")),
        {"points": "the number of sample points",
         "exact.available": "whether the exact route ran"}),
    "extrinsic": _suite((
        ("residuals.gauss_tangential", HARD, "tol_frame",
         "tan(phi D2x_ij) = P tan(D2x_ij) + t h_ij"),
        ("residuals.gauss_normal", HARD, "tol_frame", "nor(phi D2x_ij) = Q tan(D2x_ij) + s h_ij"),
        ("residuals.h_symmetry", HARD, "tol_frame", "h_ij = h_ji, with h_ij = nor(D2x_ij)"),
        ("residuals.invariant_parallel", HARD, "tol_frame", "tan(phi D2x_ij) = P tan(D2x_ij)",
         "invariant", ("classification",)),
        ("residuals.invariant_weingarten", HARD, "tol_frame", "h(X_i, P X_j) = s h(X_i, X_j)",
         "invariant", ("classification",)),
        ("findings.shape_operator_max", FINDING, "tol_frame", "max |g(h(X_i, X_j), phi e_b)|:\n"
         "the claim that every A_{phi Y} vanishes", "anti_invariant"),
        ("findings.shape_vanishing_conforms", FLAG, None, "shape_operator_max conforms",
         "anti_invariant")),
        {"points": "the number of sample points",
         "classification": "invariant when max |Q| is within tol_class and both invariant rows\n"
         "within tol_frame, anti_invariant when max |P| is within tol_class,\nat every point "
         "(|Q| or |P| exactly 0 when the exact route ran),\nelse neither, or mixed when the "
         "points differ: the slant suite's rule"}),
    "slant": _suite((
        ("angle_spread", HARD, FINITE, "max - min of theta(X) over the directions and points"),
        *((f"residuals.{key}", HARD, "tol_frame", text, when, ("classification",))
          for key, text, when in _SLANT),
        *((f"exact.residuals.{key}", HARD, ZERO, text, "is_slant") for key, text, _ in _SLANT[:3]),
        ("exact.residuals.tq_lambda_form", HARD, ZERO, "tQ = (1 - lambda)(P + I)", "is_slant"),
        ("flags.reference_invalid", HARD, "COSINE_MAX", "|reference_cosine|: the flag is set "
         "when it is above the bound", "unnormalized"),
        ("flags.reference_mismatch", FLAG, "tol_angle", "| |reference_cosine| - cos_theta |"),
        ("flags.float_exact_disagree", FLAG, None, "the exact and the float verdicts differ",
         "exact")),
        {"classification": "slant when every identity in residuals is within tol_frame, and so "
         "are\nthe extrinsic suite's invariant rows at every point within tol_class\nof invariant; "
         "the characterization first as mu^2 - lambda (mu + 1) on\nP's eigenvalues (non_slant "
         "above it).  Then invariant or anti_invariant\nby the extrinsic suite's rule, else "
         "proper_slant.  When the exact route\nran its verdict decides: non_slant unless "
         "exact.is_slant, then by the\nexact lambda",
         "theta": "the mean of theta(X) at P's eigenvectors at every point",
         "cos_theta": "cos theta", "lambda": "cos^2 theta", "sin_sq": "sin^2 theta",
         "reference_cosine": "g(phi e1, e1)/|phi e1| on the raw first tangent, without |X|",
         "angle_formula": "projection, or unnormalized",
         "exact.available": "whether the exact route ran",
         "exact.float_classification": "the float verdict",
         "exact.is_slant": "cos^2 theta agrees on the basis and the characterization is 0",
         "exact.lambda": "the exact lambda, as Q(sqrt5) text", "exact.lambda_float": "its float"}),
    "curvature": _suite((
        ("identities.ricci_framesum_vs_closed", HARD, ZERO,
         "sum_i g(R(e_i,Y)Z, e_i) = alpha g(Y, Z) + beta g(phi Y, Z)"),
        ("identities.bianchi", HARD, ZERO, "R(X,Y)Z + R(Y,Z)X + R(Z,X)Y = 0"),
        ("identities.pair_symmetry", HARD, ZERO, "g(R(X,Y)Z, W) = g(R(Z,W)X, Y)"),
        ("identities.antisymmetry", HARD, ZERO, "R(X,Y)Z = -R(Y,X)Z"),
        *((f"ricci_phi.{path}.{key}", HARD, ZERO, f"{text}, S the {source}")
          for key, text in _RICCI_PHI
          for path, source in (("framesum", "frame sum"), ("closed", "closed form"))),
        ("identities.ambient_oracle", HARD, "ORACLE_TOL", "R of phi_hat (in y = W x) is within "
         "the bound times |X||Y||Z| max|kappa|\nof the certified tensor on every triple, by "
         "(2|A|(2 psi e + e^2) + 4|B| e)/max|kappa|,\nwhere e bounds |phi_hat - Phi|_2 for a "
         "symmetric Phi of the certified spectrum"),
        *((f"findings.commutation.{key}", FINDING, ZERO, text) for key, text in _COMMUTATION),
        ("findings.rs_corollary", FINDING, ZERO, "(R(phi X, Y).S)(phi Z, W) = 0"),
        ("findings.rs_phi_propositions.arguments", FINDING, ZERO,
         "(R(phi X, phi Y).S)(Z, W) = (R(phi X, Y).S)(Z, W) + (R(X,Y).S)(Z, W)"),
        ("findings.rs_phi_propositions.values", FINDING, ZERO,
         "(R(X,Y).S)(phi Z, phi W) = (R(X,Y).S)(phi Z, W) + (R(X,Y).S)(Z, W)"),
        ("findings.rs_closed_form_gap", FINDING, ZERO,
         "(R(X,Y).S)(Z, W) = -2 beta g(R(X,Y)W, phi Z)"),
        ("findings.non_semi_symmetry_probe", FINDING, ZERO, "max |(R(X,Y).S)(Z, W)|, nonzero "
         "exactly when beta != 0\nand both eigenspaces are present"),
        ("findings.commutation_conforms", FLAG, None, "every commutation finding is 0; they "
         "fail whenever B != 0\nand both eigenspaces are present (phi_argument is then sqrt5 |B|)"),
        ("findings.rs_corollary_conforms", FLAG, None, "rs_corollary is 0"),
        ("findings.rs_phi_conforms", FLAG, None, "both rs_phi_propositions are 0"),
        ("findings.rs_closed_form_conforms", FLAG, None, "rs_closed_form_gap is 0"),
        ("findings.non_semi_symmetry_nonvanishing", FLAG, None,
         "non_semi_symmetry_probe is not 0")),
        {"model": "n, p, c_p, c_q, trace phi, and the echoed spaceform.trials and seed",
         "exact": "kappa (pp, pq, qq) and every finding, as Q(sqrt5) text",
         "certificate": "the floats of A, B, alpha and beta; constant coefficients imply\n"
         "nabla R = 0 and nabla S = 0 identically (statements)"}),
}
HEADERS = {
    "structure": "structure suite: golden-structure axioms on the ambient space",
    "identities": """\
identities suite: induced operators P, Q, t, s along the immersion
Exact route (affine immersions over Q(sqrt5)): phi as one block matrix
  C = [[P, t], [Q, s]] in the basis B = [T | N], its tangent rows from the
  m x m tangent Gram system and its normal rows from the free rows of N;
  M = B^T g phi B is its lowered form.""",
    "extrinsic": """\
extrinsic suite: second fundamental form and split checks (flat ambient)
  tan and nor are coordinates in the orthonormal frames P, Q, t and s are
  written in.  Each entry (i, j) is relative to max|W D2x_ij|, the largest
  entry of its own Hessian column at its point (1 where that column is 0).""",
    "slant": """\
slant suite: angles at the eigenvectors of P and classification
  cos theta(X) = |g(phi X, PX)| / (|PX| |phi X|), lambda = cos^2 theta""",
    "curvature": """\
curvature suite: an exact certificate of the space-form model R and its Ricci program
  R(X,Y)Z = A {g(Y,Z)X - g(X,Z)Y + g(phiY,Z)phiX - g(phiX,Z)phiY}
          + B {g(phiY,Z)X - g(phiX,Z)Y + g(Y,Z)phiX - g(X,Z)phiY}
  A = -((1-psi) c_p - psi c_q)/(2 sqrt5), B = -((1-psi) c_p + psi c_q)/4
  in an orthonormal eigenframe of phi, g(R(e_i,e_j)e_k, e_l) =
  kappa_ij (d_jk d_il - d_ik d_jl), kappa_ij = A(1 + phi_i phi_j) + B(phi_i + phi_j);
  every check is evaluated over Q(sqrt5) on one basis tuple per class (which
  eigenspace each index is in, which indices are equal) and reports its
  largest basis value, exact ("exact") and as a float""",
}
_ROW = {(suite, row.key): row for suite, rows in TABLE.items() for row in rows}


def _within(value, bound: str, tol) -> bool:
    """Whether ``value`` meets ``bound``; NaN meets none."""
    if bound == ZERO:
        return not value
    if bound == FINITE:
        return math.isfinite(value)
    if bound == TRUE:
        return value is True
    return value <= (BOUNDS[bound] if bound in BOUNDS else getattr(tol, bound))


def holds(suite: str, key: str, value, tol) -> bool:
    """Whether ``value`` meets the bound of the row at ``key``, or, for a dictionary of
    values, whether each meets that of its row below ``key``."""
    if isinstance(value, dict):
        return all(holds(suite, f"{key}.{k}", v, tol) for k, v in value.items())
    return _within(value, _ROW[suite, key].bound, tol)


def verdict(suite: str, values: dict, tol, **conditions: bool) -> bool:
    """The suite's pass: every hard row that applies under ``conditions`` holds on ``values``,
    laid out as the suite's report with the exact value of every exact row."""
    return all(_within(reduce(dict.__getitem__, row.key.split("."), values), row.bound, tol)
               for row in TABLE[suite] if row.kind == HARD
               and (row.when is None or conditions[row.when]))


def explain(suite: str) -> str:
    """What ``goldenslant explain SUITE`` prints: the suite's header, then its rows under one
    heading per kind, bound and condition."""
    rows = sorted(TABLE[suite], key=lambda row: (HARD, FINDING, FLAG, METADATA).index(row.kind))
    width = max(len(row.key) for row in rows) + 4
    lines = [HEADERS[suite]]
    for (kind, bound, when), group in groupby(rows, lambda row: (row.kind, row.bound, row.when)):
        rule = (f"<= {bound} = {BOUNDS[bound]!r}" if bound in BOUNDS
                else bound if bound in (ZERO, FINITE, TRUE) else f"<= {bound}")
        heading = {HARD: f"hard checks, each {rule}", FINDING: f"findings, conforming when {rule}",
                   FLAG: "flags" + (f", each set unless {rule}" if bound else ""),
                   METADATA: "reported with them"}[kind]
        lines.append(heading + (f", {WHEN[when]}" if when else "") + ":")
        for row in group:
            text = row.statement + "".join(f" (implied by {key})" for key in row.implied_by)
            lines.append(f"  {row.key:<{width - 2}}" + text.replace("\n", "\n" + " " * width))
    return "\n".join(lines) + "\n"
