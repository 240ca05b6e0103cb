#!/usr/bin/env python3
"""Named source mutations of goldenslant, and the tier-1 tests that kill each one.

Run from the repository root::

    python3 tools/mutants.py [SRC] [NAME ...] > mutants.txt

``SRC`` is the goldenslant source tree to mutate (default: this repository's ``src``);
``NAME`` picks mutations from :data:`MUTATIONS` (default: all of them).  The tree is first
copied, with this repository's tests, tools, perfbench, README and pyproject, into a
temporary directory, and tier-1 (``python -m pytest``) runs there unmutated.  Then, for
each mutation, the copy gets the mutation's replacement in place of its target text (which
must occur exactly once in the package), tier-1 runs again, and one line names the
mutation and every test that fails beyond those that failed unmutated, or ``SURVIVED``
when none does.  The copy is restored before the next mutation.  Hypothesis runs with a
fixed seed, so two runs on one tree print the same lines.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("tests", "tools", "perfbench", "README.md", "pyproject.toml")
IGNORED = shutil.ignore_patterns("__pycache__", ".work")
# It reads the targets in the mutated copy, where one is always missing.
TARGETS_TEST = "tests/test_checks.py::test_every_mutation_target_occurs_once_in_the_package"

# name -> (file in the package, target text, replacement): each a fault a test should see.
MUTATIONS = {
    # Scale-free residuals and the Euclidean model (the unit-free verdicts).
    "drop_t_h": ("extrinsic.py",
                 '"gauss_tangential": tan - _apply(ops.p, tangential) - _apply(ops.t, h),',
                 '"gauss_tangential": tan - _apply(ops.p, tangential),'),
    "phi_hat_without_w": ("structures.py",
                          "return as_float(lt @ self.phi @ lower_inv.T) * np.outer(root_d, root_d)",
                          "return self.phi_float"),
    "float_view_w_identity": ("structures.py",
                              "view.w, view.w_inv = root_d[:, None] * lt, lower_inv.T * root_d",
                              "view.w = view.w_inv = np.eye(self.n)"),
    "ldl_without_d": ("structures.py", "root_d = 1.0 / np.sqrt(lower_inv.diagonal())",
                      "root_d = np.ones(self.n)"),
    "absolute_extrinsic_residuals": ("extrinsic.py", "scale = geom.hessian_scale[..., None]",
                                     "scale = 1.0"),
    # The table of checks.
    "verdict_ignores_conditions": ("checks.py",
                                   "and (row.when is None or conditions[row.when]))",
                                   "and row.when is None)"),
    "exact_slant_rows_on_floats": ("suites.py", 'values["exact"] = data',
                                   'values["exact"] = result["exact"]'),
    "reference_invalid_never_hard": ("suites.py",
                                     "unnormalized=cfg.angle_formula == ANGLE_FORMULA_UNNORMALIZED",
                                     "unnormalized=False"),
    # Affine immersions without a sample grid, and the golden/product round trip.
    "product_matrix_3phi": ("structures.py", "return (2 * phi - _eye(phi)) / _sqrt5(phi)",
                            "return (3 * phi - _eye(phi)) / _sqrt5(phi)"),
    "affine_bound_signed_c": ("expr.py", "np.isfinite(2.0 * (np.abs(constant) + np.abs(jacobian)",
                              "np.isfinite(2.0 * (constant + np.abs(jacobian)"),
    "affine_bound_without_2": ("expr.py", "np.isfinite(2.0 * (np.abs(constant)",
                               "np.isfinite((np.abs(constant)"),
    "extent_without_extra_points": ("config.py", "np.abs(np.append(axis, column)).max()",
                                    "np.abs(axis).max()"),
    # One operator record for both routes.
    "float_gram_tangent_2i": ("submanifold.py", "blocks @ blocks, np.eye(frame.m))",
                              "blocks @ blocks, 2 * np.eye(frame.m))"),
    "exact_gram_tangent_identity": ("submanifold.py",
                                    "InducedOperators(c, lowered, c @ c, frame.gram_tangent)",
                                    "InducedOperators(c, lowered, c @ c, xl.eye(m))"),
    "lemma_q_reads_gt_p": ("slant.py", "ops.q.mT @ ops.lowered[..., ops.m:, :ops.m]",
                           "ops.q.mT @ ops.lowered[..., :ops.m, :ops.m]"),
    # Jets: constants take no derivative rule, sqrt has none at 0, every jet is checked.
    "constant_takes_chain_rule": ("jets.py", "if not (self.grad.any() or self.hess.any()):",
                                  "if False:"),
    "sqrt_zero_allowed": ("jets.py", "if v.ndim and np.any(v == 0.0):", "if False:"),
    "last_jet_checked_only": ("expr.py", "if error is not None or not np.isfinite(jets).all():",
                              "if error is not None or not np.isfinite(hess[:, -1]).all():"),
    # One slant verdict.
    "tq_lambda_form_plus": ("slant.py", "return tq - (p + _eye(p)) * (1 - lam)",
                            "return tq - (p + _eye(p)) * (1 + lam)"),
    "slant_without_residual_test": ("slant.py", "if all(v <= tol_frame for v in (*residuals",
                                    "if True or all(v <= tol_frame for v in (*residuals"),
    "extrinsic_reads_float_operators": ("extrinsic.py",
                                        "if geom.exact is None else (geom.exact, 0)",
                                        "if True else (geom.exact, 0)"),
    # The frames: one stacked QR of W J, signed as Gram-Schmidt signs its columns.
    "frame_without_w": ("submanifold.py", "w_jac = w @ jac", "w_jac = jac"),
    "frame_signs_dropped": ("submanifold.py", "*= np.where(diag < 0.0, -1.0, 1.0)",
                            "*= np.where(diag < 0.0, 1.0, 1.0)"),
    "frame_scaled": ("submanifold.py", "return TangentFrame(points, w_jac, q)",
                     "return TangentFrame(points, w_jac, q * (1 + 1e-7))"),
    # The rank read off the frame's QR.
    "zero_column_not_deficient": ("submanifold.py", " | (norms == 0.0)", ""),
    "non_finite_column_deficient": ("submanifold.py", " & (norms < np.inf)", ""),
    "sine_comparison_flipped": ("submanifold.py", "bad = (np.abs(diag) < BOUNDS",
                                "bad = (np.abs(diag) > BOUNDS"),
    # The worst-value reduction: eigvalsh only where the worst spectral norm can be.
    "prune_by_largest_entry": ("structures.py",
                               'fro = np.sqrt(np.einsum("...ij,...ij->...", stack, stack))',
                               "fro = np.abs(stack).max(axis=(-2, -1))"),
    "drop_nan_points": ("structures.py", "& (1e-150 < top) & (top < 1e150))",
                        "& (1e-150 < top) & (top < 1e150)) & (fro == fro)"),
    "prune_past_the_square_range": ("structures.py", " & (1e-150 < top) & (top < 1e150)", ""),
    "invariance_ignores_mixed_points": ("submanifold.py",
                                       'return "invariant" if np.all(invariant) else "mixed"',
                                       'return "invariant"'),
    # One first-order rule for every class: a point is of a class only where its term holds.
    "invariant_parallel_reads_s": ("submanifold.py", "(h @ ops.t.mT[:, None]).mT",
                                   "(h @ ops.s.mT[:, None]).mT"),
    "weingarten_in_the_frame_basis": ("submanifold.py",
                                      "h_t = np.linalg.solve(c.mT, h)",
                                      "h_t = h"),
    "invariant_drops_its_term": ("extrinsic.py",
                                 'invariant = np.maximum(first["invariant_parallel"], '
                                 'first["invariant_weingarten"]) <= tol_frame',
                                 "invariant = True"),
    "invariant_rule_drops_parallel": ("extrinsic.py",
                                      'np.maximum(first["invariant_parallel"], '
                                      'first["invariant_weingarten"])',
                                      'first["invariant_weingarten"]'),
    "anti_invariant_drops_its_term": ("extrinsic.py", 'first["anti_invariant"] <= tol_frame)',
                                      "True)"),
    "slant_drops_its_term": ("slant.py", '_amax(first_order()["slant"], None)', "0.0"),
    "anti_invariant_reads_the_slant_term": ("submanifold.py", '"anti_invariant": s @ c,',
                                            '"anti_invariant": (s @ p + p @ s - lam * s) @ c,'),
    "slant_q_small_is_proper": ("slant.py", "for v in (*residuals.values(), *terms.values())",
                                "for v in residuals.values()"),
    # One tolerance means one angle: a slant candidate's angle spread is within tol_frame.
    "slant_without_the_spread_rule": ("slant.py", ' and record["angle_spread"] <= tol_frame:',
                                      ":"),
}


def _tier1(tree: Path) -> set[str]:
    """The ids of the tests that fail or do not collect in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "--tb=no", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", "--deselect", TARGETS_TEST],
        cwd=tree, capture_output=True, text=True, check=False)
    return {match[1] for match in re.finditer(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)}


def main() -> None:
    args = sys.argv[1:]
    src = Path(args.pop(0) if args and args[0] not in MUTATIONS else ROOT / "src").resolve()
    names = args or list(MUTATIONS)
    with tempfile.TemporaryDirectory() as workdir:
        tree = Path(workdir)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, tree / name, ignore=IGNORED)
            else:
                shutil.copy(ROOT / name, tree / name)
        shutil.copytree(src, tree / "src", ignore=IGNORED)
        baseline = _tier1(tree)
        print(f"unmutated: {len(baseline)} failing: {' '.join(sorted(baseline))}", flush=True)
        for name in names:
            path, target, replacement = MUTATIONS[name]
            source = tree / "src" / "goldenslant" / path
            text = source.read_text()
            if text.count(target) != 1:
                print(f"{name}: target occurs {text.count(target)} times in {path}", flush=True)
                continue
            source.write_text(text.replace(target, replacement))
            killers = sorted(_tier1(tree) - baseline)
            source.write_text(text)
            print(f"{name}: {len(killers)} killed: {' '.join(killers)}" if killers
                  else f"{name}: SURVIVED", flush=True)


if __name__ == "__main__":
    main()
