"""Acceptance suite: every criterion at its stated tolerance.

Each check prints one `[acceptance] <criterion>: PASS/FAIL` line (visible
with ``pytest -s`` or on failure) and then asserts.  Criteria 7b and 7d
encode claims that the closed-form space-form tensor provably violates for
generic curvature pairs (its mixed B-bracket does not commute with phi,
which is also exactly why its R.S derivation action is nonzero); they are
asserted at their stated tolerances anyway and fail honestly rather than
being weakened.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from goldenslant.expr import jacobian
from goldenslant.extrinsic import extrinsic_residuals
from goldenslant.quadrat import ONE_MINUS_PSI, PSI, QuadRat
from goldenslant.slant import classify, exact_slant_data
from goldenslant.spaceform import ambient_oracle, curvature_certificate
from goldenslant.structures import diagonal_golden, verify_golden
from goldenslant.submanifold import (
    ImmersionSpec,
    SampleSpec,
    exact_frame,
    exact_identity_residuals,
    exact_induced_operators,
    frame_at,
    induced_operators,
    structural_identity_residuals,
)
from goldenslant.suites import render_report, run_scenario
from goldenslant.config import Tolerances, load_config
from goldenslant.cli import resolve_config
from support import at_point, diagonal_model, random_golden

PSI_F = float(PSI)


def _criterion(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# -- 1: exact structure axioms ------------------------------------------------


def test_c1_exact_structure_axioms():
    start = time.perf_counter()
    ok = True
    for pattern in (["psi", "psi", "one_minus_psi", "one_minus_psi"],
                    ["psi", "one_minus_psi", "psi", "one_minus_psi"]):
        s = diagonal_golden(pattern)
        report = verify_golden(s.phi, s.metric)
        ok = ok and report.exact_zero and max(report.residual_structure, report.residual_self_adjoint,
                                               report.residual_compat) == 0.0
    elapsed = time.perf_counter() - start
    _criterion("1 exact structure axioms", ok and elapsed < 1.0,
               f"residuals exactly 0, {elapsed:.3f}s")


# -- 2: invariant immersion reproduction --------------------------------------


def test_c2_invariant_example_reproduction():
    start = time.perf_counter()
    imm = ImmersionSpec.from_strings(
        ["u1", "u2"], ["u1*cos(0.5)", "u1*sin(0.5)", "u2", "0"]
    )
    structure = diagonal_golden(
        ["psi", "psi", "one_minus_psi", "one_minus_psi"]).to_float()
    report = classify(imm, structure)
    frame = frame_at(imm, (0.3, -0.4), structure.metric)
    ops = induced_operators(frame, structure)
    eigs = np.sort(np.linalg.eigvalsh(ops.p))
    tq = np.abs(ops.t @ ops.q).max()
    elapsed = time.perf_counter() - start
    ok = (report["classification"] == "invariant"
          and report["theta"] <= 1e-9
          and abs(eigs[0] - (1 - PSI_F)) <= 1e-12
          and abs(eigs[1] - PSI_F) <= 1e-12
          and tq <= 1e-12
          and elapsed < 1.0)
    _criterion("2 invariant example", ok,
               f"theta={report['theta']:.2e}, tQ={tq:.2e}, {elapsed:.3f}s")


# -- 3: proper slant reproduction, exact backend -------------------------------


def test_c3_slant_example_exact_reproduction():
    imm = ImmersionSpec.from_strings(
        ["u1", "u2"], ["psi*u1", "(1-psi)*u1", "psi*u2", "(1-psi)*u2"]
    )
    structure = diagonal_golden(["psi", "one_minus_psi", "psi", "one_minus_psi"])
    eops = exact_induced_operators(exact_frame(imm, structure.metric), structure)
    four_thirds = QuadRat(Fraction(4, 3))
    p_ok = np.array_equal(eops.p, [[four_thirds, QuadRat(0)], [QuadRat(0), four_thirds]])
    data = exact_slant_data(eops)
    lam_ok = data["lambda"] == QuadRat(Fraction(16, 21))
    residuals = data["residuals"]
    char_ok = residuals["characterization"].sign() == 0
    lemma_ok = residuals["lemma_p"].sign() == 0 and residuals["lemma_q"].sign() == 0
    five_ninths = QuadRat(Fraction(5, 9))
    tq_ok = np.array_equal(eops.t @ eops.q, [[five_ninths, QuadRat(0)], [QuadRat(0), five_ninths]])
    rep = classify(imm, structure.to_float())
    cos_ok = abs(rep["cos_theta"] - 4 / math.sqrt(21)) <= 1e-12
    ok = p_ok and lam_ok and char_ok and lemma_ok and tq_ok and cos_ok
    _criterion("3 slant example exact", ok,
               "P=(4/3)I, lambda=16/21, tQ=(5/9)I exactly; cos within 1e-12")


# -- 4: steep slant family and the reference-formula flag ---------------------


def test_c4_steep_example_and_reference_flag():
    # Independent oracle: exact Q(sqrt5) evaluation of g(phi e1, e1), |e1|,
    # |phi e1| for the k = 1 member, combined in floating point at the end.
    k = QuadRat(1)
    e1 = [k * PSI, QuadRat(0), ONE_MINUS_PSI, QuadRat(0)]
    phi_diag = [ONE_MINUS_PSI, ONE_MINUS_PSI, PSI, PSI]
    phi_e1 = [d * x for d, x in zip(phi_diag, e1)]
    inner = sum((a * b for a, b in zip(phi_e1, e1)), QuadRat(0))
    norm_e1_sq = sum((x * x for x in e1), QuadRat(0))
    norm_phie1_sq = sum((x * x for x in phi_e1), QuadRat(0))
    oracle_cos = float(abs(inner)) / math.sqrt(float(norm_e1_sq) * float(norm_phie1_sq))
    oracle_ok = abs(oracle_cos - 1 / math.sqrt(6)) <= 1e-15

    imm = ImmersionSpec.from_strings(
        ["u1", "u2"], ["psi*u1", "psi*u2", "(1-psi)*u1", "(1-psi)*u2"]
    )
    structure = diagonal_golden(["one_minus_psi", "one_minus_psi", "psi", "psi"])
    rep = classify(imm, structure.to_float())
    cos_ok = abs(rep["cos_theta"] - 1 / math.sqrt(6)) <= 1e-12
    cos_matches_oracle = abs(rep["cos_theta"] - oracle_cos) <= 1e-12

    # k = 2: the unnormalized reference value leaves [-1, 1] and is flagged.
    report = run_scenario(load_config(resolve_config("paper_example_4_k2_paperformula")))
    slant = report["suites"]["slant"]
    flag_ok = (slant["flags"]["reference_invalid"]
               and abs(slant["reference_cosine"]) > 1.0
               and 0.0 <= slant["cos_theta"] <= 1.0)
    ok = oracle_ok and cos_ok and cos_matches_oracle and flag_ok
    _criterion("4 steep example + reference flag", ok,
               f"cos={rep['cos_theta']:.12f}=1/sqrt6, k=2 reference "
               f"{slant['reference_cosine']:.3f} flagged")


# -- 5: structural identity fuzz ----------------------------------------------


def test_c5_structural_identity_fuzz():
    start = time.perf_counter()
    rng = np.random.default_rng(5150)
    worst = 0.0
    pairs = 0
    while pairs < 100:
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, min(4, n - 1) + 1))
        p = int(rng.integers(0, n + 1))
        structure = random_golden(n, p, seed=pairs)
        coeffs = rng.uniform(-2, 2, (n, m + 1))
        components = []
        for row in coeffs:
            terms = [f"{row[0]:.6f}"] + [f"{c:.6f}*u{i + 1}"
                                         for i, c in enumerate(row[1:])]
            components.append("+".join(terms))
        imm = ImmersionSpec.from_strings(
            [f"u{i + 1}" for i in range(m)], components,
            SampleSpec(grid=tuple((-1.0, 1.0, 2) for _ in range(m))),
        )
        jac = jacobian(imm.components, imm.sample_spec.points()[0])
        if np.linalg.svd(jac, compute_uv=False).min() < 1e-4:
            continue  # reroll degenerate draws
        pairs += 1
        for point in imm.sample_spec.points()[:2]:
            frame = frame_at(imm, point, structure.metric)
            ops = induced_operators(frame, structure)
            worst = max(worst, max(structural_identity_residuals(ops).values()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _criterion("5 structural identities x100", ok,
               f"worst={worst:.2e}, {elapsed:.2f}s")


# -- 6: extrinsic suite --------------------------------------------------------


def test_c6_extrinsic_suite():
    struct4 = diagonal_golden(["psi", "psi", "one_minus_psi", "one_minus_psi"]).to_float()
    rng = np.random.default_rng(660)
    worst_gauss = 0.0
    count = 0
    while count < 100:
        coeffs = rng.uniform(-1, 1, (4, 6))
        components = [
            f"{c[0]:.5f}+{c[1]:.5f}*u1+{c[2]:.5f}*u2"
            f"+{c[3]:.5f}*u1^2+{c[4]:.5f}*u1*u2+{c[5]:.5f}*u2^2"
            for c in coeffs
        ]
        imm = ImmersionSpec.from_strings(["u1", "u2"], components)
        point = tuple(rng.uniform(-0.5, 0.5, 2))
        if np.linalg.svd(jacobian(imm.components, point), compute_uv=False).min() < 1e-4:
            continue
        count += 1
        residuals = extrinsic_residuals(at_point(imm, point, struct4), Tolerances())[1]
        worst_gauss = max(worst_gauss, residuals["gauss_tangential"], residuals["gauss_normal"])
    gauss_ok = worst_gauss <= 1e-9

    # invariant identity h(X, PY) = s h(X, Y) on genuinely invariant cases
    struct6 = diagonal_golden(["psi"] * 4 + ["one_minus_psi"] * 2).to_float()
    curved = ImmersionSpec.from_strings(
        ["u1", "u2"], ["u1", "u2", "u1^2+u2^2", "u1*u2", "0", "0"]
    )
    affine = ImmersionSpec.from_strings(
        ["u1", "u2"], ["u1*cos(0.5)", "u1*sin(0.5)", "u2", "0"]
    )
    worst_inv = 0.0
    for imm, structure, pts in ((curved, struct6, [(0.0, 0.0), (0.3, -0.2)]),
                                (affine, struct4, [(0.2, 0.4)])):
        for point in pts:
            geom = at_point(imm, point, structure)
            kind, residuals = extrinsic_residuals(geom, Tolerances())
            assert kind == "invariant"
            worst_inv = max(worst_inv, residuals["invariant_parallel"],
                            residuals["invariant_weingarten"])
    inv_ok = worst_inv <= 1e-9

    # the anti-invariant shape-vanishing claim is probed and reported
    anti_struct = diagonal_golden(
        ["psi", "one_minus_psi", "psi", "one_minus_psi"]).to_float()
    bent = ImmersionSpec.from_strings(
        ["u1", "u2"], ["u1", "psi*u1+0.05*u1^2", "u2", "psi*u2"]
    )
    geom = at_point(bent, (0.0, 0.0), anti_struct)
    kind, residuals = extrinsic_residuals(geom, Tolerances())
    assert kind == "anti_invariant"
    probe = residuals["shape_operator_max"]
    conforms = probe <= 1e-9
    probe_reported = math.isfinite(probe)
    print(f"[acceptance] 6 shape-vanishing finding: value={probe:.3e}, "
          f"conforms={conforms} (claim fails off the affine case; reported, not assumed)")

    ok = gauss_ok and inv_ok and probe_reported
    _criterion("6 extrinsic suite", ok,
               f"gauss worst={worst_gauss:.2e}, invariant worst={worst_inv:.2e}")


# -- 7: space-form suite --------------------------------------------------------

CURVATURE_PAIRS = ((0.0, 0.0), (1.0, 1.0), (1.0, -1.0), (2.0, 3.0))


def _floats(value):
    return {k: _floats(v) for k, v in value.items()} if isinstance(value, dict) else float(value)


@pytest.fixture(scope="module")
def spaceform_results():
    # The exact certificate of each model, read as floats, and its oracle's bound.
    start = time.perf_counter()
    results = {}
    for n in (2, 4, 6, 8):
        for cp, cq in CURVATURE_PAIRS:
            model = diagonal_model(n, n // 2, cp, cq)
            cert = curvature_certificate(n, n // 2, cp, cq)
            results[(n, cp, cq)] = {
                "ricci_agreement": float(cert.identities["ricci_framesum_vs_closed"]),
                "commutation": _floats(cert.commutation),
                "ricci_phi_framesum": _floats(cert.ricci_phi["framesum"]),
                "ricci_phi_closed": _floats(cert.ricci_phi["closed"]),
                "corollary": float(cert.rs_corollary),
                "probe": float(cert.non_semi_symmetry_probe),
                "bianchi": float(cert.identities["bianchi"]),
                "pair_symmetry": float(cert.identities["pair_symmetry"]),
                "oracle": ambient_oracle(model.phi, model.p, cert),
            }
    results["elapsed"] = time.perf_counter() - start
    return results


def test_c7a_ricci_framesum_vs_closed(spaceform_results):
    worst = max(v["ricci_agreement"] for k, v in spaceform_results.items()
                if k != "elapsed")
    _criterion("7a Ricci frame-sum vs closed form", worst <= 1e-9, f"worst={worst:.2e}")


def test_c7b_curvature_commutation(spaceform_results):
    worst = max(max(v["commutation"].values()) for k, v in spaceform_results.items()
                if k != "elapsed")
    _criterion("7b curvature-commutation residuals", worst <= 1e-9,
               f"worst={worst:.2e}; fails whenever B != 0: the closed-form "
               "tensor does not commute with phi")


def test_c7c_ricci_phi_identities(spaceform_results):
    worst = 0.0
    for key, v in spaceform_results.items():
        if key == "elapsed":
            continue
        worst = max(worst, max(v["ricci_phi_framesum"].values()),
                    max(v["ricci_phi_closed"].values()))
    _criterion("7c Ricci-phi residuals", worst <= 1e-9, f"worst={worst:.2e}")


def test_c7d_rs_corollary(spaceform_results):
    worst = max(v["corollary"] for k, v in spaceform_results.items() if k != "elapsed")
    _criterion("7d (R(phiX,Y).S)(phiZ,W) residual", worst <= 1e-9,
               f"worst={worst:.2e}; nonzero exactly when the Ricci phi-"
               "coefficient beta != 0, the same obstruction as 7b")


def test_c7e_non_semi_symmetry_probe(spaceform_results):
    values = [spaceform_results[(n, 1.0, -1.0)]["probe"] for n in (2, 4, 6, 8)]
    # n = 2 balanced has beta = 0 identically; genericity shows up for n >= 4
    worst = max(values[1:])
    _criterion("7e non-semi-symmetry probe (c_p, c_q) = (1, -1)", worst > 1e-6,
               f"max |R.S| = {worst:.3e}")


def test_c7f_bianchi_and_pair_symmetry(spaceform_results):
    worst = max(max(v["bianchi"], v["pair_symmetry"])
                for k, v in spaceform_results.items() if k != "elapsed")
    oracle = max(v["oracle"] for k, v in spaceform_results.items() if k != "elapsed")
    _criterion("7f Bianchi and pair symmetry", worst <= 1e-10 and oracle <= 1e-12,
               f"worst={worst:.2e}, oracle={oracle:.2e}")


def test_c7g_runtime(spaceform_results):
    _criterion("7g space-form suite runtime", spaceform_results["elapsed"] < 30.0,
               f"{spaceform_results['elapsed']:.2f}s")


# -- 8: determinism -------------------------------------------------------------


def test_c8_deterministic_reports():
    ok = True
    for name in ("paper_example_3", "spaceform_n4"):
        cfg = load_config(resolve_config(name))
        first = render_report(run_scenario(cfg))
        second = render_report(run_scenario(cfg))
        ok = ok and first == second
    _criterion("8 byte-identical reports", ok)


# -- exact-backend identity sweep backing criteria 1/3 --------------------------


def test_exact_identities_all_zero_for_affine_examples():
    cases = [
        (ImmersionSpec.from_strings(
            ["u1", "u2"], ["psi*u1", "(1-psi)*u1", "psi*u2", "(1-psi)*u2"]),
         diagonal_golden(["psi", "one_minus_psi", "psi", "one_minus_psi"])),
        (ImmersionSpec.from_strings(
            ["u1", "u2"], ["psi*u1", "psi*u2", "(1-psi)*u1", "(1-psi)*u2"]),
         diagonal_golden(["one_minus_psi", "one_minus_psi", "psi", "psi"])),
        (ImmersionSpec.from_strings(["u1"], ["u1", "psi*u1"]),
         diagonal_golden(["psi", "one_minus_psi"])),
    ]
    for imm, structure in cases:
        eops = exact_induced_operators(exact_frame(imm, structure.metric), structure)
        residuals = exact_identity_residuals(eops)
        assert all(v.sign() == 0 for v in residuals.values())
