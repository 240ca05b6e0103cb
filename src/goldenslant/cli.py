"""Batch front end: run scenario configs, list bundled ones, explain suites."""

from __future__ import annotations

import sys
from importlib import resources
from pathlib import Path

from .config import load_config
from .errors import ConfigError

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_CONFIG_ERROR = 2  # also an unwritable --report path

_EXPLAIN = {
    "structure": """\
structure suite: golden-structure axioms on the ambient space
  structure_equation   phi^2 - phi - I = 0
  self_adjoint         g(phi X, Y) = g(X, phi Y)
  metric_compat        g(phi X, phi Y) = g(phi X, Y) + g(X, Y)
  product_roundtrip    F = (2 phi - I)/sqrt5, then (I + sqrt5 F)/2 recovers phi
  eigenspace_dims      psi and (1 - psi) eigenspace dimensions [p, n - p],
                       p = (n + tr F)/2; an exact phi passes only if
                       phi^2 - phi - I is exactly zero
""",
    "identities": """\
identities suite: induced operators P, Q, t, s along the immersion
  p_squared            P^2 = P + I - tQ
  q_projection         Q = QP + sQ
  s_squared            s^2 = s + I - Qt
  t_projection         t = Pt + ts
  p_self_adjoint       g(PX, Y) = g(X, PY)
  metric_split         g(PX, PY) + g(QX, QY) = g(X, Y) + g(PX, Y)
  reassembly_tangent   phi X recombines from PX and QX in ambient coordinates
  reassembly_normal    phi V recombines from tV and sV in ambient coordinates
Exact route (affine immersions over Q(sqrt5)): phi as one block matrix
  C = [[P, t], [Q, s]] in the basis B = [T | N], its tangent rows from the
  m x m tangent Gram system and its normal rows from the free rows of N.
  The four block identities are the blocks of C^2 - C - I, the other two
  read M = B^T g phi B; each must be exactly zero.
""",
    "extrinsic": """\
extrinsic suite: second fundamental form and split checks (flat ambient)
  gauss_tangential     tan(phi D2x_ij) = P tan(D2x_ij) + t h_ij
  gauss_normal         nor(phi D2x_ij) = Q tan(D2x_ij) + s h_ij
  h_symmetry           h_ij = h_ji, with h_ij = nor(D2x_ij)
  invariant_parallel   tan(phi D2x_ij) = P tan(D2x_ij)   (invariant tangent spaces)
  invariant_weingarten h(X, PY) = s h(X, Y)              (invariant tangent spaces)
  tan and nor are coordinates in the orthonormal tangent and normal frames,
  the frames P, Q, t and s are written in.
  finding: shape_operator_max = max |A_{phi Y}| for anti-invariant tangent
  spaces; the vanishing claim is probed, not assumed.
""",
    "slant": """\
slant suite: angles at the eigenvectors of P and classification
  angle                cos theta(X) = |g(phi X, PX)| / (|PX| |phi X|)
  classification       spread of theta over points and eigenvectors <= tol_angle
  characterization     P^2 = lambda (P + I) with lambda = cos^2 theta
  corollary            g(phi^2 X, X) = g(P^2 X, X) / lambda   (lambda > 0)
  lemma_p              g(PX, PY) = cos^2 theta (g(X, Y) + g(X, PY))
  lemma_q              g(QX, QY) = sin^2 theta (g(X, Y) + g(PX, Y))
  tq                   tQ = (1 - lambda)(P + I) = -P^2 + P + I
  reference_cosine     g(phi e1, e1)/|phi e1| on the raw tangent; flagged when it
                       disagrees with the definitional cosine or exceeds 1.
""",
    "curvature": """\
curvature suite: an exact certificate of the space-form model R and its Ricci program
  R(X,Y)Z = A {g(Y,Z)X - g(X,Z)Y + g(phiY,Z)phiX - g(phiX,Z)phiY}
          + B {g(phiY,Z)X - g(phiX,Z)Y + g(Y,Z)phiX - g(X,Z)phiY}
  A = -((1-psi) c_p - psi c_q)/(2 sqrt5), B = -((1-psi) c_p + psi c_q)/4
  in an orthonormal eigenframe of phi, g(R(e_i,e_j)e_k, e_l) =
  kappa_ij (d_jk d_il - d_ik d_jl), kappa_ij = A(1 + phi_i phi_j) + B(phi_i + phi_j);
  every check is evaluated over Q(sqrt5) on one basis tuple per class (which
  eigenspace each index is in, which indices are equal) and reports its
  largest basis value, exact ("exact") and as a float
hard checks (exact zeros):
  ricci_framesum_vs_closed   sum_i g(R(e_i,Y)Z, e_i) equals alpha g + beta g(phi.,.)
  bianchi, pair_symmetry, antisymmetry
  ricci_phi (4 identities)   S(phi^2 X, Y) = S(phi X, Y) + S(X, Y), ... ,
                             S(phi X, Y) = S(phi Y, X)
  ambient_oracle             R of phi_hat (in y = W x) is within 1e-12 |X||Y||Z| max|kappa|
                             of the certified tensor on every triple, by the bound
                             (2|A|(2 psi e + e^2) + 4|B| e)/max|kappa|, where e bounds
                             |phi_hat - Phi|_2 for a symmetric Phi of the certified spectrum
findings (exact values, conforming when 0):
  commutation (5 items)      R(X,Y)phi = phi R(X,Y) and consequences -- fails
                             whenever B != 0 and both eigenspaces are present;
                             phi_argument is then sqrt5 |B|
  rs_corollary               (R(phi X, Y).S)(phi Z, W) = 0
  rs_phi_propositions        phi expansions of (R . S)
  rs_closed_form_gap         (R.S) vs -2 beta g(R(X,Y)W, phi Z)
  non_semi_symmetry_probe    max |(R.S)| (nonzero exactly when beta != 0 and both
                             eigenspaces are present)
certificate:
  constant coefficients imply nabla R = 0 and nabla S = 0 identically.
""",
}


def bundled_dir():
    return resources.files("goldenslant") / "configs"


def list_bundled() -> list[str]:
    """Names of the reproduction configs shipped with the package."""
    return sorted(p.name.removesuffix(".cfg") for p in bundled_dir().iterdir()
                  if p.name.endswith(".cfg"))


def resolve_config(name_or_path: str) -> Path:
    path = Path(name_or_path)
    if path.exists():
        return path
    candidate = bundled_dir() / f"{name_or_path.removesuffix('.cfg')}.cfg"
    if candidate.is_file():
        return Path(str(candidate))
    raise ConfigError("", f"no such config file or bundled name: {name_or_path}")


def main(argv: list[str] | None = None) -> int:
    import argparse  # only the command line needs it, not the config path

    parser = argparse.ArgumentParser(
        prog="goldenslant",
        description="Verify golden-structure, slant-submanifold and space-form "
                    "identities from a scenario config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the suites requested by a config")
    run_p.add_argument("config", help="path to a config file or a bundled config name")
    run_p.add_argument("--report", help="also write the report to this path")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--tol-angle", type=float, default=None,
                       help="override the slant angle tolerance")
    run_p.add_argument("--backend", choices=["auto", "float"], default="auto",
                       help="numeric backend for the ambient structure")

    sub.add_parser("list", help="list bundled reproduction configs")

    explain_p = sub.add_parser("explain", help="print the identity set of a suite")
    explain_p.add_argument("suite", choices=sorted(_EXPLAIN))

    args = parser.parse_args(argv)

    if args.command == "list":
        for name in list_bundled():
            print(name)
        return EXIT_OK

    if args.command == "explain":
        print(_EXPLAIN[args.suite], end="")
        return EXIT_OK

    try:
        cfg = load_config(resolve_config(args.config))
        cfg = cfg.with_overrides(seed=args.seed, tol_angle=args.tol_angle)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    # The suites, and numpy with them, load only for a run.
    from .suites import render_report, run_scenario

    report = run_scenario(cfg, seed=args.seed, backend=args.backend)
    text = render_report(report)
    if args.report:
        try:
            Path(args.report).write_text(text)
        except OSError as exc:  # a directory, a missing parent, no permission
            print(f"report error: --report {args.report}: {exc.strerror or exc}",
                  file=sys.stderr)
            return EXIT_CONFIG_ERROR
    print(text, end="")
    return EXIT_OK if report["overall_pass"] else EXIT_SUITE_FAILED


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
