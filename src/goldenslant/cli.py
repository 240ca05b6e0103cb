"""Batch front end: run scenario configs, list bundled ones, explain suites."""

from __future__ import annotations

import os
import sys
from importlib import resources
from pathlib import Path

from .config import SUITE_ORDER, load_config
from .errors import ConfigError

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_CONFIG_ERROR = 2  # also an unwritable --report path or stdout


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
    explain_p.add_argument("suite", choices=SUITE_ORDER)

    args = parser.parse_args(argv)

    if args.command == "list":
        text, code = "".join(f"{name}\n" for name in list_bundled()), EXIT_OK
    elif args.command == "explain":
        from .checks import explain  # only explain reads the table of checks

        text, code = explain(args.suite), EXIT_OK
    else:
        try:
            cfg = load_config(resolve_config(args.config))
            cfg = cfg.with_overrides(seed=args.seed, tol_angle=args.tol_angle)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR

        # The suites, and numpy with them, load only for a run.
        from .suites import render_report, run_scenario

        report = run_scenario(cfg, backend=args.backend)
        text = render_report(report)
        if args.report:
            try:
                Path(args.report).write_text(text)
            except OSError as exc:  # a directory, a missing parent, no permission
                print(f"report error: --report {args.report}: {exc.strerror or exc}",
                      file=sys.stderr)
                return EXIT_CONFIG_ERROR
        code = EXIT_OK if report["overall_pass"] else EXIT_SUITE_FAILED
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:  # a closed pipe
        # What is left in the buffer, flushed at interpreter exit, goes to os.devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        print(f"output error: stdout: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
