"""The package's lazy exports and the numpy-free path from process start to a loaded config."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import goldenslant

# ``goldenslant.__all__``, pinned: adding or removing an export is a deliberate change.
EXPORTS = [
    "AlmostProductStructure", "ConfigError", "DimensionMismatch", "DomainError", "Expr",
    "ExprSyntaxError", "GoldenStructure", "GoldenslantError", "ImmersionSpec",
    "InducedOperators", "InvalidInvolution", "InvalidStructure", "Jet2", "Metric",
    "MetricIncompat", "ONE_MINUS_PSI", "PSI", "QuadRat", "RankDeficient", "SQRT5",
    "SampleSpec", "ScenarioConfig", "SlantReport", "StructureReport",
    "TangentFrame", "Tolerances", "UnknownIdentifier", "ZeroVector", "classify", "config",
    "curvature_certificate", "diagonal_golden", "errors", "exactlin", "expr",
    "extrinsic", "frame_at", "golden_eigendecomp", "golden_from_product",
    "induced_operators", "jets", "load_config", "parse",
    "parse_config", "parse_quadrat", "product_from_golden", "quadrat", "reference_cosine",
    "render_report", "run_scenario", "slant", "spaceform",
    "structural_identity_residuals", "structures", "submanifold", "suites", "verify_golden",
]

# Modules that loading a config must not import.
NUMERIC = ("numpy", "dataclasses", "goldenslant.jets", "goldenslant.exactlin",
           "goldenslant.structures", "goldenslant.submanifold", "goldenslant.suites")

_SCRIPT = """\
import json, sys
before = set(sys.modules)
{body}
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _imported_by(body: str) -> set[str]:
    """The modules a fresh interpreter imports to run ``body``."""
    src = str(Path(goldenslant.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _SCRIPT.format(body=body)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _cli(argv: tuple[str, ...], code: int) -> str:
    """A script that runs ``goldenslant ARGV`` in-process and checks its exit code."""
    return (f"from goldenslant.cli import main\n"
            f"try:\n    code = main({list(argv)!r})\n"
            f"except SystemExit as exc:\n    code = exc.code\n"
            f"assert code == {code}, code")


def test_all_keeps_every_export_and_each_resolves():
    assert goldenslant.__all__ == EXPORTS
    for name in EXPORTS:
        assert getattr(goldenslant, name) is not None, name
    assert goldenslant.load_config is sys.modules["goldenslant.config"].load_config
    assert goldenslant.suites is sys.modules["goldenslant.suites"]


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        goldenslant.no_such_name  # noqa: B018


def test_loading_every_bundled_config_imports_nothing_numeric():
    loaded = _imported_by(
        "import goldenslant\n"
        "from goldenslant.cli import list_bundled, resolve_config\n"
        "for name in list_bundled():\n"
        "    goldenslant.load_config(resolve_config(name))")
    assert "goldenslant.config" in loaded
    # Only ``main`` parses a command line, so the config path needs no argparse.
    unwanted = (*NUMERIC, "argparse")
    assert loaded.isdisjoint(unwanted), sorted(loaded.intersection(unwanted))


@pytest.mark.parametrize("argv,code", [
    (("list",), 0), (("explain", "slant"), 0), (("--help",), 0),
    (("run", "paper_example_3", "--seed", "-5"), 2),  # a config error
], ids=["list", "explain", "help", "config-error"])
def test_cli_commands_without_suites_import_nothing_numeric(argv, code):
    loaded = _imported_by(_cli(argv, code))
    assert loaded.isdisjoint(NUMERIC), sorted(loaded.intersection(NUMERIC))


def test_suites_import_no_dataclasses():
    loaded = _imported_by("import goldenslant.suites")
    assert "numpy" in loaded and "dataclasses" not in loaded


def test_curvature_run_imports_no_numpy_random():
    # The oracle is a bound on phi_hat and draws nothing.
    loaded = _imported_by(_cli(("run", "spaceform_n4"), 0))
    assert "goldenslant.spaceform" in loaded and "numpy" in loaded
    assert not any(name == "numpy.random" or name.startswith("numpy.random.")
                   for name in loaded), sorted(name for name in loaded if "random" in name)
