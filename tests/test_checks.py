"""The table of checks: it covers every report, ``explain`` prints it, the README lists its
bounds, and the suites decide by it, on the exact value of every exact row."""

import functools
import importlib.util
import re
from fractions import Fraction
from pathlib import Path

import pytest

import goldenslant.suites as suites
from goldenslant.checks import BOUNDS, HARD, TABLE, WHEN, verdict
from goldenslant.cli import list_bundled, main, resolve_config
from goldenslant.config import SUITE_ORDER, Tolerances, load_config, parse_config
from goldenslant.quadrat import QuadRat
from goldenslant.suites import run_scenario

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ([resolve_config(name) for name in list_bundled()]
           + sorted((ROOT / "tests" / "configs").glob("*.cfg")))
BACKENDS = ("auto", "float")
# A curved anti-invariant curve (phi X is normal to X = (cos u, psi, sin u, 0)): its
# extrinsic suite reports the anti-invariant first-order term, which no bundled config tests.
ANTI_INVARIANT = {
    "ambient": {"dim": 4, "phi": {"pattern": ["psi", "one_minus_psi", "psi", "one_minus_psi"]}},
    "immersion": {"params": ["u"], "components": ["sin(u)", "psi*u", "1-cos(u)", "0"],
                  "samples": {"grid": [[0, 1, 3]]}},
    "suites": ["extrinsic"],
}


def _leaves(value, key=""):
    """The dotted key of every value in a nested dictionary."""
    if isinstance(value, dict):
        for name, item in value.items():
            yield from _leaves(item, f"{key}.{name}" if key else name)
    else:
        yield key


def _covers(row_key: str, key: str) -> bool:
    return key == row_key or key.startswith(row_key + ".")


@functools.cache
def _reported() -> dict[str, set[str]]:
    """Every leaf key each suite reports over the bundled and regression configs, under both
    backends, and the anti-invariant immersion."""
    reports = [run_scenario(load_config(path), backend=backend)
               for path in SOURCES for backend in BACKENDS]
    reports.append(run_scenario(parse_config(ANTI_INVARIANT)))
    keys: dict[str, set[str]] = {suite: set() for suite in SUITE_ORDER}
    for report in reports:
        for suite, result in report["suites"].items():
            keys[suite].update(_leaves(result))
    return keys


@pytest.mark.parametrize("suite", SUITE_ORDER)
def test_every_reported_value_is_a_row(suite):
    missing = [key for key in _reported()[suite]
               if not any(_covers(row.key, key) for row in TABLE[suite])]
    assert not missing, missing


@pytest.mark.parametrize("suite", SUITE_ORDER)
def test_every_row_but_error_is_reported(suite):
    # No config above fails to run a suite, so none reports an error.
    unreached = [row.key for row in TABLE[suite] if row.key != "error"
                 and not any(_covers(row.key, key) for key in _reported()[suite])]
    assert not unreached, unreached


@pytest.mark.parametrize("suite", SUITE_ORDER)
def test_explain_prints_every_row_under_its_rule(suite, capsys):
    assert main(["explain", suite]) == 0
    heading, under = None, {}
    for line in capsys.readouterr().out.splitlines():
        if line.endswith(":") and not line.startswith(" "):
            heading = line
        elif line.startswith("  ") and not line.startswith("   "):
            under[line.split()[0]] = (heading, line)
    for row in TABLE[suite]:
        heading, line = under[row.key]
        assert row.statement.split("\n")[0] in line
        if row.kind == HARD:
            assert heading.startswith("hard checks") and row.bound in heading, row.key
            assert row.when is None or WHEN[row.when] in heading, row.key


def test_every_bound_is_in_the_readme_tolerance_tables():
    readme = (ROOT / "README.md").read_text()
    # Cells split at the pipes that are not escaped, and read with the escaped ones unescaped.
    rows = [[cell.replace("\\|", "|") for cell in re.split(r"(?<!\\)\|", line)]
            for line in readme[readme.index("## Default tolerances"):].splitlines()
            if line.startswith("|")]

    def values(cells):
        for cell in cells:
            try:
                yield float(cell.strip().strip("`"))
            except ValueError:
                pass

    for name, value in [*BOUNDS.items(), *Tolerances()._asdict().items()]:
        assert any(f"`{name}`" in row[1] and value in values(row[2:]) for row in rows), name
    (frame,) = [row for row in rows if "`tol_frame`" in row[1]]
    assert "relative to max|W D2x_ij|" in frame[3]


def test_an_exact_slant_residual_below_the_float_range_fails_the_suite(monkeypatch):
    # Its float is 0.0, so only the exact value shows that the identity does not hold.
    exact_slant_data = suites.exact_slant_data
    tiny = QuadRat(Fraction(1, 10**400))

    def injected(eops):
        data = exact_slant_data(eops)
        data["residuals"]["lemma_p"] = tiny
        return data

    monkeypatch.setattr(suites, "exact_slant_data", injected)
    slant = run_scenario(load_config(resolve_config("paper_example_3")))["suites"]["slant"]
    assert slant["exact"]["is_slant"] and slant["exact"]["residuals"]["lemma_p"] == 0.0
    assert slant["pass"] is False


def test_every_mutation_target_occurs_once_in_the_package():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    package = ROOT / "src" / "goldenslant"
    counts = {name: (package / path).read_text().count(target)
              for name, (path, target, _) in mutants.MUTATIONS.items()}
    assert counts == dict.fromkeys(mutants.MUTATIONS, 1)
