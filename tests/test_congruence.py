"""Congruence invariance of the suites: one golden manifold in other coordinates.

For an invertible A, ``(A^T g A, A^-1 phi A)`` is the structure ``(g, phi)`` read in
the coordinates ``x = A x'``, and an immersion ``x(u)`` reads ``x'(u) = A^-1 x(u)``: the
same eigenspaces, so the same ``eigenspace_dims`` and the same space-form model, and the
same induced operators, so the same slant angle.  The curvature suite's p, its exact
certificate and every verdict must match exactly on both backends, and its oracle, which
reads the structure through ``phi_hat``, must stay within ``ORACLE_TOL``.  On the paper's
immersion examples the exit code, every suite's verdict, the classification, the exact
``lambda`` and the exact identities' ``all_zero`` must match exactly, and theta within
``THETA_C cond(A) eps``.  A is unit upper triangular with integer entries in [-3, 3], so
A^-1 is an integer matrix too.
"""

import contextlib
import functools
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import goldenslant.exactlin as xl
from goldenslant.checks import BOUNDS
from goldenslant.cli import main, resolve_config
from goldenslant.config import load_config

ORACLE_TOL = BOUNDS["ORACLE_TOL"]

SOURCES = [resolve_config("spaceform_n4"),
           Path(__file__).parent / "configs" / "ill_conditioned_spaceform.cfg"]
IMMERSIONS = [resolve_config(name) for name in ("paper_example_2", "paper_example_3",
                                                "paper_example_4_k1",
                                                "paper_example_4_k2_paperformula")]
# theta agrees to within THETA_C cond(A) eps; the largest ratio seen over 60 seeded A is 0.024.
THETA_C = 1.0


def _run(path: Path, backend: str) -> tuple[int, dict]:
    """The exit code and the suites of ``goldenslant run``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["run", str(path), "--backend", backend])
    return code, json.loads(out.getvalue())["suites"]


def _summary(path: Path, backend: str) -> tuple:
    """The exit code of ``goldenslant run``, the structure suite's verdict and dimensions,
    the curvature suite without its oracle and ``trace_phi`` (floats of the structure),
    and the oracle."""
    code, suites = _run(path, backend)
    structure, curvature = suites["structure"], suites["curvature"]
    oracle = curvature["identities"].pop("ambient_oracle")
    del curvature["model"]["trace_phi"]
    return (code, structure["pass"], structure["eigenspace_dims"], structure["exact_zero"],
            curvature), oracle


def _immersion_summary(path: Path, backend: str) -> tuple:
    """The exit code, each suite's verdict, the slant classification, the exact ``lambda``
    and the exact identities' ``all_zero`` (None off the exact route), and theta."""
    code, suites = _run(path, backend)
    slant, identities = suites["slant"], suites.get("identities", {})
    return (code, {name: suite["pass"] for name, suite in suites.items()},
            slant["classification"], slant["exact"].get("lambda"),
            identities.get("exact", {}).get("all_zero")), slant["theta"]


_original = functools.cache(_summary)
_original_immersion = functools.cache(_immersion_summary)


def _rows(m: xl.QMatrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in m]


def _unit_upper(upper: list[int]) -> np.ndarray:
    a = np.eye(4, dtype=int)
    a[np.triu_indices(4, 1)] = upper
    return a


def _congruent(path: Path, a: np.ndarray, directory: str) -> Path:
    """The config at ``path`` with the metric A^T g A, the matrix phi A^-1 phi A and the
    immersion components sum_j (A^-1)_ij x_j."""
    structure = load_config(path).build_structure()
    a_inv = np.rint(np.linalg.inv(a)).astype(int)
    assert (a @ a_inv == np.eye(len(a), dtype=int)).all()
    data = json.loads(path.read_text())
    if "immersion" in data:
        x = data["immersion"]["components"]
        data["immersion"]["components"] = [
            " + ".join(f"({k})*({x_j})" for k, x_j in zip(row, x) if k) for row in a_inv.tolist()]
    a, a_inv = xl.qmatrix(a.tolist()), xl.qmatrix(a_inv.tolist())
    data["ambient"]["metric"] = _rows(a.T @ structure.metric.entries @ a)
    data["ambient"]["phi"] = {"matrix": _rows(a_inv @ structure.phi @ a)}
    moved = Path(directory) / f"congruent_{path.name}"
    moved.write_text(json.dumps(data))
    return moved


@settings(max_examples=50, deadline=None)
@given(upper=st.lists(st.integers(-3, 3), min_size=6, max_size=6))
def test_curvature_suite_is_congruence_invariant(upper):
    a = _unit_upper(upper)
    with tempfile.TemporaryDirectory() as directory:
        for path in SOURCES:
            moved = _congruent(path, a, directory)
            for backend in ("auto", "float"):
                expected, _ = _original(path, backend)
                got, oracle = _summary(moved, backend)
                assert got == expected, (path.name, backend)
                assert oracle <= ORACLE_TOL, (path.name, backend, oracle)


@settings(max_examples=40, deadline=None)
@given(upper=st.lists(st.integers(-3, 3), min_size=6, max_size=6))
def test_immersion_suites_are_congruence_invariant(upper):
    a = _unit_upper(upper)
    bound = THETA_C * np.linalg.cond(a) * np.finfo(float).eps
    with tempfile.TemporaryDirectory() as directory:
        for path in IMMERSIONS:
            moved = _congruent(path, a, directory)
            for backend in ("auto", "float"):
                expected, theta = _original_immersion(path, backend)
                got, moved_theta = _immersion_summary(moved, backend)
                assert got == expected, (path.name, backend)
                assert abs(moved_theta - theta) <= bound, (path.name, backend, moved_theta, theta)
