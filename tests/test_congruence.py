"""Congruence invariance of the curvature suite: one golden manifold in other coordinates.

For an invertible A, ``(A^T g A, A^-1 phi A)`` is the structure ``(g, phi)`` read in
the coordinates ``x = A x'``: the same eigenspaces, so the same ``eigenspace_dims``
and the same space-form model.  The curvature suite's p, its exact certificate and
every verdict must match exactly on both backends, and its oracle, which reads the
structure through ``phi_hat``, must stay within ``ORACLE_TOL``.  A is unit upper
triangular with integer entries in [-3, 3], so A^-1 is an integer matrix too.
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
from goldenslant.cli import main, resolve_config
from goldenslant.config import load_config
from goldenslant.spaceform import ORACLE_TOL

SOURCES = [resolve_config("spaceform_n4"),
           Path(__file__).parent / "configs" / "ill_conditioned_spaceform.cfg"]


def _summary(path: Path, backend: str) -> tuple:
    """The exit code of ``goldenslant run``, the structure suite's verdict and dimensions,
    the curvature suite without its oracle and ``trace_phi`` (floats of the structure),
    and the oracle."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["run", str(path), "--backend", backend])
    suites = json.loads(out.getvalue())["suites"]
    structure, curvature = suites["structure"], suites["curvature"]
    oracle = curvature["identities"].pop("ambient_oracle")
    del curvature["model"]["trace_phi"]
    return (code, structure["pass"], structure["eigenspace_dims"], structure["exact_zero"],
            curvature), oracle


_original = functools.cache(_summary)


def _rows(m: xl.QMatrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in m]


def _congruent(path: Path, a: np.ndarray, directory: str) -> Path:
    """The config at ``path`` with the metric A^T g A and the matrix phi A^-1 phi A."""
    structure = load_config(path).build_structure()
    a_inv = np.rint(np.linalg.inv(a)).astype(int)
    assert (a @ a_inv == np.eye(len(a), dtype=int)).all()
    a, a_inv = xl.qmatrix(a.tolist()), xl.qmatrix(a_inv.tolist())
    data = json.loads(path.read_text())
    data["ambient"]["metric"] = _rows(a.T @ structure.metric.entries @ a)
    data["ambient"]["phi"] = {"matrix": _rows(a_inv @ structure.phi @ a)}
    moved = Path(directory) / f"congruent_{path.name}"
    moved.write_text(json.dumps(data))
    return moved


@settings(max_examples=50, deadline=None)
@given(upper=st.lists(st.integers(-3, 3), min_size=6, max_size=6))
def test_curvature_suite_is_congruence_invariant(upper):
    a = np.eye(4, dtype=int)
    a[np.triu_indices(4, 1)] = upper
    with tempfile.TemporaryDirectory() as directory:
        for path in SOURCES:
            moved = _congruent(path, a, directory)
            for backend in ("auto", "float"):
                expected, _ = _original(path, backend)
                got, oracle = _summary(moved, backend)
                assert got == expected, (path.name, backend)
                assert oracle <= ORACLE_TOL, (path.name, backend, oracle)
