#!/usr/bin/env python3
"""Digests of every report a fixed set of configs produces, for byte-identity checks.

Run from the repository root::

    python3 tools/report_digests.py [SRC] > digests.txt

``SRC`` is the goldenslant source tree to run (default: this repository's
``src``), so the same inputs run on two checkouts and ``diff`` of the two
outputs shows every report, message or exit code that changed.  The inputs are
the bundled configs, the regression configs under ``tests/configs`` and the
``curved_grid``, ``exact_dense`` and ``spaceform_trials`` configs of seeds 1, 7
and 101, written by perfbench's generators into a temporary directory, and six
edge configs written next to them: five ``paper_example_3`` variants past the
float range or the int-string digit limit, and a curved immersion whose finite
jets give NaN tangent frames.  Each runs as ``python -m goldenslant run CONFIG
--backend B`` in a fresh process, for B = auto and float.  One line per run gives
the config, the backend, the exit code and the SHA-256 of stdout and of stderr.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GENERATED = ("curved_grid", "exact_dense", "spaceform_trials")
SEEDS = (1, 7, 101)
BACKENDS = ("auto", "float")


def _example_3(metric_00: str | None = None, component_0: str | None = None,
               extra_points=None) -> dict:
    """The bundled paper_example_3 with metric entry (0, 0), component 0 or the extra
    sample points replaced."""
    data = json.loads((ROOT / "src" / "goldenslant" / "configs" / "paper_example_3.cfg")
                      .read_text())
    if metric_00 is not None:
        data["ambient"]["metric"] = [[metric_00 if i == j == 0 else str(int(i == j))
                                      for j in range(4)] for i in range(4)]
    if component_0 is not None:
        data["immersion"]["components"][0] = component_0
    if extra_points is not None:
        data["immersion"]["samples"]["extra_points"] = extra_points
    return data


def _edge_configs() -> dict[str, dict]:
    """Configs that reach the float range, the int-string digit limit and NaN frames."""
    nan_frames = _example_3()
    nan_frames["immersion"]["components"] = ["10^308*u1+u2^2", "u1", "u2", "u1*u2"]
    nan_frames["immersion"]["samples"]["grid"] = [[-1, 1, 2], [-1, 1, 2]]
    nan_frames["suites"] = ["identities", "extrinsic", "slant"]
    return {
        "overflow_metric": _example_3(metric_00="3" * 400),
        "affine_extra_overflow": _example_3(component_0="10^308*u1*psi", extra_points=[[2, 0]]),
        "affine_constant_overflow": _example_3(component_0="psi*u1-10^400"),
        "long_literal": _example_3(component_0="psi*u1+" + "1" * 5000),
        "long_lambda": _example_3(metric_00="1" + "0" * 2499 + "7/1" + "0" * 2500),
        "curved_nan_frames": nan_frames,
    }


def _sources(workdir: Path) -> list[str]:
    """Bundled config names and config file paths, in a fixed order."""
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    sources = list(workloads.build("bundled_mix", SEEDS[0], workdir).sources)
    sources += sorted(str(path) for path in (ROOT / "tests" / "configs").glob("*.cfg"))
    for name in GENERATED:
        for seed in SEEDS:
            sources += workloads.build(name, seed, workdir).sources
    for name, data in _edge_configs().items():
        path = workdir / f"{name}.cfg"
        path.write_text(json.dumps(data))
        sources.append(str(path))
    return sources


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    src = Path(sys.argv[1] if len(sys.argv) > 1 else ROOT / "src").resolve()
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as workdir:
        for source in _sources(Path(workdir)):
            for backend in BACKENDS:
                proc = subprocess.run(
                    [sys.executable, "-m", "goldenslant", "run", source, "--backend", backend],
                    env=env, capture_output=True, check=False)
                print(Path(source).name, backend, proc.returncode, _digest(proc.stdout),
                      _digest(proc.stderr), flush=True)


if __name__ == "__main__":
    main()
