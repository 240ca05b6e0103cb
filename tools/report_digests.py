#!/usr/bin/env python3
"""Digests of every report a fixed set of configs produces, for byte-identity checks.

Run from the repository root::

    python3 tools/report_digests.py [SRC] > digests.txt

``SRC`` is the goldenslant source tree to run (default: this repository's
``src``), so the same inputs run on two checkouts and ``diff`` of the two
outputs shows every report, message or exit code that changed.  The inputs are
the bundled configs, the regression configs under ``tests/configs`` and the
``curved_grid``, ``exact_dense`` and ``spaceform_trials`` configs of seeds 1, 7
and 101, written by perfbench's generators into a temporary directory.  Each
runs as ``python -m goldenslant run CONFIG --backend B`` in a fresh process,
for B = auto and float.  One line per run gives the config, the backend, the
exit code and the SHA-256 of stdout and of stderr.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GENERATED = ("curved_grid", "exact_dense", "spaceform_trials")
SEEDS = (1, 7, 101)
BACKENDS = ("auto", "float")


def _sources(workdir: Path) -> list[str]:
    """Bundled config names and config file paths, in a fixed order."""
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    sources = list(workloads.build("bundled_mix", SEEDS[0], workdir).sources)
    sources += sorted(str(path) for path in (ROOT / "tests" / "configs").glob("*.cfg"))
    for name in GENERATED:
        for seed in SEEDS:
            sources += workloads.build(name, seed, workdir).sources
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
