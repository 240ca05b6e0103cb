#!/usr/bin/env python3
"""Point-pass scaling sweep: run time and peak memory against the sample-grid size.

Run from the repository root::

    python3 tools/sweep.py [SRC]

``SRC`` is the goldenslant source tree to measure (default: this repository's
``src``), so the same sweep runs on two checkouts.  Two immersions at n = 4 are
sampled on k x k grids over N = k^2 = 4, 10,000 and 90,000 points:
``paper_example_3`` (affine; structure, identities and slant suites) and the
curved immersion of perfbench's ``curved_grid`` (identities, extrinsic and
slant).  Each row runs in a fresh process with one BLAS thread: one warm-up
``run_scenario`` at N = 4, then three timed runs at N.  It prints one JSON
object per row with the median time and the process's ``ru_maxrss``, and after
each immersion's rows one with ``time_ratio``, its 90,000-point time over its
4-point time.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = (2, 100, 300)
CURVED = {
    "ambient": {"dim": 4, "phi": {"pattern": ["psi", "one_minus_psi", "psi", "one_minus_psi"]}},
    "immersion": {"params": ["u", "v"],
                  "components": ["u*cos(v)", "u*sin(v)", "v", "u^2/3"]},
    "suites": ["identities", "extrinsic", "slant"],
}


def _config(kind: str, side: int):
    from goldenslant.cli import resolve_config
    from goldenslant.config import SampleSpec, load_config, parse_config

    if kind == "affine":
        cfg, grid = load_config(resolve_config("paper_example_3")), ((-1.0, 1.0, side),) * 2
    else:
        cfg, grid = parse_config(CURVED), ((0.5, 1.5, side), (-1.0, 1.0, side))
    return cfg._replace(immersion_samples=SampleSpec(grid=grid))


def _row(kind: str, side: int) -> dict:
    from goldenslant.suites import run_scenario

    run_scenario(_config(kind, 2))
    cfg, times = _config(kind, side), []
    for _ in range(3):
        start = time.perf_counter()
        passed = run_scenario(cfg)["overall_pass"]
        times.append(time.perf_counter() - start)
        if not passed:
            raise SystemExit(f"sweep: {kind} at {side * side} points does not pass")
    return {"immersion": kind, "points": side * side,
            "run_ms": round(statistics.median(times) * 1e3, 2),
            "ru_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def main() -> None:
    if sys.argv[1:2] == ["--row"]:
        print(json.dumps(_row(sys.argv[2], int(sys.argv[3]))))
        return
    src = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for kind in ("affine", "curved"):
        rows = []
        for side in SIDES:
            out = subprocess.run([sys.executable, __file__, "--row", kind, str(side)], env=env,
                                 capture_output=True, text=True, check=True).stdout
            rows.append(json.loads(out))
            print(out.strip(), flush=True)
        # ROADMAP item 4 asks for the largest grid within 2 x the smallest one's time.
        print(json.dumps({"immersion": kind, "points": [rows[0]["points"], rows[-1]["points"]],
                          "time_ratio": round(rows[-1]["run_ms"] / rows[0]["run_ms"], 2)}),
              flush=True)


if __name__ == "__main__":
    main()
