"""Tests of the benchmark itself, on the tiny ``--smoke`` inputs.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import goldenslant  # noqa: E402
import goldenslant.cli  # noqa: E402,F401
from perfbench import gate, spans, workloads  # noqa: E402

REGISTRY = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in REGISTRY["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def smoke(workload: str, trace: int, seed: int = 3) -> dict:
    proc = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_registry_matches_generators():
    assert WORKLOADS == list(workloads.GENERATORS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_generators_are_deterministic(name, tmp_path):
    def inputs(seed: int, subdir: str) -> list[str]:
        built = workloads.build(name, seed, tmp_path / subdir)
        return [Path(s).read_text() if name != "bundled_mix" else s for s in built.sources]

    assert inputs(11, "a") == inputs(11, "b")
    if name != "bundled_mix":
        assert inputs(11, "a") != inputs(12, "c")


def test_exact_dense_self_check_rejects_bad_inputs():
    one, half = Fraction(1), Fraction(1, 2)
    metric = [[2 * one, half], [half, 2 * one]]
    f_ok = [[one, 0 * one], [0 * one, one]]
    jac_full = [[(one, 0 * one)] * 3, [(0 * one, one), (one, 0 * one), (0 * one, 0 * one)],
                [(0 * one, 0 * one), (one, one), (one, 0 * one)]]
    with pytest.raises(ValueError, match="F\\^2"):
        workloads.check_exact_input(metric, [[2 * one, 0 * one], [0 * one, one]], jac_full)
    with pytest.raises(ValueError, match="gF"):
        workloads.check_exact_input(metric, [[one, one], [0 * one, -one]], jac_full)
    rank_two = [[(one, 0 * one)] * 3] * 2 + [[(0 * one, one)] * 3]
    with pytest.raises(ValueError, match="rank"):
        workloads.check_exact_input(metric, f_ok, rank_two)


def test_gate_flags_wrong_reports(tmp_path):
    wl = workloads.build("exact_dense", 5, tmp_path, smoke=True)
    cfg = goldenslant.load_config(wl.sources[0])
    report = json.loads(goldenslant.render_report(goldenslant.run_scenario(cfg, seed=5)))
    check = gate.Gate(wl)
    assert check.check(wl.sources[0], report) == []
    report["suites"]["identities"]["exact"]["all_zero"] = False
    report["overall_pass"] = False
    assert len(check.check(wl.sources[0], report)) == 2


def test_wrappers_install_and_remove():
    module = sys.modules["goldenslant.submanifold"]
    original = module.frame_at
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert sys.modules["goldenslant.suites"].frame_at is not original
        assert "goldenslant.slant.frame_at" in spans.verify_untouched()
    finally:
        tracer.remove()
    assert spans.verify_untouched() == []
    for name in ("goldenslant", "goldenslant.suites", "goldenslant.extrinsic",
                 "goldenslant.slant"):
        assert sys.modules[name].frame_at is original


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_emits_every_end_to_end_metric(name):
    result = smoke(name, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in REGISTRY["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_counts_repeat_exactly(name):
    first, second = smoke(name, trace=1), smoke(name, trace=1)
    units = {m["name"]: m["unit"] for m in REGISTRY["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == units
    counts = [k for k, unit in units.items() if unit in ("count", "ratio")]
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench("--workload", "bundled_mix", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
