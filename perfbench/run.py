#!/usr/bin/env python3
"""goldenslant benchmark: one workload, one seed, one timed run.

Run from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate run that wraps goldenslant's public functions and
reports the per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--smoke`` shrinks every workload for the benchmark's own tests.  The exit
code is 0 only when every pass met the correctness gate.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / "perfbench" / ".work"
SETUP_PROBES = 9  # timed fresh processes per run; one more warms the bytecode cache
TAIL_BEYOND = 10  # run_s_tail is the highest percentile with this many samples above it
MIN_PASSES = TAIL_BEYOND + 1
MIN_TRACED_PASSES = 3
HARD_CAP_S = 120.0  # stop measuring here even when MIN_PASSES is not reached
SUITES = ("structure", "identities", "extrinsic", "slant", "curvature")

sys.path[:0] = [str(SRC), str(ROOT)]

try:
    import goldenslant as gs
    import goldenslant.cli as gs_cli
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import goldenslant from {SRC}: {exc}") from None
if Path(gs.__file__).resolve().parent.parent != SRC:
    raise SystemExit(f"perfbench: goldenslant was imported from {gs.__file__}, not {SRC}")

from perfbench import spans, workloads  # noqa: E402
from perfbench.calib import calibration, rescale  # noqa: E402
from perfbench.gate import Gate, expected_exit  # noqa: E402


def registry() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure_setup(sources: tuple[str, ...]) -> list[float]:
    """Start-to-ready times of fresh processes that import goldenslant and load configs.

    Each probe calibrates itself right after it is ready, and its time is
    rescaled by that calibration.  A calibration in this process right after
    a child exits runs slow, so the probes are not bracketed from here.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), *sources]
    times = []
    for i in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            rest = proc.stdout.read().split()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0 or len(rest) != 1:
            raise RuntimeError(f"setup probe failed with exit code {code}")
        if i:  # the first probe only compiles bytecode
            times.append(rescale(elapsed, float(rest[0])))
    return times


def load_configs(workload: workloads.Workload) -> list:
    """Configs as ``goldenslant run`` builds them: resolve, load, apply the run seed."""
    return [gs.load_config(gs_cli.resolve_config(source)).with_overrides(seed=workload.seed)
            for source in workload.sources]


def run_pass(configs: list, seed: int) -> list[str]:
    """One workload pass: run_scenario plus render_report over every config."""
    return [gs.render_report(gs.run_scenario(cfg, seed=seed)) for cfg in configs]


def cli_reference(workload: workloads.Workload) -> tuple[list[str], list[int]]:
    """Reports and exit codes of ``goldenslant run SOURCE --seed N`` for every config."""
    texts, codes = [], []
    for source in workload.sources:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes.append(gs_cli.main(["run", source, "--seed", str(workload.seed)]))
        texts.append(out.getvalue())
    return texts, codes


class Checker:
    """Applies the gate to the reference pass and byte identity to every later pass."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.gate = Gate(workload)
        self.reference: list[str] | None = None
        self.problems: list[str] = []
        self.attempted = self.failed = 0

    def record(self, texts: list[str] | None, error: str | None = None) -> None:
        self.attempted += 1
        problems = [error] if error else []
        if texts is not None:
            for source, text in zip(self.workload.sources, texts):
                problems.extend(self.gate.check(source, json.loads(text)))
            if self.reference is not None and texts != self.reference:
                problems.append("report bytes differ from the first pass of the same seed")
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def reference_pass(self) -> None:
        texts, codes = cli_reference(self.workload)
        want = [expected_exit(self.workload, s) for s in self.workload.sources]
        self.record(texts, None if codes == want else f"CLI exit codes {codes}, expected {want}")
        self.reference = texts


def timed_pass(configs: list, seed: int) -> tuple[float, list[str] | None, str | None]:
    start = time.perf_counter()
    try:
        texts, error = run_pass(configs, seed), None
    except Exception as exc:  # a raising pass is a failed pass; the run goes on
        texts, error = None, f"pass raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, texts, error


def keep_going(start: float, per_round: list[float], minimum: int, seconds: float) -> bool:
    """Measure until the next round would end past ``seconds``, after ``minimum`` rounds."""
    elapsed = time.perf_counter() - start
    if elapsed > HARD_CAP_S:
        return False
    return len(per_round) < minimum or elapsed + statistics.median(per_round) <= seconds


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(workload, checker: Checker, seconds: float) -> tuple[dict, list[str]]:
    setup = measure_setup(workload.sources)
    configs = load_configs(workload)
    checker.reference_pass()
    raw: list[float] = []
    times: list[float] = []
    cals = [calibration()]
    start = time.perf_counter()
    while keep_going(start, raw, MIN_PASSES, seconds):
        elapsed, texts, error = timed_pass(configs, workload.seed)
        cals.append(calibration())
        raw.append(elapsed)
        times.append(rescale(elapsed, cals[-2], cals[-1]))
        checker.record(texts, error)
    p50 = statistics.median(times)
    tail_s, tail_pct = tail(times)
    values = {
        "setup_s": statistics.median(setup),
        "run_s_p50": p50,
        "run_s_tail": tail_s,
        "work_per_s": workload.items / p50,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (checker.attempted - checker.failed) / checker.attempted,
    }
    beyond = sum(t > tail_s for t in times)
    notes = [f"{len(times)} timed passes; run_s_tail is p{tail_pct:.1f} "
             f"({beyond} of {len(times)} passes above it); work_per_s counts "
             f"{workload.item_unit} ({workload.items} per pass)",
             f"unscaled wall median {statistics.median(raw):.4f} s per pass; median "
             f"calibration {statistics.median(cals):.4f} s; rescaled by x{p50 / statistics.median(raw):.3f}"]
    return values, notes


def workload_shape(configs: list) -> tuple[int, int]:
    """(immersion components, sample points) one pass covers, summed over configs."""
    components = points = 0
    for cfg in configs:
        if cfg.immersion_components is not None:
            components += len(cfg.immersion_components)
            points += len(cfg.build_immersion().sample_spec.points())
    return components, points


def pass_metrics(tracer: spans.Tracer, pass_id: int, totals: dict, components: int,
                 points: int, factor: float) -> dict:
    """Per-layer metrics of one traced pass; times are multiplied by ``factor``."""
    calls, incl, self_ns = totals["calls"], totals["incl_ns"], totals["self_ns"]
    layer_calls = Counter()
    for name, count in calls.items():
        layer_calls[tracer.layer(name)] += count
    m = {}
    for layer in spans.LAYERS:
        m[f"{layer}.calls"] = layer_calls[layer]
        m[f"{layer}.self_s"] = self_ns[layer] / 1e9
    m["expr.parse.calls"] = calls["expr.parse"]
    m["expr.parse_per_component"] = calls["expr.parse"] / components if components else 0.0
    m["expr.jet.calls"] = calls["expr.jacobian"] + calls["expr.hessians"]
    m["expr.hessians.calls"] = calls["expr.hessians"]
    m["submanifold.frame_at.calls"] = calls["submanifold.frame_at"]
    m["submanifold.frames_per_point"] = calls["submanifold.frame_at"] / points if points else 0.0
    m["submanifold.exact_s"] = sum(ns for name, ns in incl.items()
                                   if name.startswith("submanifold.exact_")) / 1e9
    m["extrinsic.sff.calls"] = calls["extrinsic.second_fundamental_form"]
    m["quadrat.ops"] = tracer.ops[pass_id]
    m["structures.verify_golden.calls"] = calls["structures.verify_golden"]
    m["spaceform.curvature.calls"] = calls["spaceform.curvature"]
    m["config.load_s"] = incl["config.load_config"] / 1e9
    m["suites.render_s"] = incl["suites.render_report"] / 1e9
    for suite in SUITES:
        m[f"suites.{suite}_s"] = incl[f"suites.run_{suite}_suite"] / 1e9
    return {k: v * factor if k.endswith("_s") else v for k, v in m.items()}


def per_layer(workload, checker: Checker, seconds: float) -> tuple[dict, list[str]]:
    configs = load_configs(workload)
    components, points = workload_shape(configs)
    checker.reference_pass()
    tracer = spans.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    factors: list[float] = []  # rescaling of each traced pass
    rounds: list[float] = []
    cal = calibration()
    start = time.perf_counter()
    while keep_going(start, rounds, MIN_TRACED_PASSES, seconds):
        round_start = time.perf_counter()
        elapsed, texts, error = timed_pass(configs, workload.seed)
        cal_mid = calibration()
        untraced.append(rescale(elapsed, cal, cal_mid))
        checker.record(texts, error)
        tracer.pass_id = len(traced)
        tracer.install()
        try:
            with tracer.span("bench.load", "bench"):
                traced_configs = load_configs(workload)
            elapsed, texts, error = timed_pass(traced_configs, workload.seed)
        finally:
            tracer.remove()
        cal = calibration()
        factors.append(rescale(1.0, cal_mid, cal))
        traced.append(elapsed * factors[-1])
        checker.record(texts, error)
        rounds.append(time.perf_counter() - round_start)
    tracer.write(WORKDIR / f"spans-{workload.name}-seed{workload.seed}.jsonl")

    per_pass = [pass_metrics(tracer, pass_id, totals, components, points, factors[pass_id])
                for pass_id, totals in sorted(tracer.totals().items())]
    values = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    notes = [f"{len(traced)} traced and {len(untraced)} untraced passes; "
             f"{len(tracer.spans)} spans written to perfbench/.work"]
    return values, notes


def run_one(args) -> int:
    workload = workloads.build(args.workload, args.seed, WORKDIR, smoke=args.smoke)
    checker = Checker(workload)
    measure = per_layer if args.trace else end_to_end
    values, notes = measure(workload, checker, args.seconds)
    leftover = spans.verify_untouched()
    if leftover:
        checker.problems.append(f"wrapped attributes left behind: {leftover}")
    declared = registry()["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(values):
        raise RuntimeError(f"metrics computed {sorted(values)} differ from BENCHMARK.json")
    for note in notes:
        print(f"# {workload.name} seed {workload.seed}: {note}")
    for problem in checker.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = not checker.problems
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another, as one table."""
    results, code = {}, 0
    for name in workloads.GENERATORS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv + (["--smoke"] if args.smoke else []), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            code = 1
        if lines:
            results[name] = json.loads(lines[-1])
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name:<17} {metric:<32} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": code == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": m for name, r in results.items()
                    for metric, m in r["metrics"].items()},
    }))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
