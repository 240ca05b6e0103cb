"""Benchmark of goldenslant: workloads, correctness gate, tracing and runner."""
