"""Benchmark of the deformconv library: workloads, output checks and a
traced per-module run. Entry point: ``perfbench/run.py``."""
