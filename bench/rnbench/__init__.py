"""Benchmark harness for rnwarp: seeded workloads, output checks and call tracing.

The harness drives rnwarp only through its public functions and changes
nothing under src/. See bench/README.md for how to run it and what each
metric means.
"""
