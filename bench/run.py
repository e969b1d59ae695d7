"""rnwarp benchmark: one workload, one process, one thread, every output checked.

    python3 bench/run.py --workload {verify,tables,oracle} --seed N --seconds S --trace {0,1}

Run from the repository root. rnwarp is imported from ./src, never from an
installed copy. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics (and the tracing overhead) with --trace 1.
Lines before it, prefixed with '#', record the environment and the run.
See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import os

# one thread for every numeric library, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"


def _import_rnwarp():
    """Put ./src first on the path and make sure rnwarp comes from there."""
    if not (SRC / "rnwarp" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'rnwarp'} not found; run from an rnwarp checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT / "bench"))
    import rnwarp

    if Path(rnwarp.__file__).resolve().parent != (SRC / "rnwarp").resolve():
        sys.exit(f"error: rnwarp imported from {rnwarp.__file__}, not from {SRC}")


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "machine": platform.machine(),
        "threads_env": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _setup_probe(workload: str):
    """A callable timing a fresh interpreter from start to its first completed op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--first-op", workload]

    def probe() -> float:
        from rnbench.calibration import scaled

        t0 = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, check=True, timeout=120,
                             capture_output=True, text=True).stdout
        dt = time.perf_counter() - t0
        before, after = json.loads(out.splitlines()[-1])  # the probe's own calibration
        return scaled(dt - before - after, before, after)

    return probe


def _first_op(workload: str) -> None:
    from rnbench.workloads import WORKLOADS

    w = WORKLOADS[workload](0)
    w.run(w.reference())


def main(argv=None) -> int:
    from rnbench import harness, tracer as tracing
    from rnbench.calibration import CALIBRATION_S
    from rnbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    print("# env " + json.dumps(_environment()), flush=True)
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        tr = tracing.Tracer()
        run = harness.measure_traced(workload, args.seconds, tr)
        metrics = harness.per_layer(workload, run, tr)
        units = harness.PER_LAYER
        spans = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.npz"
        tr.write(spans)
        print(f"# spans {len(tr.start)} written to {spans.relative_to(ROOT)}; "
              f"tracing overhead {metrics['trace.overhead_ratio']:.3f} "
              f"({run.traced_s:.3f} s traced vs {run.untraced_s:.3f} s untraced)")
    else:
        run = harness.measure(workload, args.seconds, _setup_probe(args.workload))
        metrics = harness.end_to_end(workload, run)
        units = {k: unit for k, (unit, _) in harness.END_TO_END.items()}
        raw = harness.end_to_end(workload, run, scaled=False)
        print(f"# calibration loop median {statistics.median(run.calibrations) * 1e3:.3f} ms "
              f"(reference {CALIBRATION_S * 1e3:g} ms); unscaled op times: "
              + ", ".join(f"{k} {raw[k]:.4g}" for k in ("points_per_s", "op_p50_s", "op_p75_s")))

    failed = sum(not r.outcome.passed for r in run.records)
    correct = run.deterministic and all(r.outcome.correct for r in run.records)
    print(f"# inputs {len(run.records)} ({len(run.records) // workload.round_size} rounds), "
          f"failed {failed} {dict(harness.failure_reasons(run))}, "
          f"reference op reproduced {run.deterministic}, set-up samples {len(run.setup_s)}")
    for r in run.records:
        if not r.outcome.correct:
            print(f"# incorrect output at input {r.index}: {r.outcome.reason}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(run.records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--first-op":
        sys.path.insert(0, str(ROOT / "bench"))
        from rnbench.calibration import calibrate

        before = calibrate()  # before any import of numpy or rnwarp
        _import_rnwarp()
        _first_op(sys.argv[2])
        print(json.dumps([before, calibrate()]))
        sys.exit(0)
    _import_rnwarp()
    sys.exit(main())
