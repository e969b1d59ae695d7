"""The measurement loop and the metrics it reports.

A run is a closed loop with one client: the next op starts when the
previous one has returned. It issues complete rounds, one input per
charge band, until `seconds` of wall time have passed, so every run holds
the same band mix. Each input runs once; only the op itself is timed, and
input preparation and output checks happen between timed regions.

Every time is reported at reference machine speed. The machine is
shared: an identical op runs up to twice as slow in stretches that last
from milliseconds to minutes, in CPU time as well as wall time, so raw
times of the same code spread by 30% or more from run to run. Between
consecutive ops the harness times a fixed pure-Python loop of scalar
float math (calibration.calibrate(), the same kind of work as rnwarp's
quadrature), and scales each op's time by CALIBRATION_S over the mean
of the loop times just before and just after it. The loop is part of
the benchmark, never of rnwarp, so a change to rnwarp moves the scaled
times by the same factor as the raw ones, while a slow stretch of the
machine slows op and loop alike and cancels out.
"""

from __future__ import annotations

import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

from . import tracer as tracing
from .calibration import calibrate, scaled
from .workloads import Outcome

SETUP_PROBES = 5

# name -> (unit, better); the end-to-end metrics of an untraced run
END_TO_END = {
    "setup_s": ("s", "lower"),
    "points_per_s": ("points/s", "higher"),
    "op_p50_s": ("s", "lower"),
    "op_p75_s": ("s", "lower"),
    "passed_ratio": ("ratio", "higher"),
    "residual_ratio_max": ("ratio", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}

# name -> unit; the per-layer metrics of a traced run, all "lower is better".
# Counts and times are per op unless the name says otherwise.
PER_LAYER = {
    "calculus.integrate_endpoint_singular.calls": "calls/op",
    "calculus.integrate_endpoint_singular.self_s": "s/op",
    "calculus.integrate_endpoint_singular.integrand_calls_per_call": "calls/call",
    "reissner_nordstrom.mu_of_r.calls": "calls/op",
    "reissner_nordstrom.mu_of_r.calls_per_point": "calls/point",
    "calculus.find_root_bracketed.calls": "calls/op",
    "calculus.find_root_bracketed.self_s": "s/op",
    "calculus.find_root_bracketed.g_calls_per_call": "calls/call",
    "reissner_nordstrom.r_of_mu.calls": "calls/op",
    "reissner_nordstrom.r_of_mu.total_s": "s/op",
    "oracle.ricci_at.calls": "calls/op",
    "oracle.ricci_at.self_s": "s/op",
    "oracle.ricci_at.metric_evals_per_call": "evals/call",
    "reissner_nordstrom.warped_chart.g.evals": "evals/op",
    "reissner_nordstrom.warped_chart.g.self_s": "s/op",
    "reissner_nordstrom.static_chart.g.evals": "evals/op",
    "reissner_nordstrom.static_chart.g.self_s": "s/op",
    "fluid.fluid_report.calls": "calls/op",
    "fluid.fluid_report.self_s": "s/op",
    "warped.ricci_from_warps.calls": "calls/op",
    "warped.ricci_from_warps.self_s": "s/op",
    "reissner_nordstrom.warp_state.calls": "calls/op",
    "reissner_nordstrom.warp_state.self_s": "s/op",
    "cli.main.self_s": "s/op",
    "calculus.derivative.calls": "calls/op",
    "calculus.derivative.self_s": "s/op",
    "verify.run_verification.self_s": "s/op",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Record:
    index: int
    seconds: float          # raw wall time of the op
    scaled_s: float         # the same at reference machine speed
    outcome: Outcome


@dataclass
class Run:
    """Everything one measurement loop produced."""

    records: list[Record] = field(default_factory=list)
    reference: Outcome | None = None  # the checked output of the warm-up op
    deterministic: bool = True        # the reference op reproduced its output at the end
    setup_s: list[float] = field(default_factory=list)
    calibrations: list[float] = field(default_factory=list)  # every calibrate() time
    untraced_s: float = 0.0        # traced runs: sum of untraced op times
    traced_s: float = 0.0          # traced runs: the same ops, traced


def _timed(fn, x):
    t0 = time.perf_counter()
    try:
        out, error = fn(x), None
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        out, error = None, exc
    return time.perf_counter() - t0, out, error


def _outcome(workload, x, out, error) -> Outcome:
    if error is not None:
        return Outcome(False, reason=f"{type(error).__name__}: {error}")
    return workload.check(x, out)


def _fingerprint(workload, out, error) -> bytes:
    return f"{type(error).__name__}: {error}".encode() if error is not None \
        else workload.fingerprint(out)


def _reference(workload, run: Run) -> bytes:
    """Run the reference op untimed (also the warm-up: imports, caches, first calls)."""
    x = workload.reference()
    _, out, error = _timed(workload.run, x)
    run.reference = _outcome(workload, x, out, error)
    if run.reference.residual_ratio is None:
        raise RuntimeError(f"reference op failed: {run.reference.reason}")
    return _fingerprint(workload, out, error)


def measure(workload, seconds: float, probe=None) -> Run:
    """Issue complete rounds of seeded inputs for `seconds` of wall time.

    probe, if given, returns one set-up time, scaled by the probe
    process's own calibration (it need not run on the core this one runs
    on); it is sampled SETUP_PROBES times before the timed loop.
    """
    run = Run()
    reference = _reference(workload, run)
    run.setup_s = [probe() for _ in range(SETUP_PROBES if probe is not None else 0)]

    def calibrated():
        run.calibrations.append(calibrate())
        return run.calibrations[-1]

    cal = calibrated()
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        for _ in range(workload.round_size):
            i = len(run.records)
            x = workload.prepare(i)
            dt, out, error = _timed(workload.run, x)
            after = calibrated()
            run.records.append(Record(i, dt, scaled(dt, cal, after),
                                      _outcome(workload, x, out, error)))
            cal = calibrated()  # the check between ops may have spanned a change of speed
    _, out, error = _timed(workload.run, workload.reference())
    run.deterministic = _fingerprint(workload, out, error) == reference
    return run


def measure_traced(workload, seconds: float, tr: tracing.Tracer) -> Run:
    """Run each input untraced and then traced, back to back, for `seconds` in all.

    Pairing the two runs of an input keeps slow stretches of a shared
    machine out of the overhead estimate.
    """
    run = Run()
    _reference(workload, run)
    i = 0
    while run.untraced_s + run.traced_s < seconds:
        for _ in range(workload.round_size):
            x = workload.prepare(i)
            dt, out, error = _timed(workload.run, x)
            tr.current_op = i
            tr.install()
            try:
                dt_traced, out_traced, error_traced = _timed(workload.run, x)
            finally:
                tr.uninstall()
            run.untraced_s += dt
            run.traced_s += dt_traced
            run.deterministic &= (_fingerprint(workload, out, error)
                                  == _fingerprint(workload, out_traced, error_traced))
            run.records.append(Record(i, dt, dt, _outcome(workload, x, out, error)))
            i += 1
    return run


def end_to_end(workload, run: Run, scaled: bool = True) -> dict[str, float]:
    """Latency over the ops that passed; throughput counts their points per
    second of op time over all inputs, so time spent on failing ops lowers it.

    Op times are at reference machine speed unless scaled is false;
    set-up times always are (see measure). The tail
    percentile is the 75th: `verify` runs hold about 60 ops, and the 75th
    is the highest percentile with at least ten of them beyond it.
    """
    def t(r):
        return r.scaled_s if scaled else r.seconds

    passed = [r for r in run.records if r.outcome.passed]
    times = [t(r) for r in passed]
    return {
        "setup_s": statistics.median(run.setup_s),
        "points_per_s": len(passed) * workload.points_per_op / sum(map(t, run.records)),
        "op_p50_s": statistics.median(times),
        "op_p75_s": statistics.quantiles(times, n=4)[2],
        "passed_ratio": len(passed) / len(run.records),
        "residual_ratio_max": run.reference.residual_ratio,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, run: Run, tr: tracing.Tracer) -> dict[str, float]:
    ops = len(run.records)
    points = ops * workload.points_per_op
    s = tr.summary()

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for metric in PER_LAYER:
        func, kind = metric.rsplit(".", 1)
        if kind in ("calls", "evals"):
            out[metric] = s[func]["calls"] / ops
        elif kind in ("self_s", "total_s"):
            out[metric] = s[func][kind] / ops
    integrate, root = "calculus.integrate_endpoint_singular", "calculus.find_root_bracketed"
    ricci = "oracle.ricci_at"
    metric_evals = sum(tr.children_of(ricci, f"reissner_nordstrom.{chart}.g")
                       for chart in ("warped_chart", "static_chart"))
    out.update({
        integrate + ".integrand_calls_per_call":
            ratio(tr.arg_calls[integrate], s[integrate]["calls"]),
        root + ".g_calls_per_call": ratio(tr.arg_calls[root], s[root]["calls"]),
        "reissner_nordstrom.mu_of_r.calls_per_point":
            s["reissner_nordstrom.mu_of_r"]["calls"] / points,
        ricci + ".metric_evals_per_call": ratio(metric_evals, s[ricci]["calls"]),
        "trace.overhead_ratio": run.traced_s / run.untraced_s - 1.0,
    })
    return {k: out[k] for k in PER_LAYER}


def failure_reasons(run: Run) -> Counter:
    return Counter(r.outcome.reason.split(":")[0] for r in run.records if not r.outcome.passed)
