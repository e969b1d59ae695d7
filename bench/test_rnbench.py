"""Tests of the benchmark harness itself: inputs, tracing, output checks, contract."""

import cProfile
import json
import math
import pstats
import statistics
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from rnbench import calibration, configs, harness, tracer as tracing
from rnbench.workloads import WORKLOADS, Oracle, Outcome, Tables, Verify
from rnwarp import BlackHoleParams, reissner_nordstrom as rn, verify

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 7, 12345)


# -- seeded inputs ----------------------------------------------------------

def _in_band(band, m, q):
    ratio, gap = q / m, (m - q) / m
    return {
        "zero": q == 0.0,
        "low": 0.0 < ratio <= 0.9,
        "high": 0.9 < ratio < 0.98,
        "steep": 0.98 <= ratio and gap > configs.NEAR_EXTREMAL_GAP,
        "near_extremal": configs.SMALLEST_GAP * 0.999 <= gap < configs.NEAR_EXTREMAL_GAP,
    }[band]


@pytest.mark.parametrize("seed", SEEDS)
def test_configs_cycle_fixed_bands_and_stay_in_them(seed):
    stream = configs.ConfigStream(seed)
    for i in range(200):
        cfg = stream.config(i)
        assert cfg.index == i
        assert cfg.band == configs.ROUND[i % len(configs.ROUND)]
        lo, hi = (configs.NEAR_EXTREMAL_MASS_RANGE if cfg.band in ("steep", "near_extremal")
                  else configs.MASS_RANGE)
        assert lo <= cfg.mass <= hi
        assert _in_band(cfg.band, cfg.mass, cfg.charge), cfg
        BlackHoleParams(cfg.mass, cfg.charge)  # every draw is a valid input


def test_configs_are_a_function_of_the_seed():
    a, b, c = configs.ConfigStream(3), configs.ConfigStream(3), configs.ConfigStream(4)
    assert [a.config(i) for i in range(50)] == [b.config(i) for i in range(50)]
    assert [a.config(i) for i in range(50)] != [c.config(i) for i in range(50)]


def test_every_seed_draws_the_same_pool_in_its_own_order():
    size = configs.POOL_ROUNDS * len(configs.ROUND)

    def pool(seed, start=0):
        stream = configs.ConfigStream(seed)
        return [(c.band, c.mass, c.charge) for c in map(stream.config, range(start, start + size))]

    first = pool(0)
    assert len(set(first)) == size
    assert sorted(pool(1)) == sorted(first) and pool(1) != first
    assert pool(1, start=size) == pool(1)  # a run that gets through the pool starts it again


def test_the_pool_covers_each_band_evenly():
    stream = configs.ConfigStream(5)
    size = configs.POOL_ROUNDS * len(configs.ROUND)
    low = [i for i in range(size) if stream.coords(i)[0] == "low"]
    us = [stream.coords(i)[1][0] for i in low]  # log-mass coordinate of band "low"
    assert len(set(us)) == len(low) == 2 * configs.POOL_ROUNDS
    counts = np.histogram(us, bins=4, range=(0.0, 1.0))[0]
    assert counts.min() >= len(low) // 4 - 2  # far tighter than independent draws


@pytest.mark.parametrize("seed", SEEDS)
def test_oracle_points_are_guarded_interior_points_below_the_oracle_cutoff(seed):
    stream = configs.OraclePointStream(seed)
    for i in range(60):
        pt = stream.point(i)
        m, q = pt.config.mass, pt.config.charge
        assert pt.config.band == configs.ORACLE_ROUND[i % 3]
        assert q / m < 0.98
        hp = rn.horizons(BlackHoleParams(m, q))
        guard = configs.GUARD * hp.width
        assert hp.r_minus + guard <= pt.r <= hp.r_plus - guard


class _Flaky:
    """A stand-in workload whose op raises on every third input."""

    name = "flaky"
    points_per_op = 1
    round_size = 3

    def reference(self):
        return 1

    def prepare(self, i):
        return i

    def run(self, x):
        if x % 3 == 2:
            raise ArithmeticError("known failure")
        return x

    def check(self, x, out):
        return Outcome(True, residual_ratio=0.5)

    def fingerprint(self, out):
        return repr(out).encode()


def test_failing_inputs_are_counted_not_dropped():
    run = harness.measure(_Flaky(), seconds=1e-4, probe=lambda: 1.0)
    assert [r.index for r in run.records] == list(range(len(run.records)))
    failed = [r.index for r in run.records if not r.outcome.passed]
    assert failed == [i for i in range(len(run.records)) if i % 3 == 2] and failed
    assert run.deterministic and run.setup_s == [1.0] * harness.SETUP_PROBES
    metrics = harness.end_to_end(_Flaky(), run)
    assert metrics["passed_ratio"] == pytest.approx(2 / 3)


def test_op_times_are_scaled_by_the_calibration_around_them():
    ref = calibration.CALIBRATION_S
    assert calibration.scaled(0.3, 0.002, 0.002) == pytest.approx(0.3 * ref / 0.002)
    # a machine running twice as slow doubles the op and the loop alike
    assert calibration.scaled(0.6, 0.004, 0.004) == pytest.approx(calibration.scaled(0.3, 0.002, 0.002))
    assert calibration.scaled(0.3, 0.001, 0.003) == pytest.approx(calibration.scaled(0.3, 0.002, 0.002))
    assert 0.0 < calibration.calibrate() < 1.0


def test_end_to_end_reports_scaled_and_raw_times():
    run = harness.measure(_Flaky(), seconds=1e-4, probe=lambda: 1.0)
    scaled, raw = harness.end_to_end(_Flaky(), run), harness.end_to_end(_Flaky(), run, scaled=False)
    passed = [r for r in run.records if r.outcome.passed]
    assert scaled["op_p50_s"] == statistics.median(r.scaled_s for r in passed)
    assert raw["op_p50_s"] == statistics.median(r.seconds for r in passed)


# -- tracing ----------------------------------------------------------------

def _nested_line(func, name):
    """First line of the closure `name` defined inside func."""
    for const in func.__code__.co_consts:
        if isinstance(const, types.CodeType) and const.co_name == name:
            return const.co_firstlineno
    raise LookupError(name)


def test_traced_counts_match_cprofile_for_the_reference_verify_op():
    p = BlackHoleParams(1.0, 0.6)
    prof = cProfile.Profile()
    prof.runcall(verify.run_verification, p, 64)
    profiled = {(Path(filename).stem, line, func): ncalls
                for (filename, line, func), (_, ncalls, *_) in pstats.Stats(prof).stats.items()
                if "rnwarp" in Path(filename).parts}

    def ncalls(module, func, line=None):
        return sum(n for (mod, ln, f), n in profiled.items()
                   if mod == module and f == func and line in (None, ln))

    tr = tracing.Tracer()
    tr.install()
    try:
        verify.run_verification(p, 64)
    finally:
        tr.uninstall()
    traced = {name: v["calls"] for name, v in tr.summary().items()}

    for module, func in tracing.FUNCTIONS:
        assert traced[f"{module}.{func}"] == ncalls(module, func), func
    for module, factory in tracing.CHARTS:
        line = _nested_line(getattr(rn, factory), "g")
        assert traced[f"{module}.{factory}.g"] == ncalls(module, "g", line), factory
    assert tr.arg_calls["calculus.integrate_endpoint_singular"] == ncalls(
        "reissner_nordstrom", "integrand", _nested_line(rn.mu_of_r, "integrand"))
    assert tr.arg_calls["calculus.find_root_bracketed"] == ncalls(
        "reissner_nordstrom", "g", _nested_line(rn.r_of_mu, "g"))
    assert traced["reissner_nordstrom.mu_of_r"] > 0 and traced["oracle.ricci_at"] > 0


def test_uninstall_restores_every_binding():
    import rnwarp
    from rnwarp import fluid

    before = (rnwarp.mu_of_r, fluid.mu_of_r, rn.mu_of_r, rnwarp.warped_chart)
    tr = tracing.Tracer()
    tr.install()
    try:
        assert fluid.mu_of_r is rn.mu_of_r is rnwarp.mu_of_r is not before[2]
    finally:
        tr.uninstall()
    assert (rnwarp.mu_of_r, fluid.mu_of_r, rn.mu_of_r, rnwarp.warped_chart) == before


def test_self_time_excludes_children():
    tr = tracing.Tracer()
    tr.install()
    try:
        rn.r_of_mu(BlackHoleParams(1.0, 0.6), 1.0)
    finally:
        tr.uninstall()
    s = tr.summary()
    root, child = s["reissner_nordstrom.r_of_mu"], s["calculus.find_root_bracketed"]
    assert root["calls"] == child["calls"] == 1
    assert root["self_s"] == pytest.approx(root["total_s"] - child["total_s"], abs=1e-9)
    assert 0.0 <= s["calculus.integrate_endpoint_singular"]["self_s"] <= \
        s["calculus.integrate_endpoint_singular"]["total_s"]


# -- output checks ------------------------------------------------------------

def test_tables_output_is_byte_identical_for_the_same_seed():
    a, b = Tables(9), Tables(9)
    assert a.run(a.prepare(1)) == b.run(b.prepare(1))


def test_tables_check_fails_a_wrong_value_and_flags_a_malformed_table():
    w = Tables(0)
    p = w.prepare(1)
    (code_c, text_c), fluid_out = w.run(p)
    assert w.check(p, [(code_c, text_c), fluid_out]).passed
    rows = text_c.split("\n")
    cells = rows[10].split(",")
    cells[6] = repr(float(cells[6]) * (1.0 + 1e-8))  # R_thth off by 1e-8 relative
    rows[10] = ",".join(cells)
    bad = w.check(p, [(code_c, "\n".join(rows)), fluid_out])
    assert not bad.passed and bad.correct and bad.residual_ratio > 1.0
    malformed = w.check(p, [(code_c, "\n".join(rows[:-2] + [""])), fluid_out])
    assert not malformed.passed and not malformed.correct


def test_tables_failed_exit_code_is_a_failure_not_an_incorrect_output():
    w = Tables(0)
    outcome = w.check(w.reference(), [(2, ""), (2, "")])
    assert not outcome.passed and outcome.correct


def test_oracle_check_fails_a_wrong_component():
    w = Oracle(0)
    x = w.prepare(1)  # band "low": a charged point, so R_thth is not zero
    warped_pt, static_pt = w.run(x)
    assert w.check(x, (warped_pt, static_pt)).passed
    ricci = warped_pt.ricci.copy()
    p, r, _ = x
    ricci[2, 2] += 1e-3 * (r / p.mass) ** 2  # 1e-3 of the component's comparison floor
    bad = w.check(x, (type(warped_pt)(warped_pt.point, warped_pt.christoffel, ricci,
                                      warped_pt.scalar), static_pt))
    assert not bad.passed and bad.correct and bad.residual_ratio > 1.0


def test_verify_check_separates_failure_from_inconsistency():
    w = Verify(0)
    failing = verify.VerifyReport([verify.CheckResult("horizon_vieta", 1.0, 1e-12, False)])
    assert w.check(None, failing) == Outcome(False, residual_ratio=1e12,
                                             reason="overall_pass=false: horizon_vieta")
    lying = verify.VerifyReport([verify.CheckResult("horizon_vieta", 1.0, 1e-12, True)])
    assert not w.check(None, lying).correct


# -- the benchmark contract ---------------------------------------------------

def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in spec["workloads"]]
    assert listed == ["verify", "tables", "oracle"] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert all(m["better"] == "lower" for m in spec["per_layer"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"]) <= 0.25


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "oracle", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_short_run_prints_a_checked_result_line(tmp_path):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "oracle", "--seed", "2",
                           "--seconds", "0.2", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 3 and result["failed"] == 0
    assert set(result["metrics"]) == set(harness.END_TO_END)
    assert all(math.isfinite(v["value"]) and v["value"] > 0 for v in result["metrics"].values())
