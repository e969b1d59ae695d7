"""Acceptance criteria, one test per criterion, each printing a status line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass. Budgets are wall-clock seconds and part of the contract.
"""

import json
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from rnwarp import cli
from rnwarp.fluid import fluid_report
from rnwarp.oracle import ricci_at
from rnwarp.reissner_nordstrom import (BlackHoleParams, horizons, interior_grid,
                                       lapse_squared, mu_closed_form,
                                       mu_closed_form_sqrt, mu_of_r, r_of_mu,
                                       ricci_closed_form, static_chart, warp_state,
                                       warped_chart)
from rnwarp.verify import CheckResult, VerifyReport, run_verification
from rnwarp.warped import ricci_from_warps

PI_2 = math.pi / 2.0
PAIRS = [(1.0, 0.0), (1.0, 0.3), (1.0, 0.6), (1.0, 0.9), (2.0, 1.0)]
GRID_N = 32


@contextmanager
def criterion(num, budget_s, text):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        dt = time.perf_counter() - t0
        status = "PASS" if ok and dt < budget_s else "FAIL"
        print(f"[{status}] criterion {num:2d} ({dt:6.2f}s / {budget_s:g}s) {text}")
    assert dt < budget_s, f"criterion {num} exceeded its {budget_s}s budget ({dt:.2f}s)"


def rel_gap(a, b, floor):
    return abs(a - b) / max(abs(a), abs(b), floor)


@pytest.fixture(scope="module")
def triple_sweep():
    """Shared sweep for criteria 3 and 4: closed vs warped vs oracle."""
    t0 = time.perf_counter()
    worst_cw = worst_co = 0.0
    worst_scalar_algebraic = worst_scalar_oracle = 0.0
    for m, q in PAIRS:
        p = BlackHoleParams(m, q)
        chart = warped_chart(p)
        floor = 1.0 / (m * m)
        for r in interior_grid(p, GRID_N):
            rc = ricci_closed_form(p, r, PI_2)
            wr = ricci_from_warps(warp_state(p, r), PI_2)
            closed = (rc.r_mumu, rc.r_nunu, rc.r_thth, rc.r_phph)
            warp_vals = (wr.r_mumu, wr.r_nunu, wr.r_thth, wr.r_phph)
            worst_cw = max(worst_cw, *[rel_gap(a, b, floor)
                                       for a, b in zip(closed, warp_vals)])
            worst_scalar_algebraic = max(worst_scalar_algebraic, abs(wr.scalar))

            cp = ricci_at(chart, [mu_of_r(p, r), 0.0, PI_2, 0.0])
            diag = np.diag(cp.ricci)
            worst_co = max(worst_co, *[rel_gap(a, float(b), floor)
                                       for a, b in zip(closed, diag)])
            worst_scalar_oracle = max(worst_scalar_oracle, abs(cp.scalar))
    return {
        "elapsed": time.perf_counter() - t0,
        "closed_vs_warped": worst_cw,
        "closed_vs_oracle": worst_co,
        "scalar_algebraic": worst_scalar_algebraic,
        "scalar_oracle": worst_scalar_oracle,
    }


def test_criterion_1_horizon_algebra():
    with criterion(1, 1.0, "Vieta identities for 1000 random (m, Q)"):
        rng = random.Random(12345)
        for _ in range(1000):
            m = rng.uniform(0.1, 10.0)
            q = m * rng.uniform(0.0, 0.99)
            hp = horizons(BlackHoleParams(m, q))
            assert abs(hp.r_plus + hp.r_minus - 2.0 * m) <= 1e-12 * 2.0 * m
            assert abs(hp.r_plus * hp.r_minus - q * q) <= 1e-12 * max(q * q, m * m)


def test_criterion_2_boundary_conditions():
    with criterion(2, 1.0, "coordinate map endpoints: F(r-) = 0, F(r+) = m*pi"):
        for m, q in PAIRS:
            p = BlackHoleParams(m, q)
            hp = horizons(p)
            assert abs(mu_of_r(p, hp.r_minus)) <= 1e-9
            assert abs(mu_of_r(p, hp.r_plus) - m * math.pi) <= 1e-8


def test_criterion_3_triple_agreement(triple_sweep):
    label = f"closed form vs warp formulas vs oracle (sweep {triple_sweep['elapsed']:.2f}s)"
    with criterion(3, 30.0, label):
        assert triple_sweep["closed_vs_warped"] <= 1e-10
        assert triple_sweep["closed_vs_oracle"] <= 1e-5
        assert triple_sweep["elapsed"] < 30.0


def test_criterion_4_scalar_flatness(triple_sweep):
    with criterion(4, 30.0, "scalar curvature vanishes on both paths"):
        assert triple_sweep["scalar_algebraic"] <= 1e-8
        assert triple_sweep["scalar_oracle"] <= 1e-5


def test_criterion_5_schwarzschild_reduction():
    with criterion(5, 5.0, "uncharged limit is Ricci flat across the grid"):
        p = BlackHoleParams(1.0, 0.0)
        for r in interior_grid(p, GRID_N):
            wr = ricci_from_warps(warp_state(p, r), PI_2)
            for v in (wr.r_mumu, wr.r_nunu, wr.r_thth, wr.r_phph):
                assert abs(v) <= 1e-8
            rc = ricci_closed_form(p, r, PI_2)
            for v in (rc.r_mumu, rc.r_nunu, rc.r_thth, rc.r_phph):
                assert abs(v) <= 1e-8


def test_criterion_6_chart_covariance():
    with criterion(6, 30.0, "static-chart oracle transforms onto the warped chart"):
        for m, q in PAIRS:
            p = BlackHoleParams(m, q)
            chart = static_chart(p)
            floor = 1.0 / (m * m)
            for r in interior_grid(p, GRID_N):
                rc = ricci_closed_form(p, r, PI_2)
                n2 = lapse_squared(p, r)
                cp = ricci_at(chart, [0.0, r, PI_2, 0.0])
                assert rel_gap(float(cp.ricci[1, 1]) * n2, rc.r_mumu, floor) <= 1e-5
                assert rel_gap(float(cp.ricci[0, 0]), rc.r_nunu, floor) <= 1e-5
                assert rel_gap(float(cp.ricci[2, 2]), rc.r_thth, floor) <= 1e-5
                assert rel_gap(float(cp.ricci[3, 3]), rc.r_phph, floor) <= 1e-5


def test_criterion_7_inverse_round_trip():
    with criterion(7, 10.0, "F(F^-1(mu)) returns mu for 100 samples per pair"):
        rng = random.Random(777)
        for m, q in PAIRS:
            p = BlackHoleParams(m, q)
            mu_max = m * math.pi
            for _ in range(100):
                mu = mu_max * rng.uniform(0.01, 0.99)
                assert abs(mu_of_r(p, r_of_mu(p, mu)) - mu) <= 1e-8 * mu_max


def test_criterion_8_fluid_extraction():
    with criterion(8, 1.0, "fluid balances close except the recorded mumu gap"):
        for m, q in PAIRS:
            p = BlackHoleParams(m, q)
            floor = 1.0 / (m * m)
            for r in interior_grid(p, 16):
                rep = fluid_report(p, r)
                w = warp_state(p, r)
                scale_angular = max(q * q / w.f2 ** 2, 1.0)
                scale_time = max(q * q / w.f2 ** 4, floor)
                assert abs(rep.residuals.nunu) <= 1e-10 * scale_time
                assert abs(rep.residuals.thth) <= 1e-10 * scale_angular
                assert abs(rep.residuals.phph) <= 1e-10 * scale_angular
                gap = q * q / w.f2 ** 4 * (1.0 - w.f1 ** 2)
                assert abs(rep.residuals.mumu - gap) <= 1e-10 * max(scale_time, abs(gap))


def test_criterion_9_closed_form_discrepancy_record():
    with criterion(9, 1.0, "plain closed form disagrees by 2pi/3 - pi/2; sqrt variant matches"):
        p = BlackHoleParams(1.0, 0.6)
        quad = mu_of_r(p, 1.0)
        assert abs((mu_closed_form(p, 1.0) - quad) - (2.0 * math.pi / 3.0 - PI_2)) <= 1e-6
        assert abs(mu_closed_form_sqrt(p, 1.0) - quad) <= 1e-8
        report = run_verification(p, grid_points=8)
        note = next(n for n in report.notes if "plain-ratio" in n)
        assert "quadrature" in note and "square-root" in note


def test_criterion_10_cli_determinism_and_exit_codes(capsys, monkeypatch):
    with criterion(10, 5.0, "byte-identical CSV reruns; exit codes 0/1/2"):
        args = ["curvature", "--mass", "1", "--charge", "0.6", "--grid", "24"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "\r" not in first

        # exit 0: the three verify examples
        for charge in ("0.6", "0", "0.999999"):
            assert cli.main(["verify", "--mass", "1", "--charge", charge,
                             "--grid", "8"]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["overall_pass"] is True
            if charge == "0.999999":
                assert any("near-extremal" in n for n in out["notes"])

        # exit 2: domain error
        assert cli.main(["verify", "--mass", "1", "--charge", "1.5"]) == 2
        capsys.readouterr()

        # exit 1: a failing check propagates
        failing = VerifyReport([CheckResult("synthetic", 1.0, 0.5, False, 1.0)])
        monkeypatch.setattr(cli.verify, "run_verification", lambda *a, **k: failing)
        assert cli.main(["verify", "--mass", "1", "--charge", "0.6"]) == 1
        capsys.readouterr()
