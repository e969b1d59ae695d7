import math
import random

import pytest

from rnwarp import calculus, oracle, verify, warped
from rnwarp import reissner_nordstrom as rn
from rnwarp.errors import SingularMetricError
from rnwarp.reissner_nordstrom import BlackHoleParams
from rnwarp.verify import THRESHOLDS, CheckResult, VerifyReport, run_verification

PI_2 = 0.5 * math.pi


def test_overall_is_conjunction():
    good = CheckResult("a", 0.0, 1.0, True)
    bad = CheckResult("b", 2.0, 1.0, False)
    assert VerifyReport([good]).overall
    assert not VerifyReport([good, bad]).overall
    assert VerifyReport([]).overall


def test_report_serialization():
    rep = VerifyReport([CheckResult("a", 0.5, 1.0, True)], notes=["n"])
    d = rep.to_dict()
    assert d["overall_pass"] is True
    assert d["checks"][0] == {"name": "a", "max_abs_residual": 0.5,
                              "threshold": 1.0, "pass": True}
    assert d["notes"] == ["n"]


def test_charged_configuration_passes(charged):
    rep = run_verification(charged, grid_points=12)
    assert rep.overall, [c for c in rep.checks if not c.passed]
    names = {c.name for c in rep.checks}
    assert "closed_vs_oracle_ricci" in names
    assert "chart_covariance" in names
    assert len(rep.notes) == 2  # both documented discrepancies, always present


def test_schwarzschild_adds_flatness_check(schwarzschild):
    rep = run_verification(schwarzschild, grid_points=12)
    assert rep.overall, [c for c in rep.checks if not c.passed]
    flat = {c.name: c for c in rep.checks}["schwarzschild_flatness"]
    assert flat.max_abs_residual <= 1e-8


@pytest.mark.parametrize("mass", [1e-3, 1.0, 1e3])
def test_schwarzschild_flatness_is_in_curvature_units(mass):
    # each warped Ricci component over its metric weight in m^-2, as in
    # closed_vs_warped_ricci: the same small number at every mass
    p = BlackHoleParams(mass, 0.0)
    rep = run_verification(p, grid_points=8)
    states = [rn.warp_state(p, r) for r in rn.interior_grid(p, 8)]
    want = max(abs(v) / f for w in states
               for v, f in zip(verify._diagonal(warped.ricci_from_warps(w, PI_2)),
                               verify._component_floors(w, PI_2, mass)))
    flat = {c.name: c for c in rep.checks}["schwarzschild_flatness"]
    assert flat.max_abs_residual == want
    assert flat.max_abs_residual <= 1e-12


@pytest.mark.parametrize("mass, charge", [(1.0, 0.6), (2.5, 1.5)])
def test_scalar_closed_and_warped_is_the_warp_formulas_scalar(mass, charge):
    # the closed-form scalar is 0 by construction and adds nothing
    p = BlackHoleParams(mass, charge)
    rep = run_verification(p, grid_points=8)
    want = max(mass * mass * abs(warped.ricci_from_warps(rn.warp_state(p, r), PI_2).scalar)
               for r in rn.interior_grid(p, 8))
    check = {c.name: c for c in rep.checks}["scalar_closed_and_warped"]
    assert check.max_abs_residual == want


@pytest.mark.parametrize("mass", [0.238, 5.0])
def test_near_extremal_roundtrip_threshold_is_the_same_at_every_mass(mass):
    # the residual is in units of m*pi, so its relaxation is too: 2*pi
    # times the relaxed abs_tol 2e-8*m, over m*pi
    rep = run_verification(BlackHoleParams(mass, mass * (1.0 - 5e-5)), grid_points=8)
    check = {c.name: c for c in rep.checks}["roundtrip_inverse"]
    assert check.threshold == pytest.approx(4e-8, rel=1e-15)
    assert check.passed


def test_every_check_carries_its_pinned_threshold(charged):
    rep = run_verification(charged, grid_points=8)
    for c in rep.checks:
        assert c.threshold == THRESHOLDS[c.name]


def test_threshold_override_can_fail(charged, monkeypatch):
    monkeypatch.setitem(THRESHOLDS, "closed_vs_oracle_ricci", 1e-30)
    rep = run_verification(charged, grid_points=8)
    assert not rep.overall
    assert [c.name for c in rep.checks if not c.passed] == ["closed_vs_oracle_ricci"]


def test_near_extremal_skips_oracle_and_warns():
    rep = run_verification(BlackHoleParams(1.0, 0.999999), grid_points=8)
    assert rep.overall, [c for c in rep.checks if not c.passed]
    names = {c.name for c in rep.checks}
    assert "closed_vs_oracle_ricci" not in names
    assert "chart_covariance" not in names
    assert any("near-extremal" in n for n in rep.notes)
    assert any("oracle checks skipped" in n for n in rep.notes)


def test_ill_conditioned_chart_skips_oracle_and_warns():
    # a small-mass Schwarzschild grid drives the static-chart determinant
    # under the unit-dependent pivot floor
    rep = run_verification(BlackHoleParams(0.1, 0.0), grid_points=8)
    assert rep.overall, [c for c in rep.checks if not c.passed]
    assert "closed_vs_oracle_ricci" not in {c.name for c in rep.checks}
    assert any("pivot floor" in n for n in rep.notes)


def test_notes_carry_both_closed_form_numbers(charged):
    rep = run_verification(charged, grid_points=8)
    note = next(n for n in rep.notes if "plain-ratio" in n)
    assert "quadrature" in note and "square-root" in note


def test_oracle_runs_where_the_pivot_floor_holds():
    # oracle.invert4's own floor decides: at this small mass the
    # static-chart determinant clears it, so the oracle checks run
    rep = run_verification(BlackHoleParams(0.24542557893639622, 0.0238814758126807),
                           grid_points=8)
    assert rep.overall, [c for c in rep.checks if not c.passed]
    assert "oracle_off_diagonal" in {c.name for c in rep.checks}
    assert not any("pivot floor" in n for n in rep.notes)


def test_reference_verify_quadrature_budget(monkeypatch):
    # one quadrature mu per grid point shared by every check, the outer
    # horizon, and one per round-trip sample: 64 + 1 + 100. The round trip
    # inverts with the Kepler inverse, so verify runs no root search
    # (273 quadratures when it checked the quadrature's own root search)
    counts = {"quad": 0, "root": 0}
    quad, r_of_mu, find_root = (calculus.integrate_endpoint_singular, rn.r_of_mu,
                                calculus.find_root_bracketed)

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(calculus, "integrate_endpoint_singular", counted("quad", quad))
    monkeypatch.setattr(rn, "r_of_mu", counted("root", r_of_mu))
    monkeypatch.setattr(calculus, "find_root_bracketed", counted("root", find_root))
    assert run_verification(BlackHoleParams(1.0, 0.6), 64).overall
    assert counts["quad"] <= 170
    assert counts["root"] == 0


def test_roundtrip_inverse_is_the_kepler_inverse_against_the_quadrature(charged):
    rep = run_verification(charged, grid_points=8)
    rng = random.Random(verify._ROUNDTRIP_SEED)
    mu_max = charged.mass * math.pi
    worst = 0.0
    for _ in range(verify._ROUNDTRIP_SAMPLES):
        mu0 = mu_max * rng.uniform(0.01, 0.99)
        worst = max(worst, abs(rn.mu_of_r(charged, rn._kepler_inverse(charged, mu0)) - mu0))
    check = {c.name: c for c in rep.checks}["roundtrip_inverse"]
    assert check.max_abs_residual == worst / mu_max
    assert 0.0 < check.max_abs_residual <= THRESHOLDS["roundtrip_inverse"]


def test_pivot_floor_mid_grid_skips_the_oracle(charged, monkeypatch):
    # the oracle's own pivot check decides the skip, wherever on the grid
    # it fires; the algebraic checks still run and nothing raises
    calls = [0]
    invert4 = oracle.invert4

    def failing_mid_grid(g):
        calls[0] += 1
        if calls[0] == 7:
            raise SingularMetricError("metric determinant below pivot floor")
        return invert4(g)

    monkeypatch.setattr(oracle, "invert4", failing_mid_grid)
    rep = run_verification(charged, grid_points=8)
    assert calls[0] == 7
    names = {c.name for c in rep.checks}
    assert not names & set(verify._ORACLE_CHECKS)
    assert {"closed_vs_warped_ricci", "scalar_closed_and_warped"} <= names
    assert any("pivot floor" in n for n in rep.notes)
    assert rep.overall


def test_steep_round_trip_no_longer_drives_the_quadrature_into_the_horizon():
    # Brent over the whole interior asked for mu next to a horizon, where
    # the quadrature raised ConvergenceError
    m = 5.072915140196658
    rep = run_verification(BlackHoleParams(m, m * 0.999499544920172), 64)
    assert rep.overall, [c for c in rep.checks if not c.passed]


def test_check_order(charged):
    rep = run_verification(charged, grid_points=8)
    assert [c.name for c in rep.checks] == [
        "horizon_vieta", "mu_at_outer_horizon", "warp_identities",
        "closed_vs_warped_ricci", "scalar_closed_and_warped", "closed_vs_oracle_ricci",
        "chart_covariance", "scalar_oracle", "oracle_off_diagonal", "roundtrip_inverse",
        "fluid_residuals", "fluid_mumu_gap_identity", "closed_form_sqrt_vs_quadrature"]
