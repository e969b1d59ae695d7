import math
import random

import numpy as np
import pytest

from rnwarp import calculus, oracle, verify, warped
from rnwarp import reissner_nordstrom as rn
from rnwarp.errors import SingularMetricError
from rnwarp.reissner_nordstrom import BlackHoleParams
from rnwarp.verify import THRESHOLDS, CheckResult, VerifyReport, run_verification

PI_2 = 0.5 * math.pi
ORACLE_CHECKS = ("closed_vs_oracle_ricci", "chart_covariance", "scalar_oracle",
                 "oracle_off_diagonal")


def _diagonal(rd):
    return (rd.r_mumu, rd.r_nunu, rd.r_thth, rd.r_phph)


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
               for v, f in zip(_diagonal(warped.ricci_from_warps(w, PI_2)),
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


def _oracle_checks_pass(rep):
    checks = {c.name: c for c in rep.checks}
    assert set(ORACLE_CHECKS) <= set(checks)
    for name in ORACLE_CHECKS:
        assert checks[name].passed, checks[name]
    assert not any("skipped" in n for n in rep.notes)


def test_near_extremal_runs_the_oracle_and_warns():
    rep = run_verification(BlackHoleParams(1.0, 0.999999), grid_points=8)
    assert rep.overall, [c for c in rep.checks if not c.passed]
    _oracle_checks_pass(rep)
    assert any("near-extremal" in n for n in rep.notes)


def test_small_mass_schwarzschild_runs_the_oracle():
    # the static-chart metric spans 1/N^2 up to r^2; the row-normalized
    # pivot check does not depend on the unit that makes them small
    rep = run_verification(BlackHoleParams(0.1, 0.0), grid_points=8)
    assert rep.overall, [c for c in rep.checks if not c.passed]
    _oracle_checks_pass(rep)


def test_notes_carry_both_closed_form_numbers(charged):
    rep = run_verification(charged, grid_points=8)
    note = next(n for n in rep.notes if "plain-ratio" in n)
    assert "quadrature" in note and "square-root" in note


def test_oracle_runs_at_a_small_charged_mass():
    rep = run_verification(BlackHoleParams(0.24542557893639622, 0.0238814758126807),
                           grid_points=8)
    assert rep.overall, [c for c in rep.checks if not c.passed]
    _oracle_checks_pass(rep)


@pytest.mark.parametrize("mass, ratio", [(1e-8, 0.6), (1e8, 0.3), (10.0, 0.98),
                                         (1.0, 1.0 - 1e-8)])
def test_oracle_checks_pass_at_every_mass_and_charge(mass, ratio):
    # other checks may fail at these masses (ROADMAP item 3); the oracle's do not
    _oracle_checks_pass(run_verification(BlackHoleParams(mass, mass * ratio), grid_points=16))


def test_reference_verify_quadrature_budget(monkeypatch):
    # one quadrature mu per grid point shared by every check, the outer
    # horizon, and one per round-trip sample: 64 + 1 + 100 rows, all in
    # one batched call. The round trip inverts with the Kepler inverse, so
    # verify runs no root search (273 quadratures when it checked the
    # quadrature's own root search)
    rows, roots, abscissas, levels = [], [0], [0], [0]
    quad, r_of_mu, find_root = (calculus.integrate_endpoint_singular, rn.r_of_mu,
                                calculus.find_root_bracketed)
    level_nodes = calculus._level_nodes

    def counted_quad(f, lo, hi, singular_hi, tol=calculus.DEFAULT_TOL):
        rows.append(len(hi))

        def counted_f(x):
            abscissas[0] += len(x)
            return f(x)

        return quad(counted_f, lo, hi, singular_hi, tol)

    def counted_level(level):
        levels[0] = max(levels[0], level + 1)
        return level_nodes(level)

    def counted_root(fn):
        def wrapper(*args, **kwargs):
            roots[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(calculus, "integrate_endpoint_singular", counted_quad)
    monkeypatch.setattr(rn, "r_of_mu", counted_root(r_of_mu))
    monkeypatch.setattr(calculus, "find_root_bracketed", counted_root(find_root))
    monkeypatch.setattr(calculus, "_level_nodes", counted_level)
    assert run_verification(BlackHoleParams(1.0, 0.6), 64).overall
    assert rows == [165]
    assert roots == [0]
    # only the outer-horizon row is walled at its upper end: 15808
    # abscissas in 6 levels (22358 in 7 when every upper end was walled)
    assert abscissas[0] <= 16000
    assert levels[0] <= 6


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


def test_tiny_guard_runs_the_oracle(charged):
    # grid ends 1e-6 of the horizon gap from each horizon
    rep = run_verification(charged, grid_points=16, guard_fraction=1e-6)
    assert rep.overall, [c for c in rep.checks if not c.passed]
    _oracle_checks_pass(rep)


def test_oracle_inverts_each_chart_grid_in_one_call(charged, monkeypatch):
    # the oracle takes each chart's whole grid in one metric call, so one
    # invert4 call per chart; all four oracle checks run and pass
    calls = []
    invert4 = oracle.invert4

    def counted(g):
        calls.append(g.shape)
        return invert4(g)

    monkeypatch.setattr(oracle, "invert4", counted)
    rep = run_verification(charged, grid_points=64)
    assert calls == [(64, 4, 4), (64, 4, 4)]
    assert rep.overall
    _oracle_checks_pass(rep)


def test_a_singular_chart_metric_is_an_error_not_a_skip(charged, monkeypatch):
    def singular(g):
        raise SingularMetricError("row-normalized metric determinant 0.0 below pivot floor")

    monkeypatch.setattr(oracle, "invert4", singular)
    with pytest.raises(SingularMetricError):
        run_verification(charged, grid_points=8)


def test_steep_round_trip_no_longer_drives_the_quadrature_into_the_horizon():
    # Brent over the whole interior asked for mu next to a horizon, where
    # the quadrature raised ConvergenceError
    m = 5.072915140196658
    rep = run_verification(BlackHoleParams(m, m * 0.999499544920172), 64)
    assert rep.overall, [c for c in rep.checks if not c.passed]


@pytest.mark.parametrize("mass, charge", [
    (10.0, 9.9), (1.0, 1.0 - 1e-8), (1.0, 1.0 - 1e-10), (1.0, 1.0 - 1e-12),
    (0.1428, 0.1428 * (1.0 - 5.4e-9)), (1.0, 0.9999999), (5.0, 4.9999995)])
def test_passes_where_a_walled_regular_end_failed(mass, charge):
    # with the regular upper end r walled like a horizon, each of these
    # failed (roundtrip_inverse up to 54x) or raised ConvergenceError
    rep = run_verification(BlackHoleParams(mass, charge), 64)
    assert rep.overall, [c for c in rep.checks if not c.passed]


@pytest.mark.parametrize("theta", [1e-160, 1e-150])
def test_a_non_finite_residual_raises_naming_the_check(charged, theta):
    # this close to the axis the oracle's Ricci tensor is inf and NaN;
    # a residual that is no number must not read as 0 and pass
    with np.errstate(all="ignore"), pytest.raises(
            ArithmeticError, match="check closed_vs_oracle_ricci has a non-finite residual nan"):
        run_verification(charged, grid_points=64, theta=theta)


def test_a_nan_in_any_entry_fails_its_check(charged, monkeypatch):
    norm = verify._weighted_off_diagonal

    def one_nan(*args):
        out = norm(*args)
        out[3] = math.nan
        return out

    monkeypatch.setattr(verify, "_weighted_off_diagonal", one_nan)
    with pytest.raises(ArithmeticError, match="check oracle_off_diagonal"):
        run_verification(charged, grid_points=8)


def diagonal_subtracted_norm(ricci, g, m):
    """The off-diagonal weight as ricci minus a copy of its diagonal: the reference."""
    root = np.sqrt(np.abs(np.diagonal(g, axis1=-2, axis2=-1)))
    diagonal = np.zeros_like(ricci)
    diagonal[..., range(4), range(4)] = np.diagonal(ricci, axis1=-2, axis2=-1)
    return m * m * np.max(np.abs(ricci - diagonal) / (root[..., :, None] * root[..., None, :]),
                          axis=(-2, -1))


def test_off_diagonal_weight_is_the_diagonal_subtraction_bit_for_bit(charged):
    # signed zeros, infinities and NaNs (of either sign) on and off the
    # diagonal, and zero weights, at one point and at batches
    rng = np.random.default_rng(7)
    specials = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -1e308])
    for k in range(400):
        shape = (4, 4) if k % 2 else (3, 4, 4)
        ricci, g = (rng.normal(size=shape) * 10.0 ** rng.integers(-150, 150, size=shape)
                    for _ in range(2))
        for a in (ricci, g):
            mask = rng.random(shape) < 0.2
            a[mask] = rng.choice(specials, size=int(mask.sum()))
        with np.errstate(all="ignore"):
            want = diagonal_subtracted_norm(ricci, g, 0.3)
            got = verify._weighted_off_diagonal(ricci, g, 0.3)
        assert np.asarray(got).tobytes() == want.tobytes()
    # and on the oracle's own output
    cw = oracle.ricci_at(rn.warped_chart(charged), [[1.0, 0.0, 1.2, 0.0], [2.0, 0.0, 0.4, 0.0]])
    assert verify._weighted_off_diagonal(cw.ricci, cw.metric, 1.0).tobytes() == \
        diagonal_subtracted_norm(cw.ricci, cw.metric, 1.0).tobytes()


def test_check_order(charged):
    rep = run_verification(charged, grid_points=8)
    assert [c.name for c in rep.checks] == [
        "horizon_vieta", "mu_at_outer_horizon", "warp_identities",
        "closed_vs_warped_ricci", "scalar_closed_and_warped", "closed_vs_oracle_ricci",
        "chart_covariance", "scalar_oracle", "oracle_off_diagonal", "roundtrip_inverse",
        "fluid_residuals", "fluid_mumu_gap_identity", "closed_form_sqrt_vs_quadrature"]
