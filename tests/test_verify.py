import dataclasses
import math
import random
import sys

import numpy as np
import pytest

from rnwarp import calculus, cli, fluid, oracle, verify, warped
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
    good = CheckResult("a", 0.0, 1.0, True, None)
    bad = CheckResult("b", 2.0, 1.0, False, 0.5)
    assert VerifyReport([good]).overall
    assert not VerifyReport([good, bad]).overall
    assert VerifyReport([]).overall


def test_report_serialization():
    # the row format leaves out where the worst residual lies
    rep = VerifyReport([CheckResult("a", 0.5, 1.0, True, 0.25)], notes=["n"])
    d = rep.to_dict()
    assert d["overall_pass"] is True
    assert d["checks"][0] == {"name": "a", "max_abs_residual": 0.5,
                              "threshold": 1.0, "pass": True}
    assert list(d["checks"][0]) == list(verify.VERIFY_COLUMNS)
    assert rep.rows() == [("a", 0.5, 1.0, True)]
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


@pytest.mark.parametrize("mass", [1e-8, 0.238, 5.0])
def test_near_extremal_keeps_every_pinned_threshold(mass):
    # the quadrature mu is within a few ulps of m*pi next to extremality
    # too, so no threshold or tolerance is relaxed there. The round trip's
    # residual is the Kepler radius's rounding times dmu/dr ~ m/c
    rep = run_verification(BlackHoleParams(mass, mass * (1.0 - 5e-5)), grid_points=8)
    assert rep.overall, [c for c in rep.checks if not c.passed]
    checks = {c.name: c for c in rep.checks}
    assert {name: c.threshold for name, c in checks.items()} == \
        {name: THRESHOLDS[name] for name in checks}
    assert checks["roundtrip_inverse"].max_abs_residual <= 1e-12
    assert checks["mu_at_outer_horizon"].max_abs_residual <= 4 * math.ulp(mass * math.pi)


def test_every_check_carries_its_pinned_threshold(charged):
    rep = run_verification(charged, grid_points=8)
    for c in rep.checks:
        assert c.threshold == THRESHOLDS[c.name]


def test_threshold_override_can_fail(charged, monkeypatch):
    monkeypatch.setitem(THRESHOLDS, "closed_vs_oracle_ricci", 1e-30)
    rep = run_verification(charged, grid_points=8)
    assert not rep.overall
    failing, = [c for c in rep.checks if not c.passed]
    assert failing.name == "closed_vs_oracle_ricci" and failing.threshold == 1e-30
    assert failing.worst_at in rn.interior_grid(charged, 8)


def test_each_check_records_where_its_worst_residual_lies(charged):
    # a grid check's at the grid's r, the round trip's at a mu sample, and
    # the two with no point axis at none
    rep = run_verification(charged, grid_points=8)
    grid = rn.interior_grid(charged, 8)
    mu_samples = (charged.mass * math.pi * verify._ROUNDTRIP_FRACTIONS).tolist()
    at = {c.name: c.worst_at for c in rep.checks}
    assert at.pop("horizon_vieta") is None and at.pop("mu_at_outer_horizon") is None
    assert at.pop("roundtrip_inverse") in mu_samples
    assert all(r in grid for r in at.values()), at


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
    note, = [n for n in rep.notes if "near-extremal" in n]
    assert "relaxed" not in note


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
    # one quadrature mu per grid point shared by every check, one for the
    # outer horizon and one per round-trip sample, plus the row of F(m),
    # which every row above m adds to: 64 + 1 + 100 + 1 rows, all in one
    # batched call. The round trip inverts with the Kepler inverse, so verify runs no
    # root search (273 quadratures when it checked the quadrature's own root
    # search)
    rows, roots, pairs, calls = [], [0], [0], [0]
    quad, r_of_mu, find_root = (calculus.integrate_endpoint_singular, rn.r_of_mu,
                                calculus.find_root_bracketed)

    def counted_quad(f, lo, hi, *args, **kwargs):
        rows.append(len(hi))

        def counted_f(a, b):
            pairs[0] += len(a)
            calls[0] += 1
            return f(a, b)

        return quad(counted_f, lo, hi, *args, **kwargs)

    def counted_root(fn):
        def wrapper(*args, **kwargs):
            roots[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(calculus, "integrate_endpoint_singular", counted_quad)
    monkeypatch.setattr(rn, "r_of_mu", counted_root(r_of_mu))
    monkeypatch.setattr(calculus, "find_root_bracketed", counted_root(find_root))
    assert run_verification(BlackHoleParams(1.0, 0.6), 64).overall
    assert rows == [166]
    assert roots == [0]
    # one call of f: 32 nodes (20 + 12) for each of the 166 rows (17181
    # distance pairs in 5 calls of tanh-sinh levels before)
    assert pairs[0] == 166 * 32
    assert calls[0] == 1


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


# numpy's and dataclasses' Python-level wrappers kept off the per-op path:
# each has a ufunc, an ndarray method or a preallocated array in its place
PER_OP_WRAPPERS = [(np, "broadcast_arrays"), (np, "broadcast_to"), (np, "column_stack"),
                   (np, "max"), (np, "amax"), (dataclasses, "replace")]


def test_each_op_forms_the_grid_state_once_without_python_level_wrappers(
        charged, monkeypatch, capsys):
    calls = []

    def counted(name):
        original = getattr(rn, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    for name in ("lapse_squared", "_forward_angle"):
        monkeypatch.setattr(rn, name, counted(name))

    def refused(*args, **kwargs):
        raise AssertionError("a Python-level wrapper on the per-op path")

    # every binding of each wrapper: the module's own and any imported by name
    modules = [np, dataclasses] + [m for key, m in sys.modules.items()
                                   if key == "rnwarp" or key.startswith("rnwarp.")]
    for owner, name in PER_OP_WRAPPERS:
        wrapped = getattr(owner, name)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is wrapped:
                    monkeypatch.setattr(module, attr, refused)

    rep = run_verification(charged, grid_points=64)
    assert sorted(calls) == ["_forward_angle", "lapse_squared"]
    assert rep.overall
    oracle.ricci_at(rn.warped_chart(charged), [1.0, 0.0, PI_2, 0.0])
    assert cli.main(["curvature", "--mass", "1", "--charge", "0.6"]) == 0
    assert capsys.readouterr().out.startswith("r,mu,")


def test_a_singular_chart_metric_is_an_error_not_a_skip(charged, monkeypatch):
    def singular(g):
        raise SingularMetricError("row-normalized metric determinant 0.0 below pivot floor", 0)

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


# (where the value goes; the function whose output carries it, the call of
# that function in the run, the array of that output that takes it and the
# index there; the check that must raise or fail)
INJECTIONS = [
    ("warp state f1''", (rn, "_warp_state", 0, lambda w: w.f1pp, 3), "warp_identities"),
    ("closed-form R_nunu", (rn, "_ricci_closed_form", 0, lambda rd: rd.r_nunu, 3),
     "closed_vs_warped_ricci"),
    ("warp-formula R_thth", (warped, "ricci_from_warps", 0, lambda rd: rd.r_thth, 3),
     "closed_vs_warped_ricci"),
    ("warp-formula scalar", (warped, "ricci_from_warps", 0, lambda rd: rd.scalar, 3),
     "scalar_closed_and_warped"),
    ("warped-chart oracle R_nunu", (oracle, "ricci_at", 0, lambda cp: cp.ricci, (3, 1, 1)),
     "closed_vs_oracle_ricci"),
    ("static-chart oracle R_tt", (oracle, "ricci_at", 1, lambda cp: cp.ricci, (3, 0, 0)),
     "chart_covariance"),
    ("warped-chart oracle scalar", (oracle, "ricci_at", 0, lambda cp: cp.scalar, 3),
     "scalar_oracle"),
    ("static-chart oracle scalar", (oracle, "ricci_at", 1, lambda cp: cp.scalar, 3),
     "scalar_oracle"),
    ("warped-chart oracle R_mu_nu", (oracle, "ricci_at", 0, lambda cp: cp.ricci, (3, 0, 1)),
     "oracle_off_diagonal"),
    ("static-chart oracle R_theta_phi", (oracle, "ricci_at", 1, lambda cp: cp.ricci, (3, 2, 3)),
     "oracle_off_diagonal"),
    ("off-diagonal weight", (verify, "_weighted_off_diagonal", 0, lambda norm: norm, 3),
     "oracle_off_diagonal"),
    # the quadrature's rows: the 8 grid points, r_plus, then the round trip
    ("quadrature mu at r_plus", (rn, "mu_of_r", 0, lambda mu: mu, 8), "mu_at_outer_horizon"),
    ("quadrature mu of a round-trip sample", (rn, "mu_of_r", 0, lambda mu: mu, 50),
     "roundtrip_inverse"),
    ("fluid balance mumu", (fluid, "fluid_balance", 0, lambda out: out[2].mumu, 3),
     "fluid_mumu_gap_identity"),
] + [
    (f"fluid balance {term}",
     (fluid, "fluid_balance", 0, lambda out, term=term: getattr(out[2], term), 3),
     "fluid_residuals")
    for term in ("nunu", "thth", "phph")
]


def _with_value(module, name: str, call: int, get, index, value):
    """module.name, with value put at get(output)[index] of the given call."""
    original, calls = getattr(module, name), []

    def wrapper(*args):
        out = original(*args)
        if len(calls) == call:
            get(out)[index] = value
        calls.append(name)
        return out

    return wrapper


def test_a_nan_in_any_entry_fails_its_check(charged, monkeypatch):
    # a NaN in one entry of any check's input makes that check's residual
    # NaN, and the check raises: no reduction may drop the NaN, as the
    # builtin max(1.0, nan) would
    for label, injection, check in INJECTIONS:
        with monkeypatch.context() as patch:
            patch.setattr(injection[0], injection[1], _with_value(*injection, math.nan))
            try:
                run_verification(charged, grid_points=8)
            except ArithmeticError as exc:
                assert str(exc).startswith(f"check {check} has a non-finite residual nan"), \
                    (label, str(exc))
            else:
                pytest.fail(f"a NaN in the {label} raised nothing")


def test_a_large_entry_fails_its_check_where_it_lies(charged, monkeypatch):
    # the same entries set to a large finite value: the check fails, and it
    # and every other check the entry reaches record its point as their worst
    grid = rn.interior_grid(charged, 8)
    mu_samples = charged.mass * math.pi * verify._ROUNDTRIP_FRACTIONS
    for label, injection, check in INJECTIONS:
        # the fourth grid point's r, but r_plus's mu lies on no point axis,
        # and the quadrature's row 50 is the round trip's mu sample 41
        where = {"quadrature mu at r_plus": None,
                 "quadrature mu of a round-trip sample": float(mu_samples[41])}.get(label, grid[3])
        with monkeypatch.context() as patch:
            patch.setattr(injection[0], injection[1], _with_value(*injection, 1e3))
            rep = run_verification(charged, grid_points=8)
        failing = {c.name: c.worst_at for c in rep.checks if not c.passed}
        assert check in failing, (label, failing)
        assert set(failing.values()) == {where}, (label, failing)


def test_a_nan_in_the_grids_quadrature_mu_fails_the_closed_form_check(charged, monkeypatch):
    # the warped chart's oracle points carry the same mu, and its domain
    # check would refuse a NaN first; here the oracle gets the number
    mu_of_r, ricci_at, kept = rn.mu_of_r, oracle.ricci_at, []

    def nan_at_the_fourth_grid_point(p, r):
        mu = mu_of_r(p, r)
        kept.append(mu[3])
        mu[3] = math.nan
        return mu

    def oracle_at_the_number(mf, x):
        return ricci_at(mf, np.where(np.isnan(x), kept[0], x))

    monkeypatch.setattr(rn, "mu_of_r", nan_at_the_fourth_grid_point)
    monkeypatch.setattr(oracle, "ricci_at", oracle_at_the_number)
    with pytest.raises(ArithmeticError, match="check closed_form_sqrt_vs_quadrature"):
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
