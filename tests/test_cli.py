import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rnwarp import calculus, cli
from rnwarp import reissner_nordstrom as rn
from rnwarp.verify import CheckResult, VerifyReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestHorizons:
    def test_charged(self, capsys):
        code, out, _ = run(capsys, "horizons", "--mass", "1", "--charge", "0.6")
        assert code == 0
        rec = json.loads(out)
        assert rec["r_plus"] == pytest.approx(1.8)
        assert rec["r_minus"] == pytest.approx(0.2)
        assert rec["extremal_margin"] == pytest.approx(0.64)

    def test_schwarzschild(self, capsys):
        code, out, _ = run(capsys, "horizons", "--mass", "1", "--charge", "0")
        rec = json.loads(out)
        assert (code, rec["r_plus"], rec["r_minus"]) == (0, 2.0, 0.0)

    def test_naked_singularity_exits_2(self, capsys):
        code, _, err = run(capsys, "horizons", "--mass", "1", "--charge", "1.5")
        assert code == 2
        assert "error" in err

    def test_negative_charge_uses_magnitude(self, capsys):
        _, out_pos, _ = run(capsys, "horizons", "--mass", "1", "--charge", "0.6")
        _, out_neg, _ = run(capsys, "horizons", "--mass", "1", "--charge", "-0.6")
        assert out_pos == out_neg

    @pytest.mark.parametrize("mass, charge", [("inf", "0"), ("1", "nan")])
    def test_nonfinite_input_exits_2(self, capsys, mass, charge):
        code, out, err = run(capsys, "horizons", "--mass", mass, "--charge", charge)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("mass, charge", [("1e300", "0"), ("1e300", "1e299")])
    def test_overflowing_mass_exits_2(self, capsys, mass, charge):
        code, out, err = run(capsys, "horizons", "--mass", mass, "--charge", charge)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "overflow" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["horizons", "verify"])
    def test_underflowing_mass_exits_2(self, capsys, command):
        # m^2 rounds to 0: the horizons would coincide
        code, out, err = run(capsys, command, "--mass", "1e-200", "--charge", "0")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "underflow" in err and err.count("\n") == 1

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "horizons", "--mass", "1", "--charge", "0.6",
                           "--format", "csv")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "r_plus,r_minus,extremal_margin"


class TestTransform:
    def test_r_to_mu(self, capsys):
        code, out, _ = run(capsys, "transform", "--mass", "1", "--charge", "0.6",
                           "--r", "1")
        rec = json.loads(out)
        assert code == 0
        assert rec["mu"] == pytest.approx(0.7707963267948966, abs=1e-9)
        assert rec["mu_closed_form"] == pytest.approx(1.2943951023931953, abs=1e-12)
        assert rec["mu_closed_form_sqrt"] == pytest.approx(0.7707963267948966, abs=1e-12)

    def test_mu_to_r(self, capsys):
        code, out, _ = run(capsys, "transform", "--mass", "1", "--charge", "0.6",
                           "--mu", "0.7707963267948966")
        rec = json.loads(out)
        assert code == 0
        assert rec["r"] == pytest.approx(1.0, abs=1e-8)

    def test_near_inner_horizon_mu_vanishes(self, capsys):
        code, out, _ = run(capsys, "transform", "--mass", "1", "--charge", "0.6",
                           "--r", "0.2000001")
        rec = json.loads(out)
        assert code == 0
        assert abs(rec["mu"]) < 1e-2

    def test_both_coordinates_rejected(self, capsys):
        code, _, err = run(capsys, "transform", "--mass", "1", "--charge", "0.6",
                           "--r", "1", "--mu", "0.5")
        assert code == 2

    def test_neither_coordinate_rejected(self, capsys):
        code, _, _ = run(capsys, "transform", "--mass", "1", "--charge", "0.6")
        assert code == 2

    def test_out_of_domain_exits_2(self, capsys):
        code, _, err = run(capsys, "transform", "--mass", "1", "--charge", "0.6",
                           "--r", "5")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("r", ["0", "2"])
    def test_horizon_radius_exits_2(self, capsys, r):
        # the quadrature accepts the closed interior; transform takes interior points only
        code, out, err = run(capsys, "transform", "--mass", "1", "--charge", "0", "--r", r)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "open interior" in err

    def test_sqrt_closed_form_next_to_a_zero_inner_horizon(self, capsys):
        # 50-digit mpmath: m*phi - c*sin(phi) = 1.49071198499985974e-29 at r =
        # 1e-19; an arccos of a ratio next to 1 gives -4.47e-10 here
        code, out, _ = run(capsys, "transform", "--mass", "1", "--charge", "0", "--r", "1e-19")
        assert code == 0
        got = json.loads(out)["mu_closed_form_sqrt"]
        assert abs(got - 1.4907119849998597e-29) <= 1e-14 * 1.4907119849998597e-29

    @pytest.mark.parametrize("mu, r", [("1e-30", 1.6509636244473133e-20),
                                       ("1e-300", 1.6509636244473134e-200)])
    def test_tiny_mu_at_zero_charge(self, capsys, mu, r):
        # phi ~ 1.8e-10 and 1.8e-100: the Kepler guess takes the slope
        # r/m = 2*sin(phi/2)^2, where 1 - cos(phi) is 0; r is (6 mu)^(2/3)/2 to
        # 1e-20 relative. The root search accepts any r whose quadrature mu is
        # within abs_tol, so here the Kepler guess alone decides r
        code, out, err = run(capsys, "transform", "--mass", "1", "--charge", "0", "--mu", mu)
        assert (code, err) == (0, "")
        assert abs(json.loads(out)["r"] - r) <= 1e-9 * r

    def test_csv_record(self, capsys):
        code, out, _ = run(capsys, "transform", "--mass", "1", "--charge", "0.6",
                           "--r", "1", "--format", "csv")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "r,mu,mu_closed_form,mu_closed_form_sqrt"
        assert float(lines[1].split(",")[1]) == pytest.approx(0.7707963267948966, abs=1e-9)

    def test_loose_tolerance_flag(self, capsys):
        code, out, _ = run(capsys, "transform", "--mass", "1", "--charge", "0.6",
                           "--r", "1", "--tol", "1e-6")
        assert code == 0
        rec = json.loads(out)
        assert rec["mu"] == pytest.approx(0.7707963267948966, abs=1e-5)


class TestCurvature:
    def test_header_and_shape(self, capsys):
        code, out, _ = run(capsys, "curvature", "--mass", "1", "--charge", "0.6",
                           "--grid", "5")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "r,mu,f1,f2,R_mumu,R_nunu,R_thth,R_phph,scalar"
        assert len(lines) == 6

    def test_values_follow_closed_form(self, capsys):
        _, out, _ = run(capsys, "curvature", "--mass", "1", "--charge", "0.6",
                        "--grid", "5")
        for line in out.splitlines()[1:]:
            vals = dict(zip(cli.CURVATURE_COLUMNS, map(float, line.split(","))))
            q2 = 0.36
            assert vals["R_mumu"] == pytest.approx(q2 / vals["r"] ** 4, rel=1e-10)
            assert vals["R_thth"] == pytest.approx(q2 / vals["r"] ** 2, rel=1e-10)
            assert vals["R_phph"] == pytest.approx(vals["R_thth"], rel=1e-12)  # theta=pi/2
            assert abs(vals["scalar"]) <= 1e-8

    def test_schwarzschild_flat_columns(self, capsys):
        _, out, _ = run(capsys, "curvature", "--mass", "1", "--charge", "0",
                        "--grid", "4")
        for line in out.splitlines()[1:]:
            vals = dict(zip(cli.CURVATURE_COLUMNS, map(float, line.split(","))))
            for col in ("R_mumu", "R_nunu", "R_thth", "R_phph", "scalar"):
                assert abs(vals[col]) <= 1e-8

    def test_theta_flag(self, capsys):
        _, out, _ = run(capsys, "curvature", "--mass", "1", "--charge", "0.6",
                        "--grid", "3", "--theta", "0.6")
        row = dict(zip(cli.CURVATURE_COLUMNS, map(float, out.splitlines()[1].split(","))))
        assert row["R_phph"] == pytest.approx(row["R_thth"] * math.sin(0.6) ** 2, rel=1e-12)

    def test_json_round_trips(self, capsys):
        _, out_csv, _ = run(capsys, "curvature", "--mass", "1", "--charge", "0.6",
                            "--grid", "3")
        _, out_json, _ = run(capsys, "curvature", "--mass", "1", "--charge", "0.6",
                             "--grid", "3", "--format", "json")
        rows = json.loads(out_json)
        assert [r["R_mumu"] for r in rows] == [
            float(line.split(",")[4]) for line in out_csv.splitlines()[1:]]
        assert json.loads(json.dumps(rows)) == rows

    def test_byte_identical_reruns(self, capsys):
        args = ("curvature", "--mass", "1.25", "--charge", "0.75", "--grid", "16")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        assert first.endswith("\n") and "\r" not in first


class TestFluid:
    def test_header_and_values(self, capsys):
        code, out, _ = run(capsys, "fluid", "--mass", "1", "--charge", "0.6",
                           "--grid", "3")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "r,mu,rho,pressure,res_mumu,res_nunu,res_thth,res_phph"
        mid = dict(zip(cli.FLUID_COLUMNS, map(float, lines[2].split(","))))
        # the grid midpoint of (1, 0.6) sits at r = 1
        assert mid["r"] == pytest.approx(1.0, abs=1e-12)
        assert mid["rho"] == pytest.approx(9.167324722093171e-3, rel=1e-9)
        assert mid["pressure"] == pytest.approx(1.4323944878270581e-2, rel=1e-9)
        assert abs(mid["res_nunu"]) <= 1e-10

    def test_schwarzschild_vacuum_columns(self, capsys):
        _, out, _ = run(capsys, "fluid", "--mass", "1", "--charge", "0", "--grid", "3")
        for line in out.splitlines()[1:]:
            vals = list(map(float, line.split(",")))
            assert all(v == 0.0 for v in vals[2:])


def table(capsys, command, mass, charge, grid):
    """The rows of a curvature or fluid CSV table, as strings, after checking exit 0."""
    code, out, err = run(capsys, command, "--mass", repr(mass), "--charge", repr(charge),
                         "--grid", str(grid))
    assert (code, err) == (0, "")
    return [line.split(",") for line in out.splitlines()[1:]]


# Exact mu for the double inputs (m, Q, r) at grid-256 rows, rounded once to
# a double. Generated in 50-digit mpmath with
#
#     mp.mp.dps = 50
#     m, q, r = map(mp.mpf, (m, q, r))
#     rp, rm = m + mp.sqrt(m*m - q*q), m - mp.sqrt(m*m - q*q)
#     mu = 2*m*mp.acos(mp.sqrt((rp - r)/(rp - rm))) - mp.sqrt((rp - r)*(r - rm))
#
# and cross-checked against mp.quad of the defining integral (substituting
# x = rm + u^2) to 1e-49. Rows: (grid index, r, mu).
EXACT_MU = {
    (1.0, 0.6): [
        (0, 0.27999999999999997, 0.10231489631300852996),
        (1, 0.28564705882352937, 0.10682078694092399066),
        (128, 1.0028235294117647, 0.77433072860162107714),
        (254, 1.7143529411764704, 2.3144944883215298791),
        (255, 1.72, 2.3418539263102767091),
    ],
    (1.0, 0.0): [
        (0, 0.1, 0.015136917442195078594),
        (1, 0.10705882352941178, 0.016786114650006723149),
        (128, 1.0035294117647058, 0.57433197428024081061),
        (254, 1.8929411764705881, 2.2244598160306130344),
        (255, 1.9, 2.2546759474394630635),
    ],
    (0.3, 0.3 * (1 - 5e-5)): [
        (0, 0.29730003375021236, 0.13400039020185368077),
        (1, 0.29732120995609307, 0.13873733962868791252),
        (128, 0.30001058810294035, 0.46929777995132515631),
        (254, 0.3026787900439069, 0.80103945004273558437),
        (255, 0.3026999662497876, 0.80586209920090621459),
    ],
}


class TestTableMu:
    """The curvature and fluid tables take mu from the square-root closed form."""

    @pytest.mark.parametrize("mass, charge", [(1.0, 0.6), (1.0, 0.0), (2.5, 2.4)])
    def test_mu_column_is_the_closed_form(self, capsys, mass, charge):
        curv = table(capsys, "curvature", mass, charge, 16)
        flu = table(capsys, "fluid", mass, charge, 16)
        p = rn.BlackHoleParams(mass, charge)
        assert [row[1] for row in curv] == [
            repr(rn.mu_closed_form_sqrt(p, float(row[0]))) for row in curv]
        assert [row[:2] for row in flu] == [row[:2] for row in curv]

    @pytest.mark.parametrize("command", ["curvature", "fluid"])
    @pytest.mark.parametrize("charge", [0.6, 0.0])
    def test_no_quadrature(self, capsys, monkeypatch, command, charge):
        def refuse(*args, **kwargs):
            raise AssertionError("the tables ran a quadrature")

        monkeypatch.setattr(calculus, "integrate_endpoint_singular", refuse)
        with pytest.raises(AssertionError):  # the patch reaches the quadrature mu
            rn.mu_of_r(rn.BlackHoleParams(1.0, charge), 1.0)
        assert len(table(capsys, command, 1.0, charge, 8)) == 8

    @pytest.mark.parametrize("command", ["curvature", "fluid"])
    @pytest.mark.parametrize("charge", [0.999999999, 0.99999999999])
    def test_near_extremal(self, capsys, command, charge):
        # the quadrature mu does not converge at these gaps (1e-9, 1e-11 of m)
        rows = table(capsys, command, 1.0, charge, 64)
        assert len(rows) == 64
        assert all(math.isfinite(float(v)) for row in rows for v in row)

    def test_first_row_next_to_a_zero_inner_horizon(self, capsys):
        # r = 2e-12; 50-digit mpmath gives mu = 1.33333333333373329e-18, the
        # arccos of a ratio next to 1 gives 8.89e-11
        code, out, _ = run(capsys, "curvature", "--mass", "1", "--charge", "0",
                           "--guard", "1e-12", "--grid", "2")
        assert code == 0
        r, mu = map(float, out.splitlines()[1].split(",")[:2])
        assert r == 2e-12
        assert abs(mu - 1.3333333333337334e-18) <= 1e-14 * 1.3333333333337334e-18

    @pytest.mark.parametrize("mass, charge", list(EXACT_MU))
    def test_mu_against_exact(self, capsys, mass, charge):
        budget = (1e-12 if (mass - charge) / mass < 1e-4 else 1e-14) * mass
        rows = table(capsys, "curvature", mass, charge, 256)
        for i, r, mu in EXACT_MU[mass, charge]:
            assert float(rows[i][0]) == r
            assert abs(float(rows[i][1]) - mu) <= budget


class TestVerifyCommand:
    def test_charged_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--mass", "1", "--charge", "0.6",
                           "--grid", "8")
        assert code == 0
        rep = json.loads(out)
        assert rep["overall_pass"] is True
        assert {c["name"] for c in rep["checks"]} >= {
            "horizon_vieta", "closed_vs_warped_ricci", "closed_vs_oracle_ricci",
            "roundtrip_inverse", "fluid_residuals"}

    def test_schwarzschild_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--mass", "1", "--charge", "0",
                           "--grid", "8")
        assert code == 0
        assert json.loads(out)["overall_pass"] is True

    def test_near_extremal_warns_but_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--mass", "1", "--charge", "0.999999",
                           "--grid", "8")
        assert code == 0
        rep = json.loads(out)
        assert rep["overall_pass"] is True
        assert any("near-extremal" in n for n in rep["notes"])

    def test_small_schwarzschild_runs(self, capsys):
        # Q = 0 puts the inner horizon at r = 0, where quadrature abscissas
        # go subnormal
        code, out, _ = run(capsys, "verify", "--mass", "0.02", "--charge", "0",
                           "--grid", "8")
        assert code == 0
        assert json.loads(out)["overall_pass"] is True

    @pytest.mark.parametrize("mass", ["1e-3", "0.01"])
    def test_small_mass_schwarzschild_passes(self, capsys, mass):
        # schwarzschild_flatness is measured in curvature units, so it does
        # not grow as 1/m^2
        code, out, _ = run(capsys, "verify", "--mass", mass, "--charge", "0")
        assert code == 0
        assert json.loads(out)["overall_pass"] is True

    @pytest.mark.parametrize("mass, charge", [("1", "0.9999"), ("0.1", "0")])
    def test_oracle_runs_where_it_was_skipped(self, capsys, mass, charge):
        # a horizon gap of 1e-4 of m and a small mass: every check, the
        # oracle's among them, runs and passes, and no note says skipped
        code, out, _ = run(capsys, "verify", "--mass", mass, "--charge", charge)
        assert code == 0
        rep = json.loads(out)
        checks = {c["name"]: c["pass"] for c in rep["checks"]}
        assert checks["closed_vs_oracle_ricci"] and all(checks.values())
        assert not any("skipped" in n for n in rep["notes"])

    @pytest.mark.parametrize("guard", ["1e-8", "1e-9", "1e-10", "1e-11", "1e-12"])
    def test_warp_identities_pass_at_small_guards(self, capsys, guard):
        # the warp identities take mu from the square-root closed form, which
        # must keep its relative accuracy next to the inner horizon (an arccos
        # of a ratio next to 1 read up to 383x the threshold here). The oracle
        # rows may fail at the smaller guards and are not asserted
        code, out, _ = run(capsys, "verify", "--mass", "1", "--charge", "0.6",
                           "--guard", guard)
        assert code in (0, 1)
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["warp_identities"]["pass"] is True

    @pytest.mark.parametrize("mass, charge", [("1e150", "6e149"), ("1e150", "0"),
                                              ("1e100", "9.9e99")])
    def test_huge_mass_reports_or_names_the_cause(self, capsys, mass, charge):
        # the oracle's pivot check and off-diagonal weights cannot overflow;
        # an overflow elsewhere is one named error line, not an errno tuple
        code, out, err = run(capsys, "verify", "--mass", mass, "--charge", charge,
                             "--grid", "8")
        if code in (0, 1):
            rep = json.loads(out)
            assert rep["overall_pass"] is (code == 0)
        else:
            assert (code, out) == (2, "")
            assert err.startswith("error: floating-point overflow") and err.count("\n") == 1
            assert "(34" not in err and "Traceback" not in err

    @pytest.mark.parametrize("theta", ["1e-160", "1e-150"])
    def test_non_finite_oracle_exits_2(self, capsys, theta):
        # the oracle's inverse metric (1e-160) or its derivative (1e-150)
        # overflows this close to the axis; the run stops with one line
        # naming the overflow instead of reporting the checks as passed
        code, out, err = run(capsys, "verify", "--mass", "1", "--charge", "0.6",
                             "--theta", theta, "--format", "json")
        assert (code, out) == (2, "")
        assert err.startswith("error: floating-point overflow") and err.count("\n") == 1

    @pytest.mark.parametrize("command, mass, charge, cause", [
        ("verify", "1e-150", "5e-151", "float division by zero"),
        ("curvature", "1e-150", "5e-151", "float division by zero"),
        ("verify", "1e150", "6e149", "floating-point overflow"),
        ("fluid", "1e150", "6e149", "floating-point overflow"),
        ("verify", "1e-100", "0", "invalid floating-point operation"),
    ])
    def test_floating_point_error_names_its_kind(self, capsys, command, mass, charge, cause):
        # r^3 underflows to 0 at m = 1e-150 and r^4 overflows at m = 1e150;
        # at Q = 0, 0/0
        code, out, err = run(capsys, command, "--mass", mass, "--charge", charge)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {cause}") and err.count("\n") == 1

    def test_invalid_params_exit_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--mass", "1", "--charge", "1.5")
        assert code == 2

    def test_check_failure_exits_1(self, capsys, monkeypatch):
        failing = VerifyReport([CheckResult("synthetic", 1.0, 0.5, False)])
        monkeypatch.setattr(cli.verify, "run_verification",
                            lambda *a, **k: failing)
        code, out, _ = run(capsys, "verify", "--mass", "1", "--charge", "0.6")
        assert code == 1
        assert json.loads(out)["overall_pass"] is False

    def test_csv_format(self, capsys):
        code, out, err = run(capsys, "verify", "--mass", "1", "--charge", "0.6",
                             "--grid", "8", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "name,max_abs_residual,threshold,pass"
        assert "note:" in err

    def test_report_is_deterministic(self, capsys):
        args = ("verify", "--mass", "1", "--charge", "0.6", "--grid", "8")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestUsage:
    @pytest.mark.parametrize("command", [
        ("transform", "--r", "1"), ("verify", "--grid", "8"),
    ])
    @pytest.mark.parametrize("tol", ["inf", "nan", "-inf"])
    def test_nonfinite_tolerance_exits_2(self, capsys, command, tol):
        code, out, err = run(capsys, command[0], "--mass", "1", "--charge", "0.6",
                             f"--tol={tol}", *command[1:])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_arithmetic_error_exits_2(self, capsys):
        # the lapse cross-check fails next to a tiny inner horizon; the
        # library's ArithmeticError must not escape as a traceback
        code, out, err = run(capsys, "curvature", "--mass", "1", "--charge", "0.001",
                             "--guard", "1e-6", "--grid", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error: lapse forms disagree") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["curvature", "fluid"])
    @pytest.mark.parametrize("guard", ["1e-300", "1e-17"])
    def test_guard_below_an_ulp_of_the_horizon(self, capsys, command, guard):
        # the grid ends are kept 2 ulps inside the horizons, not on them
        code, out, err = run(capsys, command, "--mass", "1", "--charge", "0.6",
                             "--guard", guard, "--grid", "3")
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 3 and all(map(math.isfinite, map(float, sum(rows, []))))

    @pytest.mark.parametrize("command", ["curvature", "fluid"])
    @pytest.mark.parametrize("guard", ["1e-300", "1e-160", "1e-100"])
    def test_tiny_guard_at_zero_charge(self, capsys, command, guard):
        # r_minus = 0 has no ulp scale; the low end stays 2 ulps of r_plus
        # above 0, where r^2 and r^4 are still normal floats
        code, out, err = run(capsys, command, "--mass", "1", "--charge", "0",
                             "--guard", guard, "--grid", "2")
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert float(rows[0][0]) == 2.0 * math.ulp(2.0)
        assert len(rows) == 2 and all(map(math.isfinite, map(float, sum(rows, []))))

    def test_missing_subcommand(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_flag(self, capsys):
        assert cli.main(["horizons", "--mass", "1", "--charge", "0", "--bogus"]) == 2

    @pytest.mark.parametrize("command", ["curvature", "fluid", "verify"])
    def test_bad_grid(self, capsys, command):
        code, out, err = run(capsys, command, "--mass", "1", "--charge", "0.6",
                             "--grid", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: grid needs at least 2 points") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["curvature", "fluid", "verify"])
    @pytest.mark.parametrize("guard", ["0.7", "0", "nan"])
    def test_bad_guard(self, capsys, command, guard):
        code, out, err = run(capsys, command, "--mass", "1", "--charge", "0.6",
                             "--guard", guard)
        assert (code, out) == (2, "")
        assert err.startswith("error: guard_fraction must lie in") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("horizons", "--grid", "8"), ("horizons", "--guard", "0.7"),
        ("horizons", "--tol", "1e-6"), ("horizons", "--theta", "1"),
        ("transform", "--r", "1", "--grid", "8"), ("transform", "--r", "1", "--guard", "0.1"),
        ("transform", "--r", "1", "--theta", "1"),
        ("curvature", "--tol", "1e-6"), ("fluid", "--tol", "1e-6"),
    ], ids=" ".join)
    def test_flag_the_command_does_not_read(self, capsys, argv):
        code, out, err = run(capsys, argv[0], "--mass", "1", "--charge", "0.6", *argv[1:])
        assert (code, out) == (2, "")
        assert "unrecognized arguments" in err


# one config from each charge band of the benchmark pool: zero, low, steep
# (0.98 <= Q/m < 1 - 1e-4) and near extremal ((m - Q)/m < 1e-4)
BAND_CONFIGS = [
    ("1", "0"),
    ("7.937343156201144", "4.843070307581991"),
    ("0.3486070955447274", "0.3448051857717322"),
    ("0.10810660455688946", "0.10809595965137506"),
]


class TestTableFormat:
    @pytest.mark.parametrize("command", ["curvature", "fluid"])
    @pytest.mark.parametrize("mass, charge", BAND_CONFIGS)
    def test_csv_is_the_per_cell_repr_of_the_json_table(self, capsys, command, mass, charge):
        args = (command, "--mass", mass, "--charge", charge, "--grid", "256")
        code, out_csv, _ = run(capsys, *args)
        assert code == 0
        code, out_json, _ = run(capsys, *args, "--format", "json")
        assert code == 0
        rows = json.loads(out_json)
        columns = list(rows[0])
        referee = ",".join(columns) + "\n" + "".join(
            ",".join(repr(v) for v in row.values()) + "\n" for row in rows)
        assert out_csv == referee
        cells = [c for line in out_csv.splitlines()[1:] for c in line.split(",")]
        assert len(cells) == 256 * len(columns)
        assert all(repr(float(c)) == c for c in cells)

    def test_verify_pass_column(self, capsys):
        code, out, _ = run(capsys, "verify", "--mass", "1", "--charge", "0.6",
                           "--grid", "8", "--format", "csv")
        assert code == 0
        assert {line.rsplit(",", 1)[1] for line in out.splitlines()[1:]} == {"true"}


class TestSharedParser:
    def test_calls_in_one_process_do_not_interact(self, capsys):
        assert cli._parser() is cli._parser()
        curvature = ("curvature", "--mass", "1", "--charge", "0.6", "--grid", "8")
        code, first, _ = run(capsys, *curvature)
        assert code == 0 and first.startswith("r,mu,f1,")
        code, out, err = run(capsys, "horizons", "--mass", "1", "--charge", "0.6",
                             "--grid", "8")
        assert (code, out) == (2, "") and "unrecognized arguments" in err
        code, out, _ = run(capsys, "fluid", "--mass", "1", "--charge", "0.6", "--grid", "8")
        assert code == 0 and out.startswith("r,mu,rho,")
        code, out, _ = run(capsys, "verify", "--mass", "1", "--charge", "0.6", "--grid", "8",
                           "--format", "csv")
        assert code == 0 and out.startswith("name,max_abs_residual,")
        code, second, _ = run(capsys, *curvature)
        assert (code, second) == (0, first)
        # the JSON commands keep their default after a --format csv call
        code, out, _ = run(capsys, "verify", "--mass", "1", "--charge", "0.6", "--grid", "8")
        assert code == 0 and json.loads(out)["overall_pass"] is True
        code, out, _ = run(capsys, "horizons", "--mass", "1", "--charge", "0.6")
        assert code == 0 and json.loads(out)["r_plus"] == pytest.approx(1.8)


class FailingStdout:
    """A text stdout whose write, or only its flush, raises."""

    def __init__(self, exc, on_write=True):
        self.exc, self.on_write = exc, on_write

    def write(self, text):
        if self.on_write:
            raise self.exc
        return len(text)

    def flush(self):
        raise self.exc


class ShortBuffer:
    """A byte buffer that takes part of the first write, then finds the pipe closed."""

    def __init__(self):
        self.taken = b""

    def write(self, data):
        if self.taken:
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        self.taken = bytes(data[:10])
        return 10


class ShortWriteStdout:
    encoding = "utf-8"

    def __init__(self):
        self.buffer = ShortBuffer()

    def flush(self):
        pass


WRITE_ERRORS = [BrokenPipeError(errno.EPIPE, "Broken pipe"),
                OSError(errno.ENOSPC, "No space left on device")]


class TestWriteFailure:
    """A failed stdout write exits 2 with one line; exit 1 stays a failed check."""

    @pytest.mark.parametrize("exc", WRITE_ERRORS, ids=["pipe", "full"])
    @pytest.mark.parametrize("on_write", [True, False], ids=["write", "flush"])
    @pytest.mark.parametrize("argv", [
        ("curvature", "--grid", "8"), ("fluid", "--grid", "8", "--format", "json"),
        ("verify", "--grid", "8"), ("verify", "--grid", "8", "--format", "csv"),
        ("horizons", "--format", "csv"),
    ], ids=" ".join)
    def test_exits_2_with_one_line(self, capsys, monkeypatch, exc, on_write, argv):
        monkeypatch.setattr(sys, "stdout", FailingStdout(exc, on_write))
        code = cli.main([argv[0], "--mass", "1", "--charge", "0.6", *argv[1:]])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        # verify's CSV notes go to stderr before the flush fails
        assert [line for line in err if not line.startswith("note: ")] == [
            f"error: cannot write output: {exc}"]

    def test_short_write_is_not_success(self, capsys, monkeypatch):
        # a text stream would drop the rest of a write its buffer took in part
        stdout = ShortWriteStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        code = cli.main(["curvature", "--mass", "1", "--charge", "0.6", "--grid", "8"])
        assert code == 2
        assert capsys.readouterr().err == "error: cannot write output: [Errno 32] Broken pipe\n"
        assert stdout.buffer.taken == b"r,mu,f1,f2"


def rnwarp(*argv, unbuffered=False, **popen):
    """Start `python -m rnwarp` with stdout buffered as a shell would, or unbuffered."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "rnwarp", *argv], env=env,
                            stderr=subprocess.PIPE, text=True, **popen)


class TestWriteFailureProcess:
    """No traceback and no "Exception ignored" from the flush at exit."""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["horizons", "curvature"])
    def test_full_device(self, command):
        with open("/dev/full", "w") as full:
            proc = rnwarp(command, "--mass", "1", "--charge", "0.6", stdout=full)
            _, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert err == "error: cannot write output: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("argv, read, unbuffered", [
        # the reader takes one byte of a table far larger than the pipe
        (("curvature", "--grid", "20000"), 1, False),
        # the same unbuffered, where the file takes the table in part
        (("curvature", "--grid", "20000"), 1, True),
        # the reader is gone before a record small enough to stay buffered
        (("horizons",), 0, False),
    ], ids=["table", "table-unbuffered", "record"])
    def test_closed_pipe(self, argv, read, unbuffered):
        proc = rnwarp(argv[0], "--mass", "1", "--charge", "0.6", *argv[1:],
                      unbuffered=unbuffered, stdout=subprocess.PIPE)
        proc.stdout.read(read)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert err == "error: cannot write output: [Errno 32] Broken pipe\n"
