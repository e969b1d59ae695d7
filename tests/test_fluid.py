import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnwarp.fluid import fluid_balance, fluid_report
from rnwarp.reissner_nordstrom import (BlackHoleParams, horizons, interior_grid, mu_of_r,
                                       warp_state)
from rnwarp.warped import ricci_from_warps

PI_2 = math.pi / 2.0
EIGHT_PI = 8.0 * math.pi

# frozen: rho = 0.36*0.64/(8 pi), P = 0.36/(8 pi) at (m=1, Q=0.6, r=1)
RHO_AT_ONE = 0.009167324722093171
P_AT_ONE = 0.014323944878270581

masses = st.floats(min_value=0.1, max_value=10.0)
charge_ratios = st.floats(min_value=0.0, max_value=0.99)
fractions = st.floats(min_value=0.05, max_value=0.95)


class TestFluidBalance:
    def test_residuals_are_the_documented_balances(self, charged):
        # mumu: R - 8 pi P f1^2, nunu: R + 8 pi rho, thth: R - 8 pi P f2^2,
        # phph: R - 8 pi P f2^2 sin^2, with the warped-product Ricci diagonal
        theta = 1.0
        sin2 = math.sin(theta) ** 2
        for r in interior_grid(charged, 16):
            w = warp_state(charged, r)
            rd = ricci_from_warps(w, theta)
            rho, pressure, res = fluid_balance(charged.charge, w, theta)
            f1sq, f2sq = w.f1 * w.f1, w.f2 * w.f2
            want = (rd.r_mumu - EIGHT_PI * pressure * f1sq, rd.r_nunu + EIGHT_PI * rho,
                    rd.r_thth - EIGHT_PI * pressure * f2sq,
                    rd.r_phph - EIGHT_PI * pressure * f2sq * sin2)
            got = (res.mumu, res.nunu, res.thth, res.phph)
            for g, v, scale in zip(got, want, (rd.r_mumu, rd.r_mumu, 1.0, 1.0)):
                assert g == pytest.approx(v, abs=1e-12 * max(1.0, abs(scale)))

    @pytest.mark.parametrize("m, q", [(1.0, 0.6), (1.0, 0.0), (0.3, 0.29)])
    def test_a_grid_array_gives_each_point_as_alone(self, m, q):
        p = BlackHoleParams(m, q)
        rs = interior_grid(p, 16)
        rho, pressure, res = fluid_balance(q, warp_state(p, np.array(rs)), 1.0)
        rd = ricci_from_warps(warp_state(p, np.array(rs)), 1.0)
        for k, r in enumerate(rs):
            w = warp_state(p, r)
            one = fluid_balance(q, w, 1.0)
            assert (rho[k], pressure[k]) == one[:2]
            assert [v[k] for v in astuple(res)] == list(astuple(one[2]))
            assert [v[k] for v in astuple(rd)[:5]] == list(astuple(ricci_from_warps(w, 1.0))[:5])

    def test_report_is_the_balance_at_its_warp_state(self, charged):
        rep = fluid_report(charged, 0.9, theta=0.6)
        rho, pressure, res = fluid_balance(charged.charge, warp_state(charged, 0.9), 0.6)
        assert (rep.rho, rep.pressure, rep.residuals) == (rho, pressure, res)
        assert rep.mu == mu_of_r(charged, 0.9)


class TestFluidReport:
    def test_charged_at_one(self, charged):
        rep = fluid_report(charged, 1.0)
        assert rep.rho == pytest.approx(RHO_AT_ONE, rel=1e-12)
        assert rep.pressure == pytest.approx(P_AT_ONE, rel=1e-12)
        assert rep.residuals.thth == pytest.approx(0.0, abs=1e-14)
        assert rep.residuals.phph == pytest.approx(0.0, abs=1e-14)
        assert rep.residuals.nunu == pytest.approx(0.0, abs=1e-14)
        # the mumu balance does not close: residual = Q^2/f2^4 (1 - f1^2)
        assert rep.residuals.mumu == pytest.approx(0.36 * (1.0 - 0.64), abs=1e-12)
        assert rep.r == 1.0
        assert rep.mu == pytest.approx(0.7707963267948966, abs=1e-9)

    def test_schwarzschild_vacuum(self, schwarzschild):
        rep = fluid_report(schwarzschild, 1.0)
        assert rep.rho == 0.0
        assert rep.pressure == 0.0
        assert rep.residuals == type(rep.residuals)(0.0, 0.0, 0.0, 0.0)

    def test_equator_makes_residuals_equal(self, charged):
        rep = fluid_report(charged, 1.0, theta=PI_2)
        assert rep.residuals.phph == rep.residuals.thth

    def test_off_equator_scaling(self, charged):
        rep = fluid_report(charged, 0.9, theta=0.6)
        assert rep.residuals.phph == rep.residuals.thth * math.sin(0.6) ** 2

    @given(m=masses, qr=charge_ratios, frac=fractions)
    @settings(max_examples=30)
    def test_extraction_closes_three_balances(self, m, qr, frac):
        p = BlackHoleParams(m, m * qr)
        hp = horizons(p)
        r = hp.r_minus + hp.width * frac
        if not hp.r_minus < r < hp.r_plus:
            return
        rep = fluid_report(p, r)
        w = warp_state(p, r)
        scale_angular = max((p.charge / w.f2) ** 2, 1.0)
        scale_time = max(p.charge ** 2 / w.f2 ** 4, 1.0 / (m * m))
        assert abs(rep.residuals.nunu) <= 1e-10 * scale_time
        assert abs(rep.residuals.thth) <= 1e-10 * scale_angular
        assert abs(rep.residuals.phph) <= 1e-10 * scale_angular

    @given(m=masses, qr=charge_ratios, frac=fractions)
    @settings(max_examples=30)
    def test_source_terms_scale_with_charge_squared(self, m, qr, frac):
        # the extracted rho and P, rescaled by their warp weights, recover
        # Q^2 exactly: the testable core of the charge dependence
        p = BlackHoleParams(m, m * qr)
        hp = horizons(p)
        r = hp.r_minus + hp.width * frac
        if not hp.r_minus < r < hp.r_plus:
            return
        w = warp_state(p, r)
        rep = fluid_report(p, r)
        q2 = p.charge * p.charge
        f2_4 = w.f2 ** 4
        assert rep.rho * EIGHT_PI * f2_4 / (w.f1 * w.f1) == pytest.approx(
            q2, rel=1e-12, abs=1e-14 * m * m)
        assert rep.pressure * EIGHT_PI * f2_4 == pytest.approx(
            q2, rel=1e-12, abs=1e-14 * m * m)
