import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnwarp import calculus
from rnwarp.errors import DomainError, ExtremalError
from rnwarp.reissner_nordstrom import (BlackHoleParams, _kepler_inverse, horizons,
                                       interior_grid, lapse_squared,
                                       mu_closed_form, mu_closed_form_sqrt, mu_of_r,
                                       r_of_mu, ricci_closed_form, warp_state)

PI_2 = math.pi / 2.0

# frozen oracle values for (m=1, Q=0.6) at r=1: the antiderivative of the
# defining integral under x = m - c*cos(phi) is m*phi - c*sin(phi), giving
# mu(1) = pi/2 - 0.8; the plain-ratio closed form gives 2*pi/3 - 0.8
MU_AT_ONE = 0.7707963267948966
MU_PLAIN_AT_ONE = 1.2943951023931953
PLAIN_MINUS_QUAD = 0.5235987755982988  # = 2*pi/3 - pi/2

masses = st.floats(min_value=0.1, max_value=10.0)
charge_ratios = st.floats(min_value=0.0, max_value=0.99)


class TestParams:
    def test_extremal_rejected(self):
        with pytest.raises(ExtremalError):
            BlackHoleParams(1.0, 1.0)
        with pytest.raises(ExtremalError):
            BlackHoleParams(1.0, 1.5)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            BlackHoleParams(-1.0, 0.0)
        with pytest.raises(DomainError):
            BlackHoleParams(1.0, -0.1)

    @pytest.mark.parametrize("m, q", [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan),
                                      (1.0, math.inf), (math.inf, math.inf)])
    def test_nonfinite_rejected(self, m, q):
        with pytest.raises(DomainError, match="finite"):
            BlackHoleParams(m, q)


class TestHorizons:
    def test_schwarzschild(self, schwarzschild):
        hp = horizons(schwarzschild)
        assert (hp.r_plus, hp.r_minus) == (2.0, 0.0)

    def test_charged(self, charged):
        # oracle: sqrt(1 - 0.36) = 0.8 by hand
        hp = horizons(charged)
        assert hp.r_plus == pytest.approx(1.8, abs=1e-15)
        assert hp.r_minus == pytest.approx(0.2, abs=1e-15)

    @given(m=masses, qr=charge_ratios)
    def test_vieta(self, m, qr):
        q = m * qr
        hp = horizons(BlackHoleParams(m, q))
        assert hp.r_plus + hp.r_minus == pytest.approx(2.0 * m, rel=1e-12)
        assert hp.r_plus * hp.r_minus == pytest.approx(q * q, rel=1e-12, abs=1e-12 * m * m)


    def test_overflowing_mass_named(self):
        with pytest.raises(DomainError, match="overflow"):
            horizons(BlackHoleParams(1e300, 0.0))


class TestLapse:
    def test_charged_at_one(self, charged):
        # oracle: (0.8 * 0.8)/1 from the factored horizon form
        assert lapse_squared(charged, 1.0) == pytest.approx(0.64, rel=1e-14)

    def test_vanishes_at_horizon(self, charged):
        assert lapse_squared(charged, 1.8 - 1e-12) == pytest.approx(0.0, abs=1e-11)

    def test_schwarzschild_at_mass_radius(self, schwarzschild):
        # oracle: 2m/r - 1 at r = m
        assert lapse_squared(schwarzschild, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_outside_interior(self, charged):
        hp = horizons(charged)
        for r in (hp.r_minus, hp.r_plus, 0.0, 2.5, -1.0):
            with pytest.raises(DomainError):
                lapse_squared(charged, r)


class TestCoordinateMap:
    def test_zero_at_inner_horizon(self, charged, schwarzschild):
        for p in (charged, schwarzschild):
            assert mu_of_r(p, horizons(p).r_minus) == 0.0

    def test_m_pi_at_outer_horizon(self, charged):
        assert mu_of_r(charged, horizons(charged).r_plus) == pytest.approx(
            math.pi, abs=1e-8)

    def test_quadrature_value_at_one(self, charged):
        assert mu_of_r(charged, 1.0) == pytest.approx(MU_AT_ONE, abs=1e-10)

    def test_strictly_increasing(self, charged):
        values = [mu_of_r(charged, r) for r in interior_grid(charged, 64)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_schwarzschild_subnormal_abscissas(self):
        # r_minus = 0: abscissas next to r = 0 are subnormal, where the
        # factored integrand's (r_plus - x)*x underflows to zero
        mu = mu_of_r(BlackHoleParams(0.01, 0.0), 1e-300)
        assert 0.0 <= mu < 1e-300

    # the quadrature error grows toward either horizon (9e-10 at 1e-4 of the
    # gap below r_plus), so the draw keeps 1e-3 of the gap from both
    @given(m=masses, qr=st.floats(min_value=0.0, max_value=0.9),
           frac=st.floats(min_value=0.001, max_value=0.999))
    def test_matches_sqrt_closed_form(self, m, qr, frac):
        p = BlackHoleParams(m, m * qr)
        hp = horizons(p)
        r = hp.r_minus + frac * hp.width
        assert mu_of_r(p, r) == pytest.approx(mu_closed_form_sqrt(p, r),
                                              abs=1e-9 * max(1.0, m))

    def test_domain(self, charged):
        with pytest.raises(DomainError):
            mu_of_r(charged, 0.19)
        with pytest.raises(DomainError):
            mu_of_r(charged, 1.80001)


class TestZeroInnerHorizon:
    def test_mu_stops_short_of_subnormal_abscissas(self, monkeypatch):
        # Q = 0 puts the inner horizon at 0, where the quadrature used to
        # sweep on into subnormal abscissas: 144 integrand calls, 19 below 1e-100
        seen = []
        quad = calculus.integrate_endpoint_singular

        def recording(f, lo, hi, tol=calculus.DEFAULT_TOL):
            def g(x):
                seen.extend(x.tolist())
                return f(x)
            return quad(g, lo, hi, tol)

        monkeypatch.setattr(calculus, "integrate_endpoint_singular", recording)
        p = BlackHoleParams(1.0, 0.0)
        mu = mu_of_r(p, 1.0)
        assert min(seen) > 1e-100
        assert len(seen) <= 100
        assert mu == pytest.approx(mu_closed_form_sqrt(p, 1.0), abs=1e-10)


class TestBatchedMu:
    @pytest.mark.parametrize("m, q", [(1.0, 0.6), (1.0, 0.0), (2.5, 2.475), (0.3, 0.0)])
    def test_entries_equal_scalar_calls(self, m, q):
        p = BlackHoleParams(m, q)
        hp = horizons(p)
        rs = interior_grid(p, 16) + [hp.r_plus, hp.r_minus, hp.r_minus + 1e-9 * hp.width]
        batch = mu_of_r(p, np.array(rs))
        assert batch.tolist() == [mu_of_r(p, r) for r in rs]
        assert batch[len(rs) - 2] == 0.0  # F(r_minus), no quadrature

    def test_one_quadrature_per_batch(self, charged, monkeypatch):
        rows = []
        quad = calculus.integrate_endpoint_singular

        def counted(f, lo, hi, tol=calculus.DEFAULT_TOL):
            rows.append(len(hi))
            return quad(f, lo, hi, tol)

        monkeypatch.setattr(calculus, "integrate_endpoint_singular", counted)
        hp = horizons(charged)
        mu_of_r(charged, np.array([hp.r_minus, 1.0, 1.5, hp.r_plus]))
        assert rows == [3]

    def test_scalar_gives_a_python_float(self, charged):
        # repr of a numpy float would change the CLI's CSV and JSON text
        assert type(mu_of_r(charged, 1.0)) is float
        assert type(mu_of_r(charged, horizons(charged).r_minus)) is float

    def test_any_entry_outside_raises(self, charged):
        with pytest.raises(DomainError, match="r=1.81"):
            mu_of_r(charged, np.array([1.0, 1.81, 0.1]))


class TestClosedForms:
    def test_plain_ratio_value(self, charged):
        # oracle: 2*arccos(0.5) - 0.8 by hand; deliberately differs from the
        # quadrature value between the horizons
        assert mu_closed_form(charged, 1.0) == pytest.approx(MU_PLAIN_AT_ONE, abs=1e-12)
        gap = mu_closed_form(charged, 1.0) - mu_of_r(charged, 1.0)
        assert gap == pytest.approx(PLAIN_MINUS_QUAD, abs=1e-6)

    def test_both_agree_at_horizons(self, charged):
        hp = horizons(charged)
        for form in (mu_closed_form, mu_closed_form_sqrt):
            assert form(charged, hp.r_minus) == pytest.approx(0.0, abs=1e-12)
            assert form(charged, hp.r_plus) == pytest.approx(math.pi, abs=1e-12)

    def test_sqrt_variant_matches_quadrature(self, charged):
        for r in interior_grid(charged, 16):
            assert mu_closed_form_sqrt(charged, r) == pytest.approx(
                mu_of_r(charged, r), abs=1e-9)


class TestInverse:
    def test_inverse_of_known_value(self, charged):
        assert r_of_mu(charged, MU_AT_ONE) == pytest.approx(1.0, abs=1e-9)

    def test_round_trip(self, charged):
        import random
        rng = random.Random(99)
        for _ in range(100):
            mu = math.pi * rng.uniform(0.01, 0.99)
            assert mu_of_r(charged, r_of_mu(charged, mu)) == pytest.approx(mu, abs=1e-8)

    def test_small_mu_approaches_inner_horizon(self, charged):
        hp = horizons(charged)
        previous = hp.r_plus
        for mu in (1e-2, 1e-3, 1e-4):
            r = r_of_mu(charged, mu)
            assert hp.r_minus < r < previous
            previous = r
        assert previous - hp.r_minus < 1e-3

    def test_domain(self, charged):
        for mu in (0.0, -0.5, math.pi, 4.0):
            with pytest.raises(DomainError):
                r_of_mu(charged, mu)

    @given(m=masses, qr=st.floats(min_value=0.0, max_value=0.95),
           frac=st.floats(min_value=0.02, max_value=0.98))
    @settings(max_examples=25)
    def test_fast_inverse_agrees_with_quadrature(self, m, qr, frac):
        p = BlackHoleParams(m, m * qr)
        mu = m * math.pi * frac
        r = _kepler_inverse(p, mu)
        assert mu_of_r(p, r) == pytest.approx(mu, abs=1e-8 * max(1.0, m))


class TestWarpState:
    def test_charged_at_one(self, charged):
        # oracle: direct arithmetic on the derivative identities;
        # f1'' = 2*0.8*0.64/1 - 0.36*0.8 = 0.736
        w = warp_state(charged, 1.0)
        assert w.f1 == pytest.approx(0.8, abs=1e-15)
        assert w.f2 == 1.0
        assert w.f1p == pytest.approx(-0.64, abs=1e-15)
        assert w.f2p == pytest.approx(0.8, abs=1e-15)
        assert w.f1pp == pytest.approx(0.736, abs=1e-14)
        assert w.f2pp == pytest.approx(-0.64, abs=1e-15)

    def test_schwarzschild_slope(self, schwarzschild):
        # oracle: with Q = 0 and f2 = m the slope is -1/m
        assert warp_state(schwarzschild, 1.0).f1p == pytest.approx(-1.0, abs=1e-15)

    @given(m=masses, qr=charge_ratios, frac=st.floats(min_value=0.01, max_value=0.99))
    def test_sphere_warp_slope_equals_line_warp(self, m, qr, frac):
        p = BlackHoleParams(m, m * qr)
        hp = horizons(p)
        r = hp.r_minus + hp.width * frac
        if not hp.r_minus < r < hp.r_plus:  # floating roundoff at the ends
            return
        w = warp_state(p, r)
        assert w.f2p - w.f1 == 0.0
        assert w.f2pp == w.f1p

    def test_derivative_identities_against_differencing(self, charged):
        # the analytic mu-derivatives against centered differences of the
        # machine-smooth inverse map, normalized by local magnitudes
        m, q = charged.mass, charged.charge

        def r_of(mu):
            return _kepler_inverse(charged, mu)

        def f1_of(mu):
            return math.sqrt(lapse_squared(charged, r_of(mu)))

        def f1p_of(mu):
            r = r_of(mu)
            return -m / (r * r) + q * q / (r * r * r)

        for r in interior_grid(charged, 9):
            w = warp_state(charged, r)
            mu0 = mu_closed_form_sqrt(charged, r)
            h = calculus.EPS ** (1.0 / 3.0) * max(abs(mu0), 1.0)
            assert abs(calculus.derivative(r_of, mu0, h) - w.f1) <= 1e-10 * max(1.0, r)
            assert abs(calculus.derivative(f1_of, mu0, h) - w.f1p) <= 1e-10 * max(1.0, w.f1)
            assert abs(calculus.derivative(f1p_of, mu0, h) - w.f1pp) <= 1e-10 * max(
                1.0, abs(w.f1pp), abs(w.f1p))


class TestClosedFormRicci:
    def test_charged_at_one(self, charged):
        rd = ricci_closed_form(charged, 1.0, PI_2)
        assert rd.r_mumu == pytest.approx(0.36, abs=1e-15)
        assert rd.r_nunu == pytest.approx(-0.2304, abs=1e-15)
        assert rd.r_thth == pytest.approx(0.36, abs=1e-15)
        assert rd.r_phph == pytest.approx(0.36, abs=1e-15)
        assert rd.scalar == 0.0

    def test_schwarzschild_flat(self, schwarzschild):
        for r in interior_grid(schwarzschild, 8):
            rd = ricci_closed_form(schwarzschild, r, PI_2)
            assert (rd.r_mumu, rd.r_nunu, rd.r_thth, rd.r_phph) == (0.0, -0.0, 0.0, 0.0)

    def test_theta_dependence(self, charged):
        rd = ricci_closed_form(charged, 1.0, 0.7)
        assert rd.r_phph == rd.r_thth * math.sin(0.7) ** 2


class TestGrid:
    def test_guarded_bounds(self, charged):
        grid = interior_grid(charged, 32)
        assert grid[0] == pytest.approx(0.2 + 0.05 * 1.6)
        assert grid[-1] == pytest.approx(1.8 - 0.05 * 1.6)
        assert len(grid) == 32

    @pytest.mark.parametrize("guard", [1e-300, 1e-17])
    def test_ends_stay_two_ulps_inside(self, charged, guard):
        # a guard band below an ulp of the horizon would round onto it
        hp = horizons(charged)
        grid = interior_grid(charged, 3, guard)
        assert grid[0] == hp.r_minus + 2.0 * math.ulp(hp.r_minus)
        assert grid[-1] == hp.r_plus - 2.0 * math.ulp(hp.r_plus)

    @given(m=st.floats(min_value=0.1, max_value=10.0),
           q_over_m=st.floats(min_value=0.0, max_value=0.999),
           guard=st.floats(min_value=1e-6, max_value=0.49))
    def test_clamp_idle_for_wide_guards(self, m, q_over_m, guard):
        p = BlackHoleParams(m, m * q_over_m)
        hp = horizons(p)
        lo = hp.r_minus + guard * hp.width
        hi = hp.r_plus - guard * hp.width
        step = (hi - lo) / 3
        assert interior_grid(p, 4, guard) == [lo + i * step for i in range(4)]

    def test_validation(self, charged):
        with pytest.raises(ValueError):
            interior_grid(charged, 1)
        with pytest.raises(ValueError):
            interior_grid(charged, 8, guard_fraction=0.5)
