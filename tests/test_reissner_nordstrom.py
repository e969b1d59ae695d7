import functools
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnwarp import calculus
from rnwarp import reissner_nordstrom as rn
from rnwarp.errors import DomainError, ExtremalError
from rnwarp.oracle import Jet
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
        # r_minus = 0: the row (0, 1e-300) hands the integrand subnormal
        # distances, where a product of two distances would underflow to zero
        mu = mu_of_r(BlackHoleParams(0.01, 0.0), 1e-300)
        assert 0.0 <= mu < 1e-300

    # positions reach within 1e-9 of the gap of either horizon: the
    # integrand gets each node's exact distances from both, so the
    # quadrature keeps its accuracy next to both
    @given(m=masses, qr=st.floats(min_value=0.0, max_value=0.9),
           frac=st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
    def test_matches_sqrt_closed_form(self, m, qr, frac):
        p = BlackHoleParams(m, m * qr)
        hp = horizons(p)
        r = hp.r_minus + frac * hp.width
        assert mu_of_r(p, r) == pytest.approx(mu_closed_form_sqrt(p, r),
                                              abs=1e-9 * max(1.0, m))

    def test_within_4_ulps_of_m_pi_of_the_50_digit_antiderivative(self):
        # a seeded set: m from 1e-150 to 1e150, Q/m from 0 up to 1 - 1e-12,
        # and r on both horizons, 1 and 2 ulps inside each, on both sides of
        # the cut at m and at random between. The reference is
        # m*phi - c*sin(phi) in 50-digit mpmath at the double horizons.
        # Measured: worst 2.8 ulps over 300 such configs
        import mpmath

        mpmath.mp.dps = 50
        rng = random.Random(26)
        worst = 0.0
        for _ in range(40):
            m = 10.0 ** rng.uniform(-150.0, 150.0)
            qr = rng.choice([0.0, rng.uniform(0.0, 0.99), 1.0 - 10.0 ** rng.uniform(-12.0, -2.0)])
            p = BlackHoleParams(m, m * qr)
            hp = horizons(p)
            rp, rm = hp.r_plus, hp.r_minus

            def up(x):
                return math.nextafter(x, math.inf)

            def down(x):
                return math.nextafter(x, 0.0)

            rs = [rm, up(rm), up(up(rm)), down(m), m, up(m), down(down(rp)), down(rp), rp]
            rs += [rm + rng.random() * (rp - rm) for _ in range(5)]
            mus = mu_of_r(p, np.array(rs))
            big_rp, big_rm = mpmath.mpf(rp), mpmath.mpf(rm)
            for r, mu in zip(rs, mus.tolist()):
                phi = 2 * mpmath.asin(mpmath.sqrt((r - big_rm) / (big_rp - big_rm)))
                exact = (big_rp + big_rm) / 2 * phi - (big_rp - big_rm) / 2 * mpmath.sin(phi)
                worst = max(worst, float(abs(mu - exact)) / math.ulp(m * math.pi))
        assert worst <= 4.0

    def test_non_decreasing_across_the_seam_at_m(self):
        # rows up to m run from r_minus, rows above it from m and add F(m):
        # over the 7 doubles around r = m, mu must not step back, on a seeded
        # set from m = 1e-100 to 1e100 and Q/m from 0 up to 1 - 1e-12
        rng = random.Random(29)
        for _ in range(200):
            m = 10.0 ** rng.uniform(-100.0, 100.0)
            qr = rng.choice([0.0, rng.uniform(0.0, 0.99), 1.0 - 10.0 ** rng.uniform(-12.0, -2.0)])
            rs = [m]
            for _ in range(3):
                rs = [math.nextafter(rs[0], 0.0), *rs, math.nextafter(rs[-1], math.inf)]
            mus = mu_of_r(BlackHoleParams(m, m * qr), np.array(rs))
            assert (np.diff(mus) >= 0.0).all(), (m, qr, mus.tolist())

    @pytest.mark.parametrize("r, want", [
        # the second double above r_minus = 0.19999999999999996, and 1e-9 of
        # the gap above it, from 60-digit mpmath
        (0.2, 2.3560804576936207e-09),
        (0.2 + 0.8e-9, 8.94427229269639e-06),
    ])
    def test_next_to_the_inner_horizon(self, charged, r, want):
        assert abs(mu_of_r(charged, r) - want) <= 4 * math.ulp(math.pi)

    @pytest.mark.parametrize("m, q", [(1.0, 1.0 - 1e-12), (1e-8, 0.0), (1e8, 1e8 * (1.0 - 1e-9))])
    def test_converges_at_any_mass_and_gap_at_the_default_tolerance(self, m, q):
        p = BlackHoleParams(m, q)
        rs = np.array(interior_grid(p, 16) + [horizons(p).r_plus])
        err = np.abs(mu_of_r(p, rs) - rn._kepler_mu(m, rn._half_gap(p),
                                                     rn._forward_angle(horizons(p), rs)))
        assert err.max() <= 8 * math.ulp(m * math.pi)

    def test_domain(self, charged):
        with pytest.raises(DomainError):
            mu_of_r(charged, 0.19)
        with pytest.raises(DomainError):
            mu_of_r(charged, 1.80001)


class TestZeroInnerHorizon:
    def test_mu_sees_distances_from_both_horizons(self, monkeypatch):
        # Q = 0 puts the inner horizon at r = 0: the integrand gets each
        # node's distance a from r = 0 and b from r_plus, never a rounded
        # difference of radii, so every a and b is positive, and the row of
        # r = 1 = m integrates over (0, 1) with r_plus one width past its end
        seen = []
        quad = calculus.integrate_endpoint_singular

        def recording(f, *args):
            def g(a, b):
                seen.append((a.copy(), b.copy()))
                return f(a, b)
            return quad(g, *args)

        monkeypatch.setattr(calculus, "integrate_endpoint_singular", recording)
        p = BlackHoleParams(1.0, 0.0)
        mu = mu_of_r(p, 1.0)
        a, b = (np.concatenate(d) for d in zip(*seen))
        assert (a > 0.0).all() and (b > 0.0).all()
        assert a.max() <= 2.0 and b.max() <= 2.0
        want = mu_closed_form_sqrt(p, 1.0)
        assert abs(mu - want) <= 4 * math.ulp(want)


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
        # a row per r above r_minus and one for F(m): rows r <= m run from
        # r_minus, rows r > m from m and add F(m), r_plus's row among them
        calls = []
        quad = calculus.integrate_endpoint_singular

        def counted(*args):
            calls.append(args)
            return quad(*args)

        monkeypatch.setattr(calculus, "integrate_endpoint_singular", counted)
        hp = horizons(charged)
        mu = mu_of_r(charged, np.array([hp.r_minus, 1.0, 1.5, hp.r_plus]))
        (f, lo, hi, beyond_lo, beyond_hi, tol), = calls
        rm, rp, m = hp.r_minus, hp.r_plus, charged.mass
        assert lo.tolist() == [rm, m, m, rm] and hi.tolist() == [1.0, 1.5, rp, m]
        assert beyond_lo.tolist() == [0.0, m - rm, m - rm, 0.0]
        assert beyond_hi.tolist() == [rp - 1.0, rp - 1.5, 0.0, rp - m]
        rows = quad(f, lo, hi, beyond_lo, beyond_hi, tol)
        assert mu.tolist() == [0.0, rows[0], rows[3] + rows[1], rows[3] + rows[2]]

    def test_scalar_gives_a_python_float(self, charged):
        # repr of a numpy float would change the CLI's CSV and JSON text
        assert type(mu_of_r(charged, 1.0)) is float
        assert type(mu_of_r(charged, horizons(charged).r_minus)) is float

    def test_any_entry_outside_raises(self, charged):
        with pytest.raises(DomainError, match="r=1.81"):
            mu_of_r(charged, np.array([1.0, 1.81, 0.1]))


def _closed_form_values(p, r):
    """Every closed-form value at r (a float or an array), as a flat tuple."""
    w, rc = warp_state(p, r), ricci_closed_form(p, r, 1.0)
    return (lapse_squared(p, r), mu_closed_form(p, r), mu_closed_form_sqrt(p, r),
            w.f1, w.f2, w.f1p, w.f2p, w.f1pp, w.f2pp,
            rc.r_mumu, rc.r_nunu, rc.r_thth, rc.r_phph, rc.scalar)


class TestBatchedClosedForms:
    @pytest.mark.parametrize("m, q", [(1.0, 0.6), (1.0, 0.0), (2.5, 2.475), (1e-8, 3e-9),
                                      (1e8, 0.0)])
    def test_entries_equal_float_calls(self, m, q):
        # one code path: each entry of an array call is the float call's value
        p = BlackHoleParams(m, q)
        rs = interior_grid(p, 16)
        batch = _closed_form_values(p, np.array(rs))
        for k, r in enumerate(rs):
            assert [v[k] for v in batch] == list(_closed_form_values(p, r))

    def test_a_float_gives_python_floats(self, charged):
        # repr of a numpy float would change the CLI's CSV and JSON text
        for value in _closed_form_values(charged, 1.0):
            assert type(value) is float
        for value in _closed_form_values(charged, np.array([0.5, 1.0])):
            assert isinstance(value, np.ndarray) and value.shape == (2,)

    @pytest.mark.parametrize("evaluate", [lapse_squared, warp_state,
                                          lambda p, r: ricci_closed_form(p, r, 1.0)])
    def test_any_entry_outside_the_open_interior_raises(self, charged, evaluate):
        with pytest.raises(DomainError, match=r"r=1\.8 outside the open interior"):
            evaluate(charged, np.array([1.0, 1.8, 0.1]))

    @pytest.mark.parametrize("evaluate", [mu_closed_form, mu_closed_form_sqrt])
    def test_any_entry_outside_the_closed_interior_raises(self, charged, evaluate):
        assert evaluate(charged, np.array([0.2, 1.8])).tolist() == [
            evaluate(charged, 0.2), evaluate(charged, 1.8)]
        with pytest.raises(DomainError, match=r"r=1\.81 outside the closed interior"):
            evaluate(charged, np.array([1.0, 1.81, 0.1]))

    def test_lapse_cross_check_names_the_first_failing_radius(self, charged, monkeypatch):
        factored = rn._factored_lapse

        def skewed(hp, r, r2):
            return factored(hp, r, r2) + np.where(r > 1.0, 1e-9, 0.0)

        monkeypatch.setattr(rn, "_factored_lapse", skewed)
        assert lapse_squared(charged, np.array([0.5, 1.0])).shape == (2,)
        with pytest.raises(ArithmeticError, match=r"lapse forms disagree at r=1\.25:"):
            lapse_squared(charged, np.array([0.5, 1.25, 1.5]))


@pytest.mark.parametrize("evaluate", [
    lapse_squared, warp_state, lambda p, r: ricci_closed_form(p, r, 1.0), mu_of_r,
    mu_closed_form, mu_closed_form_sqrt])
@pytest.mark.parametrize("r", [1.0, np.array([0.5, 1.0, 1.5])])
def test_each_call_checks_r_once(charged, monkeypatch, evaluate, r):
    checks = []

    def counted(check):
        def wrapper(p, r):
            checks.append(check.__name__)
            return check(p, r)
        return wrapper

    for name in ("_require_interior", "_require_closed_interior"):
        monkeypatch.setattr(rn, name, counted(getattr(rn, name)))
    evaluate(charged, r)
    assert len(checks) == 1


def test_an_invalid_r_is_named_before_an_invalid_theta(charged):
    with pytest.raises(DomainError, match=r"r=1\.9 outside the open interior"):
        ricci_closed_form(charged, 1.9, 4.0)
    with pytest.raises(DomainError, match="theta must lie in"):
        ricci_closed_form(charged, 1.0, 4.0)


def _plain_ratio_exact(p, r):
    """2m*arccos((r_plus - r)/(r_plus - r_minus)) - sqrt((r_plus - r)(r - r_minus))
    at the double mass, horizons and r, to 60 digits: the differences of
    doubles are exact, and the ratio, next to 1 by as little as 5e-324/w,
    gets extra digits so that its distance from 1 keeps 60."""
    import mpmath

    hp = horizons(p)
    rp, rm, r = (mpmath.mpf(v) for v in (hp.r_plus, hp.r_minus, r))
    below, above = mpmath.fsub(rp, r, exact=True), mpmath.fsub(r, rm, exact=True)
    width = mpmath.fsub(rp, rm, exact=True)
    extra = int(-mpmath.log10(above / width)) if above > 0 else 0
    with mpmath.workdps(60 + extra):
        return 2 * mpmath.mpf(p.mass) * mpmath.acos(below / width) - mpmath.sqrt(below * above)


class TestClosedForms:
    def test_plain_ratio_within_1e_14_of_the_60_digit_value(self):
        # relative, with the smallest normal double as the floor, from r_minus
        # (where it is 0) over its second double and 1e-12 of the gap above
        # to r_plus. The arccos of the plain ratio, rounded to 1 next to
        # r_minus, read -9.4e-9 for +7.2e-9 at (1, 0.6, 0.2) and -1.4e-104
        # for +5.6e-105 at (2.9e5, 0, 3.17e-214). Measured: worst 3.3e-16,
        # at the second double above r_minus at (2.9e5, 0.6)
        import mpmath

        worst = 0.0
        for m in (1.0, 2.9e5):
            for qr in (0.0, 0.6, 1.0 - 1e-6):
                p = BlackHoleParams(m, m * qr)
                hp = horizons(p)
                rm, gap = hp.r_minus, hp.width
                rs = [rm, math.nextafter(math.nextafter(rm, math.inf), math.inf),
                      rm + 1e-12 * gap, rm + 0.5 * gap, hp.r_plus - 1e-12 * gap, hp.r_plus]
                batch = mu_closed_form(p, np.array(rs))
                for r, got in zip(rs, batch.tolist()):
                    assert mu_closed_form(p, r).hex() == got.hex()
                    assert got >= 0.0
                    exact = _plain_ratio_exact(p, r)
                    error = abs(mpmath.mpf(got) - exact) / max(abs(exact), sys.float_info.min)
                    worst = max(worst, float(error))
        assert worst <= 1e-14

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

    def test_sqrt_variant_within_ulps_next_to_both_horizons(self):
        # at Q = 0 the horizons 0 and 2m are exact doubles, so each r is an
        # exact offset from both. Measured: arccos of the square-rooted ratio
        # is off by 6.7e7 relative at 1e-12 of the gap above 0, arcsin(sqrt((r
        # - r_minus)/w)) by 7.1e-11 at 1e-12 of the gap below 2m
        import mpmath

        for m in (1e-3, 1.0, 7.0):
            p = BlackHoleParams(m, 0.0)
            for f in (1e-12, 1e-8, 1e-4, 0.3, 0.5, 0.7, 1 - 1e-4, 1 - 1e-8, 1 - 1e-12):
                r = 2.0 * m * f
                with mpmath.workdps(50):
                    phi = 2 * mpmath.asin(mpmath.sqrt(mpmath.mpf(r) / (2 * m)))
                    exact = float(m * (phi - mpmath.sin(phi)))
                assert abs(mu_closed_form_sqrt(p, r) - exact) <= 1e-15 * exact

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

    def test_root_search_referees_a_bad_guess_at_small_mass(self, monkeypatch):
        # a guess 1e-6 off must be refined to the tolerance in units of m:
        # an absolute 1e-10 on |mu(r) - mu| stopped 1.4e-8 off r here
        m = 1e-3
        p, mu = BlackHoleParams(m, 0.6 * m), 0.5 * m * math.pi
        exact = _kepler_inverse(p, mu)
        monkeypatch.setattr(rn, "_kepler_inverse", lambda p, mu: exact * (1.0 + 1e-6))
        assert abs(r_of_mu(p, mu) - exact) <= 1e-10 * exact

    @pytest.mark.parametrize("m", [1e-8, 1e-100])
    @pytest.mark.parametrize("off", [1e-6, -1e-6])
    def test_root_search_referees_a_bad_guess_at_any_mass_scale(self, monkeypatch, m, off):
        # the bracket's stop is relative to r: with a floor of 2 ulps of
        # max(1, |r|), an absolute length, the search stopped 9.3e-9 off r
        # at m = 1e-8 and returned the guess as it was at m = 1e-100, whose
        # first window step spans the interior. Measured 5.4e-12 and 3.4e-12
        # at every mass from 1e-100 to 1e100, as at m = 1
        p, mu = BlackHoleParams(m, 0.6 * m), 0.5 * m * math.pi
        exact = _kepler_inverse(p, mu)
        monkeypatch.setattr(rn, "_kepler_inverse", lambda p, mu: exact * (1.0 + off))
        assert abs(r_of_mu(p, mu) - exact) <= 1e-11 * exact

    def test_kepler_guess_one_ulp_past_the_outer_horizon(self):
        # the guess rounds to the double above r_plus; the search starts at r_plus
        p, mu = BlackHoleParams(3.7938181643841387, 3.7930057103806347), 11.918631274188876
        assert _kepler_inverse(p, mu) > horizons(p).r_plus
        assert r_of_mu(p, mu) == horizons(p).r_plus

    def test_small_mu_approaches_inner_horizon(self, charged):
        hp = horizons(charged)
        previous = hp.r_plus
        for mu in (1e-2, 1e-3, 1e-4):
            r = r_of_mu(charged, mu)
            assert hp.r_minus < r < previous
            previous = r
        assert previous - hp.r_minus < 1e-3

    def test_domain(self, charged, monkeypatch):
        # named before any quadrature runs
        def no_quadrature(*args):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(calculus, "integrate_endpoint_singular", no_quadrature)
        for mu in (0.0, -0.5, math.pi, 4.0, math.nan, math.inf):
            with pytest.raises(DomainError) as raised:
                r_of_mu(charged, mu)
            assert str(raised.value) == f"mu={mu} outside the open interval (0, {math.pi})"

    @given(m=masses, qr=st.floats(min_value=0.0, max_value=0.95),
           frac=st.floats(min_value=0.02, max_value=0.98))
    @settings(max_examples=25)
    def test_fast_inverse_agrees_with_quadrature(self, m, qr, frac):
        p = BlackHoleParams(m, m * qr)
        mu = m * math.pi * frac
        r = _kepler_inverse(p, mu)
        assert mu_of_r(p, r) == pytest.approx(mu, abs=1e-8 * max(1.0, m))


def _kepler_draws(n: int, seed: int) -> list[tuple[float, float, float]]:
    """(m, Q, mu): m log-uniform in [1e-8, 1e8]; Q zero, generic or up to
    1 - 1e-12 of m; mu generic or down to 1e-12 of either end of (0, m*pi)."""
    rng = np.random.default_rng(seed)
    k = np.arange(n)
    near_end = 10.0 ** rng.uniform(-12.0, -2.0, n)
    m = 10.0 ** rng.uniform(-8.0, 8.0, n)
    qr = np.choose(k % 3, [np.zeros(n), rng.uniform(0.0, 0.99, n), 1.0 - near_end])
    near_end = 10.0 ** rng.uniform(-12.0, -2.0, n)
    frac = np.choose(k // 3 % 3, [rng.uniform(0.01, 0.99, n), near_end, 1.0 - near_end])
    return list(zip(m.tolist(), (m * qr).tolist(), (m * math.pi * frac).tolist()))


@functools.cache
def _exact_kepler_roots() -> list[tuple[float, float, float, object, object]]:
    """(m, Q, mu, c, phi) over _kepler_draws(3000, 2024), with c and phi in
    40-digit mpmath: phi is the root of m*phi - c*sin(phi) = mu for the
    double inputs, by bisection on [0, pi] and Newton from above, where the
    map is convex."""
    import mpmath

    roots = []
    for m, q, mu in _kepler_draws(3000, 2024):
        with mpmath.workdps(40):
            big_m, t = mpmath.mpf(m), mpmath.mpf(mu)
            c = mpmath.sqrt(big_m * big_m - mpmath.mpf(q) ** 2)
            lo, hi = mpmath.mpf(0), mpmath.pi
            for _ in range(30):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if big_m * mid - c * mpmath.sin(mid) < t else (lo, mid)
            phi = hi
            for _ in range(8):
                phi -= (big_m * phi - c * mpmath.sin(phi) - t) / (big_m - c * mpmath.cos(phi))
        roots.append((m, q, mu, c, phi))
    return roots


def _angle_draws() -> list[tuple[BlackHoleParams, np.ndarray]]:
    """(params, mu array): Q/m in {0, 0.6, 0.99, 1 - 1e-6, 1 - 1e-12} at three
    masses, mu/(m*pi) from 1e-300 to 1 - 1e-15, and mu = 5e-324 at m = 1,
    where 3*mu/c in the cubic start stays above 0, and at m = 2.9e5, where
    it underflows to 0."""
    fracs = [10.0 ** -k for k in range(300, 0, -7)] + [0.3, 0.5, 0.7]
    fracs += [1.0 - 10.0 ** -k for k in range(1, 16)]
    draws = []
    for m in (1.0, 3.7e-6, 2.9e5):
        for qr in (0.0, 0.6, 0.99, 1.0 - 1e-6, 1.0 - 1e-12):
            mus = [m * math.pi * f for f in fracs] + ([5e-324] if m != 3.7e-6 else [])
            draws.append((BlackHoleParams(m, m * qr), np.array(mus)))
    return draws


def _exact_angle(m: float, c: float, mu: float, start: float):
    """The root phi of m*phi - c*sin(phi) = mu for the double inputs, to 40
    digits: Newton from start, with enough extra digits that m*phi - c*sin(phi)
    does not cancel next to phi = 0 at c = m. The map is strictly increasing
    on [0, pi], so the root it converges to is the root."""
    import mpmath

    # a start of 0 (phi below the smallest double) takes its first step to mu/(m - c)
    extra = int(-2.0 * math.log10(start)) if 0.0 < start < 1.0 else 0
    with mpmath.workdps(50 + extra):
        big_m, c, mu, phi = (mpmath.mpf(v) for v in (m, c, mu, start))
        for _ in range(12):
            step = (big_m * phi - c * mpmath.sin(phi) - mu) / (big_m - c * mpmath.cos(phi))
            phi -= step
        assert abs(step) <= phi * mpmath.mpf(10) ** -40
        return phi


class TestKeplerInverse:
    def test_angle_within_4e_16_of_the_40_digit_root(self):
        # relative, with the smallest normal double as the floor: below it
        # (mu = 5e-324 with Q > 0) phi itself is subnormal, or 0 at m = 2.9e5.
        # Measured: worst 2.0e-16; five Newton steps read 2.3e-16 here, and
        # a Halley step followed by two Newton steps 4.2e-14 at Q = 0
        import mpmath

        worst = 0.0
        for p, mus in _angle_draws():
            m, c = p.mass, rn._half_gap(p)
            batch = rn._kepler_angle(p, mus)
            jet = rn._kepler_angle(p, Jet.variables(mus[:, None])[..., 0])
            for k, mu in enumerate(mus.tolist()):
                alone = rn._kepler_angle(p, mu)
                assert alone == batch[k] == jet[k]
                exact = _exact_angle(m, c, mu, float(alone))
                error = abs(mpmath.mpf(float(alone)) - exact) / max(exact, sys.float_info.min)
                worst = max(worst, float(error))
        assert worst <= 4e-16

    def test_within_5e_11_m_of_the_40_digit_root(self):
        # the error is c's: m^2 - Q^2 cancels as Q/m -> 1, and c carries the
        # rounding into r. Measured: worst 4.02e-11*m at Q/m = 1 - 1.6e-12,
        # median 1.0e-16*m
        import mpmath

        worst = 0.0
        for m, q, mu, c, phi in _exact_kepler_roots():
            with mpmath.workdps(40):
                exact = float(mpmath.mpf(m) - c * mpmath.cos(phi))
            worst = max(worst, abs(_kepler_inverse(BlackHoleParams(m, q), mu) - exact) / m)
        assert worst <= 5.1e-11

    def test_jet_within_5e_11_of_the_40_digit_derivatives(self):
        # dr/dmu = c*sin(phi)/r and d2r/dmu2 = -m/r^2 + Q^2/r^3 at the
        # 40-digit root, relative where they exceed 1 (in units of m for the
        # second). Measured, the same with derivatives by Newton steps in jet
        # arithmetic and by the implicit function theorem: worst 2.91e-11
        # and 4.02e-11, c's rounding as Q/m -> 1; below Q/m = 0.999 both
        # 6.6e-12, where m - c cancels next to r_minus
        import mpmath

        worst = [0.0, 0.0]
        for m, q, mu, c, phi in _exact_kepler_roots():
            with mpmath.workdps(40):
                r = mpmath.mpf(m) - c * mpmath.cos(phi)
                slope = float(c * mpmath.sin(phi) / r)
                bend = float((mpmath.mpf(q) ** 2 / r - m) / r ** 2)
            jet = _kepler_inverse(BlackHoleParams(m, q), Jet.variables([[mu]])[..., 0])
            worst[0] = max(worst[0], abs(jet.grad[0, 0] - slope) / max(1.0, abs(slope)))
            worst[1] = max(worst[1], m * abs(jet.hess[0, 0, 0] - bend) / max(1.0, m * abs(bend)))
        assert max(worst) <= 5.1e-11

    def test_batch_and_jet_equal_each_float(self, charged):
        mus = np.linspace(0.01, 0.99, 41) * math.pi
        mus[::4] = mus[1]
        batch = _kepler_inverse(charged, mus)
        jet = _kepler_inverse(charged, Jet.variables(mus[:, None])[..., 0])
        for k, mu in enumerate(mus):
            alone = _kepler_inverse(charged, float(mu))
            assert type(alone) is float
            assert batch[k] == alone == jet.val[k]

    @given(m=st.floats(min_value=1e-8, max_value=1e8),
           qr=st.floats(min_value=0.0, max_value=1.0 - 1e-8),
           frac=st.floats(min_value=0.01, max_value=0.99))
    def test_jet_derivatives_are_the_warp_state(self, m, qr, frac):
        # dr/dmu = f1 = N and d^2r/dmu^2 = f1', to roundoff in units of m
        p = BlackHoleParams(m, m * qr)
        r = _kepler_inverse(p, Jet.variables([[m * math.pi * frac]])[..., 0])
        w = warp_state(p, float(r.val[0]))
        assert abs(r.grad[0, 0] - w.f1) <= 1e-12 * max(1.0, w.f1)
        assert m * abs(r.hess[0, 0, 0] - w.f1p) <= 1e-12 * max(1.0, m * abs(w.f1p))

    def test_domain(self, charged):
        for mu in (0.0, -0.5, math.pi, 4.0, math.nan):
            with pytest.raises(DomainError, match="outside the open interval"):
                _kepler_inverse(charged, mu)
        with pytest.raises(DomainError, match="mu=-0.5"):
            _kepler_inverse(charged, np.array([1.0, -0.5, 0.0]))


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
