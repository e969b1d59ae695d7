import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rnwarp
from rnwarp import calculus
from rnwarp.calculus import (DEFAULT_TOL, EPS, Interval, Tolerance, derivative,
                             find_root_bracketed, integrate_endpoint_singular)
from rnwarp.errors import BracketError, ConvergenceError
from rnwarp.reissner_nordstrom import BlackHoleParams, horizons, interior_grid, mu_of_r, \
    r_of_mu
from rnwarp.verify import THRESHOLDS


def arcsine(x):
    return 1.0 / np.sqrt(x * (2.0 - x))


def integrate(f, iv, tol=DEFAULT_TOL):
    """The quadrature of f over one interval: a batch of one row."""
    return float(integrate_endpoint_singular(f, iv.lo, [iv.hi], tol)[0])


def sweep_level(f, iv, level):
    """One tanh-sinh level swept from scratch: every node's transcendentals
    recomputed, f called at every node, the trapezoid terms summed in mesh
    order. The reference that integrate_endpoint_singular must reproduce."""
    lo, hi = iv.lo, iv.hi
    hs = 0.5 * (hi - lo)
    # an endpoint at 0 gets a wall scaled by the half-span, and a node
    # inside it is walled only once its term is negligible; the sweep
    # stops there, as the terms fall off monotonically toward the endpoint
    dmin_lo = min(16384.0 * EPS * (abs(lo) if lo != 0.0 else hs), 0.05 * hs)
    dmin_hi = min(16384.0 * EPS * (abs(hi) if hi != 0.0 else hs), 0.05 * hs)
    pi_2 = 0.5 * math.pi
    h = 2.0 ** (-level)
    center = pi_2 * hs * f(lo + hs)
    negligible = EPS * abs(center)
    total = center
    comp_lo = comp_hi = g_lo = g_hi = 0.0
    walled_lo = walled_hi = False
    j = 1
    while True:
        t = j * h
        es = math.exp(-pi_2 * math.sinh(t))
        q = es * es
        d = hs * 2.0 * q / (1.0 + q)
        w = hs * pi_2 * math.cosh(t) * 4.0 * q / ((1.0 + q) * (1.0 + q))
        if w == 0.0 and d == 0.0:
            return h * (total + comp_hi * g_hi + comp_lo * g_lo)
        wk = pi_2 * math.cosh(t) * 2.0 * math.sqrt(2.0 * hs) * es / (1.0 + q) ** 1.5
        if not walled_hi and hi - d < hi and (d > dmin_hi or hi == 0.0):
            fx = f(hi - d)
            if d > dmin_hi or abs(w * fx) > negligible:
                total += w * fx
                g_hi = fx * math.sqrt(d)
            else:
                walled_hi = True
        else:
            walled_hi = True
        if walled_hi:
            comp_hi += wk
        if not walled_lo and lo + d > lo and (d > dmin_lo or lo == 0.0):
            fx = f(lo + d)
            if d > dmin_lo or abs(w * fx) > negligible:
                total += w * fx
                g_lo = fx * math.sqrt(d)
            else:
                walled_lo = True
        else:
            walled_lo = True
        if walled_lo:
            comp_lo += wk
        j += 1


def sweep_levels(f, iv, tol=DEFAULT_TOL):
    """sweep_level under the convergence rule of integrate_endpoint_singular:
    the estimate and the finest level it took."""
    prev = math.nan
    refine_once = False
    for level in range(13):
        estimate = sweep_level(f, iv, level)
        if refine_once:
            return estimate, level
        if level >= 2:
            err = abs(estimate - prev)
            if err <= max(tol.abs_tol, tol.rel_tol * abs(estimate)):
                if err <= 0.01 * tol.abs_tol or level == 12:
                    return estimate, level
                refine_once = True
        prev = estimate
    raise ConvergenceError("reference did not converge", prev, err)


def sweep_reference(f, iv, tol=DEFAULT_TOL):
    return sweep_levels(f, iv, tol)[0]


class TestIntegrate:
    def test_arcsine_kernel(self):
        # exact arcsine integral, singular at both ends
        got = integrate(arcsine, Interval(0.0, 2.0))
        assert got == pytest.approx(math.pi, abs=1e-9)

    def test_weighted_arcsine_kernel(self):
        # oracle: substituting x = 1 - cos(phi) turns the integrand into
        # (1 - cos phi) d phi over (0, pi), which integrates to pi exactly
        got = integrate(lambda x: x / np.sqrt((2.0 - x) * x), Interval(0.0, 2.0))
        assert got == pytest.approx(math.pi, abs=1e-9)

    def test_constant(self):
        got = integrate(np.ones_like, Interval(0.0, 1.0))
        assert got == pytest.approx(1.0, abs=1e-11)

    def test_single_sided_singularity(self):
        # integral of 1/sqrt(x) over (0, 1) is 2
        got = integrate(lambda x: 1.0 / np.sqrt(x), Interval(0.0, 1.0))
        assert got == pytest.approx(2.0, abs=1e-9)

    def test_smooth_integrand(self):
        got = integrate(np.sin, Interval(0.0, math.pi))
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_deterministic(self):
        vals = {integrate(arcsine, Interval(0.0, 2.0)) for _ in range(3)}
        assert len(vals) == 1

    @given(st.floats(min_value=0.05, max_value=1.95))
    @settings(max_examples=20)
    def test_additive_over_subintervals(self, split):
        whole = integrate(arcsine, Interval(0.0, 2.0))
        left = integrate(arcsine, Interval(0.0, split))
        right = integrate(arcsine, Interval(split, 2.0))
        assert abs(left + right - whole) <= 2.0 * DEFAULT_TOL.abs_tol + 1e-12

    @given(a=st.floats(min_value=-3.0, max_value=1.0),
           width=st.floats(min_value=0.2, max_value=5.0),
           c1=st.floats(min_value=-2.0, max_value=2.0),
           c2=st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=25)
    def test_shifted_arcsine_family(self, a, width, c1, c2):
        # integral of c1/sqrt((b-x)(x-a)) + c2 over (a, b) is c1*pi + c2*(b-a)
        b = a + width

        def f(x):
            return c1 / np.sqrt((b - x) * (x - a)) + c2

        got = integrate(f, Interval(a, b))
        want = c1 * math.pi + c2 * width
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    def test_zero_endpoint_stops_where_terms_vanish(self):
        # the terms of a bounded integrand die out long before the subnormal
        # range, so an endpoint at 0 gets a wall like any other
        seen = []

        def f(x):
            seen.extend(x.tolist())
            return np.sqrt(x)

        got = integrate(f, Interval(0.0, 1.0))
        assert got == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert min(seen) > 1e-100

    def test_discontinuous_integrand_fails_to_converge(self):
        # violates the continuity precondition; refinement stalls and the
        # error must carry the running estimate and bound
        with pytest.raises(ConvergenceError) as exc:
            integrate(lambda x: np.where(x < 0.37, 1.0, 0.0), Interval(0.0, 1.0))
        assert exc.value.estimate == pytest.approx(0.37, abs=0.01)
        assert exc.value.error_bound > 0.0

    def test_nonintegrable_singularity_rejected(self):
        # 1/x overflows approaching the zero endpoint, where no
        # representability wall exists
        def f(x):
            with np.errstate(over="ignore"):
                return 1.0 / x

        with pytest.raises(ValueError, match="non-finite"):
            integrate(f, Interval(0.0, 1.0))

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            integrate(lambda x: np.full_like(x, math.nan), Interval(0.0, 1.0))

    @pytest.mark.parametrize("f, iv", [
        (arcsine, Interval(0.0, 2.0)),
        (lambda x: x / np.sqrt((1.8 - x) * (x - 0.2)), Interval(0.2, 1.0)),
        # stalls, so every level up to the finest is evaluated; the interval
        # keeps clear of zero, where distinct subnormal abscissas round together
        (lambda x: np.where(x < 0.87, 1.0, 0.0), Interval(0.5, 1.5)),
    ])
    def test_each_abscissa_evaluated_once(self, f, iv):
        seen = []

        def recording(x):
            seen.extend(x.tolist())
            return f(x)

        try:
            integrate(recording, iv)
        except ConvergenceError:
            pass
        assert len(seen) > 50
        assert len(set(seen)) == len(seen)

    @pytest.mark.parametrize("split", [0.05, 0.3, 0.7, 1.0, 1.3, 1.95])
    def test_reproduces_level_sweeps_bit_for_bit(self, split):
        for f, iv in [(arcsine, Interval(0.0, split)), (arcsine, Interval(split, 2.0)),
                      (lambda x: x / np.sqrt((1.8 - x) * (x - 0.2)),
                       Interval(0.2, 0.2 + 0.8 * split)),
                      (np.sin, Interval(-split, 2.0 * split))]:
            assert integrate(f, iv) == sweep_reference(f, iv)

    @given(a=st.floats(min_value=-1e3, max_value=1e3),
           rel_width=st.floats(min_value=1e-12, max_value=10.0),
           c=st.floats(min_value=0.0, max_value=2.0))
    def test_agrees_with_level_sweeps_to_rounding(self, a, rel_width, c):
        # the wall completion is summed in another order than the
        # reference's, which moves the last bits where it carries a sizable
        # share of the integral: on intervals narrow next to |a|
        b = a + max(abs(a), 1.0) * rel_width

        def f(x):
            return 1.0 / (np.sqrt(b - x) * np.sqrt(x - a)) + c

        try:
            want = sweep_reference(f, Interval(a, b))
        except ConvergenceError:
            return
        assert integrate(f, Interval(a, b)) == pytest.approx(
            want, rel=64 * EPS, abs=0.0)

    def test_result_independent_of_node_table_history(self):
        # a fresh process builds only the levels this call needs; here the
        # stalled integrand has already built every level
        code = ("import numpy as np\n"
                "from rnwarp.calculus import integrate_endpoint_singular\n"
                "print(float(integrate_endpoint_singular("
                "lambda x: x / np.sqrt((1.8 - x) * (x - 0.2)), 0.2, [1.0])[0]).hex())")
        src = os.path.dirname(os.path.dirname(rnwarp.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        fresh = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                               capture_output=True, text=True).stdout.strip()
        with pytest.raises(ConvergenceError):
            integrate(lambda x: np.where(x < 0.37, 1.0, 0.0), Interval(0.0, 1.0))
        here = integrate(lambda x: x / np.sqrt((1.8 - x) * (x - 0.2)), Interval(0.2, 1.0))
        assert here.hex() == fresh

    def test_interval_must_be_ordered(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)


def inverse_sqrt_neg(x):
    return 1.0 / np.sqrt(-x)


class TestBatchedRows:
    """integrate_endpoint_singular on many upper limits: each row as if alone."""

    # (integrand, lower limit, upper limits): ends at 0 (probed nodes
    # inside the wall, below or above), ends away from 0, a smooth
    # integrand, intervals from microscopic to wide
    CASES = [
        (arcsine, 0.0, [2.0, 1.5, 1e-3, 0.3, 1.999, 1e-9, 1.0]),
        (lambda x: 1.0 / np.sqrt(x), 0.0, [1.0, 1e-6, 30.0, 0.5]),
        (inverse_sqrt_neg, -1.0, [-0.5, 0.0, -1e-3, -0.999]),
        (lambda x: x / np.sqrt((1.8 - x) * (x - 0.2)), 0.2, [1.8, 1.0, 0.2000001, 1.79, 0.9]),
        (np.sin, -0.7, [2.1, -0.6, 0.0, 1e3 * EPS, 0.4]),
    ]

    @pytest.mark.parametrize("f, lo, his", CASES)
    def test_each_row_reproduces_its_level_sweep(self, f, lo, his):
        got = integrate_endpoint_singular(f, lo, his)
        want = [sweep_levels(f, Interval(lo, hi)) for hi in his]
        assert got.tolist() == [w for w, _ in want]
        assert len({level for _, level in want}) > 1  # rows converge at different levels

    @pytest.mark.parametrize("f, lo, his", CASES)
    def test_row_independent_of_the_rest_of_the_batch(self, f, lo, his):
        whole = integrate_endpoint_singular(f, lo, his)
        order = np.random.default_rng(1).permutation(len(his))
        shuffled = integrate_endpoint_singular(f, lo, np.array(his)[order])
        assert shuffled.tobytes() == whole[order].tobytes()
        alone = [integrate_endpoint_singular(f, lo, [hi])[0] for hi in his]
        assert np.array(alone).tobytes() == whole.tobytes()

    def test_mixed_tolerance_rows_reproduce_their_sweeps(self):
        # a loose tolerance lets rows stop after the refine-once level or at once
        tol = Tolerance(1e-6, 1e-6)
        his = [2.0, 0.1, 1.0, 1.99999]
        got = integrate_endpoint_singular(arcsine, 0.0, his, tol)
        assert got.tolist() == [sweep_reference(arcsine, Interval(0.0, hi), tol) for hi in his]

    def test_each_row_evaluated_once_per_abscissa(self):
        seen = []

        def recording(x):
            seen.extend(x.tolist())
            return arcsine(x)

        his = [2.0, 1.0, 0.5]
        integrate_endpoint_singular(recording, 0.0, his)
        for hi in his:  # each row's abscissas are its own, whatever the others are
            alone = []
            integrate(lambda x: alone.extend(x.tolist()) or arcsine(x), Interval(0.0, hi))
            assert set(alone) <= set(seen)
        assert len(set(seen)) == len(seen)

    def test_first_failing_row_decides_the_error(self):
        # a row stalls (ConvergenceError), another returns NaN (ValueError):
        # the earlier row's error is raised, as a loop over the rows would
        def f(x):
            return np.where(x > 5.0, np.nan, np.where(x < 0.37, 1.0, 0.0))

        with pytest.raises(ConvergenceError):
            integrate_endpoint_singular(f, 0.0, [0.3, 1.0, 10.0])
        with pytest.raises(ValueError, match="non-finite"):
            integrate_endpoint_singular(f, 0.0, [0.3, 10.0, 1.0])

    @pytest.mark.parametrize("m, q", [(1.0, 0.6), (1.0, 0.0), (2.5, 2.475), (0.3, 0.0)])
    def test_mu_rows_reproduce_their_level_sweeps(self, m, q):
        # the charged integrand walls both ends; at Q = 0 the lower end is
        # r = 0 and its nodes inside the wall are probed
        p = BlackHoleParams(m, q)
        hp = horizons(p)
        rp, rm = hp.r_plus, hp.r_minus
        if rm > 0.0:
            def f(x):
                return x / np.sqrt((rp - x) * (x - rm))
        else:
            def f(x):
                return np.sqrt(x / (rp - x))
        rs = interior_grid(p, 8) + [rp, rm + 1e-3 * hp.width, rp - 1e-7 * hp.width]
        want = [sweep_levels(f, Interval(rm, r)) for r in rs]
        assert mu_of_r(p, np.array(rs)).tolist() == [w for w, _ in want]
        assert len({level for _, level in want}) > 1

    @pytest.mark.parametrize("his", [[], [[1.0]], [1.0, 0.0], [1.0, math.nan]])
    def test_limits_must_be_a_vector_above_lo(self, his):
        if len(his) == 0:
            assert integrate_endpoint_singular(arcsine, 0.0, his).shape == (0,)
            return
        with pytest.raises(ValueError, match="lo < hi"):
            integrate_endpoint_singular(arcsine, 0.0, his)

    def test_integrand_must_be_elementwise(self):
        with pytest.raises(ValueError, match="shape"):
            integrate_endpoint_singular(lambda x: 1.0, 0.0, [1.0])


class TestFindRoot:
    def test_sqrt_two(self):
        got = find_root_bracketed(lambda x: x * x - 2.0, Interval(0.0, 2.0))
        assert got == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_odd_function(self):
        got = find_root_bracketed(lambda x: x, Interval(-1.0, 1.0))
        assert abs(got) <= 1e-10

    def test_cosine(self):
        got = find_root_bracketed(math.cos, Interval(1.0, 2.0))
        assert got == pytest.approx(math.pi / 2.0, abs=1e-9)

    def test_root_at_endpoint(self):
        assert find_root_bracketed(lambda x: x, Interval(0.0, 1.0)) == 0.0

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root_bracketed(lambda x: x * x + 1.0, Interval(-1.0, 1.0))

    @given(st.floats(min_value=-5.0, max_value=5.0),
           st.floats(min_value=0.1, max_value=3.0),
           st.floats(min_value=0.1, max_value=3.0))
    def test_result_inside_bracket(self, root, below, above):
        lo, hi = root - below, root + above

        def g(x):
            return (x - root) * (1.0 + x * x)

        got = find_root_bracketed(g, Interval(lo, hi))
        assert lo <= got <= hi
        assert got == pytest.approx(root, abs=1e-8 * max(1.0, abs(root)))

    @pytest.mark.parametrize("g, root", [
        (lambda x: x - 1.0, 1.0),
        (lambda x: math.atan(x - 3.0), 3.0),
    ])
    def test_widest_brackets(self, g, root):
        # about a thousand halvings from 1e300 down to the tolerance
        got = find_root_bracketed(g, Interval(-1e300, 1e300))
        assert got == pytest.approx(root, abs=1e-9)

    @pytest.mark.parametrize("fa, fb, want", [
        (-1.0, 2.0, "a"), (-2.0, 1.0, "b"), (-1.0, 1.0, "b"),
    ], ids=["lower_nearer_zero", "upper_nearer_zero", "tie"])
    def test_bracket_within_tolerance_returns_an_end(self, fa, fb, want):
        # a bracket whose half-width is already within the tolerance is
        # not split: the end with the smaller |g| (the upper one on a tie)
        # is returned without another call of g
        a = 1.0
        b = a + calculus._xtol(a, DEFAULT_TOL)
        calls = []

        def g(x):
            calls.append(x)
            return fa if x == a else fb

        assert calculus._bisect(g, a, fa, b, fb, DEFAULT_TOL) == {"a": a, "b": b}[want]
        assert calls == []

    def test_first_window_step_needs_no_bisection(self):
        # the first window step from a guess just below the root brackets
        # it within the tolerance; its end nearer the root comes back with
        # no further call of g
        root = 1.0
        guess = root - 0.75 * calculus._xtol(root, DEFAULT_TOL)
        calls = []

        def g(x):
            calls.append(x)
            return 1e6 * (x - root)

        got = find_root_bracketed(g, Interval(0.0, 2.0), guess=guess)
        assert calls == [guess, guess + calculus._xtol(guess, DEFAULT_TOL)]
        assert got == calls[1]

    @pytest.mark.parametrize("root, guess", [(0.3, 0.9), (0.9, 0.3)],
                             ids=["root_below", "root_above"])
    def test_increasing_g_is_windowed_on_the_root_side_only(self, root, guess):
        # far enough from the root for a gallop of many steps, every one of
        # them on the side where an increasing g has its root
        calls = []

        def g(x):
            calls.append(x)
            return x - root

        got = find_root_bracketed(g, Interval(0.0, 2.0), guess=guess)
        assert got == pytest.approx(root, abs=1e-9)
        step = math.copysign(calculus._xtol(guess, DEFAULT_TOL), root - guess)
        assert calls[1:7] == [guess + step * 8.0 ** k for k in range(6)]
        assert all((x < guess) == (root < guess) for x in calls[1:])

    def test_decreasing_g_is_found_after_the_first_side_ends(self):
        # a decreasing g has its root on the side an increasing one has not:
        # the first side steps out to its interval end, then the other one
        # starts again from the guess
        calls = []

        def g(x):
            calls.append(x)
            return 1.0 - x

        got = find_root_bracketed(g, Interval(0.0, 2.0), guess=0.5)
        assert got == pytest.approx(1.0, abs=1e-9)
        first_above = next(i for i, x in enumerate(calls) if x > 0.5)
        assert calls[first_above - 1] == 0.0
        assert all(x < 0.5 for x in calls[1:first_above])
        assert calls[first_above] == 0.5 + calculus._xtol(0.5, DEFAULT_TOL)

    def test_steep_edges(self):
        # derivative blows up at both bracket ends, as for the coordinate map
        def g(x):
            return math.asin(x) - 0.25

        got = find_root_bracketed(g, Interval(-1.0, 1.0))
        assert got == pytest.approx(math.sin(0.25), abs=1e-9)


# (g, interval, root): increasing, decreasing, and steep at both ends
GUESS_CASES = [
    (lambda x: x * x - 2.0, Interval(0.0, 2.0), math.sqrt(2.0)),
    (math.cos, Interval(1.0, 2.0), 0.5 * math.pi),
    (lambda x: math.asin(x) - 0.25, Interval(-1.0, 1.0), math.sin(0.25)),
    (lambda x: 0.25 - math.asin(x), Interval(-1.0, 1.0), math.sin(0.25)),
]


class TestGuess:
    def test_accepted_guess_is_returned_exactly(self):
        calls = []

        def g(x):
            calls.append(x)
            return x * x - 2.0

        guess = math.sqrt(2.0)  # g(guess) is a rounding error, far below abs_tol
        assert find_root_bracketed(g, Interval(0.0, 2.0), guess=guess) == guess
        assert calls == [guess]

    @pytest.mark.parametrize("g, iv, root", GUESS_CASES)
    @pytest.mark.parametrize("where", ["lo", "hi", "below", "above", "far_below", "far_above"])
    def test_far_or_one_sided_guess_meets_the_same_tolerance(self, g, iv, root, where):
        guess = {"lo": iv.lo, "hi": iv.hi, "below": root - 1e-6, "above": root + 1e-6,
                 "far_below": 0.9 * iv.lo + 0.1 * root,
                 "far_above": 0.9 * iv.hi + 0.1 * root}[where]
        plain = find_root_bracketed(g, iv)
        got = find_root_bracketed(g, iv, guess=guess)
        assert plain == pytest.approx(root, abs=1e-9)
        assert got == pytest.approx(root, abs=1e-9)
        assert iv.lo <= got <= iv.hi

    @pytest.mark.parametrize("guess", [-1.0, -0.2, 0.0, 0.7, 1.0])
    def test_no_sign_change_anywhere_raises(self, guess):
        with pytest.raises(BracketError):
            find_root_bracketed(lambda x: x * x + 1.0, Interval(-1.0, 1.0), guess=guess)

    @pytest.mark.parametrize("guess", [-1.5, 2.0, math.nan])
    def test_guess_outside_the_interval_rejected(self, guess):
        with pytest.raises(ValueError, match="guess"):
            find_root_bracketed(lambda x: x, Interval(-1.0, 1.0), guess=guess)

    @given(m=st.floats(min_value=0.1, max_value=10.0),
           q_over_m=st.floats(min_value=0.0, max_value=0.999),
           frac=st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=40)
    def test_r_of_mu_round_trip_within_the_verify_bound(self, m, q_over_m, frac):
        # the mu range of verify's round-trip samples; r_of_mu starts from
        # the Kepler inverse and the quadrature decides the root
        p = BlackHoleParams(m, m * q_over_m)
        mu_max = m * math.pi
        mu = frac * mu_max
        assert abs(mu_of_r(p, r_of_mu(p, mu)) - mu) <= THRESHOLDS["roundtrip_inverse"] * mu_max


class TestDerivative:
    def test_sin_at_zero(self):
        assert derivative(math.sin, 0.0, EPS ** (1.0 / 3.0)) == pytest.approx(1.0, abs=1e-9)

    def test_exp_first(self):
        assert derivative(math.exp, 1.0, EPS ** (1.0 / 3.0)) == pytest.approx(math.e, abs=1e-8)

    @given(st.floats(min_value=-1e3, max_value=1e3),
           st.floats(min_value=-1e3, max_value=1e3))
    def test_linear_exact(self, a, b):
        # no truncation error for a line, so a wide step drowns the roundoff
        got = derivative(lambda x: a * x + b, 0.7, h=0.5)
        assert abs(got - a) <= 1e-10 * max(abs(a), 1.0)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            derivative(math.sin, 0.0, h=0.0)


class TestTolerance:
    def test_defaults(self):
        assert DEFAULT_TOL == Tolerance(1e-10, 1e-10)

    @pytest.mark.parametrize("kwargs", [
        {"abs_tol": 0.0}, {"rel_tol": -1.0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            Tolerance(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"abs_tol": math.inf}, {"rel_tol": math.inf}, {"abs_tol": math.nan},
        {"rel_tol": math.nan}, {"abs_tol": -math.inf},
    ])
    def test_nonfinite_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            Tolerance(**kwargs)
