import math
import os
import re
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rnwarp
from rnwarp import calculus
from rnwarp.calculus import (DEFAULT_TOL, EPS, Interval, Tolerance, derivative,
                             find_root_bracketed, integrate_endpoint_singular)
from rnwarp.errors import BracketError, ConvergenceError
from rnwarp.reissner_nordstrom import BlackHoleParams, mu_of_r, r_of_mu
from rnwarp.verify import THRESHOLDS, run_verification


def arcsine(a, b):
    """The regular part 1 of 1/sqrt((x - s_lo)(s_hi - x)): its integral over (s_lo, s_hi) is pi."""
    return np.ones_like(a)


def flat(a, b):
    """The regular part of a constant integrand 1: it cancels the weight 1/sqrt(ab)."""
    return np.sqrt(a) * np.sqrt(b)


def integrate(f, iv, beyond=(0.0, 0.0), tol=DEFAULT_TOL):
    """The quadrature of f over one interval: a batch of one row."""
    return float(integrate_endpoint_singular(f, iv.lo, [iv.hi], *beyond, tol)[0])


def integrate_halves(f, lo, hi, beyond_lo=0.0, beyond_hi=0.0, tol=DEFAULT_TOL):
    """The quadrature of f over rows (lo, hi) singular at or near both ends.

    Each row is cut at its midpoint, the lower halves and then the upper ones
    integrated as one batch, and the halves added. Each half has the other's
    width more room past its inner end, so its farther singular point lies at
    least its own width past it. A row one ulp wide, whose midpoint rounds
    onto an end, has no halves and is integrated whole.
    """
    lo, hi, beyond_lo, beyond_hi = np.broadcast_arrays(lo, hi, beyond_lo, beyond_hi)
    mid = 0.5 * lo + 0.5 * hi
    cut = (lo < mid) & (mid < hi)
    lower_hi = np.where(cut, mid, hi)
    rows = integrate_endpoint_singular(
        f, np.concatenate([lo, mid[cut]]), np.concatenate([lower_hi, hi[cut]]),
        np.concatenate([beyond_lo, (beyond_lo + (mid - lo))[cut]]),
        np.concatenate([beyond_hi + (hi - lower_hi), beyond_hi[cut]]), tol)
    out = rows[:len(lo)]
    out[cut] += rows[len(lo):]
    return out


def integrate_both_ends(f, iv, beyond=(0.0, 0.0), tol=DEFAULT_TOL):
    """integrate_halves over one interval: a batch of its two halves."""
    return float(integrate_halves(f, iv.lo, [iv.hi], *beyond, tol)[0])


def recorded(f, seen):
    """f, appending each call's distance arrays to seen."""
    def g(a, b):
        seen.append((a.copy(), b.copy()))
        return f(a, b)
    return g


def pairs(seen):
    """The distance pairs of the recorded calls, as one sorted structured array."""
    a, b = (np.concatenate(d) if d else np.empty(0) for d in zip(*seen))
    out = np.empty(len(a), dtype=[("a", float), ("b", float)])
    out["a"], out["b"] = a, b
    return np.sort(out)


def ulps(got, want):
    return abs(got - want) / math.ulp(want)


def gauss_20(h):
    """The 20-point Gauss-Legendre sum of h over [0, 1], from the quadrature's own table."""
    nodes, weights = calculus._mirrored(calculus._GAUSS_20)
    return math.fsum(0.5 * w * h(t) for t, w in zip(nodes, weights))


def gauss_legendre_40_digits(n):
    """The nodes (1 - u)/2 < 1/2 of the n-point rule, increasing, and their weights, in mpmath."""
    with mpmath.workdps(40):
        nodes, weights = [], []
        for k in range(1, n // 2 + 1):
            guess = mpmath.cos(mpmath.pi * (k - mpmath.mpf(1) / 4) / (n + mpmath.mpf(1) / 2))
            u = mpmath.findroot(lambda x: mpmath.legendre(n, x), guess)
            slope = n * (mpmath.legendre(n - 1, u) - u * mpmath.legendre(n, u)) / (1 - u * u)
            nodes.append(float((1 - u) / 2))
            weights.append(float(2 / ((1 - u * u) * slope * slope)))
        return tuple(nodes), tuple(weights)


class TestIntegrate:
    @pytest.mark.parametrize("n, table", [(20, calculus._GAUSS_20), (12, calculus._GAUSS_12)])
    def test_gauss_tables_are_the_40_digit_rules_rounded(self, n, table):
        # numpy's leggauss weights are up to 353 ulps off at n = 20, enough
        # to move mu at r = m by 17 ulps; each literal here is the double
        # nearest its 40-digit value
        assert gauss_legendre_40_digits(n) == table
        nodes, weights = table
        assert sorted(nodes) == list(nodes) and nodes[-1] < 0.5
        assert abs(2.0 * math.fsum(weights) - 2.0) <= 4 * EPS

    def test_arcsine_kernel(self):
        # singular at both ends, so taken in halves: the integral is pi
        assert ulps(integrate_both_ends(arcsine, Interval(0.0, 2.0)), math.pi) <= 1.0

    def test_weighted_arcsine_kernel(self):
        # x/sqrt((2 - x) x) over (0, 2): x = 1 - cos(phi) turns it into
        # (1 - cos phi) d phi over (0, pi), which integrates to pi exactly
        assert ulps(integrate_both_ends(lambda a, b: a, Interval(0.0, 2.0)), math.pi) <= 1.0

    def test_a_row_singular_at_both_ends_fails_closed(self):
        # handed over whole, arcsine over (0, 2) breaks the precondition:
        # after x = 2*tau^2 its regular part is 2/sqrt(1 - tau^2), singular at
        # tau = 1, and the two sums disagree. The error carries the 20-point
        # sum, ~0.06 short of pi
        with pytest.raises(ConvergenceError, match="20- and 12-point sums differ") as exc:
            integrate(arcsine, Interval(0.0, 2.0))
        want = gauss_20(lambda t: 2.0 / math.sqrt(1.0 - t * t))
        assert ulps(exc.value.estimate, want) <= 4.0
        assert exc.value.error_bound > 1e-2

    def test_constant(self):
        assert ulps(integrate(flat, Interval(0.0, 1.0)), 1.0) <= 1.0

    def test_single_sided_singularity(self):
        # integral of 1/sqrt(x) over (0, 1) is 2
        assert ulps(integrate(lambda a, b: np.sqrt(b), Interval(0.0, 1.0)), 2.0) <= 1.0

    def test_smooth_integrand(self):
        got = integrate(lambda a, b: np.sin(a) * flat(a, b), Interval(0.0, math.pi))
        assert ulps(got, 2.0) <= 2.0

    @pytest.mark.parametrize("order, want", [(-0.5, 2.0), (0.5, 2.0 / 3.0), (1.5, 0.4)])
    def test_half_integer_orders_at_an_end(self, order, want):
        # x^order over (0, 1): the regular part x^(order + 1/2) sqrt(b) is
        # analytic in the substituted variable (measured 0, 1 and 0 ulps)
        got = integrate(lambda a, b: a ** (order + 0.5) * np.sqrt(b), Interval(0.0, 1.0))
        assert ulps(got, want) <= 2.0

    @pytest.mark.parametrize("order", [-0.75, -1.0])
    def test_other_orders_at_an_end_are_refused(self, order):
        # x^-3/4 and 1/x leave x^-1/4 and x^-1/2 in the regular part, where
        # the two Gauss sums disagree; one call of f decides it
        calls = []
        with pytest.raises(ConvergenceError, match="20- and 12-point sums differ"):
            integrate(recorded(lambda a, b: a ** (order + 0.5) * np.sqrt(b), calls),
                      Interval(0.0, 1.0))
        assert len(calls) == 1

    def test_deterministic(self):
        vals = {integrate_both_ends(arcsine, Interval(0.0, 2.0)) for _ in range(3)}
        assert len(vals) == 1

    @given(st.floats(min_value=0.05, max_value=1.95))
    @settings(max_examples=20)
    def test_additive_over_subintervals(self, split):
        # each part keeps the other end's singular point, past its own end
        whole = integrate_both_ends(arcsine, Interval(0.0, 2.0))
        left = integrate_both_ends(arcsine, Interval(0.0, split), (0.0, 2.0 - split))
        right = integrate_both_ends(arcsine, Interval(split, 2.0), (split, 0.0))
        assert abs(left + right - whole) <= 4 * math.ulp(math.pi)

    @given(a=st.floats(min_value=-3.0, max_value=1.0),
           width=st.floats(min_value=0.2, max_value=5.0),
           c1=st.floats(min_value=-2.0, max_value=2.0),
           c2=st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=25)
    def test_shifted_arcsine_family(self, a, width, c1, c2):
        # integral of c1/sqrt((b-x)(x-a)) + c2 over (a, b) is c1*pi + c2*(b-a)
        b = a + width

        def f(da, db):
            return c1 + c2 * flat(da, db)

        got = integrate_both_ends(f, Interval(a, b))
        want = c1 * math.pi + c2 * (b - a)
        assert abs(got - want) <= 8 * EPS * max(1.0, abs(c1) * math.pi + abs(c2) * width)

    @given(s=st.floats(min_value=-1.0, max_value=1.0),
           gaps=st.lists(st.floats(min_value=1e-300, max_value=10.0), min_size=3, max_size=3))
    @settings(max_examples=40)
    def test_singular_points_past_both_ends(self, s, gaps):
        # dx/sqrt((x - s)(t - x)) over (lo, hi), s <= lo < hi <= t, is
        # asin((2x - s - t)/(t - s)) between lo and hi; here the singular
        # points sit from 1e-300 to 10 past the ends. The substitution from
        # the nearer one resolves it at any offset, and taking the row in
        # halves keeps the farther one a width away, so every row is good
        # to a few ulps
        lo_gap, width, hi_gap = gaps
        lo = s + lo_gap
        hi = lo + width
        t = hi + hi_gap
        if not (s < lo < hi < t):
            return
        beyond = (lo - s, t - hi)
        got = integrate_both_ends(arcsine, Interval(lo, hi), beyond)
        # the exact integral between the singular points the quadrature sees,
        # lo - (lo - s) and hi + (t - hi) as the doubles pass them, in
        # enough digits to tell gaps of 1e-300 apart
        with mpmath.workdps(700):
            s_ = mpmath.mpf(lo) - mpmath.mpf(beyond[0])
            t_ = mpmath.mpf(hi) + mpmath.mpf(beyond[1])

            def angle(x):
                return mpmath.asin((2 * mpmath.mpf(x) - s_ - t_) / (t_ - s_))

            want = float(angle(hi) - angle(lo))
        assert abs(got - want) <= 8 * EPS * want

    def test_zero_width_rounding_leaves_the_row_at_zero(self):
        # hi - lo = 5e-324: every node's distance from a singular point
        # rounds to 0, so no node reaches f and the row integrates to 0
        calls = []
        got = integrate_endpoint_singular(recorded(arcsine, calls), 0.0, [5e-324])
        assert got.tolist() == [0.0]
        assert len(pairs(calls)) == 0

    def test_discontinuous_integrand_fails_to_converge(self):
        # violates the analyticity precondition; the two sums disagree and
        # the error must carry the 20-point estimate and their difference.
        # After x = tau^2 the integrand is 2*tau below tau^2 = 0.37, 0 above
        with pytest.raises(ConvergenceError) as exc:
            integrate(lambda a, b: np.where(a < 0.37, 1.0, 0.0) * flat(a, b), Interval(0.0, 1.0))
        assert ulps(exc.value.estimate, gauss_20(lambda t: 2.0 * t * (t * t < 0.37))) <= 4.0
        assert exc.value.error_bound > 1e-2

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            integrate(lambda a, b: np.full_like(a, math.nan), Interval(0.0, 1.0))

    @pytest.mark.parametrize("quad, rows, f, iv, beyond", [
        (integrate_both_ends, 2, arcsine, Interval(0.0, 2.0), (0.0, 0.0)),
        (integrate_both_ends, 2, lambda a, b: 0.2 + a, Interval(0.2, 1.8), (0.0, 0.0)),
        (integrate_both_ends, 2, lambda a, b: np.sqrt(b) + np.cos(a) * flat(a, b),
         Interval(0.0, 3.0), (0.0, 0.0)),
        # a near singular point 1e-300 past the lower end, the farther one
        # a width past the upper end: one row, whole
        (integrate, 1, arcsine, Interval(0.0, 1.0), (1e-300, 1.0)),
    ])
    def test_each_distance_pair_evaluated_once(self, quad, rows, f, iv, beyond):
        # 32 nodes a row (20 + 12, no node shared), the two halves of a row
        # singular at both ends sharing none either
        seen = []
        quad(recorded(f, seen), iv, beyond)
        got = pairs(seen)
        assert len(got) == 32 * rows
        assert len(np.unique(got)) == len(got)
        assert (got["a"] > 0.0).all() and (got["b"] > 0.0).all()
        assert (got["a"] + got["b"] <= (iv.hi - iv.lo + sum(beyond)) * (1.0 + 4 * EPS)).all()

    def test_interval_must_be_ordered(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)


def kepler(x):
    """The coordinate map's antiderivative m*phi - c*sin(phi) at m = 1, c = 0.8."""
    phi = 2.0 * math.asin(math.sqrt((x - 0.2) / 1.6))
    return phi - 0.8 * math.sin(phi)


class TestBatchedRows:
    """integrate_endpoint_singular on many intervals: each row as if alone."""

    # (regular part, lower limit, upper limits, the singular points below
    # and above every row, the antiderivative): an integrand singular at
    # both ends, at the lower end alone, at an upper end of 0, the
    # coordinate map's integrand, and a smooth one; intervals from
    # microscopic to wide. Some rows reach both singular points, so every
    # row is taken in halves
    CASES = [
        (arcsine, 0.0, [2.0, 1.5, 1e-3, 0.3, 1.999, 1e-9, 1.0], 0.0, 2.0,
         lambda x: 2.0 * math.asin(math.sqrt(0.5 * x))),
        (lambda a, b: np.sqrt(b), 0.0, [1.0, 1e-6, 30.0, 0.5], 0.0, 30.0,
         lambda x: 2.0 * math.sqrt(x)),
        (lambda a, b: np.sqrt(a), -1.0, [-0.5, 0.0, -1e-3, -0.999], -1.0, 0.0,
         lambda x: -2.0 * math.sqrt(-x)),
        (lambda a, b: 0.2 + a, 0.2, [1.8, 1.0, 0.2000001, 1.79, 0.9], 0.2, 1.8,
         lambda x: kepler(x)),
        (lambda a, b: np.sin(a - 0.7) * flat(a, b), -0.7, [2.1, -0.6, 0.0, 1e3 * EPS, 0.4],
         -0.7, 2.1, lambda x: -math.cos(x)),
    ]

    @staticmethod
    def batch(f, lo, his, s_lo, s_hi, tol=DEFAULT_TOL):
        his = np.array(his)
        return integrate_halves(f, lo, his, lo - s_lo, s_hi - his, tol)

    @pytest.mark.parametrize("f, lo, his, s_lo, s_hi, antiderivative", CASES)
    def test_each_row_within_budget_of_its_antiderivative(self, f, lo, his, s_lo, s_hi,
                                                          antiderivative):
        got = self.batch(f, lo, his, s_lo, s_hi)
        for hi, value in zip(his, got.tolist()):
            want = antiderivative(hi) - antiderivative(lo)
            assert abs(value - want) <= 8 * EPS * max(1.0, abs(want)), hi

    @pytest.mark.parametrize("f, lo, his, s_lo, s_hi, antiderivative", CASES)
    def test_row_independent_of_the_rest_of_the_batch(self, f, lo, his, s_lo, s_hi,
                                                      antiderivative):
        his = np.array(his)
        seen = []
        whole = self.batch(recorded(f, seen), lo, his, s_lo, s_hi)
        order = np.random.default_rng(1).permutation(len(his))
        shuffled = self.batch(f, lo, his[order], s_lo, s_hi)
        assert shuffled.tobytes() == whole[order].tobytes()
        alone, seen_alone = [], []
        for hi in his:
            alone.append(self.batch(recorded(f, seen_alone), lo, [hi], s_lo, s_hi)[0])
        assert np.array(alone).tobytes() == whole.tobytes()
        # the batch evaluates the multiset union of its rows' own nodes
        assert pairs(seen).tobytes() == pairs(seen_alone).tobytes()

    def test_verify_batch_evaluates_exactly_its_rows_nodes(self, monkeypatch):
        # verify's one call of 166 rows: 64 grid points, r_plus, 100
        # round-trip samples and the row of F(m)
        calls = []

        def recording(*args):
            calls.append(args)
            return integrate_endpoint_singular(*args)

        monkeypatch.setattr(calculus, "integrate_endpoint_singular", recording)
        run_verification(BlackHoleParams(1.0, 0.6), 64)
        (f, lo, hi, beyond_lo, beyond_hi, tol), = calls
        assert len(hi) == 166
        seen, seen_alone = [], []
        integrate_endpoint_singular(recorded(f, seen), lo, hi, beyond_lo, beyond_hi, tol)
        for row in zip(lo, hi, beyond_lo, beyond_hi):
            integrate_endpoint_singular(recorded(f, seen_alone), *([v] for v in row), tol)
        got = pairs(seen)
        assert len(seen) == 1 and len(got) == 166 * 32
        assert got.tobytes() == pairs(seen_alone).tobytes()

    def test_first_failing_row_decides_the_error(self):
        # a row is discontinuous (ConvergenceError), another returns NaN
        # (ValueError): the earlier row's error is raised, as a loop over
        # the rows would. Each row's upper singular point lies a width past it
        def f(a, b):
            return np.where(a > 5.0, np.nan, np.where(a < 0.37, 1.0, 0.0))

        with pytest.raises(ConvergenceError):
            integrate_endpoint_singular(f, 0.0, [0.3, 1.0, 10.0], 0.0, [0.3, 1.0, 10.0])
        with pytest.raises(ValueError, match="non-finite"):
            integrate_endpoint_singular(f, 0.0, [0.3, 10.0, 1.0], 0.0, [0.3, 10.0, 1.0])

    def test_a_failing_row_raises_what_it_raises_alone(self):
        # row 1 has a step at a = 0.37 and fails the check; the error the
        # batch raises carries the 20-point value and the difference of
        # row 1 alone, bit for bit, whatever rows come before it
        def f(a, b):
            return np.where(a < 0.37, 1.0, 0.0)

        with pytest.raises(ConvergenceError) as alone:
            integrate_endpoint_singular(f, 0.0, [1.0], 0.0, 1.0)
        for his in ([0.3, 1.0], [0.3, 1.0, 0.2], [0.1, 0.3, 1.0]):
            with pytest.raises(ConvergenceError) as batch:
                integrate_endpoint_singular(f, 0.0, his, 0.0, his)
            assert (batch.value.estimate, batch.value.error_bound) == (
                alone.value.estimate, alone.value.error_bound), his

    @pytest.mark.parametrize("f, lo, his, s_lo, s_hi, antiderivative", CASES)
    def test_one_call_of_f_per_batch(self, f, lo, his, s_lo, s_hi, antiderivative):
        # f sees 32 nodes (20 + 12) of each row, here two halves a row, all
        # in one call
        calls = []
        self.batch(recorded(f, calls), lo, his, s_lo, s_hi)
        assert len(calls) == 1
        assert len(calls[0][0]) == 32 * 2 * len(his)

    @staticmethod
    def lone_nodes(hi):
        """The distance pairs of the row (0, hi) alone, its upper singular point a width past,
        by node."""
        seen = []
        integrate_endpoint_singular(recorded(arcsine, seen), 0.0, [hi], 0.0, hi)
        (a, b), = seen
        return [(float(x), float(y)) for x, y in zip(a, b)]

    @pytest.mark.parametrize("bad", [
        [(2, 0), (1, 5)],     # an earlier row comes first
        [(1, 25), (1, 3)],    # within a row the 20-point rule's nodes come first
        [(1, 31), (1, 30), (1, 19)],
        [(2, 3), (1, 28)],    # a row's 12-point nodes before a later row's 20-point ones
    ])
    def test_first_bad_node_in_row_node_order_is_raised(self, bad):
        # rows are non-finite at several (row, node) pairs: the error names
        # the first bad node in (row, node) order, and no RuntimeWarning is
        # raised on the way
        his = [1.5, 2.0, 1.7]
        pairs_bad = [self.lone_nodes(his[row])[k] for row, k in bad]
        first = pairs_bad[bad.index(min(bad))]

        def f(a, b):
            out = arcsine(a, b)
            for k, (bad_a, bad_b) in enumerate(pairs_bad):
                out = np.where((a == bad_a) & (b == bad_b), math.inf if k % 2 else math.nan, out)
            return out

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError) as exc:
                integrate_endpoint_singular(f, 0.0, his, 0.0, his)
        assert not caught
        value = math.inf if pairs_bad.index(first) % 2 else math.nan
        assert str(exc.value) == (f"integrand returned non-finite value {value!r} at distances "
                                  f"a={first[0]!r}, b={first[1]!r} from the singular points")

    @pytest.mark.parametrize("lo, his, limit", [(0.0, [np.inf], "hi[0]=inf"),
                                                (0.0, [1.0, 2.0, np.inf], "hi[2]=inf"),
                                                (-np.inf, [1.0], "lo[0]=-inf")])
    def test_infinite_limits_rejected(self, lo, his, limit):
        # lo < hi holds for an infinite limit; the rows must not reach f
        def f(a, b):
            raise AssertionError("f called")

        with pytest.raises(ValueError, match=re.escape(limit)):
            integrate_endpoint_singular(f, lo, his)

    def test_overflowing_width_rejected(self):
        # hi - lo overflows although both limits are finite; the rows must not reach f
        def f(a, b):
            raise AssertionError("f called")

        with pytest.raises(ValueError, match=r"interval width overflows: hi\[0\] - lo\[0\]"):
            integrate_endpoint_singular(f, -1e308, [1e308])

    @pytest.mark.parametrize("beyond", [-1.0, math.inf, math.nan])
    def test_offsets_must_be_finite_and_nonnegative(self, beyond):
        def f(a, b):
            raise AssertionError("f called")

        for offsets in ((beyond, 0.0), (0.0, beyond)):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                integrate_endpoint_singular(f, 0.0, [1.0], *offsets)

    @pytest.mark.parametrize("his, beyond_hi", [([1.0], 0.0), ([0.5, 1.0], [1e6, 0.0])])
    def test_overflowing_sum_fails_its_row(self, his, beyond_hi):
        # f is finite, but the integral over (0, 1), pi*1e308, leaves the
        # double range: the row fails by name, with no RuntimeWarning on the
        # way even where warnings are errors; the row before it, with its
        # upper singular point 1e6 away, integrates to ~1e305
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    "quadrature sum overflows on the interval (0.0, 1.0)")):
                integrate_endpoint_singular(lambda a, b: np.full(a.shape, 1e308), 0.0, his,
                                            0.0, beyond_hi)

    def test_a_row_one_subnormal_wide_beside_a_wide_one(self):
        # hi - lo = 5e-324 leaves the row no node; each row gets its lone
        # result, with no RuntimeWarning on the way even where warnings are
        # errors
        def f(a, b):
            return np.cos(a) * flat(a, b)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = integrate_endpoint_singular(f, 0.0, [2.0, 5e-324])
            alone = [integrate_endpoint_singular(f, 0.0, [hi])[0] for hi in (2.0, 5e-324)]
        assert got.tolist() == alone
        assert ulps(got[0], math.sin(2.0)) <= 2.0 and got[1] == 0.0

    @pytest.mark.parametrize("lo, his", [(0.0, []), (0.0, [[1.0]]), (0.0, [1.0, 0.0]),
                                         (0.0, [1.0, math.nan]), ([0.0, 2.0], [1.0, 1.0])])
    def test_limits_must_be_a_vector_above_lo(self, lo, his):
        if len(his) == 0:
            assert integrate_endpoint_singular(arcsine, lo, his).shape == (0,)
            return
        with pytest.raises(ValueError, match="lo < hi"):
            integrate_endpoint_singular(arcsine, lo, his)

    def test_limits_and_offsets_must_be_floats_of_one_shape(self):
        # a tolerance passed where the offsets go is refused, not read as one
        with pytest.raises(ValueError, match="floats of one shape"):
            integrate_endpoint_singular(arcsine, 0.0, [1.0], DEFAULT_TOL)
        with pytest.raises(ValueError, match="floats of one shape"):
            integrate_endpoint_singular(arcsine, 0.0, [1.0, 2.0], [0.0, 0.0, 0.0])

    def test_integrand_must_be_elementwise(self):
        with pytest.raises(ValueError, match="shape"):
            integrate_endpoint_singular(lambda a, b: 1.0, 0.0, [1.0])


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
