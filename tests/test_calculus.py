import math
import os
import re
import subprocess
import sys
import warnings

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
from rnwarp.verify import THRESHOLDS, run_verification


def arcsine(x):
    return 1.0 / np.sqrt(x * (2.0 - x))


def integrate(f, iv, singular_hi=True, tol=DEFAULT_TOL):
    """The quadrature of f over one interval: a batch of one row."""
    return float(integrate_endpoint_singular(f, iv.lo, [iv.hi], singular_hi, tol)[0])


def sweep_level(f, iv, level, sides):
    """One tanh-sinh level's new nodes swept from scratch: every node's
    transcendentals recomputed, f called at every node, and the trapezoid
    terms summed by increasing t, the hi side's and then the lo side's.
    Returns that sum; updates each side's completion weight and innermost
    node."""
    pi_2 = 0.5 * math.pi
    hs = 0.5 * (iv.hi - iv.lo)
    h = 2.0 ** (-level)
    for side in sides:
        side["open"] = True
        side["terms"] = []
    j = 1
    while True:
        t = j * h
        es = math.exp(-pi_2 * math.sinh(t))
        q = es * es
        d = 2.0 * hs * (q / (1.0 + q))
        w = hs * pi_2 * (math.cosh(t) * 4.0 * q / ((1.0 + q) * (1.0 + q)))
        if w == 0.0 and d == 0.0:
            level_sum = 0.0
            for side in sides:
                for term in side["terms"]:
                    level_sum += term
            return level_sum
        wk = pi_2 * math.cosh(t) * 2.0 * math.sqrt(2.0 * hs) * es / (1.0 + q) ** 1.5
        for side in sides:
            # the side stops at the first node inside the wall or on the end
            end = side["end"]
            x = end + side["sign"] * d
            if side["open"] and x != end and d > side["dmin"]:
                fx = f(x)
                side["terms"].append(w * fx)
                if d < side["d"]:
                    side["d"], side["g"] = d, fx * math.sqrt(d)
            else:
                side["open"] = False
            if not side["open"] and side["walled"]:
                side["comp"] += wk
        j += 1 if level == 0 else 2


def sweep_levels(f, iv, singular_hi=True, tol=DEFAULT_TOL):
    """sweep_level level by level into a running total, under the
    convergence rule of integrate_endpoint_singular: the estimate and the
    finest level it took. The reference that integrate_endpoint_singular
    must reproduce. The lower end and a singular or zero upper end are
    walled; a regular upper end is swept until abscissas round onto it."""
    lo, hi = iv.lo, iv.hi
    hs = 0.5 * (hi - lo)
    walled_hi = singular_hi or hi == 0.0
    sides = [{"end": hi, "sign": -1.0, "walled": walled_hi,
              "dmin": min(16384.0 * EPS * (abs(hi) if hi != 0.0 else hs), 0.05 * hs)
              if walled_hi else 0.0},
             {"end": lo, "sign": 1.0, "walled": True,
              "dmin": min(16384.0 * EPS * (abs(lo) if lo != 0.0 else hs), 0.05 * hs)}]
    for side in sides:
        side.update(comp=0.0, g=0.0, d=math.inf)
    total = 0.5 * math.pi * hs * f(lo + hs)
    prev = math.nan
    refine_once = False
    for level in range(13):
        total += sweep_level(f, iv, level, sides)
        estimate = 2.0 ** (-level) * (total + sides[0]["comp"] * sides[0]["g"]
                                      + sides[1]["comp"] * sides[1]["g"])
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


def sweep_reference(f, iv, singular_hi=True, tol=DEFAULT_TOL):
    return sweep_levels(f, iv, singular_hi, tol)[0]


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
        got = integrate(np.ones_like, Interval(0.0, 1.0), singular_hi=False)
        assert got == pytest.approx(1.0, abs=1e-11)

    def test_single_sided_singularity(self):
        # integral of 1/sqrt(x) over (0, 1) is 2
        got = integrate(lambda x: 1.0 / np.sqrt(x), Interval(0.0, 1.0), singular_hi=False)
        assert got == pytest.approx(2.0, abs=1e-9)

    def test_smooth_integrand(self):
        got = integrate(np.sin, Interval(0.0, math.pi), singular_hi=False)
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_deterministic(self):
        vals = {integrate(arcsine, Interval(0.0, 2.0)) for _ in range(3)}
        assert len(vals) == 1

    @given(st.floats(min_value=0.05, max_value=1.95))
    @settings(max_examples=20)
    def test_additive_over_subintervals(self, split):
        whole = integrate(arcsine, Interval(0.0, 2.0))
        left = integrate(arcsine, Interval(0.0, split), singular_hi=False)
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
        # an endpoint at 0 gets a wall scaled by the half-span, so no node
        # comes near the subnormal range
        seen = []

        def f(x):
            seen.extend(x.tolist())
            return np.sqrt(x)

        got = integrate(f, Interval(0.0, 1.0), singular_hi=False)
        assert got == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert min(seen) > 1e-100

    def test_discontinuous_integrand_fails_to_converge(self):
        # violates the continuity precondition; refinement stalls and the
        # error must carry the running estimate and bound
        with pytest.raises(ConvergenceError) as exc:
            integrate(lambda x: np.where(x < 0.37, 1.0, 0.0), Interval(0.0, 1.0), False)
        assert exc.value.estimate == pytest.approx(0.37, abs=0.01)
        assert exc.value.error_bound > 0.0

    @pytest.mark.parametrize("pole, iv", [(0.0, Interval(0.0, 1.0)), (0.5, Interval(0.5, 1.5))],
                             ids=["end_at_0", "end_off_0"])
    def test_nonintegrable_singularity_rejected(self, pole, iv):
        # a wall keeps the nodes off a 1/x pole at either kind of end, so
        # the integrand stays finite, and the inverse-square-root completion
        # cannot make the levels agree
        with pytest.raises(ConvergenceError):
            integrate(lambda x: 1.0 / (x - pole), iv, singular_hi=False)

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            integrate(lambda x: np.full_like(x, math.nan), Interval(0.0, 1.0))

    @pytest.mark.parametrize("f, iv", [
        (arcsine, Interval(0.0, 2.0)),
        (lambda x: x / np.sqrt((1.8 - x) * (x - 0.2)), Interval(0.2, 1.0)),
        # stalls, so every level up to the finest is evaluated; the interval
        # keeps clear of zero, where distinct subnormal abscissas round
        # together, and both ends are walled: the finest levels' nodes
        # within a few hundred ulps of an unwalled end round together too
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
        # a wall and completion at a regular end are harmless, so the
        # intervals with a regular upper end are swept both ways
        for f, iv in [(arcsine, Interval(0.0, split)), (arcsine, Interval(split, 2.0)),
                      (lambda x: x / np.sqrt((1.8 - x) * (x - 0.2)),
                       Interval(0.2, 0.2 + 0.8 * split)),
                      (np.sin, Interval(-split, 2.0 * split))]:
            for singular_hi in ((True,) if iv.hi == 2.0 else (False, True)):
                assert integrate(f, iv, singular_hi) == sweep_reference(f, iv, singular_hi)

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
                "lambda x: x / np.sqrt((1.8 - x) * (x - 0.2)), 0.2, [1.0], False)[0]).hex())")
        src = os.path.dirname(os.path.dirname(rnwarp.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        fresh = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                               capture_output=True, text=True).stdout.strip()
        with pytest.raises(ConvergenceError):
            integrate(lambda x: np.where(x < 0.37, 1.0, 0.0), Interval(0.0, 1.0))
        here = integrate(lambda x: x / np.sqrt((1.8 - x) * (x - 0.2)), Interval(0.2, 1.0),
                         singular_hi=False)
        assert here.hex() == fresh

    def test_interval_must_be_ordered(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_rounding_bound_is_the_last_distance_that_rounds_onto_the_end(self):
        # a node at distance d from an end is dropped where end -+ d rounds
        # onto the end, which _rounds_onto turns into d <= bound: zeros,
        # subnormals, binade edges (where the gap differs on the two sides),
        # even and odd significands, both signs
        ends = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, 1.0, -1.0, 1.0 + EPS, 2.0, 0.75,
                -3.0 + 4 * EPS, 1e300, -1.7e308, 1.7e308, 2.0 ** -1021 + 5e-324]
        ends += np.random.default_rng(5).normal(size=200).tolist()
        ends = np.array(ends)
        for toward, step in ((-math.inf, np.subtract), (math.inf, np.add)):
            bound = calculus._rounds_onto(ends, toward)
            assert (step(ends, bound) == ends).all()
            assert (step(ends, np.nextafter(bound, math.inf)) != ends).all()


def inverse_sqrt_neg(x):
    return 1.0 / np.sqrt(-x)


class TestBatchedRows:
    """integrate_endpoint_singular on many upper limits: each row as if alone."""

    # (integrand, lower limit, upper limits): ends at 0 (walls scaled by
    # the half-span, below or above), ends away from 0, a smooth
    # integrand, intervals from microscopic to wide
    CASES = [
        (arcsine, 0.0, [2.0, 1.5, 1e-3, 0.3, 1.999, 1e-9, 1.0]),
        (lambda x: 1.0 / np.sqrt(x), 0.0, [1.0, 1e-6, 30.0, 0.5]),
        (inverse_sqrt_neg, -1.0, [-0.5, 0.0, -1e-3, -0.999]),
        (lambda x: x / np.sqrt((1.8 - x) * (x - 0.2)), 0.2, [1.8, 1.0, 0.2000001, 1.79, 0.9]),
        (np.sin, -0.7, [2.1, -0.6, 0.0, 1e3 * EPS, 0.4]),
    ]
    # upper limits flagged singular, so that regular and singular upper
    # ends share a batch: where a case's integrand is singular (2, 0 and
    # 1.8; an end at 0 is walled whatever its flag), and 30, where
    # 1/sqrt(x) is regular but walled (harmless) so that its rows do not
    # all converge at one level
    SINGULAR = [2.0, 0.0, 1.8, 30.0]

    @pytest.mark.parametrize("f, lo, his", CASES)
    def test_each_row_reproduces_its_level_sweep(self, f, lo, his):
        singular = np.isin(his, self.SINGULAR)
        got = integrate_endpoint_singular(f, lo, his, singular)
        want = [sweep_levels(f, Interval(lo, hi), bool(s)) for hi, s in zip(his, singular)]
        assert got.tolist() == [w for w, _ in want]
        assert len({level for _, level in want}) > 1  # rows converge at different levels

    @pytest.mark.parametrize("f, lo, his", CASES)
    def test_row_independent_of_the_rest_of_the_batch(self, f, lo, his):
        his = np.array(his)
        singular = np.isin(his, self.SINGULAR)
        whole = integrate_endpoint_singular(f, lo, his, singular)
        order = np.random.default_rng(1).permutation(len(his))
        shuffled = integrate_endpoint_singular(f, lo, his[order], singular[order])
        assert shuffled.tobytes() == whole[order].tobytes()
        alone = [integrate_endpoint_singular(f, lo, [hi], s)[0] for hi, s in zip(his, singular)]
        assert np.array(alone).tobytes() == whole.tobytes()

    def test_each_row_sums_its_terms_node_by_node(self):
        # at level 5 each side of these rows keeps dozens of terms, and a
        # pairwise sum of more than 8 terms rounds differently from the
        # reference's sequential one: a row alone sums one column, a batch
        # of rows that reach the same level sums across columns
        def f(x):
            return np.cos(7.0 * x) / np.sqrt(x * (2.0 - x))

        want = [sweep_levels(f, Interval(0.0, hi)) for hi in (2.0, 1.7)]
        assert [level for _, level in want] == [5, 5]
        assert integrate(f, Interval(0.0, 2.0)) == want[0][0]
        assert integrate_endpoint_singular(f, 0.0, [2.0, 1.7], True).tolist() == \
            [w for w, _ in want]

    def test_mixed_tolerance_rows_reproduce_their_sweeps(self):
        # a loose tolerance lets rows stop after the refine-once level or at once
        tol = Tolerance(1e-6, 1e-6)
        his = [2.0, 0.1, 1.0, 1.99999]
        singular = [hi == 2.0 for hi in his]
        got = integrate_endpoint_singular(arcsine, 0.0, his, singular, tol)
        assert got.tolist() == [sweep_reference(arcsine, Interval(0.0, hi), s, tol)
                                for hi, s in zip(his, singular)]

    @staticmethod
    def batch_abscissas(f, lo, his, singular, tol=DEFAULT_TOL):
        """Every abscissa the batch passes to f, sorted."""
        seen = []
        integrate_endpoint_singular(lambda x: seen.append(x.copy()) or f(x), lo, his, singular,
                                    tol)
        return np.sort(np.concatenate(seen))

    @staticmethod
    def swept_abscissas(f, lo, his, singular, tol=DEFAULT_TOL):
        """Every abscissa the level sweeps of the rows, one by one, evaluate, sorted."""
        seen = []

        def recording(x):
            seen.append(float(x))
            return f(x)

        for hi, s in zip(his, singular):
            sweep_levels(recording, Interval(lo, float(hi)), bool(s), tol)
        return np.sort(seen)

    def test_each_row_evaluated_once_per_abscissa(self):
        # the batch evaluates the multiset union of its rows' own nodes: no
        # node twice, none past a row's kept ones, none of a level a row
        # does not reach
        his, singular = [2.0, 1.0, 0.5, 1.0], [True, False, False, False]
        got = self.batch_abscissas(arcsine, 0.0, his, singular)
        assert got.tobytes() == self.swept_abscissas(arcsine, 0.0, his, singular).tobytes()
        assert len(np.unique(got)) < len(got)  # the repeated row's nodes, twice

    @pytest.mark.parametrize("charge, count", [(0.6, 15808), (0.0, 14694)])
    def test_verify_batch_evaluates_exactly_its_rows_nodes(self, monkeypatch, charge, count):
        # verify's one call of 165 rows: 64 grid points, r_plus and 100
        # round-trip samples, walled at r_plus alone (and at r_minus = 0)
        calls = []

        def recording(f, lo, hi, singular_hi, tol=DEFAULT_TOL):
            calls.append((f, lo, np.array(hi), np.array(singular_hi), tol))
            return integrate_endpoint_singular(f, lo, hi, singular_hi, tol)

        monkeypatch.setattr(calculus, "integrate_endpoint_singular", recording)
        run_verification(BlackHoleParams(1.0, charge), 64)
        (f, lo, his, singular, tol), = calls
        assert len(his) == 165
        got = self.batch_abscissas(f, lo, his, singular, tol)
        assert len(got) == count
        assert got.tobytes() == self.swept_abscissas(f, lo, his, singular, tol).tobytes()

    def test_first_failing_row_decides_the_error(self):
        # a row stalls (ConvergenceError), another returns NaN (ValueError):
        # the earlier row's error is raised, as a loop over the rows would
        def f(x):
            return np.where(x > 5.0, np.nan, np.where(x < 0.37, 1.0, 0.0))

        with pytest.raises(ConvergenceError):
            integrate_endpoint_singular(f, 0.0, [0.3, 1.0, 10.0], False)
        with pytest.raises(ValueError, match="non-finite"):
            integrate_endpoint_singular(f, 0.0, [0.3, 10.0, 1.0], False)

    @pytest.mark.parametrize("f, lo, his", CASES)
    def test_one_call_of_f_per_level(self, f, lo, his):
        # level 0's call serves the t = 0 node too
        singular = np.isin(his, self.SINGULAR)
        finest = max(sweep_levels(f, Interval(lo, hi), bool(s))[1] for hi, s in zip(his, singular))
        assert finest >= 3
        calls = []
        integrate_endpoint_singular(lambda x: calls.append(len(x)) or f(x), lo, his, singular)
        assert len(calls) == finest + 1

    @staticmethod
    def node(lo, hi, level, side, j):
        """Abscissa of node j of a level on the hi (0) or lo (1) side; level -1 is t = 0."""
        hs = 0.5 * (hi - lo)
        if level < 0:
            return lo + hs
        d = float(calculus._level_nodes(level)[0][j]) * (2.0 * hs)
        return hi - d if side == 0 else lo + d

    @pytest.mark.parametrize("bad", [
        [(1, 1, 0), (2, 0, 0)],   # level 1 comes first
        [(2, 1, 0), (2, 0, 3)],   # within a level the hi side comes first
        [(0, 1, 1), (-1, 0, 0)],  # the t = 0 node before level 0
        [(2, 1, 2), (0, 1, 0), (1, 0, 1)],
    ])
    def test_first_bad_node_in_level_side_node_order_is_raised(self, bad):
        # row 1 of three is non-finite at several nodes of the first call:
        # the error names its first bad node, as a sweep level by level
        # would meet it, and no RuntimeWarning is raised on the way
        his = [1.5, 2.0, 1.7]
        xs = [self.node(0.0, 2.0, *b) for b in bad]
        first = xs[bad.index(min(bad))]

        def f(x):
            out = arcsine(x)
            for k, bad_x in enumerate(xs):
                out = np.where(x == bad_x, math.inf if k % 2 else math.nan, out)
            return out

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError) as exc:
                integrate_endpoint_singular(f, 0.0, his, True)
        assert not caught
        value = math.inf if xs.index(first) % 2 else math.nan
        assert str(exc.value) == f"integrand returned non-finite value {value!r} at x={first!r}"

    @staticmethod
    def level_abscissas(lo, his, level):
        """Every abscissa that any node of the level can take on the rows his, on both sides."""
        seen = set()
        for hi in his:
            d = calculus._level_nodes(level).unit_d * (2.0 * (0.5 * (hi - lo)))
            seen.update((hi - d).tolist() + (lo + d).tolist())
        return seen

    @pytest.mark.parametrize("f, his, singular, failing_level", [
        # row 1 is non-finite at a node of level 0 or of level 3
        (lambda x: np.where(x == TestBatchedRows.node(0.0, 2.0, 0, 1, 1), math.nan, arcsine(x)),
         [1.5, 2.0, 1.7], True, 0),
        (lambda x: np.where(x == TestBatchedRows.node(0.0, 2.0, 3, 0, 2), math.inf, arcsine(x)),
         [1.5, 2.0, 1.7], True, 3),
        # row 1's sum overflows at the test of level 2, as in test_overflowing_sum_fails_its_row
        (lambda x: np.exp(-x * 1e-308) + 1.0 / np.sqrt(x), [2.0, 1.7e308, 1.0],
         [False, False, False], 2),
    ])
    def test_a_failed_row_and_every_later_row_leave_the_batch(self, f, his, singular,
                                                               failing_level):
        # once row 1 fails, f is never called again at an abscissa of row 1
        # or row 2, while row 0 refines on
        calls = []
        with pytest.raises(ValueError):
            integrate_endpoint_singular(lambda x: calls.append(x.tolist()) or f(x), 0.0, his,
                                        singular)
        later = list(enumerate(calls))[failing_level + 1:]
        assert later
        for level, xs in later:
            assert set(xs) <= self.level_abscissas(0.0, his[:1], level)
            assert self.level_abscissas(0.0, his[1:], level).isdisjoint(xs)

    @pytest.mark.parametrize("lo, his, limit", [(0.0, [np.inf], "hi[0]=inf"),
                                                (0.0, [1.0, 2.0, np.inf], "hi[2]=inf"),
                                                (-np.inf, [1.0], "lo=-inf")])
    def test_infinite_limits_rejected(self, lo, his, limit):
        # lo < hi holds for an infinite limit; the rows must not reach f
        def f(x):
            raise AssertionError("f called")

        with pytest.raises(ValueError, match=re.escape(limit)):
            integrate_endpoint_singular(f, lo, his, True)

    def test_overflowing_width_rejected(self):
        # hi - lo overflows although both limits are finite; the rows must not reach f
        def f(x):
            raise AssertionError("f called")

        with pytest.raises(ValueError, match=r"interval width overflows: hi\[0\] - lo"):
            integrate_endpoint_singular(f, -1e308, [1e308], False)

    @pytest.mark.parametrize("his", [[1.7e308], [1.0, 1.7e308]])
    def test_overflowing_sum_fails_its_row(self, his):
        # the integral is ~8.2e307, but the running trapezoid sum grows as
        # 2^level times it and leaves the double range by level 2; the row
        # fails by name, with no RuntimeWarning on the way, and does not
        # pass off inf as converged
        def f(x):
            return np.exp(-x * 1e-308)

        with pytest.raises(ValueError,
                           match=re.escape("quadrature sum overflows on the interval (0.0, 1.7e+308)")):
            integrate_endpoint_singular(f, 0.0, his, False)

    @pytest.mark.parametrize("m, q", [(1.0, 0.6), (1.0, 0.0), (2.5, 2.475), (0.3, 0.0)])
    def test_mu_rows_reproduce_their_level_sweeps(self, m, q):
        # the charged integrand walls the lower end, and the upper end only
        # at r_plus; at Q = 0 the lower end is r = 0, walled by the half-span
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
        want = [sweep_levels(f, Interval(rm, r), r >= rp) for r in rs]
        assert mu_of_r(p, np.array(rs)).tolist() == [w for w, _ in want]
        assert len({level for _, level in want}) > 1

    def test_mu_nodes_stay_outside_the_zero_end_wall(self, monkeypatch):
        # at Q = 0 the lower end is r = 0: f is never called inside its wall,
        # in the batch or row by row, and the batch calls it where the rows do
        p = BlackHoleParams(1.0, 0.0)
        rs = interior_grid(p, 64)
        quadrature = calculus.integrate_endpoint_singular
        seen = []

        def recording(f, lo, hi, *args):
            return quadrature(lambda x: seen.extend(x.tolist()) or f(x), lo, hi, *args)

        monkeypatch.setattr(calculus, "integrate_endpoint_singular", recording)
        mu_of_r(p, np.array(rs))
        batch, seen[:] = sorted(seen), []
        for r in rs:
            start = len(seen)
            mu_of_r(p, r)
            assert min(seen[start:]) > calculus._WALL * EPS * 0.5 * r
        assert batch == sorted(seen)

    @pytest.mark.parametrize("his", [[], [[1.0]], [1.0, 0.0], [1.0, math.nan]])
    def test_limits_must_be_a_vector_above_lo(self, his):
        if len(his) == 0:
            assert integrate_endpoint_singular(arcsine, 0.0, his, True).shape == (0,)
            return
        with pytest.raises(ValueError, match="lo < hi"):
            integrate_endpoint_singular(arcsine, 0.0, his, True)

    def test_singular_flags_must_be_booleans(self):
        # a tolerance passed where the flags go is refused, not taken as True
        with pytest.raises(ValueError, match="booleans"):
            integrate_endpoint_singular(arcsine, 0.0, [1.0], DEFAULT_TOL)

    def test_integrand_must_be_elementwise(self):
        with pytest.raises(ValueError, match="shape"):
            integrate_endpoint_singular(lambda x: 1.0, 0.0, [1.0], False)


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
