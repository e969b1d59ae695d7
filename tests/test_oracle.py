import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnwarp import oracle
from rnwarp.errors import DomainError, SingularMetricError
from rnwarp.oracle import MetricField, invert4, ricci_at
from rnwarp.reissner_nordstrom import (BlackHoleParams, _kepler_inverse, horizons,
                                       interior_grid, lapse_squared, mu_of_r,
                                       ricci_closed_form, static_chart, warped_chart)

PI_2 = math.pi / 2.0


def _diagonal(x, diag):
    """Batched diagonal metric: diag holds scalars or arrays shaped like x[..., 0]."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1] + (4, 4))
    for i, v in enumerate(diag):
        out[..., i, i] = v
    return out


FLAT = MetricField(lambda x: _diagonal(x, (-1.0, 1.0, 1.0, 1.0)))


def sphere_chart(radius):
    """Flat 2d block plus a round sphere of the given radius."""

    def g(x):
        th = np.asarray(x, dtype=float)[..., 2]
        a2 = radius * radius
        return _diagonal(x, (-1.0, 1.0, a2, a2 * np.sin(th) ** 2))

    line = (-math.inf, math.inf)
    return MetricField(g, (line, line, (0.0, math.pi), line))


# -- reference: the per-point stencil ----------------------------------------
# One scalar metric call per stencil point, in the order the batched table
# lists them; ricci_at must reproduce it bit for bit.

def reference_static_chart(p):
    """static_chart as one scalar call per point."""
    hp = horizons(p)

    def g(x):
        r, th = float(x[1]), float(x[2])
        n2 = (hp.r_plus - r) * (r - hp.r_minus) / (r * r)
        r2 = r * r
        return np.diag([n2, -1.0 / n2, r2, r2 * math.sin(th) ** 2])

    return dataclasses.replace(static_chart(p), g=g)


def reference_warped_chart(p):
    """warped_chart as one scalar call per point, Kepler inverse at every one."""
    hp = horizons(p)

    def g(x):
        mu, th = float(x[0]), float(x[2])
        r = _kepler_inverse(p, mu)
        f1sq = (hp.r_plus - r) * (r - hp.r_minus) / (r * r)
        r2 = r * r
        return np.diag([-1.0, f1sq, r2, r2 * math.sin(th) ** 2])

    return dataclasses.replace(warped_chart(p), g=g)


_CROSS = ((1, 8.0), (2, -1.0), (-1, -8.0), (-2, 1.0))


def _reference_grad(fn, x, steps):
    out = np.empty((4, 4, 4))
    for a in range(4):
        e = np.zeros(4)
        e[a] = steps[a]
        out[a] = (-fn(x + 2.0 * e) + 8.0 * fn(x + e)
                  - 8.0 * fn(x - e) + fn(x - 2.0 * e)) / (12.0 * steps[a])
    return out


def _reference_hess_once(fn, x, steps):
    hess = np.empty((4, 4, 4, 4))
    f0 = fn(x)
    for a in range(4):
        ea = np.zeros(4)
        ea[a] = steps[a]
        hess[a, a] = (-fn(x + 2.0 * ea) + 16.0 * fn(x + ea) - 30.0 * f0
                      + 16.0 * fn(x - ea) - fn(x - 2.0 * ea)) / (12.0 * steps[a] ** 2)
        for b in range(a + 1, 4):
            eb = np.zeros(4)
            eb[b] = steps[b]
            acc = np.zeros((4, 4))
            for i, ci in _CROSS:
                for j, cj in _CROSS:
                    acc += (ci * cj) * fn(x + i * ea + j * eb)
            hess[a, b] = acc / (144.0 * steps[a] * steps[b])
            hess[b, a] = hess[a, b]
    return hess


def reference_ricci(mf, x):
    x = np.asarray(x, dtype=float)
    steps = oracle._steps(mf, x)
    outer = oracle.OUTER_STEP_FACTOR * steps
    ginv = invert4(mf.g(x))
    dg = _reference_grad(mf.g, x, steps)
    hess = (16.0 * _reference_hess_once(mf.g, x, outer)
            - _reference_hess_once(mf.g, x, 2.0 * outer)) / 15.0
    s_low = np.einsum('bdc->dbc', dg) + np.einsum('cdb->dbc', dg) - dg
    ds_low = np.einsum('ebdc->edbc', hess) + np.einsum('ecdb->edbc', hess) - hess
    gamma = 0.5 * np.einsum('ad,dbc->abc', ginv, s_low)
    dginv = -np.einsum('am,emn,nd->ead', ginv, dg, ginv)
    dgamma = 0.5 * (np.einsum('ead,dbc->eabc', dginv, s_low)
                    + np.einsum('ad,edbc->eabc', ginv, ds_low))
    ricci = (np.einsum('ccab->ab', dgamma) - np.einsum('accb->ab', dgamma)
             + np.einsum('ccd,dab->ab', gamma, gamma) - np.einsum('cad,dcb->ab', gamma, gamma))
    return gamma, ricci, float(np.einsum('ab,ab->', ginv, ricci))


class TestInvert4:
    def test_identity(self):
        assert np.allclose(invert4(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        g = np.diag([-2.0, 0.5, 3.0, 4.0])
        assert np.allclose(invert4(g), np.diag([-0.5, 2.0, 1.0 / 3.0, 0.25]))

    def test_matches_general_solver(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.normal(size=(4, 4))
            g = a + a.T + 8.0 * np.eye(4)
            assert np.allclose(invert4(g), np.linalg.inv(g), atol=1e-12)

    def test_singular_rejected(self):
        g = np.diag([1.0, 1.0, 1.0, 0.0])
        with pytest.raises(SingularMetricError):
            invert4(g)


class TestChristoffel:
    def test_flat_vanishes(self):
        gamma = ricci_at(FLAT, [0.0, 0.3, -0.2, 1.0]).christoffel
        assert np.max(np.abs(gamma)) <= 1e-10

    def test_sphere_at_equator(self):
        gamma = ricci_at(sphere_chart(1.0), [0.0, 0.0, PI_2, 0.4]).christoffel
        # Gamma^theta_phiphi = -sin th cos th and Gamma^phi_thetaphi = cot th
        # both vanish on the equator
        assert gamma[2, 3, 3] == pytest.approx(0.0, abs=1e-9)
        assert gamma[3, 2, 3] == pytest.approx(0.0, abs=1e-9)

    def test_sphere_off_equator(self):
        th = 1.1
        gamma = ricci_at(sphere_chart(2.0), [0.0, 0.0, th, 0.4]).christoffel
        assert gamma[2, 3, 3] == pytest.approx(-math.sin(th) * math.cos(th), abs=1e-9)
        assert gamma[3, 2, 3] == pytest.approx(1.0 / math.tan(th), abs=1e-9)

    def test_warped_chart_sphere_expansion(self, charged):
        # oracle: Gamma^theta_mu theta = f2'/f2 = f1/r = 0.8 at r = 1
        mu = mu_of_r(charged, 1.0)
        gamma = ricci_at(warped_chart(charged), [mu, 0.0, PI_2, 0.0]).christoffel
        assert gamma[2, 0, 2] == pytest.approx(0.8, abs=1e-6)

    def test_lower_index_symmetry(self, charged):
        mu = mu_of_r(charged, 1.1)
        gamma = ricci_at(warped_chart(charged), [mu, 0.0, 1.0, 0.2]).christoffel
        sym = np.transpose(gamma, (0, 2, 1))
        assert np.max(np.abs(gamma - sym)) <= 1e-10 * max(1.0, np.max(np.abs(gamma)))

    def test_domain_enforced(self, charged):
        chart = warped_chart(charged)
        with pytest.raises(DomainError):
            ricci_at(chart, [-0.5, 0.0, PI_2, 0.0])
        with pytest.raises(DomainError):
            # inside the domain but the stencil would cross mu = 0
            ricci_at(chart, [1e-9, 0.0, PI_2, 0.0])


class TestRicci:
    def test_flat_vanishes(self):
        cp = ricci_at(FLAT, [0.0, 0.3, -0.2, 1.0])
        assert np.max(np.abs(cp.ricci)) <= 1e-8
        assert abs(cp.scalar) <= 1e-8

    def test_sphere_sign_convention(self):
        # the round sphere must come out with R_thth = +1 for any radius
        th = 1.0
        for radius in (1.0, 1.7):
            cp = ricci_at(sphere_chart(radius), [0.0, 0.0, th, 0.4])
            assert cp.ricci[2, 2] == pytest.approx(1.0, abs=1e-7)
            assert cp.ricci[3, 3] == pytest.approx(math.sin(th) ** 2, abs=1e-7)
            assert cp.scalar == pytest.approx(2.0 / radius ** 2, rel=1e-6)

    def test_charged_interior_diagonal(self, charged):
        # this is the independent referee for the closed forms
        mu = mu_of_r(charged, 1.0)
        cp = ricci_at(warped_chart(charged), [mu, 0.0, PI_2, 0.0])
        want = (0.36, -0.2304, 0.36, 0.36)
        for i, val in enumerate(want):
            assert cp.ricci[i, i] == pytest.approx(val, abs=1e-5)
        assert abs(cp.scalar) <= 1e-5

    def test_static_chart_transforms(self, charged):
        # oracle: tensor transformation with dr/dmu = N, so R_mumu = N^2 R_rr
        cp = ricci_at(static_chart(charged), [0.0, 1.0, PI_2, 0.0])
        n2 = lapse_squared(charged, 1.0)
        assert cp.ricci[1, 1] * n2 == pytest.approx(0.36, abs=1e-5)
        assert cp.ricci[0, 0] == pytest.approx(-0.2304, abs=1e-5)

    def test_ricci_symmetry(self, charged):
        mu = mu_of_r(charged, 0.9)
        cp = ricci_at(warped_chart(charged), [mu, 0.0, 1.1, 0.3])
        scale = max(1.0, float(np.max(np.abs(cp.ricci))))
        assert np.max(np.abs(cp.ricci - cp.ricci.T)) <= 1e-9 * scale

    def test_off_diagonal_vanishes(self, charged):
        for r in (0.5, 1.0, 1.5):
            mu = mu_of_r(charged, r)
            cp = ricci_at(warped_chart(charged), [mu, 0.0, PI_2, 0.0])
            off = cp.ricci - np.diag(np.diag(cp.ricci))
            assert np.max(np.abs(off)) <= 1e-7

    def test_domain_enforced(self, charged):
        with pytest.raises(DomainError):
            ricci_at(static_chart(charged), [0.0, 1.81, PI_2, 0.0])


class TestDomainBox:
    BOX = ((-1.0, 1.0), (2.0, 3.0), (0.0, math.pi), (-math.inf, math.inf))
    CENTER = (0.0, 2.5, PI_2, 0.0)

    def chart(self):
        return MetricField(lambda x: _diagonal(x, (-1.0, 1.0, 1.0, 1.0)), self.BOX)

    def test_inside_passes(self):
        assert np.max(np.abs(ricci_at(self.chart(), self.CENTER).ricci)) <= 1e-8

    @pytest.mark.parametrize("axis, value", [(0, 1.5), (1, 1.0), (2, -0.1), (1, math.nan)])
    def test_point_outside_raises(self, axis, value):
        x = list(self.CENTER)
        x[axis] = value
        with pytest.raises(DomainError, match="outside chart domain"):
            ricci_at(self.chart(), x)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("end", [0, 1])
    def test_stencil_crossing_each_finite_bound_raises(self, axis, end):
        # the point is inside, its stencil reaches past the bound
        bound = self.BOX[axis][end]
        x = list(self.CENTER)
        x[axis] = bound + (1e-9 if end == 0 else -1e-9)
        with pytest.raises(DomainError, match="leaves the chart domain"):
            ricci_at(self.chart(), x)

    @pytest.mark.parametrize("x", [(0.0, 0.0, 0.0, 0.0), (-1e100, 1e100, 5.0, -3.0),
                                   (1e-300, -7.0, 1e6, 1e-300)])
    def test_default_domain_never_raises(self, x):
        assert np.max(np.abs(ricci_at(FLAT, x).ricci)) <= 1e-8

    def test_charts_declare_their_boxes(self, charged):
        hp, line = horizons(charged), (-math.inf, math.inf)
        assert static_chart(charged).domain == (
            line, (hp.r_minus, hp.r_plus), (0.0, math.pi), line)
        assert warped_chart(charged).domain == (
            (0.0, charged.mass * math.pi), line, (0.0, math.pi), line)


class TestChartCovariance:
    def test_against_closed_form(self, charged):
        # both charts, componentwise, against the closed forms
        wc = warped_chart(charged)
        sc = static_chart(charged)
        for r in interior_grid(charged, 7):
            rc = ricci_closed_form(charged, r, PI_2)
            want = np.array([rc.r_mumu, rc.r_nunu, rc.r_thth, rc.r_phph])
            mu = mu_of_r(charged, r)
            got_w = np.diag(ricci_at(wc, [mu, 0.0, PI_2, 0.0]).ricci)
            n2 = lapse_squared(charged, r)
            cp = ricci_at(sc, [0.0, r, PI_2, 0.0])
            got_s = np.array([cp.ricci[1, 1] * n2, cp.ricci[0, 0],
                              cp.ricci[2, 2], cp.ricci[3, 3]])
            assert np.max(np.abs(got_w - want) / np.maximum(np.abs(want), 1.0)) <= 1e-5
            assert np.max(np.abs(got_s - want) / np.maximum(np.abs(want), 1.0)) <= 1e-5
            # and the two oracle runs against each other, no closed form involved
            assert np.max(np.abs(got_w - got_s) / np.maximum(np.abs(want), 1.0)) <= 1e-5

    def test_scalar_flat_everywhere_tested(self, charged):
        sc = static_chart(charged)
        for r in interior_grid(charged, 9):
            cp = ricci_at(sc, [0.0, r, PI_2, 0.0])
            assert abs(cp.scalar) <= 1e-6

    @given(m=st.floats(min_value=0.5, max_value=3.0),
           qr=st.floats(min_value=0.0, max_value=0.9),
           frac=st.floats(min_value=0.08, max_value=0.92),
           theta=st.floats(min_value=0.4, max_value=math.pi - 0.4))
    @settings(max_examples=15)
    def test_oracle_matches_closed_form_at_random_points(self, m, qr, frac, theta):
        # the strongest property in the package: raw-component differencing
        # reproducing the closed forms at arbitrary interior points
        p = BlackHoleParams(m, m * qr)
        hp = horizons(p)
        r = hp.r_minus + hp.width * frac
        rc = ricci_closed_form(p, r, theta)
        want = np.array([rc.r_mumu, rc.r_nunu, rc.r_thth, rc.r_phph])
        cp = ricci_at(warped_chart(p), [mu_of_r(p, r), 0.0, theta, 0.0])
        floor = 1.0 / (m * m)
        gap = np.abs(np.diag(cp.ricci) - want) / np.maximum(np.abs(want), floor)
        assert np.max(gap) <= 1e-5
        assert abs(cp.scalar) * m * m <= 1e-5


def _interior(m, qr, frac):
    p = BlackHoleParams(m, m * qr)
    hp = horizons(p)
    return p, hp.r_minus + hp.width * frac


def _outcome(evaluate):
    """The exact bits of a result, or the type of the error it raised."""
    try:
        out = evaluate()
    except (DomainError, SingularMetricError) as exc:
        return type(exc)
    if isinstance(out, oracle.CurvaturePoint):
        out = (out.christoffel, out.ricci, out.scalar)
    if isinstance(out, np.ndarray):
        out = (out,)
    return tuple(np.asarray(a, dtype=float).tobytes() for a in out)


def _counting(mf):
    calls = []

    def g(x):
        calls.append(np.shape(x))
        return mf.g(x)

    return dataclasses.replace(mf, g=g), calls


class TestBatchedStencil:
    @given(m=st.floats(min_value=0.3, max_value=5.0),
           qr=st.floats(min_value=0.0, max_value=0.98),
           frac=st.floats(min_value=0.05, max_value=0.95),
           theta=st.floats(min_value=0.3, max_value=2.8))
    @settings(max_examples=25)
    def test_bit_identical_to_per_point_stencil(self, m, qr, frac, theta):
        p, r = _interior(m, qr, frac)
        for chart, ref, x in ((warped_chart, reference_warped_chart, [mu_of_r(p, r), 0.0, theta, 0.0]),
                              (static_chart, reference_static_chart, [0.0, r, theta, 0.0])):
            # a singular metric next to a horizon must fail the same way
            assert _outcome(lambda: ricci_at(chart(p), x)) == _outcome(
                lambda: reference_ricci(ref(p), x))

    @pytest.mark.parametrize("chart, reference", [(warped_chart, reference_warped_chart),
                                                   (static_chart, reference_static_chart)])
    def test_metric_bit_identical_to_scalar_chart(self, charged, chart, reference):
        # numpy squares with x * x, Python's ** calls pow; they round apart
        # about once in a thousand draws, so the batch must be large
        rng = np.random.default_rng(3)
        hp = horizons(charged)
        n = 4000
        points = np.column_stack([
            rng.uniform(0.05, 0.95, n) * math.pi * charged.mass,
            hp.r_minus + hp.width * rng.uniform(0.05, 0.95, n),
            rng.uniform(0.3, 2.8, n), rng.uniform(-1.0, 1.0, n)])
        want = np.array([reference(charged).g(x) for x in points])
        assert chart(charged).g(points).tobytes() == want.tobytes()

    def test_assembly_squares_steps_as_the_per_point_stencil(self):
        # at a point whose outer step squares differently under pow and
        # under x * x, the Hessian denominators must take the pow square
        def g(x):
            x = np.asarray(x, dtype=float)
            s = x[..., 0] * x[..., 1] + x[..., 2] * x[..., 2] * x[..., 3]
            return _diagonal(x, (-(1.0 + 0.1 * s), 1.0 + 0.2 * s, 1.0 + 0.3 * s, 1.0 + 0.4 * s))

        mf = MetricField(g)
        rng = np.random.default_rng(11)
        for _ in range(20000):
            x = rng.uniform(1.0, 3.0, 4)
            outer = oracle.OUTER_STEP_FACTOR * oracle._steps(mf, x)
            if any(o ** 2 != o * o for o in np.concatenate([outer, 2.0 * outer])):
                break
        else:
            pytest.skip("pow squares every step exactly here")
        assert _outcome(lambda: ricci_at(mf, x)) == _outcome(lambda: reference_ricci(mf, x))

    @pytest.mark.parametrize("chart", [warped_chart, static_chart])
    def test_metric_shapes(self, charged, chart):
        mf = chart(charged)
        x = np.array([mu_of_r(charged, 1.0), 1.0, 1.1, 0.2])
        assert mf.g(x).shape == (4, 4)
        assert mf.g(list(x)).shape == (4, 4)
        assert mf.g(np.tile(x, (5, 1))).shape == (5, 4, 4)
        assert mf.g(np.tile(x, (2, 3, 1))).shape == (2, 3, 4, 4)

    @pytest.mark.parametrize("chart", [warped_chart, static_chart])
    def test_point_independent_of_batch(self, charged, chart):
        # the stencil revisits coordinate values; a point's metric must be
        # the same whether it is evaluated alone or among others
        mf = chart(charged)
        x = np.array([mu_of_r(charged, 1.2), 1.2, 1.0, 0.3])
        steps = oracle._steps(mf, x)
        outer = oracle.OUTER_STEP_FACTOR * steps
        points = x + oracle._STENCIL * np.stack([steps, outer, 2.0 * outer])[oracle._STENCIL_MESH]
        points = np.concatenate([points, x + 0.01 * np.arange(-10, 10)[:, None]])
        order = np.random.default_rng(5).permutation(len(points))
        batch = mf.g(points[order])
        for k, i in enumerate(order):
            assert batch[k].tobytes() == mf.g(points[i]).tobytes()

    @pytest.mark.parametrize("chart", [warped_chart, static_chart])
    def test_one_metric_call_per_evaluation(self, charged, chart):
        mf, calls = _counting(chart(charged))
        x = [mu_of_r(charged, 1.0), 1.0, 1.0, 0.0]
        ricci_at(mf, x)
        assert calls == [(len(oracle._STENCIL), 4)]

    def test_stencil_table_matches_call_order(self):
        # the table lists the per-point stencil's evaluations in order
        seen = []
        recording = dataclasses.replace(FLAT, g=lambda x: seen.append(np.array(x)) or FLAT.g(x))
        x = np.array([0.1, 0.2, 0.3, 0.4])
        reference_ricci(recording, x)
        steps = oracle._steps(FLAT, x)
        outer = oracle.OUTER_STEP_FACTOR * steps
        table = x + oracle._STENCIL * np.stack([steps, outer, 2.0 * outer])[oracle._STENCIL_MESH]
        assert np.array(seen).tobytes() == table.tobytes()
