import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rnwarp import oracle, verify
from rnwarp.errors import DomainError, SingularMetricError
from rnwarp.oracle import Jet, MetricField, diagonal_metric, invert4, points, ricci_at
from rnwarp.reissner_nordstrom import (BlackHoleParams, _kepler_inverse, horizons,
                                       interior_grid, lapse_squared, mu_closed_form_sqrt,
                                       mu_of_r, ricci_closed_form, static_chart, warp_state,
                                       warped_chart)

PI_2 = math.pi / 2.0
LINE = (-math.inf, math.inf)


def _constant(diag):
    return MetricField(lambda x: diagonal_metric(points(x), diag))


FLAT = _constant((-1.0, 1.0, 1.0, 1.0))


def sphere_chart(radius):
    """Flat 2d block plus a round sphere of the given radius."""

    def g(x):
        x = points(x)
        s = oracle.sin(x[..., 2])
        a2 = radius * radius
        return diagonal_metric(x, (-1.0, 1.0, a2, a2 * (s * s)))

    return MetricField(g, (LINE, LINE, (0.0, math.pi), LINE))


def spherical_minkowski():
    """Flat spacetime in (t, r, theta, phi): every Christoffel symbol a known function."""

    def g(x):
        x = points(x)
        r, s = x[..., 1], oracle.sin(x[..., 2])
        return diagonal_metric(x, (-1.0, 1.0, r * r, (r * r) * (s * s)))

    return MetricField(g, (LINE, (0.0, math.inf), (0.0, math.pi), LINE))


# -- the jets -------------------------------------------------------------------

coords = st.floats(min_value=0.1, max_value=3.0)

# each case: the jet expression in a and b, then the value, gradient and
# Hessian in closed form
CASES = {
    "add": (lambda a, b: a + b, lambda a, b: (a + b, (1, 1), ((0, 0), (0, 0)))),
    "sub": (lambda a, b: a - b, lambda a, b: (a - b, (1, -1), ((0, 0), (0, 0)))),
    "neg": (lambda a, b: -(a * b),
            lambda a, b: (-a * b, (-b, -a), ((0, -1), (-1, 0)))),
    "float_add": (lambda a, b: 2.5 + a, lambda a, b: (2.5 + a, (1, 0), ((0, 0), (0, 0)))),
    "add_float": (lambda a, b: b + 2.5, lambda a, b: (b + 2.5, (0, 1), ((0, 0), (0, 0)))),
    "float_sub": (lambda a, b: 2.5 - a, lambda a, b: (2.5 - a, (-1, 0), ((0, 0), (0, 0)))),
    "sub_float": (lambda a, b: b - 2.5, lambda a, b: (b - 2.5, (0, 1), ((0, 0), (0, 0)))),
    "mul": (lambda a, b: a * b, lambda a, b: (a * b, (b, a), ((0, 1), (1, 0)))),
    "float_mul": (lambda a, b: 3.0 * (a * a),
                  lambda a, b: (3 * a * a, (6 * a, 0), ((6, 0), (0, 0)))),
    "mul_float": (lambda a, b: (a * b) * 3.0,
                  lambda a, b: (3 * a * b, (3 * b, 3 * a), ((0, 3), (3, 0)))),
    "numpy_mul": (lambda a, b: np.float64(3.0) * (a * b),
                  lambda a, b: (3 * a * b, (3 * b, 3 * a), ((0, 3), (3, 0)))),
    "div": (lambda a, b: a / b,
            lambda a, b: (a / b, (1 / b, -a / b**2), ((0, -1 / b**2), (-1 / b**2, 2 * a / b**3)))),
    "float_div": (lambda a, b: 1.0 / a,
                  lambda a, b: (1 / a, (-1 / a**2, 0), ((2 / a**3, 0), (0, 0)))),
    "div_float": (lambda a, b: (a * b) / 4.0,
                  lambda a, b: (a * b / 4, (b / 4, a / 4), ((0, 0.25), (0.25, 0)))),
    "quotient": (lambda a, b: (a * b) / (a + b),
                 lambda a, b: (a * b / (a + b), (b**2 / (a + b)**2, a**2 / (a + b)**2),
                               ((-2 * b**2 / (a + b)**3, 2 * a * b / (a + b)**3),
                                (2 * a * b / (a + b)**3, -2 * a**2 / (a + b)**3)))),
    "sin": (lambda a, b: oracle.sin(a * b),
            lambda a, b: (math.sin(a * b), (b * math.cos(a * b), a * math.cos(a * b)),
                          ((-b * b * math.sin(a * b), math.cos(a * b) - a * b * math.sin(a * b)),
                           (math.cos(a * b) - a * b * math.sin(a * b), -a * a * math.sin(a * b))))),
}


class TestJet:
    @pytest.mark.parametrize("case", sorted(CASES))
    @given(ab=st.lists(st.tuples(coords, coords), min_size=1, max_size=5))
    @settings(max_examples=20)
    def test_derivatives_match_closed_forms(self, case, ab):
        expr, closed = CASES[case]
        x = Jet.variables(ab)  # k = 2 variables at len(ab) points
        out = expr(x[..., 0], x[..., 1])
        assert out.grad.shape == (2, len(ab)) and out.hess.shape == (2, 2, len(ab))
        for k, (a, b) in enumerate(ab):
            val, grad, hess = closed(a, b)
            assert out.val[k] == pytest.approx(val, rel=1e-13, abs=1e-13)
            assert out.grad[:, k] == pytest.approx(np.array(grad, dtype=float),
                                                   rel=1e-12, abs=1e-12)
            assert out.hess[:, :, k] == pytest.approx(np.array(hess, dtype=float),
                                                      rel=1e-12, abs=1e-12)
            assert np.array_equal(out.hess[:, :, k], out.hess[:, :, k].T)

    @given(ab=st.tuples(coords, coords))
    def test_values_are_the_float_arithmetic(self, ab):
        # the value part is plain float arithmetic on the values
        a, b = ab
        x = Jet.variables([ab])
        for expr, _ in CASES.values():
            got = expr(x[..., 0], x[..., 1]).val[0]
            assert got == expr(np.float64(a), np.float64(b))

    @given(ab=st.lists(st.tuples(coords, coords), min_size=1, max_size=5),
           scale=st.sampled_from([1e-150, 1.0, 1e150]))
    def test_square_is_the_general_product_bit_for_bit(self, ab, scale):
        x = Jet.variables(ab)
        u = (x[..., 0] * x[..., 1] + x[..., 0]) * scale  # a nonzero hessian
        twin = Jet(u.val.copy(), u.grad.copy(), u.hess.copy())  # equal, not the same jet
        square, product = u * u, u * twin
        for a, b in ((square.val, product.val), (square.grad, product.grad),
                     (square.hess, product.hess)):
            assert a.tobytes() == b.tobytes()

    def test_sin_passes_floats_and_arrays_through(self):
        assert oracle.sin(0.5) == np.sin(0.5)
        assert np.array_equal(oracle.sin(np.array([0.1, 0.2])), np.sin([0.1, 0.2]))

    def test_seeding_and_indexing(self):
        x = Jet.variables(np.arange(8.0).reshape(2, 4))
        assert x.shape == (2, 4) and x.grad.shape == (4, 2, 4) and x.hess.shape == (4, 4, 2, 4)
        theta = x[..., 2]
        assert np.array_equal(theta.val, [2.0, 6.0])
        assert np.array_equal(theta.grad, [[0, 0], [0, 0], [1, 1], [0, 0]])
        assert not theta.hess.any()
        assert np.array_equal(x[1].grad, np.eye(4))
        # a lone point: 0-d coordinates, and numpy scalars from any operation on them
        lone = Jet.variables(np.arange(4.0))[..., 2]
        assert lone.shape == () and np.array_equal(lone.grad, [0, 0, 1, 0])
        assert type((lone * lone).val) is np.float64 and (lone * lone).grad.shape == (4,)

    def test_diagonal_metric_follows_the_points(self):
        x = np.array([[0.0, 1.5, 1.0, 0.0]])
        jet = spherical_minkowski().g(Jet.variables(x))
        flat = spherical_minkowski().g(x)
        assert isinstance(jet, Jet) and isinstance(flat, np.ndarray)
        assert jet.val.tobytes() == flat.tobytes()
        assert jet.grad.shape == (4, 1, 4, 4) and jet.hess.shape == (4, 4, 1, 4, 4)
        assert jet.grad[1, 0, 2, 2] == 3.0  # d_r r^2 at r = 1.5
        assert jet.hess[1, 1, 0, 2, 2] == 2.0


# -- the oracle on charts with known curvature ------------------------------------

class TestInvert4:
    def test_identity(self):
        assert np.allclose(invert4(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        g = np.diag([-2.0, 0.5, 3.0, 4.0])
        assert np.allclose(invert4(g), np.diag([-0.5, 2.0, 1.0 / 3.0, 0.25]))

    def test_matches_general_solver(self):
        # referee: the inverse in 30-digit mpmath, rounded once to doubles;
        # the error is relative to the largest entry, as small entries cancel
        import mpmath

        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.normal(size=(4, 4))
            g = a + a.T + 8.0 * np.eye(4)
            with mpmath.workdps(30):
                exact = np.array((mpmath.matrix(g.tolist()) ** -1).tolist(), dtype=float)
            assert np.abs(invert4(g) - exact).max() <= 1e-14 * np.abs(exact).max()

    def test_singular_rejected(self):
        g = np.diag([1.0, 1.0, 1.0, 0.0])
        with pytest.raises(SingularMetricError):
            invert4(g)
        rank3 = np.ones((4, 4)) + np.diag([1.0, 1.0, 1.0, 0.0])
        rank3[3] = rank3[0] + rank3[1] - rank3[2]
        with pytest.raises(SingularMetricError):
            invert4(rank3)

    @given(k=st.integers(min_value=-900, max_value=900))
    def test_pivot_check_and_inverse_are_scale_free(self, k):
        # a power of two scales every row exactly, so the normalized
        # matrix and its determinant are unchanged, and the inverse scales
        # exactly, with no overflow or underflow on the way
        lam = 2.0 ** k
        rng = np.random.default_rng(9)
        a = rng.normal(size=(6, 4, 4))
        g = a + np.swapaxes(a, 1, 2) + 8.0 * np.eye(4)
        g[0] = np.diag([1e-4, -1e4, 1e8, 1e8])  # the static chart's spread near a horizon
        with np.errstate(all="raise"):
            assert np.array_equal(invert4(lam * g), invert4(g) / lam)
        nearly = np.eye(4)
        nearly[:2, :2] = [[1.0, 1.0], [1.0, 1.0 + 1e-13]]  # two rows nearly parallel
        with pytest.raises(SingularMetricError):
            invert4(lam * nearly)
        # a diagonal spread is no reason to fail, however wide
        assert np.array_equal(invert4(np.diag([lam, 1.0, 1.0, 1.0])),
                              np.diag([1.0 / lam, 1.0, 1.0, 1.0]))

    def test_huge_entries_do_not_overflow(self):
        g = np.diag([0.5, -2.0, 1e300, 3e299])
        with np.errstate(all="raise"):
            inv = invert4(g)
        assert np.allclose(np.diag(inv) * np.diag(g), 1.0, rtol=1e-15)


def reference_curvature(ginv, dg, hess):
    """The Ricci assembly by the product rule, as einsum contractions.

    It forms d_e Gamma^a_bc in full, as a (n, 4, 4, 4, 4) array, and
    contracts it; the oracle's assembly contracts first. Same arguments
    and results as oracle._curvature.
    """
    s_low = np.einsum('...bdc->...dbc', dg) + np.einsum('...cdb->...dbc', dg) - dg
    ds_low = (np.einsum('...ebdc->...edbc', hess) + np.einsum('...ecdb->...edbc', hess)
              - hess)
    gamma = 0.5 * np.einsum('...ad,...dbc->...abc', ginv, s_low)
    dginv = -np.einsum('...am,...emn,...nd->...ead', ginv, dg, ginv)
    dgamma = 0.5 * (np.einsum('...ead,...dbc->...eabc', dginv, s_low)
                    + np.einsum('...ad,...edbc->...eabc', ginv, ds_low))
    term1 = np.einsum('...ccab->...ab', dgamma)   # d_c Gamma^c_ab
    term2 = np.einsum('...accb->...ab', dgamma)   # d_a Gamma^c_cb
    term3 = np.einsum('...ccd,...dab->...ab', gamma, gamma)
    term4 = np.einsum('...cad,...dcb->...ab', gamma, gamma)
    ricci = term1 - term2 + term3 - term4
    return gamma, ricci, np.einsum('...ab,...ab->...', ginv, ricci)


def _jet_inputs(mf, pts):
    """_curvature's arguments as ricci_at forms them from the chart's jet."""
    g = mf.g(Jet.variables(pts))
    return (invert4(g.val), np.ascontiguousarray(g.grad.transpose(1, 0, 2, 3)),
            np.ascontiguousarray(g.hess.transpose(2, 0, 1, 3, 4)))


def _assert_matches_reference(ginv, dg, hess, tol):
    # Each point is compared in its coordinates scaled by 2^-k, k >= 0:
    # that multiplies dg by 2^k, the Hessian by 2^2k, Gamma by 2^k and R_ab
    # and R by 2^2k, exactly, since the scaled entries stay at most 1. k is
    # the least with max(|dg|, |hess|^(1/2)) * 2^k >= 1/2, so the curvature
    # unit below (the size of g^-1 d2g and of (g^-1 dg)^2, what each term of
    # R_ab is made of; the scalar carries one more g^-1) is at least
    # min(gi / 4, gi^2 / 4) with gi the largest |g^-1| entry, a normal
    # number. Unscaled, a unit below 2^-1022 rounds tol times it to 0, while
    # every product of the two contractions that falls below 2^-1022 rounds
    # to a subnormal step, and the two sum different numbers of them (5
    # steps apart at g00 + 0.05 with every dg 1.9e-157). Scaled, each
    # such rounding is at most 2^-1075 absolute, some 290 orders below tol
    # times the unit, so no floor is needed.
    scale = np.maximum(np.abs(dg).reshape(len(dg), -1).max(axis=1),
                       np.sqrt(np.abs(hess).reshape(len(hess), -1).max(axis=1)))
    k = np.maximum(-np.frexp(scale)[1], 0)
    dg = np.ldexp(dg, k[:, None, None, None])
    hess = np.ldexp(hess, 2 * k[:, None, None, None, None])
    gi, d1, d2 = (np.abs(a).reshape(len(a), -1).max(axis=1) for a in (ginv, dg, hess))
    unit = gi * d2 + (gi * d1) ** 2
    got, want = oracle._curvature(ginv, dg, hess), reference_curvature(ginv, dg, hess)
    for err, bound in ((got[0] - want[0], tol * (gi * d1)[:, None, None, None]),
                       (got[1] - want[1], tol * unit[:, None, None]),
                       (got[2] - want[2], tol * gi * unit)):
        assert np.all(np.abs(err) <= bound)


entries = st.floats(min_value=-1.0, max_value=1.0)


@st.composite
def general_jets(draw):
    """(a, d, h) of a batch of 1 to 5 points: metric perturbation, first and second derivatives."""
    n = draw(st.integers(min_value=1, max_value=5))
    return (draw(hnp.arrays(float, (n, 4, 4), elements=st.floats(-0.1, 0.1))),
            draw(hnp.arrays(float, (n, 4, 4, 4), elements=entries)),
            draw(hnp.arrays(float, (n, 4, 4, 4, 4), elements=entries)))


class TestAssembly:
    @given(general_jets())
    @settings(max_examples=100)
    # metrics whose derivatives are all ~1e-157, where the curvature unit
    # (g^-1 dg)^2 is subnormal unscaled: flat, where the two Ricci sums
    # differ by one step, and g00 + 0.05, where they differ by 5 (the
    # scalars by 10)
    @example((np.zeros((1, 4, 4)), np.full((1, 4, 4, 4), 1.94156381e-157),
              np.zeros((1, 4, 4, 4, 4))))
    @example((np.diag([0.025, 0.0, 0.0, 0.0])[None], np.full((1, 4, 4, 4), 9.5e-158),
              np.zeros((1, 4, 4, 4, 4))))
    def test_general_metrics_match_the_reference(self, jets):
        # both charts are diagonal, so only a metric with every entry filled
        # exercises each index of the contracted identities. With each
        # entry of the symmetric perturbation at most 0.2 the metric keeps
        # the Lorentzian signature and no eigenvalue comes within 0.2 of 0
        a, d, h = jets
        g = np.diag([-1.0, 1.0, 1.0, 1.0]) + a + np.swapaxes(a, 1, 2)
        dg = d + np.swapaxes(d, 2, 3)
        hess = h + np.swapaxes(h, 1, 2)
        hess = hess + np.swapaxes(hess, 3, 4)
        _assert_matches_reference(invert4(g), dg, hess, 1e-12)

    @pytest.mark.parametrize("chart", [warped_chart, static_chart])
    @pytest.mark.parametrize("m, q", [(1.0, 0.6), (1.0, 0.0), (1e-6, 0.9e-6), (3e5, 2.9e5)])
    def test_charts_match_the_reference(self, chart, m, q):
        p = BlackHoleParams(m, q)
        pts = _grid_points(p, 64, theta=1.0)[chart is static_chart]
        _assert_matches_reference(*_jet_inputs(chart(p), pts), 1e-12)

    def test_overflow_raises_instead_of_returning_inf(self, charged):
        # at theta = 1e-150 g^phiphi ~ 1e300 and its derivative overflows:
        # an error when numpy raises, inf and NaN when it is told to ignore
        x = [1.0, 0.0, 1e-150, 0.0]
        with np.errstate(all="raise"), pytest.raises(FloatingPointError,
                                                     match="overflow encountered in matmul"):
            ricci_at(warped_chart(charged), x)
        with np.errstate(all="ignore"):
            cp = ricci_at(warped_chart(charged), x)
        assert not np.isfinite(cp.ricci).all() and math.isnan(cp.scalar)


class TestChristoffel:
    def test_flat_vanishes(self):
        gamma = ricci_at(FLAT, [0.0, 0.3, -0.2, 1.0]).christoffel
        assert not gamma.any()

    def test_sphere_at_equator(self):
        gamma = ricci_at(sphere_chart(1.0), [0.0, 0.0, PI_2, 0.4]).christoffel
        # Gamma^theta_phiphi = -sin th cos th and Gamma^phi_thetaphi = cot th
        # both vanish on the equator
        assert gamma[2, 3, 3] == pytest.approx(0.0, abs=1e-15)
        assert gamma[3, 2, 3] == pytest.approx(0.0, abs=1e-15)

    def test_sphere_off_equator(self):
        th = 1.1
        gamma = ricci_at(sphere_chart(2.0), [0.0, 0.0, th, 0.4]).christoffel
        assert gamma[2, 3, 3] == pytest.approx(-math.sin(th) * math.cos(th), rel=1e-14)
        assert gamma[3, 2, 3] == pytest.approx(1.0 / math.tan(th), rel=1e-14)

    def test_spherical_minkowski_symbols(self):
        r, th = 1.7, 0.9
        gamma = ricci_at(spherical_minkowski(), [0.3, r, th, -1.0]).christoffel
        s, c = math.sin(th), math.cos(th)
        want = np.zeros((4, 4, 4))
        want[1, 2, 2] = -r
        want[1, 3, 3] = -r * s * s
        want[2, 1, 2] = want[2, 2, 1] = want[3, 1, 3] = want[3, 3, 1] = 1.0 / r
        want[2, 3, 3] = -s * c
        want[3, 2, 3] = want[3, 3, 2] = c / s
        assert np.allclose(gamma, want, rtol=1e-14, atol=1e-15)

    def test_warped_chart_sphere_expansion(self, charged):
        # oracle: Gamma^theta_mu theta = f2'/f2 = f1/r = 0.8 at r = 1
        mu = mu_of_r(charged, 1.0)
        gamma = ricci_at(warped_chart(charged), [mu, 0.0, PI_2, 0.0]).christoffel
        assert gamma[2, 0, 2] == pytest.approx(0.8, abs=1e-10)

    def test_lower_index_symmetry(self, charged):
        mu = mu_of_r(charged, 1.1)
        gamma = ricci_at(warped_chart(charged), [mu, 0.0, 1.0, 0.2]).christoffel
        sym = np.transpose(gamma, (0, 2, 1))
        assert np.max(np.abs(gamma - sym)) <= 1e-14 * max(1.0, np.max(np.abs(gamma)))

    def test_domain_enforced(self, charged):
        chart = warped_chart(charged)
        with pytest.raises(DomainError):
            ricci_at(chart, [-0.5, 0.0, PI_2, 0.0])
        # a point next to mu = 0 is inside the chart and is evaluated
        assert np.isfinite(ricci_at(chart, [1e-4, 0.0, PI_2, 0.0]).ricci).all()


class TestRicci:
    def test_flat_vanishes(self):
        cp = ricci_at(FLAT, [0.0, 0.3, -0.2, 1.0])
        assert not cp.ricci.any()
        assert cp.scalar == 0.0

    @pytest.mark.parametrize("x", [(0.3, 1.7, 0.9, -1.0), (0.0, 1e-3, 0.2, 0.0),
                                   (-5.0, 40.0, 3.0, 2.0)])
    def test_flat_in_curved_coordinates_vanishes_to_roundoff(self, x):
        mf = spherical_minkowski()
        cp = ricci_at(mf, x)
        r = x[1]
        # mixed-index components in units of r^-2, as verify weighs them
        root = np.sqrt(np.abs(np.diag(mf.g(x))))
        assert np.max(np.abs(cp.ricci) / np.outer(root, root)) * r * r <= 1e-14
        assert abs(cp.scalar) * r * r <= 1e-14

    def test_sphere_sign_convention(self):
        # the round sphere must come out with R_thth = +1 for any radius
        th = 1.0
        for radius in (1.0, 1.7, 1e-5, 3e6):
            cp = ricci_at(sphere_chart(radius), [0.0, 0.0, th, 0.4])
            assert cp.ricci[2, 2] == pytest.approx(1.0, rel=1e-14)
            assert cp.ricci[3, 3] == pytest.approx(math.sin(th) ** 2, rel=1e-14)
            assert cp.scalar == pytest.approx(2.0 / radius ** 2, rel=1e-14)

    def test_charged_interior_diagonal(self, charged):
        # this is the independent referee for the closed forms
        mu = mu_of_r(charged, 1.0)
        cp = ricci_at(warped_chart(charged), [mu, 0.0, PI_2, 0.0])
        want = (0.36, -0.2304, 0.36, 0.36)
        for i, val in enumerate(want):
            assert cp.ricci[i, i] == pytest.approx(val, abs=1e-9)
        assert abs(cp.scalar) <= 1e-12

    def test_static_chart_transforms(self, charged):
        # oracle: tensor transformation with dr/dmu = N, so R_mumu = N^2 R_rr
        cp = ricci_at(static_chart(charged), [0.0, 1.0, PI_2, 0.0])
        n2 = lapse_squared(charged, 1.0)
        assert cp.ricci[1, 1] * n2 == pytest.approx(0.36, abs=1e-13)
        assert cp.ricci[0, 0] == pytest.approx(-0.2304, abs=1e-13)

    def test_ricci_symmetry(self, charged):
        mu = mu_of_r(charged, 0.9)
        cp = ricci_at(warped_chart(charged), [mu, 0.0, 1.1, 0.3])
        scale = max(1.0, float(np.max(np.abs(cp.ricci))))
        assert np.max(np.abs(cp.ricci - cp.ricci.T)) <= 1e-14 * scale

    def test_off_diagonal_vanishes(self, charged):
        for r in (0.5, 1.0, 1.5):
            mu = mu_of_r(charged, r)
            cp = ricci_at(warped_chart(charged), [mu, 0.0, PI_2, 0.0])
            off = cp.ricci - np.diag(np.diag(cp.ricci))
            assert np.max(np.abs(off)) <= 1e-14

    def test_domain_enforced(self, charged):
        with pytest.raises(DomainError):
            ricci_at(static_chart(charged), [0.0, 1.81, PI_2, 0.0])


class TestDomainBox:
    BOX = ((-1.0, 1.0), (2.0, 3.0), (0.0, math.pi), (-math.inf, math.inf))
    CENTER = (0.0, 2.5, PI_2, 0.0)

    def chart(self):
        return dataclasses.replace(FLAT, domain=self.BOX)

    def test_inside_passes(self):
        assert not ricci_at(self.chart(), self.CENTER).ricci.any()

    @pytest.mark.parametrize("axis, value", [(0, 1.5), (1, 1.0), (2, -0.1), (1, math.nan),
                                             (0, 1.0), (2, math.pi)])
    def test_point_outside_raises(self, axis, value):
        x = list(self.CENTER)
        x[axis] = value
        with pytest.raises(DomainError, match="outside chart domain"):
            ricci_at(self.chart(), x)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("end", [0, 1])
    def test_a_point_next_to_each_finite_bound_is_inside(self, axis, end):
        bound = self.BOX[axis][end]
        x = list(self.CENTER)
        x[axis] = math.nextafter(bound, -bound if end else math.inf)
        assert not ricci_at(self.chart(), x).ricci.any()

    @pytest.mark.parametrize("x", [(0.0, 0.0, 0.0, 0.0), (-1e100, 1e100, 5.0, -3.0),
                                   (1e-300, -7.0, 1e6, 1e-300)])
    def test_default_domain_never_raises(self, x):
        assert not ricci_at(FLAT, x).ricci.any()

    def test_bounds_built_once_from_the_domain(self):
        chart = self.chart()
        assert chart.bounds.tolist() == [[-1.0, 2.0, 0.0, -math.inf], [1.0, 3.0, math.pi, math.inf]]
        assert dataclasses.replace(chart, domain=FLAT.domain).bounds.tolist() == \
            [[-math.inf] * 4, [math.inf] * 4]

    @pytest.mark.parametrize("domain", [
        ((0.0, 1.0),) * 3,
        ((0.0, 1.0, 2.0),) * 4,
        ((0.0, 1.0),) * 3 + ((1.0, 1.0),),
        ((0.0, 1.0),) * 3 + ((math.nan, 1.0),),
        (("low", 1.0),) * 4,
        ((0.0, 1.0), None, (0.0, 1.0), (0.0, 1.0)),
    ], ids=["three_intervals", "triples", "empty", "nan", "text", "none"])
    def test_malformed_domain_rejected_at_construction(self, domain):
        with pytest.raises(ValueError, match="domain must be four intervals"):
            MetricField(FLAT.g, domain)

    def test_charts_declare_their_boxes(self, charged):
        hp = horizons(charged)
        assert static_chart(charged).domain == (
            LINE, (hp.r_minus, hp.r_plus), (0.0, math.pi), LINE)
        assert warped_chart(charged).domain == (
            (0.0, charged.mass * math.pi), LINE, (0.0, math.pi), LINE)


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
        # the strongest property in the package: raw-component derivatives
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

    @pytest.mark.parametrize("m, qr", [(1.0, 0.6), (1.0, 0.0), (3.0, 0.99), (1e-3, 0.3)])
    @pytest.mark.parametrize("frac", [1e-4, 1.0 - 1e-4])
    def test_warped_chart_holds_next_to_the_horizons(self, m, qr, frac):
        # a difference of radii would cancel here, and the Ricci assembly
        # amplifies the metric's relative error by about 1/N^2
        p = BlackHoleParams(m, m * qr)
        mu, theta = m * math.pi * frac, 1.0
        r = _kepler_inverse(p, mu)
        rc = ricci_closed_form(p, r, theta)
        floors = verify._component_floors(warp_state(p, r), theta, m)
        cp = ricci_at(warped_chart(p), [mu, 0.0, theta, 0.0])
        assert max(verify._rel(a, float(b), f) for a, b, f in zip(
            (rc.r_mumu, rc.r_nunu, rc.r_thth, rc.r_phph), np.diag(cp.ricci), floors)) <= 1e-7
        assert m * m * abs(cp.scalar) <= 1e-7

    @given(m=st.floats(min_value=1e-8, max_value=1e8),
           qr=st.floats(min_value=0.0, max_value=1.0 - 1e-8),
           frac=st.floats(min_value=0.05, max_value=0.95),
           theta=st.floats(min_value=0.1, max_value=math.pi - 0.1))
    @settings(max_examples=60)
    def test_oracle_matches_closed_form_at_every_scale(self, m, qr, frac, theta):
        # in verify's units: each component over its metric weight in m^-2,
        # scalars and off-diagonal entries in m^-2, at a position inside
        # verify's default guard band. r is the warped chart's own r(mu), so
        # the comparison sees the oracle alone
        p = BlackHoleParams(m, m * qr)
        hp = horizons(p)
        mu = mu_closed_form_sqrt(p, hp.r_minus + frac * hp.width)
        r = _kepler_inverse(p, mu)
        assert hp.r_minus < r < hp.r_plus
        rc = ricci_closed_form(p, r, theta)
        closed = (rc.r_mumu, rc.r_nunu, rc.r_thth, rc.r_phph)
        floors = verify._component_floors(warp_state(p, r), theta, m)
        wc, sc = warped_chart(p), static_chart(p)
        cw = ricci_at(wc, [mu, 0.0, theta, 0.0])
        cs = ricci_at(sc, [0.0, r, theta, 0.0])
        n2 = lapse_squared(p, r)
        transformed = (cs.ricci[1, 1] * n2, cs.ricci[0, 0], cs.ricci[2, 2], cs.ricci[3, 3])
        for got in (np.diag(cw.ricci), transformed):
            assert max(verify._rel(a, float(b), f)
                       for a, b, f in zip(closed, got, floors)) <= 1e-9
        assert m * m * max(abs(cw.scalar), abs(cs.scalar)) <= 1e-9
        assert verify._off_diagonal_norm(cw.ricci, wc.g, cw.point, m) <= 1e-9
        assert verify._off_diagonal_norm(cs.ricci, sc.g, cs.point, m) <= 1e-9


# -- batches --------------------------------------------------------------------------

def _outcome(evaluate):
    """The exact bits of a result, or the type of the error it raised."""
    try:
        out = evaluate()
    except (DomainError, SingularMetricError) as exc:
        return type(exc)
    return tuple(np.asarray(a, dtype=float).tobytes()
                 for a in (out.christoffel, out.ricci, out.scalar))


def _counting(mf):
    calls = []

    def g(x):
        calls.append(np.shape(x))
        return mf.g(x)

    return dataclasses.replace(mf, g=g), calls


def _grid_points(p, n, theta=PI_2):
    """Warped and static chart points over the guarded interior grid."""
    grid = interior_grid(p, n)
    mus = mu_of_r(p, np.array(grid))
    return (np.array([[mu, 0.0, theta, 0.0] for mu in mus]),
            np.array([[0.0, r, theta, 0.0] for r in grid]))


# run by test_lone_point_is_its_batch_entry_under_the_default_dispatch in a
# child interpreter: m from 0.3 to 10, Q/m up to 0.98, points 1e-6 of the
# gap from each horizon and inside, then 2000 seeded mu of the Kepler inverse
_LONE_POINTS = """
import math
import numpy as np
from rnwarp.oracle import ricci_at
from rnwarp.reissner_nordstrom import (BlackHoleParams, _kepler_inverse, horizons, mu_of_r,
                                       static_chart, warped_chart)

rng = np.random.default_rng(30)
configs = [(0.3, 0.0), (10.0, 9.8)] + [(m, m * rng.uniform(0.0, 0.98))
                                       for m in 0.3 * (10.0 / 0.3) ** rng.uniform(size=22)]
for m, q in configs:
    p = BlackHoleParams(m, q)
    hp = horizons(p)
    r = hp.r_minus + hp.width * np.concatenate([[1e-6, 1.0 - 1e-6], rng.uniform(0.05, 0.95, 4)])
    theta = rng.uniform(0.3, 2.8)
    for chart, pts in ((warped_chart(p), [[mu, 0.0, theta, 0.0] for mu in mu_of_r(p, r)]),
                       (static_chart(p), [[0.0, x, theta, 0.0] for x in r])):
        batch = ricci_at(chart, pts)
        for k, x in enumerate(pts):
            alone = ricci_at(chart, x)
            for field in ("christoffel", "ricci", "metric", "scalar"):
                got, want = np.float64(getattr(alone, field)), getattr(batch, field)[k]
                assert got.tobytes() == want.tobytes(), (m, q, x, field)
for m, q in configs[:20]:
    p = BlackHoleParams(m, q)
    mus = m * math.pi * np.concatenate([[1e-6, 1.0 - 1e-6], rng.uniform(size=98)])
    batch = _kepler_inverse(p, mus)
    for k, mu in enumerate(mus.tolist()):
        assert _kepler_inverse(p, mu) == batch[k], (m, q, mu)
"""


class TestBatchedPoints:
    @pytest.mark.parametrize("chart", [warped_chart, static_chart])
    def test_metric_shapes(self, charged, chart):
        mf = chart(charged)
        x = np.array([mu_of_r(charged, 1.0), 1.0, 1.1, 0.2])
        assert mf.g(x).shape == (4, 4)
        assert mf.g(list(x)).shape == (4, 4)
        assert mf.g(np.tile(x, (5, 1))).shape == (5, 4, 4)
        assert mf.g(np.tile(x, (2, 3, 1))).shape == (2, 3, 4, 4)

    @pytest.mark.parametrize("chart", [warped_chart, static_chart])
    def test_jet_value_is_the_float_metric(self, charged, chart):
        # ricci_at inverts the value of the jet; the verify weights and the
        # benchmark read the float metric: both are the same bits
        mf = chart(charged)
        rng = np.random.default_rng(3)
        hp = horizons(charged)
        n = 200
        pts = np.column_stack([
            rng.uniform(0.05, 0.95, n) * math.pi * charged.mass,
            hp.r_minus + hp.width * rng.uniform(0.05, 0.95, n),
            rng.uniform(0.3, 2.8, n), rng.uniform(-1.0, 1.0, n)])
        assert mf.g(Jet.variables(pts)).val.tobytes() == mf.g(pts).tobytes()
        # ricci_at seeds a lone point in its own shape: a Jet of shape (4,),
        # whose values are numpy scalars
        for x in pts[:50]:
            jet = mf.g(Jet.variables(x))
            assert jet.val.shape == (4, 4) and jet.grad.shape == (4, 4, 4)
            assert jet.val.tobytes() == mf.g(x).tobytes()

    @pytest.mark.parametrize("mu", [0.0, -1.0, -0.0, math.pi, 4.0, math.inf, math.nan])
    def test_lone_jet_mu_outside_the_chart_raises(self, charged, mu):
        # a lone point's mu reaches the Kepler solve as a 0-d value
        with pytest.raises(DomainError) as raised:
            warped_chart(charged).g(Jet.variables(np.array([mu, 0.0, 1.0, 0.0])))
        assert str(raised.value) == f"mu={mu} outside the open interval (0, {math.pi})"

    @pytest.mark.parametrize("chart", [warped_chart, static_chart])
    def test_curvature_point_carries_the_float_metric(self, charged, chart):
        # verify weights the off-diagonal entries with this field instead of
        # evaluating the chart a second time
        mf = chart(charged)
        pts = _grid_points(charged, 64)[chart is static_chart]
        batch = ricci_at(mf, pts)
        assert batch.metric.shape == (64, 4, 4)
        assert batch.metric.tobytes() == mf.g(pts).tobytes()
        alone = ricci_at(mf, pts[17])
        assert alone.metric.shape == (4, 4)
        assert alone.metric.tobytes() == mf.g(pts[17]).tobytes()

    @pytest.mark.parametrize("chart", [warped_chart, static_chart])
    def test_metric_point_independent_of_batch(self, charged, chart):
        mf = chart(charged)
        x = np.array([mu_of_r(charged, 1.2), 1.2, 1.0, 0.3])
        pts = np.concatenate([np.tile(x, (3, 1)), x + 0.01 * np.arange(-10, 10)[:, None]])
        order = np.random.default_rng(5).permutation(len(pts))
        batch = mf.g(pts[order])
        for k, i in enumerate(order):
            assert batch[k].tobytes() == mf.g(pts[i]).tobytes()

    @pytest.mark.parametrize("chart", [warped_chart, static_chart])
    def test_point_independent_of_the_rest_of_the_batch(self, charged, chart):
        pts = _grid_points(charged, 40)[chart is static_chart]
        pts[::3, 2] = 1.1  # two thetas in the batch
        mf = chart(charged)
        whole = ricci_at(mf, pts)
        assert whole.christoffel.shape == (40, 4, 4, 4) and whole.scalar.shape == (40,)
        order = np.random.default_rng(2).permutation(len(pts))
        shuffled = ricci_at(mf, pts[order])
        for field in ("christoffel", "ricci", "scalar"):
            assert getattr(shuffled, field).tobytes() == getattr(whole, field)[order].tobytes()
        for k in (0, 17, 39):
            alone = ricci_at(mf, pts[k])
            assert type(alone.scalar) is float
            assert alone.christoffel.tobytes() == whole.christoffel[k].tobytes()
            assert alone.ricci.tobytes() == whole.ricci[k].tobytes()
            assert alone.scalar == whole.scalar[k]

    @pytest.mark.parametrize("chart", [warped_chart, static_chart])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65])
    def test_bits_independent_of_batch_size_and_order(self, charged, chart, n):
        # each point's matrices go to the same matmul kernel whatever the
        # batch around them, reversed, shuffled or alone
        pts = _grid_points(charged, 65)[chart is static_chart][:n]
        pts[1::2, 2] = 1.1
        mf = chart(charged)
        whole = ricci_at(mf, pts)
        for order in (np.arange(n)[::-1], np.random.default_rng(n).permutation(n)):
            moved = ricci_at(mf, pts[order])
            for field in ("christoffel", "ricci", "scalar"):
                assert getattr(moved, field).tobytes() == getattr(whole, field)[order].tobytes()
        for k in range(n):
            alone = ricci_at(mf, pts[k])
            assert alone.christoffel.tobytes() == whole.christoffel[k].tobytes()
            assert alone.ricci.tobytes() == whole.ricci[k].tobytes()
            assert alone.scalar == whole.scalar[k]

    @pytest.mark.parametrize("chart", [warped_chart, static_chart])
    def test_one_metric_call_per_batch(self, charged, chart):
        mf, calls = _counting(chart(charged))
        ricci_at(mf, _grid_points(charged, 20)[chart is static_chart])
        ricci_at(mf, [mu_of_r(charged, 1.0), 1.0, 1.0, 0.0])
        # a lone point reaches g in its own shape, not as a batch of one
        assert calls == [(20, 4), (4,)]

    @pytest.mark.parametrize("m, q", [(0.1, 0.0), (0.16523791279038202, 0.0), (1.0, 0.6),
                                      (0.3, 0.2)])
    def test_batch_raises_exactly_when_a_point_raises(self, m, q):
        p = BlackHoleParams(m, q)
        hp = horizons(p)
        for guard in (0.05, 1e-3, 1e-7, 0.0):
            grid = np.linspace(hp.r_minus + guard * hp.width, hp.r_plus - guard * hp.width, 12)
            mus = np.linspace(guard * m * math.pi, (1.0 - guard) * m * math.pi, 12)
            for chart, pts in ((warped_chart(p), [[mu, 0.0, PI_2, 0.0] for mu in mus]),
                               (static_chart(p), [[0.0, r, PI_2, 0.0] for r in grid])):
                alone = [_outcome(lambda: ricci_at(chart, x)) for x in pts]
                kinds = {o for o in alone if isinstance(o, type)}
                batch = _outcome(lambda: ricci_at(chart, pts))
                if not kinds:
                    assert batch == tuple(b"".join(parts) for parts in zip(*alone))
                elif DomainError in kinds:
                    assert batch is DomainError
                else:
                    assert batch is SingularMetricError
                assert (guard == 0.0) == bool(kinds)  # only the horizons are outside

    def test_lone_point_is_its_batch_entry_under_the_default_dispatch(self):
        """A lone point and a scalar Kepler inverse are their batch entries, unpinned.

        conftest.py caps numpy's SIMD dispatch at AVX2 and OpenBLAS at
        Haswell, so the rest of the suite never runs the AVX-512 kernels
        that an unpinned process gets. A lone point's jet values are numpy
        scalars, whose ** is libm's pow where an array's is numpy's SIMD
        loop, so the two can differ there alone. This runs the check in a
        child interpreter with both variables removed. On a CPU without
        AVX-512 the child runs the kernels of the pinned suite.
        """
        env = {k: v for k, v in os.environ.items()
               if k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
        env["PYTHONPATH"] = str(Path(oracle.__file__).parents[1])
        child = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", _LONE_POINTS],
                               env=env, capture_output=True, text=True, timeout=60)
        assert child.returncode == 0, child.stderr

    def test_invert4_batch_equals_each_matrix(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(50, 4, 4)) * np.exp(4.0 * rng.normal(size=(50, 4, 4)))
        g = a + np.swapaxes(a, 1, 2) + 8.0 * np.eye(4)
        batch = invert4(np.asfortranarray(g))  # any memory layout, C order out
        assert batch.flags.c_contiguous and invert4(g[0]).flags.c_contiguous
        for k in range(50):
            assert batch[k].tobytes() == invert4(g[k]).tobytes()
        singular = g.copy()
        singular[30] = np.diag([1.0, 1.0, 1.0, 0.0])
        with pytest.raises(SingularMetricError):
            invert4(singular)
