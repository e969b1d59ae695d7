import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rnwarp import oracle
from rnwarp.errors import DomainError
from rnwarp.oracle import Jet, MetricField, diagonal_metric, points, ricci_at
from rnwarp.warped import RicciDiag, WarpState, ricci_from_warps, scalar_from_ricci

PI_2 = math.pi / 2.0
EPS = np.finfo(float).eps

# the r = 1 state of the (m=1, Q=0.6) interior; all values exact decimals
CHARGED_STATE = WarpState(f1=0.8, f2=1.0, f1p=-0.64, f2p=0.8, f1pp=0.736, f2pp=-0.64)

# the r = 1 state of the (m=1, Q=0) interior: f1 = 1, f1' = -1, f1'' = 2
FLAT_STATE = WarpState(f1=1.0, f2=1.0, f1p=-1.0, f2p=1.0, f1pp=2.0, f2pp=-1.0)

positive = st.floats(min_value=0.1, max_value=10.0)
small = st.floats(min_value=-5.0, max_value=5.0)
angles = st.floats(min_value=0.05, max_value=math.pi - 0.05)


def test_static_sphere_warp():
    # constant warps: only the sphere term survives
    rd = ricci_from_warps(WarpState(1.0, 1.0, 0.0, 0.0, 0.0, 0.0), PI_2)
    assert (rd.r_mumu, rd.r_nunu, rd.r_thth, rd.r_phph) == (0.0, 0.0, 1.0, 1.0)
    assert rd.scalar == pytest.approx(2.0)


def test_charged_interior_state():
    # oracle: direct evaluation of the closed-form components with Q = 0.6,
    # f2 = 1, cross-checked against the tensor oracle elsewhere
    rd = ricci_from_warps(CHARGED_STATE, PI_2)
    assert rd.r_mumu == pytest.approx(0.36, abs=1e-13)
    assert rd.r_nunu == pytest.approx(-0.2304, abs=1e-13)
    assert rd.r_thth == pytest.approx(0.36, abs=1e-13)
    assert rd.r_phph == pytest.approx(0.36, abs=1e-13)
    assert rd.scalar == pytest.approx(0.0, abs=1e-10)


def test_uncharged_interior_is_ricci_flat():
    rd = ricci_from_warps(FLAT_STATE, PI_2)
    for v in (rd.r_mumu, rd.r_nunu, rd.r_thth, rd.r_phph, rd.scalar):
        assert abs(v) <= 1e-14


def test_scalar_of_zero_diagonal():
    rd = RicciDiag(0.0, 0.0, 0.0, 0.0, 0.0, PI_2)
    assert scalar_from_ricci(rd, CHARGED_STATE) == 0.0


def test_scalar_trace_arithmetic():
    # unit warps, theta = pi/2: R = -1 + 1 + 1 + 1 = 2
    rd = RicciDiag(1.0, 1.0, 1.0, math.sin(PI_2) ** 2, 0.0, PI_2)
    w = WarpState(1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    assert scalar_from_ricci(rd, w) == pytest.approx(2.0)


def test_scalar_pole_guard():
    # at theta -> 0 the phph/sin^2 term switches to the thth value, exact
    # by the sin^2 proportionality of the components
    w = WarpState(1.0, 2.0, 0.0, 0.0, 0.0, 0.0)
    rd = RicciDiag(0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    assert scalar_from_ricci(rd, w) == pytest.approx(0.5)


@given(f1=positive, f2=positive, f1p=small, f2p=small, f1pp=small, f2pp=small,
       theta=angles)
def test_phph_proportionality_is_exact(f1, f2, f1p, f2p, f1pp, f2pp, theta):
    rd = ricci_from_warps(WarpState(f1, f2, f1p, f2p, f1pp, f2pp), theta)
    assert rd.r_phph == rd.r_thth * math.sin(theta) ** 2  # bitwise, by construction
    assert rd.theta == theta


@given(f1=positive, f2=positive, f1p=small, f2p=small, f1pp=small, f2pp=small,
       lam=st.floats(min_value=0.1, max_value=10.0))
def test_line_fiber_rescale(f1, f2, f1p, f2p, f1pp, f2pp, lam):
    # scaling (f1, f1', f1'') together leaves mumu/thth/phph unchanged and
    # scales nunu quadratically
    base = ricci_from_warps(WarpState(f1, f2, f1p, f2p, f1pp, f2pp), PI_2)
    scaled = ricci_from_warps(
        WarpState(lam * f1, f2, lam * f1p, f2p, lam * f1pp, f2pp), PI_2)
    rel = 1e-12
    assert scaled.r_mumu == pytest.approx(base.r_mumu, rel=rel, abs=1e-12)
    assert scaled.r_thth == pytest.approx(base.r_thth, rel=rel, abs=1e-12)
    assert scaled.r_phph == pytest.approx(base.r_phph, rel=rel, abs=1e-12)
    assert scaled.r_nunu == pytest.approx(lam * lam * base.r_nunu, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("f1,f2", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
def test_warps_must_be_positive(f1, f2):
    with pytest.raises(DomainError):
        WarpState(f1, f2, 0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("f1,f2", [([1.0, 0.0], [1.0, 1.0]), ([1.0, 1.0], [2.0, -2.0]),
                                   ([1.0, math.nan], [1.0, 1.0])])
def test_warps_must_be_positive_at_every_entry(f1, f2):
    zeros = np.zeros(2)
    WarpState(np.ones(2), np.ones(2), zeros, zeros, zeros, zeros)
    with pytest.raises(DomainError):
        WarpState(np.array(f1), np.array(f2), zeros, zeros, zeros, zeros)


@pytest.mark.parametrize("theta", [0.0, math.pi, -0.1, 4.0])
def test_theta_domain(theta):
    with pytest.raises(DomainError):
        ricci_from_warps(CHARGED_STATE, theta)


# f1 = a0 + a1 sin(a2 mu) and f2 = a3 + a4 mu + a5 mu^2, both at least 0.1
# on the mu of WARP_MU
warp_coefficients = st.tuples(st.floats(1.0, 3.0), st.floats(-0.9, 0.9), st.floats(-3.0, 3.0),
                              st.floats(1.0, 3.0), st.floats(-0.5, 0.5), st.floats(-0.4, 0.4))
WARP_MU = np.linspace(0.05, 0.95, 8)


def _curvature_unit(w, theta):
    """The size of the terms each mixed Ricci component sums, per point.

    The warp formulas' f1''/f1, f2''/f2, f1'f2'/(f1 f2) and (f2'/f2)^2,
    and the sphere's 1/f2^2, which the oracle's chart forms as
    (1 + cot^2 theta)/f2^2 = 1/(f2 sin theta)^2.
    """
    return (np.abs(w.f1pp / w.f1) + 2.0 * np.abs(w.f2pp / w.f2)
            + 2.0 * np.abs(w.f1p * w.f2p / (w.f1 * w.f2)) + (w.f2p / w.f2) ** 2
            + 1.0 / (w.f2 * math.sin(theta)) ** 2)


@given(a=warp_coefficients, theta=angles)
def test_warp_formulas_match_the_oracle_off_rn(a, theta):
    # On RN's warps f2' = f1 and f2'' = f1' hold exactly, so a term wrong
    # only off RN cancels wherever verify looks; here the warps are any
    # analytic ones. The oracle computes the Ricci tensor of
    # diag(-1, f1^2, f2^2, f2^2 sin^2 theta) from the chart's jets, with
    # none of the warp algebra, and WarpState is read off the same jets.
    # Each mixed component R^a_b = R_ab / g_aa is four contractions of up
    # to 16 products each, every one at most the unit in size, and each
    # rounding is at most EPS of it: 64 EPS of the unit bounds them, and
    # the scalar, the trace of four, 4 * 64 EPS (measured worst: 8 and 12
    # EPS over 14000 draws of 8 points)
    def warps(mu):
        return a[0] + a[1] * oracle.sin(a[2] * mu), a[3] + a[4] * mu + a[5] * (mu * mu)

    def g(x):
        x = points(x)
        f1, f2 = warps(x[..., 0])
        s = oracle.sin(x[..., 2])
        return diagonal_metric(x, (-1.0, f1 * f1, f2 * f2, (f2 * f2) * (s * s)))

    x = np.zeros((len(WARP_MU), 4))
    x[:, 0], x[:, 2] = WARP_MU, theta
    cp = ricci_at(MetricField(g), x)
    f1, f2 = warps(Jet.variables(x)[..., 0])
    w = WarpState(f1.val, f2.val, f1.grad[0], f2.grad[0], f1.hess[0, 0], f2.hess[0, 0])
    rd = ricci_from_warps(w, theta)
    weights = cp.metric.diagonal(0, 1, 2)  # g_aa, one row per point
    want = np.zeros((len(WARP_MU), 4, 4))
    want[:, range(4), range(4)] = np.array([rd.r_mumu, rd.r_nunu, rd.r_thth, rd.r_phph]).T / weights
    unit = _curvature_unit(w, theta)
    assert np.all(np.abs(cp.ricci / weights[:, :, None] - want) <= 64 * EPS * unit[:, None, None])
    assert np.all(np.abs(cp.scalar - rd.scalar) <= 4 * 64 * EPS * unit)
