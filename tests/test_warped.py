import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rnwarp.errors import DomainError
from rnwarp.warped import RicciDiag, WarpState, ricci_from_warps, scalar_from_ricci

PI_2 = math.pi / 2.0

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
