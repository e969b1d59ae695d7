"""Curvature of the line x sphere multiply warped product.

The manifold is R^1 x_{f1} R^1 x_{f2} S^2 with metric
ds^2 = -dmu^2 + f1(mu)^2 dnu^2 + f2(mu)^2 (dtheta^2 + sin^2 theta dphi^2),
signature (-,+,+,+). Curvature is expressed purely in terms of the warp
values and their mu-derivatives at a point, so the same formulas take any
positive warps: RN's (geometry module) or random analytic ones (tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class WarpState:
    """Warp values and first/second mu-derivatives at one point or along a grid.

    f1 scales the line fiber and is dimensionless; f2 is the areal radius
    of the sphere fiber (length units). Each field is a float, or an array
    with one entry per point. Both warps must be positive at every entry.
    """

    f1: float
    f2: float
    f1p: float
    f2p: float
    f1pp: float
    f2pp: float

    def __post_init__(self):
        if not (np.greater(self.f1, 0.0).all() and np.greater(self.f2, 0.0).all()):
            raise DomainError(f"warping functions must be positive, got f1={self.f1}, f2={self.f2}")


@dataclass(frozen=True)
class RicciDiag:
    """The four nonvanishing Ricci components (length^-2) plus the scalar.

    The components and the scalar are floats, or arrays along a grid;
    r_phph = r_thth * sin(theta)^2 at the polar angle theta they were
    evaluated at.
    """

    r_mumu: float
    r_nunu: float
    r_thth: float
    r_phph: float
    scalar: float


def ricci_from_warps(w: WarpState, theta: float) -> RicciDiag:
    """Diagonal Ricci components of the warped product at w's point or points.

    R_mumu = -f1''/f1 - 2 f2''/f2
    R_nunu = 2 f1 f1' f2'/f2 + f1 f1''
    R_thth = f1' f2 f2'/f1 + f2 f2'' + f2'^2 + 1
    R_phph = R_thth sin^2 theta
    """
    _require_theta(theta)
    r_mumu = -w.f1pp / w.f1 - 2.0 * w.f2pp / w.f2
    r_nunu = 2.0 * w.f1 * w.f1p * w.f2p / w.f2 + w.f1 * w.f1pp
    r_thth = w.f1p * w.f2 * w.f2p / w.f1 + w.f2 * w.f2pp + w.f2p * w.f2p + 1.0
    r_phph = r_thth * math.sin(theta) ** 2
    return RicciDiag(r_mumu, r_nunu, r_thth, r_phph,
                     _ricci_scalar(r_mumu, r_nunu, r_thth, r_phph, theta, w))


def _require_theta(theta: float) -> None:
    """Raise DomainError unless the polar angle theta lies in (0, pi); NaN does not."""
    if not 0.0 < theta < math.pi:
        raise DomainError(f"theta must lie in (0, pi), got {theta}")


def _ricci_scalar(r_mumu, r_nunu, r_thth, r_phph, theta: float, w: WarpState):
    """Scalar curvature: the Ricci trace with the inverse warped metric.

    R = -R_mumu + R_nunu/f1^2 + R_thth/f2^2 + R_phph/(f2^2 sin^2 theta).

    Where sin^2 theta <= 1e-30 the last term is taken as R_thth/f2^2, which
    is exact because r_phph carries the same sin^2 theta factor.
    """
    f1sq = w.f1 * w.f1
    f2sq = w.f2 * w.f2
    sin2 = math.sin(theta) ** 2
    if sin2 > 1e-30:
        phph_term = r_phph / (f2sq * sin2)
    else:
        phph_term = r_thth / f2sq
    return -r_mumu + r_nunu / f1sq + r_thth / f2sq + phph_term
