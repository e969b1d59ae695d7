"""Perfect-fluid source terms and field-equation residuals in the interior.

A comoving perfect fluid T_ab = rho u_a u_b + P (g_ab + u_a u_b) is
matched against the interior curvature through G_ab = 8 pi T_ab. With the
scalar curvature vanishing, G_ab equals the Ricci tensor, and the four
diagonal balance equations read, in the warped chart,

    (mumu)  Q^2/f2^4          - 8 pi P f1^2
    (nunu)  -Q^2 f1^2/f2^4    + 8 pi rho
    (thth)  Q^2/f2^2          - 8 pi P f2^2
    (phph)  sin^2(theta) * (thth)

rho is extracted from the nunu balance and P from the thth balance, which
the phph one then satisfies identically. The mumu expression does not
vanish for these values; its residual equals Q^2/f2^4 (1 - f1^2) and is
reported verbatim rather than hidden. A single isotropic pressure cannot
close all four equations at once (the true charged source is
anisotropic), so the verification suite flags this as a documented
discrepancy instead of a failure.

These balances pair rho with the nunu component and P f1^2 with the mumu
one. A fluid comoving along the timelike mu direction, with
T = diag(rho, P f1^2, P f2^2, P f2^2 sin^2 theta), would instead leave a
nunu residual of -2 Q^2 f1^2/f2^4; the rho and P reported here follow the
pairing above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .reissner_nordstrom import BlackHoleParams, mu_of_r, warp_state
from .warped import WarpState, _require_theta

EIGHT_PI = 8.0 * math.pi


@dataclass(frozen=True)
class FluidResiduals:
    """Residuals of the four diagonal balance equations, labeled by component."""

    mumu: float
    nunu: float
    thth: float
    phph: float


@dataclass(frozen=True)
class FluidReport:
    """Extracted fluid state and balance residuals at one interior point."""

    rho: float
    pressure: float
    residuals: FluidResiduals
    r: float
    mu: float


def fluid_balance(charge: float, w: WarpState,
                  theta: float) -> tuple[float, float, FluidResiduals]:
    """Extract (rho, P) from the warp state and evaluate all four balance residuals.

    rho = Q^2 f1^2 / (8 pi f2^4) and P = Q^2 / (8 pi f2^4); the nunu,
    thth and phph residuals then vanish identically while the mumu one
    equals Q^2/f2^4 (1 - f1^2) and is returned as-is. A warp state of
    arrays gives arrays, one entry per point. theta must lie in (0, pi).
    """
    _require_theta(theta)
    q2 = charge * charge
    f1sq = w.f1 * w.f1
    f2sq = w.f2 * w.f2
    f2_4 = f2sq * f2sq
    rho = q2 * f1sq / (EIGHT_PI * f2_4)
    pressure = q2 / (EIGHT_PI * f2_4)
    res_mumu = q2 / f2_4 - EIGHT_PI * pressure * f1sq
    res_nunu = -q2 * f1sq / f2_4 + EIGHT_PI * rho
    res_thth = q2 / f2sq - EIGHT_PI * pressure * f2sq
    res_phph = res_thth * math.sin(theta) ** 2
    return rho, pressure, FluidResiduals(res_mumu, res_nunu, res_thth, res_phph)


def fluid_report(p: BlackHoleParams, r: float, theta: float = 0.5 * math.pi) -> FluidReport:
    """fluid_balance at interior r, with r and its quadrature coordinate mu_of_r(r) attached."""
    rho, pressure, residuals = fluid_balance(p.charge, warp_state(p, r), theta)
    return FluidReport(rho=rho, pressure=pressure, residuals=residuals, r=r,
                       mu=mu_of_r(p, r))
