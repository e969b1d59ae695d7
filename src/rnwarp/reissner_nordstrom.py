"""Interior Reissner-Nordstrom geometry in geometrized units (G = c = 1).

The static chart carries ds^2 = N^2 dt^2 - N^(-2) dr^2 + r^2 dOmega^2 with
lapse N^2 = -1 + 2m/r - Q^2/r^2, positive between the horizons
r_pm = m +- sqrt(m^2 - Q^2), where r is the timelike direction. A proper-time
coordinate mu(r), defined here by direct quadrature of

    mu(r) = integral from r_minus to r of x dx / sqrt((r_plus - x)(x - r_minus)),

recasts the interior as the multiply warped product of the warped module with
f2(mu) = r and f1(mu) = N. Two published antiderivative candidates for mu are
provided as well; the one applying arccos to the plain ratio
(r_plus - r)/(r_plus - r_minus) disagrees with the quadrature between the
horizons, while the variant applying arccos to the square root of that ratio
matches it. The quadrature is the authoritative referee, also of the Kepler
inverse that serves as r(mu). The discrepancy is surfaced by the
verification suite rather than resolved here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import calculus, oracle
from .calculus import DEFAULT_TOL, Interval, Tolerance
from .errors import DomainError, ExtremalError
from .oracle import MetricField
from .warped import RicciDiag, WarpState, _require_theta


@dataclass(frozen=True)
class BlackHoleParams:
    """Mass and charge, both length units; nonextremal (Q < m) only."""

    mass: float
    charge: float

    def __post_init__(self):
        if not (math.isfinite(self.mass) and math.isfinite(self.charge)):
            raise DomainError(
                f"mass and charge must be finite, got {self.mass}, {self.charge}")
        if not self.mass > 0.0:
            raise DomainError(f"mass must be positive, got {self.mass}")
        if self.charge < 0.0:
            raise DomainError(f"charge must be nonnegative, got {self.charge}")
        if self.charge >= self.mass:
            raise ExtremalError(
                f"charge {self.charge} >= mass {self.mass}: no interior region exists")


@dataclass(frozen=True)
class HorizonPair:
    """Outer and inner horizon radii; the interior is r_minus < r < r_plus."""

    r_plus: float
    r_minus: float

    @property
    def width(self) -> float:
        return self.r_plus - self.r_minus


def horizons(p: BlackHoleParams) -> HorizonPair:
    """Horizon radii r_pm = m +- c, c = sqrt(m^2 - Q^2) (see _half_gap)."""
    c = _half_gap(p)
    return HorizonPair(p.mass + c, p.mass - c)


def _half_gap(p: BlackHoleParams) -> float:
    """c = sqrt(m^2 - Q^2), r_pm = m +- c; DomainError unless c is finite and positive."""
    c = math.sqrt(p.mass * p.mass - p.charge * p.charge)  # NaN if both squares overflow
    if not 0.0 < c < math.inf:
        raise DomainError(f"mass {p.mass} out of range: m^2 - Q^2 overflows or underflows")
    return c


def _factored_lapse(hp: HorizonPair, r, r2):
    """N^2 = (r_plus - r)(r - r_minus)/r^2 from r and its square r2 = r*r, elementwise."""
    return (hp.r_plus - r) * (r - hp.r_minus) / r2


def lapse_squared(p: BlackHoleParams, r):
    """N^2 at interior r, from the factored horizon form.

    The factored form (r_plus - r)(r - r_minus)/r^2 and the direct form
    -1 + 2m/r - Q^2/r^2 are the same polynomial; they are cross-checked
    here to 1e-12 (relative, with an absolute floor where N^2 -> 0 and
    the direct form loses all significance to cancellation). A float r
    gives a float, an array of r the array of N^2.
    """
    hp, r = _require_interior(p, r)
    n2 = _factored_lapse(hp, r, r * r)
    direct = -1.0 + 2.0 * p.mass / r - (p.charge / r) ** 2
    disagree = np.abs(n2 - direct) > 1e-12 * np.maximum(1.0, np.abs(n2))
    if disagree.any():
        k = disagree.argmax()  # the first disagreeing entry
        raise ArithmeticError(
            f"lapse forms disagree at r={r.flat[k].item()}: "
            f"{n2.flat[k].item()!r} vs {direct.flat[k].item()!r}")
    return n2 if n2.ndim else float(n2)


def _tolerance(m: float) -> Tolerance:
    """The accuracy of mu_of_r and r_of_mu: DEFAULT_TOL with its absolute part in units of m.

    Both tolerances then scale with the unit of length, as mu does. m*abs_tol
    does not underflow: horizons() refuses every m below ~1.5e-162.
    """
    return Tolerance(DEFAULT_TOL.abs_tol * m, DEFAULT_TOL.rel_tol)


def mu_of_r(p: BlackHoleParams, r):
    """The coordinate map mu = F(r), by quadrature of the defining integral.

    Defined for r_minus <= r <= r_plus; the improper integral converges at
    both horizons. F(r_minus) = 0 and F(r_plus) = m*pi. Strictly increasing.
    A float r gives a float; an array of r gives the array of F, from one
    batched quadrature, each entry bit for bit F at that entry alone.

    The quadrature applies the weight 1/sqrt((x - r_minus)(r_plus - x))
    itself and hands the integrand each node's distance a = x - r_minus,
    so the integrand is the regular part x = r_minus + a, and neither
    horizon's factor is a rounded difference. A row r <= m integrates over
    (r_minus, r); a row r > m, r_plus's among them, is F(m), the row
    (r_minus, m), plus the integral over (m, r). So one horizon is an end
    of the row, or past it, and the other about c = (r_plus - r_minus)/2, a
    row width, past its other end, as the quadrature requires. F(m) is a
    quadrature row, no closed form, and F does not step back across m.
    Every row's 20- and 12-point sums must agree to _tolerance(m).
    """
    hp, rs = _require_closed_interior(p, r)
    rp, rm, m = hp.r_plus, hp.r_minus, p.mass

    def integrand(a, b):
        # the regular part x of x/sqrt(ab); the quadrature applies 1/sqrt(ab)
        return rm + a

    mu = np.zeros(rs.shape)  # F(r_minus) = 0 takes no quadrature
    if (rs > rm).any():
        # a row for each r above r_minus, then the row of F(m)
        inside = rs > rm
        r_rows = np.concatenate([rs[inside], [m]])
        above = r_rows > m
        lo = np.where(above, m, rm)
        rows = calculus.integrate_endpoint_singular(
            integrand, lo, r_rows, lo - rm, rp - r_rows, _tolerance(m))
        mu[inside] = np.where(above[:-1], rows[-1] + rows[:-1], rows[:-1])
    return float(mu) if mu.ndim == 0 else mu


def mu_closed_form(p: BlackHoleParams, r):
    """Closed-form candidate with arccos of the plain horizon ratio.

    2m*arccos((r_plus - r)/(r_plus - r_minus)) - sqrt((r_plus - r)(r - r_minus)),
    evaluated as 4m*arcsin(sin(phi/2)/sqrt(2)) - c*sin(phi) at the angle phi
    of _forward_angle, where the ratio is cos(phi/2)^2, so no ratio is rounded
    next to 1 and no two radii are subtracted. Agrees with mu_of_r at both
    horizons but not between them; shipped for comparison and reporting only,
    never used as the definition of F. A float r gives a float, an array of r
    the array.
    """
    hp, r = _require_closed_interior(p, r)
    mu = _plain_ratio_mu(p.mass, _half_gap(p), _forward_angle(hp, r))
    return mu if mu.ndim else float(mu)


def _plain_ratio_mu(m: float, c: float, phi):
    """mu_closed_form at the angles phi of _forward_angle."""
    return 4.0 * m * np.arcsin(np.sin(0.5 * phi) / math.sqrt(2.0)) - c * np.sin(phi)


def mu_closed_form_sqrt(p: BlackHoleParams, r):
    """Closed-form candidate with arccos of the square root of the horizon ratio.

    2m*arccos(sqrt((r_plus - r)/(r_plus - r_minus))) - sqrt((r_plus - r)(r - r_minus)),
    evaluated as m*phi - c*sin(phi) (_kepler_mu) at the angle phi of
    _forward_angle, accurate next to either horizon; matches the quadrature
    definition of F at every tested point. A float r gives a float, an
    array of r the array.
    """
    hp, r = _require_closed_interior(p, r)
    mu = _kepler_mu(p.mass, _half_gap(p), _forward_angle(hp, r))
    return mu if mu.ndim else float(mu)


def _forward_angle(hp: HorizonPair, r: np.ndarray) -> np.ndarray:
    """The angle phi = 2*atan2(sqrt(r - r_minus), sqrt(r_plus - r)) of r = m - c*cos(phi).

    r is a float array already checked against the closed interior.
    """
    return 2.0 * np.arctan2(np.sqrt(r - hp.r_minus), np.sqrt(hp.r_plus - r))


def r_of_mu(p: BlackHoleParams, mu: float) -> float:
    """Inverse coordinate map F^(-1), by bracketed root finding on mu_of_r.

    Valid for 0 < mu < m*pi (checked by the Kepler guess, before any
    quadrature). F is strictly increasing with F(r_minus) = 0 and
    F(r_plus) = m*pi, so [r_minus, r_plus] always brackets the root;
    the improper quadrature converges at the closed endpoints. The
    search starts from the Kepler inverse (_kepler_inverse) and returns it
    when the quadrature agrees to the absolute part of _tolerance(m), in
    units of m as mu is, so the root is always decided by mu_of_r. This is
    the inverse of `rnwarp transform --mu`; the warped chart and the
    verification suite solve the Kepler angle themselves (_kepler_angle,
    _kepler_lift, _kepler_r).
    """
    hp = horizons(p)

    def g(r):
        return mu_of_r(p, r) - mu

    # next to mu = m*pi the Kepler r, (m - c) + 2c*sin(phi/2)^2, can round past r_plus = m + c
    return calculus.find_root_bracketed(g, Interval(hp.r_minus, hp.r_plus), _tolerance(p.mass),
                                        guess=min(_kepler_inverse(p, mu), hp.r_plus))


def _kepler_inverse(p: BlackHoleParams, mu):
    """Fast F^(-1): r = m - c*cos(phi) at the angle phi of mu = m*phi - c*sin(phi).

    The same function as r_of_mu (the substitution integrates the defining
    quadrature exactly) from three root-finding steps instead of nested
    quadratures: r_of_mu's guess, which its root search checks against
    mu_of_r.
    mu is a float (giving a float), an array or an oracle.Jet (giving one).
    """
    r = _kepler_lift(p.mass, _half_gap(p), mu, _kepler_angle(p, mu))[0]
    return r if isinstance(mu, oracle.Jet) or np.ndim(mu) else float(r)


# phi - sin(phi) = phi^3 * sum_k _SERIES[k] * phi^(2k), k = 0..12, the odd
# Taylor series: within 3 ulps of the 40-digit value on all of [0, pi]
_SERIES = np.array([(-1.0) ** k / math.factorial(2 * k + 3) for k in range(13)])
_POWERS = np.arange(float(_SERIES.size))  # the k of phi^(2k)


def _kepler_angle(p: BlackHoleParams, mu) -> np.ndarray:
    """The angles phi of mu = m*phi - c*sin(phi) at the values of a float, array or Jet mu.

    The start, the real root of (1 - e)*phi + e*phi^3/6 = mu/m, e = c/m, lies
    below phi (sin(phi) >= phi - phi^3/6) and within 16% of it. Two Halley
    steps (Danby & Burkardt, Celest. Mech. 31, 95, 1983), the first clamped
    to pi, and one Newton step on the values reach the root to 4e-16
    relative; see _halley for why its denominator stays away from 0. The
    angles are values only: a Jet mu gets its derivatives from _kepler_lift.
    """
    m, c = p.mass, _half_gap(p)
    values = mu.val if isinstance(mu, oracle.Jet) else np.asarray(mu, dtype=float)
    inside = (0.0 < values) & (values < m * math.pi)
    if not inside.all():
        raise DomainError(f"mu={values[~inside].flat[0]} outside the open interval "
                          f"(0, {m * math.pi})")
    # times 6/e the cubic is phi^3 + 3a*phi - 2h = 0; Cardano's root s - a/s,
    # s^3 = h + sqrt(h^2 + a^3), is 2h/(s2 + a + a^2/s2), which does not cancel
    a, h = 2.0 * (m - c) / c, 3.0 * values / c
    # a ufunc: a lone mu gives numpy scalars, whose ** calls libm's pow, not numpy's loop
    s2 = np.square(np.cbrt(h + np.hypot(h, a * math.sqrt(a))))
    if a == 0.0:
        # at Q = 0 the root is cbrt(2h) = 2h/s2, which is 0/0 where 3*mu/c
        # underflows to 0 although phi does not: there it is formed from
        # cube roots that do not underflow
        zero = h == 0.0
        phi = np.where(zero, np.cbrt(6.0 / c) * np.cbrt(values), 2.0 * h / np.where(zero, 1.0, s2))
    else:
        phi = 2.0 * h / (s2 + a + a * a / s2)
    phi = _halley(m, c, values, np.minimum(_halley(m, c, values, phi), math.pi))
    return phi - (_kepler_mu(m, c, phi) - values) / _kepler_r(m, c, phi)


def _halley(m: float, c: float, values, phi):
    """One Halley step on f(phi) = mu(phi) - values: phi - d/(1 - d*f''/(2f')), d = f/f'.

    f' = r (_kepler_r) and f'' = c*sin(phi). The denominator stays away
    from 0: f''/f' = c*sin(phi)/r <= cot(phi/2) < 2/phi, since
    r >= c*(1 - cos(phi)), so |d*f''/(2f')| < |d|/phi, the relative size of
    the step, about the start's relative error. Measured over Q/m in
    [0, 1 - 1e-12] and mu/(m*pi) in [1e-300, 1 - 1e-15], it is below 0.07.
    """
    r = _kepler_r(m, c, phi)
    d = (_kepler_mu(m, c, phi) - values) / r
    return phi - d / (1.0 - 0.5 * d * c * np.sin(phi) / r)


def _kepler_lift(m: float, c: float, mu, phi) -> tuple:
    """r = dmu/dphi (_kepler_r) and sin(phi) at the solved angles phi of mu's values.

    A float or array mu gives arrays. A Jet mu gives jets of mu, by the
    implicit function theorem: mu = m*phi - c*sin(phi) gives dphi/dmu = 1/r
    and d2phi/dmu2 = -c*sin(phi)/r^3, exact derivatives of the root at the
    cost of one chain rule, and r and sin(phi) follow phi by the chain rule.
    sin(phi/2), sin(phi) and cos(phi) are each formed once.
    """
    r, sin = _kepler_r(m, c, phi), np.sin(phi)
    if not isinstance(mu, oracle.Jet):
        return r, sin
    cos, slope = np.cos(phi), 1.0 / r
    # a ufunc: a lone mu gives numpy scalars, whose ** calls libm's pow, not numpy's loop
    angle = oracle.chain(mu, phi, slope, -c * sin * np.power(slope, 3.0))
    return oracle.chain(angle, r, c * sin, c * cos), oracle.chain(angle, sin, cos, -sin)


def _kepler_mu(m: float, c: float, phi):
    """mu = (m - c)*phi + c*(phi - sin(phi)) at an array of angles in [0, pi].

    phi - sin(phi) from _SERIES does not cancel below phi ~ 1 as the
    difference does.
    """
    x2 = phi * phi
    series = np.add.reduce(x2[..., None] ** _POWERS * _SERIES, axis=-1)
    return phi * ((m - c) + c * x2 * series)


def _kepler_r(m: float, c: float, phi):
    """r = dmu/dphi = (m - c) + 2c*sin(phi/2)^2, where m - c*cos(phi) cancels, at an array phi."""
    half = np.sin(0.5 * phi)
    return (m - c) + 2.0 * c * (half * half)


def warp_state(p: BlackHoleParams, r) -> WarpState:
    """Warp values and analytic mu-derivatives at interior radius r.

    f2 = r, f1 = N(r), and the chain rule dr/dmu = N gives
    f2' = f1, f1' = -m/r^2 + Q^2/r^3, f2'' = f1',
    f1'' = -2 f1 f1'/r - Q^2 f1/r^4. No differencing is involved. A float
    r gives floats, an array of r arrays.
    """
    n2 = lapse_squared(p, r)  # checks r
    return _warp_state(p, np.asarray(r, dtype=float), n2)


def _warp_state(p: BlackHoleParams, r: np.ndarray, n2) -> WarpState:
    """warp_state at the checked float array r, from its lapse_squared n2."""
    f1 = np.sqrt(n2)
    q2 = p.charge * p.charge
    f1p = -p.mass / (r * r) + q2 / (r * r * r)
    f1pp = -2.0 * f1 * f1p / r - q2 * f1 / (r * r * r * r)
    f1, f2, f1p, f1pp = _floats_for(r, f1, r, f1p, f1pp)
    return WarpState(f1=f1, f2=f2, f1p=f1p, f2p=f1, f1pp=f1pp, f2pp=f1p)


def ricci_closed_form(p: BlackHoleParams, r, theta: float) -> RicciDiag:
    """Closed-form interior Ricci diagonal: (Q^2/r^4, -Q^2 N^2/r^4, Q^2/r^2, Q^2 sin^2(theta)/r^2).

    The scalar curvature vanishes identically, charged or not. A float r
    gives floats, an array of r arrays; theta is one angle.
    """
    n2 = lapse_squared(p, r)  # checks r, before theta
    return _ricci_closed_form(p, np.asarray(r, dtype=float), n2, theta)


def _ricci_closed_form(p: BlackHoleParams, r: np.ndarray, n2, theta: float) -> RicciDiag:
    """ricci_closed_form at the checked float array r, from its lapse_squared n2."""
    _require_theta(theta)
    q2 = p.charge * p.charge
    r2 = r * r
    r_thth = q2 / r2
    return RicciDiag(*_floats_for(
        r,
        q2 / (r2 * r2),
        -q2 * n2 / (r2 * r2),
        r_thth,
        r_thth * math.sin(theta) ** 2,
        np.zeros(r.shape),
    ), theta=theta)


def _floats_for(r: np.ndarray, *values) -> tuple:
    """values as Python floats when r is 0-d, as they are when r is an array."""
    return values if r.ndim else tuple(float(v) for v in values)


_LINE = (-math.inf, math.inf)  # an unbounded chart coordinate


def static_chart(p: BlackHoleParams) -> MetricField:
    """The (t, r, theta, phi) chart as raw metric components for the oracle.

    g = diag(N^2, -1/N^2, r^2, r^2 sin^2 theta); inside the horizons
    N^2 > 0, so r is the timelike direction here. g takes points of
    shape (..., 4) and returns metrics of shape (..., 4, 4), or a Jet of
    points and returns a Jet of metrics.
    """
    hp = horizons(p)

    def g(x):
        x = oracle.points(x)
        r, s = x[..., 1], oracle.sin(x[..., 2])
        r2 = r * r
        n2 = _factored_lapse(hp, r, r2)
        return oracle.diagonal_metric(x, (n2, -1.0 / n2, r2, r2 * (s * s)))

    return MetricField(g, (_LINE, (hp.r_minus, hp.r_plus), (0.0, math.pi), _LINE))


def warped_chart(p: BlackHoleParams) -> MetricField:
    """The (mu, nu, theta, phi) chart as raw metric components for the oracle.

    g = diag(-1, f1(mu)^2, f2(mu)^2, f2(mu)^2 sin^2 theta). g takes
    points of shape (..., 4) and returns metrics of shape (..., 4, 4),
    or a Jet of points and returns a Jet of metrics; r(mu) is the Kepler
    inverse, solved on the values of the whole batch at once, with a
    Jet's mu-derivatives from the implicit function theorem
    (_kepler_lift).
    """
    c = _half_gap(p)

    def g(x):
        x = oracle.points(x)
        mu = x[..., 0]
        r, sin_phi = _kepler_lift(p.mass, c, mu, _kepler_angle(p, mu))
        s = oracle.sin(x[..., 2])
        # f1 = N = c*sin(phi)/r: next to either horizon the difference of radii
        # in N^2 = (r_plus - r)(r - r_minus)/r^2 cancels, the sine does not
        f1 = c * sin_phi / r
        r2 = r * r
        return oracle.diagonal_metric(x, (-1.0, f1 * f1, r2, r2 * (s * s)))

    return MetricField(g, ((0.0, p.mass * math.pi), _LINE, (0.0, math.pi), _LINE))


def interior_grid(p: BlackHoleParams, n: int, guard_fraction: float = 0.05) -> list[float]:
    """Uniform r-grid over the guarded interior.

    Excludes guard_fraction of the horizon gap at each end, where the
    mu-parameterization degenerates. The end points stay at least 2 ulps
    inside each horizon, and the low end 2 ulps of r_plus above 0, where
    r^4 would underflow next to r_minus = 0.
    """
    if n < 2:
        raise ValueError(f"grid needs at least 2 points, got {n}")
    if not 0.0 < guard_fraction < 0.5:
        raise ValueError(f"guard_fraction must lie in (0, 0.5), got {guard_fraction}")
    hp = horizons(p)
    lo = max(hp.r_minus + guard_fraction * hp.width, hp.r_minus + 2.0 * math.ulp(hp.r_minus),
             2.0 * math.ulp(hp.r_plus))
    hi = min(hp.r_plus - guard_fraction * hp.width, hp.r_plus - 2.0 * math.ulp(hp.r_plus))
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _require_interior(p: BlackHoleParams, r) -> tuple[HorizonPair, np.ndarray]:
    """The horizons and r as floats, once all of r lies strictly between them; else DomainError."""
    hp = horizons(p)
    rs = np.asarray(r, dtype=float)
    inside = (hp.r_minus < rs) & (rs < hp.r_plus)
    if not inside.all():
        raise DomainError(
            f"r={rs[~inside].flat[0]} outside the open interior ({hp.r_minus}, {hp.r_plus})")
    return hp, rs


def _require_closed_interior(p: BlackHoleParams, r) -> tuple[HorizonPair, np.ndarray]:
    """The horizons and r as floats, once all of r lies on or between them; else DomainError."""
    hp = horizons(p)
    rs = np.asarray(r, dtype=float)
    inside = (hp.r_minus <= rs) & (rs <= hp.r_plus)
    if not inside.all():
        raise DomainError(
            f"r={rs[~inside].flat[0]} outside the closed interior [{hp.r_minus}, {hp.r_plus}]")
    return hp, rs
