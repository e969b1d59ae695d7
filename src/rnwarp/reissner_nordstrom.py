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

from . import calculus
from .calculus import DEFAULT_TOL, Interval, Tolerance
from .errors import DomainError, ExtremalError
from .oracle import MetricField
from .warped import RicciDiag, WarpState


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
    """Horizon radii r_pm = m +- sqrt(m^2 - Q^2).

    Raises DomainError when m^2 overflows.
    """
    m2 = p.mass * p.mass
    if not math.isfinite(m2):
        raise DomainError(f"mass {p.mass} too large: m^2 overflows a double")
    c = math.sqrt(m2 - p.charge * p.charge)
    return HorizonPair(p.mass + c, p.mass - c)


def _factored_lapse(hp: HorizonPair, r):
    """N^2 = (r_plus - r)(r - r_minus)/r^2 at a float r or elementwise on an array."""
    return (hp.r_plus - r) * (r - hp.r_minus) / (r * r)


def lapse_squared(p: BlackHoleParams, r: float) -> float:
    """N^2 at interior r, from the factored horizon form.

    The factored form (r_plus - r)(r - r_minus)/r^2 and the direct form
    -1 + 2m/r - Q^2/r^2 are the same polynomial; they are cross-checked
    here to 1e-12 (relative, with an absolute floor where N^2 -> 0 and
    the direct form loses all significance to cancellation).
    """
    hp = _require_interior(p, r)
    n2 = _factored_lapse(hp, r)
    direct = -1.0 + 2.0 * p.mass / r - (p.charge / r) ** 2
    if abs(n2 - direct) > 1e-12 * max(1.0, abs(n2)):
        raise ArithmeticError(
            f"lapse forms disagree at r={r}: {n2!r} vs {direct!r}")
    return n2


def mu_of_r(p: BlackHoleParams, r, tol: Tolerance = DEFAULT_TOL):
    """The coordinate map mu = F(r), by quadrature of the defining integral.

    Defined for r_minus <= r <= r_plus; the improper integral converges at
    both horizons. F(r_minus) = 0 and F(r_plus) = m*pi. Strictly increasing.
    A float r gives a float; an array of r gives the array of F, from one
    batched quadrature, each entry bit for bit F at that entry alone.
    """
    hp = horizons(p)
    rp, rm = hp.r_plus, hp.r_minus

    if rm > 0.0:
        def integrand(x):
            return x / np.sqrt((rp - x) * (x - rm))
    else:
        # the factor x cancels analytically; (rp - x)*x would underflow to
        # zero at subnormal abscissas next to the r = 0 endpoint
        def integrand(x):
            return np.sqrt(x / (rp - x))

    rs = np.asarray(r, dtype=float)
    for bad in rs[~((rm <= rs) & (rs <= rp))][:1].tolist():
        _require_closed_interior(p, bad)
    mu = np.zeros(rs.shape)
    inner = rs > rm  # F(r_minus) = 0 takes no quadrature
    if inner.any():
        mu[inner] = calculus.integrate_endpoint_singular(integrand, rm, rs[inner], tol)
    return float(mu) if mu.ndim == 0 else mu


def mu_closed_form(p: BlackHoleParams, r: float) -> float:
    """Closed-form candidate with arccos of the plain horizon ratio.

    2m*arccos((r_plus - r)/(r_plus - r_minus)) - sqrt((r_plus - r)(r - r_minus)).
    Agrees with mu_of_r at both horizons but not between them; shipped for
    comparison and reporting only, never used as the definition of F.
    """
    hp = _require_closed_interior(p, r)
    ratio = (hp.r_plus - r) / hp.width
    return 2.0 * p.mass * math.acos(ratio) - math.sqrt((hp.r_plus - r) * (r - hp.r_minus))


def mu_closed_form_sqrt(p: BlackHoleParams, r: float) -> float:
    """Closed-form candidate with arccos of the square root of the horizon ratio.

    2m*arccos(sqrt((r_plus - r)/(r_plus - r_minus))) - sqrt((r_plus - r)(r - r_minus)).
    Matches the quadrature definition of F at every tested point.
    """
    hp = _require_closed_interior(p, r)
    ratio = (hp.r_plus - r) / hp.width
    return 2.0 * p.mass * math.acos(math.sqrt(ratio)) - math.sqrt(
        (hp.r_plus - r) * (r - hp.r_minus))


def r_of_mu(p: BlackHoleParams, mu: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Inverse coordinate map F^(-1), by bracketed root finding on mu_of_r.

    Valid for 0 < mu < m*pi. F is strictly increasing with F(r_minus) = 0
    and F(r_plus) = m*pi, so [r_minus, r_plus] always brackets the root;
    the improper quadrature converges at the closed endpoints. The
    search starts from the Kepler inverse (_kepler_inverse) and returns it
    when the quadrature agrees to abs_tol, so the root is always decided
    by mu_of_r. This is the inverse of `rnwarp transform --mu`; the
    charts and the verification suite use _kepler_inverse directly.
    """
    hp = horizons(p)
    mu_max = p.mass * math.pi
    if not 0.0 < mu < mu_max:
        raise DomainError(f"mu={mu} outside the open interval (0, {mu_max})")

    def g(r):
        return mu_of_r(p, r, tol) - mu

    return calculus.find_root_bracketed(g, Interval(hp.r_minus, hp.r_plus), tol,
                                        guess=_kepler_inverse(p, mu))


def _kepler_inverse(p: BlackHoleParams, mu: float) -> float:
    """Fast F^(-1) through the monotone reparametrization mu = m*phi - c*sin(phi).

    With cos(phi) = (m - r)/c, c = sqrt(m^2 - Q^2), this is the same
    function as r_of_mu (the reparametrization integrates the defining
    quadrature exactly) but costs a few Newton steps instead of nested
    quadratures. It is the r(mu) of the warped chart below and of the
    warp identities in verify; verify's roundtrip_inverse check measures
    mu_of_r at its output against the requested mu.
    """
    m = p.mass
    c = math.sqrt(m * m - p.charge * p.charge)
    mu_max = m * math.pi
    if not 0.0 < mu < mu_max:
        raise DomainError(f"mu={mu} outside the open interval (0, {mu_max})")
    # Newton with a bracket safeguard: the equation is monotone on [0, pi]
    # but its slope m - c*cos(phi) = r vanishes at phi = 0 in the Q = 0
    # limit, where an unguarded step overshoots.
    # Iterated to a floating-point fixed point (or 2-cycle): downstream
    # differencing sees any iteration-path dependence as jitter, so the
    # output must be a function of mu alone down to the last ulp. The
    # equation is solved in mass units so the cancellation noise of the
    # residual does not grow with the geometry's scale.
    ecc = c / m
    target = mu / m
    lo, hi = 0.0, math.pi
    phi = math.pi * mu / mu_max
    prev = -1.0
    for _ in range(200):
        g = phi - ecc * math.sin(phi) - target
        if g > 0.0:
            hi = phi
        else:
            lo = phi
        dg = 1.0 - ecc * math.cos(phi)  # equals r/m at the current iterate
        nxt = phi - g / dg if dg > 0.0 else 0.5 * (lo + hi)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if nxt == phi:
            break
        if nxt == prev:
            phi = min(phi, nxt)  # adjacent-float cycle; pick deterministically
            break
        prev = phi
        phi = nxt
    return m - c * math.cos(phi)


def warp_state(p: BlackHoleParams, r: float) -> WarpState:
    """Warp values and analytic mu-derivatives at interior radius r.

    f2 = r, f1 = N(r), and the chain rule dr/dmu = N gives
    f2' = f1, f1' = -m/r^2 + Q^2/r^3, f2'' = f1',
    f1'' = -2 f1 f1'/r - Q^2 f1/r^4. No differencing is involved.
    """
    _require_interior(p, r)
    f1 = math.sqrt(lapse_squared(p, r))
    q2 = p.charge * p.charge
    f1p = -p.mass / (r * r) + q2 / (r * r * r)
    f1pp = -2.0 * f1 * f1p / r - q2 * f1 / (r * r * r * r)
    return WarpState(f1=f1, f2=r, f1p=f1p, f2p=f1, f1pp=f1pp, f2pp=f1p)


def ricci_closed_form(p: BlackHoleParams, r: float, theta: float) -> RicciDiag:
    """Closed-form interior Ricci diagonal: (Q^2/r^4, -Q^2 N^2/r^4, Q^2/r^2, Q^2 sin^2(theta)/r^2).

    The scalar curvature vanishes identically, charged or not.
    """
    _require_interior(p, r)
    if not 0.0 < theta < math.pi:
        raise DomainError(f"theta must lie in (0, pi), got {theta}")
    q2 = p.charge * p.charge
    r2 = r * r
    r_thth = q2 / r2
    return RicciDiag(
        r_mumu=q2 / (r2 * r2),
        r_nunu=-q2 * lapse_squared(p, r) / (r2 * r2),
        r_thth=r_thth,
        r_phph=r_thth * math.sin(theta) ** 2,
        scalar=0.0,
        theta=theta,
    )


# Angular features of the interior charts live on the O(1) radian scale
# regardless of the mass, while the curvature signal shrinks as 1/m^2; a
# wider angular mesh keeps the differencing noise below that signal for
# masses away from unity without measurable truncation cost.
_ANGLE_STEP_SCALE = 4.0

_LINE = (-math.inf, math.inf)  # an unbounded chart coordinate


def _per_distinct(values: np.ndarray, fn) -> np.ndarray:
    """fn applied once to each distinct float in values, spread back over values.

    A stencil revisits the same coordinate value many times; the result at
    a point depends on that value alone, whatever else is in the batch.
    """
    ordered = np.sort(values, axis=None)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    return np.array([fn(v) for v in distinct.tolist()])[np.searchsorted(distinct, values)]


def _sin_squared(th: float) -> float:
    # Python's ** calls pow, which can round differently from numpy's x * x
    return math.sin(th) ** 2


def _diagonal_metric(shape, g00, g11, g22, g33) -> np.ndarray:
    out = np.zeros(shape + (4, 4))
    out[..., 0, 0] = g00
    out[..., 1, 1] = g11
    out[..., 2, 2] = g22
    out[..., 3, 3] = g33
    return out


def static_chart(p: BlackHoleParams) -> MetricField:
    """The (t, r, theta, phi) chart as raw metric components for the oracle.

    g = diag(N^2, -1/N^2, r^2, r^2 sin^2 theta); inside the horizons
    N^2 > 0, so r is the timelike direction here. g takes points of
    shape (..., 4) and returns metrics of shape (..., 4, 4).
    """
    hp = horizons(p)

    def g(x):
        x = np.asarray(x, dtype=float)
        r, th = x[..., 1], x[..., 2]
        n2 = _factored_lapse(hp, r)
        r2 = r * r
        return _diagonal_metric(x.shape[:-1], n2, -1.0 / n2, r2,
                                r2 * _per_distinct(th, _sin_squared))

    return MetricField(g, (_LINE, (hp.r_minus, hp.r_plus), (0.0, math.pi), _LINE),
                       (p.mass, p.mass, _ANGLE_STEP_SCALE, _ANGLE_STEP_SCALE))


def warped_chart(p: BlackHoleParams) -> MetricField:
    """The (mu, nu, theta, phi) chart as raw metric components for the oracle.

    g = diag(-1, f1(mu)^2, f2(mu)^2, f2(mu)^2 sin^2 theta). g takes
    points of shape (..., 4) and returns metrics of shape (..., 4, 4);
    it inverts F through the fast reparametrization once per distinct mu
    in the batch, so the oracle can afford its nested difference stencils.
    """
    hp = horizons(p)

    def g(x):
        x = np.asarray(x, dtype=float)
        r = _per_distinct(x[..., 0], lambda mu: _kepler_inverse(p, mu))
        f1sq = _factored_lapse(hp, r)
        r2 = r * r
        return _diagonal_metric(x.shape[:-1], -1.0, f1sq, r2,
                                r2 * _per_distinct(x[..., 2], _sin_squared))

    return MetricField(g, ((0.0, p.mass * math.pi), _LINE, (0.0, math.pi), _LINE),
                       (p.mass, p.mass, _ANGLE_STEP_SCALE, _ANGLE_STEP_SCALE))


def interior_grid(p: BlackHoleParams, n: int, guard_fraction: float = 0.05) -> list[float]:
    """Uniform r-grid over the guarded interior.

    Excludes guard_fraction of the horizon gap at each end, where the
    mu-parameterization degenerates and finite differencing fails. The
    end points stay at least 2 ulps inside each horizon, and the low end 2
    ulps of r_plus above 0, where r^4 would underflow next to r_minus = 0.
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


def _require_interior(p: BlackHoleParams, r: float) -> HorizonPair:
    hp = horizons(p)
    if not hp.r_minus < r < hp.r_plus:
        raise DomainError(
            f"r={r} outside the open interior ({hp.r_minus}, {hp.r_plus})")
    return hp


def _require_closed_interior(p: BlackHoleParams, r: float) -> HorizonPair:
    hp = horizons(p)
    if not hp.r_minus <= r <= hp.r_plus:
        raise DomainError(
            f"r={r} outside the closed interior [{hp.r_minus}, {hp.r_plus}]")
    return hp
