"""Cross-validation suite: every identity the geometry claims, checked numerically.

Each check compares two independently computed quantities over the
guarded interior grid and records the worst residual against a fixed
threshold; each evaluator the library uses is checked once. Documented
discrepancies (the plain-ratio closed form of the coordinate map, and the
unbalanced mumu fluid equation) are emitted as notes, not failures.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import calculus, fluid, oracle, reissner_nordstrom as rn, warped
from .calculus import Tolerance
from .warped import RicciDiag, WarpState

# Thresholds are part of the artifact contract; tests pin them.
THRESHOLDS = {
    "horizon_vieta": 1e-12,
    "mu_at_outer_horizon": 1e-8,
    "warp_identities": 1e-10,
    "closed_vs_warped_ricci": 1e-10,
    "closed_vs_oracle_ricci": 1e-5,
    "chart_covariance": 1e-5,
    "scalar_closed_and_warped": 1e-8,
    "scalar_oracle": 1e-5,
    "oracle_off_diagonal": 1e-7,
    "roundtrip_inverse": 1e-8,   # in units of m*pi
    "fluid_residuals": 1e-10,
    "fluid_mumu_gap_identity": 1e-10,
    "closed_form_sqrt_vs_quadrature": 1e-8,
    "schwarzschild_flatness": 1e-8,
}

NEAR_EXTREMAL_MARGIN = 1e-4   # warn when (m - Q)/m drops below this

_ROUNDTRIP_SAMPLES = 100
_ROUNDTRIP_SEED = 20240817  # fixed: verify output must be deterministic


def _roundtrip_fractions() -> np.ndarray:
    rng = random.Random(_ROUNDTRIP_SEED)
    return np.array([rng.uniform(0.01, 0.99) for _ in range(_ROUNDTRIP_SAMPLES)])


# the round trip's mu samples as fractions of m*pi, drawn once per process
_ROUNDTRIP_FRACTIONS = _roundtrip_fractions()


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_abs_residual: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class VerifyReport:
    checks: list[CheckResult]
    notes: list[str] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "checks": [
                {
                    "name": c.name,
                    "max_abs_residual": c.max_abs_residual,
                    "threshold": c.threshold,
                    "pass": c.passed,
                }
                for c in self.checks
            ],
            "notes": list(self.notes),
            "overall_pass": self.overall,
        }


def _rel(a, b, floor):
    """|a - b| relative to the larger of |a|, |b| and floor, entry by entry."""
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


def _component_floors(w, theta: float, m: float) -> tuple[float, float, float, float]:
    """Comparison floors for the covariant Ricci diagonal.

    The components carry the metric weights diag(1, f1^2, f2^2,
    f2^2 sin^2); dividing by these (i.e. comparing mixed-index
    components) is what makes the check independent of both the unit
    choice and the position on the grid, so the floor is the curvature
    scale m^-2 times the local weight.
    """
    f1sq = w.f1 * w.f1
    f2sq = w.f2 * w.f2
    msq = m * m
    return (1.0 / msq, f1sq / msq, f2sq / msq,
            f2sq * math.sin(theta) ** 2 / msq)


def _off_diagonal_norm(ricci: np.ndarray, mf_g, x, m: float):
    """_weighted_off_diagonal with the metric from one call of the chart's mf_g at x."""
    return _weighted_off_diagonal(ricci, mf_g(x), m)


def _weighted_off_diagonal(ricci: np.ndarray, g: np.ndarray, m: float):
    """Largest off-diagonal Ricci entry, weighted to curvature units.

    Entry (a, b) is normalized by sqrt(|g_aa g_bb|) of the metric g there,
    the same weight that makes the diagonal comparison unit free, then
    expressed in m^-2. At one point (ricci and g of shape (4, 4)) this is
    a float; at a batch of points (shape (n, 4, 4)) an array of one per
    point. The weight is a product of square roots, which cannot overflow.
    """
    root = np.sqrt(np.abs(g.diagonal(0, -2, -1)))
    weight = root[..., :, None] * root[..., None, :]
    norm = m * m * np.maximum.reduce(np.abs(ricci * _OFF_DIAGONAL) / weight, axis=(-2, -1))
    return norm if norm.ndim else float(norm)


# 1 off the diagonal, 0 on it. Times ricci it leaves a finite diagonal entry
# a signed 0 and a non-finite one NaN, and np.abs then makes each bit for bit
# what ricci minus its own diagonal gives
_OFF_DIAGONAL = 1.0 - np.eye(4)


def _warp_identity_residuals(p, mu: np.ndarray, phi: np.ndarray, w: WarpState) -> np.ndarray:
    """Residuals of the derivative identities relating f1 to f2, shape (3, n).

    The mu-derivatives come from the Kepler inverse r(mu) at every grid
    point at once: phi holds the Kepler angles already solved for the
    values mu, lifted to a jet of mu by the implicit function theorem
    (rn._kepler_lift). f1 = dr/dmu, so f1' is r's second derivative, and
    f1'(mu) = -m/r^2 + Q^2/r^3 as a jet of r gives f1''. Each is compared
    with the warp state w and scaled by the local magnitudes, so the check
    is unit independent.
    """
    m, q, c = p.mass, p.charge, rn._half_gap(p)
    r = rn._kepler_lift(m, c, oracle.Jet.variables(mu[:, None])[..., 0], phi)[0]
    q_r = q / r
    f1p_of_mu = (q_r * q_r - m / r) / r  # -m/r^2 + Q^2/r^3, with no power of r to overflow

    def scaled(diff, a, b):
        return np.abs(diff) / np.maximum(np.maximum(1.0, a), b)

    return np.array([
        scaled(r.grad[0] - w.f1, np.abs(w.f1), w.f2 / m),
        scaled(m * (r.hess[0, 0] - w.f1p), m * np.abs(w.f1p), w.f1),
        scaled(m * m * (f1p_of_mu.grad[0] - w.f1pp), m * m * np.abs(w.f1pp), m * np.abs(w.f1p)),
    ])


def _ricci_diagonal(rd: RicciDiag) -> np.ndarray:
    return np.array([rd.r_mumu, rd.r_nunu, rd.r_thth, rd.r_phph])


def run_verification(p: rn.BlackHoleParams, grid_points: int = 64,
                     guard_fraction: float = 0.05, theta: float = 0.5 * math.pi,
                     tol: Tolerance = calculus.DEFAULT_TOL) -> VerifyReport:
    """Run every cross-check for one parameter set and collect a report.

    Each evaluator runs once on the whole grid array (the quadrature mu,
    the square-root closed form, the warp state, the closed-form and warp
    Ricci, the oracle per chart), and each check is one array expression
    reduced by its maximum. The grid's interior state is formed once: one
    forward Kepler angle serves both closed-form mu, and one lapse_squared
    call, the grid's one interior check, gives the N^2 that the warp state
    and the closed-form Ricci share. The quadratures of the run are one
    batched call. A residual that is not finite (the oracle's inverse metric
    overflows at a polar angle within ~1e-150 of the axis) raises
    ArithmeticError naming the check.
    """
    th = dict(THRESHOLDS)
    hp = rn.horizons(p)
    grid = np.array(rn.interior_grid(p, grid_points, guard_fraction))
    m, q, c = p.mass, p.charge, rn._half_gap(p)
    n = len(grid)
    checks: list[CheckResult] = []
    notes: list[str] = []

    near_extremal = (m - q) / m < NEAR_EXTREMAL_MARGIN
    if near_extremal:
        # the mu quadrature noise floor scales with 1/sqrt(horizon gap), so
        # a 1e-10 request is unattainable there and would only raise
        tol = Tolerance(abs_tol=max(tol.abs_tol, 2e-8 * m), rel_tol=tol.rel_tol)
        # checks whose residual is quadrature error must track the relaxation
        for name in ("mu_at_outer_horizon", "closed_form_sqrt_vs_quadrature"):
            th[name] = max(th[name], 2.0 * tol.abs_tol)
        # roundtrip_inverse is in units of m*pi, so its relaxation is the
        # same at every mass: 2*pi*abs_tol in mu covers the round trip's
        # quadrature error, about 4*abs_tol at a gap of 1e-6 of m
        th["roundtrip_inverse"] = max(th["roundtrip_inverse"], 2.0 * tol.abs_tol / m)

    def add(name, residuals) -> float:
        # the largest entry: np.max without its Python-level wrapper, NaN where
        # any entry is NaN (the builtin max() would drop it), and a residual
        # that is no number fails loudly
        residual = float(np.maximum.reduce(residuals, axis=None))
        if not math.isfinite(residual):
            raise ArithmeticError(f"check {name} has a non-finite residual {residual} "
                                  "at these inputs")
        checks.append(CheckResult(name, residual, th[name], residual <= th[name]))
        return residual

    # the forward Kepler angle, which both closed-form mu read; the grid
    # lies strictly inside the horizons by construction, and lapse_squared
    # below checks it
    phi_grid = rn._forward_angle(hp, grid)
    mu_sqrt = rn._kepler_mu(m, c, phi_grid)

    # the Kepler inverse is checked against the quadrature at fixed
    # pseudorandom mu samples, and its derivatives against the warp state
    # at the grid's closed-form mu: one Kepler solve for both. Every
    # quadrature of the run (the grid, the outer horizon, the round trip)
    # is one batch
    mu_max = m * math.pi
    mu_samples = mu_max * _ROUNDTRIP_FRACTIONS
    phi = rn._kepler_angle(p, np.concatenate([mu_samples, mu_sqrt]))
    r_samples = rn._kepler_r(m, c, phi[:len(mu_samples)])
    mus = rn.mu_of_r(p, np.concatenate([grid, [hp.r_plus], r_samples]), tol)
    mu, mu_outer, mu_round = mus[:n], mus[n], mus[n + 1:]

    # every evaluator once on the whole grid, from one N^2
    n2 = rn.lapse_squared(p, grid)
    w = rn._warp_state(p, grid, n2)
    closed = _ricci_diagonal(rn._ricci_closed_form(p, grid, n2, theta))
    wr = warped.ricci_from_warps(w, theta)
    warp_diag = _ricci_diagonal(wr)
    floors = np.empty((4, n))
    floors[0], floors[1], floors[2], floors[3] = _component_floors(w, theta, m)

    # Vieta: r+ + r- = 2m, r+ r- = Q^2
    add("horizon_vieta", [
        abs(hp.r_plus + hp.r_minus - 2.0 * m) / (2.0 * m),
        abs(hp.r_plus * hp.r_minus - q * q) / max(q * q, m * m),
    ])

    # the coordinate map's value at the outer horizon; mu(r_minus) = 0 by definition
    add("mu_at_outer_horizon", abs(mu_outer - m * math.pi))

    # the Kepler inverse's exact mu-derivatives against the analytic warp state
    add("warp_identities", _warp_identity_residuals(p, mu_sqrt, phi[len(mu_samples):], w))

    # triple agreement and scalar flatness: the closed form against the
    # warp formulas, then against the oracle in the warped chart (mu, nu,
    # theta, phi) and in the static chart (t, r, theta, phi), whose
    # components map to the warped ones by R_mumu = N^2 R_rr, R_nunu = R_tt.
    # The closed-form scalar is 0 by construction, so only the computed
    # scalars are tested; scalars carry length^-2, measured in curvature
    # units m^-2 so the checks are independent of the unit choice
    add("closed_vs_warped_ricci", _rel(closed, warp_diag, floors))
    add("scalar_closed_and_warped", m * m * np.abs(wr.scalar))
    # the oracle points: (mu, 0, theta, 0) in the warped chart and
    # (0, r, theta, 0) in the static one
    x = np.zeros((2, n, 4))
    x[0, :, 0], x[1, :, 1], x[:, :, 2] = mu, grid, theta
    cw = oracle.ricci_at(rn.warped_chart(p), x[0])
    cs = oracle.ricci_at(rn.static_chart(p), x[1])
    static = cs.ricci.diagonal(0, 1, 2).T
    # N^2 is the static chart's g_tt, which its oracle call already evaluated
    transformed = np.array([static[1] * cs.metric[:, 0, 0], static[0], static[2], static[3]])
    add("closed_vs_oracle_ricci", _rel(closed, cw.ricci.diagonal(0, 1, 2).T, floors))
    add("chart_covariance", _rel(closed, transformed, floors))
    add("scalar_oracle", m * m * np.abs([cw.scalar, cs.scalar]))
    # both charts in one call, weighted by the metric each oracle call already evaluated
    add("oracle_off_diagonal", _weighted_off_diagonal(
        np.concatenate([cw.ricci, cs.ricci]), np.concatenate([cw.metric, cs.metric]), m))
    if q == 0.0:
        add("schwarzschild_flatness", np.abs(warp_diag) / floors)

    # the Kepler inverse against the quadrature, in units of m*pi (division
    # rounds monotonically, so the largest quotient is the largest error's)
    add("roundtrip_inverse", np.abs(mu_round - mu_samples) / mu_max)

    # fluid extraction: three balances vanish, the mumu gap has a closed
    # form. The thth/phph balances are dimensionless; nunu and mumu carry
    # length^-2
    _, _, res = fluid.fluid_balance(q, w, theta)
    scale_angular = np.maximum((q / w.f2) ** 2, 1.0)
    scale_time = np.maximum(q * q / w.f2 ** 4, 1.0 / (m * m))
    add("fluid_residuals", [np.abs(res.nunu) / scale_time,
                            np.abs(res.thth) / scale_angular,
                            np.abs(res.phph) / scale_angular])
    gap_expected = q * q / w.f2 ** 4 * (1.0 - w.f1 ** 2)
    add("fluid_mumu_gap_identity",
        np.abs(res.mumu - gap_expected) / np.maximum(scale_time, np.abs(gap_expected)))
    mid = len(grid) // 2

    # the two closed-form candidates against the quadrature definition
    worst = add("closed_form_sqrt_vs_quadrature", np.abs(mu_sqrt - mu))
    plain_gap = float(np.maximum.reduce(np.abs(rn._plain_ratio_mu(m, c, phi_grid) - mu)))

    notes.append(
        f"plain-ratio closed form for mu deviates from quadrature by up to {plain_gap:.6g} "
        f"on this grid (square-root variant matches to {worst:.3g}); "
        "quadrature is authoritative")
    notes.append(
        f"mumu fluid balance is not closed by the extracted isotropic pressure: residual "
        f"Q^2/f2^4 (1 - f1^2) = {float(res.mumu[mid]):.6g} at r = {grid[mid]:.6g}; "
        "reported, not failed")
    if near_extremal:
        notes.append(
            f"near-extremal configuration: (m - Q)/m = {(m - q) / m:.3g}; guard band "
            "absorbs the horizon proximity; quadrature tolerance relaxed to the "
            f"double-precision noise floor ({2e-8 * m:.1g})")

    return VerifyReport(checks=checks, notes=notes)
