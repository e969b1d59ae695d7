"""Cross-validation suite: every identity the geometry claims, checked numerically.

Each check compares two independently computed quantities over the
guarded interior grid and records the worst residual against a fixed
threshold; each evaluator the library uses is checked once. Documented
discrepancies (the plain-ratio closed form of the coordinate map, and the
unbalanced mumu fluid equation) are emitted as notes, not failures.
"""

from __future__ import annotations

import functools
import itertools
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


def _rel(a: float, b: float, floor: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


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
    """Largest off-diagonal Ricci entry, weighted to curvature units.

    Entry (a, b) is normalized by sqrt(|g_aa g_bb|), the same weight that
    makes the diagonal comparison unit free, then expressed in m^-2. At
    one point x (ricci of shape (4, 4)) this is a float; at a batch of
    points (ricci of shape (n, 4, 4)) an array of one per point, from one
    call of the chart's metric. The weight is a product of square roots,
    which cannot overflow.
    """
    root = np.sqrt(np.abs(np.diagonal(mf_g(x), axis1=-2, axis2=-1)))
    weight = root[..., :, None] * root[..., None, :]
    diagonal = np.zeros_like(ricci)
    diagonal[..., range(4), range(4)] = np.diagonal(ricci, axis1=-2, axis2=-1)
    norm = m * m * np.max(np.abs(ricci - diagonal) / weight, axis=(-2, -1))
    return norm if norm.ndim else float(norm)


@dataclass(frozen=True)
class _GridPoint:
    """The values every check shares at one grid point, each computed once."""

    r: float
    mu: float        # quadrature: the authoritative referee
    mu_sqrt: float   # square-root closed form
    warp: WarpState
    ricci: RicciDiag  # closed form, at the run's theta


def _worst(rows) -> float:
    """Largest residual over rows of residuals, scanned in order from 0."""
    return max([0.0, *itertools.chain.from_iterable(rows)])


def _warp_identity_residuals(p, points: list[_GridPoint]):
    """Residual rows of the derivative identities relating f1 to f2, one per point.

    The mu-derivatives come from the Kepler inverse r(mu) evaluated on a
    jet of mu at every grid point at once: f1 = dr/dmu, so f1' is r's
    second derivative, and f1'(mu) = -m/r^2 + Q^2/r^3 as a jet of r
    gives f1''. Each is compared with warp_state and scaled by the local
    magnitudes, so the check is unit independent.
    """
    m, q = p.mass, p.charge
    mu = oracle.Jet.variables([[pt.mu_sqrt] for pt in points])[..., 0]
    r = rn._kepler_inverse(p, mu)
    q_r = q / r
    f1p_of_mu = (q_r * q_r - m / r) / r  # -m/r^2 + Q^2/r^3, with no power of r to overflow
    r_now = np.array([pt.r for pt in points])
    f1, f1p, f1pp = (np.array([getattr(pt.warp, k) for pt in points])
                     for k in ("f1", "f1p", "f1pp"))

    def scaled(diff, *magnitudes):
        return (np.abs(diff) / functools.reduce(np.maximum, magnitudes, 1.0)).tolist()

    return zip(scaled(r.grad[0] - f1, np.abs(f1), r_now / m),
               scaled(m * (r.hess[0, 0] - f1p), m * np.abs(f1p), f1),
               scaled(m * m * (f1p_of_mu.grad[0] - f1pp), m * m * np.abs(f1pp), m * np.abs(f1p)))


_ORACLE_CHECKS = ("closed_vs_oracle_ricci", "chart_covariance", "scalar_oracle",
                  "oracle_off_diagonal")


def _diagonal(rd) -> tuple[float, float, float, float]:
    return (rd.r_mumu, rd.r_nunu, rd.r_thth, rd.r_phph)


def _algebraic_residuals(p, pt: _GridPoint, theta: float) -> dict[str, tuple]:
    """Residual rows, keyed by check name, of the closed-form Ricci against the warp formulas."""
    m = p.mass
    wr = warped.ricci_from_warps(pt.warp, theta)
    warp_vals = _diagonal(wr)
    cfl = _component_floors(pt.warp, theta, m)
    return {
        "closed_vs_warped_ricci": [_rel(a, b, f)
                                   for a, b, f in zip(_diagonal(pt.ricci), warp_vals, cfl)],
        # the closed-form scalar is 0 by construction, so only the warp
        # formulas' scalar is tested; scalars carry length^-2, measured in
        # curvature units m^-2 so the check is independent of the unit choice
        "scalar_closed_and_warped": (m * m * abs(wr.scalar),),
        "schwarzschild_flatness": [abs(v) / f for v, f in zip(warp_vals, cfl)],
    }


def _oracle_residuals(p, points: list[_GridPoint], theta: float, wc, sc) -> list[dict]:
    """Residual rows, keyed by check name, of the closed-form Ricci against the oracle.

    The oracle runs in the warped chart wc and in the static chart sc, on
    the whole grid at once; row k belongs to points[k]. Raises
    SingularMetricError where a chart metric fails the oracle's pivot
    check.
    """
    m = p.mass
    cw = oracle.ricci_at(wc, [[pt.mu, 0.0, theta, 0.0] for pt in points])
    cs = oracle.ricci_at(sc, [[0.0, pt.r, theta, 0.0] for pt in points])
    off_w = _off_diagonal_norm(cw.ricci, wc.g, cw.point, m).tolist()
    off_s = _off_diagonal_norm(cs.ricci, sc.g, cs.point, m).tolist()
    rows = []
    for k, pt in enumerate(points):
        closed, cfl = _diagonal(pt.ricci), _component_floors(pt.warp, theta, m)
        n2 = rn.lapse_squared(p, pt.r)
        ricci_s = cs.ricci[k]
        transformed = (float(ricci_s[1, 1]) * n2, float(ricci_s[0, 0]),
                       float(ricci_s[2, 2]), float(ricci_s[3, 3]))
        rows.append({
            "closed_vs_oracle_ricci": [_rel(a, float(b), f)
                                       for a, b, f in zip(closed, np.diag(cw.ricci[k]), cfl)],
            "chart_covariance": [_rel(a, b, f) for a, b, f in zip(closed, transformed, cfl)],
            "scalar_oracle": (m * m * abs(float(cw.scalar[k])),
                              m * m * abs(float(cs.scalar[k]))),
            "oracle_off_diagonal": (off_w[k], off_s[k]),
        })
    return rows


def _fluid_residuals(p, pt: _GridPoint, theta: float) -> tuple[tuple, float, float]:
    """The fluid balances that vanish, the mumu gap residual, and the mumu residual.

    The mumu gap is compared with its closed form. The thth/phph balances
    are dimensionless; nunu and mumu carry length^-2.
    """
    q, w = p.charge, pt.warp
    _, _, res = fluid.fluid_balance(q, w, theta)
    scale_angular = max((q / w.f2) ** 2, 1.0)
    scale_time = max(q * q / w.f2 ** 4, 1.0 / (p.mass * p.mass))
    balances = (abs(res.nunu) / scale_time,
                abs(res.thth) / scale_angular,
                abs(res.phph) / scale_angular)
    gap_expected = q * q / w.f2 ** 4 * (1.0 - w.f1 ** 2)
    gap = abs(res.mumu - gap_expected) / max(scale_time, abs(gap_expected))
    return balances, gap, res.mumu


def run_verification(p: rn.BlackHoleParams, grid_points: int = 64,
                     guard_fraction: float = 0.05, theta: float = 0.5 * math.pi,
                     tol: Tolerance = calculus.DEFAULT_TOL) -> VerifyReport:
    """Run every cross-check for one parameter set and collect a report.

    One pass over the grid builds a record per point (the quadrature mu,
    the square-root closed form, the warp state, the closed-form Ricci);
    each grid check is a reduction over those records. The quadratures of
    the run are one batched call and the oracle takes the whole grid per
    chart, so the layers see the grid at once, not point by point.
    """
    th = dict(THRESHOLDS)
    hp = rn.horizons(p)
    grid = rn.interior_grid(p, grid_points, guard_fraction)
    m, q = p.mass, p.charge
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

    def add(name, residual):
        checks.append(CheckResult(name, float(residual), th[name], residual <= th[name]))

    # the Kepler inverse is checked against the quadrature at fixed
    # pseudorandom mu samples; every quadrature of the run (the grid, the
    # outer horizon, the round trip) is one batch
    rng = random.Random(_ROUNDTRIP_SEED)
    mu_max = m * math.pi
    mu_samples = [mu_max * rng.uniform(0.01, 0.99) for _ in range(_ROUNDTRIP_SAMPLES)]
    r_samples = rn._kepler_inverse(p, np.array(mu_samples))
    mus = rn.mu_of_r(p, np.concatenate([grid, [hp.r_plus], r_samples]), tol).tolist()
    mu_outer, mu_round = mus[len(grid)], mus[len(grid) + 1:]

    points = [_GridPoint(r, mu, rn.mu_closed_form_sqrt(p, r),
                         rn.warp_state(p, r), rn.ricci_closed_form(p, r, theta))
              for r, mu in zip(grid, mus)]

    # Vieta: r+ + r- = 2m, r+ r- = Q^2
    add("horizon_vieta", max(
        abs(hp.r_plus + hp.r_minus - 2.0 * m) / (2.0 * m),
        abs(hp.r_plus * hp.r_minus - q * q) / max(q * q, m * m),
    ))

    # the coordinate map's value at the outer horizon; mu(r_minus) = 0 by definition
    add("mu_at_outer_horizon", abs(mu_outer - m * math.pi))

    # the Kepler inverse's exact mu-derivatives against the analytic warp state
    add("warp_identities", _worst(_warp_identity_residuals(p, points)))

    # triple agreement and scalar flatness
    algebraic = [_algebraic_residuals(p, pt, theta) for pt in points]
    for name in ("closed_vs_warped_ricci", "scalar_closed_and_warped"):
        add(name, _worst(c[name] for c in algebraic))
    oracle_rows = _oracle_residuals(p, points, theta, rn.warped_chart(p), rn.static_chart(p))
    for name in _ORACLE_CHECKS:
        add(name, _worst(c[name] for c in oracle_rows))
    if q == 0.0:
        add("schwarzschild_flatness", _worst(c["schwarzschild_flatness"] for c in algebraic))

    # the Kepler inverse against the quadrature
    worst = 0.0
    for mu0, mu in zip(mu_samples, mu_round):
        worst = max(worst, abs(mu - mu0))
    add("roundtrip_inverse", worst / mu_max)

    # fluid extraction: three balances vanish, the mumu gap has a closed form
    fluid_rows = [_fluid_residuals(p, pt, theta) for pt in points]
    add("fluid_residuals", _worst(balances for balances, _, _ in fluid_rows))
    add("fluid_mumu_gap_identity", _worst((gap,) for _, gap, _ in fluid_rows))
    mid = len(grid) // 2
    gap_mid = fluid_rows[mid][2]

    # the two closed-form candidates against the quadrature definition
    worst = _worst((abs(pt.mu_sqrt - pt.mu),) for pt in points)
    plain_gap = _worst((abs(rn.mu_closed_form(p, pt.r) - pt.mu),) for pt in points)
    add("closed_form_sqrt_vs_quadrature", worst)

    notes.append(
        f"plain-ratio closed form for mu deviates from quadrature by up to {plain_gap:.6g} "
        f"on this grid (square-root variant matches to {worst:.3g}); "
        "quadrature is authoritative")
    notes.append(
        f"mumu fluid balance is not closed by the extracted isotropic pressure: residual "
        f"Q^2/f2^4 (1 - f1^2) = {gap_mid:.6g} at r = {grid[mid]:.6g}; reported, not failed")
    if near_extremal:
        notes.append(
            f"near-extremal configuration: (m - Q)/m = {(m - q) / m:.3g}; guard band "
            "absorbs the horizon proximity; quadrature tolerance relaxed to the "
            f"double-precision noise floor ({2e-8 * m:.1g})")

    return VerifyReport(checks=checks, notes=notes)
