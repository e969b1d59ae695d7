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

from . import fluid, oracle, reissner_nordstrom as rn, warped
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


# the report's row format, one row per check, which its JSON and CSV forms both read
VERIFY_COLUMNS = ("name", "max_abs_residual", "threshold", "pass")


@dataclass(frozen=True)
class CheckResult:
    """One check's largest residual against its threshold.

    worst_at, the r or mu of that residual (None for a check with no point
    axis), is not in the row format, so the JSON and CSV leave it out.
    """

    name: str
    max_abs_residual: float
    threshold: float
    passed: bool
    worst_at: float | None = None


@dataclass(frozen=True)
class VerifyReport:
    checks: list[CheckResult]
    notes: list[str] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def rows(self) -> list[tuple]:
        """One tuple per check, its values in VERIFY_COLUMNS' order."""
        return [(c.name, c.max_abs_residual, c.threshold, c.passed) for c in self.checks]

    def to_dict(self) -> dict:
        return {
            "checks": [dict(zip(VERIFY_COLUMNS, row)) for row in self.rows()],
            "notes": list(self.notes),
            "overall_pass": self.overall,
        }


def _reduce(name: str, residuals, at: np.ndarray | None) -> CheckResult:
    """Check name's record: its largest residual against THRESHOLDS, and where it lies.

    The last axis of residuals is the point axis and at holds its
    coordinates (None where there is none), so flat index k lies at
    at[k % len(at)]. argmax takes the first NaN as the largest entry (the
    builtin max() would drop it); a residual that is no number raises.
    """
    residuals = np.asarray(residuals)
    k = int(residuals.argmax())
    residual = float(residuals.flat[k])
    if not math.isfinite(residual):
        raise ArithmeticError(f"check {name} has a non-finite residual {residual} at these inputs")
    threshold = THRESHOLDS[name]
    return CheckResult(name, residual, threshold, residual <= threshold,
                       None if at is None else float(at[k % len(at)]))


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


# called by the oracle check in bench/rnbench/workloads.py; goes with ROADMAP item 11
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
    point at once: phi holds the Kepler angles of the values mu (the
    grid's forward angles, of which mu is the closed form), lifted to a
    jet of mu by the implicit function theorem (rn._kepler_lift).
    f1 = dr/dmu, so f1' is r's second derivative, and f1'(mu) = -m/r^2 +
    Q^2/r^3 as a jet of r gives f1''. Each is compared with the warp state
    w and scaled by the local magnitudes, so the check is unit independent.
    """
    m, q = p.mass, p.charge
    r = rn._kepler_lift(p.horizons, oracle.Jet.variables(mu[:, None])[..., 0], phi)[0]
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
                     guard_fraction: float = 0.05, theta: float = 0.5 * math.pi) -> VerifyReport:
    """Run every cross-check for one parameter set and collect a report.

    Each evaluator runs once on the whole grid array, and each check is
    one array expression, a row of the table that _reduce makes into its
    record; a residual that is not finite raises ArithmeticError naming
    the check. The grid's interior state is formed once: one forward
    Kepler angle serves both closed-form mu and the warp identities'
    Kepler inverse, and one lapse_squared call gives the N^2 that the
    warp state and the closed-form Ricci share.
    """
    hp = p.horizons
    grid = np.array(rn.interior_grid(p, grid_points, guard_fraction))
    m, q = p.mass, p.charge
    n = len(grid)

    # the grid lies strictly inside the horizons by construction, and
    # lapse_squared below checks it
    phi_grid = rn._forward_angle(hp, grid)
    mu_sqrt = rn._kepler_mu(hp, phi_grid)

    # the Kepler inverse against the quadrature at fixed pseudorandom mu
    # samples, the one Kepler solve of the run; every quadrature of the run
    # (the grid, the outer horizon, the round trip) is one batch
    mu_max = m * math.pi
    mu_samples = mu_max * _ROUNDTRIP_FRACTIONS
    r_samples = rn._kepler_r(hp, rn._kepler_angle(p, mu_samples))
    mus = rn.mu_of_r(p, np.concatenate([grid, [hp.r_plus], r_samples]))
    mu, mu_outer, mu_round = mus[:n], mus[n], mus[n + 1:]

    # every evaluator once on the whole grid, from one N^2
    n2 = rn.lapse_squared(p, grid)
    w = rn._warp_state(p, grid, n2)
    closed = _ricci_diagonal(rn._ricci_closed_form(p, grid, n2, theta))
    wr = warped.ricci_from_warps(w, theta)
    warp_diag = _ricci_diagonal(wr)
    floors = np.empty((4, n))
    floors[0], floors[1], floors[2], floors[3] = _component_floors(w, theta, m)

    # the oracle points: (mu, 0, theta, 0) in the warped chart and
    # (0, r, theta, 0) in the static one
    x = np.zeros((2, n, 4))
    x[0, :, 0], x[1, :, 1], x[:, :, 2] = mu, grid, theta
    cw = oracle.ricci_at(rn.warped_chart(p), x[0])
    cs = oracle.ricci_at(rn.static_chart(p), x[1])
    static = cs.ricci.diagonal(0, 1, 2).T
    # N^2 is the static chart's g_tt, which its oracle call already evaluated
    transformed = np.array([static[1] * cs.metric[:, 0, 0], static[0], static[2], static[3]])

    # fluid extraction: three balances vanish, the mumu gap has a closed
    # form. The thth/phph balances are dimensionless; nunu and mumu carry
    # length^-2
    _, _, res = fluid.fluid_balance(q, w, theta)
    scale_angular = np.maximum((q / w.f2) ** 2, 1.0)
    scale_time = np.maximum(q * q / w.f2 ** 4, 1.0 / (m * m))
    gap_expected = q * q / w.f2 ** 4 * (1.0 - w.f1 ** 2)

    # one row per check: (name, residuals, the coordinates of their point axis)
    checks = [_reduce(*row) for row in [
        # Vieta: r+ + r- = 2m, r+ r- = Q^2
        ("horizon_vieta", [abs(hp.r_plus + hp.r_minus - 2.0 * m) / (2.0 * m),
                           abs(hp.r_plus * hp.r_minus - q * q) / max(q * q, m * m)], None),
        # the coordinate map's value at the outer horizon; mu(r_minus) = 0 by definition
        ("mu_at_outer_horizon", abs(mu_outer - m * math.pi), None),
        # the Kepler inverse's exact mu-derivatives against the analytic warp state
        ("warp_identities", _warp_identity_residuals(p, mu_sqrt, phi_grid, w), grid),
        # triple agreement and scalar flatness: the closed form against the
        # warp formulas, then against the oracle in the warped chart (mu, nu,
        # theta, phi) and in the static chart (t, r, theta, phi), whose
        # components map to the warped ones by R_mumu = N^2 R_rr, R_nunu = R_tt.
        # The closed-form scalar is 0 by construction, so only the computed
        # scalars are tested; scalars carry length^-2, measured in curvature
        # units m^-2 so the checks are independent of the unit choice
        ("closed_vs_warped_ricci", _rel(closed, warp_diag, floors), grid),
        ("scalar_closed_and_warped", m * m * np.abs(wr.scalar), grid),
        ("closed_vs_oracle_ricci", _rel(closed, cw.ricci.diagonal(0, 1, 2).T, floors), grid),
        ("chart_covariance", _rel(closed, transformed, floors), grid),
        ("scalar_oracle", m * m * np.abs([cw.scalar, cs.scalar]), grid),
        # both charts in one call, weighted by the metric each oracle call
        # already evaluated: 2n points, each chart's n at the grid's r
        ("oracle_off_diagonal", _weighted_off_diagonal(np.concatenate([cw.ricci, cs.ricci]),
                                                       np.concatenate([cw.metric, cs.metric]), m),
         grid),
        # at Q = 0 alone: Ricci flatness, each warp component over its floor
        *([("schwarzschild_flatness", np.abs(warp_diag) / floors, grid)] if q == 0.0 else []),
        # the Kepler inverse against the quadrature, in units of m*pi (division
        # rounds monotonically, so the largest quotient is the largest error's)
        ("roundtrip_inverse", np.abs(mu_round - mu_samples) / mu_max, mu_samples),
        ("fluid_residuals", [np.abs(res.nunu) / scale_time, np.abs(res.thth) / scale_angular,
                             np.abs(res.phph) / scale_angular], grid),
        ("fluid_mumu_gap_identity",
         np.abs(res.mumu - gap_expected) / np.maximum(scale_time, np.abs(gap_expected)), grid),
        # the two closed-form candidates against the quadrature definition
        ("closed_form_sqrt_vs_quadrature", np.abs(mu_sqrt - mu), grid),
    ]]
    plain_gap = float(np.maximum.reduce(np.abs(rn._plain_ratio_mu(p, phi_grid) - mu)))

    notes = [
        f"plain-ratio closed form for mu deviates from quadrature by up to {plain_gap:.6g} "
        f"on this grid (square-root variant matches to {checks[-1].max_abs_residual:.3g}); "
        "quadrature is authoritative",
        f"mumu fluid balance is not closed by the extracted isotropic pressure: residual "
        f"Q^2/f2^4 (1 - f1^2) = {float(res.mumu[n // 2]):.6g} at r = {grid[n // 2]:.6g}; "
        "reported, not failed"]
    if (m - q) / m < NEAR_EXTREMAL_MARGIN:
        notes.append(f"near-extremal configuration: (m - Q)/m = {(m - q) / m:.3g}; guard band "
                     "absorbs the horizon proximity")

    return VerifyReport(checks=checks, notes=notes)
