"""The three workloads: what one op is, what it is given, and how its output is checked.

Each workload splits an op into three steps so the harness can time only
the middle one:

- prepare(i): build the i-th input from the seeded stream (untimed);
- run(x): the op itself, a call into rnwarp's public API (timed);
- check(x, out): compare the output with independent references (untimed).

rnwarp's modules are looked up as attributes at call time, so an installed
tracer (see tracer.py) sees every call.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

from rnwarp import cli, oracle, verify
from rnwarp import reissner_nordstrom as rn

from .configs import GUARD, Config, ConfigStream, OraclePointStream

THETA = 0.5 * math.pi
EIGHT_PI = 8.0 * math.pi
REFERENCE = Config(-1, "reference", 1.0, 0.6)  # warm-up and set-up op, the README's example


@dataclass
class Outcome:
    """Result of checking one op's output.

    passed: the op counts as done (not failed). An output outside a
        threshold fails the op, like an exception or a failed report does.
    correct: false when the output contradicts itself: a malformed table,
        or a report whose pass flags disagree with its own residuals.
    residual_ratio: worst residual over its threshold.
    """

    passed: bool
    correct: bool = True
    residual_ratio: float | None = None
    reason: str = ""


def _rel(a: float, b: float, floor: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def _against_thresholds(ratio: float) -> Outcome:
    if ratio <= 1.0:
        return Outcome(True, residual_ratio=ratio)
    return Outcome(False, residual_ratio=ratio, reason=f"residual/threshold {ratio:.3g}")


def _params(cfg: Config) -> rn.BlackHoleParams:
    return rn.BlackHoleParams(cfg.mass, cfg.charge)


class Verify:
    """run_verification at grid 64 on one seeded config."""

    name = "verify"
    grid = 64
    points_per_op = grid

    def __init__(self, seed: int):
        self._stream = ConfigStream(seed)
        self.round_size = len(self._stream.round)

    def prepare(self, i: int):
        return _params(self._stream.config(i))

    def reference(self):
        return _params(REFERENCE)

    def run(self, p):
        return verify.run_verification(p, self.grid)

    @staticmethod
    def fingerprint(report) -> bytes:
        return json.dumps(report.to_dict()).encode()

    def check(self, p, report) -> Outcome:
        ratios = []
        for c in report.checks:
            base = verify.THRESHOLDS[c.name]
            # near-extremal runs may only loosen a threshold, never tighten it
            if c.threshold < base or c.passed != (c.max_abs_residual <= c.threshold):
                return Outcome(False, False, reason=f"inconsistent check {c.name}")
            ratios.append(c.max_abs_residual / c.threshold)
        if not report.checks or report.overall != all(c.passed for c in report.checks):
            return Outcome(False, False, reason="inconsistent overall_pass")
        if not report.overall:
            failing = [c.name for c in report.checks if not c.passed]
            return Outcome(False, residual_ratio=max(ratios),
                           reason="overall_pass=false: " + ",".join(failing))
        return Outcome(True, residual_ratio=max(ratios))


class Tables:
    """`rnwarp curvature` then `rnwarp fluid` through cli.main at grid 256."""

    name = "tables"
    grid = 256
    points_per_op = grid

    def __init__(self, seed: int):
        self._stream = ConfigStream(seed)
        self.round_size = len(self._stream.round)

    def prepare(self, i: int):
        return _params(self._stream.config(i))

    def reference(self):
        return _params(REFERENCE)

    def argv(self, p, command: str) -> list[str]:
        return [command, "--mass", repr(p.mass), "--charge", repr(p.charge),
                "--grid", str(self.grid)]

    def run(self, p):
        out = []
        for command in ("curvature", "fluid"):
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli.main(self.argv(p, command))
            out.append((code, stdout.getvalue()))
        return out

    @staticmethod
    def fingerprint(out) -> bytes:
        return repr(out).encode()

    def check(self, p, out) -> Outcome:
        (code_c, text_c), (code_f, text_f) = out
        if code_c != 0 or code_f != 0:
            return Outcome(False, reason=f"exit codes {code_c},{code_f}")
        try:
            ratio = self._residual_ratio(p, text_c, text_f)
        except ValueError as exc:
            return Outcome(False, False, reason=f"malformed table: {exc}")
        return _against_thresholds(ratio)

    def _residual_ratio(self, p, text_c: str, text_f: str) -> float:
        th = verify.THRESHOLDS
        m, q2 = p.mass, p.charge * p.charge
        grid = rn.interior_grid(p, self.grid, GUARD)
        curv = _parse_csv(text_c, cli.CURVATURE_COLUMNS, len(grid))
        flu = _parse_csv(text_f, cli.FLUID_COLUMNS, len(grid))
        th_mu = th["closed_form_sqrt_vs_quadrature"]
        if (m - p.charge) / m < verify.NEAR_EXTREMAL_MARGIN:
            # run_verification relaxes this check the same way: the quadrature's
            # noise floor near extremal is about 2e-8*m
            th_mu = max(th_mu, 4e-8 * m)
        worst = 0.0
        for r, row_c, row_f in zip(grid, curv, flu):
            if row_c["r"] != r or row_f["r"] != r or row_f["mu"] != row_c["mu"]:
                raise ValueError(f"r or mu column disagrees with the grid at r={r!r}")
            rc = rn.ricci_closed_form(p, r, THETA)
            floors = verify._component_floors(rn.warp_state(p, r), THETA, m)
            ricci = max(_rel(a, row_c[k], f) for a, k, f in zip(
                (rc.r_mumu, rc.r_nunu, rc.r_thth, rc.r_phph),
                ("R_mumu", "R_nunu", "R_thth", "R_phph"), floors))
            n2 = rn.lapse_squared(p, r)
            r4 = r ** 4
            floor = 1.0 / (EIGHT_PI * m * m)
            fluid = max(_rel(q2 * n2 / (EIGHT_PI * r4), row_f["rho"], n2 * floor),
                        _rel(q2 / (EIGHT_PI * r4), row_f["pressure"], floor))
            worst = max(
                worst,
                ricci / th["closed_vs_warped_ricci"],
                m * m * abs(row_c["scalar"]) / th["scalar_closed_and_warped"],
                fluid / th["fluid_residuals"],
                abs(row_c["mu"] - rn.mu_closed_form_sqrt(p, r)) / th_mu,
            )
        return worst


def _parse_csv(text: str, columns: list[str], rows: int) -> list[dict]:
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != ",".join(columns) or len(lines) != rows + 2:
        raise ValueError("header, row count or line ending")
    out = []
    for line in lines[1:-1]:
        values = [float(v) for v in line.split(",")]
        if len(values) != len(columns) or not all(map(math.isfinite, values)):
            raise ValueError(f"row {line!r}")
        out.append(dict(zip(columns, values)))
    return out


class Oracle:
    """ricci_at on warped_chart and on static_chart at one interior point."""

    name = "oracle"
    points_per_op = 1

    def __init__(self, seed: int):
        self._stream = OraclePointStream(seed)
        self.round_size = len(self._stream.round)

    def prepare(self, i: int):
        pt = self._stream.point(i)
        return self._prepared(_params(pt.config), pt.r)

    def reference(self):
        return self._prepared(_params(REFERENCE), 1.0)

    @staticmethod
    def _prepared(p, r: float):
        return p, r, rn.mu_of_r(p, r)  # the quadrature stays outside the timed op

    def run(self, x):
        p, r, mu = x
        warped_pt = oracle.ricci_at(rn.warped_chart(p), [mu, 0.0, THETA, 0.0])
        static_pt = oracle.ricci_at(rn.static_chart(p), [0.0, r, THETA, 0.0])
        return warped_pt, static_pt

    @staticmethod
    def fingerprint(out) -> bytes:
        return b"".join(a.tobytes() for pt in out for a in (pt.christoffel, pt.ricci))

    def check(self, x, out) -> Outcome:
        p, r, _ = x
        warped_pt, static_pt = out
        th = verify.THRESHOLDS
        m = p.mass
        rc = rn.ricci_closed_form(p, r, THETA)
        closed = (rc.r_mumu, rc.r_nunu, rc.r_thth, rc.r_phph)
        floors = verify._component_floors(rn.warp_state(p, r), THETA, m)
        n2 = rn.lapse_squared(p, r)
        s = static_pt.ricci
        transformed = (s[1, 1] * n2, s[0, 0], s[2, 2], s[3, 3])
        ratio = max(
            max(_rel(a, float(b), f) for a, b, f in zip(closed, np.diag(warped_pt.ricci), floors))
            / th["closed_vs_oracle_ricci"],
            max(_rel(a, float(b), f) for a, b, f in zip(closed, transformed, floors))
            / th["chart_covariance"],
            m * m * max(abs(warped_pt.scalar), abs(static_pt.scalar)) / th["scalar_oracle"],
            max(verify._off_diagonal_norm(warped_pt.ricci, rn.warped_chart(p).g,
                                          warped_pt.point, m),
                verify._off_diagonal_norm(static_pt.ricci, rn.static_chart(p).g,
                                          static_pt.point, m))
            / th["oracle_off_diagonal"],
        )
        return _against_thresholds(ratio)


WORKLOADS = {w.name: w for w in (Verify, Tables, Oracle)}
