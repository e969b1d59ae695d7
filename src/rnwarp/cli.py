"""Command-line surface: horizons | transform | curvature | fluid | verify.

Plain-decimal flags, geometrized units (G = c = 1). Results go to stdout,
diagnostics to stderr. Exit codes: 0 success, 1 verification failure,
2 usage or domain error. CSV output is deterministic byte for byte:
fixed column order, shortest round-trip float formatting, newline line
endings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

from . import fluid, reissner_nordstrom as rn, verify, warped
from .calculus import Tolerance
from .errors import ConvergenceError, DomainError

CURVATURE_COLUMNS = ["r", "mu", "f1", "f2", "R_mumu", "R_nunu", "R_thth", "R_phph", "scalar"]
FLUID_COLUMNS = ["r", "mu", "rho", "pressure", "res_mumu", "res_nunu", "res_thth", "res_phph"]
VERIFY_COLUMNS = ["name", "max_abs_residual", "threshold", "pass"]


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters shared by all subcommands."""

    mass: float
    charge: float
    grid_points: int = 64
    guard_fraction: float = 0.05
    tol: Tolerance = field(default_factory=Tolerance)
    format: str | None = None  # resolved per command: tables csv, scalars json
    theta: float = 0.5 * math.pi

    def __post_init__(self):
        if self.grid_points < 2:
            raise DomainError(f"--grid must be at least 2, got {self.grid_points}")
        if not 0.0 < self.guard_fraction < 0.5:
            raise DomainError(f"--guard must lie in (0, 0.5), got {self.guard_fraction}")
        if self.format not in (None, "csv", "json"):
            raise DomainError(f"unknown format {self.format!r}")

    @property
    def params(self) -> rn.BlackHoleParams:
        return rn.BlackHoleParams(self.mass, self.charge)


def _fmt(v) -> str:
    # repr of a Python float is the shortest string that round-trips
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _emit_table(cfg: RunConfig, columns: list[str], rows: list[list], default_format: str) -> None:
    fmt = cfg.format or default_format
    if fmt == "csv":
        sys.stdout.write(",".join(columns) + "\n")
        for row in rows:
            sys.stdout.write(",".join(_fmt(v) for v in row) + "\n")
    else:
        payload = [dict(zip(columns, row)) for row in rows]
        sys.stdout.write(json.dumps(payload, allow_nan=False) + "\n")


def _emit_record(cfg: RunConfig, record: dict, default_format: str = "json") -> None:
    fmt = cfg.format or default_format
    if fmt == "json":
        sys.stdout.write(json.dumps(record, allow_nan=False) + "\n")
    else:
        sys.stdout.write(",".join(record.keys()) + "\n")
        sys.stdout.write(",".join(_fmt(v) for v in record.values()) + "\n")


def cmd_horizons(cfg: RunConfig) -> int:
    hp = rn.horizons(cfg.params)
    _emit_record(cfg, {
        "r_plus": hp.r_plus,
        "r_minus": hp.r_minus,
        "extremal_margin": cfg.mass * cfg.mass - cfg.charge * cfg.charge,
    })
    return 0


def cmd_transform(cfg: RunConfig, r: float | None, mu: float | None) -> int:
    p = cfg.params
    pt = rn.interior_point(p, r=r, mu=mu, tol=cfg.tol)
    _emit_record(cfg, {
        "r": pt.r,
        "mu": pt.mu,
        "mu_closed_form": rn.mu_closed_form(p, pt.r),
        "mu_closed_form_sqrt": rn.mu_closed_form_sqrt(p, pt.r),
    })
    return 0


def cmd_curvature(cfg: RunConfig) -> int:
    p = cfg.params
    rows = []
    for r in rn.interior_grid(p, cfg.grid_points, cfg.guard_fraction):
        w = rn.warp_state(p, r)
        rd = warped.ricci_from_warps(w, cfg.theta)
        rows.append([r, rn.mu_of_r(p, r, cfg.tol), w.f1, w.f2,
                     rd.r_mumu, rd.r_nunu, rd.r_thth, rd.r_phph, rd.scalar])
    _emit_table(cfg, CURVATURE_COLUMNS, rows, default_format="csv")
    return 0


def cmd_fluid(cfg: RunConfig) -> int:
    p = cfg.params
    rows = []
    for r in rn.interior_grid(p, cfg.grid_points, cfg.guard_fraction):
        rep = fluid.fluid_report(p, r, cfg.theta, cfg.tol)
        rows.append([rep.r, rep.mu, rep.rho, rep.pressure, rep.residuals.mumu,
                     rep.residuals.nunu, rep.residuals.thth, rep.residuals.phph])
    _emit_table(cfg, FLUID_COLUMNS, rows, default_format="csv")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    report = verify.run_verification(
        cfg.params, cfg.grid_points, cfg.guard_fraction, cfg.theta, cfg.tol)
    fmt = cfg.format or "json"
    if fmt == "json":
        sys.stdout.write(json.dumps(report.to_dict(), allow_nan=False) + "\n")
    else:
        rows = [[c.name, c.max_abs_residual, c.threshold, c.passed] for c in report.checks]
        _emit_table(cfg, VERIFY_COLUMNS, rows, default_format="csv")
        for note in report.notes:  # notes do not fit the table; keep them visible
            sys.stderr.write(f"note: {note}\n")
    return 0 if report.overall else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rnwarp",
        description="Interior Reissner-Nordstrom curvature calculator (geometrized units)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--mass", type=float, required=True, help="mass m > 0 (length units)")
        sp.add_argument("--charge", type=float, required=True,
                        help="charge Q (length units; sign is ignored)")
        sp.add_argument("--grid", type=int, default=64, dest="grid_points",
                        help="grid points across the guarded interior (default 64)")
        sp.add_argument("--guard", type=float, default=0.05, dest="guard_fraction",
                        help="horizon guard band as a fraction of r_plus - r_minus (default 0.05)")
        sp.add_argument("--tol", type=float, default=1e-10,
                        help="absolute and relative tolerance for quadrature and root finding")
        sp.add_argument("--format", choices=["csv", "json"],
                        help="output format (tables default to csv, records to json)")
        sp.add_argument("--theta", type=float, default=0.5 * math.pi,
                        help="polar angle for the phph components (default pi/2)")

    common(sub.add_parser("horizons", help="horizon radii and extremal margin"))
    tr = sub.add_parser("transform", help="convert between r and the proper-time coordinate mu")
    common(tr)
    which = tr.add_mutually_exclusive_group(required=True)
    which.add_argument("--r", type=float, help="interior radius")
    which.add_argument("--mu", type=float, help="proper-time coordinate in (0, m*pi)")
    common(sub.add_parser("curvature", help="Ricci components over the interior grid"))
    common(sub.add_parser("fluid", help="perfect-fluid extraction over the interior grid"))
    common(sub.add_parser("verify", help="run the full cross-validation suite"))
    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        mass=args.mass,
        charge=abs(args.charge),  # every formula depends on Q^2 only
        grid_points=args.grid_points,
        guard_fraction=args.guard_fraction,
        tol=Tolerance(abs_tol=args.tol, rel_tol=args.tol),
        format=args.format,
        theta=args.theta,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        cfg = _config_from(args)
        if args.command == "horizons":
            return cmd_horizons(cfg)
        if args.command == "transform":
            return cmd_transform(cfg, args.r, args.mu)
        if args.command == "curvature":
            return cmd_curvature(cfg)
        if args.command == "fluid":
            return cmd_fluid(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        parser.error(f"unknown command {args.command!r}")
    except (DomainError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ConvergenceError as exc:
        sys.stderr.write(f"error: {exc}; rerun with a looser --tol\n")
        return 2
    except ArithmeticError as exc:  # e.g. a numerical cross-check that failed
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
