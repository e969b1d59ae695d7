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

import numpy as np

from . import fluid, reissner_nordstrom as rn, verify, warped
from .calculus import Tolerance
from .errors import ConvergenceError, DomainError

CURVATURE_COLUMNS = ["r", "mu", "f1", "f2", "R_mumu", "R_nunu", "R_thth", "R_phph", "scalar"]
FLUID_COLUMNS = ["r", "mu", "rho", "pressure", "res_mumu", "res_nunu", "res_thth", "res_phph"]
VERIFY_COLUMNS = ["name", "max_abs_residual", "threshold", "pass"]


def _fmt(v) -> str:
    # repr of a Python float is the shortest string that round-trips
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _emit_table(fmt: str, columns: list[str], rows: list[list]) -> None:
    if fmt == "csv":
        sys.stdout.write(",".join(columns) + "\n")
        for row in rows:
            sys.stdout.write(",".join(_fmt(v) for v in row) + "\n")
    else:
        payload = [dict(zip(columns, row)) for row in rows]
        sys.stdout.write(json.dumps(payload, allow_nan=False) + "\n")


def _emit_record(fmt: str, record: dict) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(record, allow_nan=False) + "\n")
    else:
        sys.stdout.write(",".join(record.keys()) + "\n")
        sys.stdout.write(",".join(_fmt(v) for v in record.values()) + "\n")


def _params(args: argparse.Namespace) -> rn.BlackHoleParams:
    return rn.BlackHoleParams(args.mass, abs(args.charge))  # every formula depends on Q^2 only


def _tol(args: argparse.Namespace) -> Tolerance:
    return Tolerance(abs_tol=args.tol, rel_tol=args.tol)


def cmd_horizons(args: argparse.Namespace) -> int:
    p = _params(args)
    hp = rn.horizons(p)
    _emit_record(args.format, {
        "r_plus": hp.r_plus,
        "r_minus": hp.r_minus,
        "extremal_margin": p.mass * p.mass - p.charge * p.charge,
    })
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    p, tol = _params(args), _tol(args)
    r, mu = args.r, args.mu
    if mu is None:
        rn._require_interior(p, r)  # the horizons themselves are not interior points
        mu = rn.mu_of_r(p, r, tol)
    else:
        r = rn.r_of_mu(p, mu, tol)
    _emit_record(args.format, {
        "r": r,
        "mu": mu,
        "mu_closed_form": rn.mu_closed_form(p, r),
        "mu_closed_form_sqrt": rn.mu_closed_form_sqrt(p, r),
    })
    return 0


def cmd_curvature(args: argparse.Namespace) -> int:
    p = _params(args)
    r = np.array(rn.interior_grid(p, args.grid, args.guard))
    w = rn.warp_state(p, r)
    rd = warped.ricci_from_warps(w, args.theta)
    columns = (r, rn.mu_closed_form_sqrt(p, r), w.f1, w.f2,
               rd.r_mumu, rd.r_nunu, rd.r_thth, rd.r_phph, rd.scalar)
    _emit_table(args.format, CURVATURE_COLUMNS, np.column_stack(columns).tolist())
    return 0


def cmd_fluid(args: argparse.Namespace) -> int:
    p = _params(args)
    r = np.array(rn.interior_grid(p, args.grid, args.guard))
    rho, pressure, res = fluid.fluid_balance(p.charge, rn.warp_state(p, r), args.theta)
    columns = (r, rn.mu_closed_form_sqrt(p, r), rho, pressure,
               res.mumu, res.nunu, res.thth, res.phph)
    _emit_table(args.format, FLUID_COLUMNS, np.column_stack(columns).tolist())
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify.run_verification(_params(args), args.grid, args.guard, args.theta,
                                     _tol(args))
    if args.format == "json":
        sys.stdout.write(json.dumps(report.to_dict(), allow_nan=False) + "\n")
    else:
        rows = [[c.name, c.max_abs_residual, c.threshold, c.passed] for c in report.checks]
        _emit_table(args.format, VERIFY_COLUMNS, rows)
        for note in report.notes:  # notes do not fit the table; keep them visible
            sys.stderr.write(f"note: {note}\n")
    return 0 if report.overall else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rnwarp",
        description="Interior Reissner-Nordstrom curvature calculator (geometrized units)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, fmt, tol=False):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(run=run)
        sp.add_argument("--mass", type=float, required=True, help="mass m > 0 (length units)")
        sp.add_argument("--charge", type=float, required=True,
                        help="charge Q (length units; sign is ignored)")
        sp.add_argument("--format", choices=["csv", "json"], default=fmt,
                        help=f"output format (default {fmt})")
        if tol:
            sp.add_argument("--tol", type=float, default=1e-10,
                            help="absolute and relative tolerance for quadrature and root finding")
        return sp

    command("horizons", cmd_horizons, "horizon radii and extremal margin", "json")
    tr = command("transform", cmd_transform,
                 "convert between r and the proper-time coordinate mu", "json", tol=True)
    which = tr.add_mutually_exclusive_group(required=True)
    which.add_argument("--r", type=float, help="interior radius")
    which.add_argument("--mu", type=float, help="proper-time coordinate in (0, m*pi)")
    for name, run, summary, fmt in (
            ("curvature", cmd_curvature, "Ricci components over the interior grid", "csv"),
            ("fluid", cmd_fluid, "perfect-fluid extraction over the interior grid", "csv"),
            ("verify", cmd_verify, "run the full cross-validation suite", "json")):
        # curvature and fluid take mu from its closed form: no quadrature, no --tol
        sp = command(name, run, summary, fmt, tol=name == "verify")
        sp.add_argument("--grid", type=int, default=64,
                        help="grid points across the guarded interior (default 64)")
        sp.add_argument("--guard", type=float, default=0.05,
                        help="horizon guard band as a fraction of r_plus - r_minus (default 0.05)")
        sp.add_argument("--theta", type=float, default=0.5 * math.pi,
                        help="polar angle for the phph components (default pi/2)")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        # numpy's floating-point errors raise, as Python's float operations do
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return args.run(args)
    except (DomainError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ConvergenceError as exc:
        sys.stderr.write(f"error: {exc}; rerun with a looser --tol\n")
        return 2
    except (OverflowError, FloatingPointError) as exc:
        sys.stderr.write(f"error: {_floating_point_cause(exc)}\n")
        return 2
    except ArithmeticError as exc:  # e.g. a numerical cross-check that failed
        sys.stderr.write(f"error: {exc}\n")
        return 2


def _floating_point_cause(exc: ArithmeticError) -> str:
    """One line naming the kind of floating-point error.

    Python's float power raises OverflowError with an errno tuple; numpy's
    FloatingPointError message names the kind and the operation.
    """
    text = str(exc)
    if isinstance(exc, OverflowError) or text.startswith("overflow"):
        return ("floating-point overflow: an intermediate quantity exceeds the double range "
                "at these inputs")
    if text.startswith("divide by zero"):
        return ("float division by zero: an intermediate quantity underflows to 0 "
                "at these inputs")
    return (f"invalid floating-point operation ({text}): an intermediate quantity leaves "
            "the double range at these inputs")


if __name__ == "__main__":
    sys.exit(main())
