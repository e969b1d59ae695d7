"""Command-line surface: horizons | transform | curvature | fluid | verify.

Plain-decimal flags, geometrized units (G = c = 1). Results go to stdout,
diagnostics to stderr. Exit codes: 0 success, 1 verification failure,
2 usage or domain error or a failed write. CSV output is deterministic
byte for byte: fixed column order, shortest round-trip float formatting,
newline line endings.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import fluid, reissner_nordstrom as rn, verify, warped
from .errors import ConvergenceError, DomainError

CURVATURE_COLUMNS = ["r", "mu", "f1", "f2", "R_mumu", "R_nunu", "R_thth", "R_phph", "scalar"]
FLUID_COLUMNS = ["r", "mu", "rho", "pressure", "res_mumu", "res_nunu", "res_thth", "res_phph"]


def _write(text: str) -> None:
    """Write text to stdout in full, or raise the OSError that stopped it.

    With unbuffered stdout (python -u) a text stream hands a long string to
    the file in one write and ignores the count written, so a pipe closed
    part way through drops the rest without an error. Here the bytes go out
    until none are left, and the write after a short one raises.
    """
    out = sys.stdout
    buffer = getattr(out, "buffer", None)
    if buffer is None:  # an in-memory text stream
        out.write(text)
        return
    out.flush()
    data = memoryview(text.encode(out.encoding))
    while data:
        data = data[buffer.write(data):]


def _write_csv(header, columns) -> None:
    """Write a CSV table from its columns, each formatted in one pass.

    A column is a float64 array or a sequence of values; str of a float
    is its repr, the shortest string that round-trips, and a bool is
    written as JSON writes it (true, false). An array whose bytes
    equal an earlier one's reuses its text; the key is the bytes, not ==, so
    a -0.0 column stays apart from a 0.0 one.
    """
    texts, cells = {}, []
    for column in columns:
        if isinstance(column, np.ndarray):
            key = column.tobytes()
            if key not in texts:
                texts[key] = list(map(str, column.tolist()))
            cells.append(texts[key])
        else:
            cells.append([json.dumps(v) if isinstance(v, bool) else str(v) for v in column])
    _write("\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n")


def _write_json(payload) -> None:
    _write(json.dumps(payload, allow_nan=False) + "\n")


def _emit_table(fmt: str, header: list[str], columns) -> None:
    if fmt == "csv":
        _write_csv(header, columns)
    else:
        _write_json([dict(zip(header, row)) for row in zip(*[c.tolist() for c in columns])])


def _emit_record(fmt: str, record: dict) -> None:
    if fmt == "json":
        _write_json(record)
    else:
        _write_csv(record.keys(), [[value] for value in record.values()])


def _params(args: argparse.Namespace) -> rn.BlackHoleParams:
    return rn.BlackHoleParams(args.mass, abs(args.charge))  # every formula depends on Q^2 only


def cmd_horizons(args: argparse.Namespace) -> int:
    hp = _params(args).horizons
    _emit_record(args.format, {"r_plus": hp.r_plus, "r_minus": hp.r_minus,
                               "extremal_margin": hp.margin})
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    p = _params(args)
    r, mu = args.r, args.mu
    if mu is None:
        rn._require_interior(p, r, closed=False)  # the horizons themselves are not interior points
        mu = rn.mu_of_r(p, r)
    else:
        r = rn.r_of_mu(p, mu)
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
    _emit_table(args.format, CURVATURE_COLUMNS, columns)
    return 0


def cmd_fluid(args: argparse.Namespace) -> int:
    p = _params(args)
    r = np.array(rn.interior_grid(p, args.grid, args.guard))
    rho, pressure, res = fluid.fluid_balance(p.charge, rn.warp_state(p, r), args.theta)
    columns = (r, rn.mu_closed_form_sqrt(p, r), rho, pressure,
               res.mumu, res.nunu, res.thth, res.phph)
    _emit_table(args.format, FLUID_COLUMNS, columns)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify.run_verification(_params(args), args.grid, args.guard, args.theta)
    if args.format == "json":
        _write_json(report.to_dict())
    else:
        _write_csv(verify.VERIFY_COLUMNS, zip(*report.rows()))
        for note in report.notes:  # notes do not fit the table; keep them visible
            sys.stderr.write(f"note: {note}\n")
    return 0 if report.overall else 1


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose --help raises the OSError of a failed write.

    argparse's own print_help ignores it, so --help into a full disk would
    exit 0 having written nothing. Subparsers take the class of their parent.
    """

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rnwarp",
        description="Interior Reissner-Nordstrom curvature calculator (geometrized units)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, fmt):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(run=run)
        sp.add_argument("--mass", type=float, required=True, help="mass m > 0 (length units)")
        sp.add_argument("--charge", type=float, required=True,
                        help="charge Q (length units; sign is ignored)")
        sp.add_argument("--format", choices=["csv", "json"], default=fmt,
                        help=f"output format (default {fmt})")
        return sp

    command("horizons", cmd_horizons, "horizon radii and extremal margin", "json")
    tr = command("transform", cmd_transform,
                 "convert between r and the proper-time coordinate mu", "json")
    which = tr.add_mutually_exclusive_group(required=True)
    which.add_argument("--r", type=float, help="interior radius")
    which.add_argument("--mu", type=float, help="proper-time coordinate in (0, m*pi)")
    for name, run, summary, fmt in (
            ("curvature", cmd_curvature, "Ricci components over the interior grid", "csv"),
            ("fluid", cmd_fluid, "perfect-fluid extraction over the interior grid", "csv"),
            ("verify", cmd_verify, "run the full cross-validation suite", "json")):
        sp = command(name, run, summary, fmt)
        sp.add_argument("--grid", type=int, default=64,
                        help="grid points across the guarded interior (default 64)")
        sp.add_argument("--guard", type=float, default=0.05,
                        help="horizon guard band as a fraction of r_plus - r_minus (default 0.05)")
        sp.add_argument("--theta", type=float, default=0.5 * math.pi,
                        help="polar angle for the phph components (default pi/2)")
    return parser


# argparse reads a parser without changing it, so one serves every call
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        try:
            sys.stdout.flush()  # a buffered --help fails only here
        except OSError as err:
            return _write_failed(err)
        return int(exc.code or 0)
    except OSError as exc:  # an unbuffered --help fails in its write
        return _write_failed(exc)
    try:
        # numpy's floating-point errors raise, as Python's float operations do
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            code = args.run(args)
        sys.stdout.flush()  # a table is one write; its failure may wait for the flush
        return code
    except OSError as exc:  # a closed pipe or a full disk
        return _write_failed(exc)
    except (DomainError, ValueError, ConvergenceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (OverflowError, FloatingPointError) as exc:
        sys.stderr.write(f"error: {_floating_point_cause(exc)}\n")
        return 2
    except ArithmeticError as exc:  # e.g. a numerical cross-check that failed
        sys.stderr.write(f"error: {exc}\n")
        return 2


def _write_failed(exc: OSError) -> int:
    _discard_stdout()
    sys.stderr.write(f"error: cannot write output: {exc}\n")
    return 2


def _discard_stdout() -> None:
    """Point stdout's descriptor at devnull after a failed write.

    Python flushes stdout again at exit, and what its buffer still holds
    would fail a second time, print "Exception ignored" and exit 120 (the
    SIGPIPE note in the docs of the signal module). An in-memory stdout has
    no descriptor and is left as it is.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


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
