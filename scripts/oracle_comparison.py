#!/usr/bin/env python3
"""Radial profile of the interior curvature, closed form next to the oracle.

For each grid radius, prints the closed-form Ricci diagonal, the oracle's
value from the raw metric components of the proper-time chart, and their
gap. A quick way to see the two independent pipelines agreeing (or to
study how they fare toward the horizons with --guard).

    python scripts/oracle_comparison.py --mass 1 --charge 0.6 --grid 16
"""

import argparse
import math
import sys

import numpy as np

from rnwarp import (BlackHoleParams, interior_grid, mu_of_r, ricci_at,
                    ricci_closed_form, warped_chart)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mass", type=float, default=1.0)
    ap.add_argument("--charge", type=float, default=0.6)
    ap.add_argument("--grid", type=int, default=16)
    ap.add_argument("--guard", type=float, default=0.05)
    args = ap.parse_args(argv)

    p = BlackHoleParams(args.mass, abs(args.charge))
    chart = warped_chart(p)
    theta = 0.5 * math.pi
    sys.stdout.write("r,mu,R_mumu_closed,R_mumu_oracle,max_component_gap,scalar_oracle\n")
    for r in interior_grid(p, args.grid, args.guard):
        mu = mu_of_r(p, r)
        rc = ricci_closed_form(p, r, theta)
        cp = ricci_at(chart, [mu, 0.0, theta, 0.0])
        closed = np.array([rc.r_mumu, rc.r_nunu, rc.r_thth, rc.r_phph])
        gap = float(np.max(np.abs(np.diag(cp.ricci) - closed)))
        sys.stdout.write(f"{r!r},{mu!r},{rc.r_mumu!r},{float(cp.ricci[0, 0])!r},"
                         f"{gap!r},{cp.scalar!r}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
