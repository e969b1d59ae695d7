"""Seeded inputs for the workloads.

Every workload cycles through a fixed round of charge bands, so each
complete round holds the same band mix. Within a band, the free
coordinates follow a rank-1 lattice (the R-sequence), which covers the
band far more evenly than independent draws would.

Each workload draws from a pool of rounds that is the same for every
seed; the seed shuffles the order of the rounds. A run gets through the
whole pool about once (verify) or several times (tables, oracle), so the
mix of op costs, and with it every timing, barely depends on the seed. The pools lie in the part of the
README's domain where no op fails (see bench/README.md, "Known
failures"), and every op on them was run and passes:

- run_verification's warp_identities check sits at 0.6 to 1.1 of its
  threshold and fails now and then at any charge below Q/m = 0.98, most
  often in the "high" band, which ROUND leaves out;
- near extremal the quadrature fails below a gap (m - Q)/m of about
  1e-5, and sometimes up to 5e-5 at masses near 1; in the steep band it
  fails at masses above about 2. So the two bands nearest extremality
  are drawn with m <= 0.5 and a gap of at least 3e-5;
- ricci_at finds the metric singular where r is small in absolute units
  (Q = 0 and m below about 0.2), so the oracle points have m >= 0.3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from rnwarp import BlackHoleParams, horizons

MASS_RANGE = (0.1, 10.0)  # the README's claimed domain, drawn log-uniform
NEAR_EXTREMAL_MASS_RANGE = (0.1, 0.5)  # steep and near-extremal bands
ORACLE_MASS_RANGE = (0.3, 10.0)
GUARD = 0.05              # horizon guard band, the CLI default

# Charge bands. "steep" and "near_extremal" are drawn
# log-uniform in the gap (m - Q)/m, the others uniform in Q/m.
BANDS = (
    "zero",            # Q = 0
    "low",             # 0 < Q/m <= 0.9
    "high",            # 0.9 < Q/m < 0.98
    "steep",           # 0.98 <= Q/m < 1 - 1e-4
    "near_extremal",   # 3e-5 <= (m - Q)/m < 1e-4
)
# "low", the widest band, twice: three of five ops then run the oracle in
# verify, so the median op is an oracle op, not one on the edge between the two
ROUND = ("zero", "low", "low", "steep", "near_extremal")
ORACLE_ROUND = BANDS[:3]  # verify skips the oracle at Q/m >= 0.98
POOL_ROUNDS = 10          # the verify and tables inputs: 50 configs
ORACLE_POOL_ROUNDS = 100  # the oracle inputs: 300 points
POOL_SEED = 0     # fixes the pool's lattice shifts; every op on the pool passes
NEAR_EXTREMAL_GAP = 1e-4
SMALLEST_GAP = 3e-5
STEEP_GAP = 0.02


@dataclass(frozen=True)
class Config:
    """One black hole: mass, charge, and the band the charge came from."""

    index: int
    band: str
    mass: float
    charge: float


@dataclass(frozen=True)
class OraclePoint:
    """One interior point for the oracle workload: a config and a radius."""

    config: Config
    r: float


def _lattice_alphas(dim: int) -> tuple[float, ...]:
    # generalized golden ratio: the unique positive root of x^(d+1) = x + 1
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    return tuple(phi ** -(k + 1) % 1.0 for k in range(dim))


def _open_unit(u: float) -> float:
    """Map [0, 1) into the open interval (0, 1)."""
    return min(max(u, 1e-12), 1.0 - 1e-12)


def _mass(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def _charge_ratio(band: str, u: float) -> float:
    u = _open_unit(u)
    if band == "zero":
        return 0.0
    if band == "low":
        return 0.9 * u
    if band == "high":
        return 0.9 + 0.08 * u
    if band == "steep":
        gap = STEEP_GAP * (NEAR_EXTREMAL_GAP / STEEP_GAP) ** u
        return 1.0 - gap
    if band == "near_extremal":
        gap = NEAR_EXTREMAL_GAP * (SMALLEST_GAP / NEAR_EXTREMAL_GAP) ** u
        return 1.0 - gap
    raise ValueError(f"unknown band {band!r}")


class ConfigStream:
    """The i-th input of a workload, a pure function of (seed, i).

    The inputs come from a pool of pool_rounds rounds that is the same for
    every seed: the seed shuffles the order of its rounds, and a run that
    gets through the pool starts it again.
    """

    def __init__(self, seed: int, round_: tuple[str, ...] = ROUND, dim: int = 2,
                 pool_rounds: int = POOL_ROUNDS, mass_range: tuple[float, float] = MASS_RANGE):
        self.round = round_
        self._mass_range = mass_range
        self._alphas = _lattice_alphas(dim)
        rng = random.Random(POOL_SEED)
        bands = sorted(set(round_), key=round_.index)
        self._shifts = {b: tuple(rng.random() for _ in range(dim)) for b in bands}
        self._per_round = {b: round_.count(b) for b in bands}
        self._slot = [round_[:k].count(b) for k, b in enumerate(round_)]
        self._order = random.Random(seed).sample(range(pool_rounds), pool_rounds)

    def coords(self, i: int) -> tuple[str, tuple[float, ...]]:
        r, k = divmod(i, len(self.round))
        r = self._order[r % len(self._order)]
        band = self.round[k]
        j = r * self._per_round[band] + self._slot[k]  # the band's j-th draw
        return band, tuple((s + (j + 1) * a) % 1.0
                           for s, a in zip(self._shifts[band], self._alphas))

    def config(self, i: int) -> Config:
        band, u = self.coords(i)
        near = band in ("steep", "near_extremal")
        m = _mass(*(NEAR_EXTREMAL_MASS_RANGE if near else self._mass_range), u[0])
        return Config(i, band, m, m * _charge_ratio(band, u[1]))


class OraclePointStream:
    """Interior points for the oracle workload: Q/m < 0.98, m >= 0.3, guard 0.05."""

    def __init__(self, seed: int):
        self._stream = ConfigStream(seed, ORACLE_ROUND, 3, ORACLE_POOL_ROUNDS,
                                    ORACLE_MASS_RANGE)
        self.round = ORACLE_ROUND

    def point(self, i: int) -> OraclePoint:
        cfg = self._stream.config(i)
        hp = horizons(BlackHoleParams(cfg.mass, cfg.charge))
        lo = hp.r_minus + GUARD * hp.width
        hi = hp.r_plus - GUARD * hp.width
        u = self._stream.coords(i)[1][2]
        return OraclePoint(cfg, lo + _open_unit(u) * (hi - lo))
