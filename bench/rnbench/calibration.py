"""Machine-speed calibration: a fixed loop of scalar float math and Python calls.

Imports nothing from rnwarp, so a fresh set-up probe can time the loop
before it imports anything else.
"""

import math
import time

CALIBRATION_S = 0.002  # calibrate() at reference speed; about its time on an idle 2-core x86_64 VM


def calibrate() -> float:
    """Wall time of one pass of the loop."""
    t0 = time.perf_counter()
    total = 0.0
    for j in range(1, 4000):
        t = j * 1e-3
        e = math.exp(-math.sinh(t))
        total += _node(e / (1.0 + e)) * math.cosh(t)
    return time.perf_counter() - t0


def _node(x: float) -> float:
    return 1.0 / math.sqrt(x * (1.0 - x) + 1e-300)


def scaled(dt: float, before: float, after: float) -> float:
    """dt at reference speed, given the loop's times just before and after it."""
    return dt * CALIBRATION_S / (0.5 * (before + after))
