"""Numeric primitives: batched quadrature, bracketed root finding, differentiation.

The quadrature integrates a whole array of intervals, each with an
inverse-square-root singular point at or past one end and the other about
a width past its other end, as the caller cuts them, by one fixed
Gauss-Legendre rule per interval and one call of the integrand for them
all; the root search and the difference quotient work on one float at a
time.

Everything here is a pure function of its arguments and deterministic for
fixed inputs, so the routines can serve as independent referees for the
closed-form geometry elsewhere in the package.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BracketError, ConvergenceError

EPS = sys.float_info.epsilon

# enough for any finite bracket: 2^1025 wide down to the relative stop at a
# root as small as the least subnormal, 2^-1074
_MAX_HALVINGS = 2200

# per-step growth of the window that find_root_bracketed opens about a guess
_WINDOW_GROWTH = 8.0


@dataclass(frozen=True)
class Tolerance:
    """Accuracy request for the quadrature's check and the root search."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.abs_tol < math.inf and 0.0 < self.rel_tol < math.inf):
            raise ValueError(
                f"tolerances must be positive and finite, got {self.abs_tol}, {self.rel_tol}")


@dataclass(frozen=True)
class Interval:
    """Open interval (lo, hi), lo < hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"interval requires lo < hi, got ({self.lo}, {self.hi})")


DEFAULT_TOL = Tolerance()


# Gauss-Legendre rules of 20 and 12 points on [0, 1]: the nodes below 1/2,
# (1 - u)/2 for the positive roots u of the Legendre polynomial, increasing,
# and their weights on [-1, 1], each the double nearest its 40-digit value.
# The nodes above 1/2 mirror them
_GAUSS_20 = (
    (0.0034357004074525377, 0.018014036361043106, 0.04388278587433705, 0.0804415140888906,
     0.1268340467699246, 0.1819731596367425, 0.24456649902458646, 0.3131469556422902,
     0.38610707442917747, 0.46173673943325133),
    (0.017614007139152118, 0.04060142980038694, 0.06267204833410907, 0.08327674157670475,
     0.10193011981724044, 0.11819453196151841, 0.13168863844917664, 0.14209610931838204,
     0.14917298647260374, 0.15275338713072584),
)
_GAUSS_12 = (
    (0.009219682876640375, 0.04794137181476257, 0.11504866290284765, 0.2063410228566913,
     0.3160842505009099, 0.43738329574426554),
    (0.04717533638651183, 0.10693932599531843, 0.16007832854334622, 0.20316742672306592,
     0.2334925365383548, 0.24914704581340277),
)


def _mirrored(half: tuple) -> tuple[list, list]:
    """A rule's nodes on [0, 1] and weights, increasing, from the half below 1/2."""
    nodes, weights = half
    return ([*nodes, *(1.0 - v for v in reversed(nodes))], [*weights, *reversed(weights)])


# both rules as columns: the 20-point rule's nodes first, then the 12-point rule's
_NODES, _WEIGHTS = (np.array(fine + coarse)[:, None]
                    for fine, coarse in zip(_mirrored(_GAUSS_20), _mirrored(_GAUSS_12)))
_FINE = 2 * len(_GAUSS_20[0])


def integrate_endpoint_singular(f: Callable[[np.ndarray, np.ndarray], np.ndarray], lo, hi,
                                beyond_lo=0.0, beyond_hi=0.0,
                                tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Integrate f(a, b)/sqrt(a*b) over each open interval (lo[i], hi[i]).

    Each row i has a singular point at or below its lower limit, at
    s_lo = lo[i] - beyond_lo[i], and one at or above its upper limit, at
    s_hi = hi[i] + beyond_hi[i], where the integrand blows up like an
    inverse square root. The quadrature applies that weight, 1/sqrt(a*b),
    itself, and f is the regular part: it never sees an abscissa x, but
    takes two arrays, the distances a = x - s_lo and b = s_hi - x of each
    node from the two singular points, and maps them elementwise to the
    regular part there. lo, hi and the offsets broadcast to one 1-D array
    of rows, with lo < hi and nonnegative finite offsets; entry i of the
    result is the integral over (lo[i], hi[i]). One call of f serves every
    row, and a row's result, bit for bit, and the distances f sees for it
    do not depend on the other rows.

    The caller keeps each row's farther singular point about the row's
    width w or more past its end. Each row is then substituted
    x = s + L*tau^2 (s - L*tau^2 on the upper side) from its nearer
    singular point s, an offset d past its end, with L = d + w and tau
    from sqrt(d/L) to 1. The weight's 1/sqrt of the distance from s
    cancels against dx = 2*L*tau*dtau, and so does a singular point just
    past the end: what is left, 2*sqrt(L)*f/sqrt(the distance to the far
    point), is analytic in tau inside a Bernstein ellipse of parameter at
    least (2*sqrt(2) - 1) + sqrt((2*sqrt(2) - 1)^2 - 1) ~ 3.36 (d = 0 with
    the far point one width away; Trefethen, Approximation Theory and
    Approximation Practice, 2013, Thm 19.3). A node's distance from s is
    L*tau^2, which keeps its relative precision however far s lies from 0,
    and its distance from the far point is that point's offset plus
    L*(1 - tau^2), which the offset, about w, keeps from cancelling. A
    20-point Gauss-Legendre sum in tau is the value (an error of ~3.36^-40
    of the integral), and a 12-point sum on the same row the check. A row
    with the far point nearer converges more slowly, and one with a
    singular point at each end fails the check: cut it in two first.

    A row fails with ValueError where f returns a non-finite value, at its
    first such node (the 20-point rule's nodes first), or where its sum
    overflows though f is finite, and with ConvergenceError (carrying the
    20-point value and the difference) where the two sums differ by more
    than the tolerance: a regular part that is not analytic there, such as
    one more singular than the weight at an end (x^-3/4 or 1/x in place of
    x^-1/2) or a discontinuous one, or a row singular at both its ends.
    The error of the first failing row is raised, as a loop over the rows
    would raise it. A node whose distance from either singular point
    rounds to 0, as in a row a few subnormals wide, is dropped: f does
    not see it and it adds 0. Infinite limits, limits whose difference
    overflows and offsets that are negative or not finite raise
    ValueError before f is called.
    """
    try:
        limits = np.empty((4,) + np.broadcast(lo, hi, beyond_lo, beyond_hi).shape)
        limits[0], limits[1], limits[2], limits[3] = lo, hi, beyond_lo, beyond_hi
    except (TypeError, ValueError) as exc:
        raise ValueError(f"limits and offsets must be floats of one shape: {exc}") from None
    lo, hi, beyond_lo, beyond_hi = limits
    if hi.ndim != 1 or not (lo < hi).all():
        raise ValueError(f"intervals require lo < hi in one 1-D array of rows, "
                         f"got lo={lo!r}, hi={hi!r}")
    for i in (~np.isfinite(lo) | ~np.isfinite(hi)).nonzero()[0][:1].tolist():
        raise ValueError(f"the limits must be finite, got lo[{i}]={float(lo[i])!r}, "
                         f"hi[{i}]={float(hi[i])!r}")
    for beyond in (beyond_lo, beyond_hi):
        if not ((0.0 <= beyond) & (beyond < math.inf)).all():
            raise ValueError(f"the offsets past the ends must be finite and nonnegative, "
                             f"got {beyond!r}")
    with np.errstate(over="ignore"):
        width = hi - lo
    for i in (width == math.inf).nonzero()[0][:1].tolist():
        raise ValueError(f"the interval width overflows: hi[{i}] - lo[{i}] = "
                         f"{float(hi[i])!r} - {float(lo[i])!r} leaves the double range")
    from_lo = beyond_lo <= beyond_hi
    near, far = np.minimum(beyond_lo, beyond_hi), np.maximum(beyond_lo, beyond_hi)
    length = near + width
    tau0 = np.sqrt(near / length)
    span = (width / length) / (1.0 + tau0)  # 1 - tau0, which is exactly 1 at near = 0

    # one column per row, one row per node
    tau = tau0 + span * _NODES
    tau2 = tau * tau
    to_near = length * tau2
    to_far = far + length * (1.0 - tau2)
    a = np.where(from_lo, to_near, to_far)
    b = np.where(from_lo, to_far, to_near)
    keep = (to_near > 0.0) & (to_far > 0.0)
    if keep.all():
        fx = _evaluate(f, a.reshape(-1), b.reshape(-1)).reshape(a.shape)
    else:
        fx = np.zeros(a.shape)
        fx[keep] = _evaluate(f, a[keep], b[keep])
        to_far = np.where(keep, to_far, 1.0)  # a dropped node adds 0/1
    failed: dict[int, Exception] = {}
    if not np.isfinite(fx).all():
        # the first row with a bad node: no later row's error is raised
        bad = ~np.isfinite(fx)
        i = int(np.argmax(bad.any(axis=0)))
        k = int(np.argmax(bad[:, i]))
        failed[i] = ValueError(
            f"integrand returned non-finite value {float(fx[k, i])!r} at distances "
            f"a={float(a[k, i])!r}, b={float(b[k, i])!r} from the singular points")
    # the weights on [-1, 1] carry the 2 of 2*sqrt(L), as they sum to 2
    with np.errstate(over="ignore", invalid="ignore"):
        terms = fx / np.sqrt(to_far) * _WEIGHTS
        scale = np.sqrt(length) * span
        fine = scale * _pairwise(terms[:_FINE])
        coarse = scale * _pairwise(terms[_FINE:])
        err = np.abs(fine - coarse)
    for i in (~np.isfinite(fine)).nonzero()[0].tolist():
        failed.setdefault(i, ValueError(f"the quadrature sum overflows on the interval "
                                        f"({float(lo[i])!r}, {float(hi[i])!r})"))
    for i in (err > np.maximum(tol.abs_tol, tol.rel_tol * np.abs(fine))).nonzero()[0].tolist():
        failed.setdefault(i, ConvergenceError(
            "Gauss-Legendre quadrature did not converge: its 20- and 12-point sums differ "
            "by more than the tolerance", float(fine[i]), float(err[i])))
    if failed:
        raise failed[min(failed)]
    return fine


def _pairwise(x: np.ndarray) -> np.ndarray:
    """The sums of x's columns, halving the rows pairwise: one tree for any number of columns."""
    while len(x) > 1:
        half = len(x) // 2
        y = x[:half] + x[half:2 * half]
        if len(x) % 2:
            y[0] += x[-1]
        x = y
    return x[0]


def _evaluate(f, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    fx = np.asarray(f(a, b), dtype=float)
    if fx.shape != a.shape:
        raise ValueError(f"integrand returned shape {fx.shape} for distances of shape {a.shape}")
    return fx


def find_root_bracketed(g: Callable[[float], float], iv: Interval,
                        tol: Tolerance = DEFAULT_TOL, guess: float | None = None) -> float:
    """Root of g inside [lo, hi], where g(lo) and g(hi) differ in sign.

    Bisection, so convergence is guaranteed even where g has unbounded
    slope at the bracket ends. Each halving first tests the end with the
    smaller |g| and returns it when |g| <= abs_tol or the half-width is
    within rel_tol of it (plus 2 ulps of it, see _xtol). The
    result always lies within the input bracket.

    An optional guess inside [lo, hi] is tried first and returned as is
    when |g(guess)| <= abs_tol. Otherwise a window is widened
    geometrically from the guess, one side at a time, until g changes
    sign across it, and bisection runs on that window. Each side can
    grow to its interval end, so BracketError is raised only when
    neither end changes sign either. Every value of g comes from a call
    to g.
    """
    if guess is None:
        a, b = iv.lo, iv.hi
        fa, fb = g(a), g(b)
    else:
        if not iv.lo <= guess <= iv.hi:
            raise ValueError(f"guess {guess!r} outside [{iv.lo}, {iv.hi}]")
        fx = g(guess)
        if abs(fx) <= tol.abs_tol:
            return guess
        a, fa, b, fb = _window(g, iv, guess, fx, tol)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise BracketError(f"no sign change on [{a}, {b}]: g={fa!r}, {fb!r}")
    return _bisect(g, a, fa, b, fb, tol)


def _xtol(x: float, tol: Tolerance) -> float:
    """Half the bracket width at which a root search near x stops, relative to x.

    The 2*EPS keeps the stop above the spacing of doubles where rel_tol is
    below it. It scales with |x| as rel_tol does, so a root of any size is
    found to the same relative accuracy; the least subnormal keeps the
    width positive at x = 0.
    """
    return max(0.5 * (tol.rel_tol + 2.0 * EPS) * abs(x), math.ulp(0.0))


def _window(g, iv, x0, f0, tol):
    """A window [a, b] about x0, with g(a) and g(b), across which g changes sign.

    The window steps out from x0 on one side by a width that starts at
    the bracket tolerance _xtol(x0) (at x0 = 0, that of the interval's
    width) and grows by _WINDOW_GROWTH per step,
    clipped to the interval. A first step that finds the sign change
    leaves a window within that tolerance, which bisection returns
    without calling g again. The first side is the one where an
    increasing g has its root; the other side is tried, from x0 again,
    only once the first reaches its interval end. The inner end of the
    window is the last point on that side where g kept the sign of f0.
    Raises BracketError when g keeps that sign at both interval ends.
    """
    positive = f0 > 0.0
    for end in (iv.lo, iv.hi) if positive else (iv.hi, iv.lo):
        # a guess at 0 has no scale of its own; the interval's width gives one
        inner, f_inner, width = x0, f0, _xtol(x0 or iv.hi - iv.lo, tol)
        while inner != end:
            x = max(end, x0 - width) if end < x0 else min(end, x0 + width)
            fx = g(x)
            if fx == 0.0 or (fx > 0.0) != positive:
                return (x, fx, inner, f_inner) if x < x0 else (inner, f_inner, x, fx)
            inner, f_inner = x, fx
            width *= _WINDOW_GROWTH
    raise BracketError(f"no sign change on [{iv.lo}, {iv.hi}] about the guess {x0!r}")


def _bisect(g, a, fa, b, fb, tol):
    """Bisection of a sign-changing bracket [a, b] with known g(a), g(b); b wins |g| ties."""
    for _ in range(_MAX_HALVINGS):
        x, fx, y = (a, fa, b) if abs(fa) < abs(fb) else (b, fb, a)
        half = 0.5 * (y - x)
        if abs(fx) <= tol.abs_tol or abs(half) <= _xtol(x, tol):
            return x
        mid = 0.5 * a + 0.5 * b  # halves first: b - a may overflow
        fm = g(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fa > 0.0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    raise ConvergenceError("bracketed root search did not converge", x, abs(2.0 * half))


def derivative(f: Callable[[float], float], x: float, h: float) -> float:
    """Derivative of f at x by the 4-point fourth-order central stencil of step h."""
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h}")
    return (-f(x + 2.0 * h) + 8.0 * f(x + h) - 8.0 * f(x - h) + f(x - 2.0 * h)) / (12.0 * h)
