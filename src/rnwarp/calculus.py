"""Numeric primitives: batched quadrature, bracketed root finding, differentiation.

The quadrature integrates a whole array of intervals in one call; the
root search and the difference quotient work on one float at a time.

Everything here is a pure function of its arguments and deterministic for
fixed inputs, so the routines can serve as independent referees for the
closed-form geometry elsewhere in the package.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import BracketError, ConvergenceError

EPS = sys.float_info.epsilon

_MAX_LEVEL = 12  # finer tanh-sinh meshes cannot help in double precision
_MAX_HALVINGS = 1100  # enough for any finite bracket: 2^1025 wide down to 2^-52

# per-step growth of the window that find_root_bracketed opens about a guess
_WINDOW_GROWTH = 8.0


@dataclass(frozen=True)
class Tolerance:
    """Accuracy request for the iterative routines."""

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


def integrate_endpoint_singular(f: Callable[[np.ndarray, np.ndarray], np.ndarray], lo, hi,
                                beyond_lo=0.0, beyond_hi=0.0,
                                tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Integrate f over each open interval (lo[i], hi[i]), tolerating singular points at its ends.

    Each row i has a singular point at or below its lower limit, at
    s_lo = lo[i] - beyond_lo[i], and one at or above its upper limit, at
    s_hi = hi[i] + beyond_hi[i], where the integrand may blow up
    integrably (like an inverse square root, or up to about the power
    -0.95 of the distance). f never sees an abscissa x: it
    takes two arrays, the distances a = x - s_lo and b = s_hi - x of each
    node from the two singular points, and maps them elementwise to the
    values of the integrand there. Each distance is the row's beyond
    offset plus the node's distance from that end of the interval, which
    tanh-sinh forms without cancellation, so a node next to an end keeps
    its full relative precision however large the end is. lo, hi and the
    offsets broadcast to one 1-D array of rows, with lo < hi and
    nonnegative finite offsets; entry i of the result is the integral over
    (lo[i], hi[i]). The rows are integrated side by side, each call of f
    serving every row still refining, and a row leaves the batch once it
    has converged. Each row keeps its own level count and stopping rule,
    so its result, bit for bit, and the distances f sees for it do not
    depend on the other rows.

    Uses the tanh-sinh (double exponential) transformation: the node at
    t on the trapezoid mesh lies 2*hs*q/(1 + q) from the nearer end and
    2*hs/(1 + q) from the farther one, with q = exp(-pi*sinh|t|) and hs
    the half-span, and the mesh in t is halved until two successive
    levels agree to tolerance. The levels are nested: level 0 takes t = 0
    and every integer t, and each later level adds only the odd multiples
    of its step, so every node is evaluated once. A node is kept while its
    distance from the nearer end is nonzero for its row; its weight then
    is too. The transcendental parts of distances and weights depend on
    the level alone; they are tabulated once per process (see
    _level_nodes) and scaled by the row's width here. Each row keeps a
    running sum of its weighted values, to which a level adds the
    pairwise sum of its own, so the rounding depends on the row alone.

    Each level takes one call of f for every row still refining. After
    each level's test the converged and failed rows leave the batch, and
    so does every row after a failed one, so f is never called again for
    them.

    A row fails with ValueError where f returns a non-finite value, at its
    first such node in (level, node) order, or where its estimate
    overflows though f is finite, and with ConvergenceError (carrying its
    last estimate and error bound) if the mesh refinement is exhausted,
    or at the first level if its terms at the mesh's outermost nodes
    exceed the tolerance: a singularity the mesh cannot resolve, such as
    1/x. The error of the first failing row is raised, as a loop over the rows
    would raise it. Infinite limits, limits whose difference overflows
    and offsets that are negative or not finite raise ValueError before f
    is called.
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
    n = len(hi)
    out = np.empty(n)
    failed: dict[int, Exception] = {}
    # per-row state, one row of the array per field (see _WIDTH below), the
    # rows still refining on its last axis
    state = np.empty((_STATE_ROWS, n))
    state[_WIDTH] = width
    state[_BEYOND_LO], state[_BEYOND_HI] = beyond_lo, beyond_hi
    state[_TOTAL], state[_PREV], state[_ERR] = 0.0, math.nan, math.inf
    state[_LIMIT] = 0.01 * tol.abs_tol
    row = np.arange(n)

    for level in range(_MAX_LEVEL + 1):
        if not len(row):
            break
        fx = _sweep(f, level, row, state, failed)
        total, prev, err, limit = state[_TOTAL], state[_PREV], state[_ERR], state[_LIMIT]
        # finite values may sum past the double range, and a failed row's
        # values are not finite; such a row fails below or already has
        with np.errstate(over="ignore", invalid="ignore"):
            total += _fold(level, fx)
            estimate = (2.0 ** (-level) * state[_WIDTH]) * total
            np.abs(estimate - prev, out=err)  # read from level 2 on
            if level == 0:
                # past the outermost nodes, at t = 6, the terms of an integrable
                # singularity fall off double exponentially: a term there that
                # the tolerance, or the estimate's last bit, can see means one
                # the mesh cannot resolve
                edge = np.maximum(np.abs(fx[:, fx.shape[1] // 2]), np.abs(fx[:, -1]))
                edge *= _level_nodes(0).weight[-1] * state[_WIDTH]
                bound = np.maximum(tol.abs_tol, max(tol.rel_tol, EPS) * np.abs(estimate))
                for k in (edge > bound).nonzero()[0].tolist():
                    failed.setdefault(int(row[k]), ConvergenceError(
                        "tanh-sinh quadrature did not converge: the integrand is too "
                        "singular at an end", float(estimate[k]), float(edge[k])))
        prev[:] = estimate
        for i in row[~np.isfinite(estimate)].tolist():
            failed.setdefault(i, ValueError(f"the quadrature sum overflows on the interval "
                                            f"({float(lo[i])!r}, {float(hi[i])!r})"))
        done = np.zeros(len(row), dtype=bool)  # no row stops before the test at level 2
        if level >= 2:
            ok = err <= np.maximum(tol.abs_tol, tol.rel_tol * np.abs(estimate))
            # a row is done within 1/100 of the tolerance. Within tolerance but
            # not within that, it refines once more (one extra halving buys
            # many digits at 2x cost): its limit becomes infinite, so the next
            # test takes it. At the last level, within tolerance is enough
            done = err <= limit
            if level == _MAX_LEVEL:
                done |= ok
            np.copyto(limit, math.inf, where=ok)
            out[row] = estimate  # a row that stays overwrites its entry at a later level
        row, state = _rows(row, state, ~done, failed)
    for i, last, err in zip(row.tolist(), *state[_PREV:_ERR + 1].tolist()):
        failed[i] = ConvergenceError("tanh-sinh quadrature did not converge", last, err)
    if failed:
        raise failed[min(failed)]
    return out


# The rows of the quadrature's per-row state array: the width hi - lo, the
# offsets past the lo and hi ends, the running sum of weighted values (the
# estimate before the step and width factors), the previous estimate, its
# error and the error limit of the next test
_WIDTH, _BEYOND_LO, _BEYOND_HI, _TOTAL, _PREV, _ERR, _LIMIT = range(7)
_STATE_ROWS = 7


def _rows(row: np.ndarray, state: np.ndarray, keep: np.ndarray,
          failed: dict) -> tuple[np.ndarray, np.ndarray]:
    """The indices and state of the rows in keep.

    Failed rows, and the rows after them, are dropped too: they cannot
    change what is raised.
    """
    if failed:
        keep = keep & (row < min(failed))
    index = keep.nonzero()[0]
    if len(index) == len(row):
        return row, state
    return row.take(index), state.take(index, axis=1)


def _sweep(f, level: int, row: np.ndarray, state: np.ndarray, failed: dict) -> np.ndarray:
    """f at the level's nodes of every row in state, in one call of f; shape (rows, nodes).

    A row's node whose distance from the nearer end rounds to 0 is
    dropped, and its entry is 0; f sees only the kept nodes. Enters rows
    where f is non-finite in failed, with the row's first such node in
    the order of _level_nodes.
    """
    nodes = _level_nodes(level)
    width = state[_WIDTH, :, None]
    a = width * nodes.to_lo
    b = width * nodes.to_hi
    a += state[_BEYOND_LO, :, None]
    b += state[_BEYOND_HI, :, None]
    if nodes.near_min * width.min() > 0.0:  # rounding is monotone: every node is kept
        fx = _evaluate(f, a.reshape(-1), b.reshape(-1)).reshape(a.shape)
    else:
        keep = width * nodes.near > 0.0
        fx = np.zeros(a.shape)
        fx[keep] = _evaluate(f, a[keep], b[keep])
    if not np.isfinite(fx).all():
        bad = ~np.isfinite(fx)
        for r in np.flatnonzero(bad.any(axis=1)).tolist():
            k = int(np.argmax(bad[r]))
            failed[int(row[r])] = ValueError(
                f"integrand returned non-finite value {float(fx[r, k])!r} at distances "
                f"a={float(a[r, k])!r}, b={float(b[r, k])!r} from the singular points")
    return fx


def _fold(level: int, fx: np.ndarray) -> np.ndarray:
    """Each row's sum of its level's weighted values, fx as _sweep returns it.

    Each row's nodes are contiguous, and numpy sums them pairwise, the
    same way for any number of rows, so the sum does not depend on the
    other rows.
    """
    return np.add.reduce(fx * _level_nodes(level).weight, axis=1)


class _Nodes(NamedTuple):
    """One level's tanh-sinh node tables; see _level_nodes."""

    to_lo: np.ndarray
    to_hi: np.ndarray
    near: np.ndarray
    weight: np.ndarray
    near_min: float


@functools.cache
def _level_nodes(level: int) -> _Nodes:
    """Tanh-sinh nodes first used at this level, for a row of unit width.

    Level 0 holds t = 0 and then t = 1, 2, 3, ...; level k > 0 holds
    t = j*2^-k for odd j. Each t > 0 gives a node on the hi side and its
    mirror on the lo side; the hi side's nodes come first, by increasing
    t. With q = exp(-pi*sinh t), a hi-side node lies q/(1 + q) below hi
    and 1/(1 + q) above lo: to_lo and to_hi hold each node's distances
    from the two ends, and near the smaller of them, with near_min the
    smallest. Its trapezoid weight, before the step factor, is
    (pi/2)*hs*cosh(t)*4*q/(1 + q)^2, so weight holds
    pi*cosh(t)*q/(1 + q)^2; the t = 0 node lies 1/2 from both ends with
    weight pi/4. The nodes end where q leaves the normal range, at
    t ~ 6.1: past it q carries fewer than 53 bits, and the terms of an
    inverse-square-root singularity are below 1e-150 of the integral.
    """
    pi_2 = 0.5 * math.pi
    h = 2.0 ** (-level)
    stride = 1 if level == 0 else 2
    near, far, weight = [], [], []
    j = 1
    while True:
        t = j * h
        q = math.exp(-pi_2 * math.sinh(t)) ** 2
        if q < sys.float_info.min:
            break
        near.append(q / (1.0 + q))
        far.append(1.0 / (1.0 + q))
        weight.append(math.pi * (math.cosh(t) * q / ((1.0 + q) * (1.0 + q))))
        j += stride
    center = [0.5] if level == 0 else []
    to_lo = center + far + near
    to_hi = center + near + far
    closer = np.minimum(to_lo, to_hi)
    return _Nodes(np.array(to_lo), np.array(to_hi), closer,
                  np.array(([0.25 * math.pi] if level == 0 else []) + weight * 2),
                  float(closer.min()))


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
    within rel_tol of it (plus a machine-epsilon floor, see _xtol). The
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
    """Half the bracket width at which a root search near x stops."""
    return 0.5 * (tol.rel_tol * abs(x) + 2.0 * EPS * max(1.0, abs(x)))


def _window(g, iv, x0, f0, tol):
    """A window [a, b] about x0, with g(a) and g(b), across which g changes sign.

    The window steps out from x0 on one side by a width that starts at
    the bracket tolerance _xtol(x0) and grows by _WINDOW_GROWTH per step,
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
        inner, f_inner, width = x0, f0, _xtol(x0, tol)
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
