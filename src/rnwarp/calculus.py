"""Numeric primitives: batched quadrature, bracketed root finding, differentiation.

The quadrature integrates a whole array of upper limits in one call; the
root search and the difference quotient work on one float at a time.

Everything here is a pure function of its arguments and deterministic for
fixed inputs, so the routines can serve as independent referees for the
closed-form geometry elsewhere in the package.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import BracketError, ConvergenceError

EPS = sys.float_info.epsilon

# Abscissas are kept at least _WALL ulps of the endpoint value away from a
# singular endpoint; the unreachable zone's trapezoid mass is completed
# analytically instead (see integrate_endpoint_singular). The width trades
# argument-rounding noise (shrinks with a wider wall) against fidelity for
# endpoint orders strictly between bounded and inverse square root.
_WALL = 16384.0

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


def integrate_endpoint_singular(f: Callable[[np.ndarray], np.ndarray], lo: float, hi,
                                singular_hi, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Integrate f over each open interval (lo, hi[i]), tolerating inverse-square-root endpoints.

    f is elementwise: it maps a 1-D array of abscissas to the array of its
    values there, each value a function of its own abscissa alone. hi is a
    1-D array of upper limits, each above lo; entry i of the result is the
    integral over (lo, hi[i]). singular_hi says, per row (or for all rows
    at once), whether f may be singular at hi[i]; the lower end lo is
    always taken as possibly singular. The rows are integrated side by
    side, each call of f serving every row still refining, and a row
    leaves the batch once it has converged. Each row keeps its own walls,
    completions, level count and stopping rule, so its result, bit for
    bit, and the abscissas f sees for it do not depend on the other rows.

    Uses the tanh-sinh (double exponential) transformation: abscissas
    x = mid + halfspan*tanh(pi/2 sinh t) on a trapezoid mesh in t that is
    halved until two successive levels agree to tolerance. The levels are
    nested: level 0 takes every integer t, and each later level adds only
    the odd multiples of its step, so every abscissa is evaluated once.
    Each row keeps a running total of its trapezoid terms w*f: a level
    sums its new terms sequentially, the hi side's by increasing t and
    then the lo side's, and adds that sum to the total, so the rounding
    depends on the row alone. The wall completions and their frozen
    coefficients (below) are carried from level to level too. The
    transcendental parts of node distances and weights depend on the
    level alone; they are tabulated once per process (see _level_nodes)
    and scaled by the half-span here. Endpoint distances are carried in a
    cancellation-free form, so f is never called at lo or hi.

    No row can stop before level 2, so the first call of f serves the
    t = 0 node and every node of levels 0-2, and each later level takes
    one call. The levels are folded into the rows one by one, in level
    order, so every row gets the bits of a sweep level by level.

    Double precision cannot place an abscissa closer to an endpoint than
    one ulp of it, and next to a singular endpoint abscissas within a few
    thousand ulps carry large argument-rounding noise. So a singular
    endpoint gets a wall: the trapezoid mass of the zone inside it is
    added back in closed form assuming the worst endpoint behavior
    admitted by the contract, f ~ c*(distance)^(-1/2), with c frozen from
    the innermost node evaluated at any level. The completion is exact for
    inverse-square-root endpoints; integrands of strictly intermediate
    order can be limited to roughly seven digits there. A regular upper
    end gets no wall and no completion: its nodes are evaluated until an
    abscissa rounds onto it, and the terms past that are below rounding.
    An endpoint equal to 0 has no ulp scale and is always walled, with a
    wall scaled by the half-span instead.

    A row fails with ValueError where f returns a non-finite value, at its
    first such node in (level, side, node) order, or where its estimate
    overflows though f is finite (the running sum grows as 2^level times
    the integral, so limits spanning nearly the double range can overflow
    it), and with ConvergenceError (carrying its last estimate and error
    bound) if the mesh refinement is exhausted. The error of the first
    failing row is raised, as a loop over the rows would raise it. An
    infinite limit, or limits whose difference overflows, raise ValueError
    before f is called.
    """
    hi = np.asarray(hi, dtype=float)
    if hi.ndim != 1 or not (lo < hi).all():
        raise ValueError(f"intervals require lo < hi, got lo={lo!r}, hi={hi!r}")
    # lo < hi holds for an infinite limit too
    if lo == -math.inf:
        raise ValueError(f"the lower limit must be finite, got lo={float(lo)!r}")
    for i in (hi == math.inf).nonzero()[0][:1].tolist():
        raise ValueError(f"the upper limits must be finite, got hi[{i}]={float(hi[i])!r}")
    singular_hi = np.asarray(singular_hi)
    if singular_hi.dtype != bool:
        raise ValueError(f"singular_hi must be booleans, got {singular_hi!r}")
    with np.errstate(over="ignore"):
        hs = 0.5 * (hi - lo)
    for i in (hs == math.inf).nonzero()[0][:1].tolist():
        raise ValueError(f"the interval width overflows: hi[{i}] - lo = "
                         f"{float(hi[i])!r} - {float(lo)!r} leaves the double range")
    n = len(hi)
    out = np.empty(n)
    failed: dict[int, Exception] = {}
    # out= holds the flags to hi's shape, as broadcasting singular_hi to it would
    walled_hi = np.logical_or(singular_hi, hi == 0.0, out=np.empty(hi.shape, dtype=bool))
    # the walls must leave room inside microscopic intervals; an endpoint
    # at 0 has no ulp scale of its own, so its wall is scaled by the half-span
    dmin_hi = np.minimum(_WALL * EPS * np.where(hi != 0.0, np.abs(hi), hs), 0.05 * hs)
    dmin_lo = np.minimum(_WALL * EPS * (abs(lo) if lo != 0.0 else hs), 0.05 * hs)
    # per-row state, one row of the array per field (see _HS2 below), the
    # rows still refining on its last axis. A side keeps a node while the
    # node's distance d from the end exceeds both the wall (0 at a regular
    # end) and the largest d that rounds onto the end, so that the node's
    # abscissa differs from the end. A level drops every node with unit
    # distance unit_d <= cut (see _level_nodes): inside the walls, or
    # within EPS/8 of a regular end, with a factor 2 to spare. The running
    # total starts at the t = 0 node's term, once f is known there
    state = np.empty((_STATE_ROWS, n))
    state[_HS2], state[_WHS], state[_ROOT_HS] = 2.0 * hs, 0.5 * math.pi * hs, np.sqrt(hs)
    state[_CUT] = 0.25 * np.minimum(np.where(walled_hi, dmin_hi, 0.125 * EPS * np.abs(hi)),
                                    dmin_lo) / hs
    state[_TOTAL], state[_PREV], state[_ERR] = 0.0, math.nan, math.inf
    state[_LIMIT] = 0.01 * tol.abs_tol
    state[_END], state[_END + 1] = hi, lo
    walls = np.where(walled_hi, dmin_hi, 0.0), dmin_lo
    state[_BEYOND:_BEYOND + 2] = np.maximum(walls, _rounds_onto(state[_END:_END + 2], _INWARD))
    state[_COMP:_COMP + 2], state[_D_IN:_D_IN + 2], state[_G:_G + 2] = 0.0, math.inf, 0.0
    state[_WALLED], state[_WALLED + 1] = walled_hi, 1.0
    row = np.arange(n)

    swept: list = []  # each level evaluated ahead, as _sweep returns it
    for level in range(_MAX_LEVEL + 1):
        if not swept and len(row):
            # one call of f serves the t = 0 node and levels 0-2, then one each level
            first = level == 0
            center, swept = _sweep(f, _FIRST_LEVELS if first else (level,), row, state, failed,
                                   lo + hs if first else None)
            if first:
                state[_TOTAL] = state[_WHS] * center  # the t = 0 node's term
            if failed:
                row, state, swept = _rows(row, state, swept, np.ones(len(row), dtype=bool), failed)
        if not len(row):
            break
        total, prev, err, limit = state[_TOTAL], state[_PREV], state[_ERR], state[_LIMIT]
        # finite terms may sum past the double range; such a row fails below
        with np.errstate(over="ignore", invalid="ignore"):
            total += _fold(level, *swept.pop(0), state)
            if level == 0:
                continue  # level 1 overwrites this estimate before any test reads it
            completion = state[_ROOT_HS] * state[_COMP:_COMP + 2] * state[_G:_G + 2]
            estimate = 2.0 ** (-level) * (total + completion[0] + completion[1])
            if level == 1:
                prev[:] = estimate
                continue
            np.abs(estimate - prev, out=err)
        finite = np.isfinite(estimate)
        if not finite.all():
            for i in row[~finite].tolist():
                failed[i] = ValueError(f"the quadrature sum overflows on the interval "
                                       f"({float(lo)!r}, {float(hi[i])!r})")
        ok = err <= np.maximum(tol.abs_tol, tol.rel_tol * np.abs(estimate))
        # a row is done within 1/100 of the tolerance. Within tolerance but
        # not within that, it refines once more (one extra halving buys ~2
        # digits at 2x cost): its limit becomes infinite, so the next test
        # takes it. At the last level, within tolerance is enough
        done = err <= limit
        if level == _MAX_LEVEL:
            done |= ok
        np.copyto(limit, math.inf, where=ok)
        prev[:] = estimate
        out[row] = estimate  # a row that stays overwrites its entry at a later level
        row, state, swept = _rows(row, state, swept, ~done, failed)
    for i, last, err in zip(row.tolist(), *state[_PREV:_ERR + 1].tolist()):
        failed[i] = ConvergenceError("tanh-sinh quadrature did not converge", last, err)
    if failed:
        raise failed[min(failed)]
    return out


_FIRST_LEVELS = (0, 1, 2)  # swept in one call: no row can stop before the test at level 2

# The rows of the quadrature's per-row state array: the row scalars 2*hs,
# (pi/2)*hs, sqrt(hs), cut, running total, previous estimate, error and the
# error limit of the next test; then, as (hi, lo) pairs of rows, each
# side's end, the distance a node must exceed to be kept, the summed unit
# completion weight of the walled tails, the innermost evaluated node's
# distance and frozen coefficient f*sqrt(d), and 1.0 where the side is
# walled (0.0 where not)
_HS2, _WHS, _ROOT_HS, _CUT, _TOTAL, _PREV, _ERR, _LIMIT = range(8)
_END, _BEYOND, _COMP, _D_IN, _G, _WALLED = range(8, 20, 2)
_STATE_ROWS = _WALLED + 2


_INWARD = np.array([[-math.inf], [math.inf]])  # from the (hi, lo) ends toward the interval


def _rounds_onto(end: np.ndarray, toward: np.ndarray) -> np.ndarray:
    """The largest distances d >= 0 for which end +- d, a step toward `toward`, rounds onto end.

    Half the gap to end's neighbor that way, where that tie rounds (to
    even) onto end; elsewhere the double just below the half-gap.
    """
    half = 0.5 * np.abs(np.nextafter(end, toward) - end)
    return np.where(end + np.copysign(half, toward) == end, half, np.nextafter(half, 0.0))


def _rows(row: np.ndarray, state: np.ndarray, swept: list, keep: np.ndarray,
          failed: dict) -> tuple[np.ndarray, np.ndarray, list]:
    """The indices, state and swept levels of the rows in keep.

    Rows after a failed one are dropped too: they cannot change what is raised.
    """
    if failed:
        keep = keep & (row < min(failed))
    index = keep.nonzero()[0]
    if len(index) == len(row):
        return row, state, swept
    return (row.take(index), state.take(index, axis=1),
            [tuple(a.take(index, axis=-1) for a in level) for level in swept])


def _sweep(f, levels, row: np.ndarray, state: np.ndarray, failed: dict,
           center=None) -> tuple[np.ndarray, list]:
    """The new nodes of the given levels on both sides of every row in state, in one call of f.

    On each side a level's nodes run from the midpoint toward the
    endpoint; the first whose distance from the end does not exceed the
    side's bound (the wall, or the largest distance that rounds onto the
    end) is dropped with every later one, since distances shrink
    monotonically along the level. Every kept node of the levels, on every
    row and both sides, is evaluated in one call of f, at hi - d or lo + d,
    after center, one abscissa per row (the t = 0 node), where it is
    given. The arrays run (side, node, row), the levels one after another
    along the node axis, so every elementwise operation runs along the
    long row axis.

    Returns f at center (empty where center is not given) and, per level,
    the number of kept nodes on each side of each row, f at the innermost
    of them (any value where there is none), both of shape (2, rows), and
    f at the level's nodes, 0 past the kept ones, of shape (2, nodes,
    rows). Enters rows where f is non-finite in failed, with the first such
    node of the row in (level, side, node) order, center first: the node
    at which a sweep level by level would fail the row.
    """
    hs2, end, beyond = state[_HS2], state[_END:_END + 2], state[_BEYOND:_BEYOND + 2]
    n = len(row)
    # from the first node past every row's cut, every node of a level is
    # dropped; unit_d does not increase along a level, so a search finds it
    cut = -float(state[_CUT].min())
    unit_d = [nodes.unit_d[:bisect.bisect_left(nodes.search, cut) + 1]
              for nodes in map(_level_nodes, levels)]
    stops = list(itertools.accumulate(map(len, unit_d), initial=0))
    dx = (unit_d[0] if len(unit_d) == 1 else np.concatenate(unit_d))[:, None] * hs2
    x = np.empty((2,) + dx.shape)  # the same distances on both sides, from each end inward
    np.subtract(end[0], dx, out=x[0])
    np.add(end[1], dx, out=x[1])
    # a node once dropped stays dropped, so todo holds each side's first kept nodes
    todo = dx > beyond[:, None]
    fx = np.zeros(x.shape)
    lead = 0 if center is None else n
    values = _evaluate(f, x[todo] if center is None else np.concatenate([center, x[todo]]))
    fx[todo] = values[lead:]
    swept = []
    # f at each side's innermost kept node, by flat index into fx: node
    # a + kept - 1 of the level starting at node a, or the node before the
    # level where the side keeps none (unused, see _fold)
    base = np.arange(n) + [[-n], [(len(dx) - 1) * n]]
    for a, b in zip(stops, stops[1:]):
        kept = np.add.reduce(todo[:, a:b], axis=1, dtype=np.intp)
        swept.append((kept, fx.take((kept + a) * n + base), fx[:, a:b]))
    if not np.isfinite(values).all():
        # each row's nodes in (level, side, node) order, center first
        order = [(x[:, a:b].reshape(-1, n), fx[:, a:b].reshape(-1, n))
                 for a, b in zip(stops, stops[1:])]
        if center is not None:
            order.insert(0, (center[None], values[None, :n]))
        xs, fxs = (np.concatenate(c) for c in zip(*order))
        bad = ~np.isfinite(fxs)
        for r in np.flatnonzero(bad.any(axis=0)).tolist():
            k = int(np.argmax(bad[:, r]))
            failed[int(row[r])] = _non_finite(fxs[k, r], xs[k, r])
    return values[:lead], swept


def _fold(level: int, kept: np.ndarray, f_in: np.ndarray, fx: np.ndarray,
          state: np.ndarray) -> np.ndarray:
    """One swept level's kept nodes folded into the rows of state.

    kept, f_in and fx are the level's kept-node counts, f at the innermost
    kept nodes and f at its nodes, from _sweep. Adds the unit weight of
    each dropped tail at a walled end to the row's completion weight and
    moves the innermost node where this level reached closer to the
    endpoint. Returns each row's sum of the trapezoid terms w*f of its
    kept nodes, added sequentially: the hi side by increasing t, then the
    lo side, so that the sum does not depend on the other rows.
    """
    nodes = _level_nodes(level)
    comp, d_in, g = state[_COMP:_COMP + 2], state[_D_IN:_D_IN + 2], state[_G:_G + 2]
    span, n = fx.shape[1:]
    comp += nodes.tail.take(kept) * state[_WALLED:_WALLED + 2]  # 0 at a regular end
    # the innermost kept node, where this level reached closer to the
    # endpoint; inner[0] is inf, so a side that kept none never did
    d = state[_HS2] * nodes.inner.take(kept)
    closer = d < d_in
    np.copyto(d_in, d, where=closer)
    np.multiply(f_in, np.sqrt(d), out=g, where=closer)
    terms = (state[_WHS] * nodes.unit_w[:span, None] * fx).reshape(2 * span, n)  # 0 past kept
    if n == 1:
        # one column makes the node axis contiguous, and numpy then sums it
        # pairwise, which rounds differently; cumsum adds node by node
        return np.cumsum(terms, axis=0)[-1]
    # across columns the reduction adds node by node; it starts from -0.0,
    # the exact additive identity, so that the first term is kept as it is
    return np.add.reduce(terms, axis=0, initial=-0.0)


class _Nodes(NamedTuple):
    """One level's tanh-sinh node tables; see _level_nodes."""

    unit_d: np.ndarray
    unit_w: np.ndarray
    tail: np.ndarray
    inner: np.ndarray
    search: list[float]


@functools.cache
def _level_nodes(level: int) -> _Nodes:
    """Tanh-sinh nodes first used at this level, by increasing t.

    Level 0 holds t = 1, 2, 3, ...; level k > 0 holds t = j*2^-k for odd j.
    With q = exp(-pi*sinh t), a node of a half-span hs lies 2*hs*unit_d
    from its near endpoint, unit_d = q/(1 + q), and carries trapezoid
    weight (pi/2)*hs*unit_w (before the step factor), unit_w =
    cosh(t)*4*q/(1 + q)^2 formed left to right, which fixes its rounding.
    The other tables are indexed by a count k of leading nodes:
    sqrt(hs)*tail[k] is the summed wall-completion weight w/sqrt(d) of
    the nodes from k on, so a level's walled tail costs one lookup
    (tail[len] = 0 for no walled node), and inner[k] is the unit_d of
    node k - 1, the innermost of the k, with inner[0] = inf. search lists
    -unit_d, increasing, for bisect. The nodes end where q underflows and
    every later node has zero distance and weight.
    """
    pi_2 = 0.5 * math.pi
    h = 2.0 ** (-level)
    stride = 1 if level == 0 else 2
    rows = []
    j = 1
    while True:
        t = j * h
        ch = math.cosh(t)
        es = math.exp(-pi_2 * math.sinh(t))
        q = es * es
        if q == 0.0:
            break
        # w/sqrt(d) is written to survive underflow of q
        rows.append((q / (1.0 + q), ch * 4.0 * q / ((1.0 + q) * (1.0 + q)),
                     pi_2 * ch * 2.0 * math.sqrt(2.0) * es / (1.0 + q) ** 1.5))
        j += stride
    tails = [0.0]
    for row in reversed(rows):  # smallest weights first
        tails.append(tails[-1] + row[-1])
    unit_d, unit_w = (np.array(c) for c in list(zip(*rows))[:2])
    return _Nodes(unit_d, unit_w, np.array(tails[::-1]), np.concatenate([[math.inf], unit_d]),
                  [-d for d in unit_d.tolist()])


def _evaluate(f, x: np.ndarray) -> np.ndarray:
    fx = np.asarray(f(x), dtype=float)
    if fx.shape != x.shape:
        raise ValueError(f"integrand returned shape {fx.shape} for abscissas of shape {x.shape}")
    return fx


def _non_finite(fx, x) -> ValueError:
    return ValueError(f"integrand returned non-finite value {float(fx)!r} at x={float(x)!r}")


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
