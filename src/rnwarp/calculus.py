"""Scalar numeric primitives: quadrature, bracketed root finding, differentiation.

Everything here is a pure function of its arguments and deterministic for
fixed inputs, so the routines can serve as independent referees for the
closed-form geometry elsewhere in the package.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

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
                                tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Integrate f over each open interval (lo, hi[i]), tolerating inverse-square-root endpoints.

    f is elementwise: it maps a 1-D array of abscissas to the array of its
    values there, each value a function of its own abscissa alone. hi is a
    1-D array of upper limits, each above lo; entry i of the result is the
    integral over (lo, hi[i]). The rows are integrated side by side, each
    call of f serving every row still refining, and a row leaves the batch
    once it has converged. Each row keeps its own walls, completions,
    level count and stopping rule, so its result, bit for bit, and the
    abscissas f sees for it do not depend on the other rows.

    Uses the tanh-sinh (double exponential) transformation: abscissas
    x = mid + halfspan*tanh(pi/2 sinh t) on a trapezoid mesh in t that is
    halved until two successive levels agree to tolerance. The levels are
    nested: level 0 takes every integer t, and each later level adds only
    the odd multiples of its step, so every abscissa is evaluated once.
    The wall completions and their frozen coefficients (below) are carried
    from level to level. The trapezoid terms w*f are kept per node and
    re-added in mesh order at each level (np.cumsum, which adds
    sequentially), so the sum rounds exactly as one sweep over the whole
    mesh would. The transcendental parts of node distances and weights
    depend on the level alone; they are tabulated once per process (see
    _level_nodes) and scaled by the half-span here. Endpoint distances are
    carried in a cancellation-free form, so f is never called at lo or hi.

    Double precision cannot place an abscissa closer to an endpoint than
    one ulp of it, and abscissas within a few thousand ulps carry large
    argument-rounding noise. The trapezoid mass of that near-endpoint
    zone is added back in closed form assuming the worst endpoint
    behavior admitted by the contract, f ~ c*(distance)^(-1/2), with c
    frozen from the innermost node evaluated at any level. The completion
    is exact for inverse-square-root endpoints and harmless for bounded
    ones; integrands of strictly intermediate order can be limited to
    roughly seven digits at the affected endpoint. An endpoint equal to 0
    has no ulp scale: its wall is scaled by the half-span, and nodes inside
    it are evaluated until the first whose term is negligible next to the
    t = 0 term (see _sweep).

    A row fails with ValueError where f returns a non-finite value, and
    with ConvergenceError (carrying its last estimate and error bound) if
    the mesh refinement is exhausted. The error of the first failing row
    is raised, as a loop over the rows would raise it.
    """
    hi = np.asarray(hi, dtype=float)
    if hi.ndim != 1 or not np.all(lo < hi):
        raise ValueError(f"intervals require lo < hi, got lo={lo!r}, hi={hi!r}")
    n = len(hi)
    out = np.empty(n)
    failed: dict[int, Exception] = {}
    hs = 0.5 * (hi - lo)
    mid = lo + hs
    fx = _evaluate(f, mid)
    for i in np.flatnonzero(~np.isfinite(fx)).tolist():
        failed[i] = _non_finite(fx[i], mid[i])
    center = 0.5 * math.pi * hs * fx  # t = 0 node
    # the walls must leave room inside microscopic intervals; an endpoint
    # at 0 has no ulp scale of its own, so its wall is scaled by the half-span
    dmin_hi = np.minimum(_WALL * EPS * np.where(hi != 0.0, np.abs(hi), hs), 0.05 * hs)
    dmin_lo = np.minimum(_WALL * EPS * (abs(lo) if lo != 0.0 else hs), 0.05 * hs)
    # per-row state, each array indexed by the rows still refining; the
    # per-side arrays have a column per endpoint, (hi, lo)
    s = {
        "row": np.arange(n),
        "hs": hs,
        "root_hs": np.sqrt(hs),
        "negligible": EPS * np.abs(center),
        "end": np.column_stack([hi, np.full(n, float(lo))]),
        "dmin": np.column_stack([dmin_hi, dmin_lo]),
        "comp": np.zeros((n, 2)),  # summed unit completion weight of the walled tails
        # innermost evaluated node: its distance and frozen coefficient
        # f*sqrt(d) for the wall completion
        "d": np.full((n, 2), math.inf),
        "g": np.zeros((n, 2)),
        # the t = 0 term, then the w*f terms of the current mesh by
        # increasing t, a (hi, lo) pair per node, zero where walled;
        # re-added in this order at each level so the sum rounds exactly
        # as a single sweep over the mesh would
        "terms": center[:, None],
        "prev": np.full(n, math.nan),
        "err": np.full(n, math.inf),
        "refine_once": np.zeros(n, dtype=bool),
    }
    s = _rows(s, np.ones(n, dtype=bool), failed)

    for level in range(_MAX_LEVEL + 1):
        if not len(s["row"]):
            break
        h = 2.0 ** (-level)
        new = _sweep(f, _level_nodes(level), s, failed)
        s["terms"] = _merge(s["terms"], new, level)
        total = np.cumsum(s["terms"], axis=1)[:, -1]

        comp, g = s["comp"], s["g"]
        estimate = h * (total + s["root_hs"] * comp[:, 0] * g[:, 0]
                        + s["root_hs"] * comp[:, 1] * g[:, 1])
        done = s["refine_once"].copy()
        if level >= 2:
            s["err"] = np.abs(estimate - s["prev"])
            ok = ~done & (s["err"] <= np.maximum(tol.abs_tol, tol.rel_tol * np.abs(estimate)))
            final = ok & ((s["err"] <= 0.01 * tol.abs_tol) | (level == _MAX_LEVEL))
            done |= final
            s["refine_once"] |= ok & ~final  # one extra halving buys ~2 digits at 2x cost
        s["prev"] = estimate
        out[s["row"][done]] = estimate[done]
        s = _rows(s, ~done, failed)
    for k, i in enumerate(s["row"].tolist()):
        failed[i] = ConvergenceError("tanh-sinh quadrature did not converge",
                                     float(s["prev"][k]), float(s["err"][k]))
    if failed:
        raise failed[min(failed)]
    return out


def _rows(s: dict, keep: np.ndarray, failed: dict) -> dict:
    """The state of the rows in keep; rows after a failed one cannot change what is raised."""
    if failed:
        keep = keep & (s["row"] < min(failed))
    return s if keep.all() else {k: v[keep] for k, v in s.items()}


def _merge(terms: np.ndarray, new: np.ndarray, level: int) -> np.ndarray:
    """The mesh terms (see integrate_endpoint_singular) with a level's new nodes merged in by t.

    new holds the (hi, lo) terms of the level's nodes, shape (rows, k, 2).
    Past level 0 they sit at the odd multiples of the step and the old
    nodes at the even ones, so new node i goes before old node i; the
    shorter of the two is padded with zeros.
    """
    n, k_new = new.shape[:2]
    if level == 0:
        return np.concatenate([terms, new.reshape(n, -1)], axis=1)
    k_old = (terms.shape[1] - 1) // 2
    k = max(k_new, k_old)
    merged = np.zeros((n, 1 + 4 * k))
    merged[:, 0] = terms[:, 0]
    nodes = merged[:, 1:].reshape(n, k, 2, 2)
    nodes[:, :k_new, 0] = new
    nodes[:, :k_old, 1] = terms[:, 1:].reshape(n, k_old, 2)
    return merged


_SIGN = np.array([-1.0, 1.0])  # hi side, lo side: the direction from each endpoint inward


def _sweep(f, nodes, s: dict, failed: dict) -> np.ndarray:
    """One level's new nodes on both sides of every row in s.

    On each side f is evaluated at end + sign*d, from the midpoint toward
    the endpoint, until a node falls inside the wall dmin (or rounds onto
    the endpoint); that node and every later one are walled, since
    distances shrink monotonically along the level. At an endpoint equal
    to 0 a node inside the wall is still evaluated, and walled only once
    its term w*f is at most `negligible`: where the terms keep mattering,
    as for a nonintegrable singularity, the sweep runs on toward the
    endpoint, one node per call of f. Every other node of the level, on
    every row and both sides, is evaluated in one call of f.

    Adds the unit weight of each walled tail to the row's completion
    weight, moves the innermost node where this level reached closer to
    the endpoint, and enters rows where f is non-finite in failed.
    Returns the trapezoid terms w*f of the kept nodes as (hi, lo) pairs
    by increasing t, shape (rows, k, 2), zero where walled.
    """
    q, opq, ch, opq2, uk_tail = nodes
    hs2 = 2.0 * s["hs"]
    hs_pi_2 = 0.5 * math.pi * s["hs"]
    kept, fx = _walk(f, nodes, s, failed, hs2, hs_pi_2)
    width = int(kept.max(initial=0))
    w = hs_pi_2[:, None] * ch[:width] * 4.0 * q[:width] / opq2[:width]
    terms = np.where(np.arange(width) < kept[:, :, None], w[:, None, :] * fx[:, :, :width], 0.0)
    s["comp"] += uk_tail[kept]
    # the innermost kept node, where this level reached closer to the endpoint
    r, k = np.nonzero(kept > 0)
    j = kept[r, k] - 1
    d = hs2[r] * q[j] / opq[j]
    closer = d < s["d"][r, k]
    r, k, j, d = r[closer], k[closer], j[closer], d[closer]
    s["d"][r, k] = d
    s["g"][r, k] = fx[r, k, j] * np.sqrt(d)
    return terms.transpose(0, 2, 1)


def _walk(f, nodes, s: dict, failed: dict, hs2: np.ndarray, hs_pi_2: np.ndarray):
    """Evaluate one level's nodes toward each endpoint until they are walled (see _sweep).

    Returns the number of kept nodes per row and side, shape (rows, 2),
    and f at them, shape (rows, 2, k), zero past them and on failed rows.
    """
    q, opq, ch, opq2, _ = nodes
    n, size = len(hs2), len(q)
    end, dmin = s["end"], s["dmin"]
    # from the first node inside every row's walls with a factor 2 to
    # spare, every node is walled but for probes at an endpoint 0
    past = q / opq <= np.min(0.5 * dmin.min(axis=1) / hs2)
    span = int(np.argmax(past)) + 1 if past.any() else size
    dx = hs2[:, None] * q[:span] / opq[:span]  # the same on both sides
    x = end[:, :, None] + _SIGN[:, None] * dx[:, None, :]
    on_end = x == end[:, :, None]
    kept = _first(on_end | ~(dx[:, None, :] > dmin[:, :, None]))  # per row and side
    # at an endpoint 0 the first node inside the wall is probed: evaluated,
    # and kept, with the next one probed, unless its term is negligible
    probe = (end == 0.0) & (kept < span)
    probe[probe] = ~on_end[probe, kept[probe]]
    todo = np.arange(span) < (kept + probe)[:, :, None]
    fx = np.zeros((n, 2, span))
    alive = np.ones(n, dtype=bool)
    xs = x[todo]
    fx[todo] = values = _evaluate(f, xs)
    if not np.isfinite(values).all():
        _reject(s, failed, alive, values, xs, np.nonzero(todo)[0])
    r, k = np.nonzero(probe & alive[:, None])
    j = kept[r, k]
    while len(r):
        term = hs_pi_2[r] * ch[j] * 4.0 * q[j] / opq2[j] * fx[r, k, j]
        walled = ~(hs2[r] * q[j] / opq[j] > dmin[r, k]) & (np.abs(term) <= s["negligible"][r])
        fx[r[walled], k[walled], j[walled]] = 0.0
        kept[r, k] += ~walled
        # the next node, unless past the last of the level or on the endpoint
        r, k, j = r[~walled], k[~walled], j[~walled] + 1
        r, k, j = r[j < size], k[j < size], j[j < size]
        xs = end[r, k] + _SIGN[k] * (hs2[r] * q[j] / opq[j])
        off = xs != end[r, k]
        r, k, j, xs = r[off], k[off], j[off], xs[off]
        if not len(r):
            break
        if j.max() >= fx.shape[2]:
            fx = np.concatenate([fx, np.zeros((n, 2, size - fx.shape[2]))], axis=2)
        fx[r, k, j] = values = _evaluate(f, xs)
        if not np.isfinite(values).all():
            _reject(s, failed, alive, values, xs, r)
            r, k, j = r[alive[r]], k[alive[r]], j[alive[r]]
    fx[~alive] = 0.0
    return kept, fx


def _reject(s: dict, failed: dict, alive: np.ndarray, values: np.ndarray, x: np.ndarray,
            rows: np.ndarray) -> None:
    """Enter each row with a non-finite value, the first it met, in failed.

    values[i] is f at x[i] for row rows[i], in the order a per-row sweep
    meets the nodes.
    """
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        if alive[rows[i]]:
            failed[int(s["row"][rows[i]])] = _non_finite(values[i], x[i])
            alive[rows[i]] = False


def _first(mask: np.ndarray) -> np.ndarray:
    """Index of the first True along the last axis of mask, or its length if none."""
    return np.where(mask.any(axis=-1), mask.argmax(axis=-1), mask.shape[-1])


@functools.cache
def _level_nodes(level: int) -> tuple[np.ndarray, ...]:
    """Tanh-sinh nodes first used at this level, by increasing t.

    Level 0 holds t = 1, 2, 3, ...; level k > 0 holds t = j*2^-k for odd j.
    Returns arrays (q, 1 + q, cosh t, (1 + q)^2, uk_tail) over the nodes
    with q = exp(-pi*sinh t): a node of a half-span hs lies 2*hs*q/(1 + q)
    from its near endpoint and carries trapezoid weight
    (pi/2)*hs*cosh(t)*4*q/(1 + q)^2 (before the step factor), both formed
    left to right as written, which fixes their rounding.
    sqrt(hs)*uk_tail[i] is the summed wall-completion weight w/sqrt(d) of
    node i and every later one of the level, so a level's walled tail
    costs one lookup; uk_tail has one more entry, 0, for no walled node.
    The nodes end where q underflows and every later node has zero
    distance and weight.
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
        rows.append((q, 1.0 + q, ch, (1.0 + q) * (1.0 + q),
                     pi_2 * ch * 2.0 * math.sqrt(2.0) * es / (1.0 + q) ** 1.5))
        j += stride
    tails = [0.0]
    for row in reversed(rows):  # smallest weights first
        tails.append(tails[-1] + row[-1])
    columns = [np.array(c) for c in zip(*rows)]
    return (*columns[:4], np.array(tails[::-1]))


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
