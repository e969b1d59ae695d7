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


def integrate_endpoint_singular(f: Callable[[float], float], iv: Interval,
                                tol: Tolerance = DEFAULT_TOL) -> float:
    """Integrate f over the open interval, tolerating inverse-square-root endpoints.

    Uses the tanh-sinh (double exponential) transformation: abscissas
    x = mid + halfspan*tanh(pi/2 sinh t) on a trapezoid mesh in t that is
    halved until two successive levels agree to tolerance. The levels are
    nested: level 0 takes every integer t, and each later level adds only
    the odd multiples of its step, so every abscissa is evaluated once.
    The wall completions and their frozen coefficients (below) are carried
    from level to level. The trapezoid terms w*f are kept per node and
    re-added in mesh order at each level, so the sum rounds exactly as one
    sweep over the whole mesh would. The transcendental parts of node
    distances and weights depend on the level alone; they are tabulated
    once per process (see _level_nodes) and scaled by the half-span here.
    Endpoint distances are carried in a cancellation-free form, so f is
    never called at lo or hi.

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

    Raises ConvergenceError (carrying the last estimate and its error
    bound) if the mesh refinement is exhausted.
    """
    lo, hi = iv.lo, iv.hi
    hs = 0.5 * (hi - lo)
    # the wall must leave room inside microscopic intervals; an endpoint at
    # 0 has no ulp scale of its own, so its wall is scaled by the half-span
    dmin_lo = min(_WALL * EPS * (abs(lo) if lo != 0.0 else hs), 0.05 * hs)
    dmin_hi = min(_WALL * EPS * (abs(hi) if hi != 0.0 else hs), 0.05 * hs)
    root_hs = math.sqrt(hs)

    center = 0.5 * math.pi * hs * _checked(f, lo + hs)  # t = 0 node
    negligible = EPS * abs(center)
    # w*f terms of the current mesh by increasing t, hi side then lo side
    # per node, zero where walled; re-added in this order at each level so
    # the sum rounds exactly as a single sweep over the mesh would
    mesh: list[float] = []
    comp_lo = 0.0
    comp_hi = 0.0
    # innermost evaluated node per side: its distance and frozen f*sqrt(d)
    # coefficient for the wall completion
    d_lo = d_hi = math.inf
    g_lo = g_hi = 0.0

    prev = math.nan
    err = math.inf
    refine_once = False
    for level in range(_MAX_LEVEL + 1):
        h = 2.0 ** (-level)
        nodes = _level_nodes(level)
        t_hi, tail, d_hi, g_hi = _sweep(f, nodes, hi, -1.0, hs, dmin_hi, negligible, d_hi, g_hi)
        comp_hi += tail
        t_lo, tail, d_lo, g_lo = _sweep(f, nodes, lo, 1.0, hs, dmin_lo, negligible, d_lo, g_lo)
        comp_lo += tail
        new = [0.0] * (2 * max(len(t_hi), len(t_lo)))
        new[0:2 * len(t_hi):2] = t_hi
        new[1:2 * len(t_lo):2] = t_lo
        if level == 0:
            mesh = new
        else:  # the new nodes sit at odd multiples of h, the old ones at even
            merged = [0.0] * (len(new) + len(mesh))
            merged[0::4] = new[0::2]
            merged[1::4] = new[1::2]
            merged[2::4] = mesh[0::2]
            merged[3::4] = mesh[1::2]
            mesh = merged
        total = center
        for term in mesh:
            total += term

        estimate = h * (total + root_hs * comp_hi * g_hi + root_hs * comp_lo * g_lo)
        if refine_once:
            return estimate
        if level >= 2:
            err = abs(estimate - prev)
            if err <= max(tol.abs_tol, tol.rel_tol * abs(estimate)):
                if err <= 0.01 * tol.abs_tol or level == _MAX_LEVEL:
                    return estimate
                refine_once = True  # one extra halving buys ~2 digits at 2x cost
        prev = estimate
    raise ConvergenceError("tanh-sinh quadrature did not converge", prev, err)


def _sweep(f, nodes, end, sign, hs, dmin, negligible, d_in, g_in):
    """One level's new nodes on the side of one endpoint.

    Evaluates f at end + sign*d, from the midpoint toward the endpoint,
    until a node falls inside the wall dmin (or rounds onto the endpoint);
    that node and every later one are walled, since distances shrink
    monotonically along the level. At an endpoint equal to 0 a node
    inside the wall is still evaluated, and walled only once its term
    w*f is at most `negligible`: where the terms keep mattering, as for a
    nonintegrable singularity, the sweep runs on toward the endpoint.
    Returns the trapezoid terms w*f of the kept nodes, the unit
    completion weight of the walled tail, and the innermost kept node's
    distance and frozen coefficient, updated from (d_in, g_in) if this
    level reached closer to the endpoint.
    """
    hs2 = 2.0 * hs
    hs_pi_2 = 0.5 * math.pi * hs
    terms = []
    tail = 0.0
    d = math.inf
    f_in = 0.0
    for q, opq, ch, opq2, uk_tail in nodes:
        dx = hs2 * q / opq
        x = end + sign * dx
        inside = not dx > dmin
        if x == end or (inside and end != 0.0):
            tail = uk_tail
            break
        fx = _checked(f, x)
        term = hs_pi_2 * ch * 4.0 * q / opq2 * fx
        if inside and abs(term) <= negligible:
            tail = uk_tail
            break
        d = dx
        f_in = fx
        terms.append(term)
    if d < d_in:
        return terms, tail, d, f_in * math.sqrt(d)
    return terms, tail, d_in, g_in


@functools.cache
def _level_nodes(level: int) -> tuple[tuple[float, float, float, float, float], ...]:
    """Tanh-sinh nodes first used at this level, by increasing t.

    Level 0 holds t = 1, 2, 3, ...; level k > 0 holds t = j*2^-k for odd j.
    Each entry is (q, 1 + q, cosh t, (1 + q)^2, uk_tail) with
    q = exp(-pi*sinh t): a node of a half-span hs lies 2*hs*q/(1 + q) from
    its near endpoint and carries trapezoid weight
    (pi/2)*hs*cosh(t)*4*q/(1 + q)^2 (before the step factor), both formed
    left to right as written, which fixes their rounding. sqrt(hs)*uk_tail is the summed wall-completion weight
    w/sqrt(d) of this node and every later one of the level, so a level's
    walled tail costs one lookup. The list ends where q underflows and
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
        rows.append((q, 1.0 + q, ch, (1.0 + q) * (1.0 + q),
                     pi_2 * ch * 2.0 * math.sqrt(2.0) * es / (1.0 + q) ** 1.5))
        j += stride
    nodes = []
    tail = 0.0
    for row in reversed(rows):  # smallest weights first
        tail += row[-1]
        nodes.append(row[:-1] + (tail,))
    nodes.reverse()
    return tuple(nodes)


def _checked(f, x):
    fx = f(x)
    if not math.isfinite(fx):
        raise ValueError(f"integrand returned non-finite value {fx!r} at x={x!r}")
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
