"""Brute-force curvature from raw metric components by Taylor arithmetic.

Given nothing but a coordinate chart (a callable returning the symmetric
4x4 metric matrix at each point of a batch), this module builds
Christoffel symbols, the Ricci tensor and the scalar curvature
numerically. It shares no algebra with the closed-form geometry modules
and therefore acts as the independent referee for them. The metric's
first and second derivatives come from evaluating the chart once on
second-order Taylor jets of the coordinates (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., ch. 13), so they are exact up to
roundoff: there is no step size.

Sign conventions: R_ab = d_c Gamma^c_ab - d_a Gamma^c_cb
+ Gamma^c_cd Gamma^d_ab - Gamma^c_ad Gamma^d_cb, fixed so that the round
2-sphere has R_thth = +1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, SingularMetricError

_DET_FLOOR = 1e-12


class Jet:
    """Values with their exact gradients and Hessians over k variables, batched.

    val has the batch shape S, grad the shape (k,) + S and hess the shape
    (k, k) + S: the derivative axes lead, so a float or an array of shape
    S broadcasts against all three. +, -, *, / with floats or arrays on
    either side, or with other jets over the same variables, and sin below
    carry the chain rule to second order. Each entry depends on its own
    batch entry alone.
    """

    __slots__ = ("val", "grad", "hess")
    __array_ufunc__ = None  # numpy operands defer to the reflected operators

    def __init__(self, val, grad, hess):
        self.val, self.grad, self.hess = val, grad, hess

    @classmethod
    def variables(cls, x) -> Jet:
        """The entries along the last axis of x as the independent variables."""
        x = np.asarray(x, dtype=float)
        k = x.shape[-1]
        return cls(x, _seed(k, x.ndim) + np.zeros(x.shape), np.zeros((k, k) + x.shape))

    @property
    def shape(self) -> tuple:
        return np.shape(self.val)

    def __getitem__(self, idx) -> Jet:
        idx = idx if isinstance(idx, tuple) else (idx,)
        every = slice(None)
        return Jet(self.val[idx], self.grad[(every,) + idx], self.hess[(every, every) + idx])

    def __neg__(self) -> Jet:
        return Jet(-self.val, -self.grad, -self.hess)

    def __add__(self, other) -> Jet:
        if isinstance(other, Jet):
            return Jet(self.val + other.val, self.grad + other.grad, self.hess + other.hess)
        return Jet(self.val + other, self.grad, self.hess)

    __radd__ = __add__

    def __sub__(self, other) -> Jet:
        if isinstance(other, Jet):
            return Jet(self.val - other.val, self.grad - other.grad, self.hess - other.hess)
        return Jet(self.val - other, self.grad, self.hess)

    def __rsub__(self, other) -> Jet:
        return Jet(other - self.val, -self.grad, -self.hess)

    def __mul__(self, other) -> Jet:
        if not isinstance(other, Jet):
            return Jet(self.val * other, self.grad * other, self.hess * other)
        u, v = self, other
        if u is v:
            # a square: each sum of the general product adds two equal terms
            # (the outer product of u.grad with itself is symmetric as it
            # stands), and doubling is exact, so these are its bits
            return Jet(u.val * u.val, 2.0 * (u.grad * u.val),
                       2.0 * (u.hess * u.val + u.grad[:, None] * u.grad))
        return Jet(u.val * v.val, u.grad * v.val + u.val * v.grad,
                   u.hess * v.val + u.val * v.hess + _symmetric(u.grad, v.grad))

    __rmul__ = __mul__

    def __truediv__(self, other) -> Jet:
        if not isinstance(other, Jet):
            return Jet(self.val / other, self.grad / other, self.hess / other)
        # u = q v differentiated twice, solved for q's derivatives
        q = self.val / other.val
        dq = (self.grad - q * other.grad) / other.val
        return Jet(q, dq, (self.hess - q * other.hess - _symmetric(dq, other.grad)) / other.val)

    def __rtruediv__(self, other) -> Jet:
        q = other / self.val
        dq = -(q / self.val) * self.grad
        return Jet(q, dq, -(q * self.hess + _symmetric(dq, self.grad)) / self.val)


@functools.cache
def _seed(k: int, ndim: int) -> np.ndarray:
    """The k x k identity shaped to broadcast to the gradient of k variables in ndim axes.

    Read-only: every caller shares it.
    """
    seed = np.eye(k).reshape((k,) + (1,) * (ndim - 1) + (k,))
    seed.flags.writeable = False
    return seed


def _symmetric(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i b_j + a_j b_i over the two leading axes, exactly symmetric."""
    t = a[:, None] * b
    return t + t.swapaxes(0, 1)


def chain(x: Jet, f, df, d2f) -> Jet:
    """The Jet of a function of x from its value f and derivatives df, d2f at x.val."""
    return Jet(f, df * x.grad, df * x.hess + d2f * (x.grad[:, None] * x.grad))


def sin(x):
    """sin of a float, an array or a Jet."""
    if not isinstance(x, Jet):
        return np.sin(x)
    s = np.sin(x.val)
    return chain(x, s, np.cos(x.val), -s)


def points(x):
    """x as a chart's metric takes it: a Jet as it is, anything else as a float array."""
    return x if isinstance(x, Jet) else np.asarray(x, dtype=float)


def diagonal_metric(x, entries) -> np.ndarray | Jet:
    """The diagonal metrics with the given diagonal at the points x, shape (..., 4, 4).

    x holds the points, shape (..., 4), as points() returns them; each
    entry is a float, or an array or Jet of x's batch shape. Float points
    give a float array, a Jet of points gives a Jet, in which entries
    that are not jets are constants.
    """
    shape = x.shape[:-1]
    out = np.zeros(shape + (4, 4))
    for i, e in enumerate(entries):
        out[..., i, i] = e.val if isinstance(e, Jet) else e
    if not isinstance(x, Jet):
        return out
    k = len(x.grad)
    grad, hess = np.zeros((k,) + out.shape), np.zeros((k, k) + out.shape)
    for i, e in enumerate(entries):
        if isinstance(e, Jet):
            grad[..., i, i], hess[..., i, i] = e.grad, e.hess
    return Jet(out, grad, hess)


@dataclass(frozen=True)
class MetricField:
    """A coordinate chart: metric component function and domain box.

    g maps points of shape (..., 4) to metrics of shape (..., 4, 4), the
    symmetric matrix of metric components at each point: a single
    4-point gives one 4x4 matrix, an (n, 4) batch n of them. Each
    point's matrix must not depend on the rest of the batch. g must also
    take a Jet of points (see points()) and return a Jet of metrics, so
    it may use only jet operations: +, -, *, /, this module's sin and
    diagonal_metric, and chain on a Jet (a cosine, say, is
    chain(x, cos, -sin, -cos) at x's values). ricci_at hands g a lone
    point as a Jet of shape (4,), whose values are numpy scalars. A power
    of values in g is a ufunc (np.square, np.power): it rounds a scalar as
    it rounds a batch entry, where a numpy scalar's ** calls libm's pow,
    which may not under AVX-512. domain holds one open
    interval (lo, hi) per coordinate, infinite ends allowed; the chart is
    valid on their product. g must be symmetric to 1e-14 and invertible
    (invert4's pivot check) everywhere inside that box.

    bounds is the box as a (2, 4) array of lower and upper ends, built
    once here; a domain that is not four intervals of numbers with
    lo < hi raises ValueError.
    """

    g: Callable[[np.ndarray], np.ndarray]
    domain: tuple[tuple[float, float], ...] = ((-math.inf, math.inf),) * 4
    bounds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            bounds = np.array(self.domain, dtype=float).T
        except (TypeError, ValueError):
            bounds = None
        if bounds is None or bounds.shape != (2, 4) or not (bounds[0] < bounds[1]).all():
            raise ValueError(
                f"domain must be four intervals (lo, hi) with lo < hi, got {self.domain!r}")
        object.__setattr__(self, "bounds", bounds)


@dataclass(frozen=True)
class CurvaturePoint:
    """Connection and curvature data at one point.

    christoffel[a, b, c] = Gamma^a_bc (symmetric in b, c); ricci is the
    symmetric covariant Ricci matrix; scalar its trace with the inverse
    metric; metric the chart's metric matrix there, the value part of the
    jet the curvature was computed from (None where a CurvaturePoint is
    built by hand).
    """

    point: np.ndarray
    christoffel: np.ndarray
    ricci: np.ndarray
    scalar: float
    metric: np.ndarray | None = None


def invert4(g: np.ndarray) -> np.ndarray:
    """Inverse of each 4x4 matrix of g, shape (..., 4, 4), by LAPACK after a pivot check.

    Each row is first divided by its largest magnitude, so the pivot
    check, |det| <= 1e-12 of the row-normalized matrix, does not change
    when the metric is scaled; the inverse divides column j by row j's
    scale. numpy's det and inv factor each matrix of a batch on its own,
    so every matrix gets the bits it gets alone. Raises
    SingularMetricError, naming the first failing matrix's normalized
    determinant.
    """
    a = np.asarray(g, dtype=float)
    rows = a.reshape(-1, 4, 4)
    # each row's largest magnitude; np.maximum keeps a NaN as max(axis=2) does
    mag = np.abs(rows)
    scale = np.maximum(np.maximum(mag[..., 0], mag[..., 1]), np.maximum(mag[..., 2], mag[..., 3]))
    scale[scale == 0.0] = 1.0  # a zero row stays zero and fails the check
    normed = rows / scale[:, :, None]
    det = np.linalg.det(normed)
    singular = np.abs(det) <= _DET_FLOOR
    if singular.any():
        raise SingularMetricError(
            f"row-normalized metric determinant {det[np.argmax(singular)]!r} "
            f"below pivot floor {_DET_FLOOR}")
    # C order, as a single matrix has it (the division alone may not give
    # it): the BLAS kernel of a matmul, and its rounding, follow the layout
    return np.ascontiguousarray((np.linalg.inv(normed) / scale[:, None, :]).reshape(a.shape))


def _require_domain(mf: MetricField, x: np.ndarray):
    lo, hi = mf.bounds
    inside = (lo < x) & (x < hi)
    if not inside.all():
        raise DomainError(f"point {x[np.argmin(inside.all(axis=-1))].tolist()} "
                          "outside chart domain")


def ricci_at(mf: MetricField, x) -> CurvaturePoint:
    """Ricci tensor and scalar at x from the metric's exact derivatives.

    mf.g is called once, on the points seeded as jets in x's shape, and
    its result carries the metric's first and second derivatives;
    _curvature contracts them into R_ab (sign conventions above) and
    g^ab R_ab. A lone point reaches mf.g as shape (4,), not as a batch of
    one, so its jet values are numpy scalars; the jet is then reshaped to
    the point axis that invert4 and _curvature take.

    The result's metric is that call's value part, the metric at x, so a
    caller that needs it does not evaluate the chart again.

    x is one point of shape (4,) or a batch of shape (n, 4). A batch
    gives a CurvaturePoint whose fields carry a leading axis of n (scalar
    an array), each point's entries bit for bit those it gets alone.
    Raises DomainError if any point lies outside the domain box, and
    otherwise SingularMetricError if the metric at any point fails
    invert4's pivot check; each names the first such point.
    """
    x = np.asarray(x, dtype=float)
    pts = x.reshape(-1, 4)
    _require_domain(mf, pts)
    g = mf.g(Jet.variables(x))  # in x's shape: a lone point's values are numpy scalars
    n = len(pts)
    metric = g.val.reshape(n, 4, 4)
    ginv = invert4(metric)
    # the point axis first, in C order as for ginv: dg[n, e, i, j] = d_e g_ij
    # and hess[n, e, b, i, j] = d_e d_b g_ij
    dg = np.ascontiguousarray(g.grad.reshape(4, n, 4, 4).transpose(1, 0, 2, 3))
    hess = np.ascontiguousarray(g.hess.reshape(4, 4, n, 4, 4).transpose(2, 0, 1, 3, 4))
    gamma, ricci, scalar = _curvature(ginv, dg, hess)
    if x.ndim == 1:
        gamma, ricci, scalar, metric = gamma[0], ricci[0], float(scalar[0]), metric[0]
    return CurvaturePoint(point=x, christoffel=gamma, ricci=ricci, scalar=scalar,
                          metric=metric)


def _curvature(ginv: np.ndarray, dg: np.ndarray, hess: np.ndarray):
    """Christoffel symbols, Ricci tensors and scalars from g^ad, d_e g_ij and d_e d_b g_ij.

    Gamma^a_bc = (1/2) g^ad S_dbc with S_dbc = d_b g_dc + d_c g_db - d_d g_bc.
    By d_e g^ad = -g^am d_e g_mn g^nd and the symmetry of g^cd, Gamma's
    derivatives enter contracted, and no d_e Gamma^a_bc is formed:
    d_c Gamma^c_ab = (1/2)(d_c g^cd S_dab + g^cd d_c S_dab) and
    d_a Gamma^c_cb = (1/2)(d_a g^cd d_b g_cd + g^cd d_a d_b g_cd). Each
    product is a reshape and a matmul over the leading point axis.
    """
    n = len(ginv)
    g16 = ginv.reshape(n, 1, 16)
    s_low = dg.transpose(0, 2, 1, 3) + dg.transpose(0, 2, 3, 1) - dg   # S[n, d, b, c]
    gamma = 0.5 * (ginv @ s_low.reshape(n, 4, 16)).reshape(n, 4, 4, 4)
    dginv = -(ginv[:, None] @ dg @ ginv[:, None])                   # dginv[n, e, a, d]
    # g^cd d_c S_dab = t_ab + t_ba - g^cd d_c d_d g_ab, t_ab = g^cd d_a d_c g_db
    t = (g16[:, None] @ hess.reshape(n, 4, 16, 4)).reshape(n, 4, 4)
    div_gamma = (dginv.trace(axis1=1, axis2=2)[:, None] @ s_low.reshape(n, 4, 16)
                 - g16 @ hess.reshape(n, 16, 16)).reshape(n, 4, 4) + t + t.transpose(0, 2, 1)
    grad_trace = (dginv.reshape(n, 4, 16) @ dg.reshape(n, 4, 16).transpose(0, 2, 1)
                  + (hess.reshape(n, 16, 16) @ g16.transpose(0, 2, 1)).reshape(n, 4, 4))
    swapped = gamma.transpose(0, 2, 1, 3).reshape(n, 4, 16)   # [n, a, c, d] = Gamma^c_ad
    quadratic = ((gamma.trace(axis1=1, axis2=2)[:, None] @ gamma.reshape(n, 4, 16))
                 .reshape(n, 4, 4) - swapped @ swapped.reshape(n, 16, 4))
    ricci = 0.5 * (div_gamma - grad_trace) + quadratic
    return gamma, ricci, (g16 @ ricci.reshape(n, 16, 1)).reshape(n)
