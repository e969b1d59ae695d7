"""Brute-force curvature from raw metric components by finite differences.

Given nothing but a coordinate chart (a callable returning the symmetric
4x4 metric matrix at each point of a batch), this module builds
Christoffel symbols, the Ricci tensor and the scalar curvature
numerically. It shares no algebra with the closed-form geometry modules
and therefore acts as the independent referee for them.

Sign conventions: R_ab = d_c Gamma^c_ab - d_a Gamma^c_cb
+ Gamma^c_cd Gamma^d_ab - Gamma^c_ad Gamma^d_cb, fixed so that the round
2-sphere has R_thth = +1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import calculus
from .errors import DomainError, SingularMetricError

# The connection-derivative stage works on a mesh this many times wider
# than the inner metric-derivative step: the curvature assembly amplifies
# second-derivative noise by the metric's dynamic range, and the wider
# mesh rebalances that against truncation, which the Richardson
# combination in _hess_matrix has already pushed to sixth order.
# Calibrated on the interior charts of this package; see tests.
OUTER_STEP_FACTOR = 20.0

_DET_FLOOR = 1e-12


@dataclass(frozen=True)
class MetricField:
    """A coordinate chart: metric component function, domain box, coordinate scales.

    g maps points of shape (..., 4) to metrics of shape (..., 4, 4), the
    symmetric matrix of metric components at each point: a single
    4-point gives one 4x4 matrix, an (n, 4) batch n of them. Each
    point's matrix must not depend on the rest of the batch; the oracle
    evaluates its whole difference stencil in one call. domain holds one
    open interval (lo, hi) per coordinate, infinite ends allowed; the
    chart is valid on their product. g must be symmetric to 1e-14 and
    invertible (|det| > 1e-12 * scale^4) everywhere inside that box.
    coord_scales gives the characteristic magnitude of each coordinate
    (e.g. the mass for length-like coordinates, 1 for angles); the
    differencing steps are proportional to it, which keeps the engine's
    accuracy independent of the choice of units.
    """

    g: Callable[[np.ndarray], np.ndarray]
    domain: tuple[tuple[float, float], ...] = ((-math.inf, math.inf),) * 4
    coord_scales: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)


@dataclass(frozen=True)
class CurvaturePoint:
    """Connection and curvature data at one point.

    christoffel[a, b, c] = Gamma^a_bc (symmetric in b, c); ricci is the
    symmetric covariant Ricci matrix; scalar its trace with the inverse
    metric.
    """

    point: np.ndarray
    christoffel: np.ndarray
    ricci: np.ndarray
    scalar: float


def invert4(g: np.ndarray) -> np.ndarray:
    """Inverse of a 4x4 matrix by cofactor expansion with a pivot check.

    The dimension is fixed and tiny, so the adjugate over 2x2 minors is
    both exact in structure and faster than general linear algebra.
    Raises SingularMetricError when |det| <= 1e-12 * scale^4.
    """
    a = np.asarray(g, dtype=float)
    # 2x2 minors of rows (0,1) and rows (2,3)
    s0 = a[0, 0] * a[1, 1] - a[1, 0] * a[0, 1]
    s1 = a[0, 0] * a[1, 2] - a[1, 0] * a[0, 2]
    s2 = a[0, 0] * a[1, 3] - a[1, 0] * a[0, 3]
    s3 = a[0, 1] * a[1, 2] - a[1, 1] * a[0, 2]
    s4 = a[0, 1] * a[1, 3] - a[1, 1] * a[0, 3]
    s5 = a[0, 2] * a[1, 3] - a[1, 2] * a[0, 3]
    c5 = a[2, 2] * a[3, 3] - a[3, 2] * a[2, 3]
    c4 = a[2, 1] * a[3, 3] - a[3, 1] * a[2, 3]
    c3 = a[2, 1] * a[3, 2] - a[3, 1] * a[2, 2]
    c2 = a[2, 0] * a[3, 3] - a[3, 0] * a[2, 3]
    c1 = a[2, 0] * a[3, 2] - a[3, 0] * a[2, 2]
    c0 = a[2, 0] * a[3, 1] - a[3, 0] * a[2, 1]
    det = s0 * c5 - s1 * c4 + s2 * c3 + s3 * c2 - s4 * c1 + s5 * c0
    scale = float(np.max(np.abs(a)))
    if abs(det) <= _DET_FLOOR * scale ** 4:
        raise SingularMetricError(f"metric determinant {det!r} below pivot floor")
    inv = np.empty((4, 4))
    inv[0, 0] = a[1, 1] * c5 - a[1, 2] * c4 + a[1, 3] * c3
    inv[0, 1] = -a[0, 1] * c5 + a[0, 2] * c4 - a[0, 3] * c3
    inv[0, 2] = a[3, 1] * s5 - a[3, 2] * s4 + a[3, 3] * s3
    inv[0, 3] = -a[2, 1] * s5 + a[2, 2] * s4 - a[2, 3] * s3
    inv[1, 0] = -a[1, 0] * c5 + a[1, 2] * c2 - a[1, 3] * c1
    inv[1, 1] = a[0, 0] * c5 - a[0, 2] * c2 + a[0, 3] * c1
    inv[1, 2] = -a[3, 0] * s5 + a[3, 2] * s2 - a[3, 3] * s1
    inv[1, 3] = a[2, 0] * s5 - a[2, 2] * s2 + a[2, 3] * s1
    inv[2, 0] = a[1, 0] * c4 - a[1, 1] * c2 + a[1, 3] * c0
    inv[2, 1] = -a[0, 0] * c4 + a[0, 1] * c2 - a[0, 3] * c0
    inv[2, 2] = a[3, 0] * s4 - a[3, 1] * s2 + a[3, 3] * s0
    inv[2, 3] = -a[2, 0] * s4 + a[2, 1] * s2 - a[2, 3] * s0
    inv[3, 0] = -a[1, 0] * c3 + a[1, 1] * c1 - a[1, 2] * c0
    inv[3, 1] = a[0, 0] * c3 - a[0, 1] * c1 + a[0, 2] * c0
    inv[3, 2] = -a[3, 0] * s3 + a[3, 1] * s1 - a[3, 2] * s0
    inv[3, 3] = a[2, 0] * s3 - a[2, 1] * s1 + a[2, 2] * s0
    inv /= det
    return inv


def _steps(mf: MetricField, x: np.ndarray) -> np.ndarray:
    cbrt_eps = calculus.EPS ** (1.0 / 3.0)
    return np.array([cbrt_eps * max(abs(float(c)), s)
                     for c, s in zip(x, mf.coord_scales)])


# Central weights (Fornberg, Math. Comp. 51, 1988) on the offsets +2, +1,
# -1, -2: the 4th-order first derivative takes (-1, 8, -8, 1)/12, the
# 5-point second derivative (-1, 16, 16, -1)/12 plus -30/12 at the center,
# and a mixed derivative the tensor product of two first-derivative
# stencils over these (offset, weight) pairs.
_OFFSETS = (2, 1, -1, -2)
_CROSS = ((1, 8.0), (2, -1.0), (-1, -8.0), (-2, 1.0))
_CROSS_WEIGHTS = tuple(ci * cj for _, ci in _CROSS for _, cj in _CROSS)
_PAIRS = tuple((a, b) for a in range(4) for b in range(a + 1, 4))
_PAIR_A = np.array([a for a, _ in _PAIRS])
_PAIR_B = np.array([b for _, b in _PAIRS])


def _stencil_table():
    """Every metric evaluation of ricci_at as a row: offsets and mesh.

    Row k samples x + offsets[k] * mesh_steps[mesh[k]], where the meshes
    are the inner step, the outer step and twice the outer step. Rows
    come in evaluation order: the center, the gradient, then per Hessian
    mesh its center and, axis by axis, the pure stencil followed by the
    mixed ones with every later axis. The index arrays returned alongside
    locate each stencil's rows for the assembly.
    """
    offsets, mesh = [], []

    def row(m, a=None, i=0, b=None, j=0):
        k = [0, 0, 0, 0]
        if a is not None:
            k[a] = i
        if b is not None:
            k[b] = j
        offsets.append(k)
        mesh.append(m)
        return len(offsets) - 1

    center = row(0)
    grad = [[row(0, a, i) for i in _OFFSETS] for a in range(4)]
    hess_center, pure, mixed = [], [], []
    for m in (1, 2):
        hess_center.append(row(m))
        pure_m, mixed_m = [], []  # mixed_m comes out in _PAIRS order
        for a in range(4):
            pure_m.append([row(m, a, i) for i in _OFFSETS])
            for b in range(a + 1, 4):
                mixed_m.append([row(m, a, i, b, j) for i, _ in _CROSS for j, _ in _CROSS])
        pure.append(pure_m)
        mixed.append(mixed_m)
    # mixed rows term-major: _MIXED_ROWS[t, hessian mesh, pair]
    return (np.array(offsets, dtype=float), np.array(mesh), center, np.array(grad),
            np.array(hess_center), np.array(pure), np.array(mixed).transpose(2, 0, 1))


(_STENCIL, _STENCIL_MESH, _CENTER, _GRAD_ROWS,
 _HESS_CENTER, _PURE_ROWS, _MIXED_ROWS) = _stencil_table()


def _stencil_metrics(mf: MetricField, x: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """The metric at every stencil point, in one call of mf.g."""
    outer = OUTER_STEP_FACTOR * steps
    mesh_steps = np.stack([steps, outer, 2.0 * outer])
    points = x + _STENCIL * mesh_steps[_STENCIL_MESH]
    return mf.g(points)


def _grad_matrix(gs: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """d[a, i, j] = partial_a of the metric, 4th-order central.

    Same stencil as calculus.derivative, applied to all 16 components of
    each stencil evaluation at once.
    """
    f = gs[_GRAD_ROWS]  # f[a, k] = g at x + _OFFSETS[k] * steps[a] * e_a
    return (-f[:, 0] + 8.0 * f[:, 1] - 8.0 * f[:, 2] + f[:, 3]) / (12.0 * steps)[:, None, None]


def _hess_matrix(gs: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """hess[a, b, i, j] = partial_a partial_b of the metric.

    Pure second derivatives use the 5-point central stencil (weights
    above _OFFSETS); mixed ones use the tensor product of
    two 4-point first-derivative stencils. Each is evaluated on the base
    mesh and its double and Richardson-combined to sixth order: the
    curvature assembly amplifies second-derivative error by the metric's
    dynamic range, and a single mesh cannot hold both truncation and
    roundoff below that amplification near the horizons. Both meshes are
    assembled at once, along the leading axis.
    """
    meshes = (outer, 2.0 * outer)
    f = gs[_PURE_ROWS]  # f[mesh, a, k]
    f0 = gs[_HESS_CENTER][:, None]
    # scalar squares, not an array square: np.float64 ** 2 calls pow,
    # which can round differently from x * x
    den = np.array([[12.0 * s[a] ** 2 for a in range(4)] for s in meshes])
    pure = (-f[:, :, 0] + 16.0 * f[:, :, 1] - 30.0 * f0
            + 16.0 * f[:, :, 2] - f[:, :, 3]) / den[:, :, None, None]
    acc = np.zeros((2, len(_PAIRS), 4, 4))
    for w, term in zip(_CROSS_WEIGHTS, gs[_MIXED_ROWS]):
        # term by term in the per-point order: a reduction may add in
        # another order (np.sum adds pairwise along a contiguous axis)
        acc += w * term
    mixed = acc / np.array([144.0 * s[_PAIR_A] * s[_PAIR_B] for s in meshes])[:, :, None, None]
    hess = np.empty((2, 4, 4, 4, 4))
    hess[:, range(4), range(4)] = pure
    hess[:, _PAIR_A, _PAIR_B] = mixed
    hess[:, _PAIR_B, _PAIR_A] = mixed
    return (16.0 * hess[0] - hess[1]) / 15.0


def _require_domain(mf: MetricField, x: np.ndarray, reach: np.ndarray):
    # The stencil spans the box x +- reach, which lies inside the domain
    # box exactly when its axis extremes do.
    lo, hi = np.array(mf.domain).T
    if not ((lo < x - reach) & (x + reach < hi)).all():
        if ((lo < x) & (x < hi)).all():
            raise DomainError(f"stencil about {x.tolist()} leaves the chart domain")
        raise DomainError(f"point {x.tolist()} outside chart domain")


def ricci_at(mf: MetricField, x) -> CurvaturePoint:
    """Ricci tensor and scalar at x from differenced metric components.

    R_ab = d_c Gamma^c_ab - d_a Gamma^c_cb + Gamma^c_cd Gamma^d_ab
    - Gamma^c_ad Gamma^d_cb; scalar = g^ab R_ab. With
    Gamma = (1/2) g^(-1) (dg + dg - dg), the connection derivative
    expands by the product rule into first and second metric
    derivatives, which are differenced directly: stacking two numeric
    first-derivative stages instead would square the noise floor and
    fail near the horizons. The second-derivative stencils live on a
    mesh OUTER_STEP_FACTOR times the inner metric step h, which is
    eps^(1/3) * max(|x_a|, coord_scales[a]) on axis a, and the full
    stencil neighborhood, 4*OUTER_STEP_FACTOR*h per axis, must lie inside
    the domain box.
    """
    x = np.asarray(x, dtype=float)
    steps = _steps(mf, x)
    outer = OUTER_STEP_FACTOR * steps
    _require_domain(mf, x, 4.0 * outer)  # the doubled Richardson mesh reaches 2*(2*outer)

    gs = _stencil_metrics(mf, x, steps)
    ginv = invert4(gs[_CENTER])
    dg = _grad_matrix(gs, steps)             # dg[e, i, j] = d_e g_ij
    hess = _hess_matrix(gs, outer)           # hess[e, b, i, j] = d_e d_b g_ij

    # S[d, b, c] = d_b g_dc + d_c g_db - d_d g_bc and its e-derivative
    s_low = np.einsum('bdc->dbc', dg) + np.einsum('cdb->dbc', dg) - dg
    ds_low = np.einsum('ebdc->edbc', hess) + np.einsum('ecdb->edbc', hess) - hess
    gamma = 0.5 * np.einsum('ad,dbc->abc', ginv, s_low)
    dginv = -np.einsum('am,emn,nd->ead', ginv, dg, ginv)
    dgamma = 0.5 * (np.einsum('ead,dbc->eabc', dginv, s_low)
                    + np.einsum('ad,edbc->eabc', ginv, ds_low))

    term1 = np.einsum('ccab->ab', dgamma)   # d_c Gamma^c_ab
    term2 = np.einsum('accb->ab', dgamma)   # d_a Gamma^c_cb
    term3 = np.einsum('ccd,dab->ab', gamma, gamma)
    term4 = np.einsum('cad,dcb->ab', gamma, gamma)
    ricci = term1 - term2 + term3 - term4

    scalar = float(np.einsum('ab,ab->', ginv, ricci))
    return CurvaturePoint(point=x, christoffel=gamma, ricci=ricci, scalar=scalar)
