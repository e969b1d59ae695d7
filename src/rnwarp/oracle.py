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


# invert4's 2x2 minors on the matrix flattened row by row: s0..s5 of rows
# (0, 1) and c0..c5 of rows (2, 3), each over the column pairs (0, 1),
# (0, 2), (0, 3), (1, 2), (1, 3), (2, 3); minor k is a[w]*a[x] - a[y]*a[z]
# with (w, x, y, z) = _MINORS[:, k]
_MINORS = np.array([[4 * r + p, 4 * (r + 1) + q, 4 * (r + 1) + p, 4 * r + q]
                    for r in (0, 2) for p, q in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))]).T
# det = s0 c5 - s1 c4 + s2 c3 + s3 c2 - s4 c1 + s5 c0, term by term
_DET_SIGNS = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])


def _cofactor_table():
    """Each inverse entry as three signed terms a[row, col] * minor, in order.

    Minors are numbered s0..s5 = 0..5, c0..c5 = 6..11. Returns the flat
    matrix index 4*row + col, the minor and the sign of every term, each
    of shape (16, 3), entry (i, j) in row 4*i + j.
    """
    s, c = range(6), range(6, 12)
    terms = {  # (i, j): ((sign, row, col, minor), ...)
        (0, 0): ((1, 1, 1, c[5]), (-1, 1, 2, c[4]), (1, 1, 3, c[3])),
        (0, 1): ((-1, 0, 1, c[5]), (1, 0, 2, c[4]), (-1, 0, 3, c[3])),
        (0, 2): ((1, 3, 1, s[5]), (-1, 3, 2, s[4]), (1, 3, 3, s[3])),
        (0, 3): ((-1, 2, 1, s[5]), (1, 2, 2, s[4]), (-1, 2, 3, s[3])),
        (1, 0): ((-1, 1, 0, c[5]), (1, 1, 2, c[2]), (-1, 1, 3, c[1])),
        (1, 1): ((1, 0, 0, c[5]), (-1, 0, 2, c[2]), (1, 0, 3, c[1])),
        (1, 2): ((-1, 3, 0, s[5]), (1, 3, 2, s[2]), (-1, 3, 3, s[1])),
        (1, 3): ((1, 2, 0, s[5]), (-1, 2, 2, s[2]), (1, 2, 3, s[1])),
        (2, 0): ((1, 1, 0, c[4]), (-1, 1, 1, c[2]), (1, 1, 3, c[0])),
        (2, 1): ((-1, 0, 0, c[4]), (1, 0, 1, c[2]), (-1, 0, 3, c[0])),
        (2, 2): ((1, 3, 0, s[4]), (-1, 3, 1, s[2]), (1, 3, 3, s[0])),
        (2, 3): ((-1, 2, 0, s[4]), (1, 2, 1, s[2]), (-1, 2, 3, s[0])),
        (3, 0): ((-1, 1, 0, c[3]), (1, 1, 1, c[1]), (-1, 1, 2, c[0])),
        (3, 1): ((1, 0, 0, c[3]), (-1, 0, 1, c[1]), (1, 0, 2, c[0])),
        (3, 2): ((-1, 3, 0, s[3]), (1, 3, 1, s[1]), (-1, 3, 2, s[0])),
        (3, 3): ((1, 2, 0, s[3]), (-1, 2, 1, s[1]), (1, 2, 2, s[0])),
    }
    table = np.array([terms[divmod(k, 4)] for k in range(16)])
    return 4 * table[..., 1] + table[..., 2], table[..., 3], table[..., 0].astype(float)


_COF_ENTRY, _COF_MINOR, _COF_SIGN = _cofactor_table()


def invert4(g: np.ndarray) -> np.ndarray:
    """Inverse of each 4x4 matrix of g, shape (..., 4, 4), by cofactor expansion and a pivot check.

    The dimension is fixed and tiny, so the adjugate over 2x2 minors is
    both exact in structure and faster than general linear algebra. The
    minors and cofactors are formed as a few indexed array operations,
    each sum term by term from the left, so every matrix of a batch gets
    the bits it gets alone. Raises SingularMetricError, naming the first
    such matrix's determinant, when |det| <= 1e-12 * scale^4 for any.
    """
    a = np.asarray(g, dtype=float)
    flat = a.reshape(-1, 16)
    f = flat[:, _MINORS]
    minors = f[:, 0] * f[:, 1] - f[:, 2] * f[:, 3]
    det = np.cumsum(minors[:, :6] * minors[:, :5:-1] * _DET_SIGNS, axis=1)[:, -1]
    # Python's pow on Python floats, as for a single matrix
    floor = [_DET_FLOOR * v ** 4 for v in np.abs(flat).max(axis=1).tolist()]
    singular = np.abs(det) <= floor
    if singular.any():
        raise SingularMetricError(
            f"metric determinant {det[np.argmax(singular)]!r} below pivot floor")
    t = flat[:, _COF_ENTRY] * minors[:, _COF_MINOR] * _COF_SIGN
    inv = (t[:, :, 0] + t[:, :, 1]) + t[:, :, 2]
    # C order, as a single matrix has it: einsum picks its summation
    # order, and with it the rounding, by the memory layout
    return np.ascontiguousarray((inv / det[:, None]).reshape(a.shape))


def _steps(mf: MetricField, x: np.ndarray) -> np.ndarray:
    cbrt_eps = calculus.EPS ** (1.0 / 3.0)
    return cbrt_eps * np.maximum(np.abs(x), mf.coord_scales)


# Central weights (Fornberg, Math. Comp. 51, 1988) on the offsets +2, +1,
# -1, -2: the 4th-order first derivative takes (-1, 8, -8, 1)/12, the
# 5-point second derivative (-1, 16, 16, -1)/12 plus -30/12 at the center,
# and a mixed derivative the tensor product of two first-derivative
# stencils over these (offset, weight) pairs.
_OFFSETS = (2, 1, -1, -2)
_CROSS = ((1, 8.0), (2, -1.0), (-1, -8.0), (-2, 1.0))
_CROSS_WEIGHTS = np.array([ci * cj for _, ci in _CROSS for _, cj in _CROSS])
_PAIRS = tuple((a, b) for a in range(4) for b in range(a + 1, 4))
_PAIR_A = np.array([a for a, _ in _PAIRS])
_PAIR_B = np.array([b for _, b in _PAIRS])
_AXES = np.arange(4)
# the three stencil meshes in units of the inner step: the inner step,
# the outer step and its double (2*(F*h) rounds as (2F)*h, both exact
# doublings of the same product)
_MESH_SCALES = np.array([1.0, OUTER_STEP_FACTOR, 2.0 * OUTER_STEP_FACTOR])
_RICHARDSON = np.array([1.0, 2.0])  # the Hessian meshes in units of the outer step


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
    """The metric at every stencil point of every point of x, shape (n, stencil, 4, 4).

    One call of mf.g takes the stencils of all n points.
    """
    mesh_steps = steps[:, None] * _MESH_SCALES[:, None]
    points = x[:, None] + _STENCIL * mesh_steps[:, _STENCIL_MESH]
    return mf.g(points.reshape(-1, 4)).reshape(points.shape + (4,))


def _grad_matrix(gs: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """d[n, a, i, j] = partial_a of the metric at point n, 4th-order central.

    Same stencil as calculus.derivative, applied to all 16 components of
    each stencil evaluation at once.
    """
    f = gs[:, _GRAD_ROWS]  # f[n, a, k] = g at x + _OFFSETS[k] * steps[a] * e_a
    return ((-f[:, :, 0] + 8.0 * f[:, :, 1] - 8.0 * f[:, :, 2] + f[:, :, 3])
            / (12.0 * steps)[:, :, None, None])


def _hess_matrix(gs: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """hess[n, a, b, i, j] = partial_a partial_b of the metric at point n.

    Pure second derivatives use the 5-point central stencil (weights
    above _OFFSETS); mixed ones use the tensor product of
    two 4-point first-derivative stencils. Each is evaluated on the base
    mesh and its double and Richardson-combined to sixth order: the
    curvature assembly amplifies second-derivative error by the metric's
    dynamic range, and a single mesh cannot hold both truncation and
    roundoff below that amplification near the horizons. Both meshes are
    assembled at once, along the axis after the points.
    """
    meshes = outer[:, None] * _RICHARDSON[:, None]  # meshes[n, mesh, a]
    f = gs[:, _PURE_ROWS]  # f[n, mesh, a, k]
    f0 = gs[:, _HESS_CENTER][:, :, None]
    # Python's pow, as np.float64 ** 2 takes it: numpy's array power
    # squares by x * x, which can round differently
    den = np.reshape([12.0 * s ** 2 for s in meshes.ravel().tolist()], meshes.shape)
    pure = (-f[:, :, :, 0] + 16.0 * f[:, :, :, 1] - 30.0 * f0
            + 16.0 * f[:, :, :, 2] - f[:, :, :, 3]) / den[..., None, None]
    terms = gs[:, _MIXED_ROWS]  # terms[n, t, mesh, pair]
    terms *= _CROSS_WEIGHTS[:, None, None, None, None]
    # the weighted terms added one by one from 0, in stencil order: a
    # reduction along an axis other than the innermost adds sequentially
    # (np.sum along a contiguous axis would add pairwise)
    acc = np.add.reduce(terms, axis=1, initial=0.0)
    mixed = acc / (144.0 * meshes[..., _PAIR_A] * meshes[..., _PAIR_B])[..., None, None]
    hess = np.empty((len(gs), 2, 4, 4, 4, 4))
    hess[:, :, _AXES, _AXES] = pure
    hess[:, :, _PAIR_A, _PAIR_B] = mixed
    hess[:, :, _PAIR_B, _PAIR_A] = mixed
    return (16.0 * hess[:, 0] - hess[:, 1]) / 15.0


def _require_domain(mf: MetricField, x: np.ndarray, reach: np.ndarray):
    # The stencil spans the box x +- reach, which lies inside the domain
    # box exactly when its axis extremes do.
    lo, hi = np.array(mf.domain).T
    inside = (lo < x - reach) & (x + reach < hi)
    if not inside.all():
        first = x[np.argmin(inside.all(axis=-1))]
        if ((lo < first) & (first < hi)).all():
            raise DomainError(f"stencil about {first.tolist()} leaves the chart domain")
        raise DomainError(f"point {first.tolist()} outside chart domain")


# Points per call of the metric: each block of stencils is one mf.g call
# and one pass of the assembly. Larger blocks save little time and cost
# memory (a block's stencil metrics take about 31 kB per point).
_BLOCK = 16


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

    x is one point of shape (4,) or a batch of shape (n, 4). A batch
    gives a CurvaturePoint whose fields carry a leading axis of n (scalar
    an array), each point's entries bit for bit those it gets alone; the
    stencils of _BLOCK points at a time share one call of mf.g. Raises
    DomainError if any point's stencil leaves the domain box, and
    otherwise SingularMetricError if the metric at any point falls under
    invert4's pivot floor; each names the first such point.
    """
    x = np.asarray(x, dtype=float)
    points = x.reshape(-1, 4)
    steps = _steps(mf, points)
    outer = OUTER_STEP_FACTOR * steps
    _require_domain(mf, points, 4.0 * outer)  # the doubled Richardson mesh reaches 2*(2*outer)
    blocks = [_curvature(mf, points[k:k + _BLOCK], steps[k:k + _BLOCK], outer[k:k + _BLOCK])
              for k in range(0, len(points), _BLOCK)]
    gamma, ricci, scalar = blocks[0] if len(blocks) == 1 else map(np.concatenate, zip(*blocks))
    if x.ndim == 1:
        return CurvaturePoint(point=x, christoffel=gamma[0], ricci=ricci[0],
                              scalar=float(scalar[0]))
    return CurvaturePoint(point=x, christoffel=gamma, ricci=ricci, scalar=scalar)


def _curvature(mf: MetricField, x: np.ndarray, steps: np.ndarray, outer: np.ndarray):
    """Christoffel symbols, Ricci tensors and scalars at the points of x, one metric call."""
    gs = _stencil_metrics(mf, x, steps)
    ginv = invert4(gs[:, _CENTER])
    dg = _grad_matrix(gs, steps)             # dg[n, e, i, j] = d_e g_ij
    hess = _hess_matrix(gs, outer)           # hess[n, e, b, i, j] = d_e d_b g_ij

    # S[d, b, c] = d_b g_dc + d_c g_db - d_d g_bc and its e-derivative
    s_low = np.einsum('...bdc->...dbc', dg) + np.einsum('...cdb->...dbc', dg) - dg
    ds_low = (np.einsum('...ebdc->...edbc', hess) + np.einsum('...ecdb->...edbc', hess)
              - hess)
    gamma = 0.5 * np.einsum('...ad,...dbc->...abc', ginv, s_low)
    dginv = -np.einsum('...am,...emn,...nd->...ead', ginv, dg, ginv)
    dgamma = 0.5 * (np.einsum('...ead,...dbc->...eabc', dginv, s_low)
                    + np.einsum('...ad,...edbc->...eabc', ginv, ds_low))

    term1 = np.einsum('...ccab->...ab', dgamma)   # d_c Gamma^c_ab
    term2 = np.einsum('...accb->...ab', dgamma)   # d_a Gamma^c_cb
    term3 = np.einsum('...ccd,...dab->...ab', gamma, gamma)
    term4 = np.einsum('...cad,...dcb->...ab', gamma, gamma)
    ricci = term1 - term2 + term3 - term4
    return gamma, ricci, np.einsum('...ab,...ab->...', ginv, ricci)
