"""The quadrature layer: node builders, contour radii and the tensor engine.

Every tensor axis is a trapezoid rule, which converges exponentially for
integrands analytic about the contour: circles sized by circle_nodes from
the poles and essential singularities of the integrand, and vertical lines
(line_axes) stepped from the strip of analyticity about them.  An Axis is
its nodes and weights; its half grid, every other node with twice the
weight, gives the error estimate.  Gauss-Legendre panels (gl_panels) serve
the delta-Bose chamber check, outside the engine.

Each value is a weighted sum of k-fold integrals of prod_a d_a(z_a)
prod_{a<b} P_ab(z_a, z_b) over such axes, and tensor_result, the one engine,
returns sum w * full with the error |sum w * (full - half)| (see
MomentResult), the half-grid sum sliced from factors built once on the full
grid.  Each term is contracted with BLAS matrix products: k = 2 is
d_0 P_01 d_1, k = 3 one GEMM per ROW_BLOCK rows of axis 0, and k >= 4
loops over the nodes of one axis down to k = 3.  On N nodes per axis that
is O(N^k) flops; beside the pair matrices, k = 3 holds ROW_BLOCK x N
temporaries and k >= 4 adds k - 1 folded N x N arrays, so no N^3
intermediate is ever built.  Every grid is sized against MAX_POINTS, and
its largest pair matrix against MAX_LINE_NODES^2, before any is evaluated.

On two lines of one step, z_a[i] - z_b[j] depends on i - j alone and
z_a[i] + z_b[j] on i + j; on one N-node trapezoid circle about 0, w_i / w_j
depends on (i - j) mod N and w_i w_j on (i + j) mod N.  The evaluators build
a pair factor of such arguments from O(N) tables through the read-only
toeplitz and hankel views, with one N x N product.

Axis weights carry the Cauchy normalization: sum f(z) w approximates
(1/2 pi i) times the contour integral of f.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .qfunc import DomainError, ModelParams

__all__ = [
    "CostGuardError",
    "MomentResult",
    "Axis",
    "MAX_POINTS",
    "MAX_LINE_NODES",
    "circle_nodes",
    "circle_axis",
    "line_axes",
    "gl_panels",
    "toeplitz",
    "hankel",
    "tensor_result",
    "c1_rho_radius",
    "nested_radii",
]

# Bounds the grid points, and so the flops, of one tensor term.
MAX_POINTS = 1 << 30

# Bounds the nodes of one line, which grow without bound as the strip of
# analyticity about the line narrows, and the entries of any term's largest
# pair matrix, N_a x N_b <= MAX_LINE_NODES^2: 1 GB of complex entries.
MAX_LINE_NODES = 1 << 13


class CostGuardError(RuntimeError):
    """Tensor evaluation would exceed a cost budget (MAX_POINTS, MAX_LINE_NODES)."""


@dataclass(frozen=True)
class MomentResult:
    """value = sum_i w_i full_i over weighted tensor terms, with one error convention.

    err_estimate = |sum_i w_i (full_i - half_i)|, half_i being term i on the
    half grids: the half-grid gap of the value returned.  node_counts are the
    axis sizes of the term with the most axes, () if no term has one.
    """

    value: complex
    err_estimate: float
    node_counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.err_estimate < 0:
            raise DomainError("err_estimate must be >= 0")


# ---------------------------------------------------------------------------
# Node builders.


def _auto_nodes(ratio: float, tol: float) -> int:
    if not (0.0 < ratio < 1.0):
        raise DomainError(f"convergence ratio must lie in (0,1), got {ratio}")
    return int(math.ceil(math.log(1.0 / tol) / -math.log(ratio))) + 32


def _essential_nodes(amp: float, tol: float) -> int:
    # Smallest n with amp^n/n! < tol: Fourier tail of exp(A e^{-i theta}).
    if amp <= 0.5:
        return 8
    target = math.log(1.0 / tol)
    n = max(8, int(amp))
    while n < 200_000:
        if math.lgamma(n + 1) - n * math.log(amp) > target:
            return n
        n += 4
    raise ArithmeticError("essential-singularity node count diverged")


def circle_nodes(tol: float, floor: int, ratios=(), amps=()) -> int:
    """Trapezoid nodes on one circle for error below tol, at least floor.

    A pole at ratio r in (0, 1) costs r^n, a factor exp(A e^{-i theta}) A^n/n!.
    """
    need = [_auto_nodes(r, tol) for r in ratios] + [_essential_nodes(a, tol) for a in amps]
    return max([floor, *need])


class Axis(NamedTuple):
    """Nodes z and weights w of one trapezoid axis; its half grid is z[::2], weights 2 w[::2]."""

    z: np.ndarray
    w: np.ndarray


def circle_axis(pieces) -> Axis:
    """Trapezoid nodes on a union of positively oriented circles.

    pieces lists (center, radius, n); each n is rounded up to even, so the
    every-other-node half grid takes every other node of each circle.
    """
    zs, ws = [], []
    for center, radius, n in pieces:
        n = n + n % 2
        z = center + radius * np.exp(1j * (2.0 * np.pi * np.arange(n) / n))
        zs.append(z)
        ws.append((z - center) / n)
    return Axis(np.concatenate(zs), np.concatenate(ws))


def line_axes(pieces, d: float, tol: float, floor: int) -> list[Axis]:
    """Trapezoid nodes c + i h j, j = -J..J, on vertical lines, weights h / (2 pi).

    pieces lists (c, half_width).  For an integrand analytic in |Re z - c| < d
    the rule errs like e^(-2 pi d / h) (Trefethen & Weideman, SIAM Rev. 56,
    2014), so h = 2 pi d / log(1/tol), shrunk until the shortest line has
    2J + 1 >= floor nodes.  All lines share h, so sums of nodes across lines
    fall on one grid; each runs to J = ceil(half_width / h).  More than
    MAX_LINE_NODES on a line is refused before any line is built.
    """
    h = 2.0 * math.pi * d / math.log(1.0 / tol)
    # The floor: a line short of it gets floor // 2 steps on each side.
    h = min([h] + [w / (floor // 2) for _, w in pieces if 2 * math.ceil(w / h) + 1 < floor])
    js = [math.ceil(half_width / h) for _, half_width in pieces]
    if 2 * max(js, default=0) + 1 > MAX_LINE_NODES:
        raise CostGuardError(f"line of {2 * max(js) + 1} nodes (step {h:.3g} for a strip of "
                             f"half-width {d:.3g}) exceeds budget {MAX_LINE_NODES}")
    return [Axis(c + 1j * h * np.arange(-j, j + 1), np.full(2 * j + 1, h / (2.0 * math.pi)))
            for (c, _), j in zip(pieces, js)]


@lru_cache(maxsize=16)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-point Gauss-Legendre nodes and weights on [-1, 1], built once per n."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gl_panels(a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite 16-point Gauss-Legendre nodes and weights on [a, b]."""
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    gx, gw = _leggauss(16)
    x = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    w = (half[:, None] * gw[None, :]).ravel()
    return x, w


# ---------------------------------------------------------------------------
# Pair factors from index tables.


def toeplitz(table, n_cols: int, wrap: bool = False) -> np.ndarray:
    """Read-only view M[i, j] = table[i - j + n_cols - 1], of table.size - n_cols + 1 rows.

    With wrap, M[i, j] = table[(i - j) mod N] on N = n_cols = table.size nodes.
    """
    if wrap:
        table = np.concatenate([table[1:], table])
    return sliding_window_view(table, n_cols)[:, ::-1]


def hankel(table, n_cols: int, wrap: bool = False) -> np.ndarray:
    """Read-only view M[i, j] = table[i + j], of table.size - n_cols + 1 rows.

    With wrap, M[i, j] = table[(i + j) mod N] on N = n_cols = table.size nodes.
    """
    if wrap:
        table = np.concatenate([table, table[:-1]])
    return sliding_window_view(table, n_cols)


# ---------------------------------------------------------------------------
# Tensor-product engine.


MAX_AXES = 5

# Rows of axis 0 per step of the k = 3 contraction: its temporaries hold
# ROW_BLOCK x N entries, not N x N.
ROW_BLOCK = 256


def _contract(d, pairs) -> complex:
    """Sum of prod_a d[a] prod_{a<b} pairs[a, b] over the grid, by BLAS products.

    k = 2 is two matrix-vector products.  k = 3 takes ROW_BLOCK rows i of
    axis 0 at a time: y = (pairs[0, 1][i] d[1]) @ pairs[1, 2], times
    pairs[0, 2][i], summed against d[2] and d[0][i], so its temporaries are
    ROW_BLOCK x N.  k >= 4 loops over the nodes of axis 0, folds row i of
    each pairs[0, a] into d[a], and recurses on the rest, so N^k
    multiply-adds run as N^(k-3) k = 3 contractions beside k - 1 folded
    N x N arrays.
    """
    k = len(d)
    if k == 0:
        return 1.0
    if k == 1:
        return np.sum(d[0])
    if k == 2:
        return d[0] @ pairs[0, 1] @ d[1]
    if k == 3:
        total = 0j
        for lo in range(0, d[0].size, ROW_BLOCK):
            rows = slice(lo, lo + ROW_BLOCK)
            y = (pairs[0, 1][rows] * d[1]) @ pairs[1, 2]
            y *= pairs[0, 2][rows]
            total += d[0][rows] @ (y @ d[2])
        return total
    folded = [d[a] * pairs[0, a] for a in range(1, k)]
    rest = {(a - 1, b - 1): p for (a, b), p in pairs.items() if a > 0}
    total = 0j
    for i in range(d[0].size):
        total += d[0][i] * _contract([f[i] for f in folded], rest)
    return total


def _grid_eval(axes, diag_fn, pair_fn) -> tuple[complex, complex]:
    """The term's sums on the full grid and on the half grid sliced from it."""
    k = len(axes)
    d = [diag_fn(a, axes[a].z) * axes[a].w for a in range(k)]
    pairs = {
        (a, b): pair_fn(a, b, axes[a].z[:, None], axes[b].z[None, :])
        for a in range(k)
        for b in range(a + 1, k)
    }
    full = complex(_contract(d, pairs))
    # Contiguous copies keep the half-grid products on BLAS.
    half = complex(_contract([f[::2] * 2.0 for f in d],
                             {ab: np.ascontiguousarray(p[::2, ::2]) for ab, p in pairs.items()}))
    if cmath.isnan(full):  # a NaN in a half-grid factor is one in the full grid too
        raise ArithmeticError("integrand returned NaN on the grid")
    return full, half


def tensor_result(terms) -> MomentResult:
    """MomentResult of (weight, axes, diag_fn, pair_fn) terms, evaluated one at a time.

    diag_fn(a, z) is the 1-D factor on axis a, pair_fn(a, b, za, zb) the 2-D factor on the
    (a, b) subgrid, each called once per term, on the full grid.  A term with no axes
    contributes its weight.  All terms are sized before any factor is called (at most
    MAX_AXES axes, MAX_POINTS points and MAX_LINE_NODES^2 entries per pair matrix each),
    and each is released once evaluated.
    """
    terms = list(terms)
    for _, axes, _, _ in terms:
        sizes = [axis.z.size for axis in axes]
        if len(sizes) > MAX_AXES:
            raise CostGuardError(
                f"tensor evaluation supports at most {MAX_AXES} axes, got {len(sizes)}")
        if math.prod(sizes) > MAX_POINTS:
            raise CostGuardError(f"tensor grid of {math.prod(sizes)} points exceeds budget "
                                 f"{MAX_POINTS} (axes: {sizes})")
        pair = math.prod(sorted(sizes)[-2:]) if len(sizes) > 1 else 0
        if pair > MAX_LINE_NODES**2:
            raise CostGuardError(f"pair matrix of {pair} entries exceeds budget "
                                 f"{MAX_LINE_NODES}^2 (axes: {sizes})")
    terms.reverse()  # popped from the end, so evaluated in the given order
    value = gap = 0j
    node_counts: tuple[int, ...] = ()
    while terms:
        weight, axes, diag_fn, pair_fn = terms.pop()
        full, half = _grid_eval(axes, diag_fn, pair_fn)
        value += weight * full
        gap += weight * full - weight * half
        if len(axes) > len(node_counts):
            node_counts = tuple(axis.z.size for axis in axes)
    return MomentResult(value=value, err_estimate=abs(gap), node_counts=node_counts)


# ---------------------------------------------------------------------------
# Contour radii.


def c1_rho_radius(params: ModelParams) -> float:
    """Largest safe radius factor for the circle around 1.

    Both cross-pole families z_a = tau^{+-1} z_b stay strictly outside the
    circle iff rho < (1-tau)/(1+tau); the inverse-pair poles need
    rho < tau^{-1/2} - 1.
    """
    tau = params.tau
    return 0.9 * min(tau**-0.5 - 1.0, (1.0 - tau) / (1.0 + tau))


def nested_radii(k: int, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Radius schedules (around 0, around -tau) for the k nested contours.

    Contour a (1-based) uses the a-th entries.  The 0-circles must shrink
    geometrically (r_a < tau r_b for a < b), but the -tau circles need only
    satisfy s_a + tau s_b < tau(1-tau), so they share one radius: shrinking
    them would blow up the integrand through the essential singularity at
    -tau (magnitude e^(c t / s)) and lose the quadrature to cancellation.

    Raises DomainError when the radii underflow or fail the constructive
    pole-exclusion checks of _validate_nested.
    """
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    tau = params.tau
    a = np.arange(1, k + 1)
    r = 0.45 * tau * tau ** (1.5 * (k - a))
    s_flat = 0.4 * min(tau**0.5 - tau, tau * (1.0 - tau) / (1.0 + tau))
    s = np.full(k, s_flat)
    if r[0] < 1e-12 or s[0] < 1e-12:
        raise DomainError(f"nested radii underflow at k={k}")
    _validate_nested(r, s, tau)
    return r, s


def _validate_nested(r, s, tau: float) -> None:
    """Constructive pole exclusion for the nested radius schedules.

    +-tau^{1/2} stay exterior to all pieces, the two pieces of a contour are
    disjoint, and for a < b the image of contour b under multiplication by
    tau stays outside contour a (the ordered cross factors' poles).  Each
    inequality must hold with relative margin 1e-6: the 0-radii shrink like
    tau^(1.5 k), so an absolute margin would refuse valid small-tau schedules.
    """

    def outside(big: float, small: float, what: str) -> None:
        if not big - small > 1e-6 * big:
            raise DomainError(what)

    k = len(r)
    for a in range(k):
        outside(tau**0.5, r[a], "0-circle must keep tau^{1/2} exterior")
        outside(tau**0.5 - tau, s[a], "-tau circle must keep -tau^{1/2} exterior")
        outside(tau, r[a] + s[a], "the two pieces must be disjoint")
    for a in range(k):
        for b in range(a + 1, k):
            # Image of b's pieces under multiplication by tau: circle of
            # radius tau r_b around 0 and circle of radius tau s_b around
            # -tau^2.  Neither may enter contour a.
            outside(tau * r[b], r[a], "image of 0-circle b must stay outside 0-circle a")
            outside(tau * tau - tau * s[b], r[a], "image of -tau circle b must stay outside 0-circle a")
            outside(tau * (1.0 - tau), s[a] + tau * s[b], "image of -tau circle b must stay outside -tau circle a")
            outside(tau - tau * r[b], s[a], "image of 0-circle b must stay outside -tau circle a")
