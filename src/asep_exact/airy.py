"""Crossover-kernel Fredholm determinants for the half-flat scaling limit.

The limiting one-point law of the rescaled height is a Fredholm determinant
det(I - K) on L^2([2^{1/3} r, oo)) of a crossover kernel K interpolating
between Airy2 statistics on one side and Airy1-type statistics on the other.
The kernel is a double contour integral with cubic-exponent weights and
coupling 2u/(u^2 - v^2).  Splitting the coupling as 1/(u - v) + 1/(u + v)
turns it into a real kernel built from Ai alone (Borodin, Ferrari and
Sasamoto, CPAM 61 (2008)).  With a = 2^{-1/3} x and lambda = 2^{1/3} r + s
on the Nystrom grid there are two forms, each equal to the contour kernel up
to a conjugation that leaves the determinant unchanged:

* x <= 0:  K = K_Ai(l, l') + int_0^oo e^{2ay} Ai(l+y) Ai(l'-y) dy;
* x > 0:   with l^ = l + a^2,
           K = e^{a(l-l')} [K_Ai(l^, l^') - int_0^oo e^{-2ay} Ai(l^-y) Ai(l^'+y) dy]
               + 2^{-1/3} Ai(2^{-1/3}(l+l')).

The 1/(u-v) half gives the Airy kernel K_Ai, taken in closed form
(Ai(xi) Ai'(eta) - Ai'(xi) Ai(eta)) / (xi - eta), diagonal
Ai'(xi)^2 - xi Ai(xi)^2, as the limit oracles take it.  The 1/(u+v) half
gives the y-integral; for x > 0 the v contour is moved past the pole at
v = -u so that the integral carries a decaying weight, and the residue of
that pole is the last term.  Both forms agree across x = 0, since
int_{-oo}^{oo} Ai(l+y) Ai(l'-y) dy = 2^{-1/3} Ai(2^{-1/3}(l+l')).

The grid.  Each r gets its own Gauss-Legendre grid from l_min = 2^{1/3} r
to UPPER = 12, where the kernel's diagonal is below 1e-25, at least
MIN_SPAN long (_grid).  On l < 0 the kernel oscillates with wavenumber
sqrt(-l), and the span stops once its phase int sqrt(-l) dl reaches
MAX_PHASE = 200 radians (only r < -35.6): at x in {-8, -2, 0, 0.5, 1} and r
in {-40, -60, -120}, that span and one of twice its phase both give 0.  The
grid has max(GRID_NODES, span sqrt(-l_min) / PHASE_PER_NODE) nodes: 32 on
the benchmark's 7 x 13 grid, where every value is within 1e-14 of a grid 8
longer with twice the nodes (the determinant converges exponentially once
the grid resolves the kernel; Bornemann, Math. Comp. 79 (2010)).

The conjugation.  On x > 0 the factor e^{a(l-l')} sits on K_Ai and the
integral, which decay like Ai(l^); on the residue, which decays only in
l + l', long spans lose every digit.  e^{a(l - l_min)} Ai(l^) still peaks
at e^G, G = a |l_min| - 2a^3/3, and past e^{MAX_GAUGE} = e^40 > 1/eps r is
refused (DomainError): on x in (0, 8], r in [-25, -7], where the value is
below 1e-40, every G <= 40 gave below 5e-22, and the first above 1e-13 came
at G = 43.9.

The y-axis.  The y-integral runs on Gauss-Legendre nodes over [0, Y], one
axis per r.  Ai(l_min + y) (l^_min + y for x > 0) and e^{-2|a|y} decay, and
the axis ends where either falls below 1e-16: at AI_TAIL = 14 or at
e^{-EXP_TAIL}.  The other Ai oscillates with wavenumber sqrt(-z_min),
z_min = l_min - Y, so there are Y_NODES plus Y_DENSITY nodes per unit of
Y sqrt(-z_min) (_y_axes): 182 at x = 0, r = -20.  A table of an r-block
holds R_BLOCK x n x max(n, n_y) entries, refused past MAX_TABLE_ENTRIES
before any is built (CostGuardError).  Ai (airy_ai) is the cost of the
kernel, about 2 n n_y values per r.

Orientation, determined empirically (the determinant must be a CDF in r):

* x -> -infinity reproduces the Airy2 (GUE) determinant F2(2^{1/3} r); at
  finite x the law is F2 shifted by 1/(2|x|) (see below),
* x -> +infinity reproduces det(I - Ai(xi+eta)) on L^2([r, oo)) (Airy1-type)
  superexponentially fast: the residue alone survives, and K_Ai and the
  integral vanish with Ai(l^) as a^2 grows.

Negative-side law at finite x.  For large |a| the y-integral is
Ai(lambda) Ai(lambda')/(2|a|) + O(a^-2).  Since
d/ds K_Ai(lambda+s, lambda'+s) = -Ai(lambda+s) Ai(lambda'+s), that rank-one
term moves the lower endpoint by -1/(2|a|), so

    D(x, r) = F2(2^{1/3} (r - 1/(2|x|))) + O(x^-2).

The unshifted gap to F2 is therefore O(1/|x|) by the kernel itself (2.8e-2
at x = -8), while the gap to the shifted law is 1.0e-3 at x = -8 and
2.3e-4 at x = -16.

The tests check both forms against a direct evaluation of the double
contour integral, and a sweep of x in [-8, 8] and r in [-25, 8] against a
refined grid, each to 1e-13.  A value further than CDF_SLACK outside [0, 1]
is refused, and one within it clipped to [0, 1].
"""

from __future__ import annotations

import math

import numpy as np

from .qfunc import DomainError
from .quad import CostGuardError, _leggauss

CBRT2 = 2.0 ** (1.0 / 3.0)
INV_CBRT2 = 2.0 ** (-1.0 / 3.0)

# Ai(14) = 9.9e-17 and e^-37 = 8.5e-17: where the y-axis ends
AI_TAIL = 14.0
EXP_TAIL = 37.0
# Ai and Ai' are below the least double past this argument
AI_UNDERFLOW = 110.0
# y-axis nodes: a floor, plus nodes per unit of Y sqrt(-z_min)
Y_NODES = 24
Y_DENSITY = 0.5
# the Nystrom grid: its upper end, least span, and most phase int sqrt(-l) dl
UPPER = 12.0
MIN_SPAN = 8.0
MAX_PHASE = 200.0
# grid nodes: a floor, and radians of sqrt(-l_min) per node across the span
GRID_NODES = 32
PHASE_PER_NODE = 3.0
# r values per kernel stack
R_BLOCK = 16
# entries of one table of an r-block, R_BLOCK x n x max(n, n_y): 32 MB
MAX_TABLE_ENTRIES = 1 << 22
# the x > 0 form's conjugation factor at most e^this on K_Ai: e^40 = 2.4e17 > 1/eps
MAX_GAUGE = 40.0
# a value further than this outside [0, 1] is no CDF and is refused
CDF_SLACK = 1e-9

__all__ = [
    "ConsistencyError",
    "airy_ai",
    "airy_oracles",
    "halfflat_limit_cdf",
]


class ConsistencyError(RuntimeError):
    """A determinant came out NaN or infinite, or a CDF value outside [0, 1]."""


def airy_ai(s):
    """Airy function Ai on the real line.

    scipy.special.airy on [-10, 10]; past it the Bessel identities
    Ai(z) = sqrt(z/3) K_{1/3}(zeta) / pi and
    Ai(-z) = sqrt(z) (J_{1/3}(zeta) + J_{-1/3}(zeta)) / 3, zeta = 2 z^{3/2} / 3
    (DLMF 9.6.1, 9.6.6) at a third of its cost or less.  Both are within
    2e-13 of mpmath there, relative to the envelope |s|^{-1/4} / sqrt(pi) for
    s < -10 and to Ai(s) for s > 10; 0 past AI_UNDERFLOW.

    Parameters
    ----------
    s : float or array_like
        Real evaluation points.

    Returns
    -------
    float or numpy.ndarray
        Ai(s), real; a float for scalar input, else an array of the input's
        shape.
    """
    # imported here, not at module top: scipy.special slows every CLI start-up
    from scipy.special import airy, jv, kv

    z = np.asarray(s, dtype=float)
    out = np.zeros(z.shape)
    right = (z > 10.0) & (z < AI_UNDERFLOW)
    left = z < -10.0
    mid = ~(left | (z > 10.0))
    out[mid] = airy(z[mid])[0]
    t = z[right]
    out[right] = np.sqrt(t / 3.0) / math.pi * kv(1.0 / 3.0, 2.0 / 3.0 * t * np.sqrt(t))
    t = -z[left]
    zeta = 2.0 / 3.0 * t * np.sqrt(t)
    out[left] = np.sqrt(t) / 3.0 * (jv(1.0 / 3.0, zeta) + jv(-1.0 / 3.0, zeta))
    return float(out) if out.ndim == 0 else out


def _airy_kernel(xi: np.ndarray) -> np.ndarray:
    """Closed-form Airy kernel K_Ai on the nodes of each row of xi, as (..., n, n)."""
    from scipy.special import airy

    live = xi < AI_UNDERFLOW
    ai, aip = np.zeros(xi.shape), np.zeros(xi.shape)
    ai[live], aip[live] = airy(xi[live])[:2]
    diag = np.arange(xi.shape[-1])
    gap = xi[..., :, None] - xi[..., None, :]
    gap[..., diag, diag] = 1.0
    kernel = (ai[..., :, None] * aip[..., None, :] - aip[..., :, None] * ai[..., None, :]) / gap
    kernel[..., diag, diag] = aip**2 - xi * ai**2
    return kernel


def _grid(lowers):
    """Span and node count (a float, for the budget check) of the grid from each lower end."""
    depth = np.maximum(-lowers, 0.0)
    # (2/3) (depth^{3/2} - (depth - span)^{3/2}) = MAX_PHASE, where the phase gets there
    with np.errstate(over="ignore"):
        rest = depth**1.5 - 1.5 * MAX_PHASE
    capped = np.where(rest > 0.0, depth - np.cbrt(rest) ** 2, np.inf)
    spans = np.maximum(MIN_SPAN, np.minimum(UPPER - lowers, capped))
    counts = np.maximum(GRID_NODES, np.ceil(spans * np.sqrt(depth) / PHASE_PER_NODE))
    return spans, counts


def _nodes(lowers, spans, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n Gauss-Legendre nodes and weights on [l, l + span] for each lower end l, as (..., n)."""
    base, weights = _leggauss(n)
    half = 0.5 * np.asarray(spans)[..., None]
    return np.asarray(lowers)[..., None] + half * (base + 1.0), half * weights


def _y_axes(starts: np.ndarray, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Length Y and node count of the y-axis for each start l_min of the decaying Ai.

    Counts are floats, so a budget check sees an infinite one before any
    integer is made of it.
    """
    with np.errstate(over="ignore"):
        length = np.maximum(AI_TAIL - starts, 0.0)
        if a != 0.0:
            length = np.minimum(length, EXP_TAIL / (2.0 * abs(a)))
        phase = length * np.sqrt(np.maximum(length - starts, 0.0))
    count = np.where(length > 0.0, Y_NODES + np.ceil(Y_DENSITY * phase), 0.0)
    return length, count


def _kernel_stack(lam: np.ndarray, x: float, lengths: np.ndarray,
                  counts: np.ndarray) -> np.ndarray:
    """Crossover kernel on the nodes of each row of lam, stacked as (rows, n, n).

    The y-integral of row b runs on counts[b] Gauss-Legendre nodes over
    [0, lengths[b]], so a value does not depend on the other r of its block.
    The axes are padded to the longest, with Ai left 0 on the padding, and the
    integrals are one batched matrix product left diag(w) right^T, with
    left = Ai(l + sigma y), right = Ai(l - sigma y), sigma = +1 for x <= 0
    and -1 for x > 0.
    """
    a = INV_CBRT2 * x
    hat = lam + a * a if x > 0.0 else lam
    kernel = _airy_kernel(hat)
    width = int(counts.max())
    if width:
        sigma = 1.0 if x <= 0.0 else -1.0
        y, wy = np.zeros((lam.shape[0], width)), np.zeros((lam.shape[0], width))
        for count in np.unique(counts[counts > 0]):
            rows = counts == count
            y[rows, :count], w = _nodes(0.0, lengths[rows], int(count))
            wy[rows, :count] = sigma * w * np.exp(-2.0 * abs(a) * y[rows, :count])
        live = np.broadcast_to((np.arange(width) < counts[:, None])[:, None, :], hat.shape + (width,))
        left, right = np.zeros(live.shape), np.zeros(live.shape)
        left[live] = airy_ai((hat[:, :, None] + sigma * y[:, None, :])[live])
        right[live] = airy_ai((hat[:, :, None] - sigma * y[:, None, :])[live])
        kernel += (left * wy[:, None, :]) @ right.transpose(0, 2, 1)
    if x > 0.0:
        # on a long span e^{a(l_i - l_j)} overflows only where K_Ai and the integral are 0
        with np.errstate(over="ignore", invalid="ignore"):
            conj = np.exp(a * (lam[:, :, None] - lam[:, None, :]))
            kernel = np.where(kernel == 0.0, 0.0, conj * kernel)
        # the residue is symmetric: Ai is taken on the upper triangle and mirrored
        i, j = np.triu_indices(lam.shape[1])
        ai = np.empty(lam.shape + lam.shape[1:])
        ai[:, i, j] = ai[:, j, i] = airy_ai(INV_CBRT2 * (lam[:, i] + lam[:, j]))
        kernel += INV_CBRT2 * ai
    return kernel


def _nystrom_det(kernel_matrix: np.ndarray, weights: np.ndarray):
    """det(I - K) for one n x n kernel (a float) or a stack of them (an array), on their weights."""
    root = np.sqrt(weights)
    eye = np.eye(weights.shape[-1])
    det = np.atleast_1d(np.linalg.det(eye - root[..., :, None] * kernel_matrix * root[..., None, :]))
    bad = ~np.isfinite(det)
    if bad.any():
        raise ConsistencyError(f"determinant {det[bad][0]} is not finite")
    return float(det[0]) if kernel_matrix.ndim == 2 else det


def _cdf_on_grids(x: float, lowers: np.ndarray, spans, counts) -> np.ndarray:
    """det(I - K) on [l, l + span] with n nodes for each lower end l (span, n: each or one for all).

    Lower ends of one n share stacks of at most R_BLOCK kernels; tables past
    MAX_TABLE_ENTRIES are refused before any node is built (CostGuardError).
    """
    _, spans, counts = np.broadcast_arrays(lowers, spans, counts)
    a = INV_CBRT2 * x
    lengths, y_counts = _y_axes(lowers + (a * a if x > 0.0 else 0.0), a)
    n, n_y = counts.max(), y_counts.max()
    # the tables of a block, and the n_y x n_y matrix that the y-axis rule is built from
    entries = max(R_BLOCK * n * max(n, n_y), n_y**2)
    if entries > MAX_TABLE_ENTRIES:
        raise CostGuardError(f"kernel tables of {entries:.3g} entries ({n:.3g} grid nodes, "
                             f"{n_y:.3g} y-nodes) exceed budget {MAX_TABLE_ENTRIES}")
    out = np.empty(lowers.size)
    for count in np.unique(counts):
        rows = np.flatnonzero(counts == count)
        for b in np.split(rows, range(R_BLOCK, rows.size, R_BLOCK)):
            lam, w = _nodes(lowers[b], spans[b], int(count))
            out[b] = _nystrom_det(_kernel_stack(lam, x, lengths[b], y_counts[b].astype(int)), w)
    return out


def airy_oracles(s: float) -> tuple[float, float]:
    """Independent Airy2 and Airy1-type Fredholm determinant oracles.

    The Airy2 kernel is the closed-form K_Ai of the module docstring, the
    Airy1-type kernel Ai(xi + eta); neither has the crossover kernel's
    y-integral or residue.  Both are taken on the grid _grid sizes for s.
    The crossover determinant approaches the first as x -> -infinity (at
    argument 2^{1/3} r) and the second as x -> +infinity (at argument r).

    Parameters
    ----------
    s : float
        Lower endpoint, restricted to [-10, 6].

    Returns
    -------
    tuple of float
        (Airy2 determinant, Airy1-type determinant).
    """
    if not -10.0 <= s <= 6.0:
        raise DomainError("oracle endpoint outside [-10, 6]")
    span, n = _grid(np.float64(s))
    xi, w = _nodes(s, span, int(n))
    airy2 = _nystrom_det(_airy_kernel(xi), w)
    airy1 = _nystrom_det(airy_ai(xi[:, None] + xi[None, :]), w)
    return airy2, airy1


def halfflat_limit_cdf(x: float, r):
    """Predicted limiting CDF of the scaled half-flat height at (x, r).

    Evaluates det(I - K) on L^2([2^{1/3} r, oo)) for the crossover kernel at
    spatial parameter x, which is the conjectured limit of the probability
    that the centered height at position t^{2/3} x, scaled by t^{1/3} and
    with the parabola removed on x <= 0, stays above -r, each r on a grid
    sized from it (_grid, _cdf_on_grids).

    Parameters
    ----------
    x : float
        Spatial parameter, finite; its sign picks the form of the kernel.
    r : float or 1-D sequence of float
        CDF argument(s); at least one, and every one finite.

    Returns
    -------
    float or numpy.ndarray
        Determinant value(s), clipped to [0, 1] from within CDF_SLACK of it:
        a float for scalar r, else an array of len(r).
    """
    if not math.isfinite(x):
        raise DomainError(f"need finite x, got {x}")
    rs = np.asarray(r, dtype=float)
    if rs.ndim > 1:
        raise DomainError("r must be a scalar or a 1-D sequence")
    if rs.size == 0:
        raise DomainError("need at least one r, got none")
    if not np.all(np.isfinite(rs)):
        raise DomainError(f"need finite r, got {rs[~np.isfinite(rs)][0]}")
    lowers = CBRT2 * np.atleast_1d(rs)
    a = INV_CBRT2 * x
    gauge = a * -lowers.min() - 2.0 / 3.0 * a**3  # see the module docstring
    if x > 0.0 and gauge > MAX_GAUGE:
        raise DomainError(f"at x = {x:g}, r = {rs.min():g} the conjugation factor reaches "
                          f"e^{gauge:.3g}, past e^{MAX_GAUGE:g}: no digit of det(I - K) survives")
    out = _cdf_on_grids(x, lowers, *_grid(lowers))
    bad = np.abs(out - 0.5) > 0.5 + CDF_SLACK
    if bad.any():
        i = bad.argmax()
        raise ConsistencyError(f"value {out[i]:.3e} at r = {rs.flat[i]:g} lies outside [0, 1]")
    # the CDF lies in [0, 1], so clipping a value moves it no further from it (-0 too)
    out = np.where(out > 0.0, np.minimum(out, 1.0), 0.0)
    return float(out[0]) if rs.ndim == 0 else out
