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
           K = K_Ai(l^, l^') - int_0^oo e^{-2ay} Ai(l^-y) Ai(l^'+y) dy
               + e^{-a(l-l')} 2^{-1/3} Ai(2^{-1/3}(l+l')).

The 1/(u-v) half gives the Airy kernel K_Ai, taken in closed form
(Ai(xi) Ai'(eta) - Ai'(xi) Ai(eta)) / (xi - eta), diagonal
Ai'(xi)^2 - xi Ai(xi)^2, as the limit oracles take it.  The 1/(u+v) half
gives the y-integral; for x > 0 the v contour is moved past the pole at
v = -u so that the integral carries a decaying weight, and the residue of
that pole is the last term.  Both forms agree across x = 0, since
int_{-oo}^{oo} Ai(l+y) Ai(l'-y) dy = 2^{-1/3} Ai(2^{-1/3}(l+l')).

The y-axis.  The y-integral runs on Gauss-Legendre nodes over [0, Y], one
axis per r.  One factor decays: Ai at the argument l_min + y (l^_min + y for
x > 0), from the grid's lower end l_min on, and the weight e^{-2|a|y}.  The
axis ends where either falls below 1e-16: at an Ai argument of AI_TAIL = 14
or at e^{-2|a|y} = e^{-EXP_TAIL}.  The other factor oscillates, with
wavenumber sqrt(-z) at its most negative argument z_min = l_min - Y, so the
node count is Y_NODES plus Y_DENSITY nodes per unit of Y sqrt(-z_min) (see
_y_axes); at x = 0 and r = -20 that is 182 nodes.  Each table of an
r-block holds R_BLOCK x n x max(n, n_y) entries, refused past
MAX_TABLE_ENTRIES before any is built (CostGuardError).  Ai comes from
airy_ai; its cost is the cost of the kernel, about 2 n n_y values per r.

Orientation, determined empirically (the determinant must be a CDF in r):

* x -> -infinity reproduces the Airy2 (GUE) determinant F2(2^{1/3} r); at
  finite x the law is F2 shifted by 1/(2|x|) (see below),
* x -> +infinity reproduces the Airy1-type determinant
  det(I - Ai(xi+eta)) on L^2([r, oo)) superexponentially fast: the
  residue term alone survives, and K_Ai and the integral vanish with
  Ai(l^) as a^2 grows.

Negative-side law at finite x.  For large |a| the y-integral is
Ai(lambda) Ai(lambda')/(2|a|) + O(a^-2).  Since
d/ds K_Ai(lambda+s, lambda'+s) = -Ai(lambda+s) Ai(lambda'+s), that rank-one
term moves the lower endpoint by -1/(2|a|), so

    D(x, r) = F2(2^{1/3} (r - 1/(2|x|))) + O(x^-2).

The unshifted gap to F2 is therefore O(1/|x|) by the kernel itself (2.8e-2
at x = -8), while the gap to the shifted law is 1.0e-3 at x = -8 and
2.3e-4 at x = -16.

The tests check both forms against a direct evaluation of the double
contour integral to 1e-13.  On the Nystrom grid the determinant converges
exponentially in n (Bornemann, Math. Comp. 79 (2010)) once the grid
resolves the kernel's oscillation, sqrt(-l_min) radians per unit of l; a
grid with more than PHASE_PER_NODE radians per node on its span is refused.
The span is not sized from the kernel, so at far-negative r on x > 0 the
default span 10 truncates it, and a value that leaves [0, 1] by more than
CDF_SLACK is refused.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

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
# r values per kernel stack
R_BLOCK = 16
# entries of one table of an r-block, R_BLOCK x n x max(n, n_y): 32 MB
MAX_TABLE_ENTRIES = 1 << 22
# radians of the kernel's phase per grid node at most: sqrt(-l) per unit of l
PHASE_PER_NODE = 4.0
# a value further than this outside [0, 1] is no CDF and is refused
CDF_SLACK = 1e-9

__all__ = [
    "ConsistencyError",
    "NystromGrid",
    "airy_ai",
    "airy_oracles",
    "halfflat_limit_cdf",
]


class ConsistencyError(RuntimeError):
    """A determinant came out NaN or infinite, or a CDF value outside [0, 1]."""


@dataclass(frozen=True)
class NystromGrid:
    """Gauss-Legendre discretization of [lower, lower + span].

    Parameters
    ----------
    lower : float
        Left endpoint; the determinant lives on L^2([lower, oo)).
    span : float, optional
        Truncation length, finite.  The kernel decays superexponentially,
        but not fast enough on x > 0 at negative r: at x = 8 span 10 is off
        by 3.7e-7 at r = -3 and 5.0e-4 at r = -8, far above quadrature error.
    n : int, optional
        Number of Gauss-Legendre nodes.
    """

    lower: float
    span: float = 10.0
    n: int = 40

    def __post_init__(self) -> None:
        if not np.isfinite(self.lower):
            raise DomainError("grid lower endpoint must be finite")
        if not np.isfinite(self.span):
            raise DomainError(f"grid span must be finite, got {self.span}")
        if self.span < 8.0:
            raise DomainError("span below 8 truncates the kernel support")
        if self.n < 24:
            raise DomainError("need at least 24 quadrature nodes")

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        base, weights = _leggauss(self.n)
        half = 0.5 * self.span
        return self.lower + half * (base + 1.0), half * weights


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


def _y_axes(starts: np.ndarray, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Length Y and node count of the y-axis for each start l_min of the decaying Ai.

    Counts are floats, so a budget check sees an infinite one before any
    integer is made of it.
    """
    length = np.maximum(AI_TAIL - starts, 0.0)
    if a != 0.0:
        length = np.minimum(length, EXP_TAIL / (2.0 * abs(a)))
    phase = length * np.sqrt(np.maximum(length - starts, 0.0))
    count = np.where(length > 0.0, Y_NODES + np.ceil(Y_DENSITY * phase), 0.0)
    return length, count


def _kernel_stack(lowers: np.ndarray, offsets: np.ndarray, x: float,
                  lengths: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Crossover kernel on each grid lower + offsets, stacked as (lowers, n, n).

    The y-integral of row b runs on counts[b] Gauss-Legendre nodes over
    [0, lengths[b]], so a value does not depend on the other r of its block.
    The axes are padded to the longest, with Ai left 0 on the padding, and the
    integrals are one batched matrix product left diag(w) right^T, with
    left = Ai(l + sigma y), right = Ai(l - sigma y), sigma = +1 for x <= 0
    and -1 for x > 0.
    """
    a = INV_CBRT2 * x
    lam = np.asarray(lowers, dtype=float)[:, None] + offsets
    hat = lam + a * a if x > 0.0 else lam
    kernel = _airy_kernel(hat)
    width = int(counts.max())
    if width:
        sigma = 1.0 if x <= 0.0 else -1.0
        y, wy = np.zeros((lam.shape[0], width)), np.zeros((lam.shape[0], width))
        for count in np.unique(counts[counts > 0]):
            rows = counts == count
            base, weights = _leggauss(int(count))
            half = 0.5 * lengths[rows, None]
            y[rows, :count] = half * (base + 1.0)
            wy[rows, :count] = sigma * half * weights * np.exp(-2.0 * abs(a) * y[rows, :count])
        live = np.broadcast_to((np.arange(width) < counts[:, None])[:, None, :], hat.shape + (width,))
        left, right = np.zeros(live.shape), np.zeros(live.shape)
        left[live] = airy_ai((hat[:, :, None] + sigma * y[:, None, :])[live])
        right[live] = airy_ai((hat[:, :, None] - sigma * y[:, None, :])[live])
        kernel += (left * wy[:, None, :]) @ right.transpose(0, 2, 1)
    if x > 0.0:
        # the residue, symmetric in (i, j) but for its conjugation factor:
        # Ai is taken on the upper triangle and mirrored
        n = offsets.size
        i, j = np.triu_indices(n)
        ai = np.empty(lam.shape + (n,))
        ai[:, i, j] = ai[:, j, i] = airy_ai(INV_CBRT2 * (lam[:, i] + lam[:, j]))
        # on a long span e^{-a(s_i - s_j)} overflows only where Ai is 0
        with np.errstate(over="ignore", invalid="ignore"):
            conj = np.exp(-a * (offsets[:, None] - offsets))
            kernel += INV_CBRT2 * np.where(ai == 0.0, 0.0, conj * ai)
    return kernel


def _nystrom_det(kernel_matrix: np.ndarray, weights: np.ndarray):
    """det(I - K) for one n x n kernel (a float) or a stack of them (an array)."""
    root = np.sqrt(weights)
    det = np.atleast_1d(np.linalg.det(np.eye(len(weights)) - root[:, None] * kernel_matrix * root))
    bad = ~np.isfinite(det)
    if bad.any():
        raise ConsistencyError(f"determinant {det[bad][0]} is not finite")
    return float(det[0]) if kernel_matrix.ndim == 2 else det


def airy_oracles(s: float, grid: NystromGrid | None = None) -> tuple[float, float]:
    """Independent Airy2 and Airy1-type Fredholm determinant oracles.

    The Airy2 kernel is the closed-form Airy kernel
    (Ai(xi) Ai'(eta) - Ai'(xi) Ai(eta)) / (xi - eta), with diagonal
    Ai'(xi)^2 - xi Ai(xi)^2; the Airy1-type kernel is Ai(xi + eta). Neither
    has the crossover kernel's y-integral or residue. Both determinants are
    taken on [s, s + span]. The crossover determinant approaches the first
    as x -> -infinity (at argument 2^{1/3} r) and the second as
    x -> +infinity (at argument r).

    Parameters
    ----------
    s : float
        Lower endpoint, restricted to [-10, 6].
    grid : NystromGrid, optional
        Quadrature override; the lower endpoint is forced to s.

    Returns
    -------
    tuple of float
        (Airy2 determinant, Airy1-type determinant).
    """
    if not -10.0 <= s <= 6.0:
        raise DomainError("oracle endpoint outside [-10, 6]")
    grid = NystromGrid(lower=s) if grid is None else dataclasses.replace(grid, lower=s)
    xi, w = grid.nodes()
    airy2 = _nystrom_det(_airy_kernel(xi), w)
    airy1 = _nystrom_det(airy_ai(xi[:, None] + xi[None, :]), w)
    return airy2, airy1


def halfflat_limit_cdf(x: float, r, grid: NystromGrid | None = None):
    """Predicted limiting CDF of the scaled half-flat height at (x, r).

    Evaluates det(I - K) on L^2([2^{1/3} r, oo)) for the crossover kernel at
    spatial parameter x, which is the conjectured limit of the probability
    that the centered height at position t^{2/3} x, scaled by t^{1/3} and
    with the parabola removed on x <= 0, stays above -r.  A sequence of r
    is evaluated as stacks of at most R_BLOCK determinants (_kernel_stack).

    Parameters
    ----------
    x : float
        Spatial parameter, finite; its sign picks the form of the kernel.
    r : float or 1-D sequence of float
        CDF argument(s); every one must be finite.
    grid : NystromGrid, optional
        Quadrature settings; the lower endpoint is forced to 2^{1/3} r.

    Returns
    -------
    float or numpy.ndarray
        Determinant value(s) in [0, 1] up to discretization error: a float
        for scalar r, else an array of len(r).
    """
    if not math.isfinite(x):
        raise DomainError(f"need finite x, got {x}")
    grid = NystromGrid(lower=0.0) if grid is None else dataclasses.replace(grid, lower=0.0)
    rs = np.asarray(r, dtype=float)
    if rs.ndim > 1:
        raise DomainError("r must be a scalar or a 1-D sequence")
    if not np.all(np.isfinite(rs)):
        raise DomainError(f"need finite r, got {rs[~np.isfinite(rs)][0]}")
    lowers = CBRT2 * np.atleast_1d(rs)
    # a grid with fewer nodes aliases the kernel's oscillation: on n 40, span 10
    # and x = -8 the value drifts from 1e-12 at r = -550 to 0.4 at r = -850
    phase = grid.span * math.sqrt(max(0.0, -lowers.min()))
    if phase > PHASE_PER_NODE * grid.n:
        raise DomainError(f"{grid.n} grid nodes cannot resolve the kernel at r = {rs.min():g}: "
                          f"{phase:.3g} radians on the span, above {PHASE_PER_NODE:g} per node")
    a = INV_CBRT2 * x
    lengths, counts = _y_axes(lowers + (a * a if x > 0.0 else 0.0), a)
    n_y = counts.max()
    # the tables of a block, and the n_y x n_y matrix that the y-axis rule is built from
    entries = max(R_BLOCK * grid.n * max(grid.n, n_y), n_y**2)
    if entries > MAX_TABLE_ENTRIES:
        raise CostGuardError(f"kernel tables of {entries:.3g} entries ({grid.n} grid nodes, "
                             f"{n_y:.3g} y-nodes) exceed budget {MAX_TABLE_ENTRIES}")
    offsets, w = grid.nodes()
    out = np.empty(lowers.size)
    for i in range(0, lowers.size, R_BLOCK):
        b = slice(i, i + R_BLOCK)
        out[b] = _nystrom_det(_kernel_stack(lowers[b], offsets, x, lengths[b],
                                            counts[b].astype(int)), w)
    # on x > 0 at far-negative r the span truncates the kernel (see NystromGrid),
    # and the determinant of what is left can be far from any CDF value
    bad = np.abs(out - 0.5) > 0.5 + CDF_SLACK
    if bad.any():
        i = bad.argmax()
        raise ConsistencyError(f"value {out[i]:.3e} at r = {rs.flat[i]:g} lies outside [0, 1]; "
                               "the span truncates the kernel")
    return float(out[0]) if rs.ndim == 0 else out
