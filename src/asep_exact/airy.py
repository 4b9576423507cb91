"""Crossover-kernel Fredholm determinants for the half-flat scaling limit.

The limiting one-point law of the rescaled height is a Fredholm determinant
det(I - K) on L^2([2^{1/3} r, oo)) of a crossover kernel K interpolating
between Airy2 statistics on one side and Airy1-type statistics on the other.
The kernel is a double contour integral with cubic-exponent weights: the
lambda-carrying variable u runs over rays through 1 at angles +-pi/3, the
lambda'-carrying variable v over rays through 0 at angles +-2pi/3, both
oriented upward, with coupling factor 2u/(u^2-v^2) and a parabolic shift
x^2 2^{-2/3} applied to the arguments when x <= 0.

Orientation, determined empirically (the determinant must be a CDF in r):

* the coupling numerator carries the lambda-side variable u; with the
  numerator on the v side the determinant exceeds 1 for x >= 0 and no sign
  choice repairs both spatial limits,
* x -> -infinity reproduces the Airy2 (GUE) determinant F2(2^{1/3} r); at
  finite x the law is F2 shifted by 1/(2|x|) (see below),
* x -> +infinity reproduces the Airy1-type determinant
  det(I - Ai(xi+eta)) on L^2([r, oo)) superexponentially fast.

Negative-side law at finite x.  The coupling splits as
2u/(u^2-v^2) = 1/(u-v) + 1/(u+v).  For x < 0, with a = 2^{-1/3} x and the
conjugation e^{a(lambda-lambda')} dropped (the split_neg substitution), the
kernel takes the Airy-function form of Borodin, Ferrari & Sasamoto
(CPAM 2008):

    K(lambda, lambda') = K_Ai(lambda, lambda')
                         + int_0^oo e^{2ay} Ai(lambda+y) Ai(lambda'-y) dy.

The 1/(u-v) half gives the Airy kernel K_Ai; the 1/(u+v) half gives the
integral, which for large |a| is Ai(lambda) Ai(lambda')/(2|a|) + O(a^-2).
Since d/ds K_Ai(lambda+s, lambda'+s) = -Ai(lambda+s) Ai(lambda'+s), that
rank-one term moves the lower endpoint by -1/(2|a|), so

    D(x, r) = F2(2^{1/3} (r - 1/(2|x|))) + O(x^-2).

The unshifted gap to F2 is therefore O(1/|x|) by the kernel itself (2.8e-2
at x = -8), while the gap to the shifted law is 1.0e-3 at x = -8 and
2.3e-4 at x = -16.  The tests rebuild the Airy-function form from
scipy.special.airy and match this module's determinant to about 1e-13.

Three evaluation routes keep the integrand well conditioned:

* direct (-2.5 <= x <= 3.0): contours exactly as stated above;
* split_neg (x < -2.5): substituting u -> u + 2^{-1/3} x absorbs the
  parabolic shift; the conjugation factor this produces is dropped, so the
  returned kernel is determinant-equivalent to the direct one (verified to
  1e-14 at the route boundary);
* split_pos (x > 3.0): the v contour is rebased to -(a+1) with
  a = 2^{-1/3} x, sweeping the pole at v = -u; the swept residue equals
  2^{-1/3} Ai(2^{-1/3}(lambda+lambda')) and is added back via airy_ai.

The Airy function itself comes from scipy.special.airy, and the comparison
oracles build the Airy2 kernel in closed form from Ai and Ai' (as Bornemann,
Math. Comp. 2010, evaluates F2), so they share no quadrature with the
crossover contour machinery.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qfunc import DomainError
from .quad import _leggauss, gl_panels, panel_count

CBRT2 = 2.0 ** (1.0 / 3.0)
INV_CBRT2 = 2.0 ** (-1.0 / 3.0)

ROUTE_NEG_X = -2.5
ROUTE_POS_X = 3.0
TRUNCATION_FLOOR = 1e-18
IMAG_TOL = 1e-8
# r values per kernel stack: a few MB of temporaries whatever len(r) is
R_BLOCK = 16

__all__ = [
    "ConsistencyError",
    "KernelSpec",
    "NystromGrid",
    "airy_ai",
    "airy_oracles",
    "halfflat_limit_cdf",
]


class ConsistencyError(RuntimeError):
    """A value that must be real (up to roundoff) came out complex."""


@dataclass(frozen=True)
class KernelSpec:
    """Contour settings for the crossover kernel.

    Parameters
    ----------
    x : float
        Spatial parameter of the kernel; enters the quadratic exponent
        through a = 2^{-1/3} x and the parabolic argument shift for x <= 0.
    ray_length : float, optional
        Truncation length of each contour ray.
    nodes_per_ray : int, optional
        Requested quadrature density per ray (panelized Gauss-Legendre).
    """

    x: float
    ray_length: float = 8.0
    nodes_per_ray: int = 96

    def __post_init__(self) -> None:
        if not np.isfinite(self.x):
            raise DomainError("kernel spatial parameter must be finite")
        if self.ray_length < 6.0:
            raise DomainError("ray_length below 6 cannot reach cubic decay")
        if self.nodes_per_ray < 32:
            raise DomainError("need at least 32 nodes per ray")


@dataclass(frozen=True)
class NystromGrid:
    """Gauss-Legendre discretization of [lower, lower + span].

    Parameters
    ----------
    lower : float
        Left endpoint; the determinant lives on L^2([lower, oo)).
    span : float, optional
        Truncation length.  The kernel decays superexponentially, but not
        fast enough on split_pos at negative r: at x = 8 span 10 is off by
        3.7e-7 at r = -3 and 5.0e-4 at r = -8, far above quadrature error.
    n : int, optional
        Number of Gauss-Legendre nodes.
    """

    lower: float
    span: float = 10.0
    n: int = 40

    def __post_init__(self) -> None:
        if not np.isfinite(self.lower):
            raise DomainError("grid lower endpoint must be finite")
        if self.span < 8.0:
            raise DomainError("span below 8 truncates the kernel support")
        if self.n < 24:
            raise DomainError("need at least 24 quadrature nodes")

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        base, weights = _leggauss(self.n)
        half = 0.5 * self.span
        return self.lower + half * (base + 1.0), half * weights


def airy_ai(s):
    """Airy function Ai on the real line, from scipy.special.airy.

    Parameters
    ----------
    s : float or array_like
        Real evaluation points.

    Returns
    -------
    float or numpy.ndarray
        Ai(s), real; a float for scalar input, else an array of the input's
        shape.  For large positive s the value underflows to 0.
    """
    # imported here, not at module top: scipy.special slows every CLI start-up
    from scipy.special import airy

    out = airy(np.asarray(s, dtype=float))[0]
    return float(out) if out.ndim == 0 else out


def _route(x: float) -> str:
    if x < ROUTE_NEG_X:
        return "split_neg"
    if x > ROUTE_POS_X:
        return "split_pos"
    return "direct"


@lru_cache(maxsize=32)
def _wedge_axis(
    base: float, angle: float, length: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    # incoming ray base + s e^{-i angle} traversed inward (direction -1,
    # nodes reversed), then the outgoing ray base + s e^{i angle}; weights
    # carry the 1/(2 pi i) prefactor
    s, ws = gl_panels(0.0, length, panel_count(length, n))
    zs, wts = [], []
    for direction in (-1, 1):
        e = np.exp(1j * (direction * angle))
        zs.append((base + s * e)[::direction])
        wts.append((direction * ws * e / (2j * math.pi))[::direction])
    z = np.concatenate(zs)
    w = np.concatenate(wts)
    z.setflags(write=False)
    w.setflags(write=False)
    return z, w


def _guard_rays(log_mag: np.ndarray, which: str) -> None:
    # axis ordering: incoming ray far end first, outgoing ray far end last
    peak = float(np.max(log_mag))
    tail = max(float(np.max(log_mag[:16])), float(np.max(log_mag[-16:])))
    if tail - peak > math.log(TRUNCATION_FLOOR):
        warnings.warn(
            f"{which} ray too short for cubic decay; increase ray_length",
            RuntimeWarning,
            stacklevel=3,
        )


@lru_cache(maxsize=2)
def _contour_factors(spec: KernelSpec, route: str):
    """The parts of the kernel fixed by (spec, route), built once and read-only.

    Returns the u and v axes with their weights, the cubic exponents exp_u
    and exp_v on them, and the coupling matrix: each axis has two rays of
    16 * panel_count(ray_length, nodes_per_ray) nodes, so the coupling is
    384 x 384 complex (2.4 MB) at the defaults.
    """
    a = INV_CBRT2 * spec.x
    vbase = -(a + 1.0) if route == "split_pos" else 0.0
    u, wu = _wedge_axis(1.0, math.pi / 3.0, spec.ray_length, spec.nodes_per_ray)
    v, wv = _wedge_axis(vbase, 2.0 * math.pi / 3.0, spec.ray_length, spec.nodes_per_ray)
    if route == "split_neg":
        exp_u = u**3 / 3.0
        exp_v = -(v**3) / 3.0
        coupling = (
            2.0
            * (u[:, None] - a)
            / ((u[:, None] - v[None, :]) * (u[:, None] + v[None, :] - 2.0 * a))
        )
    else:
        exp_u = u**3 / 3.0 + a * u**2
        exp_v = -(v**3) / 3.0 - a * v**2
        coupling = 2.0 * u[:, None] / (u[:, None] ** 2 - v[None, :] ** 2)
    for arr in (exp_u, exp_v, coupling):
        arr.setflags(write=False)
    return u, wu, v, wv, exp_u, exp_v, coupling


def _swept_residue(lam: np.ndarray) -> np.ndarray:
    """2^{-1/3} Ai(2^{-1/3}(lam_i + lam_j)) for each row of lam; symmetric, so
    airy_ai is taken on the upper triangle and mirrored."""
    i, j = np.triu_indices(lam.shape[-1])
    tri = INV_CBRT2 * airy_ai(INV_CBRT2 * (lam[..., i] + lam[..., j]))
    out = np.empty(lam.shape + lam.shape[-1:])
    out[..., i, j] = tri
    out[..., j, i] = tri
    return out


def _kernel_stack(
    lowers: np.ndarray, offsets: np.ndarray, spec: KernelSpec, route: str | None = None
) -> np.ndarray:
    """Crossover kernel on each grid lower + offsets, stacked as (lowers, n, n).

    On lam_i = lower + s_i the u-side factor exp(-(lam_i - shift) u + exp_u) w_u
    is exp(-(lower - shift) u), which alone moves with lower, times the table
    exp(-s_i u + exp_u) w_u; the v side splits the same way.  So the two
    tables are built once per call, each lower adds U + V exponentials and
    two diagonal scalings, and the coupling product over all lowers is one
    matrix product.  The contours, exponents and coupling come from
    _contour_factors; the ray guards run for every lower.
    """
    route = _route(spec.x) if route is None else route
    if route == "split_neg" and spec.x > 0.0:
        raise DomainError("split_neg route requires x <= 0")
    u, wu, v, wv, exp_u, exp_v, coupling = _contour_factors(spec, route)
    shift = 2.0 ** (-2.0 / 3.0) * spec.x**2 if spec.x <= 0.0 and route != "split_neg" else 0.0
    s = np.asarray(offsets, dtype=float)
    base = np.asarray(lowers, dtype=float) - shift
    for b in base:
        _guard_rays(np.real(exp_u) - np.real(u) * (b + s.min()), "u")
        _guard_rays(np.real(exp_v) + np.real(v) * (b + s.max()), "v")
    left = np.exp(np.outer(-s, u) + exp_u) * wu
    right = np.exp(np.outer(v, s) + exp_v[:, None]) * wv[:, None]
    scaled = np.exp(np.outer(v, base))[:, :, None] * right[:, None, :]
    inner = (coupling @ scaled.reshape(v.size, -1)).reshape(u.size, base.size, s.size)
    kernel = (np.exp(np.outer(base, -u))[:, None, :] * left) @ inner.transpose(1, 0, 2)
    if route == "split_pos":
        kernel += _swept_residue(base[:, None] + s)
    return kernel


def _nystrom_det(kernel_matrix: np.ndarray, weights: np.ndarray):
    """det(I - K) for one n x n kernel (a float) or a stack of them (an array)."""
    root = np.sqrt(weights)
    det = np.atleast_1d(np.linalg.det(np.eye(len(weights)) - root[:, None] * kernel_matrix * root))
    # written so that NaN fails it: every comparison with NaN is False
    bad = ~(np.abs(det.imag) < IMAG_TOL)
    if bad.any():
        raise ConsistencyError(
            f"determinant imaginary part {det.imag[bad][0]:.3e} exceeds {IMAG_TOL}"
        )
    return float(det.real[0]) if kernel_matrix.ndim == 2 else det.real


def airy_oracles(s: float, grid: NystromGrid | None = None) -> tuple[float, float]:
    """Independent Airy2 and Airy1-type Fredholm determinant oracles.

    The Airy2 kernel is the closed-form Airy kernel
    (Ai(xi) Ai'(eta) - Ai'(xi) Ai(eta)) / (xi - eta), with diagonal
    Ai'(xi)^2 - xi Ai(xi)^2; the Airy1-type kernel is Ai(xi + eta). Both
    take their Airy values from scipy.special.airy and share no quadrature
    with the crossover kernel. Both determinants are taken on [s, s + span].
    The crossover determinant approaches the first as x -> -infinity (at
    argument 2^{1/3} r) and the second as x -> +infinity (at argument r).

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
    # imported here, not at module top: scipy.special slows every CLI start-up
    from scipy.special import airy

    xi, w = grid.nodes()
    ai, aip, _, _ = airy(xi)
    gap = xi[:, None] - xi[None, :]
    np.fill_diagonal(gap, 1.0)
    k_ai = (ai[:, None] * aip[None, :] - aip[:, None] * ai[None, :]) / gap
    np.fill_diagonal(k_ai, aip**2 - xi * ai**2)
    airy2 = _nystrom_det(k_ai, w)
    airy1 = _nystrom_det(airy_ai(xi[:, None] + xi[None, :]), w)
    return airy2, airy1


def halfflat_limit_cdf(
    x: float,
    r,
    spec: KernelSpec | None = None,
    grid: NystromGrid | None = None,
):
    """Predicted limiting CDF of the scaled half-flat height at (x, r).

    Evaluates det(I - K) on L^2([2^{1/3} r, oo)) for the crossover kernel at
    spatial parameter x, which is the conjectured limit of the probability
    that the centered height at position t^{2/3} x, scaled by t^{1/3} and
    with the parabola removed on x <= 0, stays above -r.  A sequence of r
    is evaluated as stacks of at most R_BLOCK determinants (_kernel_stack),
    which share the r-free parts of the kernel.

    Parameters
    ----------
    x : float
        Spatial parameter.
    r : float or 1-D sequence of float
        CDF argument(s); every one must be finite.
    spec : KernelSpec, optional
        Contour settings; the spatial parameter is forced to x.
    grid : NystromGrid, optional
        Quadrature settings; the lower endpoint is forced to 2^{1/3} r.

    Returns
    -------
    float or numpy.ndarray
        Determinant value(s) in [0, 1] up to discretization error: a float
        for scalar r, else an array of len(r).
    """
    spec = KernelSpec(x=x) if spec is None else dataclasses.replace(spec, x=x)
    grid = NystromGrid(lower=0.0) if grid is None else dataclasses.replace(grid, lower=0.0)
    rs = np.asarray(r, dtype=float)
    if rs.ndim > 1:
        raise DomainError("r must be a scalar or a 1-D sequence")
    if not np.all(np.isfinite(rs)):
        raise DomainError(f"need finite r, got {rs[~np.isfinite(rs)][0]}")
    offsets, w = grid.nodes()
    lowers = CBRT2 * np.atleast_1d(rs)
    out = np.empty(lowers.size)
    for i in range(0, lowers.size, R_BLOCK):
        block = _kernel_stack(lowers[i : i + R_BLOCK], offsets, spec)
        out[i : i + R_BLOCK] = _nystrom_det(block, w)
    return float(out[0]) if rs.ndim == 0 else out
