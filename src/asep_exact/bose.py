"""Moment formulas for the attractive point-interaction gas (continuum limit).

Four evaluators, cross-checking each other:

- delta_bose_moment: joint moments at strictly ordered points for the
  exponentially tilted one-sided step start, as a k-fold integral over a
  descending ladder of vertical lines.
- narrow_wedge_moment: the point-mass-start moments reached by tilting the
  start infinitely hard; same structure with a single cross factor.
- she_halfflat_moment_collapsed: the equal-point moments after collapsing
  all lines onto a common abscissa, organized as a string expansion whose
  integrand carries a Cauchy-type determinant, cubic-in-string-length
  exponents, and Gamma-function ratios.
- weyl_linearity_check: an independent route that integrates the free
  (point-mass) moments against the tilted step weights over the ordered
  chamber and compares with the collapsed formula.

Settings are plain arguments, each checked once: nodes >= 8, the floor of every
line, by _lines; the ladder by _validate_ladder; alpha > 0 where it is read.
Every vertical line is a trapezoid rule (see _lines), truncated where the
Gaussian factor has decayed below TAIL_CUT.  The lines of one term share
their step, so every pair factor, a function of z_a - z_b and z_a + z_b, is
one N x N product of quad.toeplitz and quad.hankel views of the two O(N)
tables of quad.line_tables.  Gamma ratios are assembled in log space from
scipy.special.loggamma so that only exp() of differences is ever taken.
"""

from __future__ import annotations

import math
import warnings as _warnings

import numpy as np

from .exact import multiplicity, partitions_of
from .qfunc import DomainError, PoleError, check_time
from .quad import (
    Axis,
    MomentResult,
    gauss_legendre,
    hankel,
    line_axes,
    line_tables,
    tensor_result,
    toeplitz,
)

__all__ = [
    "LADDER_MARGIN",
    "log_gamma",
    "default_ladder",
    "delta_bose_moment",
    "narrow_wedge_moment",
    "she_halfflat_moment_collapsed",
    "weyl_linearity_check",
]

LADDER_MARGIN = 1e-6

# Lines are truncated where the Gaussian envelope falls below this, and their
# trapezoid step targets the same error.
TAIL_CUT = 1e-16


def log_gamma(z):
    """Complex log-Gamma from scipy.special.loggamma, refusing the poles.

    Returns a complex for scalar input, else an array of the input's shape.
    Raises PoleError within 1e-12 of a nonpositive integer.  Branch offsets
    of 2 pi i are harmless downstream because every consumer exponentiates
    sums and differences of values.
    """
    # imported here, not at module top: scipy.special slows every CLI start-up
    from scipy.special import loggamma

    z = np.asarray(z, dtype=complex)
    nearest = np.round(z.real)
    if np.any((np.abs(z - nearest) < 1e-12) & (nearest <= 0.0)):
        raise PoleError("log_gamma at a nonpositive integer")
    out = loggamma(z)
    return complex(out) if out.ndim == 0 else out


def default_ladder(k: int, theta: float) -> tuple[float, ...]:
    """Descending abscissas with 1.25 gaps, centered near the tilt.

    Keeping the lines within O(1) of theta keeps the Gaussian weight
    centered, so no stationary-phase blowup enters the integrand.
    """
    return tuple(theta + 0.5 + 1.25 * (k - a) for a in range(1, k + 1))


def _validate_ladder(alpha: tuple[float, ...]) -> None:
    # Nonempty: delta_bose_moment matches its length to at least one point first.
    for a in range(len(alpha) - 1):
        if not (alpha[a] - alpha[a + 1] - 1.0 >= LADDER_MARGIN):
            raise DomainError(
                f"ladder needs alpha[{a}] > alpha[{a + 1}] + 1, got {alpha}"
            )
    if not (alpha[-1] >= LADDER_MARGIN):
        raise DomainError(f"ladder must end positive, got {alpha}")


# ---------------------------------------------------------------------------
# Vertical-line axes for the shared tensor evaluator.


def _lines(lines, poles: float, theta: float, nodes: int) -> list[Axis]:
    """Trapezoid axes on the lines (abscissa, freq, gauss) of one term, on one step.

    Along its line the integrand decays like e^(-gauss y^2), and the line
    stops where that reaches TAIL_CUT, |theta| + 4 past it.  Moved by delta
    off its line it grows like e^(freq delta + gauss delta^2), so on a strip
    of half-width d, at most poles (the distance to the nearest singularity),
    the rule errs like e^(freq d + gauss d^2 - 2 pi d / h): TAIL_CUT is met
    at h = 2 pi d / (log(1/TAIL_CUT) + freq d + gauss d^2), which is widest at
    d = sqrt(log(1/TAIL_CUT) / gauss).  Each line takes at least nodes >= 8 nodes.
    """
    if nodes < 8:
        raise DomainError(f"need nodes >= 8, got {nodes}")
    target = math.log(1.0 / TAIL_CUT)
    d = min([poles] + [math.sqrt(target / g) for _, _, g in lines])
    excess = max((f * d + g * d * d for _, f, g in lines), default=0.0)
    pieces = [(c, math.sqrt(target / g) + abs(theta) + 4.0) for c, _, g in lines]
    return line_axes(pieces, d, TAIL_CUT * math.exp(-excess), nodes)


def _pair_pole_distance(ladder) -> float:
    """Distance from the ladder's lines to the pair poles z_a - z_b = 1."""
    return min((a - b - 1.0 for a, b in zip(ladder, ladder[1:])), default=math.inf)


def _check_points(xs) -> tuple[float, ...]:
    xs = tuple(float(v) for v in xs)
    k = len(xs)
    if k < 1 or k > 3:
        raise DomainError(f"need 1 <= k <= 3 ordered points, got {k}")
    if any(xs[a] >= xs[a + 1] for a in range(k - 1)):
        raise DomainError(f"points must be strictly increasing, got {xs}")
    return xs


# ---------------------------------------------------------------------------
# Ordered-point and free-start moments.


def delta_bose_moment(
    xs,
    t: float,
    theta: float,
    ladder: tuple[float, ...] | None = None,
    nodes: int = 64,
) -> MomentResult:
    """Ordered-point moments for the tilted one-sided step start.

    k-fold integral over the descending ladder of vertical lines of
    prod_{a<b} (z_a - z_b)/(z_a - z_b - 1) * (z_a + z_b - 1)/(z_a + z_b)
    against weights exp((t/2)(z_a - theta)^2 + (z_a - theta) x_a) / z_a.
    ladder (default_ladder if None) must descend with gaps above one and end
    positive, each inequality strict with margin LADDER_MARGIN.
    """
    xs = _check_points(xs)
    k = len(xs)
    check_time(t, positive=True)
    if not (theta >= 0):
        raise DomainError(f"need theta >= 0, got {theta}")
    ladder = default_ladder(k, theta) if ladder is None else ladder
    if len(ladder) != k:
        raise DomainError(f"ladder length {len(ladder)} != number of points {k}")
    _validate_ladder(ladder)
    offset = max(0.5 * t * (a - theta) ** 2 for a in ladder)
    if offset > 100.0:
        _warnings.warn(
            "ladder sits far from the tilt; Gaussian prefactor reaches "
            f"exp({offset:.0f}) and the result is ill-conditioned",
            RuntimeWarning,
        )
    # The pole of 1/z at 0 is nearest the last line; z_a + z_b = 0 is farther.
    lines = [(c, abs(t * (c - theta) + x), 0.5 * t) for c, x in zip(ladder, xs)]
    axes = _lines(lines, min(_pair_pole_distance(ladder), ladder[-1]), theta, nodes)

    def diag(a, z):
        return np.exp(0.5 * t * (z - theta) ** 2 + (z - theta) * xs[a]) / z

    def pair(a, b, za, zb):
        diff, total = line_tables(za, zb)
        n = zb.shape[1]
        return toeplitz(diff / (diff - 1.0), n) * hankel((total - 1.0) / total, n)

    return tensor_result([(1.0, axes, diag, pair)])


def narrow_wedge_moment(xs, t: float, nodes: int = 64) -> MomentResult:
    """Point-mass-start moments at strictly ordered points.

    Same ladder-of-lines structure with the single cross factor
    (z_a - z_b)/(z_a - z_b - 1) and weights exp((t/2) z_a^2 + z_a x_a).
    """
    xs = _check_points(xs)
    k = len(xs)
    check_time(t, positive=True)
    axes = _free_axes(k, t, max(abs(v) for v in xs), nodes)

    def diag(a, z):
        return np.exp(0.5 * t * z * z + z * xs[a])

    return tensor_result([(1.0, axes, diag, _free_pair)])


def _free_pair(a, b, za, zb):
    """(z_a - z_b) / (z_a - z_b - 1) as a fresh N_a x N_b array."""
    diff, _ = line_tables(za, zb)
    return np.ascontiguousarray(toeplitz(diff / (diff - 1.0), zb.shape[1]))


def _free_axes(k: int, t: float, x_scale: float, nodes: int) -> list[Axis]:
    """Line axes for the point-mass-start integrand, reused by the chamber check."""
    ladder = default_ladder(k, 0.0)
    lines = [(c, abs(t * c) + x_scale, 0.5 * t) for c in ladder]
    return _lines(lines, _pair_pole_distance(ladder), 0.0, nodes)


# ---------------------------------------------------------------------------
# Collapsed equal-point formula (string expansion with Gamma ratios).


def _collapsed_term(parts, x, t, theta, alpha, nodes):
    """One multiset of string lengths over equal-abscissa lines, weighted by its orderings.

    The weight is 2^k k! / ell! times the ell! / multiplicity(parts) orderings of the
    strings, k = sum(parts) and ell = len(parts); the empty multiset is the zeroth moment, 1.
    """
    k, ell = sum(parts), len(parts)
    # Distances from the numerator Gamma arguments of each pair, real parts
    # 2 alpha +- (n_a - n_b)/2, to the nonpositive integers: their lines cross Im = 0.
    gamma_re = [2.0 * alpha + 0.5 * (parts[a] - parts[b])
                for a in range(ell) for b in range(ell) if a != b]
    near = [abs(c - min(0.0, round(c))) for c in gamma_re]
    if min(near, default=1.0) < 1e-6:
        _warnings.warn(
            "numerator Gamma argument within 1e-6 of a pole; collapsed term "
            "is ill-conditioned",
            RuntimeWarning,
        )
    # The other singularities are the pole of Gamma(2w) at w = 0 and the cross poles
    # |w_a - w_b| = (n_a + n_b)/2 >= 1.  Poles warned about above do not set the step.
    poles = min([alpha, 1.0] + [r for r in near if r >= 1e-6])
    lines = [(alpha, n * abs(t * (alpha - theta) + x), 0.5 * t * n) for n in parts]
    axes = _lines(lines, poles, theta, nodes)

    def diag(a, w):
        n_a = parts[a]
        args = 2.0 * w
        phase = (
            t * (n_a**3 / 24.0 - n_a / 24.0 + 0.5 * n_a * (w - theta) ** 2)
            + x * n_a * (w - theta)
        )
        return np.exp(phase + log_gamma(args) - log_gamma(args + n_a)) / n_a

    def pair(a, b, wa, wb):
        na, nb = parts[a], parts[b]
        d = 0.5 * (na - nb)
        s = 0.5 * (na + nb)
        # The cross factor is a table over wa - wb, the Gamma ratio one over wa + wb.
        # 1/Gamma(base - s) is taken as the entire function rgamma because base - s can
        # be a nonpositive integer where base is real; the factor is a zero there, not a
        # singularity.
        # imported here, not at module top: scipy.special slows every CLI start-up
        from scipy.special import rgamma

        diff, base = line_tables(wa, wb)
        cross = (diff + d) * (d - diff) / ((diff + s) * (s - diff))
        ratio = np.exp(
            log_gamma(base + d) + log_gamma(base - d) - log_gamma(base + s)
        ) * rgamma(base - s)
        return toeplitz(cross, wb.shape[1]) * hankel(ratio, wb.shape[1])

    return 2.0**k * math.factorial(k) / multiplicity(parts), axes, diag, pair


def she_halfflat_moment_collapsed(
    k: int,
    x: float,
    t: float,
    theta: float,
    alpha: float = 0.5,
    nodes: int = 64,
) -> MomentResult:
    """Equal-point moments via the string expansion on one common abscissa alpha > 0.

    2^k k! sum over string counts ell and compositions of k into ell
    positive strings, each an ell-fold equal-abscissa line integral of a
    Cauchy-type determinant, cubic-in-string-length exponential weights,
    per-string Gamma ratios, and pairwise Gamma crossover products.  The
    integral does not depend on the order of the strings, so the sum takes
    one term per multiset of string lengths, weighted by its orderings.  At
    theta = 0 these are the one-sided-step moments of the multiplicative-noise
    heat equation.
    """
    if k < 0 or k > 3:
        raise DomainError(f"need 0 <= k <= 3, got {k}")
    check_time(t, positive=True)
    if not (theta >= 0):
        raise DomainError(f"need theta >= 0, got {theta}")
    if not (alpha >= LADDER_MARGIN):
        raise DomainError(f"need alpha > 0, got {alpha}")
    strings = (parts for ell in range(k + 1) for parts in partitions_of(k, ell))
    return tensor_result(_collapsed_term(parts, x, t, theta, alpha, nodes) for parts in strings)


# ---------------------------------------------------------------------------
# Ordered-chamber linearity check.


def weyl_linearity_check(
    k: int, x: float, t: float, theta: float, nodes: int = 64
) -> float:
    """Absolute gap between the chamber route and the collapsed formula.

    Integrates the point-mass-start moment against the tilted step weights
    prod_a e^{-theta (x - y_a)} over the truncated ordered chamber
    {y_1 < ... < y_k <= x, y_a > lo = x - Y} and compares with
    she_halfflat_moment_collapsed(k, x, t, theta).  The outer y_k axis is
    16-point Gauss-Legendre on panels of about 1.5 units over [lo, x]; for
    k = 2 the inner y_1 integral of e^{-theta (x - y_1)} e^{y_1 z_1} over
    [lo, y_2] is taken in closed form, with divisor z_1 + theta != 0 because
    Re z_1 > 0 and theta >= 0.
    """
    if k not in (1, 2):
        raise DomainError(f"need k in {{1, 2}}, got {k}")
    check_time(t, positive=True)
    if not (theta >= 0):
        raise DomainError(f"need theta >= 0, got {theta}")
    collapsed = she_halfflat_moment_collapsed(k, x, t, theta, nodes=nodes).value
    depth = math.sqrt(2.0 * t * math.log(1e8)) + abs(x) + 4.0 * math.sqrt(t) + 4.0
    lo = x - depth
    axes = _free_axes(k, t, max(abs(x), abs(lo)), nodes)
    edges = np.linspace(lo, x, max(3, math.ceil((x - lo) / 1.5)) + 1)
    y, wy = (v.ravel() for v in gauss_legendre(edges[:-1], np.diff(edges), 16))
    if k == 1:
        z = axes[0].z
        wz = axes[0].w * np.exp(0.5 * t * z * z)
        vals = np.exp(np.outer(y, z)) @ wz
        boundary = abs(vals[0] * math.exp(-theta * (x - lo)))
        chamber = complex(np.sum(wy * np.exp(-theta * (x - y)) * vals))
    else:
        z1, z2 = axes[0].z, axes[1].z
        w1 = axes[0].w * np.exp(0.5 * t * z1 * z1)
        w2 = axes[1].w * np.exp(0.5 * t * z2 * z2)
        kernel = _free_pair(0, 1, z1[:, None], z2[None, :])
        kernel *= w1[:, None]
        kernel *= w2
        glue = kernel @ np.exp(np.outer(z2, y))
        start = np.exp(z1 * lo - theta * (x - lo))
        boundary = abs(start @ glue[:, 0]) * math.exp(-theta * (x - y[0]))
        inner = (np.exp(np.outer(z1, y) - theta * (x - y)) - start[:, None]) / (z1 + theta)[:, None]
        chamber = 2.0 * np.sum(wy * np.exp(-theta * (x - y)) * np.sum(inner * glue, axis=0))
    if boundary > 1e-8:
        _warnings.warn(
            f"chamber truncated before the integrand decayed (boundary {boundary:.2e})",
            RuntimeWarning,
        )
    return float(abs(chamber - collapsed))
