"""Contour-integral evaluators for the half-flat exclusion process.

Implemented routes, all exact at the level of the stated formulas and
cross-verifiable against each other and against the simulators:

- ordered-site product moments of tau^(N_{x-1}) eta_x on a circle around 1;
- single-site moments of tau^(k N_x) on k nested two-piece contours;
- the same moments as a partition-indexed sum over geometric strings on one
  shared contour around -tau and 0;
- the same moments as a composition-indexed sum with q-Pochhammer pair
  weights on a contour around -1 and 0;
- the q-deformed Laplace transform of tau^(N_x), both as a moment series
  and as a Mellin-Barnes double integral;
- brute-force identity checks (moment duality, symmetrization sums).

A recurring subtlety: summing the ordered geometric series
sum_{x_1<...<x_l<=x} prod_a xi_a^(x_a - 1) = prod_a xi_a^x / (xi_1...xi_a - 1)
leaves exponent x, not x-1.  The single-site evaluators below therefore feed
site + 1 into kernels whose displayed exponent is site - 1; the t=0 anchors
and the independent simulators pin this normalization.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import combinations, count, permutations

import numpy as np

from . import quad
from .qfunc import (
    DEFAULT_TOL,
    MAX_TERMS,
    DomainError,
    ModelParams,
    PoleError,
    germ_f,
    germ_g,
    poch_inf,
    poch_table,
    q_binomial,
    q_factorial,
)
from .quad import (
    Axis,
    CostGuardError,
    MomentResult,
    c1_rho_radius,
    circle_axis,
    circle_nodes,
    hankel,
    line_axes,
    nested_radii,
    tensor_result,
    toeplitz,
)

__all__ = [
    "EvalParams",
    "AnsatzReport",
    "compositions",
    "partitions_of",
    "eps",
    "eps_tilde",
    "eps_hat",
    "qtilde_moments",
    "qtilde_initial",
    "verify_ansatz",
    "nested_moment",
    "partition_moment",
    "halfflat_moment",
    "tau_laplace_series",
    "tau_laplace_mb",
    "duality_identity_check",
    "symmetrization_checks",
]

def compositions(m: int, k: int) -> list[tuple[int, ...]]:
    """All ordered k-tuples of positive integers summing to m, lexicographic."""
    if m < 0 or k < 0:
        raise DomainError("need m, k >= 0")
    if k == 0:
        return [()] if m == 0 else []
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], rest: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (rest,))
            return
        for first in range(1, rest - slots + 2):
            rec(prefix + (first,), rest - first, slots - 1)

    if m >= k:
        rec((), m, k)
    return out


def partitions_of(k: int) -> list[tuple[int, ...]]:
    """All partitions of k, parts nonincreasing, lexicographically descending."""
    if k < 0:
        raise DomainError("need k >= 0")
    if k == 0:
        return [()]
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], rest: int, cap: int) -> None:
        if rest == 0:
            out.append(prefix)
            return
        for first in range(min(cap, rest), 0, -1):
            rec(prefix + (first,), rest - first, first)

    rec((), k, k)
    return out


@dataclass(frozen=True)
class EvalParams:
    """Model parameters plus the --tol and --nodes settings, checked here.

    tol, in (0, 1), is the target error of every circle (quad.circle_nodes), Mellin-Barnes
    line (quad.line_axes), Laplace series and q-product; nodes >= 8 is their node floor.
    """

    params: ModelParams
    tol: float = DEFAULT_TOL
    nodes: int = 64

    def __post_init__(self) -> None:
        if self.nodes < 8:
            raise DomainError(f"need nodes >= 8, got {self.nodes}")
        if not (0.0 < self.tol < 1.0):
            raise DomainError(f"need 0 < tol < 1, got {self.tol}")


# ---------------------------------------------------------------------------
# Jump-rate symbols.


def eps(xi, params: ModelParams):
    """p/xi + q xi - 1."""
    xi = np.asarray(xi, dtype=complex)
    if np.any(np.abs(xi) < 1e-13):
        raise PoleError("eps has a pole at xi = 0")
    out = params.p / xi + params.q * xi - 1.0
    return complex(out) if out.ndim == 0 else out


def eps_tilde(z, params: ModelParams):
    """eps evaluated at (1 - tau z)/(1 - z)."""
    z = np.asarray(z, dtype=complex)
    tau = params.tau
    if np.any(np.abs(1.0 - z) < 1e-13) or np.any(np.abs(1.0 - tau * z) < 1e-13):
        raise PoleError("eps_tilde has poles at z = 1 and z = 1/tau")
    out = params.p * (1.0 - z) / (1.0 - tau * z) + params.q * (1.0 - tau * z) / (1.0 - z) - 1.0
    return complex(out) if out.ndim == 0 else out


def eps_hat(y, params: ModelParams):
    """eps_tilde evaluated at -y/tau."""
    return eps_tilde(-np.asarray(y, dtype=complex) / params.tau, params)


# ---------------------------------------------------------------------------
# Ordered-site product moments (circle around 1).


def _qtilde_value(xs, t: float, ev: EvalParams) -> MomentResult:
    params = ev.params
    tau = params.tau
    rho = c1_rho_radius(params)
    ratios = (rho / (1.0 - tau - tau * rho), rho / (tau**-0.5 - 1.0),
              rho / ((1.0 - tau * (1.0 + rho)) / (tau * (1.0 + rho))))
    amp = t * params.q * (1.0 - tau + tau * rho) / rho
    n = circle_nodes(ev.tol, ev.nodes, ratios, (amp,))
    axes = [circle_axis([(1.0 + 0j, rho, n)])] * len(xs)

    def diag(a, z):
        ratio = (1.0 - tau * z) / (1.0 - z)
        return ratio ** (xs[a] - 1) * np.exp(eps_tilde(z, params) * t) / (tau * z * z - 1.0)

    def pair(a, b, za, zb):
        return (za - zb) / (za - tau * zb) * (1.0 - za * zb) / (1.0 - tau * za * zb)

    prefactor = tau ** (len(xs) * (len(xs) - 1) / 2.0)
    return tensor_result([(prefactor, axes, diag, pair)], "c1_tensor")


def qtilde_moments(xs, t: float, ev: EvalParams) -> MomentResult:
    """Expected product over sites x_a of eta_{x_a} tau^(N_{x_a - 1}) at time t.

    Strictly increasing integer sites, at most four of them.
    """
    xs = tuple(int(v) for v in xs)
    if not xs or len(xs) > 4:
        raise DomainError(f"need 1 <= k <= 4 sites, got {len(xs)}")
    if any(xs[i] >= xs[i + 1] for i in range(len(xs) - 1)):
        raise DomainError(f"sites must be strictly increasing, got {xs}")
    if not (0 <= t < math.inf):
        raise DomainError(f"need t >= 0, got {t}")
    return _qtilde_value(xs, t, ev)


def qtilde_initial(xs, params: ModelParams) -> float:
    """Deterministic time-zero value: tau^(-k) prod 1{x_a positive even} tau^(x_a/2)."""
    tau = params.tau
    out = tau ** (-len(tuple(xs)))
    for x in xs:
        if x <= 0 or x % 2 != 0:
            return 0.0
        out *= tau ** (x / 2.0)
    return float(out)


@dataclass(frozen=True)
class AnsatzReport:
    ode_residual: float
    boundary_residuals: tuple[float, ...]
    initial_gap: float
    value: complex


def verify_ansatz(xs, t: float, ev: EvalParams) -> AnsatzReport:
    """Residuals of the defining evolution equations for the product moments.

    Checks, by quadrature of the same integral at shifted arguments:
    (a) d/dt u = sum_j [p u(x_j down) + q u(x_j up) - u] via Richardson-
    extrapolated centered differences; (b) at adjacent pairs x_{l+1}=x_l+1,
    p u(x_{l+1} down) + q u(x_l up) = u; (c) the time-zero value.
    """
    xs = tuple(int(v) for v in xs)
    if not xs or len(xs) > 3:
        raise DomainError(f"need 1 <= k <= 3 sites, got {len(xs)}")
    if any(xs[i] >= xs[i + 1] for i in range(len(xs) - 1)):
        raise DomainError(f"sites must be strictly increasing, got {xs}")
    if not (0 < t < math.inf):
        raise DomainError(f"need t > 0, got {t}")
    params = ev.params
    u = _qtilde_value(xs, t, ev).value

    def u_at(sites, at_t=t) -> complex:
        return _qtilde_value(tuple(sites), at_t, ev).value

    gen = 0j
    for j in range(len(xs)):
        lower = list(xs)
        lower[j] -= 1
        upper = list(xs)
        upper[j] += 1
        gen += params.p * u_at(lower) + params.q * u_at(upper) - u

    dt = min(1e-4, t / 4.0)
    d_coarse = (u_at(xs, t + dt) - u_at(xs, t - dt)) / (2.0 * dt)
    d_fine = (u_at(xs, t + dt / 2.0) - u_at(xs, t - dt / 2.0)) / dt
    du = (4.0 * d_fine - d_coarse) / 3.0
    ode_residual = abs(du - gen)

    boundary = []
    for ell in range(len(xs) - 1):
        if xs[ell + 1] == xs[ell] + 1:
            lower = list(xs)
            lower[ell + 1] -= 1
            upper = list(xs)
            upper[ell] += 1
            boundary.append(abs(params.p * u_at(lower) + params.q * u_at(upper) - u))

    initial_gap = abs(_qtilde_value(xs, 0.0, ev).value - qtilde_initial(xs, params))
    return AnsatzReport(
        ode_residual=float(ode_residual),
        boundary_residuals=tuple(float(b) for b in boundary),
        initial_gap=float(initial_gap),
        value=u,
    )


# ---------------------------------------------------------------------------
# Nested-contour moments of tau^(k N_x).


def _nested_weight(y, site: int, t: float, params: ModelParams):
    tau = params.tau
    ratio = (1.0 + y) / (1.0 + y / tau)
    return (tau + y) / (tau - y * y) * ratio ** (site - 1) * np.exp(t * eps_hat(y, params))


def nested_moment(k: int, x: int, t: float, ev: EvalParams) -> MomentResult:
    """Expected tau^(k N_x) at time t via k nested two-piece contours."""
    if k < 0 or k > 3:
        raise DomainError(f"need 0 <= k <= 3, got {k}")
    if not (0 <= t < math.inf):
        raise DomainError(f"need t >= 0, got {t}")
    params = ev.params
    tau = params.tau
    if k == 0:
        return MomentResult(1.0 + 0j, 0.0, "nested_tensor", ())
    tol = ev.tol
    floor = ev.nodes
    r, s = nested_radii(k, params)
    site = x + 1
    amp_res = t * params.q * tau * (1.0 - tau)
    axes = []
    for a in range(k):
        n0 = circle_nodes(tol, floor, (tau**0.5, r[a] / (tau - r[a])), (amp_res / (tau - r[a]),))
        ns = circle_nodes(tol, floor, (tau**0.5,), (amp_res / s[a],))
        axes.append(circle_axis([(0j, float(r[a]), n0), (-tau + 0j, float(s[a]), ns)]))

    def diag(a, y):
        return _nested_weight(y, site, t, params) / y

    def pair(a, b, ya, yb):
        return (ya - yb) / (ya - tau * yb) * (1.0 - ya * yb / tau**2) / (1.0 - ya * yb / tau)

    prefactor = tau ** (k * (k - 1) / 2.0)
    return tensor_result([(prefactor, axes, diag, pair)], "nested_tensor")


# ---------------------------------------------------------------------------
# Partition-indexed moments on the shared contour around -tau and 0.


def _string_pair(parts, tables, tau: float):
    """Pair factor of strings (or composition parts) n_a, n_b on one N-node circle about 0.

    The cross factor (u_a - u_b)(w_b - w_a) / ((u_a - w_b)(u_b - w_a)), u_a = tau^{n_a} w_a,
    is a function of r = w_a / w_b, which depends on (i - j) mod N: one row over
    r_m = w_m / w_0.  The rest, (u;tau)_{n_a} / (tau^{n_b} u;tau)_{n_a} =
    P[n_a] P[n_b] / P[n_a + n_b], depends on w_a w_b = w_0 w_{(i + j) mod N}: tables()
    gives the prefix table P on those N products (times the route's constant).
    """

    def pair(a, b, wa, wb):
        na, nb = parts[a], parts[b]
        p = tables()
        n = wb.shape[1]
        r = wb[0] / wb[0, 0]
        ta, tb = tau**na, tau**nb
        cross = (ta * r - tb) * (1.0 - r) / ((ta * r - 1.0) * (tb - r))
        return toeplitz(cross, n, wrap=True) * hankel(p[na] * p[nb] / p[na + nb], n, wrap=True)

    return pair


def partition_moment(k: int, x: int, t: float, ev: EvalParams) -> MomentResult:
    """Expected tau^(k N_x) as a partition sum over geometric strings."""
    if k < 0 or k > 5:
        raise DomainError(f"need 0 <= k <= 5, got {k}")
    if not (0 <= t < math.inf):
        raise DomainError(f"need t >= 0, got {t}")
    params = ev.params
    tau = params.tau
    tol = ev.tol if k <= 3 else max(ev.tol, 1e-8)
    radius = tau**0.75
    site = x + 1
    amp_res = t * params.q * tau * (1.0 - tau)
    n = circle_nodes(tol, ev.nodes, (tau**0.25,), (amp_res / (radius - tau),))
    axis = circle_axis([(0j, radius, n)])
    kfact = q_factorial(k, tau)
    # Strings pair through the prefix table of u = w_a w_b / tau^2 on the N products
    # w_0 w_m (_string_pair), built on first use: after the engine has sized every
    # term, so a refused sum builds none.
    tables = cache(lambda: poch_table(axis.z[0] * axis.z / tau**2, tau, k))

    terms = []
    for parts in partitions_of(k):
        mult_factor = 1.0
        for m_a in Counter(parts).values():
            mult_factor *= math.factorial(m_a)

        def diag(a, w, parts=parts):
            la = parts[a]
            out = -1.0 / (w * (tau**la - 1.0))
            for j in range(la):
                out = out * _nested_weight(tau**j * w, site, t, params)
            for i in range(la):
                for j in range(i + 1, la):
                    z = tau ** (i + j) * w * w
                    out = out * (1.0 - z / tau**2) / (1.0 - z / tau)
            return out

        pair = _string_pair(parts, tables, tau)
        terms.append((kfact * (1.0 - tau) ** k / mult_factor, [axis] * len(parts), diag, pair))
    return tensor_result(terms, "partition_tensor")


# ---------------------------------------------------------------------------
# Composition-indexed moments on the contour around -1 and 0.


def _dedup_compositions(m: int, k: int) -> list[tuple[tuple[int, ...], int]]:
    """Composition multisets with their permutation counts."""
    groups = Counter(tuple(sorted(comp, reverse=True)) for comp in compositions(m, k))
    return sorted(groups.items(), reverse=True)


def _nu_axis(k: int, ev: EvalParams) -> Axis:
    """The circle of the order-k composition terms: |w| = (1 + tau^(-1/2)) / 2."""
    tau = ev.params.tau
    tol = ev.tol if k <= 3 else max(ev.tol, 1e-8)
    radius = 0.5 * (1.0 + tau**-0.5)
    ratios = (1.0 / radius, radius * tau**0.5, radius * radius * tau)
    return circle_axis([(0j, radius, circle_nodes(tol, ev.nodes, ratios))])


def _nu_terms(k: int, orders, x: int, t: float, ev: EvalParams):
    """Order-k terms (k <= m) of scale E[tau^(m N_x)] / m_tau! for each (m, scale) of orders.

    One term per composition multiset of m into k parts, weighted by its
    permutation count over k!; order 0 is the empty product iff m = 0.  The
    circle depends only on k, so all orders share one set of prefix tables.
    """
    tau = ev.params.tau
    axis = _nu_axis(k, ev) if k else None
    site = x + 1
    top = max((m for m, _ in orders), default=0)
    # germ_g at integer order n is (-w;tau)_n (w^2;tau)_n / (w^2;tau)_{2n}.  The pairs
    # read the table of u = w_a w_b on the N products w_0 w_m (_string_pair).
    neg = cache(lambda: poch_table(-axis.z, tau, top))
    sq = cache(lambda: poch_table(axis.z * axis.z, tau, 2 * top))
    tables = cache(lambda: poch_table(axis.z[0] * axis.z, tau, top))

    for m, scale in orders:
        for parts, perms in _dedup_compositions(m, k):

            def diag(a, w, parts=parts):
                na = parts[a]
                g = neg()[na] * sq()[na] / sq()[2 * na]
                return germ_f(w, na, site, t, ev.params) * g * (-1.0 / (w * (tau**na - 1.0)))

            pair = _string_pair(parts, tables, tau)
            yield scale * perms / math.factorial(k), [axis] * k, diag, pair


def halfflat_moment(m: int, x: int, t: float, ev: EvalParams) -> MomentResult:
    """Expected tau^(m N_x) at time t via the composition expansion."""
    if m < 0 or m > 4:
        raise DomainError(f"need 0 <= m <= 4, got {m}")
    if not (0 <= t < math.inf):
        raise DomainError(f"need t >= 0, got {t}")
    mfact = q_factorial(m, ev.params.tau)
    terms = (term for k in range(m + 1) for term in _nu_terms(k, [(m, mfact)], x, t, ev))
    return tensor_result(terms, "gamma_tensor")


# ---------------------------------------------------------------------------
# q-Laplace transform: moment series and Mellin-Barnes routes.


def _series_k_cap(m: int) -> int:
    if m <= 6:
        return min(m, 4)
    if m <= 9:
        return 3
    if m <= 13:
        return 2
    return 1


def _laplace_orders(zeta: complex, m_max: float, ks, ev: EvalParams) -> dict:
    """Kept orders {k: [(m, zeta^m), ...]} of the moment series, for each k in ks.

    Order k keeps k <= m <= m_max with k <= _series_k_cap(m), and stops at the
    first m with |zeta^m / m_tau!| < ev.tol, the bound on each term.
    """
    tau = ev.params.tau

    def kept(k):
        m_fact = q_factorial(k, tau)
        for m in count(k):
            if m > m_max or _series_k_cap(m) < k or abs(zeta**m / m_fact) < ev.tol:
                return
            yield m, zeta**m
            m_fact *= (1.0 - tau ** (m + 1)) / (1.0 - tau)

    return {k: list(kept(k)) for k in ks}


def tau_laplace_series(zeta: complex, x: int, t: float, m_max: int, ev: EvalParams) -> complex:
    """E[e_tau(zeta tau^(N_x))] summed from the moment expansion.

    Each order k <= 4 sums the m that _laplace_orders keeps, with one set of
    prefix tables: m_max or the first m with |zeta^m / m_tau!| < ev.tol
    ends it.  Nothing checks the tail past m_max, so near |zeta| = 1 a small
    m_max truncates silently (the value carries no error estimate).  Orders
    k > _series_k_cap(m) are dropped unbounded: at tau = 0.3, x = 0, t = 0.5
    they cost 5.8e-7 at zeta = -0.5 and 7.7e-4 at -0.9 (m_max = 40).
    """
    zeta = complex(zeta)
    if not (abs(zeta) < 1.0):
        raise DomainError(f"need |zeta| < 1, got {abs(zeta)}")
    if m_max < 8:
        raise DomainError(f"need m_max >= 8, got {m_max}")
    if not (0 <= t < math.inf):
        raise DomainError(f"need t >= 0, got {t}")
    kept = _laplace_orders(zeta, m_max, range(5), ev)
    terms = (term for k, orders in kept.items() for term in _nu_terms(k, orders, x, t, ev))
    return tensor_result(terms, "laplace_series").value


def _mb_trapezoid(zeta: complex, w_axis: Axis, ev: EvalParams, tol: float) -> Axis:
    """The trapezoid line s_j = 1/2 + i h j of both Mellin-Barnes orders (quad.line_axes).

    The integrand is analytic in |Re s - 1/2| < d, d = 1/2 - 2 log R / log(1/tau) for
    the w-circle radius R (poles of 1/(tau^s w^2;tau)_inf; d = 0.215-0.25 for tau
    0.1-0.9).  pi/sin(-pi s) (-zeta)^s decays like e^(-(pi - |arg(-zeta)|) |Im s|), and
    the line stops where that reaches tol.  The error oscillates in h: order 2 at tau
    0.3 is off by 2.6e-8 at tol 1e-6 (h about 0.10), by 6.4e-11 at 1e-8.
    """
    d = 0.5 - 2.0 * math.log(abs(w_axis.z[0])) / math.log(1.0 / ev.params.tau)
    half_width = math.log(1.0 / tol) / (math.pi - abs(np.angle(-zeta)))
    return line_axes([(0.5, half_width)], d, tol, ev.nodes)[0]


def _mb_w_axis(ev: EvalParams, tol: float) -> Axis:
    """The w circle |w| = (1 + tau^(-1/4)) / 2, between the poles on |w| = 1 and tau^(-1/4)."""
    tau = ev.params.tau
    radius = 0.5 * (1.0 + tau**-0.25)
    n_w = circle_nodes(tol, ev.nodes, (1.0 / radius, radius * tau**0.25))
    return circle_axis([(0j, radius, n_w)])


def _mb_diag_grid(zeta, x, t, ev, line, w_axis):
    """Weighted single-variable factor a[i, x] on the (s_i, w_x) product grid."""
    tau = ev.params.tau
    (s_nodes, s_weights), w_nodes = line, w_axis.z
    s_factor = np.pi / np.sin(-np.pi * s_nodes) * np.exp(s_nodes * np.log(-zeta)) * s_weights
    # germ_g first: its first q-product is w-only, so a cap refusal precedes the grids.
    g_grid = germ_g(w_nodes[None, :], s_nodes[:, None], tau, ev.tol)
    f_grid = germ_f(w_nodes[None, :], s_nodes[:, None], x + 1, t, ev.params)
    det_diag = -1.0 / (w_nodes[None, :] * (np.exp(s_nodes * math.log(tau))[:, None] - 1.0))
    return s_factor[:, None] * f_grid * g_grid * det_diag * w_axis.w[None, :]


def _mb_order2(zeta, x, t, ev, line, w_axis) -> complex:
    """The k=2 Mellin-Barnes term: half the sum of a[i,x] a[j,y] times the pair weight.

    With z = w_x w_y, a_i = tau^(s_i) and u_ix = a_i w_x that weight is
    (z;tau)(z a_i a_j;tau) / ((z a_i;tau)(z a_j;tau)) (all _inf) times
    (u_ix - u_jy)(w_y - w_x) / ((u_ix - w_y)(u_jy - w_x)).  With P[x,i,y] =
    a[i,x] / ((z a_i;tau)(u_ix - w_y)), the rest M_k[x,y] = (z;tau)(w_y - w_x)
    (z tau^(s_i+s_j);tau) depends on i, j only through k = i + j on a uniform
    line and is antisymmetric in x, y, so both halves of u_ix - u_jy give
    sum_{x,y,k} M_k[x,y] sum_{i+j=k} u_ix P[x,i,y] P[y,j,x]: a convolution
    per (x, y), done by FFT one w-row at a time.
    """
    tau = ev.params.tau
    s_nodes = line.z
    a_grid = _mb_diag_grid(zeta, x, t, ev, line, w_axis)
    w = w_axis.z
    a_s = np.exp(s_nodes * math.log(tau))
    # a_k = tau^(s_i + s_j) for k = i + j.
    a_k = np.exp(np.concatenate([s_nodes + s_nodes[0], s_nodes[1:] + s_nodes[-1]]) * math.log(tau))
    # On the trapezoid circle w_x w_y = w_0 w_r, r = x + y mod n_w: each q-product is a table row.
    z = w[0] * w
    pochs = poch_inf(z[:, None] * a_s, tau, ev.tol)
    # Per row r, ifft of M_k / (w_y - w_x): sum_k M_k c_k = sum_m fft(c)_m ifft(M)_m.
    n_fft = -(-a_k.size // 64) * 64  # a multiple of 64 keeps the FFT on small radices
    m_hat = poch_inf(z[:, None] * a_k, tau, ev.tol) * poch_inf(z, tau, ev.tol)[:, None]
    m_hat = np.fft.ifft(m_hat, n_fft)
    u = a_s[:, None] * w
    acc = 0j
    for row in range(w.size):
        r = (row + np.arange(w.size)) % w.size
        left = u[:, row] * a_grid[:, row] / (pochs[r] * (u[:, row] - w[:, None]))
        right = a_grid.T / (pochs[r] * (u.T - w[row]))
        conv = np.fft.fft(left, n_fft) * np.fft.fft(right, n_fft) * m_hat[r]
        acc += np.sum(conv, axis=1) @ (w - w[row])
    return complex(acc)


def tau_laplace_mb(zeta: complex, x: int, t: float, k_max: int, ev: EvalParams) -> complex:
    """E[e_tau(zeta tau^(N_x))] via the Mellin-Barnes double-integral series.

    Each order k <= k_max contributes a 2k-fold integral over
    (1/2 + i R)^k times the circle around -1 and 0; the integrand carries
    pi/sin(-pi s_a) against (-zeta)^(s_a).  Orders above k_max (up to 4, the
    same depth the moment series reaches) are completed by their residue
    expansions over integer s_a, which the Mellin-Barnes identity makes the
    same quantity; k_max therefore only bounds the dimension of the line
    integrals actually performed.  The residue series need |zeta| < 1 and
    take their orders from _laplace_orders, as tau_laplace_series does, so
    the two routes agree on the same truncated value.  With k_max = 0 the
    order-1 series is refused when it keeps more than MAX_TERMS / 2 orders.
    Every grid is checked against quad.MAX_POINTS before any is evaluated,
    and zeta within 0.3 rad of the nonnegative real axis, where the line
    decays slowly, is refused.
    """
    zeta = complex(zeta)
    if math.pi - abs(np.angle(-zeta)) < 0.3:
        raise DomainError("zeta must lie at least 0.3 rad from the nonnegative real axis")
    if not (abs(zeta) < 1.0):
        raise DomainError(f"need |zeta| < 1, got {abs(zeta)}")
    if k_max < 0 or k_max > 2:
        raise DomainError(f"need 0 <= k_max <= 2, got {k_max}")
    if not (0 <= t < math.inf):
        raise DomainError(f"need t >= 0, got {t}")
    # Residue orders from 2 on, which --k-max 1 would need, are sized even when k_max is 2.
    # The k_max = 0 order-1 tail holds tables of 2m factors: capped like any q-product,
    # and listed only one order past the cap, since it grows without bound as tau -> 0.
    kept = _laplace_orders(zeta, MAX_TERMS // 2 + 1, range(min(k_max, 1) + 1, 5), ev)
    if len(kept.get(1, ())) > MAX_TERMS // 2:
        raise CostGuardError(f"order-1 residue series needs more than {MAX_TERMS // 2} orders "
                             f"at |zeta|={abs(zeta)!r}, tau={ev.params.tau!r}; use --k-max 1")
    residue_points = {k: _nu_axis(k, ev).z.size ** k for k, orders in kept.items() if orders}
    if k_max >= 2:
        w_axis = _mb_w_axis(ev, max(ev.tol, 1e-4))
        line = _mb_trapezoid(zeta, w_axis, ev, max(ev.tol, 1e-8))
        points = (line.z.size * w_axis.z.size) ** 2
        if points > quad.MAX_POINTS:
            hint = max(residue_points.values(), default=0) <= quad.MAX_POINTS
            raise CostGuardError(
                f"Mellin-Barnes order-2 grid of {points} points exceeds budget {quad.MAX_POINTS}"
                + ("; --k-max 1 computes the same quantity by residues" if hint else ""))
    for k, points in residue_points.items():
        if k > k_max and points > quad.MAX_POINTS:
            raise CostGuardError(
                f"order-{k} residue grid of {points} points exceeds budget {quad.MAX_POINTS}")
    total = 1.0 + 0j
    if k_max >= 1:
        w_axis1 = _mb_w_axis(ev, ev.tol)
        line1 = _mb_trapezoid(zeta, w_axis1, ev, ev.tol)
        total += complex(np.sum(_mb_diag_grid(zeta, x, t, ev, line1, w_axis1)))
    if k_max >= 2:
        total += _mb_order2(zeta, x, t, ev, line, w_axis)
    terms = (term for k in range(k_max + 1, 5) for term in _nu_terms(k, kept[k], x, t, ev))
    return total + tensor_result(terms, "laplace_residues").value


# ---------------------------------------------------------------------------
# Identity suites.


def duality_identity_check(eta, x: int, k: int, params: ModelParams) -> tuple[float, float, float]:
    """Brute-force both sides of the moment-duality expansion.

    eta is any finite set of occupied sites.  Returns (lhs, rhs, gap) for
    lhs = tau^(k N_x) and the alternating sum over ordered site tuples of
    products of eta_{x_a} tau^(N_{x_a - 1}).
    """
    if k < 0 or k > 4:
        raise DomainError(f"need 0 <= k <= 4, got {k}")
    tau = params.tau
    occupied = sorted(set(int(v) for v in eta))
    reachable = [y for y in occupied if y <= x]
    lhs = tau ** (k * len(reachable))
    rhs = 0.0
    for ell in range(0, k + 1):
        # (tau;tau)_ell = (1 - tau)^ell ell_tau!
        coeff = (-1.0) ** ell * q_binomial(k, ell, tau) * (1.0 - tau) ** ell * q_factorial(ell, tau)
        inner = 0.0
        for sites in combinations(reachable, ell):
            inner += math.prod(tau ** sum(1 for z in occupied if z < y) for y in sites)
        rhs += coeff * inner
    return float(lhs), float(rhs), abs(float(lhs) - float(rhs))


def symmetrization_checks(n: int, samples: int, params: ModelParams, seed: int = 0) -> float:
    """Max gap over random draws of two symmetrization identities.

    (a) sum over permutations of prod_{a>b} (y_a - tau y_b)/(y_a - y_b)
    equals the q-factorial of n; (b) the weighted permutation sum over
    (q_a - q_b - i kappa)/(q_a - q_b) telescopes to the pair product
    (q_a + q_b + i kappa)/(q_a + q_b).
    """
    if n < 1 or n > 5:
        raise DomainError(f"need 1 <= n <= 5, got {n}")
    if samples < 1:
        raise DomainError("need samples >= 1")
    tau = params.tau
    rng = np.random.default_rng(seed)
    perms = list(permutations(range(n)))
    worst = 0.0

    def draw(size: int) -> np.ndarray:
        while True:
            v = rng.normal(size=size) + 1j * rng.normal(size=size)
            apart = all(min(abs(a - b), abs(a + b)) > 1e-2 for a, b in combinations(v, 2))
            if apart and np.all(np.abs(v) > 1e-2):
                return v

    for _ in range(samples):
        ys = draw(n)
        acc = 0j
        for sigma in perms:
            term = 1.0 + 0j
            for a in range(n):
                for b in range(a):
                    term *= (ys[sigma[a]] - tau * ys[sigma[b]]) / (ys[sigma[a]] - ys[sigma[b]])
            acc += term
        expected = complex(q_factorial(n, tau))
        worst = max(worst, abs(acc - expected) / abs(expected))

        qs = draw(n)
        kappa = complex(rng.normal() + 1j * rng.normal())
        acc = 0j
        for sigma in perms:
            mu = 1.0 + 0j
            run = 0j
            for a in range(n):
                run += qs[sigma[a]]
                mu /= run
            mu *= np.prod(qs)
            for a in range(n):
                for b in range(a + 1, n):
                    d = qs[sigma[a]] - qs[sigma[b]]
                    mu *= (d - 1j * kappa) / d
            acc += mu
        expected = 1.0 + 0j
        for a in range(n):
            for b in range(a + 1, n):
                expected *= (qs[a] + qs[b] + 1j * kappa) / (qs[a] + qs[b])
        worst = max(worst, abs(acc - expected) / abs(expected))
    return worst
