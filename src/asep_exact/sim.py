"""Exclusion-process Monte Carlo and exact finite-window oracle.

Dynamics: each particle carries an exponential clock of total rate one and
attempts a right jump with probability p, left with probability q = 1 - p;
attempts blocked by the exclusion rule or the closed window boundary consume
time (thinning), which realizes the generator exactly.  Half-flat initial
data occupies every positive even site.

Two independent evaluators of the same dynamics:

- mc_expectation steps blocks of MC_BLOCK replicas together, each block on
  its own PCG64DXSM stream seeded by SeedSequence((seed, block)).  Only the
  replicas a call keeps are stored, stepped and drawn for: sorted once by
  event count, the replicas with an attempt left form a prefix of the rows,
  each step draws one particle and one direction for each of them, and each
  row carries wall columns at left - 1 and right + 1, so a hop is one
  gather of the neighbour and one comparison with the target.  The
  observable is read off the final rows, in their narrow integer type, and
  put back in replica order;
- ctmc_exact_expectation lists every configuration of a small closed
  window in combinadic-rank order and steps the distribution by the
  transposed uniformized kernel, K^T = (q/lam) A + (p/lam) A^T + D, with
  only the right-hop pattern A stored, as int32 CSR.  Its Poisson weights
  start from a left truncation point, so large lambda t neither underflows
  nor loses mass, and fix the step count N up front.  Each hop changes the
  L1 distance from the start by one, so only the light cone, the states
  within N hops, is kept; A holds the hops between kept states, and step n
  multiplies only the rows within n hops: about 20 bytes per state of the
  window and about 100 per kept state at peak.

Both serve as ground truth for the contour-integral formulas in the exact
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qfunc import DomainError, ModelParams, check_time, q_exp

__all__ = [
    "Observable",
    "default_window",
    "mc_expectation",
    "ctmc_exact_expectation",
    "CTMC_STATE_CAP",
    "MC_BLOCK",
    "MC_BITGEN",
]

MC_BLOCK = 1 << 16
# Looked up by name when a block starts: numpy.random loads lazily, and
# importing it adds about 5 MB to every process that never simulates.
MC_BITGEN = "PCG64DXSM"
CTMC_STATE_CAP = 2_000_000
_KERNEL_BLOCK = 1 << 16


@dataclass(frozen=True)
class Observable:
    """One scalar functional of the configuration at a fixed time.

    kind selects among: 'tau_pow_N' (tau^(k N_x)), 'qtilde_product'
    (product over sites of occupancy times tau^(N_{x-1})),
    'etau_of_zeta_tauN' (q-exponential of zeta tau^(N_x)), and
    'height_indicator' (indicator of {h(t,x) >= threshold} with the height
    built from the net current across the bond (0, 1)).
    """

    kind: str
    x: int = 0
    k: int = 1
    xs: tuple[int, ...] = ()
    zeta: float = 0.0
    threshold: float = 0.0

    @classmethod
    def tau_pow_N(cls, k: int, x: int) -> Observable:
        if k < 1:
            raise DomainError(f"need k >= 1, got {k}")
        return cls(kind="tau_pow_N", k=k, x=x)

    @classmethod
    def qtilde_product(cls, xs) -> Observable:
        xs = tuple(int(v) for v in xs)
        if not xs:
            raise DomainError("need at least one site")
        return cls(kind="qtilde_product", xs=xs)

    @classmethod
    def etau_of_zeta_tauN(cls, zeta: float, x: int) -> Observable:
        return cls(kind="etau_of_zeta_tauN", zeta=float(zeta), x=x)

    @classmethod
    def height_indicator(cls, x: int, threshold: float) -> Observable:
        return cls(kind="height_indicator", x=x, threshold=float(threshold))

    def sites(self) -> tuple[int, ...]:
        if self.kind == "qtilde_product":
            return self.xs
        return (self.x,)


def _check_observable_window(obs: Observable, left: int, right: int) -> None:
    if left >= right:
        raise DomainError(f"window must satisfy left < right, got {(left, right)}")
    if not (left <= 0 <= right):
        raise DomainError(f"window [{left}, {right}] must contain the origin")
    for x in obs.sites():
        lo = left + 1 if obs.kind == "qtilde_product" else left
        if not (lo <= x <= right):
            raise DomainError(f"observable site {x} outside window [{left}, {right}]")


def default_window(obs: Observable, t: float) -> tuple[int, int]:
    """Window wide enough that boundary effects are negligible at time t."""
    check_time(t)
    w = math.ceil(4.0 * t) + 32
    lo = min(min(obs.sites()), 0)
    hi = max(max(obs.sites()), 0)
    return (lo - w, hi + w)


def _observable_values(
    obs: Observable, positions: np.ndarray, params: ModelParams, origin: int = 0
) -> np.ndarray:
    """Evaluate the observable on a (replicas, particles) position matrix.

    positions holds sites minus origin, so a narrow table of window-local
    sites is compared against sites shifted by -origin, with no wide copy.
    The height h = 2 J + 2 (N_x - N_0) - x takes the net current J across
    the bond (0, 1) as N_0, the particle count at or left of the origin,
    which it equals on every path of a closed window whose particles all
    start right of 0; so h = 2 N_x - x.
    """
    tau = params.tau
    n_part = positions.shape[1]
    if obs.kind == "tau_pow_N":
        n_x = np.sum(positions <= obs.x - origin, axis=1)
        table = tau ** (obs.k * np.arange(n_part + 1, dtype=np.float64))
        return table[n_x]
    if obs.kind == "qtilde_product":
        out = np.ones(positions.shape[0], dtype=np.float64)
        table = tau ** np.arange(n_part + 1, dtype=np.float64)
        for x in obs.xs:
            eta = np.any(positions == x - origin, axis=1)
            n_prev = np.sum(positions <= x - 1 - origin, axis=1)
            out *= eta * table[n_prev]
        return out
    if obs.kind == "etau_of_zeta_tauN":
        n_x = np.sum(positions <= obs.x - origin, axis=1)
        table = np.empty(n_part + 1, dtype=np.float64)
        for j in range(n_part + 1):
            val = q_exp(obs.zeta * tau**j, tau)
            table[j] = float(np.real(val))
        return table[n_x]
    if obs.kind == "height_indicator":
        h = 2 * np.sum(positions <= obs.x - origin, axis=1) - obs.x
        return (h >= obs.threshold).astype(np.float64)
    raise DomainError(f"unknown observable kind {obs.kind!r}")


def _mc_block(
    obs: Observable,
    t: float,
    params: ModelParams,
    window: tuple[int, int],
    seed: int,
    block: int,
    n_keep: int,
) -> np.ndarray:
    left, right = window
    seq = np.random.SeedSequence((seed & 0xFFFFFFFFFFFFFFFF, block))
    rng = np.random.Generator(getattr(np.random, MC_BITGEN)(seq))
    dtype = np.promote_types(np.min_scalar_type(left - 1), np.min_scalar_type(right + 1))
    sites = np.concatenate(([left - 1], np.arange(2, right + 1, 2), [right + 1])).astype(dtype)
    n_part = sites.size - 2
    rows = np.tile(sites, (n_keep, 1))
    replica = np.arange(n_keep)
    if n_part > 0 and t > 0.0:
        n_ev = rng.poisson(n_part * t, size=n_keep)
        # Most events first; the stable sort of a key this narrow is a radix sort.
        top = int(n_ev.max())
        order = np.argsort((top - n_ev).astype(np.min_scalar_type(top)), kind="stable")
        replica[order] = np.arange(n_keep)
        # Entry s: how many kept replicas have more than s events.
        n_active = n_keep - np.cumsum(np.bincount(n_ev))
        flat = rows.reshape(-1)
        first = np.arange(n_keep) * sites.size + 1
        for n in n_active[:-1].tolist():
            cell = first[:n] + rng.integers(0, n_part, size=n)
            shift = (rng.random(size=n) < params.p).astype(dtype) * 2 - 1
            pos = flat.take(cell)
            new = pos + shift * (flat.take(cell + shift) != pos + shift)
            flat[cell] = new
    return _observable_values(obs, rows[:, 1:-1], params)[replica]


def mc_expectation(
    obs: Observable,
    t: float,
    params: ModelParams,
    samples: int,
    seed: int,
    window: tuple[int, int] | None = None,
) -> tuple[float, float]:
    """Monte Carlo mean and standard error over independent replicas.

    Replica r lives in block r // MC_BLOCK; each block draws from its own
    MC_BITGEN (PCG64DXSM) bit generator seeded by SeedSequence((seed, block)),
    so results are reproducible and independent of any parallel schedule.
    A block draws only for its kept replicas (samples - block * MC_BLOCK
    in the last block): one Poisson event count each, then at every step
    one particle and one direction for each replica with an event left, a
    prefix of the event-sorted rows, until the last of them runs out.  A
    full block's replicas are therefore fixed by (seed, block) alone; those
    of the last, partial block depend on samples too.  Each row carries
    wall columns at left - 1 and right + 1, in the narrowest signed integer
    type that holds them.
    """
    if samples < 100:
        raise DomainError(f"need samples >= 100, got {samples}")
    check_time(t)
    if window is None:
        window = default_window(obs, t)
    _check_observable_window(obs, window[0], window[1])
    total = 0.0
    total_sq = 0.0
    n_blocks = math.ceil(samples / MC_BLOCK)
    for block in range(n_blocks):
        n_keep = min(MC_BLOCK, samples - block * MC_BLOCK)
        vals = _mc_block(obs, t, params, window, seed, block, n_keep)
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals * vals))
    mean = total / samples
    var = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
    return mean, math.sqrt(var / samples)


def _comb_table(n_sites: int, n_part: int) -> np.ndarray:
    rows = [[math.comb(n, k) for k in range(n_part + 1)] for n in range(n_sites + 2)]
    return np.array(rows, dtype=np.int32)


def _colex_table(n_sites: int, n_part: int, table: np.ndarray) -> np.ndarray:
    """All n_part-subsets of range(n_sites) as sorted rows; row i has colex rank i.

    The combinadic rank of c_0 < ... < c_{k-1} is sum_j C(c_j, j + 1), so the
    k-subsets with largest site m are the (k-1)-subsets of range(m), which
    are the first C(m, k-1) rows of the (k-1)-table, with m appended; their
    ranks start at C(m, k).  Level k needs only the sites below
    n_sites - n_part + k, so no level has more rows than the last.
    """
    rows = np.zeros((1, 0), dtype=np.min_scalar_type(n_sites - 1))
    for k in range(1, n_part + 1):
        top = n_sites - n_part + k
        out = np.empty((table[top, k], k), dtype=rows.dtype)
        for m in range(k - 1, top):
            start, count = table[m, k], table[m, k - 1]
            out[start : start + count, :-1] = rows[:count]
            out[start : start + count, -1] = m
        rows = out
    return rows


def _poisson_weights(mu: float) -> tuple[int, np.ndarray]:
    """The left truncation point first and the Poisson(mu) weights of first..last.

    Each tail outside [first, last] holds less than 1e-13 (Chernoff bounds
    exp(-d^2 / (2 mu)) below and exp(-d^2 / (2 (mu + d/3))) above).  The
    first weight is taken in log space and the rest by the ratio mu / n,
    then the vector is normalized by its sum (Fox & Glynn, "Computing
    Poisson probabilities", CACM 1988).  exp(-mu) alone underflows once mu
    passes about 708; a log-space start is off by about 1e-16 * first *
    log(mu) relative, which can keep a 1 - 1e-12 mass rule from ever being
    met, and the normalization removes that error.
    """
    spread = math.sqrt(60.0 * mu)
    first = max(0, math.floor(mu - spread))
    last = math.ceil(mu + spread + 20.0)
    weights = np.empty(last - first + 1)
    weights[0] = math.exp(first * math.log(mu) - mu - math.lgamma(first + 1))
    for i in range(1, weights.size):
        weights[i] = weights[i - 1] * (mu / (first + i))
    return first, weights / weights.sum()


def _light_cone(configs: np.ndarray, init_sites: np.ndarray, n_max: int):
    """Colex ranks of the states within n_max hops of init_sites, and their shells.

    A hop moves one particle by one site, so it changes the L1 distance
    d = sum_j |c_j - c_j^0| from the start by exactly one, and after n
    steps the distribution is zero outside d <= n.  The ranks come as int32,
    sorted by (d, rank); shells[n] counts those with d <= n.
    """
    dist = np.zeros(configs.shape[0], dtype=np.int32)
    for j, c0 in enumerate(init_sites.tolist()):
        dist += np.abs(configs[:, j].astype(np.int32) - c0)
    keep = np.flatnonzero(dist <= n_max).astype(np.int32)
    dist = dist[keep]
    shells = np.cumsum(np.bincount(dist, minlength=n_max + 1))
    return keep[np.argsort(dist, kind="stable")], shells


def _right_hops(states, ranks, table, p: float, q: float):
    """The right-hop pattern A of the kept states as int32 CSR (indptr, indices), and the diagonal.

    Row i is the state states[i], of colex rank ranks[i], and lists the rows
    it reaches by one right hop, particle by particle; moving particle j
    from c to c + 1 raises the colex rank by C(c, j).  A hop to a rank that
    is not in ranks is dropped.  p and q are the per-step probabilities of a
    right and a left hop, and the diagonal is 1 - (the probability of the
    free hops), added right then left for each particle.
    """
    size, n_part = states.shape
    n_sites = table.shape[0] - 2  # _comb_table has rows 0..n_sites + 1
    index = np.full(table[n_sites, n_part], -1, dtype=np.int32)
    index[ranks] = np.arange(size, dtype=np.int32)
    indptr = np.zeros(size + 1, dtype=np.int32)
    diag = np.empty(size)
    # Hops go straight into one buffer of n_part per row; its unwritten tail is never touched.
    indices = np.empty(size * n_part, dtype=np.int32)
    nnz = 0
    # Row blocks keep the masks and gathers small; a block holds one column per particle.
    for lo in range(0, size, _KERNEL_BLOCK):
        sub, base = states[lo : lo + _KERNEL_BLOCK], ranks[lo : lo + _KERNEL_BLOCK]
        targets = np.full(sub.shape, -1, dtype=np.int32)
        leave = np.zeros(base.size)
        for j in range(n_part):
            c = sub[:, j]
            right = c < n_sites - 1 if j + 1 == n_part else sub[:, j + 1] - c > 1
            leave += np.where(right, p, 0.0)
            leave += np.where(c > 0 if j == 0 else c - sub[:, j - 1] > 1, q, 0.0)
            rows = np.flatnonzero(right)
            targets[rows, j] = index[base[rows] + table[c[rows], j]]
        kept = targets >= 0
        indptr[lo + 1 : lo + 1 + base.size] = kept.sum(axis=1)
        hops = targets[kept]
        indices[nnz : nnz + hops.size] = hops
        nnz += hops.size
        diag[lo : lo + base.size] = 1.0 - leave
    np.cumsum(indptr, out=indptr)
    return indptr, indices[:nnz], diag


def _uniformized_sum(indptr, indices, diag, coefs, v, first, weights, shells, values) -> float:
    """sum_n weights[n - first] <(K^T)^n v, values> for n = first..first + len(weights) - 1.

    K^T = a A + b A^T + diag, with (a, b) = coefs and A the CSR pattern
    (indptr, indices), whose arrays are also the CSC arrays of A^T.  v is
    the start and is overwritten.  At step n the distribution is zero past
    entry shells[n], so the step multiplies only the rows of A below
    shells[n + 1] and the rows of A^T below shells[n].  The data array
    holds a, and A^T reads v scaled in place by b / a, as v is not read again.
    """
    # The kernels behind csr_matrix @ v and csc_matrix @ v (y += A x), called
    # directly on prefixes: a sparse matrix built on short slices copies them,
    # since scipy prunes views under half their base.  Imported here, not at
    # module top: scipy.sparse slows every CLI start-up.
    from scipy.sparse._sparsetools import csc_matvec, csr_matvec

    a, b = coefs
    data = np.full(indices.size, a)
    size = v.size
    w = np.zeros(size)
    acc = 0.0
    last = first + len(weights) - 1
    for n in range(last + 1):
        m = int(shells[n])
        if n >= first:
            # w, free until the next step, holds the products; np.sum adds them
            # pairwise, where a BLAS dot missed by up to 2e-14 relative on the
            # 888,030 states of (-12, 14) at t = 10.
            acc += weights[n - first] * float(np.multiply(v[:m], values[:m], out=w[:m]).sum())
        if n < last:
            top = int(shells[n + 1])
            np.multiply(diag[:m], v[:m], out=w[:m])
            w[m:top] = 0.0
            csr_matvec(top, size, indptr[: top + 1], indices[: indptr[top]], data[: indptr[top]], v, w)
            v[:m] *= b / a
            csc_matvec(top, m, indptr[: m + 1], indices[: indptr[m]], data[: indptr[m]], v, w)
            v, w = w, v
    return acc


def ctmc_exact_expectation(
    obs: Observable,
    t: float,
    params: ModelParams,
    window: tuple[int, int],
) -> float:
    """Exact expectation on a closed window via uniformization.

    The states are the rows of _colex_table.  The Poisson series starts at
    the left truncation point of _poisson_weights and stops at the step N
    where its cumulative weight reaches 1 - 1e-12.  A hop changes the L1
    distance d from the start by one, so after n steps the distribution is
    exactly zero outside d <= n, and only the light cone d <= N is kept
    (_light_cone), ranked by (d, colex rank).  The distribution steps by
    the transpose of the uniformized kernel P = I + Q/lam on those states,
    K^T = (q/lam) A + (p/lam) A^T + D, since y -> x is a right hop exactly
    when x -> y is a left hop of the same particle.  Only the right-hop
    pattern A between kept states (_right_hops, int32 CSR) and the diagonal
    D of P are stored, and _uniformized_sum steps them on row prefixes: a
    hop out of the cone starts at d = N, where the distribution is zero
    whenever that row is stepped.  The observable is
    evaluated on the kept states alone.  At peak this takes about 20 bytes
    per state of the window, for the table and the distances, and about 100
    per kept state: 12 per entry of A, with its data array, and 8 for each
    of D, the values and the two vectors.  Deterministic.
    """
    check_time(t)
    left, right = int(window[0]), int(window[1])
    _check_observable_window(obs, left, right)
    n_sites = right - left + 1
    init_sites = np.arange(2 - left, right + 1 - left, 2, dtype=np.int64)
    n_part = init_sites.size
    n_states = math.comb(n_sites, n_part)
    if n_states > CTMC_STATE_CAP:
        raise DomainError(
            f"window [{left}, {right}] has {n_states} states, cap is {CTMC_STATE_CAP}"
        )
    if n_part == 0 or t == 0.0:
        return float(_observable_values(obs, init_sites[None, :] + left, params)[0])

    lam, p, q = float(n_part), params.p, params.q
    first, weights = _poisson_weights(lam * t)
    stop = np.flatnonzero(np.cumsum(weights) >= 1.0 - 1e-12)
    if stop.size == 0:
        raise ArithmeticError("uniformization series failed to converge")
    n_max = first + int(stop[0])
    weights = weights[: stop[0] + 1].tolist()
    table = _comb_table(n_sites, n_part)
    configs = _colex_table(n_sites, n_part, table)
    ranks, shells = _light_cone(configs, init_sites, n_max)
    states = configs[ranks]
    # Each array is dropped once read for the last time: the stepper holds only
    # the pattern, its data array, the diagonal, the values and two vectors.
    del configs
    values = _observable_values(obs, states, params, origin=left)
    indptr, indices, diag = _right_hops(states, ranks, table, p / lam, q / lam)
    del states, ranks
    start = np.zeros(values.size)
    start[0] = 1.0
    return _uniformized_sum(indptr, indices, diag, (q / lam, p / lam), start, first, weights,
                            shells, values)
