"""Exclusion-process Monte Carlo and exact finite-window oracle.

Dynamics: each particle carries an exponential clock of total rate one and
attempts a right jump with probability p, left with probability q = 1 - p;
attempts blocked by the exclusion rule or the closed window boundary consume
time (thinning), which realizes the generator exactly.  Half-flat initial
data occupies every positive even site.

Two independent evaluators of the same dynamics:

- mc_expectation steps blocks of MC_BLOCK replicas together, each block on
  its own counter-based random stream derived from (seed, block), and
  tracks every replica's net current across the bond between sites 1 and 0
  for the height observable.  The stream is drawn for the whole block, but
  only the replicas a call keeps are stored and stepped: sorted once by
  event count, the replicas with an attempt left form a prefix of the rows,
  and each row carries wall columns at left - 1 and right + 1, so a hop
  is one gather of the neighbour and one comparison with the target;
- ctmc_exact_expectation lists every configuration of a small closed
  window in combinadic-rank order and steps the distribution by the
  transposed uniformized kernel: the pattern of the forward kernel with
  p and q swapped, in int32 CSR, with the diagonal as a vector, under
  200 bytes per state at peak.  Its Poisson weights start from a left
  truncation point, so large lambda t neither underflows nor loses mass.

Both serve as ground truth for the contour-integral formulas in the exact
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qfunc import DomainError, ModelParams, q_exp

__all__ = [
    "Observable",
    "default_window",
    "mc_expectation",
    "ctmc_exact_expectation",
    "CTMC_STATE_CAP",
    "MC_BLOCK",
]

MC_BLOCK = 1 << 16
CTMC_STATE_CAP = 2_000_000


@dataclass(frozen=True)
class Observable:
    """One scalar functional of the configuration at a fixed time.

    kind selects among: 'tau_pow_N' (tau^(k N_x)), 'qtilde_product'
    (product over sites of occupancy times tau^(N_{x-1})),
    'etau_of_zeta_tauN' (q-exponential of zeta tau^(N_x)), and
    'height_indicator' (indicator of {h(t,x) >= threshold} with the height
    built from the tracked current).
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
    w = math.ceil(4.0 * t) + 32
    lo = min(min(obs.sites()), 0)
    hi = max(max(obs.sites()), 0)
    return (lo - w, hi + w)


def _observable_values(
    obs: Observable,
    positions: np.ndarray,
    params: ModelParams,
    flux0: np.ndarray | None,
) -> np.ndarray:
    """Evaluate the observable on a (replicas, particles) position matrix.

    flux0=None uses the particle count at or left of the origin, which equals
    the tracked current pathwise when every particle starts right of 0.
    """
    tau = params.tau
    n_part = positions.shape[1]
    if obs.kind == "tau_pow_N":
        n_x = np.sum(positions <= obs.x, axis=1)
        table = tau ** (obs.k * np.arange(n_part + 1, dtype=np.float64))
        return table[n_x]
    if obs.kind == "qtilde_product":
        out = np.ones(positions.shape[0], dtype=np.float64)
        table = tau ** np.arange(n_part + 1, dtype=np.float64)
        for x in obs.xs:
            eta = np.any(positions == x, axis=1)
            n_prev = np.sum(positions <= x - 1, axis=1)
            out *= eta * table[n_prev]
        return out
    if obs.kind == "etau_of_zeta_tauN":
        n_x = np.sum(positions <= obs.x, axis=1)
        table = np.empty(n_part + 1, dtype=np.float64)
        for j in range(n_part + 1):
            val = q_exp(obs.zeta * tau**j, tau)
            table[j] = float(np.real(val))
        return table[n_x]
    if obs.kind == "height_indicator":
        n_x = np.sum(positions <= obs.x, axis=1)
        n_0 = np.sum(positions <= 0, axis=1)
        if flux0 is None:
            flux0 = n_0
        h = 2 * flux0 + 2 * (n_x - n_0) - obs.x
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
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, block], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    dtype = np.promote_types(np.min_scalar_type(left - 1), np.min_scalar_type(right + 1))
    sites = np.concatenate(([left - 1], np.arange(2, right + 1, 2), [right + 1])).astype(dtype)
    n_part = sites.size - 2
    rows = np.tile(sites, (n_keep, 1))
    flux = np.zeros(n_keep, dtype=np.int32)
    order = np.arange(n_keep)
    if n_part > 0 and t > 0.0:
        n_ev = rng.poisson(n_part * t, size=MC_BLOCK)[:n_keep]
        order = np.argsort(-n_ev, kind="stable")
        # Entry s: how many kept replicas have more than s events.
        n_active = n_keep - np.cumsum(np.bincount(n_ev))
        flat = rows.reshape(-1)
        first = np.arange(n_keep) * sites.size + 1
        for n in n_active[:-1].tolist():
            # Draws stay MC_BLOCK long, so the stream is the same for any n_keep.
            active = order[:n]
            cell = first[:n] + rng.integers(0, n_part, size=MC_BLOCK).take(active)
            shift = (rng.random(size=MC_BLOCK).take(active) < params.p).astype(dtype) * 2 - 1
            pos = flat.take(cell)
            new = pos + shift * (flat.take(cell + shift) != pos + shift)
            flat[cell] = new
            # +1 for a hop from 1 to 0, -1 for a hop from 0 to 1.
            flux[:n] += (pos - new) * (np.minimum(pos, new) == 0)
    replica = np.argsort(order)
    return _observable_values(obs, rows[replica, 1:-1].astype(np.int64), params, flux[replica])


def mc_expectation(
    obs: Observable,
    t: float,
    params: ModelParams,
    samples: int,
    seed: int,
    window: tuple[int, int] | None = None,
) -> tuple[float, float]:
    """Monte Carlo mean and standard error over independent replicas.

    Replica r lives in block r // MC_BLOCK; each block derives its own
    counter-based stream from (seed, block), so results are reproducible
    and independent of any parallel schedule.  Every block draws the same
    MC_BLOCK-long stream whatever samples is, but only its kept replicas
    (samples - block * MC_BLOCK in the last block) are simulated, and only
    until the last of them runs out of events; at each step only the
    replicas with an attempt left, a prefix of the event-sorted rows, do
    any work.  Each row carries wall columns at left - 1 and right + 1, in
    the narrowest signed integer type that holds them.
    """
    if samples < 100:
        raise DomainError(f"need samples >= 100, got {samples}")
    if t < 0:
        raise DomainError(f"need t >= 0, got {t}")
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


def _reverse_kernel(configs: np.ndarray, table: np.ndarray, n_sites: int, p: float, q: float):
    """K^T as int32 CSR without its diagonal, and the diagonal as a vector.

    p and q are the per-step probabilities of a right and a left hop.  x -> y
    is a right hop exactly when y -> x is a left hop of the same particle, so
    row y of K^T holds y's right-hop targets at q and its left-hop targets
    at p.  Moving particle j from c to c + 1 raises the rank by C(c, j).
    """
    # imported here, not at module top: scipy.sparse slows every CLI start-up
    from scipy import sparse

    n_states, n_part = configs.shape
    hops = []  # (particle, rows where it can hop, whether right)
    for j in range(n_part):
        c = configs[:, j]
        free_right = c < n_sites - 1 if j + 1 == n_part else configs[:, j + 1] - c > 1
        free_left = c > 0 if j == 0 else c - configs[:, j - 1] > 1
        hops += [(j, free_right, True), (j, free_left, False)]
    indptr = np.zeros(n_states + 1, dtype=np.int32)
    leave = np.zeros(n_states)
    for _, mask, right in hops:
        indptr[1:] += mask
        leave += np.where(mask, p if right else q, 0.0)
    np.cumsum(indptr, out=indptr)
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    fill = indptr[:-1].copy()
    for j, mask, right in hops:
        rows = np.flatnonzero(mask)
        c = configs[rows, j]
        pos = fill[rows]
        indices[pos] = rows + table[c, j] if right else rows - table[c - 1, j]
        data[pos] = q if right else p
        fill[rows] += 1
    return sparse.csr_matrix((data, indices, indptr), shape=(n_states, n_states)), 1.0 - leave


def ctmc_exact_expectation(
    obs: Observable,
    t: float,
    params: ModelParams,
    window: tuple[int, int],
) -> float:
    """Exact expectation on a closed window via uniformization.

    The states are the rows of _colex_table.  The distribution steps by
    the transpose K^T of the uniformized kernel P = I + Q/lam, which has
    the off-diagonal pattern of K with p and q swapped (_reverse_kernel),
    in CSR with int32 indices, and the diagonal of P as a vector: 12 bytes
    per transition and about 60 per state, under 200 bytes per state in
    all at peak.  The Poisson series starts at the left truncation point
    of _poisson_weights and stops once its cumulative weight reaches
    1 - 1e-12.  Deterministic.
    """
    if t < 0:
        raise DomainError(f"need t >= 0, got {t}")
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
    table = _comb_table(n_sites, n_part)
    configs = _colex_table(n_sites, n_part, table)
    values = _observable_values(obs, configs.astype(np.int64) + left, params, None)
    init_rank = int(np.sum(table[init_sites, np.arange(1, n_part + 1)]))
    if n_part == 0 or t == 0.0:
        return float(values[init_rank])

    lam = float(n_part)
    kt, stay = _reverse_kernel(configs, table, n_sites, params.p / lam, params.q / lam)

    v = np.zeros(n_states, dtype=np.float64)
    v[init_rank] = 1.0
    first, weights = _poisson_weights(lam * t)
    for _ in range(first):
        v = kt @ v + stay * v
    acc = 0.0
    cum = 0.0
    for weight in weights.tolist():
        acc += weight * float(v @ values)
        cum += weight
        if cum >= 1.0 - 1e-12:
            return acc
        v = kt @ v + stay * v
    raise ArithmeticError("uniformization series failed to converge")
