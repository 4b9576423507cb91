"""Tests for the simulator and the exact finite-window oracle."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from asep_exact.qfunc import DomainError, ModelParams, q_exp
from asep_exact.sim import (
    Observable,
    _colex_table,
    _comb_table,
    _light_cone,
    _right_hops,
    ctmc_exact_expectation,
    default_window,
    mc_expectation,
)

PARAMS = ModelParams.from_tau(0.5)


def both_oracles(obs: Observable, t: float, window: tuple[int, int]) -> tuple[float, float]:
    """Monte Carlo mean and CTMC value of obs on the same window."""
    mean, _ = mc_expectation(obs, t, PARAMS, 200, seed=1, window=window)
    return mean, ctmc_exact_expectation(obs, t, PARAMS, window)


class TestInitHalfflat:
    """Half-flat initial data, as both simulators build it independently."""

    def test_positive_evens_occupied(self):
        # eta_x tau^(N_{x-1}) at t = 0 is tau^(x/2 - 1) on positive even
        # sites and 0 elsewhere.
        for x in range(-3, 7):
            expected = 0.5 ** (x // 2 - 1) if x > 0 and x % 2 == 0 else 0.0
            for got in both_oracles(Observable.qtilde_product((x,)), 0.0, (-4, 6)):
                assert got == pytest.approx(expected, abs=1e-15)

    def test_small_window_has_no_particles(self):
        for got in both_oracles(Observable.tau_pow_N(1, 0), 0.5, (-2, 1)):
            assert got == 1.0

    def test_initial_counts_follow_floor(self):
        for x in range(0, 10):
            for got in both_oracles(Observable.tau_pow_N(1, x), 0.0, (-6, 9)):
                assert got == pytest.approx(0.5 ** (x // 2), abs=1e-15)

    def test_window_must_contain_origin(self):
        obs = Observable.tau_pow_N(1, 3)
        with pytest.raises(DomainError):
            mc_expectation(obs, 0.5, PARAMS, 200, seed=1, window=(1, 5))
        with pytest.raises(DomainError):
            ctmc_exact_expectation(obs, 0.5, PARAMS, (1, 5))

    def test_window_must_have_left_below_right(self):
        obs = Observable.tau_pow_N(1, 0)
        for window in ((0, 0), (5, 2)):
            with pytest.raises(DomainError, match="left < right"):
                mc_expectation(obs, 0.5, PARAMS, 200, seed=1, window=window)
            with pytest.raises(DomainError, match="left < right"):
                ctmc_exact_expectation(obs, 0.5, PARAMS, window)


class TestMCExpectation:
    def test_deterministic_at_time_zero(self):
        obs = Observable.tau_pow_N(1, 4)
        mean, stderr = mc_expectation(obs, 0.0, PARAMS, 200, seed=1)
        assert mean == pytest.approx(0.25, abs=1e-15)
        assert stderr < 1e-15

    def test_qtilde_deterministic_at_time_zero(self):
        obs = Observable.qtilde_product((2, 4))
        mean, stderr = mc_expectation(obs, 0.0, PARAMS, 200, seed=1)
        assert mean == pytest.approx(0.5, abs=1e-15)
        assert stderr < 1e-15

    def test_etau_deterministic_at_time_zero(self):
        obs = Observable.etau_of_zeta_tauN(-0.4, 2)
        mean, _ = mc_expectation(obs, 0.0, PARAMS, 200, seed=1)
        expected = float(np.real(q_exp(-0.4 * 0.5, 0.5)))
        assert mean == pytest.approx(expected, abs=1e-14)

    def test_height_indicator_at_time_zero(self):
        # h(0, x) = -(x mod 2), so the indicator of h >= 0 sees even sites.
        even = Observable.height_indicator(4, 0.0)
        odd = Observable.height_indicator(5, 0.0)
        assert mc_expectation(even, 0.0, PARAMS, 200, seed=1)[0] == 1.0
        assert mc_expectation(odd, 0.0, PARAMS, 200, seed=1)[0] == 0.0

    def test_reproducible_by_seed(self):
        obs = Observable.tau_pow_N(1, 0)
        a = mc_expectation(obs, 0.6, PARAMS, 3000, seed=42, window=(-9, 9))
        b = mc_expectation(obs, 0.6, PARAMS, 3000, seed=42, window=(-9, 9))
        c = mc_expectation(obs, 0.6, PARAMS, 3000, seed=43, window=(-9, 9))
        assert a == b
        assert a != c

    def test_sample_count_validated(self):
        with pytest.raises(DomainError):
            mc_expectation(Observable.tau_pow_N(1, 0), 1.0, PARAMS, 99, seed=0)

    def test_site_outside_window_rejected(self):
        with pytest.raises(DomainError):
            mc_expectation(Observable.tau_pow_N(1, 12), 1.0, PARAMS, 200, seed=0, window=(-6, 6))

    def test_negative_time_rejected(self):
        obs = Observable.tau_pow_N(1, 0)
        with pytest.raises(DomainError):
            mc_expectation(obs, -1.0, PARAMS, 200, seed=0)
        with pytest.raises(DomainError):
            ctmc_exact_expectation(obs, -1.0, PARAMS, (-4, 6))

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, t):
        obs = Observable.tau_pow_N(1, 0)
        with pytest.raises(DomainError, match="need finite t >= 0"):
            mc_expectation(obs, t, PARAMS, 200, seed=0, window=(-4, 6))
        with pytest.raises(DomainError, match="need finite t >= 0"):
            default_window(obs, t)
        with pytest.raises(DomainError, match="need finite t >= 0"):
            ctmc_exact_expectation(obs, t, PARAMS, (-4, 6))

    def test_left_only_drift_crosses_origin_bond(self):
        # With the right rate ~0, the single particle at 2 walks to the
        # closed left boundary, crossing the 1 -> 0 bond exactly once, so
        # every replica has N_{-2} = 1 and height 2 * current = 2 at 0.
        params = ModelParams(p=1e-12, q=1.0 - 1e-12)
        window = (-2, 2)
        mean, stderr = mc_expectation(Observable.tau_pow_N(1, -2), 60.0, params, 200, 11, window)
        assert mean == pytest.approx(params.tau, rel=1e-12) and stderr < 1e-20
        for threshold, expected in ((2.0, 1.0), (3.0, 0.0)):
            obs = Observable.height_indicator(0, threshold)
            assert mc_expectation(obs, 60.0, params, 200, 11, window)[0] == expected

    def test_default_window_scales_with_time(self):
        lo, hi = default_window(Observable.tau_pow_N(1, 3), 2.0)
        assert lo == -40 and hi == 43


class TestMCStream:
    """(mean, stderr) pinned bit for bit.  Each block draws from PCG64DXSM seeded
    by SeedSequence((seed, block)), one Poisson count per kept replica and then,
    at each step, one particle and one direction per replica with an event
    left; any change to the step loop must reproduce these."""

    @pytest.mark.parametrize("obs,t,params,samples,seed,window,expected", [
        pytest.param(Observable.tau_pow_N(1, 0), 0.5, PARAMS, 70000, 5, None,
                     (0.9810857142857143, 0.00036054567070011896), id="partial_last_block"),
        pytest.param(Observable.tau_pow_N(2, 1), 1.5, PARAMS, 200, 3, (-12, 14),
                     (0.630625, 0.026745701000065875), id="200_samples"),
        pytest.param(Observable.height_indicator(0, 1.0), 1.0, PARAMS, 5000, 9, (-6, 6),
                     (0.1172, 0.004549392420343496), id="height_crosses_origin_bond"),
        pytest.param(Observable.height_indicator(-1, 2.0), 2.0, ModelParams.from_tau(0.3),
                     3000, 4, (-8, 8), (0.15133333333333332, 0.006544065513858216),
                     id="height_left_of_origin"),
        pytest.param(Observable.qtilde_product((1, 2)), 0.7, PARAMS, 4000, 2, (-8, 10),
                     (0.00575, 0.0008430077345494094), id="qtilde_product"),
        pytest.param(Observable.etau_of_zeta_tauN(-0.6, 1), 0.8, ModelParams.from_tau(0.9),
                     4000, 6, (-10, 10), (0.5624257954223171, 0.0002298517236607915),
                     id="etau_of_zeta_tauN"),
        pytest.param(Observable.tau_pow_N(1, -2), 60.0, ModelParams(p=1e-12, q=1.0 - 1e-12),
                     200, 11, (-2, 2), (1.000000000001e-12, 0.0), id="left_drift_t60"),
    ])
    def test_pinned_values(self, obs, t, params, samples, seed, window, expected):
        assert mc_expectation(obs, t, params, samples, seed, window=window) == expected

    @pytest.mark.parametrize("obs, t", [
        (Observable.tau_pow_N(1, 0), 0.4),
        (Observable.qtilde_product((1,)), 0.5),
        (Observable.height_indicator(0, 1.0), 0.4),
    ], ids=["tau_pow_N", "qtilde_product", "height_indicator"])
    def test_stream_matches_ctmc(self, obs, t):
        # Ten seeds of 40,000 replicas against the exact value on the same
        # window: a biased stream or step loop shows as a large |z| or as a
        # mean z far from 0 (its spread over ten seeds is about 0.32).
        window = (-5, 5)
        exact_val = ctmc_exact_expectation(obs, t, PARAMS, window)
        z = []
        for seed in range(10):
            mean, stderr = mc_expectation(obs, t, PARAMS, 40000, seed, window=window)
            z.append((mean - exact_val) / stderr)
        assert max(abs(v) for v in z) < 4.0
        assert abs(sum(z) / len(z)) < 1.0

    def test_sites_beyond_int16(self):
        # 20,000 particles at 2, 4, ..., 40000: N_2 = 1 at t = 0.
        obs = Observable.tau_pow_N(1, 2)
        assert mc_expectation(obs, 0.0, PARAMS, 100, 0, window=(-2, 40000)) == (0.5, 0.0)

    def test_only_kept_replicas_are_built(self):
        # 1,000 particles: a full 65,536-replica block would hold about 650 MB.
        obs = Observable.tau_pow_N(1, 0)
        tracemalloc.start()
        try:
            mc_expectation(obs, 0.01, PARAMS, 200, 3, window=(-2, 2000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestCTMCOracle:
    def test_time_zero_is_deterministic(self):
        obs = Observable.tau_pow_N(1, 4)
        assert ctmc_exact_expectation(obs, 0.0, PARAMS, (-4, 6)) == pytest.approx(0.25, abs=1e-15)

    def test_matches_monte_carlo_on_shared_window(self):
        # Same truncated dynamics evaluated by two independent methods.
        obs = Observable.tau_pow_N(1, 0)
        window = (-5, 5)
        exact_val = ctmc_exact_expectation(obs, 0.4, PARAMS, window)
        mean, stderr = mc_expectation(obs, 0.4, PARAMS, 40000, seed=7, window=window)
        assert abs(mean - exact_val) < 4.0 * stderr

    def test_qtilde_matches_monte_carlo_on_shared_window(self):
        obs = Observable.qtilde_product((1,))
        window = (-5, 5)
        exact_val = ctmc_exact_expectation(obs, 0.5, PARAMS, window)
        mean, stderr = mc_expectation(obs, 0.5, PARAMS, 40000, seed=11, window=window)
        assert abs(mean - exact_val) < 4.0 * stderr

    def test_window_doubling_insensitivity(self):
        obs = Observable.tau_pow_N(1, 0)
        small = ctmc_exact_expectation(obs, 0.25, PARAMS, (-4, 6))
        big = ctmc_exact_expectation(obs, 0.25, PARAMS, (-8, 12))
        assert abs(small - big) < 1e-8

    def test_state_cap_refusal_reports_count(self):
        with pytest.raises(DomainError) as err:
            ctmc_exact_expectation(Observable.tau_pow_N(1, 0), 0.5, PARAMS, (-20, 20))
        assert "states" in str(err.value)

    def test_height_indicator_consistency(self):
        # For half-flat data the current equals the count left of the origin,
        # so both oracles see the same indicator law.
        obs = Observable.height_indicator(1, -1.0)
        window = (-5, 5)
        exact_val = ctmc_exact_expectation(obs, 0.4, PARAMS, window)
        mean, stderr = mc_expectation(obs, 0.4, PARAMS, 40000, seed=3, window=window)
        assert abs(mean - exact_val) < 4.0 * max(stderr, 1e-4)

    def test_large_lambda_t_matches_stationary_law(self):
        # 4 particles, so lambda t = 1600: exp(-lambda t) underflows, and
        # the chain has relaxed to its reversible law pi ~ tau^(sum of
        # positions), brute-forced here over all C(15, 4) = 1,365 states.
        tau = PARAMS.tau
        weight = total = 0.0
        for sites in itertools.combinations(range(-6, 9), 4):
            pi = tau ** sum(sites)
            weight += pi
            total += pi * tau ** sum(1 for y in sites if y <= 0)
        stationary = total / weight
        assert stationary == pytest.approx(0.06979583117160558, rel=1e-14)
        got = ctmc_exact_expectation(Observable.tau_pow_N(1, 0), 400.0, PARAMS, (-6, 8))
        assert abs(got - stationary) < 1e-9

    def test_peak_memory_per_state(self):
        # (-10, 12): 6 particles on 23 sites.  The warm-up call loads
        # scipy.sparse, so only the arrays of the solve are traced.  Storing
        # only the right-hop pattern peaks at 42 bytes per window state (64
        # with both hop directions and the diagonal in one CSR); the bound
        # leaves a margin of about 15%.
        obs = Observable.tau_pow_N(1, 0)
        ctmc_exact_expectation(obs, 1.0, PARAMS, (-3, 4))
        tracemalloc.start()
        try:
            ctmc_exact_expectation(obs, 1.0, PARAMS, (-10, 12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * math.comb(23, 6)

    def test_peak_memory_per_kept_state(self):
        # At t = 4 on (-12, 14) the light cone holds 808,317 of the 888,030
        # states, and the stepping arrays set the peak: 98.5 bytes per kept
        # state (171 with both hop directions and the diagonal in one CSR).
        obs = Observable.tau_pow_N(1, 0)
        ctmc_exact_expectation(obs, 1.0, PARAMS, (-3, 4))
        tracemalloc.start()
        try:
            ctmc_exact_expectation(obs, 4.0, PARAMS, (-12, 14))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 120 * 808_317

    def test_short_time_builds_only_the_light_cone(self):
        # At t = 0.25 the series stops after 17 steps, and 27,383 of the 888,030
        # states lie within 17 hops of the start.  Building K^T on every state
        # peaks at about 190 bytes per state; the state table and the distances
        # that select the ball take under 20.
        obs = Observable.tau_pow_N(1, 0)
        ctmc_exact_expectation(obs, 1.0, PARAMS, (-3, 4))
        tracemalloc.start()
        try:
            ctmc_exact_expectation(obs, 0.25, PARAMS, (-12, 14))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * math.comb(27, 7)

    @pytest.mark.parametrize("t, expected", [(1.0, 0.9436793188953371),
                                             (4.0, 0.7369867789251383)])
    def test_wide_window_values_pinned(self, t, expected):
        # Taken with K^T built on every state; stepping the light cone alone
        # changes only the order of the final sums.
        got = ctmc_exact_expectation(Observable.tau_pow_N(1, 0), t, PARAMS, (-12, 14))
        assert abs(got - expected) < 1e-15


def _colex_ranks(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    ranks = np.zeros(rows.shape[0], dtype=np.int64)
    for j in range(rows.shape[1]):
        ranks += table[rows[:, j], j + 1]
    return ranks


class TestColexTable:
    @pytest.mark.parametrize("n_sites, n_part", [(8, 3), (10, 5), (27, 7), (5, 0), (6, 6)])
    def test_rows_are_combinations_in_rank_order(self, n_sites, n_part):
        table = _comb_table(n_sites, n_part)
        got = _colex_table(n_sites, n_part, table)
        n = math.comb(n_sites, n_part)
        flat = itertools.chain.from_iterable(itertools.combinations(range(n_sites), n_part))
        ref = np.fromiter(flat, dtype=np.int64, count=n * n_part).reshape(n, n_part)
        assert got.dtype == np.min_scalar_type(n_sites - 1)
        assert np.array_equal(got, ref[np.argsort(_colex_ranks(ref, table), kind="stable")])
        assert np.array_equal(_colex_ranks(got, table), np.arange(n))


class TestRightHopKernel:
    """The stored right-hop pattern A and diagonal D against an itertools brute force."""

    def test_lists_every_free_hop_between_kept_states(self):
        # Loop over the full state table of (-4, 5): every free right hop from a state
        # within n_max = 3 hops of the start to another such state is a CSR entry, in
        # particle order, and no other; hops out of the cone are dropped by rank alone.
        left, right, n_max = -4, 5, 3
        n_sites = right - left + 1
        init = np.arange(2 - left, right + 1 - left, 2)
        n_part = init.size
        p, q = 0.11, 0.07
        table = _comb_table(n_sites, n_part)
        configs = _colex_table(n_sites, n_part, table)
        ranks, _ = _light_cone(configs, init, n_max)
        indptr, indices, diag = _right_hops(configs[ranks], ranks, table, p, q)

        rank_of = {tuple(c): r for r, c in enumerate(configs.tolist())}
        row_of = {r: i for i, r in enumerate(ranks.tolist())}
        hops, leaves = {}, {}
        for rank, c in enumerate(configs.tolist()):
            if rank not in row_of:
                continue
            row, leave = [], 0.0
            for j, y in enumerate(c):
                if y + 1 < n_sites and y + 1 not in c:
                    leave += p
                    target = rank_of[tuple(c[:j] + [y + 1] + c[j + 1 :])]
                    if target in row_of:
                        row.append(row_of[target])
                if y > 0 and y - 1 not in c:
                    leave += q
            hops[row_of[rank]], leaves[row_of[rank]] = row, 1.0 - leave
        assert 0 < len(hops) < len(configs)
        assert [indices[indptr[i] : indptr[i + 1]].tolist() for i in range(len(hops))] == \
            [hops[i] for i in range(len(hops))]
        assert diag.tolist() == [leaves[i] for i in range(len(hops))]

    @pytest.mark.parametrize("window, n_max", [
        ((-3, 4), 2), ((-5, 6), 3), ((-4, 7), 5), ((-5, 6), 40),
    ], ids=["two-particles", "three-particles", "four-particles", "whole-window"])
    def test_pattern_and_diagonal_match_dense_kernel(self, window, n_max):
        # tau = 0.3 makes p != q, so a kernel with the two rates swapped fails.
        # The uniformized kernel P is built by hand over every state of the
        # window; K^T restricted to the states within n_max hops of the start
        # must equal (q/lam) A + (p/lam) A^T + D exactly.
        params = ModelParams.from_tau(0.3)
        left, right = window
        n_sites = right - left + 1
        init = np.arange(2 - left, right + 1 - left, 2)
        n_part = init.size
        lam = float(n_part)
        p, q = params.p / lam, params.q / lam
        table = _comb_table(n_sites, n_part)
        ranks, shells = _light_cone(_colex_table(n_sites, n_part, table), init, n_max)
        states = _colex_table(n_sites, n_part, table)[ranks]
        indptr, indices, diag = _right_hops(states, ranks, table, p, q)

        every = list(itertools.combinations(range(n_sites), n_part))
        dist = {c: sum(abs(a - b) for a, b in zip(c, init.tolist())) for c in every}
        cone = sorted((c for c in every if dist[c] <= n_max), key=lambda c: (dist[c], c[::-1]))
        assert [tuple(row) for row in states.tolist()] == cone
        pos = {c: i for i, c in enumerate(cone)}
        full = {c: i for i, c in enumerate(every)}
        kernel = np.zeros((len(every), len(every)))
        want_rows, want_diag, dropped = [], [], 0
        for c in cone:
            row, leave = [], 0.0
            for a, y in enumerate(c):
                for z, rate in ((y + 1, p), (y - 1, q)):
                    if 0 <= z < n_sites and z not in c:
                        leave += rate
                        hop = tuple(sorted(c[:a] + (z,) + c[a + 1 :]))
                        kernel[full[c], full[hop]] = rate
                        if z > y and hop in pos:
                            row.append(pos[hop])
                        dropped += hop not in pos
            want_rows.append(row)
            want_diag.append(1.0 - leave)
            kernel[full[c], full[c]] = 1.0 - leave

        got_rows = [indices[indptr[i] : indptr[i + 1]].tolist() for i in range(len(cone))]
        assert got_rows == want_rows
        assert indptr.dtype == indices.dtype == np.int32
        assert np.array_equal(diag, want_diag)
        assert (dropped > 0) == (len(cone) < len(every))
        a = np.zeros((len(cone), len(cone)))
        for i, row in enumerate(want_rows):
            a[i, row] = 1.0
        order = [full[c] for c in cone]
        restricted = kernel[np.ix_(order, order)].T
        assert np.array_equal(q * a + p * a.T + np.diag(diag), restricted)


def _brute_value(obs: Observable, sites: tuple[int, ...], tau: float) -> float:
    if obs.kind == "tau_pow_N":
        return tau ** (obs.k * sum(y <= obs.x for y in sites))
    return math.prod((x in sites) * tau ** sum(y < x for y in sites) for x in obs.xs)


def _dense_reference(obs: Observable, t: float, params: ModelParams, window) -> float:
    """e_init^T expm(Q t) f with the generator Q brute-forced over itertools."""
    left, right = window
    init = tuple(range(2, right + 1, 2))
    states = list(itertools.combinations(range(left, right + 1), len(init)))
    index = {sites: i for i, sites in enumerate(states)}
    gen = np.zeros((len(states), len(states)))
    for i, sites in enumerate(states):
        for a, y in enumerate(sites):
            for z, rate in ((y + 1, params.p), (y - 1, params.q)):
                if left <= z <= right and z not in sites:
                    gen[i, index[tuple(sorted(sites[:a] + (z,) + sites[a + 1 :]))]] += rate
        gen[i, i] = -gen[i].sum()
    f = np.array([_brute_value(obs, sites, params.tau) for sites in states])
    return float(expm(gen * t)[index[init]] @ f)


class TestCTMCDenseReference:
    @pytest.mark.parametrize("t", [0.3, 2.0])
    @pytest.mark.parametrize("window, obs", [
        ((-3, 4), Observable.tau_pow_N(1, 0)),
        ((-5, 6), Observable.tau_pow_N(2, 1)),
        ((-4, 6), Observable.qtilde_product((0, 1))),
        ((-197, 2), Observable.tau_pow_N(1, 0)),
        ((-40, 4), Observable.tau_pow_N(1, -1)),
    ], ids=["tau-pow-n", "tau-pow-n-k2", "qtilde", "200-sites", "light-cone"])
    def test_matches_matrix_exponential(self, window, obs, t):
        # tau = 0.3 makes p != q, so K^T with the rates unswapped fails; the
        # 200-site window has one particle and overflows an int8 state
        # table.  The series stops after N steps, so only the states within
        # N hops of the start are built: of the 990 on (-40, 4), 56 at
        # t = 0.3 and 196 at t = 2.  It stops with less than 1e-12 of Poisson mass left
        # and |f| <= 1, which bounds the error: (-197, 2) at t = 2 drops
        # 6.5e-13 of mass and misses by 2.0e-13.
        params = ModelParams.from_tau(0.3)
        ref = _dense_reference(obs, t, params, window)
        assert abs(ctmc_exact_expectation(obs, t, params, window) - ref) < 1e-12
