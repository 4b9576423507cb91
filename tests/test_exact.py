"""Tests for the contour-integral moment evaluators.

Oracle strategy: time-zero values have closed forms because the initial
data is deterministic, positive-time values are pinned by the exact
finite-window generator oracle and by frozen Monte Carlo anchors, and the
three independent representations of the single-site moments must agree
with each other to quadrature accuracy.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asep_exact import exact as ex
from asep_exact import qfunc, quad
from asep_exact.qfunc import (
    DomainError,
    ModelParams,
    PoleError,
    poch_table,
    q_factorial,
)
from asep_exact.quad import CostGuardError
from asep_exact.sim import Observable, ctmc_exact_expectation

PARAMS = ModelParams.from_tau(0.5)
EV = ex.EvalParams(params=PARAMS)


def make_ev(tau: float, **kwargs) -> ex.EvalParams:
    return ex.EvalParams(params=ModelParams.from_tau(tau), **kwargs)


def count_calls(monkeypatch, name: str) -> list:
    """Wrap exact.<name> so that each call appends to the returned list."""
    calls = []
    real = getattr(ex, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(ex, name, counted)
    return calls


class TestRates:
    def test_single_particle_rate_vanishes_at_one(self):
        assert ex.eps(1.0, PARAMS) == pytest.approx(0.0, abs=1e-15)

    def test_single_particle_rate_value(self):
        params = ModelParams.from_p(1.0 / 3.0)
        assert ex.eps(2.0, params) == pytest.approx(0.5, abs=1e-15)

    def test_rate_symmetric_under_xi_to_tau_over_xi(self):
        tau = PARAMS.tau
        for xi in (0.4 + 0.3j, 1.7 - 0.2j, 2.0 + 0j):
            left = ex.eps(xi, PARAMS)
            right = ex.eps(tau / xi, PARAMS)
            assert abs(left - right) < 1e-14

    def test_tilde_rate_vanishes_at_zero(self):
        assert abs(ex.eps_tilde(0.0, PARAMS)) < 1e-15

    def test_tilde_rate_is_composition(self):
        tau = PARAMS.tau
        for z in (0.2 + 0.1j, -0.5 + 0.4j, 0.8j):
            xi = (1.0 - tau * z) / (1.0 - z)
            assert abs(ex.eps_tilde(z, PARAMS) - ex.eps(xi, PARAMS)) < 1e-13

    def test_hat_rate_is_shifted_tilde_rate(self):
        tau = PARAMS.tau
        for y in (0.1 + 0.2j, -0.3 - 0.1j):
            assert abs(ex.eps_hat(y, PARAMS) - ex.eps_tilde(-y / tau, PARAMS)) < 1e-14

    def test_rates_are_array_transparent(self):
        z = np.array([0.1 + 0.1j, -0.2 + 0.3j])
        out = ex.eps_tilde(z, PARAMS)
        assert out.shape == z.shape
        assert abs(out[0] - ex.eps_tilde(z[0], PARAMS)) < 1e-15

    def test_pole_arguments_rejected(self):
        with pytest.raises(PoleError):
            ex.eps(0.0, PARAMS)
        with pytest.raises(PoleError):
            ex.eps_tilde(1.0, PARAMS)
        with pytest.raises(PoleError):
            ex.eps_tilde(1.0 / PARAMS.tau, PARAMS)


class TestEnumeration:
    def test_compositions_lexicographic(self):
        assert ex.compositions(4, 2) == [(1, 3), (2, 2), (3, 1)]

    def test_composition_counts(self):
        for m in range(1, 8):
            for k in range(1, m + 1):
                assert len(ex.compositions(m, k)) == math.comb(m - 1, k - 1)

    def test_compositions_degenerate(self):
        assert ex.compositions(0, 0) == [()]
        assert ex.compositions(3, 0) == []
        assert ex.compositions(2, 3) == []

    def test_partitions_descending(self):
        got = ex.partitions_of(5)
        assert got[0] == (5,)
        assert got[-1] == (1, 1, 1, 1, 1)
        assert len(got) == 7
        assert all(sum(p) == 5 for p in got)
        assert got == sorted(got, reverse=True)

    def test_partitions_of_zero(self):
        assert ex.partitions_of(0) == [()]

    def test_invalid_parts_rejected(self):
        with pytest.raises(DomainError):
            ex.compositions(-1, 2)


class TestQtildeMoments:
    @pytest.mark.parametrize(
        "xs,expected",
        [
            ((2,), 1.0),
            ((2, 4), 0.5),
            ((2, 4, 6), 0.125),
            ((1, 4), 0.0),
            ((-2, 2), 0.0),
            ((2, 3), 0.0),
        ],
    )
    def test_time_zero_closed_form(self, xs, expected):
        assert ex.qtilde_initial(xs, PARAMS) == pytest.approx(expected, abs=1e-15)
        val = ex.qtilde_moments(xs, 0.0, EV)
        assert abs(val.value - expected) < 1e-9

    def test_matches_generator_oracle_one_site(self):
        oracle = ctmc_exact_expectation(Observable.qtilde_product((1,)), 0.3, PARAMS, (-6, 8))
        val = ex.qtilde_moments((1,), 0.3, EV)
        assert abs(val.value - oracle) < 1e-8

    def test_matches_generator_oracle_two_sites(self):
        oracle = ctmc_exact_expectation(
            Observable.qtilde_product((2, 4)), 0.5, PARAMS, (-8, 12)
        )
        val = ex.qtilde_moments((2, 4), 0.5, EV)
        assert abs(val.value - oracle) < 1e-8
        assert abs(val.value.imag) < 1e-9

    def test_result_reports_nodes_and_error(self):
        val = ex.qtilde_moments((2, 4), 0.5, EV)
        assert val.err_estimate < 1e-8
        assert len(val.node_counts) == 2

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            ex.qtilde_moments((), 0.5, EV)
        with pytest.raises(DomainError):
            ex.qtilde_moments((1, 2, 3, 4, 5), 0.5, EV)
        with pytest.raises(DomainError):
            ex.qtilde_moments((3, 2), 0.5, EV)
        with pytest.raises(DomainError):
            ex.qtilde_moments((2, 2), 0.5, EV)
        with pytest.raises(DomainError):
            ex.qtilde_moments((2, 4), -0.1, EV)


class TestVerifyAnsatz:
    @pytest.mark.parametrize("xs", [(2, 3), (2, 4), (3, 5)])
    @pytest.mark.parametrize("t", [0.3, 0.7])
    def test_evolution_boundary_and_initial(self, xs, t):
        rep = ex.verify_ansatz(xs, t, EV)
        assert rep.ode_residual < 1e-6
        for b in rep.boundary_residuals:
            assert b < 1e-7
        assert rep.initial_gap < 1e-9

    def test_single_site(self):
        rep = ex.verify_ansatz((2,), 0.5, EV)
        assert rep.ode_residual < 1e-6
        assert rep.boundary_residuals == ()

    def test_boundary_only_for_adjacent_pairs(self):
        assert len(ex.verify_ansatz((2, 3), 0.3, EV).boundary_residuals) == 1
        assert len(ex.verify_ansatz((2, 4), 0.3, EV).boundary_residuals) == 0

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            ex.verify_ansatz((2, 3), 0.0, EV)
        with pytest.raises(DomainError):
            ex.verify_ansatz((1, 2, 3, 4), 0.5, EV)


class TestNestedMoment:
    @pytest.mark.parametrize("tau", [0.3, 0.6])
    def test_time_zero_closed_form(self, tau):
        ev = make_ev(tau)
        for k in (1, 2, 3):
            for x in range(0, 6):
                val = ex.nested_moment(k, x, 0.0, ev)
                assert abs(val.value - tau ** (k * (x // 2))) < 1e-9

    def test_zeroth_moment_is_one(self):
        assert ex.nested_moment(0, 3, 0.7, EV).value == pytest.approx(1.0)

    def test_positive_time_is_real(self):
        val = ex.nested_moment(2, 1, 0.5, EV)
        assert abs(val.value.imag) < 1e-9
        assert 0.0 < val.value.real <= 1.0

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            ex.nested_moment(4, 1, 0.5, EV)
        with pytest.raises(DomainError):
            ex.nested_moment(2, 1, -0.5, EV)


class TestPartitionMoment:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_nested_route(self, k):
        ev = make_ev(0.4)
        a = ex.partition_moment(k, 3, 0.7, ev)
        b = ex.nested_moment(k, 3, 0.7, ev)
        assert abs(a.value - b.value) < 1e-8

    @pytest.mark.parametrize("tau", [0.3, 0.6])
    def test_time_zero_closed_form(self, tau):
        ev = make_ev(tau)
        for k in (1, 2, 3):
            val = ex.partition_moment(k, 4, 0.0, ev)
            assert abs(val.value - tau ** (2 * k)) < 1e-9

    def test_depth_four_time_zero(self):
        val = ex.partition_moment(4, 2, 0.0, make_ev(0.3))
        assert abs(val.value - 0.3**4) < 1e-6

    def test_depth_five_with_raised_budget(self, monkeypatch):
        monkeypatch.setattr(quad, "MAX_POINTS", 1 << 33)
        ev = ex.EvalParams(params=ModelParams.from_tau(0.2), tol=1e-6)
        val = ex.partition_moment(5, 2, 0.0, ev)
        assert abs(val.value - 0.2**5) < 1e-6

    def test_depth_five_matches_generator_oracle(self):
        # tau=0.1 keeps the shared axis at 64 nodes, so the 64^5 grid fits the
        # default budget; the oracle solves the generator on the window.
        ev = make_ev(0.1)
        val = ex.partition_moment(5, 0, 1.0, ev)
        oracle = ctmc_exact_expectation(Observable.tau_pow_N(5, 0), 1.0, ev.params, (-12, 14))
        assert val.node_counts == (64,) * 5
        assert abs(val.value - oracle) < 1e-8

    def test_depth_five_refused_at_default_budget(self):
        with pytest.raises(CostGuardError, match="budget"):
            ex.partition_moment(5, 2, 0.0, make_ev(0.2))

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            ex.partition_moment(6, 2, 0.0, EV)
        with pytest.raises(DomainError):
            ex.partition_moment(2, 2, -1.0, EV)


def composition_pair_factor(wa, wb, n1: int, n2: int, tau: float):
    """(z;tau)_{n1} / (tau^{n2} z;tau)_{n1} at z = wa wb, factor by factor."""
    z = wa * wb
    num = den = 1.0
    for j in range(n1):
        num = num * (1.0 - tau**j * z)
        den = den * (1.0 - tau ** (n2 + j) * z)
    return num / den


def string_pair_factor(wa, wb, la: int, lb: int, tau: float):
    """Product over the la x lb string points of (1 - z / tau^2) / (1 - z / tau)."""
    out = 1.0
    for i in range(la):
        for j in range(lb):
            z = tau ** (i + j) * wa * wb
            out = out * (1.0 - z / tau**2) / (1.0 - z / tau)
    return out


def string_pair_expected(wa, wb, na: int, nb: int, tau: float, reference):
    """Cross factor times the route's product form, entry by entry."""
    ua, ub = tau**na * wa, tau**nb * wb
    return (ua - ub) * (wb - wa) / ((ua - wb) * (ub - wa)) * reference(wa, wb, na, nb, tau)


class TestStringPair:
    """The pair factor both string routes share, against each route's product form.

    On an N-node trapezoid circle about 0, w_a / w_b depends on (i - j) mod N and
    w_a w_b on (i + j) mod N: the factor is read from a row over the ratios and
    P[n_a] P[n_b] / P[n_a + n_b] from the prefix table of the N products w_0 w_m.
    """

    @pytest.mark.parametrize("tau", [0.1, 0.3, 0.6, 0.9])
    @pytest.mark.parametrize("route", ["composition", "partition"])
    def test_matches_per_term_products(self, tau, route):
        if route == "composition":
            radius, base, reference = 0.5 * (1.0 + tau**-0.5), 1.0, composition_pair_factor
        else:
            radius, base, reference = tau**0.75, tau**-2, string_pair_factor
        w = quad.circle_axis([(0j, radius, 12)]).z
        table = poch_table(base * w[0] * w, tau, 6)
        for na, nb in [(1, 1), (2, 1), (1, 3), (3, 3), (4, 2)]:
            pair = ex._string_pair((na, nb), lambda: table, tau)
            got = pair(0, 1, w[:, None], w[None, :])
            # The engine reads the half grid off the full-grid factor.
            for half in (slice(None), slice(None, None, 2)):
                expect = string_pair_expected(w[half, None], w[None, half], na, nb, tau, reference)
                assert np.all(np.abs(got[half, half] - expect) <= 1e-13 * np.abs(expect))

    @pytest.mark.parametrize("route", ["composition", "partition"])
    def test_route_pairs_match_per_term_products(self, monkeypatch, route):
        # Every pair of a k = 3 moment on the circle the route builds (158 and 140 nodes
        # at tau 0.3).  Past about 250 nodes the two sides part by more than 1e-13 next
        # to the diagonal, where w_b - w_a is small and carries the rounding of each node.
        tau = 0.3
        if route == "composition":
            moment, reference = ex.halfflat_moment, composition_pair_factor
            parts = [p for k in range(4) for p, _ in ex._dedup_compositions(3, k)]
        else:
            moment, reference = ex.partition_moment, string_pair_factor
            parts = ex.partitions_of(3)
        terms = []
        real = ex.tensor_result

        def record(evaluated, method):
            terms.extend(evaluated := list(evaluated))
            return real(evaluated, method)

        monkeypatch.setattr(ex, "tensor_result", record)
        moment(3, 3, 0.7, make_ev(tau))
        assert len(terms) == len(parts)
        for (_, axes, _, pair), ps in zip(terms, parts):
            for a, b in itertools.combinations(range(len(ps)), 2):
                w = axes[a].z
                got = pair(a, b, w[:, None], w[None, :])
                for half in (slice(None), slice(None, None, 2)):
                    expect = string_pair_expected(w[half, None], w[None, half], ps[a], ps[b],
                                                  tau, reference)
                    assert np.all(np.abs(got[half, half] - expect) <= 1e-13 * np.abs(expect))


class TestHalfflatMoments:
    @pytest.mark.parametrize("tau", [0.3, 0.6])
    def test_time_zero_exactness_grid(self, tau):
        ev = make_ev(tau)
        for m in (1, 2, 3):
            for x in range(0, 7):
                val = ex.halfflat_moment(m, x, 0.0, ev)
                assert abs(val.value - tau ** (m * (x // 2))) < 1e-9

    def test_fourth_moment_time_zero(self):
        val = ex.halfflat_moment(4, 2, 0.0, make_ev(0.3))
        assert abs(val.value - 0.3**4) < 1e-6

    @pytest.mark.parametrize("k,tau,x,t", [(2, 0.6, 1, 0.5), (3, 0.3, 3, 1.0)])
    def test_three_routes_agree(self, k, tau, x, t):
        ev = make_ev(tau)
        a = ex.nested_moment(k, x, t, ev)
        b = ex.partition_moment(k, x, t, ev)
        c = ex.halfflat_moment(k, x, t, ev)
        err = max(a.err_estimate, b.err_estimate, c.err_estimate)
        tol = max(1e-8, 10.0 * err)
        assert abs(a.value - b.value) < tol
        assert abs(a.value - c.value) < tol
        assert abs(b.value - c.value) < tol

    def test_frozen_monte_carlo_anchors(self):
        val1 = ex.halfflat_moment(1, 0, 1.0, EV)
        val2 = ex.halfflat_moment(2, 0, 1.0, EV)
        assert abs(val1.value - 0.943752) < 4.0 * 1.58e-4
        assert abs(val2.value - 0.915465) < 4.0 * 2.37e-4

    def test_monotone_in_order(self):
        ev = make_ev(0.6)
        vals = [ex.halfflat_moment(m, 1, 0.5, ev).value.real for m in (1, 2, 3)]
        assert vals[0] > vals[1] > vals[2]

    def test_monotone_in_site(self):
        vals = [ex.halfflat_moment(1, x, 0.5, EV).value.real for x in range(0, 5)]
        assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))

    def test_values_in_unit_interval(self):
        for x in (-2, 0, 3):
            v = ex.halfflat_moment(2, x, 0.4, EV).value
            assert 0.0 < v.real <= 1.0 + 1e-12
            assert abs(v.imag) < 1e-9

    def test_zeroth_moment_is_one(self):
        assert ex.halfflat_moment(0, 2, 0.5, EV).value == pytest.approx(1.0)

    def test_order_three_peak_memory(self):
        # 412-node circles at tau 0.7.  Pairs built from prefix tables of the N x N
        # products of two nodes, with N x N contraction temporaries, peaked at 27.3 MB.
        ev = make_ev(0.7)
        tracemalloc.start()
        try:
            res = ex.halfflat_moment(3, 3, 0.893, ev)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.node_counts == (412, 412, 412)
        assert peak < 18 * 2**20

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            ex.halfflat_moment(5, 2, 0.5, EV)
        with pytest.raises(DomainError):
            ex.halfflat_moment(2, 2, -0.5, EV)


class TestHalfflatNearOne:
    """Integer-order weights are finite products, so tau near 1 stays cheap.

    An infinite q-product at tau = 0.999 would need 39,127 factors; the
    composition route needs at most m per weight.
    """

    @pytest.mark.parametrize("k,tau,x,t", [(1, 0.999, 0, 0.5), (2, 0.97, 3, 0.7)])
    def test_three_routes_agree(self, k, tau, x, t):
        ev = make_ev(tau)
        vals = [f(k, x, t, ev).value
                for f in (ex.halfflat_moment, ex.nested_moment, ex.partition_moment)]
        scale = max(abs(v) for v in vals)
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(vals[i] - vals[j]) <= 1e-8 * scale

    def test_composition_route_takes_no_infinite_product(self, monkeypatch):
        calls = []
        real = qfunc.poch_inf

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(qfunc, "poch_inf", counted)
        monkeypatch.setattr(ex, "poch_inf", counted, raising=False)
        ex.halfflat_moment(3, 3, 0.893, make_ev(0.7))
        assert calls == []
        # The counter is live: a complex-order weight still takes the products.
        qfunc.germ_g(0.3, 0.5 + 1j, 0.7)
        assert len(calls) == 4


class TestNodeCounts:
    """node_counts has one entry per integration axis of the largest grid summed."""

    def test_one_entry_per_integration_axis(self):
        floor = EV.nodes
        half = ex.halfflat_moment(2, 3, 0.7, EV).node_counts
        part = ex.partition_moment(4, 2, 0.0, make_ev(0.3)).node_counts
        assert len(half) == 2 and len(set(half)) == 1 and half[0] >= floor
        assert len(part) == 4 and len(set(part)) == 1 and part[0] >= floor
        assert len(ex.nested_moment(2, 3, 0.7, EV).node_counts) == 2
        assert ex.halfflat_moment(0, 3, 0.7, EV).node_counts == ()


class TestTauLaplace:
    def test_series_at_zero_argument_is_one(self):
        assert abs(ex.tau_laplace_series(0.0, 2, 0.5, 10, EV) - 1.0) < 1e-14

    def test_series_matches_double_integral(self):
        ev = make_ev(0.3)
        series = ex.tau_laplace_series(-0.2, 1, 0.3, 12, ev)
        lines = ex.tau_laplace_mb(-0.2, 1, 0.3, 2, ev)
        assert abs(series - lines) < 1e-5

    def test_residue_completed_order_one_is_tight(self):
        ev = make_ev(0.3)
        series = ex.tau_laplace_series(-0.2, 1, 0.3, 12, ev)
        lines = ex.tau_laplace_mb(-0.2, 1, 0.3, 1, ev)
        assert abs(series - lines) < 1e-7

    def test_residue_tail_is_summed_to_the_target(self):
        # With k_max = 0 the order-1 residue series runs until its terms fall
        # below the target; cut at m = 16 it would miss k_max = 1 by 3.3e-5 here.
        ev = make_ev(0.3)
        residues = ex.tau_laplace_mb(-0.8, 0, 0.5, 0, ev)
        lines = ex.tau_laplace_mb(-0.8, 0, 0.5, 1, ev)
        assert abs(residues - lines) < 1e-13

    def test_order_one_circle_at_the_target(self):
        # The order-1 w-circle is sized for ev.tol like every circle, so the line
        # integral meets its residue series to the last digits; a circle at 1e-9 leaves
        # them 1.3e-13 apart.
        ev = make_ev(0.5)
        residues = ex.tau_laplace_mb(-0.2, 2, 0.5, 0, ev)
        lines = ex.tau_laplace_mb(-0.2, 2, 0.5, 1, ev)
        assert abs(residues - lines) < 1e-14

    # Order 1 against a fine-step reference: the same kernel and w circle on the line
    # sized for 1e-18 (about 800 nodes, against 425-665 at the 1e-14 target).
    @pytest.mark.parametrize("tau,zeta,x,t", [
        (0.1, -0.2, 2, 0.416),
        (0.3, -0.5, 0, 0.5),
        (0.5, -0.9, 1, 0.3),
        (0.3, -0.2 + 0.3j, 1, 0.5),
    ])
    def test_order_one_matches_a_fine_step_reference(self, monkeypatch, tau, zeta, x, t):
        seen = []
        real = ex._mb_diag_grid

        def recorded(*args):
            grid = real(*args)
            seen.append((np.sum(grid), args[-1]))
            return grid

        monkeypatch.setattr(ex, "_mb_diag_grid", recorded)
        ev = make_ev(tau)
        ex.tau_laplace_mb(zeta, x, t, 1, ev)
        (value, w_axis), = seen
        fine = ex._mb_trapezoid(zeta, w_axis, ev, 1e-18)
        reference = np.sum(real(zeta, x, t, ev, fine, w_axis))
        assert abs(value - reference) <= 1e-13

    @pytest.mark.parametrize("k", [1, 2])
    def test_orders_sharing_one_table_keep_their_terms(self, k):
        # The residue series pass all their orders to one call, so one set of
        # prefix tables serves them all; the sum must be that of separate calls.
        ev = make_ev(0.3)
        orders = [(m, (-0.7) ** m) for m in range(k, 12)]
        shared = quad.tensor_result(ex._nu_terms(k, orders, 0, 0.5, ev), "shared").value
        alone = sum(
            quad.tensor_result(ex._nu_terms(k, [order], 0, 0.5, ev), "alone").value
            for order in orders
        )
        assert abs(shared - alone) <= 1e-15 * abs(alone)

    def test_order_two_convolution_matches_the_double_sum(self):
        # The unfactored pair weight summed over every (i, x, j, y) of a small grid pins
        # the Hankel, transpose and antisymmetry steps of the convolution.
        tau, ev = 0.4, make_ev(0.4)
        w_axis = quad.circle_axis([(0j, 0.5 * (1.0 + tau**-0.25), 12)])
        h = 0.3
        s = 0.5 + 1j * h * np.arange(-5, 6)
        line = quad.Axis(s, np.full(s.size, h / (2.0 * math.pi)))
        a = ex._mb_diag_grid(-0.3, 1, 0.5, ev, line, w_axis)
        w = w_axis.z
        z = w[:, None] * w[None, :]
        a_s = tau**s
        total = 0j
        for i in range(s.size):
            for j in range(s.size):
                weight = (qfunc.poch_inf(z, tau) * qfunc.poch_inf(z * a_s[i] * a_s[j], tau)
                          / (qfunc.poch_inf(z * a_s[i], tau) * qfunc.poch_inf(z * a_s[j], tau)))
                u_i, u_j = a_s[i] * w[:, None], a_s[j] * w[None, :]
                cauchy = ((u_i - u_j) * (w[None, :] - w[:, None])
                          / ((u_i - w[None, :]) * (u_j - w[:, None])))
                total += 0.5 * a[i] @ (weight * cauchy) @ a[j]
        value = ex._mb_order2(-0.3, 1, 0.5, ev, line, w_axis)
        assert abs(value - total) <= 1e-13 * abs(total)

    # Order 2 at zeta = -0.2 against a fine-step reference: the same kernel and w circle
    # with the line sized for 1e-14 (h about 0.044, |Im s| <= 10.3); sized for 1e-13
    # (h about 0.048) it agrees to 2.2e-15.
    @pytest.mark.parametrize("tau,x,t,reference", [
        (0.1, 2, 0.416, -1.28503797651e-3),
        (0.3, 1, 0.3, 5.24991064375e-3),
        (0.5, 2, 0.5, 1.27828640188e-3),
    ])
    def test_order_two_matches_a_fine_step_reference(self, monkeypatch, tau, x, t, reference):
        seen = []
        real = ex._mb_order2

        def recorded(*args):
            seen.append(real(*args))
            return seen[-1]

        monkeypatch.setattr(ex, "_mb_order2", recorded)
        ex.tau_laplace_mb(-0.2, x, t, 2, make_ev(tau))
        assert abs(seen[0] - reference) <= 1e-9

    @pytest.mark.parametrize("tau,x,t", [(0.1, 2, 0.416), (0.3, 1, 0.3), (0.5, 2, 0.5)])
    def test_value_is_real_at_real_zeta(self, tau, x, t):
        assert abs(ex.tau_laplace_mb(-0.2, x, t, 2, make_ev(tau)).imag) < 1e-12

    def test_trapezoid_line_reproduces_geometric_series(self):
        # At the order-2 target 1e-8.
        zeta = -0.37
        s_nodes, s_weights = ex._mb_trapezoid(zeta, ex._mb_w_axis(EV, 1e-4), EV, 1e-8)
        val = np.sum(
            s_weights * np.pi / np.sin(-np.pi * s_nodes) * np.exp(s_nodes * np.log(-zeta))
        )
        assert abs(val - zeta / (1.0 - zeta)) < 1e-8

    def test_line_reproduces_geometric_series(self):
        # The order-1 line: the same trapezoid, sized for ev.tol.
        zeta = -0.37
        s_nodes, s_weights = ex._mb_trapezoid(zeta, ex._mb_w_axis(EV, 1e-4), EV, EV.tol)
        val = np.sum(
            s_weights * np.pi / np.sin(-np.pi * s_nodes) * np.exp(s_nodes * np.log(-zeta))
        )
        assert abs(val - zeta / (1.0 - zeta)) < 1e-14

    def test_small_argument_limit(self):
        ev = make_ev(0.3)
        val = ex.tau_laplace_mb(-1e-10, 1, 0.3, 1, ev)
        assert abs(val - 1.0) < 1e-8

    def test_negative_argument_values_in_unit_interval(self):
        for zeta in (-0.2, -0.5):
            v = ex.tau_laplace_series(zeta, 2, 0.5, 10, EV)
            assert 0.0 < v.real <= 1.0
            assert abs(v.imag) < 1e-9

    def test_refuses_near_nonnegative_axis(self):
        # Once clamped to a 0.3 rad margin these were off by 0.17, 0.15 and 4.7e-6
        # (tau 0.3, k_max 1, against the series at m_max 60).
        ev = make_ev(0.3)
        for zeta in (0.2 + 0.001j, 0.5 + 0.01j, 0.6 + 0.1j):
            with pytest.raises(DomainError, match="0.3 rad"):
                ex.tau_laplace_mb(zeta, 1, 0.5, 1, ev)
        # Just inside the margin the line still meets the series.
        zeta = 0.5 * np.exp(-0.31j)
        lines = ex.tau_laplace_mb(zeta, 1, 0.5, 1, ev)
        assert abs(lines - ex.tau_laplace_series(zeta, 1, 0.5, 60, ev)) < 1e-13

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            ex.tau_laplace_series(1.2, 2, 0.5, 10, EV)
        with pytest.raises(DomainError):
            ex.tau_laplace_series(-0.2, 2, 0.5, 6, EV)
        with pytest.raises(DomainError):
            ex.tau_laplace_mb(0.3, 2, 0.5, 1, EV)
        with pytest.raises(DomainError):
            ex.tau_laplace_mb(-0.3, 2, 0.5, 3, EV)
        with pytest.raises(DomainError):
            ex.tau_laplace_mb(-0.3, 2, -0.5, 1, EV)

    @pytest.mark.parametrize("zeta", [-1.0, -2.0, -0.8 + 0.8j])
    def test_mb_refuses_zeta_outside_unit_disk(self, zeta):
        # The residue series completing orders above k_max diverge there: at
        # zeta = -2 they gave -24.1 against the generator oracle's 0.265.
        with pytest.raises(DomainError, match=r"\|zeta\| < 1"):
            ex.tau_laplace_mb(zeta, 0, 0.5, 1, make_ev(0.3))


class TestDualityIdentity:
    def test_single_particle_at_origin(self):
        params = ModelParams.from_tau(0.37)
        lhs, rhs, gap = ex.duality_identity_check((0,), 0, 1, params)
        assert lhs == pytest.approx(0.37)
        assert gap < 1e-14

    def test_empty_configuration(self):
        lhs, rhs, gap = ex.duality_identity_check((), 3, 2, PARAMS)
        assert lhs == pytest.approx(1.0)
        assert gap < 1e-14

    def test_random_ten_site_configurations(self):
        params = ModelParams.from_tau(0.37)
        rng = np.random.default_rng(11)
        for _ in range(50):
            eta = tuple(int(y) for y in np.flatnonzero(rng.integers(0, 2, size=10)) - 4)
            _, _, gap = ex.duality_identity_check(eta, int(rng.integers(-4, 6)), 2, params)
            assert gap < 1e-12

    @given(
        mask=st.integers(min_value=0, max_value=(1 << 12) - 1),
        x=st.integers(min_value=-5, max_value=10),
        k=st.integers(min_value=0, max_value=3),
        tau=st.sampled_from([0.37, 0.61]),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_identity_holds_for_arbitrary_configurations(self, mask, x, k, tau):
        eta = tuple(i - 5 for i in range(12) if (mask >> i) & 1)
        _, _, gap = ex.duality_identity_check(eta, x, k, ModelParams.from_tau(tau))
        assert gap < 1e-12

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            ex.duality_identity_check((0,), 0, 5, PARAMS)


class TestSymmetrizationChecks:
    def test_two_variable_sum_telescopes(self):
        tau = PARAMS.tau
        y1, y2 = 0.7 + 0.2j, -0.4 + 0.9j
        total = (y2 - tau * y1) / (y2 - y1) + (y1 - tau * y2) / (y1 - y2)
        assert abs(total - q_factorial(2, tau)) < 1e-14
        assert abs(total - (1.0 + tau)) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_small_sizes_exact(self, n):
        assert ex.symmetrization_checks(n, 50, PARAMS, seed=0) < 1e-12

    def test_four_variables_many_draws(self):
        assert ex.symmetrization_checks(4, 100, PARAMS, seed=1) < 1e-9

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            ex.symmetrization_checks(6, 10, PARAMS)
        with pytest.raises(DomainError):
            ex.symmetrization_checks(2, 0, PARAMS)


class TestCostControls:
    def test_budget_override_is_honored(self, monkeypatch):
        monkeypatch.setattr(quad, "MAX_POINTS", 1 << 8)
        with pytest.raises(CostGuardError, match="budget"):
            ex.qtilde_moments((2, 4), 0.5, EV)

    def test_mellin_barnes_budget_refuses_before_any_grid(self, monkeypatch):
        # At tau = 0.97 the order-2 grid has (139 * 2456)^2 = 1.2e11 points.  --k-max 1
        # is refused too (order-3 residue grid of 4282^3 points), so the message names no hint.
        calls = count_calls(monkeypatch, "germ_f")
        with pytest.raises(CostGuardError, match=r"order-2 grid of \d+ points exceeds budget \d+$"):
            ex.tau_laplace_mb(-0.2, 3, 0.5, 2, make_ev(0.97))
        assert calls == []
        # The counter is live: order 1 alone fits the budget and takes germ_f.
        ev = make_ev(0.5)
        w_axis = ex._mb_w_axis(ev, 1e-9)
        ex._mb_diag_grid(-0.2, 3, 0.5, ev, ex._mb_trapezoid(-0.2, w_axis, ev, 1e-14), w_axis)
        assert len(calls) == 1

    def test_order_two_refusal_names_k_max_one_when_it_fits(self, monkeypatch):
        # At tau = 0.3 the order-2 grid has (151 * 100)^2 = 2.3e8 points and the largest
        # residue grid (order 4) 104^4 = 1.2e8: a budget between them refuses order 2 only.
        monkeypatch.setattr(quad, "MAX_POINTS", 2 * 10**8)
        with pytest.raises(CostGuardError, match="--k-max 1 computes the same quantity"):
            ex.tau_laplace_mb(-0.2, 1, 0.3, 2, make_ev(0.3))
        assert abs(ex.tau_laplace_mb(-0.2, 1, 0.3, 1, make_ev(0.3)) - 0.849378366) < 1e-9

    def test_k_max_two_is_refused_before_any_evaluation(self, monkeypatch):
        # At tau = 0.6 order 2 fits, but the order-4 residue grid has 188^4 = 1.2e9 points.
        calls = count_calls(monkeypatch, "germ_f")
        with pytest.raises(CostGuardError, match=r"order-4 residue grid of \d+ points exceeds"):
            ex.tau_laplace_mb(-0.2, 2, 0.5, 2, make_ev(0.6))
        assert calls == []

    @pytest.mark.parametrize("route", ["halfflat", "partition"])
    def test_order_two_past_budget_is_refused_cheaply(self, route):
        # At tau = 0.999 an order-2 grid has about 1.7e10 points: refused before
        # any N x N prefix table (about 270 GB) is built.
        moment = {"halfflat": ex.halfflat_moment, "partition": ex.partition_moment}[route]
        tracemalloc.start()
        try:
            with pytest.raises(CostGuardError, match="budget"):
                moment(2, 0, 0.5, make_ev(0.999))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 * 2**20

    def test_pair_matrix_past_budget_is_refused_before_any_factor(self, monkeypatch):
        # At tau 0.99 both circles have 12,896 nodes: 1.7e8 points pass MAX_POINTS,
        # but each pair matrix would hold 2.7 GB.
        weights = count_calls(monkeypatch, "_nested_weight")
        tracemalloc.start()
        try:
            with pytest.raises(CostGuardError, match=r"pair matrix of 166306816 entries"):
                ex.nested_moment(2, 2, 0.5, make_ev(0.99))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert weights == [] and peak < 20 * 2**20

    def test_refused_terms_build_no_pair_table(self, monkeypatch):
        # A budget between the order-1 and the order-2 grids at tau = 0.5.
        shapes = []
        real = ex.poch_table

        def counted(a, q, n):
            shapes.append(np.shape(a))
            return real(a, q, n)

        monkeypatch.setattr(ex, "poch_table", counted)
        monkeypatch.setattr(quad, "MAX_POINTS", 1000)
        for moment in (ex.halfflat_moment, ex.partition_moment):
            with pytest.raises(CostGuardError, match="budget"):
                moment(2, 0, 0.5, make_ev(0.5))
        # Every term is sized before any is evaluated: no table at all was made.
        assert shapes == []

    @pytest.mark.parametrize("call", [
        lambda ev: ex.halfflat_moment(3, 3, 0.7, ev),
        lambda ev: ex.partition_moment(3, 3, 0.7, ev),
        lambda ev: ex.tau_laplace_series(-0.2, 2, 0.5, 20, ev),
    ], ids=["halfflat", "partition", "laplace_series"])
    def test_order_three_past_budget_is_refused_before_any_factor(self, monkeypatch, call):
        # At tau = 0.97 order 3 has 4,266-4,282-node axes, 7.8e10 points.  Sized term
        # by term, orders 1 and 2 were evaluated first: halfflat took 3.6 s and 1.7 GB.
        germ, tables = count_calls(monkeypatch, "germ_f"), count_calls(monkeypatch, "poch_table")
        tracemalloc.start()
        try:
            with pytest.raises(CostGuardError, match="budget"):
                call(make_ev(0.97))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert germ == [] and tables == [] and peak < 200 * 2**20

    def test_unbounded_residue_tail_is_refused_up_front(self, monkeypatch):
        # At tau 0.01, |zeta| = 1 - 1e-9 the order-1 terms |zeta^m / m_tau!| shrink
        # by about 0.99 per order, so the series keeps more than 2048 orders.
        calls = count_calls(monkeypatch, "germ_f")
        with pytest.raises(CostGuardError, match="--k-max 1") as err:
            ex.tau_laplace_mb(-(1.0 - 1e-9), 0, 0.5, 0, make_ev(0.01))
        assert calls == []
        assert "|zeta|=0.999999999," in str(err.value)

    def test_residue_tail_near_unit_circle_matches_the_line(self):
        # At tau 0.3 the order-1 series keeps 89 orders at |zeta| = 0.99.
        ev = make_ev(0.3)
        residues = ex.tau_laplace_mb(-0.99, 0, 0.5, 0, ev)
        lines = ex.tau_laplace_mb(-0.99, 0, 0.5, 1, ev)
        assert abs(residues - lines) < 1e-13

    def test_default_parameters(self):
        assert EV.nodes >= 8

    @pytest.mark.parametrize("bad", [{"tol": 0.0}, {"tol": 2.0}, {"nodes": 4}],
                             ids=["tol-0", "tol-2", "nodes-4"])
    def test_bad_settings_refused(self, bad):
        with pytest.raises(DomainError, match="need 0 < tol < 1|need nodes >= 8"):
            make_ev(0.5, **bad)
