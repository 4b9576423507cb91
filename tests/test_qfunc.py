"""Unit tests for the q-special-function layer."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asep_exact.qfunc import (
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
    q_exp,
    q_factorial,
)

RNG = np.random.default_rng(20260825)


def brute_poch(a: complex, q: float, terms: int) -> complex:
    out = complex(1.0)
    for n in range(terms):
        out *= 1.0 - q**n * a
    return out


def four_poch_pair(z, s1, s2, tau: float) -> complex:
    """The pair weight as its ratio of four infinite products, for real orders.

    (z;tau)_inf (tau^(s1+s2) z;tau)_inf / ((tau^s1 z;tau)_inf (tau^s2 z;tau)_inf)
    """
    t1, t2 = tau**s1, tau**s2
    num = poch_inf(z, tau) * poch_inf(t1 * t2 * z, tau)
    return num / (poch_inf(t1 * z, tau) * poch_inf(t2 * z, tau))


class TestPochInf:
    def test_zero_argument(self):
        assert poch_inf(0.0, 0.5) == 1.0

    def test_unit_argument_vanishes(self):
        assert poch_inf(1.0, 0.5) == 0.0

    def test_against_long_product(self):
        assert poch_inf(0.5, 0.5) == pytest.approx(brute_poch(0.5, 0.5, 200), abs=1e-12)

    def test_invalid_base(self):
        with pytest.raises(DomainError):
            poch_inf(0.5, 1.5)
        with pytest.raises(DomainError):
            poch_inf(0.5, 0.0)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
    def test_ten_times_longer_product(self, q):
        # Random draws from the disk |a| < tau^{-1/2}, the largest magnitude
        # any evaluator feeds in.
        radius = q**-0.5
        n_short = 64 if q < 0.7 else 256
        for _ in range(25):
            a = radius * RNG.uniform(0, 1) * np.exp(2j * np.pi * RNG.uniform())
            ref = brute_poch(a, q, 10 * n_short)
            got = poch_inf(a, q)
            assert abs(got - ref) <= DEFAULT_TOL * (1 + abs(ref)) * 10

    def test_array_input(self):
        a = np.array([0.0, 0.5, 1.0 + 0.2j])
        got = poch_inf(a, 0.5)
        expect = np.array([poch_inf(z, 0.5) for z in a])
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-15)

    def test_loose_truncation_still_bounded(self):
        got = poch_inf(0.5, 0.5, tol=1e-6)
        assert abs(got - brute_poch(0.5, 0.5, 200)) < 1e-6

    @pytest.mark.parametrize("tol", [0.0, 2.0])
    def test_tol_outside_unit_interval_refused(self, tol):
        # Refused before the zero-argument shortcut, so a = 0 is no way around it.
        for a in (0.5, 0.0):
            with pytest.raises(DomainError, match="need 0 < tol < 1"):
                poch_inf(a, 0.5, tol)

    def test_term_cap_refuses_instead_of_truncating(self):
        # At q = 0.999 the tail bound needs 39,127 factors, far past the cap.
        assert MAX_TERMS == 4096
        with pytest.raises(ArithmeticError, match="needs 39127 terms"):
            poch_inf(0.5, 0.999)


class TestPochFinite:
    """Finite q-Pochhammer symbols (a;q)_j, j = 0..n, from one prefix table."""

    def test_against_brute_product(self):
        for n in (0, 1, 3, 7):
            table = poch_table(0.5, 0.5, n)
            assert table.shape == (n + 1,)
            for j in range(n + 1):
                assert table[j] == pytest.approx(brute_poch(0.5, 0.5, j), abs=1e-15)
        assert poch_table(0.5, 0.5, 0)[0] == 1.0

    def test_array_input_is_stacked(self):
        a = 1.3 * np.exp(2j * np.pi * RNG.uniform(size=(3, 4)))
        table = poch_table(a, 0.4, 5)
        assert table.shape == (6, 3, 4)
        for j in range(6):
            expect = np.vectorize(lambda z: brute_poch(z, 0.4, j))(a)
            np.testing.assert_allclose(table[j], expect, rtol=1e-14, atol=0)

    def test_numpy_integer_order_accepted(self):
        np.testing.assert_array_equal(poch_table(0.5, 0.5, np.int64(3)), poch_table(0.5, 0.5, 3))

    @pytest.mark.parametrize("n", [2.0, 0.5, -1, np.float64(2.0)])
    def test_non_integer_or_negative_order_rejected(self, n):
        with pytest.raises(DomainError):
            poch_table(0.5, 0.5, n)

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.9])
    def test_shifted_product_is_a_quotient(self, q):
        # (q^b a;q)_c = P[b+c] / P[b] at integer orders.
        for _ in range(10):
            a = 2.0 * RNG.uniform() * np.exp(2j * np.pi * RNG.uniform())
            b, c = int(RNG.integers(0, 6)), int(RNG.integers(0, 6))
            table = poch_table(a, q, b + c)
            expect = brute_poch(q**b * a, q, c)
            assert abs(table[b + c] / table[b] - expect) <= 1e-13 * (1 + abs(expect))

    def test_pole_on_the_grid_raises(self):
        # A grid through a = q^-2 puts a zero factor 1 - q^2 a in every entry j > 2.
        grid = np.array([0.3, 0.5**-2, 1.0 + 1j])
        assert poch_table(grid, 0.5, 2)[2, 1] != 0.0
        with pytest.raises(PoleError):
            poch_table(grid, 0.5, 3)


class TestQFactorialBinomial:
    def test_factorial_values(self):
        assert q_factorial(0, 0.5) == 1.0
        assert q_factorial(2, 0.5) == pytest.approx(1.5, abs=1e-15)
        assert q_factorial(3, 0.5) == pytest.approx(2.625, abs=1e-15)

    def test_factorial_negative(self):
        with pytest.raises(DomainError):
            q_factorial(-1, 0.5)

    def test_binomial_values(self):
        assert q_binomial(5, 0, 0.3) == pytest.approx(1.0, abs=1e-15)
        assert q_binomial(2, 1, 0.5) == pytest.approx(1.5, abs=1e-15)

    def test_binomial_domain(self):
        with pytest.raises(DomainError):
            q_binomial(3, -1, 0.5)
        with pytest.raises(DomainError):
            q_binomial(3, 4, 0.5)

    def test_binomial_matches_factorials(self):
        got = q_binomial(4, 2, 0.5)
        expect = q_factorial(4, 0.5) / (q_factorial(2, 0.5) * q_factorial(2, 0.5))
        assert got == pytest.approx(expect, rel=1e-14)

    @given(
        n=st.integers(min_value=1, max_value=12),
        q=st.sampled_from([0.2, 0.5, 0.9]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_binomial_pascal_recursion(self, n, q, data):
        k = data.draw(st.integers(min_value=1, max_value=n))
        lhs = q_binomial(n, k, q)
        rhs = q_binomial(n - 1, k - 1, q)
        if k <= n - 1:
            rhs += q**k * q_binomial(n - 1, k, q)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestQExp:
    def test_at_zero(self):
        assert q_exp(0.0, 0.5) == 1.0

    def test_series_agreement(self):
        x, q = 0.3, 0.5
        series = sum(x**k / q_factorial(k, q) for k in range(41))
        assert q_exp(x, q) == pytest.approx(series, abs=1e-12)

    def test_large_negative_argument(self):
        val = q_exp(-1e6, 0.5)
        assert val.imag == 0.0
        assert 0.0 < val.real < 1e-3

    def test_pole(self):
        # (1-q) x = q^{-1} gives a vanishing factor in the denominator product.
        with pytest.raises(PoleError):
            q_exp(4.0, 0.5)

    @pytest.mark.parametrize("x", [-0.9, -0.4, 0.2, 0.9, 0.5 + 0.6j])
    def test_series_inside_disk(self, x):
        q = 0.5
        series = sum(np.asarray(x) ** k / q_factorial(k, q) for k in range(80))
        assert abs(q_exp(x, q) - series) < 1e-10


class TestGermF:
    def test_n_zero(self):
        params = ModelParams.from_tau(0.5)
        assert germ_f(0.7 + 0.1j, 0, 4, 1.3, params) == pytest.approx(1.0, abs=1e-15)

    def test_w_zero(self):
        params = ModelParams.from_tau(0.5)
        for n in (1, 2, 3.5):
            assert germ_f(0.0, n, 4, 1.3, params) == pytest.approx((1 - 0.5) ** n, abs=1e-14)

    def test_term_by_term(self):
        params = ModelParams.from_tau(0.5)
        w, n, x, t = 0.5, 1, 3, 1.0
        tau = params.tau
        gamma = params.q - params.p
        expect = (
            (1 - tau) ** n
            * math.exp(gamma * t * (1 / (1 + w) - 1 / (1 + tau**n * w)))
            * ((1 + tau**n * w) / (1 + w)) ** (x - 1)
        )
        assert germ_f(w, n, x, t, params) == pytest.approx(expect, abs=1e-14)

    def test_pole(self):
        params = ModelParams.from_tau(0.5)
        with pytest.raises(PoleError):
            germ_f(-1.0, 1, 2, 0.5, params)


class TestGermG:
    def test_n_zero(self):
        assert germ_g(0.3 + 0.4j, 0, 0.5) == pytest.approx(1.0, abs=1e-14)

    def test_w_zero(self):
        assert germ_g(0.0, 3, 0.5) == pytest.approx(1.0, abs=1e-14)

    def test_finite_rewrite(self):
        w, n, tau = 0.4, 2, 0.5
        # prod_{j<n} (1 + tau^j w) / prod_{j<n} (1 - tau^{n+j} w^2)
        expect = brute_poch(-w, tau, n) / brute_poch(tau**n * w**2, tau, n)
        assert germ_g(w, n, tau) == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_finite_rewrite_random(self, n):
        tau = 0.35
        for _ in range(10):
            w = 0.9 * np.exp(2j * np.pi * RNG.uniform())
            expect = brute_poch(-w, tau, n) / brute_poch(tau**n * w**2, tau, n)
            assert abs(germ_g(w, n, tau) - expect) < 1e-12


def table_pair(z, n1: int, n2: int, tau: float):
    """The pair weight (z;tau)_{n1} / (tau^{n2} z;tau)_{n1} = P[n1] P[n2] / P[n1+n2]."""
    table = poch_table(z, tau, n1 + n2)
    return table[n1] * table[n2] / table[n1 + n2]


class TestGermH:
    """The pair weight h(z; n1, n2), read off one prefix table P[j] = (z;tau)_j."""

    def test_n1_zero(self):
        assert table_pair(0.3 * 0.7j, 0, 4, 0.5) == pytest.approx(1.0, abs=1e-14)
        assert table_pair(0.3 * 0.7j, 3, 0, 0.5) == pytest.approx(1.0, abs=1e-14)

    def test_z_zero(self):
        assert table_pair(0.0, 2, 4, 0.5) == pytest.approx(1.0, abs=1e-14)

    def test_finite_rewrite(self):
        # P[n1] P[n2] / P[n1+n2] is the four-product ratio at integer orders.
        tau = 0.5
        for _ in range(10):
            z = 1.2 * np.exp(2j * np.pi * RNG.uniform())
            n1, n2 = int(RNG.integers(1, 5)), int(RNG.integers(1, 5))
            expect = four_poch_pair(z, n1, n2, tau)
            assert abs(table_pair(z, n1, n2, tau) - expect) < 1e-12

    @pytest.mark.parametrize("n1, n2", [(0.5, 1), (1, 0.5), (-1, 2), (2, -1)])
    def test_non_integer_order_rejected(self, n1, n2):
        # One order of each pair is not an integer >= 0: its table is refused
        # and the other order's table is built.
        for n in (n1, n2):
            if isinstance(n, int) and n >= 0:
                assert poch_table(0.06, 0.5, n).shape == (n + 1,)
            else:
                with pytest.raises(DomainError):
                    poch_table(0.06, 0.5, n)

    def test_pole_raises(self):
        # (tau^{n2} z;tau)_{n1} vanishes at z = tau^{-n2}: P[n1+n2] has the zero factor.
        with pytest.raises(PoleError):
            table_pair(4.0, 1, 2, 0.5)

    @given(
        re1=st.floats(-0.9, 0.9),
        im1=st.floats(-0.9, 0.9),
        re2=st.floats(-0.9, 0.9),
        im2=st.floats(-0.9, 0.9),
        n1=st.integers(1, 6),
        n2=st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_symmetry(self, re1, im1, re2, im2, n1, n2):
        # The table form is symmetric in (n1, n2), so it must equal the
        # product form with the orders swapped.
        z = (re1 + 1j * im1) * (re2 + 1j * im2)
        a = table_pair(z, n1, n2, 0.5)
        b = brute_poch(z, 0.5, n2) / brute_poch(0.5**n1 * z, 0.5, n2)
        assert abs(a - b) <= 1e-14 * (1 + abs(a))


class TestConcavityProperties:
    """Shape of the pair weight restricted to real x in [0,1].

    For every admissible pair s1, s2 >= 1/2 the profile starts at 1, is
    nonincreasing, and lies below the uniform chord 1 - C0 x with
    C0 = (1 - tau^(1/2))^2 / (1 - tau).  Concavity on the whole interval
    holds at the extreme s1 = s2 = 1/2 (which saturates the chord slope);
    for strongly decaying parameter pairs the profile approaches 0 well
    before x = 1 and flattens, so global concavity fails there (e.g.
    s = (1.3, 2.7)) even though the chord bound still holds.
    """

    @pytest.mark.parametrize("tau", [0.3, 0.6])
    @pytest.mark.parametrize("s", [(0.5, 0.5), (0.5, 2.0), (1.3, 2.7), (4.0, 0.75)])
    def test_profile(self, tau, s):
        s1, s2 = s
        xs = np.linspace(0.0, 1.0, 41)
        vals = np.array([four_poch_pair(x, s1, s2, tau) for x in xs])
        assert np.max(np.abs(vals.imag)) < 1e-12
        g = vals.real
        assert g[0] == pytest.approx(1.0, abs=1e-14)
        assert np.all(np.diff(g) <= 1e-12)
        c0 = (1 - tau**0.5) ** 2 / (1 - tau)
        assert np.all(g <= 1.0 - c0 * xs + 1e-8)

    @pytest.mark.parametrize("tau", [0.3, 0.6])
    def test_concave_at_extreme_parameters(self, tau):
        xs = np.linspace(0.0, 1.0, 41)
        g = np.array([four_poch_pair(x, 0.5, 0.5, tau) for x in xs]).real
        second = g[2:] - 2 * g[1:-1] + g[:-2]
        assert np.all(second <= 1e-8)

    def test_slope_at_origin(self):
        # d/dx at 0 equals (1-alpha1)(1-alpha2)/(tau-1).
        tau, s1, s2 = 0.5, 0.8, 1.7
        a1, a2 = tau**s1, tau**s2
        h = 1e-6
        g0 = four_poch_pair(0.0, s1, s2, tau).real
        g1 = four_poch_pair(h, s1, s2, tau).real
        slope = (g1 - g0) / h
        assert slope == pytest.approx((1 - a1) * (1 - a2) / (tau - 1), abs=1e-5)


class TestModelParams:
    def test_from_tau_roundtrip(self):
        params = ModelParams.from_tau(0.4)
        assert params.tau == pytest.approx(0.4, rel=1e-14)
        assert params.p + params.q == pytest.approx(1.0, abs=1e-15)
        assert params.gamma == pytest.approx((1 - 0.4) / (1 + 0.4), rel=1e-14)

    def test_rejects_symmetric_or_wrong_drift(self):
        with pytest.raises(DomainError):
            ModelParams(p=0.5, q=0.5)
        with pytest.raises(DomainError):
            ModelParams(p=0.7, q=0.3)
        with pytest.raises(DomainError):
            ModelParams(p=0.3, q=0.6)
        with pytest.raises(DomainError):
            ModelParams.from_tau(1.0)
