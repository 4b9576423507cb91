"""Tests for the continuum-limit moment evaluators.

Oracles: k=1 values reduce to Gaussian CDF / heat-kernel closed forms; the
log-Gamma wrapper is checked by its functional identities, known values and
pole refusal; higher orders are pinned by cross-representation agreement
(ordered-point ladder vs collapsed strings vs the chamber route) and by
contour-independence and node-doubling self-checks.
"""

from __future__ import annotations

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from asep_exact import bose
from asep_exact.qfunc import DomainError, PoleError
from asep_exact.quad import CostGuardError, tensor_result
from test_airy import gl_panels


def phi(x: float, t: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0 * t)))


def heat_kernel(x: float, t: float) -> float:
    return math.exp(-x * x / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)


def route_terms(monkeypatch, call) -> list:
    """The (weight, axes, diag, pair) terms an evaluator hands to tensor_result."""
    seen = []

    def record(terms):
        terms = list(terms)
        seen.extend(terms)
        return tensor_result(terms)

    monkeypatch.setattr(bose, "tensor_result", record)
    call()
    return seen


class TestLogGamma:
    def test_reflection_identity(self):
        rng = np.random.default_rng(9)
        z = rng.uniform(-3.0, 4.0, 200) + 1j * rng.uniform(-5.0, 5.0, 200)
        z = z[np.abs(z.imag) > 0.05]
        lhs = np.exp(bose.log_gamma(z) + bose.log_gamma(1.0 - z))
        rhs = np.pi / np.sin(np.pi * z)
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-10

    def test_recurrence(self):
        for z in (0.3 + 2.0j, -1.4 + 0.7j, 5.0 - 3.0j):
            gap = np.exp(bose.log_gamma(z + 1.0) - bose.log_gamma(z)) - z
            assert abs(gap) < 1e-12 * abs(z)

    def test_known_values(self):
        assert abs(np.exp(bose.log_gamma(1.0)) - 1.0) < 1e-14
        assert abs(np.exp(bose.log_gamma(0.5)) - math.sqrt(math.pi)) < 1e-13

    def test_scalar_and_array_shapes(self):
        scalar = bose.log_gamma(2.0 + 1.0j)
        assert isinstance(scalar, complex)
        arr = bose.log_gamma(np.array([2.0 + 1.0j, 0.5 - 0.5j]))
        assert arr.shape == (2,)
        assert abs(arr[0] - scalar) < 1e-14

    def test_pole_rejected(self):
        with pytest.raises(PoleError):
            bose.log_gamma(0.0)
        with pytest.raises(PoleError):
            bose.log_gamma(-3.0)


class TestBoseSettings:
    def test_default_ladder_is_valid(self):
        for k in (1, 2, 3):
            for theta in (0.0, 2.5):
                ladder = bose.default_ladder(k, theta)
                assert len(ladder) == k
                for a in range(k - 1):
                    assert ladder[a] - ladder[a + 1] - 1.0 >= bose.LADDER_MARGIN
                assert ladder[-1] >= bose.LADDER_MARGIN

    def test_ladder_validation(self):
        with pytest.raises(DomainError, match="alpha\\[0\\] > alpha\\[1\\] \\+ 1"):
            bose.delta_bose_moment((0.0, 0.5), 1.0, 0.0, ladder=(1.5, 0.6))
        with pytest.raises(DomainError, match="end positive"):
            bose.delta_bose_moment((0.0, 0.5), 1.0, 0.0, ladder=(1.5, -0.2))
        with pytest.raises(DomainError, match="ladder length 0"):
            bose.delta_bose_moment((0.0,), 1.0, 0.0, ladder=())

    def test_field_validation(self):
        with pytest.raises(DomainError, match="need alpha > 0"):
            bose.she_halfflat_moment_collapsed(2, 0.3, 0.6, 0.0, alpha=0.0)


class TestDeltaBoseMoment:
    def test_third_moment_peak_memory(self):
        # Three 719-node lines.  Elementwise pair builds and N x N contraction
        # temporaries peaked at 49.7 MB, six N x N arrays.
        bose.delta_bose_moment((0.0,), 0.6, 0.0)
        tracemalloc.start()
        try:
            res = bose.delta_bose_moment((0.255, 0.255 + 1e-9, 0.255 + 2e-9), 0.6, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = res.node_counts[0]
        assert res.node_counts == (719, 719, 719)
        assert peak < 4.5 * n * n * 16

    @pytest.mark.parametrize("x,t", [(0.0, 1.0), (0.5, 0.8), (-1.0, 2.0)])
    def test_single_point_is_gaussian_cdf(self, x, t):
        val = bose.delta_bose_moment((x,), t, 0.0)
        assert abs(val.value - phi(x, t)) < 1e-8

    def test_single_point_tilted_closed_form(self):
        theta, x, t = 1.0, 0.5, 0.8
        target = math.exp(-theta * x + 0.5 * theta**2 * t) * phi(x - theta * t, t)
        val = bose.delta_bose_moment((x,), t, theta)
        assert abs(val.value - target) < 1e-8

    def test_ladder_independence(self):
        a = bose.delta_bose_moment((0.0, 0.6), 0.9, 0.0)
        b = bose.delta_bose_moment(
            (0.0, 0.6), 0.9, 0.0, ladder=(2.2, 0.7)
        )
        assert abs(a.value - b.value) < 1e-7

    def test_pair_values_real_positive(self):
        val = bose.delta_bose_moment((-0.3, 0.4), 1.0, 0.0)
        assert abs(val.value.imag) < 1e-9
        assert val.value.real > 0.0

    def test_ladder_near_the_pair_pole(self):
        # The step follows the strip to the pair pole z_a - z_b = 1, 0.1 away here.
        default = bose.delta_bose_moment((-0.5, 0.0), 0.6, 0.0)
        near = bose.delta_bose_moment(
            (-0.5, 0.0), 0.6, 0.0, ladder=(1.6, 0.5)
        )
        assert abs(near.value - default.value) < 1e-8

    def test_ladder_on_the_pair_pole_is_refused(self):
        # 1e-4 from the pole the lines would need about 1.8e6 nodes each.
        with pytest.raises(CostGuardError, match="budget"):
            bose.delta_bose_moment(
                (-0.5, 0.0), 0.6, 0.0, ladder=(1.5001, 0.5)
            )

    def test_far_ladder_warns(self):
        with pytest.warns(RuntimeWarning, match="far from the tilt"):
            bose.delta_bose_moment(
                (0.0,), 1.0, 30.0, ladder=(0.5,)
            )

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            bose.delta_bose_moment((), 1.0, 0.0)
        with pytest.raises(DomainError):
            bose.delta_bose_moment((0.0, 0.0), 1.0, 0.0)
        with pytest.raises(DomainError):
            bose.delta_bose_moment((0.0, 0.5, 1.0, 1.5), 1.0, 0.0)
        with pytest.raises(DomainError):
            bose.delta_bose_moment((0.0,), 0.0, 0.0)
        with pytest.raises(DomainError):
            bose.delta_bose_moment((0.0,), 1.0, -1.0)
        with pytest.raises(DomainError):
            bose.delta_bose_moment(
                (0.0,), 1.0, 0.0, ladder=(1.8, 0.5)
            )


class TestLinePairTables:
    """Pair factors of node differences and sums, read from O(N) tables on the lines
    of one step, against their elementwise formulas."""

    @pytest.mark.parametrize("route", ["tilted", "free"])
    def test_pairs_match_elementwise(self, monkeypatch, route):
        if route == "tilted":
            call = lambda: bose.delta_bose_moment((0.255, 0.255 + 1e-9, 0.255 + 2e-9), 0.6, 0.4)

            def formula(za, zb):
                return (za - zb) / (za - zb - 1.0) * (za + zb - 1.0) / (za + zb)
        else:
            call = lambda: bose.narrow_wedge_moment((0.0, 0.7, 1.4), 1.5)

            def formula(za, zb):
                return (za - zb) / (za - zb - 1.0)

        (_, axes, _, pair), = route_terms(monkeypatch, call)
        for a, b in [(0, 1), (0, 2), (1, 2)]:
            got = pair(a, b, axes[a].z[:, None], axes[b].z[None, :])
            # The engine reads the half grid off the full-grid factor.
            for half in (slice(None), slice(None, None, 2)):
                expect = formula(axes[a].z[half, None], axes[b].z[None, half])
                assert np.all(np.abs(got[half, half] - expect) <= 1e-13 * np.abs(expect))


class TestNarrowWedgeMoment:
    @pytest.mark.parametrize("x,t", [(0.0, 1.0), (0.7, 0.5)])
    def test_single_point_is_heat_kernel(self, x, t):
        val = bose.narrow_wedge_moment((x,), t)
        assert abs(val.value - heat_kernel(x, t)) < 1e-8

    def test_reached_by_hard_tilt(self):
        free = bose.narrow_wedge_moment((0.0,), 1.0)
        tilted = bose.delta_bose_moment((0.0,), 1.0, 50.0)
        assert abs(50.0 * tilted.value - free.value) < 1e-3

    def test_stable_under_node_doubling(self):
        a = bose.narrow_wedge_moment((0.0, 0.5), 1.0)
        b = bose.narrow_wedge_moment((0.0, 0.5), 1.0, nodes=128)
        assert abs(a.value - b.value) < 1e-8

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            bose.narrow_wedge_moment((0.5, 0.1), 1.0)
        with pytest.raises(DomainError):
            bose.narrow_wedge_moment((0.0,), -1.0)


class TestCollapsedMoment:
    @pytest.mark.parametrize("x,t", [(0.0, 1.0), (0.5, 0.8)])
    def test_single_string_is_gaussian_cdf(self, x, t):
        val = bose.she_halfflat_moment_collapsed(1, x, t, 0.0)
        assert abs(val.value - phi(x, t)) < 1e-8

    def test_zeroth_moment_is_one(self):
        val = bose.she_halfflat_moment_collapsed(0, 0.3, 1.0, 0.0)
        assert val.value == 1.0 + 0j

    def test_matches_ordered_route_at_coincident_points(self):
        col = bose.she_halfflat_moment_collapsed(2, 0.5, 0.8, 0.0)
        sep = bose.delta_bose_moment((0.5, 0.5 + 1e-9), 0.8, 0.0)
        assert abs(col.value - sep.value) < 1e-6

    def test_matches_ordered_route_third_moment(self):
        col = bose.she_halfflat_moment_collapsed(3, 0.3, 0.6, 0.0)
        sep = bose.delta_bose_moment((0.3, 0.3 + 1e-9, 0.3 + 2e-9), 0.6, 0.0)
        assert abs(col.value - sep.value) < 1e-6

    def test_matches_ordered_route_with_tilt(self):
        col = bose.she_halfflat_moment_collapsed(2, 0.2, 0.7, 1.3)
        sep = bose.delta_bose_moment((0.2, 0.2 + 1e-9), 0.7, 1.3)
        assert abs(col.value - sep.value) < 1e-6

    def test_one_term_per_multiset_of_string_lengths(self, monkeypatch):
        # k = 3 has the multisets (3), (2, 1) and (1, 1, 1): 3 tensor terms, weighted
        # 2^3 3! / multiplicity, where the compositions (3), (1, 2), (2, 1), (1, 1, 1)
        # would be 4.  (1, 2) and (2, 1) give the same value (next test).
        terms = route_terms(monkeypatch,
                            lambda: bose.she_halfflat_moment_collapsed(3, 0.3, 0.6, 0.0))
        assert [len(axes) for _, axes, _, _ in terms] == [1, 2, 3]
        assert [w for w, _, _, _ in terms] == [48.0, 48.0, 8.0]

    def test_string_order_invariance(self):
        a = tensor_result([bose._collapsed_term((1, 2), 0.3, 0.6, 0.0, 0.5, 64)])
        b = tensor_result([bose._collapsed_term((2, 1), 0.3, 0.6, 0.0, 0.5, 64)])
        assert abs(a.value - b.value) < 1e-12

    @pytest.mark.parametrize("parts,alpha", [((1, 1), 0.5), ((1, 2), 0.5), ((2, 1), 0.7),
                                             ((1, 1), 1.2)])
    def test_hankel_pair_matches_direct_gamma_ratios(self, parts, alpha):
        # Lines of different lengths on one step; at alpha 0.5 the (1, 1) pair has the
        # reflection zero 1/Gamma(0) where w_a + w_b = 1.
        _, axes, _, pair = bose._collapsed_term(parts, 0.3, 0.6, 0.0, alpha, 64)
        wa, wb = axes[0].z[:, None], axes[1].z[None, :]
        na, nb = parts
        d, s = 0.5 * (na - nb), 0.5 * (na + nb)
        base = wa + wb
        cross = (wa - wb + d) * (wb - wa + d) / ((wa - wb + s) * (wb - wa + s))
        ratio = np.exp(
            bose.log_gamma(base + d) + bose.log_gamma(base - d)
            + bose.log_gamma(1.0 - base + s) - bose.log_gamma(base + s)
        ) * (np.sin(np.pi * (base - s)) / np.pi)
        expect = cross * ratio
        got = pair(0, 1, wa, wb)
        assert got.shape == expect.shape
        # The engine reads the half grid off the full-grid factor.
        for half in (slice(None), slice(None, None, 2)):
            assert np.all(np.abs(got[half, half] - expect[half, half])
                          <= 1e-13 * np.abs(expect[half, half]))
        if parts == (1, 1) and alpha == 0.5:
            # w_a + w_b = 1 on the antidiagonal of the two equal lines.
            assert np.all(np.fliplr(expect).diagonal() == 0.0)
            assert np.all(np.fliplr(got).diagonal() == 0.0)

    @pytest.mark.parametrize("k", [2, 3])
    def test_alpha_one_matches_alpha_three_quarters(self, k):
        # At alpha 1.0 the (1, 1) pairs have base - s = 1 on their antidiagonal, where
        # 1/Gamma(base - s) by reflection put log_gamma on its pole at 0.
        ref = bose.she_halfflat_moment_collapsed(k, 0.3, 0.6, 0.0, alpha=0.75)
        got = bose.she_halfflat_moment_collapsed(k, 0.3, 0.6, 0.0, alpha=1.0)
        assert abs(got.value - ref.value) <= got.err_estimate + ref.err_estimate

    def test_node_counts_one_entry_per_axis(self):
        # The k strings of length one span the largest grid: k axes.
        assert len(bose.she_halfflat_moment_collapsed(2, 0.3, 0.6, 0.5).node_counts) == 2
        assert len(bose.she_halfflat_moment_collapsed(3, 0.3, 0.6, 0.0).node_counts) == 3

    def test_values_real_positive(self):
        for k in (1, 2, 3):
            val = bose.she_halfflat_moment_collapsed(k, 0.4, 0.9, 0.0)
            assert abs(val.value.imag) < 1e-9
            assert val.value.real > 0.0

    def test_near_pole_abscissa_warns(self):
        with pytest.warns(RuntimeWarning, match="ill-conditioned"):
            bose.she_halfflat_moment_collapsed(
                3, 0.3, 0.6, 0.0, alpha=0.25 + 2e-7
            )

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            bose.she_halfflat_moment_collapsed(4, 0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            bose.she_halfflat_moment_collapsed(2, 0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            bose.she_halfflat_moment_collapsed(2, 0.0, 1.0, -0.5)


def chamber_grid(lo: float, hi: float):
    """The chamber check's panels on [lo, hi]: 16 Gauss-Legendre nodes per ~1.5 units."""
    return gl_panels(lo, hi, max(3, math.ceil((hi - lo) / 1.5)))


def nested_chamber_k2(x: float, t: float, theta: float) -> complex:
    """The k = 2 chamber sum with the inner y_1 axis on Gauss-Legendre panels too.

    One panel grid on [lo, y_2] per outer node y_2, the integrand summed over
    the z_1 line at every (y_1, y_2): the quadrature the closed form replaced.
    """
    depth = math.sqrt(2.0 * t * math.log(1e8)) + abs(x) + 4.0 * math.sqrt(t) + 4.0
    lo = x - depth
    axes = bose._free_axes(2, t, max(abs(x), abs(lo)), 64)
    z1, z2 = axes[0].z, axes[1].z
    kernel = bose._free_pair(0, 1, z1[:, None], z2[None, :])
    kernel *= (axes[0].w * np.exp(0.5 * t * z1 * z1))[:, None]
    kernel *= axes[1].w * np.exp(0.5 * t * z2 * z2)
    y2, wy2 = chamber_grid(lo, x)
    glue = kernel @ np.exp(np.outer(z2, y2))
    chamber = 0j
    for j in range(y2.size):
        y1, wy1 = chamber_grid(lo, y2[j])
        vals = np.exp(np.outer(y1, z1)) @ glue[:, j]
        inner = np.sum(wy1 * np.exp(-theta * (x - y1)) * vals)
        chamber += wy2[j] * math.exp(-theta * (x - y2[j])) * inner
    return 2.0 * chamber


@pytest.mark.filterwarnings("error")
class TestWeylLinearity:
    # Every gap below measures 1.1e-16 to 5.0e-16; a truncation warning fails the test.
    def test_single_point_no_tilt(self):
        assert bose.weyl_linearity_check(1, 0.3, 1.0, 0.0) < 1e-12

    def test_single_point_tilted(self):
        assert bose.weyl_linearity_check(1, 0.0, 1.0, 1.0) < 1e-12

    def test_pair_no_tilt(self):
        assert bose.weyl_linearity_check(2, 0.0, 0.5, 0.0) < 1e-12

    def test_pair_tilted(self):
        assert bose.weyl_linearity_check(2, 0.4, 0.8, 1.0) < 1e-12

    @pytest.mark.parametrize("x, t, theta", [(0.3, 0.7, 0.4), (0.0, 0.5, 0.0), (-1.0, 1.5, 0.2)])
    def test_closed_inner_axis_matches_nested_panels(self, monkeypatch, x, t, theta):
        # With the collapsed value replaced by the nested-panel chamber sum, the
        # check returns |closed-form chamber sum - nested-panel chamber sum|.
        reference = nested_chamber_k2(x, t, theta)
        monkeypatch.setattr(bose, "she_halfflat_moment_collapsed",
                            lambda *args, **kwargs: SimpleNamespace(value=reference))
        assert bose.weyl_linearity_check(2, x, t, theta) <= 1e-13 * abs(reference)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            bose.weyl_linearity_check(3, 0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            bose.weyl_linearity_check(1, 0.0, -1.0, 0.0)
