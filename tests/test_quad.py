"""Tests for the quadrature layer: node builders, radii and the tensor engine."""

from __future__ import annotations

import ast
import importlib
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import airy as scipy_airy

import asep_exact
from asep_exact import bose
from asep_exact import exact as ex
from asep_exact import quad
from asep_exact.qfunc import DomainError, ModelParams
from asep_exact.quad import (
    CostGuardError,
    _validate_nested,
    c1_rho_radius,
    circle_axis,
    circle_nodes,
    gl_panels,
    nested_radii,
    tensor_result,
)
from test_airy import wedge_axis

UNIT = circle_axis([(0j, 1.0, 64)])
EV = ex.EvalParams(params=ModelParams.from_tau(0.5))


def ones(a, b, za, zb):
    return np.ones((za.shape[0], zb.shape[1]))


def contour_sum(f, axis) -> complex:
    """(1/2 pi i) times the integral of f over one axis, through the engine."""
    return tensor_result([(1.0, [axis], lambda a, z: f(z), ones)]).value


def clearance(trace, points) -> float:
    """Minimum distance from any listed point to the sampled contour trace."""
    pts = np.atleast_1d(np.asarray(points, dtype=complex))
    return float(np.min(np.abs(trace[:, None] - pts[None, :])))


def production_circles(monkeypatch, call) -> list:
    """The (center, radius, n) pieces an evaluator builds while running call()."""
    seen = []

    def record(pieces):
        seen.extend(pieces)
        return circle_axis(pieces)

    monkeypatch.setattr(ex, "circle_axis", record)
    call()
    return seen


class TestClosedCircle:
    def test_residue_of_inverse(self):
        assert contour_sum(lambda z: 1.0 / z, UNIT) == pytest.approx(1.0, abs=1e-12)

    def test_analytic_integrand_vanishes(self):
        assert contour_sum(lambda z: z**2, UNIT) == pytest.approx(0.0, abs=1e-12)

    def test_shifted_pole(self):
        assert contour_sum(lambda z: 1.0 / (z - 0.3), UNIT) == pytest.approx(1.0, abs=1e-12)

    def test_orientation_flip(self):
        # Nodes run counterclockwise and the weights give winding +1 on the
        # full and the half grid; negated weights are the clockwise rule.
        z, w = UNIT
        assert np.all(np.diff(np.unwrap(np.angle(z))) > 0)
        assert np.sum(w / z) == pytest.approx(1.0, abs=1e-12)
        assert np.sum(2.0 * w[::2] / z[::2]) == pytest.approx(1.0, abs=1e-12)
        assert np.sum(-w / z) == pytest.approx(-1.0, abs=1e-12)

    def test_nan_propagates_as_evaluation_error(self):
        def bad(z):
            out = 1.0 / z
            out = np.where(np.real(z) > 0.99, np.nan, out)
            return out

        with pytest.raises(ArithmeticError):
            contour_sum(bad, UNIT)

    def test_two_residues_inside_gamma_m10(self, monkeypatch):
        (piece,) = production_circles(monkeypatch, lambda: ex.halfflat_moment(1, 3, 0.7, EV))
        center, radius, _ = piece
        axis = circle_axis([(center, radius, 256)])
        val = contour_sum(lambda z: 1.0 / z + 1.0 / (z + 1.0), axis)
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_odd_counts_round_up_to_even(self):
        # so every other node of the union is every other node of each circle.
        axis = circle_axis([(0j, 1.0, 63), (2.0 + 0j, 0.5, 9)])
        assert axis.z.size == 64 + 10
        half = axis.z[::2]
        assert half.size == 32 + 5
        assert np.allclose(np.abs(half[:32]), 1.0) and np.allclose(np.abs(half[32:] - 2.0), 0.5)
        # The pole at 2 costs the unit circle's 32 half nodes 2^-32.
        assert np.sum(2.0 * axis.w[::2] / (axis.z[::2] - 2.0)) == pytest.approx(1.0, abs=1e-9)


class TestCircleNodes:
    def test_floor_alone(self):
        assert circle_nodes(1e-14, 64) == 64

    def test_pole_ratio(self):
        # Trapezoid error ~ r^n: ceil(log(1/tol) / -log r) plus 32 spare nodes.
        expected = math.ceil(math.log(1e10) / -math.log(0.5)) + 32
        assert circle_nodes(1e-10, 8, ratios=(0.5,)) == expected
        assert circle_nodes(1e-10, 200, ratios=(0.5,)) == 200

    def test_essential_amplitude(self):
        # First n on the grid 10, 14, 18, ... with 10^n / n! < tol.
        tol, amp = 1e-10, 10.0
        n = circle_nodes(tol, 8, amps=(amp,))

        def log_tail(m):
            return m * math.log(amp) - math.lgamma(m + 1)

        assert (n - 10) % 4 == 0
        assert log_tail(n) < math.log(tol) <= log_tail(n - 4)
        assert circle_nodes(tol, 8, amps=(0.5,)) == 8

    def test_largest_requirement_wins(self):
        tol = 1e-12
        singles = [circle_nodes(tol, 8, ratios=(0.9,)), circle_nodes(tol, 8, amps=(30.0,))]
        assert circle_nodes(tol, 8, ratios=(0.9,), amps=(30.0,)) == max(singles)

    @pytest.mark.parametrize("ratio", [0.0, 1.0, 1.5, -0.5])
    def test_ratio_outside_unit_interval_refused(self, ratio):
        with pytest.raises(DomainError, match="convergence ratio"):
            circle_nodes(1e-10, 8, ratios=(0.5, ratio))


class TestLineAxes:
    def test_step_from_the_strip(self):
        # h = 2 pi d / log(1/tol), nodes c + i h j for j = -J..J, weights h / (2 pi).
        d, tol, half_width = 0.25, 1e-12, 6.0
        (axis,) = quad.line_axes([(0.5, half_width)], d, tol, 8)
        h = 2.0 * math.pi * d / math.log(1.0 / tol)
        j = math.ceil(half_width / h)
        assert axis.z.size == 2 * j + 1
        assert np.all(axis.z.real == 0.5)
        assert np.allclose(axis.z.imag, h * np.arange(-j, j + 1), rtol=0.0, atol=1e-14)
        assert np.all(axis.w == h / (2.0 * math.pi))

    def test_half_rule_integrates_a_gaussian(self):
        # (1/2 pi i) times the integral of e^(z^2) up the imaginary axis is 1 / (2 sqrt(pi)),
        # on the full grid and on every other node with twice the weight.
        (axis,) = quad.line_axes([(0.0, 7.0)], 0.5, 1e-14, 8)
        res = contour_sum(lambda z: np.exp(z * z), axis)
        half = np.sum(np.exp(axis.z[::2] ** 2) * 2.0 * axis.w[::2])
        exact = 0.5 / math.sqrt(math.pi)
        assert abs(res - exact) < 1e-14
        assert abs(half - exact) < 1e-14

    def test_floor_shrinks_the_shared_step(self):
        # The shortest line reaches the floor; the longer one keeps the same step.
        short, long = quad.line_axes([(1.0, 2.0), (0.0, 5.0)], 0.5, 1e-6, 128)
        assert short.z.size >= 128
        assert np.diff(short.z.imag)[0] == pytest.approx(np.diff(long.z.imag)[0], rel=1e-12)
        assert long.z.size > short.z.size
        assert np.all(short.w == long.w[0])

    def test_narrow_strip_refused_before_building(self, monkeypatch):
        built = []
        monkeypatch.setattr(quad.np, "arange", lambda *a: built.append(a))
        with pytest.raises(CostGuardError, match="budget"):
            quad.line_axes([(0.5, 15.0)], 1e-4, 1e-16, 64)
        assert built == []


class TestPathQuadrature:
    def test_mb_line_geometric_series(self):
        # Gauss-Legendre panels on Re s = 1/2 with weights for ds/(2 pi i)
        # reproduce the Mellin-Barnes integral of the geometric series.
        zeta = -0.3
        half_width = 14.0
        y, wy = gl_panels(-half_width, half_width, math.ceil(2.0 * half_width / 0.8))
        s, w = 0.5 + 1j * y, wy / (2.0 * math.pi)
        val = np.sum(np.pi / np.sin(-np.pi * s) * np.exp(s * np.log(-zeta)) * w)
        assert val.imag == pytest.approx(0.0, abs=1e-10)
        assert val.real == pytest.approx(zeta / (1.0 - zeta), abs=1e-8)

    # The wedges of the crossover kernel's contour reference (test_airy.contour_det)
    # carry Ai in its integral representations.
    def test_airy_wedge_at_origin(self):
        z, w = wedge_axis(1.0, math.pi / 3.0, 8.0, 8)
        val = np.sum(np.exp(z**3 / 3.0) * w)
        assert val.real == pytest.approx(0.3550280538878172, abs=1e-10)
        assert val.imag == pytest.approx(0.0, abs=1e-12)

    def test_airy_wedge_against_scipy(self):
        for x in (0.5, 1.0, 2.0):
            z, w = wedge_axis(max(1.0, math.sqrt(x)), math.pi / 3.0, 10.0, 10)
            val = np.sum(np.exp(z**3 / 3.0 - x * z) * w)
            assert val.real == pytest.approx(float(scipy_airy(x)[0]), abs=1e-11)

    def test_outgoing_wedge_airy_representation(self):
        # Ai(x) also arises from the exp(-v^3/3 + x v) weight on the
        # outgoing wedge traversed upward.
        x = 0.7
        z, w = wedge_axis(0.0, 2.0 * math.pi / 3.0, 10.0, 10)
        val = np.sum(np.exp(-(z**3) / 3.0 + x * z) * w)
        assert val.real == pytest.approx(float(scipy_airy(x)[0]), abs=1e-11)

    def test_err_estimate_brackets_node_doubling(self):
        rho = c1_rho_radius(ModelParams.from_tau(0.5))

        def f(z):
            return np.exp(0.7 * (1.0 - z) / (1.0 - 0.5 * z)) / (z - 1.0)

        axis = circle_axis([(1.0, rho, 64)])
        coarse = tensor_result([(1.0, [axis], lambda a, z: f(z), ones)])
        fine = contour_sum(f, circle_axis([(1.0, rho, 128)]))
        assert abs(fine - coarse.value) < 10.0 * coarse.err_estimate + 1e-14

    def test_panels_integrate_polynomials_exactly(self):
        x, w = gl_panels(-1.0, 2.0, 3)
        assert x.size == 48
        assert np.all(np.diff(x) > 0)
        assert np.sum(w * x**31) == pytest.approx((2.0**32 - 1.0) / 32.0, rel=1e-13)


class TestPairViews:
    def test_views_index_their_tables(self):
        table = np.arange(7.0)
        i, j = np.ogrid[:4, :4]
        assert np.array_equal(quad.toeplitz(table, 4), table[i - j + 3])
        assert np.array_equal(quad.hankel(table, 4), table[i + j])
        ring = np.arange(5.0)
        i, j = np.ogrid[:5, :5]
        assert np.array_equal(quad.toeplitz(ring, 5, wrap=True), ring[(i - j) % 5])
        assert np.array_equal(quad.hankel(ring, 5, wrap=True), ring[(i + j) % 5])
        assert not quad.toeplitz(table, 4).flags.writeable
        assert not quad.hankel(ring, 5, wrap=True).flags.writeable


class TestTensorProduct:
    def test_double_pole_product(self):
        res = tensor_result([(1.0, [UNIT] * 2, lambda a, z: 1.0 / z, ones)])
        assert res.value == pytest.approx(1.0, abs=1e-13)
        assert res.node_counts == (64, 64)

    def test_antisymmetric_vanishes(self):
        res = tensor_result([(1.0, [UNIT] * 2, lambda a, z: z**-2.0, lambda a, b, za, zb: za - zb)])
        assert abs(res.value) < 1e-13

    def test_triple_separable(self):
        axis = circle_axis([(0j, 1.0, 32)])
        res = tensor_result([(1.0, [axis] * 3, lambda a, z: 1.0 / z, ones)])
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_permutation_consistency(self):
        params = ModelParams.from_tau(0.5)
        tau = params.tau
        r, s = nested_radii(2, params)
        c1, c2 = (circle_axis([(0j, r[a], 128), (-tau + 0j, s[a], 128)]) for a in range(2))

        def cross(ya, yb):
            return (ya - yb) / (ya - tau * yb)

        def diag(a, y):
            return 1.0 / y

        direct = tensor_result([(1.0, [c1, c2], diag, lambda a, b, ya, yb: cross(ya, yb))])
        swapped = tensor_result([(1.0, [c2, c1], diag, lambda a, b, ya, yb: cross(yb, ya))])
        assert abs(direct.value - swapped.value) < 1e-13

    def test_weighted_terms(self):
        # On n trapezoid nodes of the unit circle, 1/(z - c) sums to
        # 1/(1 - c^n) exactly, so every full and half sum is known.
        c = 0.5

        def exact(n, k):
            return (1.0 / (1.0 - c**n)) ** k

        def diag(a, z):
            return 1.0 / (z - c)

        one_axis = [circle_axis([(0j, 1.0, 8)])]
        two_axes = [circle_axis([(0j, 1.0, 12)])] * 2
        res = tensor_result(
            [(2.0, one_axis, diag, ones), (-0.5j, two_axes, diag, ones), (3.0, [], diag, ones)]
        )
        full = 2.0 * exact(8, 1) - 0.5j * exact(12, 2) + 3.0
        gap = 2.0 * (exact(8, 1) - exact(4, 1)) - 0.5j * (exact(12, 2) - exact(6, 2))
        assert abs(res.value - full) < 1e-14
        assert res.err_estimate == pytest.approx(abs(gap), rel=1e-12)
        # The middle term has the most axes and sets node_counts.
        assert res.node_counts == (12, 12)

    def test_term_without_axes_contributes_its_weight(self):
        res = tensor_result([(0.25 - 2j, [], None, None)])
        assert res.value == 0.25 - 2j
        assert res.err_estimate == 0.0
        assert res.node_counts == ()

    @pytest.mark.parametrize("k, row_block", [
        *(pytest.param(k, quad.ROW_BLOCK, id=str(k)) for k in (1, 2, 3, 4, 5)),
        pytest.param(3, 4, id="3-row-blocks"),
    ])
    def test_matches_brute_force_sum(self, monkeypatch, k, row_block):
        # Random complex Laurent-polynomial factors on axes of distinct sizes, with
        # non-symmetric pair factors, so a transposed pair factor or a swapped axis changes
        # the sum.  The brute force calls them on explicitly sliced half axes, the engine on
        # the full grid only.  A row block of 4 splits axis 0 (6 nodes) into a full and a
        # partial block.
        monkeypatch.setattr(quad, "ROW_BLOCK", row_block)
        rng = np.random.default_rng(k)
        axes = [circle_axis([(0j, 1.0, 2 * n)]) for n in (3, 4, 5, 6, 7)[:k]]
        powers = np.arange(-3, 4)
        cd = rng.normal(size=(k, powers.size)) + 1j * rng.normal(size=(k, powers.size))
        shape = (k, k, powers.size, powers.size)
        cp = rng.normal(size=shape) + 1j * rng.normal(size=shape)

        def diag(a, z):
            return (z[:, None] ** powers) @ cd[a]

        def pair(a, b, za, zb):
            return (za**powers) @ cp[a, b] @ (zb.T**powers).T

        def brute_force(grid):
            sizes = [axis.z.size for axis in grid]
            d = [diag(a, axis.z) * axis.w for a, axis in enumerate(grid)]
            p = {(a, b): pair(a, b, grid[a].z[:, None], grid[b].z[None, :])
                 for a, b in itertools.combinations(range(k), 2)}
            total = 0j
            for idx in itertools.product(*(range(n) for n in sizes)):
                term = math.prod(d[a][idx[a]] for a in range(k))
                for a, b in itertools.combinations(range(k), 2):
                    term *= p[a, b][idx[a], idx[b]]
                total += term
            return total

        halves = [quad.Axis(axis.z[::2], 2.0 * axis.w[::2]) for axis in axes]
        full, half = quad._grid_eval(axes, diag, pair)
        for got, grid in ((full, axes), (half, halves)):
            expected = brute_force(grid)
            assert abs(got - expected) < 1e-12 * abs(expected)

    def test_factors_built_once_per_term(self):
        # diag and pair are called on the full grid only; the half grid is sliced from it.
        calls = []

        def diag(a, z):
            calls.append(("diag", a, z.size))
            return 1.0 / z

        def pair(a, b, za, zb):
            calls.append(("pair", a, b, za.size, zb.size))
            return ones(a, b, za, zb)

        axes = [circle_axis([(0j, 1.0, n)]) for n in (8, 10, 12)]
        tensor_result([(1.0, axes, diag, pair), (2.0, axes[:2], diag, pair)])
        assert calls == [
            ("diag", 0, 8), ("diag", 1, 10), ("diag", 2, 12),
            ("pair", 0, 1, 8, 10), ("pair", 0, 2, 8, 12), ("pair", 1, 2, 10, 12),
            ("diag", 0, 8), ("diag", 1, 10), ("pair", 0, 1, 8, 10),
        ]

    def test_rejects_large_order(self):
        axis = circle_axis([(0j, 1.0, 8)])
        with pytest.raises(CostGuardError):
            tensor_result([(1.0, [axis] * 6, lambda a, z: 1.0 / z, ones)])

    def test_rejects_oversized_grid(self, monkeypatch):
        monkeypatch.setattr(quad, "MAX_POINTS", 1 << 20)
        axis = circle_axis([(0j, 1.0, 512)])
        with pytest.raises(CostGuardError) as err:
            tensor_result([(1.0, [axis] * 4, lambda a, z: 1.0 / z, ones)])
        assert "budget" in str(err.value)

    def test_rejects_oversized_pair_matrix(self, monkeypatch):
        # The largest pair matrix is that of the two largest axes, 18 x 16 > 16^2.
        monkeypatch.setattr(quad, "MAX_LINE_NODES", 16)
        axes = [circle_axis([(0j, 1.0, n)]) for n in (8, 16, 18)]
        with pytest.raises(CostGuardError, match=r"pair matrix of 288 entries"):
            tensor_result([(1.0, axes, lambda a, z: 1.0 / z, ones)])
        tensor_result([(1.0, axes[:2], lambda a, z: 1.0 / z, ones)])
        tensor_result([(1.0, axes[2:], lambda a, z: 1.0 / z, ones)])

    def test_err_estimate_tracks_node_doubling(self):
        params = ModelParams.from_tau(0.5)
        rho = c1_rho_radius(params)

        def diag(a, z):
            if a == 0:
                return np.exp(0.5 * (1.0 - z) / (1.0 - params.tau * z)) / (z - 1.0)
            return 1.0 / (z - 1.0)

        def pair(a, b, za, zb):
            return (za - zb) / (za - params.tau * zb)

        res = tensor_result([(1.0, [circle_axis([(1.0, rho, 96)])] * 2, diag, pair)])
        fine = tensor_result([(1.0, [circle_axis([(1.0, rho, 192)])] * 2, diag, pair)])
        assert abs(fine.value - res.value) < 10.0 * res.err_estimate + 1e-14


def nested_axis(r, s, tau, n):
    """The two-circle axis nested_moment integrates on, at n nodes per piece."""
    return circle_axis([(0j, float(r), n), (-tau + 0j, float(s), n)])


class TestNestedContours:
    @pytest.mark.parametrize("tau", [0.3, 0.5, 0.6])
    def test_pieces_inside_half_power_disk(self, tau):
        r, s = nested_radii(1, ModelParams.from_tau(tau))
        z = nested_axis(r[0], s[0], tau, 256).z
        assert np.max(np.abs(z)) < tau**0.5 - 1e-6

    @pytest.mark.parametrize("tau", [0.3, 0.5, 0.6])
    def test_radius_ordering(self, tau):
        params = ModelParams.from_tau(tau)
        r, s = nested_radii(3, params)
        assert r[0] < tau * r[1] < tau**2 * r[2]
        # shared -tau radius, kept large so the essential singularity at
        # -tau never amplifies the integrand beyond cancellation range
        assert s[0] == s[1] == s[2]
        assert s[0] + tau * s[1] < tau * (1.0 - tau)

    @pytest.mark.parametrize("tau", [0.3, 0.5, 0.6])
    def test_image_poles_clear_inner_contours(self, tau):
        r, s = nested_radii(3, ModelParams.from_tau(tau))
        for a in range(3):
            trace = nested_axis(r[a], s[a], tau, 720).z
            for b in range(a + 1, 3):
                zb = nested_axis(r[b], s[b], tau, 128).z
                assert clearance(trace, tau * zb) > 1e-6

    @pytest.mark.parametrize("tau", [0.3, 0.5, 0.6])
    def test_branch_points_clear_all_contours(self, tau):
        r, s = nested_radii(3, ModelParams.from_tau(tau))
        for a in range(3):
            trace = nested_axis(r[a], s[a], tau, 720).z
            assert clearance(trace, [tau**0.5, -(tau**0.5)]) > 1e-6

    def test_pieces_are_disjoint(self):
        tau = 0.5
        r, s = nested_radii(3, ModelParams.from_tau(tau))
        for a in range(3):
            assert tau > r[a] + s[a] + 1e-6

    def test_radius_underflow_rejected(self):
        params = ModelParams.from_tau(0.3)
        with pytest.raises(DomainError):
            nested_radii(40, params)

    def test_enclosed_points(self, monkeypatch):
        # The innermost production axis still winds once around 0 and once
        # around -tau.
        tau = EV.params.tau
        pieces = production_circles(monkeypatch, lambda: ex.nested_moment(3, 3, 0.7, EV))
        axis = circle_axis(pieces[:2])
        z, w = axis.z, axis.w
        for pole in (0j, -tau + 0j):
            assert np.sum(w / (z - pole)) == pytest.approx(1.0, abs=1e-10)

    def test_production_route_integrates_on_validated_radii(self, monkeypatch):
        checked = []

        def spy(r, s, tau):
            checked.append((tuple(r), tuple(s)))
            _validate_nested(r, s, tau)

        monkeypatch.setattr(quad, "_validate_nested", spy)
        pieces = production_circles(monkeypatch, lambda: ex.nested_moment(2, 3, 0.7, EV))
        radii = [radius for _, radius, _ in pieces]
        assert checked == [(tuple(radii[0::2]), tuple(radii[1::2]))]

    @pytest.mark.parametrize(
        "r,s",
        [((0.2, 0.2), (0.05, 0.05)), ((0.01, 0.02), (0.2, 0.2)), ((0.4, 0.4), (0.2, 0.2))],
    )
    def test_validation_refuses_overlapping_schedules(self, r, s):
        with pytest.raises(DomainError):
            _validate_nested(np.array(r), np.array(s), 0.5)

    def test_small_tau_schedule_is_accepted(self):
        # The 0-radii shrink like tau^(1.5 k) (about 5e-9 at tau = 0.01,
        # k = 3), so the margins are relative; the route stays accurate.
        ev = ex.EvalParams(params=ModelParams.from_tau(0.01))
        a = ex.nested_moment(3, 3, 0.7, ev)
        b = ex.partition_moment(3, 3, 0.7, ev)
        assert abs(a.value - b.value) < 1e-6 * abs(b.value)


class TestStandardContours:
    @pytest.mark.parametrize("tau", [0.3, 0.5, 0.6])
    def test_c1_rho_excludes_pole_families(self, tau):
        rho = c1_rho_radius(ModelParams.from_tau(tau))
        z = circle_axis([(1.0 + 0j, rho, 360)]).z
        trace = circle_axis([(1.0 + 0j, rho, 720)]).z
        for pts in (tau * z, z / tau, 1.0 / (tau * z), [tau**-0.5, -(tau**-0.5), 1.0 / tau]):
            assert clearance(trace, pts) > 1e-6

    def test_c1_rho_default_radius(self, monkeypatch):
        rho = c1_rho_radius(EV.params)
        assert 0 < rho < min(0.5**-0.5 - 1.0, (1.0 - 0.5) / (1.0 + 0.5))
        pieces = production_circles(monkeypatch, lambda: ex.qtilde_moments((2,), 0.5, EV))
        assert [(c, r) for c, r, _ in pieces] == [(1.0 + 0j, rho)]

    def test_gamma_m10_sandwiched(self, monkeypatch):
        (piece,) = production_circles(monkeypatch, lambda: ex.halfflat_moment(1, 3, 0.7, EV))
        assert piece[0] == 0j
        assert 1.0 < piece[1] < 0.5**-0.5

    def test_mb_w_circle_inside_quarter_power(self, monkeypatch):
        (piece,) = production_circles(
            monkeypatch, lambda: ex._mb_w_axis(EV, 1e-9)
        )
        assert piece[0] == 0j
        assert 1.0 < piece[1] < 0.5**-0.25

    def test_gamma_mtau0_sandwiched(self, monkeypatch):
        tau = EV.params.tau
        (piece,) = production_circles(monkeypatch, lambda: ex.partition_moment(1, 3, 0.7, EV))
        center, radius, _ = piece
        assert tau < radius < tau**0.5
        val = contour_sum(lambda z: 1.0 / z + 1.0 / (z + tau), circle_axis([(center, radius, 320)]))
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_wedge_orientations(self):
        z, _ = wedge_axis(1.0, math.pi / 3.0, 5.0, 3)
        assert np.all(np.diff(z.imag) > 0)
        z, _ = wedge_axis(0.0, 2.0 * math.pi / 3.0, 5.0, 3)
        assert np.all(np.diff(z.imag) > 0)


class TestPieceValidation:
    def test_rejects_bad_rule(self):
        # The node floor is refused by EvalParams for circles and Mellin-Barnes lines,
        # and by bose._lines for every delta-Bose line, k = 0 strings included.
        with pytest.raises(DomainError, match="need nodes >= 8"):
            ex.EvalParams(params=ModelParams.from_tau(0.5), nodes=4)
        for call in (lambda: bose.narrow_wedge_moment((0.0,), 1.0, nodes=4),
                     lambda: bose.delta_bose_moment((0.0,), 1.0, 0.0, nodes=4),
                     lambda: bose.she_halfflat_moment_collapsed(0, 0.0, 1.0, 0.0, nodes=4),
                     lambda: bose.weyl_linearity_check(1, 0.0, 1.0, 0.0, nodes=4)):
            with pytest.raises(DomainError, match="need nodes >= 8"):
                call()


def _uses(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every name a module loads, reads as an attribute or imports."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.extend((alias.name, node.lineno) for alias in node.names)
    return found


def _unused(names, layer: str, trees: dict, defs: dict) -> list[str]:
    """names of module layer that no module in trees uses beyond their own definition."""
    uses = [(mod, name, line) for mod, tree in trees.items() for name, line in _uses(tree)]
    return [
        name for name in names
        if not any(
            used == name and (mod != layer or line not in defs.get(name, ()))
            for mod, used, line in uses
        )
    ]


def _package_defs(layer: str) -> tuple[dict, dict]:
    """ASTs of every package module, and the line ranges of layer's top-level defs."""
    package = Path(asep_exact.__file__).parent
    trees = {p.stem: ast.parse(p.read_text()) for p in package.glob("*.py")}
    defs = {
        node.name: range(node.lineno, node.end_lineno + 1)
        for node in trees[layer].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    return trees, defs


class TestLayerScope:
    # eps, the jump-rate symbol itself, is the reference that test_exact
    # compares eps_tilde and eps_hat against; the evaluators use those two.
    EXEMPT = {"exact": {"eps"}}

    @pytest.mark.parametrize("layer", ["qfunc", "quad", "exact", "bose", "airy", "sim"])
    def test_every_export_has_a_production_user(self, layer):
        # src/ holds only what the commands run: every name a module exports
        # is used somewhere in the package beyond its own definition (a
        # docstring mention does not count), and every public function or
        # class is exported, so nothing escapes this check.
        trees, defs = _package_defs(layer)
        module = importlib.import_module(f"asep_exact.{layer}")
        unlisted = [n for n in defs if not n.startswith("_") and n not in module.__all__]
        assert unlisted == []
        exported = [n for n in module.__all__ if n not in self.EXEMPT.get(layer, set())]
        assert _unused(exported, layer, trees, defs) == []

    @pytest.mark.parametrize("layer", ["qfunc", "quad", "exact", "bose", "airy", "sim", "cli"])
    def test_every_private_definition_has_a_user(self, layer):
        # A module-level private function or class that nothing in src/ calls
        # is dead code, not a helper.
        trees, defs = _package_defs(layer)
        private = [n for n in defs if n.startswith("_")]
        assert _unused(private, layer, trees, defs) == []

    def test_every_record_field_is_read(self):
        # A field of a dataclass or NamedTuple in src/ that no attribute read in src/,
        # tests/ or bench/ names is written for nobody.  Reads are matched by name only,
        # so a field is missed when a field of another record shares its name: value on
        # a report that nothing reads passes because MomentResult.value is read.
        package = Path(asep_exact.__file__).parent
        root = Path(__file__).resolve().parents[1]
        files = [*package.glob("*.py"), *(root / "tests").glob("*.py"),
                 *(root / "bench").glob("*.py")]
        trees = {p: ast.parse(p.read_text()) for p in files}
        read = {node.attr for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        fields = [
            f"{cls.name}.{stmt.target.id}"
            for path, tree in trees.items() if path.parent == package
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and _is_record(cls)
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        ]
        assert fields
        assert [f for f in fields if f.split(".")[1] not in read] == []


def _is_record(cls: ast.ClassDef) -> bool:
    """Whether cls is decorated as a dataclass or derives from NamedTuple."""
    marks = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list] + cls.bases
    return any(getattr(m, "id", getattr(m, "attr", None)) in ("dataclass", "NamedTuple")
               for m in marks)
