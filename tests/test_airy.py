"""Tests for the crossover-kernel Fredholm determinant machinery.

Oracle strategy: airy_ai (scipy.special.airy, and Bessel identities past
|s| = 10) is checked against an independent Maclaurin series, against
mpmath reference values and against scipy.special.airy itself; the
closed-form Airy2 comparison oracle is checked against a Nystrom
determinant of the integral form of the Airy kernel, with a different
truncation and node count; the crossover determinant is checked against its
own CDF properties, against a direct evaluation of the double contour
integral (contour_det, which shares no Airy function with the module),
against its kernel integrated entry by entry, against the two Airy limit
oracles at large |x|, and against itself on a refined grid (refined: to 8
past the sized span, with twice the nodes) over a derandomized sweep of
(x, r). No expected value is asserted without one of these independent
routes backing it.
"""

from __future__ import annotations

import math
import warnings
from math import gamma

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.special import airy as scipy_airy

from asep_exact import airy as am
from asep_exact.qfunc import DomainError
from asep_exact.quad import CostGuardError, gauss_legendre

CBRT2 = 2.0 ** (1.0 / 3.0)


def airy_series(s: float, terms: int = 80) -> float:
    """Maclaurin-series Airy function, accurate for |s| <= 6."""
    c1 = 3.0 ** (-2.0 / 3.0) / gamma(2.0 / 3.0)
    c2 = 3.0 ** (-1.0 / 3.0) / gamma(1.0 / 3.0)
    s3 = s**3
    fk, gk = 1.0, s
    f, g = fk, gk
    for k in range(1, terms):
        fk *= s3 / ((3 * k) * (3 * k - 1))
        gk *= s3 / ((3 * k + 1) * (3 * k))
        f += fk
        g += gk
    return c1 * f - c2 * g


def scipy_det(s: float, kernel, span: float = 14.0, n: int = 64) -> float:
    """det(I - K) on [s, s + span] by Gauss-Legendre Nystrom; kernel(xi) -> matrix."""
    gx, gw = np.polynomial.legendre.leggauss(n)
    xi = s + 0.5 * span * (gx + 1.0)
    root = np.sqrt(0.5 * span * gw)
    m = root[:, None] * kernel(xi) * root[None, :]
    return float(np.linalg.det(np.eye(n) - m))


def scipy_airy2_kernel(xi: np.ndarray) -> np.ndarray:
    """Airy kernel K_Ai as the integral over t >= 0 of Ai(xi+t) Ai(eta+t)."""
    gt, wt = np.polynomial.legendre.leggauss(400)
    t = 16.0 * (gt + 1.0)
    wt = 16.0 * wt
    ai = scipy_airy(xi[:, None] + t[None, :])[0]
    return (ai * wt[None, :]) @ ai.T


def scipy_airy2_det(s: float) -> float:
    """Airy2 determinant from scipy Airy values, independent quadrature."""
    return scipy_det(s, scipy_airy2_kernel)


def scipy_crossover_det(x: float, r: float) -> float:
    """Crossover determinant for x < 0 from the Airy-function form of the kernel.

    With a = 2^{-1/3} x the kernel is K_Ai(l, l') plus
    int_0^oo e^{2ay} Ai(l+y) Ai(l'-y) dy (Borodin-Ferrari-Sasamoto); both
    terms are built from scipy Airy values on L^2([2^{1/3} r, oo)), with no
    contour code.
    """
    a = x / CBRT2
    # e^{2ay} is below e^-40 beyond y = 20/|a|
    ylen = 20.0 / abs(a)
    gy, wy = np.polynomial.legendre.leggauss(200)
    y = 0.5 * ylen * (gy + 1.0)
    wy = 0.5 * ylen * wy * np.exp(2.0 * a * y)

    def kernel(lam):
        up = scipy_airy(lam[:, None] + y[None, :])[0]
        down = scipy_airy(lam[:, None] - y[None, :])[0]
        return scipy_airy2_kernel(lam) + (up * wy[None, :]) @ down.T

    return scipy_det(CBRT2 * r, kernel)


def scipy_airy1_det(s: float) -> float:
    """Airy1-type determinant from scipy Airy values."""
    return scipy_det(s, lambda xi: scipy_airy(xi[:, None] + xi[None, :])[0])


def gl_panels(a: float, b: float, panels: int):
    """Composite 16-point Gauss-Legendre nodes and weights on [a, b], flattened."""
    edges = np.linspace(a, b, panels + 1)
    x, w = gauss_legendre(edges[:-1], np.diff(edges), 16)
    return x.ravel(), w.ravel()


def wedge_axis(base: float, angle: float, length: float, panels: int):
    """Two rays of 16-point Gauss-Legendre panels through base, traversed upward.

    The incoming ray base + s e^{-i angle} is traversed inward (direction -1,
    nodes reversed), then the outgoing ray base + s e^{i angle}, s in
    [0, length]; the weights carry the 1/(2 pi i) prefactor.
    """
    s, ws = gl_panels(0.0, length, panels)
    zs, wts = [], []
    for direction in (-1, 1):
        e = np.exp(1j * (direction * angle))
        zs.append((base + s * e)[::direction])
        wts.append((direction * ws * e / (2j * math.pi))[::direction])
    return np.concatenate(zs), np.concatenate(wts)


def contour_det(x: float, r: float) -> float:
    """det(I - K) on L^2([2^{1/3} r, oo)) from the crossover kernel's double contour integral.

    K(l, l') = (1/(2 pi i))^2 int du int dv e^{u^3/3 + a u^2 - l~ u}
    e^{-v^3/3 - a v^2 + l~' v} 2u / (u^2 - v^2), a = 2^{-1/3} x and
    l~ = l - a^2 for x <= 0 (the parabolic shift), l~ = l for x > 0: u on
    rays through 1 + b at angles +-pi/3, v on rays through b at angles
    +-2 pi/3. Moving both contours right by b = max(-a, 0) crosses no pole
    (Re(u - v) >= 1, and u + v = 0 only off the rays) and keeps the
    integrand small on them: with b = 0 the value at x = -2.5, r = -3
    moves by up to 7e-13 as the ray length and panels change. One lower
    end, no batching, no Airy function.
    """
    a = x / CBRT2
    b = max(-a, 0.0)
    u, wu = wedge_axis(1.0 + b, math.pi / 3.0, 10.0, 20)
    v, wv = wedge_axis(b, 2.0 * math.pi / 3.0, 10.0, 20)
    lower = CBRT2 * r
    span, n = am._grid(np.float64(lower))
    lam, w = gauss_legendre(lower, span, int(n))
    shifted = lam - (a * a if x <= 0.0 else 0.0)
    left = np.exp(np.outer(-shifted, u) + u**3 / 3.0 + a * u**2) * wu
    right = np.exp(np.outer(v, shifted) + (-(v**3) / 3.0 - a * v**2)[:, None]) * wv[:, None]
    kernel = left @ ((2.0 * u[:, None] / (u[:, None] ** 2 - v[None, :] ** 2)) @ right)
    root = np.sqrt(w)
    det = np.linalg.det(np.eye(lam.size) - root[:, None] * kernel * root)
    assert abs(det.imag) < 1e-12
    return float(det.real)


def stack(lowers, offsets, x: float) -> np.ndarray:
    """_kernel_stack on lower + offsets, on the y-axes that halfflat_limit_cdf gives these lowers."""
    a = am.INV_CBRT2 * x
    lowers = np.asarray(lowers, dtype=float)
    lengths, counts = am._y_axes(lowers + (a * a if x > 0.0 else 0.0), a)
    lam = lowers[:, None] + np.asarray(offsets, dtype=float)
    return am._kernel_stack(lam, x, lengths, counts.astype(int))


def refined(x: float, rs) -> np.ndarray:
    """The determinant on each sized span extended by 8, with twice the nodes the rule gives it."""
    lowers = CBRT2 * np.atleast_1d(np.asarray(rs, dtype=float))
    spans = am._grid(lowers)[0] + 8.0
    counts = 2 * np.maximum(am.GRID_NODES, np.ceil(
        spans * np.sqrt(np.maximum(-lowers, 0.0)) / am.PHASE_PER_NODE))
    return am._cdf_on_grids(x, lowers, spans, counts)


# a fixed grid for kernel-level tests: 40 nodes on [0, 10]
OFFSETS = gauss_legendre(0.0, 10.0, 40)[0]


class TestWedgeAiry:
    def test_reference_value_at_zero(self):
        assert abs(am.airy_ai(0.0) - 0.3550280538878172) < 1e-10
        # references from mpmath.airyai at 30 significant digits
        assert abs(am.airy_ai(-10.0) - 0.04024123848644319) < 1e-14
        assert abs(am.airy_ai(-5.0) - 0.3507610090241143) < 1e-14
        assert abs(am.airy_ai(16.0) / 4.156888828917024e-20 - 1.0) < 1e-12

    def test_matches_series_oracle(self):
        for s in np.linspace(-6.0, 6.0, 25):
            assert abs(am.airy_ai(float(s)) - airy_series(float(s))) < 1e-10

    def test_bessel_branches_match_scipy(self):
        # past |s| = 10 airy_ai takes K_{1/3} and J_{+-1/3}; there both it and
        # scipy.special.airy are within 2e-13 of mpmath, relative to the envelope
        s = np.concatenate([-np.linspace(10.01, 60.0, 200), np.linspace(10.01, 100.0, 200)])
        ref = scipy_airy(s)[0]
        envelope = np.where(s < 0.0, np.abs(s) ** -0.25 / math.sqrt(math.pi), np.abs(ref))
        assert np.max(np.abs(am.airy_ai(s) - ref) / envelope) < 2e-13
        assert am.airy_ai(110.0) == 0.0 and am.airy_ai(1e300) == 0.0

    def test_scalar_and_shape(self):
        assert isinstance(am.airy_ai(1.0), float)
        out = am.airy_ai(np.zeros((2, 3)))
        assert out.shape == (2, 3)
        assert np.allclose(out, 0.3550280538878172)


class TestSpecValidation:
    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_cdf_rejects_nonfinite_x(self, x):
        with pytest.raises(DomainError, match="finite x"):
            am.halfflat_limit_cdf(x, 0.0)

    def test_empty_r_is_refused(self):
        for empty in ([], np.array([])):
            with pytest.raises(DomainError, match="at least one r"):
                am.halfflat_limit_cdf(0.0, empty)

    def test_grid_nodes_cover_interval(self):
        xi, w = gauss_legendre(-1.0, 9.0, 32)
        assert xi.shape == w.shape == (32,)
        assert -1.0 < xi[0] < xi[-1] < 8.0
        assert abs(np.sum(w) - 9.0) < 1e-12
        rows, weights = gauss_legendre(np.array([-1.0, 2.0]), np.array([9.0, 4.0]), 32)
        assert rows.shape == weights.shape == (2, 32)
        assert np.array_equal(rows[0], xi) and np.allclose(weights.sum(axis=1), [9.0, 4.0])

    def test_grid_follows_the_kernel(self):
        # [2^{1/3} r, UPPER], at least MIN_SPAN long; past MAX_PHASE radians of
        # int sqrt(-l) dl the span stops; nodes grow with span sqrt(-l_min)
        lowers = CBRT2 * np.array([9.0, 0.0, -3.0, -20.0, -120.0])
        spans, counts = am._grid(lowers)
        assert np.allclose(spans[:4], [am.MIN_SPAN, am.UPPER, am.UPPER - lowers[2],
                                       am.UPPER - lowers[3]])
        depth = -lowers[4]
        phase = 2.0 / 3.0 * (depth**1.5 - (depth - spans[4]) ** 1.5)
        assert abs(phase - am.MAX_PHASE) < 1e-9 and spans[4] < depth
        assert counts.tolist() == [32.0, 32.0, 32.0, 63.0,
                                   math.ceil(spans[4] * math.sqrt(depth) / 3.0)]
        # no r gives a span past the budget's reach or a NaN
        huge = CBRT2 * np.array([-1e300, 1e300])
        spans, counts = am._grid(huge)
        assert spans.tolist() == [am.MIN_SPAN, am.MIN_SPAN] and counts[1] == am.GRID_NODES


class TestCrossoverKernel:
    def test_kernel_is_real(self):
        offsets = np.linspace(0.0, 8.0, 9)
        for x in (-4.0, 0.0, 4.0):
            vals = stack([-2.0, 0.5], offsets, x)
            assert vals.shape == (2, 9, 9) and vals.dtype == np.float64

    def test_super_exponential_decay(self):
        near, far = stack([2.0, 12.0], [0.0], 0.0)[:, 0, 0]
        assert abs(far) < 1e-6 * abs(near)

    def test_node_doubling_stability(self, monkeypatch):
        # the y-axis rule is converged: twice its nodes move no kernel entry
        # by more than roundoff, taken without the x > 0 conjugation factor
        # e^{a(l_i - l_j)}, which scales both kernels alike
        offsets = OFFSETS
        lowers = CBRT2 * np.array([-6.0, -3.0, 0.0, 2.0])
        xs = (-8.0, -1.0, 0.0, 1.0, 3.0)
        coarse = [stack(lowers, offsets, x) for x in xs]
        monkeypatch.setattr(am, "Y_NODES", 2 * am.Y_NODES)
        monkeypatch.setattr(am, "Y_DENSITY", 2 * am.Y_DENSITY)
        for x, kernels in zip(xs, coarse):
            unconj = np.exp(-am.INV_CBRT2 * max(x, 0.0) * (offsets[:, None] - offsets))
            assert np.max(np.abs(stack(lowers, offsets, x) - kernels) * unconj) < 1e-13

    @pytest.mark.parametrize("x", [-2.5, -1.0, 0.0])
    def test_route_overlap_negative(self, x):
        # the x <= 0 Airy form against the double contour integral
        rs = [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
        values = am.halfflat_limit_cdf(x, rs)
        assert max(abs(v - contour_det(x, r)) for r, v in zip(rs, values)) < 1e-13

    @pytest.mark.parametrize("x", [1.0, 1.5, 2.0, 3.0])
    def test_route_overlap_positive(self, x):
        # the x > 0 Airy form, residue included, against the double contour integral
        rs = [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
        values = am.halfflat_limit_cdf(x, rs)
        assert max(abs(v - contour_det(x, r)) for r, v in zip(rs, values)) < 1e-13

    def test_forms_agree_across_zero(self):
        # x = +-1e-9 take the two forms; they differ by 2e-9 dF/dx (about 5e-10),
        # and their mean is F(0) to second order
        rs = [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
        plus = am.halfflat_limit_cdf(1e-9, rs)
        minus = am.halfflat_limit_cdf(-1e-9, rs)
        assert np.max(np.abs(plus - minus)) < 1e-9
        assert np.max(np.abs(0.5 * (plus + minus) - am.halfflat_limit_cdf(0.0, rs))) < 1e-13

    def test_no_warning_at_defaults(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (-8.0, 0.0, 2.0, 8.0):
                am.halfflat_limit_cdf(x, [-20.0, -3.0, 0.0, 3.0] if x <= 0.0 else [-3.0, 3.0])


def entrywise_kernel(lam, x, i, j):
    """K(lam_i, lam_j), its y-integral taken alone by adaptive quadrature.

    Closed-form K_Ai, the residue and the integrand all take Ai and Ai' from
    scipy.special.airy, with no Bessel branch and no truncation rule.
    """
    a = x / CBRT2
    hat = lam + a * a if x > 0.0 else lam
    (ai_i, aip_i, _, _), (ai_j, aip_j, _, _) = scipy_airy(hat[i]), scipy_airy(hat[j])
    if i == j:
        k_ai = aip_i**2 - hat[i] * ai_i**2
    else:
        k_ai = (ai_i * aip_j - aip_i * ai_j) / (hat[i] - hat[j])
    sigma = 1.0 if x <= 0.0 else -1.0

    def integrand(y):
        return (math.exp(-2.0 * abs(a) * y) * scipy_airy(hat[i] + sigma * y)[0]
                * scipy_airy(hat[j] - sigma * y)[0])

    upper = max(1.0, 30.0 - hat.min())
    integral = scipy_quad(integrand, 0.0, upper, epsabs=1e-15, epsrel=1e-13, limit=400)[0]
    value = k_ai + sigma * integral
    if x > 0.0:
        value = (math.exp(a * (lam[i] - lam[j])) * value
                 + scipy_airy((lam[i] + lam[j]) / CBRT2)[0] / CBRT2)
    return value


class TestKernelStack:
    """A row of r values is one stack of determinants; it must match per-r calls."""

    XS = (-8.0, -4.0, -2.0, 0.0, 2.0, 4.0, 8.0)
    RS = [-3.0 + 0.5 * i for i in range(13)]

    @pytest.mark.parametrize("x", XS)
    def test_factored_kernel_matches_unfactored_form(self, x):
        # the stack takes each y-integral as one product of Ai tables on a shared
        # y-axis; entry by entry, adaptive quadrature must give the same kernel.
        # On x > 0 the factor e^{a(l_i - l_j)} on K_Ai and the integral reaches
        # e^{63} at x = 8, and an exponent that large rounds to a relative 63 eps
        offsets = OFFSETS
        lowers = CBRT2 * np.array([-3.0, 0.0, 3.0])
        for lower, kernel in zip(lowers, stack(lowers, offsets, x)):
            lam = lower + offsets
            for i, j in ((0, 0), (0, 39), (39, 0), (12, 27), (27, 12), (39, 39)):
                ref = entrywise_kernel(lam, x, i, j)
                assert abs(kernel[i, j] - ref) < 1e-14 * (1.0 + abs(ref))

    @pytest.mark.parametrize("x", XS)
    def test_batched_row_matches_per_r_calls(self, x):
        batched = am.halfflat_limit_cdf(x, self.RS)
        assert isinstance(batched, np.ndarray) and batched.shape == (13,)
        single = [am.halfflat_limit_cdf(x, r) for r in self.RS]
        assert all(isinstance(v, float) for v in single)
        assert np.max(np.abs(batched - single)) < 1e-14

    def test_positive_form_fine_grid_matches_per_r_calls(self):
        lowers = CBRT2 * np.array([-3.0, -1.0, 0.5, 2.0])
        spans = np.array([16.0, 14.0, 12.0, 10.0])
        batched = am._cdf_on_grids(8.0, lowers, spans, 80)
        single = [am._cdf_on_grids(8.0, lowers[i:i + 1], spans[i], 80)[0] for i in range(4)]
        assert np.max(np.abs(batched - single)) < 1e-14

    def test_node_counts_share_stacks(self, monkeypatch):
        # r values of one row with different node counts go to different stacks,
        # and each value lands in its own slot
        rs = [-20.0, 0.0, -12.0, 1.0, -20.0]
        calls = []
        kernel_stack = am._kernel_stack

        def spy(lam, *args):
            calls.append(lam.shape)
            return kernel_stack(lam, *args)

        monkeypatch.setattr(am, "_kernel_stack", spy)
        row = am.halfflat_limit_cdf(-2.0, rs)
        assert sorted(calls) == [(1, 36), (2, 32), (2, 63)]
        monkeypatch.undo()
        assert np.array_equal(row, [am.halfflat_limit_cdf(-2.0, r) for r in rs])

    def test_swept_residue_equals_full_airy_matrix(self):
        # at x = 8 the grid sits past l^ = 36 and the y-axis is empty, so the
        # kernel is the conjugated K_Ai plus the residue, whose Ai is taken on
        # the upper triangle and mirrored
        lowers = CBRT2 * np.array([-3.0, 0.5])
        lam = lowers[:, None] + OFFSETS
        a = am.INV_CBRT2 * 8.0
        conj = np.exp(a * (lam[:, :, None] - lam[:, None, :]))
        full = am.INV_CBRT2 * am.airy_ai(am.INV_CBRT2 * (lam[:, :, None] + lam[:, None, :]))
        assert np.array_equal(stack(lowers, OFFSETS, 8.0), conj * am._airy_kernel(lam + a * a) + full)

    def test_long_list_equals_its_blocks(self):
        assert am.R_BLOCK == 16
        rs = np.linspace(-3.0, 3.0, 40)
        whole = am.halfflat_limit_cdf(2.0, rs)
        blocks = np.concatenate([am.halfflat_limit_cdf(2.0, rs[i : i + 16])
                                 for i in range(0, 40, 16)])
        assert np.array_equal(whole, blocks)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_r_refuses_the_whole_call(self, bad, monkeypatch):
        def no_kernel(*args):
            raise AssertionError("kernel built before r was checked")

        monkeypatch.setattr(am, "_kernel_stack", no_kernel)
        with pytest.raises(DomainError, match="finite r"):
            am.halfflat_limit_cdf(0.0, [-1.0, 0.0, bad, 1.0])
        with pytest.raises(DomainError, match="finite r"):
            am.halfflat_limit_cdf(0.0, bad)

    def test_nan_determinant_in_one_block_refuses_the_call(self, monkeypatch):
        # a NaN kernel for one r of a row must refuse the row, not print NaN
        airy_kernel = am._airy_kernel

        def poisoned(xi):
            kernel = airy_kernel(xi)
            kernel[xi[:, 0] < -5.0] = math.nan
            return kernel

        monkeypatch.setattr(am, "_airy_kernel", poisoned)
        with np.errstate(invalid="ignore"), pytest.raises(am.ConsistencyError, match="not finite"):
            am.halfflat_limit_cdf(-8.0, [-20.0 + i for i in range(20)])

    def test_matrix_r_is_refused(self):
        with pytest.raises(DomainError):
            am.halfflat_limit_cdf(0.0, [[0.0, 1.0]])

    def test_tables_past_the_budget_are_refused_before_any_node(self, monkeypatch):
        def no_nodes(lowers, spans, n):
            raise AssertionError(f"{n} Gauss-Legendre nodes built before the budget check")

        monkeypatch.setattr(am, "gauss_legendre", no_nodes)
        # 16 x 1e6 x 1e6 grid entries
        with pytest.raises(CostGuardError, match="budget"):
            am._cdf_on_grids(0.0, np.array([0.0, 1.0]), 10.0, 10**6)
        # at x = 0, r = -300 about 5,500 y-nodes
        with pytest.raises(CostGuardError, match="budget"):
            am.halfflat_limit_cdf(0.0, [0.0, -300.0])

    def test_every_tested_grid_is_within_the_budget(self):
        # the largest tables the tests and the benchmark build: the refined grids
        # of the sweep's corner r = -25 at x = 0 and of the far-left rows
        assert abs(refined(0.0, [-25.0])[0]) < 1e-150
        for x, r in ((-8.0, -120.0), (-8.0, -200.0), (0.0, -20.0)):
            assert abs(refined(x, [r])[0]) < 1e-150
            assert abs(am.halfflat_limit_cdf(x, r)) < 1e-150

    def test_conjugation_past_double_is_refused(self):
        # at x = 4, r = -20 the factor e^{a(l - l_min)} on K_Ai reaches e^{59};
        # the determinant there came out as 1e46
        with pytest.raises(DomainError, match="conjugation factor"):
            am.halfflat_limit_cdf(4.0, [0.0, -20.0])
        # r = -15 is inside the bound; x <= 0 has no conjugation
        assert abs(am.halfflat_limit_cdf(4.0, -15.0)) < 1e-13
        assert abs(am.halfflat_limit_cdf(-4.0, -20.0)) < 1e-13

    def test_value_outside_unit_interval_is_refused(self, monkeypatch):
        # det(I + K_Ai) > 1: a kernel of the wrong sign must not print
        airy_kernel = am._airy_kernel
        monkeypatch.setattr(am, "_airy_kernel", lambda xi: -airy_kernel(xi))
        with pytest.raises(am.ConsistencyError, match=r"outside \[0, 1\]"):
            am.halfflat_limit_cdf(0.0, [0.0, -3.0])


class TestFredholmDet:
    def test_empty_domain_limit(self):
        # r = 20 / 2^{1/3} puts the Nystrom grid on [20, 30].
        det = am.halfflat_limit_cdf(0.0, 20.0 / CBRT2)
        assert abs(det - 1.0) < 1e-6

    @pytest.mark.parametrize("x", [-4.0, -2.0, 0.0, 2.0, 4.0])
    def test_cdf_in_r(self, x):
        vals = [am.halfflat_limit_cdf(x, float(r)) for r in range(-3, 4)]
        for v in vals:
            assert -1e-9 < v < 1.0 + 1e-9
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-9

    @pytest.mark.parametrize(
        "x, r", [(1.0, 0.5), (-3.0, 0.0), (4.0, -1.0)]
    )
    def test_grid_refinement_stability(self, x, r):
        assert abs(am.halfflat_limit_cdf(x, r) - refined(x, [r])[0]) < 1e-13

    def test_far_left_value_is_not_negative(self):
        # the contour kernel gave -1.1e-10 here by roundoff; the Airy form, 7.6e-77
        assert 0.0 <= am.halfflat_limit_cdf(-8.0, -15.0) < 1e-70

    def test_long_span_is_one(self):
        # every node lies past 1e296, where Ai and the conjugation factor of
        # the x > 0 residue would give 0 * inf
        for x in (-2.0, 0.0, 2.0):
            assert am._cdf_on_grids(x, np.array([0.0]), 1e300, 40)[0] == 1.0

    def test_nan_determinant_in_a_stack_raises(self):
        # abs(nan) >= tol is False: the check must be written so that NaN fails it
        xi, w = gauss_legendre(0.0, 10.0, 40)
        good = np.exp(-((xi[:, None] + xi[None, :]) ** 2))
        stack = np.stack([good, good, np.full_like(good, math.nan)])
        assert am._nystrom_det(stack[:2], w).shape == (2,)
        with np.errstate(invalid="ignore"), pytest.raises(am.ConsistencyError):
            am._nystrom_det(stack, w)


class TestSweep:
    """Each (x, r) prints a value within 1e-13 of the refined grid, or is refused by type."""

    XS = (-8.0, -4.0, -2.0, 0.0, 2.0, 4.0, 8.0)
    RS = [-3.0 + 0.5 * i for i in range(13)]

    @given(x=st.floats(-8.0, 8.0), r=st.floats(-25.0, 8.0))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_value_or_typed_refusal(self, x, r):
        try:
            value = am.halfflat_limit_cdf(x, r)
        except DomainError as exc:
            # the one refusal in this range: x > 0 far left, where no digit survives
            assert "conjugation factor" in str(exc) and x > 0.0
            return
        assert abs(value - refined(x, [r])[0]) < 1e-13

    def test_benchmark_grid(self):
        for x in self.XS:
            assert np.max(np.abs(am.halfflat_limit_cdf(x, self.RS) - refined(x, self.RS))) < 1e-13

    @pytest.mark.parametrize("x, r", [(8.0, -20.0), (2.0, -7.0), (4.0, -8.0), (4.0, -15.0),
                                      (-8.0, -120.0), (0.0, -20.0), (-8.0, -200.0)])
    def test_far_left_rows(self, x, r):
        # (8, -20) printed 0.243 and (2, -7) -2e-10 on a span of 10; (4, -8)
        # printed 5.1e-4 and (4, -15) was refused as 9.4e15. All are below 1e-20
        value = am.halfflat_limit_cdf(x, r)
        assert abs(value - refined(x, [r])[0]) < 1e-13 and abs(value) < 1e-20


class TestAiryOracles:
    def test_airy2_against_scipy_construction(self):
        for s in (-2.0, 0.0, 1.0):
            ours = am.airy_oracles(s)[0]
            assert abs(ours - scipy_airy2_det(s)) < 1e-8

    def test_airy1_against_scipy_construction(self):
        for s in (-2.0, 0.0, 1.0):
            ours = am.airy_oracles(s)[1]
            assert abs(ours - scipy_airy1_det(s)) < 1e-8

    def test_airy2_is_cdf(self):
        vals = [am.airy_oracles(float(s))[0] for s in range(-8, 7, 2)]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-9
        assert vals[-1] > 1.0 - 1e-6

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            am.airy_oracles(-11.0)
        with pytest.raises(DomainError):
            am.airy_oracles(6.5)


class TestSpatialLimits:
    def test_positive_side_matches_airy1_type(self):
        # superexponential approach: machine-level by x = +8
        for r in (-2.0, -1.0, 0.0, 1.0):
            det = am.halfflat_limit_cdf(8.0, r)
            oracle = am.airy_oracles(r)[1]
            assert abs(det - oracle) < 1e-6

    def test_negative_side_matches_airy_function_form(self):
        # an independent build of the x <= 0 form (the Airy kernel as an
        # integral, its own y-axis and grid): at large |x| the module agrees
        # with it, so the 1/(2|x|) shift of the negative-side law belongs to the kernel
        for x in (-4.0, -8.0, -16.0):
            for r in (-1.0, 0.0, 1.0):
                det = am.halfflat_limit_cdf(x, r)
                assert abs(det - scipy_crossover_det(x, r)) < 1e-10

    def test_negative_side_approaches_airy2(self):
        # first-order crossover correction, a shift of the Airy2 law by
        # 1/(2|x|), decays like 1/|x|; at x=-8 the bulk gap is ~2.8e-2 and
        # it halves when |x| doubles
        gaps8 = []
        gaps16 = []
        for r in (-1.0, 0.0, 1.0):
            oracle = am.airy_oracles(CBRT2 * r)[0]
            gaps8.append(abs(am.halfflat_limit_cdf(-8.0, r) - oracle))
            gaps16.append(abs(am.halfflat_limit_cdf(-16.0, r) - oracle))
        assert max(gaps8) < 3.5e-2
        for g8, g16 in zip(gaps8, gaps16):
            assert g16 < 0.65 * g8

    def test_tail_value_near_one(self):
        value = am.halfflat_limit_cdf(0.0, 3.0)
        assert 0.99 < value < 1.0
