"""Tests for the crossover-kernel Fredholm determinant machinery.

Oracle strategy: airy_ai (a wrapper of scipy.special.airy) is checked
against an independent Maclaurin series and against mpmath reference values;
the closed-form Airy2 comparison oracle is checked against a Nystrom
determinant of the integral form of the Airy kernel, with a different
truncation and node count; the crossover determinant is checked
against its own CDF properties, against route-to-route agreement on
overlapping validity windows, and against the two Airy limit oracles at
large |x|. No expected value is asserted without one of these independent
routes backing it.
"""

from __future__ import annotations

import math
import warnings
from math import gamma

import numpy as np
import pytest
from scipy.special import airy as scipy_airy

from asep_exact import airy as am
from asep_exact.qfunc import DomainError

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

    def test_scalar_and_shape(self):
        assert isinstance(am.airy_ai(1.0), float)
        out = am.airy_ai(np.zeros((2, 3)))
        assert out.shape == (2, 3)
        assert np.allclose(out, 0.3550280538878172)


class TestSpecValidation:
    def test_kernel_spec_rejects_short_rays(self):
        with pytest.raises(DomainError):
            am.KernelSpec(x=0.0, ray_length=5.0)

    def test_kernel_spec_rejects_sparse_nodes(self):
        with pytest.raises(DomainError):
            am.KernelSpec(x=0.0, nodes_per_ray=16)

    def test_kernel_spec_rejects_nonfinite_x(self):
        with pytest.raises(DomainError):
            am.KernelSpec(x=math.inf)

    def test_grid_rejects_short_span(self):
        with pytest.raises(DomainError):
            am.NystromGrid(lower=0.0, span=6.0)

    def test_grid_rejects_few_nodes(self):
        with pytest.raises(DomainError):
            am.NystromGrid(lower=0.0, n=16)

    def test_grid_nodes_cover_interval(self):
        grid = am.NystromGrid(lower=-1.0, span=9.0, n=32)
        xi, w = grid.nodes()
        assert xi.shape == w.shape == (32,)
        assert -1.0 < xi[0] < xi[-1] < 8.0
        assert abs(np.sum(w) - 9.0) < 1e-12


def kernel_on(lam, spec, route=None):
    """Kernel matrix on the nodes lam, as the one-lower case of the stack."""
    return am._kernel_stack([lam[0]], np.asarray(lam) - lam[0], spec, route)[0]


class TestCrossoverKernel:
    def test_kernel_is_real(self):
        offsets = np.linspace(0.0, 8.0, 9)
        for x in (-4.0, 0.0, 4.0):
            vals = am._kernel_stack([-2.0, 0.5], offsets, am.KernelSpec(x=x))
            assert vals.shape == (2, 9, 9)
            assert np.max(np.abs(np.imag(vals))) < 1e-8

    def test_super_exponential_decay(self):
        near, far = am._kernel_stack([2.0, 12.0], [0.0], am.KernelSpec(x=0.0))[:, 0, 0]
        assert abs(far) < 1e-6 * abs(near)

    def test_node_doubling_stability(self):
        lam = np.array([1.0, 2.0])
        coarse = kernel_on(lam, am.KernelSpec(x=0.0))[0, 1]
        fine = kernel_on(lam, am.KernelSpec(x=0.0, nodes_per_ray=192))[0, 1]
        assert abs(coarse - fine) < 1e-8

    @pytest.mark.parametrize("x", [-2.5, -1.0])
    def test_route_overlap_negative(self, x):
        spec = am.KernelSpec(x=x)
        xi, w = am.NystromGrid(lower=-1.26).nodes()
        direct = am._nystrom_det(kernel_on(xi, spec, route="direct"), w)
        shifted = am._nystrom_det(kernel_on(xi, spec, route="split_neg"), w)
        assert abs(direct - shifted) < 1e-10

    @pytest.mark.parametrize("x", [1.5, 3.0])
    def test_route_overlap_positive(self, x):
        spec = am.KernelSpec(x=x)
        xi, w = am.NystromGrid(lower=-1.26).nodes()
        direct = am._nystrom_det(kernel_on(xi, spec, route="direct"), w)
        split = am._nystrom_det(kernel_on(xi, spec, route="split_pos"), w)
        assert abs(direct - split) < 1e-10

    def test_split_neg_rejects_positive_x(self):
        spec = am.KernelSpec(x=1.0)
        with pytest.raises(DomainError):
            am._kernel_stack([0.0], [0.0], spec, route="split_neg")

    def test_truncation_warning_fires(self):
        spec = am.KernelSpec(x=3.0, ray_length=6.0)
        with pytest.warns(RuntimeWarning, match="ray too short"):
            kernel_on(np.linspace(-6.0, 4.0, 20), spec)

    def test_no_warning_at_defaults(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel_on(np.linspace(-3.8, 6.2, 20), am.KernelSpec(x=0.0))


class TestContourCache:
    """_kernel_stack reuses the contour factors of one (spec, route)."""

    GRID = [(x, r) for x in (-4.0, -2.5, 0.0, 3.0, 4.0) for r in (-1.0, 0.5)]

    def test_cold_and_warm_values_are_identical(self):
        assert {am._route(x) for x, _ in self.GRID} == {"split_neg", "direct", "split_pos"}
        cold = []
        for x, r in self.GRID:
            am._contour_factors.cache_clear()
            cold.append(am.halfflat_limit_cdf(x, r))
        am._contour_factors.cache_clear()
        for x, _ in self.GRID:
            am.halfflat_limit_cdf(x, 0.0)
            warm = [am.halfflat_limit_cdf(x, r) for r in (-1.0, 0.5)]
            assert am._contour_factors.cache_info().hits > 0
            assert warm == [v for (xc, _), v in zip(self.GRID, cold) if xc == x]

    def test_factors_are_read_only(self):
        for factor in am._contour_factors(am.KernelSpec(x=0.0), "direct"):
            assert not factor.flags.writeable

    def test_split_neg_refused_with_a_warm_cache(self):
        spec = am.KernelSpec(x=1.0)
        am._kernel_stack([0.0], [0.0], spec, route="direct")
        for _ in range(2):
            with pytest.raises(DomainError):
                am._kernel_stack([0.0], [0.0], spec, route="split_neg")

    def test_short_rays_warn_on_every_call(self):
        spec = am.KernelSpec(x=3.0, ray_length=6.0)
        lam = np.linspace(-6.0, 4.0, 20)
        am._contour_factors.cache_clear()
        for _ in range(3):
            with pytest.warns(RuntimeWarning, match="ray too short"):
                kernel_on(lam, spec)
        assert am._contour_factors.cache_info().hits == 2


def unfactored_kernel(lam, spec):
    """The kernel with lam inside each exponential, as one value per call built it.

    Returns the kernel and the scale sum |left| |coupling| |right| of its terms.
    """
    route = am._route(spec.x)
    u, wu, v, wv, exp_u, exp_v, coupling = am._contour_factors(spec, route)
    shift = 2.0 ** (-2.0 / 3.0) * spec.x**2 if route == "direct" and spec.x <= 0.0 else 0.0
    lh = lam - shift
    left = np.exp(np.outer(-lh, u) + exp_u) * wu
    right = np.exp(np.outer(v, lh) + exp_v[:, None]) * wv[:, None]
    kernel = left @ (coupling @ right)
    if route == "split_pos":
        kernel = kernel + am.INV_CBRT2 * am.airy_ai(am.INV_CBRT2 * (lh[:, None] + lh[None, :]))
    return kernel, np.abs(left) @ (np.abs(coupling) @ np.abs(right))


class TestKernelStack:
    """A row of r values is one stack of determinants; it must match per-r calls."""

    XS = (-8.0, -4.0, -2.0, 0.0, 2.0, 4.0, 8.0)
    RS = [-3.0 + 0.5 * i for i in range(13)]

    @pytest.mark.parametrize("x", XS)
    def test_factored_kernel_matches_unfactored_form(self, x):
        # exp(a) exp(b) against exp(a + b): a rounding of eps |a + b| each, with
        # exponents below 50 in modulus on these grids
        spec = am.KernelSpec(x=x)
        offsets = am.NystromGrid(lower=0.0).nodes()[0]
        lowers = CBRT2 * np.array([-3.0, -1.0, 0.0, 1.5, 3.0])
        stack = am._kernel_stack(lowers, offsets, spec)
        for lower, kernel in zip(lowers, stack):
            ref, scale = unfactored_kernel(lower + offsets, spec)
            assert np.max(np.abs(kernel - ref) / scale) < 50 * np.finfo(float).eps

    @pytest.mark.parametrize("x", XS)
    def test_batched_row_matches_per_r_calls(self, x):
        batched = am.halfflat_limit_cdf(x, self.RS)
        assert isinstance(batched, np.ndarray) and batched.shape == (13,)
        single = [am.halfflat_limit_cdf(x, r) for r in self.RS]
        assert all(isinstance(v, float) for v in single)
        assert np.max(np.abs(batched - single)) < 1e-14

    def test_split_pos_fine_grid_matches_per_r_calls(self):
        spec = am.KernelSpec(x=8.0, nodes_per_ray=192)
        grid = am.NystromGrid(lower=0.0, n=80)
        rs = [-3.0, -1.0, 0.5, 2.0]
        batched = am.halfflat_limit_cdf(8.0, rs, spec, grid)
        single = [am.halfflat_limit_cdf(8.0, r, spec, grid) for r in rs]
        assert np.max(np.abs(batched - single)) < 1e-14

    def test_swept_residue_equals_full_airy_matrix(self):
        lam = CBRT2 * np.array([-3.0, 0.5])[:, None] + am.NystromGrid(lower=0.0).nodes()[0]
        full = am.INV_CBRT2 * am.airy_ai(am.INV_CBRT2 * (lam[:, :, None] + lam[:, None, :]))
        assert np.array_equal(am._swept_residue(lam), full)

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

    def test_nan_determinant_in_one_block_refuses_the_call(self):
        # exp(-(lower - shift) u) overflows at r = -120 on a split_neg row;
        # the imaginary-part check must fail on NaN, not let it through
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(am.ConsistencyError):
                am.halfflat_limit_cdf(-8.0, [-120.0, 0.0])

    def test_matrix_r_is_refused(self):
        with pytest.raises(DomainError):
            am.halfflat_limit_cdf(0.0, [[0.0, 1.0]])


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
        base = am.halfflat_limit_cdf(x, r)
        refined = am.halfflat_limit_cdf(
            x,
            r,
            spec=am.KernelSpec(x=x, ray_length=10.0, nodes_per_ray=192),
            grid=am.NystromGrid(lower=0.0, span=14.0, n=80),
        )
        assert abs(base - refined) < 1e-5

    def test_imaginary_determinant_raises(self):
        xi, w = am.NystromGrid(lower=0.0).nodes()
        matrix = 1j * np.exp(-((xi[:, None] + xi[None, :]) ** 2))
        with pytest.raises(am.ConsistencyError):
            am._nystrom_det(matrix, w)

    def test_nan_determinant_in_a_stack_raises(self):
        # abs(nan) >= tol is False: the check must be written so that NaN fails it
        xi, w = am.NystromGrid(lower=0.0).nodes()
        good = np.exp(-((xi[:, None] + xi[None, :]) ** 2)).astype(complex)
        stack = np.stack([good, good, np.full_like(good, complex(math.nan, math.nan))])
        assert am._nystrom_det(stack[:2], w).shape == (2,)
        with np.errstate(invalid="ignore"), pytest.raises(am.ConsistencyError):
            am._nystrom_det(stack, w)


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
        # the contour kernel and its Airy-function form are one kernel, so
        # the 1/(2|x|) shift of the negative-side law belongs to the kernel
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
