"""End-to-end acceptance gate: eight criteria, one test per criterion.

Every tolerance and runtime budget is stated inline; each test prints a
'[criterion N] name: PASS/FAIL (...)' line with its worst gap before
asserting, so the battery reports its numbers even when a check fails.

Criterion 8 compares the negative-side marginal at x = -8 with the law the
kernel gives at finite x, the Airy_2 (GUE) law shifted by 1/(2|x|):
F2(2^{1/3} (r - 1/16)).  Its x -> -infinity limit F2(2^{1/3} r) is reached
only at rate 1/|x| (sup gap 2.8e-2 at x = -8); the derivation is in the
test's comment and the airy module docstring.  The shifted law leaves
1.0e-3 at x = -8 against the 5e-3 tolerance; the same shift with the wrong
sign leaves 5.5e-2, so a kernel with the wrong negative-side limit still
fails.  The positive-side marginal passes at machine precision.

Criterion 5 asserts the combined symmetrization gap at the tighter of its
two stated tolerances (1e-10) because the library reports one worst value
over both identities; measured headroom is four orders of magnitude, and
the combined bound cannot produce a false pass.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest

from asep_exact.airy import CBRT2, airy_oracles, halfflat_limit_cdf
from asep_exact.bose import (
    delta_bose_moment,
    narrow_wedge_moment,
    she_halfflat_moment_collapsed,
    weyl_linearity_check,
)
from asep_exact.exact import (
    EvalParams,
    duality_identity_check,
    halfflat_moment,
    nested_moment,
    partition_moment,
    qtilde_initial,
    qtilde_moments,
    symmetrization_checks,
    tau_laplace_mb,
    tau_laplace_series,
    verify_ansatz,
)
from asep_exact.qfunc import ModelParams
from asep_exact.sim import Observable, ctmc_exact_expectation, mc_expectation
from test_airy import refined

pytestmark = pytest.mark.acceptance


def _report(num: int, name: str, passed: bool, detail: str) -> str:
    line = f"[criterion {num}] {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    return line


def _ev(tau: float) -> EvalParams:
    return EvalParams(params=ModelParams.from_tau(tau))


def test_criterion_1_cross_formula_agreement():
    start = time.monotonic()
    worst = 0.0
    for k, tau, x, t in itertools.product((1, 2, 3), (0.3, 0.6), (1, 3), (0.5, 1.0)):
        ev = _ev(tau)
        vals = [complex(fn(k, x, t, ev).value)
                for fn in (halfflat_moment, nested_moment, partition_moment)]
        ref = max(abs(v) for v in vals)
        for a, b in itertools.combinations(vals, 2):
            worst = max(worst, abs(a - b) / ref)
    elapsed = time.monotonic() - start
    passed = worst <= 1e-8 and elapsed < 120.0
    line = _report(1, "cross-formula agreement", passed,
                   f"max relative gap {worst:.3e} vs 1e-8, runtime {elapsed:.1f}s vs 120s")
    assert passed, line


def test_criterion_2_time_zero_exactness():
    worst_moment = 0.0
    for tau in (0.3, 0.6):
        ev = _ev(tau)
        for m in (1, 2, 3):
            for x in range(0, 7):
                val = halfflat_moment(m, x, 0.0, ev).value
                worst_moment = max(worst_moment, abs(val - tau ** (m * (x // 2))))

    ev = _ev(0.5)
    worst_product = 0.0
    for k in (1, 2, 3):
        for xs in itertools.combinations(range(1, 7), k):
            val = qtilde_moments(xs, 0.0, ev).value
            worst_product = max(worst_product, abs(val - qtilde_initial(xs, ev.params)))

    passed = worst_moment <= 1e-9 and worst_product <= 1e-9
    line = _report(2, "time-zero exactness", passed,
                   f"moment gap {worst_moment:.3e}, product gap {worst_product:.3e}, both vs 1e-9")
    assert passed, line


def test_criterion_3_simulation_oracles():
    start = time.monotonic()
    ev = _ev(0.5)
    obs1 = Observable.tau_pow_N(1, 0)
    ctmc_gap = abs(ctmc_exact_expectation(obs1, 0.25, ev.params, (-6, 8))
                   - float(np.real(halfflat_moment(1, 0, 0.25, ev).value)))

    brackets = []
    for m in (1, 2):
        mean, stderr = mc_expectation(Observable.tau_pow_N(m, 0), 1.0, ev.params,
                                      1_000_000, 424242 + m)
        formula = float(np.real(halfflat_moment(m, 0, 1.0, ev).value))
        brackets.append((abs(mean - formula), 4.0 * stderr))
    elapsed = time.monotonic() - start

    passed = (ctmc_gap <= 1e-4 and all(gap <= band for gap, band in brackets)
              and elapsed < 600.0)
    detail = (f"ctmc gap {ctmc_gap:.3e} vs 1e-4; "
              + "; ".join(f"m={m} |mc-formula| {gap:.3e} vs 4*stderr {band:.3e}"
                          for m, (gap, band) in zip((1, 2), brackets))
              + f"; runtime {elapsed:.1f}s vs 600s")
    line = _report(3, "simulation oracles", passed, detail)
    assert passed, line


def test_criterion_4_evolution_equation_residuals():
    ev = _ev(0.5)
    worst_ode = 0.0
    worst_boundary = 0.0
    for xs in ((2, 3), (2, 4), (3, 5)):
        for t in (0.3, 0.7):
            report = verify_ansatz(xs, t, ev)
            worst_ode = max(worst_ode, report.ode_residual)
            worst_boundary = max(worst_boundary, *report.boundary_residuals, 0.0)
    passed = worst_ode <= 1e-6 and worst_boundary <= 1e-7
    line = _report(4, "evolution-equation residuals", passed,
                   f"ode {worst_ode:.3e} vs 1e-6, boundary {worst_boundary:.3e} vs 1e-7")
    assert passed, line


def test_criterion_5_identity_suites():
    start = time.monotonic()
    rng = np.random.default_rng(20260825)
    params = ModelParams.from_tau(0.5)
    worst_duality = 0.0
    for _ in range(1000):
        size = int(rng.integers(1, 8))
        eta = rng.choice(np.arange(-8, 13), size=size, replace=False)
        x = int(rng.integers(-3, 10))
        for k in (1, 2, 3):
            worst_duality = max(worst_duality, duality_identity_check(eta, x, k, params)[2])

    worst_symm = max(symmetrization_checks(n, 100, params, seed=n) for n in (2, 3, 4))
    elapsed = time.monotonic() - start

    passed = worst_duality <= 1e-12 and worst_symm <= 1e-10 and elapsed < 30.0
    line = _report(5, "identity suites", passed,
                   f"duality {worst_duality:.3e} vs 1e-12, symmetrization {worst_symm:.3e} "
                   f"vs 1e-10, runtime {elapsed:.1f}s vs 30s")
    assert passed, line


def test_criterion_6_generating_function_routes():
    start = time.monotonic()
    ev = _ev(0.5)
    series = complex(tau_laplace_series(-0.2, 2, 0.5, 20, ev))
    mellin = complex(tau_laplace_mb(-0.2, 2, 0.5, 2, ev))
    route_gap = abs(series - mellin)

    mean, stderr = mc_expectation(Observable.etau_of_zeta_tauN(-0.2, 2), 0.5,
                                  ev.params, 400_000, 777)
    band = 4.0 * stderr
    series_gap = abs(series.real - mean)
    mellin_gap = abs(mellin.real - mean)
    elapsed = time.monotonic() - start

    passed = (route_gap <= 1e-5 and series_gap <= band and mellin_gap <= band
              and elapsed < 300.0)
    line = _report(6, "generating-function routes", passed,
                   f"|series-mb| {route_gap:.3e} vs 1e-5; |series-mc| {series_gap:.3e} and "
                   f"|mb-mc| {mellin_gap:.3e} vs 4*stderr {band:.3e}; "
                   f"runtime {elapsed:.1f}s vs 300s")
    assert passed, line


def test_criterion_7_continuum_moment_checks():
    worst_gauss = 0.0
    for x, t in ((0.0, 1.0), (0.5, 0.8), (-1.0, 2.0)):
        gauss = 0.5 * (1.0 + math.erf(x / math.sqrt(2.0 * t)))
        ladder = delta_bose_moment((x,), t, 0.0).value
        collapsed = she_halfflat_moment_collapsed(1, x, t, 0.0).value
        worst_gauss = max(worst_gauss, abs(ladder - gauss), abs(collapsed - gauss))

    tilted = delta_bose_moment((0.0,), 1.0, 50.0).value
    free = narrow_wedge_moment((0.0,), 1.0).value
    tilt_gap = abs(50.0 * tilted - free)

    coincident_gap = abs(she_halfflat_moment_collapsed(2, 0.5, 0.8, 0.0).value
                         - delta_bose_moment((0.5, 0.5 + 1e-9), 0.8, 0.0).value)

    weyl1 = weyl_linearity_check(1, 0.3, 0.7, 0.4)
    weyl2 = weyl_linearity_check(2, 0.3, 0.7, 0.4)

    passed = (worst_gauss <= 1e-8 and tilt_gap <= 1e-3 and coincident_gap <= 1e-6
              and weyl1 <= 1e-6 and weyl2 <= 1e-4)
    line = _report(7, "continuum moment checks", passed,
                   f"gaussian {worst_gauss:.3e} vs 1e-8, hard-tilt {tilt_gap:.3e} vs 1e-3, "
                   f"coincident {coincident_gap:.3e} vs 1e-6, chamber k=1 {weyl1:.3e} vs 1e-6, "
                   f"k=2 {weyl2:.3e} vs 1e-4")
    assert passed, line


def test_criterion_8_crossover_determinant_properties():
    start = time.monotonic()

    # r = 20 / 2^{1/3} puts the Nystrom grid on [20, 30].
    unit_gap = abs(halfflat_limit_cdf(0.0, 20.0 / CBRT2) - 1.0)

    worst_decrease = 0.0
    for x in (-4.0, 0.0, 4.0):
        vals = [halfflat_limit_cdf(x, float(r)) for r in range(-3, 4)]
        worst_decrease = max(worst_decrease,
                             max(vals[i] - vals[i + 1] for i in range(len(vals) - 1)))

    # Negative side.  With a = 2^{-1/3} x, 2u/(u^2-v^2) = 1/(u-v) + 1/(u+v)
    # turns the kernel into K_Ai(l, l') + int_0^oo e^{2ay} Ai(l+y) Ai(l'-y) dy.
    # For large |a| the integral is Ai(l) Ai(l') / (2|a|), and since
    # d/ds K_Ai(l+s, l'+s) = -Ai(l+s) Ai(l'+s) that rank-one term moves the
    # lower endpoint by -1/(2|a|):  D(x, r) = F2(2^{1/3} (r - 1/(2|x|))) + O(x^-2).
    x_neg = -8.0
    r_grid = (-2.0, -1.0, 0.0, 1.0, 2.0)
    airy2_gap = max(abs(halfflat_limit_cdf(x_neg, r)
                        - airy_oracles(CBRT2 * (r - 1.0 / (2.0 * abs(x_neg))))[0])
                    for r in r_grid)
    airy1_gap = max(abs(halfflat_limit_cdf(8.0, r) - airy_oracles(r)[1])
                    for r in r_grid)

    worst_refine = 0.0
    for x, r in ((-4.0, 0.0), (0.0, 1.0), (4.0, -1.0)):
        coarse = halfflat_limit_cdf(x, r)
        fine = refined(x, [r])[0]
        worst_refine = max(worst_refine, abs(coarse - fine))
    elapsed = time.monotonic() - start

    passed = (unit_gap <= 1e-6 and worst_decrease <= 1e-9 and airy2_gap <= 5e-3
              and airy1_gap <= 5e-3 and worst_refine <= 1e-5 and elapsed < 900.0)
    line = _report(8, "crossover determinant properties", passed,
                   f"unit tail {unit_gap:.3e} vs 1e-6; monotone violation {worst_decrease:.3e} "
                   f"vs 1e-9; negative-side marginal {airy2_gap:.3e} vs 5e-3 "
                   f"(Airy2 shifted by 1/(2|x|)); positive-side marginal "
                   f"{airy1_gap:.3e} vs 5e-3; grid refinement {worst_refine:.3e} vs 1e-5; "
                   f"runtime {elapsed:.1f}s vs 900s")
    assert passed, line
