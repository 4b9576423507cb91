"""The benchmark's workloads: seeded CLI job lists, each job with its check.

A workload is a list of ``Job``s run back to back by one client.  The seed
picks sites and times inside fixed ranges (formula workloads) or is the
Monte Carlo stream seed (``oracles``); tau and the orders, which set the
cost, stay fixed.  Every job is checked against an independent route with a
tolerance the repository's tests already assert.  Reference values are
computed when the workload is built, before any timed pass.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("moment-sweep", "high-order", "oracles")

CROSS_ROUTE_REL = 1e-8      # cross-route moments
SERIES_VS_MB = 1e-5         # Laplace series vs Mellin-Barnes
CTMC_VS_FORMULA = 1e-4      # exact window oracle vs formula
MC_SIGMAS = 4.0             # Monte Carlo vs reference, in standard errors
CLOSED_FORM = 1e-8          # Gaussian CDF / heat kernel at one point
COINCIDENT_STRINGS = 1e-6   # ordered ladder at near-coincident points vs strings
CDF_SLACK = 1e-9            # airy21 range and monotonicity (verify cdf-monotone)

# Verify rows that fail at default tolerance for a documented reason.  Such a
# job still counts as failed; it does not make the run incorrect.
KNOWN_DEFECTS = {
    ("airy", "airy2-marginal"): "criterion 8: crossover at x=-8 vs its Airy2 limit "
                                "(gap ~2.8e-2 against 5e-3)",
}


@dataclass
class Outcome:
    """What one job printed: exit code, jsonl header and rows."""

    rc: int
    header: dict
    rows: list[dict]

    @classmethod
    def parse(cls, rc: int, stdout: str) -> Outcome:
        header: dict = {}
        rows: list[dict] = []
        for line in stdout.splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("record") == "header":
                header = record
            elif record.get("record") == "row":
                rows.append(record)
        return cls(rc, header, rows)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    detail: str
    known_defect: bool = False


Check = Callable[[dict[str, Outcome]], Verdict]


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    check: Check


def _num(value: float) -> str:
    return repr(float(value))


def _within(gap: float, tol: float, what: str) -> Verdict:
    return Verdict(gap <= tol, f"{what} {gap:.3e} vs {tol:.0e}")


def _single_value(out: Outcome) -> float:
    if out.rc != 0 or len(out.rows) != 1:
        raise ValueError(f"exit {out.rc} with {len(out.rows)} rows")
    row = out.rows[0]
    return float(row["value"] if "value" in row else row["mean"])


def _guarded(check: Check) -> Check:
    """A check that cannot read the outputs it needs fails the job."""

    def run(outputs: dict[str, Outcome]) -> Verdict:
        try:
            return check(outputs)
        except (KeyError, ValueError, TypeError) as exc:
            return Verdict(False, f"unreadable output: {exc}")

    return run


def _job(name: str, argv: list[str], check: Check) -> Job:
    return Job(name, tuple(argv) + ("--format", "jsonl"), _guarded(check))


# ---------------------------------------------------------------------------
# Checks.


def cross_route(name: str) -> Check:
    """All routes printed by one `moment --method all` job agree."""

    def check(outputs):
        out = outputs[name]
        values = [float(r["value"]) for r in out.rows]
        if out.rc != 0 or len(values) != 3:
            return Verdict(False, f"exit {out.rc} with {len(values)} routes")
        ref = max(abs(v) for v in values)
        gap = max(abs(a - b) for a in values for b in values) / ref
        return _within(gap, CROSS_ROUTE_REL, "relative route spread")

    return check


def agrees_with(name: str, other: str, tol: float, relative: bool) -> Check:
    """One job's single value agrees with another job's (a second route)."""

    def check(outputs):
        a, b = _single_value(outputs[name]), _single_value(outputs[other])
        gap = abs(a - b) / (max(abs(a), abs(b)) if relative else 1.0)
        return _within(gap, tol, f"gap to {other}")

    return check


def equals_reference(name: str, ref: float, tol: float, what: str) -> Check:
    def check(outputs):
        return _within(abs(_single_value(outputs[name]) - ref), tol, what)

    return check


def mc_bracket(name: str, ref: float) -> Check:
    def check(outputs):
        out = outputs[name]
        if out.rc != 0 or len(out.rows) != 1:
            return Verdict(False, f"exit {out.rc} with {len(out.rows)} rows")
        mean, stderr = float(out.rows[0]["mean"]), float(out.rows[0]["stderr"])
        gap = abs(mean - ref)
        return Verdict(gap <= MC_SIGMAS * stderr,
                       f"|mc - ref| {gap:.3e} vs {MC_SIGMAS:g} stderr {MC_SIGMAS * stderr:.3e}")

    return check


def cdf_grid(name: str, xs: tuple[float, ...], n_r: int) -> Check:
    """airy21 values lie in [0, 1] and are nondecreasing in r for each x."""

    def check(outputs):
        out = outputs[name]
        if out.rc != 0 or len(out.rows) != len(xs) * n_r:
            return Verdict(False, f"exit {out.rc} with {len(out.rows)} rows")
        worst = 0.0
        for i in range(len(xs)):
            vals = [float(r["value"]) for r in out.rows[i * n_r:(i + 1) * n_r]]
            worst = max(worst, -min(vals), max(vals) - 1.0,
                        max(vals[j] - vals[j + 1] for j in range(n_r - 1)))
        return _within(worst, CDF_SLACK, "range/monotonicity gap")

    return check


def verify_passes(name: str) -> Check:
    """A verify battery exits 0; failures of known-defect rows are marked."""

    def check(outputs):
        out = outputs[name]
        failing = {(r["suite"], r["check"]) for r in out.rows if r["status"] != "pass"}
        if out.rc == 0 and not failing:
            return Verdict(True, f"{len(out.rows)} checks pass")
        detail = f"exit {out.rc}, failing {sorted(failing)}"
        known = out.rc == 1 and bool(failing) and failing <= set(KNOWN_DEFECTS)
        if known:
            detail += ": " + "; ".join(KNOWN_DEFECTS[f] for f in sorted(failing))
        return Verdict(False, detail, known_defect=known)

    return check


# ---------------------------------------------------------------------------
# Workloads.


def moment_sweep(seed: int) -> list[Job]:
    """Many short jobs: k <= 3 moments by all routes, delta-Bose kinds, batteries."""
    rng = random.Random(seed)
    points = [(rng.randint(-3, 3), round(rng.uniform(0.2, 2.0), 3)) for _ in range(2)]
    jobs = []
    for tau in (0.3, 0.5, 0.7):
        for k in (1, 2, 3):
            for x, t in points:
                name = f"moment tau={tau} k={k} x={x} t={t}"
                argv = ["moment", "--method", "all", "--tau", _num(tau), "--k", str(k),
                        f"--x={x}", "--t", _num(t)]
                jobs.append(_job(name, argv, cross_route(name)))

    # Continuum moments at one seeded site.  t sets the node counts, so it stays
    # fixed; the range keeps the near-coincident ladder where the tests assert
    # the 1e-6 string agreement (the gap grows with x and t).
    x, t = round(rng.uniform(-1.0, 0.3), 3), 0.6
    phi = 0.5 * (1.0 + math.erf(x / math.sqrt(2.0 * t)))
    heat = math.exp(-x * x / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)
    bose = ["bose", "--t", _num(t)]
    tilted = {k: f"bose tilted k={k} x={x} t={t}" for k in (1, 2, 3)}
    collapsed = {k: f"bose halfflat-collapsed k={k} x={x} t={t}" for k in (2, 3)}
    wedge = f"bose narrow-wedge k=1 x={x} t={t}"
    jobs.append(_job(tilted[1], bose + ["--kind", "tilted", f"--x={_num(x)}"],
                     equals_reference(tilted[1], phi, CLOSED_FORM, "gap to Gaussian CDF")))
    for k in (2, 3):
        ladder = ",".join(_num(x + j * 1e-9) for j in range(k))
        jobs.append(_job(tilted[k], bose + ["--kind", "tilted", f"--x={ladder}"],
                         agrees_with(tilted[k], collapsed[k], COINCIDENT_STRINGS, False)))
    jobs.append(_job(wedge, bose + ["--kind", "narrow-wedge", f"--x={_num(x)}"],
                     equals_reference(wedge, heat, CLOSED_FORM, "gap to heat kernel")))
    for k in (2, 3):
        argv = bose + ["--kind", "halfflat-collapsed", "--k", str(k), f"--x={_num(x)}"]
        jobs.append(_job(collapsed[k], argv,
                         agrees_with(collapsed[k], tilted[k], COINCIDENT_STRINGS, False)))

    for suite in ("identities", "moments", "bose"):
        name = f"verify {suite}"
        jobs.append(_job(name, ["verify", "--suite", suite, "--seed", str(seed)],
                         verify_passes(name)))
    return jobs


def high_order(seed: int) -> list[Job]:
    """A few long jobs: k=4 tensor contraction and the Mellin-Barnes order-2 slabs.

    Each route is its own job, checked against its partner, so the median job
    latency of a pass is taken over four jobs of a few seconds each.
    """
    rng = random.Random(seed)
    x, t = rng.choice((1, 2, 3)), round(rng.uniform(0.4, 0.8), 3)
    moment = [(f"moment k=4 {m} tau=0.3 x={x} t={t}",
               ["moment", "--k", "4", "--method", m, "--tau", "0.3", f"--x={x}", "--t", _num(t)])
              for m in ("halfflat", "partition")]
    x, t = rng.choice((1, 2, 3)), round(rng.uniform(0.4, 0.8), 3)
    laplace = [(f"laplace {r} tau=0.1 zeta=-0.2 x={x} t={t}",
                ["laplace", "--rep", r, "--tau", "0.1", "--zeta=-0.2", "--m-max", "20",
                 "--k-max", "2", f"--x={x}", "--t", _num(t)])
               for r in ("series", "mb")]
    jobs = []
    for ((a, argv_a), (b, argv_b)), tol, relative in ((moment, CROSS_ROUTE_REL, True),
                                                      (laplace, SERIES_VS_MB, False)):
        jobs.append(_job(a, argv_a, agrees_with(a, b, tol, relative)))
        jobs.append(_job(b, argv_b, agrees_with(b, a, tol, relative)))
    return jobs


AIRY_XS = (-8.0, -4.0, -2.0, 0.0, 2.0, 4.0, 8.0)
AIRY_RS = tuple(-3.0 + 0.5 * i for i in range(13))


def oracles(seed: int) -> list[Job]:
    """Formula-free layers: MC step loop, CTMC generator, crossover kernel, Airy values."""
    from asep_exact.exact import EvalParams, halfflat_moment
    from asep_exact.qfunc import ModelParams
    from asep_exact.sim import Observable, ctmc_exact_expectation

    params = ModelParams.from_tau(0.5)
    ev = EvalParams(params=params)

    def formula(t: float) -> float:
        return float(halfflat_moment(1, 0, t, ev).value.real)

    # h(2, 0) >= 1 on a window whose truncation error is below 1e-10.
    height_ref = ctmc_exact_expectation(Observable.height_indicator(0, 1.0), 2.0,
                                        params, (-10, 12))
    jobs = []
    name = "simulate tau-pow-n k=1 x=0 t=1 samples=1e6"
    jobs.append(_job(name, ["simulate", "--tau", "0.5", "--observable", "tau-pow-n", "--k", "1",
                            "--x", "0", "--t", "1", "--samples", "1000000",
                            "--seed", str(seed)], mc_bracket(name, formula(1.0))))
    name = "simulate height x=0 threshold=1 t=2 samples=2e5"
    jobs.append(_job(name, ["simulate", "--tau", "0.5", "--observable", "height", "--x", "0",
                            "--threshold", "1", "--t", "2", "--samples", "200000",
                            "--seed", str(seed)], mc_bracket(name, height_ref)))
    for t in (1.0, 4.0):
        name = f"ctmc-oracle tau-pow-n x=0 window=-12,14 t={t:g}"
        jobs.append(_job(name, ["ctmc-oracle", "--tau", "0.5", "--observable", "tau-pow-n",
                                "--k", "1", "--x", "0", "--window=-12,14", "--t", _num(t)],
                         equals_reference(name, formula(t), CTMC_VS_FORMULA, "gap to formula")))
    name = f"airy21 {len(AIRY_XS)}x{len(AIRY_RS)} grid"
    jobs.append(_job(name, ["airy21", "--x=" + ",".join(_num(v) for v in AIRY_XS),
                            "--r=" + ",".join(_num(v) for v in AIRY_RS)],
                     cdf_grid(name, AIRY_XS, len(AIRY_RS))))
    jobs.append(_job("verify airy", ["verify", "--suite", "airy"], verify_passes("verify airy")))
    return jobs


BUILDERS = {"moment-sweep": moment_sweep, "high-order": high_order, "oracles": oracles}


def build(workload: str, seed: int) -> list[Job]:
    return BUILDERS[workload](seed)


def judge(jobs: list[Job], outputs: dict[str, Outcome]) -> dict[str, Verdict]:
    """Verdict for every job of one pass."""
    return {job.name: job.check(outputs) for job in jobs}
