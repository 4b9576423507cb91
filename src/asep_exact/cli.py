"""Command-line front end for the evaluators, oracles, and self-checks.

Subcommands
-----------
moment       tau^(k N_x) moments by the half-flat, nested, or partition route
simulate     Monte Carlo estimates of lattice observables (seeded, reproducible)
ctmc-oracle  exact finite-window expectations via uniformization
laplace      tau-Laplace transform by the series and Mellin-Barnes routes
bose         point-interaction moment evaluators for the continuum limit
airy21       crossover-distribution values det(I - K) on an (x, r) grid
verify       deterministic self-check batteries with per-check pass/fail rows

Output schemas (one row per result)
-----------------------------------
moment       k_or_m, x, t, method, value, err, runtime
simulate     observable, mean, stderr
ctmc-oracle  observable, mean, stderr
laplace      rep, zeta, x, t, value, err, runtime
bose         kind, k, xs, t, theta, value, err, runtime
airy21       x, r, value, runtime
verify       suite, check, gap, tol, status

Rows are CSV (RFC 4180 quoting) or JSON lines per --format.  Every run
starts with a reproducibility header (version, seed, random generator and
node counts where they apply): a single comment row starting with '#' in
CSV, an object with "record": "header" in JSON lines (data rows carry
"record": "row").  All floating values are printed with 17 significant
digits, enough to round-trip a double exactly.  The err column is the
evaluator's internal error estimate, floored by the imaginary residual of
a nominally real value (laplace returns no estimate, so there err is only
|Im value|); runtime is wall seconds and is the only nondeterministic
column (in airy21 the first row of each x also carries the contour build
that its other rows reuse).

A config file given by --config holds `key = value` lines (blank lines and
'#' comments ignored); keys are the long option names of the chosen
subcommand, with '-' and '_' interchangeable.  Flags override the config
file, which overrides built-in defaults.  List-valued options are
comma-separated; values starting with a minus sign must be attached on the
command line (`--x=-4,0,4`).

Rows are evaluated in a plain loop, in input order.  Settings are checked
once, where they are used: choices by the option parser, rates, node counts,
tolerances, sample counts and windows by the library call that takes them.

The verify batteries mirror the package's acceptance checks at desk scale.
airy/airy2-marginal compares the crossover distribution at x = -8 with the
Airy2 law shifted by 1/(2|x|), F2(2^{1/3} (r - 1/16)), which is what the
kernel gives at finite x (gap about 1.0e-3 against 5e-3; see the airy
module docstring).  `--tol-scale 10` passes every suite.

Exit codes: 0 success, 1 verification failure, 2 invalid arguments,
domain-guard violations or an unwritable --out.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .airy import CBRT2, ConsistencyError, KernelSpec, NystromGrid, airy_oracles, halfflat_limit_cdf
from .bose import (
    BoseParams,
    delta_bose_moment,
    narrow_wedge_moment,
    she_halfflat_moment_collapsed,
    weyl_linearity_check,
)
from .exact import (
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
from .qfunc import DomainError, ModelParams, PoleError, QTruncation
from .quad import CostGuardError, QuadratureRule
from .sim import MC_BITGEN, Observable, ctmc_exact_expectation, default_window, mc_expectation

MOMENT_METHODS = ("halfflat", "nested", "partition")
VERIFY_SUITES = ("identities", "moments", "laplace", "bose", "airy")


# ---------------------------------------------------------------------------
# Option tables: one declaration drives argparse, config parsing, defaults.


@dataclass(frozen=True)
class Opt:
    name: str
    conv: Callable[[str], object]
    default: object
    help: str


def _int_pair(raw: str) -> tuple[int, int]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'left,right', got {raw!r}")
    return int(parts[0]), int(parts[1])


def _int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(p) for p in raw.split(",") if p.strip() != "")


def _float_tuple(raw: str) -> tuple[float, ...]:
    return tuple(float(p) for p in raw.split(",") if p.strip() != "")


def _choice(*allowed: str) -> Callable[[str], str]:
    def conv(raw: str) -> str:
        if raw not in allowed:
            raise ValueError(f"expected one of {', '.join(allowed)}, got {raw!r}")
        return raw

    conv.__name__ = "choice"
    return conv


_MODEL_OPTS = (
    Opt("p", float, None, "right jump rate (q = 1 - p, requires 0 < p < 1/2)"),
    Opt("tau", float, None, "asymmetry p/q in (0, 1); give exactly one of --p/--tau"),
)
_RULE_OPTS = (
    Opt("nodes", int, 64, "quadrature nodes per contour piece (floor)"),
    Opt("tol", float, 1e-14, "target error of node counts, Laplace series and q-products"),
)
_OBS_OPTS = (
    Opt("observable", _choice("tau-pow-n", "qtilde", "etau", "height"), "tau-pow-n",
        "which functional of the configuration to average"),
    Opt("k", int, 1, "power for tau-pow-n"),
    Opt("x", int, 0, "site for tau-pow-n / etau / height"),
    Opt("xs", _int_tuple, (), "comma-separated sites for qtilde"),
    Opt("zeta", float, -0.5, "argument for etau"),
    Opt("threshold", float, 0.0, "height threshold for height"),
)
_OUT_OPTS = (
    Opt("format", _choice("csv", "jsonl"), "csv", "output format"),
    Opt("out", str, None, "output file (default: stdout)"),
)

_OPTION_TABLES: dict[str, tuple[Opt, ...]] = {
    "moment": _MODEL_OPTS + (
        Opt("k", int, 1, "moment order (k for tau^(k N_x); the half-flat expansion order m)"),
        Opt("x", int, 0, "lattice site"),
        Opt("t", float, 1.0, "time"),
        Opt("method", _choice(*MOMENT_METHODS, "all"), "all", "evaluation route"),
    ) + _RULE_OPTS + _OUT_OPTS,
    "simulate": _MODEL_OPTS + _OBS_OPTS + (
        Opt("t", float, 1.0, "time"),
        Opt("samples", int, 10_000, "number of Monte Carlo replicas (>= 100)"),
        Opt("seed", int, None, "stream seed (required)"),
        Opt("window", _int_pair, None, "lattice window 'left,right' (default: drift-aware)"),
    ) + _OUT_OPTS,
    "ctmc-oracle": _MODEL_OPTS + _OBS_OPTS + (
        Opt("t", float, 1.0, "time"),
        Opt("window", _int_pair, None, "lattice window 'left,right' (required)"),
    ) + _OUT_OPTS,
    "laplace": _MODEL_OPTS + (
        Opt("zeta", float, None, "transform argument (in (-1, 0), required)"),
        Opt("x", int, 0, "lattice site"),
        Opt("t", float, 1.0, "time"),
        Opt("rep", _choice("series", "mb", "both"), "both", "representation"),
        Opt("m_max", int, 20, "series truncation order; the sum stops there without a tail check"),
        Opt("k_max", int, 2, "Mellin-Barnes truncation order"),
    ) + _RULE_OPTS + _OUT_OPTS,
    "bose": (
        Opt("kind", _choice("tilted", "narrow-wedge", "halfflat-collapsed"), "tilted",
            "moment formula"),
        Opt("k", int, None, "number of points (default: len of --x)"),
        Opt("x", _float_tuple, (0.0,), "comma-separated evaluation points"),
        Opt("t", float, 1.0, "time"),
        Opt("theta", float, 0.0, "tilt of the initial data"),
        Opt("alpha", float, 0.5, "common abscissa of the collapsed formula"),
        Opt("ladder", _float_tuple, None, "override abscissas for the ordered formula"),
        Opt("nodes", int, 64, "quadrature nodes per contour piece (floor)"),
    ) + _OUT_OPTS,
    "airy21": (
        Opt("x", _float_tuple, (0.0,), "comma-separated crossover parameters"),
        Opt("r", _float_tuple, (0.0,), "comma-separated distribution arguments"),
        Opt("ray_length", float, 8.0, "length of each kernel contour ray"),
        Opt("ray_nodes", int, 96, "quadrature nodes per kernel ray"),
        Opt("span", float, 10.0, "length of the determinant discretization interval"),
        Opt("grid_n", int, 40, "Gauss-Legendre nodes for the determinant"),
    ) + _OUT_OPTS,
    "verify": (
        Opt("suite", _choice(*VERIFY_SUITES, "all"), "all", "which battery to run"),
        Opt("tol_scale", float, 1.0, "multiply every check tolerance by this factor"),
        Opt("seed", int, 0, "seed for the randomized identity checks"),
    ) + _OUT_OPTS,
}


_COMMAND_HELP = {
    "moment": "tau^(k N_x) moments by the half-flat, nested, or partition route",
    "simulate": "seeded Monte Carlo estimates of lattice observables",
    "ctmc-oracle": "exact finite-window expectations via uniformization",
    "laplace": "tau-Laplace transform by the series and Mellin-Barnes routes",
    "bose": "point-interaction moment evaluators for the continuum limit",
    "airy21": "crossover-distribution values on an (x, r) grid",
    "verify": "deterministic self-check batteries with pass/fail rows",
}


# Built once per process: parse_args leaves no state on the parser.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asep-exact",
        description="Exact half-flat exclusion-process evaluators, oracles, and self-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, opts in _OPTION_TABLES.items():
        p = sub.add_parser(command, help=_COMMAND_HELP[command])
        p.add_argument("--config", type=str, default=None,
                       help="key = value file; flags override it")
        for opt in opts:
            p.add_argument(
                "--" + opt.name.replace("_", "-"),
                type=opt.conv,
                default=argparse.SUPPRESS,
                help=f"{opt.help} (default: {opt.default})",
            )
    return parser


def _read_config(path: str) -> dict[str, str]:
    table: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DomainError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        table[key.strip().replace("-", "_")] = value.strip()
    return table


def _resolve(command: str, args: argparse.Namespace) -> dict[str, object]:
    """Defaults, then config file, then explicit flags."""
    opts = _OPTION_TABLES[command]
    conv = {opt.name: opt.conv for opt in opts}
    merged: dict[str, object] = {opt.name: opt.default for opt in opts}
    if args.config is not None:
        for key, raw in _read_config(args.config).items():
            if key not in conv:
                raise DomainError(f"unknown config key {key!r} for subcommand {command!r}")
            try:
                merged[key] = conv[key](raw)
            except (TypeError, ValueError) as exc:
                raise DomainError(f"config key {key!r}: {exc}") from exc
    merged.update({k: v for k, v in vars(args).items() if k in conv})
    return merged


# ---------------------------------------------------------------------------
# Output plumbing.


def _fmt_float(value: float) -> str:
    return f"{float(value):.17g}"


def _scalar(value: object, text: Callable[[str], str] = str) -> str:
    """One output cell; text renders strings (json.dumps quotes them for JSON lines)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    return text(str(value))


def _render_csv(columns: Sequence[str], rows: list[dict], header: dict) -> str:
    buf = io.StringIO()
    buf.write("# " + " ".join(f"{k}={_scalar(v)}" for k, v in header.items()) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_scalar(row[c]) for c in columns])
    return buf.getvalue()


def _render_jsonl(columns: Sequence[str], rows: list[dict], header: dict) -> str:
    def line(record: str, pairs: list[tuple[str, object]]) -> str:
        body = ", ".join(f"{json.dumps(k)}: {_scalar(v, json.dumps)}" for k, v in pairs)
        return '{"record": ' + json.dumps(record) + (", " + body if body else "") + "}"

    lines = [line("header", list(header.items()))]
    for row in rows:
        lines.append(line("row", [(c, row[c]) for c in columns]))
    return "\n".join(lines) + "\n"


def _emit(cfg: dict, columns: Sequence[str], rows: list[dict], header_extra: dict) -> None:
    header = {"version": __version__, **header_extra}
    render = _render_csv if cfg["format"] == "csv" else _render_jsonl
    text = render(columns, rows, header)
    if cfg["out"] is None:
        sys.stdout.write(text)
    else:
        Path(cfg["out"]).write_text(text)


def _real_with_residual(value: complex, err: float) -> tuple[float, float]:
    return float(np.real(value)), max(float(err), abs(float(np.imag(value))))


# ---------------------------------------------------------------------------
# Subcommands.


def _params(cfg: dict) -> ModelParams:
    if (cfg["p"] is None) == (cfg["tau"] is None):
        raise DomainError("exactly one of --p / --tau must be given")
    if cfg["p"] is not None:
        return ModelParams.from_p(cfg["p"])
    return ModelParams.from_tau(cfg["tau"])


def _ev(cfg: dict) -> EvalParams:
    return EvalParams(params=_params(cfg), rule=QuadratureRule(nodes_per_piece=cfg["nodes"]),
                      trunc=QTruncation(tol=cfg["tol"]))


def _cmd_moment(cfg: dict) -> int:
    k, x, t = cfg["k"], cfg["x"], cfg["t"]
    ev = _ev(cfg)
    methods = MOMENT_METHODS if cfg["method"] == "all" else (cfg["method"],)
    evaluators = {"halfflat": halfflat_moment, "nested": nested_moment,
                  "partition": partition_moment}
    rows = []
    for method in methods:
        start = time.perf_counter()
        res = evaluators[method](k, x, t, ev)
        value, err = _real_with_residual(res.value, res.err_estimate)
        rows.append({"k_or_m": k, "x": x, "t": t, "method": method, "value": value,
                     "err": err, "runtime": time.perf_counter() - start})
    _emit(cfg, ("k_or_m", "x", "t", "method", "value", "err", "runtime"), rows,
          {"nodes": cfg["nodes"]})
    return 0


def _build_observable(cfg: dict) -> Observable:
    kind = cfg["observable"]
    if kind == "tau-pow-n":
        return Observable.tau_pow_N(cfg["k"], cfg["x"])
    if kind == "qtilde":
        if not cfg["xs"]:
            raise DomainError("observable qtilde needs --xs")
        return Observable.qtilde_product(cfg["xs"])
    if kind == "etau":
        return Observable.etau_of_zeta_tauN(cfg["zeta"], cfg["x"])
    return Observable.height_indicator(cfg["x"], cfg["threshold"])


def _describe_observable(obs: Observable) -> str:
    if obs.kind == "tau_pow_N":
        return f"tau_pow_N(k={obs.k},x={obs.x})"
    if obs.kind == "qtilde_product":
        return "qtilde_product(xs=" + ",".join(str(v) for v in obs.xs) + ")"
    if obs.kind == "etau_of_zeta_tauN":
        return f"etau_of_zeta_tauN(zeta={_fmt_float(obs.zeta)},x={obs.x})"
    return f"height_indicator(x={obs.x},threshold={_fmt_float(obs.threshold)})"


def _cmd_simulate(cfg: dict) -> int:
    params = _params(cfg)
    if cfg["seed"] is None:
        raise DomainError("simulate requires --seed for reproducibility")
    obs = _build_observable(cfg)
    t = cfg["t"]
    window = cfg["window"] if cfg["window"] is not None else default_window(obs, t)
    mean, stderr = mc_expectation(obs, t, params, cfg["samples"], cfg["seed"], window)
    rows = [{"observable": _describe_observable(obs), "mean": mean, "stderr": stderr}]
    _emit(cfg, ("observable", "mean", "stderr"), rows,
          {"seed": cfg["seed"], "rng": MC_BITGEN, "samples": cfg["samples"],
           "window": f"{window[0]},{window[1]}"})
    return 0


def _cmd_ctmc(cfg: dict) -> int:
    params = _params(cfg)
    window = cfg["window"]
    if window is None:
        raise DomainError("ctmc-oracle requires --window")
    obs = _build_observable(cfg)
    mean = ctmc_exact_expectation(obs, cfg["t"], params, window)
    rows = [{"observable": _describe_observable(obs), "mean": mean, "stderr": 0.0}]
    _emit(cfg, ("observable", "mean", "stderr"), rows,
          {"window": f"{window[0]},{window[1]}"})
    return 0


def _cmd_laplace(cfg: dict) -> int:
    ev = _ev(cfg)
    if cfg["zeta"] is None:
        raise DomainError("laplace requires --zeta")
    zeta, x, t = cfg["zeta"], cfg["x"], cfg["t"]
    reps = ("series", "mb") if cfg["rep"] == "both" else (cfg["rep"],)
    rows = []
    for rep in reps:
        start = time.perf_counter()
        if rep == "series":
            raw = tau_laplace_series(zeta, x, t, cfg["m_max"], ev)
        else:
            raw = tau_laplace_mb(zeta, x, t, cfg["k_max"], ev)
        value, err = _real_with_residual(raw, 0.0)
        rows.append({"rep": rep, "zeta": zeta, "x": x, "t": t, "value": value,
                     "err": err, "runtime": time.perf_counter() - start})
    _emit(cfg, ("rep", "zeta", "x", "t", "value", "err", "runtime"), rows,
          {"nodes": cfg["nodes"]})
    return 0


def _cmd_bose(cfg: dict) -> int:
    xs = cfg["x"]
    kind = cfg["kind"]
    k = cfg["k"] if cfg["k"] is not None else len(xs)
    rule = QuadratureRule(nodes_per_piece=cfg["nodes"])
    t, theta = cfg["t"], cfg["theta"]
    if kind in ("tilted", "narrow-wedge") and k != len(xs):
        raise DomainError(f"--k {k} does not match the {len(xs)} points in --x")
    start = time.perf_counter()
    if kind == "tilted":
        bose = None
        if cfg["ladder"] is not None:
            bose = BoseParams(alpha_ladder=cfg["ladder"], alpha=cfg["alpha"])
        res = delta_bose_moment(xs, t, theta, bose, rule)
    elif kind == "narrow-wedge":
        if theta != 0.0:
            raise DomainError("narrow-wedge has no tilt; drop --theta")
        res = narrow_wedge_moment(xs, t, rule)
    else:
        if len(xs) != 1:
            raise DomainError("halfflat-collapsed takes a single point in --x")
        res = she_halfflat_moment_collapsed(
            k, xs[0], t, theta, BoseParams(alpha=cfg["alpha"]), rule)
    value, err = _real_with_residual(res.value, res.err_estimate)
    rows = [{"kind": kind, "k": k, "xs": ",".join(_fmt_float(v) for v in xs), "t": t,
             "theta": theta, "value": value, "err": err,
             "runtime": time.perf_counter() - start}]
    _emit(cfg, ("kind", "k", "xs", "t", "theta", "value", "err", "runtime"), rows,
          {"nodes": cfg["nodes"]})
    return 0


def _cmd_airy21(cfg: dict) -> int:
    rows = []
    for x in cfg["x"]:
        for r in cfg["r"]:
            start = time.perf_counter()
            value = halfflat_limit_cdf(
                x, r,
                spec=KernelSpec(x=x, ray_length=cfg["ray_length"],
                                nodes_per_ray=cfg["ray_nodes"]),
                grid=NystromGrid(lower=0.0, span=cfg["span"], n=cfg["grid_n"]),
            )
            rows.append({"x": x, "r": r, "value": value,
                         "runtime": time.perf_counter() - start})
    _emit(cfg, ("x", "r", "value", "runtime"), rows,
          {"ray_nodes": cfg["ray_nodes"], "grid_n": cfg["grid_n"]})
    return 0


# ---------------------------------------------------------------------------
# Verification batteries.  Each check returns its worst observed gap and the
# tolerance it is held to; tolerances scale uniformly with --tol-scale.


def _check(suite: str, check: str, gap: float, tol: float) -> dict:
    return {"suite": suite, "check": check, "gap": float(gap), "tol": float(tol),
            "status": "pass" if gap <= tol else "fail"}


def _suite_identities(scale: float, seed: int) -> list[dict]:
    rows = []
    worst = 0.0
    for tau in (0.3, 0.6):
        params = ModelParams.from_tau(tau)
        for eta in ((2, 4, 6), (-1, 2, 5), (0, 1, 2, 3, 7)):
            for x in (0, 2, 5):
                for k in (1, 2, 3):
                    worst = max(worst, duality_identity_check(eta, x, k, params)[2])
    rows.append(_check("identities", "duality-expansion", worst, 1e-12 * scale))

    gap = max(
        symmetrization_checks(2, 30, ModelParams.from_tau(0.6), seed=seed),
        symmetrization_checks(3, 30, ModelParams.from_tau(0.3), seed=seed + 1),
    )
    rows.append(_check("identities", "symmetrization", gap, 1e-10 * scale))

    ev = EvalParams(params=ModelParams.from_tau(0.5))
    worst = 0.0
    for xs in ((2,), (4,), (1, 2), (2, 4)):
        val = qtilde_moments(xs, 0.0, ev).value
        worst = max(worst, abs(val - qtilde_initial(xs, ev.params)))
    rows.append(_check("identities", "qtilde-initial", worst, 1e-9 * scale))

    worst = 0.0
    for m in (1, 2):
        for x in (0, 1, 2, 3, 4):
            val = halfflat_moment(m, x, 0.0, ev).value
            worst = max(worst, abs(val - ev.params.tau ** (m * (x // 2))))
    rows.append(_check("identities", "halfflat-initial", worst, 1e-9 * scale))
    return rows


def _suite_moments(scale: float, seed: int) -> list[dict]:
    rows = []
    ev = EvalParams(params=ModelParams.from_tau(0.5))
    worst = 0.0
    for k, x, t in ((1, 2, 0.5), (2, 3, 0.7)):
        vals = [complex(fn(k, x, t, ev).value)
                for fn in (halfflat_moment, nested_moment, partition_moment)]
        ref = max(abs(v) for v in vals)
        for i in range(3):
            for j in range(i + 1, 3):
                worst = max(worst, abs(vals[i] - vals[j]) / ref)
    rows.append(_check("moments", "cross-formula", worst, 1e-8 * scale))

    report = verify_ansatz((2, 3), 0.5, ev)
    rows.append(_check("moments", "ansatz-ode", report.ode_residual, 1e-6 * scale))
    boundary = max((*report.boundary_residuals, report.initial_gap))
    rows.append(_check("moments", "ansatz-boundary", boundary, 1e-7 * scale))

    obs = Observable.tau_pow_N(1, 0)
    oracle = ctmc_exact_expectation(obs, 0.25, ev.params, (-6, 8))
    formula = float(np.real(halfflat_moment(1, 0, 0.25, ev).value))
    rows.append(_check("moments", "ctmc-window", abs(oracle - formula), 1e-4 * scale))
    return rows


def _suite_laplace(scale: float, seed: int) -> list[dict]:
    ev = EvalParams(params=ModelParams.from_tau(0.5))
    series = tau_laplace_series(-0.2, 2, 0.5, 20, ev)
    mellin = tau_laplace_mb(-0.2, 2, 0.5, 2, ev)
    return [_check("laplace", "series-vs-mellin-barnes", abs(series - mellin), 1e-5 * scale)]


def _suite_bose(scale: float, seed: int) -> list[dict]:
    rows = []
    worst = 0.0
    for x, t in ((0.0, 1.0), (0.5, 0.8)):
        val = delta_bose_moment((x,), t, 0.0).value
        gauss = 0.5 * (1.0 + math.erf(x / math.sqrt(2.0 * t)))
        worst = max(worst, abs(val - gauss))
    rows.append(_check("bose", "gaussian-cdf", worst, 1e-8 * scale))

    rows.append(_check("bose", "chamber-linearity-k1",
                       weyl_linearity_check(1, 0.3, 0.7, 0.4), 1e-6 * scale))
    rows.append(_check("bose", "chamber-linearity-k2",
                       weyl_linearity_check(2, 0.3, 0.7, 0.4), 1e-4 * scale))

    ladder = delta_bose_moment((0.3, 0.3 + 1e-9), 0.6, 0.5).value
    collapsed = she_halfflat_moment_collapsed(2, 0.3, 0.6, 0.5).value
    rows.append(_check("bose", "coincident-strings", abs(ladder - collapsed), 1e-6 * scale))
    return rows


def _suite_airy(scale: float, seed: int) -> list[dict]:
    rows = []
    rows.append(_check("airy", "unit-tail",
                       abs(halfflat_limit_cdf(0.0, 20.0 / CBRT2) - 1.0), 1e-6 * scale))

    vals = [halfflat_limit_cdf(0.0, float(r)) for r in range(-3, 4)]
    gap = max(0.0, -min(vals), max(vals) - 1.0,
              max(vals[i] - vals[i + 1] for i in range(len(vals) - 1)))
    rows.append(_check("airy", "cdf-monotone", gap, 1e-9 * scale))

    # at finite x < 0 the law is F2 shifted by 1/(2|x|) (airy module docstring)
    worst = max(abs(halfflat_limit_cdf(-8.0, r)
                    - airy_oracles(CBRT2 * (r - 1.0 / (2.0 * 8.0)))[0])
                for r in (-1.0, 0.0, 1.0))
    rows.append(_check("airy", "airy2-marginal", worst, 5e-3 * scale))

    worst = max(abs(halfflat_limit_cdf(8.0, r) - airy_oracles(r)[1])
                for r in (0.0, 1.0))
    rows.append(_check("airy", "airy1-marginal", worst, 5e-3 * scale))

    coarse = halfflat_limit_cdf(1.0, 0.5)
    fine = halfflat_limit_cdf(
        1.0, 0.5,
        spec=KernelSpec(x=1.0, ray_length=10.0, nodes_per_ray=192),
        grid=NystromGrid(lower=0.0, span=14.0, n=80),
    )
    rows.append(_check("airy", "grid-stability", abs(coarse - fine), 1e-5 * scale))
    return rows


_SUITES = {
    "identities": _suite_identities,
    "moments": _suite_moments,
    "laplace": _suite_laplace,
    "bose": _suite_bose,
    "airy": _suite_airy,
}


def _cmd_verify(cfg: dict) -> int:
    scale = cfg["tol_scale"]
    if scale <= 0:
        raise DomainError(f"need tol-scale > 0, got {scale}")
    suites = VERIFY_SUITES if cfg["suite"] == "all" else (cfg["suite"],)
    rows = [row for suite in suites for row in _SUITES[suite](scale, cfg["seed"])]
    _emit(cfg, ("suite", "check", "gap", "tol", "status"), rows,
          {"suite": cfg["suite"], "tol_scale": scale, "seed": cfg["seed"]})
    return 0 if all(row["status"] == "pass" for row in rows) else 1


_DISPATCH = {
    "moment": _cmd_moment,
    "simulate": _cmd_simulate,
    "ctmc-oracle": _cmd_ctmc,
    "laplace": _cmd_laplace,
    "bose": _cmd_bose,
    "airy21": _cmd_airy21,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve(args.command, args)
        return _DISPATCH[args.command](cfg)
    except (DomainError, PoleError, CostGuardError, ConsistencyError, ValueError,
            ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
