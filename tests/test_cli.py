"""Command-line surface tests.

Oracle strategy: time-zero runs are deterministic initial data with closed
forms, so their values are asserted exactly; finite-time rows are checked
by cross-route agreement or against the corresponding library call, never
against invented numbers.  Format invariants round-trip through the csv and
json stdlib parsers; reproducibility is checked at byte level through
subprocess runs of the installed module entry point.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time

import pytest

import asep_exact
from asep_exact import cli
from asep_exact.airy import halfflat_limit_cdf
from asep_exact.bose import delta_bose_moment, she_halfflat_moment_collapsed
from asep_exact.qfunc import ModelParams
from asep_exact.sim import Observable, ctmc_exact_expectation
from test_airy import refined


def run_cli(args, capsys):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    reader = csv.reader(io.StringIO("\n".join(lines[1:])))
    table = list(reader)
    columns = table[0]
    rows = [dict(zip(columns, row)) for row in table[1:]]
    return lines[0], columns, rows


def parse_jsonl(text):
    records = [json.loads(line) for line in text.splitlines()]
    assert records[0]["record"] == "header"
    return records[0], [r for r in records[1:] if r["record"] == "row"]


def run_module(args, extra_env=None):
    env = dict(os.environ)
    if extra_env:
        env.update(extra_env)
    return subprocess.run(
        [sys.executable, "-m", "asep_exact", *args],
        capture_output=True, text=True, env=env,
    )


class TestMomentCommand:
    def test_halfflat_initial_value(self, capsys):
        code, out, _ = run_cli(
            ["moment", "--tau", "0.5", "--k", "1", "--x", "4", "--t", "0",
             "--method", "halfflat"], capsys)
        assert code == 0
        _, columns, rows = parse_csv(out)
        assert columns == ["k_or_m", "x", "t", "method", "value", "err", "runtime"]
        assert len(rows) == 1
        assert rows[0]["method"] == "halfflat"
        assert float(rows[0]["value"]) == pytest.approx(0.25, abs=1e-9)

    def test_all_three_routes_agree(self, capsys):
        code, out, _ = run_cli(
            ["moment", "--tau", "0.4", "--k", "2", "--x", "3", "--t", "0.7",
             "--method", "all"], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        assert [r["method"] for r in rows] == ["halfflat", "nested", "partition"]
        vals = [float(r["value"]) for r in rows]
        scale = max(abs(v) for v in vals)
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(vals[i] - vals[j]) <= 1e-8 * scale

    def test_nested_value_in_unit_interval(self, capsys):
        code, out, _ = run_cli(
            ["moment", "--tau", "0.5", "--k", "1", "--x", "0", "--t", "1",
             "--method", "nested"], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        value = float(rows[0]["value"])
        assert 0.0 < value < 1.0
        assert float(rows[0]["err"]) < 1e-10

    def test_model_flag_validation(self, capsys):
        code, _, err = run_cli(["moment", "--k", "1"], capsys)
        assert code == 2
        assert "exactly one" in err
        code, _, err = run_cli(["moment", "--p", "0.3", "--tau", "0.4"], capsys)
        assert code == 2

    def test_p_and_tau_give_same_rows(self, capsys):
        args = ["moment", "--k", "1", "--x", "1", "--t", "0.3", "--method", "nested"]
        rows = []
        for rate in (["--p", "0.25"], ["--tau", str(1.0 / 3.0)]):
            code, out, _ = run_cli([*args, *rate], capsys)
            assert code == 0
            rows.append([{**r, "runtime": None} for r in parse_csv(out)[2]])
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("argv", [
        ["moment", "--tau", "0.5", "--nodes", "4"],
        ["moment", "--tau", "0.5", "--tol", "2"],
        ["simulate", "--tau", "0.5", "--seed", "1", "--samples", "50"],
        ["simulate", "--tau", "0.5", "--seed", "1", "--window=5,2"],
        ["ctmc-oracle", "--tau", "0.5", "--window=5,2"],
        ["ctmc-oracle", "--tau", "0.5", "--window=0,0"],
        ["bose", "--nodes", "4"],
    ], ids=["nodes", "tol", "samples", "mc-window", "ctmc-window", "ctmc-empty-window",
            "bose-nodes"])
    def test_library_guards_refuse_bad_settings(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:")

    def test_rule_settings_reach_the_evaluator(self, monkeypatch, capsys):
        seen = []
        real = cli.halfflat_moment

        def fake(k, x, t, ev):
            seen.append(ev)
            return real(k, x, t, ev)

        monkeypatch.setattr(cli, "halfflat_moment", fake)
        code, _, _ = run_cli(
            ["moment", "--tau", "0.5", "--k", "1", "--x", "2", "--t", "0",
             "--method", "halfflat", "--nodes", "96", "--tol", "1e-12"], capsys)
        assert code == 0
        (ev,) = seen
        assert ev.nodes == 96
        assert ev.tol == 1e-12
        assert ev.params.tau == pytest.approx(0.5, abs=1e-15)

    def test_numerical_failure_exits_two(self, capsys):
        # At tau = 0.999 the Mellin-Barnes route's complex-order q-product
        # would need 39,127 factors, past the cap: a typed refusal, exit 2,
        # not a truncated value.  At zeta = -0.2 the residue grids, sized
        # first, are refused before it; at -1e-8 no residue order is kept.
        for zeta, message in (("-0.2", "order-2 residue grid"), ("-1e-8", "cap is 4096")):
            code, out, err = run_cli(
                ["laplace", "--tau", "0.999", f"--zeta={zeta}", "--x", "0", "--t", "0.5",
                 "--rep", "mb", "--k-max", "1"], capsys)
            assert code == 2 and out == ""
            assert err.startswith("error:") and message in err


    @pytest.mark.parametrize("method", ["nested", "halfflat"])
    def test_nan_time_is_refused_by_name(self, method, capsys):
        code, out, err = run_cli(
            ["moment", "--tau", "0.5", "--x", "0", "--t", "nan", "--method", method], capsys)
        assert code == 2 and out == ""
        assert err == "error: need t >= 0, got nan\n"

    @pytest.mark.parametrize("method", ["nested", "halfflat", "partition"])
    def test_infinite_time_is_refused_by_name(self, method, capsys):
        code, out, err = run_cli(
            ["moment", "--tau", "0.5", "--x", "0", "--t", "inf", "--method", method], capsys)
        assert code == 2 and out == ""
        assert err == "error: need t >= 0, got inf\n"


class TestSimulateCommand:
    def test_time_zero_is_deterministic(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--tau", "0.5", "--observable", "tau-pow-n", "--k", "1",
             "--x", "4", "--t", "0", "--samples", "200", "--seed", "7"], capsys)
        assert code == 0
        header, columns, rows = parse_csv(out)
        assert columns == ["observable", "mean", "stderr"]
        assert "seed=7" in header
        assert "rng=PCG64DXSM" in header
        assert float(rows[0]["mean"]) == 0.25
        assert float(rows[0]["stderr"]) == 0.0

    def test_qtilde_observable_initial_value(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--tau", "0.5", "--observable", "qtilde", "--xs", "2,4",
             "--t", "0", "--samples", "100", "--seed", "3"], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        assert float(rows[0]["mean"]) == 0.5
        assert float(rows[0]["stderr"]) == 0.0

    def test_seed_is_required(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--tau", "0.5", "--t", "0.1", "--samples", "100"], capsys)
        assert code == 2
        assert "seed" in err

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_non_finite_time_is_refused(self, t, capsys):
        code, out, err = run_cli(
            ["simulate", "--tau", "0.5", "--seed", "1", "--samples", "100", "--t", t], capsys)
        assert code == 2 and out == ""
        assert err == f"error: need finite t >= 0, got {t}\n"

    def test_same_seed_identical_bytes(self, tmp_path):
        args = ["simulate", "--tau", "0.5", "--k", "1", "--x", "2", "--t", "0.2",
                "--samples", "300", "--seed", "11", "--window=-10,10"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run_module([*args, "--out", str(first)]).returncode == 0
        assert run_module([*args, "--out", str(second)]).returncode == 0
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes().startswith(b"# version=")


class TestCtmcCommand:
    def test_matches_library_call(self, capsys):
        code, out, _ = run_cli(
            ["ctmc-oracle", "--tau", "0.5", "--window=-4,4", "--t", "0.1"], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        params = ModelParams.from_tau(0.5)
        direct = ctmc_exact_expectation(Observable.tau_pow_N(1, 0), 0.1, params, (-4, 4))
        assert float(rows[0]["mean"]) == direct
        assert float(rows[0]["stderr"]) == 0.0

    def test_oversized_window_is_refused(self, capsys):
        code, _, err = run_cli(
            ["ctmc-oracle", "--tau", "0.5", "--window=-40,40", "--t", "0.25"], capsys)
        assert code == 2
        assert "states" in err

    def test_large_lambda_t_reaches_stationary_law(self, capsys):
        # lambda t = 800 is past the range of exp(-lambda t); one particle
        # on [-1, 2] has relaxed to pi(x) ~ tau^x, where E[tau^(N_0)] = 0.6.
        code, out, _ = run_cli(
            ["ctmc-oracle", "--tau", "0.5", "--window=-1,2", "--t", "800"], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        assert abs(float(rows[0]["mean"]) - 0.6) < 1e-9

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_non_finite_time_is_refused(self, t, capsys):
        code, out, err = run_cli(
            ["ctmc-oracle", "--tau", "0.5", "--window=-4,6", "--t", t], capsys)
        assert code == 2 and out == ""
        assert err == f"error: need finite t >= 0, got {t}\n"

    def test_window_is_required(self, capsys):
        code, _, err = run_cli(["ctmc-oracle", "--tau", "0.5", "--t", "0.1"], capsys)
        assert code == 2
        assert "window" in err


class TestLaplaceCommand:
    def test_both_representations_agree(self, capsys):
        code, out, _ = run_cli(
            ["laplace", "--zeta", "-0.2", "--x", "2", "--t", "0.5", "--tau", "0.5",
             "--rep", "both"], capsys)
        assert code == 0
        _, columns, rows = parse_csv(out)
        assert columns == ["rep", "zeta", "x", "t", "value", "err", "runtime"]
        assert [r["rep"] for r in rows] == ["series", "mb"]
        vals = [float(r["value"]) for r in rows]
        assert abs(vals[0] - vals[1]) < 1e-5

    def test_zeta_is_required(self, capsys):
        code, _, err = run_cli(["laplace", "--tau", "0.5"], capsys)
        assert code == 2
        assert "zeta" in err

    def test_mb_refuses_zeta_outside_unit_disk(self, capsys):
        code, out, err = run_cli(
            ["laplace", "--tau", "0.3", "--zeta=-2", "--x", "0", "--t", "0.5",
             "--rep", "mb", "--k-max", "1"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "|zeta| < 1" in err

    @pytest.mark.parametrize("rep", ["series", "mb", "both"])
    def test_nan_zeta_is_refused_by_name(self, rep, capsys):
        code, out, err = run_cli(
            ["laplace", "--tau", "0.5", "--zeta", "nan", "--x", "0", "--t", "1",
             "--rep", rep], capsys)
        assert code == 2 and out == ""
        assert err == "error: need |zeta| < 1, got nan\n"


class TestBoseCommand:
    def test_single_point_gaussian_value(self, capsys):
        code, out, _ = run_cli(
            ["bose", "--k", "1", "--theta", "0", "--x", "0", "--t", "1"], capsys)
        assert code == 0
        _, columns, rows = parse_csv(out)
        assert columns == ["kind", "k", "xs", "t", "theta", "value", "err", "runtime"]
        assert float(rows[0]["value"]) == pytest.approx(0.5, abs=1e-6)

    def test_collapsed_kind_matches_library_call(self, capsys):
        code, out, _ = run_cli(
            ["bose", "--kind", "halfflat-collapsed", "--k", "2", "--x", "0.3",
             "--t", "0.6", "--theta", "0.5"], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        direct = she_halfflat_moment_collapsed(2, 0.3, 0.6, 0.5)
        assert float(rows[0]["value"]) == float(direct.value.real)

    def test_ladder_on_the_pair_pole_exits_two(self, capsys):
        code, out, err = run_cli(["bose", "--x=-0.5,0", "--t", "0.6", "--ladder", "1.5001,0.5"],
                                 capsys)
        assert code == 2 and out == ""
        assert "budget" in err

    def test_nodes_floor_reaches_every_line(self, monkeypatch, capsys):
        # At the default floor of 64 the narrow-wedge line and the Mellin-Barnes lines at
        # --tol 1e-4 are shorter than 128 nodes; --nodes 128 must lift every line to it.
        from asep_exact import bose, exact

        def run(nodes):
            sizes = []
            for module in (bose, exact):
                real = module.line_axes

                def record(*args, real=real):
                    lines = real(*args)
                    sizes.extend(axis.z.size for axis in lines)
                    return lines

                monkeypatch.setattr(module, "line_axes", record)
            for argv in (["bose", "--kind", "narrow-wedge", "--x", "0.7", "--t", "0.5"],
                         ["bose", "--kind", "tilted", "--x=-0.5,0", "--t", "0.6"],
                         ["bose", "--kind", "halfflat-collapsed", "--k", "2", "--x", "0.3",
                          "--t", "0.6"],
                         ["laplace", "--rep", "mb", "--tau", "0.5", "--zeta=-0.2", "--x", "1",
                          "--t", "0.5", "--tol", "1e-4"]):
                code, _, _ = run_cli(argv + ["--nodes", str(nodes)], capsys)
                assert code == 0
            monkeypatch.undo()
            return sizes

        assert min(run(64)) < 128
        sizes = run(128)
        # narrow-wedge, tilted k = 2, the strings (2) and (1, 1), Mellin-Barnes orders 2 and 1
        assert len(sizes) == 1 + 2 + (1 + 2) + 2
        assert min(sizes) >= 128

    def test_narrow_wedge_rejects_tilt(self, capsys):
        code, _, err = run_cli(
            ["bose", "--kind", "narrow-wedge", "--x", "0.5", "--t", "0.4",
             "--theta", "0.3"], capsys)
        assert code == 2
        assert "tilt" in err

    def test_point_count_mismatch_is_refused(self, capsys):
        code, _, err = run_cli(["bose", "--k", "2", "--x", "0", "--t", "1"], capsys)
        assert code == 2
        assert "does not match" in err

    @pytest.mark.parametrize("argv,option", [
        (["--kind", "narrow-wedge", "--x", "0", "--ladder", "2.5"], "--ladder"),
        (["--kind", "halfflat-collapsed", "--k", "2", "--x", "0", "--ladder", "9"], "--ladder"),
        (["--kind", "tilted", "--x", "0", "--ladder", "2.5", "--alpha", "0"], "--alpha"),
        (["--kind", "narrow-wedge", "--x", "0", "--alpha", "0.5"], "--alpha"),
    ], ids=["wedge-ladder", "collapsed-ladder", "tilted-alpha", "wedge-alpha"])
    def test_option_the_kind_ignores_is_refused(self, argv, option, capsys):
        code, out, err = run_cli(["bose", *argv], capsys)
        assert code == 2 and out == ""
        assert f"does not read {option}" in err

    @pytest.mark.parametrize("argv,message", [
        (["--x", "0", "--t", "nan"], "need t > 0, got nan"),
        (["--x", "0", "--theta", "nan"], "need theta >= 0, got nan"),
        (["--x", "0", "--ladder", "nan"], "ladder must end positive, got (nan,)"),
        (["--kind", "halfflat-collapsed", "--k", "2", "--x", "0", "--alpha", "nan"],
         "need alpha > 0, got nan"),
    ], ids=["t", "theta", "ladder", "alpha"])
    def test_nan_setting_is_refused_by_name(self, argv, message, capsys):
        # Each check is written so that NaN fails it; every comparison with NaN is False.
        code, out, err = run_cli(["bose", *argv], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_infinite_time_is_refused_by_name(self, capsys):
        code, out, err = run_cli(["bose", "--x", "0", "--t", "inf"], capsys)
        assert code == 2 and out == ""
        assert err == "error: need t > 0, got inf\n"

    def test_alpha_reaches_the_collapsed_formula(self, capsys):
        # An omitted --alpha is the library default, 0.5; a given one is passed on.
        base = ["bose", "--kind", "halfflat-collapsed", "--k", "2", "--x", "0.3", "--t", "0.6"]
        values = []
        for extra in ([], ["--alpha", "0.5"], ["--alpha", "0.75"]):
            code, out, _ = run_cli(base + extra, capsys)
            assert code == 0
            values.append(float(parse_csv(out)[2][0]["value"]))
        assert values[0] == values[1]
        assert values[2] == float(she_halfflat_moment_collapsed(2, 0.3, 0.6, 0.0, 0.75).value.real)

    def test_ladder_reaches_the_tilted_formula(self, capsys):
        code, out, _ = run_cli(["bose", "--x=-0.5,0", "--t", "0.6", "--ladder", "1.6,0.5"],
                               capsys)
        assert code == 0
        direct = delta_bose_moment((-0.5, 0.0), 0.6, 0.0, ladder=(1.6, 0.5))
        assert float(parse_csv(out)[2][0]["value"]) == float(direct.value.real)


class TestAiry21Command:
    def test_single_point_in_unit_interval(self, capsys):
        code, out, _ = run_cli(["airy21", "--x", "0", "--r", "3"], capsys)
        assert code == 0
        _, columns, rows = parse_csv(out)
        assert columns == ["x", "r", "value", "runtime"]
        value = float(rows[0]["value"])
        assert 0.0 < value < 1.0
        assert value > 0.99

    def test_grid_order_and_monotonicity(self, capsys):
        code, out, _ = run_cli(["airy21", "--x=-2,2", "--r=-1,0,1"], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        assert [(float(r["x"]), float(r["r"])) for r in rows] == [
            (-2.0, -1.0), (-2.0, 0.0), (-2.0, 1.0),
            (2.0, -1.0), (2.0, 0.0), (2.0, 1.0)]
        for x in (-2.0, 2.0):
            vals = [float(r["value"]) for r in rows if float(r["x"]) == x]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert vals == sorted(vals)

    def test_row_matches_per_value_library_calls(self, capsys):
        code, out, _ = run_cli(["airy21", "--x=4", "--r=-1,0,1"], capsys)
        assert code == 0
        for row in parse_csv(out)[2]:
            assert abs(float(row["value"]) - halfflat_limit_cdf(4.0, float(row["r"]))) < 1e-14

    @pytest.mark.parametrize("argv", [
        ["--x=0", "--r=nan"],
        ["--x=0", "--r=inf"],
        ["--x=0", "--r=0,nan,1"],
        ["--x=0", "--r=-300"],
        ["--x=4", "--r=-20,0"],
        ["--x=0", "--r="],
    ], ids=["nan", "inf", "nan-in-row", "past-budget", "unresolved", "empty"])
    def test_unusable_r_exits_two(self, argv, capsys):
        # no row is printed: a NaN or inf r, tables past the budget, a value
        # no digit of which survives in double precision, and no r at all
        code, out, err = run_cli(["airy21", *argv], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("x, rs", [(-8.0, (-120.0, 0.0)), (0.0, (-20.0,)),
                                       (-8.0, (-1000.0,)), (8.0, (-20.0, -7.0))],
                             ids=["row-with-r-120", "x0-r-20", "x-8-r-1000", "x8-far-left"])
    def test_far_left_r_computes(self, x, rs, capsys):
        # the values are below 1e-100 and within 1e-13 of the refined grid
        code, out, _ = run_cli(["airy21", f"--x={x}", "--r=" + ",".join(map(str, rs))], capsys)
        assert code == 0
        for row, r, fine in zip(parse_csv(out)[2], rs, refined(x, rs)):
            value = float(row["value"])
            if r < -10.0:
                assert abs(value - fine) < 1e-13 and value < 1e-100
            else:
                assert value == halfflat_limit_cdf(x, r)

    @pytest.mark.parametrize("argv", [
        ["--x=nan"],
        ["--x=-inf"],
        ["--x="],
    ], ids=["x-nan", "x-inf", "x-empty"])
    def test_unusable_x_or_grid_exits_two(self, argv, capsys):
        # the grid is sized from x and r, so x is the only other input to refuse
        code, out, err = run_cli(["airy21", *argv], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_grid_options_are_gone(self, tmp_path, capsys):
        for flag in ("--span", "--grid-n"):
            code, out, _ = run_cli(["airy21", flag, "40"], capsys)
            assert code == 2 and out == ""
        config = tmp_path / "grid.cfg"
        config.write_text("span = 20\n")
        code, _, err = run_cli(["airy21", "--config", str(config)], capsys)
        assert code == 2 and "unknown config key" in err
        code, out, _ = run_cli(["airy21", "--x=0", "--r=0"], capsys)
        assert code == 0 and parse_csv(out)[0].split() == ["#", f"version={asep_exact.__version__}"]

    def test_ray_options_are_gone(self, tmp_path, capsys):
        for flag in ("--ray-length", "--ray-nodes"):
            code, out, _ = run_cli(["airy21", flag, "8"], capsys)
            assert code == 2 and out == ""
        config = tmp_path / "rays.cfg"
        config.write_text("ray_nodes = 96\n")
        code, _, err = run_cli(["airy21", "--config", str(config)], capsys)
        assert code == 2 and "unknown config key" in err


class TestOutputFormats:
    def test_csv_quoting_round_trips(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--tau", "0.5", "--x", "4", "--t", "0", "--samples", "100",
             "--seed", "1"], capsys)
        assert code == 0
        assert '"tau_pow_N(k=1,x=4)"' in out
        _, _, rows = parse_csv(out)
        assert rows[0]["observable"] == "tau_pow_N(k=1,x=4)"

    def test_jsonl_parses_with_header(self, capsys):
        code, out, _ = run_cli(
            ["moment", "--tau", "0.5", "--k", "1", "--x", "2", "--t", "0",
             "--method", "halfflat", "--format", "jsonl"], capsys)
        assert code == 0
        header, rows = parse_jsonl(out)
        assert header["version"] == asep_exact.__version__
        assert len(rows) == 1
        assert rows[0]["value"] == pytest.approx(0.5, abs=1e-9)

    def test_seventeen_digit_round_trip(self, capsys):
        code, out, _ = run_cli(
            ["moment", "--tau", "0.4", "--k", "1", "--x", "1", "--t", "0.3",
             "--method", "nested", "--format", "jsonl"], capsys)
        assert code == 0
        token = re.search(r'"value": ([^,}]+)', out.splitlines()[1]).group(1)
        assert token == f"{float(token):.17g}"

    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        target = tmp_path / "missing" / "rows.csv"
        code, out, err = run_cli(
            ["moment", "--tau", "0.5", "--k", "1", "--t", "0", "--method", "halfflat",
             "--out", str(target)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:")
        assert not target.exists()

    def test_out_file_leaves_stdout_empty(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            ["bose", "--x", "0", "--t", "1", "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        _, _, rows = parse_csv(target.read_text())
        assert len(rows) == 1


class TestConfigFile:
    def test_flags_override_config_over_defaults(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# comment line\n"
            "tau = 0.3\n"
            "k = 2\n"
            "x = 4  # inline comment\n"
            "t = 0\n"
            "method = halfflat\n")
        code, out, _ = run_cli(
            ["moment", "--config", str(config), "--tau", "0.5"], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        assert rows[0]["k_or_m"] == "2"
        assert float(rows[0]["value"]) == pytest.approx(0.5 ** 4, abs=1e-9)

    def test_dash_and_underscore_keys_match(self, tmp_path, capsys):
        config = tmp_path / "scale.cfg"
        config.write_text("tol-scale = 10\nsuite = airy\n")
        code, out, _ = run_cli(["verify", "--config", str(config)], capsys)
        assert code == 0
        header, _, _ = parse_csv(out)
        assert "tol_scale=10" in header
        assert "suite=airy" in header

    def test_unknown_key_is_refused(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("ray_nodes = 64\n")
        code, _, err = run_cli(["moment", "--tau", "0.5", "--config", str(config)],
                               capsys)
        assert code == 2
        assert "unknown config key" in err

    def test_unparseable_value_is_refused(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("k = banana\n")
        code, _, err = run_cli(["moment", "--tau", "0.5", "--config", str(config)],
                               capsys)
        assert code == 2
        assert "k" in err

    def test_missing_file_is_refused(self, capsys):
        code, _, err = run_cli(
            ["moment", "--tau", "0.5", "--config", "/nonexistent.cfg"], capsys)
        assert code == 2
        assert "config" in err


class TestParserCache:
    MOMENT = ["moment", "--tau", "0.5", "--x", "4", "--t", "0", "--method", "halfflat"]

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_earlier_flags_do_not_reach_later_calls(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("k = 2\ntau = 0.3\n")
        runs = [(self.MOMENT + ["--k", "3"], "3", 0.5 ** 6),
                (self.MOMENT, "1", 0.5 ** 2),
                (self.MOMENT + ["--config", str(config)], "2", 0.5 ** 4),
                (self.MOMENT, "1", 0.5 ** 2)]
        for argv, k, value in runs:
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            _, _, rows = parse_csv(out)
            assert rows[0]["k_or_m"] == k
            assert float(rows[0]["value"]) == pytest.approx(value, abs=1e-9)

    @pytest.mark.parametrize("argv", [["--help"], ["moment", "--help"]])
    def test_help_matches_a_fresh_parser(self, argv, capsys):
        run_cli(self.MOMENT + ["--k", "3"], capsys)
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        with pytest.raises(SystemExit):
            cli._build_parser.__wrapped__().parse_args(argv)
        assert out == capsys.readouterr().out


class TestStartup:
    def test_cli_import_leaves_scipy_special_unloaded(self):
        # scipy.special and scipy.sparse are imported inside the functions
        # that use them; a top-level import would slow every CLI start-up.
        # numpy.random loads lazily, on the first Monte Carlo block, and adds
        # about 5 MB to the peak memory of every other command; numpy.polynomial,
        # for the Gauss-Legendre rules, loads on the first Airy or chamber grid.
        src = os.path.dirname(os.path.dirname(os.path.abspath(asep_exact.__file__)))
        result = subprocess.run(
            [sys.executable, "-c",
             "import asep_exact.cli, sys; "
             "print([m for m in ('scipy.special', 'scipy.sparse', 'numpy.random', "
             "'numpy.polynomial') if m in sys.modules])"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


class TestVerifyCommand:
    def test_identities_pass_quickly(self, capsys):
        start = time.monotonic()
        code, out, _ = run_cli(["verify", "--suite", "identities"], capsys)
        elapsed = time.monotonic() - start
        assert code == 0
        assert elapsed < 10.0
        _, columns, rows = parse_csv(out)
        assert columns == ["suite", "check", "gap", "tol", "status"]
        assert rows and all(r["status"] == "pass" for r in rows)
        assert all(float(r["gap"]) <= float(r["tol"]) for r in rows)

    def test_moments_pass(self, capsys):
        start = time.monotonic()
        code, out, _ = run_cli(["verify", "--suite", "moments"], capsys)
        assert code == 0
        assert time.monotonic() - start < 300.0
        _, _, rows = parse_csv(out)
        assert all(r["status"] == "pass" for r in rows)

    def test_bose_pass(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "bose"], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        assert all(r["status"] == "pass" for r in rows)

    def test_airy_fails_only_on_documented_marginal(self, capsys):
        # airy2-marginal compares x = -8 with the Airy2 law shifted by
        # 1/(2|x|), the finite-x law of the kernel, so the suite passes
        code, out, _ = run_cli(["verify", "--suite", "airy"], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        failing = [r["check"] for r in rows if r["status"] == "fail"]
        assert failing == []
        gap = next(float(r["gap"]) for r in rows if r["check"] == "airy2-marginal")
        assert gap < 5e-3

    def test_tiny_tolerance_scale_fails(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "moments", "--tol-scale", "1e-12"], capsys)
        assert code == 1
        _, _, rows = parse_csv(out)
        assert any(r["status"] == "fail" for r in rows)

    @pytest.mark.slow
    def test_all_suites_pass_at_scale_ten(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "all", "--tol-scale", "10"],
                               capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        suites = {r["suite"] for r in rows}
        assert suites == {"identities", "moments", "laplace", "bose", "airy"}
        assert all(r["status"] == "pass" for r in rows)

    def test_negative_tolerance_scale_is_refused(self, capsys):
        # inf passed every check and nan failed every one; both are refused
        for scale in ("-1", "inf", "nan"):
            code, out, err = run_cli(["verify", "--tol-scale", scale], capsys)
            assert code == 2 and out == ""
            assert "tol-scale" in err


class TestArgumentErrors:
    def test_unknown_flag_exits_two(self, capsys):
        code, _, _ = run_cli(["moment", "--bogus", "1"], capsys)
        assert code == 2

    def test_missing_subcommand_exits_two(self, capsys):
        code, _, _ = run_cli([], capsys)
        assert code == 2

    @pytest.mark.parametrize("command", list(cli._OPTION_TABLES))
    def test_help_names_only_real_defaults(self, command, capsys):
        # An option without a default gets no "(default: None)"; --window's default
        # is sim.default_window, which has no drift term.
        code, out, _ = run_cli([command, "--help"], capsys)
        text = " ".join(out.split())  # argparse wraps help lines
        assert code == 0
        assert "(default: None)" not in text and "drift-aware" not in text
        assert "(default: 64)" in text or command not in ("moment", "laplace", "bose")

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(["--help"], capsys)
        assert code == 0
        assert "moment" in out and "verify" in out

    def test_bad_choice_exits_two(self, capsys):
        code, _, _ = run_cli(["moment", "--tau", "0.5", "--method", "magic"], capsys)
        assert code == 2
        code, _, _ = run_cli(["moment", "--tau", "0.5", "--format", "xml"], capsys)
        assert code == 2


def test_gaussian_reference_constant():
    assert 0.5 * (1.0 + math.erf(0.0)) == 0.5
