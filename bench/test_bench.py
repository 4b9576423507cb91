"""Fast tests of the benchmark's own arithmetic: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import run
import spans
import workloads
from workloads import Outcome, Verdict


def _ticks(*values):
    it = iter(values)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > child [1, 7] > grandchild [2, 5]; second child [8, 9].
    recorded = [["cli.main", 0.0, 10.0, -1, 0], ["exact.a", 1.0, 7.0, 0, 0],
                ["qfunc.b", 2.0, 5.0, 1, 0], ["quad.c", 8.0, 9.0, 0, 0]]
    assert spans.self_times(recorded) == [3.0, 3.0, 3.0, 1.0]


def test_tracer_nests_spans_and_sums_layers():
    tracer = spans.Tracer(clock=_ticks(0.0, 1.0, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0))

    inner = tracer.wrap("qfunc.poch_inf", lambda: 1)
    germ = tracer.wrap("qfunc.germ_g", lambda: inner() + inner())
    main = tracer.wrap("cli.main", lambda: germ())
    tracer.job = 0
    assert main() == 2
    # cli.main [0, 10] > germ_g [1, 9] > poch_inf [4, 6] and [7, 8].
    names = [s[0] for s in tracer.spans]
    assert names == ["cli.main", "qfunc.germ_g", "qfunc.poch_inf", "qfunc.poch_inf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1]
    metrics = spans.layer_metrics(tracer, wall_s=10.5)
    assert metrics["cli.jobs"] == 1
    assert metrics["qfunc.poch_inf.calls"] == 2
    assert metrics["qfunc.germ.calls"] == 1
    assert metrics["cli.self_s"] == 2.0
    assert metrics["qfunc.self_s"] == 8.0
    assert metrics["qfunc.poch_inf.self_s"] == 3.0
    assert abs(metrics["trace.unattributed_s"] - 0.5) < 1e-12


def test_node_counts_recorded_as_reported_and_flagged():
    tracer = spans.Tracer()
    reported = iter([(0, 1, 2), (236, 236)])
    route = tracer.wrap("exact.halfflat_moment", lambda: SimpleNamespace(node_counts=next(reported)))
    main = tracer.wrap("cli.main", lambda: route())
    main()
    main()
    assert [e["node_counts"] for e in tracer.node_counts] == [[0, 1, 2], [236, 236]]
    assert tracer.node_counts[0]["flag"] == spans.ORDERS_FLAG
    assert "flag" not in tracer.node_counts[1]


def test_poisson_terms_reaches_the_mass():
    assert spans.poisson_terms(0.0) == 0
    n = spans.poisson_terms(7.0)
    assert 20 < n < 60
    assert spans.poisson_terms(3.5) < n < spans.poisson_terms(14.0)


def test_fail_counting_and_correctness():
    verdicts = [Verdict(True, ""), Verdict(False, "x", known_defect=True), Verdict(False, "y")]
    assert run.count_failures(verdicts) == (3, 2, 1)
    record = {"trace": False, "failed": 1, "failed_known_defect": 1, "attempted": 12,
              "end_to_end": {k: 1.0 for k in run.END_TO_END}}
    assert run.summary(record)["correct"] is True
    record["failed"] = 2
    assert run.summary(record)["correct"] is False


def _moment_outcome(values):
    rows = [{"record": "row", "method": m, "value": v, "err": 0.0}
            for m, v in zip(("halfflat", "nested", "partition"), values)]
    return Outcome(0, {"record": "header"}, rows)


def test_cross_route_check_rejects_a_perturbed_value():
    check = workloads.cross_route("m")
    base = 0.2237723419782344
    assert check({"m": _moment_outcome([base, base * (1 + 1e-14), base])}).ok
    assert not check({"m": _moment_outcome([base, base * (1 + 1e-7), base])}).ok
    assert not check({"m": Outcome(2, {}, [])}).ok


def test_paired_and_reference_checks_reject_perturbed_values():
    def single(value):
        return Outcome(0, {}, [{"record": "row", "value": value}])

    pair = workloads.agrees_with("a", "b", 1e-6, relative=False)
    assert pair({"a": single(0.5), "b": single(0.5 + 1e-8)}).ok
    assert not pair({"a": single(0.5), "b": single(0.5 + 1e-5)}).ok
    assert not workloads._guarded(pair)({"a": single(0.5), "b": Outcome(2, {}, [])}).ok

    mc = workloads.mc_bracket("s", ref=0.9436793188954808)
    row = {"record": "row", "mean": 0.94380775, "stderr": 1.58e-4}
    assert mc({"s": Outcome(0, {}, [row])}).ok
    assert not mc({"s": Outcome(0, {}, [dict(row, mean=0.9436793 + 1e-3)])}).ok

    laplace = workloads.agrees_with("series", "mb", workloads.SERIES_VS_MB, relative=False)
    assert laplace({"series": single(0.9354494170), "mb": single(0.9354494162)}).ok
    assert not laplace({"series": single(0.9354494170), "mb": single(0.9355494162)}).ok


def test_cdf_grid_rejects_non_monotone_values():
    check = workloads.cdf_grid("g", (0.0,), 3)
    good = [{"value": v} for v in (0.1, 0.5, 0.9)]
    assert check({"g": Outcome(0, {}, good)}).ok
    assert not check({"g": Outcome(0, {}, [{"value": v} for v in (0.1, 0.5, 0.49)])}).ok
    assert not check({"g": Outcome(0, {}, [{"value": v} for v in (0.1, 0.5, 1.01)])}).ok


def test_verify_check_marks_only_known_defects():
    check = workloads.verify_passes("v")
    known = [{"suite": "airy", "check": "airy2-marginal", "status": "fail"},
             {"suite": "airy", "check": "unit-tail", "status": "pass"}]
    verdict = check({"v": Outcome(1, {}, known)})
    assert not verdict.ok and verdict.known_defect
    other = known + [{"suite": "airy", "check": "cdf-monotone", "status": "fail"}]
    verdict = check({"v": Outcome(1, {}, other)})
    assert not verdict.ok and not verdict.known_defect
    assert check({"v": Outcome(0, {}, known[1:])}).ok


def test_outcome_parses_cli_jsonl():
    text = ('{"record": "header", "version": "0.1.0", "nodes": 64}\n'
            '{"record": "row", "rep": "series", "value": 0.5}\n'
            '{"record": "note", "text": "not a result row"}\n')
    out = Outcome.parse(0, text)
    assert out.header["nodes"] == 64 and out.rows == [{"record": "row", "rep": "series",
                                                       "value": 0.5}]


def test_workloads_are_seeded():
    for name in ("moment-sweep", "high-order"):
        a = [j.argv for j in workloads.build(name, 3)]
        assert a == [j.argv for j in workloads.build(name, 3)]
        assert a != [j.argv for j in workloads.build(name, 4)]
        assert len({j.name for j in workloads.build(name, 3)}) == len(a)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
