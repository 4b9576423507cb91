"""Benchmark of the asep-exact CLI: time to a checked answer, end to end and per layer.

Usage (from the repository root)::

    python3 bench/run.py --workload moment-sweep --seed 0 --seconds 42 --trace 0
    python3 bench/run.py --workload all

One client runs the workload's job list through ``asep_exact.cli.main``
back to back (closed loop), one fresh worker process per pass, as many passes
as fit in ``--seconds`` (at least one).  Every job of every pass is checked
against an independent route.  ``--trace 0`` reports the end-to-end metrics
(tracing off); ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a full record
of the run (environment, every job's values and verdicts, node counts, the
span log of traced passes) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

# Single-threaded baseline: no row pool in the CLI, no BLAS/OpenMP threads.
THREAD_PINS = {
    "ASEP_EXACT_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_PROBES = 3
PASS_TIMEOUT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "peak_rss_mb": "MB",
}


def spawn_worker(spec: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(spec), capture_output=True, text=True,
        cwd=ROOT, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def count_failures(verdicts) -> tuple[int, int, int]:
    """(attempted, failed, failed by a known defect) over a list of verdicts."""
    failed = [v for v in verdicts if not v.ok]
    return len(verdicts), len(failed), sum(v.known_defect for v in failed)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    jobs = workloads.build(workload, seed)
    job_specs = [{"name": j.name, "argv": list(j.argv)} for j in jobs]
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"

    setup = [spawn_worker({"root": str(ROOT), "setup_only": True})["setup_s"]
             for _ in range(SETUP_PROBES)]
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        spans_out = str(OUT_DIR / f"{tag}-pass{len(passes)}-spans.jsonl.gz") if traced else None
        result = spawn_worker({"root": str(ROOT), "jobs": job_specs, "trace": traced,
                               "spans_out": spans_out})
        result["traced"] = traced
        outputs = {r["name"]: workloads.Outcome.parse(r["rc"], r["stdout"]) for r in result["jobs"]}
        result["verdicts"] = workloads.judge(jobs, outputs)
        result["outputs"] = outputs
        passes.append(result)
        setup.append(result["setup_s"])
        elapsed = time.perf_counter() - start
        if len(passes) >= (2 if trace else 1) and elapsed * (1 + 1 / len(passes)) > seconds:
            break

    verdicts = [v for p in passes for v in p["verdicts"].values()]
    attempted, failed, known = count_failures(verdicts)
    plain = [p for p in passes if not p["traced"]]
    wall = statistics.median(p["wall_s"] for p in plain)
    end_to_end = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "job_p50_s": statistics.median(
            statistics.median(j["seconds"] for j in p["jobs"]) for p in plain),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    layers = {}
    if trace:
        traced = [p for p in passes if p["traced"]]
        layers = {k: statistics.median(p["layers"][k] for p in traced)
                  for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = layers["trace.wall_s"] - wall

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "setup_samples_s": setup,
        "end_to_end": end_to_end, "per_layer": layers,
        "attempted": attempted, "failed": failed, "failed_known_defect": known,
        "fail_frac": failed / attempted,
        "passes": [pass_record(jobs, p, first=i == 0) for i, p in enumerate(passes)],
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def pass_record(jobs, result: dict, first: bool) -> dict:
    """Per-job timing and verdict; the printed values once, from the first pass."""
    rows = []
    for job, raw in zip(jobs, result["jobs"]):
        verdict = result["verdicts"][job.name]
        entry = {"name": job.name, "rc": raw["rc"], "seconds": raw["seconds"],
                 "ok": verdict.ok, "check": verdict.detail,
                 "known_defect": verdict.known_defect}
        if first:
            out = result["outputs"][job.name]
            entry["argv"] = list(job.argv)
            entry["header"] = out.header
            entry["rows"] = [{k: v for k, v in r.items() if k not in ("record", "runtime")}
                             for r in out.rows]
        if not verdict.ok:
            entry["stderr"] = raw["stderr"]
        rows.append(entry)
    out = {"traced": result["traced"], "wall_s": result["wall_s"], "setup_s": result["setup_s"],
           "peak_rss_mb": result["peak_rss_mb"], "jobs": rows}
    if result["traced"]:
        out["layers"] = result["layers"]
        out["node_counts"] = result["node_counts"]
    return out


def environment() -> dict:
    import numpy
    import scipy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "git_sha": sha, "src_lines": src_lines, "nproc": os.cpu_count(),
        "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in THREAD_PINS},
    }


def summary(record: dict) -> dict:
    """The result line: correct, attempted, failed and the metrics of this mode."""
    if record["trace"]:
        metrics = {k: {"value": record["per_layer"][k], "unit": unit}
                   for k, (unit, _) in spans.LAYER_METRICS.items()}
    else:
        metrics = {k: {"value": record["end_to_end"][k], "unit": unit}
                   for k, unit in END_TO_END.items()}
    return {"correct": record["failed"] == record["failed_known_defect"],
            "attempted": record["attempted"], "failed": record["failed"], "metrics": metrics}


def describe(record: dict) -> list[str]:
    n_jobs = len(record["passes"][0]["jobs"])
    plain = sum(not p["traced"] for p in record["passes"])
    lines = [f"{record['workload']} seed={record['seed']}: {n_jobs} jobs/pass, "
             f"{len(record['passes'])} passes ({plain} untraced)"]
    for key, unit in END_TO_END.items():
        lines.append(f"  {key:<13} {record['end_to_end'][key]:.6g} {unit}")
    lines.append(f"  {'fail_frac':<13} {record['fail_frac']:.6g} "
                 f"({record['failed']}/{record['attempted']}, "
                 f"{record['failed_known_defect']} by known defects)")
    for job in record["passes"][0]["jobs"]:
        if not job["ok"]:
            lines.append(f"  FAILED {job['name']}: {job['check']}")
    for key, value in record["per_layer"].items():
        lines.append(f"  {key:<32} {value:.6g}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "asep_exact" / "cli.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'asep_exact'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(ROOT / "src"))

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(describe(record)), flush=True)
        results[name] = summary(record)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
