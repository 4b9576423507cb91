"""One pass of a job list through ``asep_exact.cli.main``, in a fresh process.

Reads a JSON spec on stdin: ``root`` (checkout holding ``src/``), ``jobs``
(list of ``{"name", "argv"}``), ``trace`` (bool), ``spans_out`` (path for
the gzipped span log of a traced pass, or null).  Runs the jobs back to back
with the CLI's stdout and stderr captured, and prints one JSON object:
``setup_s`` (import of the CLI plus building its parser), ``wall_s`` (first
job start to last job end), ``peak_rss_mb``, per-job records and, when
traced, the per-layer metrics and the node counts the evaluators reported.
With ``{"setup_only": true}`` it stops after measuring ``setup_s``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _import_cli(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    from asep_exact import cli

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["--help"])
    setup_s = time.perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"asep_exact resolved to {cli.__file__}, outside {src}")
    return cli, setup_s


def run_pass(spec: dict) -> dict:
    cli, setup_s = _import_cli(spec["root"])
    if spec.get("setup_only"):
        return {"setup_s": setup_s}
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    records = []
    start = time.perf_counter()
    for index, job in enumerate(spec["jobs"]):
        if tracer is not None:
            tracer.job = index
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(job["argv"]))
            except Exception:  # a crashed job is a failed job; keep the pass going
                traceback.print_exc()
                rc = -1
        records.append({"name": job["name"], "rc": rc, "seconds": time.perf_counter() - t0,
                        "stdout": out.getvalue(), "stderr": err.getvalue()[-4000:]})
    wall_s = time.perf_counter() - start
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": records,
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer, wall_s)
        result["node_counts"] = tracer.node_counts
        if spec.get("spans_out"):
            tracer.write(spec["spans_out"])
    return result


def main() -> int:
    spec = json.load(sys.stdin)
    result = run_pass(spec)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
