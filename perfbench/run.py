#!/usr/bin/env python3
"""Benchmark entry point: build, run one workload, print its metrics.

    python3 perfbench/run.py --workload trials --seed 1 --seconds 25 --trace 0

Run from the repository root. The program and the JVM runner are compiled
on first use (see build.py). The run's last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics of BENCHMARK.json with `--trace 0`, its per-layer metrics with
`--trace 1`. The lines before it are the run record and, untraced, the
per-workload report. Exits non-zero, printing no result, when the build or
the run cannot complete.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import build  # noqa: E402
import metrics  # noqa: E402

WORKLOADS = ["query-spark", "trials"]
HEAP = "3g"
RUN_TIMEOUT_S = 170
JVM_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "sun.nio.ch",
    "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def git_sha():
    """HEAD of this checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        return res.stdout.strip() if res.returncode == 0 else None
    except OSError:
        return None


def run_jvm(classes, args, threads):
    """Run the JVM runner; return its scratch directory and raw records file."""
    jars = build.spark_jars()
    run_dir = ROOT / build.BUILD_DIR / "runs" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "tmp").mkdir(parents=True)
    (run_dir / "local").mkdir()
    raw = run_dir / "raw.jsonl"
    cmd = [build.java(), f"-Xmx{HEAP}", f"-Xms{HEAP}", "-XX:-UsePerfData", *JVM_OPENS,
           f"-Djava.io.tmpdir={run_dir / 'tmp'}",
           f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}",
           "-cp", f"{classes}:{jars}/*", "perfbench.Main",
           args.workload, str(args.seed), str(args.seconds), str(args.trace), str(raw),
           str(threads), str(run_dir / "local")]
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(run_dir / "local"), SPARK_LOCAL_IP="127.0.0.1")
    with open(run_dir / "jvm.log", "w") as log:
        proc = subprocess.Popen(cmd, cwd=run_dir, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "timeout"
    if code != 0:
        tail = (run_dir / "jvm.log").read_text()[-3000:]
        raise RuntimeError(f"runner exited with {code}:\n{tail}")
    return run_dir, raw


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = metrics.validate_spec(spec)
    if problems:
        print("perfbench: BENCHMARK.json: " + "; ".join(problems), file=sys.stderr)
        return 2
    try:
        classes, digest = build.build(ROOT)
    except build.BuildError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    threads = min(4, os.cpu_count() or 1)
    try:
        run_dir, raw = run_jvm(classes, args, threads)
        recs = metrics.parse(raw.read_text().splitlines())
    except (RuntimeError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    attempted, failed, errors = metrics.failures(recs)
    jvm = recs["jvm"][0]
    measured = recs["measured"][0]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "loop": "closed, one client", "nproc": os.cpu_count(),
        "jvm_processors": jvm["available_processors"], "xmx": HEAP,
        "java_version": jvm["java_version"], "max_heap_mb": jvm["max_heap_mb"],
        "git_sha": git_sha(), "source_sha256": digest,
        "spark_version": jvm["spark_version"], "spark_master": jvm["spark_master"],
        "spark_default_parallelism": jvm["spark_default_parallelism"],
        "spark_shuffle_partitions": jvm["spark_shuffle_partitions"],
        "datasets": [{k: d[k] for k in ("name", "rows", "truth", "positive_rate")} for d in recs["dataset"]],
        "setup": {k: recs["setup"][0][k] for k in ("session_s", "reps_s", "warmup_s")},
        "rounds": measured["rounds"], "measured_s": measured["seconds"],
        "attempted": attempted, "failed": failed, "first_failures": errors,
        "op_ms_p50_by_cell": metrics.op_ms_by_cell(recs),
    }
    if args.trace:
        record["span_ms_per_call"] = metrics.span_ms_per_call(recs)
    print(json.dumps({"run_record": record}))
    if args.trace:
        values = metrics.per_layer(recs)
    else:
        rep = metrics.report(recs, measured["min_rounds"])
        print(json.dumps({"report": {name: dict(zip(("value", "unit", "better", "detail"), v))
                                     for name, v in rep.items()}}))
        values = metrics.end_to_end(recs)
    print(metrics.result_line(spec, values, args.trace, attempted, failed, failed == 0))
    shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
