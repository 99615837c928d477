"""Turn the runner's raw JSON-lines records into the benchmark's metrics.

Everything here is a pure function of the parsed records, so it is tested
on its own (`python3 -m unittest discover -s perfbench`).
"""

import json
import math
import re
import statistics
from collections import defaultdict

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TAIL_BEYOND = 10
TAIL_MIN_PERCENTILE = 50


# --------------------------------------------------------------- statistics

def tail(values):
    """The highest whole percentile with at least ten samples beyond it.

    Nearest-rank: percentile p is the r-th smallest sample with
    r = ceil(p * n / 100), and n - r samples lie beyond it. Returns
    (percentile, value, n), or None when fewer than eleven samples exist.
    """
    xs = sorted(values)
    n = len(xs)
    p = (100 * (n - TAIL_BEYOND)) // n if n else 0
    if p < 1:
        return None
    r = math.ceil(p * n / 100)
    return p, xs[r - 1], n


def tail_metric(values):
    """`query_ms_tail` as (value, unit, better, detail). The value is None
    when the tail rule lands below the median, which is no tail at all.
    """
    t = tail(values)
    p = t[0] if t else None
    value = t[1] if t and p >= TAIL_MIN_PERCENTILE else None
    return value, "ms", "lower", {"percentile": p, "samples": len(values)}


def self_time(parent, children):
    """A span's duration minus the part of it that its children cover.

    `parent` and each child are (start, end) pairs; children are clipped to
    the parent and overlapping children are counted once.
    """
    start, end = parent
    covered = 0
    reach = start
    for s, e in sorted((max(s, start), min(e, end)) for s, e in children):
        if e <= reach:
            continue
        covered += e - max(s, reach)
        reach = e
    return (end - start) - covered


def overhead_pct(plain, traced):
    """Tracing overhead from rounds run both ways: the geometric mean of
    traced/untraced time per round, as a percentage over untraced.
    """
    plain_ms = {r["round"]: r["ms"] for r in plain}
    logs = [math.log(r["ms"] / plain_ms[r["round"]]) for r in traced]
    return 100.0 * (math.exp(statistics.fmean(logs)) - 1.0)


def rel_rmse(estimates, truth):
    return math.sqrt(statistics.fmean((e - truth) ** 2 for e in estimates)) / abs(truth)


# ------------------------------------------------------------------- records

def parse(lines):
    """Group raw records by their `type`."""
    out = defaultdict(list)
    for line in lines:
        line = line.strip()
        if line:
            rec = json.loads(line)
            out[rec["type"]].append(rec)
    if not out["end"]:
        raise ValueError("raw records are incomplete: no end record")
    return out


def failures(recs):
    """(attempted, failed, first errors) over every op of the run."""
    ops = recs["op"]
    errors = [f"{o['kind']}/{o['cell']}/{o['budget']} seed {o['seed']}: {o['error']}"
              for o in ops if o["error"] is not None]
    return len(ops), len(errors), errors[:5]


def _plain_rounds(recs):
    return [r for r in recs["round"] if not r["traced"]]


def setup_seconds(setup):
    """JVM start to session ready, plus the median data set-up, plus warm-up."""
    return setup["session_s"] + statistics.median(setup["reps_s"]) + setup["warmup_s"]


def end_to_end(recs):
    """The gated metrics, from the untraced rounds."""
    rounds = _plain_rounds(recs)
    calls = [c for o in recs["op"] if not o["traced"] for c in o["calls"]]
    return {
        "setup_s": setup_seconds(recs["setup"][0]),
        "round_ms_p50": statistics.median(r["ms"] for r in rounds),
        "oracle_calls_per_call": sum(calls) / len(calls),
    }


def _accuracy_ops(recs, min_rounds):
    """Untraced ops of the fixed leading rounds every run completes."""
    return [o for o in recs["op"]
            if not o["traced"] and o["round"] < min_rounds and o["error"] is None]


def _per_s(ops, kinds):
    mine = [o for o in ops if o["kind"] in kinds]
    return len(mine) / (sum(o["ms"] for o in mine) / 1000.0)


def _ci_stats(ops):
    cis = [o for o in ops if o["ci"] is not None]
    if not cis:
        return {}
    cover = statistics.fmean(1.0 if o["ci"][0] <= o["truth"][0] <= o["ci"][1] else 0.0 for o in cis)
    width = statistics.fmean((o["ci"][1] - o["ci"][0]) / abs(o["truth"][0]) for o in cis)
    return {"ci_coverage": (cover, "fraction", "higher"), "ci_width_rel": (width, "ratio", "lower")}


def _cells(ops, kinds):
    cells = defaultdict(list)
    for o in ops:
        if o["kind"] in kinds:
            cells[(o["kind"], o["cell"], o["budget"])].append(o)
    return cells.values()


def _worst_group_rmse(cell):
    """Max over the op's estimates (groups) of RMSE relative to truth."""
    return max(rel_rmse([o["est"][g] for o in cell], cell[0]["truth"][g])
               for g in range(len(cell[0]["truth"])))


# Throughput of each trial phase: report name -> op kinds.
PHASES = {"estimate_trials_per_s": {"estimate"}, "ci_trials_per_s": {"ci"},
          "groupby_trials_per_s": {"groupby-single", "groupby-multi"},
          "combine_trials_per_s": {"combine"}}
# Accuracy over cells of (kind, dataset, budget): report name -> op kinds.
ACCURACY = {"abae_rmse_rel": {"estimate"}, "groupby_max_rmse_rel": {"groupby-single", "groupby-multi"},
            "combine_rmse_rel": {"combine"}}


def report(recs, min_rounds):
    """The workload's own end-to-end metrics, for the ops it ran:
    name -> (value, unit, better[, detail]).
    """
    ops = [o for o in recs["op"] if not o["traced"]]
    acc = _accuracy_ops(recs, min_rounds)
    out = {"setup_s": (setup_seconds(recs["setup"][0]), "s", "lower"),
           "oracle_calls_per_op": (statistics.fmean(sum(o["calls"]) for o in ops), "calls", "lower")}
    queries = [o["ms"] for o in ops if o["kind"] == "query"]
    if queries:
        out["query_ms_p50"] = (statistics.median(queries), "ms", "lower")
        out["query_ms_tail"] = tail_metric(queries)
    for name, kinds in PHASES.items():
        if any(o["kind"] in kinds for o in ops):
            out[name] = (_per_s(ops, kinds), "trials/s", "higher")
    for name, kinds in ACCURACY.items():
        cells = _cells(acc, kinds)
        if cells:
            out[name] = (statistics.fmean(_worst_group_rmse(c) for c in cells), "ratio", "lower")
    out.update(_ci_stats(acc))
    return out


def op_ms_by_cell(recs):
    """Median untraced wall time of each kind of op, by kind/cell/budget."""
    cells = defaultdict(list)
    for o in recs["op"]:
        if not o["traced"]:
            cells[f"{o['kind']}/{o['cell']}/{o['budget']}"].append(o["ms"])
    return {k: statistics.median(v) for k, v in cells.items()}


# ----------------------------------------------------------------- per layer

SPAN_METRICS = {
    "sampling.next": "sampling.next_ms",
    "oracle.query": "oracle.query_ms",
    "core.abae_run": "core.abae_run_ms",
    "core.uniform_run": "core.uniform_run_ms",
    "core.bootstrap_ci": "core.bootstrap_ci_ms",
    "core.groupby_single": "core.groupby_single_ms",
    "core.groupby_multi": "core.groupby_multi_ms",
    "core.groupby_uniform": "core.groupby_uniform_ms",
    "core.combine": "core.combine_ms",
    "core.spark_run": "core.spark_run_ms",
    "core.sampled_collect": "core.sampled_collect_ms",
}
COUNT_METRICS = ["sampling.next_calls", "sampling.indices_drawn", "core.bootstrap_resamples", "oracle.calls"]
SPARK_PER_ROUND = ["spark.jobs", "spark.stages", "spark.tasks", "spark.task_ms_sum",
                   "spark.shuffle_write_bytes", "spark.shuffle_read_bytes", "spark.spill_bytes"]
SELF_TIME = {"core.abae_run": "core.abae_self_ms"}


def spans(recs):
    """Span rows as dicts: id, parent, round, name, start, end (ns)."""
    out = []
    for block in recs["spans"]:
        names = block["names"]
        for sid, parent, rnd, name, start, end in block["rows"]:
            out.append({"id": sid, "parent": parent, "round": rnd, "name": names[name],
                        "start": start, "end": end})
    return out


def span_ms_per_call(recs):
    """Mean duration of each span name over the traced rounds, per call."""
    calls = defaultdict(list)
    for s in spans(recs):
        calls[s["name"]].append((s["end"] - s["start"]) / 1e6)
    return {name: statistics.fmean(v) for name, v in calls.items()}


def per_layer(recs):
    """Per-layer metrics of the traced rounds, per round unless noted."""
    traced = [r for r in recs["round"] if r["traced"]]
    plain = _plain_rounds(recs)
    n = len(traced)
    out = {}
    setup = recs["setup"][0]
    for layer in ("data.generate_collect", "data.stratify"):
        out[layer + "_ms"] = statistics.median(rep.get(layer, 0.0) for rep in setup["reps_layers_ms"])
    out["data.rows"] = float(sum(d["rows"] for d in recs["dataset"]))
    probes = {p["name"]: statistics.median(p["ms"]) for p in recs["probe"]}
    for name in ("data.ntile_probe_ms", "ml.combine_scores_probe_ms"):
        out[name] = probes.get(name, 0.0)

    rows = spans(recs)
    children = defaultdict(list)
    for s in rows:
        children[s["parent"]].append((s["start"], s["end"]))
    totals = defaultdict(float)
    for s in rows:
        totals[s["name"]] += (s["end"] - s["start"]) / 1e6
        if s["name"] in SELF_TIME:
            totals[SELF_TIME[s["name"]]] += self_time((s["start"], s["end"]), children[s["id"]]) / 1e6
    for span, metric in SPAN_METRICS.items():
        out[metric] = totals[span] / n
    for metric in SELF_TIME.values():
        out[metric] = totals[metric] / n
    counts = defaultdict(float)
    for c in recs["count"]:
        counts[c["name"]] += c["value"]
    for metric in COUNT_METRICS:
        out[metric] = counts[metric] / n

    ops = [o for o in recs["op"] if o["traced"]]
    budget = sum(o["budget"] * len(o["calls"]) for o in ops)
    out["oracle.budget_used"] = counts["oracle.calls"] / budget if budget else 0.0

    # The listener saw the untraced and the traced pass of every round.
    spark = recs["spark"][0]["totals"] if recs["spark"] else {}
    for metric in SPARK_PER_ROUND:
        out[metric] = spark.get(metric, 0.0) / (n + len(plain))
    out["spark.task_ms_max"] = spark.get("spark.task_ms_max", 0.0)

    out["jvm.gc_ms"] = statistics.fmean(r["gc_ms"] for r in traced)
    out["jvm.gc_count"] = statistics.fmean(r["gc_count"] for r in traced)
    out["jvm.heap_used_peak_mb"] = max(r["heap_peak_mb"] for r in recs["round"])

    out["trace.overhead_pct"] = overhead_pct(plain, traced)
    top = sum((s["end"] - s["start"]) / 1e6 for s in rows if s["parent"] == 0)
    out["trace.coverage_pct"] = 100.0 * top / sum(r["ms"] for r in traced)
    return out


# -------------------------------------------------------------------- output

def validate_spec(spec):
    """Problems with BENCHMARK.json's metric declarations, as strings."""
    problems = []
    seen = set()
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for m in spec[section]:
            if set(m) != keys:
                problems.append(f"{section} {m.get('name')}: keys {sorted(m)}")
            if not NAME_RE.match(m.get("name", "")) or m["name"] in seen:
                problems.append(f"bad or repeated name {m.get('name')!r}")
            seen.add(m.get("name"))
            if not UNIT_RE.match(m.get("unit", "")):
                problems.append(f"{m['name']}: bad unit {m.get('unit')!r}")
            if m.get("better") not in ("higher", "lower"):
                problems.append(f"{m['name']}: bad direction {m.get('better')!r}")
            if section == "end_to_end" and not 0 < m.get("bound", 0) <= 0.25:
                problems.append(f"{m['name']}: bound {m.get('bound')} outside (0, 0.25]")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"]):
        problems.append("end_to_end lacks setup_s in s, lower")
    return problems


def result_line(spec, values, trace, attempted, failed, correct):
    """The last line the benchmark prints: exactly the declared metrics."""
    section = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        raise ValueError(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in section}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})
