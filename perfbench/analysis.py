"""Arithmetic of the benchmark: percentiles and the tail rule, span self
times and the per-operation span-tree check, and the per-layer metrics of a
traced run. Pure functions over the workload process's result file and span
dump, so they are tested on their own (test_analysis.py).
"""

import csv
import json
import os
from collections import defaultdict, namedtuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Tail percentile of each workload's op latency, fixed where it is steady
# and has at least MIN_BEYOND samples beyond it at the benchmark's run length.
TAIL_PERCENTILE = {"batch_freeboard": 75.0, "serve_zipf": 99.0, "train_dist": 75.0}
MIN_BEYOND = 10

# Per-layer metric that reports the mean unaccounted time (the root's own
# self time) of the operations with this root span.
UNACCOUNTED = {
    "batch.job": "mapred.unaccounted_ms",
    "serve.replay": "serve.unaccounted_ms",
    "dist.step": "dist.unaccounted_ms",
}

Span = namedtuple("Span", "id parent op thread start_ns end_ns name tags")


def percentile(values, p):
    """Linear-interpolated percentile (p in [0, 100]) of a non-empty list."""
    if not values:
        raise ValueError("percentile of no samples")
    v = sorted(values)
    pos = (len(v) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def samples_beyond(values, threshold):
    return sum(1 for x in values if x > threshold)


def tail(values, p):
    """(value, samples beyond it) of the p-th percentile. Raises when fewer
    than MIN_BEYOND samples lie beyond it: such a tail is not measured."""
    value = percentile(values, p)
    beyond = samples_beyond(values, value)
    if beyond < MIN_BEYOND:
        raise ValueError(
            "p%g of %d samples has %d beyond it (< %d): run longer"
            % (p, len(values), beyond, MIN_BEYOND))
    return value, beyond


def median(values):
    return percentile(values, 50.0)


def mean(values):
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

def load_spans(path):
    spans = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            tags = {}
            for kv in filter(None, row["tags"].split(";")):
                k, _, v = kv.partition("=")
                tags[k] = v
            spans.append(Span(int(row["id"]), int(row["parent"]), int(row["op"]),
                              int(row["thread"]), int(row["start_ns"]), int(row["end_ns"]),
                              row["name"], tags))
    return spans


def dur_ms(span):
    return (span.end_ns - span.start_ns) * 1e-6


def _union_ns(intervals):
    total = 0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans):
    """Self time (ms) of every span: its duration minus the part of that
    interval its children cover. Children on other threads count like any
    other child; overlapping children are counted once. Only spans in
    `spans` count as children, so passing one thread's spans gives self
    times within that thread."""
    children = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        clipped = [(max(c.start_ns, s.start_ns), min(c.end_ns, s.end_ns))
                   for c in children[s.id]]
        covered = _union_ns([(a, b) for a, b in clipped if b > a])
        out[s.id] = (s.end_ns - s.start_ns - covered) * 1e-6
    return out


def check_op(op_spans):
    """Check one operation's span tree and return (root, unaccounted ms).

    The tree must have exactly one root; every other span's parent must be
    a span of the same operation, reached without a cycle, and every span
    must lie inside its parent's interval. On each thread the operation's
    spans must nest: their self times within the thread add up to the time
    the thread spent inside them, which fails when two spans of one thread
    overlap without one containing the other. On the root's thread that is
    the identity "layer self times + unaccounted = end-to-end time", with
    the root's own self time as unaccounted. Raises ValueError when any of
    this does not hold."""
    roots = [s for s in op_spans if s.parent == 0]
    if len(roots) != 1:
        raise ValueError("operation %s has %d root spans" % (
            op_spans[0].op if op_spans else "?", len(roots)))
    root = roots[0]
    by_id = {s.id: s for s in op_spans}
    for s in op_spans:
        if s.end_ns < s.start_ns:
            raise ValueError("span %d (%s) ends before it starts" % (s.id, s.name))
        if not s.parent:
            continue
        parent = by_id.get(s.parent)
        if parent is None:
            raise ValueError("span %d (%s) of op %d: parent %d is not in the operation"
                             % (s.id, s.name, s.op, s.parent))
        if s.start_ns < parent.start_ns or s.end_ns > parent.end_ns:
            raise ValueError("span %d (%s) of op %d lies outside its parent %d (%s)"
                             % (s.id, s.name, s.op, parent.id, parent.name))
    # With one root and every parent in the operation, only a cycle keeps a
    # parent chain from reaching the root.
    for s in op_spans:
        node, chain = s, set()
        while node.parent:
            if node.id in chain:
                raise ValueError("span %d (%s) of op %d: cycle in its parent chain"
                                 % (s.id, s.name, s.op))
            chain.add(node.id)
            node = by_id[node.parent]

    by_thread = defaultdict(list)
    for s in op_spans:
        by_thread[s.thread].append(s)
    unaccounted = None
    for thread, spans in by_thread.items():
        own = self_times(spans)
        inside = _union_ns([(s.start_ns, s.end_ns) for s in spans]) * 1e-6
        total = sum(own.values())
        if abs(total - inside) > 1e-6 * max(1.0, inside):
            raise ValueError("op %d, thread %d: self times add up to %.6f ms but the thread "
                             "spent %.6f ms in spans (spans overlap without nesting)"
                             % (root.op, thread, total, inside))
        if thread == root.thread:
            unaccounted = own[root.id]
    return root, unaccounted


def ops_of(spans):
    ops = defaultdict(list)
    for s in spans:
        ops[s.op].append(s)
    return ops


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(result):
    """The five end-to-end metrics of an untraced run, plus a description of
    the tail (percentile and sample counts) for the log."""
    ops = result["op_ms"]
    p = TAIL_PERCENTILE[result["workload"]]
    tail_value, beyond = tail(ops, p)
    metrics = {
        "throughput_per_s": result["work"] / result["window_s"],
        "latency_p50_ms": median(ops),
        "latency_tail_ms": tail_value,
        "setup_s": median(result["setup_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    note = "tail = p%g of %d ops (%d beyond); throughput in %s/s" % (
        p, len(ops), beyond, result["work_unit"])
    return metrics, note


def load_benchmark(path=None):
    """BENCHMARK.json: the workloads and the metrics with their units and
    better direction."""
    with open(path or os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_targets(path=None):
    """layers.json: for each per-layer metric, the workloads whose traced run
    measures it and the end-to-end metrics it should move."""
    with open(path or os.path.join(HERE, "layers.json")) as f:
        return json.load(f)["per_layer"]


def per_layer(result, spans, datagen_s, names):
    """The per-layer metrics `names` (BENCHMARK.json's per_layer list) of one
    traced run. Layers the workload does not exercise report 0 (they did no
    work). Raises when an operation's spans fail check_op()."""
    counters = result.get("counters", {})
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(dur_ms(s))

    out = {}
    for name in names:
        span_name = name[:-3] if name.endswith("_ms") else None
        out[name] = mean(by_name.get(span_name, [])) if span_name else 0.0

    # Every operation's span tree is checked; its root's self time is the
    # unaccounted part of its end-to-end time.
    unaccounted = defaultdict(list)
    for op_spans in ops_of(spans).values():
        root, rest = check_op(op_spans)
        unaccounted[root.name].append(rest)
    for root_name, metric in UNACCOUNTED.items():
        out[metric] = mean(unaccounted.get(root_name, []))

    # mapred skew: worker time the reduce barrier left idle, per job.
    workers = counters.get("mapred.workers", 0)
    idle = []
    tasks = defaultdict(float)
    for s in spans:
        if s.name == "mapred.reduce_task":
            tasks[s.parent] += dur_ms(s)
    for s in spans:
        if s.name == "mapred.reduce":
            idle.append(workers * dur_ms(s) - tasks[s.id])
    out["mapred.reduce_idle_ms"] = mean(idle)

    segments = counters.get("resample.segments", 0)
    out["label.labeled_ratio"] = counters.get("label.labeled", 0) / segments if segments else 0.0

    calls = counters.get("nn.classify_calls", 0)
    out["nn.windows"] = counters.get("nn.windows", 0) / calls if calls else 0.0

    # dist: traffic per step and per-step compute skew between ranks.
    steps = counters.get("dist.steps", 0)
    out["dist.allreduce_floats_per_step"] = (
        counters.get("dist.allreduce_floats", 0) / steps if steps else 0.0)
    compute = defaultdict(dict)
    roots = {s.id: s for s in spans if s.name == "dist.step"}
    for s in spans:
        if s.name in ("nn.forward", "nn.loss", "nn.backward") and s.parent in roots:
            root = roots[s.parent]
            key = root.tags.get("step")
            rank = root.tags.get("rank")
            compute[key][rank] = compute[key].get(rank, 0.0) + dur_ms(s)
    skews = [(max(c.values()) - min(c.values())) / max(c.values())
             for c in compute.values() if len(c) > 1 and max(c.values()) > 0]
    out["dist.rank_skew"] = median(skews) if skews else 0.0

    # serve: hit ratios, per-source latency and queue wait of the closed loop.
    requests = [s for s in spans if s.name == "serve.request"]
    n = len(requests)
    by_source = defaultdict(list)
    for s in requests:
        by_source[s.tags.get("source")].append(dur_ms(s))
    resumed = counters.get("serve.resumed_builds", 0)
    built = len(by_source["build"])
    out["serve.ram_hit_ratio"] = len(by_source["ram"]) / n if n else 0.0
    out["serve.disk_hit_ratio"] = len(by_source["disk"]) / n if n else 0.0
    out["serve.resumed_build_ratio"] = resumed / n if n else 0.0
    out["serve.full_build_ratio"] = max(built - resumed, 0) / n if n else 0.0
    for source in ("ram", "disk", "build"):
        out["serve.%s_ms" % source] = median(by_source[source]) if by_source[source] else 0.0
    waits = [float(s.tags["queue_wait_ms"]) for s in requests if s.tags.get("source") != "ram"]
    out["serve.queue_wait_ms"] = mean(waits)

    # Counts beside the times, totals over the traced window.
    out["count.ops"] = float(len(result["op_ms"]))
    out["count.photons"] = counters.get("atl03.photons", 0.0)
    out["count.segments"] = float(segments)
    out["count.freeboard_points"] = counters.get("freeboard.points", 0.0)
    out["count.requests_ram"] = float(len(by_source["ram"]))
    out["count.requests_disk"] = float(len(by_source["disk"]))
    out["count.requests_build"] = float(built)
    out["count.steps"] = float(steps)
    out["count.samples"] = counters.get("dist.samples", 0.0)

    untraced = result.get("untraced_op_ms") or []
    traced = result["op_ms"]
    out["trace.overhead_pct"] = (
        100.0 * (median(traced) - median(untraced)) / median(untraced)
        if untraced and traced else 0.0)
    out["datagen_s"] = datagen_s

    missing = set(names) - set(out)
    extra = set(out) - set(names)
    if missing or extra:
        raise ValueError("per-layer metrics out of sync with BENCHMARK.json: missing %s, extra %s"
                         % (sorted(missing), sorted(extra)))
    return out
