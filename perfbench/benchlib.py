"""Helpers for perfbench/run.py: percentiles, span self times, the
expectation file, and the reduction of a raw snapq_perfbench record into
the benchmark's end-to-end and per-layer metrics."""

import json
import math
import statistics
from fractions import Fraction

# End-to-end metrics: name -> unit. Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "lifecycle_s": "s",
    "peak_rss_mb": "MB",
    "rss_per_node_kb": "KB/node",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "queries_per_s": "1/s",
    "advance_p50_ms": "ms",
    "snapshot_participation": "ratio",
    "snapshot_error": "ratio",
}

# Per-layer metrics: name -> (unit, end-to-end metric it should move, the
# workload it should move it on).
PER_LAYER = {
    "api.build_s": ("s", "setup_s", "lifecycle, query_mix"),
    "net.build_s": ("s", "setup_s", "all"),
    "net.mean_degree": ("links/node", "setup_s", "all"),
    "data.feed_s": ("s", "lifecycle_s", "lifecycle (about 2%)"),
    "data.feed_us_per_tick": ("us", "lifecycle_s", "lifecycle (about 2%)"),
    "sim.train_s": ("s", "lifecycle_s", "lifecycle; no change in query_p50_us on query_mix"),
    "sim.sent": ("count", "lifecycle_s", "lifecycle"),
    "sim.delivered": ("count", "lifecycle_s", "lifecycle"),
    "sim.snooped": ("count", "lifecycle_s", "lifecycle"),
    "sim.lost": ("count", "lifecycle_s", "observed_lifecycle"),
    "sim.fanout": ("rx/tx", "lifecycle_s", "lifecycle"),
    "sim.deliveries_per_s": ("1/s", "lifecycle_s", "lifecycle"),
    "model.cache_ops": ("count", "lifecycle_s", "lifecycle"),
    "model.fits": ("count", "lifecycle_s, rss_per_node_kb", "lifecycle"),
    "model.fits_per_cache_op": ("ratio", "lifecycle_s, rss_per_node_kb", "lifecycle"),
    "snapshot.elect_s": ("s", "lifecycle_s", "lifecycle"),
    "snapshot.elect_msgs_per_node": ("msgs/node", "lifecycle_s", "lifecycle"),
    "snapshot.elect_msgs_per_node_max": ("msgs/node", "lifecycle_s", "lifecycle"),
    "snapshot.active_fraction": ("ratio", "snapshot_participation", "query_mix"),
    "snapshot.maint_round_ms": ("ms", "advance_p50_ms", "query_mix; lifecycle_s on lifecycle"),
    "snapshot.spurious": ("count", "advance_p50_ms", "query_mix"),
    "query.parse_us": ("us", "query_p50_us", "query_mix; no change on lifecycle"),
    "query.route_us": ("us", "query_p50_us, query_p99_us", "query_mix; no change on lifecycle"),
    "query.exec_snapshot_us": ("us", "query_p50_us, queries_per_s", "query_mix; no change on lifecycle"),
    "query.exec_regular_us": ("us", "query_p99_us, queries_per_s", "query_mix; no change on lifecycle"),
    "query.participants_snapshot": ("nodes", "snapshot_participation", "query_mix"),
    "query.participants_regular": ("nodes", "snapshot_participation", "query_mix"),
    "query.coverage_min": ("ratio", "snapshot_error", "query_mix"),
    "obs.telemetry_sample_ms": ("ms", "lifecycle_s", "observed_lifecycle; no change on lifecycle"),
    "obs.topo_analyze_ms": ("ms", "lifecycle_s", "observed_lifecycle; no change on lifecycle"),
    "obs.hook_overhead": ("ratio", "lifecycle_s", "observed_lifecycle; no change on lifecycle"),
    "obs.dropped_spans": ("count", "lifecycle_s", "observed_lifecycle"),
    "mem.kb_per_node.build": ("KB/node", "rss_per_node_kb", "all"),
    "mem.kb_per_node.train": ("KB/node", "rss_per_node_kb", "all"),
    "mem.kb_per_node.elect": ("KB/node", "rss_per_node_kb, peak_rss_mb", "all"),
    "trace.overhead": ("ratio", "none (the traced run's own cost)", "all"),
}

def _rank(n, pct):
    """1-based nearest rank of percentile `pct` among n samples, computed
    exactly (99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def percentile(values, pct):
    """Nearest-rank percentile of `values` (pct in [0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), pct) - 1]


def samples_beyond(n, pct):
    """Samples strictly above the nearest-rank `pct` percentile of n."""
    return n - _rank(n, pct)


def highest_resolvable_percentile(n, candidates=(99.9, 99.0, 95.0, 90.0, 50.0),
                                  beyond=10):
    """The highest candidate percentile with at least `beyond` of the n
    samples above it, or None when even the lowest has too few."""
    for pct in sorted(candidates, reverse=True):
        if samples_beyond(n, pct) >= beyond:
            return pct
    return None


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover (overlapping children count once).

    `spans` is a list of (id, parent, pass, name, start_us, end_us); returns
    {id: self_us}."""
    children = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)
    result = {}
    for span_id, _, _, _, start, end in spans:
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span_id, []), key=lambda s: s[4]):
            lo = max(child[4], cursor)
            hi = min(child[5], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span_id] = (end - start) - covered
    return result


def load_expectations(text):
    """Parses the expectation file: {"seed": int, "held_out_seed": int,
    "workloads": {name: {"digest": hex str, "stats": {key: number}}}}.
    Raises ValueError on any other shape."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("expectations: top level must be an object")
    for key in ("seed", "held_out_seed"):
        if not isinstance(data.get(key), int) or isinstance(data.get(key), bool):
            raise ValueError("expectations: %r must be an integer" % key)
    workloads = data.get("workloads")
    if not isinstance(workloads, dict):
        raise ValueError("expectations: 'workloads' must be an object")
    for name, entry in workloads.items():
        if not isinstance(entry, dict) or set(entry) != {"digest", "stats"}:
            raise ValueError("expectations: %s needs exactly digest and stats" % name)
        if not isinstance(entry["digest"], str):
            raise ValueError("expectations: %s digest must be a string" % name)
        stats = entry["stats"]
        if not isinstance(stats, dict) or not stats:
            raise ValueError("expectations: %s stats must be a non-empty object" % name)
        for key, value in stats.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError("expectations: %s.%s must be a number" % (name, key))
    return data


def compare_expectations(expected, digest, stats):
    """Mismatches between one workload's expected entry and a pass."""
    problems = []
    if expected["digest"] != digest:
        problems.append("digest %s, expected %s" % (digest, expected["digest"]))
    for key, want in sorted(expected["stats"].items()):
        got = stats.get(key)
        if got != want:
            problems.append("%s = %r, expected %r" % (key, got, want))
    for key in sorted(set(stats) - set(expected["stats"])):
        problems.append("%s not in expectations" % key)
    return problems


def _median(values):
    return statistics.median(values) if values else 0.0


def _pooled(passes, name):
    out = []
    for p in passes:
        out.extend(p["samples"].get(name, []))
    return out


def end_to_end(record, passes):
    """The end-to-end metrics over `passes` (untraced passes of a run)."""
    first = record["passes"][0]
    queries = _pooled(passes, "query_us")
    return {
        "setup_s": _median([p["values"]["setup_s"] for p in passes]),
        "lifecycle_s": _median([p["values"]["lifecycle_s"] for p in passes]),
        # Memory is read in the run's first pass, on a fresh heap.
        "peak_rss_mb": first["values"]["peak_rss_kb"] / 1024.0,
        "rss_per_node_kb": first["values"]["mem.kb_per_node.train"],
        "query_p50_us": percentile(queries, 50),
        "query_p99_us": percentile(queries, 99),
        "queries_per_s": _median([p["values"]["queries_per_s"] for p in passes]),
        "advance_p50_ms": percentile(_pooled(passes, "advance_ms"), 50),
        "snapshot_participation": first["modelled"]["snapshot_participation"],
        "snapshot_error": first["modelled"]["snapshot_error"],
    }


def span_table(record, traced_ids):
    """Per span name over the traced passes: calls, total and self time
    (microseconds, summed), and whether the name occurs top-level."""
    spans = [s for s in record["spans"] if s[2] in traced_ids]
    selfs = self_times(spans)
    table = {}
    for span in spans:
        row = table.setdefault(span[3], {"calls": 0, "total_us": 0.0,
                                         "self_us": 0.0, "top_level": False})
        row["calls"] += 1
        row["total_us"] += span[5] - span[4]
        row["self_us"] += selfs[span[0]]
        row["top_level"] = row["top_level"] or span[1] == -1
    return spans, selfs, table


def per_layer(record, traced, untraced):
    """The per-layer metrics over the traced passes, plus the span table
    and the lifecycle coverage of the top-level spans."""
    traced_ids = {i for i, p in enumerate(record["passes"]) if p["traced"]}
    spans, selfs, table = span_table(record, traced_ids)

    def values(name):
        return [p["values"][name] for p in traced if name in p["values"]]

    def med(name):
        return _median(values(name))

    def pooled_p50(name):
        samples = _pooled(traced, name)
        return percentile(samples, 50) if samples else 0.0

    # sim.train_s is the self time of the training spans (data feed out).
    train_self = [selfs[s[0]] / 1e6 for s in spans if s[3] == "train"]
    train_s = _median(train_self)
    first = record["passes"][0]["values"]
    stats = traced[0]["stats"]
    out = {
        "api.build_s": med("api.build_s"),
        "net.build_s": med("net.build_s"),
        "net.mean_degree": med("net.mean_degree"),
        "data.feed_s": med("data.feed_s"),
        "data.feed_us_per_tick": _median(
            [p["values"]["data.feed_s"] / p["values"]["data.feed_ticks"] * 1e6
             for p in traced]),
        "sim.train_s": train_s,
        "sim.sent": stats["pass.sent"],
        "sim.delivered": stats["pass.delivered"],
        "sim.snooped": stats["pass.snooped"],
        "sim.lost": stats["pass.lost"],
        "sim.fanout": (stats["pass.delivered"] + stats["pass.snooped"])
        / stats["pass.sent"],
        "sim.deliveries_per_s": med("sim.train_deliveries") / train_s
        if train_s > 0 else 0.0,
        "model.cache_ops": med("model.cache_ops"),
        "model.fits": med("model.fits"),
        "model.fits_per_cache_op": med("model.fits") / med("model.cache_ops"),
        "snapshot.elect_s": med("snapshot.elect_s"),
        "snapshot.elect_msgs_per_node": med("snapshot.elect_msgs_per_node"),
        "snapshot.elect_msgs_per_node_max": med("snapshot.elect_msgs_per_node_max"),
        "snapshot.active_fraction": med("snapshot.active_fraction"),
        "snapshot.maint_round_ms": pooled_p50("advance_ms"),
        "snapshot.spurious": med("snapshot.spurious"),
        "query.parse_us": pooled_p50("query.parse_us"),
        "query.route_us": pooled_p50("query.route_us"),
        "query.exec_snapshot_us": pooled_p50("query.exec_snapshot_us"),
        "query.exec_regular_us": pooled_p50("query.exec_regular_us"),
        "query.participants_snapshot": _median(_pooled(traced, "query.participants_snapshot")),
        "query.participants_regular": _median(_pooled(traced, "query.participants_regular")),
        "query.coverage_min": min(_pooled(traced, "query.coverage") or [1.0]),
        "obs.telemetry_sample_ms": pooled_p50("obs.telemetry_sample_ms"),
        "obs.topo_analyze_ms": pooled_p50("obs.topo_analyze_ms"),
        "obs.hook_overhead": med("obs.hook_overhead"),
        "obs.dropped_spans": med("obs.dropped_spans"),
        "mem.kb_per_node.build": first["mem.kb_per_node.build"],
        "mem.kb_per_node.train": first["mem.kb_per_node.train"],
        "mem.kb_per_node.elect": first["mem.kb_per_node.elect"],
    }

    def work(p):
        return p["values"]["lifecycle_s"] + sum(p["samples"]["query_us"]) / 1e6

    out["trace.overhead"] = (_median([work(p) for p in traced])
                             / _median([work(p) for p in untraced]) - 1.0)

    # The share of each lifecycle span its phase spans (train, elect,
    # rounds, telemetry samples) account for.
    coverage = [1.0 - selfs[s[0]] / (s[5] - s[4])
                for s in spans if s[3] == "lifecycle"]
    return out, table, coverage
