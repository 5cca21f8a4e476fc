#!/usr/bin/env python3
"""The snapq benchmark: builds snapq_perfbench from this checkout's sources,
runs one workload, checks its outputs and prints every metric by name and
unit. The last line of standard output is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). The exit code is 0 only when every output check passed.

  python3 perfbench/run.py --workload lifecycle --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; everything built or written goes under
.bench_build/ there. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the benchmark's directory unchanged
import benchlib  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("lifecycle", "query_mix", "observed_lifecycle")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "snapq_perfbench")
EXPECTATIONS = os.path.join(HERE, "expectations.json")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)


def run_benchmark(args):
    out_dir = os.path.join(".bench_build", "runs")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, "%s-%d-%d.json" % (args.workload, args.seed, args.trace))
    subprocess.run([BINARY, "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--out", out], stdout=sys.stderr, check=True, timeout=170)
    with open(out) as f:
        return json.load(f)


def check_outputs(record, expectations):
    """Output checks on top of snapq_perfbench's own: every pass of the run must
    reproduce the first exactly, and the expectation seed must match the
    committed statistics. Returns (attempted, failed, messages)."""
    failures = list(record["checks"]["failures"])
    failed = record["checks"]["failed"]
    attempted = record["checks"]["attempted"]
    first = record["passes"][0]
    for index, p in enumerate(record["passes"][1:], start=1):
        attempted += 1
        if p["stats"] != first["stats"] or p["digest"] != first["digest"]:
            failed += 1
            failures.append("pass %d differs from pass 0 (digest %s vs %s)"
                            % (index, p["digest"], first["digest"]))
    if record["seed"] == expectations["seed"]:
        expected = expectations["workloads"].get(record["workload"])
        attempted += 1
        problems = (["no committed expectations for " + record["workload"]]
                    if expected is None else benchlib.compare_expectations(
                        expected, first["digest"], exact_outputs(first)))
        failed += 1 if problems else 0
        failures.extend(problems)
    return attempted, failed, failures


def exact_outputs(first_pass):
    """The simulated statistics and modelled metrics of a run's first pass:
    exact for a seed."""
    return dict(first_pass["stats"], **first_pass["modelled"])


def write_expectations(record):
    """Records pass 0's statistics and digest as the workload's expectations."""
    with open(EXPECTATIONS) as f:
        data = benchlib.load_expectations(f.read())
    if record["seed"] != data["seed"]:
        raise SystemExit("expectations are recorded for seed %d" % data["seed"])
    first = record["passes"][0]
    data["workloads"][record["workload"]] = {"digest": first["digest"],
                                             "stats": exact_outputs(first)}
    with open(EXPECTATIONS, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")
    log("recorded expectations for", record["workload"])


def trace_report(record, untraced, traced, layers, table, coverage):
    """Writes the spans, self times and per-layer metrics of a traced run to
    .bench_build/traces/<run id>.json and prints a summary."""
    e2e_untraced = benchlib.end_to_end(record, untraced)
    e2e_traced = benchlib.end_to_end(record, traced)
    print("per-layer metric                    value          unit        "
          "should move (workload)")
    for name, (unit, target, workload) in benchlib.PER_LAYER.items():
        print("  %-32s %14.6g %-11s %s (%s)" % (name, layers[name], unit, target, workload))
    print("span self times over %d traced pass(es), in ms:" % len(traced))
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_us"]):
        print("  %-20s calls %7d  total %10.3f  self %10.3f%s" % (
            name, row["calls"], row["total_us"] / 1e3, row["self_us"] / 1e3,
            "  (top level)" if row["top_level"] else ""))
    print("lifecycle phase spans cover %s of the lifecycle span"
          % ", ".join("%.4f" % c for c in coverage))
    print("tracing overhead (traced minus untraced passes):")
    for name, unit in benchlib.END_TO_END.items():
        print("  %-24s %+14.6g %s" % (name, e2e_traced[name] - e2e_untraced[name], unit))
    os.makedirs(os.path.join(".bench_build", "traces"), exist_ok=True)
    path = os.path.join(".bench_build", "traces", record["run_id"] + ".json")
    with open(path, "w") as f:
        json.dump({"run_id": record["run_id"], "workload": record["workload"],
                   "seed": record["seed"],
                   "spans": [dict(zip(("id", "parent", "pass", "name", "start_us",
                                       "end_us"), s)) for s in record["spans"]],
                   "self_times": table, "lifecycle_coverage": coverage,
                   "per_layer": {k: {"value": layers[k], "unit": u, "moves": t,
                                     "workload": w}
                                 for k, (u, t, w) in benchlib.PER_LAYER.items()},
                   "overhead": {k: e2e_traced[k] - e2e_untraced[k]
                                for k in benchlib.END_TO_END}}, f, indent=1)
    print("trace written to", path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expectations", action="store_true",
                        help="record this run's statistics as the committed "
                             "expectations of its workload (expectation seed only)")
    args = parser.parse_args()

    with open(EXPECTATIONS) as f:
        expectations = benchlib.load_expectations(f.read())
    try:
        build()
        record = run_benchmark(args)
    except (OSError, subprocess.SubprocessError) as error:
        log("benchmark did not run:", error)
        return 1
    if args.write_expectations:
        write_expectations(record)
        with open(EXPECTATIONS) as f:
            expectations = benchlib.load_expectations(f.read())

    attempted, failed, failures = check_outputs(record, expectations)
    for failure in failures:
        log("CHECK FAILED:", failure)
    untraced = [p for p in record["passes"] if not p["traced"]]
    traced = [p for p in record["passes"] if p["traced"]]
    first = record["passes"][0]
    print("workload %s, seed %d, %d nodes, %d passes, digest %s" % (
        record["workload"], record["seed"], record["nodes"], len(record["passes"]),
        first["digest"]))
    queries = sum(len(p["samples"]["query_us"]) for p in untraced)
    print("query samples %d; highest percentile with >= 10 samples beyond it: %s"
          % (queries, benchlib.highest_resolvable_percentile(queries)))
    print("error_rate %.6g (%d failed of %d attempted)"
          % (failed / attempted, failed, attempted))

    e2e = benchlib.end_to_end(record, untraced)
    for name, unit in benchlib.END_TO_END.items():
        print("%-24s %14.6g %s" % (name, e2e[name], unit))
    if args.trace:
        layers, table, coverage = benchlib.per_layer(record, traced, untraced)
        trace_report(record, untraced, traced, layers, table, coverage)
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, (u, _, _) in benchlib.PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u}
                   for k, u in benchlib.END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
