#!/usr/bin/env python3
"""End-to-end benchmark of the adaptive extraction pipeline.

Builds perfbench_e2e (the repository's src/ libraries plus
perfbench/e2e_bench.cc) into .bench_build/, runs one workload, checks the
pipeline's outputs, and prints a report followed by one JSON line:

  python3 perfbench/run.py --workload topk-sparse --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py                  # every workload, seed 1

--trace 0 reports the end-to-end metrics (tracing off); --trace 1 reports
the per-layer metrics from one traced set-up and run. perfbench/README.md
lists the metrics, what each should move, and why each workload exists.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

WORKLOADS = ("topk-sparse", "windf-live", "search-refresh")
DEFAULT_SEED = 1
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench_e2e")
PINS_PATH = os.path.join(HERE, "pins.json")
# A run must end within 180 s of starting; leave room for the report.
RUN_TIMEOUT_S = 170

# Values a run's output must reproduce: at DEFAULT_SEED the ones pinned in
# pins.json for its instance, at any other seed those of the invocation's
# first run of the same instance.
CHECKED = ("digest", "docs_to_recall50", "avg_precision")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench_e2e; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs,
              "--target", "perfbench_e2e"]]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            log("perfbench: build failed: %s" % " ".join(step))
            return False
    return True


def run_binary(workload, seed, seconds, trace_dir):
    """Runs perfbench_e2e; returns (exit code, records by kind)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    if trace_dir:
        command += ["--trace-dir", trace_dir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return None, None
    records = {"host": [], "setup": [], "run": []}
    for line in proc.stdout.splitlines():
        if line.startswith("{"):
            record = json.loads(line)
            records[record["kind"]].append(record)
    return proc.returncode, records


def load_pins():
    with open(PINS_PATH) as f:
        return json.load(f)


def runs_per_instance(runs):
    """{instance: its runs, in order}."""
    grouped = {}
    for run in runs:
        grouped.setdefault(run["instance"], []).append(run)
    return grouped


def run_failures(runs, workload, seed):
    """One list of failure reasons per run (empty when the run passed)."""
    if seed == DEFAULT_SEED:
        pins = load_pins()["workloads"][workload]
        references = dict(enumerate(pins))
        source = "pinned"
    else:
        references = {instance: group[0] for instance, group
                      in runs_per_instance(runs).items()}
        source = "first run's"
    failures = []
    for run in runs:
        reasons = []
        if not run["permutation"]:
            reasons.append("processing order is not a permutation of the pool")
        if not run["full_recall"]:
            reasons.append("final recall is not 1.0")
        if run["peak_rss_mb"] <= 0:
            reasons.append("peak RSS could not be read")
        reference = references.get(run["instance"])
        if reference is None:
            reasons.append("no pinned output for instance %d"
                           % run["instance"])
            reference = run
        for key in CHECKED:
            if run[key] != reference[key]:
                reasons.append("%s %r differs from the %s %r"
                               % (key, run[key], source, reference[key]))
        failures.append(reasons)
    return failures


def run_docs_per_cpu_s(run):
    return run["documents"] / run["cpu_s"]


def run_overhead_s(run):
    return run["ranking_cpu_s"] + run["detector_cpu_s"]


def end_to_end_metrics(setups, runs):
    """{name: (value, unit)} of the end-to-end metrics (tracing off).

    setup_s is the median over set-ups. docs_per_cpu_s and
    adaptive_overhead_s are medians over all runs, so neither a run the
    host slowed nor an instance whose warm-up sample makes its run
    unusually cheap moves them far. The quality metrics are the median
    over instances: every run of an instance has the same value.
    peak_rss_mb is the largest peak of any run. Set-up and run times are
    process CPU seconds.
    """
    instances = [group[0] for group in runs_per_instance(runs).values()]

    def over_runs(per_run):
        return benchlib.median([per_run(r) for r in runs])

    def over_instances(key):
        return benchlib.median([r[key] for r in instances])

    return {
        "setup_s": (benchlib.median([s["total_s"] for s in setups]), "s"),
        "docs_per_cpu_s": (over_runs(run_docs_per_cpu_s), "1/s"),
        "adaptive_overhead_s": (over_runs(run_overhead_s), "s"),
        "docs_to_recall50": (over_instances("docs_to_recall50"), "count"),
        "avg_precision": (over_instances("avg_precision"), "ratio"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in runs), "MB"),
    }


def load_spans(path):
    with open(path) as f:
        return benchlib.span_stats(json.load(f)["traceEvents"])


# The loop's named layers. All run on the pipeline's consumer thread
# (extraction is inline at the default extract_threads = 1) and none nests
# in another, so pipeline.loop_s minus their sum is the loop's unnamed
# remainder.
LOOP_LAYERS = ("update.cpu_s", "ranking.train_initial_s", "ranking.retrain_s",
               "rerank.rank_s", "extract.cpu_s", "index.search_s")


def per_layer_metrics(setup, traced, untraced, spans):
    """({name: (value, unit)}, {name: Ratio}) of the traced run."""
    def span(name, field):
        entry = spans.get(name)
        return getattr(entry, field) if entry else 0

    searches = traced["search_calls"]
    checks = traced["detector.checks"]
    delta = traced["rerank.delta_rescores"]
    attempts = delta + traced["rerank.density_fallbacks"]
    ratios = {
        "index.us_per_search": (benchlib.Ratio(
            traced["search_s"] * 1e6, searches), "index.search_calls", "us"),
        "index.hits_per_search": (benchlib.Ratio(
            traced["search_hits"], searches), "index.search_calls", "count"),
        "extract.us_per_doc": (benchlib.Ratio(
            traced["extract_cpu_s"] * 1e6, traced["documents"]),
            "pipeline.documents", "us"),
        "rerank.delta_ratio": (benchlib.Ratio(delta, attempts),
                               "rerank.delta_attempts", "ratio"),
        "update.us_per_check": (benchlib.Ratio(
            traced["detector_cpu_s"] * 1e6, checks), "update.checks", "us"),
        "trace.overhead_ratio": (benchlib.Ratio(
            traced["wall_s"],
            benchlib.median([r["wall_s"] for r in untraced])),
            "untraced_run_s", "ratio"),
    }
    metrics = {
        "corpus.generate_s": (setup["corpus.generate_s"], "s"),
        "text.featurize_pool_s": (setup["text.featurize_pool_s"], "s"),
        "extract.train_s": (setup["extract.train_s"], "s"),
        "extract.outcomes_s": (setup["extract.outcomes_s"], "s"),
        "index.build_s": (setup["index.build_s"], "s"),
        "index.postings_bytes": (setup["index.postings_bytes"], "bytes"),
        "index.search_calls": (searches, "count"),
        "index.search_s": (traced["search_s"], "s"),
        "extract.cpu_s": (traced["extract_cpu_s"], "s"),
        "ranking.cpu_s": (traced["ranking_cpu_s"], "s"),
        "ranking.train_initial_s": (span("pipeline.train_initial", "total_s"),
                                    "s"),
        "ranking.retrain_s": (span("pipeline.retrain", "total_s"), "s"),
        "learn.pegasos_steps": (traced["learn.pegasos_steps"], "count"),
        "learn.l1_zero_clamps": (traced["learn.l1_zero_clamps"], "count"),
        "rerank.rank_s": (span("pipeline.rank", "total_s"), "s"),
        "rerank.passes": (span("pipeline.rank", "count"), "count"),
        "rerank.full_rescores": (traced["rerank.full_rescores"], "count"),
        "rerank.delta_rescores": (delta, "count"),
        "rerank.density_fallbacks": (traced["rerank.density_fallbacks"],
                                     "count"),
        "rerank.delta_attempts": (attempts, "count"),
        "update.cpu_s": (traced["detector_cpu_s"], "s"),
        "update.checks": (checks, "count"),
        "update.updates": (traced["updates"], "count"),
        "pipeline.loop_s": (traced["loop_s"], "s"),
        "pipeline.documents": (traced["documents"], "count"),
        "trace.dropped_events": (traced["dropped_events"], "count"),
    }
    metrics["pipeline.unattributed_s"] = (
        traced["loop_s"] - sum(metrics[name][0] for name in LOOP_LAYERS), "s")
    for name, (ratio, _, unit) in ratios.items():
        metrics[name] = (ratio.value, unit)
    return metrics, ratios


def reconcile(metrics, spans):
    """Failure reasons where the trace disagrees with the exact counters."""
    def count(name):
        entry = spans.get(name)
        return entry.count if entry else 0

    value = {name: v for name, (v, _) in metrics.items()}
    checks = [
        ("pipeline.rank spans", count("pipeline.rank"),
         "rerank.full_rescores + rerank.delta_rescores",
         value["rerank.full_rescores"] + value["rerank.delta_rescores"]),
        ("pipeline.rank spans", count("pipeline.rank"),
         "update.updates + 1", value["update.updates"] + 1),
        ("pipeline.retrain spans", count("pipeline.retrain"),
         "update.updates", value["update.updates"]),
        ("index.search spans", count("index.search"),
         "index.search_calls", value["index.search_calls"]),
        ("trace.dropped_events", value["trace.dropped_events"], "0", 0),
    ]
    return ["%s = %d but %s = %d" % (lhs, a, rhs, b)
            for lhs, a, rhs, b in checks if a != b]


def dominant_loop_layer(metrics):
    """The largest of the loop's named layer times."""
    value = {name: v for name, (v, _) in metrics.items()}
    layers = {name: value[name] for name in LOOP_LAYERS
              if name not in ("rerank.rank_s", "ranking.retrain_s")}
    layers["rerank.rank_s + ranking.retrain_s"] = (
        value["rerank.rank_s"] + value["ranking.retrain_s"])
    return max(layers.items(), key=lambda item: item[1])


def format_metric(name, value, unit):
    text = ("%d" % value) if unit in ("count", "bytes") else ("%.6g" % value)
    return "  %-26s %14s %s" % (name, text, unit)


def run_workload(workload, seed, seconds, trace):
    """Runs and reports one workload; returns its result object or None
    when perfbench_e2e produced no usable result."""
    trace_dir = None
    if trace:
        trace_dir = os.path.join(BUILD_DIR, "traces",
                                 "%s-seed%d" % (workload, seed))
        os.makedirs(trace_dir, exist_ok=True)
    code, records = run_binary(workload, seed, seconds, trace_dir)
    if records is None or not records["host"] or not records["run"]:
        log("perfbench: %s produced no runs (exit code %s)" % (workload, code))
        return None
    host = records["host"][0]
    runs = records["run"]
    setups = records["setup"]
    failures = run_failures(runs, workload, seed)
    if code != 0 and not any(failures):
        failures[-1].append("perfbench_e2e exited with code %d" % code)

    print("perfbench workload=%s seed=%d trace=%d seconds=%g"
          % (workload, seed, trace, seconds))
    print("  host: nproc=%d hardware_concurrency=%d setup_threads=%d "
          "build=%s compiler=%s observability=%d"
          % (len(os.sched_getaffinity(0)), host["hardware_concurrency"],
             host["setup_threads"], host["build_type"], host["compiler"],
             host["observability"]))
    print("  %d set-ups, %d runs" % (len(setups), len(runs)))
    for instance, group in sorted(runs_per_instance(runs).items()):
        print("  instance %d: pool of %d documents, %d useful; %d runs, "
              "median %.6g docs/CPU-s, median overhead %.6g s"
              % (instance, group[0]["pool_size"], group[0]["pool_useful"],
                 len(group),
                 benchlib.median([run_docs_per_cpu_s(r) for r in group]),
                 benchlib.median([run_overhead_s(r) for r in group])))
    for index, run in enumerate(runs):
        print("  run %d: instance %d%s, cpu %.4f s, wall %.4f s, digest %s, "
              "docs_to_recall50 %d, avg_precision %.17g"
              % (index, run["instance"],
                 " (traced)" if run["traced"] else "", run["cpu_s"],
                 run["wall_s"], run["digest"], run["docs_to_recall50"],
                 run["avg_precision"]))

    if trace:
        traced = [r for r in runs if r["traced"]][0]
        # The overhead baseline: untraced runs of the traced instance.
        untraced = [r for r in runs if not r["traced"]
                    and r["instance"] == traced["instance"]]
        spans = load_spans(traced["trace_file"])
        metrics, ratios = per_layer_metrics(setups[0], traced, untraced,
                                            spans)
        mismatches = reconcile(metrics, spans)
        if mismatches:
            failures[runs.index(traced)].extend(mismatches)
        for name in sorted(metrics):
            value, unit = metrics[name]
            if name in ratios:
                ratio, base_name, _ = ratios[name]
                print("  %-26s %s %s" % (name, ratio.format(base_name), unit))
            else:
                print(format_metric(name, value, unit))
        layer, seconds_taken = dominant_loop_layer(metrics)
        print("  largest loop layer: %s = %.4g s" % (layer, seconds_taken))
        print("  trace reconciliation: %s"
              % ("ok" if not mismatches else "; ".join(mismatches)))
    else:
        metrics = end_to_end_metrics(setups, runs)
        for name, (value, unit) in metrics.items():
            print(format_metric(name, value, unit))
        q1, _, q3 = benchlib.quartiles([s["total_s"] for s in setups])
        print("  set-up quartiles %.6g-%.6g s over %d set-ups"
              % (q1, q3, len(setups)))

    attempted = len(runs)
    failed = sum(1 for reasons in failures if reasons)
    print(format_metric("fail_ratio", failed / attempted, "ratio")
          + "  (%d of %d runs failed)" % (failed, attempted))
    for index, reasons in enumerate(failures):
        for reason in reasons:
            print("  run %d FAILED: %s" % (index, reason))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not build():
        return 1

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        results.append((workload, result))

    if len(results) == 1:
        summary = results[0][1]
    else:
        summary = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {"%s.%s" % (w, name): metric
                        for w, r in results
                        for name, metric in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
