#!/usr/bin/env python3
"""Validator for Chrome-trace JSON emitted by src/common/trace_export.cc.

Checks, per file:

  well-formed     parses as JSON with a top-level "traceEvents" list whose
                  entries carry name/ph/ts/pid/tid of the right types
  balanced        every 'B' has a matching 'E' on the same tid, properly
                  nested (span ends close the most recent open begin with
                  the same name), and no 'E' without an open 'B'
  monotonic       timestamps never decrease within one tid (events are
                  recorded append-only into per-thread buffers)
  phases          only phases the exporter emits appear (B, E, I, C)

Optionally asserts content with --require-span NAME (repeatable): the trace
must contain at least one complete B/E pair with that name, and
--require-counter NAME: at least one 'C' sample with that name.

With --ledger LEDGER the trace is cross-checked against a flight-recorder
run ledger (tools/report.py) from an identical configuration: the number
of 'pipeline.update' spans must equal the ledger's retrain count, and the
number of 'pipeline.extract' spans must equal the ledger's iteration count
(every consumed document was extracted exactly once). Both checks are skipped with a note when the trace
reports dropped events — a truncated trace undercounts spans by design.

Usage: tools/check_trace.py TRACE.json [TRACE2.json ...]
           [--require-span NAME]... [--require-counter NAME]...
           [--ledger LEDGER.jsonl]
Exit status: 0 valid, 1 findings, 2 usage/internal error.
"""

import argparse
import json
import sys

ALLOWED_PHASES = {"B", "E", "I", "C"}


def validate(path, require_spans, require_counters, span_counts=None,
             dropped_out=None):
    """Returns a list of finding strings for one trace file.

    When `span_counts` (a dict) is given, the count of complete B/E pairs
    per span name is accumulated into it; `dropped_out` (a list) receives
    the exporter's otherData.dropped_events value.
    """
    findings = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            trace = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return ["%s: unreadable or malformed JSON: %s" % (path, e)]

    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["%s: no top-level 'traceEvents' list" % path]
    if dropped_out is not None:
        other = trace.get("otherData")
        dropped_out.append(other.get("dropped_events", 0)
                           if isinstance(other, dict) else 0)

    open_spans = {}  # tid -> stack of open span names
    last_ts = {}  # tid -> last timestamp seen
    complete_spans = set()
    counters = set()
    for i, ev in enumerate(events):
        where = "%s: event %d" % (path, i)
        if not isinstance(ev, dict):
            findings.append("%s: not an object" % where)
            continue
        name = ev.get("name")
        phase = ev.get("ph")
        ts = ev.get("ts")
        tid = ev.get("tid")
        if not isinstance(name, str) or not name:
            findings.append("%s: missing/empty 'name'" % where)
            continue
        if phase not in ALLOWED_PHASES:
            findings.append("%s (%s): unexpected phase %r" %
                            (where, name, phase))
            continue
        if not isinstance(ts, (int, float)) or ts < 0:
            findings.append("%s (%s): bad 'ts' %r" % (where, name, ts))
            continue
        if not isinstance(tid, int):
            findings.append("%s (%s): bad 'tid' %r" % (where, name, tid))
            continue
        if "pid" not in ev:
            findings.append("%s (%s): missing 'pid'" % (where, name))

        if tid in last_ts and ts < last_ts[tid]:
            findings.append(
                "%s (%s): timestamp %s < previous %s on tid %d" %
                (where, name, ts, last_ts[tid], tid))
        last_ts[tid] = ts

        stack = open_spans.setdefault(tid, [])
        if phase == "B":
            stack.append(name)
        elif phase == "E":
            if not stack:
                findings.append("%s (%s): 'E' with no open span on tid %d" %
                                (where, name, tid))
            elif stack[-1] != name:
                findings.append(
                    "%s: 'E' for %r but innermost open span on tid %d "
                    "is %r (misnested)" % (where, name, tid, stack[-1]))
                stack.pop()
            else:
                stack.pop()
                complete_spans.add(name)
                if span_counts is not None:
                    span_counts[name] = span_counts.get(name, 0) + 1
        elif phase == "C":
            counters.add(name)
            args = ev.get("args")
            if not isinstance(args, dict) or not isinstance(
                    args.get("value"), (int, float)):
                findings.append(
                    "%s (%s): 'C' without numeric args.value" % (where, name))

    for tid, stack in sorted(open_spans.items()):
        for name in stack:
            findings.append("%s: span %r on tid %d never ended" %
                            (path, name, tid))

    for name in require_spans:
        if name not in complete_spans:
            findings.append("%s: required span %r not found" % (path, name))
    for name in require_counters:
        if name not in counters:
            findings.append("%s: required counter %r not found" %
                            (path, name))
    return findings


def read_ledger_counts(path):
    """Returns (iterations, retrains) from a flight-recorder ledger, or a
    finding string on parse failure. Counts iter lines directly, so a
    truncated ledger (missing footer) still cross-checks."""
    iterations = 0
    retrains = 0
    try:
        with open(path, "r", encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    continue  # trailing partial line of a crashed run
                if obj.get("type") == "iter":
                    iterations += 1
                    retrains += 1 if obj.get("retrain") else 0
    except OSError as e:
        return "%s: unreadable ledger: %s" % (path, e)
    return iterations, retrains


def cross_check_ledger(ledger_path, span_counts, dropped):
    """Trace-vs-ledger consistency: spans that must match ledger counts."""
    counts = read_ledger_counts(ledger_path)
    if isinstance(counts, str):
        return [counts]
    iterations, retrains = counts
    if dropped:
        print("check_trace: trace dropped %d event(s); "
              "skipping ledger count cross-check" % dropped)
        return []
    findings = []
    updates = span_counts.get("pipeline.update", 0)
    if updates != retrains:
        findings.append(
            "%s: %d 'pipeline.update' span(s) but ledger has %d "
            "retrain(s)" % (ledger_path, updates, retrains))
    extracted = span_counts.get("pipeline.extract", 0)
    if extracted != iterations:
        findings.append(
            "%s: %d 'pipeline.extract' span(s) but ledger has %d "
            "iteration(s)" % (ledger_path, extracted, iterations))
    return findings


def main(argv):
    parser = argparse.ArgumentParser(
        description="Validate Chrome-trace JSON emitted by ie::Tracer.")
    parser.add_argument("traces", nargs="+", metavar="TRACE.json")
    parser.add_argument("--require-span", action="append", default=[],
                        metavar="NAME",
                        help="require a complete B/E pair with this name")
    parser.add_argument("--require-counter", action="append", default=[],
                        metavar="NAME",
                        help="require a 'C' sample with this name")
    parser.add_argument("--ledger", metavar="LEDGER.jsonl",
                        help="cross-check span counts against a "
                             "flight-recorder run ledger")
    args = parser.parse_args(argv)

    findings = []
    span_counts = {}
    dropped_events = []
    for path in args.traces:
        findings.extend(
            validate(path, args.require_span, args.require_counter,
                     span_counts, dropped_events))
    if args.ledger:
        findings.extend(
            cross_check_ledger(args.ledger, span_counts,
                               sum(dropped_events)))
    for finding in findings:
        print(finding, file=sys.stderr)
    if findings:
        print("check_trace: %d finding(s)" % len(findings), file=sys.stderr)
        return 1
    print("check_trace: %d file(s) OK" % len(args.traces))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
