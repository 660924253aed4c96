"""Arithmetic of the end-to-end benchmark: summary statistics, span self
times from a Chrome trace, and ratios that carry their base.

Pure functions only, so perfbench/tests/test_perfbench.py can check them
without building or running anything.
"""

import statistics


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them.

    With fewer than two values every quartile is the single value.
    """
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


class Ratio:
    """A ratio that keeps its base, so a 0 base reads as such, not NaN."""

    def __init__(self, numerator, base):
        self.numerator = numerator
        self.base = base

    @property
    def value(self):
        """numerator / base; 0.0 when the base is 0 (see `defined`)."""
        return self.numerator / self.base if self.base else 0.0

    @property
    def defined(self):
        return self.base != 0

    def format(self, base_name):
        if not self.defined:
            return "n/a (%s = 0)" % base_name
        return "%.4f (%s = %s)" % (self.value, base_name, _plain(self.base))


def _plain(number):
    return str(int(number)) if float(number).is_integer() else repr(number)


class SpanStats:
    """Per span name: how many spans closed, their summed duration and
    their summed self time (seconds)."""

    def __init__(self):
        self.count = 0
        self.total_s = 0.0
        self.self_s = 0.0


def span_stats(events):
    """Aggregates Chrome-trace 'B'/'E' events into {name: SpanStats}.

    Spans nest per thread: each tid keeps its own stack, so events of
    different threads may interleave freely. A span's self time is its
    duration minus the durations of the spans directly nested in it on
    the same thread. A span on another thread — a scoring worker, say —
    is a root of its own thread; the time the caller spent waiting for it
    stays in the caller's self time. Timestamps are microseconds.
    """
    stacks = {}  # tid -> list of [name, start_us, child_us]
    stats = {}
    for event in events:
        phase = event.get("ph")
        if phase not in ("B", "E"):
            continue
        stack = stacks.setdefault(event.get("tid"), [])
        ts = float(event["ts"])
        if phase == "B":
            stack.append([event["name"], ts, 0.0])
            continue
        if not stack or stack[-1][0] != event["name"]:
            raise ValueError("unbalanced span end: %r" % event["name"])
        name, start, child_us = stack.pop()
        duration = ts - start
        entry = stats.setdefault(name, SpanStats())
        entry.count += 1
        entry.total_s += duration * 1e-6
        entry.self_s += (duration - child_us) * 1e-6
        if stack:
            stack[-1][2] += duration
    open_spans = [frame[0] for stack in stacks.values() for frame in stack]
    if open_spans:
        raise ValueError("spans never ended: %r" % open_spans)
    return stats
