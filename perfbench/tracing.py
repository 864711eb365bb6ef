"""Attribute patching and span recording for the benchmark.

The package is measured from outside: a wrapper replaces the attribute that
a caller looks up (a module function or a class method), so no file of the
package changes. `Hooks` undoes every patch in reverse order.

A `Tracer` keeps spans in memory as [name, start, end, parent] lists, where
parent is the index of the enclosing span or -1, plus named counters. A
layer's self time is its span minus the spans nested directly in it.
"""

from __future__ import annotations

import bisect
import time
from collections import defaultdict

clock = time.perf_counter


class Hooks:
    """Attribute patches, undone in reverse order by `undo`."""

    def __init__(self):
        self.installed: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, replacement) -> None:
        self.installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def undo(self) -> None:
        while self.installed:
            owner, attr, original = self.installed.pop()
            setattr(owner, attr, original)


class Tracer:
    """In-memory spans and counters recorded by wrapped calls."""

    def __init__(self, hooks: Hooks):
        self.hooks = hooks
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)

    def traced(self, fn, name, observe=None):
        """fn wrapped so that every call records a span.

        name is a string or a function of the call's positional arguments;
        observe(args, result) runs after the call, outside the span.
        """
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            record = [name if isinstance(name, str) else name(args), 0.0, 0.0,
                      stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def wrap(self, owner, attr: str, name, observe=None) -> None:
        """Record a span around every call of owner.attr."""
        self.hooks.patch(owner, attr, self.traced(owner.__dict__[attr], name, observe))

    def count(self, name: str, n: float = 1.0) -> None:
        self.counts[name] += n

    def peak(self, name: str, value: float) -> None:
        if value > self.maxima[name]:
            self.maxima[name] = value

    def self_times(self) -> dict[str, tuple[float, int]]:
        """name -> (total self seconds, calls)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _) in enumerate(self.spans):
            acc = out[name]
            acc[0] += end - start - child[i]
            acc[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def coverage(self, intervals: list[tuple[float, float]]) -> float:
        """Share of the intervals' wall time covered by top-level spans."""
        tops = sorted((s, e) for _, s, e, parent in self.spans if parent < 0)
        covered = total = 0.0
        j = 0
        for a, b in sorted(intervals):
            total += b - a
            while j < len(tops) and tops[j][1] <= a:
                j += 1
            k = j
            while k < len(tops) and tops[k][0] < b:
                covered += max(0.0, min(b, tops[k][1]) - max(a, tops[k][0]))
                k += 1
        return covered / total if total > 0 else 0.0

    def dump(self, intervals: list[tuple[float, float]]) -> dict:
        """Spans with the index of the measured interval (step, sequence or
        eval call) each belongs to, -1 outside them, plus the counters."""
        starts = [a for a, _ in intervals]
        op = [-1] * len(self.spans)
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                op[i] = op[parent]
            else:
                k = bisect.bisect_right(starts, start) - 1
                op[i] = k if k >= 0 and start < intervals[k][1] else -1
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "op": o}
                for (n, s, e, p), o in zip(self.spans, op)
            ],
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }
