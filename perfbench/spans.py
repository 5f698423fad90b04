"""In-memory span tracing for the benchmark's traced runs.

A span records one layer call: name, start, end, parent span and the id of
the operation (question or training step) it belongs to. Spans come from two
places: the benchmark's own call sites (``Tracer.call``), and module
attributes that the program looks up at call time, swapped for timing
wrappers while a ``Tracer.patched`` block runs. A wrapped function that no
longer exists is recorded as absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import defaultdict
from typing import NamedTuple

_clock = time.perf_counter


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 at the root
    op: int  # operation id shared by the spans of one question or step


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._hooks: dict[str, list] = defaultdict(list)

    def new_op(self) -> int:
        self.op += 1
        return self.op

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _clock()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.op)
        for hook in self._hooks.get(name, ()):
            hook(args, kwargs, result)
        return result

    def on_return(self, name: str, hook) -> None:
        """Run ``hook(args, kwargs, result)`` after each call of span ``name``,
        outside the span, to count work at the layer boundary."""
        self._hooks[name].append(hook)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def patched(self, targets):
        """Swap ``(owner, attribute, span name)`` targets for timing wrappers.

        ``owner`` is a module or class; classmethods stay classmethods.
        Originals are restored on exit.
        """
        restore = []
        try:
            for owner, attr, name in targets:
                raw = owner.__dict__.get(attr) if isinstance(owner, type) \
                    else getattr(owner, attr, None)
                if raw is None:
                    self.absent.append(name)
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                setattr(owner, attr, new)
                restore.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)

    # -----------------------------------------------------------------------
    # Summaries

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds
        (duration minus the time its direct children cover)."""
        spans = self.finished()
        child_time = [0.0] * len(self.spans)
        for span in spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            entry = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = span.end - span.start
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[index]
        return out

    def uncovered_share(self, root: str) -> float:
        """Median over ``root`` spans of the share of their duration that no
        child span covers."""
        spans = self.spans
        covered = defaultdict(float)
        for span in spans:
            if span is not None and span.parent >= 0:
                covered[span.parent] += span.end - span.start
        shares = [
            1.0 - covered[i] / (s.end - s.start)
            for i, s in enumerate(spans)
            if s is not None and s.name == root and s.end > s.start
        ]
        return statistics.median(shares) if shares else 0.0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.finished():
                handle.write(json.dumps(span._asdict()))
                handle.write("\n")
