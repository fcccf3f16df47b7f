"""In-memory span recorder for the traced benchmark pass.

The tracer wraps the public functions of each dynloc layer where the calling
module binds them (``dynloc.experiments.run``, ``dynloc.engine.madrd_predict``,
...), so the program is measured without being edited.  Each sweep, cell,
engine run and output file gets one span.  Calls made once per grid step or per
fix are not spans: their count and total time are added to the span of the
engine run they happen in.

Spans stay in memory until :meth:`Tracer.dump` writes them as JSON lines.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from time import perf_counter

# Span name prefix -> layer; per-step call names use the same scheme.
LAYERS = ("cli", "experiments", "mobility", "engine", "protocols", "geometry")

CELL = "experiments.cell"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run", "attrs")

    def __init__(self, id_, name, start, parent, run):
        self.id = id_
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one serial sweep."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._calls: dict | None = None  # per-step totals of the engine run in progress

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        run = parent.run if parent is not None else None
        span = Span(len(self.spans), name, perf_counter(), parent.id if parent else None, run)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed out of order (top is {top.name})")

    def _close_cell(self) -> None:
        if self._stack and self._stack[-1].name == CELL:
            self._close(self._stack[-1])

    def wrap(self, name, fn, after=None):
        """One span per call; ``after(span, args, result)`` may annotate it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(span, args, result)
            return result

        return traced

    def wrap_sweep(self, name, fn):
        """Like :meth:`wrap`, and closes the last cell span when the sweep ends."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close_cell()
                self._close(span)

        return traced

    def wrap_cell_start(self, name, fn):
        """Wrap the call that begins a cell (its trace generation).

        The sweep has no public per-cell function.  In a serial sweep a cell
        is its trace generation followed by its runs and event files, so a
        cell span runs from one trace generation to the next one or to the
        end of the sweep.
        """
        inner = self.wrap(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._close_cell()
            self._open(CELL)
            return inner(*args, **kwargs)

        return traced

    def wrap_run(self, name, fn, after):
        """One span per engine run; per-step calls inside it are totalled on it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            span.run = span.id
            span.attrs["calls"] = self._calls = defaultdict(lambda: [0, 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                self._calls = None
                self._close(span)
            after(span, args, result)
            return result

        return traced

    def per_step(self, name, fn):
        """Count and time calls, made inside an engine run, without a span of their own."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - t0
            total = self._calls[name]
            total[0] += 1
            total[1] += elapsed
            return result

        return counted

    def call_totals(self) -> dict[str, list]:
        """Per-step call name -> [count, seconds], summed over all engine runs."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for span in self.spans:
            for name, (count, seconds) in span.attrs.get("calls", {}).items():
                out[name][0] += count
                out[name][1] += seconds
        return out

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer: span time not covered by child spans or per-step calls."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        out = dict.fromkeys(LAYERS, 0.0)
        for span in self.spans:
            calls = span.attrs.get("calls", {})
            inner = sum(seconds for _, seconds in calls.values())
            out[span.name.split(".")[0]] += span.duration - covered[span.id] - inner
            for name, (_, seconds) in calls.items():
                out[name.split(".")[0]] += seconds
        return out

    def dump(self, path: str | os.PathLike, **header) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for s in self.spans:
                attrs = dict(s.attrs)
                if "calls" in attrs:
                    attrs["calls"] = {k: list(v) for k, v in attrs["calls"].items()}
                record = {
                    "id": s.id,
                    "name": s.name,
                    "start": s.start - t0,
                    "end": s.end - t0,
                    "parent": s.parent,
                    "run": s.run,
                    "attrs": attrs,
                }
                fh.write(json.dumps(record) + "\n")
