"""In-memory spans around the benchmark's own calls into surftrace.

A span records name, start, end, parent span, op id and a few notes (sample
counts, exit kinds, bytes, chart evaluations).  The recorder is disabled in
the untraced run, where ``span`` hands back one shared no-op object, so the
untraced timings carry no tracing cost beyond a method call per library call.
"""
from __future__ import annotations

import json
from time import perf_counter


class ChartCounter:
    """Counts chart evaluations (``jet`` and ``position`` calls)."""

    def __init__(self) -> None:
        self.calls = 0

    def wrap(self, fn):
        if fn is None:
            return None

        def counted(t, z):
            self.calls += 1
            return fn(t, z)

        return counted


class Span:
    __slots__ = ("rec", "index", "name", "op", "parent", "start", "end",
                 "notes", "error", "_charts0")

    def __init__(self, rec: "Recorder", index: int, name: str) -> None:
        self.rec = rec
        self.index = index
        self.name = name
        self.op = rec.op_id
        self.parent = rec.stack[-1] if rec.stack else None
        self.notes: dict = {}
        self.error = None
        self.start = self.end = 0.0

    def note(self, **notes) -> None:
        self.notes.update(notes)

    def __enter__(self) -> "Span":
        self.rec.stack.append(self.index)
        self._charts0 = self.rec.charts.calls
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = perf_counter()
        self.notes["chart_calls"] = self.rec.charts.calls - self._charts0
        if exc_type is not None:
            self.error = exc_type.__name__
        self.rec.stack.pop()
        return False

    def as_dict(self) -> dict:
        return {"name": self.name, "op": self.op, "parent": self.parent,
                "start": self.start, "end": self.end, "error": self.error,
                **self.notes}


class _NullSpan:
    def note(self, **notes) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL = _NullSpan()


class Recorder:
    """Collects spans when enabled; every method is a no-op otherwise."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.charts = ChartCounter()
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op_id = None

    def span(self, name: str):
        if not self.enabled:
            return _NULL
        sp = Span(self, len(self.spans), name)
        self.spans.append(sp)
        return sp

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.as_dict()) + "\n")
