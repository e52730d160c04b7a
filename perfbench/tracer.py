"""In-memory spans and counters recorded around calls into mfg_moments.

A span is one call into a layer, named ``<module>.<function>``, with its
start and end (``perf_counter`` seconds), the span that caused it and the
op it belongs to.  Counters and peaks are recorded at the same
boundaries.  Nothing is written until the run ends; a disabled tracer
records nothing, so untraced runs execute the same op code.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = {}
        self._stack: list[int] = []
        self._op: int | None = None

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": self._stack[-1] if self._stack else None,
               "op": self._op, "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    @contextmanager
    def op(self, op_id: int, label: str):
        """Root span of one benchmark operation; layer spans nest under it."""
        self._op = op_id
        try:
            with self.span("op", label=label):
                yield
        finally:
            self._op = None

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name`` and return its result."""
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.counters[name] += value

    def peak(self, name: str, value: float) -> None:
        if self.enabled:
            self.peaks[name] = max(self.peaks.get(name, value), value)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child span time."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        return dict(out)

    def durations(self, name: str, **match) -> list[float]:
        """Wall durations of the spans called ``name`` whose attributes match."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and all(s.get(k) == v for k, v in match.items())]

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters), "peaks": self.peaks}
