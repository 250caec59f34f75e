"""Spans, counters and GC pauses recorded by the benchmark around its own
calls into the package. Nothing here reaches inside the package: a span
covers one call into a public function, and a layer's self time is its
span's duration minus the part its child spans cover."""

from __future__ import annotations

import gc
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class NullTracer:
    """Stands in for Tracer in untraced passes; records nothing."""

    on = False

    def span(self, name: str, op: bool = False):
        return _NULL

    def product(self, name: str):
        return _NULL

    def count(self, name: str, value: float) -> None:
        pass


class Tracer:
    """Spans (name, start, end, parent, product, repetition) kept in memory,
    counters per repetition, and, from gc.callbacks, the full collections and
    GC pause time inside operation spans per repetition. The collector stays
    on."""

    on = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: list[Counter] = []
        self.gc: list[dict] = []
        self._stack: list[int] = []
        self._product: str | None = None
        self._in_op = False
        self._gc_started = 0.0

    def begin_rep(self) -> None:
        self.counts.append(Counter())
        self.gc.append({"gen2_collections": 0, "pause_s": 0.0})
        gc.callbacks.append(self._on_gc)

    def end_rep(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self._in_op:
            return
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        stats = self.gc[-1]
        stats["pause_s"] += time.perf_counter() - self._gc_started
        if info["generation"] == 2:
            stats["gen2_collections"] += 1

    @contextmanager
    def span(self, name: str, op: bool = False):
        """A span; `op` marks one timed operation of the workload."""
        record = {"id": len(self.spans), "name": name, "start": 0.0, "end": 0.0,
                  "parent": self._stack[-1] if self._stack else None,
                  "product": self._product, "rep": len(self.counts) - 1}
        self.spans.append(record)
        self._stack.append(record["id"])
        self._in_op |= op
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if op:
                self._in_op = False

    @contextmanager
    def product(self, name: str):
        outer, self._product = self._product, name
        try:
            yield
        finally:
            self._product = outer

    def count(self, name: str, value: float) -> None:
        self.counts[-1][name] += value

    def layer_times(self) -> list[dict[str, tuple[float, float]]]:
        """Per repetition: span name -> (total seconds, self seconds)."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        reps: list[dict[str, list[float]]] = [defaultdict(lambda: [0.0, 0.0])
                                              for _ in self.counts]
        for s in self.spans:
            duration = s["end"] - s["start"]
            entry = reps[s["rep"]][s["name"]]
            entry[0] += duration
            entry[1] += duration - covered[s["id"]]
        return [{name: tuple(v) for name, v in rep.items()} for rep in reps]

    def write(self, path, header: dict) -> None:
        document = dict(header)
        document["spans"] = self.spans
        document["self_s"] = [{name: round(v[1], 9) for name, v in rep.items()}
                              for rep in self.layer_times()]
        document["counts"] = [dict(c) for c in self.counts]
        document["gc"] = self.gc
        path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
