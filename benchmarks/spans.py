"""In-memory spans for the traced run, written to disk once at exit.

A span records a name, its start and end (``time.perf_counter``), the span
that was open when it started, and the id of the operation it belongs to.
Spans wrap calls into the library from the benchmark's own code; nothing
inside the library is instrumented.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.op_id = -1

    def new_op(self) -> int:
        """Start a new operation; later spans carry its id."""
        self.op_id += 1
        return self.op_id

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans), "name": name, "op": self.op_id,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(), "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - child[s["id"]] for s in self.spans]

    def per_op_map(self, name: str) -> dict[int, float]:
        """Self time of spans called ``name``, summed within each operation."""
        times = self.self_times()
        acc: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["name"] == name:
                acc[s["op"]] += times[s["id"]]
        return dict(acc)

    def per_op(self, name: str) -> list[float]:
        return list(self.per_op_map(name).values())

    def dump(self, path, extra: dict) -> None:
        times = self.self_times()
        spans = [dict(s, self=t) for s, t in zip(self.spans, times)]
        with open(path, "w") as fh:
            json.dump(dict(extra, spans=spans), fh)
