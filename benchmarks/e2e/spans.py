"""The benchmark's own span recorder.

Spans are recorded only in the traced pass and only from benchmark
files, around the calls into each layer's public functions; spans
*inside* the program are ``repro.obs``'s job and a later issue.  A span
is ``(name, start, end, parent, op id)``; spans of one operation share
its op id.  Everything stays in memory until :meth:`Recorder.dump`
writes JSONL.

A layer's **self time** is its span's duration minus the part of that
interval its child spans cover (overlapping children are merged first,
so two children covering the same instant are not subtracted twice).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    """One timed call into a layer."""

    span_id: int
    name: str
    op_id: int
    parent: "int | None"
    start: float = 0.0
    end: float = 0.0
    #: The recorder whose stack this span sits on while open.
    recorder: "Recorder | None" = field(default=None, repr=False,
                                        compare=False)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0

    # A span is its own context manager (cheaper than a generator:
    # the traced pass opens five per BiQL statement).
    def __enter__(self) -> "Span":
        self.start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end = perf_counter()
        self.recorder._stack.pop()


class Recorder:
    """In-memory, single-threaded span recorder (the generator is one
    closed-loop client, so a plain stack is the whole context)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op_id = -1

    def begin_op(self, op_id: int) -> None:
        """Spans opened from now on belong to operation *op_id*."""
        self.op_id = op_id

    def span(self, name: str) -> Span:
        """Open a span under the current one; use as ``with``."""
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, self.op_id, parent,
                      recorder=self)
        self.spans.append(record)
        self._stack.append(record.span_id)
        return record

    # -- aggregation ------------------------------------------------------

    def self_ms(self) -> dict[int, float]:
        """Span id → self time in ms (duration − merged child coverage)."""
        children: dict[int, list[Span]] = {}
        for record in self.spans:
            if record.parent is not None:
                children.setdefault(record.parent, []).append(record)
        out: dict[int, float] = {}
        for record in self.spans:
            covered = 0.0
            reach = record.start
            for child in sorted(children.get(record.span_id, ()),
                                key=lambda item: item.start):
                start = max(child.start, reach)
                end = min(child.end, record.end)
                if end > start:
                    covered += end - start
                    reach = end
            out[record.span_id] = (record.end - record.start
                                   - covered) * 1000.0
        return out

    def total_ms(self, name: str) -> float:
        return sum(record.ms for record in self.spans
                   if record.name == name)

    def total_self_ms(self, name: str) -> float:
        self_ms = self.self_ms()
        return sum(self_ms[record.span_id] for record in self.spans
                   if record.name == name)

    def count(self, name: str) -> int:
        return sum(1 for record in self.spans if record.name == name)

    def by_op(self, name: str) -> dict[int, float]:
        """Op id → summed duration (ms) of its spans called *name*."""
        out: dict[int, float] = {}
        for record in self.spans:
            if record.name == name:
                out[record.op_id] = out.get(record.op_id, 0.0) + record.ms
        return out

    def dump(self, path: str) -> None:
        """One span per line, with its self time."""
        self_ms = self.self_ms()
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps({
                    "span": record.span_id, "name": record.name,
                    "op": record.op_id, "parent": record.parent,
                    "start": record.start, "end": record.end,
                    "ms": record.ms,
                    "self_ms": self_ms[record.span_id],
                }) + "\n")
