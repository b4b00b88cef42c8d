"""Trace exporters: JSONL sink, in-memory sink, and the tree renderer.

A finished trace is a list of span dicts (see ``Span.to_dict``).  The
:class:`JsonlTraceSink` appends one JSON object per line so traces from
long processes stream to disk and can be read back with standard
tooling (``jq``, pandas).  The renderer
turns one trace into the human view the ``python -m repro trace`` CLI
prints: the span tree with wall/virtual durations, annotations, and a
per-layer time breakdown (a span's *layer* is its name up to the first
dot — ``mediator.fan_out`` and ``mediator.fusion`` both bill to
``mediator``).
"""

from __future__ import annotations

import json
from typing import Any, Iterable

__all__ = [
    "InMemorySink",
    "JsonlTraceSink",
    "layer_breakdown",
    "render_trace",
]


class InMemorySink:
    """Collects exported traces in a list — tests and chaos scenarios."""

    def __init__(self) -> None:
        self.traces: list[list[dict[str, Any]]] = []

    def export(self, spans) -> None:
        self.traces.append([span.to_dict() for span in spans])

    def spans(self) -> list[dict[str, Any]]:
        return [span for trace in self.traces for span in trace]


class JsonlTraceSink:
    """Appends every span of every finished trace to a JSONL file."""

    def __init__(self, path) -> None:
        self.path = path
        self.exported = 0

    def export(self, spans) -> None:
        with open(self.path, "a", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span.to_dict(), sort_keys=True))
                handle.write("\n")
        self.exported += len(spans)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_breakdown(spans: Iterable[dict[str, Any]]) -> dict[str, dict]:
    """Aggregate span time by layer prefix.

    Sums are over *individual spans*, so nested spans double-bill their
    shared wall time across layers — the table answers "where was work
    recorded", not "what adds up to the root duration".
    """
    layers: dict[str, dict[str, float]] = {}
    for span in spans:
        bucket = layers.setdefault(
            _layer(span["name"]),
            {"spans": 0, "wall_ms": 0.0, "virtual_ms": 0.0, "errors": 0})
        bucket["spans"] += 1
        bucket["wall_ms"] += span.get("wall_ms") or 0.0
        bucket["virtual_ms"] += span.get("virtual_ms") or 0.0
        if span.get("status") == "error":
            bucket["errors"] += 1
    return layers


def _format_attrs(attrs: dict[str, Any]) -> str:
    parts = []
    for key in sorted(attrs):
        value = attrs[key]
        if isinstance(value, float):
            value = f"{value:g}"
        parts.append(f"{key}={value}")
    return " ".join(parts)


def render_trace(spans: list[dict[str, Any]]) -> str:
    """Render one trace as an indented span tree + layer table."""
    if not spans:
        return "(empty trace)\n"
    by_parent: dict[Any, list[dict[str, Any]]] = {}
    for span in spans:
        by_parent.setdefault(span.get("parent"), []).append(span)
    for children in by_parent.values():
        children.sort(key=lambda span: span["span"])

    lines: list[str] = []
    roots = by_parent.get(None, [])
    trace_id = spans[0]["trace"]
    lines.append(f"trace {trace_id} — {len(spans)} spans")

    def walk(span: dict[str, Any], depth: int) -> None:
        wall = span.get("wall_ms")
        virtual = span.get("virtual_ms")
        timing = f"{wall:8.3f}ms wall" if wall is not None else " " * 14
        if virtual is not None:
            timing += f" {virtual:8.1f} virtual"
        marker = "✗" if span.get("status") == "error" else " "
        line = f"{timing} {marker} {'  ' * depth}{span['name']}"
        attrs = span.get("attrs")
        if attrs:
            line += f"  [{_format_attrs(attrs)}]"
        lines.append(line)
        for child in by_parent.get(span["span"], []):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)

    lines.append("")
    lines.append("per-layer breakdown")
    lines.append(f"{'layer':>12} {'spans':>6} {'wall ms':>10} "
                 f"{'virtual':>10} {'errors':>7}")
    layers = layer_breakdown(spans)
    for layer in sorted(layers, key=lambda key: -layers[key]["wall_ms"]):
        bucket = layers[layer]
        lines.append(f"{layer:>12} {bucket['spans']:>6} "
                     f"{bucket['wall_ms']:>10.3f} "
                     f"{bucket['virtual_ms']:>10.1f} "
                     f"{bucket['errors']:>7}")
    return "\n".join(lines) + "\n"
