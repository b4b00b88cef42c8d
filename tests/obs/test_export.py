"""Exporters: JSONL round-trip, layer breakdown, tree rendering."""

import json

from repro import obs
from repro.obs.export import (
    InMemorySink,
    JsonlTraceSink,
    layer_breakdown,
    render_trace,
)
from repro.sources import VirtualClock
from tests.obs.jsonl import load_traces


def _run_traced_workload(sink, clock=None):
    obs.enable(clock=clock, sink=sink)
    with obs.span("mediator.find_genes", sources=2):
        with obs.span("source.attempt", source="GenBank"):
            if clock is not None:
                clock.advance(10.0)
        with obs.span("source.attempt", source="EMBL") as spn:
            spn.fail("injected failure")
    obs.disable()


class TestInMemorySink:
    def test_collects_whole_traces_as_dicts(self):
        sink = InMemorySink()
        _run_traced_workload(sink)
        assert len(sink.traces) == 1
        spans = sink.spans()
        assert len(spans) == 3
        assert all(isinstance(span, dict) for span in spans)
        assert {span["trace"] for span in spans} == {"t000001"}


class TestJsonlRoundTrip:
    def test_spans_survive_the_file_unchanged(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        memory = InMemorySink()

        class Tee:
            def export(self, spans):
                memory.export(spans)
                JsonlTraceSink(path).export(spans)

        _run_traced_workload(Tee(), clock=VirtualClock())
        loaded = load_traces(path)
        assert list(loaded) == ["t000001"]
        assert loaded["t000001"] == memory.traces[0]

    def test_sink_appends_across_traces(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(path)
        obs.enable(sink=sink)
        for __ in range(2):
            with obs.span("root"):
                pass
        obs.disable()
        assert sink.exported == 2
        assert len(load_traces(path)) == 2

    def test_lines_are_plain_json_objects(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _run_traced_workload(JsonlTraceSink(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            record = json.loads(line)
            assert {"trace", "span", "name", "status"} <= record.keys()

    def test_blank_lines_ignored_on_load(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _run_traced_workload(JsonlTraceSink(path))
        path.write_text(path.read_text() + "\n\n")
        assert len(load_traces(path)["t000001"]) == 3


class TestLayerBreakdown:
    def test_layers_split_on_the_first_dot(self):
        sink = InMemorySink()
        _run_traced_workload(sink, clock=VirtualClock())
        layers = layer_breakdown(sink.spans())
        assert set(layers) == {"mediator", "source"}
        assert layers["mediator"]["spans"] == 1
        assert layers["source"]["spans"] == 2
        assert layers["source"]["errors"] == 1
        assert layers["mediator"]["virtual_ms"] == 10.0

    def test_unfinished_spans_bill_zero(self):
        layers = layer_breakdown([
            {"name": "sql.parse", "status": "ok", "wall_ms": None},
        ])
        assert layers["sql"]["wall_ms"] == 0.0


class TestRenderTrace:
    def test_tree_structure_and_annotations(self):
        sink = InMemorySink()
        _run_traced_workload(sink, clock=VirtualClock())
        text = render_trace(sink.traces[0])
        lines = text.splitlines()
        assert lines[0] == "trace t000001 — 3 spans"
        assert any("mediator.find_genes" in line and "[sources=2]" in line
                   for line in lines)
        # Children indent under the root, errors carry the marker.
        child_lines = [line for line in lines if "source.attempt" in line]
        assert len(child_lines) == 2
        assert all("  source.attempt" in line for line in child_lines)
        assert any("✗" in line and "source=EMBL" in line
                   for line in child_lines)
        assert "per-layer breakdown" in text

    def test_empty_trace(self):
        assert render_trace([]) == "(empty trace)\n"

    def test_children_order_by_span_id(self):
        sink = InMemorySink()
        _run_traced_workload(sink)
        text = render_trace(sink.traces[0])
        assert text.index("GenBank") < text.index("EMBL")
