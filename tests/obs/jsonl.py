"""Read a ``JsonlTraceSink`` file back: the oracle the JSONL tests use."""

import json


def load_traces(path) -> dict[str, list[dict]]:
    """The spans of the file at *path*, as ``{trace_id: [span, ...]}``."""
    traces: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                traces.setdefault(record["trace"], []).append(record)
    return traces
