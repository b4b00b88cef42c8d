"""The span recorder: nesting, op ids and self time."""

import json

from spans import Recorder, Span


def _recorder(spans):
    recorder = Recorder()
    recorder.spans = [Span(index, *fields)
                      for index, fields in enumerate(spans)]
    return recorder


def test_nesting_records_parent_and_op():
    recorder = Recorder()
    recorder.begin_op(7)
    with recorder.span("outer") as outer:
        with recorder.span("inner") as inner:
            pass
        with recorder.span("sibling") as sibling:
            pass
    assert outer.parent is None
    assert inner.parent == sibling.parent == outer.span_id
    assert {span.op_id for span in recorder.spans} == {7}
    assert outer.start <= inner.start <= inner.end <= sibling.start
    assert sibling.end <= outer.end


def test_self_time_is_duration_minus_child_coverage():
    #                  name, op, parent, start, end
    recorder = _recorder([
        ("refresh", 0, None, 0.0, 10.0),
        ("append", 0, 0, 1.0, 3.0),
        ("append", 0, 0, 5.0, 6.0),
        ("encode", 0, 1, 1.5, 2.5),     # grandchild: not refresh's child
    ])
    self_ms = recorder.self_ms()
    assert self_ms[0] == 7000.0          # 10 − (2 + 1)
    assert self_ms[1] == 1000.0          # 2 − 1
    assert self_ms[2] == 1000.0
    assert recorder.total_ms("append") == 3000.0
    assert recorder.total_self_ms("append") == 2000.0
    assert recorder.count("append") == 2


def test_overlapping_children_are_not_subtracted_twice():
    recorder = _recorder([
        ("fan_out", 0, None, 0.0, 10.0),
        ("source", 0, 0, 1.0, 6.0),
        ("source", 0, 0, 4.0, 8.0),      # overlaps the first by 2
        ("source", 0, 0, 9.0, 12.0),     # runs past the parent's end
    ])
    assert recorder.self_ms()[0] == 2000.0   # 10 − (7 + 1)


def test_by_op_and_dump(tmp_path):
    recorder = Recorder()
    for op_id in (0, 1):
        recorder.begin_op(op_id)
        with recorder.span("execute"):
            pass
    assert sorted(recorder.by_op("execute")) == [0, 1]
    path = tmp_path / "spans.jsonl"
    recorder.dump(str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line["op"] for line in lines] == [0, 1]
    assert all(line["self_ms"] == line["ms"] for line in lines)
