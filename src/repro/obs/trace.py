"""Hierarchical tracing for the federation stack.

One query through the reproduction crosses every layer of the paper's
architecture — BiQL session → SQL parse/plan/execute → mediator fan-out
→ source attempts → ETL monitor polls → warehouse ingests — and until
now each layer explained itself through its own ad-hoc struct
(``MediationCost``, ``QueryHealth``, ``MonitorHealth`` …) with no way to
correlate them.  A *trace* is that correlation: a tree of **spans**, all
carrying one ``trace_id``, each recording

- **wall-clock** time (``time.perf_counter`` deltas, plus one epoch
  stamp per span so JSONL sinks can be merged across processes), and
- **virtual** time (the shared :class:`~repro.sim.clock.
  VirtualClock`, when the tracer is given one) — so a span shows both
  what the Python process paid and what the *modelled* network paid.

Design constraints, in order:

1. **Near-free when disabled.**  The module-level :func:`span` fast
   path is one global read and one identity return when no tracer is
   installed; no object is allocated, no lock taken, no clock read.
2. **Deterministic.**  Trace and span ids come from a process-wide
   counter, never from the OS; the sampling decision is drawn from a
   seeded ``random.Random``, so a given (seed, query sequence) samples
   the same traces on every run.
3. **Thread-correct.**  The current span lives in a ``threading.local``
   stack.  Worker pools propagate it explicitly: capture with
   :func:`capture_context` on the submitting thread, re-install with
   :func:`use_context` inside the worker — the mediator's
   ``ThreadedPool`` does exactly this, so per-source spans parent
   correctly at any fan-out width.

Sampling is decided once, at the **root** of a trace; children inherit
the decision.  An unsampled root still occupies the context stack (as
the no-op span) so its would-be children neither record nor start fresh
roots of their own.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any

__all__ = [
    "Span",
    "Tracer",
    "NOOP_SPAN",
    "annotate",
    "capture_context",
    "current_span",
    "current_trace_id",
    "disable",
    "enable",
    "enabled",
    "get_tracer",
    "set_tracer",
    "span",
    "use_context",
]


class Span:
    """One timed operation in a trace tree."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "attributes",
        "status", "unix_start", "_wall_start", "wall_ms",
        "virtual_start", "virtual_ms", "_tracer",
    )

    #: Spans that record are distinguishable from the no-op singleton.
    recording = True

    def __init__(self, tracer: "Tracer", name: str, trace_id: str,
                 span_id: str, parent_id: str | None,
                 attributes: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attributes = attributes
        self.status = "ok"
        # Wall-clock epoch stamps are the one sanctioned use of
        # time.time() in the tree (see tests/test_seed_audit.py): a
        # trace is a measurement, not behaviour, and sinks from
        # different processes must merge on a common axis.
        self.unix_start = time.time()
        self._wall_start = time.perf_counter()
        self.wall_ms: float | None = None
        clock = tracer.clock
        self.virtual_start = clock.now() if clock is not None else None
        self.virtual_ms: float | None = None

    # -- recording ------------------------------------------------------------

    def annotate(self, **attributes: Any) -> "Span":
        """Attach attributes; later values win over earlier ones."""
        self.attributes.update(attributes)
        return self

    def fail(self, error: BaseException | str) -> "Span":
        self.status = "error"
        self.attributes.setdefault("error", str(error))
        return self

    def finish(self) -> None:
        if self.wall_ms is not None:
            return  # already finished (idempotent)
        self.wall_ms = (time.perf_counter() - self._wall_start) * 1000.0
        clock = self._tracer.clock
        if clock is not None and self.virtual_start is not None:
            self.virtual_ms = clock.now() - self.virtual_start
        self._tracer._finish(self)

    # -- context-manager protocol ----------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None and self.status == "ok":
            self.fail(exc)
        self._tracer._deactivate(self)
        self.finish()

    # -- export ----------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "status": self.status,
            "unix_start": self.unix_start,
            "wall_ms": self.wall_ms,
        }
        if self.virtual_start is not None:
            record["virtual_start"] = self.virtual_start
            record["virtual_ms"] = self.virtual_ms
        if self.attributes:
            record["attrs"] = dict(self.attributes)
        return record

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, trace={self.trace_id}, "
                f"span={self.span_id}, parent={self.parent_id})")


class _NoopSpan:
    """The shared do-nothing span: every recording call is absorbed.

    One instance serves every disabled or sampled-out code path, so the
    instrumentation sites never branch on "is tracing on?" themselves.
    """

    __slots__ = ()

    recording = False
    trace_id = None
    span_id = None
    parent_id = None
    name = ""
    attributes: dict[str, Any] = {}

    def annotate(self, **attributes: Any) -> "_NoopSpan":
        return self

    def fail(self, error) -> "_NoopSpan":
        return self

    def finish(self) -> None:
        return None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # A live tracer pushes the no-op onto the context stack for
        # sampled-out (sub)trees; pop it back off so the stack stays
        # balanced.  _deactivate only pops when the no-op is on top, so
        # this is safe when the tracer never pushed (disabled path).
        tracer = _ACTIVE
        if tracer is not None:
            tracer._deactivate(self)

    def __repr__(self) -> str:
        return "NOOP_SPAN"


NOOP_SPAN = _NoopSpan()

#: Context token meaning "the captured thread had no active span".
_NO_CONTEXT = (None, None)


class Tracer:
    """Creates, samples, parents, buffers, and exports spans.

    ``sample_rate`` is the probability that a *root* span records; the
    decision is drawn from a ``random.Random`` seeded from ``seed`` so
    runs replay.  ``clock`` (a :class:`~repro.sim.clock.
    VirtualClock`) adds modelled-time stamps next to the wall-clock
    ones.  Finished traces are kept in :attr:`traces` (bounded to
    ``max_traces``, oldest evicted) and, when the root finishes, the
    whole trace is handed to ``sink.export(spans)``.
    """

    def __init__(self, sample_rate: float = 1.0, clock=None, sink=None,
                 seed: int = 0, max_traces: int = 64) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample rate {sample_rate} not in [0, 1]")
        import random

        self.sample_rate = sample_rate
        self.clock = clock
        self.sink = sink
        self.max_traces = max_traces
        self._rng = random.Random(("obs-sampling", seed).__repr__())
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Finished spans per live trace (root not yet finished).
        self._open_traces: dict[str, list[Span]] = {}
        #: Completed traces, trace_id -> spans, insertion-ordered.
        self.traces: dict[str, list[Span]] = {}
        #: Counters the A10 ablation and the stats CLI report.
        self.started = 0
        self.sampled = 0

    # -- the context stack ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _deactivate(self, span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    # -- span creation ----------------------------------------------------------

    def _next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def span(self, name: str, **attributes: Any):
        """Open a span under the current one (or a sampled new root)."""
        parent = self.current()
        if parent is None:
            return self._root(name, attributes)
        if not parent.recording:
            # Child of a sampled-out root: keep suppressing, but keep
            # the stack balanced so __exit__ pops what __enter__ pushed.
            self._stack().append(NOOP_SPAN)
            return NOOP_SPAN
        child = Span(
            self, name, parent.trace_id,
            f"s{self._next_id():06d}", parent.span_id, attributes,
        )
        self._stack().append(child)
        return child

    def _root(self, name: str, attributes: dict[str, Any]):
        self.started += 1
        with self._lock:
            sampled = (self.sample_rate >= 1.0
                       or (self.sample_rate > 0.0
                           and self._rng.random() < self.sample_rate))
        if not sampled:
            self._stack().append(NOOP_SPAN)
            return NOOP_SPAN
        self.sampled += 1
        identity = self._next_id()
        root = Span(self, name, f"t{identity:06d}",
                    f"s{self._next_id():06d}", None, attributes)
        with self._lock:
            self._open_traces[root.trace_id] = []
        self._stack().append(root)
        return root

    # -- finishing --------------------------------------------------------------

    def _finish(self, span: Span) -> None:
        with self._lock:
            spans = self._open_traces.get(span.trace_id)
            if spans is None:
                return  # trace already closed (double finish of a child)
            spans.append(span)
            if span.parent_id is not None:
                return
            del self._open_traces[span.trace_id]
            self.traces[span.trace_id] = spans
            while len(self.traces) > self.max_traces:
                oldest = next(iter(self.traces))
                del self.traces[oldest]
        if self.sink is not None:
            self.sink.export(spans)

    # -- cross-thread propagation ------------------------------------------------

    def capture(self):
        return (self, self.current())

    def adopt(self, spn) -> None:
        self._stack().append(spn if spn is not None else NOOP_SPAN)

    def release(self, spn) -> None:
        stack = self._stack()
        if stack:
            stack.pop()


# ---------------------------------------------------------------------------
# The module-level switchboard (what instrumentation sites call)
# ---------------------------------------------------------------------------

_ACTIVE: Tracer | None = None


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install *tracer* process-wide; returns the previous one."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, tracer
    return previous


def get_tracer() -> Tracer | None:
    return _ACTIVE


def enable(sample_rate: float = 1.0, clock=None, sink=None,
           seed: int = 0, max_traces: int = 64) -> Tracer:
    """Install (and return) a fresh tracer with the given policy."""
    tracer = Tracer(sample_rate=sample_rate, clock=clock, sink=sink,
                    seed=seed, max_traces=max_traces)
    set_tracer(tracer)
    return tracer


def disable() -> None:
    """Return to the no-op default (and forget the active tracer)."""
    set_tracer(None)


def enabled() -> bool:
    return _ACTIVE is not None


def span(name: str, **attributes: Any):
    """Open a span — THE instrumentation entry point.

    Disabled fast path: one global read, one return.  No allocation,
    no lock, no clock read.
    """
    tracer = _ACTIVE
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, **attributes)


def current_span():
    """The active span on this thread (the no-op span when none)."""
    tracer = _ACTIVE
    if tracer is None:
        return NOOP_SPAN
    current = tracer.current()
    return current if current is not None else NOOP_SPAN


def current_trace_id() -> str | None:
    """The active trace id on this thread, or ``None``."""
    tracer = _ACTIVE
    if tracer is None:
        return None
    current = tracer.current()
    return current.trace_id if current is not None else None


def annotate(**attributes: Any) -> None:
    """Attach attributes to the current span (no-op when none)."""
    tracer = _ACTIVE
    if tracer is None:
        return
    current = tracer.current()
    if current is not None:
        current.annotate(**attributes)


def capture_context():
    """Freeze this thread's tracing context for another thread.

    Returns an opaque token; hand it to :func:`use_context` inside the
    worker.  Cheap and safe to call when tracing is disabled.
    """
    tracer = _ACTIVE
    if tracer is None:
        return _NO_CONTEXT
    return tracer.capture()


class use_context:
    """Context manager installing a captured tracing context.

    The worker pool wraps each job in ``with use_context(token):`` so
    spans opened on the worker thread parent under the span that was
    current on the *submitting* thread.
    """

    __slots__ = ("_token",)

    def __init__(self, token) -> None:
        self._token = token

    def __enter__(self) -> None:
        tracer, spn = self._token
        if tracer is not None:
            tracer.adopt(spn)
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer, spn = self._token
        if tracer is not None:
            tracer.release(spn)
        return None
