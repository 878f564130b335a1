"""Hierarchical tracing: spans, events, and per-request trace trees.

The pattern (TVM's profiler, OpenTelemetry, Chrome's trace-event model):
**one** set of hooks emits a low-overhead event stream; **many**
consumers — Chrome/Perfetto trace viewers, metrics, cost models, tests —
read it.  A :class:`Span` is a named interval with monotonic start/end
timestamps, key/value attributes, point-in-time events and a terminal
status; spans nest through ``parent_id`` into trees grouped by
``trace_id``.  The serving layer mints one trace per request at
``submit()`` and one per flush, so a chaos run can assert "every request
ends with exactly one closed root span" and a latency investigation can
load the whole request timeline into ``chrome://tracing``.

Design constraints:

* **Disabled = free.**  Callers hold ``Optional[Tracer]`` and guard with
  ``if tracer is not None``; a server without a tracer pays one pointer
  comparison per hook.
* **Bounded.**  Finished spans live in a ring buffer (``max_spans``);
  a long-running server keeps the most recent window, never grows.
* **Deterministic ids.**  Trace/span ids are counters, not randomness,
  so seeded chaos runs produce identical trace structures.
* **Injectable time.**  The tracer's :class:`~repro.obs.clock.Clock` is
  the same protocol the circuit breaker takes; one
  :class:`~repro.obs.clock.FakeClock` drives both in tests.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from .clock import SYSTEM_CLOCK, Clock

#: terminal span statuses the serving layer uses; any string is legal —
#: these are the conventional vocabulary tests and exporters key on
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_CANCELLED = "cancelled"
STATUS_DEADLINE = "deadline_exceeded"
STATUS_SHED = "shed"
STATUS_UNSET = "unset"


class SpanEvent:
    """A point-in-time annotation on a span (isolation, cancellation, ...)."""

    __slots__ = ("name", "t", "attributes")

    def __init__(self, name: str, t: float,
                 attributes: Optional[Dict[str, object]] = None):
        self.name = name
        self.t = t
        self.attributes = attributes or {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SpanEvent({self.name!r}, t={self.t:.6f})"


class Span:
    """One named interval in a trace tree.

    Created through :meth:`Tracer.start_span`; closed exactly once with
    :meth:`end` (or the context-manager protocol, which also flips the
    status to ``error`` when an exception escapes the block).  All
    mutation is owned by the recording side — consumers only read
    finished spans out of the tracer.
    """

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start_t",
                 "end_t", "status", "attributes", "events", "thread_id",
                 "_tracer")

    def __init__(self, tracer: "Tracer", name: str, trace_id: str,
                 span_id: str, parent_id: Optional[str], start_t: float,
                 attributes: Optional[Dict[str, object]] = None):
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_t = start_t
        self.end_t: Optional[float] = None
        self.status = STATUS_UNSET
        self.attributes: Dict[str, object] = dict(attributes or {})
        self.events: List[SpanEvent] = []
        self.thread_id = threading.get_ident()

    # -- recording ---------------------------------------------------------
    def set_attribute(self, key: str, value: object) -> "Span":
        self.attributes[key] = value
        return self

    def add_event(self, name: str, **attributes: object) -> "Span":
        """Record a point-in-time event at the tracer's current clock."""
        self.events.append(SpanEvent(name, self._tracer._now(), attributes))
        return self

    def end(self, status: str = STATUS_OK) -> "Span":
        """Close the span (idempotent: a second end is ignored)."""
        if self.end_t is None:
            self.end_t = self._tracer._now()
            self.status = status
            self._tracer._finish(self)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and self.end_t is None:
            self.set_attribute("exception", exc_type.__name__)
            self.end(STATUS_ERROR)
        else:
            self.end()

    # -- reading -----------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self.end_t is not None

    @property
    def duration_s(self) -> float:
        if self.end_t is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end_t - self.start_t

    @property
    def terminal_event(self) -> Optional[str]:
        """Name of the last recorded event (the lifecycle outcome marker)."""
        return self.events[-1].name if self.events else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (f"closed {self.status}" if self.closed else "open")
        return (f"Span({self.name!r}, trace={self.trace_id}, "
                f"id={self.span_id}, {state})")


class Tracer:
    """Produces spans; stores the finished ones in a bounded ring.

    Thread-safe: the serving worker records while callers export.  Trace
    and span ids are minted from counters (deterministic under a fixed
    workload), and every timestamp comes from the injected
    :class:`~repro.obs.clock.Clock` — pass a
    :class:`~repro.obs.clock.FakeClock` to pin the whole timeline.
    """

    def __init__(self, *, clock: Clock = SYSTEM_CLOCK,
                 max_spans: int = 65536):
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self._clock = clock
        self._lock = threading.Lock()
        self._trace_counter = 0
        self._span_counter = 0
        self._finished: Deque[Span] = deque(maxlen=max_spans)
        #: span_id -> span, for spans started but not yet ended
        self._open: Dict[str, Span] = {}
        #: standalone instant events (breaker trips, config changes)
        self._instants: Deque[SpanEvent] = deque(maxlen=max_spans)
        #: finished spans dropped off the ring (exporters can report it)
        self.dropped = 0

    # -- time & ids --------------------------------------------------------
    def _now(self) -> float:
        return self._clock()

    def new_trace_id(self) -> str:
        with self._lock:
            self._trace_counter += 1
            return f"t{self._trace_counter:08d}"

    def _new_span_id(self) -> str:
        self._span_counter += 1
        return f"s{self._span_counter:08d}"

    # -- span lifecycle ----------------------------------------------------
    def start_span(self, name: str, *, parent: Optional[Span] = None,
                   trace_id: Optional[str] = None,
                   attributes: Optional[Dict[str, object]] = None) -> Span:
        """Open a span now.  ``parent`` nests it (and fixes its trace)."""
        if parent is not None:
            trace_id = parent.trace_id
        elif trace_id is None:
            trace_id = self.new_trace_id()
        with self._lock:
            span = Span(self, name, trace_id, self._new_span_id(),
                        parent.span_id if parent is not None else None,
                        self._now(), attributes)
            self._open[span.span_id] = span
        return span

    def add_span(self, name: str, start_t: float, end_t: float, *,
                 parent: Optional[Span] = None,
                 trace_id: Optional[str] = None,
                 status: str = STATUS_OK,
                 attributes: Optional[Dict[str, object]] = None) -> Span:
        """Record an already-measured interval as a closed span.

        For phases whose wall time is measured elsewhere (the
        linearizer's ``wall_time_s``, a :class:`~repro.pipeline
        .StageRecord`) — the span lands fully formed, never open.
        """
        if end_t < start_t:
            raise ValueError("span cannot end before it starts")
        if parent is not None:
            trace_id = parent.trace_id
        elif trace_id is None:
            trace_id = self.new_trace_id()
        with self._lock:
            span = Span(self, name, trace_id, self._new_span_id(),
                        parent.span_id if parent is not None else None,
                        start_t, attributes)
            span.end_t = end_t
            span.status = status
            self._record(span)
        return span

    def instant(self, name: str, **attributes: object) -> SpanEvent:
        """A standalone instant event (no span): breaker trips and such."""
        ev = SpanEvent(name, self._now(), attributes)
        with self._lock:
            self._instants.append(ev)
        return ev

    def _finish(self, span: Span) -> None:
        with self._lock:
            self._open.pop(span.span_id, None)
            self._record(span)

    def _record(self, span: Span) -> None:
        if len(self._finished) == self._finished.maxlen:
            self.dropped += 1
        self._finished.append(span)

    # -- reading -----------------------------------------------------------
    def finished_spans(self, trace_id: Optional[str] = None) -> List[Span]:
        with self._lock:
            spans = list(self._finished)
        if trace_id is not None:
            spans = [s for s in spans if s.trace_id == trace_id]
        return spans

    def open_spans(self) -> List[Span]:
        """Spans started but never ended — a quiescent system has none."""
        with self._lock:
            return list(self._open.values())

    def instants(self) -> List[SpanEvent]:
        with self._lock:
            return list(self._instants)

    def traces(self) -> Dict[str, List[Span]]:
        """Finished spans grouped by trace id (insertion-ordered)."""
        out: Dict[str, List[Span]] = {}
        for span in self.finished_spans():
            out.setdefault(span.trace_id, []).append(span)
        return out

    def roots(self, trace_id: str) -> List[Span]:
        """The parentless spans of one trace (a well-formed trace has 1)."""
        return [s for s in self.finished_spans(trace_id)
                if s.parent_id is None]

    def span_tree(self, trace_id: str
                  ) -> List[Tuple[Span, List[Span]]]:
        """(span, direct children) pairs for one trace, roots first."""
        spans = self.finished_spans(trace_id)
        children: Dict[Optional[str], List[Span]] = {}
        for s in spans:
            children.setdefault(s.parent_id, []).append(s)
        ordered = sorted(spans, key=lambda s: (s.parent_id is not None,
                                               s.start_t))
        return [(s, children.get(s.span_id, [])) for s in ordered]

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()
            self._instants.clear()
            self._open.clear()
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)

    # -- exporting ---------------------------------------------------------
    def export_chrome(self, *, process_name: str = "repro") -> dict:
        """The finished spans as a Chrome trace-event JSON document."""
        from .export import chrome_trace

        return chrome_trace(self.finished_spans(), self.instants(),
                            process_name=process_name)


def record_compile_report(tracer: Tracer, report,
                          *, end_t: Optional[float] = None) -> List[Span]:
    """Adapt a :class:`~repro.pipeline.CompileReport` into compile spans.

    For models compiled without a tracer (Session cache fills, artifact
    reloads): reconstructs a ``compile`` root span with one child per
    :class:`~repro.pipeline.StageRecord`, laid back-to-back ending at
    ``end_t`` (default: the tracer's current clock).  Durations are the
    stages' recorded wall times; absolute placement is synthetic.
    """
    if end_t is None:
        end_t = tracer._now()
    total = sum(r.wall_time_s for r in report.stages)
    start = end_t - total
    root = tracer.add_span(
        "compile", start, end_t,
        attributes={"model": report.model,
                    "options": report.options.summary()})
    t = start
    spans = [root]
    for rec in report.stages:
        spans.append(tracer.add_span(
            f"compile.{rec.stage}", t, t + rec.wall_time_s, parent=root,
            attributes={"stage": rec.stage}))
        t += rec.wall_time_s
    return spans
