"""Cross-process trace-context propagation.

The paper instrumented a *parallel* machine: per-node collectors wrote
records whose value came from being stitched into one machine-wide
picture (§2.5).  Since PR 7 this reproduction fans work out the same way
— pool tasks and stolen tasks — but each worker's
observations came back as an isolated snapshot blob with no causal
thread back to the dispatch that created it.  This module adds that
thread.

A :class:`TraceContext` identifies one *process's* event stream inside
one observed run:

- ``run_id`` — shared by every process of the run;
- ``span_id`` — the stream's synthetic root span (the worker's task
  execution), unique across processes;
- ``parent_span_id`` — the span open in the *dispatching* process when
  this worker was handed its task, i.e. the causal parent;
- ``worker`` — a human label (``main``, ``w3``, ``pid1234``);
- ``epoch0``/``perf0`` — a wall-clock/monotonic-clock calibration pair
  taken at stream creation.  ``time.perf_counter()`` is monotonic but
  process-local; recording each stream's offset lets
  :mod:`repro.obs.timeline` place all streams on one shared clock
  (``t_abs = epoch0 + (t - perf0)``) without trusting the wall clock
  for intra-process ordering.

The context crosses process boundaries as a small picklable *wire*
dict (:meth:`TraceContext.handoff` → :meth:`TraceContext.adopt`):
the parent stamps the causal parent span and a per-fan-out batch token,
the child stamps its own calibration.  Dispatch→start, steal→start and
result→merge events on both sides share ``key`` fields derived from the
batch token, which is how the timeline draws its happens-before edges.

A :class:`TraceLog` is the per-process event stream itself, and the
run's only event log: span begin/end records emitted by
:class:`~repro.obs.collector._SpanHandle`, the scheduler's semantic
events (``dispatch``, ``task_start``, ``steal``, ``requeue``,
``merge``, ...) and anything else recorded through
:meth:`~repro.obs.collector.Observer.event`.  It is bounded: once full
it evicts its oldest event, so its tail always holds the latest events
— what a crashed run was doing in its final moments.  Worker logs travel
back to the parent inside the observer snapshot and nest as
``children`` of the parent's log;
:meth:`~repro.obs.collector.Observer.trace_payload` freezes the whole
tree into the run report (schema v3).
"""

from __future__ import annotations

import os
import time
import uuid
from collections import deque
from dataclasses import dataclass

#: schema version of a trace stream payload
TRACE_VERSION = 1

#: default per-stream event capacity; past it the oldest events are
#: evicted (and counted in ``n_dropped``)
DEFAULT_CAPACITY = 200_000


def _calibrate() -> tuple[float, float]:
    """A (wall clock, monotonic clock) pair read back to back."""
    return time.time(), time.perf_counter()


def _fresh_prefix() -> str:
    return uuid.uuid4().hex[:8]


@dataclass
class TraceContext:
    """Identity, causal parent, and clock calibration of one stream."""

    run_id: str
    span_id: str
    parent_span_id: str
    worker: str
    epoch0: float
    perf0: float

    @classmethod
    def root(cls, worker: str = "main") -> "TraceContext":
        """A fresh context for the process that owns the run."""
        epoch0, perf0 = _calibrate()
        return cls(
            run_id=uuid.uuid4().hex[:12],
            span_id=f"{_fresh_prefix()}:0",
            parent_span_id="",
            worker=worker,
            epoch0=epoch0,
            perf0=perf0,
        )

    def handoff(self, parent_span_id: str, batch: str) -> dict:
        """The picklable wire form a dispatching process hands a worker.

        ``parent_span_id`` is the span open at dispatch time (the causal
        parent of everything the worker records); ``batch`` is a token
        unique to one fan-out, shared by the edge ``key`` fields on both
        sides of the process boundary.
        """
        return {
            "version": TRACE_VERSION,
            "run_id": self.run_id,
            "parent_span_id": parent_span_id,
            "batch": batch,
        }

    @classmethod
    def adopt(cls, wire: dict, worker: str) -> "TraceContext":
        """Build a worker's context from a :meth:`handoff` wire dict,
        stamping the worker's own clock calibration."""
        epoch0, perf0 = _calibrate()
        return cls(
            run_id=str(wire["run_id"]),
            span_id=f"{_fresh_prefix()}:0",
            parent_span_id=str(wire["parent_span_id"]),
            worker=worker,
            epoch0=epoch0,
            perf0=perf0,
        )


class TraceLog:
    """One process's causally-annotated, clock-calibrated event stream."""

    __slots__ = (
        "context", "capacity", "events", "children", "n_dropped",
        "_open", "_seq", "_prefix",
    )

    def __init__(
        self, context: TraceContext, capacity: int = DEFAULT_CAPACITY
    ) -> None:
        if capacity <= 0:
            raise ValueError("trace log capacity must be positive")
        self.context = context
        self.capacity = capacity
        self.events: deque[dict] = deque(maxlen=capacity)
        #: payloads of worker streams folded back through snapshot merge
        self.children: list[dict] = []
        self.n_dropped = 0
        self._open: list[str] = []
        self._seq = 0
        self._prefix = context.span_id.rsplit(":", 1)[0]

    # -- ids and causal position ----------------------------------------------

    def new_span_id(self) -> str:
        """A stream-unique span id (also used as fan-out batch tokens)."""
        self._seq += 1
        return f"{self._prefix}:{self._seq}"

    def current_span(self) -> str:
        """The innermost open span — the causal parent for new work."""
        return self._open[-1] if self._open else self.context.span_id

    # -- recording ------------------------------------------------------------

    def record(self, ev: str, name: str, **fields) -> None:
        """Append one event stamped with this process's monotonic clock,
        evicting the oldest when the log is full."""
        if len(self.events) == self.capacity:
            self.n_dropped += 1
        event = {"ev": ev, "name": name, "t": time.perf_counter()}
        if fields:
            event.update(fields)
        self.events.append(event)

    def begin_span(self, name: str) -> str:
        """Record a span begin ("B") and push it on the open stack."""
        sid = self.new_span_id()
        self.record("B", name, span=sid, parent=self.current_span())
        self._open.append(sid)
        return sid

    def end_span(self, name: str, error: str | None = None) -> None:
        """Record the end ("E") of the innermost open span."""
        sid = self._open.pop() if self._open else self.context.span_id
        if error is not None:
            self.record("E", name, span=sid, error=error)
        else:
            self.record("E", name, span=sid)

    def add_child(self, payload: dict) -> None:
        """Nest a worker stream's payload under this log."""
        self.children.append(payload)

    # -- serialization --------------------------------------------------------

    def payload(self) -> dict:
        """The stream (and its nested worker streams) as plain JSON."""
        ctx = self.context
        return {
            "version": TRACE_VERSION,
            "run_id": ctx.run_id,
            "worker": ctx.worker,
            "pid": os.getpid(),
            "root_span": ctx.span_id,
            "parent_span": ctx.parent_span_id,
            "epoch0": ctx.epoch0,
            "perf0": ctx.perf0,
            "n_dropped": self.n_dropped,
            "events": list(self.events),
            "children": list(self.children),
        }
