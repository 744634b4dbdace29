"""The run's trace context and its event log.

The paper instrumented a *parallel* machine: per-node collectors wrote
records against their own clocks, and their value came from being
stitched into one machine-wide picture (§2.5).  A traced run here keeps
the same shape of record: one event stream, stamped with its identity
and a clock calibration, which :mod:`repro.obs.timeline` lays out.

A :class:`TraceContext` identifies one stream inside one observed run:

- ``run_id`` — the run's id;
- ``span_id`` — the stream's synthetic root span;
- ``parent_span_id`` — the span this stream hangs under (empty for a
  run's own stream; set in reports whose nested streams came from
  worker processes);
- ``worker`` — a human label (``main``, ``service``);
- ``epoch0``/``perf0`` — a wall-clock/monotonic-clock calibration pair
  taken at stream creation.  ``time.perf_counter()`` is monotonic but
  process-local; recording the stream's offset lets
  :mod:`repro.obs.timeline` place streams on one shared clock
  (``t_abs = epoch0 + (t - perf0)``) without trusting the wall clock
  for intra-process ordering.

A :class:`TraceLog` is the event stream itself, and the run's only
event log: span begin/end records emitted by
:class:`~repro.obs.collector._SpanHandle` and anything else recorded
through :meth:`~repro.obs.collector.Observer.event`.  It is bounded:
once full it evicts its oldest event, so its tail always holds the
latest events — what a crashed run was doing in its final moments.
:meth:`~repro.obs.collector.Observer.trace_payload` freezes it into the
run report (schema v3).
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


class TraceLog:
    """One process's causally-annotated, clock-calibrated event stream."""

    __slots__ = (
        "context", "capacity", "events", "n_dropped", "_open", "_seq",
        "_prefix",
    )

    def __init__(
        self, context: TraceContext, capacity: int = DEFAULT_CAPACITY
    ) -> None:
        if capacity <= 0:
            raise ValueError("trace log capacity must be positive")
        self.context = context
        self.capacity = capacity
        self.events: deque[dict] = deque(maxlen=capacity)
        self.n_dropped = 0
        self._open: list[str] = []
        self._seq = 0
        self._prefix = context.span_id.rsplit(":", 1)[0]

    # -- ids and causal position ----------------------------------------------

    def new_span_id(self) -> str:
        """A stream-unique span id."""
        self._seq += 1
        return f"{self._prefix}:{self._seq}"

    def current_span(self) -> str:
        """The innermost open span — the parent of the next one."""
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

    # -- serialization --------------------------------------------------------

    def payload(self) -> dict:
        """The stream as plain JSON."""
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
        }
