"""Span/counter collection for the self-tracing observability layer.

The paper's own methodology (§2.5) insisted that the tracing system
measure *itself* — buffered records, counted messages, benchmarked
overhead.  :class:`Observer` applies the same discipline to this
reproduction: hierarchical timed spans (wall + CPU clock per subtree),
monotonic counters, last-write gauges, histograms and string notes,
frozen into a :class:`~repro.obs.report.RunReport` at the end of a run.

:class:`NullObserver` is the disabled twin: every operation is a no-op
method on a slotted singleton, so instrumented call sites cost one
attribute lookup and one call when observation is off — the property
``benchmarks/bench_instrumentation_overhead.py`` measures the same way
the paper measured CHARISMA's overhead.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

try:  # pragma: no cover - absent only on non-POSIX platforms
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]

import sys

from repro.obs.context import TraceContext, TraceLog
from repro.obs.hist import Histogram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.sampler import Sampler


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes (0 if unknown).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; both are
    normalized here.
    """
    if resource is None:  # pragma: no cover - Windows
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        return int(peak)
    return int(peak) * 1024


class SpanNode:
    """One node of the merged span tree.

    Repeated entries of the same span name under the same parent fold
    into one node (``count`` tracks how many times it was entered), so
    per-job or per-figure spans stay bounded regardless of scale.
    """

    __slots__ = ("name", "count", "wall_s", "cpu_s", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.children: dict[str, SpanNode] = {}

    def child(self, name: str) -> "SpanNode":
        """Get-or-create the named child node."""
        node = self.children.get(name)
        if node is None:
            node = SpanNode(name)
            self.children[name] = node
        return node

    def n_nodes(self) -> int:
        """Distinct span nodes in this subtree (excluding self)."""
        return sum(1 + c.n_nodes() for c in self.children.values())

    def n_entries(self) -> int:
        """Total span entries recorded in this subtree (excluding self)."""
        return sum(c.count + c.n_entries() for c in self.children.values())

    def to_dict(self) -> dict:
        """Plain-JSON form (recursively)."""
        return {
            "name": self.name,
            "count": self.count,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "children": [c.to_dict() for c in self.children.values()],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SpanNode":
        """Rebuild a subtree from :meth:`to_dict` output."""
        node = cls(str(payload["name"]))
        node.count = int(payload.get("count", 0))
        node.wall_s = float(payload.get("wall_s", 0.0))
        node.cpu_s = float(payload.get("cpu_s", 0.0))
        for child in payload.get("children", ()):
            sub = cls.from_dict(child)
            node.children[sub.name] = sub
        return node


class _SpanHandle:
    """Context manager timing one entry of one span."""

    __slots__ = ("_observer", "_name", "_node", "_w0", "_c0")

    def __init__(self, observer: "Observer", name: str) -> None:
        self._observer = observer
        self._name = name

    def __enter__(self) -> SpanNode:
        observer = self._observer
        stack = observer._stack
        self._node = stack[-1].child(self._name)
        stack.append(self._node)
        tracelog = observer.tracelog
        if tracelog is not None:
            tracelog.begin_span(self._name)
        self._w0 = time.perf_counter()
        self._c0 = time.process_time()
        return self._node

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = time.perf_counter() - self._w0
        self._node.wall_s += wall
        self._node.cpu_s += time.process_time() - self._c0
        self._node.count += 1
        observer = self._observer
        stack = observer._stack
        if stack[-1] is self._node:
            stack.pop()
        elif self._node in stack:  # pragma: no cover - unbalanced exits
            del stack[stack.index(self._node):]
        observer.hist(f"span.{self._name}.seconds", wall)
        tracelog = observer.tracelog
        if tracelog is not None:
            tracelog.end_span(
                self._name,
                error=exc_type.__name__ if exc_type is not None else None,
            )
        return False


class Observer:
    """A live per-run collector of spans, counters, gauges and histograms."""

    enabled = True

    def __init__(self, context: TraceContext | None = None) -> None:
        self.root = SpanNode("run")
        self._stack: list[SpanNode] = [self.root]
        self.counters: dict[str, int | float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self.notes: dict[str, str] = {}
        #: optional background time-series sampler (attached by the CLI)
        self.sampler: Sampler | None = None
        #: the run's event stream, its only event log; None unless a
        #: TraceContext was supplied (the CLI's --obs path and the
        #: service daemon do)
        self.tracelog: TraceLog | None = (
            TraceLog(context) if context is not None else None
        )
        self.started_at = time.time()
        self._w0 = time.perf_counter()
        self._c0 = time.process_time()

    def span(self, name: str) -> _SpanHandle:
        """Open a timed span nested under the currently open span."""
        return _SpanHandle(self, name)

    def add(self, name: str, value: int | float = 1) -> None:
        """Increment a monotonic counter."""
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set a point-in-time gauge (last write wins)."""
        self.gauges[name] = float(value)

    def hist(self, name: str, value: float) -> None:
        """Record one sample into the named histogram."""
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram()
        h.add(value)

    def hist_many(self, name: str, values) -> None:
        """Record a batch of samples (vectorized for numpy arrays)."""
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram()
        h.add_many(values)

    def note(self, name: str, text: str) -> None:
        """Attach a short string annotation (last write wins)."""
        self.notes[name] = str(text)

    def event(self, kind: str, name: str, **fields) -> None:
        """Record a structured event into the trace log, if any."""
        tracelog = self.tracelog
        if tracelog is not None:
            tracelog.record(kind, name, **fields)

    def trace_payload(self) -> dict:
        """The run's trace stream, or ``{}`` when the run is untraced."""
        if self.tracelog is None:
            return {}
        return self.tracelog.payload()

    # -- finalization ---------------------------------------------------------

    def report(self, command: list[str] | None = None,
               timeseries: dict | None = None):
        """Freeze the run into a serializable :class:`~repro.obs.report.RunReport`.

        ``timeseries`` is a flushed :class:`~repro.obs.sampler.Sampler`
        payload (empty when the run sampled nothing).
        """
        from repro.obs.report import RunReport

        return RunReport(
            command=list(command) if command else [],
            started_at=self.started_at,
            wall_s=time.perf_counter() - self._w0,
            cpu_s=time.process_time() - self._c0,
            peak_rss_bytes=peak_rss_bytes(),
            spans=self.root.to_dict(),
            counters={k: self.counters[k] for k in sorted(self.counters)},
            gauges={k: self.gauges[k] for k in sorted(self.gauges)},
            histograms={
                k: self.histograms[k].to_dict() for k in sorted(self.histograms)
            },
            notes={k: self.notes[k] for k in sorted(self.notes)},
            timeseries=dict(timeseries) if timeseries else {},
            trace=self.trace_payload(),
        )


class _NullSpan:
    """Reusable do-nothing context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullObserver:
    """The disabled observer: every operation is a cheap no-op."""

    __slots__ = ()
    enabled = False
    sampler = None
    tracelog = None

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def add(self, name: str, value: int | float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def hist(self, name: str, value: float) -> None:
        pass

    def hist_many(self, name: str, values) -> None:
        pass

    def note(self, name: str, text: str) -> None:
        pass

    def event(self, kind: str, name: str, **fields) -> None:
        pass


NULL_OBSERVER = NullObserver()
