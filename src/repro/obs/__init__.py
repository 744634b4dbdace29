"""``repro.obs`` — the self-tracing observability layer.

CHARISMA's core contribution was an instrumentation methodology whose
own cost was measured (§2.5); this package turns the same lens on the
reproduction itself.  A module-level observer singleton collects
hierarchical timed spans, monotonic counters, and gauges from every
layer — machine model, CFS, cache simulators, workload generator, and
the §4 analyzers — and freezes them into a JSON
:class:`~repro.obs.report.RunReport`.

Usage at a call site (always safe, near-zero cost when disabled)::

    from repro import obs

    with obs.span("core/characterize"):
        ...
    obs.add("core.filestats.files", n_files)
    obs.gauge("machine.clock_drift_spread_s", spread)

By default the singleton is :data:`NULL_OBSERVER` — every call is a
no-op method on a slotted object, so instrumented code paths stay
byte-identical in output and within noise in runtime (proved by
``benchmarks/bench_instrumentation_overhead.py``).  :func:`enable`
installs a live :class:`~repro.obs.collector.Observer`; the CLI does
this for ``--obs`` runs and writes the report at exit, and
``python -m repro obs show PATH`` pretty-prints one back.
"""

from __future__ import annotations

from repro.obs.collector import (
    NULL_OBSERVER,
    NullObserver,
    Observer,
    SpanNode,
    peak_rss_bytes,
)
from repro.obs.context import TraceContext, TraceLog
from repro.obs.hist import Histogram
from repro.obs.report import RunReport
from repro.obs.sampler import Sampler

__all__ = [
    "NULL_OBSERVER",
    "Histogram",
    "NullObserver",
    "Observer",
    "RunReport",
    "Sampler",
    "SpanNode",
    "TraceContext",
    "TraceLog",
    "add",
    "current",
    "disable",
    "enable",
    "enabled",
    "event",
    "gauge",
    "hist",
    "hist_many",
    "note",
    "peak_rss_bytes",
    "span",
]

#: the installed observer; NULL_OBSERVER unless :func:`enable` was called
_OBSERVER: Observer | NullObserver = NULL_OBSERVER


def current() -> Observer | NullObserver:
    """The currently installed observer."""
    return _OBSERVER


def enabled() -> bool:
    """Whether observations are being collected."""
    return _OBSERVER.enabled


def enable(context: TraceContext | None = None) -> Observer:
    """Install (and return) a fresh collecting observer.

    Passing a :class:`TraceContext` additionally opens an event stream
    (:class:`TraceLog`) so spans and events feed the run's timeline;
    without one the observer records no events.
    """
    global _OBSERVER
    _OBSERVER = Observer(context)
    return _OBSERVER


def disable() -> None:
    """Restore the no-op observer."""
    global _OBSERVER
    _OBSERVER = NULL_OBSERVER


def span(name: str):
    """Open a timed span on the installed observer (no-op when disabled)."""
    return _OBSERVER.span(name)


def add(name: str, value: int | float = 1) -> None:
    """Increment a counter on the installed observer."""
    _OBSERVER.add(name, value)


def gauge(name: str, value: float) -> None:
    """Set a gauge on the installed observer."""
    _OBSERVER.gauge(name, value)


def hist(name: str, value: float) -> None:
    """Record one histogram sample on the installed observer."""
    _OBSERVER.hist(name, value)


def hist_many(name: str, values) -> None:
    """Record a batch of histogram samples on the installed observer."""
    _OBSERVER.hist_many(name, values)


def note(name: str, text: str) -> None:
    """Attach a string annotation on the installed observer."""
    _OBSERVER.note(name, text)


def event(kind: str, name: str, **fields) -> None:
    """Record a structured event into the installed observer's trace log."""
    _OBSERVER.event(kind, name, **fields)
