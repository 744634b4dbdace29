"""Opt-in background time-series sampler for observed runs.

Spans and counters answer *where the time went*; they cannot answer
*what the process looked like while it went there* — whether RSS climbed
monotonically through a streaming run, whether the CPU sat idle waiting
on I/O, when a counter's growth rate changed.  The sampler fills
that gap: a daemon thread wakes at a fixed period and appends one sample
— current RSS, cumulative CPU time, every gauge value, and the delta of
every counter since the previous sample — to a bounded ring buffer.

The ring keeps memory constant on runs of any length (the same
bounded-buffer discipline the paper's per-node collectors used, §2.5);
``n_dropped`` records how much history was evicted.  The flush lands in
the :class:`~repro.obs.report.RunReport` ``timeseries`` field (schema
v2), so exporters and the regression gate see it like any other metric.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque

from repro.obs.collector import Observer

#: default sampling period, seconds
DEFAULT_PERIOD_S = 0.5

#: default ring capacity (samples)
DEFAULT_CAPACITY = 720

#: schema version of the flushed ``timeseries`` payload
TIMESERIES_VERSION = 1


def current_rss_bytes() -> int:
    """Resident set size right now, in bytes (0 when unknowable).

    Unlike :func:`repro.obs.collector.peak_rss_bytes` (the high-water
    mark), this reads the *current* value, so a falling RSS is visible.
    """
    try:
        with open("/proc/self/statm") as fh:
            fields = fh.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):  # pragma: no cover - non-Linux
        return 0


class Sampler:
    """Samples one observer's process state on a fixed period."""

    def __init__(
        self,
        observer: Observer,
        period_s: float = DEFAULT_PERIOD_S,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if period_s <= 0:
            raise ValueError("sampling period must be positive")
        if capacity <= 0:
            raise ValueError("sampler capacity must be positive")
        self.observer = observer
        self.period_s = float(period_s)
        self.capacity = capacity
        self._ring: deque[dict] = deque(maxlen=capacity)
        self._n_samples = 0
        self._last_counters: dict[str, float] = {}
        self._t0 = time.perf_counter()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        # peek() is served from the daemon's HTTP request threads while
        # the sampling thread appends: every ring/counter access is
        # locked so a scrape never sees (or trips over) a half-applied
        # sample — list(deque) raises RuntimeError if the deque mutates
        # mid-iteration
        self._lock = threading.Lock()

    # -- sampling -------------------------------------------------------------

    def sample_once(self) -> dict:
        """Take one sample immediately (the thread body; also testable)."""
        counters = dict(self.observer.counters)  # atomic under the GIL
        with self._lock:
            deltas = {
                name: value - self._last_counters.get(name, 0)
                for name, value in counters.items()
                if value != self._last_counters.get(name, 0)
            }
            self._last_counters = counters
            sample = {
                "t_s": round(time.perf_counter() - self._t0, 6),
                "rss_bytes": current_rss_bytes(),
                "cpu_s": time.process_time(),
                "gauges": dict(self.observer.gauges),
                "counter_deltas": deltas,
            }
            self._ring.append(sample)
            self._n_samples += 1
        return sample

    def _loop(self) -> None:
        while not self._stop.wait(self.period_s):
            self.sample_once()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "Sampler":
        """Begin sampling on a daemon thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="repro-obs-sampler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the sampling thread (idempotent, joins briefly)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=max(1.0, 2 * self.period_s))
            self._thread = None

    @property
    def n_dropped(self) -> int:
        """Samples evicted from the ring."""
        return self._n_samples - len(self._ring)

    def peek(self) -> dict:
        """The ring contents *without* stopping the sampling thread.

        The trace service's ``/metrics`` reads this mid-run from HTTP
        request threads; the snapshot is taken under the sampling lock,
        so a concurrent :meth:`sample_once`, :meth:`flush`, or
        :meth:`stop` can never tear it.
        """
        with self._lock:
            return {
                "version": TIMESERIES_VERSION,
                "period_s": self.period_s,
                "capacity": self.capacity,
                "n_samples": self._n_samples,
                "n_dropped": self._n_samples - len(self._ring),
                "samples": list(self._ring),
            }

    def flush(self) -> dict:
        """Stop sampling and return the ``timeseries`` report payload.

        Always takes one final sample so even a run shorter than the
        period leaves a data point.
        """
        self.stop()
        self.sample_once()
        return self.peek()
