"""Log-bucketed histograms for distribution-valued metrics.

Counters say *how much*, gauges say *how much right now*; neither says
how a quantity was *distributed* — and the paper's headline results are
distributions (request sizes, Figure 4; interval sizes, Table 2).  A
:class:`Histogram` gives the observability layer the same vocabulary for
its own measurements: span durations, CFS request sizes, per-chunk
decode times, disk-op latencies.

Design constraints, in order:

1. **Fixed buckets.** Buckets are geometric intervals of a
   *class-level* base — never per-instance — so any two histograms of
   the same quantity, from two runs or two reports, have comparable
   buckets.  ``count``, ``sum``, ``min`` and ``max`` are exact.
2. **Sparse and cheap.** A bucket is a dict entry created on first hit;
   recording is one ``log``, one ``floor``, one dict update.  The JSON
   form is a plain dict, so a run report carries it as-is.
3. **Bounded-error quantiles.** The true q-quantile provably lies in
   the returned bucket, so every estimate carries a relative-error
   bound of one bucket width (``BASE`` — about 19% with the default
   quarter-power-of-two buckets).
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

#: geometric bucket growth factor: four buckets per power of two.
#: Class-level (not per-instance) so any two histograms line up.
BASE = 2.0 ** 0.25

_LOG_BASE = math.log(BASE)


def bucket_index(value: float) -> int:
    """The bucket holding ``value`` (> 0): index ``i`` covers
    ``[BASE**i, BASE**(i+1))``."""
    return math.floor(math.log(value) / _LOG_BASE)


class Histogram:
    """A sparse histogram over geometric buckets, exact at the margins.

    Non-positive samples (a zero-byte request, a clock that did not
    advance) land in a dedicated *zero bucket* rather than distorting
    the geometric range; ``min``/``max``/``sum``/``count`` remain exact
    over every sample recorded.
    """

    __slots__ = ("count", "sum", "min", "max", "zero", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        #: samples <= 0 (kept out of the log-spaced buckets)
        self.zero = 0
        #: bucket index -> sample count
        self.buckets: dict[int, int] = {}

    # -- recording ------------------------------------------------------------

    def add(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self.zero += 1
            return
        idx = math.floor(math.log(value) / _LOG_BASE)
        self.buckets[idx] = self.buckets.get(idx, 0) + 1

    def add_many(self, values: Iterable[float] | np.ndarray) -> None:
        """Record a batch of samples (vectorized for numpy arrays)."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            return
        self.count += int(arr.size)
        self.sum += float(arr.sum())
        self.min = min(self.min, float(arr.min()))
        self.max = max(self.max, float(arr.max()))
        positive = arr[arr > 0.0]
        self.zero += int(arr.size - positive.size)
        if positive.size:
            idx = np.floor(np.log(positive) / _LOG_BASE).astype(np.int64)
            uniq, counts = np.unique(idx, return_counts=True)
            for i, c in zip(uniq.tolist(), counts.tolist()):
                self.buckets[i] = self.buckets.get(i, 0) + c

    # -- quantiles ------------------------------------------------------------

    def quantile_bounds(self, q: float) -> tuple[float, float]:
        """``(lo, hi)`` bracketing the true q-quantile.

        The true quantile — ``sorted(samples)[ceil(q*n) - 1]`` — lies in
        ``[lo, hi]``; for samples in a geometric bucket the bounds are
        one bucket apart, so ``hi / lo <= BASE`` up to the exact-min/max
        clamp.
        """
        if self.count == 0:
            raise ValueError("empty histogram has no quantiles")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        rank = max(1, math.ceil(q * self.count))
        cum = self.zero
        if cum >= rank:
            return (min(self.min, 0.0), 0.0)
        for idx in sorted(self.buckets):
            cum += self.buckets[idx]
            if cum >= rank:
                lo = BASE ** idx
                hi = BASE ** (idx + 1)
                return (max(lo, self.min) if self.min > 0 else lo,
                        min(hi, self.max))
        # unreachable unless counts are inconsistent
        return (self.min, self.max)  # pragma: no cover

    def quantile(self, q: float) -> float:
        """A point estimate of the q-quantile (the bracket's upper end,
        so the estimate never understates a latency)."""
        return self.quantile_bounds(q)[1]

    # -- export views ---------------------------------------------------------

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_edge, cumulative_count)`` pairs, Prometheus-style.

        Starts with the zero bucket (``le=0``) when occupied; the final
        implicit ``+Inf`` bucket is the total ``count``.
        """
        out: list[tuple[float, int]] = []
        cum = 0
        if self.zero:
            cum = self.zero
            out.append((0.0, cum))
        for idx in sorted(self.buckets):
            cum += self.buckets[idx]
            out.append((BASE ** (idx + 1), cum))
        return out

    @property
    def mean(self) -> float:
        """Arithmetic mean of all samples (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-JSON form (bucket keys become strings)."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "zero": self.zero,
            "buckets": {str(i): self.buckets[i] for i in sorted(self.buckets)},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        h = cls()
        h.count = int(payload.get("count", 0))
        h.sum = float(payload.get("sum", 0.0))
        if h.count:
            h.min = float(payload.get("min", 0.0))
            h.max = float(payload.get("max", 0.0))
        h.zero = int(payload.get("zero", 0))
        h.buckets = {int(k): int(v) for k, v in payload.get("buckets", {}).items()}
        return h

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.count:
            return "Histogram(empty)"
        return (
            f"Histogram(n={self.count}, min={self.min:.4g}, "
            f"max={self.max:.4g}, mean={self.mean:.4g})"
        )
