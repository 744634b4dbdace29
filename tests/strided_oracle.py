"""The strided-run detector's reference: one element at a time.

:func:`coalesce_stream` walks a request stream element by element and
extends the current run while the request size and the start-to-start
stride stay constant.  It is the executable spec that
:func:`repro.strided.detect.coalesce_stream` (runs found by
:func:`~repro.strided.detect.coalesce_runs`) must match request for
request; the hypothesis tests in ``tests/test_equivalence.py`` check the
two on arbitrary and run-rich streams.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AnalysisError
from repro.strided.requests import StridedRequest


def coalesce_stream(
    offsets: np.ndarray, sizes: np.ndarray
) -> list[StridedRequest]:
    """Greedy maximal-run coalescing of one in-order request stream."""
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if offsets.shape != sizes.shape:
        raise AnalysisError("offsets and sizes must be parallel")
    n = len(offsets)
    if n == 0:
        return []
    runs: list[StridedRequest] = []
    start = int(offsets[0])
    size = int(sizes[0])
    stride: int | None = None
    count = 1
    for i in range(1, n):
        off = int(offsets[i])
        sz = int(sizes[i])
        step = off - (start + (count - 1) * (stride if stride is not None else 0))
        extendable = sz == size and step >= size
        if extendable and (stride is None or step == stride):
            stride = step
            count += 1
            continue
        runs.append(
            StridedRequest(offset=start, size=size, stride=stride if stride is not None else size, count=count)
        )
        start, size, stride, count = off, sz, None, 1
    runs.append(
        StridedRequest(offset=start, size=size, stride=stride if stride is not None else size, count=count)
    )
    return runs
