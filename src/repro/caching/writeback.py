"""Write-behind policies at the I/O nodes.

§5 points to Kotz & Ellis's write-back study when calling for better
buffer management ("Replacement policies other than LRU or FIFO should
be developed (e.g., [19])").  That work compared when a dirty buffer
should go to disk:

- **write-through** — every write request goes straight to disk;
- **write-back** — a dirty block is written only when evicted (or at
  file close / end of trace);
- **WriteFull** — a dirty block is written as soon as it is completely
  full (every byte dirtied), which for sequential small writes is the
  moment the writer moves past it; eviction and close flush stragglers.

On this workload's dominant pattern — streams of sub-block sequential
writes — write-through hits the disk once per *request*, while the
delayed policies hit it once per *block*, with WriteFull getting the
data out almost as promptly as write-through.  This module measures disk
write operations and busy time for all three.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.caching.io_node import _node_capacities
from repro.caching.policies import LRUPolicy
from repro.errors import CacheConfigError
from repro.machine.disk import Disk
from repro.trace.frame import TraceFrame
from repro.trace.records import EventKind
from repro.util.units import BLOCK_SIZE

POLICIES = ("write-through", "write-back", "write-full")


@dataclass(frozen=True)
class WritebackResult:
    """Disk write activity under one write policy."""

    policy: str
    write_requests: int
    disk_writes: int
    bytes_written_to_disk: int
    disk_busy_seconds: float

    @property
    def writes_per_request(self) -> float:
        """Disk writes per application write request (lower is better)."""
        if self.write_requests == 0:
            return 0.0
        return self.disk_writes / self.write_requests


class _DirtyTracker:
    """Dirty-byte accounting per cached block, for WriteFull detection."""

    def __init__(self) -> None:
        self.dirty: dict[tuple[int, int], int] = {}  # key -> dirty byte count

    def add(self, key: tuple[int, int], nbytes: int) -> bool:
        """Record dirty bytes; True when the block just became full.

        Byte counts saturate at the block size (overwrites of the same
        range cannot be distinguished without byte maps; for the
        workload's non-overlapping sequential writes this is exact).
        """
        cur = self.dirty.get(key, 0)
        new = min(cur + nbytes, BLOCK_SIZE)
        self.dirty[key] = new
        return cur < BLOCK_SIZE <= new

    def pop(self, key: tuple[int, int]) -> int:
        """Remove and return a block's dirty byte count."""
        return self.dirty.pop(key, 0)


def simulate_writeback(
    frame: TraceFrame,
    total_buffers: int,
    policy: str = "write-back",
    n_io_nodes: int = 10,
) -> WritebackResult:
    """Replay the trace's writes under one write policy.

    Reads flow through the caches too (competing for buffers) but only
    write-side disk activity is reported.
    """
    if policy not in POLICIES:
        raise CacheConfigError(f"unknown write policy {policy!r}; choose from {POLICIES}")
    if total_buffers < 0:
        raise CacheConfigError("total_buffers must be non-negative")

    tr = frame.transfers
    if len(tr) == 0:
        raise CacheConfigError("no transfers in trace")
    with obs.span("caching/writeback"):
        d = Disk()
        caches = [_EvictionLRU(cap) for cap in _node_capacities(total_buffers, n_io_nodes)]
        dirty = _DirtyTracker()

        write_kind = int(EventKind.WRITE)
        write_requests = 0
        disk_writes = 0
        disk_bytes = 0
        busy = 0.0

        def flush(key: tuple[int, int], sequential: bool = False) -> None:
            nonlocal disk_writes, disk_bytes, busy
            nbytes = dirty.pop(key)
            if nbytes == 0:
                return
            disk_writes += 1
            disk_bytes += nbytes
            busy += d.service_time(nbytes, sequential=sequential)

        for row in tr:
            size = int(row["size"])
            if size <= 0:
                continue
            off = int(row["offset"])
            f = int(row["file"])
            is_write = int(row["kind"]) == write_kind
            b0 = off // BLOCK_SIZE
            b1 = (off + size - 1) // BLOCK_SIZE
            if is_write:
                write_requests += 1
            for b in range(b0, b1 + 1):
                io = b % n_io_nodes
                key = (f, b)
                evicted = caches[io].touch_with_eviction(key)
                if evicted is not None and policy != "write-through":
                    flush(evicted)
                if not is_write:
                    continue
                lo = max(off, b * BLOCK_SIZE)
                hi = min(off + size, (b + 1) * BLOCK_SIZE)
                span = hi - lo
                if policy == "write-through":
                    disk_writes += 1
                    disk_bytes += span
                    busy += d.service_time(span, sequential=False)
                else:
                    became_full = dirty.add(key, span)
                    if policy == "write-full" and became_full:
                        flush(key, sequential=True)
        # end of trace: flush all remaining dirty blocks (sequential sweeps)
        if policy != "write-through":
            for key in list(dirty.dirty):
                flush(key, sequential=True)

        return WritebackResult(
            policy=policy,
            write_requests=write_requests,
            disk_writes=disk_writes,
            bytes_written_to_disk=disk_bytes,
            disk_busy_seconds=busy,
        )


class _EvictionLRU(LRUPolicy):
    """LRU that reports which key an access evicted (for dirty flushes)."""

    def touch_with_eviction(self, key) -> tuple[int, int] | None:
        if self.capacity == 0:
            return None
        if key in self._store:
            self._store.move_to_end(key)
            return None
        self._store[key] = None
        if len(self._store) > self.capacity:
            victim, _ = self._store.popitem(last=False)
            return victim
        return None


def compare_write_policies(
    frame: TraceFrame,
    total_buffers: int = 500,
    n_io_nodes: int = 10,
) -> dict[str, WritebackResult]:
    """All three write policies over the same trace."""
    return {
        policy: simulate_writeback(frame, total_buffers, policy=policy, n_io_nodes=n_io_nodes)
        for policy in POLICIES
    }
