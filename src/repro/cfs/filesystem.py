"""The Concurrent File System proper.

:class:`ConcurrentFileSystem` is a functional CFS: a flat namespace of
striped files, a file-descriptor table, the four I/O modes, write-through
I/O-node caches, and disk-capacity accounting against the per-I/O-node
disks.  Applications in :mod:`repro.workload.apps` and the examples run
against this API; the instrumentation layer wraps it to produce traces.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.cfs.cache import BlockCache, CacheStats
from repro.cfs.file import CFSFile
from repro.cfs.modes import IOMode
from repro.cfs.striping import Striping
from repro.errors import CFSError, FileNotOpenError, ModeViolationError
from repro.machine.disk import Disk
from repro.trace.records import OpenFlags
from repro.util.units import BLOCK_SIZE


@dataclass(slots=True)
class FileHandle:
    """One open file descriptor."""

    fd: int
    file: CFSFile
    node: int
    job: int
    flags: OpenFlags
    mode: IOMode
    pointer: int = 0  # used only in mode 0
    bytes_read: int = 0
    bytes_written: int = 0
    #: permission bits resolved once at open (``flags`` never changes after)
    readable: bool = False
    writable: bool = False

    def __post_init__(self) -> None:
        self.readable = bool(self.flags & OpenFlags.READ)
        self.writable = bool(self.flags & OpenFlags.WRITE)


class ConcurrentFileSystem:
    """A CFS instance striped over ``n_io_nodes`` disks.

    Parameters
    ----------
    n_io_nodes:
        Number of I/O nodes (each gets a disk and a block cache).
    cache_buffers_per_node:
        Size of each I/O node's buffer cache, in 4 KB buffers.
    disks:
        Optional pre-built disks (e.g. the machine's); defaults to fresh
        760 MB disks.
    """

    def __init__(
        self,
        n_io_nodes: int = 10,
        block_size: int = BLOCK_SIZE,
        cache_buffers_per_node: int = 512,
        disks: list[Disk] | None = None,
    ) -> None:
        self.striping = Striping(n_io_nodes, block_size)
        self.block_size = block_size
        if disks is None:
            disks = [Disk() for _ in range(n_io_nodes)]
        if len(disks) != n_io_nodes:
            raise CFSError(
                f"{len(disks)} disks supplied for {n_io_nodes} I/O nodes"
            )
        self.disks = disks
        self.caches = [BlockCache(cache_buffers_per_node) for _ in range(n_io_nodes)]
        self._namespace: dict[str, CFSFile] = {}
        self._handles: dict[int, FileHandle] = {}
        self._next_fd = 3  # leave room for stdio, cosmetically
        self._next_fid = 0

    def _alloc_fid(self) -> int:
        fid = self._next_fid
        self._next_fid += 1
        return fid

    # -- namespace -------------------------------------------------------------

    def exists(self, name: str) -> bool:
        """Whether ``name`` is in the namespace."""
        return name in self._namespace

    def stat(self, name: str) -> CFSFile:
        """Look up a file's metadata object."""
        try:
            return self._namespace[name]
        except KeyError:
            raise CFSError(f"no such file: {name!r}") from None

    def files(self) -> list[CFSFile]:
        """All live files."""
        return list(self._namespace.values())

    def prepopulate(self, name: str, size: int) -> CFSFile:
        """Install a file that "already existed" before tracing began.

        The file is created sparse at the given logical size without
        passing through the traced open path and without charging disk
        space (its holes read back as zeros).  The workload generator
        uses this for the input files jobs read but never wrote during
        the traced period.
        """
        if self.exists(name):
            raise CFSError(f"file exists: {name!r}")
        if size < 0:
            raise CFSError("size must be non-negative")
        file = CFSFile(name, self._alloc_fid(), self.block_size)
        file.extend_to(size)
        self._namespace[name] = file
        return file

    # -- open/close --------------------------------------------------------------

    def open(
        self,
        name: str,
        node: int,
        job: int,
        flags: OpenFlags = OpenFlags.READ,
        mode: IOMode = IOMode.INDEPENDENT,
    ) -> int:
        """Open ``name`` from a compute node; returns a file descriptor.

        ``OpenFlags.CREATE`` creates a missing file (recording the creator
        job, which defines "temporary" files); ``TRUNC`` resets it to zero
        length.  For modes 1-3 the node joins its job's shared-pointer
        group.
        """
        created = False
        file = self._namespace.get(name)
        if file is None:
            if not flags & OpenFlags.CREATE:
                raise CFSError(f"no such file: {name!r}")
            file = CFSFile(name, self._alloc_fid(), self.block_size)
            file.creator_job = job
            self._namespace[name] = file
            created = True
        if flags & OpenFlags.TRUNC and not created:
            self._release_blocks(file)
            file.size = 0
            file._blocks.clear()
        if mode.shares_pointer:
            file.group_for(job, mode).register(node)
        fd = self._next_fd
        self._next_fd += 1
        file.open_count += 1
        self._handles[fd] = FileHandle(
            fd=fd, file=file, node=node, job=job, flags=flags, mode=mode
        )
        obs.add("cfs.opens")
        if created:
            obs.add("cfs.creates")
        return fd

    def close(self, fd: int) -> None:
        """Close a descriptor, leaving the file in the namespace."""
        handle = self._handle(fd)
        file = handle.file
        if handle.mode.shares_pointer:
            file.drop_group_member(handle.job, handle.node)
        file.open_count -= 1
        del self._handles[fd]
        obs.add("cfs.closes")

    def unlink(self, name: str, job: int) -> None:
        """Delete a file, releasing its disk blocks.

        Open descriptors keep working on the unlinked file (Unix
        semantics); the name is immediately reusable.
        """
        file = self.stat(name)
        self._release_blocks(file)
        for cache in self.caches:
            cache.invalidate_file(file.fid)
        file.deleted = True
        file.deleter_job = job
        del self._namespace[name]
        obs.add("cfs.unlinks")

    def _release_blocks(self, file: CFSFile) -> None:
        for block_idx in list(file._blocks):
            io_node = int(self.striping.io_node_of_block(block_idx))
            self.disks[io_node].release(self.block_size)
        # caller decides whether to clear the block dict

    def _handle(self, fd: int) -> FileHandle:
        try:
            return self._handles[fd]
        except KeyError:
            raise FileNotOpenError(f"fd {fd} is not open") from None

    # -- data transfer ----------------------------------------------------------

    def read(self, fd: int, size: int) -> bytes:
        """Read ``size`` bytes at the descriptor's pointer (mode-dependent).

        Mode 0 reads at and advances the handle's own pointer; modes 1-3
        claim a range from the shared pointer (enforcing order/size rules).
        Returns fewer bytes at end of file.
        """
        handle = self._handle(fd)
        if not handle.readable:
            raise CFSError(f"fd {fd} not open for reading")
        offset = self._claim(handle, size)
        data = handle.file.read_at(offset, size)
        self._touch_blocks(handle.file, offset, len(data), is_write=False)
        if handle.mode is IOMode.INDEPENDENT:
            handle.pointer = offset + len(data)
        handle.bytes_read += len(data)
        if obs.enabled():
            obs.add("cfs.reads")
            obs.add("cfs.bytes_read", len(data))
            obs.hist("cfs.read_request_bytes", float(len(data)))
        return data

    def write(self, fd: int, data: bytes) -> int:
        """Write bytes at the descriptor's pointer; returns the count."""
        handle = self._handle(fd)
        if not handle.writable:
            raise CFSError(f"fd {fd} not open for writing")
        offset = self._claim(handle, len(data))
        self._charge_new_blocks(handle.file, offset, len(data))
        handle.file.write_at(offset, data)
        self._touch_blocks(handle.file, offset, len(data), is_write=True)
        if handle.mode is IOMode.INDEPENDENT:
            handle.pointer = offset + len(data)
        handle.bytes_written += len(data)
        if obs.enabled():
            obs.add("cfs.writes")
            obs.add("cfs.bytes_written", len(data))
            obs.hist("cfs.write_request_bytes", float(len(data)))
        return len(data)

    def write_zeros(self, fd: int, size: int) -> int:
        """Write ``size`` zero bytes at the descriptor's pointer.

        Observationally identical to ``write(fd, b"\\x00" * size)`` —
        same pointer motion, charging, cache touches, and counters —
        without building the payload.  The replay engines' fast path.
        """
        handle = self._handle(fd)
        if not handle.writable:
            raise CFSError(f"fd {fd} not open for writing")
        offset = self._claim(handle, size)
        self._charge_new_blocks(handle.file, offset, size)
        handle.file.write_zeros_at(offset, size)
        self._touch_blocks(handle.file, offset, size, is_write=True)
        if handle.mode is IOMode.INDEPENDENT:
            handle.pointer = offset + size
        handle.bytes_written += size
        if obs.enabled():
            obs.add("cfs.writes")
            obs.add("cfs.bytes_written", size)
            obs.hist("cfs.write_request_bytes", float(size))
        return size

    # -- strided transfers (§5's recommended interface) --------------------------

    def read_strided(self, fd: int, size: int, stride: int, count: int) -> bytes:
        """One call expressing ``count`` reads of ``size`` bytes whose
        starts are ``stride`` apart, beginning at the current pointer.

        The §5 interface: "A strided request can express a regular
        request and interval size ... effectively increasing the request
        size [and] lowering overhead."  Only meaningful in mode 0 (the
        shared-pointer modes own the offsets).  The pointer is left after
        the last segment read; the returned bytes are the concatenated
        segments (short segments at end of file shorten the result).
        """
        handle = self._handle(fd)
        self._check_strided(handle, size, stride, count)
        if not handle.readable:
            raise CFSError(f"fd {fd} not open for reading")
        base = handle.pointer
        pieces = []
        for i in range(count):
            offset = base + i * stride
            data = handle.file.read_at(offset, size)
            self._touch_blocks(handle.file, offset, len(data), is_write=False)
            pieces.append(data)
            if len(data) < size:
                break
        out = b"".join(pieces)
        segments = len(pieces)
        handle.pointer = base + (segments - 1) * stride + len(pieces[-1]) if segments else base
        handle.bytes_read += len(out)
        return out

    def write_strided(self, fd: int, data: bytes, stride: int, count: int) -> int:
        """One call writing ``count`` equal segments of ``data``, starts
        ``stride`` apart, from the current pointer.  ``len(data)`` must
        divide evenly into ``count`` segments."""
        handle = self._handle(fd)
        if count > 0 and len(data) % count:
            raise CFSError(
                f"{len(data)} bytes do not split into {count} equal segments"
            )
        size = len(data) // count if count else 0
        self._check_strided(handle, size, stride, count)
        if not handle.writable:
            raise CFSError(f"fd {fd} not open for writing")
        base = handle.pointer
        for i in range(count):
            offset = base + i * stride
            segment = data[i * size:(i + 1) * size]
            self._charge_new_blocks(handle.file, offset, size)
            handle.file.write_at(offset, segment)
            self._touch_blocks(handle.file, offset, size, is_write=True)
        if count:
            handle.pointer = base + (count - 1) * stride + size
        handle.bytes_written += len(data)
        return len(data)

    def _check_strided(self, handle: FileHandle, size: int, stride: int, count: int) -> None:
        if handle.mode is not IOMode.INDEPENDENT:
            raise ModeViolationError(
                "strided transfers require mode 0 (independent pointers)"
            )
        if count < 0:
            raise CFSError("segment count must be non-negative")
        if count and size <= 0:
            raise CFSError("segment size must be positive")
        if count > 1 and stride < size:
            raise CFSError(f"stride {stride} under segment size {size} overlaps")

    def lseek(self, fd: int, offset: int) -> int:
        """Reposition a mode-0 pointer; shared-pointer modes cannot seek."""
        handle = self._handle(fd)
        if handle.mode is not IOMode.INDEPENDENT:
            raise ModeViolationError(
                f"lseek is only meaningful in mode 0, fd {fd} is mode {int(handle.mode)}"
            )
        if offset < 0:
            raise CFSError(f"cannot seek to negative offset {offset}")
        handle.pointer = offset
        return offset

    def _claim(self, handle: FileHandle, size: int) -> int:
        if handle.mode is IOMode.INDEPENDENT:
            return handle.pointer
        group = handle.file.groups.get(handle.job)
        if group is None:
            raise CFSError("shared-pointer group vanished while file open")
        return group.claim(handle.node, size)

    def _charge_new_blocks(self, file: CFSFile, offset: int, size: int) -> None:
        """Pre-charge disk space for blocks this write will newly allocate."""
        if size == 0:
            return
        first = offset // self.block_size
        last = (offset + size - 1) // self.block_size
        n_io = self.striping.n_io_nodes
        blocks = file._blocks
        for block_idx in range(first, last + 1):
            if block_idx not in blocks:
                self.disks[block_idx % n_io].allocate(self.block_size)

    def _touch_blocks(self, file: CFSFile, offset: int, size: int, is_write: bool) -> None:
        if size == 0:
            return
        first = offset // self.block_size
        last = (offset + size - 1) // self.block_size
        n_io = self.striping.n_io_nodes
        caches = self.caches
        fid = file.fid
        for block_idx in range(first, last + 1):
            caches[block_idx % n_io].access(fid, block_idx, is_write=is_write)

    # -- statistics ----------------------------------------------------------------

    def cache_stats(self) -> CacheStats:
        """Combined hit statistics across all I/O-node caches."""
        total = CacheStats()
        for cache in self.caches:
            total = total.merge(cache.stats)
        return total

    def disk_usage(self) -> tuple[int, int]:
        """(used, capacity) bytes across all disks."""
        used = sum(d.used for d in self.disks)
        cap = sum(d.capacity for d in self.disks)
        return used, cap

    def publish_obs(self) -> None:
        """Publish per-I/O-node cache and striping state to :mod:`repro.obs`.

        Emits aggregate buffer-cache counters (hits/misses/evictions/
        write-throughs), per-node hit/miss gauges, and the stripe
        distribution (bytes resident per I/O-node disk) — the numbers
        the live CFS accumulates but a trace alone cannot show.  No-op
        when observation is disabled; call at the end of a run.
        """
        if not obs.enabled():
            return
        total = self.cache_stats()
        obs.add("cfs.cache.hits", total.hits)
        obs.add("cfs.cache.misses", total.misses)
        obs.add("cfs.cache.evictions", total.evictions)
        obs.add("cfs.cache.writes_through", total.writes_through)
        obs.gauge("cfs.cache.hit_rate", total.hit_rate)
        obs.gauge("cfs.files_live", len(self._namespace))
        obs.gauge("cfs.fds_open", len(self._handles))
        for i, (cache, disk) in enumerate(zip(self.caches, self.disks)):
            obs.gauge(f"cfs.io{i}.cache_hits", cache.stats.hits)
            obs.gauge(f"cfs.io{i}.cache_misses", cache.stats.misses)
            obs.gauge(f"cfs.io{i}.cache_evictions", cache.stats.evictions)
            obs.gauge(f"cfs.io{i}.cache_resident_blocks", len(cache))
            obs.gauge(f"cfs.io{i}.stripe_bytes", disk.used)

    @property
    def open_fds(self) -> int:
        """Number of currently open descriptors."""
        return len(self._handles)
