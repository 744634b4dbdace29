"""Sharded full-pipeline simulation.

Runs the synthetic engine's full pipeline
(:meth:`~repro.workload.generator.SyntheticEngine._run_full`) split
across worker processes and merges the pieces back into a trace that is
**byte-identical** to the serial run — same raw blocks in the same
arrival order with the same stamps, same postprocessed frame, same cache
statistics and disk accounting (``tests/test_equivalence.py`` enforces
this).

Why this is possible
--------------------

The full pipeline looks serial — one timebase, one file system, one
collector — but almost all of its state is *job-local*: file names are
job-scoped, so jobs never touch each other's files, and every record's
timestamp is a pure function of the action's planned time and the
node's (seeded) clock.  Four couplings genuinely cross jobs, and each
has a deterministic remedy:

1. **File ids** are allocated from a global counter in first-open
   order.  A cheap serial pre-pass over just the OPEN/DELETE actions
   replays the namespace and hands every shard the exact id stream the
   serial run would have given its files
   (:attr:`~repro.cfs.filesystem.ConcurrentFileSystem.fid_source`).
2. **Trace-block boundaries and stamps** depend on the global
   interleaving of records into per-node 4 KB buffers.  Workers record
   raw 42-byte records tagged with their *global action position*; the
   merge re-batches each node's records in that order, reproducing the
   serial flush points exactly.  A full block's send stamp equals its
   last record's time field (the flush happens during that record's
   append, at the same instant on the same clock); the end-of-run
   partial flush is stamped at the last action's time.  Collector
   receive stamps are a pure function of the block because the message
   jitter stream is keyed by ``(node, seq)``
   (:meth:`~repro.machine.machine.IPSC860.collector_stamp`).
3. **I/O-node LRU caches** cannot be partitioned (jobs share them).
   Workers log block touches and invalidations through
   :attr:`~repro.cfs.filesystem.ConcurrentFileSystem.cache_sink`; the
   parent replays the merged log in global order against one set of
   caches — the only O(events) serial work left, and it is a tight
   loop over packed arrays.
4. **Disk accounting** is additive: every block is allocated by exactly
   one shard (its owning job's), so per-disk usage is the sum over
   shards.

Jobs that *do* share a file name (none of the packaged scenarios do,
but nothing forbids it) are co-located on one shard by a union-find
over names, so shard replicas stay self-contained.

The shards fan out as one task each through
:func:`repro.util.pool.map_tasks`.  The action columns, each shard's
replay order and the plan metadata reach the workers as one plain
``(arrays, meta)`` tuple that fork shares copy-on-write; only each
shard's result crosses a pipe.  Without ``fork`` the shards replay
serially in-process, with the same merged output.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro import obs
from repro.cfs.filesystem import ConcurrentFileSystem
from repro.cfs.instrument import InstrumentedCFS
from repro.machine.machine import IPSC860
from repro.trace.codec import RECORD_NP_DTYPE, RECORD_SIZE, encode_record
from repro.trace.collector import Collector, RawBlock
from repro.trace.frame import JobTable, TraceFrame
from repro.trace.postprocess import postprocess
from repro.trace.records import EventKind, OpenFlags
from repro.util.rng import SeedSequencePool
from repro.util.units import BLOCK_SIZE

#: the action columns shipped to workers
_ACTION_COLS = ("time", "kind", "job", "node", "use", "rank", "offset", "size")


class _RecordingWriter:
    """Stand-in for :class:`~repro.trace.writer.TraceWriter` in a shard.

    Captures each encoded record with the global position of the action
    that emitted it, instead of buffering/flushing — block boundaries
    can only be decided once all shards' records are merged.
    """

    def __init__(self) -> None:
        self.cursor = [0]  # rebound to the replayer's cursor before use
        self.by_node: dict[int, tuple[list[bytes], list[int]]] = {}

    def emit_encoded(self, node: int, data: bytes) -> None:
        rec = self.by_node.get(node)
        if rec is None:
            rec = self.by_node[node] = ([], [])
        rec[0].append(data)
        rec[1].append(self.cursor[0])

    def emit(self, record) -> None:
        self.emit_encoded(record.node, encode_record(record))


class _CacheLog:
    """Cache sink recording touches/invalidations with global positions."""

    def __init__(self, cursor: list[int]) -> None:
        self._cursor = cursor
        self.kind: list[int] = []  # 0 = touch, 1 = invalidate
        self.io: list[int] = []
        self.fid: list[int] = []
        self.block: list[int] = []
        self.write: list[bool] = []
        self.gpos: list[int] = []

    def touch(self, io_node: int, fid: int, block: int, is_write: bool) -> None:
        self.kind.append(0)
        self.io.append(io_node)
        self.fid.append(fid)
        self.block.append(block)
        self.write.append(is_write)
        self.gpos.append(self._cursor[0])

    def invalidate(self, fid: int) -> None:
        self.kind.append(1)
        self.io.append(-1)
        self.fid.append(fid)
        self.block.append(-1)
        self.write.append(False)
        self.gpos.append(self._cursor[0])

    def pack(self) -> dict[str, np.ndarray]:
        return {
            "kind": np.asarray(self.kind, dtype=np.int8),
            "io": np.asarray(self.io, dtype=np.int16),
            "fid": np.asarray(self.fid, dtype=np.int64),
            "block": np.asarray(self.block, dtype=np.int64),
            "write": np.asarray(self.write, dtype=bool),
            "gpos": np.asarray(self.gpos, dtype=np.int64),
        }


def _replay_shard(shard: int, shared: tuple[dict, dict]) -> dict:
    """Worker: replay one shard's action subsequence on a machine replica.

    ``shared`` is the ``(arrays, meta)`` pair every shard reads: the action
    columns with each shard's replay order and global positions, and the
    machine/plan metadata.  The replica uses the *same* machine seed as
    the serial run, so node clocks (and therefore record timestamps)
    match exactly; file ids come from the pre-assigned stream; cache
    traffic and trace records are logged with global positions for the
    parent to merge.
    """
    from repro.workload.generator import _Replayer

    if obs.enabled():
        tracelog = obs.current().tracelog
        if tracelog is not None and tracelog.context.parent_span_id:
            # relabel this worker task's trace stream with the shard id
            # so the timeline names shard lanes, not pool worker slots
            # (a serial run leaves the parent's own stream alone)
            tracelog.context.worker = f"shard{shard}"

    arrays, meta = shared
    actions = {k: arrays[k] for k in _ACTION_COLS}
    order = arrays[f"order/{shard}"]
    positions = arrays[f"pos/{shard}"]

    machine = IPSC860(config=meta["machine_config"], seed=meta["machine_seed"])
    fs = ConcurrentFileSystem(
        n_io_nodes=machine.n_io_nodes,
        disks=[io.disk for io in machine.io_nodes],
    )
    fs.fid_source = iter(meta["fid_streams"][shard])
    recorder = _RecordingWriter()
    icfs = InstrumentedCFS(fs, recorder, machine.node_clock_reader)
    replay = _Replayer(icfs, fs, machine, meta["uses"])
    recorder.cursor = replay.cursor
    cache_log = _CacheLog(replay.cursor)
    fs.cache_sink = cache_log

    replay.run(actions, order, positions)

    if obs.enabled():
        # the counters InstrumentedCFS.finish would publish; summed over
        # shards they equal the serial totals
        obs.add("trace.calls_traced", icfs.calls_traced)
        obs.add("trace.strided_calls", icfs.strided_calls)
        obs.add("workload.replay_actions", len(order))

    nodes = {
        node: (b"".join(chunks), np.asarray(gpos, dtype=np.int64))
        for node, (chunks, gpos) in recorder.by_node.items()
    }
    return {
        "nodes": nodes,
        "cache_ops": cache_log.pack(),
        "disk_used": [d.used for d in fs.disks],
        "files": [
            (f.name, f.fid, f.size, f.creator_job) for f in fs.files()
        ],
    }


# -- partitioning -------------------------------------------------------------


def _partition_jobs(
    job_col: np.ndarray, names_of_job: dict[int, set[str]], shards: int
) -> dict[int, int]:
    """Assign jobs to shards: co-locate jobs sharing a file name, then
    greedy LPT over the resulting components by action count.

    Fully deterministic: components are ordered by (weight desc, lowest
    job id) and ties between equally loaded shards break toward the
    lowest shard index.
    """
    jobs, counts = np.unique(job_col, return_counts=True)
    weight = dict(zip(jobs.tolist(), counts.tolist()))

    parent: dict[int, int] = {int(j): int(j) for j in jobs}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    first_job_of_name: dict[str, int] = {}
    for job, names in names_of_job.items():
        for name in names:
            prior = first_job_of_name.setdefault(name, job)
            if prior != job:
                union(prior, job)

    components: dict[int, list[int]] = {}
    for j in parent:
        components.setdefault(find(j), []).append(j)

    ordered = sorted(
        components.values(),
        key=lambda members: (-sum(weight[j] for j in members), min(members)),
    )
    load = [0] * shards
    shard_of: dict[int, int] = {}
    for members in ordered:
        k = load.index(min(load))  # lowest index wins ties
        load[k] += sum(weight[j] for j in members)
        for j in members:
            shard_of[j] = k
    return shard_of


def _assign_fids(
    actions: dict, order: np.ndarray, uses: dict, shard_of_job: dict[int, int],
    shards: int,
) -> tuple[list[list[int]], int]:
    """Serial pre-pass: replay namespace changes over the sorted OPEN and
    DELETE actions and hand each shard the file-id stream its replica
    will consume — the ids the serial run would have allocated."""
    k_open = int(EventKind.OPEN)
    k_delete = int(EventKind.DELETE)
    kind_sorted = actions["kind"][order]
    sel = np.flatnonzero((kind_sorted == k_open) | (kind_sorted == k_delete))
    idxs = order[sel]

    streams: list[list[int]] = [[] for _ in range(shards)]
    namespace: set[str] = set()
    prepopulated: set[int] = set()
    next_fid = 0
    use_col = actions["use"]
    job_col = actions["job"]
    create = int(OpenFlags.CREATE)
    for i, idx in zip(sel.tolist(), idxs.tolist()):
        uid = int(use_col[idx])
        use = uses[uid]
        name = use.name
        if int(kind_sorted[i]) == k_delete:
            namespace.discard(name)
            continue
        shard = shard_of_job[int(job_col[idx])]
        if use.preexisting_size > 0 and uid not in prepopulated:
            if name not in namespace:
                streams[shard].append(next_fid)
                next_fid += 1
                namespace.add(name)
            prepopulated.add(uid)
        if name not in namespace and int(use.flags) & create:
            streams[shard].append(next_fid)
            next_fid += 1
            namespace.add(name)
    return streams, next_fid


# -- the driver ---------------------------------------------------------------


def run_sharded(engine, shards: int):
    """Run the full pipeline split over ``shards`` worker processes.

    ``engine`` is the planning engine (today always
    :class:`~repro.workload.generator.SyntheticEngine`; any engine
    exposing ``plan``/``_global_actions``/``_header`` works).  Returns
    the same :class:`~repro.workload.generator.GeneratedWorkload` a
    serial ``_run_full`` produces, byte-for-byte.  The shards fan out
    one task per shard over :func:`~repro.util.pool.map_tasks`.
    """
    from repro.util.pool import map_tasks
    from repro.workload.generator import GeneratedWorkload

    if shards <= 1:
        return engine._run_full()

    pool = SeedSequencePool(engine.seed)
    placed, uses_by_job = engine.plan()
    machine_seed = int(pool.rng("machine").integers(2**31))
    actions = engine._global_actions(placed, uses_by_job, pool)
    uses = actions.pop("_uses")
    order = np.argsort(actions["time"], kind="stable")
    n = len(order)
    t_end = float(actions["time"][order[-1]]) if n else 0.0

    names_of_job: dict[int, set[str]] = {}
    for job, job_uses in uses_by_job.items():
        names_of_job[job] = {u.name for u in job_uses}
    shard_of_job = _partition_jobs(actions["job"], names_of_job, shards)
    fid_streams, next_fid = _assign_fids(
        actions, order, uses, shard_of_job, shards
    )

    # per-shard subsequences of the global replay order, plus each
    # action's global position (tags records/cache ops for the merge)
    max_job = max(shard_of_job, default=0)
    lookup = np.zeros(max_job + 1, dtype=np.int64)
    for job, shard in shard_of_job.items():
        lookup[job] = shard
    shard_sorted = lookup[actions["job"][order]]
    arrays = {k: actions[k] for k in _ACTION_COLS}
    for k in range(shards):
        positions = np.flatnonzero(shard_sorted == k)
        arrays[f"order/{k}"] = order[positions]
        arrays[f"pos/{k}"] = positions

    meta = {
        "machine_config": engine.scenario.machine,
        "machine_seed": machine_seed,
        "uses": uses,
        "fid_streams": fid_streams,
    }
    tasks = {f"shard{k}": partial(_replay_shard, k) for k in range(shards)}
    with obs.span("workload/sharded/replay"):
        results = map_tasks(tasks, (arrays, meta), shards)
    ordered_results = [results[f"shard{k}"] for k in range(shards)]

    machine = IPSC860(config=engine.scenario.machine, seed=machine_seed)
    collector = Collector(engine._header(), clock=machine.collector_stamp)
    fs = ConcurrentFileSystem(
        n_io_nodes=engine.scenario.machine.n_io_nodes,
        disks=[io.disk for io in machine.io_nodes],
    )

    with obs.span("workload/sharded/merge"):
        _merge_blocks(ordered_results, machine, collector, t_end)
        _replay_caches(ordered_results, fs)
        for i, disk in enumerate(fs.disks):
            disk.used = sum(res["disk_used"][i] for res in ordered_results)
        _rebuild_namespace(ordered_results, fs, next_fid)
        if obs.enabled():
            records = sum(b.n_records for b in collector.trace.blocks)
            blocks = len(collector.trace.blocks)
            if records:
                obs.gauge("trace.message_savings", 1.0 - blocks / records)
            else:
                obs.gauge("trace.message_savings", 0.0)

    with obs.span("workload/full/postprocess"):
        raw = collector.finish()
        frame = postprocess(raw)
    frame = TraceFrame(
        frame.events,
        jobs=JobTable.from_rows(
            (p.job, p.start, p.end, p.spec.n_nodes, p.spec.traced)
            for p in placed
        ),
        header=frame.header,
    )
    fs.publish_obs()
    if obs.enabled():
        obs.add("workload.events", frame.n_events)
        obs.add("workload.shards", shards)
    return GeneratedWorkload(
        frame=frame, placed=placed, scenario=engine.scenario,
        seed=engine.seed, raw=raw, fs=fs,
    )


# -- merge helpers ------------------------------------------------------------


def _merge_blocks(ordered_results, machine: IPSC860, collector, t_end: float):
    """Re-batch all shards' records into the serial run's exact blocks.

    Per node, records are sorted by global action position and cut into
    ``records_per_block``-sized blocks: a full block's send stamp is its
    last record's time field, and blocks arrive at the collector in
    trigger-position order.  The end-of-run partial flushes follow in
    the order each node first emitted a record, stamped with the node's
    clock at the final timebase instant — exactly what
    ``TraceWriter.flush_all`` after a serial replay produces.
    """
    per_node: dict[int, list[tuple[bytes, np.ndarray]]] = {}
    for res in ordered_results:
        for node, chunk in res["nodes"].items():
            per_node.setdefault(node, []).append(chunk)

    rpb = BLOCK_SIZE // RECORD_SIZE
    full_blocks: list[tuple[int, RawBlock]] = []
    finals: list[tuple[int, RawBlock]] = []
    for node, chunks in per_node.items():
        payload = b"".join(c[0] for c in chunks)
        gpos = np.concatenate([c[1] for c in chunks])
        m = len(gpos)
        if m == 0:
            continue
        o = np.argsort(gpos, kind="stable")
        g = gpos[o]
        rows = np.frombuffer(payload, dtype=np.uint8).reshape(m, RECORD_SIZE)[o]
        times = np.frombuffer(payload, dtype=RECORD_NP_DTYPE)["time"][o]
        n_full = m // rpb
        for b in range(n_full):
            lo, hi = b * rpb, (b + 1) * rpb
            full_blocks.append(
                (
                    int(g[hi - 1]),
                    RawBlock(
                        node=node,
                        seq=b,
                        send_stamp=float(times[hi - 1]),
                        recv_stamp=0.0,
                        payload=rows[lo:hi].tobytes(),
                    ),
                )
            )
        if m % rpb:
            finals.append(
                (
                    int(g[0]),
                    RawBlock(
                        node=node,
                        seq=n_full,
                        send_stamp=float(machine.clocks[node].local(t_end)),
                        recv_stamp=0.0,
                        payload=rows[n_full * rpb :].tobytes(),
                    ),
                )
            )
    full_blocks.sort(key=lambda pair: pair[0])
    finals.sort(key=lambda pair: pair[0])
    for _, block in full_blocks:
        collector.receive(block)
    for _, block in finals:
        collector.receive(block)


def _replay_caches(ordered_results, fs: ConcurrentFileSystem) -> None:
    """Replay the merged touch/invalidate log against one set of caches.

    LRU state is the one global structure that cannot be partitioned;
    replaying the packed logs in global-position order reproduces the
    serial hit/miss/eviction counts and final residency exactly.
    """
    logs = [res["cache_ops"] for res in ordered_results]
    if not any(len(lg["gpos"]) for lg in logs):
        return
    kind = np.concatenate([lg["kind"] for lg in logs]).tolist()
    io = np.concatenate([lg["io"] for lg in logs]).tolist()
    fid = np.concatenate([lg["fid"] for lg in logs]).tolist()
    block = np.concatenate([lg["block"] for lg in logs]).tolist()
    write = np.concatenate([lg["write"] for lg in logs]).tolist()
    gpos = np.concatenate([lg["gpos"] for lg in logs])
    order = np.argsort(gpos, kind="stable").tolist()
    caches = fs.caches
    for i in order:
        if kind[i] == 0:
            caches[io[i]].access(fid[i], block[i], is_write=write[i])
        else:
            for cache in caches:
                cache.invalidate_file(fid[i])


def _rebuild_namespace(ordered_results, fs: ConcurrentFileSystem, next_fid: int):
    """Reinstall the shards' surviving files into the merged namespace.

    Sorting by file id reproduces the serial creation (= insertion)
    order.  Files are installed sparse — logical size without data
    blocks — since the trace, cache, and disk state the pipeline
    reports never read file *contents* after the replay.
    """
    from repro.cfs.file import CFSFile

    rows = []
    for res in ordered_results:
        rows.extend(res["files"])
    rows.sort(key=lambda row: row[1])
    for name, fid, size, creator_job in rows:
        file = CFSFile(name, fid, fs.block_size)
        file.extend_to(size)
        file.creator_job = creator_job
        fs._namespace[name] = file
    fs._next_fid = next_fid
