"""The full pipeline's reference replayer: one event at a time.

:class:`StepReplayer` issues one instrumented-CFS call per emitted event
from scalar arguments, with nothing hoisted out of the loop.  It is the
executable spec that :meth:`repro.workload.generator._Replayer.run`
must match call for call.  :func:`run_full_step` runs the ``full``
pipeline once with it swapped in for the replayer, so the tests and
``benchmarks/bench_perf_full_pipeline.py`` compare the two loops on the
same plan, machine, file system and collector.
"""

from __future__ import annotations

from repro.cfs.modes import IOMode
from repro.errors import WorkloadError
from repro.trace.records import EventKind
from repro.workload import generator


class StepReplayer(generator._Replayer):
    """Replays the emitted events through :meth:`step`, one call each."""

    def run(self, events) -> None:
        for row in events:
            self.step(
                float(row["time"]),
                int(row["kind"]),
                int(row["job"]),
                int(row["node"]),
                int(row["file"]),
                int(row["offset"]),
                int(row["size"]),
            )

    def step(self, t, kind, job, node, fid, offset, size) -> None:
        self.machine.timebase.advance_to(max(self.machine.timebase.now, t))
        ek = EventKind(kind)
        if ek is EventKind.JOB_START:
            self.icfs.job_start(job, node, size)
            return
        if ek is EventKind.JOB_END:
            self.icfs.job_end(job, node)
            return
        use = self.uses[fid]
        if ek is EventKind.OPEN:
            if use.preexisting_size > 0 and fid not in self.prepopulated:
                if not self.fs.exists(use.name):
                    self.fs.prepopulate(use.name, use.preexisting_size)
                self.prepopulated.add(fid)
            fd = self.icfs.open(use.name, node, job, use.flags, use.mode)
            self.fds[(fid, node)] = fd
            self.pointers[fd] = 0
            return
        if ek is EventKind.CLOSE:
            fd = self.fds.pop((fid, node))
            self.pointers.pop(fd, None)
            self.icfs.close(fd)
            return
        if ek is EventKind.DELETE:
            self.icfs.unlink(use.name, node, job)
            return
        fd = self.fds[(fid, node)]
        if use.mode is IOMode.INDEPENDENT and self.pointers[fd] != offset:
            self.icfs.lseek(fd, offset)
            self.pointers[fd] = offset
        if ek is EventKind.READ:
            data = self.icfs.read(fd, size)
            self.pointers[fd] = offset + len(data)
        elif ek is EventKind.WRITE:
            self.icfs.write(fd, b"\x00" * size)
            self.pointers[fd] = offset + size
        else:  # pragma: no cover - defensive
            raise WorkloadError(f"unexpected event kind {ek}")


def run_full_step(gen: generator.WorkloadGenerator) -> generator.GeneratedWorkload:
    """``gen.run("full")`` with :class:`StepReplayer` as the replayer."""
    saved = generator._Replayer
    generator._Replayer = StepReplayer
    try:
        return gen.run("full")
    finally:
        generator._Replayer = saved
