"""The full pipeline's reference replayer: one action at a time.

:class:`StepReplayer` issues one instrumented-CFS call per action from
scalar arguments, with nothing hoisted out of the loop.  It is the
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
    """Replays ``actions[order]`` through :meth:`step`, one call each."""

    def run(self, actions, order) -> None:
        for idx in order:
            self.step(
                float(actions["time"][idx]),
                int(actions["kind"][idx]),
                int(actions["job"][idx]),
                int(actions["node"][idx]),
                int(actions["use"][idx]),
                int(actions["rank"][idx]),
                int(actions["offset"][idx]),
                int(actions["size"][idx]),
            )

    def step(self, t, kind, job, node, uid, rank, offset, size) -> None:
        self.machine.timebase.advance_to(max(self.machine.timebase.now, t))
        ek = EventKind(kind)
        if ek is EventKind.JOB_START:
            self.icfs.job_start(job, node, size)
            return
        if ek is EventKind.JOB_END:
            self.icfs.job_end(job, node)
            return
        use = self.uses[uid]
        if ek is EventKind.OPEN:
            if use.preexisting_size > 0 and uid not in self.prepopulated:
                if not self.fs.exists(use.name):
                    self.fs.prepopulate(use.name, use.preexisting_size)
                self.prepopulated.add(uid)
            fd = self.icfs.open(use.name, node, job, use.flags, use.mode)
            self.fds[(uid, rank)] = fd
            self.pointers[fd] = 0
            return
        if ek is EventKind.CLOSE:
            fd = self.fds.pop((uid, rank))
            self.pointers.pop(fd, None)
            self.icfs.close(fd)
            return
        if ek is EventKind.DELETE:
            self.icfs.unlink(use.name, node, job)
            return
        fd = self.fds[(uid, rank)]
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
            raise WorkloadError(f"unexpected action kind {ek}")


def run_full_step(gen: generator.WorkloadGenerator) -> generator.GeneratedWorkload:
    """``gen.run("full")`` with :class:`StepReplayer` as the replayer."""
    saved = generator._Replayer
    generator._Replayer = StepReplayer
    try:
        return gen.run("full")
    finally:
        generator._Replayer = saved
