"""§3.1's instrumentation-overhead claim, on our own pipeline.

The paper benchmarked the instrumented CFS library and found the added
cost "virtually undetectable in many cases", worst case 7 % on the NAS
NHT-1 I/O benchmark.  Here we time the same operation mix through the
bare file system and through the instrumented facade and report the
ratio (ours is a Python tracing layer, so the slowdown is larger in
relative terms — the point is that it is measured, bounded, and the
buffering does its job).
"""

import time

from conftest import emit_json, show

from repro import obs
from repro.cfs import ConcurrentFileSystem, InstrumentedCFS
from repro.core import characterize
from repro.trace.collector import Collector
from repro.trace.records import OpenFlags, TraceHeader
from repro.trace.writer import TraceWriter

N_OPS = 3000


def _drive(fs_like, with_unlink) -> float:
    """An NHT-1-ish mix: create, stream writes, read back, delete."""
    t0 = time.perf_counter()
    fd = fs_like.open("/bench", 0, 0, OpenFlags.READ | OpenFlags.WRITE | OpenFlags.CREATE)
    payload = b"\xaa" * 700
    for _ in range(N_OPS):
        fs_like.write(fd, payload)
    fs_like.lseek(fd, 0)
    for _ in range(N_OPS):
        fs_like.read(fd, 700)
    fs_like.close(fd)
    with_unlink("/bench")
    return time.perf_counter() - t0


def _run_pair():
    bare = ConcurrentFileSystem(n_io_nodes=4)
    t_bare = _drive(bare, lambda name: bare.unlink(name, 0))

    fs = ConcurrentFileSystem(n_io_nodes=4)
    collector = Collector(TraceHeader())
    writer = TraceWriter(collector, lambda n: (lambda: 0.0))
    traced = InstrumentedCFS(fs, writer, lambda n: (lambda: 0.0))
    t_traced = _drive(traced, lambda name: traced.unlink(name, 0, 0))
    traced.finish()
    return t_bare, t_traced, writer.message_savings


def test_instrumentation_overhead(benchmark):
    t_bare, t_traced, saving = benchmark.pedantic(_run_pair, rounds=3, iterations=1)

    overhead = t_traced / t_bare - 1.0
    show(
        "§3.1: instrumentation overhead",
        f"bare CFS:        {t_bare * 1000:.1f} ms for {2 * N_OPS} transfers\n"
        f"instrumented:    {t_traced * 1000:.1f} ms\n"
        f"overhead:        {overhead:+.1%} "
        f"(paper: worst case +7% on real hardware; ours is a Python layer)\n"
        f"message saving:  {saving:.1%} (paper: >90%)",
    )

    assert saving > 0.9
    # the buffered instrumentation must stay within a small constant
    # factor of the bare file system
    assert t_traced < 3.0 * t_bare


def _time_characterize(frame, rounds: int = 3) -> float:
    """Best-of-N characterization time with the current observer state."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        characterize(frame)
        best = min(best, time.perf_counter() - t0)
    return best


def _null_call_cost_s(calls: int = 200_000) -> float:
    """Per-call cost of the disabled observer, the way call sites use it:
    one ``enabled()`` guard, one counter add, one span enter/exit."""
    obs.disable()
    t0 = time.perf_counter()
    for _ in range(calls):
        if obs.enabled():
            obs.add("never")
        with obs.span("never"):
            pass
    return (time.perf_counter() - t0) / calls


def test_obs_overhead(frame):
    """The disabled ``repro.obs`` layer must cost (nearly) nothing.

    The disabled-mode overhead of one characterization is bounded by
    (number of instrumentation calls the run executes) × (cost of one
    null-observer call), as a fraction of the run's own time — the
    budget the CLI spends when ``--obs`` is off.  The enabled mode is
    timed head-to-head as well; it may cost more (it is doing work) but
    is reported so regressions are visible.
    """
    obs.disable()
    characterize(frame)  # warm caches (of_kind views)
    t_off = _time_characterize(frame)

    observer = obs.enable()
    t_on = _time_characterize(frame)
    obs.disable()

    # traced mode (obs v3): spans additionally land in a TraceLog ring
    from repro.obs import TraceContext

    obs.enable(TraceContext.root())
    t_traced = _time_characterize(frame)
    # every counter add and span entry the run performed, ×2 for the
    # enabled() guards that precede grouped counter adds
    n_calls = 2 * (
        sum(1 for _ in observer.counters) + observer.root.n_entries()
    )
    n_observed = len(observer.counters) + observer.root.n_nodes()
    obs.disable()

    per_call = _null_call_cost_s()
    disabled_overhead = (n_calls * per_call) / t_off
    enabled_overhead = t_on / t_off - 1.0
    traced_overhead = t_traced / t_off - 1.0
    show(
        "repro.obs: observation overhead on characterize()",
        f"obs disabled: {t_off * 1000:.1f} ms (null observer)\n"
        f"obs enabled:  {t_on * 1000:.1f} ms "
        f"({n_observed} spans+counters collected)\n"
        f"obs traced:   {t_traced * 1000:.1f} ms (+ TraceLog event ring)\n"
        f"null call cost: {per_call * 1e9:.0f} ns × ~{n_calls} calls -> "
        f"disabled-mode overhead {disabled_overhead:.4%}\n"
        f"enabled-mode overhead: {enabled_overhead:+.1%}\n"
        f"traced-mode overhead:  {traced_overhead:+.1%}",
    )
    emit_json(
        "obs_overhead",
        {
            "t_disabled_s": t_off,
            "t_enabled_s": t_on,
            "t_traced_s": t_traced,
            "null_call_cost_s": per_call,
            "n_instrumentation_calls": n_calls,
            "disabled_overhead": disabled_overhead,
            "enabled_overhead": enabled_overhead,
            "traced_overhead": traced_overhead,
            "n_events": int(frame.n_events),
            "n_observed_names": n_observed,
        },
    )
    # the promise the CLI makes when --obs is off
    assert disabled_overhead < 0.03
    # enabled-mode collection stays within a small factor of the analysis
    assert t_on < 2.0 * t_off
    # tracing adds an event append per span; still a small factor
    assert t_traced < 2.5 * t_off
