"""Command-line interface.

``python -m repro <command>`` drives the whole reproduction from a
terminal::

    python -m repro generate --scale 0.05 --out trace.store
    python -m repro characterize trace.store
    python -m repro figures trace.store --figure fig4
    python -m repro cache trace.store --experiment fig9 --policy lru fifo
    python -m repro strided trace.store
    python -m repro dump trace.store --limit 40

A trace file is a chunked store (:mod:`repro.trace.store`), the one
format ``generate`` writes.  Every analysis command also accepts
``--scale/--seed`` instead of a trace file, generating a workload on the
fly.  ``characterize`` streams a store chunk by chunk, and ``cache
--experiment fig9`` streams its request stream from it; the other
commands read the whole trace.  Each command imports the modules it runs
inside its ``cmd_*`` function, so ``repro serve`` starts without loading
the generator or the cache simulators.

Global flags (before the subcommand) control observability and verbosity::

    python -m repro --obs run_report.json characterize --scale 0.02
    python -m repro obs show run_report.json
    python -m repro -v generate --scale 0.02 --out trace.store
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import TYPE_CHECKING

from repro import obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.trace.frame import TraceFrame
    from repro.trace.store import TraceSource
    from repro.workload import WorkloadGenerator

logger = logging.getLogger("repro.cli")


def _add_input_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("trace", nargs="?", help="a trace store written by 'generate'")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="generate on the fly: fraction of 156 hours")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scenario", default="ames1993",
                        help="registered scenario for on-the-fly generation "
                             "(see 'repro scenarios')")
    parser.add_argument("--workload-engine", default=None, metavar="ENGINE",
                        help="override the scenario's workload engine "
                             "(see 'repro scenarios')")
    parser.add_argument("--mix", default=None, metavar="PATH",
                        help="drift engine: JSON op-weights file "
                             "(read/write/append/create/delete/stat)")
    parser.add_argument("--pipeline", choices=["direct", "full"], default="direct",
                        help="pipeline for on-the-fly generation (the 'full' "
                             "pipeline replays through the simulated machine "
                             "and CFS)")


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # so a non-integer reads "invalid int value: 'x'"
    return parse


def _resolve_generator(args) -> WorkloadGenerator:
    """Build the generator from --scenario/--workload-engine/--mix.

    Unknown scenario or engine names exit 2 with the available names on
    stderr (the registries' own error message lists them).
    """
    from repro.errors import WorkloadError
    from repro.workload import WorkloadGenerator, get_scenario

    engine = (
        getattr(args, "workload_engine", None)
        or getattr(args, "engine_name", None)
    )
    try:
        scenario = get_scenario(getattr(args, "scenario", "ames1993"), args.scale)
        mix = getattr(args, "mix", None)
        if mix:
            if (engine or scenario.engine) != "drift":
                raise WorkloadError(
                    "--mix only applies to the drift engine "
                    "(pass --engine drift / --workload-engine drift)"
                )
            scenario = scenario.with_engine(engine or scenario.engine, mix=mix)
        return WorkloadGenerator(scenario, seed=args.seed, engine=engine)
    except WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc


def _generate_frame(args) -> TraceFrame:
    pipeline = getattr(args, "pipeline", "direct")
    # the span holds the generator's own imports as well as its stages
    with obs.span("workload/generate"):
        generator = _resolve_generator(args)
        logger.info(
            "generating workload on the fly (scenario=%s engine=%s scale=%s "
            "seed=%s pipeline=%s)",
            getattr(args, "scenario", "ames1993"), generator.engine_name,
            args.scale, args.seed, pipeline,
        )
        return generator.run(pipeline).frame


def _load_source(args) -> TraceSource:
    """The command's input: the store at ``args.trace``, read chunk by
    chunk, or a trace generated on the fly as one in-memory chunk."""
    from repro.trace.store import FrameSource, TraceStore

    if args.trace:
        logger.info("loading trace from %s", args.trace)
        return TraceStore(args.trace)
    frame = _generate_frame(args)
    return FrameSource(frame, chunk_size=max(frame.n_events, 1))


def cmd_generate(args) -> int:
    generator = _resolve_generator(args)
    workload = generator.run_to_store(
        args.out, args.pipeline, chunk_size=args.chunk_size
    )
    print(
        f"wrote {args.out} (chunked store): {workload.frame.n_events} events, "
        f"{workload.n_jobs} jobs ({workload.n_traced_jobs} traced), "
        f"{len(workload.frame.files)} files"
    )
    return 0


def cmd_characterize(args) -> int:
    from repro.core import characterize

    print(characterize(_load_source(args)).render())
    return 0


def cmd_trace_info(args) -> int:
    import json

    from repro.trace.store import source_info

    info = source_info(args.path)
    if args.json:
        print(json.dumps(info, indent=2))
        return 0
    t0, t1 = info["time_span"]
    compressed, raw = info["compressed_bytes"], info["uncompressed_bytes"]
    ratio = compressed / raw if raw else 1.0
    h = info["header"]
    print(f"{args.path}: chunked columnar trace store")
    print(f"  format version:  {info['format_version']}")
    print(f"  chunks:          {info['n_chunks']} x {info['chunk_size']} events")
    print(f"  events:          {info['n_events']}")
    print(f"  jobs:            {info['n_jobs']} ({info['n_traced_jobs']} traced)")
    print(f"  files:           {info['n_files']}")
    print(f"  payload bytes:   {compressed} compressed, {raw} raw ({ratio:.2f}x)")
    print(f"  time span:       {t0:.3f} .. {t1:.3f} s")
    print(f"  header:          {h['machine']} at {h['site']} "
          f"({h['n_compute_nodes']} compute / {h['n_io_nodes']} I/O nodes)")
    return 0


def cmd_figures(args) -> int:
    from repro.core.figures import FIGURES, render_all, render_figure, render_figure_svg

    frame = _load_source(args).frame()
    if args.svg:
        from pathlib import Path

        from repro.errors import AnalysisError, CacheConfigError

        out = Path(args.svg)
        out.mkdir(parents=True, exist_ok=True)
        wanted = [args.figure] if args.figure else sorted(FIGURES)
        for figure in wanted:
            try:
                svg = render_figure_svg(frame, figure)
            except (AnalysisError, CacheConfigError) as exc:
                logger.warning("%s: skipped (%s)", figure, exc)
                continue
            path = out / f"{figure}.svg"
            path.write_text(svg)
            print(f"wrote {path}")
        return 0
    if args.figure:
        print(render_figure(frame, args.figure))
    else:
        print(render_all(frame))
    return 0


def _cache_flag_error(args) -> str | None:
    """Why ``cache``'s flags do not fit its experiment (a flag it would
    not read), or None."""
    experiment = args.experiment
    buffers = args.buffers or []
    if args.policy is not None and experiment != "fig9":
        return f"--policy: --experiment {experiment} does not read it (fig9 does)"
    if args.io_nodes is not None and experiment == "fig8":
        return ("--io-nodes: --experiment fig8 does not read it "
                "(its caches sit at the compute nodes)")
    if experiment == "combined" and buffers:
        return "--buffers: --experiment combined does not read it"
    if experiment in ("prefetch", "disktime") and len(buffers) > 1:
        return f"--buffers: --experiment {experiment} takes one value, got {len(buffers)}"
    if experiment == "fig8" and min(buffers or [1]) < 1:
        return "--buffers: fig8 needs at least 1 buffer"
    return None


def cmd_cache(args) -> int:
    from repro.util.tables import format_percent, format_table

    error = _cache_flag_error(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    n_io_nodes = 10 if args.io_nodes is None else args.io_nodes
    source = _load_source(args)
    # the fig9 sweeps run from a request stream, which a source yields
    # chunk by chunk without materializing the event table
    trace = source if args.experiment == "fig9" else source.frame()
    if args.experiment == "fig8":
        from repro.caching.stackdist import compute_node_stack_profile
        rows = []
        profile = compute_node_stack_profile(trace)
        for res in profile.sweep(args.buffers or (1, 10, 50)):
            rows.append((
                res.buffers, len(res.job_ids),
                format_percent(res.fraction_above(0.75)),
                format_percent(res.fraction_zero()),
                format_percent(res.overall_hit_rate),
            ))
        print(format_table(
            ["buffers", "jobs", ">75% hit", "0% hit", "overall"], rows,
            title="Figure 8: compute-node caching",
        ))
    elif args.experiment == "fig9":
        from repro.caching.sweeps import SweepLine, sweep_lines
        counts = args.buffers or [50, 125, 250, 500, 1000, 2000, 4000]
        policies = args.policy or ["lru", "fifo"]
        curves = sweep_lines(
            trace, counts,
            [SweepLine(policy=p, n_io_nodes=n_io_nodes) for p in policies],
        )
        rows = [
            [policy] + [f"{r:.3f}" for r in curve.hit_rates]
            for policy, curve in zip(policies, curves)
        ]
        print(format_table(
            ["policy"] + [str(c) for c in counts], rows,
            title=f"Figure 9: I/O-node caching ({n_io_nodes} I/O nodes)",
        ))
    elif args.experiment == "combined":
        from repro.caching.combined import simulate_combined
        from repro.core.report import paper_row
        res = simulate_combined(trace, n_io_nodes=n_io_nodes)
        print("§4.8 combined caches:")
        print(f"  I/O hit rate without compute layer: {format_percent(res.io_hit_rate_without)}")
        print(f"  I/O hit rate with compute layer:    {format_percent(res.io_hit_rate_with)}")
        print(f"  reduction: {format_percent(res.io_hit_rate_reduction)} "
              f"(paper {paper_row('combined-cache I/O hit-rate drop').text})")
    elif args.experiment == "prefetch":
        from repro.caching.io_node import request_stream
        from repro.caching.prefetch import simulate_io_node_prefetch
        buffers = int((args.buffers or [500])[0])
        with obs.span("caching/request_stream"):
            stream = request_stream(trace)
        rows = []
        for depth in (0, 1, 2, 4):
            r = simulate_io_node_prefetch(None, buffers, n_io_nodes=n_io_nodes,
                                          depth=depth, stream=stream)
            rows.append((depth, f"{r.hit_rate:.3f}", r.prefetches_issued,
                         format_percent(r.prefetch_accuracy)))
        print(format_table(
            ["depth", "hit rate", "prefetches", "accuracy"], rows,
            title=f"tagged OBL prefetching at {buffers} buffers",
        ))
    else:  # disktime
        from repro.caching.disktime import simulate_disk_time
        buffers = int((args.buffers or [500])[0])
        raw, cached = simulate_disk_time(trace, buffers, n_io_nodes=n_io_nodes)
        print("disk activity, cacheless vs cached:")
        print(f"  cacheless: {raw.n_disk_ops} ops, {raw.busy_seconds:.1f}s busy")
        print(f"  cached:    {cached.n_disk_ops} ops, {cached.busy_seconds:.1f}s busy")
        print(f"  busy-time reduction {1 - cached.busy_seconds / raw.busy_seconds:.1%}")
    return 0


def cmd_strided(args) -> int:
    from repro.strided import coalesce_trace
    from repro.util.tables import format_percent

    frame = _load_source(args).frame()
    res = coalesce_trace(frame)
    print(f"simple requests:  {res.simple_requests}")
    print(f"strided requests: {res.strided_requests}")
    print(f"reduction:        {res.reduction_factor:.1f}x")
    print(f"coalesced:        {format_percent(res.fraction_coalesced)}")
    return 0


def cmd_reproduce(args) -> int:
    """Run every experiment of the paper in one pass."""
    import json

    from repro.caching import compute_node_stack_profile, simulate_combined, sweep_lines
    from repro.core.report import characterize, paper_row
    from repro.strided import coalesce_trace
    from repro.util.tables import format_percent

    frame = _load_source(args).frame()
    report = characterize(frame)
    if args.json:
        payload = report.to_dict()
    else:
        print(report.render())
        print()

    fig8 = compute_node_stack_profile(frame).result_at(1)
    counts = [125, 500, 2000]
    policies = ("lru", "fifo")
    fig9 = dict(zip(policies, sweep_lines(frame, counts, list(policies))))
    combined = simulate_combined(frame)
    strided = coalesce_trace(frame)

    if args.json:
        payload["caching"] = {
            "fig8_jobs_above_75pct": fig8.fraction_above(0.75),
            "fig8_jobs_at_zero": fig8.fraction_zero(),
            "fig9": {
                policy: dict(zip(map(int, curve.buffer_counts), map(float, curve.hit_rates)))
                for policy, curve in fig9.items()
            },
            "combined_reduction": combined.io_hit_rate_reduction,
        }
        payload["strided"] = {
            "reduction_factor": strided.reduction_factor,
            "fraction_coalesced": strided.fraction_coalesced,
        }
        print(json.dumps(payload, indent=2))
        return 0

    print("== Caching (Figures 8-9, §4.8) ==")
    print(f"fig8 (1 buffer): {format_percent(fig8.fraction_above(0.75))} of jobs "
          f">75% hit (paper {paper_row('jobs above 75% compute-node hit rate').text}), "
          f"{format_percent(fig8.fraction_zero())} at zero "
          f"(paper {paper_row('jobs at 0% compute-node hit rate').text})")
    for policy, curve in fig9.items():
        rows = " ".join(f"{c}:{r:.2f}" for c, r in curve.rows())
        print(f"fig9 {policy}: {rows}")
    print(f"§4.8 combined: hit-rate drop "
          f"{format_percent(combined.io_hit_rate_reduction)} "
          f"(paper {paper_row('combined-cache I/O hit-rate drop').text})")
    print("== Strided interface (§5) ==")
    print(f"{strided.simple_requests} requests -> {strided.strided_requests} "
          f"strided ({strided.reduction_factor:.1f}x)")
    return 0


def cmd_validate(args) -> int:
    from repro.workload import validate_workload

    frame = _load_source(args).frame()
    report = validate_workload(frame)
    print(report.render())
    if report.profile == "structural":
        # structural invariants are hard requirements, no slack
        if not report.all_ok:
            logger.warning(
                "structural validation failed: %d of %d checks passed",
                report.passed, len(report.checks),
            )
            return 1
        return 0
    if report.passed < len(report.checks) - 3:
        logger.warning(
            "validation failed: only %d of %d checks passed",
            report.passed, len(report.checks),
        )
        return 1
    return 0


def cmd_scenarios(args) -> int:
    from repro.util.tables import format_table
    from repro.workload import available_engines, available_scenarios, get_engine, get_scenario

    rows = []
    for name in available_scenarios():
        sc = get_scenario(name)
        rows.append((name, sc.engine, f"{sc.duration_hours:g}"))
    print(format_table(
        ["scenario", "engine", "hours at scale 1"], rows,
        title="registered scenarios",
    ))
    print()
    rows = []
    for name in available_engines():
        cls = get_engine(name)
        doc = (cls.__doc__ or "").strip().splitlines()[0]
        rows.append((name, cls.validation, doc))
    print(format_table(
        ["engine", "validation", "description"], rows,
        title="registered workload engines",
    ))
    return 0


def _load_report(path: str):
    """The run report at ``path``, or None once the reason it cannot be
    read is on stderr."""
    from repro.errors import ObsReportError
    from repro.obs import RunReport

    try:
        return RunReport.load(path)
    except ObsReportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def cmd_obs_show(args) -> int:
    report = _load_report(args.report)
    if report is None:
        return 1
    print(report.render())
    return 0


def cmd_obs_export(args) -> int:
    from repro.obs.export import to_jsonl, to_prometheus

    report = _load_report(args.report)
    if report is None:
        return 1
    text = to_prometheus(report) if args.format == "prom" else to_jsonl(report)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({args.format}, {len(text.splitlines())} lines)")
    else:
        sys.stdout.write(text)
    return 0


def cmd_obs_timeline(args) -> int:
    from repro.errors import ObsReportError
    from repro.obs.timeline import (
        build_timeline,
        render_summary,
        write_chrome_trace,
    )

    report = _load_report(args.report)
    if report is None:
        return 1
    try:
        timeline = build_timeline(report)
    except ObsReportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render_summary(timeline))
    if args.out:
        path = write_chrome_trace(timeline, args.out)
        print(f"wrote {path} (Chrome trace-event JSON; load in ui.perfetto.dev)")
    return 0


def cmd_serve(args) -> int:
    import signal

    from repro.service import TraceService

    # under --obs the daemon instruments the session observer, so the
    # CLI's exit path writes the daemon's own run report
    observer = obs.current() if obs.enabled() else None
    service = TraceService(
        host=args.host,
        port=args.port,
        snapshot_path=args.snapshot,
        observer=observer,
    ).start()
    # the bound port resolves a requested port 0 to the ephemeral pick;
    # scripts parse this line to find the daemon
    print(f"trace service at {service.url}", flush=True)
    print(
        "  GET /runs /report/<run> /figdata/<run> /metrics /healthz; "
        "POST /runs /ingest /shutdown",
        flush=True,
    )
    try:
        # SIGTERM drains like Ctrl-C (only the main thread may install
        # handlers; tests drive cmd_serve from worker threads)
        signal.signal(signal.SIGTERM, lambda *_: service.stop())
    except ValueError:
        pass
    try:
        service.wait(args.duration)
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
        if service.snapshot_path is not None:
            print(f"drained; restart log at {service.snapshot_path}")
    return 0


def cmd_push(args) -> int:
    from pathlib import Path

    from repro.service import ServiceClient
    from repro.trace.store import TraceStore

    client = ServiceClient(args.url)
    source = TraceStore(args.path)
    run = args.run or Path(args.path).stem
    summary = client.push(source, run, stride=args.stride, offset=args.offset)
    print(
        f"pushed {summary['n_chunks_sent']} chunks "
        f"({summary['n_events_sent']} events) of run '{run}' to {args.url}"
    )
    if args.wait or args.report:
        client.wait_complete(run, timeout=args.timeout)
    if args.report:
        sys.stdout.write(client.report_text(run))
    return 0


def cmd_obs_diff(args) -> int:
    from repro.errors import ObsReportError
    from repro.obs.regress import (
        compare,
        load_record,
        missing_metrics,
        regressions,
    )

    try:
        base_kind, base_version, base = load_record(args.base)
        new_kind, new_version, new = load_record(args.new)
    except ObsReportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if base_kind != new_kind:
        print(
            f"error: cannot compare a {base_kind} ({args.base}) against "
            f"a {new_kind} ({args.new})",
            file=sys.stderr,
        )
        return 1
    if base_version != new_version:
        print(
            f"error: schema version mismatch: {args.base} is a {base_kind} "
            f"with schema {base_version} but {args.new} has schema "
            f"{new_version} — regenerate the baseline with this build "
            f"before gating on it",
            file=sys.stderr,
        )
        return 1
    deltas = compare(base, new, threshold=args.threshold, patterns=args.metric)
    only_base, only_new = missing_metrics(base, new, patterns=args.metric)
    for name in only_base:
        print(f"warning: metric {name} missing from {args.new} "
              f"(present in {args.base}); skipped")
    for name in only_new:
        print(f"warning: metric {name} missing from {args.base} "
              f"(present in {args.new}); skipped")
    if not deltas:
        print(f"no comparable metrics between {args.base} and {args.new}")
        return 0
    shown = deltas if args.all else [
        d for d in deltas if d.status in ("regression", "improvement")
    ]
    for delta in shown:
        print(delta.describe())
    bad = regressions(deltas)
    n_directed = sum(1 for d in deltas if d.direction != "info")
    print(
        f"{len(deltas)} metrics compared ({n_directed} directional), "
        f"{len(bad)} regressions at threshold {args.threshold:.0%}"
    )
    if bad:
        return 1
    return 0


def cmd_dump(args) -> int:
    from repro.trace.dump import dump_frame

    frame = _load_source(args).frame()
    for line in dump_frame(frame, limit=args.limit, job=args.job, file=args.file):
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.caching.policies import POLICIES
    from repro.core import FIGURES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="CHARISMA reproduction: Kotz & Nieuwejaar, SC'94",
    )
    parser.add_argument(
        "--obs", nargs="?", const="obs_report.json", default=None, metavar="PATH",
        help="collect runtime spans and simulator metrics, writing a JSON "
             "run report to PATH (default obs_report.json); inspect it "
             "with 'obs show'",
    )
    parser.add_argument(
        "--obs-sample", type=float, default=None, metavar="SECONDS",
        help="with --obs: sample RSS/CPU/gauges/counter deltas every "
             "SECONDS on a background thread into the report's time "
             "series (implies --obs)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="more log output (-v info, -vv debug)",
    )
    parser.add_argument(
        "-q", "--quiet", action="count", default=0,
        help="less log output (-q errors only)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic trace")
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--scenario", default="ames1993",
                   help="registered scenario (see 'repro scenarios')")
    p.add_argument("--engine", dest="engine_name", default=None,
                   help="override the scenario's workload engine "
                        "(synthetic, drift, ...)")
    p.add_argument("--mix", default=None, metavar="PATH",
                   help="drift engine: JSON op-weights file "
                        "(read/write/append/create/delete/stat)")
    p.add_argument("--pipeline", choices=["direct", "full"], default="direct")
    p.add_argument("--out", required=True, help="output path of the trace store")
    p.add_argument("--chunk-size", type=_int_at_least(1), default=None,
                   help="events per store chunk")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("characterize", help="run the full §4 characterization")
    _add_input_args(p)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("trace", help="trace-file utilities")
    tsub = p.add_subparsers(dest="trace_command", required=True)
    ti = tsub.add_parser("info", help="print a trace store's layout and contents")
    ti.add_argument("path", help="a trace store written by 'generate'")
    ti.add_argument("--json", action="store_true",
                    help="emit the header and chunk directory as JSON "
                         "(the shape the service's /runs endpoint mirrors)")
    ti.set_defaults(func=cmd_trace_info)

    p = sub.add_parser(
        "serve",
        help="run the trace service: ingest pushed chunks, serve reports",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="0 (the default) binds an ephemeral port; the "
                        "bound choice is printed at startup")
    p.add_argument("--snapshot", metavar="PATH", default=None,
                   help="restart log: accepted runs and chunks are "
                        "appended here and replayed at startup")
    p.add_argument("--duration", type=float, default=None, metavar="SECONDS",
                   help="serve this long then drain (default: until "
                        "Ctrl-C, SIGTERM or POST /shutdown)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "push", help="stream a trace's chunks to a running 'repro serve'"
    )
    p.add_argument("path", help="trace store to push")
    p.add_argument("--url", required=True,
                   help="service base URL, e.g. http://127.0.0.1:8322")
    p.add_argument("--run", default=None,
                   help="run id to register under (default: file stem)")
    p.add_argument("--stride", type=int, default=1,
                   help="push every STRIDE-th chunk (team of clients)")
    p.add_argument("--offset", type=int, default=0,
                   help="this client's first chunk (< --stride)")
    p.add_argument("--wait", action="store_true",
                   help="block until the daemon reports the run complete")
    p.add_argument("--report", action="store_true",
                   help="after completion, print the served report "
                        "(byte-identical to 'repro characterize')")
    p.add_argument("--timeout", type=float, default=60.0,
                   help="seconds to wait with --wait/--report")
    p.set_defaults(func=cmd_push)

    p = sub.add_parser("figures", help="render the paper's figures as ASCII charts")
    _add_input_args(p)
    p.add_argument("--figure", choices=sorted(FIGURES))
    p.add_argument("--svg", metavar="DIR",
                   help="write SVG files into DIR instead of ASCII charts")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("cache", help="run the cache simulations")
    _add_input_args(p)
    p.add_argument("--experiment",
                   choices=["fig8", "fig9", "combined", "prefetch", "disktime"],
                   default="fig9")
    p.add_argument("--policy", nargs="+", default=None,
                   type=str.lower, choices=sorted(POLICIES),
                   help="fig9's replacement policies, one line each "
                        "(default: lru fifo)")
    p.add_argument("--buffers", nargs="+", type=_int_at_least(0))
    p.add_argument("--io-nodes", type=_int_at_least(1), default=None)
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser("strided", help="measure the §5 strided-interface benefit")
    _add_input_args(p)
    p.set_defaults(func=cmd_strided)

    p = sub.add_parser("reproduce", help="run every experiment in one pass")
    _add_input_args(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("validate", help="check a trace against the paper's marginals")
    _add_input_args(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "scenarios", help="list registered scenarios and workload engines"
    )
    p.set_defaults(func=cmd_scenarios)

    p = sub.add_parser("dump", help="print trace events, one per line")
    _add_input_args(p)
    p.add_argument("--limit", type=int, default=50)
    p.add_argument("--job", type=int)
    p.add_argument("--file", type=int)
    p.set_defaults(func=cmd_dump)

    p = sub.add_parser(
        "obs", help="run-report utilities (show, export, diff, timeline)"
    )
    osub = p.add_subparsers(dest="obs_command", required=True)
    osh = osub.add_parser("show", help="pretty-print an --obs run report")
    osh.add_argument("report", help="a JSON run report written by --obs")
    osh.set_defaults(func=cmd_obs_show)
    oe = osub.add_parser("export", help="export a run report in a standard format")
    oe.add_argument("report", help="a JSON run report written by --obs")
    oe.add_argument("--format", choices=["prom", "jsonl"], default="prom",
                    help="prom: Prometheus text exposition format; "
                         "jsonl: one JSON event per line")
    oe.add_argument("--out", metavar="PATH",
                    help="write to PATH instead of stdout")
    oe.set_defaults(func=cmd_obs_export)
    od = osub.add_parser(
        "diff",
        help="compare two run reports or BENCH_*.json files; exit nonzero "
             "on a perf regression",
    )
    od.add_argument("base", help="baseline record (run report or bench JSON)")
    od.add_argument("new", help="candidate record of the same kind")
    od.add_argument("--threshold", type=float, default=0.10,
                    help="relative change that counts as a regression "
                         "(default 0.10 = 10%%)")
    od.add_argument("--metric", nargs="+", metavar="GLOB",
                    help="restrict the comparison to metrics matching "
                         "these fnmatch patterns")
    od.add_argument("--all", action="store_true",
                    help="print every compared metric, not just changes")
    od.set_defaults(func=cmd_obs_diff)
    ot = osub.add_parser(
        "timeline",
        help="lay a traced run report's event stream out as one causal "
             "timeline (Chrome trace-event / Perfetto JSON)",
    )
    ot.add_argument("report", help="a schema-v3 run report written by --obs")
    ot.add_argument("-o", "--out", metavar="PATH",
                    help="write Chrome trace-event JSON to PATH "
                         "(load it in ui.perfetto.dev)")
    ot.set_defaults(func=cmd_obs_timeline)

    return parser


def _configure_logging(verbose: int, quiet: int) -> None:
    level = logging.WARNING + 10 * (quiet - verbose)
    level = max(logging.DEBUG, min(logging.ERROR, level))
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args.verbose, args.quiet)
    if args.obs_sample is not None and args.obs_sample <= 0:
        build_parser().error("--obs-sample period must be positive")
    if args.obs is None and args.obs_sample is not None:
        args.obs = "obs_report.json"  # sampling implies observation
    if args.obs is None:
        return args.func(args)

    from repro.obs import Sampler, TraceContext

    observer = obs.enable(TraceContext.root(worker="main"))
    sampler = None
    if args.obs_sample is not None:
        sampler = Sampler(observer, period_s=args.obs_sample)
        sampler.start()
        observer.sampler = sampler
    try:
        with observer.span(f"cli/{args.command}"):
            return args.func(args)
    except Exception as exc:
        # a failed multi-hour run must leave forensics: the report below
        # carries the trace log, whose tail is the run's final moments
        observer.note("cli.crash", f"{type(exc).__name__}: {exc}")
        raise
    finally:
        # write the report even when the command raises: a profile of the
        # partial run is exactly what a post-mortem wants
        timeseries = sampler.flush() if sampler is not None else None
        command = list(argv) if argv is not None else sys.argv[1:]
        report = observer.report(command=command, timeseries=timeseries)
        obs.disable()
        report.save(args.obs)
        logger.info("wrote obs run report to %s", args.obs)
        print(
            f"[obs] {report.n_spans} spans, {report.n_counters} counters, "
            f"{report.n_histograms} histograms -> {args.obs}",
            file=sys.stderr,
        )


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
