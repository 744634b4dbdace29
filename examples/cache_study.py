#!/usr/bin/env python
"""The paper's cache study (§4.8, Figures 8-9) on a synthetic trace.

Reproduces all three experiments:

- **Figure 8** — compute-node caches of 1/10/50 one-block read-only
  buffers: per-job hit-rate distribution (the trimodal clumps);
- **Figure 9** — I/O-node caches: hit rate vs total buffers, LRU vs FIFO
  (plus the OPT and interprocess-aware policies from §5's future work);
- **§4.8 combined** — one buffer per compute node in front of the
  I/O-node caches: how little the I/O-node hit rate drops.

Usage::

    python examples/cache_study.py [--scale 0.05] [--seed 7]
"""

import argparse

from repro.caching import (
    compute_node_stack_profile,
    simulate_combined,
    sweep_buffer_counts,
)
from repro.core.report import paper_row
from repro.util.tables import format_percent, format_table
from repro.workload import WorkloadGenerator, ames1993


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--policies", nargs="+",
                        default=["lru", "fifo", "interprocess"],
                        help="replacement policies for the Figure 9 sweep")
    args = parser.parse_args()

    frame = WorkloadGenerator(ames1993(args.scale), seed=args.seed).run("direct").frame
    print(f"trace: {frame.n_events} events, {len(frame.files)} files\n")

    print("== Figure 8: compute-node caching (read-only, LRU) ==")
    rows = []
    for res in compute_node_stack_profile(frame).sweep((1, 10, 50)):
        rows.append((
            res.buffers,
            len(res.job_ids),
            format_percent(res.fraction_above(0.75)),
            format_percent(res.fraction_zero()),
            format_percent(res.overall_hit_rate),
        ))
    above = paper_row("jobs above 75% compute-node hit rate").text
    zero = paper_row("jobs at 0% compute-node hit rate").text
    print(format_table(
        ["buffers", "jobs", f">75% hit (paper {above})", f"0% hit (paper {zero})",
         "overall"],
        rows,
    ))
    print("paper: one buffer was as good as many; hit rates clump at the extremes\n")

    print("== Figure 9: I/O-node caching ==")
    counts = [50, 125, 250, 500, 1000, 2000, 4000]
    header = ["policy"] + [str(c) for c in counts] + ["90% at"]
    rows = []
    for policy in args.policies:
        curve = sweep_buffer_counts(frame, counts, n_io_nodes=10, policy=policy)
        rows.append(
            [policy]
            + [f"{r:.3f}" for r in curve.hit_rates]
            + [str(curve.buffers_for_hit_rate(0.9) or "-")]
        )
    print(format_table(header, rows, title="read hit rate vs total 4KB buffers"))
    print("paper: LRU reached 90% with ~4000 buffers (at 10x this trace's scale)\n")

    print("== §4.8: combined compute-node + I/O-node caches ==")
    res = simulate_combined(frame, compute_buffers=1, io_buffers_per_node=50,
                            n_io_nodes=10)
    print(f"I/O-node hit rate without compute caches: "
          f"{format_percent(res.io_hit_rate_without)}")
    print(f"I/O-node hit rate with 1-buffer compute caches: "
          f"{format_percent(res.io_hit_rate_with)}")
    print(f"reduction: {format_percent(res.io_hit_rate_reduction)} "
          f"(paper: {paper_row('combined-cache I/O hit-rate drop').text} "
          "— the I/O-node hits are interprocess)")
    print(f"compute-node layer absorbed {res.requests_absorbed} requests "
          f"at {format_percent(res.compute_hit_rate)} hit rate")


if __name__ == "__main__":
    main()
