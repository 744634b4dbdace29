#!/usr/bin/env python
"""Quickstart: generate a synthetic production workload and characterize it.

Runs the library end-to-end in under a minute:

1. build the calibrated NASA-Ames-like scenario at a small scale,
2. generate the trace (direct pipeline),
3. run the full §4 characterization and print it with the paper's
   values alongside,
4. save the trace as a chunked store and re-load it.

Usage::

    python examples/quickstart.py [--scale 0.05] [--seed 7]
"""

import argparse
import tempfile
from pathlib import Path

from repro.core import characterize
from repro.trace.store import TraceStore, write_store
from repro.workload import WorkloadGenerator, ames1993


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.05,
                        help="fraction of the paper's 156 traced hours")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    scenario = ames1993(args.scale)
    print(f"Generating {scenario.duration_hours:.1f} hours of synthetic "
          f"workload on a {scenario.machine.n_compute_nodes}-node iPSC/860 ...")
    workload = WorkloadGenerator(scenario, seed=args.seed).run("direct")
    frame = workload.frame
    print(f"  {workload.n_jobs} jobs ({workload.n_traced_jobs} traced), "
          f"{frame.n_events} trace events, {len(frame.files)} files\n")

    report = characterize(frame)
    print(report.render())

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.store"
        write_store(frame, path)
        with TraceStore(path) as store:
            back = store.frame()
        print(f"\nsaved and re-loaded the trace: {path.stat().st_size / 1e6:.1f} MB, "
              f"{back.n_events} events")


if __name__ == "__main__":
    main()
