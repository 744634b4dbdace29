"""Ablation: striping unit (CFS used 4 KB blocks).

Varies the block size used for striping and caching.  Smaller blocks
spread a request over more I/O nodes (parallelism) but shrink what one
buffer holds; larger blocks improve intrablock locality per buffer while
a fixed-byte cache holds fewer of them.
"""

from conftest import show

from repro.caching import simulate_io_node_caches
from repro.caching.io_node import request_stream
from repro.util.tables import format_table
from repro.util.units import format_bytes

CACHE_BYTES = 500 * 4096  # hold total cache *bytes* fixed across units


def _sweep(frame):
    out = {}
    for block_size in (1024, 4096, 16384):
        buffers = CACHE_BYTES // block_size
        res = simulate_io_node_caches(
            None, buffers, n_io_nodes=10, policy="lru",
            stream=request_stream(frame, block_size),
        )
        out[block_size] = res.hit_rate
    return out


def test_ablation_striping_unit(benchmark, frame):
    rates = benchmark.pedantic(_sweep, args=(frame,), rounds=1, iterations=1)

    show(
        "Ablation: striping unit (fixed total cache bytes)",
        format_table(
            ["block size", "buffers", "read hit rate"],
            [
                (format_bytes(b), CACHE_BYTES // b, r)
                for b, r in sorted(rates.items())
            ],
        ),
    )

    assert all(0.0 <= r <= 1.0 for r in rates.values())
    # the workload's sub-4KB requests mean 4KB blocks already capture the
    # intrablock runs; going finer should not help
    assert rates[4096] >= rates[1024] - 0.05
