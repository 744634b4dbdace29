"""§4.8: the combined compute-node + I/O-node cache experiment.

Paper: a single one-block buffer per compute node in front of 10 I/O
nodes with 50 buffers each reduced the I/O-node hit rate by only ~3 % —
most I/O-node hits come from *interprocess* locality, which a per-node
cache cannot capture.
"""

from conftest import show

from repro.caching import simulate_combined
from repro.core.report import paper_row
from repro.util.tables import format_percent


def test_section48_combined_caches(benchmark, frame):
    res = benchmark.pedantic(
        simulate_combined, args=(frame,),
        kwargs={"compute_buffers": 1, "io_buffers_per_node": 50, "n_io_nodes": 10},
        rounds=1, iterations=1,
    )

    show(
        "§4.8: combined caches (1 compute buffer + 10 I/O nodes x 50 buffers)",
        f"I/O-node hit rate without compute layer: "
        f"{format_percent(res.io_hit_rate_without)}\n"
        f"I/O-node hit rate with compute layer:    "
        f"{format_percent(res.io_hit_rate_with)}\n"
        f"reduction: {format_percent(res.io_hit_rate_reduction)} "
        f"(paper {paper_row('combined-cache I/O hit-rate drop').text})\n"
        f"compute layer absorbed {res.requests_absorbed} requests at "
        f"{format_percent(res.compute_hit_rate)} hit rate",
    )

    assert res.io_hit_rate_without > 0.55
    assert 0.0 <= res.io_hit_rate_reduction < 0.25
