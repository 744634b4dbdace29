"""Assembly of the whole iPSC/860.

:class:`IPSC860` wires together the hypercube, the clock ensemble, the
compute/I/O/service nodes, and a message model, and exposes the pieces the
tracing pipeline needs: node-local clock readers for trace stamps, and the
collector-side receive clock (service-node time plus message latency).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.errors import MachineError
from repro.machine.clock import ClockEnsemble, Timebase
from repro.machine.message import Message, MessageModel
from repro.machine.nodes import ComputeNode, IONode, ServiceNode
from repro.machine.topology import Hypercube, SubcubeAllocator
from repro.util.rng import SeedSequencePool
from repro.util.units import MB


@dataclass(frozen=True, slots=True)
class MachineConfig:
    """Configuration of an iPSC/860-class machine.

    Defaults reproduce the NAS machine: 128 compute nodes, 10 I/O nodes,
    one service node, 760 MB per disk.
    """

    n_compute_nodes: int = 128
    n_io_nodes: int = 10
    compute_memory: int = 8 * MB
    io_memory: int = 4 * MB
    disk_capacity: int = 760 * MB
    disk_transfer_rate: float = 1.0 * MB
    clock_offset_sigma: float = 0.010
    clock_rate_sigma: float = 50e-6

    def __post_init__(self) -> None:
        if self.n_compute_nodes <= 0 or self.n_compute_nodes & (self.n_compute_nodes - 1):
            raise MachineError(
                f"compute node count must be a power of two, got {self.n_compute_nodes}"
            )
        if self.n_io_nodes <= 0:
            raise MachineError("need at least one I/O node")

    @property
    def hypercube_dim(self) -> int:
        """Dimension of the compute-node hypercube."""
        return self.n_compute_nodes.bit_length() - 1

    @property
    def total_disk_capacity(self) -> int:
        """Aggregate disk bytes (7.6 GB on the NAS machine)."""
        return self.n_io_nodes * self.disk_capacity

    @property
    def aggregate_bandwidth(self) -> float:
        """Aggregate disk bandwidth ceiling ("less than 10 MB/s")."""
        return self.n_io_nodes * self.disk_transfer_rate


class IPSC860:
    """A configured machine instance."""

    def __init__(
        self,
        config: MachineConfig | None = None,
        seed: int = 0,
        start_time: float = 0.0,
    ) -> None:
        self.config = config if config is not None else MachineConfig()
        pool = SeedSequencePool(seed)
        self.cube = Hypercube(self.config.hypercube_dim)
        self.clocks = ClockEnsemble(
            self.config.n_compute_nodes,
            rng=pool.rng("clocks"),
            offset_sigma=self.config.clock_offset_sigma,
            rate_sigma=self.config.clock_rate_sigma,
            include_service=True,
        )
        self.timebase = Timebase(start_time)
        self.compute_nodes = [
            ComputeNode(i, self.clocks[i], self.config.compute_memory)
            for i in range(self.config.n_compute_nodes)
        ]
        # I/O nodes attach to evenly spaced compute nodes.
        stride = max(1, self.config.n_compute_nodes // self.config.n_io_nodes)
        self.io_nodes = [
            IONode(
                i,
                memory=self.config.io_memory,
                attached_to=(i * stride) % self.config.n_compute_nodes,
            )
            for i in range(self.config.n_io_nodes)
        ]
        for io in self.io_nodes:
            io.disk.capacity = self.config.disk_capacity
            io.disk.transfer_rate = self.config.disk_transfer_rate
        self.service_node = ServiceNode(self.clocks.service)
        self.messages = MessageModel(self.cube)
        self.allocator = SubcubeAllocator(self.cube)
        self._seed_pool = pool
        if obs.enabled():
            obs.add("machine.instances")
            obs.gauge("machine.compute_nodes", self.config.n_compute_nodes)
            obs.gauge("machine.io_nodes", self.config.n_io_nodes)
            # boot-time offset spread and worst-case divergence after an
            # hour of drift — the §2.5 numbers the postprocessor corrects
            obs.gauge(
                "machine.clock_offset_spread_s", self.clocks.max_divergence(0.0)
            )
            obs.gauge(
                "machine.clock_drift_spread_1h_s",
                self.clocks.max_divergence(3600.0),
            )

    @property
    def n_compute_nodes(self) -> int:
        """Number of compute nodes."""
        return self.config.n_compute_nodes

    @property
    def n_io_nodes(self) -> int:
        """Number of I/O nodes."""
        return self.config.n_io_nodes

    # -- clocks for the tracing pipeline ------------------------------------

    def node_clock_reader(self, node: int):
        """Zero-arg callable reading compute node ``node``'s local clock."""
        if not 0 <= node < self.n_compute_nodes:
            raise MachineError(f"no compute node {node}")
        return self.clocks[node].reader(self.timebase)

    def collector_stamp(self, block) -> float:
        """Collector receive stamp for a trace block.

        Service-node local time at (true) arrival: true send time of the
        block (inverted through the sender's clock) plus message latency
        from the sender to the compute node the service connection hangs
        off, read on the service node's drifting clock.  The latency
        jitter is drawn from a stream keyed by ``(node, seq)`` rather
        than a shared sequential generator, so the stamp a block gets is
        a pure function of the block — independent of how many blocks
        from *other* nodes arrived first.  The frozen full-pipeline
        trace bytes depend on this keying, so it must not change.
        """
        sender_clock = self.clocks[block.node]
        true_send = float(sender_clock.true(block.send_stamp))
        latency = self.messages.latency(
            Message(src=block.node, dst=0, size=len(block.payload))
        )
        jitter = float(
            self._seed_pool.rng(f"message-jitter/{block.node}/{block.seq}")
            .exponential(self.messages.startup)
        )
        obs.add("machine.collector_stamps")
        return float(self.clocks.service.local(true_send + latency + jitter))

    # -- capacity facts used by workload calibration -------------------------

    def total_disk_capacity(self) -> int:
        """Aggregate disk capacity in bytes."""
        return sum(io.disk.capacity for io in self.io_nodes)

    def aggregate_bandwidth(self) -> float:
        """Aggregate sustained disk bandwidth in bytes/second."""
        return sum(io.disk.transfer_rate for io in self.io_nodes)

    def max_message_hops(self) -> int:
        """Network diameter (= hypercube dimension)."""
        return self.cube.dim

    def describe(self) -> str:
        """One-paragraph summary used in example output."""
        c = self.config
        return (
            f"iPSC/860-class machine: {c.n_compute_nodes} compute nodes "
            f"({c.compute_memory // MB} MB each) on a dim-{self.cube.dim} "
            f"hypercube, {c.n_io_nodes} I/O nodes ({c.io_memory // MB} MB, "
            f"{c.disk_capacity // MB} MB disk each), total "
            f"{c.total_disk_capacity / (1024 * MB):.1f} GB at "
            f"{c.aggregate_bandwidth / MB:.0f} MB/s aggregate."
        )


def drift_divergence_after(machine: IPSC860, hours: float) -> float:
    """Worst-case clock disagreement after running for ``hours`` hours.

    A sanity helper used by tests and the methodology example: with 50 ppm
    drift, clocks diverge by several seconds over a multi-hour trace —
    far more than typical inter-request gaps, which is why raw-trace order
    cannot be trusted without correction.
    """
    return machine.clocks.max_divergence(hours * 3600.0)
