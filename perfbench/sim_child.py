"""One simulator run in a process of its own: build, run, check, report.

Usage: ``python3 perfbench/sim_child.py <workload> <seed> <trace 0|1>``
with ``src`` and ``perfbench`` on ``PYTHONPATH``. Prints one JSON line.
A fresh process per run keeps ``peak_rss_mb`` this run's own.
"""

from __future__ import annotations

import json
import sys
import time

from common import OUT, SpeedGauge, peak_rss_mb

# Machine speed around set-up: slices before the imports and after the
# deployment is built bracket the set-up time.
SETUP_GAUGE = SpeedGauge()
for _ in range(20):
    SETUP_GAUGE.tick()

from repro.common.config import SystemConfig  # noqa: E402
from repro.core.harness import DagRiderDeployment  # noqa: E402
from repro.mempool.blocks import (  # noqa: E402
    Block,
    BlockSource,
    TransactionGenerator,
)

#: workload -> (n, broadcast, batch, target wave). Batches follow the
#: paper's Table 1 rows: Θ(n) for Bracha, Θ(n log n) for AVID.
SIM_WORKLOADS = {
    "sim-dag-n7": (7, "bracha", 7, 50),
    "sim-avid-n25": (25, "avid", 116, 2),
}

TX_BYTES = 64
#: Scheduler events between two kernel slices (tens of milliseconds).
CHUNK_EVENTS = 2000
MAX_EVENTS = 20_000_000


class StampedBlockSource(BlockSource):
    """The default synthetic source, noting the simulated time of each proposal."""

    def __init__(self, pid: int, seed: int, batch: int, stamps: dict) -> None:
        super().__init__(pid, TransactionGenerator(seed, pid, TX_BYTES), batch)
        self.stamps = stamps
        self.scheduler = None  # set once the deployment exists

    def dequeue(self) -> Block | None:
        block = super().dequeue()
        if block is not None:
            self.stamps[(block.proposer, block.sequence)] = self.scheduler.now
        return block


def instrument(tracer) -> None:
    """Patch a span around each sim-path layer entry point."""
    import repro.broadcast.avid as avid
    from repro.broadcast.avid import AvidBroadcast
    from repro.broadcast.bracha import BrachaBroadcast
    from repro.core.node import DagRiderNode
    from repro.core.ordering import DagRiderOrdering
    from repro.dag.builder import DagBuilder
    from repro.dag.store import DagStore
    from repro.sim.network import Network
    from repro.sim.scheduler import Scheduler

    tracer.patch(Scheduler, "run", "sim.run")
    tracer.patch(Network, "send", "sim.send")
    tracer.patch(Network, "broadcast", "sim.broadcast")
    tracer.patch(DagRiderNode, "on_message", "core.on_message")
    for cls in (BrachaBroadcast, AvidBroadcast):
        tracer.patch(cls, "handle", "broadcast.handle")
        tracer.patch(cls, "r_bcast", "broadcast.r_bcast")
    tracer.patch(DagBuilder, "on_r_deliver", "dag.on_r_deliver")
    tracer.patch(DagStore, "compact", "dag.compact")
    tracer.patch(DagRiderOrdering, "wave_ready", "ordering.wave_ready")
    # Imported by value into the AVID module: patch where it looks them up.
    tracer.patch(avid, "rs_encode", "codes.rs_encode")
    tracer.patch(avid, "rs_decode", "codes.rs_decode")
    tracer.patch(avid, "MerkleTree", "codes.merkle_tree")
    tracer.patch(avid, "verify_proof", "codes.merkle_verify")


def layer_metrics(tracer) -> dict[str, float]:
    summary = tracer.summary()
    calls, seconds = summary.calls, summary.seconds
    deliveries = calls("dag.on_r_deliver")
    decodes = calls("codes.rs_decode")
    sim = {
        "sim.self_s": summary.layer_self.get("sim", 0.0),
        "sim.send_s": seconds("sim.send", "sim.broadcast"),
        "codes.encode_calls": calls("codes.rs_encode"),
        "codes.encode_s": seconds("codes.rs_encode"),
        "codes.decode_calls": decodes,
        "codes.decode_s": seconds("codes.rs_decode"),
        "codes.merkle_s": seconds("codes.merkle_tree", "codes.merkle_verify"),
        "codes.decode_per_delivery": decodes / deliveries if deliveries else 0.0,
    }
    return dict(summary.protocol_layers(), **sim)


def main(workload: str, seed: int, trace: bool) -> dict:
    n, broadcast, batch, target = SIM_WORKLOADS[workload]
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        instrument(tracer)
    stamps: dict[tuple[int, int], float] = {}
    config = SystemConfig(n=n, seed=seed)
    sources = [
        StampedBlockSource(pid, seed, batch, stamps) for pid in config.processes
    ]
    deployment = DagRiderDeployment(
        config,
        broadcast=broadcast,
        batch_size=batch,
        tx_bytes=TX_BYTES,
        node_kwargs={pid: {"block_source": sources[pid]} for pid in config.processes},
    )
    for source in sources:
        source.scheduler = deployment.scheduler
    latencies: list[float] = []  # simulated time
    nodes = deployment.correct_nodes

    def listener_for(pid: int):
        def on_deliver(entry) -> None:
            block = entry.block
            if block.proposer == pid:
                latencies.append(entry.time - stamps[(pid, block.sequence)])

        return on_deliver

    for node in nodes:
        node.add_delivery_listener(listener_for(node.pid))
    ready = time.monotonic()
    gauge_in_setup = SETUP_GAUGE.seconds  # the batch before the imports
    for _ in range(20):
        SETUP_GAUGE.tick()

    # run_until_wave in chunks, a kernel slice after each: the same event
    # sequence, with the machine's speed sampled all along the run.
    orderings = [node.ordering for node in nodes]

    def reached() -> bool:
        return all(ordering.decided_wave >= target for ordering in orderings)

    gauge = SpeedGauge(collect=True)
    scheduler = deployment.scheduler
    run_s = 0.0
    while not reached() and scheduler.events_processed < MAX_EVENTS:
        start = time.perf_counter()
        scheduler.run(max_events=CHUNK_EVENTS, stop_when=reached)
        run_s += time.perf_counter() - start
        gauge.tick()
    factor = gauge.factor()
    # Latency in simulated time, converted at the run's own scaled rate of
    # wall time per simulated time unit. Per-block wall stamps would also
    # catch the collector's pauses landing on single blocks, which made the
    # tail swing between runs; the pauses are in run_s all the same.
    ms_per_unit = run_s * factor / scheduler.now * 1000.0

    order_error = None
    try:
        deployment.check_total_order()
        deployment.check_integrity()
    except AssertionError as error:
        order_error = str(error)
    counts = {
        "sim.events": deployment.scheduler.events_processed,
        "sim.messages": deployment.metrics.messages_total,
        "ordering.delivered": sum(len(node.ordered) for node in nodes),
        "dag.vertices_created": sum(len(node.builder.created) for node in nodes),
        "dag.weak_edges": sum(
            len(vertex.weak_parents)
            for node in nodes
            for vertex in node.builder.created
        ),
        "dag.store_vertices_max": max(node.store.vertex_count for node in nodes),
    }
    ordered_txs = sum(len(entry.block) for entry in nodes[0].ordered)
    result = {
        "ready": ready,
        "setup_factor": SETUP_GAUGE.factor(),
        "gauge_in_setup": gauge_in_setup,
        "reached": reached(),
        "order_error": order_error,
        "raw_run_s": run_s,
        "slice_ms": gauge.slice_s * 1000.0,
        "run_s": run_s * factor,
        "peak_rss_mb": peak_rss_mb(),
        # Every block carries ``batch`` txs sharing its latency, so block
        # percentiles are transaction percentiles.
        "tx_samples": len(latencies) * batch,
        "latencies_ms": [latency * ms_per_unit for latency in latencies],
        "tx_per_s": ordered_txs / (run_s * factor),
        "counts": counts,
    }
    if tracer is not None:
        tracer.unpatch()
        result["layers"] = layer_metrics(tracer)
        tracer.write(f"{OUT}/{workload}.spans")
    return result


if __name__ == "__main__":
    name, seed_arg, trace_arg = sys.argv[1:4]
    print(json.dumps(main(name, int(seed_arg), trace_arg == "1")))
