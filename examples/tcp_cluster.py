"""Run a real DAG-Rider cluster over localhost TCP sockets.

The exact same node code that powers the simulator experiments runs here
over asyncio TCP — four nodes, four listening ports, real bytes on real
sockets — and keeps the same guarantees.

The full protocol event trace is recorded through the unified
observability bus and written as a ``repro.obs.stream`` recording,
ready for ``python -m repro.obs summarize/waves/diff``.

Usage::

    python examples/tcp_cluster.py [--trace PATH]
"""

import argparse
import asyncio

from repro import SystemConfig
from repro.obs.context import Observability
from repro.obs.stream import dump_trace
from repro.runtime.cluster import LocalCluster


async def main(trace_path: str) -> None:
    config = SystemConfig(n=4, seed=11)
    observability = Observability()
    cluster = LocalCluster(
        config, base_port=9500, coin_mode="threshold", observability=observability
    )

    reached = await cluster.run_until(
        lambda: cluster.nodes
        and all(len(node.ordered) >= 20 for node in cluster.nodes),
        timeout=60.0,
    )
    cluster.check_total_order()

    print(f"target reached: {reached}")
    for node, network in zip(cluster.nodes, cluster.networks):
        print(
            f"  node {node.pid} @ {cluster.peers[node.pid][1]}: "
            f"ordered {len(node.ordered):>3} blocks, decided wave "
            f"{node.decided_wave}, sent {network.metrics.correct_bits_total:,} bits"
        )
    first = cluster.nodes[0].ordered[:4]
    print("first deliveries:", [(e.round, e.source) for e in first])
    report = cluster.link_report()
    print(
        "reliable links: "
        f"{report['frames_sent']} frames, {report['acks_sent']} acks, "
        f"{report['reconnects']} reconnects, {report['redeliveries']} "
        f"redeliveries, {report['control_bits']:,} control bits"
    )
    print("total order across all four nodes: OK")

    dump_trace(
        trace_path,
        observability.bus.events,
        meta={"example": "tcp_cluster", "n": config.n, "seed": config.seed},
        metrics={"registry": observability.snapshot(), "links": report},
    )
    print(f"trace: {len(observability.bus.events)} events -> {trace_path}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--trace",
        default="tcp_cluster.trace.jsonl",
        help="where to write the repro.obs.stream recording",
    )
    asyncio.run(main(parser.parse_args().trace))
