"""Run a TCP DAG-Rider cluster through a seeded chaos schedule.

The reliable-link layer (``repro.runtime.reliable``) restores the paper's
§2 reliable-link assumption on real sockets: sequence numbers, cumulative
acks, redelivery after reconnect, seeded exponential backoff. This example
turns every fault knob on at once — dropped frames (each one a severed
connection, as TCP loss implies), duplicated frames, injected delays,
periodic connection cuts, and failed dials — and shows the cluster still
ordering blocks with prefix-consistent logs on every node.

The fault *schedule* (which frames on which links misbehave) is a pure
function of the seed, so a failure found here replays exactly.

The full protocol event trace — including the transport's chaos-injection
events — is recorded through the observability bus and written as a
``repro.obs.stream`` recording for post-mortem analysis.

Usage::

    python examples/chaos_cluster.py [--trace PATH]
"""

import argparse
import asyncio

from repro import SystemConfig
from repro.obs.context import Observability
from repro.obs.stream import dump_trace
from repro.runtime.chaos import ChaosConfig, ChaosTransport
from repro.runtime.cluster import LocalCluster
from repro.runtime.reliable import LinkConfig

SEED = 42


async def main(trace_path: str) -> None:
    chaos = ChaosTransport(
        SEED,
        ChaosConfig(
            drop_rate=0.3,       # 30% of first-attempt frames never arrive
            duplicate_rate=0.05,
            delay_rate=0.1,
            max_delay=0.02,
            sever_every=20,      # cut every link every 20 frames
            dial_fail_rate=0.15,
        ),
    )
    observability = Observability()
    cluster = LocalCluster(
        SystemConfig(n=4, seed=SEED),
        base_port=9600,
        link_config=LinkConfig(initial_backoff=0.02, max_backoff=0.3),
        chaos=chaos,
        observability=observability,
    )

    reached = await cluster.run_until(
        lambda: cluster.nodes
        and all(len(node.ordered) >= 20 for node in cluster.nodes),
        timeout=60.0,
    )
    cluster.check_total_order()

    print(f"target reached under chaos: {reached}")
    fault = chaos.report()
    print(
        "injected: "
        f"{fault['drops']}/{fault['first_attempts']} frames dropped "
        f"({100 * fault['drop_fraction']:.1f}%), "
        f"{fault['severs']} severs across "
        f"{len(chaos.severs_by_link)} links, "
        f"{fault['duplicates']} duplicates, {fault['delays']} delays, "
        f"{fault['dial_failures']} dial failures"
    )
    report = cluster.link_report()
    print(
        "recovered: "
        f"{report['reconnects']} reconnects, "
        f"{report['redeliveries']} redeliveries, "
        f"{report['duplicates_dropped']} wire duplicates discarded, "
        f"{report['retries']} backed-off dial retries"
    )
    for node in cluster.nodes:
        print(f"  node {node.pid}: ordered {len(node.ordered):>3} blocks")
    print("prefix-consistent logs despite chaos: OK")

    dump_trace(
        trace_path,
        observability.bus.events,
        meta={"example": "chaos_cluster", "n": 4, "seed": SEED},
        metrics={
            "registry": observability.snapshot(),
            "chaos": fault,
            "links": report,
        },
    )
    print(f"trace: {len(observability.bus.events)} events -> {trace_path}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--trace",
        default="chaos_cluster.trace.jsonl",
        help="where to write the repro.obs.stream recording",
    )
    asyncio.run(main(parser.parse_args().trace))
