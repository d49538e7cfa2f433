"""A 4-node TCP cluster in a process of its own, driven over stdin/stdout.

Usage: ``python3 perfbench/cluster_child.py <workload> <seed> <trace 0|1>``
with ``src`` and ``perfbench`` on ``PYTHONPATH``.

The cluster is set up the way ``tcp-node`` deploys a node: an
``Observability`` attached, ``gc_depth`` 8, the default
``AdmissionConfig``, loopback with no injected delay; node 0 serves the
client gateway. ``tcp-durable-n4`` also journals every node to a fresh
state directory (fsync policy ``commit``).

Protocol, one JSON object per line. The child first prints
``{"ready": <monotonic>, "ingress": [host, port]}``; then it answers
commands read from stdin:

* ``{"cmd": "restart", "pid": p, "downtime": s}`` closes runner ``p``,
  waits ``s`` seconds and reboots it from its state directory through
  ``NodeRunner.boot()``/``launch()``; answers once its decided wave has
  reached node 0's decided wave at the reboot call.
* ``{"cmd": "finish"}`` stops the cluster, checks total order across all
  nodes, and prints the final report.

The child reports its own peak RSS, so the figure is the cluster's alone.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import sys
import time
from typing import Any

from common import OUT, SpeedGauge, peak_rss_mb

# Machine speed around set-up: slices before the imports and after the
# cluster is up bracket the set-up time.
SETUP_GAUGE = SpeedGauge()
for _ in range(20):
    SETUP_GAUGE.tick()

from repro.common.config import SystemConfig  # noqa: E402
from repro.common.errors import ConsistencyError  # noqa: E402
from repro.mempool.admission import AdmissionConfig  # noqa: E402
from repro.obs.context import Observability  # noqa: E402
from repro.runtime.cluster import LocalCluster  # noqa: E402
from repro.runtime.peers import allocate_port_block  # noqa: E402
from repro.runtime.runner import NodeRunner  # noqa: E402

N = 4
GC_DEPTH = 8
DURABLE = {"tcp-ingress-n4": False, "tcp-durable-n4": True}
LINK_KEYS = ("frames_sent", "retries", "redeliveries")
#: Seconds between two kernel slices on the cluster's event loop.
GAUGE_INTERVAL = 0.025


class Waterfall:
    """Per-block timestamps on node 0 for the per-transaction waterfall.

    Keyed by the block's sequence (node 0 proposes every client block):
    the batch cut (``Mempool.take_batch``), the ``r_bcast`` of the vertex
    carrying it, and node 0's ``a_deliver``. All on ``time.monotonic``,
    which Linux shares across processes, so the generator can join its
    ack arrival times on the same axis.
    """

    def __init__(self) -> None:
        self.blocks: dict[int, dict[str, Any]] = {}
        self.batch_fills: list[tuple[float, int]] = []
        self._taken: float | None = None
        self.offset = 0.0  # monotonic minus node 0's clock

    def on_take(self, batch: list, mempool) -> None:
        if batch and mempool.pid == 0:
            self._taken = time.monotonic()
            self.batch_fills.append((self._taken, len(batch)))

    def on_flush(self, _result, mempool, sequence: int, batch: list) -> None:
        if mempool.pid != 0 or not batch or self._taken is None:
            return
        self.blocks.setdefault(sequence, {}).update(
            taken=self._taken,
            txids=[tx.txid for tx in batch],
            submitted=[tx.submitted_at + self.offset for tx in batch],
        )

    def on_r_bcast(self, _result, rbc, payload, _round) -> None:
        block = getattr(payload, "block", None)
        if rbc.pid == 0 and block is not None and block.proposer == 0:
            self.blocks.setdefault(block.sequence, {}).setdefault(
                "r_bcast", time.monotonic()
            )

    def on_deliver(self, entry) -> None:
        if entry.block.proposer == 0:
            self.blocks.setdefault(entry.block.sequence, {})["delivered"] = (
                time.monotonic()
            )


class Probe:
    """Counters and hooks of a traced cluster run."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.codec_bytes = 0
        self.busy = 0
        self.snapshot_bytes_max = 0
        self.store_vertices_max = 0
        self.waterfall = Waterfall()

    def instrument(self) -> None:
        import repro.runtime.reliable as reliable
        import repro.runtime.runner as runner_module
        import repro.runtime.transport as transport
        import repro.storage.journal as journal_module
        from repro.broadcast.bracha import BrachaBroadcast
        from repro.core.node import DagRiderNode
        from repro.core.ordering import DagRiderOrdering
        from repro.dag.builder import DagBuilder
        from repro.dag.store import DagStore
        from repro.mempool.admission import Mempool
        from repro.obs.bus import EventBus
        from repro.storage.journal import NodeJournal
        from repro.storage.wal import WriteAheadLog

        patch = self.tracer.patch
        # The codec is imported by value into both runtime modules.
        for module in (transport, reliable):
            patch(module, "encode_message", "codec.encode", self._count_bytes)
            patch(module, "decode_message", "codec.decode")
        patch(DagRiderNode, "on_message", "core.on_message")
        patch(BrachaBroadcast, "handle", "broadcast.handle")
        patch(BrachaBroadcast, "r_bcast", "broadcast.r_bcast",
              self.waterfall.on_r_bcast)
        patch(DagBuilder, "on_r_deliver", "dag.on_r_deliver")
        patch(DagBuilder, "on_blocks_available", "dag.on_blocks_available")
        patch(DagStore, "compact", "dag.compact")
        patch(DagRiderOrdering, "wave_ready", "ordering.wave_ready")
        patch(Mempool, "submit", "mempool.submit", self._count_busy)
        patch(Mempool, "take_batch", "mempool.take_batch", self.waterfall.on_take)
        patch(Mempool, "register_flush", "mempool.register_flush",
              self.waterfall.on_flush)
        patch(EventBus, "emit", "obs.emit")
        patch(EventBus, "emit_at", "obs.emit_at")
        patch(WriteAheadLog, "append", "storage.append")
        patch(WriteAheadLog, "sync", "storage.fsync")
        patch(WriteAheadLog, "truncate", "storage.truncate")
        patch(NodeJournal, "write_snapshot", "storage.snapshot")
        patch(journal_module, "write_snapshot", "storage.snapshot_write",
              self._snapshot_size)
        patch(runner_module, "recover_node", "storage.replay")

    def _count_bytes(self, data: bytes, *_args) -> None:
        self.codec_bytes += len(data)

    def _count_busy(self, admission, *_args) -> None:
        if admission.busy:
            self.busy += 1

    def _snapshot_size(self, size: int, *_args) -> None:
        self.snapshot_bytes_max = max(self.snapshot_bytes_max, size)

    def layers(self, cluster: LocalCluster, obs: Observability) -> dict:
        summary = self.tracer.summary()
        calls, seconds = summary.calls, summary.seconds
        catchup = sum(
            int(event.get("applied", 0) or 0)
            for event in obs.bus.events
            if event.kind == "catchup_apply"
        )
        runtime = {
            "dag.store_vertices_max": self.store_vertices_max,
            "dag.vertices_created": sum(
                len(node.builder.created) for node in cluster.nodes
            ),
            "ordering.delivered": sum(len(node.ordered) for node in cluster.nodes),
            "codec.encode_calls": calls("codec.encode"),
            "codec.encode_s": seconds("codec.encode"),
            "codec.decode_calls": calls("codec.decode"),
            "codec.decode_s": seconds("codec.decode"),
            "codec.bytes": self.codec_bytes,
            "mempool.submit_calls": calls("mempool.submit"),
            "mempool.submit_s": seconds("mempool.submit"),
            "mempool.busy": self.busy,
            "mempool.batches": len(self.waterfall.batch_fills),
            "obs.events": calls("obs.emit", "obs.emit_at"),
            "obs.emit_s": seconds("obs.emit", "obs.emit_at"),
            "storage.appends": calls("storage.append"),
            "storage.append_s": seconds("storage.append"),
            "storage.fsyncs": calls("storage.fsync", "storage.truncate"),
            "storage.fsync_s": seconds("storage.fsync", "storage.truncate"),
            "storage.snapshots": calls("storage.snapshot"),
            "storage.snapshot_s": seconds("storage.snapshot"),
            "storage.snapshot_bytes_max": self.snapshot_bytes_max,
            "storage.replay_s": seconds("storage.replay"),
            "catchup.vertices": catchup,
        }
        return dict(summary.protocol_layers(), **runtime)


class Child:
    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.probe = None
        if trace:
            from tracing import Tracer

            self.probe = Probe(Tracer())
            self.probe.instrument()
        self.obs = Observability()
        ports = allocate_port_block(N + 1)
        self.ingress = ("127.0.0.1", ports[N])
        self.state_dirs: dict[int, str] = {}
        if DURABLE[workload]:
            base = f"{OUT}/state-{workload}-{seed}-{time.monotonic_ns()}"
            self.state_base = base
            self.state_dirs = {pid: f"{base}/node-{pid}" for pid in range(N)}
        self.cluster = LocalCluster(
            SystemConfig(n=N, seed=seed),
            peers={pid: ("127.0.0.1", ports[pid]) for pid in range(N)},
            observability=self.obs,
            ingress_ports={0: ports[N]},
            ingress=AdmissionConfig(),
            state_dirs=self.state_dirs,
            gc_depth=GC_DEPTH,
        )
        self.link_totals = {key: 0 for key in LINK_KEYS}
        self.queue_depth_max = 0
        self.recovery: dict[str, Any] = {}
        self.gauge = SpeedGauge()
        self.ticks: list[tuple[float, float]] = []

    def emit(self, message: dict) -> None:
        sys.stdout.write(json.dumps(message) + "\n")
        sys.stdout.flush()

    async def sample_links(self) -> None:
        """Traced runs only: high-water marks of link queues and DAG stores."""
        while True:
            depth = int(self.cluster.link_report()["queue_depth"])
            self.queue_depth_max = max(self.queue_depth_max, depth)
            self.probe.store_vertices_max = max(
                [self.probe.store_vertices_max]
                + [node.store.vertex_count for node in self.cluster.nodes]
            )
            await asyncio.sleep(0.05)

    async def sample_speed(self) -> None:
        """Kernel slices on the cluster's own loop, stamped for the parent.

        The generator scales each step's timings by the slices run during
        that step; the slices' own CPU share is part of the measured load.
        """
        while True:
            at = time.monotonic()
            self.ticks.append((at, self.gauge.tick()))
            await asyncio.sleep(GAUGE_INTERVAL)

    def absorb_links(self, report: dict) -> None:
        for key in LINK_KEYS:
            self.link_totals[key] += int(report.get(key, 0))

    async def restart(self, pid: int, downtime: float) -> dict:
        """Close runner ``pid``, wait, reboot it from its state directory."""
        cluster = self.cluster
        old = cluster.runners[pid]
        self.absorb_links(old.link_report())
        await old.close_links()
        await old.close()
        await asyncio.sleep(downtime)
        rebooted = time.monotonic()
        target = cluster.runners[0].node.decided_wave
        runner = NodeRunner(
            cluster.table,
            pid,
            observability=self.obs,
            node_kwargs={"gc_depth": GC_DEPTH},
            state_dir=self.state_dirs[pid],
        )
        await runner.boot()
        runner.launch()
        cluster.runners[pid] = runner
        while runner.node.decided_wave < target:
            await asyncio.sleep(0.005)
        recovery = runner.recovery
        self.recovery = {
            "recovery_s": time.monotonic() - rebooted,
            "target_wave": target,
            "rebroadcast": recovery.rebroadcast if recovery else 0,
            "recovered": bool(recovery and recovery.recovered),
        }
        return self.recovery

    async def main(self) -> None:
        loop = asyncio.get_running_loop()
        await self.cluster.start()
        entry = self.cluster.runners[0]
        if self.probe is not None:
            waterfall = self.probe.waterfall
            waterfall.offset = time.monotonic() - entry.node.now
            entry.node.add_delivery_listener(waterfall.on_deliver)
        ready = time.monotonic()
        for _ in range(20):
            SETUP_GAUGE.tick()
        samplers = [loop.create_task(self.sample_speed())]
        if self.probe is not None:
            samplers.append(loop.create_task(self.sample_links()))
        self.emit(
            {
                "ready": ready,
                "ingress": list(self.ingress),
                "setup_factor": SETUP_GAUGE.factor(),
                # Both slice batches ran inside the set-up interval.
                "gauge_in_setup": SETUP_GAUGE.seconds,
            }
        )

        reader = asyncio.StreamReader()
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
        )
        pending: set[asyncio.Task] = set()
        while True:
            line = await reader.readline()
            if not line:
                break
            request = json.loads(line)
            if request["cmd"] == "restart":
                task = loop.create_task(
                    self.restart(int(request["pid"]), float(request["downtime"]))
                )
                task.add_done_callback(
                    lambda done: self.emit({"restarted": done.result()})
                )
                pending.add(task)
            elif request["cmd"] == "finish":
                break
        for task in pending:
            await task
        for task in samplers:
            task.cancel()
        await asyncio.gather(*samplers, return_exceptions=True)
        await self.cluster.stop()
        for runner in self.cluster.runners:
            self.absorb_links(runner.link_report())
        order_error = None
        try:
            prefix = self.cluster.check_total_order()
        except ConsistencyError as error:
            prefix, order_error = -1, str(error)
        nodes = self.cluster.nodes
        report: dict[str, Any] = {
            "final": True,
            "peak_rss_mb": peak_rss_mb(),
            "cpu_s": list(os.times()[:2]),  # user, system
            "agreed_prefix": prefix,
            "order_error": order_error,
            "decided_waves": [node.decided_wave for node in nodes],
            "rounds": [node.current_round for node in nodes],
            "links": dict(self.link_totals, queue_depth_max=self.queue_depth_max),
            "recovery": self.recovery,
            "ticks": self.ticks,
        }
        if self.probe is not None:
            self.probe.tracer.unpatch()
            report["layers"] = self.probe.layers(self.cluster, self.obs)
            report["blocks"] = self.probe.waterfall.blocks
            report["batch_fills"] = self.probe.waterfall.batch_fills
            self.probe.tracer.write(f"{OUT}/{self.workload}.spans")
        if self.state_dirs:
            shutil.rmtree(self.state_base, ignore_errors=True)
        self.emit(report)


if __name__ == "__main__":
    name, seed_arg, trace_arg = sys.argv[1:4]
    asyncio.run(Child(name, int(seed_arg), trace_arg == "1").main())
