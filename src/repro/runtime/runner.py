"""Boot **one** DAG-Rider node from a peer table — the multi-host unit.

:class:`NodeRunner` is the single shared boot/teardown path for both
deployment shapes:

* ``python -m repro tcp-node --peers table.json --pid K`` runs one runner
  per OS process (one per host in a real deployment), plus a
  :class:`ControlServer` on the pid's ``control_port`` so the fabric
  driver (``scripts/fabric.py``) can probe readiness, aggregate state,
  and stop the node;
* :class:`repro.runtime.cluster.LocalCluster` composes ``n`` runners
  inside one asyncio loop for tests and examples.

Every runner carries an :class:`repro.obs.context.Observability` bundle:
process runners always create their own (per-host trace, the clock bound
to this node's transport scheduler) and write a ``repro.obs.stream``
recording on shutdown; in-loop clusters may share one bundle across runners.

The control protocol is deliberately tiny: newline-delimited JSON request/
response pairs over TCP (``{"cmd": "status"}`` -> one JSON line). Commands:
``ping``, ``status``, ``log`` (position-wise entry digests for the
cross-host prefix-consistency check), ``link_report``, ``trace`` (the
recording text so a driver needs no shared filesystem), ``flight`` (the
in-memory flight-recorder ring as a recording — the black box a stall
diagnostic fetches), and ``stop``. One command escapes the request/response
shape: ``subscribe`` switches the connection into **streaming** mode — the
server answers with a ``repro.obs.stream`` header line and then, every
``interval`` seconds until the client disconnects or the node stops,
writes the events buffered since the last tick (bounded ring, oldest
dropped and counted under backpressure) plus one ``delta`` line carrying
a status snapshot and the metric movement since the previous tick. See
docs/observability.md "Live streaming and causal analysis".
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from typing import TYPE_CHECKING, Any

from repro.common.errors import ConfigurationError
from repro.core.node import DagRiderNode
from repro.crypto.dealer import CoinDealer
from repro.mempool.admission import Mempool
from repro.mempool.gateway import IngressGateway
from repro.obs.context import Observability
from repro.obs.stream import (
    DEFAULT_STREAM_CAPACITY,
    FlightRecorder,
    MetricsDelta,
    StreamSubscriber,
    delta_line,
    dump_trace,
    dumps_trace,
    event_line,
    header_line,
)
from repro.runtime.consistency import full_digest_log
from repro.runtime.peers import PeerTable
from repro.runtime.transport import TcpNetwork
from repro.storage.journal import NodeJournal, RecoveryReport, recover_node

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.chaos import ChaosTransport


class NodeRunner:
    """One DAG-Rider node booted from a declarative peer table."""

    def __init__(
        self,
        table: PeerTable,
        pid: int,
        observability: Observability | None = None,
        chaos: "ChaosTransport | None" = None,
        dealer: CoinDealer | None = None,
        node_kwargs: dict[str, Any] | None = None,
        state_dir: str | None = None,
        fsync: str = "commit",
    ):
        self.table = table
        self.pid = pid
        self.entry = table.entry(pid)
        self.config = table.system_config()
        self.observability = observability
        self._chaos = chaos
        self._dealer = dealer
        self._node_kwargs = dict(node_kwargs or {})
        self.state_dir = state_dir
        self._fsync = fsync
        self._stop = asyncio.Event()
        self._closed = False
        self.network: TcpNetwork | None = None
        self.node: DagRiderNode | None = None
        self.journal: NodeJournal | None = None
        self.recovery: RecoveryReport | None = None
        self.flight: FlightRecorder | None = None
        self.mempool: Mempool | None = None
        self.gateway: IngressGateway | None = None

    # ------------------------------------------------------------ lifecycle

    async def boot(self) -> None:
        """Bind this node's data socket and assemble the protocol stack."""
        if self.network is not None:
            raise RuntimeError(f"runner {self.pid} already booted")
        self.network = TcpNetwork(
            self.config,
            self.pid,
            self.table.addresses(),
            link_config=self.table.link,
            chaos=self._chaos,
            obs=self.observability,
        )
        await self.network.start()
        if self.observability is not None and self.flight is None:
            # The black box: an always-on last-K ring of this node's own
            # events, dumped over control on stall/consistency diagnostics.
            self.flight = FlightRecorder(self.observability.bus)
        dealer = self._dealer
        if dealer is None:
            dealer = self.table.make_dealer()
        if self.state_dir is not None:
            self.journal = NodeJournal(
                self.state_dir,
                pid=self.pid,
                fsync=self._fsync,
                obs=self.observability,
            )
        if self.table.gc_depth is not None:
            # The table's memory policy; an explicit node_kwargs override
            # (tests, LocalCluster callers) still wins.
            self._node_kwargs.setdefault("gc_depth", self.table.gc_depth)
        self.node = DagRiderNode(
            self.pid,
            self.network,
            coin_mode=self.table.coin_mode,
            dealer=dealer,
            journal=self.journal,
            **self._node_kwargs,
        )
        if self.journal is not None:
            # Replay snapshot + WAL into the freshly built stack *before*
            # the protocol starts (and before peers can race deliveries in).
            self.recovery = recover_node(self.node, self.journal)

    def launch(self) -> None:
        """Start the protocol (first broadcast); requires :meth:`boot`."""
        if self.node is None:
            raise RuntimeError(f"runner {self.pid} not booted")
        self.node.start()
        if self.recovery is not None and self.recovery.recovered:
            # Rejoin: pull the DAG suffix peers built while we were down.
            self.node.request_catchup()

    async def start_ingress(self) -> None:
        """Open the client transaction socket on this pid's ``ingress_port``.

        Requires :meth:`boot`. The mempool takes the table's admission
        config and the node's own clock (the transport scheduler), so
        submit → ``a_deliver`` latency stamps share the trace time axis.
        """
        if self.node is None:
            raise RuntimeError(f"runner {self.pid} not booted")
        if self.gateway is not None:
            raise RuntimeError(f"runner {self.pid} ingress already started")
        if self.entry.ingress_port is None:
            raise ConfigurationError(
                f"peer {self.pid} has no ingress_port in the table"
            )
        node = self.node
        self.mempool = Mempool(
            self.pid,
            config=self.table.ingress,
            clock=lambda: node.now,
            obs=self.observability,
        )
        self.gateway = IngressGateway(
            node,
            self.mempool,
            self.entry.host,
            self.entry.ingress_port,
            obs=self.observability,
        )
        await self.gateway.start()

    async def close_links(self) -> None:
        """Quiesce outbound links only (first phase of cluster teardown)."""
        if self.network is not None:
            await self.network.close_links()

    async def close(self) -> None:
        """Tear the transport down; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self.gateway is not None:
            await self.gateway.close()
        if self.network is not None:
            await self.network.close()
        if self.journal is not None:
            self.journal.close()

    def request_stop(self) -> None:
        """Ask :meth:`wait_stopped` to return (control ``stop``, signals)."""
        self._stop.set()

    async def wait_stopped(self, timeout: float | None = None) -> bool:
        """Block until a stop is requested; False when ``timeout`` hit first."""
        if timeout is None:
            await self._stop.wait()
            return True
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(self._stop.wait(), timeout)
        return self._stop.is_set()

    # ----------------------------------------------------------- inspection

    def status(self) -> dict[str, object]:
        """Liveness snapshot the fabric driver polls."""
        node = self.node
        depth = self.network.queue_depth if self.network is not None else 0
        if self.observability is not None:
            # Sampled here (every status poll and subscribe tick) so the
            # live metric deltas carry transport backpressure.
            self.observability.registry.gauge("link.queue_depth").set(float(depth))
        status: dict[str, object] = {
            "ok": True,
            "pid": self.pid,
            "ready": node is not None,
            "ordered": len(self.ordered_digests()),
            "decided_wave": node.decided_wave if node is not None else -1,
            "current_round": node.current_round if node is not None else -1,
            "queue_depth": depth,
        }
        if self.recovery is not None:
            status["recovered"] = self.recovery.recovered
            status["recovery"] = self.recovery.as_dict()
        if self.mempool is not None:
            status["ingress"] = self.mempool.status()
        return status

    def ordered_digests(self) -> list[str]:
        """This node's delivery log as entry digests (hex).

        Includes the digests of entries delivered before the last restart
        (carried through the snapshot), so a recovered node's log lines up
        position-for-position with its uninterrupted peers.
        """
        if self.node is None:
            return []
        return full_digest_log(self.node)

    def link_report(self) -> dict[str, object]:
        if self.network is None:
            return {}
        return self.network.link_report()

    def flight_dump(
        self, reason: str, stalled_for: float | None = None
    ) -> dict[str, object]:
        """Dump the flight-recorder ring (the ``flight`` control command).

        The dump is a recording: this host's trace meta plus the reason in
        the header, the ring's events, and the status and link report in
        the closing metrics line. Emits ``flight_dump`` into the node's own
        trace (so post-hoc analysis sees *when* diagnostics were taken),
        and — when the driver's stall detector asked (``reason="stall"``) —
        a ``stall_detected`` event stamped with how long the quorum
        frontier had been flat from the driver's point of view.
        """
        obs = self.observability
        if obs is None or self.flight is None:
            return {"ok": False, "pid": self.pid, "error": "no flight recorder"}
        if reason == "stall":
            obs.emit(
                self.pid,
                "stall_detected",
                stalled_for=stalled_for,
                decided_wave=self.node.decided_wave if self.node is not None else -1,
            )
        ring = self.flight.ring
        dump = self.flight.dump(
            reason,
            obs.bus.now,
            meta=self.trace_meta(),
            metrics={"links": self.link_report(), "status": self.status()},
        )
        obs.emit(
            self.pid,
            "flight_dump",
            reason=reason,
            events=len(ring),
            overwritten=ring.dropped,
        )
        return {"ok": True, "pid": self.pid, "dump": dump}

    # -------------------------------------------------------------- tracing

    def trace_meta(self) -> dict[str, object]:
        """Deterministic identification for this host's trace header."""
        return {
            "pid": self.pid,
            "n": self.config.n,
            "seed": self.config.seed,
            "coin_mode": self.table.coin_mode,
            "host": self.entry.host,
            "port": self.entry.port,
        }

    def trace_metrics(self) -> dict[str, object]:
        metrics: dict[str, object] = {"links": self.link_report()}
        if self.observability is not None:
            metrics["registry"] = self.observability.snapshot()
        return metrics

    def trace_text(self) -> str:
        """This host's recording (header, events, metrics) as text."""
        events = (
            self.observability.bus.events if self.observability is not None else []
        )
        return dumps_trace(
            events, meta=self.trace_meta(), metrics=self.trace_metrics()
        )

    def dump_trace(self, path: str) -> int:
        """Write this host's trace file; returns the event count."""
        events = (
            self.observability.bus.events if self.observability is not None else []
        )
        dump_trace(
            path, events, meta=self.trace_meta(), metrics=self.trace_metrics()
        )
        return len(events)


class ControlServer:
    """Newline-JSON control endpoint for one :class:`NodeRunner`."""

    def __init__(self, runner: NodeRunner, host: str, port: int):
        self.runner = runner
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._live_subscribers = 0
        self._handlers: set[asyncio.Task[None]] = set()

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle, self.host, self.port)

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        handlers = [task for task in self._handlers if not task.done()]
        if handlers:
            # ``Server.wait_closed`` does not wait for in-flight connection
            # handlers (Python 3.11), and a ``subscribe`` stream flushes its
            # final tick on the stop it shares with teardown — give handlers
            # a grace period so that flush reaches the wire, then cancel.
            await asyncio.wait(handlers, timeout=2.0)
            for task in handlers:
                if not task.done():
                    task.cancel()

    def _dispatch(self, request: dict[str, Any]) -> dict[str, object]:
        command = request.get("cmd")
        runner = self.runner
        if command == "ping":
            return {"ok": True, "pid": runner.pid, "ready": runner.node is not None}
        if command == "status":
            return runner.status()
        if command == "log":
            return {"ok": True, "pid": runner.pid, "digests": runner.ordered_digests()}
        if command == "link_report":
            return {"ok": True, "pid": runner.pid, "report": runner.link_report()}
        if command == "trace":
            return {"ok": True, "pid": runner.pid, "trace": runner.trace_text()}
        if command == "partition":
            peers = sorted(int(p) for p in request.get("peers", []))
            if runner.network is not None:
                runner.network.block_peers(set(peers))
            return {"ok": True, "pid": runner.pid, "blocked": peers}
        if command == "heal":
            if runner.network is not None:
                runner.network.heal()
                runner.network.set_peer_delay(0.0)
            return {"ok": True, "pid": runner.pid, "healed": True}
        if command == "slow":
            delay = float(request.get("delay", 0.0))
            if runner.network is not None:
                runner.network.set_peer_delay(delay)
            return {"ok": True, "pid": runner.pid, "delay": delay}
        if command == "flight":
            reason = str(request.get("reason", "manual"))
            raw_stalled = request.get("stalled_for")
            stalled_for = float(raw_stalled) if raw_stalled is not None else None
            return runner.flight_dump(reason, stalled_for=stalled_for)
        if command == "stop":
            runner.request_stop()
            return {"ok": True, "pid": runner.pid, "stopping": True}
        return {"ok": False, "error": f"unknown command {command!r}"}

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise ValueError("request must be an object")
                except ValueError as exc:
                    response: dict[str, object] = {"ok": False, "error": str(exc)}
                else:
                    command = request.get("cmd")
                    if command == "subscribe":
                        # Streaming mode: the connection is dedicated to
                        # the subscription from here on; no more requests
                        # are read on it.
                        await self._serve_subscribe(request, writer)
                        break
                    response = self._dispatch(request)
                writer.write(
                    (json.dumps(response, sort_keys=True) + "\n").encode()
                )
                await writer.drain()
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            if task is not None:
                self._handlers.discard(task)
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    async def _serve_subscribe(
        self, request: dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        """Stream ``repro.obs.stream`` lines until stop or client hang-up.

        One header line (this host's trace meta plus the filters and the
        interval), then per tick the event lines the filter matched since
        the last tick and one delta line carrying the runner status,
        metric movement, and the cumulative ring-drop count. Ticks are
        paced by ``interval`` seconds; the stream ends with a final tick
        when the runner stops.
        """
        runner = self.runner
        obs = runner.observability
        if obs is None:
            writer.write(b'{"error": "observability off", "ok": false}\n')
            await writer.drain()
            return
        kinds_raw = request.get("kinds")
        kinds: list[str] | None = None
        if isinstance(kinds_raw, list):
            kinds = [str(kind) for kind in kinds_raw]
        raw_round = request.get("min_round")
        min_round = int(raw_round) if raw_round is not None else None
        interval = max(0.05, float(request.get("interval", 1.0)))
        capacity = int(request.get("capacity", DEFAULT_STREAM_CAPACITY))
        subscriber = StreamSubscriber(
            obs.bus, capacity=capacity, kinds=kinds, min_round=min_round
        )
        deltas = MetricsDelta(obs.registry)
        live_gauge = obs.registry.gauge("stream.subscribers")
        drop_counter = obs.registry.counter("stream.dropped")
        self._live_subscribers += 1
        live_gauge.set(self._live_subscribers)
        reported_drops = 0
        seq = 0
        try:
            meta = runner.trace_meta()
            filters = subscriber.filters_dict()
            if filters:
                meta["filters"] = filters
            meta["interval"] = interval
            writer.write((header_line(meta) + "\n").encode())
            await writer.drain()
            while True:
                stopped = await runner.wait_stopped(timeout=interval)
                for event in subscriber.drain():
                    writer.write((event_line(event) + "\n").encode())
                new_drops = subscriber.dropped - reported_drops
                if new_drops:
                    # Overflow is data, not just a log line: count it in
                    # the registry and stamp the trace so post-hoc
                    # analysis knows this stream has holes.
                    reported_drops = subscriber.dropped
                    drop_counter.inc(new_drops)
                    obs.emit(
                        runner.pid,
                        "stream_drop",
                        dropped=new_drops,
                        total=reported_drops,
                    )
                seq += 1
                line = delta_line(
                    seq,
                    obs.bus.now,
                    status=runner.status(),
                    metrics=deltas.collect(),
                    dropped=subscriber.dropped,
                )
                writer.write((line + "\n").encode())
                await writer.drain()
                if stopped:
                    break
        except (ConnectionError, OSError):
            pass
        finally:
            subscriber.close()
            self._live_subscribers -= 1
            live_gauge.set(self._live_subscribers)


async def serve_node(
    table: PeerTable,
    pid: int,
    trace_path: str | None = None,
    run_seconds: float | None = None,
    announce: bool = True,
    state_dir: str | None = None,
    gc_depth: int | None = None,
) -> int:
    """Run one node process until stopped over control (or the deadline).

    The ``python -m repro tcp-node`` body. Returns the process exit code:
    0 after a clean control-socket stop, 2 when ``run_seconds`` expired
    first (so orphaned runners are visible to whatever launched them).
    An explicit ``gc_depth`` (the CLI's ``--gc-depth``) overrides the
    table's; the ingress gateway starts whenever the table gives this pid
    an ``ingress_port``.
    """
    entry = table.entry(pid)
    if entry.control_port is None:
        raise ConfigurationError(
            f"peer {pid} has no control_port; tcp-node needs one to be driven"
        )
    observability = Observability()
    node_kwargs: dict[str, Any] = {}
    if gc_depth is not None:
        node_kwargs["gc_depth"] = gc_depth
    runner = NodeRunner(
        table,
        pid,
        observability=observability,
        state_dir=state_dir,
        node_kwargs=node_kwargs,
    )
    await runner.boot()
    runner.launch()
    control = ControlServer(runner, entry.host, entry.control_port)
    await control.start()
    if entry.ingress_port is not None:
        await runner.start_ingress()
    if announce:
        recovered = ""
        if runner.recovery is not None and runner.recovery.recovered:
            recovered = (
                f" (recovered: {runner.recovery.snapshot_vertices} snapshot + "
                f"{runner.recovery.replayed_vertices} wal vertices, "
                f"{runner.recovery.replayed_commits} commits)"
            )
        ingress = (
            f" ingress {entry.host}:{entry.ingress_port}"
            if entry.ingress_port is not None
            else ""
        )
        print(
            f"node {pid}/{table.n} up: data {entry.host}:{entry.port} "
            f"control {entry.host}:{entry.control_port}{ingress}{recovered}",
            flush=True,
        )
    stopped_clean = await runner.wait_stopped(timeout=run_seconds)
    if trace_path is not None:
        count = runner.dump_trace(trace_path)
        if announce:
            print(f"node {pid}: wrote {count} events to {trace_path}", flush=True)
    await control.close()
    await runner.close_links()
    await runner.close()
    return 0 if stopped_clean else 2


def run_node(
    peers_path: str,
    pid: int,
    trace_path: str | None = None,
    run_seconds: float | None = 300.0,
    state_dir: str | None = None,
    gc_depth: int | None = None,
) -> int:
    """Synchronous entry point used by the CLI."""
    from repro.runtime.peers import load_peer_table

    table = load_peer_table(peers_path)
    return asyncio.run(
        serve_node(
            table,
            pid,
            trace_path=trace_path,
            run_seconds=run_seconds,
            state_dir=state_dir,
            gc_depth=gc_depth,
        )
    )
