"""Asyncio client gateway: the ingress socket beside each runner's control.

``IngressGateway`` serves the newline-JSON client protocol on a node's
``ingress_port`` (peer table, [docs/runtime.md] "Client ingress and
backpressure"):

* ``{"cmd": "submit", "tx": "<hex>"}`` — admit one transaction through
  the :class:`repro.mempool.admission.Mempool`; the response carries the
  content-addressed ``txid`` and, on rejection, an explicit ``busy`` flag
  plus reason — never a silent drop.
* ``{"cmd": "submit_batch", "txs": ["<hex>", ...]}`` — the same, amortized:
  one response with per-transaction results.
* ``{"cmd": "ack"}`` — switch the connection into one-way streaming mode
  (the control socket's ``subscribe`` shape): every time a block this
  node proposed is atomically delivered, one ``{"ack": {...}}`` line per
  client transaction it carried, stamped with the end-to-end latency
  from submit to wave commit.

A supervised background task flushes the mempool on the admission
config's size/deadline triggers, feeding batches into the node's own
``a_bcast`` path (``BlockSource`` → ``DagBuilder``), and a delivery
listener on the node maps committed blocks back to the waiting batches.
The protocol hot path never blocks on a slow ack reader: per-connection
ack buffers are bounded rings, oldest dropped and counted.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from collections import deque
from typing import TYPE_CHECKING, Any

from repro.mempool.admission import Admission, Mempool

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.node import DagRiderNode, OrderedEntry
    from repro.obs.context import Observability

#: Acks buffered per ``ack`` connection before oldest-first eviction.
DEFAULT_ACK_CAPACITY = 4096


class _AckStream:
    """One ``ack``-mode connection's bounded buffer and wakeup."""

    def __init__(self, capacity: int) -> None:
        self.buffer: deque[dict[str, object]] = deque(maxlen=capacity)
        self.wakeup = asyncio.Event()
        self.dropped = 0
        self.hung_up = False

    def push(self, ack: dict[str, object]) -> None:
        if len(self.buffer) == self.buffer.maxlen:
            self.dropped += 1
        self.buffer.append(ack)
        self.wakeup.set()


class IngressGateway:
    """The client-facing transaction socket of one node."""

    def __init__(
        self,
        node: "DagRiderNode",
        mempool: Mempool,
        host: str,
        port: int,
        obs: "Observability | None" = None,
    ) -> None:
        self.node = node
        self.mempool = mempool
        self.host = host
        self.port = port
        self.obs = obs
        self.pid = mempool.pid
        self._server: asyncio.AbstractServer | None = None
        self._flush_task: asyncio.Task[None] | None = None
        self._handlers: set[asyncio.Task[None]] = set()
        self._ack_streams: set[_AckStream] = set()
        self._stopping = False

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError(f"ingress gateway {self.pid} already started")
        self.node.add_delivery_listener(self._on_delivered)
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        # Supervised flusher: a crash is telemetry, not a silent stall.
        self._flush_task = asyncio.get_running_loop().create_task(
            self._flush_loop()
        )
        self._flush_task.add_done_callback(self._flush_done)

    async def close(self) -> None:
        if self._stopping:
            return
        self._stopping = True
        # Last flush: whatever is pending still reaches the proposal queue
        # (delivery acks for it will only flow if the node keeps running).
        self._flush_once(force=True)
        if self._flush_task is not None:
            self._flush_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._flush_task
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for stream in self._ack_streams:
            stream.wakeup.set()
        handlers = [task for task in self._handlers if not task.done()]
        if handlers:
            await asyncio.wait(handlers, timeout=2.0)
            for task in handlers:
                if not task.done():
                    task.cancel()

    # ------------------------------------------------------------- batching

    def _flush_once(self, force: bool = False) -> None:
        """Cut one due batch into a block on the node's proposal queue."""
        batch = self.mempool.take_batch(force=force)
        if not batch:
            return
        block = self.node.a_bcast(*(tx.data for tx in batch))
        self.mempool.register_flush(block.sequence, batch)

    async def _flush_loop(self) -> None:
        # Tick at half the deadline so a lone transaction waits at most
        # ~1.5 deadlines; size triggers fire on the next tick after filling.
        interval = self.mempool.config.batch_deadline / 2.0
        while True:
            await asyncio.sleep(interval)
            self._flush_once()

    def _flush_done(self, task: asyncio.Task[None]) -> None:
        if task.cancelled():
            return
        error = task.exception()
        if error is None:
            return
        if self.obs is not None:
            self.obs.registry.counter("ingress.task_errors").inc()
            self.obs.emit(
                self.pid,
                "ingress_task_error",
                error=f"{type(error).__name__}: {error}",
            )

    # ------------------------------------------------------------- delivery

    def _on_delivered(self, entry: "OrderedEntry") -> None:
        """Map a committed block back to the clients waiting on its txs."""
        block = entry.block
        if block.proposer != self.pid:
            return
        delivered = self.mempool.deliveries(block.sequence)
        if not delivered:
            return
        if self.obs is not None:
            self.obs.emit(
                self.pid,
                "tx_delivered",
                count=len(delivered),
                sequence=block.sequence,
                round=entry.round,
            )
        for tx in delivered:
            ack: dict[str, object] = {
                "ack": {
                    "txid": tx.txid,
                    "e2e": round(tx.latency, 6),
                    "sequence": block.sequence,
                    "round": entry.round,
                    "position": entry.position,
                }
            }
            for stream in self._ack_streams:
                stream.push(ack)

    # ------------------------------------------------------------- protocol

    def _admit(self, raw_tx: object) -> Admission:
        if not isinstance(raw_tx, str):
            raise ValueError("tx must be a hex string")
        try:
            data = bytes.fromhex(raw_tx)
        except ValueError:
            raise ValueError("tx is not valid hex") from None
        if not data:
            raise ValueError("tx must not be empty")
        return self.mempool.submit(data)

    def _emit_request_events(self, results: list[Admission]) -> None:
        """One ``tx_submitted``/``tx_rejected`` event per request outcome."""
        if self.obs is None:
            return
        accepted = sum(
            1 for result in results
            if result.accepted and result.reason is None
        )
        if accepted:
            self.obs.emit(
                self.pid,
                "tx_submitted",
                count=accepted,
                pending=self.mempool.pending_txs,
            )
        rejected: dict[str, int] = {}
        for result in results:
            if not result.accepted and result.reason is not None:
                rejected[result.reason] = rejected.get(result.reason, 0) + 1
        for reason in sorted(rejected):
            self.obs.emit(
                self.pid, "tx_rejected", count=rejected[reason], reason=reason
            )

    @staticmethod
    def _result_dict(admission: Admission) -> dict[str, object]:
        result: dict[str, object] = {
            "accepted": admission.accepted,
            "txid": admission.txid,
        }
        if admission.reason is not None:
            result["reason"] = admission.reason
        if not admission.accepted:
            result["busy"] = admission.busy
        return result

    def _dispatch(self, request: dict[str, Any]) -> dict[str, object]:
        verb = request.get("cmd")
        if verb == "submit":
            admission = self._admit(request.get("tx"))
            self._emit_request_events([admission])
            response: dict[str, object] = {"ok": True, "pid": self.pid}
            response.update(self._result_dict(admission))
            return response
        if verb == "submit_batch":
            raw_txs = request.get("txs")
            if not isinstance(raw_txs, list) or not raw_txs:
                raise ValueError("txs must be a non-empty list of hex strings")
            results = [self._admit(raw) for raw in raw_txs]
            self._emit_request_events(results)
            return {
                "ok": True,
                "pid": self.pid,
                "accepted": sum(1 for r in results if r.accepted),
                "rejected": sum(1 for r in results if not r.accepted),
                "busy": any(r.busy for r in results),
                "results": [self._result_dict(r) for r in results],
            }
        return {"ok": False, "error": f"unknown ingress command {verb!r}"}

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        try:
            while not self._stopping:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise ValueError("request must be an object")
                    if request.get("cmd") == "ack":
                        # Streaming mode: the connection is dedicated to
                        # delivery acks from here on.
                        await self._serve_acks(request, reader, writer)
                        break
                    response = self._dispatch(request)
                except ValueError as exc:
                    response = {"ok": False, "error": str(exc)}
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

    async def _serve_acks(
        self,
        request: dict[str, Any],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Stream delivery acks until the client hangs up or we stop.

        Only deliveries *after* subscription are streamed — clients that
        care about every ack open the ack connection before submitting.
        """
        capacity = int(request.get("capacity", DEFAULT_ACK_CAPACITY))
        stream = _AckStream(max(1, capacity))
        self._ack_streams.add(stream)
        watcher = asyncio.get_running_loop().create_task(
            self._watch_hangup(reader, stream)
        )
        reported_drops = 0
        try:
            writer.write(
                (
                    json.dumps(
                        {"ok": True, "pid": self.pid, "streaming": True},
                        sort_keys=True,
                    )
                    + "\n"
                ).encode()
            )
            await writer.drain()
            while True:
                if not stream.buffer and not self._stopping:
                    stream.wakeup.clear()
                    await stream.wakeup.wait()
                if stream.hung_up or (self._stopping and not stream.buffer):
                    break
                while stream.buffer:
                    ack = stream.buffer.popleft()
                    writer.write(
                        (json.dumps(ack, sort_keys=True) + "\n").encode()
                    )
                if stream.dropped > reported_drops:
                    writer.write(
                        (
                            json.dumps(
                                {"dropped": stream.dropped}, sort_keys=True
                            )
                            + "\n"
                        ).encode()
                    )
                    reported_drops = stream.dropped
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            self._ack_streams.discard(stream)
            watcher.cancel()
            await asyncio.wait({watcher})

    @staticmethod
    async def _watch_hangup(reader: asyncio.StreamReader, stream: _AckStream) -> None:
        """Wake the ack stream when its client hangs up.

        An ack client sends nothing after ``ack``, so the only thing left
        to read is EOF; without this, acks would keep being written into
        a closed connection.
        """
        with contextlib.suppress(ConnectionError, OSError):
            while await reader.read(4096):
                pass
        stream.hung_up = True
        stream.wakeup.set()
