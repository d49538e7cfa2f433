"""Asyncio TCP transport with the simulator network's duck interface.

One :class:`TcpNetwork` per node: it binds the node's listening socket,
dials peers through :class:`repro.runtime.reliable.ReliableLink` (per-peer
outbound queues, sequence numbers, ack-based redelivery, backoff,
heartbeats), frames messages as ``4-byte length || 8-byte seq || canonical
codec`` (:mod:`repro.codec` — no pickle on the wire), and authenticates the
sender with a ``pid || boot incarnation`` handshake validated against the
configuration (adequate for a localhost demo; a deployment would wrap the
stream in TLS/noise — see ROADMAP). The incarnation lets a receiver reset
its duplicate cursor when a peer restarts from its state dir and begins a
fresh sequence space.

The pieces :class:`repro.core.node.DagRiderNode` actually touches are kept
signature-compatible with :class:`repro.sim.network.Network`:

* ``network.config`` / ``network.register(process)``
* ``network.send(src, dst, message)`` / ``network.broadcast(src, message)``
* ``network.scheduler.now`` / ``network.scheduler.call_later(delay, cb)``
* ``network.metrics`` (same §3 bit accounting, fed by ``wire_size``; the
  reliability layer's retransmissions and ack/heartbeat traffic are
  tallied separately in ``network.link_stats``)
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from typing import TYPE_CHECKING, Callable

from repro.codec import decode_message, encode_message
from repro.codec.frames import LinkAck, LinkHeartbeat
from repro.common.config import SystemConfig
from repro.common.errors import WireFormatError
from repro.obs.context import Observability
from repro.obs.wire import MetricsCollector
from repro.runtime.reliable import (
    CONNECTION_ERRORS,
    CONTROL_SEQ,
    HANDSHAKE,
    HEADER,
    SEQ,
    LinkConfig,
    LinkStats,
    ReliableLink,
    frame_bytes,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.chaos import ChaosTransport
    from repro.sim.process import Process
    from repro.sim.wire import Message


class AsyncScheduler:
    """Adapter exposing the simulator scheduler's surface over asyncio."""

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self._loop = loop
        self._epoch = loop.time()
        self._handles: dict[int, asyncio.TimerHandle] = {}
        self._next = 0

    @property
    def now(self) -> float:
        """Seconds since this scheduler was created."""
        return self._loop.time() - self._epoch

    def call_later(self, delay: float, callback: Callable[[], object]) -> int:
        handle_id = self._next
        self._next += 1
        self._handles[handle_id] = self._loop.call_later(
            delay, lambda: (self._handles.pop(handle_id, None), callback())
        )
        return handle_id

    def cancel(self, handle_id: int) -> None:
        handle = self._handles.pop(handle_id, None)
        if handle is not None:
            handle.cancel()


class _Inbound:
    """One live accepted connection from a peer."""

    __slots__ = ("writer", "ack_pending")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.ack_pending = False


class TcpNetwork:
    """One node's view of the cluster over TCP, with reliable links.

    Must be constructed inside a running asyncio loop (or be handed one
    explicitly via ``loop``).
    """

    def __init__(
        self,
        config: SystemConfig,
        pid: int,
        peers: dict[int, tuple[str, int]],
        loop: asyncio.AbstractEventLoop | None = None,
        link_config: LinkConfig | None = None,
        chaos: "ChaosTransport | None" = None,
        obs: Observability | None = None,
    ):
        self.config = config
        self.pid = pid
        self.peers = peers
        loop = loop if loop is not None else asyncio.get_running_loop()
        self.scheduler = AsyncScheduler(loop)
        self.metrics = MetricsCollector()
        self.link_config = link_config if link_config is not None else LinkConfig()
        self.link_stats = LinkStats()
        self.chaos = chaos
        self.obs = obs
        if obs is not None:
            # First network in wins: a whole cluster's events share one
            # monotonic time axis (see Observability.attach_clock).
            obs.attach_clock(self.scheduler)
        self._loop = loop
        self._process: "Process | None" = None
        self._server: asyncio.AbstractServer | None = None
        self._links: dict[int, ReliableLink] = {}
        self._inbound: dict[int, _Inbound] = {}
        self._recv_cursor: dict[int, int] = {}  # survives reconnects
        #: This boot's handshake incarnation. A restarted process numbers
        #: its outbound frames from 1 again; peers use the incarnation
        #: change to reset their duplicate cursor for us (monotonic_ns is
        #: system-wide, so each boot on a host gets a strictly larger one).
        self.incarnation = time.monotonic_ns() & (2**64 - 1)
        self._peer_incarnation: dict[int, int] = {}
        self._accept_tasks: set[asyncio.Task[None]] = set()
        self._closed = False
        self._blackout_until = 0.0  # loop time; crash_restart fault window
        self._blocked: set[int] = set()  # partitioned peers (both directions)
        self._peer_delay = 0.0
        if chaos is not None:
            chaos.bind_node(pid, self.simulate_crash)

    # ------------------------------------------------------- node interface

    def register(self, process: "Process") -> None:
        if self._process is not None:
            raise RuntimeError("TcpNetwork hosts exactly one process")
        if process.pid != self.pid:
            raise RuntimeError(f"process {process.pid} on network for {self.pid}")
        self._process = process

    def is_correct(self, pid: int) -> bool:
        return self.config.is_correct(pid)

    def send(self, src: int, dst: int, message: "Message") -> None:
        if src != self.pid:
            raise RuntimeError("a node may only send as itself")
        if dst == self.pid:
            self._loop.call_soon(self._deliver, src, message)
            return
        self.metrics.record_send(
            src, message.wire_size_cached(self.config.n), message.tag(), True
        )
        self._link_for(dst).enqueue(message)

    def broadcast(self, src: int, message: "Message") -> None:
        if src != self.pid:
            raise RuntimeError("a node may only send as itself")
        # Encode once; every peer's link shares the same payload bytes, and
        # the cached wire size prices the message once instead of per peer.
        payload: bytes | None = None
        bits = message.wire_size_cached(self.config.n)
        tag = message.tag()
        for dst in self.config.processes:
            if dst == self.pid:
                self._loop.call_soon(self._deliver, src, message)
                continue
            self.metrics.record_send(src, bits, tag, True)
            if payload is None:
                payload = encode_message(message)
            self._link_for(dst).enqueue_encoded(payload)

    # ----------------------------------------------------------- robustness

    def _link_for(self, dst: int) -> ReliableLink:
        link = self._links.get(dst)
        if link is None:
            link = ReliableLink(
                pid=self.pid,
                dst=dst,
                addr=self.peers[dst],
                loop=self._loop,
                stats=self.link_stats,
                config=self.link_config,
                seed=self.config.seed,
                n=self.config.n,
                chaos=self.chaos,
                obs=self.obs,
                incarnation=self.incarnation,
            )
            # A link created mid-fault inherits the node's current faults.
            link.extra_delay = self._peer_delay
            if dst in self._blocked:
                link.set_blocked(True)
            if self._blackout_until > self._loop.time():
                link.suspend_until(self._blackout_until)
            self._links[dst] = link
        return link

    @property
    def queue_depth(self) -> int:
        """Frames queued-but-unacked across all outbound links."""
        return sum(link.queue_depth for link in self._links.values())

    @property
    def degraded_peers(self) -> frozenset[int]:
        """Peers currently unreachable past the degradation threshold."""
        return frozenset(
            dst for dst, link in self._links.items() if link.degraded
        )

    def link_report(self) -> dict[str, object]:
        """Robustness counters plus live queue/degradation state."""
        report: dict[str, object] = dict(self.link_stats.as_dict())
        report["queue_depth"] = self.queue_depth
        report["degraded_peers"] = sorted(self.degraded_peers)
        return report

    def sever_connections(self) -> int:
        """Forcibly cut every live connection of this node (fault injection).

        Outbound links redial and redeliver; inbound peers do the same from
        their side. Returns the number of connections cut.
        """
        cut = sum(link.sever() for link in self._links.values())
        for state in list(self._inbound.values()):
            if not state.writer.is_closing():
                state.writer.close()
                cut += 1
        return cut

    def simulate_crash(self, downtime: float) -> int:
        """Black this node out for ``downtime`` seconds (crash_restart fault).

        Every live connection is cut, outbound redials are held, and inbound
        connections are refused until the rebirth deadline. The node's
        in-memory protocol state survives — this models a crash + instant
        state recovery; full process death is the scenario matrix's job.
        Returns the number of connections cut.
        """
        self._blackout_until = max(
            self._blackout_until, self._loop.time() + downtime
        )
        for link in self._links.values():
            link.suspend_until(self._blackout_until)
        cut = 0
        for state in list(self._inbound.values()):
            if not state.writer.is_closing():
                state.writer.close()
                cut += 1
        if self.obs is not None:
            self.obs.emit(self.pid, "node_blackout", downtime=downtime)
        return cut

    def block_peers(self, peers: set[int] | frozenset[int]) -> None:
        """Partition helper: stop talking to (and hearing from) ``peers``."""
        self._blocked = set(peers) - {self.pid}
        for dst, link in self._links.items():
            link.set_blocked(dst in self._blocked)
        for src, state in list(self._inbound.items()):
            if src in self._blocked and not state.writer.is_closing():
                state.writer.close()

    def heal(self) -> None:
        """Lift any partition installed by :meth:`block_peers`."""
        self._blocked = set()
        for link in self._links.values():
            link.set_blocked(False)

    def set_peer_delay(self, delay: float) -> None:
        """Slow-peer fault: add ``delay`` seconds before every frame write."""
        self._peer_delay = max(0.0, delay)
        for link in self._links.values():
            link.extra_delay = self._peer_delay

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Bind this node's listening socket."""
        host, port = self.peers[self.pid]
        self._server = await asyncio.start_server(self._accept, host, port)

    async def close_links(self) -> None:
        """Stop the outbound reliable links only (first phase of shutdown).

        Closing a cluster one whole node at a time makes the survivors'
        links reconnect to the nodes not yet closed; quiescing every node's
        outbound side first keeps teardown free of reconnect noise.
        """
        for link in self._links.values():
            await link.close()

    async def close(self) -> None:
        """Stop links, the server, and every accepted connection; idempotent."""
        if self._closed:
            return
        self._closed = True
        await self.close_links()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Closing inbound writers unblocks their handler tasks' reads.
        for state in list(self._inbound.values()):
            state.writer.close()
        for task in list(self._accept_tasks):
            task.cancel()
        for task in list(self._accept_tasks):
            with contextlib.suppress(asyncio.CancelledError):
                await task
        self._accept_tasks.clear()
        self._inbound.clear()

    # ------------------------------------------------------------- plumbing

    def _valid_handshake(self, src: int) -> bool:
        return 0 <= src < self.config.n and src != self.pid

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._accept_tasks.add(task)
        state = _Inbound(writer)
        src = -1
        try:
            src, incarnation = HANDSHAKE.unpack(
                await reader.readexactly(HANDSHAKE.size)
            )
            if not self._valid_handshake(src):
                # Never trust an out-of-range (or self-addressed) pid byte.
                self.link_stats.handshake_rejects += 1
                return
            if self._loop.time() < self._blackout_until or src in self._blocked:
                # Crashed (blacked out) or partitioned from this peer:
                # refuse the connection; the sender backs off and redials.
                return
            last = self._peer_incarnation.get(src)
            if last is not None and last != incarnation:
                # The peer restarted: its fresh links number frames from 1,
                # so the surviving cursor would swallow everything it sends.
                self._recv_cursor[src] = 0
                self.link_stats.peer_restarts += 1
                if self.obs is not None:
                    self.obs.emit(self.pid, "link_peer_restart", src=src)
                    self.obs.registry.counter("link.peer_restarts").inc()
            self._peer_incarnation[src] = incarnation
            prior = self._inbound.get(src)
            if prior is not None:
                # At most one live inbound connection per peer: a fresh
                # handshake supersedes the stale one (the reconnect path).
                self.link_stats.superseded_connections += 1
                prior.writer.close()
            self._inbound[src] = state
            while not self._closed:
                (length,) = HEADER.unpack(await reader.readexactly(HEADER.size))
                body = await reader.readexactly(length)
                if length < SEQ.size:
                    raise WireFormatError("short link frame")
                (seq,) = SEQ.unpack(body[: SEQ.size])
                message = decode_message(body[SEQ.size :])
                if seq == CONTROL_SEQ:
                    if isinstance(message, LinkHeartbeat):
                        await self._send_ack(src, writer)
                    continue
                cursor = self._recv_cursor.get(src, 0)
                if seq <= cursor:
                    # Redelivered after an ack was lost, or a chaos duplicate.
                    self.link_stats.duplicates_dropped += 1
                else:
                    if seq > cursor + 1:
                        # Only a degraded sender drops queued frames; record
                        # the loss instead of stalling the link forever.
                        self.link_stats.gaps += seq - cursor - 1
                    self._recv_cursor[src] = seq
                    self._deliver(src, message)
                self._schedule_ack(src, state)
        except CONNECTION_ERRORS:
            pass
        except asyncio.CancelledError:
            pass
        except WireFormatError:
            # Garbage on the stream: cut the connection; the sender's
            # reliable link redials and redelivers from the last ack.
            pass
        finally:
            if task is not None:
                self._accept_tasks.discard(task)
            if src >= 0 and self._inbound.get(src) is state:
                del self._inbound[src]
            writer.close()
            with contextlib.suppress(*CONNECTION_ERRORS, asyncio.CancelledError):
                await writer.wait_closed()

    async def _send_ack(self, src: int, writer: asyncio.StreamWriter) -> None:
        ack = LinkAck(self._recv_cursor.get(src, 0))
        writer.write(frame_bytes(CONTROL_SEQ, encode_message(ack)))
        await writer.drain()
        self.link_stats.acks_sent += 1
        self.link_stats.control_bits += ack.wire_size(self.config.n)

    def _schedule_ack(self, src: int, state: _Inbound) -> None:
        """Coalesce acks per read-burst instead of acking every data frame.

        ``readexactly`` only suspends when the stream buffer runs dry, so a
        ``call_soon`` scheduled at the first frame of a burst runs exactly
        when the reader blocks again — one cumulative ack then covers every
        frame the burst delivered.
        """
        if state.ack_pending:
            return
        state.ack_pending = True
        self._loop.call_soon(self._flush_ack, src, state)

    def _flush_ack(self, src: int, state: _Inbound) -> None:
        state.ack_pending = False
        writer = state.writer
        if self._closed or writer.is_closing():
            return
        ack = LinkAck(self._recv_cursor.get(src, 0))
        writer.write(frame_bytes(CONTROL_SEQ, encode_message(ack)))
        self.link_stats.acks_sent += 1
        self.link_stats.control_bits += ack.wire_size(self.config.n)

    def _deliver(self, src: int, message: "Message") -> None:
        if self._process is not None:
            self._process.on_message(src, message)
