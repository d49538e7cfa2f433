"""Reliable authenticated links over TCP — the §2 model, made real.

The paper's proofs assume the link between every two correct processes is
reliable: every message sent is eventually delivered. A raw TCP connection
does not provide that — a reset loses every byte still buffered — so the
runtime adds a classic reliable-link layer on top:

* every data frame carries a **monotonic sequence number** per directed
  link; the receiver keeps a cumulative cursor, discards duplicates, and
  acknowledges with :class:`repro.codec.frames.LinkAck`;
* the sender keeps frames **queued until acked**; after a reconnect it
  redelivers everything unacked, in order;
* dial failures back off **exponentially with seeded jitter** (all
  randomness derives from the run seed via :func:`repro.common.rng.derive_rng`);
* idle links exchange **heartbeats**; a link that stops acknowledging past
  ``heartbeat_timeout`` is torn down and redialed;
* a peer that stays unreachable past ``degrade_after`` is marked
  **degraded** and its queue bounded (oldest frames dropped) — BAB
  tolerates the loss of ``f`` processes, so a correct sender must not
  buffer without bound for a dead one.

Ack/heartbeat bits are tallied in :class:`LinkStats` (``control_bits``),
*not* in :class:`repro.obs.wire.MetricsCollector`, so the runtime's §3
communication accounting matches the simulator's message-level model.
"""

from __future__ import annotations

import asyncio
import contextlib
import struct
from collections import deque
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from repro.codec import decode_message, encode_message
from repro.codec.frames import LinkAck, LinkHeartbeat
from repro.common.errors import ConfigurationError, WireFormatError
from repro.common.rng import derive_rng
from repro.obs.context import Observability

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.chaos import ChaosTransport
    from repro.sim.wire import Message

#: ``4-byte body length`` prefix on every frame (body = seq + codec bytes).
HEADER = struct.Struct(">I")

#: ``8-byte sequence number`` leading every frame body.
SEQ = struct.Struct(">Q")

#: Sender handshake: ``pid byte || 8-byte boot incarnation``. The
#: incarnation changes every time the sending process (re)starts, so a
#: receiver can tell a reconnect (same incarnation — keep the duplicate
#: cursor) from a restart (new incarnation — the sender's sequence space
#: begins again at 1, so the old cursor must be reset or every frame the
#: reborn peer sends would be dropped as a duplicate).
HANDSHAKE = struct.Struct(">BQ")

#: Sequence number reserved for control frames (acks, heartbeats).
CONTROL_SEQ = 0

#: Exceptions that mean "this connection is gone, redial".
CONNECTION_ERRORS = (ConnectionError, OSError, asyncio.IncompleteReadError)


def frame_bytes(seq: int, payload: bytes) -> bytes:
    """One wire frame: length header, sequence number, codec payload."""
    return HEADER.pack(SEQ.size + len(payload)) + SEQ.pack(seq) + payload


class ChaosSever(ConnectionError):
    """Raised by the write path when chaos cuts the connection."""


@dataclass(frozen=True)
class LinkConfig:
    """Tuning knobs for every reliable link of one node.

    Attributes:
        initial_backoff: First redial delay after a dial failure (seconds).
        backoff_factor: Multiplier applied per consecutive failure.
        max_backoff: Backoff ceiling.
        jitter: Fraction of each backoff randomized away (seeded), so a
            cluster restarting together does not redial in lockstep.
        heartbeat_interval: Idle time before the sender probes the link.
        heartbeat_timeout: Silence (no acks) after which a connection is
            presumed dead and torn down for redial.
        degrade_after: Continuous unreachability after which a peer is
            marked degraded and its queue bounded.
        max_degraded_queue: Unacked-frame cap for a degraded peer; the
            oldest frames are dropped beyond it.
    """

    initial_backoff: float = 0.05
    backoff_factor: float = 2.0
    max_backoff: float = 2.0
    jitter: float = 0.5
    heartbeat_interval: float = 1.0
    heartbeat_timeout: float = 5.0
    degrade_after: float = 10.0
    max_degraded_queue: int = 1024

    def __post_init__(self) -> None:
        if self.initial_backoff <= 0 or self.max_backoff < self.initial_backoff:
            raise ConfigurationError(
                f"invalid backoff range [{self.initial_backoff}, {self.max_backoff}]"
            )
        if self.backoff_factor < 1.0:
            raise ConfigurationError(f"backoff_factor {self.backoff_factor} < 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(f"jitter {self.jitter} outside [0, 1]")
        if self.heartbeat_interval <= 0 or self.heartbeat_timeout <= 0:
            raise ConfigurationError("heartbeat intervals must be positive")
        if self.degrade_after <= 0 or self.max_degraded_queue < 1:
            raise ConfigurationError("invalid degraded-peer settings")


@dataclass
class LinkStats:
    """Robustness counters for one node's links (all peers aggregated).

    Kept separate from :class:`repro.obs.wire.MetricsCollector` on
    purpose: these measure the *transport's* work (retries, redeliveries,
    control traffic), which the paper's §3 accounting excludes.
    """

    enqueued: int = 0
    frames_sent: int = 0
    retries: int = 0
    reconnects: int = 0
    redeliveries: int = 0
    duplicates_dropped: int = 0
    gaps: int = 0
    peer_restarts: int = 0
    acks_sent: int = 0
    acks_received: int = 0
    heartbeats_sent: int = 0
    control_bits: int = 0
    dropped_degraded: int = 0
    handshake_rejects: int = 0
    superseded_connections: int = 0
    task_failures: int = 0

    def as_dict(self) -> dict[str, int]:
        """Counters as a plain dict (for reports and aggregation)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class ReliableLink:
    """Sender half of one directed reliable link (this node → one peer).

    ``enqueue`` is the only entry point the network uses; a background pump
    task owns the connection: dial (with backoff), handshake, redeliver the
    unacked backlog, then stream new frames and heartbeats while a reader
    task consumes cumulative acks from the same connection.
    """

    def __init__(
        self,
        pid: int,
        dst: int,
        addr: tuple[str, int],
        loop: asyncio.AbstractEventLoop,
        stats: LinkStats,
        config: LinkConfig,
        seed: int,
        n: int,
        chaos: "ChaosTransport | None" = None,
        obs: Observability | None = None,
        incarnation: int = 0,
    ):
        self.pid = pid
        self.dst = dst
        self.addr = addr
        self.incarnation = incarnation
        self.degraded = False
        #: Extra per-frame write delay (seconds) — the "slow peer" fault.
        self.extra_delay = 0.0
        self._suspend_deadline = 0.0
        self._blocked = False
        self._loop = loop
        self._stats = stats
        self._config = config
        self._n = n
        self._chaos = chaos
        self._obs = obs
        self._rng = derive_rng(seed, "link-jitter", pid, dst)
        self._unacked: deque[tuple[int, bytes]] = deque()
        self._next_seq = 1
        self._acked = 0  # highest cumulatively acked seq
        self._conn_written = 0  # highest seq written on the live connection
        self._ever_written = 0  # highest seq ever written on any connection
        self._connections = 0
        self._dial_attempts = 0
        self._heartbeat_nonce = 0
        self._down_since: float | None = None
        self._last_rx = loop.time()
        self._wake = asyncio.Event()
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task[None] | None = None
        self._task: asyncio.Task[None] | None = None
        self._closed = False

    # ------------------------------------------------------------- queueing

    @property
    def queue_depth(self) -> int:
        """Frames enqueued but not yet acknowledged by the peer."""
        return len(self._unacked)

    def enqueue(self, message: "Message") -> None:
        """Queue a protocol message for reliable delivery to the peer."""
        self.enqueue_encoded(encode_message(message))

    def enqueue_encoded(self, payload: bytes) -> None:
        """Queue an already-encoded message for reliable delivery.

        The broadcast path encodes each message once and hands the same
        bytes to every peer's link, instead of re-running the codec per
        destination.
        """
        if self._closed:
            return
        self._stats.enqueued += 1
        seq = self._next_seq
        self._next_seq += 1
        self._unacked.append((seq, payload))
        if self.degraded:
            self._trim_degraded()
        self._wake.set()
        if self._task is None:
            self._task = self._loop.create_task(self._run())
            self._task.add_done_callback(self._on_task_done)

    def sever(self) -> int:
        """Forcibly cut the live connection (fault-injection helper).

        Returns the number of connections cut (0 or 1); the pump notices and
        redials, redelivering everything unacked.
        """
        writer = self._writer
        if writer is None or writer.is_closing():
            return 0
        writer.close()
        return 1

    def suspend_until(self, deadline: float) -> None:
        """Blackout helper: cut the connection and hold redials until
        ``deadline`` (loop time) — the sending half of a simulated crash."""
        self._suspend_deadline = max(self._suspend_deadline, deadline)
        self.sever()

    def set_blocked(self, blocked: bool) -> None:
        """Partition helper: while blocked, the link stays down (no dials)."""
        self._blocked = blocked
        if blocked:
            self.sever()

    def _trim_degraded(self) -> None:
        while len(self._unacked) > self._config.max_degraded_queue:
            self._unacked.popleft()
            self._stats.dropped_degraded += 1

    # ----------------------------------------------------------------- pump

    async def _run(self) -> None:
        while not self._closed:
            try:
                await self._connect()
                if self._writer is None:  # closed while dialing
                    return
                await self._stream()
            except CONNECTION_ERRORS:
                await self._drop_connection()

    async def _connect(self) -> None:
        cfg = self._config
        backoff = cfg.initial_backoff
        if self._down_since is None:
            self._down_since = self._loop.time()
        while not self._closed:
            hold = self._suspend_deadline - self._loop.time()
            if self._blocked or hold > 0:
                # Crashed or partitioned: stay dark, poll until released.
                await asyncio.sleep(min(max(hold, 0.02), 0.1))
                continue
            self._dial_attempts += 1
            writer = None
            try:
                if self._chaos is not None and self._chaos.fail_dial(
                    self.pid, self.dst, self._dial_attempts
                ):
                    raise ConnectionRefusedError("chaos: dial failure injected")
                reader, writer = await asyncio.open_connection(*self.addr)
                writer.write(HANDSHAKE.pack(self.pid, self.incarnation))
                await writer.drain()
            except CONNECTION_ERRORS:
                if writer is not None:
                    writer.close()
                self._stats.retries += 1
                if self._obs is not None:
                    self._obs.emit(
                        self.pid,
                        "link_retry",
                        dst=self.dst,
                        attempt=self._dial_attempts,
                    )
                    self._obs.registry.counter("link.retries").inc()
                if (
                    not self.degraded
                    and self._loop.time() - self._down_since >= cfg.degrade_after
                ):
                    self.degraded = True
                    self._trim_degraded()
                    if self._obs is not None:
                        self._obs.emit(self.pid, "link_degraded", dst=self.dst)
                        self._obs.registry.counter("link.degraded").inc()
                await asyncio.sleep(backoff * (1.0 - cfg.jitter * self._rng.random()))
                backoff = min(backoff * cfg.backoff_factor, cfg.max_backoff)
                continue
            self._writer = writer
            self._conn_written = self._acked
            self._connections += 1
            if self._connections > 1:
                self._stats.reconnects += 1
                if self._obs is not None:
                    self._obs.emit(
                        self.pid,
                        "link_reconnect",
                        dst=self.dst,
                        connection=self._connections,
                        unacked=len(self._unacked),
                    )
                    self._obs.registry.counter("link.reconnects").inc()
            self.degraded = False
            self._down_since = None
            self._last_rx = self._loop.time()
            self._reader_task = self._loop.create_task(self._read_acks(reader))
            self._reader_task.add_done_callback(self._on_task_done)
            return

    async def _stream(self) -> None:
        while not self._closed:
            frame = self._next_unwritten()
            if frame is None:
                self._wake.clear()
                if self._next_unwritten() is not None:  # enqueue raced the clear
                    continue
                try:
                    await asyncio.wait_for(
                        self._wake.wait(), self._config.heartbeat_interval
                    )
                except asyncio.TimeoutError:
                    await self._send_heartbeat()
                    self._check_liveness(idle=True)
                continue
            seq, payload = frame
            redelivery = seq <= self._ever_written
            await self._write_frame(seq, payload)
            self._conn_written = seq
            self._ever_written = max(self._ever_written, seq)
            self._stats.frames_sent += 1
            if redelivery:
                self._stats.redeliveries += 1
                if self._obs is not None:
                    self._obs.emit(
                        self.pid, "link_redelivery", dst=self.dst, seq=seq
                    )
                    self._obs.registry.counter("link.redeliveries").inc()
            self._check_liveness(idle=False)

    def _next_unwritten(self) -> tuple[int, bytes] | None:
        for frame in self._unacked:
            if frame[0] > self._conn_written:
                return frame
        return None

    async def _write_frame(self, seq: int, payload: bytes) -> None:
        fate = None
        if self._chaos is not None:
            fate = self._chaos.plan(self.pid, self.dst, seq)
        if self.extra_delay > 0:
            await asyncio.sleep(self.extra_delay)
        if fate is not None and fate.delay > 0:
            # Head-of-line: frames behind this one wait too (congestion model).
            await asyncio.sleep(fate.delay)
        if fate is not None and fate.drop:
            raise ChaosSever(f"chaos dropped frame {seq} to {self.dst}")
        writer = self._writer
        if writer is None or writer.is_closing():
            raise ConnectionResetError("connection lost")
        data = frame_bytes(seq, payload)
        writer.write(data)
        if fate is not None and fate.duplicate:
            writer.write(data)
        await writer.drain()
        if self._chaos is not None and self._chaos.sever_after_write(
            self.pid, self.dst, seq
        ):
            raise ChaosSever(f"chaos severed link to {self.dst}")
        if self._chaos is not None and self._chaos.crash_after_write(
            self.pid, self.dst, seq
        ):
            # The bound handler just blacked out the whole node (including
            # this link); cut the write loop at the crash point too.
            raise ChaosSever(f"chaos crash-restarted node {self.pid}")

    async def _send_heartbeat(self) -> None:
        writer = self._writer
        if writer is None or writer.is_closing():
            raise ConnectionResetError("connection lost")
        self._heartbeat_nonce += 1
        message = LinkHeartbeat(self._heartbeat_nonce)
        writer.write(frame_bytes(CONTROL_SEQ, encode_message(message)))
        await writer.drain()
        self._stats.heartbeats_sent += 1
        self._stats.control_bits += message.wire_size(self._n)

    def _check_liveness(self, idle: bool) -> None:
        """Tear the connection down when the peer stopped acknowledging.

        On a busy link unacked frames past the timeout mean the peer (or the
        path back) is gone; on an idle link heartbeats should keep acks
        flowing, so prolonged silence is equally fatal.
        """
        stale = self._loop.time() - self._last_rx > self._config.heartbeat_timeout
        if stale and (idle or self._unacked):
            raise ConnectionResetError("peer unresponsive: ack timeout")

    # ------------------------------------------------------------- ack path

    async def _read_acks(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                (length,) = HEADER.unpack(await reader.readexactly(HEADER.size))
                body = await reader.readexactly(length)
                if length < SEQ.size:
                    raise WireFormatError("short link frame")
                message = decode_message(body[SEQ.size :])
                if isinstance(message, LinkAck):
                    self._on_ack(message)
        except CONNECTION_ERRORS:
            pass
        except asyncio.CancelledError:
            raise
        except WireFormatError:
            # Corrupt ack stream: let the pump tear the connection down via
            # its liveness timeout; redelivery resyncs both cursors.
            pass

    def _on_ack(self, ack: LinkAck) -> None:
        self._stats.acks_received += 1
        self._stats.control_bits += ack.wire_size(self._n)
        self._last_rx = self._loop.time()
        if ack.cumulative > self._acked:
            self._acked = ack.cumulative
            while self._unacked and self._unacked[0][0] <= ack.cumulative:
                self._unacked.popleft()

    # ------------------------------------------------------------ lifecycle

    def _on_task_done(self, task: asyncio.Task[None]) -> None:
        """Surface pump/reader crashes the moment they happen (ASYNC003).

        Expected terminations (cancellation at close, clean returns) pass
        through silently; an unexpected exception would otherwise sit
        swallowed inside the task object until shutdown awaits it, leaving
        the peer silently dead in the meantime.
        """
        if task.cancelled():
            return
        exc = task.exception()
        if exc is None:
            return
        self._stats.task_failures += 1
        if self._obs is not None:
            self._obs.emit(
                self.pid,
                "link_task_error",
                dst=self.dst,
                error=type(exc).__name__,
            )
            self._obs.registry.counter("link.task_errors").inc()

    async def _drop_connection(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._reader_task
            self._reader_task = None
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()
            with contextlib.suppress(*CONNECTION_ERRORS):
                await writer.wait_closed()
        if not self._closed and self._down_since is None:
            self._down_since = self._loop.time()

    async def close(self) -> None:
        """Stop the pump and close the connection; idempotent."""
        self._closed = True
        self._wake.set()
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        await self._drop_connection()
