"""A complete DAG-Rider process.

Assembles the stack of the paper: reliable broadcast (pluggable — Bracha,
gossip, or AVID, the three Table 1 instantiations), the Algorithm 2 DAG
builder, a global perfect coin (ideal, threshold with dedicated share
messages, or threshold with shares piggybacked on DAG vertices per the
paper's footnote 1), and the Algorithm 3 ordering logic.

Public BAB surface:

* :meth:`DagRiderNode.a_bcast` — propose a block of transactions;
* :attr:`DagRiderNode.ordered` — the ``a_deliver`` output log, a list of
  :class:`OrderedEntry` in delivery order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.broadcast.avid import AvidBroadcast
from repro.broadcast.base import ReliableBroadcast
from repro.broadcast.bracha import BrachaBroadcast
from repro.broadcast.gossip import GossipBroadcast
from repro.coin.base import CoinProtocol
from repro.coin.ideal import IdealCoin
from repro.coin.threshold import CoinShareMessage, ThresholdCoin
from repro.common.errors import ConfigurationError, WireFormatError
from repro.crypto.dealer import CoinDealer
from repro.dag.builder import DagBuilder
from repro.dag.vertex import Vertex
from repro.mempool.blocks import Block, BlockSource, TransactionGenerator
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.wire import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.codec.frames import CatchupRequest, CatchupVertices
    from repro.storage.journal import NodeJournal

#: Vertices per :class:`CatchupVertices` chunk when serving a catch-up.
CATCHUP_CHUNK = 64

#: Catch-up request retry schedule: attempts and spacing (seconds).
CATCHUP_ATTEMPTS = 3
CATCHUP_RETRY_DELAY = 3.0

#: Reliable-broadcast instantiations by name (the Table 1 rows).
BROADCASTS: dict[str, type[ReliableBroadcast]] = {
    "bracha": BrachaBroadcast,
    "gossip": GossipBroadcast,
    "avid": AvidBroadcast,
}

#: Coin modes: ideal functionality, dedicated share messages, or shares
#: riding inside DAG vertices (paper footnote 1).
COIN_MODES = ("ideal", "threshold", "piggyback")


@dataclass(frozen=True)
class OrderedEntry:
    """One ``a_deliver`` output with its delivery position and time."""

    position: int
    block: Block
    round: int
    source: int
    time: float


class DagRiderNode(Process):
    """One correct DAG-Rider process in the simulator."""

    def __init__(
        self,
        pid: int,
        network: Network,
        broadcast: str = "bracha",
        coin_mode: str = "ideal",
        dealer: CoinDealer | None = None,
        block_source: BlockSource | None = None,
        batch_size: int = 1,
        tx_bytes: int = 64,
        broadcast_kwargs: dict | None = None,
        enable_weak_edges: bool = True,
        commit_quorum: int | None = None,
        gc_depth: int | None = None,
        journal: "NodeJournal | None" = None,
    ):
        super().__init__(pid, network)
        config = self.config
        if broadcast not in BROADCASTS:
            raise ConfigurationError(f"unknown broadcast {broadcast!r}")
        if coin_mode not in COIN_MODES:
            raise ConfigurationError(f"unknown coin mode {coin_mode!r}")
        if coin_mode != "ideal" and dealer is None:
            raise ConfigurationError(f"coin mode {coin_mode!r} needs a dealer")

        self.ordered: list[OrderedEntry] = []
        # Synchronous ``a_deliver`` hooks (the ingress gateway's ack path
        # among them), registered with :meth:`add_delivery_listener`.
        self._delivery_listeners: list[Callable[[OrderedEntry], None]] = []
        # GC policy (an extension following DAG-Rider's descendants —
        # Narwhal/Bullshark): once a round is *complete* (all n vertices
        # present) and fully delivered, keep ``gc_depth`` rounds of margin
        # for catch-up serving and collect the rest. None (the default) is
        # the paper-faithful unbounded DAG.
        self._gc_depth = gc_depth
        self._wave_ready_time: dict[int, float] = {}
        # Durable state: the WAL/snapshot sidecar (None → memory-only node).
        self._journal = journal
        #: Entry digests delivered before the last recovery — the restored
        #: prefix of the total-order log for the cross-host prefix check.
        self.recovered_digest_prefix: list[str] = []
        self._catchup_pending: set[int] = set()
        self._catchup_attempts = 0

        if block_source is None:
            block_source = BlockSource(
                pid,
                TransactionGenerator(config.seed, pid, tx_bytes),
                batch_size=batch_size,
            )
        self.block_source = block_source

        self.coin = self._make_coin(coin_mode, dealer)
        self._coin_mode = coin_mode
        if self.obs is not None:
            self._commit_latency = self.obs.registry.histogram("node.commit_latency")
            self._catchup_vertices = self.obs.registry.histogram("catchup.vertices")
        else:
            self._commit_latency = None
            self._catchup_vertices = None

        share_provider = None
        if coin_mode == "piggyback":
            key = dealer.key_for(pid)
            wave_length = config.wave_length

            def share_provider(round_: int) -> int | None:
                # A vertex in round(w+1, 1) = wave_length*w + 1 carries this
                # process's share of coin instance w (w >= 1).
                if round_ % wave_length == 1 and round_ > wave_length:
                    return key.share((round_ - 1) // wave_length)
                return None

        self.builder = DagBuilder(
            pid,
            config,
            block_source,
            on_wave_ready=self._on_wave_ready,
            on_vertex_added=self._on_vertex_added,
            coin_share_provider=share_provider,
            enable_weak_edges=enable_weak_edges,
            on_vertex_created=self._on_vertex_created,
            obs=self.obs,
        )
        self.store = self.builder.store

        kwargs = dict(broadcast_kwargs or {})
        if broadcast == "avid":
            kwargs.setdefault("decode_payload", Vertex.from_bytes)
        self.rbc = BROADCASTS[broadcast](
            pid,
            config,
            send=self.send,
            broadcast=self.broadcast,
            deliver=self.builder.on_r_deliver,
            **kwargs,
        )
        self.rbc.attach_obs(self.obs)
        self.builder.attach_broadcast(self.rbc)

        # Resolved once here, not per message in on_message: repro.codec's
        # registry pulls in the baselines package, which imports this module
        # (an import cycle at module-load time only — it is settled by the
        # time a node is constructed).
        from repro.codec.frames import CatchupRequest, CatchupVertices

        self._catchup_request_cls = CatchupRequest
        self._catchup_vertices_cls = CatchupVertices

        from repro.core.ordering import DagRiderOrdering  # cycle-free import

        self.ordering = DagRiderOrdering(
            pid,
            config,
            self.store,
            self.coin,
            a_deliver=self._record_delivery,
            clock=lambda: self.now,
            commit_quorum=commit_quorum,
            obs=self.obs,
        )

    # -------------------------------------------------------------- plumbing

    def _make_coin(self, coin_mode: str, dealer: CoinDealer | None) -> CoinProtocol:
        if coin_mode == "ideal":
            return IdealCoin(self.config.seed, self.config.n)
        assert dealer is not None
        if coin_mode == "threshold":
            broadcast_share = self.broadcast
        else:  # piggyback: shares travel inside vertices, no extra messages
            def broadcast_share(message: CoinShareMessage) -> None:
                return None

        return ThresholdCoin(
            self.pid, dealer, dealer.key_for(self.pid), broadcast_share
        )

    def start(self) -> None:
        self.builder.start()

    def on_message(self, src: int, message: Message) -> None:
        # Hot path: almost every message belongs to the broadcast layer, so
        # try it first — its handle() rejects foreign types with one type
        # check — and only fall through to the rare control messages.
        if self.rbc.handle(src, message):
            return
        if isinstance(message, CoinShareMessage):
            if isinstance(self.coin, ThresholdCoin):
                self.coin.on_message(src, message)
            return
        if isinstance(message, self._catchup_request_cls):
            self._serve_catchup(src, message)
            return
        if isinstance(message, self._catchup_vertices_cls):
            self._apply_catchup(src, message)

    def _emit(self, kind: str, **fields) -> None:
        """Record one protocol event on the deployment's event bus, if any."""
        obs = self.obs
        if obs is not None:
            obs.bus.emit(self.pid, kind, **fields)

    def _on_wave_ready(self, wave: int) -> None:
        self._wave_ready_time[wave] = self.now
        self._emit("wave_ready", wave=wave)
        commits_before = len(self.ordering.commits)
        self.ordering.wave_ready(wave)
        for record in self.ordering.commits[commits_before:]:
            if self._journal is not None:
                self._journal.record_commit(
                    record.wave, [v.ref for v in record.leader_chain]
                )
            self._emit(
                "commit",
                wave=record.wave,
                leaders=len(record.leader_chain),
                delivered=record.delivered_count,
            )
            if self._commit_latency is not None:
                ready = self._wave_ready_time.get(record.wave)
                if ready is not None:
                    self._commit_latency.record(self.now - ready)
        self._maybe_collect()

    def _maybe_collect(self) -> None:
        """Apply the GC policy after ordering may have advanced."""
        if self._gc_depth is None:
            return
        from repro.common.types import round_of_wave

        decided = self.ordering.decided_wave
        if decided < 1:
            return
        # Largest round prefix that is *complete* (all n vertices present)
        # and fully delivered in this local DAG. Completeness is what makes
        # collection safe: a correct process emits exactly one vertex per
        # round, so no further vertex can ever arrive for a complete round,
        # and the structural delivery rule has already placed all of them.
        # Checking delivered-only would let one node compact a round whose
        # straggler vertex is still in flight — it would then treat the
        # late vertex as delivered (sub-floor refs count as satisfied)
        # while peers that kept the round weave it in via weak parents and
        # deliver it, silently forking the total order. A crashed peer
        # therefore pins the frontier until catch-up refills its column —
        # collection liveness deliberately yields to safety.
        frontier = self.store.collected_floor
        probe = max(1, frontier)
        while True:
            vertices = self.store.round(probe)
            if len(vertices) < self.config.n or not all(
                self.ordering.is_delivered(v.ref) for v in vertices.values()
            ):
                break
            frontier = probe + 1
            probe += 1
        horizon = min(
            frontier - self._gc_depth,
            round_of_wave(decided, 1, self.config.wave_length),
            self.builder.round - 2,
        )
        if horizon > self.store.collected_floor:
            self.ordering.compact_store(horizon)
            if self._journal is not None:
                # Snapshots piggyback on compaction: the snapshot captures
                # the shrunken DAG and lets the WAL be truncated.
                self._journal.write_snapshot(self)

    def _on_vertex_created(self, vertex: Vertex) -> None:
        # Durable *before* the broadcast below (record_created fsyncs): a
        # restarted node must never broadcast different bytes for a round
        # it already used — the crash-equivocation hazard.
        if self._journal is not None:
            self._journal.record_created(vertex)
        self._emit(
            "vertex_created",
            round=vertex.round,
            weak=len(vertex.weak_parents),
        )

    def _on_vertex_added(self, vertex: Vertex) -> None:
        if self._journal is not None:
            self._journal.record_vertex(vertex)
        self._emit(
            "vertex_added",
            round=vertex.round,
            source=vertex.source,
            weak=len(vertex.weak_parents),
        )
        self._extract_share(vertex)
        # Late vertices may complete a wave's commit support only at the
        # *next* wave evaluation per the paper; nothing to do here.

    def _extract_share(self, vertex: Vertex) -> None:
        """Feed a piggybacked coin share (paper footnote 1) to the coin."""
        if self._coin_mode == "piggyback" and vertex.coin_share is not None:
            wave_length = self.config.wave_length
            if vertex.round % wave_length == 1 and vertex.round > wave_length:
                instance = (vertex.round - 1) // wave_length
                assert isinstance(self.coin, ThresholdCoin)
                self.coin.deliver_share(vertex.source, instance, vertex.coin_share)

    def add_delivery_listener(
        self, listener: Callable[[OrderedEntry], None]
    ) -> None:
        """Call ``listener`` synchronously for every future ``a_deliver``."""
        self._delivery_listeners.append(listener)

    def _record_delivery(self, block: Block, round_: int, source: int) -> None:
        position = len(self.recovered_digest_prefix) + len(self.ordered)
        entry = OrderedEntry(position, block, round_, source, self.now)
        self.ordered.append(entry)
        self._emit("a_deliver", round=round_, source=source)
        for listener in self._delivery_listeners:
            listener(entry)

    # -------------------------------------------------- recovery + catch-up

    def absorb_replayed_vertex(self, vertex: Vertex) -> None:
        """Side effects of a WAL-replayed vertex insertion.

        Replay adds vertices to the store directly (no builder, no
        journal re-append); only the per-vertex protocol side effects —
        currently the piggybacked coin shares — must still run.
        """
        self._extract_share(vertex)

    def finish_recovery(self) -> int:
        """Final recovery step; returns how many vertices were re-broadcast.

        Re-signals every wave boundary the pre-crash builder had reached
        above the decided wave: commits that happened in the crash window
        between delivery and the WAL append are re-derived from the
        restored DAG (support over a wave's last round only grows, so
        re-evaluating the commit rule is safe — see
        :meth:`repro.core.ordering.DagRiderOrdering.wave_ready`). Then
        re-broadcasts created-but-undelivered vertices byte-identically;
        reliable-broadcast deduplication converges at the peers.
        """
        top_wave = self.builder.round // self.config.wave_length
        for wave in range(self.ordering.decided_wave + 1, top_wave + 1):
            self._on_wave_ready(wave)
        rebroadcast = 0
        seen: set = set()
        for vertex in self.builder.created:
            if vertex.ref in seen or self.store.contains(vertex.ref):
                continue
            seen.add(vertex.ref)
            self.rbc.r_bcast(vertex, vertex.round)
            rebroadcast += 1
        return rebroadcast

    def request_catchup(self) -> None:
        """Ask every peer for the DAG suffix we may have missed while down.

        Responses are only applied while the peer is in the pending set,
        and every vertex still re-enters through the builder's validity
        checks and the store's ``can_add`` — catch-up can only add
        vertices the normal path would also have accepted.
        """
        peers = [p for p in range(self.config.n) if p != self.pid]
        if not peers:
            return
        self._catchup_pending = set(peers)
        self._catchup_attempts = 0
        self._send_catchup_requests()

    def _send_catchup_requests(self) -> None:
        from repro.codec.frames import CatchupRequest  # cycle-free at runtime

        if not self._catchup_pending:
            return
        self._catchup_attempts += 1
        from_round = max(1, self.store.collected_floor)
        request = CatchupRequest(from_round)
        for peer in sorted(self._catchup_pending):
            self.send(peer, request)
        self._emit(
            "catchup_request",
            from_round=from_round,
            peers=len(self._catchup_pending),
            attempt=self._catchup_attempts,
        )
        if self._catchup_attempts < CATCHUP_ATTEMPTS:
            self.call_later(CATCHUP_RETRY_DELAY, self._send_catchup_requests)

    def _serve_catchup(self, src: int, message: "CatchupRequest") -> None:
        """Answer a peer's catch-up with our DAG from its requested round."""
        from repro.codec.frames import CatchupVertices  # cycle-free at runtime

        from_round = max(1, message.from_round)
        payloads = [
            vertex.to_bytes()
            for vertex in self.store.vertices()
            if vertex.round >= from_round
        ]
        self._emit(
            "catchup_serve", peer=src, from_round=from_round, vertices=len(payloads)
        )
        chunks = [
            payloads[i : i + CATCHUP_CHUNK]
            for i in range(0, len(payloads), CATCHUP_CHUNK)
        ] or [[]]
        for index, chunk in enumerate(chunks):
            done = index == len(chunks) - 1
            self.send(src, CatchupVertices(tuple(chunk), done=done))

    def _apply_catchup(self, src: int, message: "CatchupVertices") -> None:
        if src not in self._catchup_pending:
            return  # unsolicited — we never asked this peer (or already done)
        applied = 0
        for data in message.vertices:
            try:
                vertex = Vertex.from_bytes(data)
            except WireFormatError:
                continue  # damaged or hostile payload; the rest may be fine
            before = self.store.contains(vertex.ref)
            self.builder.on_r_deliver(vertex, vertex.round, vertex.source)
            if not before and self.store.contains(vertex.ref):
                applied += 1
        if self._catchup_vertices is not None and applied:
            self._catchup_vertices.record(applied)
        self._emit(
            "catchup_apply",
            peer=src,
            received=len(message.vertices),
            applied=applied,
            done=message.done,
        )
        if message.done:
            self._catchup_pending.discard(src)
            if not self._catchup_pending:
                self._emit(
                    "catchup_done",
                    round=self.builder.round,
                    decided_wave=self.ordering.decided_wave,
                )

    # ------------------------------------------------------------ public API

    def a_bcast(self, *transactions: bytes) -> Block:
        """Propose transactions as a block (the BAB ``a_bcast``)."""
        block = self.block_source.enqueue_transactions(*transactions)
        self.builder.on_blocks_available()
        return block

    @property
    def decided_wave(self) -> int:
        """Highest wave this process has committed."""
        return self.ordering.decided_wave

    @property
    def current_round(self) -> int:
        """The DAG round this process is currently broadcasting in."""
        return self.builder.round
