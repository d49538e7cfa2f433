"""Ack batching: one cumulative ack per read-burst instead of per frame."""

import asyncio

from repro.broadcast.gossip import GossipSubscribe
from repro.codec import encode_message
from repro.codec.frames import LinkAck
from repro.common.config import SystemConfig
from repro.runtime.peers import allocate_port_block
from repro.runtime.reliable import HANDSHAKE, frame_bytes
from repro.runtime.transport import TcpNetwork


FRAMES = 60


class Sink:
    def __init__(self, pid: int):
        self.pid = pid
        self.received = []

    def on_message(self, src, message):
        self.received.append((src, message))


async def eventually(predicate, timeout=10.0, poll=0.01):
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(poll)
    return predicate()


async def busy_link_control_bits() -> tuple[int, int]:
    """Blast FRAMES data frames at a node in one write; return (acks, bits).

    Writing the whole burst before the receiver's read loop wakes guarantees
    the frames arrive in (at most a few) bursts, which is exactly the busy
    link scenario the batching optimization targets.
    """
    ports = allocate_port_block(2)
    peers = {pid: ("127.0.0.1", ports[pid]) for pid in range(2)}
    net = TcpNetwork(SystemConfig(n=2, seed=3), 0, peers)
    sink = Sink(0)
    net.register(sink)
    await net.start()
    try:
        _reader, writer = await asyncio.open_connection(*peers[0])
        writer.write(HANDSHAKE.pack(1, 1))  # handshake as pid 1
        blob = b"".join(
            frame_bytes(seq, encode_message(GossipSubscribe(f"m{seq}")))
            for seq in range(1, FRAMES + 1)
        )
        writer.write(blob)
        await writer.drain()
        assert await eventually(lambda: len(sink.received) == FRAMES)
        # Let any scheduled ack flush run before sampling the counters.
        assert await eventually(lambda: net.link_stats.acks_sent > 0)
        await asyncio.sleep(0.05)
        writer.close()
        return net.link_stats.acks_sent, net.link_stats.control_bits
    finally:
        await net.close()


def test_burst_coalescing_halves_control_bits():
    async def main():
        batched_acks, batched_bits = await busy_link_control_bits()
        # Acking every data frame would send FRAMES acks of one LinkAck each.
        per_frame_acks = FRAMES
        per_frame_bits = FRAMES * LinkAck(FRAMES).wire_size(2)
        # Batching coalesces bursts: control traffic drops at least ~half
        # (in practice far more — the whole blob is one or two bursts).
        assert batched_acks < per_frame_acks
        assert batched_bits <= per_frame_bits * 0.55
        assert batched_acks >= 1

    asyncio.run(main())


def test_batched_ack_is_cumulative():
    async def main():
        ports = allocate_port_block(2)
        peers = {pid: ("127.0.0.1", ports[pid]) for pid in range(2)}
        net = TcpNetwork(SystemConfig(n=2, seed=3), 0, peers)
        net.register(Sink(0))
        await net.start()
        try:
            reader, writer = await asyncio.open_connection(*peers[0])
            writer.write(HANDSHAKE.pack(1, 1))
            writer.write(
                b"".join(
                    frame_bytes(seq, encode_message(GossipSubscribe(f"m{seq}")))
                    for seq in range(1, 11)
                )
            )
            await writer.drain()
            # Whatever the burst split was, the last ack must cover seq 10.
            from repro.codec import decode_message
            from repro.codec.frames import LinkAck
            from repro.runtime.reliable import HEADER, SEQ

            cumulative = 0
            while cumulative < 10:
                (length,) = HEADER.unpack(
                    await asyncio.wait_for(reader.readexactly(HEADER.size), 5.0)
                )
                body = await asyncio.wait_for(reader.readexactly(length), 5.0)
                message = decode_message(body[SEQ.size :])
                if isinstance(message, LinkAck):
                    assert message.cumulative > cumulative  # monotone
                    cumulative = message.cumulative
            assert cumulative == 10
            writer.close()
        finally:
            await net.close()

    asyncio.run(main())


def test_broadcast_encodes_once(monkeypatch):
    async def main():
        import repro.runtime.transport as transport_module

        ports = allocate_port_block(4)
        peers = {pid: ("127.0.0.1", ports[pid]) for pid in range(4)}
        net = TcpNetwork(SystemConfig(n=4, seed=3), 0, peers)
        sink = Sink(0)
        net.register(sink)

        calls = []
        real_encode = transport_module.encode_message
        monkeypatch.setattr(
            transport_module,
            "encode_message",
            lambda message: (calls.append(message), real_encode(message))[1],
        )
        net.broadcast(0, GossipSubscribe("hello"))
        # One codec pass serves all three remote links (self skips the wire).
        assert len(calls) == 1
        assert sum(link.queue_depth for link in net._links.values()) == 3
        await eventually(lambda: len(sink.received) == 1, timeout=2.0)
        assert sink.received == [(0, GossipSubscribe("hello"))]
        await net.close()

    asyncio.run(main())
