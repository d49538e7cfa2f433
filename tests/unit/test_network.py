"""Network semantics: reliable links, authenticated senders, adversary limits."""

from dataclasses import dataclass

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import ProtocolError
from repro.common.rng import derive_rng
from repro.sim.adversary import Adversary, FixedDelay, UniformDelay
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.scheduler import Scheduler
from repro.sim.wire import Message


@dataclass(frozen=True)
class Ping(Message):
    body: bytes = b"x"

    def wire_size(self, n: int) -> int:
        return 8 * len(self.body)


class Recorder(Process):
    def __init__(self, pid, network):
        super().__init__(pid, network)
        self.received: list[tuple[int, Message, float]] = []

    def on_message(self, src, message):
        self.received.append((src, message, self.now))


class PerSendNetwork(Network):
    """Reference fan-out: ``broadcast`` as ``n`` individual sends."""

    def broadcast(self, src, message):
        for dst in range(self.config.n):
            self.send(src, dst, message)


def build(n=4, adversary=None, byzantine=frozenset(), network=Network):
    config = SystemConfig(n=n, byzantine=byzantine)
    sched = Scheduler()
    net = network(sched, config, adversary or FixedDelay(1.0))
    nodes = [Recorder(pid, net) for pid in range(n)]
    return sched, net, nodes


class TestDelivery:
    def test_point_to_point(self):
        sched, net, nodes = build()
        net.send(0, 1, Ping())
        sched.run()
        assert len(nodes[1].received) == 1
        src, _msg, at = nodes[1].received[0]
        assert src == 0
        assert at == 1.0

    def test_broadcast_reaches_all_including_self(self):
        sched, net, nodes = build()
        net.broadcast(2, Ping())
        sched.run()
        for node in nodes:
            assert len(node.received) == 1
            assert node.received[0][0] == 2

    def test_self_delivery_is_immediate_and_free(self):
        sched, net, nodes = build()
        net.send(3, 3, Ping())
        sched.run()
        assert nodes[3].received[0][2] == 0.0
        assert net.metrics.correct_bits_total == 0

    def test_unknown_destination_rejected(self):
        config = SystemConfig(n=4)
        net = Network(Scheduler(), config, FixedDelay())
        with pytest.raises(ProtocolError):
            net.send(0, 1, Ping())  # no process registered

    def test_duplicate_registration_rejected(self):
        sched, net, nodes = build()
        with pytest.raises(ProtocolError):
            Recorder(0, net)


class TestMetricsAccounting:
    def test_bits_counted_for_correct_senders(self):
        sched, net, nodes = build()
        net.send(0, 1, Ping(b"abcd"))  # 32 bits
        sched.run()
        assert net.metrics.correct_bits_total == 32

    def test_byzantine_sender_bits_excluded(self):
        sched, net, nodes = build(byzantine=frozenset({0}))
        net.send(0, 1, Ping(b"abcd"))
        net.send(1, 2, Ping(b"abcd"))
        sched.run()
        assert net.metrics.correct_bits_total == 32
        assert net.metrics.total_bits == 64

    def test_time_unit_is_max_correct_delay(self):
        class TwoSpeeds(Adversary):
            def delay(self, src, dst, message, now):
                return 5.0 if src == 0 else 1.0

        sched, net, nodes = build(adversary=TwoSpeeds())
        net.send(0, 1, Ping())
        net.send(1, 2, Ping())
        sched.run()
        assert net.metrics.max_correct_delay == 5.0
        assert net.metrics.time_units(10.0) == 2.0


class TestAdversaryLimits:
    def test_cannot_drop_correct_messages(self):
        class DropAll(Adversary):
            def delay(self, src, dst, message, now):
                return 1.0

            def should_drop(self, src, dst, message, now):
                return True

        sched, net, nodes = build(adversary=DropAll())
        with pytest.raises(ProtocolError):
            net.send(0, 1, Ping())

    def test_can_drop_byzantine_messages(self):
        class DropAll(Adversary):
            def delay(self, src, dst, message, now):
                return 1.0

            def should_drop(self, src, dst, message, now):
                return True

        sched, net, nodes = build(adversary=DropAll(), byzantine=frozenset({1}))
        net.send(1, 0, Ping())
        sched.run()
        assert nodes[0].received == []

    def test_invalid_delay_rejected(self):
        class BadDelay(Adversary):
            def delay(self, src, dst, message, now):
                return float("inf")

        sched, net, nodes = build(adversary=BadDelay())
        with pytest.raises(ProtocolError):
            net.send(0, 1, Ping())

    def test_adaptive_corruption_bounded_by_f(self):
        sched, net, nodes = build()
        net.corrupt(0)
        with pytest.raises(ProtocolError):
            net.corrupt(1)  # f = 1 for n = 4

    def test_adaptive_corruption_drops_in_flight(self):
        class DropOnAsk(Adversary):
            def delay(self, src, dst, message, now):
                return 10.0

            def should_drop(self, src, dst, message, now):
                return True

        sched, net, nodes = build(adversary=DropOnAsk())
        # Sending while still correct: the drop request is refused.
        with pytest.raises(ProtocolError):
            net.send(0, 1, Ping())

    def test_broadcast_prices_wire_size_once(self):
        class CountingPing(Ping):
            computed = 0

            def wire_size(self, n):
                type(self).computed += 1
                return super().wire_size(n)

        sched, net, nodes = build()
        message = CountingPing()
        net.broadcast(0, message)
        # One computation covers all four destinations (cached per object);
        # accounting still charges each of the three wire crossings.
        assert CountingPing.computed == 1
        assert net.metrics.messages_total == 3
        assert net.metrics.total_bits == 3 * message.wire_size(4)
        sched.run()
        assert all(len(node.received) == 1 for node in nodes)

    def test_corrupt_then_queued_messages_dropped(self):
        class DropAfterCorrupt(Adversary):
            def delay(self, src, dst, message, now):
                return 10.0

            def should_drop(self, src, dst, message, now):
                return now > 0.0  # refuse at send time, accept at corrupt time

        sched, net, nodes = build(adversary=DropAfterCorrupt())
        net.send(0, 1, Ping())
        sched.call_at(1.0, lambda: net.corrupt(0))
        sched.run()
        assert nodes[1].received == []


class TestBatchedBroadcastEquivalence:
    """The coalesced fan-out must be observably identical to n sends.

    ``Network.broadcast`` draws drop decisions and delays per destination
    in pid order and schedules one re-arming heap entry per fan-out.
    These tests pin the equivalence the benchmark baseline rests on: same
    seed, batched vs. :class:`PerSendNetwork`, byte-identical deliveries
    and metrics.
    """

    @staticmethod
    def _run_broadcasts(batched: bool):
        sched, net, nodes = build(
            n=4,
            adversary=UniformDelay(derive_rng(7, "delays")),
            network=Network if batched else PerSendNetwork,
        )
        for src in range(4):
            net.broadcast(src, Ping(body=bytes([src])))
        # A fan-out launched mid-run, while earlier ones are still in
        # flight, exercises handle-order tie-breaking between fan-outs.
        sched.call_at(0.5, lambda: net.broadcast(1, Ping(body=b"late")))
        sched.run()
        return (
            [node.received for node in nodes],
            net.metrics.snapshot(),
            sched.now,
        )

    def test_deliveries_and_metrics_match_per_send(self):
        assert self._run_broadcasts(True) == self._run_broadcasts(False)

    @staticmethod
    def _run_corrupt(batched: bool):
        class SeededDrops(Adversary):
            """Refuses at send time; drops ~half at corrupt time.

            A seeded stream makes the test sensitive to the *order* in
            which corrupt() offers in-flight messages to the adversary —
            the batched path promises handle order, i.e. send order.
            """

            def __init__(self):
                self._rng = derive_rng(9, "drops")

            def delay(self, src, dst, message, now):
                return 5.0

            def should_drop(self, src, dst, message, now):
                return now > 0.0 and self._rng.random() < 0.5

        sched, net, nodes = build(
            n=4,
            adversary=SeededDrops(),
            network=Network if batched else PerSendNetwork,
        )
        net.broadcast(0, Ping(body=b"a"))
        net.broadcast(0, Ping(body=b"b"))
        net.broadcast(2, Ping(body=b"c"))
        sched.call_at(1.0, lambda: net.corrupt(0))
        sched.run()
        return [node.received for node in nodes], sched.now

    def test_corrupt_drops_same_in_flight_messages(self):
        batched, per_send = self._run_corrupt(True), self._run_corrupt(False)
        assert batched == per_send
        # The corruption actually bit: process 2's fan-out survives intact,
        # process 0's in-flight deliveries were thinned.
        deliveries = batched[0]
        assert all(any(src == 2 for src, _, _ in recv) for recv in deliveries)
        from_zero = sum(
            1 for recv in deliveries for src, _, _ in recv if src == 0
        )
        assert 0 < from_zero < 8  # some dropped, not all (seed-dependent)
