"""Wire-size model and metrics accounting."""


from repro.broadcast.bracha import BrachaMessage
from repro.coin.threshold import CoinShareMessage
from repro.dag.vertex import Vertex
from repro.mempool.blocks import Block
from repro.obs.wire import MetricsCollector
from repro.sim.wire import bits_for_process_id


class TestWireSizes:
    def test_process_id_bits(self):
        assert bits_for_process_id(2) == 1
        assert bits_for_process_id(4) == 2
        assert bits_for_process_id(5) == 3
        assert bits_for_process_id(1024) == 10

    def test_vertex_payload_bits_match_encoding(self):
        vertex = Vertex(3, 1, Block(1, 3, (b"tx",)), frozenset({0, 1, 2}))
        assert vertex.wire_bits(4) == 8 * len(vertex.to_bytes())

    def test_vertex_size_grows_with_block(self):
        small = Vertex(3, 1, Block(1, 3, (b"t",)), frozenset({0, 1, 2}))
        big = Vertex(3, 1, Block(1, 3, (b"t" * 100,)), frozenset({0, 1, 2}))
        assert big.wire_bits(4) > small.wire_bits(4)

    def test_bracha_message_carries_payload_cost(self):
        vertex = Vertex(3, 1, Block(1, 3, (b"tx" * 50,)), frozenset({0, 1, 2}))
        message = BrachaMessage("ECHO", 1, 3, vertex)
        assert message.wire_size(4) > vertex.wire_bits(4)

    def test_coin_share_constant(self):
        assert CoinShareMessage(1, 5).wire_size(4) == CoinShareMessage(99, 2**120).wire_size(4)

    def test_tags(self):
        vertex = Vertex(3, 1, Block(1, 3), frozenset({0, 1, 2}))
        assert BrachaMessage("SEND", 1, 3, vertex).tag() == "bracha.send"
        assert CoinShareMessage(1, 1).tag() == "CoinShareMessage"


class TestMetricsCollector:
    def test_bits_per_unit(self):
        metrics = MetricsCollector()
        metrics.record_send(0, 100, "x", src_correct=True)
        metrics.record_send(1, 50, "x", src_correct=False)
        assert metrics.correct_bits_total == 100
        assert metrics.total_bits == 150
        assert metrics.bits_per_unit(4) == 25.0
        assert metrics.bits_per_unit(0) == float("inf")

    def test_tag_breakdown(self):
        metrics = MetricsCollector()
        metrics.record_send(0, 10, "a", True)
        metrics.record_send(0, 20, "b", True)
        metrics.record_send(0, 30, "a", True)
        assert metrics.bits_by_tag["a"] == 40
        assert metrics.messages_by_tag["a"] == 2

    def test_time_units(self):
        metrics = MetricsCollector()
        metrics.record_delay(2.0, correct_pair=True)
        metrics.record_delay(8.0, correct_pair=True)
        metrics.record_delay(100.0, correct_pair=False)  # byzantine: ignored
        assert metrics.max_correct_delay == 8.0
        assert metrics.time_units(16.0) == 2.0
        assert metrics.mean_correct_delay == 5.0

    def test_time_units_without_delays(self):
        assert MetricsCollector().time_units(5.0) == 0.0
        assert MetricsCollector().mean_correct_delay == 0.0
