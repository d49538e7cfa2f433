"""Unit tests for the live telemetry plane (``repro.obs.stream``).

Covers the bounded event ring (overflow drops oldest + counts), the
filtered bus subscriber, metric-delta encoding (a folded stream of
deltas reproduces the registry's absolute state), the newline-JSON
recording format and its one decoder (trace files, subscribe streams and
flight dumps alike), the flight recorder, and the stall detector (a
frozen quorum trips it; a slow-but-progressing one does not).
"""

import pytest

from repro.obs import EventBus, MetricsRegistry, Observability
from repro.obs.stream import (
    DEFAULT_STREAM_CAPACITY,
    EventRing,
    FlightRecorder,
    MetricsDelta,
    STREAM_SCHEMA,
    STREAM_VERSION,
    StallDetector,
    StreamFormatError,
    StreamSubscriber,
    apply_delta,
    decode_line,
    delta_line,
    dumps_trace,
    event_line,
    header_line,
    loads_trace,
    registry_totals,
)


class TestEventRing:
    def test_overflow_drops_oldest_and_counts(self):
        bus = EventBus()
        ring = EventRing(3)
        for index in range(5):
            ring.append(bus.emit_at(float(index), 0, "tick", seq=index))
        assert ring.dropped == 2
        assert [event.get("seq") for event in ring.peek()] == [2, 3, 4]

    def test_drain_empties_but_keeps_drop_count(self):
        bus = EventBus()
        ring = EventRing(2)
        for index in range(4):
            ring.append(bus.emit_at(float(index), 0, "tick", seq=index))
        drained = ring.drain()
        assert [event.get("seq") for event in drained] == [2, 3]
        assert len(ring) == 0
        assert ring.dropped == 2
        assert ring.drain() == []

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventRing(0)


class TestStreamSubscriber:
    def test_receives_events_after_subscribe(self):
        bus = EventBus()
        bus.emit_at(0.0, 0, "before")
        sub = StreamSubscriber(bus, capacity=8)
        bus.emit_at(1.0, 0, "after")
        events = sub.drain()
        assert [event.kind for event in events] == ["after"]
        assert sub.total_matched == 1

    def test_kind_filter(self):
        bus = EventBus()
        sub = StreamSubscriber(bus, capacity=8, kinds=["commit"])
        bus.emit_at(1.0, 0, "commit", wave=1)
        bus.emit_at(2.0, 0, "vertex_added", round=1, source=0)
        assert [event.kind for event in sub.drain()] == ["commit"]

    def test_min_round_filter_passes_unrounded_events(self):
        bus = EventBus()
        sub = StreamSubscriber(bus, capacity=8, min_round=5)
        bus.emit_at(1.0, 0, "vertex_added", round=3, source=0)
        bus.emit_at(2.0, 0, "vertex_added", round=7, source=0)
        bus.emit_at(3.0, 0, "commit", wave=2)  # no round field: passes
        kinds = [(event.kind, event.get("round")) for event in sub.drain()]
        assert kinds == [("vertex_added", 7), ("commit", None)]

    def test_overflow_counted_via_dropped_property(self):
        bus = EventBus()
        sub = StreamSubscriber(bus, capacity=2)
        for index in range(5):
            bus.emit_at(float(index), 0, "tick", seq=index)
        assert sub.dropped == 3
        assert [event.get("seq") for event in sub.drain()] == [3, 4]

    def test_close_detaches_from_bus(self):
        bus = EventBus()
        sub = StreamSubscriber(bus, capacity=8)
        sub.close()
        sub.close()  # idempotent
        bus.emit_at(1.0, 0, "late")
        assert sub.drain() == []

    def test_filters_dict_round_trips_into_header(self):
        bus = EventBus()
        sub = StreamSubscriber(bus, capacity=8, kinds=["b", "a"], min_round=2)
        header = header_line({"pid": 3, "filters": sub.filters_dict(), "interval": 0.5})
        kind, meta = decode_line(header)
        assert kind == "header"
        assert meta == {
            "pid": 3,
            "filters": {"kinds": ["a", "b"], "min_round": 2},
            "interval": 0.5,
        }


class TestMetricsDelta:
    def test_deltas_fold_back_to_registry_totals(self):
        registry = MetricsRegistry()
        delta = MetricsDelta(registry)
        state: dict[str, object] = {}

        registry.counter("sent").inc(3)
        registry.gauge("depth").set(5.0)
        registry.histogram("lat").record(1.5)
        apply_delta(state, delta.collect())

        registry.counter("sent").inc(2)
        registry.gauge("depth").set(2.0)
        registry.histogram("lat").record(0.5)
        registry.histogram("lat").record(4.0)
        apply_delta(state, delta.collect())

        assert state == registry_totals(registry)
        assert state["counters"] == {"sent": 5}
        assert state["gauges"] == {"depth": 2.0}
        assert state["histograms"] == {"lat": {"count": 3, "sum": 6.0}}

    def test_quiet_tick_encodes_empty_delta(self):
        registry = MetricsRegistry()
        delta = MetricsDelta(registry)
        registry.counter("sent").inc()
        assert delta.collect() != {}
        moved = delta.collect()
        # Counters/histograms with no movement vanish; gauges report their
        # current value every tick (they are levels, not increments).
        assert "counters" not in moved
        assert "histograms" not in moved

    def test_delta_survives_wire_round_trip(self):
        registry = MetricsRegistry()
        delta = MetricsDelta(registry)
        registry.counter("sent").inc(7)
        line = delta_line(1, 2.5, status={"ok": True}, metrics=delta.collect())
        kind, body = decode_line(line)
        assert kind == "delta"
        assert body["seq"] == 1 and body["t"] == 2.5
        assert body["metrics"] == {"counters": {"sent": 7}}


class TestWireFormat:
    def test_event_line_round_trip(self):
        bus = EventBus()
        event = bus.emit_at(1.25, 2, "commit", wave=3, delivered=4)
        assert decode_line(event_line(event)) == ("event", event)

    def test_bad_version_rejected(self):
        text = header_line().replace(
            f'"version":{STREAM_VERSION}', f'"version":{STREAM_VERSION + 1}'
        )
        assert STREAM_SCHEMA in text
        with pytest.raises(StreamFormatError):
            decode_line(text)

    def test_garbage_rejected(self):
        bad_lines = [
            "not json",
            "[1,2]",
            '{"neither": 1}',
            '{"delta": 3}',
            '{"metrics": []}',
            '{"kind": "x", "pid": 0, "t": 1.0, "f": [1]}',
        ]
        for bad in bad_lines:
            with pytest.raises(StreamFormatError):
                decode_line(bad)

    def test_default_capacity_is_sane(self):
        assert DEFAULT_STREAM_CAPACITY >= 1024


class TestFlightRecorder:
    def test_keeps_last_k_and_counts_overwrites(self):
        obs = Observability()
        flight = FlightRecorder(obs.bus, capacity=4)
        for index in range(10):
            obs.emit(0, "tick", seq=index)
        dump = loads_trace(flight.dump("manual", 9.0, meta={"pid": 0}))
        assert dump.meta == {"pid": 0, "reason": "manual", "t": 9.0, "overwritten": 6}
        assert [event.get("seq") for event in dump.events] == [6, 7, 8, 9]
        assert flight.dumps_taken == 1

    def test_dump_is_non_destructive(self):
        obs = Observability()
        flight = FlightRecorder(obs.bus, capacity=4)
        obs.emit(0, "tick", seq=0)
        first = loads_trace(flight.dump("a", 1.0))
        second = loads_trace(flight.dump("b", 2.0))
        assert first.events == second.events != []

    def test_close_detaches(self):
        obs = Observability()
        flight = FlightRecorder(obs.bus, capacity=4)
        flight.close()
        obs.emit(0, "tick", seq=0)
        assert loads_trace(flight.dump("after", 1.0)).events == []


class TestOneDecoder:
    """Trace files, subscribe streams and flight dumps load the same way."""

    def _events(self):
        bus = EventBus()
        bus.emit_at(1.0, 0, "wave_ready", wave=1)
        bus.emit_at(2.0, 0, "commit", wave=1, delivered=3)
        return bus, bus.events

    def test_trace_file(self):
        _bus, events = self._events()
        trace = loads_trace(dumps_trace(events, meta={"seed": 1}, metrics={"links": {}}))
        assert (trace.meta, trace.events, trace.metrics) == ({"seed": 1}, events, {"links": {}})
        assert trace.deltas == []

    def test_subscribe_stream(self):
        _bus, events = self._events()
        lines = [header_line({"pid": 0, "interval": 0.5})]
        lines.append(event_line(events[0]))
        lines.append(delta_line(1, 1.5, status={"decided_wave": 0}))
        lines.append(event_line(events[1]))
        lines.append(delta_line(2, 2.5, status={"decided_wave": 1}, dropped=2))
        trace = loads_trace("\n".join(lines) + "\n")
        assert trace.meta == {"pid": 0, "interval": 0.5}
        assert trace.events == events
        assert trace.metrics is None
        assert [tick["status"]["decided_wave"] for tick in trace.deltas] == [0, 1]
        assert trace.deltas[-1]["dropped"] == 2

    def test_flight_dump(self):
        obs = Observability()
        flight = FlightRecorder(obs.bus, capacity=8)
        obs.emit(0, "commit", wave=1)
        text = flight.dump("stall", 3.0, meta={"pid": 0}, metrics={"status": {"ok": True}})
        trace = loads_trace(text)
        assert trace.meta["reason"] == "stall"
        assert [event.kind for event in trace.events] == ["commit"]
        assert trace.metrics == {"status": {"ok": True}}

    def test_second_header_rejected(self):
        with pytest.raises(StreamFormatError, match="header"):
            loads_trace(dumps_trace([]) + header_line() + "\n")


class TestStallDetector:
    def test_frozen_quorum_trips_after_window(self):
        detector = StallDetector(4, window=10.0)
        for pid in range(4):
            detector.observe(pid, 2, now=0.0)
        assert detector.quorum_frontier() == 2
        # Nothing advances: same frontiers at every poll.
        for pid in range(4):
            detector.observe(pid, 2, now=9.0)
        assert not detector.check(9.0)
        assert detector.check(10.0)
        assert detector.stalls_reported == 1

    def test_slow_but_progressing_quorum_stays_quiet(self):
        detector = StallDetector(4, window=10.0)
        wave = 0
        for tick in range(8):
            now = tick * 6.0  # slower than the window/2, faster than window
            wave += 1
            for pid in range(3):  # pid 3 is frozen at wave 0 forever
                detector.observe(pid, wave, now)
            detector.observe(3, 0, now)
            assert not detector.check(now)
        assert detector.stalls_reported == 0

    def test_single_frozen_node_does_not_trip(self):
        # n=4 -> quorum 3: the frontier tracks the 3rd-highest wave, so one
        # frozen node never defines it while three keep advancing.
        detector = StallDetector(4, window=10.0)
        for tick in range(20):
            now = float(tick)
            for pid in range(3):
                detector.observe(pid, tick, now)
            detector.observe(3, 0, now)
        assert detector.quorum_frontier() == 19
        assert not detector.check(20.0)

    def test_rearm_reports_once_per_window(self):
        detector = StallDetector(4, window=5.0)
        for pid in range(4):
            detector.observe(pid, 1, now=0.0)
        assert detector.check(5.0)
        assert not detector.check(6.0)  # re-armed at 5.0
        assert detector.check(10.0)
        assert detector.stalls_reported == 2

    def test_no_samples_no_stall(self):
        detector = StallDetector(4, window=5.0)
        assert not detector.check(100.0)
        assert detector.stalled_for(100.0) == 0.0

    def test_quorum_needs_enough_nodes(self):
        detector = StallDetector(4, window=5.0)
        detector.observe(0, 7, now=0.0)
        assert detector.quorum_frontier() == -1

    def test_default_quorum_is_n_minus_f(self):
        assert StallDetector(4).quorum == 3
        assert StallDetector(7).quorum == 5
        assert StallDetector(10).quorum == 7
        assert StallDetector(1).quorum == 1

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            StallDetector(0)
        with pytest.raises(ValueError):
            StallDetector(4, quorum=5)
