"""Unit tests for the observability layer (``repro.obs``).

Covers the pieces the rest of the repo leans on: typed events with sorted
scalar fields, the clock-injected bus, fixed-bucket histograms (inclusive
upper bounds, overflow), LIFO span nesting, the versioned JSONL export
round-trip, and the trace summarize/diff analysis.
"""

import pytest

from repro.obs import (
    PHASE_COMMIT_WALK,
    PHASE_DELIVER,
    PIPELINE_PHASES,
    Counter,
    Event,
    EventBus,
    Gauge,
    Histogram,
    MetricsRegistry,
    Observability,
    STREAM_SCHEMA,
    STREAM_VERSION,
    SpanTracker,
    StreamFormatError,
    diff_traces,
    dumps_trace,
    filter_events,
    kind_counts,
    loads_trace,
    make_fields,
    summarize,
    wave_stats,
)


class TestEvent:
    def test_fields_sorted_regardless_of_kwarg_order(self):
        bus = EventBus()
        a = bus.emit_at(1.0, 0, "x", beta=2, alpha=1)
        b = bus.emit_at(1.0, 0, "x", alpha=1, beta=2)
        assert a == b
        assert a.fields == (("alpha", 1), ("beta", 2))

    def test_get_returns_field_or_default(self):
        event = Event(0.0, 3, "commit", make_fields({"wave": 4}))
        assert event.get("wave") == 4
        assert event.get("missing", -1) == -1

    def test_detail_is_plain_dict(self):
        event = Event(0.0, 0, "x", make_fields({"b": 2, "a": 1}))
        assert event.detail == {"a": 1, "b": 2}

    def test_non_scalar_field_rejected(self):
        with pytest.raises(TypeError, match="non-scalar"):
            make_fields({"bad": [1, 2, 3]})

    def test_scalars_accepted(self):
        fields = make_fields({"i": 1, "f": 0.5, "s": "x", "b": True, "n": None})
        assert dict(fields) == {"i": 1, "f": 0.5, "s": "x", "b": True, "n": None}


class TestEventBus:
    def test_default_clock_stamps_zero(self):
        bus = EventBus()
        assert bus.emit(0, "tick").time == 0.0

    def test_injected_clock_stamps_emits(self):
        times = iter([1.5, 2.5])
        bus = EventBus(clock=lambda: next(times))
        assert bus.emit(0, "a").time == 1.5
        assert bus.emit(0, "b").time == 2.5

    def test_of_kind_and_kinds(self):
        bus = EventBus()
        bus.emit(0, "a")
        bus.emit(1, "a")
        bus.emit(0, "b")
        assert len(bus.of_kind("a")) == 2
        assert len(bus.of_kind("a", pid=1)) == 1
        assert bus.kinds() == {"a", "b"}
        assert len(bus) == 3

    def test_subscribers_called_synchronously(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        event = bus.emit(0, "x", k=1)
        assert seen == [event]

    def test_observability_attach_clock_first_wins(self):
        class FakeScheduler:
            def __init__(self, now):
                self.now = now

        obs = Observability()
        obs.attach_clock(FakeScheduler(5.0))
        obs.attach_clock(FakeScheduler(99.0))  # second binding ignored
        assert obs.bus.now == 5.0


class TestMetrics:
    def test_counter_increments_and_rejects_negative(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_tracks_high_water_mark(self):
        gauge = Gauge("g")
        gauge.set(3.0)
        gauge.set(1.0)
        assert gauge.value == 1.0
        assert gauge.max_value == 3.0

    def test_histogram_upper_bounds_inclusive(self):
        hist = Histogram("h", bounds=(1.0, 2.0))
        hist.record(1.0)  # lands in le:1 — bounds are inclusive
        hist.record(1.5)  # le:2
        hist.record(2.0)  # le:2
        assert hist.counts == [1, 2, 0]

    def test_histogram_overflow_bucket(self):
        hist = Histogram("h", bounds=(1.0, 2.0))
        hist.record(100.0)
        assert hist.counts == [0, 0, 1]
        assert hist.bucket_labels() == ["le:1", "le:2", "gt:2"]

    def test_histogram_stats(self):
        hist = Histogram("h", bounds=(10.0,))
        for value in (1.0, 3.0, 8.0):
            hist.record(value)
        assert hist.count == 3
        assert hist.mean == pytest.approx(4.0)
        assert hist.min == 1.0 and hist.max == 8.0

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=())
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2.0, 1.0))

    def test_registry_create_or_get(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("c")
        with pytest.raises(ValueError, match="different bounds"):
            registry.histogram("h", bounds=(1.0,))
            registry.histogram("h", bounds=(2.0,))

    def test_registry_snapshot_sorted_and_typed(self):
        registry = MetricsRegistry()
        registry.counter("z.count").inc(2)
        registry.gauge("a.level").set(1.5)
        registry.histogram("m.lat", bounds=(1.0,)).record(0.5)
        snap = registry.as_dict()
        assert snap["counters"] == {"z.count": 2}
        assert snap["gauges"] == {"a.level": {"max": 1.5, "value": 1.5}}
        assert snap["histograms"]["m.lat"]["buckets"] == {"le:1": 1, "gt:1": 0}


class TestSpans:
    def test_nesting_depth_and_elapsed(self):
        times = iter([0.0, 1.0, 3.0, 6.0])
        bus = EventBus(clock=lambda: next(times))
        spans = SpanTracker(bus)
        outer = spans.begin(0, PHASE_COMMIT_WALK)
        inner = spans.begin(0, PHASE_DELIVER)
        assert spans.depth(0) == 2
        assert spans.end(0, inner) == 2.0  # 3.0 - 1.0
        assert spans.end(0, outer) == 6.0  # 6.0 - 0.0
        begins = bus.of_kind("span_begin")
        assert [event.get("depth") for event in begins] == [0, 1]

    def test_lifo_violation_raises(self):
        spans = SpanTracker(EventBus())
        outer = spans.begin(0, "a")
        spans.begin(0, "b")
        with pytest.raises(ValueError, match="must nest"):
            spans.end(0, outer)

    def test_end_without_open_span_raises(self):
        spans = SpanTracker(EventBus())
        with pytest.raises(ValueError, match="no open span"):
            spans.end(0, 0)

    def test_spans_independent_per_pid(self):
        spans = SpanTracker(EventBus())
        a = spans.begin(0, "x")
        b = spans.begin(1, "x")
        spans.end(0, a)  # pid 1's span is not "innermost" for pid 0
        spans.end(1, b)
        assert spans.depth(0) == 0 and spans.depth(1) == 0

    def test_context_manager_closes_on_exit(self):
        bus = EventBus()
        spans = SpanTracker(bus)
        with spans.span(0, "phase"):
            assert spans.depth(0) == 1
        assert spans.depth(0) == 0
        assert bus.kinds() == {"span_begin", "span_end"}

    def test_pipeline_phases_ordered(self):
        assert PIPELINE_PHASES == (
            "broadcast", "dag_insert", "wave_leader", "commit_walk", "deliver",
        )


class TestExport:
    def _sample_events(self):
        bus = EventBus()
        bus.emit_at(1.0, 0, "wave_ready", wave=1)
        bus.emit_at(2.0, 0, "commit", wave=1, delivered=3)
        bus.emit_at(2.0, 1, "plain")
        return bus.events

    def test_round_trip_preserves_everything(self):
        events = self._sample_events()
        meta = {"cell": "x", "seed": 7}
        metrics = {"counters": {"c": 1}}
        trace = loads_trace(dumps_trace(events, meta=meta, metrics=metrics))
        assert trace.events == events
        assert trace.meta == meta
        assert trace.metrics == metrics

    def test_serialization_is_byte_stable(self):
        events = self._sample_events()
        assert dumps_trace(events) == dumps_trace(list(events))

    def test_rejects_foreign_schema(self):
        with pytest.raises(StreamFormatError, match="schema"):
            loads_trace(f'{{"schema": "something.else", "version": {STREAM_VERSION}}}\n')

    def test_rejects_unknown_version(self):
        with pytest.raises(StreamFormatError, match="version"):
            loads_trace(f'{{"schema": "{STREAM_SCHEMA}", "version": 1}}\n')

    def test_rejects_empty_file(self):
        with pytest.raises(StreamFormatError, match="empty"):
            loads_trace("")

    def test_rejects_malformed_event_line(self):
        text = dumps_trace([]) + '{"pid": 0, "t": 1.0}\n'  # no "kind"
        with pytest.raises(StreamFormatError, match="missing key"):
            loads_trace(text)

    def test_rejects_a_recording_without_header(self):
        events = self._sample_events()
        body = dumps_trace(events).split("\n", 1)[1]
        with pytest.raises(StreamFormatError, match="header"):
            loads_trace(body)


class TestAnalysis:
    def _trace(self, commit_time=2.0, delivered=3):
        bus = EventBus()
        bus.emit_at(1.0, 0, "wave_ready", wave=1)
        bus.emit_at(1.1, 1, "wave_ready", wave=1)
        bus.emit_at(commit_time, 0, "commit", wave=1, delivered=delivered)
        bus.emit_at(commit_time + 0.5, 1, "commit", wave=1, delivered=delivered)
        return bus.events

    def test_kind_counts_sorted(self):
        counts = kind_counts(self._trace())
        assert list(counts) == ["commit", "wave_ready"]
        assert counts == {"commit": 2, "wave_ready": 2}

    def test_filter_events(self):
        events = self._trace()
        assert len(filter_events(events, kinds=["commit"])) == 2
        assert len(filter_events(events, pids=[0])) == 2
        assert len(filter_events(events, tmin=1.05, tmax=2.0)) == 2

    def test_wave_stats(self):
        stats = wave_stats(self._trace())
        entry = stats[1]
        assert entry.ready_time == 1.0  # earliest wave_ready anywhere
        assert entry.first_commit == 2.0
        assert entry.last_commit == 2.5
        assert entry.latency == pytest.approx(1.5)
        assert entry.committers == 2
        assert entry.delivered == 6

    def test_summarize_mentions_kinds_and_waves(self):
        text = summarize(self._trace(), meta={"cell": "x"})
        assert "cell=x" in text
        assert "wave_ready" in text
        assert "committers" in text

    def test_diff_identical_traces(self):
        diff = diff_traces(self._trace(), self._trace())
        assert diff.identical and diff.empty
        assert "identical" in diff.render()

    def test_diff_reports_kind_only_in_b(self):
        events_b = list(self._trace())
        events_b.append(Event(3.0, 0, "link_redelivery", make_fields({"seq": 1})))
        diff = diff_traces(self._trace(), events_b)
        assert diff.kind_deltas["link_redelivery"] == (0, 1)
        assert "[only in B]" in diff.render()

    def test_diff_reports_wave_latency_change(self):
        diff = diff_traces(self._trace(), self._trace(commit_time=4.0))
        assert not diff.empty
        (change,) = diff.wave_changes
        assert change.wave == 1
        assert "latency" in change.changed

    def test_diff_tolerance_suppresses_small_shifts(self):
        diff = diff_traces(
            self._trace(), self._trace(commit_time=2.01), time_tolerance=0.1
        )
        assert diff.empty

    def test_diff_reports_delivered_change_exactly(self):
        diff = diff_traces(
            self._trace(), self._trace(delivered=4), time_tolerance=10.0
        )
        (change,) = diff.wave_changes
        assert change.changed["delivered"] == (6, 8)
