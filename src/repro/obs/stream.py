"""The event recording format, plus live streaming, deltas, flight recording.

Every recording of protocol events — a trace file written on shutdown, a
control-socket ``subscribe`` stream, a flight-recorder dump — is one
schema-versioned newline-JSON **stream**, written by the encoders below
and read back by the single decoder :func:`decode_line`. Each line is one
JSON object with sorted keys and compact separators:

* line 1 — the **header**: ``{"meta": {...}, "schema": "repro.obs.stream",
  "version": 2}``. ``meta`` identifies the recording (cell, seed, pid,
  subscribe filters, flight-dump reason, ...). A recording that should be
  byte-identical across same-seed runs puts no timestamps in it.
* one line per **event**, in emit order: ``{"kind": ..., "pid": ...,
  "t": ...}`` plus ``"f": {...}`` when the event has fields.
* a **delta** line, ``{"delta": {"seq": ..., "t": ..., ...}}``: one
  periodic tick of a live stream (runner status, metric movement since the
  previous tick, cumulative ring drops). A stream ends on its last delta.
* a **metrics** line, ``{"metrics": {...}}``: the closing snapshot of a
  trace file or flight dump (registry, link counters, status).

:func:`load_trace` reads any of the three recordings into a :class:`Trace`;
two runs of the same seeded simulator cell produce trace files that
``diff`` (the Unix tool *or* ``python -m repro.obs diff``) as empty.

The live pieces contain no I/O and no clock reads of their own (times are
always passed in, so the stall detector and delta encoder are unit-testable
with synthetic clocks and stay clean under the determinism lint):

* :class:`EventRing` — a bounded ring of events that drops the *oldest*
  entry on overflow and counts every drop. Backpressure never blocks an
  emitter and never grows memory: a slow subscriber loses history, not
  liveness.
* :class:`StreamSubscriber` — an :class:`EventRing` attached to an
  :class:`repro.obs.bus.EventBus` with kind / ``min_round`` filters.
  Draining it yields the events buffered since the last drain plus the
  cumulative drop count — the unit a ``subscribe`` stream sends per tick.
* :class:`MetricsDelta` — periodic registry snapshots encoded as *deltas*
  (counter increments since the previous tick, current gauge values), so
  a long-running stream costs bandwidth proportional to activity, not to
  registry size history.
* :class:`FlightRecorder` — an always-on last-K ring (black box). It costs
  one append per event while everything is healthy and is dumped only on
  demand: a stall diagnostic, a :class:`repro.common.errors.ConsistencyError`,
  a failed scenario post-check.

:class:`StallDetector` is the driver-side liveness monitor: it watches
per-node commit frontiers and reports a stall when the *quorum frontier*
(the highest wave at least ``n - f`` nodes have decided) fails to advance
for a configured window — a single slow node does not trip it, a frozen
quorum does. See docs/observability.md "Event recordings".
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.obs.bus import EventBus
from repro.obs.events import Event, make_fields
from repro.obs.metrics import MetricsRegistry

#: Header schema identifier; bump :data:`STREAM_VERSION` on layout changes.
STREAM_SCHEMA = "repro.obs.stream"
STREAM_VERSION = 2

#: Default bounded-ring capacity for a ``subscribe`` stream buffer.
DEFAULT_STREAM_CAPACITY = 4096

#: Default flight-recorder depth (events kept in the black box).
DEFAULT_FLIGHT_CAPACITY = 256


class StreamFormatError(ValueError):
    """A recording or line that does not follow the format above."""


# ------------------------------------------------------------------ encoder


def _dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def header_line(meta: Mapping[str, object] | None = None) -> str:
    """The first line of every recording (no trailing newline)."""
    return _dumps(
        {"meta": dict(meta or {}), "schema": STREAM_SCHEMA, "version": STREAM_VERSION}
    )


def event_line(event: Event) -> str:
    """One event as its line (no trailing newline)."""
    record: dict[str, object] = {"kind": event.kind, "pid": event.pid, "t": event.time}
    if event.fields:
        record["f"] = dict(event.fields)
    return _dumps(record)


def delta_line(
    seq: int,
    time: float,
    status: Mapping[str, object] | None = None,
    metrics: Mapping[str, object] | None = None,
    dropped: int = 0,
) -> str:
    """One live-stream tick: status + metric movement since the last tick."""
    body: dict[str, object] = {"seq": seq, "t": time}
    if status:
        body["status"] = dict(status)
    if metrics:
        body["metrics"] = dict(metrics)
    if dropped:
        body["dropped"] = dropped
    return _dumps({"delta": body})


def dumps_trace(
    events: Iterable[Event],
    meta: Mapping[str, object] | None = None,
    metrics: Mapping[str, object] | None = None,
) -> str:
    """A whole recording as text (trailing newline included)."""
    lines = [header_line(meta)]
    lines.extend(event_line(event) for event in events)
    if metrics is not None:
        lines.append(_dumps({"metrics": dict(metrics)}))
    return "\n".join(lines) + "\n"


def dump_trace(
    path: str,
    events: Iterable[Event],
    meta: Mapping[str, object] | None = None,
    metrics: Mapping[str, object] | None = None,
) -> None:
    """Write a recording to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_trace(events, meta=meta, metrics=metrics))


# ------------------------------------------------------------------ decoder


def _event(record: Mapping[str, Any]) -> Event:
    try:
        fields = record.get("f", {})
        if not isinstance(fields, dict):
            raise TypeError(f"field bag is not an object: {fields!r}")
        return Event(
            float(record["t"]), int(record["pid"]), str(record["kind"]), make_fields(fields)
        )
    except KeyError as missing:
        raise StreamFormatError(f"event line missing key {missing}") from None
    except (TypeError, ValueError) as exc:
        raise StreamFormatError(f"malformed event line: {exc}") from None


def decode_line(text: str) -> tuple[str, Any]:
    """Parse and validate one line of any recording.

    Returns ``(type, body)``: ``("header", meta)``, ``("event", Event)``,
    ``("delta", tick)`` or ``("metrics", snapshot)``.
    """
    try:
        line = json.loads(text)
    except ValueError as exc:
        raise StreamFormatError(f"line is not JSON: {exc}") from None
    if not isinstance(line, dict):
        raise StreamFormatError(f"line is not an object: {text.strip()!r}")
    if "schema" in line:
        if line["schema"] != STREAM_SCHEMA:
            raise StreamFormatError(
                f"not a {STREAM_SCHEMA} recording (schema={line['schema']!r})"
            )
        if line.get("version") != STREAM_VERSION:
            raise StreamFormatError(
                f"unsupported version {line.get('version')!r} "
                f"(this build reads {STREAM_VERSION})"
            )
        kind, body = "header", line.get("meta", {})
    elif "delta" in line:
        kind, body = "delta", line["delta"]
    elif "metrics" in line:
        kind, body = "metrics", line["metrics"]
    else:
        return "event", _event(line)
    if not isinstance(body, dict):
        raise StreamFormatError(f"{kind} line body is not an object: {body!r}")
    return kind, body


@dataclass
class Trace:
    """A loaded recording: header meta, events in order, deltas, metrics."""

    meta: dict[str, object] = field(default_factory=dict)
    events: list[Event] = field(default_factory=list)
    metrics: dict[str, object] | None = None
    deltas: list[dict[str, object]] = field(default_factory=list)


def _load_lines(lines: Iterable[str]) -> Trace:
    trace: Trace | None = None
    for text in lines:
        if not text.strip():
            continue
        kind, body = decode_line(text)
        if trace is None:
            if kind != "header":
                raise StreamFormatError(f"recording opens with a {kind} line, not a header")
            trace = Trace(meta=body)
        elif kind == "event":
            trace.events.append(body)
        elif kind == "delta":
            trace.deltas.append(body)
        elif kind == "metrics":
            trace.metrics = body
        else:
            raise StreamFormatError("second header line inside a recording")
    if trace is None:
        raise StreamFormatError("empty recording")
    return trace


def load_trace(path: str) -> Trace:
    """Read a trace file, a ``subscribe`` stream tee or a flight dump."""
    with open(path, encoding="utf-8") as handle:
        return _load_lines(handle)


def loads_trace(text: str) -> Trace:
    """Parse recording text (see :func:`load_trace`)."""
    return _load_lines(text.split("\n"))


# ---------------------------------------------------------------- event ring


class EventRing:
    """Bounded FIFO of events: overflow drops the oldest and is counted."""

    __slots__ = ("capacity", "dropped", "_events")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.dropped = 0
        self._events: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._events)

    def append(self, event: Event) -> None:
        """Add one event, evicting (and counting) the oldest when full."""
        if len(self._events) >= self.capacity:
            self._events.popleft()
            self.dropped += 1
        self._events.append(event)

    def drain(self) -> list[Event]:
        """Remove and return everything buffered, oldest first."""
        events = list(self._events)
        self._events.clear()
        return events

    def peek(self) -> list[Event]:
        """The buffered events, oldest first, without consuming them."""
        return list(self._events)


# ---------------------------------------------------------- live subscriber


class StreamSubscriber:
    """A filtered, bounded live tap on an :class:`EventBus`.

    Construction subscribes to the bus; :meth:`close` detaches. Filters:

    * ``kinds`` — keep only these event kinds (None = all);
    * ``min_round`` — drop events whose integer ``round`` field is below
      this bound (events *without* a round field always pass: commit /
      wave / link events are not round-scoped).
    """

    def __init__(
        self,
        bus: EventBus,
        capacity: int = DEFAULT_STREAM_CAPACITY,
        kinds: Iterable[str] | None = None,
        min_round: int | None = None,
    ) -> None:
        self._bus = bus
        self.ring = EventRing(capacity)
        self.kinds = frozenset(kinds) if kinds is not None else None
        self.min_round = min_round
        self.total_matched = 0
        self._closed = False
        bus.subscribe(self._on_event)

    def matches(self, event: Event) -> bool:
        """Filter predicate applied to every emitted event."""
        if self.kinds is not None and event.kind not in self.kinds:
            return False
        if self.min_round is not None:
            round_ = event.get("round")
            if isinstance(round_, int) and round_ < self.min_round:
                return False
        return True

    def _on_event(self, event: Event) -> None:
        if self.matches(event):
            self.total_matched += 1
            self.ring.append(event)

    @property
    def dropped(self) -> int:
        """Cumulative events lost to ring overflow."""
        return self.ring.dropped

    def drain(self) -> list[Event]:
        """Events buffered since the last drain, oldest first."""
        return self.ring.drain()

    def close(self) -> None:
        """Detach from the bus; further emits are no longer buffered."""
        if not self._closed:
            self._closed = True
            self._bus.unsubscribe(self._on_event)

    def filters_dict(self) -> dict[str, object]:
        """The active filters as a JSON-ready mapping (for headers)."""
        filters: dict[str, object] = {}
        if self.kinds is not None:
            filters["kinds"] = sorted(self.kinds)
        if self.min_round is not None:
            filters["min_round"] = self.min_round
        return filters


# ------------------------------------------------------------ metric deltas


class MetricsDelta:
    """Incremental registry snapshots: what moved since the last tick.

    Counters and histogram counts/sums are reported as increments,
    gauges as current values. A tick with no movement encodes to an
    empty delta (callers may skip sending it). The decoded form of a
    full stream of deltas sums back to the registry's absolute state —
    the round-trip the stream tests assert.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._last_counters: dict[str, int] = {}
        self._last_hist: dict[str, tuple[int, float]] = {}

    def collect(self) -> dict[str, object]:
        """The movement since the previous :meth:`collect` call."""
        snapshot = self._registry.as_dict()
        counters: dict[str, int] = {}
        raw_counters = snapshot.get("counters", {})
        assert isinstance(raw_counters, dict)
        for name in sorted(raw_counters):
            value = raw_counters[name]
            assert isinstance(value, int)
            moved = value - self._last_counters.get(name, 0)
            if moved:
                counters[name] = moved
            self._last_counters[name] = value
        gauges: dict[str, float] = {}
        raw_gauges = snapshot.get("gauges", {})
        assert isinstance(raw_gauges, dict)
        for name in sorted(raw_gauges):
            entry = raw_gauges[name]
            if isinstance(entry, dict):
                gauges[name] = float(entry["value"])
        histograms: dict[str, dict[str, float]] = {}
        raw_hist = snapshot.get("histograms", {})
        assert isinstance(raw_hist, dict)
        for name in sorted(raw_hist):
            entry = raw_hist[name]
            if not isinstance(entry, dict):
                continue
            count = int(entry.get("count", 0))
            total = float(entry.get("sum", 0.0))
            last_count, last_total = self._last_hist.get(name, (0, 0.0))
            if count != last_count:
                histograms[name] = {
                    "count": count - last_count,
                    "sum": total - last_total,
                }
            self._last_hist[name] = (count, total)
        delta: dict[str, object] = {}
        if counters:
            delta["counters"] = counters
        if gauges:
            delta["gauges"] = gauges
        if histograms:
            delta["histograms"] = histograms
        return delta


def apply_delta(state: dict[str, object], delta: Mapping[str, object]) -> None:
    """Fold one decoded delta into an accumulating absolute ``state``.

    ``state`` uses the same shape as the encoded deltas: ``counters`` sum,
    ``gauges`` take the latest value, ``histograms`` sum count/sum pairs.
    """
    counters = state.setdefault("counters", {})
    assert isinstance(counters, dict)
    raw = delta.get("counters")
    if isinstance(raw, Mapping):
        for name, moved in raw.items():
            counters[name] = counters.get(name, 0) + moved
    gauges = state.setdefault("gauges", {})
    assert isinstance(gauges, dict)
    raw = delta.get("gauges")
    if isinstance(raw, Mapping):
        gauges.update(raw)
    histograms = state.setdefault("histograms", {})
    assert isinstance(histograms, dict)
    raw = delta.get("histograms")
    if isinstance(raw, Mapping):
        for name, moved in raw.items():
            if not isinstance(moved, Mapping):
                continue
            entry = histograms.setdefault(name, {"count": 0, "sum": 0.0})
            entry["count"] += moved.get("count", 0)
            entry["sum"] += moved.get("sum", 0.0)


def registry_totals(registry: MetricsRegistry) -> dict[str, object]:
    """The registry's absolute state in delta-accumulator shape."""
    state: dict[str, object] = {}
    snapshot = registry.as_dict()
    counters = {
        name: value
        for name, value in snapshot.get("counters", {}).items()
        if isinstance(value, int) and value
    }
    if counters:
        state["counters"] = counters
    gauges = {
        name: float(entry["value"])
        for name, entry in snapshot.get("gauges", {}).items()
        if isinstance(entry, dict)
    }
    if gauges:
        state["gauges"] = gauges
    histograms = {
        name: {"count": int(entry["count"]), "sum": float(entry["sum"])}
        for name, entry in snapshot.get("histograms", {}).items()
        if isinstance(entry, dict) and entry.get("count")
    }
    if histograms:
        state["histograms"] = histograms
    return state


# ---------------------------------------------------------- flight recorder


class FlightRecorder:
    """Always-on last-K event ring — the black box dumped on trouble.

    Attaches to a bus at construction and keeps the most recent
    ``capacity`` events (every kind; drops are counted but expected —
    overwriting history is the *point* of a flight recorder). A dump is a
    recording whose header meta carries the caller's meta plus the reason,
    the dump time and how many events were overwritten.
    """

    def __init__(self, bus: EventBus, capacity: int = DEFAULT_FLIGHT_CAPACITY) -> None:
        self._bus = bus
        self.ring = EventRing(capacity)
        self.dumps_taken = 0
        bus.subscribe(self.ring.append)

    def dump(
        self,
        reason: str,
        time: float,
        meta: Mapping[str, object] | None = None,
        metrics: Mapping[str, object] | None = None,
    ) -> str:
        """Snapshot the ring (non-destructively) as recording text."""
        self.dumps_taken += 1
        header = {
            **(meta or {}),
            "reason": reason,
            "t": time,
            "overwritten": self.ring.dropped,
        }
        return dumps_trace(self.ring.peek(), meta=header, metrics=metrics)

    def close(self) -> None:
        """Detach from the bus."""
        self._bus.unsubscribe(self.ring.append)


# ------------------------------------------------------------ stall detector


class StallDetector:
    """Quorum-frontier liveness monitor for a driver watching n nodes.

    Feed it ``observe(pid, decided_wave, now)`` samples (from ``subscribe``
    deltas or ``status`` polls) and ask :meth:`stalled_for` how long the
    quorum frontier — the highest wave at least ``quorum`` nodes have
    decided — has failed to advance. A single frozen or lagging node
    never trips the detector (the quorum frontier tracks the healthy
    majority); a frozen *quorum* does, which is exactly the condition
    under which an asynchronous BFT run can sit silent forever.

    All times are caller-provided, so the detector is deterministic and
    simulator-friendly.
    """

    def __init__(self, n: int, quorum: int | None = None, window: float = 30.0) -> None:
        if n < 1:
            raise ValueError(f"detector needs n >= 1, got {n}")
        self.n = n
        # Default quorum: n - f with f = (n - 1) // 3, the BFT availability
        # bound — progress is only *expected* of n - f nodes.
        self.quorum = quorum if quorum is not None else n - (n - 1) // 3
        if not 1 <= self.quorum <= n:
            raise ValueError(f"quorum {self.quorum} out of range for n={n}")
        self.window = window
        self._frontier: dict[int, int] = {}
        self._quorum_wave = -1
        self._advanced_at: float | None = None
        self.stalls_reported = 0

    def observe(self, pid: int, decided_wave: int, now: float) -> None:
        """Record one node's commit frontier at time ``now``."""
        if self._advanced_at is None:
            self._advanced_at = now  # start the clock at the first sample
        previous = self._frontier.get(pid, -1)
        if decided_wave > previous:
            self._frontier[pid] = decided_wave
        quorum_wave = self.quorum_frontier()
        if quorum_wave > self._quorum_wave:
            self._quorum_wave = quorum_wave
            self._advanced_at = now

    def quorum_frontier(self) -> int:
        """Highest wave at least ``quorum`` observed nodes have decided."""
        if len(self._frontier) < self.quorum:
            return -1
        waves = sorted(self._frontier.values(), reverse=True)
        return waves[self.quorum - 1]

    def stalled_for(self, now: float) -> float:
        """Seconds since the quorum frontier last advanced (0 before data)."""
        if self._advanced_at is None:
            return 0.0
        return max(0.0, now - self._advanced_at)

    def check(self, now: float) -> bool:
        """True when the frontier has been flat for at least ``window``.

        Repeated checks during one continuous stall return True only once
        per window: reporting re-arms the detector so a long stall
        produces periodic (not per-poll) diagnostics.
        """
        if self._advanced_at is None:
            return False
        if now - self._advanced_at >= self.window:
            self.stalls_reported += 1
            self._advanced_at = now  # re-arm
            return True
        return False


__all__ = [
    "DEFAULT_FLIGHT_CAPACITY",
    "DEFAULT_STREAM_CAPACITY",
    "EventRing",
    "FlightRecorder",
    "MetricsDelta",
    "STREAM_SCHEMA",
    "STREAM_VERSION",
    "StallDetector",
    "StreamFormatError",
    "StreamSubscriber",
    "Trace",
    "apply_delta",
    "decode_line",
    "delta_line",
    "dump_trace",
    "dumps_trace",
    "event_line",
    "header_line",
    "load_trace",
    "loads_trace",
    "registry_totals",
]
