"""Unified observability: deterministic events, metrics, spans, trace tooling.

The paper's claims are *measured* claims — Claim 6's ≤ 3/2 expected waves
per commit, Table 1's bit counts, §3's asynchronous time units — so the
reproduction carries a first-class observability layer shared by the
simulator, the protocol core, and the TCP runtime:

* :mod:`repro.obs.events` / :mod:`repro.obs.bus` — a deterministic,
  append-only event bus. Every event is stamped with the *owning clock's*
  time (simulated time in the simulator, the runtime scheduler's monotonic
  time under TCP), so simulator traces are bit-reproducible for a seed.
* :mod:`repro.obs.metrics` — a metrics registry: counters, gauges, and
  fixed-bucket histograms with deterministic snapshots.
* :mod:`repro.obs.spans` — span-style phase tracking for the protocol
  pipeline (vertex broadcast, DAG insertion, wave-leader election, commit
  walk, delivery).
* :mod:`repro.obs.wire` — the §3 communication/time accounting collector.
* :mod:`repro.obs.analyze` — summaries, filters, and trace *diffing*
  (clean run vs. chaos run → which waves paid for redelivery).
* :mod:`repro.obs.stream` — the one ``repro.obs.stream`` newline-JSON
  recording format (trace files, ``subscribe`` streams, flight dumps) and
  its decoder, plus live telemetry: bounded-ring bus subscribers,
  incremental metric deltas, the flight recorder, and the stall detector.
* :mod:`repro.obs.causal` — cross-host causal stitching of merged traces
  into per-vertex chains with per-edge latency percentiles.
* ``python -m repro.obs`` (:mod:`repro.obs.cli`) — record / summarize /
  filter / diff / causal from the command line.

The package is dependency-light by design: it imports nothing from
``repro.sim``, ``repro.core``, or ``repro.runtime``, so every layer can
emit into it without cycles. It is in scope for the determinism lint's
DET002/DET003 rules — no wall-clock reads, no set-order leaks.
"""

from repro.obs.analyze import (
    TraceDiff,
    WaveStats,
    diff_traces,
    filter_events,
    kind_counts,
    summarize,
    wave_stats,
)
from repro.obs.bus import EventBus
from repro.obs.causal import CausalReport, EdgeStats, VertexChain, stitch
from repro.obs.context import Observability
from repro.obs.events import Event, Scalar, make_fields
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.spans import (
    PHASE_BROADCAST,
    PHASE_COMMIT_WALK,
    PHASE_DAG_INSERT,
    PHASE_DELIVER,
    PHASE_WAVE_LEADER,
    PIPELINE_PHASES,
    SpanTracker,
)
from repro.obs.stream import (
    STREAM_SCHEMA,
    STREAM_VERSION,
    FlightRecorder,
    MetricsDelta,
    StallDetector,
    StreamFormatError,
    StreamSubscriber,
    Trace,
    decode_line,
    dump_trace,
    dumps_trace,
    load_trace,
    loads_trace,
)
from repro.obs.wire import MetricsCollector

__all__ = [
    "CausalReport",
    "Counter",
    "EdgeStats",
    "Event",
    "EventBus",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsCollector",
    "MetricsDelta",
    "MetricsRegistry",
    "Observability",
    "PHASE_BROADCAST",
    "PHASE_COMMIT_WALK",
    "PHASE_DAG_INSERT",
    "PHASE_DELIVER",
    "PHASE_WAVE_LEADER",
    "PIPELINE_PHASES",
    "STREAM_SCHEMA",
    "STREAM_VERSION",
    "Scalar",
    "SpanTracker",
    "StallDetector",
    "StreamFormatError",
    "StreamSubscriber",
    "Trace",
    "TraceDiff",
    "VertexChain",
    "WaveStats",
    "decode_line",
    "diff_traces",
    "dump_trace",
    "dumps_trace",
    "filter_events",
    "kind_counts",
    "load_trace",
    "loads_trace",
    "make_fields",
    "stitch",
    "summarize",
    "wave_stats",
]
