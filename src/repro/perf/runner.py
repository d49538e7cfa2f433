"""Run one benchmark cell and report metrics, timing, and optional profile.

The result of a cell is split into three sections on purpose:

* ``metrics`` — deterministic quantities (events, bits, commits,
  transactions); identical for the same cell on any machine, any worker
  process, and any optimization level that preserves simulator semantics.
  The regression gate compares these exactly.
* ``timing`` — wall-clock and derived throughput; machine-dependent, only
  ever compared within a tolerance (or advisorily).
* ``observability`` — the per-cell breakdowns from the deployment's
  :class:`repro.obs.context.Observability` bundle: per-wave commit latency,
  the per-tag control-overhead split of the §3 bit accounting, and the
  metric-registry snapshot. Deterministic too, but *not* part of the exact
  compare (:func:`repro.perf.sweep.metric_payload` serializes only params
  and metrics), so the breakdowns can grow without invalidating baselines.
* ``memory`` — peak-memory readings (``ru_maxrss`` always; a ``tracemalloc``
  peak when ``REPRO_BENCH_TRACEMALLOC=1``, opt-in because tracing slows the
  run severely and would poison the wall-clock column). Machine-local like
  timing, and likewise outside the exact compare.
"""

from __future__ import annotations

import cProfile
import gc
import io
import os
import pstats
import resource
import time
import tracemalloc
from typing import TYPE_CHECKING

from repro.common.config import SystemConfig
from repro.common.rng import derive_rng
from repro.core.faulty import RecoveringNode
from repro.core.harness import DagRiderDeployment
from repro.obs.analyze import wave_stats
from repro.obs.context import Observability
from repro.sim.adversary import SlowProcessDelay, UniformDelay

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.cells import BenchCell

#: Process slot that runs the fault variant in ``fault="crash_restart"`` cells.
CRASH_PID = 1

#: Simulated rounds/time the crash cells' recovering node is configured with.
CRASH_ROUND = 3
CRASH_DOWNTIME = 30.0


class CellFailure(RuntimeError):
    """A cell did not reach its wave target within its event budget."""


def _build(
    cell: "BenchCell",
    observability: Observability | None = None,
    slow: tuple[int, float] | None = None,
) -> DagRiderDeployment:
    adversary = None
    if slow is not None:
        # Same base delay stream as the default deployment (same seed, same
        # label), so the only difference from a clean run is the penalty —
        # diffing the two traces isolates exactly what the slow peer cost.
        pid, penalty = slow
        adversary = SlowProcessDelay(
            UniformDelay(derive_rng(cell.seed, "delays")), {pid}, penalty
        )
    node_factories = None
    node_kwargs = None
    if cell.fault == "crash_restart":
        # The sim-side twin of the runtime's ChaosTransport crash_restart
        # fault: one process goes down mid-run and rejoins after replaying
        # the backlog its reliable links held.
        node_factories = {CRASH_PID: RecoveringNode}
        node_kwargs = {
            CRASH_PID: {"crash_round": CRASH_ROUND, "downtime": CRASH_DOWNTIME}
        }
    elif cell.fault is not None:
        raise ValueError(f"unknown cell fault {cell.fault!r}")
    return DagRiderDeployment(
        SystemConfig(n=cell.n, seed=cell.seed),
        adversary=adversary,
        broadcast=cell.broadcast,
        batch_size=cell.batch_size,
        tx_bytes=cell.tx_bytes,
        node_factories=node_factories,
        node_kwargs=node_kwargs,
        observability=observability,
    )


def _observability_section(
    deployment: DagRiderDeployment, observability: Observability
) -> dict:
    """Per-cell commit-latency and control-overhead breakdowns."""
    metrics = deployment.metrics
    correct_bits = metrics.correct_bits_total
    control: dict[str, dict[str, object]] = {}
    for tag in sorted(metrics.messages_by_tag):
        bits = metrics.bits_by_tag.get(tag, 0)
        control[tag] = {
            "messages": metrics.messages_by_tag[tag],
            "bits": bits,
            "bits_fraction": bits / correct_bits if correct_bits else 0.0,
        }
    waves = [
        {
            "wave": stat.wave,
            "ready": stat.ready_time,
            "first_commit": stat.first_commit,
            "last_commit": stat.last_commit,
            "latency": stat.latency,
            "committers": stat.committers,
            "delivered": stat.delivered,
        }
        for stat in wave_stats(observability.bus.events).values()
    ]
    return {
        "events": len(observability.bus),
        "waves": waves,
        "control_overhead": control,
        "registry": observability.snapshot(),
        "scheduler": deployment.scheduler.stats(),
        "wire": metrics.snapshot(),
    }


def _memory_section(rss_before_kb: int, traced_peak: int | None) -> dict:
    """Peak-memory readings; machine-local, outside the exact compare.

    ``max_rss_kb`` is the OS's high-water mark for the whole process — it
    never decreases, so in a sweep worker that runs several cells it
    reflects the largest cell so far; ``max_rss_delta_kb`` (growth during
    this cell) is the per-cell signal. ``tracemalloc_peak_kb`` appears only
    under ``REPRO_BENCH_TRACEMALLOC=1`` and is exact per cell.
    """
    rss_after_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    section = {
        "max_rss_kb": rss_after_kb,
        "max_rss_delta_kb": max(0, rss_after_kb - rss_before_kb),
    }
    if traced_peak is not None:
        section["tracemalloc_peak_kb"] = traced_peak // 1024
    return section


def _collect(
    cell: "BenchCell",
    deployment: DagRiderDeployment,
    wall: float,
    observability: Observability,
    memory: dict | None = None,
) -> dict:
    metrics = deployment.metrics
    nodes = deployment.correct_nodes
    events = deployment.scheduler.events_processed
    result = {
        "params": cell.params(),
        "metrics": {
            "events": events,
            "sim_time": deployment.scheduler.now,
            "total_bits": metrics.total_bits,
            "correct_bits": metrics.correct_bits_total,
            "messages": metrics.messages_total,
            "commits": min(len(node.ordered) for node in nodes),
            "delivered": sum(len(node.ordered) for node in nodes),
            "transactions": deployment.total_transactions_ordered(),
            "decided_wave": min(node.decided_wave for node in nodes),
        },
        "timing": {
            "wall_clock_s": wall,
            "events_per_sec": events / wall if wall > 0 else 0.0,
        },
        "observability": _observability_section(deployment, observability),
    }
    if memory is not None:
        result["memory"] = memory
    return result


def run_cell(cell: "BenchCell") -> dict:
    """Execute ``cell`` and return its result record.

    Top-level and picklable so :mod:`repro.perf.sweep` can ship it to
    ``ProcessPoolExecutor`` workers.
    """
    result, _observability = run_cell_traced(cell)
    return result


def run_cell_traced(
    cell: "BenchCell", slow: tuple[int, float] | None = None
) -> tuple[dict, Observability]:
    """Like :func:`run_cell`, returning the observability bundle too.

    The bundle's bus holds the full protocol event trace (exportable with
    :func:`repro.obs.stream.dump_trace`). Pass ``slow=(pid, penalty)`` to
    run the cell under :class:`repro.sim.adversary.SlowProcessDelay` over
    the same base delay stream — the clean-vs-perturbed trace diff then
    shows which waves paid for the slow process.
    """
    observability = Observability()
    rss_before_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    trace_allocs = os.environ.get("REPRO_BENCH_TRACEMALLOC") == "1"
    if trace_allocs:
        tracemalloc.start()
    # Pause the cyclic collector for the measured region: the sim allocates
    # heavily but reference-cycle-free, and collector passes both cost wall
    # time and make it noisy. Simulation state is released by refcounting
    # as usual; deterministic metrics are unaffected either way.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        deployment = _build(cell, observability=observability, slow=slow)
        reached = deployment.run_until_wave(
            cell.wave_target, max_events=cell.max_events
        )
        wall = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    traced_peak = None
    if trace_allocs:
        _, traced_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    memory = _memory_section(rss_before_kb, traced_peak)
    if not reached:
        raise CellFailure(
            f"cell {cell.name} missed wave {cell.wave_target} "
            f"within {cell.max_events} events"
        )
    deployment.check_total_order()
    deployment.check_integrity()
    return _collect(cell, deployment, wall, observability, memory), observability


def run_cell_profiled(cell: "BenchCell", top: int = 30) -> tuple[dict, str]:
    """Like :func:`run_cell`, under cProfile.

    Returns ``(result, profile_text)`` where the text holds the top
    functions by cumulative time plus the per-tag message counts — the two
    views needed to decide where the next hot-loop PR should aim.
    """
    observability = Observability()
    start = time.perf_counter()
    deployment = _build(cell, observability=observability)
    profiler = cProfile.Profile()
    profiler.enable()
    reached = deployment.run_until_wave(cell.wave_target, max_events=cell.max_events)
    profiler.disable()
    wall = time.perf_counter() - start
    if not reached:
        raise CellFailure(
            f"cell {cell.name} missed wave {cell.wave_target} "
            f"within {cell.max_events} events"
        )
    result = _collect(cell, deployment, wall, observability)

    out = io.StringIO()
    out.write(f"== {cell.name}: cProfile, top {top} by cumulative time ==\n")
    pstats.Stats(profiler, stream=out).sort_stats("cumulative").print_stats(top)
    out.write("== per-tag message counts ==\n")
    for tag, count in deployment.metrics.messages_by_tag.most_common():
        bits = deployment.metrics.bits_by_tag.get(tag, 0)
        out.write(f"{tag:<28}{count:>10} msgs{bits:>16,} bits\n")
    return result, out.getvalue()
