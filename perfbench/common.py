"""Helpers shared by the benchmark's parent and child processes."""

from __future__ import annotations

import gc
import heapq
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

#: Checkout root (the directory holding ``src/`` and ``perfbench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "perfbench")
#: Scratch output inside the checkout: span dumps, state directories.
OUT = os.path.join(ROOT, ".perfbench-out")


def child_env() -> dict[str, str]:
    """Environment for child processes: the repo importable, hashing fixed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH])
    # Sim counts must repeat exactly across processes; fix str hashing so
    # no set or dict iteration order can depend on the process.
    env["PYTHONHASHSEED"] = "0"
    return env


def peak_rss_mb() -> float:
    """This process's own resident-set high-water mark, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries count as missing any limit."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    return statistics.median(values)


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def kernel_slice() -> None:
    """One slice of the reference kernel: dict, heap and object churn.

    Pure Python and independent of ``repro``, so no change to the program
    can speed it up. Its mix of hashing, allocation and heap traffic
    resembles the simulator's and the runtime's hot paths more than a
    tight integer loop does, which is what lets it track the machine's
    moment-to-moment speed for that kind of code.
    """
    table: dict[int, int] = {}
    heap: list = []
    for i in range(600):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + 1
        heapq.heappush(heap, (key, i, _Item(i, key)))
    while heap:
        heapq.heappop(heap)


#: Reference duration of one kernel slice; normalized times are scaled to
#: a machine on which a slice takes exactly this long.
REF_SLICE_S = 0.00125


class SpeedGauge:
    """Kernel slices interleaved with measured work, at fine grain.

    On a shared 2-vCPU VM the speed of interpreter-bound code wandered by
    up to 2x within seconds. Work timed between slices and divided by the
    slices' own mean duration cancels that drift: :meth:`factor` rescales a
    raw duration to seconds on a machine whose slice takes
    :data:`REF_SLICE_S`.
    """

    def __init__(self, collect: bool = False) -> None:
        self.slices = 0
        self.seconds = 0.0
        self.collect = collect

    def tick(self) -> float:
        """Run one slice; return its duration.

        Unless ``collect`` is set, the collector is off during the slice:
        its allocations would otherwise trigger collections whose cost
        grows with the measured program's heap, not with the machine's
        speed. The simulator keeps a small heap, and there slices that
        collect tracked its run time more closely in trials (run-to-run
        spread 0.04 against 0.09); the cluster's event log makes its heap
        large enough that collecting slices swamped the reading.
        """
        enabled = gc.isenabled()
        if not self.collect:
            gc.disable()
        try:
            start = time.perf_counter()
            kernel_slice()
            spent = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.slices += 1
        self.seconds += spent
        return spent

    @property
    def slice_s(self) -> float:
        return self.seconds / self.slices

    def factor(self) -> float:
        """Multiply a raw duration by this to normalize it."""
        return REF_SLICE_S / self.slice_s


def calibration_ms(slices: int = 20) -> float:
    """Median duration of a kernel slice right now, in milliseconds."""
    gauge = SpeedGauge()
    return statistics.median(gauge.tick() for _ in range(slices)) * 1000.0


def run_child(args: list[str], timeout: float) -> tuple[float, dict]:
    """Run ``python3 <args>`` to completion; return spawn time and its JSON.

    The child prints exactly one JSON object as its last stdout line.
    """
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=timeout,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"child {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"child {args[0]} printed nothing: {proc.stderr[-2000:]}")
    return spawned, json.loads(lines[-1])

