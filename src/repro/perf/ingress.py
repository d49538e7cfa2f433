"""Sustained-throughput ingress benchmark over a real multi-process fabric.

Unlike the deterministic simulator sweeps (:mod:`repro.perf.sweep`), this
cell boots *real* ``python -m repro tcp-node`` OS processes from a planned
peer table with ingress ports, drives them with closed-loop asyncio
clients over the gateway's newline-JSON protocol, listens on one ``ack``
stream per node, and samples every runner's RSS from ``/proc`` — so the
numbers it produces (tx/s, end-to-end commit latency, memory growth under
``gc_depth`` compaction) are runtime numbers, not simulator numbers, and
are inherently machine-dependent. The committed ``BENCH_ingress.json``
baseline is therefore a *shape* reference (what the document looks like,
which counters exist), not an exact-compare target like ``BENCH_sim.json``.

The cell ends with an overload probe: rapid-fire ``submit_batch`` requests
sized to outrun the flusher, asserting the mempool answers the over-budget
tail with explicit ``busy`` rejections instead of silent drops.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro.analysis.stats import summarize
from repro.obs.stream import loads_trace
from repro.runtime.consistency import check_prefix_consistency
from repro.runtime.fabric import (
    control_call,
    fetch_digest_logs,
    plan_table,
    reap,
    spawn_runners,
    stop_all,
    wait_ready,
)
from repro.runtime.peers import PeerTable

SCHEMA = "repro.bench.ingress/1"

#: StreamReader line limit for client connections; a ``submit_batch``
#: response carries one result object per tx, which outgrows the 64 KiB
#: asyncio default during the overload probe.
_LINE_LIMIT = 1 << 20


@dataclass(frozen=True)
class IngressCell:
    """One ingress benchmark configuration.

    Attributes:
        name: Document key for this cell.
        n: Cluster size (one OS process per pid, all on localhost).
        seed: Peer-table seed (protocol randomness derives from it).
        coin: Coin mode for the run.
        duration: Seconds of sustained client load.
        clients_per_node: Closed-loop submit connections per node.
        tx_bytes: Payload bytes per client transaction.
        gc_depth: DAG compaction margin (bounded memory); ``None``
            disables compaction, which the memory assertion will notice.
        drain: Grace seconds after load stops for in-flight acks.
        boot_timeout: Deadline for all nodes to answer ``ping``.
    """

    name: str = "ingress-n4"
    n: int = 4
    seed: int = 7
    coin: str = "ideal"
    duration: float = 10.0
    clients_per_node: int = 2
    tx_bytes: int = 128
    gc_depth: int | None = 8
    drain: float = 3.0
    boot_timeout: float = 60.0

    def params(self) -> dict[str, object]:
        return asdict(self)


@dataclass
class _ClientStats:
    """What the closed-loop clients and ack listeners observed."""

    submitted: int = 0
    accepted: int = 0
    busy: int = 0
    rejected: int = 0
    errors: int = 0
    acks: int = 0
    ack_dropped: int = 0
    e2e: list[float] = field(default_factory=list)


def _rss_bytes(ospid: int) -> int:
    """Resident set size of one OS process, from ``/proc/<pid>/statm``."""
    page = os.sysconf("SC_PAGE_SIZE")
    with open(f"/proc/{ospid}/statm", encoding="ascii") as stream:
        return int(stream.read().split()[1]) * page


async def _submit_loop(
    entry_host: str,
    entry_port: int,
    cell: IngressCell,
    node_pid: int,
    client_index: int,
    stats: _ClientStats,
    deadline: float,
) -> None:
    """One closed-loop client: submit, await the verdict, repeat."""
    reader, writer = await asyncio.open_connection(
        entry_host, entry_port, limit=_LINE_LIMIT
    )
    counter = 0
    try:
        while time.monotonic() < deadline:
            prefix = f"{node_pid}.{client_index}.{counter}:".encode()
            payload = prefix + b"t" * max(0, cell.tx_bytes - len(prefix))
            counter += 1
            writer.write(
                (json.dumps({"cmd": "submit", "tx": payload.hex()}) + "\n").encode()
            )
            await writer.drain()
            line = await reader.readline()
            if not line:
                break
            response = json.loads(line)
            stats.submitted += 1
            if response.get("accepted"):
                stats.accepted += 1
            elif response.get("busy"):
                stats.busy += 1
                # Honest backpressure: back off instead of hammering.
                await asyncio.sleep(0.005)
            else:
                stats.rejected += 1
    except (ConnectionError, OSError, ValueError):
        stats.errors += 1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _ack_listener(
    entry_host: str, entry_port: int, stats: _ClientStats
) -> None:
    """One ``ack``-mode connection: collect e2e latencies until cancelled."""
    reader, writer = await asyncio.open_connection(
        entry_host, entry_port, limit=_LINE_LIMIT
    )
    try:
        writer.write((json.dumps({"cmd": "ack"}) + "\n").encode())
        await writer.drain()
        await reader.readline()  # {"ok": true, "streaming": true} header
        while True:
            line = await reader.readline()
            if not line:
                break
            message = json.loads(line)
            ack = message.get("ack")
            if isinstance(ack, dict):
                stats.acks += 1
                stats.e2e.append(float(ack["e2e"]))
            elif "dropped" in message:
                stats.ack_dropped = max(stats.ack_dropped, int(message["dropped"]))
    except (ConnectionError, OSError, ValueError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _sample_rss(
    os_pids: dict[int, int], samples: dict[int, list[int]], interval: float = 0.5
) -> None:
    while True:
        for pid, ospid in os_pids.items():
            try:
                samples[pid].append(_rss_bytes(ospid))
            except (OSError, IndexError, ValueError):
                pass
        await asyncio.sleep(interval)


async def _overload_probe(
    entry_host: str, entry_port: int, rounds: int = 12, batch: int = 1024
) -> dict[str, int]:
    """Outrun the flusher with ``submit_batch`` until the budget pushes back.

    Admission inside one request is synchronous — the flush loop cannot
    drain between per-tx verdicts — so a handful of large batches reliably
    crosses ``max_pending_txs`` and the tail must come back ``busy``.
    """
    reader, writer = await asyncio.open_connection(
        entry_host, entry_port, limit=_LINE_LIMIT
    )
    sent = accepted = busy = 0
    counter = 0
    try:
        for _ in range(rounds):
            txs = []
            for _ in range(batch):
                payload = f"probe.{counter}:".encode().ljust(16, b"p")
                counter += 1
                txs.append(payload.hex())
            writer.write(
                (json.dumps({"cmd": "submit_batch", "txs": txs}) + "\n").encode()
            )
            await writer.drain()
            line = await reader.readline()
            if not line:
                break
            response = json.loads(line)
            sent += len(txs)
            accepted += int(response.get("accepted", 0))
            busy += sum(
                1 for result in response.get("results", []) if result.get("busy")
            )
            if busy:
                break
    except (ConnectionError, OSError, ValueError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return {"sent": sent, "accepted": accepted, "busy": busy}


async def _drive(
    table: PeerTable, cell: IngressCell, os_pids: dict[int, int]
) -> tuple[_ClientStats, dict[int, list[int]], dict[str, int]]:
    """The load phase: listeners first, then clients, then the probe."""
    stats = _ClientStats()
    samples: dict[int, list[int]] = {pid: [] for pid in os_pids}
    sampler = asyncio.get_running_loop().create_task(_sample_rss(os_pids, samples))
    listeners = [
        asyncio.get_running_loop().create_task(
            _ack_listener(entry.host, entry.ingress_address[1], stats)
        )
        for entry in table.peers
    ]
    await asyncio.sleep(0.2)  # listeners subscribed before the first submit
    deadline = time.monotonic() + cell.duration
    clients = [
        _submit_loop(
            entry.host,
            entry.ingress_address[1],
            cell,
            entry.pid,
            index,
            stats,
            deadline,
        )
        for entry in table.peers
        for index in range(cell.clients_per_node)
    ]
    await asyncio.gather(*clients)
    await asyncio.sleep(cell.drain)
    probe_entry = table.entry(0)
    probe = await _overload_probe(probe_entry.host, probe_entry.ingress_address[1])
    sampler.cancel()
    for task in listeners:
        task.cancel()
    await asyncio.gather(sampler, *listeners, return_exceptions=True)
    return stats, samples, probe


def _memory_report(samples: dict[int, list[int]]) -> dict[str, dict[str, object]]:
    """Per-node RSS shape: warm baseline vs peak, as a growth ratio.

    The baseline is the sample one quarter into the run — past interpreter
    and socket warm-up — so ``growth`` isolates what sustained load adds.
    """
    report: dict[str, dict[str, object]] = {}
    for pid in sorted(samples):
        series = samples[pid]
        if not series:
            report[str(pid)] = {"samples": 0}
            continue
        baseline = series[len(series) // 4]
        peak = max(series)
        report[str(pid)] = {
            "samples": len(series),
            "baseline_rss": baseline,
            "peak_rss": peak,
            "final_rss": series[-1],
            "growth": round(peak / baseline, 4) if baseline else None,
        }
    return report


def _ingress_registry(trace_text: str) -> dict[str, object]:
    """The ingress/mempool slice of one node's metric registry snapshot."""
    metrics = loads_trace(trace_text).metrics or {}
    registry = metrics.get("registry")
    if not isinstance(registry, dict):
        return {}
    sliced: dict[str, object] = {}
    for kind, instruments in registry.items():
        if not isinstance(instruments, dict):
            continue
        kept = {
            name: value
            for name, value in instruments.items()
            if name.startswith(("ingress.", "mempool."))
        }
        if kept:
            sliced[kind] = kept
    return sliced


def run_ingress_cell(cell: IngressCell, out_dir: str | Path) -> dict[str, Any]:
    """Boot the fabric, drive it, and return the benchmark document."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table = plan_table(
        ["localhost"], cell.n, cell.seed, cell.coin,
        gc_depth=cell.gc_depth, ingress=True,
    )
    peers_path = out / "peers.json"
    peers_path.write_text(table.dumps(), encoding="utf-8")
    run_seconds = cell.duration + cell.boot_timeout + 120.0
    processes = spawn_runners(table, peers_path, out, run_seconds=run_seconds)
    consistency_error: str | None = None
    try:
        boot = wait_ready(table, time.monotonic() + cell.boot_timeout)
        if boot is None:
            raise RuntimeError(
                f"ingress bench: nodes not ready within {cell.boot_timeout}s "
                f"(logs under {out})"
            )
        os_pids = {pid: process.pid for pid, process in processes.items()}
        start = time.monotonic()
        stats, samples, probe = asyncio.run(_drive(table, cell, os_pids))
        elapsed = time.monotonic() - start

        statuses: dict[str, dict[str, Any]] = {}
        registry: dict[str, object] = {}
        for entry in table.peers:
            status = control_call(entry.control_address, {"cmd": "status"})
            statuses[str(entry.pid)] = status
            trace = control_call(
                entry.control_address, {"cmd": "trace"}, timeout=30.0
            )["trace"]
            registry[str(entry.pid)] = _ingress_registry(trace)
        try:
            prefix = check_prefix_consistency(fetch_digest_logs(table))
        except Exception as error:  # ConsistencyError is the finding itself
            consistency_error = str(error)
            prefix = -1
    finally:
        stop_all(table)
        reap(processes)

    delivered = sum(
        int(status.get("ingress", {}).get("delivered", 0))
        for status in statuses.values()
    )
    client: dict[str, object] = {
        "submitted": stats.submitted,
        "accepted": stats.accepted,
        "busy": stats.busy,
        "rejected": stats.rejected,
        "errors": stats.errors,
        "acks": stats.acks,
        "ack_dropped": stats.ack_dropped,
    }
    if stats.e2e:
        latency = summarize(stats.e2e)
        client["e2e"] = {
            "count": latency.count,
            "mean": round(latency.mean, 6),
            "median": round(latency.median, 6),
            "p90": round(latency.p90, 6),
            "max": round(latency.maximum, 6),
        }
    return {
        "schema": SCHEMA,
        "params": cell.params(),
        "client": client,
        "throughput": {
            "wall_seconds": round(elapsed, 3),
            "accepted_per_sec": round(stats.accepted / cell.duration, 2),
            "delivered_per_sec": round(delivered / cell.duration, 2),
        },
        "delivered": delivered,
        "backpressure": probe,
        "consistency": {
            "agreed_prefix": prefix,
            "error": consistency_error,
        },
        "memory": _memory_report(samples),
        "nodes": statuses,
        "observability": registry,
    }


def check_result(
    result: dict[str, Any],
    min_delivered: int,
    max_rss_growth: float,
) -> list[str]:
    """Smoke assertions over a benchmark document; empty list = pass."""
    failures: list[str] = []
    delivered = int(result.get("delivered", 0))
    if delivered < min_delivered:
        failures.append(
            f"delivered {delivered} client txs; floor is {min_delivered}"
        )
    if result.get("consistency", {}).get("error"):
        failures.append(
            f"total-order violation: {result['consistency']['error']}"
        )
    if not result.get("backpressure", {}).get("busy"):
        failures.append(
            "overload probe never saw an explicit busy rejection"
        )
    for pid, memory in sorted(result.get("memory", {}).items()):
        growth = memory.get("growth")
        if growth is None:
            failures.append(f"node {pid}: no RSS samples collected")
        elif growth > max_rss_growth:
            failures.append(
                f"node {pid}: RSS grew {growth}x under load "
                f"(bound {max_rss_growth}x) — compaction is not holding"
            )
    acked = int(result.get("client", {}).get("acks", 0))
    if delivered and not acked:
        failures.append("nodes delivered client txs but no ack ever streamed")
    return failures
