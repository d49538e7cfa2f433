"""TCP workloads: an open-loop generator against a cluster child process.

The generator runs in this process on one asyncio loop over two
connections to node 0's gateway: one pipelined ``submit`` connection and
one ``ack`` stream. Each transaction is due at a fixed time of the step's
schedule and is timed from then until its ack arrives, so a stall also
delays every transaction due during it. Busy, error and unacked
transactions count as missing every latency limit.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass, field

from common import BENCH, OUT, REF_SLICE_S, ROOT, child_env, median, percentile
from repro.mempool.admission import txid_of

TX_BYTES = 128
#: Set-ups per untraced run; ``setup_s`` is their median.
BOOTS = 3
#: A run whose generator sent its p99 transaction later than this is void.
LATENESS_LIMIT_S = 0.05
#: Seconds after the last send to wait for outstanding acks.
DRAIN_S = 3.0
#: The leading part of ``overload`` left out of the capacity window.
OVERLOAD_WARMUP = 1.0 / 3.0
#: Transactions per window of the windowed p99 (ten beyond each p99).
P99_WINDOW_TXS = 1000
#: Seconds after a window's last due time its transactions are in flight.
IN_FLIGHT_S = 0.5
_LINE_LIMIT = 1 << 20


@dataclass(frozen=True)
class Step:
    name: str
    rate: float  # tx/s
    seconds: float  # at the default 20 s run


@dataclass(frozen=True)
class TcpWorkload:
    steps: tuple[Step, ...]
    #: (pid, seconds into the first step, downtime) of a reboot, if any.
    restart: tuple[int, float, float] | None = None


TCP_WORKLOADS = {
    "tcp-ingress-n4": TcpWorkload(
        (Step("light", 500, 4.0), Step("heavy", 1000, 10.0),
         Step("overload", 4000, 5.0)),
    ),
    "tcp-durable-n4": TcpWorkload(
        (Step("light", 200, 5.0), Step("heavy", 400, 10.0),
         Step("overload", 1500, 5.0)),
        restart=(3, 1.5, 1.0),
    ),
}
#: Step lengths above are for a 20 s run and scale with ``--seconds``.
BASE_SECONDS = 20.0


@dataclass
class Tx:
    txid: str
    line: bytes
    step: int
    due: float = 0.0
    status: str = "unsent"  # accepted / busy / error
    acked: float = 0.0


@dataclass
class Outcome:
    txs: list[Tx]
    windows: list[tuple[float, float]]
    lateness: list[float]
    foreign_acks: int = 0
    duplicate_acks: int = 0
    restart: dict = field(default_factory=dict)


class ClusterChild:
    """The cluster child process and our two gateway connections."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.args = [workload, str(seed), "1" if trace else "0"]
        self.proc: asyncio.subprocess.Process | None = None
        self.replies: asyncio.Queue = asyncio.Queue()
        self.stderr_path = os.path.join(OUT, f"cluster-{workload}-{seed}.log")

    async def start(self) -> float:
        """Spawn and wait until the ack stream is subscribed; the set-up time."""
        os.makedirs(OUT, exist_ok=True)
        spawned = time.monotonic()
        with open(self.stderr_path, "wb") as log:
            self.proc = await asyncio.create_subprocess_exec(
                sys.executable,
                os.path.join(BENCH, "cluster_child.py"),
                *self.args,
                cwd=ROOT,
                env=child_env(),
                stdin=asyncio.subprocess.PIPE,
                stdout=asyncio.subprocess.PIPE,
                stderr=log,
                limit=64 * _LINE_LIMIT,
            )
        ready = await self._read()
        self.setup_factor = ready["setup_factor"]
        host, port = ready["ingress"]
        self.pump = asyncio.get_running_loop().create_task(self._pump())
        self.ack_reader, self.ack_writer = await asyncio.open_connection(
            host, port, limit=_LINE_LIMIT
        )
        self.ack_writer.write(b'{"cmd": "ack", "capacity": 65536}\n')
        await self.ack_writer.drain()
        header = json.loads(await self.ack_reader.readline())
        if not header.get("streaming"):
            raise RuntimeError(f"ack subscription refused: {header}")
        setup = time.monotonic() - spawned - ready["gauge_in_setup"]
        self.reader, self.writer = await asyncio.open_connection(
            host, port, limit=_LINE_LIMIT
        )
        return setup

    async def _read(self) -> dict:
        assert self.proc is not None and self.proc.stdout is not None
        line = await self.proc.stdout.readline()
        if not line:
            await self.proc.wait()
            raise RuntimeError(
                f"cluster child exited {self.proc.returncode}: {self.log_tail()}"
            )
        return json.loads(line)

    async def _pump(self) -> None:
        while True:
            try:
                message = await self._read()
            except RuntimeError as error:
                await self.replies.put({"error": str(error)})
                return
            await self.replies.put(message)
            if message.get("final"):
                return

    def command(self, request: dict) -> None:
        assert self.proc is not None and self.proc.stdin is not None
        self.proc.stdin.write((json.dumps(request) + "\n").encode())

    async def finish(self) -> dict:
        """Close client connections first, then stop the cluster; its report."""
        for writer in (self.writer, self.ack_writer):
            writer.close()
        for writer in (self.writer, self.ack_writer):
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self.command({"cmd": "finish"})
        while True:
            message = await asyncio.wait_for(self.replies.get(), 60.0)
            if "error" in message:
                raise RuntimeError(message["error"])
            if message.get("final"):
                break
        await self.pump
        assert self.proc is not None
        code = await asyncio.wait_for(self.proc.wait(), 30.0)
        if code != 0:
            raise RuntimeError(f"cluster child exited {code}: {self.log_tail()}")
        return message

    async def kill(self) -> None:
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()

    def log_tail(self) -> str:
        try:
            with open(self.stderr_path, encoding="utf-8", errors="replace") as log:
                return log.read()[-2000:]
        except OSError:
            return ""


def make_txs(workload: TcpWorkload, seed: int, scale: float) -> list[Tx]:
    """Every transaction of the run, generated from the seed up front."""
    rng = random.Random(seed)
    txs: list[Tx] = []
    for index, step in enumerate(workload.steps):
        for _ in range(int(step.rate * step.seconds * scale)):
            prefix = f"{seed}:{len(txs)}:".encode()
            data = prefix + rng.randbytes(TX_BYTES - len(prefix))
            line = (json.dumps({"cmd": "submit", "tx": data.hex()}) + "\n").encode()
            txs.append(Tx(txid_of(data), line, index))
    return txs


async def _read_responses(child: ClusterChild, by_txid: dict[str, Tx]) -> None:
    while True:
        line = await child.reader.readline()
        if not line:
            return
        response = json.loads(line)
        tx = by_txid.get(response.get("txid", ""))
        if tx is None:
            continue
        if response.get("accepted"):
            tx.status = "accepted"
        elif response.get("busy"):
            tx.status = "busy"
        else:
            tx.status = "error"


async def _read_acks(
    child: ClusterChild, by_txid: dict[str, Tx], outcome: Outcome
) -> None:
    while True:
        line = await child.ack_reader.readline()
        if not line:
            return
        now = time.monotonic()
        ack = json.loads(line).get("ack")
        if not isinstance(ack, dict):
            continue
        tx = by_txid.get(ack["txid"])
        if tx is None:
            outcome.foreign_acks += 1
        elif tx.acked:
            outcome.duplicate_acks += 1
        else:
            tx.acked = now


async def drive(
    child: ClusterChild, workload: TcpWorkload, seed: int, scale: float
) -> Outcome:
    """Send every step on its open-loop schedule, then drain the acks."""
    txs = make_txs(workload, seed, scale)
    by_txid = {tx.txid: tx for tx in txs}
    outcome = Outcome(txs, [], [])
    loop = asyncio.get_running_loop()
    readers = [
        loop.create_task(_read_responses(child, by_txid)),
        loop.create_task(_read_acks(child, by_txid, outcome)),
    ]
    writer = child.writer
    restart_at = math.inf
    if workload.restart is not None:
        restart_pid, offset, downtime = workload.restart
    cursor = 0
    for index, step in enumerate(workload.steps):
        begin = time.monotonic()
        if index == 0 and workload.restart is not None:
            restart_at = begin + offset * scale
        interval = 1.0 / step.rate
        first = end = cursor
        while end < len(txs) and txs[end].step == index:
            txs[end].due = begin + (end - first) * interval
            end += 1
        while cursor < end:
            now = time.monotonic()
            if now >= restart_at:
                child.command(
                    {"cmd": "restart", "pid": restart_pid, "downtime": downtime}
                )
                restart_at = math.inf
            while cursor < end and txs[cursor].due <= now:
                tx = txs[cursor]
                writer.write(tx.line)
                outcome.lateness.append(now - tx.due)
                cursor += 1
            await writer.drain()
            if cursor < end:
                await asyncio.sleep(max(0.0, txs[cursor].due - time.monotonic()))
        outcome.windows.append((begin, begin + (end - first) * interval))
    judged = [tx for tx in txs if workload.steps[tx.step].name != "overload"]
    deadline = time.monotonic() + DRAIN_S
    while time.monotonic() < deadline:
        if all(tx.acked or tx.status in ("busy", "error") for tx in judged):
            break
        await asyncio.sleep(0.01)
    if workload.restart is not None:
        message = await asyncio.wait_for(child.replies.get(), 60.0)
        if "restarted" not in message:
            raise RuntimeError(f"restart did not report: {message}")
        outcome.restart = message["restarted"]
    await asyncio.sleep(0.05)  # acks already on the wire
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    return outcome


def _latencies_ms(txs: list[Tx]) -> list[float]:
    return [
        (tx.acked - tx.due) * 1000.0
        if tx.acked and tx.status == "accepted"
        else math.inf
        for tx in txs
    ]


def _factor(ticks: list, begin: float, end: float) -> float:
    """Normalizing factor from the cluster's kernel slices in [begin, end)."""
    spans = [spent for at, spent in ticks if begin <= at < end]
    if not spans:
        raise RuntimeError(f"no kernel slice ran in a {end - begin:.3f} s window")
    return REF_SLICE_S / (sum(spans) / len(spans))


def windowed_p99_ms(txs: list[Tx], ticks: list) -> float:
    """A step's p99 latency: the mean of the p99s of its 1000-tx windows.

    The slowest 1% of a step's transactions mostly come from one event, a
    collection or a wave whose leader did not commit, so a step's plain
    p99 is the size of its single worst event: on a 2-vCPU VM it spread
    0.13-0.18 run to run. Windows of :data:`P99_WINDOW_TXS` consecutive
    transactions keep ten samples beyond each p99; each window's p99 is
    scaled by the kernel slices run while its transactions were in flight,
    and the mean over the windows spread 0.05-0.13 in sets of ten runs.
    """
    ordered = sorted(txs, key=lambda tx: tx.due)
    p99s = []
    for start in range(0, len(ordered) - P99_WINDOW_TXS + 1, P99_WINDOW_TXS):
        window = ordered[start:start + P99_WINDOW_TXS]
        factor = _factor(ticks, window[0].due, window[-1].due + IN_FLIGHT_S)
        p99s.append(percentile(_latencies_ms(window), 99) * factor)
    if not p99s:
        raise RuntimeError(f"fewer than {P99_WINDOW_TXS} transactions in a step")
    return sum(p99s) / len(p99s)


def summarize(workload: TcpWorkload, outcome: Outcome, report: dict) -> dict:
    """End-to-end figures of one driven cluster run.

    Latencies are scaled by the machine speed the cluster saw while they
    were measured (the cluster is CPU-bound: its rounds run as fast as it
    can process messages); ``run_s`` is the light and heavy schedule plus
    the acks' tail beyond it, only the tail scaled. Capacity stays raw:
    the slices run during ``overload`` did not track it, and scaled it
    spread more run to run. ``raw_*`` keep the wall-clock figures.
    """
    ticks = report["ticks"]
    steps = [step.name for step in workload.steps]
    per_step = {
        name: [tx for tx in outcome.txs if tx.step == index]
        for index, name in enumerate(steps)
    }
    judged = per_step["light"] + per_step["heavy"]
    failed = sum(1 for tx in judged if not (tx.acked and tx.status == "accepted"))
    begin, end = outcome.windows[steps.index("overload")]
    steady = begin + (end - begin) * OVERLOAD_WARMUP
    acked_in_window = sum(1 for tx in outcome.txs if steady <= tx.acked < end)
    capacity = acked_in_window / (end - steady)
    schedule_end = outcome.windows[steps.index("heavy")][1]
    last_ack = max([tx.acked for tx in judged] + [schedule_end])
    # The tail's factor reaches back half a second so it always spans slices.
    tail = last_ack - schedule_end
    tail_factor = _factor(ticks, schedule_end - 0.5, last_ack)
    figures = {
        "run_s": schedule_end - outcome.windows[0][0] + tail * tail_factor,
        "raw_run_s": last_ack - outcome.windows[0][0],
        "tx_capacity_per_s": capacity,
        "attempted": len(judged),
        "failed": failed,
        "lateness_p99_ms": percentile(outcome.lateness, 99) * 1000.0,
    }
    for name in ("light", "heavy"):
        factor = _factor(ticks, *outcome.windows[steps.index(name)])
        latencies = _latencies_ms(per_step[name])
        raw = percentile(latencies, 50)
        figures[f"raw_{name}_p50_ms"] = raw
        figures[f"{name}_p50_ms"] = raw * factor
        figures[f"raw_{name}_p99_ms"] = percentile(latencies, 99)
        figures[f"{name}_samples"] = len(latencies)
        figures[f"{name}_slice_ms"] = REF_SLICE_S / factor * 1000.0
    # light holds about one window's transactions; its p99 stays plain.
    figures["light_p99_ms"] = figures["raw_light_p99_ms"]
    figures["heavy_p99_ms"] = windowed_p99_ms(per_step["heavy"], ticks)
    return figures


def waterfall(outcome: Outcome, report: dict, steps: list[str]) -> dict:
    """Per-transaction stage waits (light and heavy) joined on txid/sequence.

    ``admit`` (due time to the gateway's admission, ``submitted_at``)
    precedes the four stages the cluster stamps, so the five add up to the
    transaction's latency.
    """
    sent = {
        tx.txid: tx for tx in outcome.txs
        if tx.acked and steps[tx.step] != "overload"
    }
    stages: dict[str, list[float]] = {
        "admit": [], "batch": [], "proposal": [], "commit": [], "ack": []
    }
    for block in report["blocks"].values():
        if not {"taken", "r_bcast", "delivered", "txids"} <= block.keys():
            continue
        for txid, submitted in zip(block["txids"], block["submitted"]):
            tx = sent.get(txid)
            if tx is None:
                continue
            stages["admit"].append(max(0.0, submitted - tx.due))
            stages["batch"].append(block["taken"] - submitted)
            stages["proposal"].append(max(0.0, block["r_bcast"] - block["taken"]))
            stages["commit"].append(block["delivered"] - block["r_bcast"])
            stages["ack"].append(tx.acked - block["delivered"])
    out = {}
    for stage, values in stages.items():
        for q in (50, 99):
            out[f"wait.{stage}_ms.p{q}"] = (
                percentile(values, q) * 1000.0 if values else 0.0
            )
    return out


async def one_run(
    workload_name: str, seed: int, scale: float, trace: bool, boots: int
) -> tuple[list[float], dict, Outcome, dict]:
    """``boots`` set-ups (median taken by the caller); drive the last one."""
    workload = TCP_WORKLOADS[workload_name]
    setups = []
    for boot in range(boots):
        child = ClusterChild(workload_name, seed, trace)
        try:
            raw_setup = await child.start()
            setups.append((raw_setup * child.setup_factor, raw_setup))
            if boot < boots - 1:
                await child.finish()
                continue
            outcome = await drive(child, workload, seed, scale)
            report = await child.finish()
        except BaseException:
            await child.kill()
            raise
    return setups, summarize(workload, outcome, report), outcome, report


def run_tcp(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Metrics and checks of one benchmark invocation on a TCP workload."""
    workload = TCP_WORKLOADS[workload_name]
    scale = seconds / BASE_SECONDS
    steps = [step.name for step in workload.steps]
    setups, figures, outcome, report = asyncio.run(
        one_run(workload_name, seed, scale, False, 1 if trace else BOOTS)
    )
    problems = check(workload, figures, outcome, report)
    result = {
        "attempted": figures["attempted"],
        "failed": figures["failed"],
        "problems": problems,
        "setup_s": median([normalized for normalized, _ in setups]),
        "run_s": figures["run_s"],
        "peak_rss_mb": report["peak_rss_mb"],
        "tx_p50_ms": figures["heavy_p50_ms"],
        "tx_p99_ms": figures["heavy_p99_ms"],
        "tx_capacity_per_s": figures["tx_capacity_per_s"],
        "notes": {
            "setups_s": setups,
            "raw": {key: value for key, value in figures.items() if "raw" in key},
            "slice_ms": [figures["light_slice_ms"], figures["heavy_slice_ms"]],
            "lateness_p99_ms": figures["lateness_p99_ms"],
            "samples": {s: figures.get(f"{s}_samples") for s in ("light", "heavy")},
            "decided_waves": report["decided_waves"],
            "rounds": report["rounds"],
            "cpu_s": report["cpu_s"],
            "recovery": outcome.restart,
        },
    }
    if not trace:
        return result
    _, traced, traced_outcome, traced_report = asyncio.run(
        one_run(workload_name, seed, scale, True, 1)
    )
    problems += check(workload, traced, traced_outcome, traced_report)
    layers = dict(traced_report["layers"])
    links = traced_report["links"]
    fills = [
        fill for at, fill in traced_report["batch_fills"]
        if _in_steady_overload(at, traced_outcome, steps)
    ]
    acked = sum(1 for tx in traced_outcome.txs if tx.acked)
    layers.update(
        {
            "link.frames": links["frames_sent"],
            "link.retries": links["retries"],
            "link.redeliveries": links["redeliveries"],
            "link.queue_depth_max": links["queue_depth_max"],
            "link.bytes_per_tx": layers["codec.bytes"] / acked if acked else 0.0,
            "mempool.batch_fill": sum(fills) / len(fills) if fills else 0.0,
            "tx_p50_ms.light": figures["light_p50_ms"],
            "tx_p99_ms.light": figures["light_p99_ms"],
            "tx_failed_ratio": figures["failed"] / figures["attempted"],
            "recovery_s": outcome.restart.get("recovery_s", 0.0),
            "gen.lateness_p99_ms": figures["lateness_p99_ms"],
            "trace.overhead_run_s": traced["run_s"] / figures["run_s"],
            "trace.overhead_tx_p50": traced["heavy_p50_ms"] / figures["heavy_p50_ms"],
        }
    )
    layers.update(waterfall(traced_outcome, traced_report, steps))
    result["layers"] = layers
    result["problems"] = problems
    return result


def _in_steady_overload(at: float, outcome: Outcome, steps: list[str]) -> bool:
    begin, end = outcome.windows[steps.index("overload")]
    return begin + (end - begin) * OVERLOAD_WARMUP <= at < end


def check(workload: TcpWorkload, figures: dict, outcome: Outcome, report: dict) -> list[str]:
    """Output checks beyond the child's own total-order check."""
    problems = []
    if outcome.foreign_acks:
        problems.append(f"{outcome.foreign_acks} acks for txids this run never sent")
    if outcome.duplicate_acks:
        problems.append(f"{outcome.duplicate_acks} txids acked twice")
    if figures["lateness_p99_ms"] > LATENESS_LIMIT_S * 1000.0:
        problems.append(
            f"generator fell behind: p99 lateness {figures['lateness_p99_ms']:.1f} ms"
        )
    if report["order_error"] is not None:
        problems.append(f"total order violated: {report['order_error']}")
    elif report["agreed_prefix"] <= 0:
        problems.append("nodes agreed on no delivered entry")
    if workload.restart is not None and not outcome.restart.get("recovered"):
        problems.append(f"restarted node did not recover: {outcome.restart}")
    for name in ("light", "heavy"):
        for q in ("p50", "p99"):
            if math.isinf(figures[f"{name}_{q}_ms"]):
                problems.append(f"{name} {q}: too many transactions failed")
    return problems
