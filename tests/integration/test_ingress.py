"""Client ingress end to end: gateway, backpressure, acks, crash safety.

Two layers:

* in-loop — a ``LocalCluster`` with ingress ports serves the newline-JSON
  client protocol: submits admit and ack, duplicates are idempotent, an
  over-budget burst gets explicit ``busy`` rejections, and delivery acks
  stream with end-to-end latencies once the containing wave commits;
* real processes — a ``tcp-node`` runner is SIGKILLed mid-run and
  restarted from its ``--state-dir``; transactions re-submitted to the
  recovered node are proposed under *fresh* block sequences and acked
  exactly once — batches flushed by the dead incarnation can never ack,
  because the mempool's in-flight map died with the process.
"""

import asyncio
import json
import logging
import time

from repro.common.config import SystemConfig
from repro.mempool.admission import AdmissionConfig
from repro.obs.context import Observability
from repro.runtime.cluster import LocalCluster
from repro.runtime.fabric import (
    spawn_runner,
    spawn_runners,
    stop_all,
    reap,
    wait_ready,
)
from repro.runtime.peers import allocate_port_block, make_peer_table

#: Fast triggers so a test's handful of txs flushes immediately.
FAST_INGRESS = AdmissionConfig(
    max_pending_txs=8, batch_txs=4, batch_deadline=0.02, max_tx_bytes=256
)


async def request(host, port, payload, reader=None, writer=None):
    """One newline-JSON round trip; returns (response, reader, writer)."""
    if reader is None:
        reader, writer = await asyncio.open_connection(host, port, limit=1 << 20)
    writer.write((json.dumps(payload) + "\n").encode())
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), timeout=10.0)
    return json.loads(line), reader, writer


async def open_ack_stream(host, port):
    reader, writer = await asyncio.open_connection(host, port, limit=1 << 20)
    writer.write((json.dumps({"cmd": "ack"}) + "\n").encode())
    await writer.drain()
    header = json.loads(await asyncio.wait_for(reader.readline(), timeout=10.0))
    assert header["streaming"] is True
    return reader, writer


async def read_acks(reader, want_txids, timeout=45.0):
    """Collect ack lines until every txid in ``want_txids`` appeared."""
    acks = []
    deadline = time.monotonic() + timeout
    seen = set()
    while not want_txids <= seen:
        remaining = deadline - time.monotonic()
        assert remaining > 0, f"acks missing for {want_txids - seen}"
        line = await asyncio.wait_for(reader.readline(), timeout=remaining)
        assert line, "ack stream closed early"
        message = json.loads(line)
        ack = message.get("ack")
        if ack is None:
            continue
        acks.append(ack)
        seen.add(ack["txid"])
    return acks


class TestGatewayInLoop:
    def test_submit_ack_backpressure_cycle(self, free_peers, free_port):
        peers = free_peers(4)
        ingress_ports = {pid: free_port() for pid in range(4)}
        obs = Observability()
        cluster = LocalCluster(
            SystemConfig(n=4, seed=5),
            peers=peers,
            ingress_ports=ingress_ports,
            ingress=FAST_INGRESS,
            observability=obs,
        )
        host, port = "127.0.0.1", ingress_ports[0]

        async def scenario():
            await cluster.start()
            try:
                ack_reader, ack_writer = await open_ack_stream(host, port)

                # Plain submits: content-addressed ids, batch, commit, ack.
                txs = [f"ingress-{i}".encode() for i in range(3)]
                txids = set()
                reader = writer = None
                for tx in txs:
                    response, reader, writer = await request(
                        host, port, {"cmd": "submit", "tx": tx.hex()},
                        reader, writer,
                    )
                    assert response["ok"] and response["accepted"]
                    assert "reason" not in response
                    txids.add(response["txid"])

                # Idempotent retry: same bytes, same txid, no second copy.
                response, reader, writer = await request(
                    host, port, {"cmd": "submit", "tx": txs[0].hex()},
                    reader, writer,
                )
                assert response["accepted"]
                assert response["reason"] == "duplicate"
                assert response["txid"] in txids

                acks = await read_acks(ack_reader, txids)
                by_txid = {}
                for ack in acks:
                    by_txid.setdefault(ack["txid"], []).append(ack)
                assert set(by_txid) >= txids
                for txid in txids:
                    assert len(by_txid[txid]) == 1  # one ack per tx
                    assert by_txid[txid][0]["e2e"] >= 0.0

                # Batch submit.
                batch = [f"batch-{i}".encode().hex() for i in range(2)]
                response, reader, writer = await request(
                    host, port, {"cmd": "submit_batch", "txs": batch},
                    reader, writer,
                )
                assert response["accepted"] == 2 and not response["busy"]

                # Over budget in one synchronous burst: the tail must come
                # back busy-txs — explicit backpressure, never a drop.
                flood = [f"flood-{i}".encode().hex() for i in range(32)]
                response, reader, writer = await request(
                    host, port, {"cmd": "submit_batch", "txs": flood},
                    reader, writer,
                )
                assert response["busy"]
                busy = [r for r in response["results"] if r.get("busy")]
                assert busy and all(r["reason"] == "busy-txs" for r in busy)

                # Oversize is a permanent rejection, not backpressure.
                response, reader, writer = await request(
                    host, port, {"cmd": "submit", "tx": (b"x" * 300).hex()},
                    reader, writer,
                )
                assert not response["accepted"]
                assert response["reason"] == "oversize"
                assert response["busy"] is False

                status = cluster.runners[0].status()["ingress"]
                assert status["delivered"] >= 3
                writer.close()
                ack_writer.close()
            finally:
                await cluster.stop()

        asyncio.run(scenario())
        kinds = {event.kind for event in obs.bus.events}
        assert {"tx_submitted", "tx_rejected", "tx_delivered"} <= kinds
        snapshot = obs.snapshot()
        assert snapshot["counters"]["ingress.delivered"] >= 3
        assert snapshot["histograms"]["ingress.e2e_latency"]["count"] >= 3


class TestAckClientHangup:
    def test_stream_stops_when_the_client_hangs_up(self, free_peers, free_port, caplog):
        """Acks stop once the client's side reaches EOF.

        Blocks of 16 transactions commit after the hang-up: had the stream
        kept writing, each block's acks would go into a dead connection and
        asyncio would log "socket.send() raised exception.".
        """
        ingress = AdmissionConfig(
            max_pending_txs=64, batch_txs=16, batch_deadline=0.02, max_tx_bytes=256
        )
        ingress_ports = {pid: free_port() for pid in range(4)}
        cluster = LocalCluster(
            SystemConfig(n=4, seed=5),
            peers=free_peers(4),
            ingress_ports=ingress_ports,
            ingress=ingress,
        )
        host, port = "127.0.0.1", ingress_ports[0]

        async def submit_block(tag, reader=None, writer=None):
            txs = [f"{tag}-{i}".encode().hex() for i in range(16)]
            response, reader, writer = await request(
                host, port, {"cmd": "submit_batch", "txs": txs}, reader, writer
            )
            assert response["accepted"] == 16, response
            return {r["txid"] for r in response["results"]}, reader, writer

        async def eventually(predicate, timeout=45.0):
            deadline = time.monotonic() + timeout
            while not predicate():
                assert time.monotonic() < deadline
                await asyncio.sleep(0.05)

        async def scenario():
            await cluster.start()
            try:
                gateway = cluster.runners[0].gateway
                ack_reader, ack_writer = await open_ack_stream(host, port)
                txids, reader, writer = await submit_block("before")
                await read_acks(ack_reader, txids)
                assert len(gateway._ack_streams) == 1

                ack_writer.close()
                await ack_writer.wait_closed()
                for tag in ("after-a", "after-b", "after-c"):
                    _txids, reader, writer = await submit_block(tag, reader, writer)
                mempool = cluster.runners[0].mempool
                await eventually(lambda: mempool.status()["delivered"] >= 64)
                await eventually(lambda: not gateway._ack_streams)
                writer.close()
            finally:
                await cluster.stop()

        with caplog.at_level(logging.WARNING, logger="asyncio"):
            asyncio.run(scenario())
        assert "socket.send() raised exception" not in caplog.text


class TestCrashRecoveryIngress:
    def test_fresh_sequences_and_no_duplicate_acks(self, tmp_path):
        ports = allocate_port_block(12)
        table = make_peer_table(
            {pid: ("127.0.0.1", ports[3 * pid]) for pid in range(4)},
            SystemConfig(n=4, seed=7),
            control_ports={pid: ports[3 * pid + 1] for pid in range(4)},
            ingress_ports={pid: ports[3 * pid + 2] for pid in range(4)},
            gc_depth=6,
            ingress=FAST_INGRESS,
        )
        peers_path = tmp_path / "peers.json"
        peers_path.write_text(table.dumps(), encoding="utf-8")
        state_dirs = {pid: tmp_path / f"state-{pid}" for pid in range(4)}
        host, port = "127.0.0.1", table.entry(1).ingress_address[1]

        async def drive(payloads):
            """Submit ``payloads`` to node 1 and await one ack for each."""
            ack_reader, ack_writer = await open_ack_stream(host, port)
            reader = writer = None
            txids = set()
            for payload in payloads:
                response, reader, writer = await request(
                    host, port, {"cmd": "submit", "tx": payload.hex()},
                    reader, writer,
                )
                assert response["accepted"], response
                txids.add(response["txid"])
            acks = await read_acks(ack_reader, txids)
            writer.close()
            ack_writer.close()
            return acks

        processes = spawn_runners(
            table, peers_path, tmp_path, run_seconds=300.0,
            state_dirs=state_dirs,
        )
        try:
            assert wait_ready(table, time.monotonic() + 60.0) is not None
            payloads = [f"crash-tx-{i}".encode() for i in range(6)]
            first_acks = asyncio.run(drive(payloads))
            max_sequence = max(ack["sequence"] for ack in first_acks)

            # SIGKILL node 1 and restart it from its journal.
            processes[1].kill()
            processes[1].wait()
            processes[1] = spawn_runner(
                1, peers_path, tmp_path, run_seconds=300.0,
                state_dir=state_dirs[1], log_mode="a",
            )
            assert wait_ready(table, time.monotonic() + 90.0, pids=[1]) is not None

            # Re-submit the same bytes: the dead incarnation's tracking is
            # gone, so these are fresh admissions — proposed under fresh
            # sequences (restore_sequence never rewinds) and acked once.
            second_acks = asyncio.run(drive(payloads))
        finally:
            stop_all(table)
            reap(processes)

        assert {ack["txid"] for ack in second_acks} == {
            ack["txid"] for ack in first_acks
        }
        counts = {}
        for ack in second_acks:
            counts[ack["txid"]] = counts.get(ack["txid"], 0) + 1
        assert all(count == 1 for count in counts.values()), counts
        assert min(ack["sequence"] for ack in second_acks) > max_sequence
