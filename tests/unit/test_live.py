"""The fabric driver's live view against fake threaded control servers.

Each :class:`FakeNode` stands in for one runner's control socket: it
answers a ``subscribe`` with a fixed header line and then writes whatever
lines the test feeds it, so the tests control exactly which delta arrives
when. Closing it is a node dying; a new one on the same port is the
restarted incarnation.
"""

from __future__ import annotations

import io
import queue
import socket
import sys
import threading
import time

import pytest

from repro.common.config import SystemConfig
from repro.obs import Event, load_trace
from repro.obs.stream import delta_line, event_line, header_line
from repro.runtime.live import LiveView
from repro.runtime.peers import allocate_port_block, make_peer_table

N = 4


class FakeNode:
    """One threaded control socket serving a single ``subscribe`` stream."""

    def __init__(self, port: int, header: str) -> None:
        self._server = socket.create_server(("127.0.0.1", port))
        self._header = header
        self._lines: queue.Queue[str | None] = queue.Queue()
        self.request: str | None = None
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        conn, _ = self._server.accept()
        with conn, conn.makefile("r", encoding="utf-8") as stream:
            self.request = stream.readline()
            conn.sendall((self._header + "\n").encode())
            while (line := self._lines.get()) is not None:
                conn.sendall((line + "\n").encode())

    def send(self, line: str) -> None:
        self._lines.put(line)

    def close(self) -> None:
        """End the stream (EOF at the reader) and stop listening."""
        self._lines.put(None)
        self._thread.join(timeout=5.0)
        self._server.close()


def delta(seq: int, wave: int, **status: object) -> str:
    return delta_line(seq, float(seq), status={"decided_wave": wave, "ordered": wave, **status})


@pytest.fixture
def cluster(tmp_path):
    """A live view over fake nodes; a pid nobody booted never answers."""
    ports = allocate_port_block(2 * N)
    table = make_peer_table(
        {pid: ("127.0.0.1", ports[2 * pid]) for pid in range(N)},
        SystemConfig(n=N, seed=0),
        control_ports={pid: ports[2 * pid + 1] for pid in range(N)},
    )
    header = header_line({"pid": 0, "interval": 0.1})
    live = LiveView(
        table,
        {"cmd": "subscribe", "interval": 0.1},
        out_dir=tmp_path,
        sink=io.StringIO(),
        interval=0.1,
    )
    nodes: list[FakeNode] = []

    def boot(node_header: str = header, pid: int = 0) -> FakeNode:
        node = FakeNode(table.entry(pid).control_port, node_header)
        nodes.append(node)
        return node

    try:
        yield live, boot, header
    finally:
        for node in nodes:
            node.close()
        live.stop()


def wave_at_least(wave: int, seen: list[int] | None = None):
    def predicate(nodes) -> bool:
        if seen is not None:
            seen.append(nodes[0].decided_wave)
        return nodes[0].decided_wave >= wave

    return predicate


class TestWaitUntil:
    def test_returns_on_the_delta_that_meets_the_target(self, cluster):
        live, boot, _header = cluster
        node = boot()
        live.start()
        seen: list[int] = []
        for seq, wave in enumerate((1, 2, 3), start=1):
            node.send(delta(seq, wave))
        assert live.wait_until(wave_at_least(3, seen), time.monotonic() + 10.0)
        assert seen[-1] == 3 and all(wave < 3 for wave in seen[:-1])
        assert live.snapshot()[0]["decided_wave"] == 3

    def test_returns_false_at_the_deadline(self, cluster):
        live, boot, _header = cluster
        node = boot()
        live.start()
        node.send(delta(1, 1))
        start = time.monotonic()
        assert not live.wait_until(wave_at_least(99), start + 0.3)
        assert 0.3 <= time.monotonic() - start < 5.0

    def test_stop_releases_a_waiter(self, cluster):
        live, boot, _header = cluster
        node = boot()
        live.start()
        result: list[bool] = []
        waiter = threading.Thread(
            target=lambda: result.append(
                live.wait_until(wave_at_least(99), time.monotonic() + 60.0)
            )
        )
        waiter.start()
        node.close()
        live.stop()
        waiter.join(timeout=10.0)
        assert result == [False]


    def test_concurrent_streams_lose_no_delta(self, cluster):
        live, boot, _header = cluster
        ticks = 300
        nodes = [boot(header_line({"pid": pid}), pid=pid) for pid in range(N)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            live.start()
            for node in nodes:
                for seq in range(1, ticks + 1):
                    node.send(event_line(Event(float(seq), 0, "commit")))
                    node.send(delta(seq, seq))
            reached = live.wait_until(
                lambda views: all(v.decided_wave == ticks for v in views.values()),
                time.monotonic() + 30.0,
            )
        finally:
            sys.setswitchinterval(previous)
        assert reached, live.snapshot()
        assert all(row["events"] == ticks for row in live.snapshot().values())


class TestFollow:
    def test_restart_appends_to_one_tee(self, cluster, tmp_path):
        live, boot, header = cluster
        first = boot()
        live.start()
        first.send(event_line(Event(0.5, 0, "commit")))
        first.send(delta(1, 1))
        assert live.wait_until(wave_at_least(1), time.monotonic() + 10.0)
        first.close()  # the node dies; its stream ends

        second = boot()  # same port, same deterministic header
        live.follow(0)
        second.send(event_line(Event(0.2, 0, "a_deliver")))
        second.send(delta(1, 5, recovered=True))
        assert live.wait_until(wave_at_least(5), time.monotonic() + 10.0)
        assert second.request is not None and '"subscribe"' in second.request
        second.close()
        live.stop()

        text = (tmp_path / "node-0.stream.jsonl").read_text(encoding="utf-8")
        assert text.count('"schema"') == 1 and text.startswith(header)
        tee = load_trace(str(tmp_path / "node-0.stream.jsonl"))
        assert [event.kind for event in tee.events] == ["commit", "a_deliver"]
        assert [d["status"]["decided_wave"] for d in tee.deltas] == [1, 5]
        assert tee.deltas[-1]["status"]["recovered"] is True

    def test_a_different_header_is_refused(self, cluster, tmp_path):
        live, boot, header = cluster
        first = boot()
        live.start()
        first.send(delta(1, 1))
        assert live.wait_until(wave_at_least(1), time.monotonic() + 10.0)
        first.close()

        boot(header_line({"pid": 0, "interval": 9.0}))
        live.follow(0)
        deadline = time.monotonic() + 10.0
        while live.snapshot()[0]["state"] != "lost" and time.monotonic() < deadline:
            time.sleep(0.02)
        assert live.snapshot()[0]["state"] == "lost"
        tee = load_trace(str(tmp_path / "node-0.stream.jsonl"))
        assert tee.meta["interval"] == 0.1 and len(tee.deltas) == 1
