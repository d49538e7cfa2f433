"""Live cluster progress view for the fabric driver.

One reader thread per node holds a control-socket connection in
``subscribe`` streaming mode (see :class:`repro.runtime.runner.ControlServer`)
and folds the incoming ``repro.obs.stream`` lines (decoded by
:func:`repro.obs.stream.decode_line`) into a shared per-node
table: commit frontier (decided wave), current round, ordered entries,
transport queue depth, events seen, ring drops. A render thread repaints
that table once per tick — in-place with ANSI cursor movement on a TTY,
as plain periodic ``live:`` lines otherwise (CI logs stay greppable).

The view doubles as the driver-side stall detector: every tick it feeds
each node's decided wave into :class:`repro.obs.stream.StallDetector`,
and when the quorum commit frontier goes flat for the configured window
it fires the ``on_stall`` callback (the fabric driver uses it to pull
``flight`` dumps from every node).

Raw stream lines are teed verbatim to ``<out_dir>/node-<pid>.stream.jsonl``
so a run leaves replayable per-node recordings next to its traces
(:func:`repro.obs.stream.load_trace` reads them).

Everything here is driver-side tooling on real wall clocks
(``time.monotonic``), matching the rest of :mod:`repro.runtime.fabric`;
nothing in this module runs inside a node.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence, TextIO

from repro.obs.stream import StallDetector, StreamFormatError, decode_line
from repro.runtime.peers import PeerTable

#: Seconds between connect retries while a node is still booting.
CONNECT_RETRY = 0.25

#: Default seconds of flat quorum commit frontier before a stall fires.
DEFAULT_STALL_WINDOW = 30.0

#: Seconds :meth:`LiveView.stop` waits for the streams' final ticks and EOF.
DRAIN_TIMEOUT = 5.0


class NodeView:
    """What the live table knows about one node (reader-thread owned)."""

    __slots__ = (
        "pid", "state", "decided_wave", "current_round", "ordered",
        "queue_depth", "events", "dropped", "updated",
    )

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.state = "connecting"
        self.decided_wave = -1
        self.current_round = -1
        self.ordered = 0
        self.queue_depth = 0
        self.events = 0
        self.dropped = 0
        self.updated = 0.0

    def row(self) -> str:
        """One rendered table row for this node."""
        drops = f" drops {self.dropped}" if self.dropped else ""
        return (
            f"node {self.pid}: wave {self.decided_wave:>3} "
            f"round {self.current_round:>4} ordered {self.ordered:>4} "
            f"queue {self.queue_depth:>3} events {self.events:>5}"
            f"{drops} [{self.state}]"
        )


class LiveView:
    """Threaded subscribe-stream aggregator + renderer for one cluster.

    ``subscribe_request`` is the base control request each reader sends on
    connect (the fabric driver builds it, keeping the ``{"cmd": ...}``
    literal on the issuing side of the control-protocol contract). The
    view adds nothing to it.
    """

    def __init__(
        self,
        table: PeerTable,
        subscribe_request: Mapping[str, Any],
        out_dir: Path | None = None,
        sink: TextIO | None = None,
        interval: float = 1.0,
        stall_window: float = DEFAULT_STALL_WINDOW,
        on_stall: Callable[[float, int], None] | None = None,
        force_plain: bool = False,
    ) -> None:
        self.table = table
        self.request = dict(subscribe_request)
        self.out_dir = out_dir
        self.sink: TextIO = sink if sink is not None else sys.stdout
        self.interval = max(0.1, interval)
        self.on_stall = on_stall
        self.detector = StallDetector(table.n, window=stall_window)
        self.stalls = 0
        self._tty = (not force_plain) and _is_tty(self.sink)
        self._nodes = {e.pid: NodeView(e.pid) for e in table.peers}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._sockets: dict[int, socket.socket] = {}
        self._threads: list[threading.Thread] = []
        self._drawn_lines = 0
        self._banner = ""

    # ---------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Spawn one reader thread per node plus the render thread."""
        for entry in self.table.peers:
            thread = threading.Thread(
                target=self._read_node,
                args=(entry.pid, entry.control_address),
                name=f"live-read-{entry.pid}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()
        render = threading.Thread(target=self._render_loop, name="live-render",
                                  daemon=True)
        self._threads.append(render)
        render.start()

    def stop(self) -> None:
        """Tear down readers and renderer; paints one final table.

        Call it after the nodes were told to stop: each stream then ends
        with a final delta and EOF, which the readers get up to
        :data:`DRAIN_TIMEOUT` seconds to reach before the sockets are
        shut under them.
        """
        if self._stop.is_set():
            return
        self._stop.set()
        deadline = time.monotonic() + DRAIN_TIMEOUT
        for thread in self._threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        with self._lock:
            for sock in self._sockets.values():
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass
            self._sockets.clear()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._render(final=True)

    def __enter__(self) -> "LiveView":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ------------------------------------------------------------- output

    def note(self, message: str) -> None:
        """Print a progress line that survives the in-place repaint.

        On a TTY the table block is erased first so the note scrolls
        above it; in plain mode this is just a print. The fabric driver
        routes its boot / scenario-step announcements through here while
        the view is live.
        """
        with self._lock:
            self._erase_locked()
            print(message, file=self.sink, flush=True)

    def _erase_locked(self) -> None:
        if self._tty and self._drawn_lines:
            # Cursor up over the previous block, clearing each line.
            self.sink.write(f"\x1b[{self._drawn_lines}F\x1b[J")
            self.sink.flush()
            self._drawn_lines = 0

    def _render(self, final: bool = False) -> None:
        with self._lock:
            rows = [self._nodes[pid].row() for pid in sorted(self._nodes)]
            banner = self._banner
        stalled = self.detector.stalled_for(time.monotonic())
        head = f"live: quorum wave {self.detector.quorum_frontier()}"
        if stalled >= self.detector.window / 2 and not final:
            head += f" (flat {stalled:.0f}s)"
        if banner:
            head += f" — {banner}"
        if self._tty:
            with self._lock:
                self._erase_locked()
                lines = [head] + ["  " + row for row in rows]
                self.sink.write("\n".join(lines) + "\n")
                self.sink.flush()
                self._drawn_lines = len(lines)
        else:
            print(head, file=self.sink, flush=True)
            for row in rows:
                print("live: " + row, file=self.sink, flush=True)

    def set_banner(self, text: str) -> None:
        """Short phase label shown in the table header line."""
        with self._lock:
            self._banner = text

    # ------------------------------------------------------------ readers

    def _read_node(self, pid: int, address: tuple[str, int]) -> None:
        """One node's reader: connect, subscribe, fold lines until EOF."""
        tee = None
        if self.out_dir is not None:
            tee = open(
                self.out_dir / f"node-{pid}.stream.jsonl", "w", encoding="utf-8"
            )
        try:
            sock = self._connect(pid, address)
            if sock is None:
                return
            view = self._nodes[pid]
            with sock, sock.makefile("r", encoding="utf-8") as stream:
                sock.sendall((json.dumps(self.request) + "\n").encode())
                for text in stream:
                    if tee is not None:
                        tee.write(text)
                        tee.flush()
                    self._fold_line(view, text)
            with self._lock:
                view.state = "stopped"
        except (OSError, ValueError):
            with self._lock:
                self._nodes[pid].state = "lost"
        finally:
            if tee is not None:
                tee.close()
            with self._lock:
                self._sockets.pop(pid, None)

    def _connect(self, pid: int, address: tuple[str, int]) -> socket.socket | None:
        """Dial the control socket, retrying while the node boots."""
        while not self._stop.is_set():
            try:
                sock = socket.create_connection(address, timeout=10.0)
            except OSError:
                time.sleep(CONNECT_RETRY)
                continue
            sock.settimeout(None)
            with self._lock:
                if self._stop.is_set():
                    sock.close()
                    return None
                self._sockets[pid] = sock
                self._nodes[pid].state = "live"
            return sock
        return None

    def _fold_line(self, view: NodeView, text: str) -> None:
        try:
            kind, body = decode_line(text)
        except StreamFormatError:
            return
        with self._lock:
            if kind == "event":
                view.events += 1
                return
            if kind != "delta":
                return
            status = body.get("status")
            if isinstance(status, dict):
                view.decided_wave = int(status.get("decided_wave", -1))
                view.current_round = int(status.get("current_round", -1))
                view.ordered = int(status.get("ordered", 0))
                view.queue_depth = int(status.get("queue_depth", 0))
            view.dropped = int(body.get("dropped", 0) or 0)
            view.updated = time.monotonic()

    # ----------------------------------------------------------- renderer

    def _render_loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._render()
            self._check_stall()

    def _check_stall(self) -> None:
        now = time.monotonic()
        with self._lock:
            frontiers = [
                (view.pid, view.decided_wave)
                for view in self._nodes.values()
                if view.decided_wave >= 0
            ]
        for pid, wave in frontiers:
            self.detector.observe(pid, wave, now)
        if self.detector.check(now):
            self.stalls += 1
            stalled = self.detector.window
            frontier = self.detector.quorum_frontier()
            self.note(
                f"live: STALL: quorum commit frontier flat at wave {frontier} "
                f"for {self.detector.window:.0f}s"
            )
            if self.on_stall is not None:
                try:
                    self.on_stall(stalled, frontier)
                except (OSError, ValueError) as error:
                    self.note(f"live: stall diagnostics failed: {error}")

    # ------------------------------------------------------------- access

    def snapshot(self) -> dict[int, dict[str, object]]:
        """Current per-node table as plain dicts (tests and diagnostics)."""
        with self._lock:
            return {
                view.pid: {
                    "state": view.state,
                    "decided_wave": view.decided_wave,
                    "current_round": view.current_round,
                    "ordered": view.ordered,
                    "queue_depth": view.queue_depth,
                    "events": view.events,
                    "dropped": view.dropped,
                }
                for view in self._nodes.values()
            }


def _is_tty(sink: TextIO) -> bool:
    try:
        return bool(sink.isatty())
    except (AttributeError, ValueError):
        return False


__all__: Sequence[str] = [
    "DEFAULT_STALL_WINDOW",
    "LiveView",
    "NodeView",
]
