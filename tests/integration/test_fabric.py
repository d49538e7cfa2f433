"""Multi-process cluster smoke: ``scripts/fabric.py`` end to end.

Unlike the in-loop ``LocalCluster`` tests, every node here is a separate OS
process booted from the same on-disk peer table — the deployment shape the
multi-host runner targets. The fabric driver allocates ports, spawns the
runners, polls their control sockets, runs the digest-based total-order
check across process boundaries, and merges the per-host traces. The live
telemetry plane rides along: per-node ``subscribe`` streams feed the plain
(non-TTY) progress view and are teed to ``node-<pid>.stream.jsonl``, the
merged trace feeds ``python -m repro.obs causal``, and a partitioned
quorum trips the stall detector into flight-recorder dumps. Traces, tees
and flight dumps are all read by the one ``load_trace`` decoder.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import load_trace
from repro.runtime.peers import load_peer_table

REPO = Path(__file__).resolve().parents[2]
FABRIC = REPO / "scripts" / "fabric.py"

ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}


@pytest.fixture(scope="module")
def fabric_run(tmp_path_factory):
    """One 4-node fabric run shared by the assertions below (spawning four
    OS processes per test would dominate suite runtime)."""
    out_dir = tmp_path_factory.mktemp("fabric")
    result = subprocess.run(
        [
            sys.executable,
            str(FABRIC),
            "--hosts",
            "localhost",
            "--n",
            "4",
            "--waves",
            "3",
            "--live-interval",
            "0.2",
            "--timeout",
            "90",
            "--out-dir",
            str(out_dir),
        ],
        capture_output=True,
        text=True,
        timeout=150,
        cwd=str(REPO),
        env=ENV,
    )
    return out_dir, result


class TestFabricSmoke:
    def test_four_processes_reach_total_order(self, fabric_run):
        out_dir, result = fabric_run
        assert result.returncode == 0, result.stdout + result.stderr
        assert "digest-based total order OK across 4 nodes" in result.stdout
        # Four separate runner processes each logged their own boot line.
        logs = sorted(out_dir.glob("node-*.log"))
        assert len(logs) == 4
        for pid, log in enumerate(logs):
            assert f"node {pid}/4 up" in log.read_text(encoding="utf-8")

    def test_every_node_committed_three_waves(self, fabric_run):
        out_dir, result = fabric_run
        assert result.returncode == 0, result.stdout + result.stderr
        status = json.loads((out_dir / "status.json").read_text(encoding="utf-8"))
        assert len(status) == 4
        for node in status.values():
            assert node["decided_wave"] >= 3
            assert node["ordered"] > 0

    def test_peer_table_on_disk_parses(self, fabric_run):
        out_dir, _result = fabric_run
        table = load_peer_table(str(out_dir / "peers.json"))
        assert table.n == 4
        assert len(table.addresses()) == 4
        assert all(entry.control_port for entry in table.peers)

    def test_per_host_traces_are_valid_recordings(self, fabric_run):
        out_dir, _result = fabric_run
        traces = sorted(out_dir.glob("node-*.trace.jsonl"))
        assert len(traces) == 4
        for path in traces:
            trace = load_trace(str(path))
            kinds = {event.kind for event in trace.events}
            assert {"commit", "a_deliver"} <= kinds

    def test_merged_trace_spans_all_pids(self, fabric_run):
        out_dir, _result = fabric_run
        merged = load_trace(str(out_dir / "merged.trace.jsonl"))
        assert merged.meta.get("pids") == [0, 1, 2, 3]
        assert {event.pid for event in merged.events} == {0, 1, 2, 3}
        # Merge is globally time-sorted.
        times = [event.time for event in merged.events]
        assert times == sorted(times)

    def test_summarize_accepts_the_traces(self, fabric_run):
        out_dir, _result = fabric_run
        for name in ("node-0.trace.jsonl", "merged.trace.jsonl", "node-0.stream.jsonl"):
            result = subprocess.run(
                [sys.executable, "-m", "repro.obs", "summarize", str(out_dir / name)],
                capture_output=True,
                text=True,
                timeout=60,
                cwd=str(REPO),
                env=ENV,
            )
            assert result.returncode == 0, result.stderr
            assert "a_deliver" in result.stdout


class TestLiveTelemetry:
    """The subscribe-stream live view, exercised by the same fabric run."""

    def test_plain_mode_renders_per_node_rows(self, fabric_run):
        out_dir, result = fabric_run
        assert result.returncode == 0, result.stdout + result.stderr
        # Non-TTY stdout -> plain mode: periodic `live:` lines, one per node.
        for pid in range(4):
            assert f"live: node {pid}: wave" in result.stdout
        assert "live: quorum wave" in result.stdout

    def test_stream_tees_are_valid_and_carry_deltas(self, fabric_run):
        out_dir, _result = fabric_run
        tees = sorted(out_dir.glob("node-*.stream.jsonl"))
        assert len(tees) == 4
        for pid, path in enumerate(tees):
            tee = load_trace(str(path))
            assert tee.meta["pid"] == pid and tee.meta["interval"] == 0.2
            assert tee.events and tee.deltas
            # The final delta carries the runner's last status snapshot.
            last = tee.deltas[-1]
            assert last["status"]["decided_wave"] >= 3
            # A zero ring-drop count is elided from the wire entirely.
            assert last.get("dropped", 0) == 0

    def test_causal_stitch_covers_the_merged_trace(self, fabric_run):
        out_dir, _result = fabric_run
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.obs", "causal",
                str(out_dir / "merged.trace.jsonl"), "--json",
            ],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=str(REPO),
            env=ENV,
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["stitched_chains"] > 0
        assert report["coverage"] == 1.0
        for edge in ("create->r_deliver", "insert->leader", "deliver->commit"):
            assert report["edges"][edge]["count"] > 0


@pytest.fixture(scope="module")
def stall_run(tmp_path_factory):
    """The committed stall-probe scenario, with a short stall window.

    ``scenarios/stall-probe.json`` splits n=4 into 2+2, so no group has a
    commit quorum (3) and the commit frontier goes flat until the heal —
    long enough for the driver's stall detector to fire and pull flight
    dumps.
    """
    out_dir = tmp_path_factory.mktemp("fabric-stall")
    result = subprocess.run(
        [
            sys.executable,
            str(FABRIC),
            "--hosts",
            "localhost",
            "--scenario",
            str(REPO / "scenarios" / "stall-probe.json"),
            "--stall-window",
            "2",
            "--live-interval",
            "0.25",
            "--out-dir",
            str(out_dir),
        ],
        capture_output=True,
        text=True,
        timeout=150,
        cwd=str(REPO),
        env=ENV,
    )
    return out_dir, result


class TestStallDiagnostics:
    def test_partitioned_quorum_trips_the_stall_detector(self, stall_run):
        out_dir, result = stall_run
        assert result.returncode == 0, result.stdout + result.stderr
        assert "live: STALL: quorum commit frontier flat" in result.stdout
        assert "fabric: stall diagnostics" in result.stdout
        # The run still completes once the partition heals.
        assert "digest-based total order OK" in result.stdout

    def test_stall_dump_carries_per_node_flight_rings(self, stall_run):
        out_dir, _result = stall_run
        dumps = sorted(out_dir.glob("stall-*"))
        assert dumps, "stall detector fired but wrote no dump"
        rings = sorted(dumps[0].glob("node-*.flight.jsonl"))
        assert [path.name for path in rings] == [
            f"node-{pid}.flight.jsonl" for pid in range(4)
        ]
        for pid, path in enumerate(rings):
            ring = load_trace(str(path))
            assert "error" not in ring.meta, ring.meta
            assert ring.meta["pid"] == pid and ring.meta["reason"] == "stall"
            assert ring.metrics is not None
            assert ring.metrics["status"]["decided_wave"] >= 0
            assert "links" in ring.metrics
            kinds = [event.kind for event in ring.events]
            # The dump request itself stamps the ring before it is read.
            assert "stall_detected" in kinds
