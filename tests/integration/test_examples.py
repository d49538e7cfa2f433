"""Smoke tests: the shipped examples must keep running end-to-end."""

import runpy
import sys
from pathlib import Path

import pytest

from repro.obs import load_trace

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, capsys, monkeypatch, *argv: str) -> str:
    # The cluster examples parse sys.argv (--trace); give them their own,
    # not pytest's.
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys, monkeypatch):
        out = run_example("quickstart.py", capsys, monkeypatch)
        assert "explicit block delivered: True" in out
        assert "src/round" in out  # the DAG rendering

    def test_byzantine_replication(self, capsys, monkeypatch):
        out = run_example("byzantine_replication.py", capsys, monkeypatch)
        assert "all replica states identical: True" in out
        assert "violations of the (f+1)/(2f+1) bound: 0" in out

    def test_tcp_cluster(self, capsys, monkeypatch, tmp_path):
        trace = tmp_path / "tcp.trace.jsonl"
        out = run_example(
            "tcp_cluster.py", capsys, monkeypatch, "--trace", str(trace)
        )
        assert "target reached: True" in out
        assert "reliable links:" in out
        assert "total order across all four nodes: OK" in out
        # The recorded trace is a valid recording.
        assert "a_deliver" in {event.kind for event in load_trace(str(trace)).events}

    def test_chaos_cluster(self, capsys, monkeypatch, tmp_path):
        trace = tmp_path / "chaos.trace.jsonl"
        out = run_example(
            "chaos_cluster.py", capsys, monkeypatch, "--trace", str(trace)
        )
        assert "target reached under chaos: True" in out
        assert "prefix-consistent logs despite chaos: OK" in out
        assert trace.exists()

    @pytest.mark.slow
    def test_asynchrony_stress(self, capsys, monkeypatch):
        out = run_example("asynchrony_stress.py", capsys, monkeypatch)
        assert out.count("total_order=OK") == 3

    @pytest.mark.slow
    def test_broadcast_tradeoffs(self, capsys, monkeypatch):
        out = run_example("broadcast_tradeoffs.py", capsys, monkeypatch)
        assert "bits per ordered transaction" in out
