"""The runner's control socket answers malformed requests instead of hanging up.

A request whose arguments do not parse must get ``{"ok": false, "error":
...}`` back on the same connection, which then keeps serving requests —
the driver must never see a silently dropped connection.
"""

import asyncio
import json
import logging

import pytest

from repro.common.config import SystemConfig
from repro.obs.context import Observability
from repro.runtime.peers import allocate_port_block, make_peer_table
from repro.runtime.runner import ControlServer, NodeRunner

MALFORMED = [
    {"cmd": "slow", "delay": "abc"},
    {"cmd": "slow", "delay": None},
    {"cmd": "partition", "peers": ["x"]},
    {"cmd": "partition", "peers": 5},
    {"cmd": "flight", "stalled_for": "abc"},
    {"cmd": "subscribe", "interval": "abc"},
    {"cmd": "subscribe", "capacity": "abc"},
    {"cmd": "subscribe", "capacity": 0},
    {"cmd": "subscribe", "min_round": "abc"},
]


async def _round_trip(reader, writer, request):
    writer.write((json.dumps(request) + "\n").encode())
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), timeout=10.0)
    assert line, f"connection closed without a reply to {request}"
    return json.loads(line)


@pytest.mark.parametrize("request_body", MALFORMED, ids=lambda r: json.dumps(r))
def test_malformed_arguments_get_an_error_reply(request_body, caplog):
    ports = allocate_port_block(8)
    table = make_peer_table(
        {pid: ("127.0.0.1", ports[2 * pid]) for pid in range(4)},
        SystemConfig(n=4, seed=3),
        control_ports={pid: ports[2 * pid + 1] for pid in range(4)},
    )

    async def scenario():
        runner = NodeRunner(table, 0, observability=Observability())
        await runner.boot()
        control = ControlServer(runner, "127.0.0.1", table.entry(0).control_port)
        await control.start()
        try:
            reader, writer = await asyncio.open_connection(
                *table.entry(0).control_address
            )
            error = await _round_trip(reader, writer, request_body)
            assert error["ok"] is False and error["error"], error
            # The same connection still serves the next request.
            pong = await _round_trip(reader, writer, {"cmd": "ping"})
            assert pong["ok"] is True and pong["pid"] == 0
            writer.close()
        finally:
            await control.close()
            await runner.close_links()
            await runner.close()

    with caplog.at_level(logging.ERROR, logger="asyncio"):
        asyncio.run(scenario())
    assert "Unhandled exception" not in caplog.text
