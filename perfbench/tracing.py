"""Span tracer for the benchmark's traced runs.

Spans are recorded around calls into each layer's public entry points by
replacing those names, from this file, with timing wrappers: class
attributes for methods, and module globals where a caller imported a
function by value (``rs_encode`` into ``repro.broadcast.avid``, say), so
the wrapper sits where the caller looks the name up. Nothing under
``src/`` is edited.

Every span keeps its name, start, end and parent span in compact arrays
held in memory; :meth:`Tracer.write` dumps them when the run ends. A
layer's self time is the summed duration of its spans minus the part of
each covered by child spans. All wrapped functions are synchronous, so
one stack per process gives the parent of each span, also inside an
asyncio loop.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from collections import Counter
from typing import Any, Callable

_clock = time.perf_counter


class Tracer:
    """In-memory span log of patched entry points."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def _name(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        after: Callable[..., None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` with a span named ``name`` around every call.

        ``after(result, *args)`` runs inside the span once ``fn`` returned,
        for counters that depend on the call's arguments or result.
        """
        ident = self._name(name)
        stack = self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(start)
            name_id.append(ident)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(_clock())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, *args)
                return result
            finally:
                end[index] = _clock()
                stack.pop()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Callable[..., None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` (class or module) with a traced wrapper."""
        original = owner.__dict__[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def unpatch(self) -> None:
        """Put every patched name back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ analysis

    def summary(self) -> "Summary":
        """Per-name totals of every span recorded so far."""
        return Summary(self._totals(), len(self.start))

    def _totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total duration ``s`` and ``self_s``."""
        count = len(self.start)
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        child = [0.0] * count
        start, end, parent = self.start, self.end, self.parent
        for index in range(count):
            owner = parent[index]
            if owner >= 0:
                child[owner] += end[index] - start[index]
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names
        }
        for index in range(count):
            row = out[self.names[self.name_id[index]]]
            duration = end[index] - start[index]
            row["calls"] += 1
            row["s"] += duration
            row["self_s"] += duration - child[index]
        return out

    def write(self, path: str) -> None:
        """Dump every span: a JSON name table line, then the raw arrays."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as stream:
            header = {"names": self.names, "spans": len(self.start),
                      "arrays": ["name_id:i", "parent:i", "start:d", "end:d"]}
            stream.write((json.dumps(header) + "\n").encode())
            for column in (self.name_id, self.parent, self.start, self.end):
                column.tofile(stream)


class Summary:
    """Call counts and times per span name, and self time per layer."""

    def __init__(self, totals: dict[str, dict[str, float]], spans: int) -> None:
        self.totals = totals
        self.spans = spans
        layers: Counter[str] = Counter()
        for name, row in totals.items():
            # A layer is the span-name prefix before the first dot.
            layers[name.split(".", 1)[0]] += row["self_s"]
        self.layer_self = dict(layers)

    def calls(self, *names: str) -> int:
        return sum(int(self.totals.get(name, {}).get("calls", 0)) for name in names)

    def seconds(self, *names: str) -> float:
        return sum(self.totals.get(name, {}).get("s", 0.0) for name in names)

    def protocol_layers(self) -> dict[str, float]:
        """The metrics of the layers the sim and the runtime share."""
        deliveries = self.calls("dag.on_r_deliver")
        handle_calls = self.calls("broadcast.handle")
        return {
            "dag.self_s": self.layer_self.get("dag", 0.0),
            "dag.r_deliver_calls": deliveries,
            "dag.compact_calls": self.calls("dag.compact"),
            "dag.compact_s": self.seconds("dag.compact"),
            "ordering.self_s": self.layer_self.get("ordering", 0.0),
            "ordering.wave_ready_calls": self.calls("ordering.wave_ready"),
            "core.self_s": self.layer_self.get("core", 0.0),
            "broadcast.self_s": self.layer_self.get("broadcast", 0.0),
            "broadcast.handle_calls": handle_calls,
            "broadcast.deliveries": deliveries,
            "broadcast.useful_ratio": (
                deliveries / handle_calls if handle_calls else 0.0
            ),
            "trace.spans": self.spans,
        }
