"""Simulated asynchronous network with reliable authenticated links.

Matches the model of paper §2:

* the link between every two *correct* processes is reliable — the network
  refuses to drop such messages even if the adversary asks;
* the recipient learns the authentic sender identity (``src`` is attached by
  the network, not by the message payload);
* the adversary controls all delivery times;
* once a process is corrupted, the adversary may drop its still-undelivered
  messages (:meth:`Network.corrupt` re-checks queued traffic).

Self-addressed messages are delivered immediately and cost zero bits — they
never cross the wire.

Hot-path design notes: :meth:`send` runs once per simulated message, so it
allocates nothing beyond the scheduler's heap entry — the in-flight
``(src, dst, message)`` rides in that entry as callback args instead of a
per-send closure plus side-table record. :meth:`broadcast` goes further: it
draws all ``n`` delivery times up front (in destination order, so the
adversary's RNG stream is identical to ``n`` individual sends), reserves a
contiguous handle block, and keeps *one* scheduler entry live per broadcast,
re-arming it after each delivery (see ``Scheduler.call_at_reserved``). The
``(time, handle)`` execution order — and therefore every metric — is
bit-identical to ``n`` individual :meth:`send` calls (the equivalence tests
compare against a ``Network`` whose ``broadcast`` loops ``send``). The rare
adaptive-corruption path recovers in-flight traffic by merging the
scheduler's pending unicast deliveries with the fan-outs' delivery lists.
Wire sizes go through :meth:`repro.sim.wire.Message.wire_size_cached`, so a
broadcast to ``n`` peers prices the message once, not ``n`` times.
"""

from __future__ import annotations

import math
from heapq import heappush
from typing import TYPE_CHECKING

from repro.common.config import SystemConfig
from repro.common.errors import ProtocolError
from repro.obs.context import Observability
from repro.obs.metrics import Histogram
from repro.obs.wire import MetricsCollector
from repro.sim.adversary import Adversary
from repro.sim.scheduler import Scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.process import Process
    from repro.sim.wire import Message


class _FanOut:
    """One broadcast's pending deliveries, armed one scheduler entry at a time.

    ``deliveries`` is sorted by ``(when, handle)`` — the scheduler's total
    order — with handles pre-reserved in destination order, so replaying the
    list step by step fires deliveries exactly when per-destination
    ``call_later`` entries would have.
    """

    __slots__ = ("src", "message", "deliveries", "pos", "base")

    def __init__(
        self,
        src: int,
        message: "Message",
        deliveries: list[tuple[float, int, int]],
        base: int,
    ) -> None:
        self.src = src
        self.message = message
        self.deliveries = deliveries  # [(when, handle, dst)]
        self.pos = 0
        self.base = base


class Network:
    """Routes messages between registered processes under adversary control."""

    def __init__(
        self,
        scheduler: Scheduler,
        config: SystemConfig,
        adversary: Adversary,
        metrics: MetricsCollector | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.scheduler = scheduler
        self.config = config
        self.adversary = adversary
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.obs = obs
        self._delay_hist: Histogram | None = None
        if obs is not None:
            # The simulator's clock is the one deterministic time axis; every
            # event any layer emits through this deployment rides on it.
            obs.attach_clock(scheduler)
            self._delay_hist = obs.registry.histogram("net.delay")
        self._processes: dict[int, "Process"] = {}
        self._n = config.n
        self._dsts = config.processes  # immutable range, hoisted off hot path
        self._corrupted: set[int] = set(config.byzantine)
        # Stable bound-method references: scheduler heap entries carry these
        # as callbacks, and `corrupt` finds in-flight traffic by matching
        # them; binding once avoids a method object per send.
        self._deliver_cb = self._deliver
        self._fanout_cb = self._fanout_step
        self._record_send = self.metrics.record_send
        # The base Adversary.should_drop is a constant False and draws no
        # randomness, so the per-destination hook call can be skipped
        # entirely unless the adversary (sub)class or instance overrides it.
        hook = adversary.should_drop
        self._drop_hook = (
            None if getattr(hook, "__func__", None) is Adversary.should_drop else hook
        )
        # Scheduler internals aliased for the fan-out re-arm, which runs
        # once per delivered broadcast message: the constraints the public
        # call_at_reserved validates hold by construction there (handles
        # come from this fan-out's reserved block, delivery times are
        # sorted, and the head entry just fired).
        self._sched_queue = scheduler._queue
        self._sched_entries = scheduler._entries
        # Live fan-outs keyed by their reserved handle block's base, in
        # broadcast order (dict insertion order is deterministic).
        self._fanouts: dict[int, _FanOut] = {}

    def register(self, process: "Process") -> None:
        """Attach a process; its pid must be unique and in range."""
        pid = process.pid
        if not 0 <= pid < self.config.n:
            raise ProtocolError(f"pid {pid} out of range for n={self.config.n}")
        if pid in self._processes:
            raise ProtocolError(f"pid {pid} registered twice")
        self._processes[pid] = process

    @property
    def corrupted(self) -> frozenset[int]:
        """Processes currently controlled by the adversary."""
        return frozenset(self._corrupted)

    def corrupt(self, pid: int) -> None:
        """Adaptively corrupt ``pid`` and drop its queued messages on request.

        Models the §2 adaptive adversary: corruption happens mid-run, after
        which the adversary may drop this sender's undelivered traffic. The
        in-flight messages live in the scheduler's pending unicast events
        plus the batched fan-outs' delivery lists; this rare path merges the
        two views and queries the adversary in handle order — the original
        send order — rather than taxing every send with bookkeeping.
        """
        if len(self._corrupted | {pid}) > self.config.f:
            raise ProtocolError(
                f"corrupting {pid} would exceed f={self.config.f} faults"
            )
        self._corrupted.add(pid)
        now = self.scheduler.now
        dropped = 0
        # (handle, fanout-or-None, index, dst, message); handle order == the
        # order the sends happened, so the adversary sees the same sequence
        # it would with per-destination scheduling.
        candidates: list[tuple[int, _FanOut | None, int, int, "Message"]] = []
        for handle, args in self.scheduler.pending_calls(self._deliver_cb):
            src, dst, message = args
            if src != pid or src == dst:
                continue
            candidates.append((handle, None, 0, dst, message))
        for fanout in self._fanouts.values():
            if fanout.src != pid:
                continue
            deliveries = fanout.deliveries
            for index in range(fanout.pos, len(deliveries)):
                dst = deliveries[index][2]
                if dst == pid:
                    continue  # self-deliveries never cross the wire
                candidates.append(
                    (deliveries[index][1], fanout, index, dst, fanout.message)
                )
        candidates.sort(key=lambda c: c[0])
        touched: dict[int, tuple[_FanOut, set[int]]] = {}
        for handle, fanout_ref, index, dst, message in candidates:
            if not self.adversary.should_drop(pid, dst, message, now):
                continue
            dropped += 1
            if fanout_ref is None:
                self.scheduler.cancel(handle)
            else:
                touched.setdefault(fanout_ref.base, (fanout_ref, set()))[1].add(index)
        for fanout, indices in touched.values():
            head = fanout.pos
            remaining = [
                fanout.deliveries[i]
                for i in range(head, len(fanout.deliveries))
                if i not in indices
            ]
            if head in indices:
                # The armed entry itself was dropped: cancel it and re-arm
                # at the next survivor (its reserved handle is still free).
                self.scheduler.cancel(fanout.deliveries[head][1])
                if not remaining:
                    del self._fanouts[fanout.base]
                    fanout.deliveries = []
                    fanout.pos = 0
                    continue
                when, handle, _ = remaining[0]
                self.scheduler.call_at_reserved(when, handle, self._fanout_cb, fanout)
            fanout.deliveries = remaining
            fanout.pos = 0
        if self.obs is not None:
            self.obs.emit(pid, "corrupt", in_flight_dropped=dropped)
            self.obs.registry.counter("net.corruptions").inc()

    def is_correct(self, pid: int) -> bool:
        """True when ``pid`` has not been corrupted."""
        return pid not in self._corrupted

    def send(self, src: int, dst: int, message: "Message") -> None:
        """Send ``message`` from ``src`` to ``dst`` (delivery is asynchronous)."""
        if dst not in self._processes:
            raise ProtocolError(f"unknown destination {dst}")
        if src == dst:
            # Local hand-off: no wire cost, immediate delivery, but still via
            # the scheduler so handlers never reenter each other.
            self.scheduler.call_later(0.0, self._deliver_cb, src, dst, message)
            return

        bits = message.wire_size_cached(self.config.n)
        self._record_send(src, bits, message.tag(), src not in self._corrupted)

        now = self.scheduler.now
        if self._drop_hook is not None and self._drop_hook(src, dst, message, now):
            if self.is_correct(src):
                raise ProtocolError(
                    "adversary attempted to drop a correct process's message"
                )
            return

        delay = self.adversary.delay(src, dst, message, now)
        if not (delay >= 0 and math.isfinite(delay)):
            raise ProtocolError(f"adversary returned invalid delay {delay}")
        correct_pair = self.is_correct(src) and self.is_correct(dst)
        self.metrics.record_delay(delay, correct_pair)
        if self._delay_hist is not None and correct_pair:
            # Aggregate-only on this per-message hot path: one histogram
            # bucket increment, no per-send event allocation.
            self._delay_hist.record(delay)

        self.scheduler.call_later(delay, self._deliver_cb, src, dst, message)

    def broadcast(self, src: int, message: "Message") -> None:
        """Send ``message`` from ``src`` to every process, including itself.

        The batched path draws drop decisions and delays per destination in
        pid order — the exact RNG consumption of ``n`` individual sends —
        then schedules the whole fan-out as one live heap entry that
        re-arms itself per delivery. Metrics accounting (wire bits, delay
        records, histogram) happens here at send time, before any delivery
        fires, just as with per-destination sends.
        """
        if len(self._processes) < self._n:
            # Partially-registered deployments fall back to per-destination
            # sends, which keep raising ProtocolError for unknown pids.
            send = self.send
            for dst in self._dsts:
                send(src, dst, message)
            return

        scheduler = self.scheduler
        now = scheduler.now
        adversary = self.adversary
        corrupted = self._corrupted
        correct_src = src not in corrupted
        bits = message.wire_size_cached(self._n)
        tag = message.tag()
        # One bookkeeping pass for the n-1 identical wire sends (exact
        # integer arithmetic: totals match n-1 record_send calls).
        self.metrics.record_sends(src, bits, tag, correct_src, self._n - 1)
        drop_hook = self._drop_hook
        delay_of = adversary.delay
        # Correct-pair delays batched in draw order: record_delays /
        # record_many accumulate element by element, so sums and extrema
        # are bit-identical to per-destination recording.
        correct_delays: list[float] = []
        schedule: list[tuple[float, int]] = []  # (when, dst) in dst order
        for dst in self._dsts:
            if dst == src:
                # Local hand-off: no wire cost, immediate delivery.
                schedule.append((now, dst))
                continue
            if drop_hook is not None and drop_hook(src, dst, message, now):
                if correct_src:
                    raise ProtocolError(
                        "adversary attempted to drop a correct process's message"
                    )
                continue  # dropped: no handle, exactly like a skipped send
            delay = delay_of(src, dst, message, now)
            if not (delay >= 0 and math.isfinite(delay)):
                raise ProtocolError(f"adversary returned invalid delay {delay}")
            if correct_src and dst not in corrupted:
                correct_delays.append(delay)
            schedule.append((now + delay, dst))
        self.metrics.record_delays(correct_delays)
        if self._delay_hist is not None:
            self._delay_hist.record_many(correct_delays)
        if not schedule:
            return
        base = scheduler.reserve_handles(len(schedule))
        deliveries = [
            (when, base + i, dst) for i, (when, dst) in enumerate(schedule)
        ]
        deliveries.sort()
        fanout = _FanOut(src, message, deliveries, base)
        self._fanouts[base] = fanout
        head = deliveries[0]
        scheduler.call_at_reserved(head[0], head[1], self._fanout_cb, fanout)

    def _fanout_step(self, fanout: _FanOut) -> None:
        """Deliver the fan-out's current step and re-arm the next one."""
        deliveries = fanout.deliveries
        pos = fanout.pos
        dst = deliveries[pos][2]
        pos += 1
        fanout.pos = pos
        # Re-arm before delivering so handlers that inspect in-flight state
        # (e.g. adaptive corruption during a callback) see a consistent view.
        # Inlined call_at_reserved: its validation holds by construction
        # here (reserved handle, sorted times), and this runs once per
        # delivered broadcast message.
        if pos < len(deliveries):
            when, handle, _ = deliveries[pos]
            entry = [when, handle, self._fanout_cb, (fanout,)]
            self._sched_entries[handle] = entry
            heappush(self._sched_queue, entry)
        else:
            del self._fanouts[fanout.base]
        process = self._processes.get(dst)
        if process is not None:
            process.on_message(fanout.src, fanout.message)

    def _deliver(self, src: int, dst: int, message: "Message") -> None:
        process = self._processes.get(dst)
        if process is not None:
            process.on_message(src, message)
