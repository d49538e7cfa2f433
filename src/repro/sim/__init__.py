"""Deterministic discrete-event simulation of an asynchronous network.

This package is the substrate the paper's model (§2) runs on:

* :mod:`repro.sim.scheduler` — a deterministic event loop with a stable
  tie-break order, so identical seeds replay identical executions.
* :mod:`repro.sim.wire` — the bit-size model used for communication-
  complexity accounting (§3 "communication measurement").
* :mod:`repro.sim.network` — reliable authenticated links between correct
  processes with adversary-controlled delays; the adversary may drop
  undelivered messages of corrupted processes (adaptive adversary, §2).
* :mod:`repro.sim.process` — the message-driven process harness protocols
  subclass.
* :mod:`repro.sim.adversary` — delay/drop strategies, from benign uniform
  delays to targeted leader suppression.

Bits-sent and asynchronous-time-unit accounting exactly as §3 defines them
is :class:`repro.obs.wire.MetricsCollector`, re-exported here.
"""

from repro.obs.wire import MetricsCollector
from repro.sim.adversary import (
    Adversary,
    FixedDelay,
    GroupVictimDelay,
    LeaderSuppressionAdversary,
    PartitionDelay,
    SlowProcessDelay,
    UniformDelay,
)
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.scheduler import Scheduler
from repro.sim.wire import (
    BITS_PER_DIGEST,
    BITS_PER_ROUND,
    BITS_PER_SHARE,
    Message,
    bits_for_process_id,
)

__all__ = [
    "Adversary",
    "BITS_PER_DIGEST",
    "BITS_PER_ROUND",
    "BITS_PER_SHARE",
    "FixedDelay",
    "GroupVictimDelay",
    "LeaderSuppressionAdversary",
    "Message",
    "MetricsCollector",
    "Network",
    "PartitionDelay",
    "Process",
    "Scheduler",
    "SlowProcessDelay",
    "UniformDelay",
    "bits_for_process_id",
]
