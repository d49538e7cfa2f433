#!/usr/bin/env python3
"""Drive an n-host DAG-Rider cluster from one peer table.

Thin wrapper over :mod:`repro.runtime.fabric` so deployments can call a
script while tests import the same driver. Typical smoke run::

    PYTHONPATH=src python scripts/fabric.py --hosts localhost --n 4 --waves 3

which plans a peer table on free ports, spawns four ``python -m repro
tcp-node`` processes, waits for every node to commit three waves, checks
digest-based prefix consistency across the hosts, and merges the per-host
``repro.obs.stream`` traces. See docs/runtime.md ("Multi-host
deployment").
"""

import sys

if __name__ == "__main__":
    from repro.runtime.fabric import main

    sys.exit(main())
