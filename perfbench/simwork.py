"""Sim workloads: repeated simulator runs, each in a fresh child process.

An untraced invocation runs as many distinct seeds derived from ``--seed``
as fit ``--seconds`` at a nominal run time, then the first of them once
more, and reports medians; latency percentiles pool the blocks of every
distinct seed, so one seed's DAG shape does not set the tail alone. The rerun's
exact counts must equal the first run's. A traced invocation makes one
untraced and one traced run of the first derived seed and requires their
exact counts to agree as well.
"""

from __future__ import annotations

from common import median, percentile, run_child
from repro.common.rng import derive_seed

#: Counts that must repeat exactly for one seed, traced or not.
EXACT = ("sim.events", "sim.messages", "ordering.delivered", "dag.weak_edges")
#: Hard stop for one child run (seconds).
CHILD_TIMEOUT = 150.0
#: Typical seconds per child run on a 2-vCPU VM; with ``--seconds`` it
#: fixes how many seeds an invocation runs, so the work does not depend on
#: how fast the machine happens to be.
NOMINAL_RUN_S = 3.3
MIN_SEEDS = 3


def _run(workload: str, seed: int, trace: bool) -> dict:
    spawned, result = run_child(
        ["perfbench/sim_child.py", workload, str(seed), "1" if trace else "0"],
        CHILD_TIMEOUT,
    )
    result["raw_setup_s"] = result["ready"] - spawned - result["gauge_in_setup"]
    result["setup_s"] = result["raw_setup_s"] * result["setup_factor"]
    result["seed"] = seed
    return result


def _problems(runs: list[dict]) -> list[str]:
    problems = []
    first: dict[int, dict] = {}
    for index, run in enumerate(runs):
        if not run["reached"]:
            problems.append(f"run {index}: a correct node missed the target wave")
        if run["order_error"] is not None:
            problems.append(f"run {index}: {run['order_error']}")
        counts = first.setdefault(run["seed"], run["counts"])
        for key in EXACT:
            if run["counts"][key] != counts[key]:
                problems.append(
                    f"run {index} (seed {run['seed']}): "
                    f"{key} {run['counts'][key]} != {counts[key]}"
                )
    return problems


def run_sim(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    def seed_of(index: int) -> int:
        return derive_seed(seed, "perfbench", index)

    if trace:
        runs = [_run(workload, seed_of(0), False), _run(workload, seed_of(0), True)]
        distinct = runs[:1]
    else:
        count = max(MIN_SEEDS, round(seconds / NOMINAL_RUN_S) - 1)
        runs = [_run(workload, seed_of(index), False) for index in range(count)]
        distinct = list(runs)
        runs.append(_run(workload, seed_of(0), False))
    untraced = [run for run in runs if "layers" not in run]
    latencies = [ms for run in distinct for ms in run["latencies_ms"]]
    result = {
        "attempted": len(runs),
        "failed": sum(1 for run in runs if not run["reached"]),
        "problems": _problems(runs),
        "notes": {
            "runs": len(runs),
            "run_s": [round(run["run_s"], 4) for run in runs],
            "raw_run_s": [round(run["raw_run_s"], 4) for run in runs],
            "slice_ms": [round(run["slice_ms"], 4) for run in runs],
            "setup_s": [round(run["setup_s"], 4) for run in runs],
            "raw_setup_s": [round(run["raw_setup_s"], 4) for run in runs],
            "tx_samples": sum(run["tx_samples"] for run in distinct),
            "counts": runs[0]["counts"],
        },
        "tx_p50_ms": percentile(latencies, 50),
        "tx_p99_ms": percentile(latencies, 99),
        "tx_capacity_per_s": median([run["tx_per_s"] for run in untraced]),
    }
    for key in ("setup_s", "raw_setup_s", "run_s", "peak_rss_mb"):
        result[key] = median([run[key] for run in untraced])
    if trace:
        plain, traced = runs
        layers = dict(traced["layers"])
        layers.update(traced["counts"])
        layers.update(
            {
                "trace.overhead_run_s": traced["run_s"] / plain["run_s"],
                "trace.overhead_tx_p50": (
                    percentile(traced["latencies_ms"], 50)
                    / percentile(plain["latencies_ms"], 50)
                ),
            }
        )
        result["layers"] = layers
    return result
