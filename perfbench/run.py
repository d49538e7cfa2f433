"""The repository's benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload sim-dag-n7 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` makes the traced run that gives the per-layer metrics, next to an
untraced run of the same seed for the tracing overhead and the exact-count
comparison. The metric names and units come from ``BENCHMARK.json``.
Diagnostics go to stderr; the last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``. Every run happens in
fresh child processes, so memory readings are each run's own.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        return json.load(stream)


def main(argv: list[str]) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=[workload["name"] for workload in spec["workloads"]],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        log("perfbench: no src/repro beside perfbench/; run from a full checkout")
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from common import calibration_ms

    calibration = calibration_ms()
    log(f"calibration kernel: {calibration:.3f} ms per slice (median of 20)")
    started = time.monotonic()
    if args.workload.startswith("sim-"):
        from simwork import run_sim

        result = run_sim(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        from tcpwork import run_tcp

        result = run_tcp(args.workload, args.seed, args.seconds, bool(args.trace))
    log(f"wall {time.monotonic() - started:.1f} s; notes: "
        f"{json.dumps(result['notes'], sort_keys=True)}")
    for problem in result["problems"]:
        log(f"CHECK FAILED: {problem}")

    if args.trace:
        # Capacity spread too far run to run for a bound on the tcp
        # workloads (NOTES.md), so it is reported here, from the untraced run.
        values = dict(
            result["layers"],
            **{"cal.kernel_ms": calibration,
               "tx_capacity_per_s": result["tx_capacity_per_s"]},
        )
        wanted = spec["per_layer"]
    else:
        values = result
        wanted = spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in values and not args.trace:
            raise KeyError(f"{args.workload} did not measure {name}")
        # A layer this workload does not run reads 0.
        metrics[name] = {"value": values.get(name, 0), "unit": entry["unit"]}
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
