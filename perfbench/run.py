#!/usr/bin/env python3
"""Season-scale end-to-end benchmark of the NOA wildfire service.

    python3 perfbench/run.py --workload season_ingest --seed 1 \\
        --seconds 40 --trace 0

Runs one workload against a fresh SUT child process (see
``perfbench/README.md``), checks every answer, and prints a human
summary followed, as the last line, by one JSON object::

    {"correct": true, "attempted": ..., "failed": ...,
     "metrics": {"acq_per_min": {"value": ..., "unit": "1/min"}, ...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones (timing wrappers installed in the
SUT) plus the per-layer table.  The exit code is 0 only when every
correctness check passed; a run that cannot start (no ``src/`` tree
next to this directory) exits 2 without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny: a few acquisitions per workload, for smoke tests",
    )
    parser.add_argument(
        "--plant-wrong-answer",
        action="store_true",
        help="self-test: corrupt one answer so the correctness check "
        "must fail",
    )
    args = parser.parse_args(argv)
    # A terminated run still stops its SUT (the ``finally`` blocks run).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(
            f"perfbench: no src/repro next to {HERE}; run from a full "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.workloads import SIZES, WORKLOADS, BenchmarkError, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    spec = _spec()
    results = os.path.join(ROOT, ".perfbench", "results")
    untraced_path = os.path.join(
        results,
        f"{args.workload}-{args.size}-{args.seed}-{args.seconds}.json",
    )
    untraced = None
    if args.trace and os.path.exists(untraced_path):
        with open(untraced_path) as handle:
            untraced = json.load(handle)
    try:
        result = run_workload(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            plant_wrong=args.plant_wrong_answer,
            untraced=untraced,
            sizes=SIZES[args.size],
        )
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 3
    for line in result["summary"]:
        print(line)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result["layers"] if args.trace else result["e2e"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    if not args.trace and result["correct"]:
        os.makedirs(results, exist_ok=True)
        with open(untraced_path, "w") as handle:
            json.dump(result["e2e"], handle)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
