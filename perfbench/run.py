"""The repo benchmark: one command per workload, from a checkout's root.

    python3 perfbench/run.py --workload trial-5e6 --seed 1 --seconds 36 --trace 0

Prints digests of the deterministic outputs, a table of every metric with
its unit (plus failed_frac), and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the
per-layer ones, from spans recorded around the calls the benchmark makes
into each layer (written to ``.perfbench_out/``).  See NOTE.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import multiprocessing
import sys

import harness

WORKLOADS = {
    "trial-5e6": "workload_trial",
    "sweep-mixed": "workload_sweep",
    "service-mixed": "workload_service",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    harness.bootstrap()
    spec = json.loads(harness.SPEC.read_text())
    module = importlib.import_module(WORKLOADS[args.workload])
    run = harness.Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        module.measure(run)
    finally:
        for child in multiprocessing.active_children():
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
                child.join()
    if run.trace:
        # A layer this workload does not drive from here did no work in it.
        for metric in spec["per_layer"]:
            run.metrics.setdefault(metric["name"], 0.0)
        run.tracer.write(
            harness.OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        )
    run.emit(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
