"""sweep-mixed: a six-algorithm manifest drained by run_sweep(n_jobs=2).

At n = 2e3 pool dispatch, claim/journal writes, pickling and per-trial
engine construction are a large share of each trial; at n = 2e4 engine
compute dominates.  It is the only workload that runs the four
sim.fast_phased engines, and its graphs take the one-shot
from_distinct_pairs build (the other side of the stream="auto" switch
from trial-5e6).
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import time
from pathlib import Path

from harness import (
    OUT, Run, derive_seed, import_seconds, median, peak_rss_mb, percentile,
    run_units,
)
from spans import Tracer

ALGORITHMS = ("sleeping", "fast-sleeping", "luby", "greedy", "ghaffari", "abi")
SIZES = (2_000, 20_000)
TRIALS = 30
N_JOBS = 2
FRONTIERS = 6
CLAIM_CYCLES = 200
MODULES = (
    "repro.plan", "repro.sweeps.manifest", "repro.sweeps.frontier",
    "repro.sweeps.runner",
)



def _layer(algorithm: str) -> str:
    module = "fast_engine" if "sleeping" in algorithm else "fast_phased"
    return f"sim.{module}.trial_ms.{algorithm}"


def _setup(run: Run, root: Path):
    """Expand the manifest and create a fresh frontier, FRONTIERS times;
    returns the frontiers and each set-up's seconds (imports included)."""
    from repro.plan import RunPlan
    from repro.sweeps.frontier import TrialFrontier
    from repro.sweeps.manifest import SweepManifest

    frontiers, seconds = [], []
    for index in range(FRONTIERS):
        imports = 0.0 if run.trace else import_seconds(MODULES)
        start = time.perf_counter()
        plans = [
            RunPlan(
                algorithm=algorithm, family="gnp-sparse", engine="auto",
                rng="batched", graph_rng="batched", result="arrays",
            )
            for algorithm in ALGORITHMS
        ]
        manifest = SweepManifest.expand(
            plans, sizes=SIZES, trials=TRIALS,
            seed0=derive_seed(run.seed, 0), name="sweep-mixed",
        )
        frontiers.append(TrialFrontier.create(root / f"f{index}", manifest))
        seconds.append(imports + time.perf_counter() - start)
    return frontiers, seconds


def _drain(run: Run, frontier, unit: int, n_jobs: int, tracer: Tracer) -> dict:
    """Drain ``frontier``; check every row; return timings and latencies."""
    from repro.sweeps.runner import merged_result_json, run_sweep

    with tracer.span("sweeps.run_sweep", n_jobs=n_jobs) as root:
        start = time.perf_counter()
        report = run_sweep(frontier, n_jobs=n_jobs)
        drain = time.perf_counter() - start
    clock_shift = time.time() - time.perf_counter()

    manifest = frontier.manifest
    results = dict(frontier.iter_results())
    run.attempted += len(manifest)
    for key in manifest.keys():
        row = results.get(key, {}).get("row")
        run.check(row is not None, f"trial {key} has no result")
        if row is not None:
            run.check(
                bool(row["valid"]) and row["undecided"] == 0,
                f"trial {key}: valid={row['valid']} "
                f"undecided={row['undecided']}",
            )
    merged = hashlib.sha256(merged_result_json(frontier).encode()).hexdigest()
    run.record_counts(unit, {
        "sweep_executed": report.executed, "sweep_failed": report.failed,
        "merged_sha256": merged,
    })
    run.digests.append(
        f"sweep-mixed unit={unit} n_jobs={n_jobs} trials={len(manifest)} "
        f"executed={report.executed} merged_sha256={merged}"
    )

    # Claim-to-done latency per trial, from the frontier's own journal.
    claimed, latency = {}, {}
    for line in (frontier.directory / "frontier.log").read_text().splitlines():
        event = json.loads(line)
        if event["event"] == "claim":
            claimed[event["trial"]] = event["at"]
        elif event["event"] == "done" and event["trial"] in claimed:
            key = event["trial"]
            latency[key] = event["at"] - claimed[key]
            if tracer.enabled:
                spec = manifest.trial(key)
                tracer.add(
                    "sweeps.trial", claimed[key] - clock_shift,
                    event["at"] - clock_shift, root,
                    algorithm=spec.plan.algorithm, n=spec.plan.n,
                )
    top = max(SIZES)
    walls = {}
    for key, payload in results.items():
        plan = manifest.trial(key).plan
        if plan.n == top:
            walls.setdefault(plan.algorithm, []).append(payload["wall_clock_s"])
    return {
        "drain": drain,
        "report": report,
        "top_walls": walls,
        "busy_s": sum(p["wall_clock_s"] for p in results.values()),
        "top_latency": [
            value for key, value in latency.items()
            if manifest.trial(key).plan.n == top
        ],
    }


def measure(run: Run) -> None:
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        frontiers, setups = _setup(run, Path(tmp))
        if run.trace:
            _traced(run, frontiers)
            return
        drains = []

        def unit(index: int) -> float:
            drains.append(
                _drain(run, frontiers[index], index, N_JOBS, Tracer(False, ""))
            )
            return drains[-1]["drain"]

        run_units(run.seconds, unit, max_units=FRONTIERS)
    rates = [len(frontiers[0].manifest) / d["drain"] for d in drains]
    walls = [w for d in drains for ws in d["top_walls"].values() for w in ws]
    latency = [v for d in drains for v in d["top_latency"]]
    run.metrics.update({
        "setup_s": median(setups),
        "trial_s": median(walls),
        "peak_rss_mb": peak_rss_mb(),
        "sweep_trials_per_s": median(rates),
        # Every manifest trial is one solve.
        "solves_per_s": median(rates),
        "cold_solve_p50_ms": percentile(latency, 50) * 1e3,
        "cold_solve_p90_ms": percentile(latency, 90) * 1e3,
    })


def _traced(run: Run, frontiers) -> None:
    untraced = _drain(run, frontiers[0], 0, N_JOBS, Tracer(False, ""))
    tracer = Tracer(True, f"sweep-mixed-{run.seed}")
    run.tracer = tracer
    traced = _drain(run, frontiers[1], 0, N_JOBS, tracer)
    serial = _drain(run, frontiers[2], 0, 1, Tracer(False, ""))

    # One claim plus release, on a frontier nothing else is draining.
    spare = frontiers[3]
    cycles = []
    for _ in range(CLAIM_CYCLES):
        with tracer.span("sweeps.claim_cycle"):
            start = time.perf_counter()
            spec = spare.claim("perfbench")
            spare.release(spec.key)
            cycles.append(time.perf_counter() - start)

    report = traced["report"]
    run.metrics.update({
        _layer(algorithm): median(walls) * 1e3
        for algorithm, walls in traced["top_walls"].items()
    })
    run.metrics.update({
        "sweeps.executed": report.executed,
        "sweeps.failed": report.failed,
        "sweeps.busy_frac": traced["busy_s"] / (N_JOBS * traced["drain"]),
        "sweeps.overhead_s": traced["drain"] - traced["busy_s"] / N_JOBS,
        "sweeps.claim_cycle_ms": median(cycles) * 1e3,
        "sweeps.speedup_2v1": serial["drain"] / untraced["drain"],
        "trace.overhead_s": traced["drain"] - untraced["drain"],
    })
