"""E24 (part) -- multi-core sweep scaling on the frontier runner.

Measures what the resumable sweep machinery (PR 9) actually buys when
workers are added: the same seeded manifest drained with ``run_sweep``
at ``n_jobs`` in {1, 2, 4}, wall clocks recorded, merged result sets
required byte-identical across worker counts (parallelism is a
scheduling knob, never a measurement knob).  Alongside it, the
per-claim lease overhead of the disk-backed frontier -- the number the
claim-TTL default has to dominate.

The measured wall clocks size two defaults in :mod:`repro.sweeps`:

* ``repro.workers.WINDOW_PER_WORKER`` -- the bounded submission window
  of the package's one worker pool (claims held in flight per worker
  when ``run_sweep`` fans out).  Trial execution dominates submission
  latency by orders of magnitude, so a window of 2 (one running, one
  queued per worker) already keeps every worker fed.
* ``frontier.DEFAULT_CLAIM_TTL`` -- a claim's lease is ~1 ms of disk
  bookkeeping, while the TTL is 15 minutes: expiry can never race the
  lease machinery itself, only a genuinely dead worker.

The committed ``BENCH_sweep_scaling.json`` tracks the deterministic
series (trial counts, per-worker-count completions, the cross-count
result-identity bit); wall clocks and speedups are machine-dependent
and stripped by ``check_artifacts.py``.
"""

import time

from conftest import record, timed_once, write_artifact

from repro.plan import RunPlan
from repro.sweeps import SweepManifest, TrialFrontier, run_sweep
from repro.sweeps.runner import merged_result_json

BASE_PLAN = RunPlan(
    algorithm="sleeping", family="gnp-sparse",
    engine="vectorized", rng="batched",
    graph_rng="batched", graph_source="arrays", result="arrays",
)
SIZES = (1_000, 2_000)
TRIALS = 6
SEED0 = 11
JOB_COUNTS = (1, 2, 4)

#: Claim/release cycles timed for the per-claim lease overhead figure.
CLAIM_CYCLES = 50


def test_sweep_scale_n_jobs(benchmark, tmp_path):
    manifest = SweepManifest.expand(
        BASE_PLAN, sizes=SIZES, trials=TRIALS, seed0=SEED0,
        name="bench-sweep-scaling",
    )

    def measure():
        walls, completed, merged = {}, {}, {}
        for jobs in JOB_COUNTS:
            frontier = TrialFrontier.create(
                tmp_path / f"jobs{jobs}", manifest
            )
            start = time.perf_counter()
            report = run_sweep(frontier, n_jobs=jobs)
            walls[jobs] = time.perf_counter() - start
            assert report.all_done and report.failed == 0, report.errors
            completed[jobs] = report.completed
            merged[jobs] = merged_result_json(frontier)

        # The frontier's lease overhead: claim + release cycles on a
        # fresh frontier (pure disk bookkeeping, no trial execution).
        lease = TrialFrontier.create(tmp_path / "lease", manifest)
        start = time.perf_counter()
        for _ in range(CLAIM_CYCLES):
            spec = lease.claim("bench")
            lease.release(spec.key)
        per_claim_s = (time.perf_counter() - start) / CLAIM_CYCLES
        return walls, completed, merged, per_claim_s

    (walls, completed, merged, per_claim_s), _ = timed_once(
        benchmark, measure
    )

    # Parallelism must not change a single measured byte.
    results_identical = all(
        merged[jobs] == merged[1] for jobs in JOB_COUNTS
    )
    assert results_identical

    speedup = {
        str(jobs): round(walls[1] / walls[jobs], 2) for jobs in JOB_COUNTS
    }
    print()
    record(
        benchmark,
        trials_total=len(manifest),
        completed={str(j): c for j, c in completed.items()},
        wall_clock_by_jobs_s={
            str(j): round(w, 2) for j, w in walls.items()
        },
        speedup=speedup,
        per_claim_s=round(per_claim_s, 5),
    )
    write_artifact(
        "sweep_scaling",
        config={
            "algorithm": "sleeping", "family": "gnp-sparse",
            "sizes": list(SIZES), "trials": TRIALS, "seed0": SEED0,
            "n_jobs": list(JOB_COUNTS), "claim_cycles": CLAIM_CYCLES,
        },
        plan=BASE_PLAN,
        wall_clock_s=sum(walls.values()),
        trials_total=len(manifest),
        completed={str(j): c for j, c in completed.items()},
        results_identical=results_identical,
        wall_clock_by_jobs_s={
            str(j): round(w, 3) for j, w in walls.items()
        },
        speedup=speedup,
        per_claim_s=round(per_claim_s, 5),
    )
