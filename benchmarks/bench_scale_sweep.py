"""E17 -- scale: 10^4..10^5-node sweeps on the array-native pipeline.

ROADMAP's scale target made executable, in two stages:

* ``test_sleeping_mis_scale_sweep_batched`` -- a sleeping-MIS
  (Algorithm 1) sweep at n = 10^4 completes in about a second under
  ``rng="batched"`` on the (default) array-native pipeline: graphs are
  sampled straight into CSR edge arrays (``graph_source="auto"``) and
  trial statistics stay numpy columns (``result="auto"``), while the
  headline O(1) node-averaged awake measure stays flat and every output
  is a valid MIS.
* ``test_sleeping_1e5_array_native_speedup`` -- the 10^5-node
  demonstration: the same seeded trial measured end-to-end on the PR 2
  pipeline (networkx graph build + per-node ``NodeStats`` dicts + dict
  validation) and on the array-native pipeline (direct-to-CSR sampling +
  ``ArrayRunResult`` + O(m) numpy validation).  Identical measured
  values, >= 1.7x end-to-end -- the committed ``BENCH_scale_1e5.json``
  records both wall clocks, and a ``phases`` block splitting the
  array-native trial into sample / csr_build / engine / result_build
  (untraced :func:`repro.profiling.profile_phases`).  (Excluded from the CI smoke ``-k`` filter;
  run it locally or via the repro command in EXPERIMENTS.md.)
"""

from conftest import record, timed_once, write_artifact

from repro.analysis.complexity import sweep
from repro.plan import RunPlan
from repro.profiling import profile_phases

SIZES = (1_000, 10_000)
TRIALS = 3
SEED0 = 11

N_LARGE = 100_000

#: The acceptance floor for the 10^5 array-native path vs the PR 2
#: pipeline, end to end.  Measured ~3.5x on the reference container; the
#: gate sits far below that to absorb runner variance without ever letting
#: the win regress beneath the ROADMAP target.
SPEEDUP_FLOOR = 1.7


SWEEP_PLAN = RunPlan(
    algorithm="sleeping", family="gnp-sparse",
    engine="vectorized", rng="batched", result="auto",
)


def test_sleeping_mis_scale_sweep_batched(benchmark):
    def measure():
        return sweep(plan=SWEEP_PLAN, sizes=SIZES, trials=TRIALS, seed0=SEED0)

    rows, elapsed = timed_once(benchmark, measure)

    assert all(row.valid for row in rows)
    assert all(row.undecided == 0 for row in rows)
    by_size = {
        n: [r.node_averaged_awake for r in rows if r.n == n] for n in SIZES
    }
    means = {n: sum(v) / len(v) for n, v in by_size.items()}
    print()
    record(
        benchmark,
        node_avg_awake={n: round(m, 2) for n, m in means.items()},
        total_trials=len(rows),
        wall_clock_s=round(elapsed, 2),
    )
    # O(1) node-averaged awake holds out to 10^4: a 10x size jump moves
    # the mean by far less than any growing function would.
    assert means[10_000] <= 1.5 * means[1_000]
    assert means[10_000] < 12.0
    write_artifact(
        "scale_sweep",
        config={
            "algorithm": "sleeping", "family": "gnp-sparse",
            "sizes": list(SIZES), "trials": TRIALS, "seed0": SEED0,
            "engine": "vectorized", "rng": "batched",
            "graph_source": "auto", "result": "auto",
        },
        plan=SWEEP_PLAN,
        wall_clock_s=elapsed,
        node_avg_awake={str(n): round(m, 3) for n, m in means.items()},
    )


def test_sleeping_1e5_array_native_speedup(benchmark):
    """10^5 nodes: array-native pipeline >= 1.7x the PR 2 pipeline."""
    import time

    def run(graph_source, result):
        # Untraced: phase spans without tracemalloc keep both sides'
        # wall clocks (and so the asserted speedup) honest.
        with profile_phases() as prof:
            start = time.perf_counter()
            rows = sweep(
                plan=SWEEP_PLAN.replace(
                    graph_source=graph_source, result=result
                ),
                sizes=(N_LARGE,), trials=1, seed0=SEED0,
            )
            elapsed = time.perf_counter() - start
        return rows, elapsed, prof

    def measure():
        legacy_rows, legacy_s, _ = run("networkx", "legacy")
        arrays_rows, arrays_s, prof = run("arrays", "arrays")
        return legacy_rows, legacy_s, arrays_rows, arrays_s, prof

    (legacy_rows, legacy_s, arrays_rows, arrays_s, prof), _ = timed_once(
        benchmark, measure
    )

    # Same seeded trial, measured identically on both pipelines.
    a, b = legacy_rows[0], arrays_rows[0]
    assert (a.valid, a.undecided) == (True, 0)
    assert (
        a.node_averaged_awake, a.worst_case_awake, a.node_averaged_rounds,
        a.worst_case_rounds, a.total_messages, a.total_bits, a.valid,
    ) == (
        b.node_averaged_awake, b.worst_case_awake, b.node_averaged_rounds,
        b.worst_case_rounds, b.total_messages, b.total_bits, b.valid,
    )

    speedup = legacy_s / arrays_s
    print()
    record(
        benchmark,
        legacy_pipeline_s=round(legacy_s, 2),
        array_native_s=round(arrays_s, 2),
        speedup=round(speedup, 2),
        node_avg_awake=round(b.node_averaged_awake, 3),
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"array-native 10^5 sweep only {speedup:.2f}x vs the legacy "
        f"pipeline (floor {SPEEDUP_FLOOR}x)"
    )
    write_artifact(
        "scale_1e5",
        config={
            "algorithm": "sleeping", "family": "gnp-sparse",
            "sizes": [N_LARGE], "trials": 1, "seed0": SEED0,
            "engine": "vectorized", "rng": "batched",
            "compared": {
                "legacy": {"graph_source": "networkx", "result": "legacy"},
                "array_native": {"graph_source": "arrays", "result": "arrays"},
            },
        },
        plan={
            "legacy": SWEEP_PLAN.replace(
                graph_source="networkx", result="legacy"
            ),
            "array_native": SWEEP_PLAN.replace(
                graph_source="arrays", result="arrays"
            ),
        },
        wall_clock_s=arrays_s,
        legacy_pipeline_s=round(legacy_s, 3),
        array_native_s=round(arrays_s, 3),
        speedup=round(speedup, 3),
        speedup_floor=SPEEDUP_FLOOR,
        node_avg_awake=round(b.node_averaged_awake, 3),
        phases=prof.report(),
    )
