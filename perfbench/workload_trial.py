"""trial-5e6: one Algorithm 2 trial on a 5e6-node sparse G(n, p), in-process.

make_family_arrays -> make_vectorized_engine(...).run() ->
is_maximal_independent_set_arrays, with no pool and no service.  About
2e7 pairs crosses GNP_V2_STREAM_THRESHOLD, so the graph comes from the
streaming two-pass CSR build; the sleeping recursion and the result
build do nearly all of the rest of the work.
"""

from __future__ import annotations

import gc
import time
from contextlib import nullcontext

from harness import (
    Run, derive_seed, import_seconds, median, peak_rss_mb, percentile,
    run_units,
)
from spans import Tracer

N = 5_000_000
FAMILY = "gnp-sparse"
ALGORITHM = "fast-sleeping"
SETUP_REPS = 5
MODULES = (
    "repro.graphs.arrays", "repro.sim.batch", "repro.graphs.validation",
    "repro.profiling",
)


SPAN_SAMPLE = "graphs.arrays.make_family_arrays"
SPAN_ENGINE = "sim.batch.make_vectorized_engine"
SPAN_RUN = "sim.fast_engine.VectorizedEngine.run"
SPAN_VALIDATE = "graphs.validation.is_maximal_independent_set_arrays"


def _trial(run: Run, unit: int, tracer: Tracer, profiler_ctx) -> dict:
    """One trial; returns its wall time, outputs and checks."""
    from repro.graphs.arrays import make_family_arrays
    from repro.graphs.validation import is_maximal_independent_set_arrays
    from repro.sim.batch import make_vectorized_engine

    seed = derive_seed(run.seed, unit)
    with profiler_ctx as prof:
        start = time.perf_counter()
        with tracer.span("trial", n=N, seed=seed):
            with tracer.span(SPAN_SAMPLE):
                graph = make_family_arrays(
                    FAMILY, N, seed=seed, graph_rng="batched"
                )
            with tracer.span(SPAN_ENGINE):
                engine = make_vectorized_engine(
                    graph, ALGORITHM, seed=seed, rng="batched",
                    result="arrays",
                )
            with tracer.span(SPAN_RUN):
                result = engine.run()
            with tracer.span(SPAN_VALIDATE):
                valid = is_maximal_independent_set_arrays(
                    graph, result.mis_mask
                )
        wall = time.perf_counter() - start
    out = {
        "wall": wall,
        "valid": valid,
        "undecided": int((result.in_mis < 0).sum()),
        "directed_edges": int(len(graph.dst)),
        "awake_node_rounds": int(result.total_awake_rounds),
        "mis_size": int(result.mis_mask.sum()),
        "node_avg_awake": repr(result.node_averaged_awake_complexity),
        "result_nbytes": sum(
            value.nbytes for value in vars(result).values()
            if hasattr(value, "nbytes") and value is not graph
        ),
        "profile": prof,
    }
    del graph, engine, result
    gc.collect()
    run.attempted += 1
    run.check(out["valid"], f"unit {unit}: the MIS is not valid")
    run.check(out["undecided"] == 0,
              f"unit {unit}: {out['undecided']} undecided nodes")
    counts = {k: out[k] for k in (
        "directed_edges", "awake_node_rounds", "mis_size", "undecided",
        "node_avg_awake",
    )}
    if prof is not None:
        counts["sample_chunks"] = prof.calls.get("sample", 0)
    run.record_counts(unit, counts)
    run.digests.append(
        f"trial-5e6 unit={unit} seed={seed} n={N} "
        f"directed_edges={out['directed_edges']} "
        f"node_avg_awake={out['node_avg_awake']} mis_size={out['mis_size']}"
    )
    return out


def measure(run: Run) -> None:
    off = Tracer(False, "trial-5e6")
    if run.trace:
        _traced(run, off)
        return
    # Set-up here is the imports alone: nothing else precedes the trial.
    setup_s = median([import_seconds(MODULES) for _ in range(SETUP_REPS)])
    walls = []

    def unit(index: int) -> float:
        walls.append(_trial(run, index, off, nullcontext())["wall"])
        return walls[-1]

    units = run_units(run.seconds, unit, max_units=8)
    trial_s = median(walls)
    run.metrics.update({
        "setup_s": setup_s,
        "trial_s": trial_s,
        "peak_rss_mb": peak_rss_mb(),
        # With one trial per operation, throughput and every latency
        # percentile are readings of the same trial walls.
        "sweep_trials_per_s": units / sum(walls),
        "solves_per_s": units / sum(walls),
        "cold_solve_p50_ms": trial_s * 1e3,
        "cold_solve_p90_ms": percentile(walls, 90) * 1e3,
    })


def _traced(run: Run, off: Tracer) -> None:
    from repro.profiling import profile_phases

    untraced = _trial(run, 0, off, nullcontext())["wall"]
    tracer = Tracer(True, f"trial-5e6-{run.seed}")
    traced = _trial(run, 0, tracer, profile_phases(trace=True))
    prof = traced["profile"]
    run.tracer = tracer

    # The spans' self times must partition the traced wall time.
    accounted = sum(tracer.self_times().values())
    run.expect(
        abs(accounted - traced["wall"]) <= 0.01 * traced["wall"],
        f"span self times sum to {accounted:.3f}s of a "
        f"{traced['wall']:.3f}s traced trial",
    )
    durations = {s["name"]: s["end"] - s["start"] for s in tracer.spans}
    wall = prof.wall_s
    peak = prof.peak_bytes
    csr_s = wall.get("csr_build", 0.0)
    engine_s = wall.get("engine", 0.0)
    edges = traced["directed_edges"]
    awake = traced["awake_node_rounds"]
    run.metrics.update({
        "graphs.arrays.sample_s": wall.get("sample", 0.0),
        "graphs.arrays.sample_chunks": prof.calls.get("sample", 0),
        "sim.fast_engine.csr_build_s": csr_s,
        "sim.fast_engine.csr_build_peak_mb": peak.get("csr_build", 0) / 1e6,
        "sim.fast_engine.directed_edges": edges,
        "sim.fast_engine.csr_ns_per_edge": csr_s / max(edges, 1) * 1e9,
        "sim.fast_engine.engine_s": engine_s,
        "sim.fast_engine.engine_peak_mb": peak.get("engine", 0) / 1e6,
        "sim.fast_engine.awake_node_rounds": awake,
        "sim.fast_engine.ns_per_awake_node_round":
            engine_s / max(awake, 1) * 1e9,
        "sim.array_result.result_build_s": wall.get("result_build", 0.0),
        "sim.array_result.result_nbytes": traced["result_nbytes"],
        "graphs.validation.validate_s": durations[SPAN_VALIDATE],
        "trace.overhead_s": traced["wall"] - untraced,
    })
