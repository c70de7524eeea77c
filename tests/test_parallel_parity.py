"""Process-pool parity: ``n_jobs=2`` must be bit-identical to sequential.

Promoted from a CI-only smoke step into a real tier-1 test: the batch
runner's worker-pool path must produce *exactly* the rows and result
columns the sequential path produces -- across both engines and both RNG
stream formats -- because parallelism is a scheduling knob, never a
measurement knob.  The same parity holds when the pool cannot start at
all (process start raises ``OSError``, as in restricted sandboxes): the
runners warn and degrade to in-process execution.  Skipped on single-CPU
runners, where a process pool adds nothing but flake surface; CI runners
have the cores and run it every push.
"""

import multiprocessing.process
import os

import numpy as np
import pytest

from repro.analysis.complexity import sweep
from repro.graphs.arrays import make_family
from repro.plan import RunPlan
from repro.sim.batch import run_trials

pytestmark = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="process-pool parity needs >= 2 CPUs (runs in CI)",
)

SIZES = (200,)
TRIALS = 4

ENGINE_RNG = [
    ("generators", "pernode"),
    ("generators", "batched"),
    ("vectorized", "pernode"),
    ("vectorized", "batched"),
]


def _plan(engine, rng):
    return RunPlan(
        algorithm="sleeping", family="gnp-sparse",
        engine=engine, rng=rng,
        graph_rng="batched", graph_source="auto",
    )


@pytest.mark.parametrize("engine,rng", ENGINE_RNG)
def test_sweep_rows_bit_identical(engine, rng):
    plan = _plan(engine, rng)
    seq = sweep(plan=plan, sizes=SIZES, trials=TRIALS, seed0=0)
    par = sweep(
        plan=plan.replace(n_jobs=2), sizes=SIZES, trials=TRIALS, seed0=0,
    )
    assert par == seq
    assert all(row.valid for row in par)


@pytest.mark.parametrize("engine,rng", ENGINE_RNG)
def test_run_trials_results_bit_identical(engine, rng):
    """Beyond the flattened rows: the full per-node result columns."""
    plan = _plan(engine, rng).replace(
        n=SIZES[0],
        result="arrays" if engine == "vectorized" else "legacy",
    )
    seeds = list(range(TRIALS))
    factory = lambda s: make_family(  # noqa: E731
        plan.family, plan.n, seed=s, graph_source="arrays",
        graph_rng="batched",
    )
    seq = run_trials(factory, seeds=seeds, plan=plan)
    par = run_trials(factory, seeds=seeds, plan=plan.replace(n_jobs=2))
    assert len(seq) == len(par) == TRIALS
    for one, two in zip(seq, par):
        assert one.rounds == two.rounds
        assert one.seed == two.seed
        if plan.result == "arrays":
            assert list(one.node_ids) == list(two.node_ids)
            for column in (
                "in_mis", "awake_rounds", "sleep_rounds", "tx_rounds",
                "rx_rounds", "idle_rounds", "messages_sent", "bits_sent",
                "messages_received", "decision_round",
                "awake_at_decision", "finish_round",
            ):
                assert np.array_equal(
                    getattr(one, column), getattr(two, column)
                ), f"column {column} diverged under n_jobs=2"
        else:
            assert one.mis == two.mis
            assert one.node_stats == two.node_stats
            assert one.outputs == two.outputs


def test_sweep_frontier_parallel_parity(tmp_path):
    """A 2-worker frontier sweep merges to the sequential byte string."""
    from repro.sweeps import (
        SweepManifest, TrialFrontier, merged_result_json, run_sweep,
    )

    manifest = SweepManifest.expand(
        _plan("vectorized", "batched").replace(result="arrays"),
        sizes=SIZES, trials=TRIALS, name="parity",
    )
    seq = TrialFrontier.create(tmp_path / "seq", manifest)
    assert run_sweep(seq).all_done
    par = TrialFrontier.create(tmp_path / "par", manifest)
    report = run_sweep(par, n_jobs=2)
    assert report.all_done and report.executed == len(manifest)
    assert merged_result_json(par) == merged_result_json(seq)


@pytest.fixture
def refuse_process_start(monkeypatch):
    """Every worker process start fails, as in a sandbox without fork."""

    def refuse(self):
        raise OSError("process start refused")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)


@pytest.mark.parametrize("engine,rng", ENGINE_RNG)
def test_degraded_pool_sweep_rows_bit_identical(
    engine, rng, refuse_process_start
):
    with pytest.warns(RuntimeWarning, match="pool unavailable"):
        test_sweep_rows_bit_identical(engine, rng)


@pytest.mark.parametrize("engine,rng", ENGINE_RNG)
def test_degraded_pool_run_trials_bit_identical(
    engine, rng, refuse_process_start
):
    with pytest.warns(RuntimeWarning, match="pool unavailable"):
        test_run_trials_results_bit_identical(engine, rng)


def test_degraded_pool_sweep_frontier_parity(tmp_path, refuse_process_start):
    with pytest.warns(RuntimeWarning, match="pool unavailable"):
        test_sweep_frontier_parallel_parity(tmp_path)
