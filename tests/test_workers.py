"""The package's one process pool (:mod:`repro.workers`) and the errors
that cross it.

Batch trials, sweep trials and service solves all fan out through
:class:`repro.workers.WorkerPool`, so its contract is pinned here once:
a job's exception comes back as the same exception (or a
``RuntimeError`` with its text when it cannot cross the pipe), a killed
worker fails only its own job and is respawned, ``ordered`` keeps call
order, and ``close`` never waits on abandoned work.  The simulator's
errors must survive the pickle round trip for the first of those to
hold for them.
"""

import inspect
import os
import pickle
import signal
import time
import warnings

import networkx as nx
import pytest

from repro.plan import RunPlan
from repro.sim import errors
from repro.sim.batch import run_trials
from repro.sim.errors import MaxRoundsExceededError
from repro.workers import WorkerPool


class Unpicklable(Exception):
    def __init__(self, code, text):
        super().__init__(text)
        self.code = code


def _square(x):
    return x * x


def _sleep_then(x, seconds):
    time.sleep(seconds)
    return x


def _raise_max_rounds():
    raise MaxRoundsExceededError(7, 3)


def _raise_unpicklable():
    raise Unpicklable("c", "no way back")


def _suicide():
    os.kill(os.getpid(), signal.SIGKILL)


ERROR_INSTANCES = {
    errors.SimulationError: errors.SimulationError("boom"),
    errors.ProtocolError: errors.ProtocolError("bad action"),
    errors.CongestViolationError: errors.CongestViolationError(1, 2, 99, 64),
    errors.MaxRoundsExceededError: errors.MaxRoundsExceededError(10, 4),
}


def test_every_simulator_error_round_trips_through_pickle():
    classes = {
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, Exception) and cls.__module__ == errors.__name__
    }
    assert classes == set(ERROR_INSTANCES)
    for cls, exc in ERROR_INSTANCES.items():
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc)
        assert vars(back) == vars(exc)


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(workers=2, max_queue=4) as one:
        yield one


def test_ordered_keeps_call_order(pool):
    calls = [(x, _sleep_then, (x, 0.02 * (x % 3))) for x in range(9)]
    assert [(tag, outcome) for tag, outcome in pool.ordered(calls)] == [
        (x, ("ok", x)) for x in range(9)
    ]


def test_job_exception_comes_back_as_itself(pool):
    outcome = pool.submit(_raise_max_rounds).wait(30)
    assert outcome[0] == "raised"
    assert isinstance(outcome[1], MaxRoundsExceededError)
    assert (outcome[1].max_rounds, outcome[1].unfinished) == (7, 3)
    assert outcome[2] == f"MaxRoundsExceededError: {outcome[1]}"


def test_unpicklable_exception_becomes_runtime_error(pool):
    outcome = pool.submit(_raise_unpicklable).wait(30)
    assert outcome[0] == "raised"
    assert type(outcome[1]) is RuntimeError
    assert str(outcome[1]) == outcome[2] == "Unpicklable: no way back"


def test_killed_worker_fails_only_its_job():
    with WorkerPool(workers=2, max_queue=4) as pool:
        slow = pool.submit(_sleep_then, "slow", 0.5)
        time.sleep(0.1)
        killed = pool.submit(_suicide).wait(30)
        assert killed[:2] == ("error", "worker_killed")
        assert "respawned" in killed[2]
        assert slow.wait(30) == ("ok", "slow")
        assert pool.submit(_square, 5).wait(30) == ("ok", 25)
        counters = pool.counters()
        assert counters["killed"] == counters["respawns"] == 1
        assert counters["alive_workers"] == 2


def test_close_cancels_abandoned_work_promptly():
    pool = WorkerPool(workers=1, max_queue=3)
    running = pool.submit(_sleep_then, 0, 60)
    queued = pool.submit(_square, 3)
    time.sleep(0.1)
    start = time.monotonic()
    pool.close()
    assert time.monotonic() - start < 5
    for job in (running, queued):
        outcome = job.wait(5)
        assert outcome[:2] == ("error", "worker_killed")
        assert "pool closed" in outcome[2]


def test_run_trials_reraises_trial_error_without_degrading():
    graph = nx.gnp_random_graph(200, 0.05, seed=1)
    plan = RunPlan(algorithm="luby", max_rounds=2, n_jobs=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(MaxRoundsExceededError) as info:
            run_trials(graph, seeds=range(4), plan=plan)
    assert info.value.max_rounds == 2


def test_run_trials_degrades_when_a_worker_dies(monkeypatch):
    """A worker killed mid-chunk: the remaining seeds run in-process,
    bit-identical to a sequential run, with the degrade warning."""
    from repro.sim import batch

    driver = os.getpid()
    real = batch.run_planned_trial

    def die_on_seed_5(graph, plan, seed, **kwargs):
        if seed == 5 and os.getpid() != driver:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(graph, plan, seed, **kwargs)

    # Workers fork from this process, so they inherit the patch.
    monkeypatch.setattr(batch, "run_planned_trial", die_on_seed_5)
    graph = nx.gnp_random_graph(120, 0.05, seed=3)
    plan = RunPlan(algorithm="sleeping", engine="vectorized")
    sequential = run_trials(graph, seeds=range(8), plan=plan)
    with pytest.warns(RuntimeWarning, match="pool unavailable"):
        parallel = run_trials(
            graph, seeds=range(8), plan=plan.replace(n_jobs=2)
        )
    assert [r.seed for r in parallel] == list(range(8))
    for one, two in zip(sequential, parallel):
        assert one.mis == two.mis and one.node_stats == two.node_stats


def test_run_sweep_records_trial_errors_without_degrading(tmp_path):
    from repro.sweeps import (
        FAILED, SweepManifest, TrialFrontier, run_sweep,
    )

    manifest = SweepManifest.expand(
        RunPlan(algorithm="luby", family="gnp-sparse", max_rounds=2),
        sizes=(200,), trials=3, name="max-rounds",
    )
    frontier = TrialFrontier.create(tmp_path / "s", manifest)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_sweep(frontier, n_jobs=2)
    assert report.executed == report.failed == len(manifest)
    assert set(frontier.states().values()) == {FAILED}
    for line in report.errors:
        assert ": MaxRoundsExceededError: simulation exceeded 2 rounds" in line
