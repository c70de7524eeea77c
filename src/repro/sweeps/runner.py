"""Drain a trial frontier: claim, execute, record -- resumably.

:func:`run_sweep` is the worker/driver loop over a
:class:`~repro.sweeps.frontier.TrialFrontier`: expire stale claims,
re-issue failures, then claim -> execute -> ``done``/``fail`` until the
frontier is drained, the time budget is spent, or ``max_trials`` is hit.
Execution rides the exact measurement path of
:func:`repro.analysis.complexity.sweep` -- the same
:func:`~repro.graphs.arrays.make_family` graph factory (through
:meth:`~repro.plan.RunPlan.build_graph`), the same
:func:`~repro.sim.batch.run_planned_trial` every batch trial runs, the same
:func:`~repro.analysis.complexity.trial_from_result` flattening -- so a
manifest sweep's merged rows are bit-identical to a plain ``sweep()``
call over the same grid.

Parallel execution (``n_jobs > 1``) submits ``execute_trial(plan,
seed)`` for each claimed trial to the package's one process pool
(:class:`repro.workers.WorkerPool`) through its bounded in-flight window
(:meth:`~repro.workers.WorkerPool.ordered`), so at most
``WINDOW_PER_WORKER`` claims per worker are outstanding.  A trial that
raises is ``fail``-ed with its ``"{type}: {msg}"`` text; a worker that
dies mid-trial (SIGKILL, OOM) fails only that trial, with the pool's
``worker_killed`` message -- the pool respawns the worker, every other
in-flight trial keeps running, and the next ``run_sweep`` re-issues the
failure (``retry_failed=True``).  Only a pool that cannot start at all
(sandboxes) degrades to in-process execution, with a
``RuntimeWarning``.

Fault injection (for the crash-resume test harness and the CI
kill/resume step) is driven by the ``REPRO_SWEEP_FAULT`` environment
variable -- ``raise:<key substring>`` raises inside the matching trial,
``sigkill:<key substring>`` SIGKILLs the executing process (a pool
worker under ``n_jobs > 1`` -- the trial fails and the driver carries
on -- the driver itself otherwise), and
``driver-sigkill:<k>`` SIGKILLs the driver after ``k`` completions --
plus an in-process ``fault_hook`` callable for tests that want a spy or
a one-shot exception without touching the environment.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import time
import warnings
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from ..plan import RunPlan
from .frontier import TrialFrontier
from .manifest import TrialSpec, trial_key
from .merge import (
    merge_trial_artifacts,
    merged_json as _merged_json,
)

#: Environment hook for fault injection (see module docstring).
FAULT_ENV = "REPRO_SWEEP_FAULT"


class SweepFaultInjected(RuntimeError):
    """The error raised by ``REPRO_SWEEP_FAULT=raise:...`` injection."""


def _maybe_inject_fault(key: str) -> None:
    """Apply the ``REPRO_SWEEP_FAULT`` trial-level hook, if armed."""
    spec = os.environ.get(FAULT_ENV, "")
    action, _, match = spec.partition(":")
    if action not in ("raise", "sigkill") or match not in key:
        return
    if action == "raise":
        raise SweepFaultInjected(
            f"injected fault for trial {key!r} ({FAULT_ENV}={spec!r})"
        )
    os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover - dies here


def execute_trial(plan: RunPlan, seed: int) -> Dict[str, Any]:
    """Run one manifest trial; returns its result artifact payload.

    The payload embeds the serialized plan and seed (so artifacts are
    self-describing and ``check_artifacts.py`` can re-validate them),
    the flattened :class:`~repro.analysis.complexity.Trial` row (the
    measured series -- deterministic given ``(plan, seed)``), and the
    wall clock (stripped from every comparison).
    """
    from ..analysis.complexity import trial_from_result
    from ..sim.batch import run_planned_trial

    key = trial_key(plan, seed)
    _maybe_inject_fault(key)
    start = time.perf_counter()
    result = run_planned_trial(plan.build_graph(seed), plan, seed)
    row = trial_from_result(
        result, plan.algorithm, family=plan.family, seed=seed
    )
    return {
        "trial_key": key,
        "plan": plan.to_dict(),
        "seed": seed,
        "row": asdict(row),
        "wall_clock_s": time.perf_counter() - start,
    }


@dataclass
class SweepReport:
    """What one :func:`run_sweep` call did (and what remains).

    ``executed`` counts trials this call actually computed (the
    zero-recompute guarantee: re-running a completed manifest reports
    ``executed == 0``); ``skipped_done`` counts trials already done when
    the call started.
    """

    total: int = 0
    executed: int = 0
    completed: int = 0
    failed: int = 0
    skipped_done: int = 0
    reissued_failed: int = 0
    expired_claims: int = 0
    remaining: int = 0
    budget_exhausted: bool = False
    wall_clock_s: float = 0.0
    errors: List[str] = field(default_factory=list)

    @property
    def all_done(self) -> bool:
        return self.remaining == 0

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


def _driver_kill_threshold() -> Optional[int]:
    spec = os.environ.get(FAULT_ENV, "")
    action, _, arg = spec.partition(":")
    if action == "driver-sigkill":
        try:
            return int(arg)
        except ValueError:
            raise ValueError(
                f"{FAULT_ENV}={spec!r}: driver-sigkill needs an integer "
                f"completion count, e.g. driver-sigkill:3"
            ) from None
    return None


def run_sweep(
    frontier: TrialFrontier,
    *,
    n_jobs: Optional[int] = None,
    budget_s: Optional[float] = None,
    max_trials: Optional[int] = None,
    worker: Optional[str] = None,
    retry_failed: bool = True,
    fault_hook: Optional[Callable[[TrialSpec], None]] = None,
) -> SweepReport:
    """Drain ``frontier`` until done, out of budget, or out of trials.

    Safe to call repeatedly and concurrently (several drivers on one
    directory): claims are atomic, completions idempotent.  ``budget_s``
    bounds *claiming*, not execution -- in-flight trials finish, so a
    budgeted CI run leaves no dangling claims behind on a clean exit.
    ``fault_hook`` runs in-process before each execution (tests use it
    as a spy counter or a one-shot exception injector).
    """
    start = time.monotonic()
    if worker is None:
        worker = f"{socket.gethostname()}:{os.getpid()}"
    if n_jobs is not None and n_jobs < 1:
        raise ValueError(
            f"n_jobs={n_jobs} is not a valid worker count: pass "
            f"n_jobs=None (or 1) for in-process execution, or an "
            f"explicit positive worker count"
        )
    report = SweepReport(total=len(frontier.manifest))
    report.expired_claims = len(frontier.expire_stale())
    if retry_failed:
        report.reissued_failed = len(frontier.reissue_failed())
    report.skipped_done = sum(
        1 for key in frontier.manifest.keys()
        if frontier._recorded.get(key) == "done"
    )
    kill_after = _driver_kill_threshold()

    def out_of_budget() -> bool:
        return (
            budget_s is not None
            and time.monotonic() - start >= budget_s
        )

    def out_of_trials() -> bool:
        return max_trials is not None and report.executed >= max_trials

    def record(key: str, payload: Dict[str, Any]) -> None:
        frontier.done(key, payload, worker=worker)
        report.completed += 1
        if kill_after is not None and report.completed >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover

    def record_failure(key: str, message: str) -> None:
        frontier.fail(key, message, worker=worker)
        report.failed += 1
        report.errors.append(f"{key}: {message}")

    def claims() -> Iterator[TrialSpec]:
        # Under a pool this is drawn lazily by its window: a claim is
        # taken only when a slot is free.
        while not out_of_budget() and not out_of_trials():
            spec = frontier.claim(worker)
            if spec is None:
                return
            report.executed += 1
            try:
                if fault_hook is not None:
                    fault_hook(spec)
            except Exception as exc:
                record_failure(spec.key, f"{type(exc).__name__}: {exc}")
            else:
                yield spec

    pool = None
    if n_jobs is not None and n_jobs > 1:
        from ..workers import WINDOW_PER_WORKER, WorkerPool

        try:
            pool = WorkerPool(
                workers=n_jobs, max_queue=WINDOW_PER_WORKER * n_jobs
            )
        except OSError as exc:
            warnings.warn(
                f"process pool unavailable ({exc}); running sequentially",
                RuntimeWarning,
                stacklevel=2,
            )
    if pool is None:
        for spec in claims():
            try:
                payload = execute_trial(spec.plan, spec.seed)
            except Exception as exc:
                record_failure(spec.key, f"{type(exc).__name__}: {exc}")
            else:
                record(spec.key, payload)
    else:
        with pool:
            calls = (
                (spec.key, execute_trial, (spec.plan, spec.seed))
                for spec in claims()
            )
            for key, outcome in pool.ordered(calls):
                if outcome[0] == "ok":
                    record(key, outcome[1])
                elif outcome[0] == "raised":
                    record_failure(key, outcome[2])
                else:  # the worker died; the pool respawned it
                    record_failure(key, f"{outcome[1]}: {outcome[2]}")
    report.budget_exhausted = out_of_budget()
    report.remaining = sum(
        1 for key in frontier.manifest.keys()
        if frontier._recorded.get(key) != "done"
    )
    report.wall_clock_s = time.monotonic() - start
    return report


def merged_rows(frontier: TrialFrontier) -> Dict[str, Dict[str, Any]]:
    """Merge-verify every landed artifact: ``key -> stripped payload``."""
    return merge_trial_artifacts(frontier.iter_results())


def merged_result_json(frontier: TrialFrontier) -> str:
    """The canonical merged result set (see :func:`repro.sweeps.merge.merged_json`).

    Byte-identical between an interrupted-then-resumed sweep and an
    uninterrupted one -- the comparison surface of the crash-resume
    guarantee.
    """
    return _merged_json(merged_rows(frontier))


def write_merged(frontier: TrialFrontier, path: Optional[str] = None) -> str:
    """Write the canonical merged result set next to the frontier.

    Returns the path written (default: ``<sweep_dir>/MERGED.json``).
    Only meaningful once :attr:`~TrialFrontier.is_complete` for
    publication, but callable any time for partial snapshots.
    """
    target = path or str(frontier.directory / "MERGED.json")
    merged = merged_rows(frontier)
    with open(target, "w") as handle:
        json.dump(
            {
                "manifest_key": frontier.manifest.manifest_key(),
                "name": frontier.manifest.name,
                "done": len(merged),
                "total": len(frontier.manifest),
                "trials": {key: merged[key] for key in sorted(merged)},
            },
            handle,
            sort_keys=True,
            indent=1,
        )
        handle.write("\n")
    return target
