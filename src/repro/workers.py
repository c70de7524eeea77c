"""The package's one process pool: kill-isolated workers fed over pipes.

Batch trial chunks (:func:`repro.sim.batch.iter_trials`), claimed sweep
trials (:func:`repro.sweeps.runner.run_sweep`) and service solves
(:mod:`repro.service`) all fan out here.  A job is a picklable
module-level callable plus its arguments.  It runs in a worker
*process* (a SIGKILLed or wedged job must never take the caller down),
each fed by a parent-side serving thread over a pipe:

* **bounded queue** -- :meth:`WorkerPool.submit` counts queued-plus-
  running jobs against ``max_queue`` and raises :class:`PoolSaturated`
  past it (the service's 429); :meth:`WorkerPool.ordered` uses the same
  bound as its in-flight window.
* **kill isolation + respawn** -- a worker that dies mid-job (SIGKILL,
  OOM, a segfaulting extension) fails *that one job* with the
  ``worker_killed`` code; the serving thread respawns it and keeps
  draining the queue, and every other in-flight job keeps running.
* **warm workers** -- workers persist across jobs, so per-process
  caches (the service executor's scratch and graph LRU) pay off.
* **deadline hooks** -- a job carries ``deadline_at``; one that expires
  while queued fails without executing, and the service's reaper calls
  :meth:`WorkerPool.request_kill` on running jobs past it.

A job that raises comes back as ``("raised", exc, "{type}: {msg}")``
with the worker's exception object, or a :class:`RuntimeError` carrying
that text when the object would not survive the pipe.  The pool is
synchronous (stdlib threads + pipes); :meth:`WorkerPool.submit_async`
bridges completions onto an ``asyncio`` loop.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import pickle
import queue
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Jobs in flight per worker when batches and sweeps fan out (their pools
#: use ``max_queue = WINDOW_PER_WORKER * workers``): one running, one
#: queued keeps every worker fed while bounding driver memory and the
#: claims a dying sweep driver leaves behind.
WINDOW_PER_WORKER = 2


class PoolSaturated(RuntimeError):
    """Queue depth hit ``max_queue``; the caller should shed load (429)."""


class PoolJob:
    """One unit of pool work and its eventual outcome.

    ``outcome`` is ``("ok", value)``, ``("raised", exc, "{type}: {msg}")``
    for a job that raised, or ``("error", code, message)`` for one the
    pool could not finish (``worker_killed`` or ``deadline_exceeded``);
    ``state`` walks ``queued -> running -> done``.  ``wait()`` blocks a
    synchronous caller; async callers await
    :meth:`WorkerPool.submit_async`.
    """

    def __init__(
        self,
        job_id: str,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        deadline_s: Optional[float],
    ) -> None:
        self.job_id = job_id
        self.fn = fn
        self.args = args
        self.deadline_s = deadline_s
        self.deadline_at = (
            None if deadline_s is None else time.monotonic() + deadline_s
        )
        self.state = "queued"
        self.kill_reason: Optional[str] = None
        self.worker: Optional["_Worker"] = None
        self.outcome: Optional[Tuple] = None
        self._done = threading.Event()
        self._cb_lock = threading.Lock()
        self._callbacks: List[Any] = []

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline_at is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline_at

    def add_done_callback(self, callback) -> None:
        """``callback(job)`` on completion (already-done jobs fire now)."""
        with self._cb_lock:
            if not self._done.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    def wait(self, timeout: Optional[float] = None) -> Tuple:
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} did not finish within {timeout}s"
            )
        return self.outcome

    def _finish(self, outcome: Tuple) -> None:
        with self._cb_lock:
            self.state = "done"
            self.outcome = outcome
            callbacks, self._callbacks = self._callbacks, []
            self._done.set()
        for callback in callbacks:
            callback(self)


def _raised(exc: BaseException) -> Tuple[str, BaseException, str]:
    """The ``raised`` outcome for ``exc``: the object itself when it
    survives a pickle round trip, else a :class:`RuntimeError` with the
    same ``"{type}: {msg}"`` text."""
    text = f"{type(exc).__name__}: {exc}"
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = RuntimeError(text)
    return ("raised", exc, text)


def _worker_main(conn, parent_pid: int) -> None:  # pragma: no cover - child
    """Worker loop: ``(fn, args) -> ("ok", value) | ("raised", ...)``.

    Exits on a ``None`` message, a closed pipe, or a dead parent (an
    orphan polls ``getppid``, so a SIGKILLed driver leaves no workers).
    """
    while True:
        try:
            while not conn.poll(0.5):
                if os.getppid() != parent_pid:
                    return
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        fn, args = message
        try:
            reply: Tuple = ("ok", fn(*args))
        except Exception as exc:
            reply = _raised(exc)
        try:
            conn.send(reply)
        except (EOFError, OSError):
            return
        except Exception as exc:  # a return value that does not pickle
            conn.send(_raised(exc))


class _Worker:
    """One worker process plus its parent-side pipe end."""

    def __init__(self, ctx) -> None:
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn, os.getpid()), daemon=True
        )
        self.process.start()
        child_conn.close()

    def alive(self) -> bool:
        return self.process.is_alive()

    def close(self) -> None:
        try:
            self.conn.send(None)
        except (OSError, BrokenPipeError):
            pass
        self.process.join(timeout=1.0)
        if self.process.is_alive():  # pragma: no cover - stubborn worker
            self.process.kill()
            self.process.join(timeout=1.0)
        self.conn.close()


class WorkerPool:
    """``workers`` persistent worker processes behind a bounded queue.

    Construction starts the processes, so a sandbox that forbids them
    fails here with the ``OSError`` callers degrade on.  ``close()`` (or
    leaving a ``with`` block) fails queued jobs and kills running ones,
    so an abandoned fan-out never waits on work nobody reads.
    """

    def __init__(self, workers: int = 1, max_queue: int = 8) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.max_queue = max_queue
        self._ctx = mp.get_context()
        self._queue: "queue.Queue[Optional[PoolJob]]" = queue.Queue()
        self._lock = threading.Lock()
        self._depth = 0  # queued + running
        self._ids = itertools.count(1)
        self._closed = False
        # Counters (health + the zero-recompute spy): ``executed`` counts
        # jobs actually sent to a worker -- a cache hit never moves it.
        self.executed = 0
        self.completed = 0
        self.killed = 0
        self.respawns = 0
        self._running: Dict[str, PoolJob] = {}
        self._workers: List[_Worker] = []
        try:
            for _ in range(workers):
                self._workers.append(_Worker(self._ctx))
        except BaseException:
            for worker in self._workers:
                worker.close()
            raise
        self._threads = [
            threading.Thread(
                target=self._serve, args=(index,), daemon=True,
                name=f"repro-pool-{index}",
            )
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- submission ----------------------------------------------------

    def submit(
        self,
        fn: Callable[..., Any],
        *args: Any,
        deadline_s: Optional[float] = None,
    ) -> PoolJob:
        """Enqueue ``fn(*args)`` (both must pickle, ``fn`` module-level);
        :class:`PoolSaturated` when the queue is full."""
        if self._closed:
            raise RuntimeError("pool is closed")
        with self._lock:
            if self._depth >= self.max_queue:
                raise PoolSaturated(
                    f"worker queue is full ({self._depth}/{self.max_queue} "
                    f"jobs in flight); retry later"
                )
            self._depth += 1
        job = PoolJob(f"j{next(self._ids)}", fn, args, deadline_s)
        self._queue.put(job)
        return job

    async def submit_async(
        self,
        fn: Callable[..., Any],
        *args: Any,
        deadline_s: Optional[float] = None,
    ) -> Tuple:
        """``submit`` + await the outcome on the calling asyncio loop."""
        import asyncio

        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Tuple]" = loop.create_future()
        job = self.submit(fn, *args, deadline_s=deadline_s)

        def on_done(finished: PoolJob) -> None:
            loop.call_soon_threadsafe(
                lambda: future.done() or future.set_result(finished.outcome)
            )

        job.add_done_callback(on_done)
        return await future

    def ordered(
        self, calls: Iterable[Tuple[Any, Callable[..., Any], Tuple[Any, ...]]]
    ) -> Iterator[Tuple[Any, Tuple]]:
        """Run ``(tag, fn, args)`` calls, yielding ``(tag, outcome)`` in
        call order with at most ``max_queue`` in flight.  ``calls`` is
        drawn lazily, only when the window has room, so a caller that
        claims work inside it holds at most ``max_queue`` claims."""
        pending: deque = deque()
        for tag, fn, args in calls:
            pending.append((tag, self.submit(fn, *args)))
            if len(pending) >= self.max_queue:
                tag, job = pending.popleft()
                yield tag, job.wait()
        while pending:
            tag, job = pending.popleft()
            yield tag, job.wait()

    # -- introspection / control ---------------------------------------

    def running_jobs(self) -> List[PoolJob]:
        with self._lock:
            return list(self._running.values())

    def request_kill(self, job: PoolJob, reason: str) -> bool:
        """Kill the worker executing ``job`` (reaper entry point).

        Records ``reason`` as the job's failure code first, so the
        serving thread reports ``deadline_exceeded`` rather than the
        generic ``worker_killed`` when the death was deliberate.
        """
        with self._lock:
            if job.job_id not in self._running or job.kill_reason is not None:
                return False
            job.kill_reason = reason
            worker = job.worker
        if worker is not None:
            worker.process.kill()
        return True

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {
                "executed": self.executed,
                "completed": self.completed,
                "killed": self.killed,
                "respawns": self.respawns,
                "queue_depth": self._depth,
                "workers": len(self._workers),
                "alive_workers": sum(w.alive() for w in self._workers),
            }

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            running = list(self._running.values())
        for job in running:
            job.worker.process.kill()
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=2.0)
        for worker in self._workers:
            worker.close()

    # -- the per-worker serving loop -----------------------------------

    def _serve(self, index: int) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            if job.expired():
                # Never executed: fail from the queue without burning a
                # worker on a request whose client already gave up.
                outcome: Tuple = (
                    "error",
                    "deadline_exceeded",
                    f"job {job.job_id} spent its {job.deadline_s}s "
                    f"deadline queued (queue depth {self._depth}); "
                    f"retry with a longer deadline or when the queue drains",
                )
            else:
                outcome = self._execute(index, job)
            with self._lock:
                self._depth -= 1
                if outcome[0] == "ok":
                    self.completed += 1
            job._finish(outcome)

    def _execute(self, index: int, job: PoolJob) -> Tuple:
        """Run ``job`` on worker ``index``; a worker death fails only this
        job, and the worker is respawned unless the pool is closing."""
        cancelled = ("error", "worker_killed",
                     f"job {job.job_id} was cancelled: the pool closed")
        try:
            if not self._closed and not self._workers[index].alive():
                self._respawn(index)
        except OSError as exc:
            return ("error", "worker_killed",
                    f"no worker could start job {job.job_id}: {exc}")
        worker = self._workers[index]
        with self._lock:
            if self._closed:
                return cancelled
            job.state = "running"
            job.worker = worker
            self._running[job.job_id] = job
            self.executed += 1
        try:
            worker.conn.send((job.fn, job.args))
            outcome = self._await_worker(worker)
        except (OSError, EOFError):
            outcome = None  # died between send and first poll
        with self._lock:
            self._running.pop(job.job_id, None)
            if outcome is None:
                self.killed += 1
        if outcome is not None:
            return outcome
        if self._closed:
            return cancelled
        reason = job.kill_reason or "worker_killed"
        if reason == "deadline_exceeded":
            message = (
                f"job {job.job_id} exceeded its {job.deadline_s}s "
                f"deadline and was reaped"
            )
        else:
            message = (
                f"worker executing job {job.job_id} died mid-job; it was "
                f"respawned and the pool keeps serving -- retry the job"
            )
        try:
            self._respawn(index)
        except OSError:  # the worker's next job retries and reports it
            pass
        return ("error", reason, message)

    @staticmethod
    def _await_worker(worker: _Worker) -> Optional[Tuple]:
        """The worker's reply; ``None`` means it died first."""
        while not worker.conn.poll(0.02):
            if not worker.alive():
                if not worker.conn.poll(0):  # a reply can race the death
                    return None
                break
        try:
            return worker.conn.recv()
        except (EOFError, OSError):
            return None
        except Exception as exc:  # a reply that does not unpickle here
            return _raised(exc)

    def _respawn(self, index: int) -> None:
        self._workers[index].conn.close()
        worker = _Worker(self._ctx)
        with self._lock:
            self._workers[index] = worker
            self.respawns += 1
