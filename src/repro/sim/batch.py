"""Batch trial runner: many ``(graph, seed)`` executions, optionally parallel.

The paper's results are statistical -- every figure and table averages over
many trials -- so the measurement loop, not any single run, is the hot
path.  :func:`iter_trials` streams one :class:`RunResult` per seed, in seed
order; :func:`run_trials` is the list-returning convenience wrapper.

Every trial in the package -- these two, ``solve_mis``, ``run_trial``, the
sweep and service executors -- is one call of :func:`run_planned_trial`:
the only code that turns a :class:`repro.plan.RunPlan` into an engine
call (engine and result-kind resolution, ``dtype``, ``max_rounds``,
``congest_bit_limit``, protocol kwargs).  A new plan field is threaded
there once.  Trials run on a vectorized engine
(:mod:`repro.sim.fast_engine` for the sleeping algorithms,
:mod:`repro.sim.fast_phased` for the four phased baselines) whenever it
supports the configuration, falling back to the generator engine
otherwise (``engine="auto"``); ``result="arrays"`` (or ``"auto"``) keeps
each trial's statistics as numpy columns
(:class:`repro.sim.array_result.ArrayRunResult`) instead of per-node
dicts.  Around that primitive the runner layers three optimizations over
naive sequential calls:

* **graph-structure reuse** -- consecutive seeds sharing one graph object
  normalize it once and share one
  :class:`repro.sim.fast_engine.GraphArrays`;
* **scratch reuse** -- sequential vectorized trials borrow their state
  arrays from one :class:`repro.sim.fast_engine.EngineScratch`, so a
  10^4-trial sweep does not reallocate a dozen node-sized buffers per
  trial;
* **streaming** -- graphs are built and results yielded one seed at a
  time, so a 10^4..10^7-node sweep holds one graph and one result in
  memory, not ``len(seeds)`` of each (at 10^7 the graph itself also
  builds in bounded transient memory: the v2 sampler streams its pair
  chunks through :meth:`GraphArrays.from_distinct_pair_chunks` instead
  of buffering them -- see docs/performance.md, "Scaling to 10^7").
  With ``n_jobs`` workers, ``(graph, plan, seeds)`` chunks fan out over
  the package's one process pool (:class:`repro.workers.WorkerPool`,
  through its bounded in-flight window :meth:`~repro.workers.WorkerPool.ordered`);
  graphs cross process boundaries as normalized adjacency dicts or as
  :class:`GraphArrays` whose edge arrays pickle without the (lazily
  rebuilt) adjacency dict.  A trial that raises in a worker re-raises
  its own exception here.  If the pool cannot be started (restricted
  sandboxes) or a worker dies, the runner degrades to sequential
  execution for the remaining seeds instead of failing;
  ``tests/test_parallel_parity.py`` pins ``n_jobs=2`` and the degrade
  path bit-identical to the sequential path.
"""

from __future__ import annotations

import warnings
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from ..profiling import phase
from . import fast_engine
from .array_result import ArrayRunResult, resolve_result_kind
from .fast_engine import (
    PHASED_ALGORITHMS,
    EngineScratch,
    GraphArrays,
    VectorizedEngine,
)
from .fast_phased import PhasedVectorizedEngine
from .metrics import RunResult
from .network import Simulator, normalize_graph
from .rng import DEFAULT_STREAM

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..plan import RunPlan

#: What one trial yields: the legacy dict-backed result or the
#: struct-of-arrays result, depending on ``result=``.
ResultLike = Union[RunResult, ArrayRunResult]

#: Engine names accepted throughout the package.
ENGINES = ("auto", "generators", "vectorized")


def resolve_engine(
    engine: str, algorithm: str, **constraints: Any
) -> str:
    """Map an engine request to the concrete engine that will run.

    ``"auto"`` selects ``"vectorized"`` exactly when
    :func:`repro.sim.fast_engine.supports` certifies the configuration
    against the capability registry
    (:data:`repro.sim.fast_engine.ENGINE_CAPABILITIES`); requesting
    ``"vectorized"`` for an unsupported configuration is an error rather
    than a silent behaviour change, and the error names the
    generator-only reason (an algorithm outside the registry, or a
    generator-only instrumentation feature) -- the support matrix is
    documented in ``docs/performance.md``.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; known: {ENGINES}")
    if engine == "generators":
        return "generators"
    reason = fast_engine.unsupported_reason(algorithm, **constraints)
    if engine == "vectorized" and reason is not None:
        raise ValueError(
            f"vectorized engine cannot run algorithm={algorithm!r}: "
            f"{reason}; use engine='generators', or engine='auto' to fall "
            f"back to the generator engine automatically"
        )
    return "generators" if reason else "vectorized"


def make_vectorized_engine(
    graph: Any,
    algorithm: str,
    *,
    seed: Optional[int] = 0,
    max_rounds: Optional[int] = None,
    rng: str = DEFAULT_STREAM,
    scratch: Optional[EngineScratch] = None,
    result: str = "legacy",
    dtype: str = "default",
    **protocol_kwargs: Any,
):
    """The vectorized engine instance for ``algorithm`` (sleeping or phased).

    ``graph`` may be a prebuilt :class:`GraphArrays`; ``scratch`` an
    :class:`EngineScratch` shared across sequential constructions;
    ``result`` the result kind (:data:`repro.sim.array_result.RESULT_KINDS`)
    the engine's ``run()`` will build; ``dtype`` its column-dtype policy
    (:data:`repro.sim.array_result.DTYPE_KINDS`).

    Construction (per-node RNG seeding, eager coin matrices on the v1
    stream) is attributed to the ``engine`` phase under active profiling.
    """
    cls = (
        PhasedVectorizedEngine
        if algorithm in PHASED_ALGORITHMS
        else VectorizedEngine
    )
    with phase("engine"):
        return cls(
            graph,
            algorithm,
            seed=seed,
            max_rounds=max_rounds,
            rng=rng,
            scratch=scratch,
            result=result,
            dtype=dtype,
            **protocol_kwargs,
        )


def run_planned_trial(
    graph: Any,
    plan: "RunPlan",
    seed: Optional[int],
    *,
    scratch: Optional[EngineScratch] = None,
    trace: Any = None,
) -> ResultLike:
    """One trial of ``plan`` on ``graph`` with ``seed``: the only code that
    turns a :class:`RunPlan` into an engine call.

    Every entry point runs its trials here (``solve_mis``, ``run_trial``,
    :func:`iter_trials` and its pool workers, the sweep and service
    executors), so a plan field is threaded to the engines once.
    ``graph`` is anything the engines accept: a networkx graph, an
    adjacency mapping, or a prebuilt :class:`GraphArrays`.  ``scratch``
    is an :class:`EngineScratch` the caller reuses across sequential
    vectorized trials (ignored on the generator engine).  ``trace`` is a
    live instrumentation object, not configuration: it re-resolves
    ``engine="auto"`` to the generator engine and is rejected under
    ``engine="vectorized"``.

    Both engines run under the ``engine`` phase when profiling is active,
    so phase reports cover either engine.
    """
    protocol_kwargs = plan.protocol_dict()
    engine = resolve_engine(
        plan.engine,
        plan.algorithm,
        trace=trace,
        congest_bit_limit=plan.congest_bit_limit,
        **protocol_kwargs,
    )
    result = resolve_result_kind(plan.result, engine)
    if engine == "vectorized":
        return make_vectorized_engine(
            graph,
            plan.algorithm,
            seed=seed,
            max_rounds=plan.max_rounds,
            rng=plan.rng,
            scratch=scratch,
            result=result,
            dtype=plan.dtype,
            **protocol_kwargs,
        ).run()
    from ..api import make_protocol_factory  # local: avoid import cycle

    with phase("engine"):
        run = Simulator(
            graph,
            make_protocol_factory(plan.algorithm, **protocol_kwargs),
            seed=seed,
            max_rounds=plan.max_rounds,
            congest_bit_limit=plan.congest_bit_limit,
            trace=trace,
            rng=plan.rng,
        ).run()
    if result == "arrays":
        return ArrayRunResult.from_run_result(run, plan.dtype)
    return run


def _prepared(graph: Any, vectorized: bool) -> Any:
    """``graph`` as the trials on it consume it: a :class:`GraphArrays`
    (prebuilt, or built here when the engine is vectorized) or the
    normalized adjacency dict.  A prebuilt :class:`GraphArrays` headed to
    the generator engine keeps its dict view unbuilt until the engine
    asks for it."""
    if isinstance(graph, GraphArrays):
        return graph
    adjacency = normalize_graph(graph)
    return GraphArrays(adjacency) if vectorized else adjacency


def _run_chunk(
    payload: Tuple[Any, "RunPlan", List[Optional[int]]]
) -> List[ResultLike]:
    """Process-pool task: ``(graph, plan, seeds)``, one graph and a chunk
    of seeds.

    ``graph`` is either a normalized adjacency dict or a
    :class:`GraphArrays` shipped with its lazy adjacency unbuilt -- for
    array-native sweeps the int32 edge arrays are both smaller on the
    wire and free to use on arrival (no per-worker re-normalization).
    The worker builds a dict's :class:`GraphArrays` once per chunk."""
    graph, plan, seeds = payload
    vectorized = plan.resolved_engine == "vectorized"
    graph = _prepared(graph, vectorized)
    scratch = EngineScratch() if vectorized else None
    return [
        run_planned_trial(graph, plan, seed, scratch=scratch)
        for seed in seeds
    ]


def _iter_graphs(
    graph_factory: Any, seeds: Iterable[Optional[int]], vectorized: bool
) -> Iterator[Tuple[Any, Optional[int]]]:
    """Yield ``(prepared graph, seed)`` lazily, one graph at a time (see
    :func:`_prepared`).

    Consecutive seeds whose factory returns the *same object* (the
    shared-graph pattern, including non-callable ``graph_factory``) share
    one prepared graph.  A factory may return a prebuilt
    :class:`GraphArrays` to amortize edge-array construction across
    callers (e.g. ``build_table1`` measuring several algorithms on the
    same graphs, or the array-native samplers in
    :mod:`repro.graphs.arrays`).
    """
    factory: Callable[[Optional[int]], Any] = (
        graph_factory if callable(graph_factory) else lambda seed: graph_factory
    )
    prev_graph: Any = object()  # is no factory's output
    prepared: Any = None
    for seed in seeds:
        graph = factory(seed)
        if graph is not prev_graph:
            prepared, prev_graph = _prepared(graph, vectorized), graph
        yield prepared, seed


def iter_trials(
    graph_factory: Any,
    algorithm: Optional[str] = None,
    *,
    seeds: Iterable[Optional[int]] = range(10),
    plan: Optional["RunPlan"] = None,
    n_jobs: Optional[int] = None,
    engine: str = "auto",
    rng: str = DEFAULT_STREAM,
    result: str = "legacy",
    dtype: str = "default",
    max_rounds: Optional[int] = None,
    congest_bit_limit: Optional[int] = None,
    **protocol_kwargs: Any,
) -> Iterator[ResultLike]:
    """Stream one result per seed, in seed order.

    This is the memory-bounded core of :func:`run_trials`: graphs are
    built lazily and each result is handed to the caller before the next
    trial starts, so sweeps can aggregate 10^4-node runs without ever
    holding more than one of them.

    Parameters
    ----------
    graph_factory:
        Either a callable ``seed -> graph`` (fresh graph per trial) or a
        single graph object shared by every trial.  A factory may return
        a prebuilt :class:`GraphArrays` (e.g. from
        :mod:`repro.graphs.arrays`), which skips graph normalization
        entirely on the vectorized path.
    algorithm:
        Name from :func:`repro.api.algorithm_names`; ``None`` means
        ``"fast-sleeping"``.  Next to ``plan=`` any algorithm is a clash
        (the plan names it).
    seeds:
        Master seeds, one trial each (keyword-only).
    plan:
        A pre-validated :class:`repro.plan.RunPlan`; mutually exclusive
        with the loose knob keywords below (``seeds`` stays separate --
        it is the trial grid, not a configuration knob).
    n_jobs:
        ``None`` or ``1`` runs sequentially in-process; ``> 1`` uses that
        many worker processes.  ``0``/negative values are rejected (pass
        ``n_jobs=os.cpu_count()`` explicitly for one worker per CPU).
    engine:
        ``"auto"`` (default), ``"generators"``, or ``"vectorized"``.
    rng:
        Random-stream format: ``"pernode"`` (v1, default) or ``"batched"``
        (v2); see :mod:`repro.sim.rng`.
    result:
        ``"legacy"`` (default) yields :class:`RunResult`; ``"arrays"``
        yields :class:`repro.sim.array_result.ArrayRunResult` (converted
        from the legacy result on the generator engine); ``"auto"`` picks
        arrays exactly on the vectorized engine.
    dtype:
        Result column-dtype policy: ``"default"`` (bit-identical int64
        columns) or ``"narrow"`` (smallest exact dtype per column); see
        :data:`repro.sim.array_result.DTYPE_KINDS`.
    protocol_kwargs:
        Forwarded to the protocol (``coin_bias=``, ``greedy_constant=``,
        ``depth=``, ``max_phases=``).
    """
    from ..plan import ensure_plan

    plan = ensure_plan(
        "iter_trials",
        plan,
        given=dict(
            algorithm=algorithm,
            n_jobs=n_jobs,
            engine=engine,
            rng=rng,
            result=result,
            dtype=dtype,
            max_rounds=max_rounds,
            congest_bit_limit=congest_bit_limit,
            protocol_kwargs=protocol_kwargs,
        ),
        defaults=dict(
            algorithm=None,
            n_jobs=None,
            engine="auto",
            rng=DEFAULT_STREAM,
            result="legacy",
            dtype="default",
            max_rounds=None,
            congest_bit_limit=None,
            protocol_kwargs={},
        ),
    )
    # Plan construction already validated names and combinations; resolve
    # the concrete engine/result once and iterate.
    return _iter_trials_planned(graph_factory, seeds, plan)


def _iter_trials_planned(
    graph_factory: Any,
    seeds: Iterable[Optional[int]],
    plan: "RunPlan",
) -> Iterator[ResultLike]:
    """The generator core behind :func:`iter_trials` (validation happens
    eagerly in the wrapper, not on first ``next()``)."""
    seed_list = list(seeds)
    if not seed_list:
        return
    vectorized = plan.resolved_engine == "vectorized"
    # RunPlan validation guarantees n_jobs is None or >= 1.
    jobs = min(plan.n_jobs or 1, len(seed_list))
    if jobs > 1:
        from ..workers import WINDOW_PER_WORKER, WorkerPool

        done = 0
        try:
            pool = WorkerPool(workers=jobs, max_queue=WINDOW_PER_WORKER * jobs)
        except OSError as exc:
            lost: Optional[str] = str(exc)
        else:
            with pool:
                lost = None
                # Workers build their chunk's GraphArrays themselves, so
                # the driver only normalizes.
                chunks = _iter_chunks(
                    _iter_graphs(graph_factory, seed_list, vectorized=False),
                    plan,
                    target=max(1, len(seed_list) // (jobs * 4) or 1),
                )
                calls = ((None, _run_chunk, (chunk,)) for chunk in chunks)
                for _, outcome in pool.ordered(calls):
                    if outcome[0] == "raised":
                        raise outcome[1]
                    if outcome[0] == "error":  # a worker died
                        lost = outcome[2]
                        break
                    for one in outcome[1]:
                        done += 1
                        yield one
            if lost is None:
                return
        # The pool could not start (sandboxes) or a worker died: degrade
        # to in-process execution for whatever seeds were not yielded.
        warnings.warn(
            f"process pool unavailable ({lost}); running the remaining "
            f"{len(seed_list) - done} trial(s) sequentially",
            RuntimeWarning,
            stacklevel=2,
        )
        seed_list = seed_list[done:]

    scratch = EngineScratch() if vectorized else None
    for graph, seed in _iter_graphs(graph_factory, seed_list, vectorized):
        yield run_planned_trial(graph, plan, seed, scratch=scratch)


def run_trials(
    graph_factory: Any,
    algorithm: Optional[str] = None,
    *,
    seeds: Iterable[Optional[int]] = range(10),
    plan: Optional["RunPlan"] = None,
    n_jobs: Optional[int] = None,
    engine: str = "auto",
    rng: str = DEFAULT_STREAM,
    result: str = "legacy",
    dtype: str = "default",
    max_rounds: Optional[int] = None,
    congest_bit_limit: Optional[int] = None,
    **protocol_kwargs: Any,
) -> List[ResultLike]:
    """Run ``algorithm`` once per seed; results come back in seed order.

    The list-returning wrapper around :func:`iter_trials` (same
    parameters); prefer the iterator for large sweeps.
    """
    return list(
        iter_trials(
            graph_factory, algorithm, seeds=seeds, plan=plan,
            n_jobs=n_jobs, engine=engine, rng=rng, result=result,
            dtype=dtype, max_rounds=max_rounds,
            congest_bit_limit=congest_bit_limit, **protocol_kwargs,
        )
    )


def _iter_chunks(
    graph_seed_iter: Iterator[Tuple[Any, Optional[int]]],
    plan: "RunPlan",
    target: int,
) -> Iterator[Tuple[Any, "RunPlan", List[Optional[int]]]]:
    """Chunk runs of consecutive seeds that share a graph into
    ``(graph, plan, seeds)`` tasks, so workers amortize
    :class:`GraphArrays` construction; aim for a few chunks per worker
    (``target`` seeds each).  The chunk carries whichever graph
    representation the factory produced: a normalized adjacency dict, or
    a :class:`GraphArrays` whose lazy adjacency stays unbuilt (pickling
    the int32 edge arrays beats materializing and pickling a 10^5-entry
    dict)."""
    chunk_graph: Any = None
    chunk_seeds: List[Optional[int]] = []
    for graph, seed in graph_seed_iter:
        if chunk_seeds and (
            graph is not chunk_graph or len(chunk_seeds) >= target
        ):
            yield chunk_graph, plan, chunk_seeds
            chunk_seeds = []
        chunk_graph = graph
        chunk_seeds.append(seed)
    if chunk_seeds:
        yield chunk_graph, plan, chunk_seeds
