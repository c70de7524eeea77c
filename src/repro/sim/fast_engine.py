"""Array-backed execution engine for the sleeping MIS algorithms.

The generator engine (:mod:`repro.sim.network`) steps one Python generator
per node and is fully general.  For the paper's two algorithms that
generality is unnecessary: the recursion schedule is *deterministic* --
every participant of a level-``k`` call wakes, exchanges, and sleeps at
rounds computed entirely by :mod:`repro.core.schedule` -- so an execution
can be replayed as a walk over the recursion tree with one numpy pass over
the participant set per communication step.  That is what this module does:

* the participant set of each call is an index array; adjacency is a pair
  of directed-edge arrays (CSR-flavoured), filtered down the tree so a
  sub-call only ever touches edges inside its own ``G[U]``;
* awake/``inMIS``/coin state are per-node int arrays; the base case of
  Algorithm 2 additionally keeps a per-directed-edge ``live`` bit array;
* a call's three broadcast rounds (Parts 2, 4 and 5) are booked at once
  as a per-node round count, from which the awake/tx/idle/message/bit
  columns are derived at result build -- no per-edge counters;
* the wall clock is never stepped at all -- round numbers are computed from
  the schedule formulas, which is the generator engine's fast-forward trick
  taken to its limit.  Algorithm 1's :math:`\\Theta(n^3)` wall-clock
  schedule therefore costs only the awake work.

Equivalence contract
--------------------
For identical ``(graph, seed)`` the engine reproduces the generator
engine's execution **exactly**: the same per-node random streams
(:func:`repro.sim.network.node_rng`, consumed in the same order), hence the
same decisions, MIS, round numbers, and per-node :class:`NodeStats` down to
message, bit, and tx/rx/idle counters.  ``tests/test_engine_equivalence.py``
enforces this over every corner-case graph, both algorithms, several seeds.

What it does *not* do: tracing, fault injection (``loss_rate``), CONGEST
bit-budget enforcement, and per-call :class:`CallRecord` instrumentation
(``RunResult.protocols`` is empty).  Workloads needing those stay on the
generator engine; ``engine="auto"`` in :func:`repro.api.solve_mis` makes
that fallback automatic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..core import schedule
from .errors import MaxRoundsExceededError
from .messages import payload_bits
from .metrics import NodeStats, RunResult
from .network import normalize_graph
from .rng import (
    DEFAULT_STREAM,
    bit_length_u64,
    draw_u64_array,
    node_rng,  # noqa: F401  (re-exported; historical import site)
    node_rng_bulk,
    randbelow,
    stream_key,
    u64_mod_bound,
    u64_to_unit_float,
    validate_stream,
)

#: Protocol keyword arguments the sleeping engine understands.
#: ``record_calls`` is accepted for signature compatibility but ignored: the
#: engine keeps no per-call instrumentation (use the generator engine for
#: recursion trees).
SUPPORTED_PROTOCOL_KWARGS = frozenset(
    {"depth", "coin_bias", "greedy_constant", "record_calls"}
)

#: Protocol keyword arguments of the phased baselines.
PHASED_PROTOCOL_KWARGS = frozenset({"max_phases"})

#: Largest node count and directed-edge count the CSR format holds:
#: ``src``/``dst``/``grev`` and the builder's slot arithmetic are int32.
CSR_INDEX_LIMIT = int(np.iinfo(np.int32).max)


@dataclass(frozen=True)
class EngineCapability:
    """One row of the vectorized-engine capability registry.

    ``engine`` is the dotted class implementing the algorithm (relative to
    :mod:`repro.sim`), ``protocol_kwargs`` the protocol knobs that engine
    replays exactly, and ``note`` the short description shown in the
    ``docs/performance.md`` support matrix (which ``tests/test_docs.py``
    asserts stays in sync with this registry).
    """

    engine: str
    protocol_kwargs: frozenset
    note: str


#: Capability registry: THE single source of truth for which algorithms
#: have a vectorized engine.  Engine dispatch (:func:`unsupported_reason`,
#: :func:`repro.sim.batch.resolve_engine`), the error messages, and the
#: ``docs/performance.md`` support matrix are all derived from this table,
#: so adding an engine here is what makes ``engine="auto"`` pick it up --
#: and a stale "generator-only" story elsewhere is a test failure, not a
#: silent lie.
ENGINE_CAPABILITIES: Dict[str, EngineCapability] = {
    "sleeping": EngineCapability(
        "fast_engine.VectorizedEngine",
        SUPPORTED_PROTOCOL_KWARGS,
        "recursion-schedule replay; the Θ(n³) wall clock is computed, "
        "never stepped",
    ),
    "fast-sleeping": EngineCapability(
        "fast_engine.VectorizedEngine",
        SUPPORTED_PROTOCOL_KWARGS,
        "greedy base cases over per-edge live bits",
    ),
    "luby": EngineCapability(
        "fast_phased.PhasedVectorizedEngine",
        PHASED_PROTOCOL_KWARGS,
        "phase-lockstep replay, fresh ranks each phase",
    ),
    "greedy": EngineCapability(
        "fast_phased.PhasedVectorizedEngine",
        PHASED_PROTOCOL_KWARGS,
        "phase-lockstep replay, one permanent rank",
    ),
    "ghaffari": EngineCapability(
        "fast_phased.PhasedVectorizedEngine",
        PHASED_PROTOCOL_KWARGS,
        "marking coins vs 2^-exponent, exact integer desire-level updates",
    ),
    "abi": EngineCapability(
        "fast_phased.PhasedVectorizedEngine",
        PHASED_PROTOCOL_KWARGS,
        "degree-weighted marking, conflicts resolved toward (degree, id)",
    ),
}

#: The recursion-schedule algorithms run by :class:`VectorizedEngine`.
SLEEPING_ALGORITHMS = tuple(
    a for a, cap in ENGINE_CAPABILITIES.items()
    if cap.engine == "fast_engine.VectorizedEngine"
)

#: The round-synchronous phase baselines run by
#: :class:`repro.sim.fast_phased.PhasedVectorizedEngine`.
PHASED_ALGORITHMS = tuple(
    a for a, cap in ENGINE_CAPABILITIES.items()
    if cap.engine == "fast_phased.PhasedVectorizedEngine"
)

#: Everything some vectorized engine implements.
SUPPORTED_ALGORITHMS = tuple(ENGINE_CAPABILITIES)

#: Bit cost of the tri-state announcements (``None``/``True``/``False`` all
#: encode to 2 bits under :func:`repro.sim.messages.payload_bits`).
_FLAG_BITS = 2


def assemble_result(
    *,
    n: int,
    rounds: int,
    seed: Optional[int],
    adjacency: Dict[Any, Tuple[Any, ...]],
    node_ids: List[Any],
    awake: List[int],
    sleep: Any,
    tx: List[int],
    rx: List[int],
    idle: List[int],
    msent: List[int],
    bits: List[int],
    mrecv: List[int],
    decision_round: List[int],
    awake_at_decision: List[int],
    finish: Any,
    in_mis: List[int],
) -> RunResult:
    """Build the :class:`RunResult` from per-node stat columns.

    Shared by both vectorized engines.  Columns are plain-int lists
    (callers use ``.tolist()`` -- one C pass) except ``sleep`` and
    ``finish``, which may be any per-node iterable, e.g.
    ``itertools.repeat`` for a constant.  Building the (plain, non-slots)
    dataclasses through ``__dict__`` skips 13-kwarg ``__init__`` calls --
    together with ``.tolist()`` this is the difference between the result
    build being noise and being ~30% of a small-graph run.  A ``-1``
    decision round means undecided (``None`` in :class:`NodeStats`);
    ``in_mis`` uses the engines' tri-state ``-1``/``0``/``1`` encoding.
    """
    node_stats: Dict[Any, NodeStats] = {}
    outputs: Dict[Any, Optional[bool]] = {}
    cols = zip(
        node_ids, awake, sleep, tx, rx, idle, msent, bits, mrecv,
        decision_round, awake_at_decision, finish, in_mis,
    )
    for v, aw, slp, txr, rxr, idl, ms, bt, mr, dr, ad, fin, mis in cols:
        stats = NodeStats.__new__(NodeStats)
        stats.__dict__.update(
            node_id=v,
            awake_rounds=aw,
            sleep_rounds=slp,
            tx_rounds=txr,
            rx_rounds=rxr,
            idle_rounds=idl,
            messages_sent=ms,
            bits_sent=bt,
            messages_received=mr,
            decision_round=dr if dr >= 0 else None,
            awake_at_decision=ad if dr >= 0 else None,
            finish_round=fin,
            awake_at_finish=aw,
        )
        node_stats[v] = stats
        outputs[v] = None if mis == -1 else bool(mis)
    return RunResult(
        n=n,
        rounds=rounds,
        seed=seed,
        node_stats=node_stats,
        outputs=outputs,
        protocols={},
        adjacency=adjacency,
    )


def draw_dense_ranks(
    rngs: Optional[List[Any]],
    key: Optional[int],
    ctr: Optional[np.ndarray],
    U: np.ndarray,
    bound: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """One rank draw from ``[0, bound)`` per node of ``U``, on either stream.

    Returns ``(dense, raw_bits)`` aligned with ``U``: ``dense`` are dense
    ranks (value order preserved, so comparisons stay in int64 even when
    raw draws exceed 2**63), ``raw_bits`` is ``max(bit_length, 1)`` of
    each raw value.  The full CONGEST cost of a ``(value, id)`` rank
    payload is ``raw_bits + payload_bits(id) + 10`` (int tag+sign = 2,
    tuple framing = 4 per element).

    v1 (``rngs`` given): one ``randrange`` per node, in ``U`` order --
    the generator engine's stream positions.  v2 (``key``/``ctr`` given):
    whole-array draws at each node's counter, which is then advanced.
    """
    if rngs is not None:
        values = [randbelow(rngs[i], bound) for i in U.tolist()]
        order = {v: j for j, v in enumerate(sorted(set(values)))}
        dense = np.fromiter(
            (order[v] for v in values), dtype=np.int64, count=len(values)
        )
        raw_bits = np.fromiter(
            (max(v.bit_length(), 1) for v in values),
            dtype=np.int64,
            count=len(values),
        )
        return dense, raw_bits
    u64 = draw_u64_array(key, U, ctr[U])
    ctr[U] += 1
    vals = u64_mod_bound(u64, bound)
    _, inverse = np.unique(vals, return_inverse=True)
    return inverse.astype(np.int64), np.maximum(bit_length_u64(vals), 1)


def unsupported_reason(
    algorithm: str,
    *,
    trace: Any = None,
    congest_bit_limit: Optional[int] = None,
    loss_rate: float = 0.0,
    **protocol_kwargs: Any,
) -> Optional[str]:
    """Why this configuration is generator-only, or ``None`` if vectorizable.

    The returned string names the *reason* the vectorized engines cannot
    run the configuration -- either the algorithm has no entry in
    :data:`ENGINE_CAPABILITIES` (the capability registry every MIS
    algorithm currently has a row in) or a generator-only instrumentation
    feature was requested.  ``engine="auto"`` falls back silently; a hard
    ``engine="vectorized"`` request surfaces this reason in its error
    (see :func:`repro.sim.batch.resolve_engine`).  The support matrix in
    ``docs/performance.md`` renders the same registry and is kept in sync
    by ``tests/test_docs.py``.
    """
    capability = ENGINE_CAPABILITIES.get(algorithm)
    if capability is None:
        return (
            f"algorithm {algorithm!r} has no vectorized implementation "
            f"(vectorized: {', '.join(ENGINE_CAPABILITIES)}) and always "
            f"runs on the generator engine, whatever the graph size"
        )
    if trace is not None and getattr(trace, "enabled", False):
        return "tracing (trace=) is generator-engine-only instrumentation"
    if congest_bit_limit is not None:
        return (
            "CONGEST bit-budget enforcement (congest_bit_limit=) is "
            "generator-engine-only"
        )
    if loss_rate:
        return "fault injection (loss_rate=) is generator-engine-only"
    extra = set(protocol_kwargs) - capability.protocol_kwargs
    if extra:
        return (
            f"protocol kwargs {sorted(extra)} have no vectorized path for "
            f"{algorithm!r} (vectorized kwargs: "
            f"{sorted(capability.protocol_kwargs)})"
        )
    return None


def supports(algorithm: str, **constraints: Any) -> bool:
    """Whether a vectorized engine can run this configuration exactly."""
    return unsupported_reason(algorithm, **constraints) is None


def _write_pair_chunk(
    lo: np.ndarray,
    hi: np.ndarray,
    base: int,
    nxtF: np.ndarray,
    offB: np.ndarray,
    dst: np.ndarray,
    grev: np.ndarray,
) -> None:
    """Pass 2 of :meth:`GraphArrays.from_distinct_pair_chunks` for one
    chunk: write the pairs at input positions ``base, base + 1, ...`` into
    their ``dst``/``grev`` slots and advance the forward cursors ``nxtF``.
    A function of its own so that every chunk temporary is freed before
    the next chunk is pulled.
    """
    c = len(lo)
    idx = np.arange(c, dtype=np.int64)
    # Group the pairs by lo with one in-place sort of the key (lo << s) |
    # idx.  Keys are distinct, so the sort is stable by construction
    # (equal-lo pairs keep their hi-ascending input order), and both the
    # permutation and the sorted lo come back out of the key without a
    # gather.  lo < 2^31 and c <= 2^30 (2m is within CSR_INDEX_LIMIT and
    # c matched its pass-1 fingerprint), so the key stays below 2^62.
    s = c.bit_length()
    key = lo << s
    key |= idx
    key.sort()
    order = key & ((1 << s) - 1)
    key >>= s
    lo_s = key
    run = np.empty(c, dtype=bool)
    run[0] = True
    np.not_equal(lo_s[1:], lo_s[:-1], out=run[1:])
    starts = np.flatnonzero(run)
    lens = np.diff(np.append(starts, c))
    heads = lo_s[starts]  # unique node ids, one per run
    # Forward slots in sorted order: each run continues its row's cursor,
    # so fwd_s ascends and the writes through it are slot-ordered.
    fwd_s = np.repeat(nxtF[heads] - starts, lens)
    fwd_s += idx
    nxtF[heads] += lens
    back = offB[hi] + idx  # ascending backward slots
    back += base
    del idx, key, lo_s, run, starts, lens, heads
    # One gather moves both forward payloads, packed as hi << 32 | back
    # (back < 2^31).
    pay = hi << 32
    pay |= back
    pay = pay[order]
    grev[fwd_s] = pay & 0xFFFFFFFF
    pay >>= 32
    dst[fwd_s] = pay
    fwd = np.empty(c, dtype=np.int32)  # fwd_s in input order
    fwd[order] = fwd_s
    dst[back] = lo
    grev[back] = fwd


class GraphArrays:
    """The seed-independent array view of one graph.

    Building these (normalization, directed-edge arrays, reverse-edge
    permutation) is the engine's fixed cost per graph; the batch runner
    reuses one instance across every seed run on the same graph.

    ``GraphArrays(graph)`` converts an existing ``networkx.Graph`` or
    adjacency mapping (normalizing it first).  Every other instance is
    **array-native**: built by the one pair builder,
    :meth:`from_distinct_pair_chunks`, either directly (the v2 gnp
    sampler's chunk stream) or through :meth:`from_edges` (edge-index
    arrays, deduplicated into a single chunk).  The samplers in
    :mod:`repro.graphs.arrays` take this path and never materialize a
    networkx object or a Python adjacency dict.  For array-native
    instances the ``adjacency`` dict is a *lazy* view: it is only built
    (and cached) if something dict-shaped asks for it (the generator
    engine, legacy ``RunResult.adjacency``, :meth:`to_networkx`).

    Memory audit (the CSR-shaped buffers that bound sweep scale): with
    ``m`` directed edges, the persistent footprint is ``src``/``dst``/
    ``grev`` at 4 bytes each (int32 -- node indices fit comfortably, and
    int32 halves the edge memory that dominates at n = 10^4..10^5) plus
    ``deg`` at 8 bytes per node (kept int64 because it feeds straight into
    the int64 message/bit accumulators).  A gnp(10^5, 10/n) graph is
    m ~ 2x10^6 directed edges ~ 24 MB of edge arrays; per-run sleeping
    engine state adds 104 bytes per node and one bool per edge.
    """

    __slots__ = (
        "_adjacency", "_node_ids", "n", "src", "dst", "grev", "deg",
        "_id_bits", "_ids_are_range",
    )

    def __init__(self, graph: Any):
        self._adjacency = normalize_graph(graph)
        self._node_ids: Optional[List[Any]] = sorted(self._adjacency)
        self.n = len(self._node_ids)
        self._ids_are_range = False
        adjacency = self._adjacency
        index = {v: i for i, v in enumerate(self._node_ids)}
        # Directed edge arrays, sorted by (src, dst): each undirected edge
        # appears once per direction.
        self.dst = np.fromiter(
            (index[u] for v in self._node_ids for u in adjacency[v]),
            dtype=np.int32,
        )
        self.deg = np.fromiter(
            (len(adjacency[v]) for v in self._node_ids),
            dtype=np.int64,
            count=self.n,
        )
        self.src = np.repeat(np.arange(self.n, dtype=np.int32), self.deg)
        # Sorting the edges by (dst, src) enumerates exactly the reversed
        # pairs in (src, dst) order, so the permutation IS the reverse-edge
        # index: grev[e] = index of e's reverse.
        self.grev = np.lexsort((self.src, self.dst)).astype(np.int32)
        self._id_bits: Optional[np.ndarray] = None

    @classmethod
    def from_edges(cls, n: int, u: Any, v: Any) -> "GraphArrays":
        """Array-native constructor: ``n`` nodes ``0..n-1`` and undirected
        edges ``(u[i], v[i])`` given as integer arrays.

        Self-loops are dropped and duplicate edges (in either orientation)
        collapse, mirroring :func:`repro.sim.network.normalize_graph` --
        but no Python dict is ever built; the adjacency view stays lazy.
        The deduplicated pairs come out in the ``(hi, lo)`` order the CSR
        builder wants and go through :meth:`from_distinct_pair_chunks` as
        its one-chunk case.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape:
            raise ValueError("edge endpoint arrays must have equal length")
        if len(u) and (
            u.min() < 0 or v.min() < 0 or u.max() >= n or v.max() >= n
        ):
            raise ValueError(f"edge endpoints must lie in [0, {n})")
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        keep = lo != hi  # drop self-loops
        lo, hi = lo[keep], hi[keep]
        key = np.unique(hi * np.int64(n) + lo)  # dedupe + (hi, lo) sort
        hi, lo = key // n, key % n
        return cls.from_distinct_pair_chunks(n, lambda: ((lo, hi),))

    @classmethod
    def _pair_shell(cls, n: int) -> "GraphArrays":
        """The empty array-native instance the pair builder fills in."""
        self = cls.__new__(cls)
        self._adjacency = None
        self._node_ids = None  # ids are 0..n-1; node_ids serves a range
        self.n = n
        self._ids_are_range = True
        self._id_bits = None
        return self

    @property
    def node_ids(self) -> Any:
        """Node labels in sorted order (column order of every engine).

        Array-native graphs (``_ids_are_range``) never materialize the
        list: their labels are exactly ``0..n-1``, so this serves a
        ``range`` -- same iteration, indexing, and ``len`` behavior, zero
        allocation (a materialized list is ~400 MB at n = 10^7, pinned by
        ``tests/test_engine_memory.py``).  Graphs built from arbitrary
        labels keep the real sorted list.
        """
        if self._node_ids is None:
            return range(self.n)
        return self._node_ids

    @classmethod
    def from_distinct_pair_chunks(
        cls, n: int, chunks: Any
    ) -> "GraphArrays":
        """The array-native CSR build: two passes over re-iterable chunks.

        ``chunks`` is a zero-argument callable returning a fresh iterable
        of ``(lo, hi)`` array pairs whose concatenation is the edge list
        in strictly increasing ``(hi, lo)``-lex order (the v2 gnp
        sampler's native order) -- distinct pairs with ``lo < hi``, both
        validated chunk by chunk.  Every array-native instance is built
        here: :meth:`from_edges` hands over one chunk, the v2 sampler a
        buffered chunk list or a re-sampling generator
        (:func:`repro.graphs.arrays.gnp_arrays_v2`).  Pass 1 only
        accumulates the per-node degree counts, in O(chunk) work per
        chunk; pass 2 re-pulls the chunks and writes each straight into
        its final CSR slots, so peak transient memory is O(n) node arrays
        plus a few index temporaries per *chunk*, never per graph -- the
        whole point for dense families at 1e7 (see
        ``docs/performance.md``).  The factory must replay the identical
        chunk stream twice (a chunk list does; counter-based samplers
        re-sample for free).  Pass 1 fingerprints every chunk (length,
        ``lo`` sum, ``hi`` sum) and pass 2 checks each replayed chunk
        against its fingerprint before writing it, so a replay that
        diverges there, or in its total pair count, raises.

        Slot math: row ``s`` of the (src, dst)-sorted directed edge list
        is the backward block (reverses ``(s, w)`` of pairs ``(w, s)``,
        ``w`` ascending) followed by the forward block (pairs ``(s, w)``,
        ``w`` ascending).  The input is ``hi``-major, so a backward slot
        is pure arithmetic off the global input position (``offB``: row
        start less the backward pairs of earlier rows).  A forward slot is
        a per-node cursor (``nxtF``: the next free slot of the row's
        forward block) plus the pair's rank among the chunk's pairs with
        the same ``lo``, read off one sort per chunk of a packed
        ``(lo, position)`` key; in that order the forward slots ascend,
        so the forward writes are slot-ordered.  ``grev`` is the
        cross-link between the two slot arrays.

        Slot arithmetic runs in int32, the format of ``src``/``dst``/
        ``grev``, so ``n`` and ``2m`` must not pass
        :data:`CSR_INDEX_LIMIT`: ``n`` is checked on entry and ``2m``
        right after pass 1, each before the allocations it sizes.  The
        int64 pass-1 accumulators are freed before pass 2, so the pass-2
        peak is the persistent CSR plus two int32 node arrays (see
        ``docs/performance.md``, "Scaling to 10^8").
        """
        from ..profiling import phase, profiled_pulls

        if n > CSR_INDEX_LIMIT:
            raise ValueError(
                f"n = {n} nodes exceeds the int32 CSR format limit "
                f"({CSR_INDEX_LIMIT})"
            )
        degF = degB = None  # int64 counts, allocated by the first pairs
        m = 0
        last_key = np.int64(-1)
        nn = np.int64(n)
        # (length, lo sum, hi sum) of every non-empty pass-1 chunk: pass 2
        # checks each replayed chunk against these before writing it.
        fingerprints = []
        first_pass = chunks()
        with phase("csr_build"):
            for lo, hi in profiled_pulls("sample", first_pass):
                lo = np.asarray(lo, dtype=np.int64)
                hi = np.asarray(hi, dtype=np.int64)
                c = len(lo)
                if not c:
                    continue
                if lo.min() < 0 or hi.max() >= n:
                    raise ValueError(
                        f"edge endpoints must lie in [0, {n})"
                    )
                if not (lo < hi).all():
                    raise ValueError("pairs must satisfy lo < hi")
                key = hi * nn + lo
                if key[0] <= last_key or not bool(
                    (key[1:] > key[:-1]).all()
                ):
                    raise ValueError(
                        "chunked pairs must arrive distinct and in "
                        "strictly increasing (hi, lo)-lex order"
                    )
                last_key = key[-1]
                if degF is None:
                    degF = np.zeros(n, dtype=np.int64)
                    degB = np.zeros(n, dtype=np.int64)
                # O(chunk) counts: lo is scattered pair by pair, and the
                # sorted hi spans just [hi[0], hi[-1]].
                np.add.at(degF, lo, 1)
                h0 = hi[0]
                degB[h0 : hi[-1] + 1] += np.bincount(hi - h0)
                fingerprints.append((c, int(lo.sum()), int(hi.sum())))
                m += c
        if 2 * m > CSR_INDEX_LIMIT:
            raise ValueError(
                f"{m} edges need {2 * m} directed CSR slots, past the "
                f"int32 CSR format limit ({CSR_INDEX_LIMIT})"
            )
        self = cls._pair_shell(n)
        if not m:
            self.src = np.empty(0, dtype=np.int32)
            self.dst = np.empty(0, dtype=np.int32)
            self.grev = np.empty(0, dtype=np.int32)
            self.deg = np.zeros(n, dtype=np.int64)
            return self
        second_pass = chunks()
        if second_pass is first_pass and iter(second_pass) is second_pass:
            # A re-iterable (a list of chunks) may legitimately be the
            # same object twice; the same *iterator* object cannot -- it
            # was consumed by pass 1 and pass 2 would silently see an
            # empty stream.
            raise ValueError(
                "chunk factory is not replayable: it returned the same "
                "(already consumed) iterator for both passes -- the "
                "factory must build a fresh chunk iterable per call "
                "(e.g. `lambda: make_chunks(...)`), not close over one "
                "generator object"
            )
        with phase("csr_build"):
            deg = degF + degB
            csum = np.cumsum(deg)
            nxtF = (csum - degF).astype(np.int32)  # forward block starts
            # offB = row start less the input position of the row's first
            # backward pair (= the backward pairs of all earlier rows).
            csum -= deg
            csum -= np.cumsum(degB)
            csum += degB
            offB = csum.astype(np.int32)
            # Pass 2 needs only the two int32 node arrays built above:
            # drop the int64 accumulators (3 x 8n bytes) before the big
            # CSR allocations so they never coexist with the edge arrays.
            del csum, degF, degB
            # src never needs a scatter: row s holds deg[s] copies of s.
            src = np.repeat(np.arange(n, dtype=np.int32), deg)
            dst = np.empty(2 * m, dtype=np.int32)
            grev = np.empty(2 * m, dtype=np.int32)
        base = 0
        expected = iter(fingerprints)
        with phase("csr_build"):
            for lo, hi in profiled_pulls("sample", second_pass):
                lo = np.asarray(lo, dtype=np.int64)
                hi = np.asarray(hi, dtype=np.int64)
                c = len(lo)
                if not c:
                    continue
                if next(expected, None) != (c, int(lo.sum()), int(hi.sum())):
                    raise ValueError(
                        "chunk factory is not replayable: a pass-2 chunk "
                        "differs from pass 1's in length, lo sum or hi "
                        "sum -- it must re-produce the identical chunks on "
                        "every call (counter-based samplers re-sample for "
                        "free)"
                    )
                _write_pair_chunk(lo, hi, base, nxtF, offB, dst, grev)
                base += c
        if base != m:
            # Typically a factory handing back fresh-but-drained
            # generators (pass 2 then sees no pairs): name the fix.
            raise ValueError(
                f"chunk factory is not replayable: pass 1 saw {m} pairs, "
                f"pass 2 saw {base} -- it must re-produce the identical "
                f"chunks on every call (counter-based samplers re-sample "
                f"for free)"
            )
        self.src, self.dst, self.grev, self.deg = src, dst, grev, deg
        return self

    @property
    def adjacency(self) -> Dict[Any, Tuple[Any, ...]]:
        """The ``{node: sorted neighbor tuple}`` view, built lazily.

        Instances constructed from a graph object carry the normalized
        dict from day one; array-native instances (:meth:`from_edges`)
        reconstruct it from the CSR arrays on first access and cache it.
        """
        if self._adjacency is None:
            from .network import NormalizedAdjacency

            ids = self.node_ids
            dst = self.dst.tolist()
            bounds = np.concatenate(
                ([0], np.cumsum(self.deg))
            ).tolist()
            # dst is sorted within each src block, so tuples come out in
            # normalize_graph's sorted order.
            self._adjacency = NormalizedAdjacency(
                (v, tuple(ids[j] for j in dst[bounds[i]:bounds[i + 1]]))
                for i, v in enumerate(ids)
            )
        return self._adjacency

    def __getstate__(self) -> Dict[str, Any]:
        # Never pickle the adjacency dict: receivers rebuild the identical
        # view lazily from the CSR arrays if (and only if) they need it,
        # so the wire carries int32 edge arrays instead of a dict that can
        # dwarf them at n = 10^4..10^5 (the batch runner ships GraphArrays
        # to pool workers).
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot != "_adjacency"
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for slot in self.__slots__:
            setattr(self, slot, state.get(slot))

    def to_networkx(self) -> Any:
        """Escape hatch: the same graph as a ``networkx.Graph``.

        Node labels are ``node_ids``; the edge set round-trips exactly
        (``GraphArrays(ga.to_networkx())`` rebuilds identical arrays).
        """
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.node_ids)
        ids = self.node_ids
        half = self.src < self.dst  # one orientation per undirected edge
        graph.add_edges_from(
            (ids[a], ids[b])
            for a, b in zip(self.src[half].tolist(), self.dst[half].tolist())
        )
        return graph

    @property
    def m(self) -> int:
        """Number of directed edges."""
        return len(self.src)

    @property
    def id_bits(self) -> np.ndarray:
        """Per-node ``payload_bits(node_id)``, computed once per graph.

        The phased baselines and the batched-RNG base case account message
        bits for ``(rank, id)`` payloads; hashing the id part out to an
        array once keeps that accounting vectorized.  Array-native graphs
        (whose ids are always ``0..n-1``) take a pure-numpy path --
        ``payload_bits(int) = max(bit_length, 1) + 2`` -- instead of a
        10^6-call Python loop.
        """
        if self._id_bits is None:
            if self._ids_are_range:
                idx = np.arange(self.n, dtype=np.uint64)
                self._id_bits = np.maximum(bit_length_u64(idx), 1) + 2
            else:
                self._id_bits = np.fromiter(
                    (payload_bits(v) for v in self.node_ids),
                    dtype=np.int64,
                    count=self.n,
                )
        return self._id_bits

    def nbytes(self) -> int:
        """Bytes held by the persistent edge/degree buffers."""
        return (
            self.src.nbytes + self.dst.nbytes + self.grev.nbytes
            + self.deg.nbytes
        )


class EngineScratch:
    """A pool of reusable numpy buffers for running many trials.

    Engines allocate a dozen node-sized state arrays plus an edge-sized
    mask per run; over a 10^4-trial sweep that allocation/zeroing churn is
    measurable.  A scratch passed to consecutive engine constructions hands
    the same buffers back (re-filled) whenever name, shape, and dtype
    match.  Not thread-safe, and an engine borrowing from a scratch must
    finish its run before the next engine reuses the pool -- exactly the
    batch runner's sequential per-graph loop.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def take(
        self,
        name: str,
        shape: Union[int, Tuple[int, ...]],
        dtype: Any,
        fill: Any = None,
    ) -> np.ndarray:
        """A buffer of this name/shape/dtype, re-filled if ``fill`` given."""
        if isinstance(shape, int):
            shape = (shape,)
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[name] = buf
        if fill is not None:
            buf.fill(fill)
        return buf


class VectorizedEngine:
    """Vectorized replay of Algorithm 1 / Algorithm 2 over one graph.

    Parameters mirror :class:`repro.sim.network.Simulator` plus the
    protocol knobs of the two sleeping algorithms.  ``graph`` may be a
    prebuilt :class:`GraphArrays` to amortize graph preparation across
    many seeds.
    """

    def __init__(
        self,
        graph: Any,
        algorithm: str = "fast-sleeping",
        *,
        seed: Optional[int] = 0,
        depth: Optional[int] = None,
        coin_bias: float = 0.5,
        greedy_constant: int = schedule.DEFAULT_GREEDY_CONSTANT,
        record_calls: bool = True,  # accepted, ignored (no CallRecords)
        max_rounds: Optional[int] = None,
        rng: str = DEFAULT_STREAM,
        scratch: Optional[EngineScratch] = None,
        result: str = "legacy",
        dtype: str = "default",
    ):
        from .array_result import resolve_dtype_kind, resolve_result_kind

        if algorithm not in SLEEPING_ALGORITHMS:
            raise ValueError(
                f"vectorized sleeping engine supports {SLEEPING_ALGORITHMS}, "
                f"got {algorithm!r}"
            )
        if not 0.0 < coin_bias < 1.0:
            raise ValueError(f"coin bias must be in (0, 1), got {coin_bias}")
        validate_stream(rng)
        self.algorithm = algorithm
        self.seed = seed
        self.coin_bias = coin_bias
        self.max_rounds = max_rounds
        self.rng_stream = rng
        self.result_kind = resolve_result_kind(result, "vectorized")
        self.dtype_kind = resolve_dtype_kind(dtype)

        arrays = graph if isinstance(graph, GraphArrays) else GraphArrays(graph)
        self.arrays = arrays
        self.node_ids = arrays.node_ids
        self.n = arrays.n
        self.src = arrays.src
        self.dst = arrays.dst
        self.grev = arrays.grev
        self.deg = arrays.deg
        self._no_isolated = bool(self.deg.all()) if self.n else True

        n = self.n
        if algorithm == "sleeping":
            self.base_rounds = 0
            self.depth = (
                depth if depth is not None
                else (schedule.recursion_depth(n) if n else 0)
            )
            self._duration = schedule.call_duration
        else:
            self.base_rounds = (
                schedule.greedy_rounds(n, greedy_constant) if n else 0
            )
            self.depth = (
                depth if depth is not None
                else (schedule.truncated_depth(n) if n else 0)
            )
            self._duration = lambda k: schedule.fast_call_duration(
                k, self.base_rounds
            )

        # Per-node randomness, consumed in the generator engine's order:
        # ``depth`` coin flips up front, then one rank draw per
        # greedy-base-case entry (Algorithm 2 only).  Under the v1 stream
        # that means one random.Random per node, and all coins really are
        # drawn eagerly (later rank draws sit after them in each node's
        # stream).  Under the v2 batched stream a coin is a pure function
        # of ``(key, node, level)``, so no matrix is materialized at all:
        # ``_coin_heads`` draws each call's coins on demand -- identical
        # values, without the n x depth draw (~0.5 GB and several seconds
        # of construction at n = 10^6, where depth = 60).
        depth = self.depth
        scratch = scratch if scratch is not None else EngineScratch()
        self._scratch = scratch
        if rng == "pernode":
            self._rngs: Optional[List[Any]] = node_rng_bulk(
                seed, self.node_ids
            )
            self._key = None
            self._ctr = None
            if n and depth:
                # One flat C pass (row-major: node i's coins are
                # consecutive, matching each stream's draw order) instead
                # of n Python lists plus an np.array conversion.
                self.coins: Optional[np.ndarray] = np.fromiter(
                    (
                        r.random() < coin_bias
                        for r in self._rngs
                        for _ in range(depth)
                    ),
                    dtype=np.int8,
                    count=n * depth,
                ).reshape(n, depth)
            else:
                self.coins = np.zeros((n, 1), dtype=np.int8)
        else:
            self._rngs = None
            self._key = stream_key(seed)
            self._ctr = scratch.take("rng_ctr", n, np.int64, fill=depth)
            self.coins = None  # drawn lazily per call by _coin_heads
        self._rank_bound = n**6 + 1

        # Per-node state and statistics (the NodeStats fields, as arrays),
        # borrowed from the scratch pool so batch runs recycle them.
        self.in_mis = scratch.take("in_mis", n, np.int8, fill=-1)
        self.awake = scratch.take("awake", n, np.int64, fill=0)
        # Round *labels* grow like T(K) = 3(2^K - 1), which leaves int64
        # range once K = ceil(3 log2 n) passes 62 (n beyond ~1.3x10^6):
        # there the round-valued columns (sleep spans, decision rounds)
        # switch to float64 -- approximate at the far tail of the clock,
        # while every *count* column (awake, tx, messages, bits) stays
        # exact int64.  The node-averaged awake complexity -- the paper's
        # claim -- is therefore exact at every n; only the astronomically
        # large round labels round.  Below that depth nothing changes:
        # int64 exactness is what the cross-engine equivalence suite pins.
        round_dtype: Any = (
            np.int64
            if self._duration(self.depth) <= np.iinfo(np.int64).max
            else np.float64
        )
        self.sleep = scratch.take("sleep", n, round_dtype, fill=0)
        self.tx = scratch.take("tx", n, np.int64, fill=0)
        self.rx = scratch.take("rx", n, np.int64, fill=0)
        self.idle = scratch.take("idle", n, np.int64, fill=0)
        self.msent = scratch.take("msent", n, np.int64, fill=0)
        self.bits = scratch.take("bits", n, np.int64, fill=0)
        self.mrecv = scratch.take("mrecv", n, np.int64, fill=0)
        self.decision_round = scratch.take(
            "decision_round", n, round_dtype, fill=-1
        )
        self.awake_at_decision = scratch.take(
            "awake_at_decision", n, np.int64, fill=-1
        )
        self.base_truncated = scratch.take("base_truncated", n, bool, fill=False)
        # Set-use-clear masks shared by every call of the recursion (saves
        # two O(n) zero-fills per call; see _subedges and Parts 4/5).
        self._sub_mask = scratch.take("sub_mask", n, bool, fill=False)
        self._nbr_mask = scratch.take("nbr_mask", n, bool, fill=False)
        # Per-directed-edge live bits for the greedy base cases; each base
        # call touches only its own in-call edge subset, so one zeroed
        # buffer per run serves every call (set at entry, cleared at exit).
        # The only per-edge state of the engine.
        self._live_edges = scratch.take("live_edges", arrays.m, bool, fill=False)
        # Deferred broadcast rounds: each node's count of all-neighbor
        # 2-bit flag rounds (Parts 2/4/5, base-case discovery).  Its share
        # of awake/tx/idle/msent/bits is derived once at result build.
        # int32 suffices: at most 3 rounds per recursion level.
        self.bcast = scratch.take("bcast", n, np.int32, fill=0)
        # Set-use-clear run-length buffer of _in_call_degrees (a node's
        # degree fits int32, as every CSR index does).
        self._indeg_buf = scratch.take("indeg_buf", n, np.int32, fill=0)
        # Global-to-local node index map for the greedy base cases
        # (set-before-use only: each base call writes its own participants
        # before reading, so stale entries are never observed).
        self._local_index = scratch.take("local_index", n, np.int32)

    # ------------------------------------------------------------------

    @property
    def adjacency(self) -> Dict[Any, Tuple[Any, ...]]:
        """The adjacency dict view (lazy for array-native graphs)."""
        return self.arrays.adjacency

    def run(self) -> RunResult:
        """Replay the full execution and return the generator-equal result.

        The recursion is attributed to the ``engine`` profiling phase and
        the result assembly to ``result_build`` (self-time: the nested
        build span pauses the engine span) -- see :mod:`repro.profiling`.
        """
        from ..profiling import phase

        with phase("engine"):
            if self.n == 0:
                return self._build_result(0)
            total_rounds = self._duration(self.depth)
            if self.max_rounds is not None and total_rounds > self.max_rounds:
                raise MaxRoundsExceededError(self.max_rounds, self.n)

            everyone = np.arange(self.n, dtype=np.int64)
            all_edges = np.arange(self.arrays.m, dtype=np.int32)
            self._recurse(everyone, all_edges, self.deg, self.depth, 0, 0)
            return self._build_result(total_rounds)

    # ------------------------------------------------------------------
    # The recursion (SleepingMISRecursive, Parts 2-6).
    # ------------------------------------------------------------------

    def _recurse(
        self,
        U: np.ndarray,
        E: np.ndarray,
        indeg: np.ndarray,
        k: int,
        r: int,
        lag: int,
    ) -> None:
        """One call over participant indices ``U`` starting at round ``r``.

        ``E`` holds the indices of the directed edges with *both* endpoints
        in ``U`` -- exactly the message deliveries of this call's rounds.
        Both are ascending, so ``src[E]`` is sorted and splits into one
        segment per node of ``U``; ``indeg`` holds the segment lengths
        (each node's degree in ``G[U]``, zero for in-call isolated nodes)
        and every source-side edge mask is a ``np.repeat`` of a node flag.

        ``lag`` counts the broadcast rounds already booked in ``bcast`` but
        not yet reached on the wall clock, identical for every node of the
        call because they share its ancestor path: each ancestor whose
        *left* recursion encloses this call still owes its Parts 4 and 5.
        """
        if k == 0:
            if self.algorithm == "sleeping":
                self._decide(U, True, r, lag)
            else:
                self._greedy_base(U, E, indeg, r, lag)
            return

        if len(U) == 1:
            self._singleton_call(int(U[0]), k, r, lag)
            return

        d_sub = self._duration(k - 1)
        # Parts 2, 4 and 5 are one broadcast each, by all of U over all of
        # E: book the three at once.  Nothing reads the broadcast-fed
        # columns mid-run except awake_at_decision, which subtracts the
        # rounds still ahead (+2 in Part 2, +1 in Part 4).
        self._broadcast(U, indeg, 3)
        # The top call's E is every edge: its receivers need no gather.
        de = self.dst if len(E) == self.arrays.m else self.dst[E]

        # Every selection below is ``compress``, not boolean indexing: on
        # the call's random masks numpy's ``a[mask]`` is ~3-4x slower.

        # Part 2 -- first isolated node detection: no in-call edge at all.
        iso = U.compress(indeg == 0)
        if len(iso):
            self._decide(iso, True, r + 1, lag + 2)

        # Part 3 -- left recursion; everyone else sleeps through it.
        left = (self.in_mis[U] == -1) & self._coin_heads(U, k)
        if d_sub > 0:
            self.sleep[U.compress(~left)] += d_sub
        if left.any():
            self._recurse(
                *self._subcall(U, E, indeg, de, left), k - 1, r + 1, lag + 2
            )

        # Part 4 -- synchronization and elimination.  The neighbor-flag
        # masks borrow one shared buffer (set, read, clear by the same
        # indices) instead of zeroing a fresh O(n) array per call.
        r1 = r + 1 + d_sub
        state = self.in_mis[U]
        has_mis_nbr = self._nbr_mask
        mis_heads = de.compress(np.repeat(state == 1, indeg))
        has_mis_nbr[mis_heads] = True
        elim = U.compress((state == -1) & has_mis_nbr[U])
        has_mis_nbr[mis_heads] = False
        if len(elim):
            self._decide(elim, False, r1 + 1, lag + 1)

        # Part 5 -- second isolated node detection.
        r2 = r1 + 1
        state = self.in_mis[U]
        has_undecided_or_mis_nbr = self._nbr_mask
        loud_heads = de.compress(np.repeat(state != 0, indeg))
        has_undecided_or_mis_nbr[loud_heads] = True
        join = U.compress((state == -1) & ~has_undecided_or_mis_nbr[U])
        has_undecided_or_mis_nbr[loud_heads] = False
        if len(join):
            self._decide(join, True, r2 + 1, lag)

        # Part 6 -- right recursion; everyone else sleeps through it.
        right = self.in_mis[U] == -1
        if d_sub > 0:
            self.sleep[U.compress(~right)] += d_sub
        if right.any():
            self._recurse(
                *self._subcall(U, E, indeg, de, right), k - 1, r2 + 1, lag
            )

    def _singleton_call(self, u: int, k: int, r: int, lag: int) -> None:
        """Closed form for a call whose participant set is one node.

        With nobody else awake the node hears nothing in Part 2, decides
        ``isolated`` immediately, then (already decided) sleeps through
        both sub-calls and broadcasts its announcements alone in Parts 4
        and 5 -- three broadcast rounds total, no recursion.  Near the
        leaves most calls are singletons, so bypassing the array machinery
        here is a real constant-factor win.
        """
        assert self.in_mis[u] == -1
        self.bcast[u] += 3
        d_sub = self._duration(k - 1)
        if d_sub > 0:
            self.sleep[u] += 2 * d_sub
        self.in_mis[u] = 1
        self.decision_round[u] = r + 1
        # After Part 2 only: Parts 4 and 5 are still ahead.
        self.awake_at_decision[u] = (
            self.awake[u] + self.bcast[u] - (lag + 2)
        )

    def _coin_heads(self, U: np.ndarray, k: int) -> np.ndarray:
        """The level-``k`` coins of participants ``U`` (True = recurse left).

        v1 reads the eagerly drawn per-node coin matrix; v2 computes the
        same pure function of ``(key, node, level)`` on demand -- only the
        nodes that actually reach a level-``k`` call ever cost a draw.
        """
        if self.coins is not None:
            return self.coins[U, k - 1] == 1
        u = draw_u64_array(self._key, U, np.int64(k - 1))
        return u64_to_unit_float(u) < self.coin_bias

    def _subcall(
        self,
        U: np.ndarray,
        E: np.ndarray,
        indeg: np.ndarray,
        de: np.ndarray,
        flag: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(S, E_S, indeg_S)`` of the sub-call over ``S = U[flag]``.

        An edge of ``E`` stays when its source is flagged (a repeat of the
        node flag over the source segments) and its receiver ``de`` is in
        ``S`` (the shared set-use-clear node mask).
        """
        S = U.compress(flag)
        inS = self._sub_mask
        inS[S] = True
        both = inS[de]
        inS[S] = False
        both &= np.repeat(flag, indeg)
        sub = E.compress(both)
        return S, sub, self._in_call_degrees(S, sub)

    def _in_call_degrees(self, S: np.ndarray, sub: np.ndarray) -> np.ndarray:
        """Per-node segment lengths of the sorted ``src[sub]`` over ``S``.

        One run-length pass finds the segment heads; their lengths land
        in the node-sized buffer (set), are gathered in ``S`` order (use)
        and wiped by the same heads (clear), so the pass costs
        ``O(|S| + |sub|)``, never ``O(n)``.
        """
        if not len(sub):
            return np.zeros(len(S), dtype=np.int32)
        se = self.src[sub]
        head = np.empty(len(se), dtype=bool)
        head[0] = True
        np.not_equal(se[1:], se[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        nodes = se[starts]
        buf = self._indeg_buf
        buf[nodes] = np.diff(starts, append=len(se))
        indeg = buf[S]
        buf[nodes] = 0
        return indeg

    def _broadcast(self, U: np.ndarray, indeg: np.ndarray, times: int) -> None:
        """``times`` awake rounds in which every node of ``U`` sends a 2-bit
        flag to *all* its graph neighbors (presence or ``inMIS``
        announcement) and hears one from each in-call neighbor.

        Only the round count is booked here; ``_build_result`` turns it
        into awake/tx/idle/msent/bits with the graph degree (senders with
        at least one port are tx rounds, port-less nodes awake-and-silent,
        hence idle -- the generator engine's classification).  Receipts
        are ``times * indeg``: deliveries only happen between awake nodes.
        """
        self.bcast[U] += times
        self.mrecv[U] += times * indeg

    def _decide(
        self, nodes: np.ndarray, value: bool, clock: int, lag: int
    ) -> None:
        """Fix ``inMIS`` for ``nodes`` at wall-clock ``clock``, exactly once.

        ``lag`` is the number of booked broadcast rounds still ahead of
        ``clock`` for these nodes (see :meth:`_recurse`).
        """
        assert (self.in_mis[nodes] == -1).all(), "re-deciding a node"
        self.in_mis[nodes] = 1 if value else 0
        self.decision_round[nodes] = clock
        self.awake_at_decision[nodes] = (
            self.awake[nodes] + self.bcast[nodes] - lag
        )

    # ------------------------------------------------------------------
    # Algorithm 2's greedy base case, in a fixed window of W rounds.
    # ------------------------------------------------------------------

    def _greedy_base(
        self, U: np.ndarray, E: np.ndarray, indeg: np.ndarray, r: int, lag: int
    ) -> None:
        """The base case, computed in the call's **local index space**.

        Every per-node array here has length ``|U|`` (slot ``i`` is global
        node ``U[i]``), edge endpoints are mapped through the shared
        ``_local_index`` scatter buffer, and received-message counts
        accumulate locally until one ``mrecv[U] +=`` at exit.  Deep in the
        recursion most base calls are tiny, so the historical full-``n``
        masks and ``bincount(minlength=n)`` passes made every phase cost
        the graph's size; compaction makes them cost the call's size.
        Global state (``in_mis``, stats, the ``live`` edge bits) is
        updated through ``U[...]`` fancy indexing -- same values, same
        order, bit-for-bit the generator engine's execution.
        """
        W = self.base_rounds

        if len(U) == 1:
            # Lone participant: discovery hears nothing, the rank is still
            # drawn (stream alignment!), and the loop head immediately
            # decides isolated-among-survivors.
            u = int(U[0])
            self.bcast[u] += 1
            if self._rngs is not None:
                randbelow(self._rngs[u], self._rank_bound)
            else:
                self._ctr[u] += 1
            assert self.in_mis[u] == -1
            self.in_mis[u] = 1
            self.decision_round[u] = r + 1
            self.awake_at_decision[u] = self.awake[u] + self.bcast[u] - lag
            if W > 1:
                self.sleep[u] += W - 1
            return

        nu = len(U)
        # Sources come from the segment structure (slot i repeated
        # indeg[i] times); receivers through the local index map.
        es = np.repeat(np.arange(nu, dtype=np.int32), indeg)
        erev = self.grev[E]
        local = self._local_index
        local[U] = np.arange(nu, dtype=np.int32)
        ed = local[self.dst[E]]

        # Neighbor discovery inside G[U]: live sets start as the in-call
        # neighborhoods, kept as per-directed-edge bits over E (borrowing
        # the run-level buffer; cleared again at the loop's exit).
        self._broadcast(U, indeg, 1)
        live_cnt = indeg
        live = self._live_edges
        live[E] = True
        mrecv = np.zeros(nu, dtype=np.int64)

        # Ranks: one draw per participant, same stream position as the
        # generator engine (see draw_dense_ranks for the stream and
        # payload-bit contract).  ``gid`` carries the global indices for
        # the (rank, id) tie-break.
        rank, raw_bits = draw_dense_ranks(
            self._rngs, self._key, self._ctr, U, self._rank_bound
        )
        rank_bits = raw_bits + self.arrays.id_bits[U] + 10
        gid = U

        inloop = np.ones(nu, dtype=bool)
        undecided = np.ones(nu, dtype=bool)  # local mirror of in_mis == -1

        p = 0
        while True:
            used = 1 + 3 * p

            # Loop head: isolated-among-survivors nodes join; then decided
            # nodes and everyone out of window leave the loop.
            iso = inloop & undecided & (live_cnt == 0)
            if iso.any():
                self._decide(U[iso], True, r + used, lag)
                undecided &= ~iso
            leaving = inloop & (~undecided | (used + 3 > W))
            if leaving.any():
                truncated = leaving & undecided
                if truncated.any():
                    self.base_truncated[U[truncated]] = True
                if W - used > 0:
                    self.sleep[U[leaving]] += W - used
                inloop &= ~leaving
            if not inloop.any():
                live[E] = False  # hand the edge buffer back clean
                self.mrecv[U] += mrecv
                return

            # Round A -- rank exchange over the live sets.
            rA = r + used
            act = U[inloop]
            self.awake[act] += 1
            self.tx[act] += 1  # every in-loop node has a nonempty live set
            self.msent[act] += live_cnt[inloop]
            self.bits[act] += rank_bits[inloop] * live_cnt[inloop]
            delivered = inloop[es] & live[E] & inloop[ed]
            mrecv += np.bincount(ed[delivered], minlength=nu)
            # rank_keys: senders that are also in the receiver's live set.
            keyed = delivered & live[erev]
            key_cnt = np.bincount(ed[keyed], minlength=nu)
            best_rank = np.full(nu, -1, dtype=np.int64)
            np.maximum.at(best_rank, ed[keyed], rank[es[keyed]])
            top = keyed & (rank[es] == best_rank[ed])
            best_id = np.full(nu, -1, dtype=np.int64)
            np.maximum.at(best_id, ed[top], U[es[top]])
            joined = (
                inloop
                & (key_cnt == live_cnt)
                & ((rank > best_rank) | ((rank == best_rank) & (gid > best_id)))
            )
            jact = U[joined]
            if len(jact):
                self._decide(jact, True, rA + 1, lag)
                undecided &= ~joined

            # Round B -- JOIN announcements; live neighbors are eliminated.
            rB = rA + 1
            self.awake[act] += 1
            self.tx[jact] += 1
            self.msent[jact] += live_cnt[joined]
            self.bits[jact] += _FLAG_BITS * live_cnt[joined]
            delivered = joined[es] & live[E] & inloop[ed]
            got_join = np.bincount(ed[delivered], minlength=nu)
            mrecv += got_join
            silent = inloop & ~joined
            self.rx[U[silent & (got_join > 0)]] += 1
            self.idle[U[silent & (got_join == 0)]] += 1
            hit = np.zeros(nu, dtype=bool)
            hit[ed[delivered & live[erev]]] = True
            elim = inloop & undecided & hit
            eact = U[elim]
            if len(eact):
                self._decide(eact, False, rB + 1, lag)
                undecided &= ~elim
            if len(jact):
                if W - (used + 2) > 0:
                    self.sleep[jact] += W - (used + 2)
                inloop &= ~joined

            # Round C -- OUT announcements from the newly eliminated;
            # survivors prune their live sets.
            self.awake[U[inloop]] += 1
            self.tx[eact] += 1
            self.msent[eact] += live_cnt[elim]
            self.bits[eact] += _FLAG_BITS * live_cnt[elim]
            delivered = elim[es] & live[E] & inloop[ed]
            got_out = np.bincount(ed[delivered], minlength=nu)
            mrecv += got_out
            survivor = inloop & ~elim
            self.rx[U[survivor & (got_out > 0)]] += 1
            self.idle[U[survivor & (got_out == 0)]] += 1
            live[erev[delivered & survivor[ed]]] = False
            if len(eact):
                if W - (used + 3) > 0:
                    self.sleep[eact] += W - (used + 3)
                inloop &= ~elim
            live_cnt = np.bincount(es[live[E]], minlength=nu)
            p += 1

    # ------------------------------------------------------------------

    def _build_result(self, rounds: int) -> RunResult:
        # Every node of the sleeping algorithms finishes at the schedule's
        # final round, hence the constant ``finish`` column.  The arrays
        # result copies the stat columns out of the (scratch-recycled)
        # engine state -- a handful of C passes instead of the 10^5
        # NodeStats dataclasses of the legacy view.
        #
        # First fold the deferred broadcast rounds into the stat columns:
        # each is an awake round, a tx round for a node with ports (idle
        # without), and one 2-bit flag per graph neighbor.
        from ..profiling import phase

        with phase("result_build"):
            b = self.bcast
            self.awake += b
            if self._no_isolated:
                self.tx += b
            else:
                ported = self.deg > 0
                np.add(self.tx, b, out=self.tx, where=ported)
                np.add(self.idle, b, out=self.idle, where=~ported)
            sent = b * self.deg
            self.msent += sent
            sent *= _FLAG_BITS
            self.bits += sent
            del sent
            if self.result_kind == "arrays":
                from .array_result import ArrayRunResult, result_column

                n = self.n
                narrow = self.dtype_kind == "narrow"
                if rounds <= np.iinfo(np.int64).max:
                    finish_dtype: Any = (
                        np.int32
                        if narrow and rounds <= np.iinfo(np.int32).max
                        else np.int64
                    )
                else:
                    finish_dtype = np.float64

                def col(column: np.ndarray) -> np.ndarray:
                    return result_column(column, narrow=narrow)

                return ArrayRunResult(
                    n=n,
                    rounds=rounds,
                    seed=self.seed,
                    node_ids=self.node_ids,
                    in_mis=self.in_mis.copy(),
                    awake_rounds=col(self.awake),
                    sleep_rounds=col(self.sleep),
                    tx_rounds=col(self.tx),
                    rx_rounds=col(self.rx),
                    idle_rounds=col(self.idle),
                    messages_sent=col(self.msent),
                    bits_sent=col(self.bits),
                    messages_received=col(self.mrecv),
                    decision_round=col(self.decision_round),
                    awake_at_decision=col(self.awake_at_decision),
                    finish_round=np.full(n, rounds, dtype=finish_dtype),
                    arrays=self.arrays,
                )
            if self.n == 0:
                return RunResult(
                    n=0, rounds=0, seed=self.seed, node_stats={}, outputs={},
                    protocols={}, adjacency=self.adjacency,
                )
            return assemble_result(
                n=self.n,
                rounds=rounds,
                seed=self.seed,
                adjacency=self.adjacency,
                node_ids=self.node_ids,
                awake=self.awake.tolist(),
                sleep=self.sleep.tolist(),
                tx=self.tx.tolist(),
                rx=self.rx.tolist(),
                idle=self.idle.tolist(),
                msent=self.msent.tolist(),
                bits=self.bits.tolist(),
                mrecv=self.mrecv.tolist(),
                decision_round=self.decision_round.tolist(),
                awake_at_decision=self.awake_at_decision.tolist(),
                finish=repeat(rounds),
                in_mis=self.in_mis.tolist(),
            )


def simulate_vectorized(
    graph: Any, algorithm: str = "fast-sleeping", **kwargs: Any
) -> RunResult:
    """One-shot convenience wrapper around :class:`VectorizedEngine`."""
    return VectorizedEngine(graph, algorithm, **kwargs).run()
