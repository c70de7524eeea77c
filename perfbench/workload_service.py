"""service-mixed: two closed-loop clients against start_service_thread(workers=2).

The only path through the service's routes, result cache and worker pool.
Each client sends its own seeded list of /v1/solve requests at n = 2e4
over four algorithms: exact repeats of its own earlier keys (result-cache
hits), a seed it has seen with a new algorithm (a result-cache miss that
may find the graph in a worker's graph LRU), and fresh seeds (cold).
Keys are private to one client, so a repeat is always sent after its
first request completed and the cache counts repeat exactly.  Latency is
reported per request class: hits (~1 ms) and cold solves (~50 ms) are too
far apart for an overall median to be stable.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import threading
import time
from typing import Dict, List, Tuple

from harness import (
    Run, derive_seed, import_seconds, median, peak_rss_mb, percentile,
    run_units,
)
from spans import Tracer

N = 20_000
ALGORITHMS = ("fast-sleeping", "sleeping", "luby", "ghaffari")
CLIENTS = 2
WORKERS = 2
#: Per client: exact repeats, seen seed with a new algorithm, fresh seed.
#: 2 x 60 cold solves per unit leave at least 10 samples above p90.
MIX = {"hit": 80, "graph_warm": 60, "cold": 60}
#: Fresh seeds a graph_warm request picks from (the most recent first
#: requests of this client), so a worker's graph LRU can hold them.
RECENT = 4
SETUP_REPS = 3
#: Cold keys of unit 0 re-run in-process after the server stops: the
#: first four of each algorithm.
CHECK_KEYS = 16
MAX_UNITS = 8
MODULES = ("repro.plan", "repro.service.app", "repro.service.schema")


Request = Tuple[str, str, int]  # (class, algorithm, seed)


def _plans() -> Dict[str, dict]:
    from repro.plan import RunPlan

    return {
        algorithm: RunPlan(
            algorithm=algorithm, family="gnp-sparse", n=N, engine="auto",
            rng="batched", graph_rng="batched", result="arrays",
        ).to_dict()
        for algorithm in ALGORITHMS
    }


def _seed_base(run: Run) -> int:
    # Seeds of one run never collide: unit and client select disjoint
    # ranges, and unit MAX_UNITS + 1 is reserved for warm-up solves.
    return (derive_seed(run.seed, 0) % 1_000_000) * 10_000_000


def requests_for(run: Run, unit: int, client: int) -> List[Request]:
    """The seeded request list of one client in one unit."""
    rng = random.Random(f"service-mixed|{run.seed}|{unit}|{client}")
    classes = [c for c, count in MIX.items() for _ in range(count)]
    rng.shuffle(classes)
    next_seed = _seed_base(run) + unit * 1_000_000 + client * 100_000
    history: List[Tuple[str, int]] = []
    seeds: List[int] = []
    used: Dict[int, List[str]] = {}
    out: List[Request] = []
    for index in range(len(classes)):
        unused = [
            s for s in seeds[-RECENT:] if len(used[s]) < len(ALGORITHMS)
        ] or [s for s in seeds if len(used[s]) < len(ALGORITHMS)]
        feasible = {"hit": bool(history), "graph_warm": bool(unused),
                    "cold": True}
        if not feasible[classes[index]]:
            # Swap in the next cold request; a cold one is always feasible.
            swap = classes.index("cold", index)
            classes[index], classes[swap] = classes[swap], classes[index]
        kind = classes[index]
        if kind == "hit":
            algorithm, seed = rng.choice(history)
        elif kind == "graph_warm":
            seed = rng.choice(unused)
            algorithm = rng.choice(
                [a for a in ALGORITHMS if a not in used[seed]]
            )
        else:
            # Fresh seeds cycle through the algorithms, so every run sends
            # the same algorithm mix cold.
            algorithm = ALGORITHMS[len(seeds) % len(ALGORITHMS)]
            seed = next_seed
            next_seed += 1
            seeds.append(seed)
            used[seed] = []
        if kind != "hit":
            used[seed].append(algorithm)
            history.append((algorithm, seed))
        out.append((kind, algorithm, seed))
    return out


def _post(conn, plans, algorithm: str, seed: int) -> Tuple[int, bytes, float]:
    from repro.service.schema import SolveRequest

    body = json.dumps(
        SolveRequest(plan=plans[algorithm], seed=seed).to_dict()
    ).encode()
    start = time.perf_counter()
    conn.request("POST", "/v1/solve", body,
                 {"Content-Type": "application/json"})
    response = conn.getresponse()
    data = response.read()
    return response.status, data, time.perf_counter() - start


def _start_service(run: Run, plans):
    """Start the service and send one warm-up solve per worker at once,
    on keys outside every request list."""
    from repro.service.app import start_service_thread

    handle = start_service_thread(workers=WORKERS)
    warm_seed = _seed_base(run) + (MAX_UNITS + 1) * 1_000_000

    def warm(index: int) -> None:
        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=120)
        try:
            status, _, _ = _post(conn, plans, ALGORITHMS[0], warm_seed + index)
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"warm-up solve answered HTTP {status}")

    threads = [threading.Thread(target=warm, args=(i,)) for i in range(WORKERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return handle


def _loop(run: Run, handle, plans, unit: int, tracer: Tracer) -> dict:
    """One closed loop of every client's list; checks every response."""
    lists = [requests_for(run, unit, c) for c in range(CLIENTS)]
    records: List[List[tuple]] = [[] for _ in range(CLIENTS)]
    cache0 = handle.service.cache.stats()
    pool0 = handle.service.pool.counters()

    def client(index: int, parent) -> None:
        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=120)
        try:
            with tracer.span(f"client.{index}", parent=parent):
                for kind, algorithm, seed in lists[index]:
                    with tracer.span("service.solve", cls=kind,
                                     algorithm=algorithm):
                        status, data, latency = _post(
                            conn, plans, algorithm, seed
                        )
                    records[index].append(
                        (kind, algorithm, seed, status, data, latency)
                    )
        finally:
            conn.close()

    with tracer.span("service.closed_loop", unit=unit) as root:
        start = time.perf_counter()
        threads = [
            threading.Thread(target=client, args=(i, root))
            for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
    cache1 = handle.service.cache.stats()
    pool1 = handle.service.pool.counters()

    first: Dict[Tuple[str, int], bytes] = {}
    latency: Dict[str, List[float]] = {c: [] for c in MIX}
    cold: List[list] = [[] for _ in range(CLIENTS)]
    ok = rejected = 0
    for index, kind, algorithm, seed, status, data, seconds in (
        (i, *r) for i, rs in enumerate(records) for r in rs
    ):
        run.attempted += 1
        if not run.check(
            status == 200, f"{kind} solve {algorithm}/{seed}: HTTP {status}",
            wrong_output=False,
        ):
            rejected += status in (429, 504)
            continue
        ok += 1
        latency[kind].append(seconds)
        key = (algorithm, seed)
        if kind == "hit":
            run.check(
                data == first.get(key),
                f"cache hit for {algorithm}/{seed} differs from its first "
                f"response",
            )
            continue
        first[key] = data
        row = json.loads(data)["row"]
        run.check(
            bool(row["valid"]) and row["undecided"] == 0,
            f"{algorithm}/{seed}: valid={row['valid']} "
            f"undecided={row['undecided']}",
        )
        if kind == "cold":
            cold[index].append((algorithm, seed, seconds, row))

    executed = pool1["executed"] - pool0["executed"]
    digest = hashlib.sha256()
    for key in sorted(first):
        digest.update(first[key])
    counts = {
        "cache_hits": cache1["hits"] - cache0["hits"],
        "cache_misses": cache1["misses"] - cache0["misses"],
        "pool_executed": executed,
        "ok": ok,
        "responses_sha256": digest.hexdigest(),
    }
    run.record_counts(unit, counts)
    run.digests.append(
        f"service-mixed unit={unit} requests={sum(map(len, lists))} "
        + " ".join(f"{k}={v}" for k, v in counts.items())
    )
    return {
        "wall": wall, "ok": ok, "executed": executed, "latency": latency,
        # The clients' cold keys alternate, so the in-process check covers
        # both lists.
        "cold_keys": [k for group in zip(*cold) for k in group],
        "counts": counts, "rejected": rejected,
        "respawns": pool1["respawns"] - pool0["respawns"],
    }


def _in_process(run: Run, plans, cold_keys) -> List[Tuple[float, float]]:
    """Re-run the first cold keys through execute_trial after the server
    stopped; their rows must equal the service's.  Returns
    ``(in-process seconds, client latency)`` pairs."""
    from repro.plan import RunPlan
    from repro.sweeps.runner import execute_trial

    pairs = []
    for algorithm, seed, client_s, row in cold_keys[:CHECK_KEYS]:
        start = time.perf_counter()
        payload = execute_trial(RunPlan.from_dict(plans[algorithm]), seed)
        pairs.append((time.perf_counter() - start, client_s))
        run.check(
            json.dumps(payload["row"], sort_keys=True)
            == json.dumps(row, sort_keys=True),
            f"service row for {algorithm}/{seed} differs from execute_trial",
        )
        run.attempted += 1
    return pairs


def measure(run: Run) -> None:
    plans = _plans()
    if run.trace:
        _traced(run, plans)
        return
    setups, handle = [], None
    for _ in range(SETUP_REPS):
        if handle is not None:
            handle.stop()
        imports = import_seconds(MODULES)
        start = time.perf_counter()
        handle = _start_service(run, plans)
        setups.append(imports + time.perf_counter() - start)
    loops = []
    off = Tracer(False, "")
    try:
        def unit(index: int) -> float:
            loops.append(_loop(run, handle, plans, index, off))
            return loops[-1]["wall"]

        run_units(run.seconds, unit, max_units=MAX_UNITS)
    finally:
        handle.stop()
    # The serving process's high-water mark, before the in-process re-runs.
    serving_rss = peak_rss_mb()
    pairs = _in_process(run, plans, loops[0]["cold_keys"])
    cold = [s for loop in loops for s in loop["latency"]["cold"]]
    run.metrics.update({
        "setup_s": median(setups),
        "trial_s": median([inproc for inproc, _ in pairs]),
        "peak_rss_mb": serving_rss,
        # Solves that reached a worker, per second of the closed loop.
        "sweep_trials_per_s": median(
            [loop["executed"] / loop["wall"] for loop in loops]
        ),
        "solves_per_s": median([loop["ok"] / loop["wall"] for loop in loops]),
        "cold_solve_p50_ms": percentile(cold, 50) * 1e3,
        "cold_solve_p90_ms": percentile(cold, 90) * 1e3,
    })


def _traced(run: Run, plans) -> None:
    handle = _start_service(run, plans)
    try:
        untraced = _loop(run, handle, plans, 0, Tracer(False, ""))
    finally:
        handle.stop()
    # A fresh service, so the traced pass sees the same cold cache.
    tracer = Tracer(True, f"service-mixed-{run.seed}")
    run.tracer = tracer
    handle = _start_service(run, plans)
    try:
        traced = _loop(run, handle, plans, 0, tracer)
    finally:
        handle.stop()
    pairs = _in_process(run, plans, traced["cold_keys"])
    counts = traced["counts"]
    lookups = counts["cache_hits"] + counts["cache_misses"]
    run.metrics.update({
        "service.cache.hits": counts["cache_hits"],
        "service.cache.misses": counts["cache_misses"],
        "service.cache.hit_ratio": counts["cache_hits"] / max(lookups, 1),
        "service.cache.hit_p50_ms": median(traced["latency"]["hit"]) * 1e3,
        "service.graph_warm_p50_ms":
            median(traced["latency"]["graph_warm"]) * 1e3,
        "service.pool.executed": traced["executed"],
        "service.pool.respawns": traced["respawns"],
        "service.rejected": traced["rejected"],
        "service.ipc_overhead_ms":
            median([client - inproc for inproc, client in pairs]) * 1e3,
        "trace.overhead_s": traced["wall"] - untraced["wall"],
    })
