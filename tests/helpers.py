"""Importable test helpers shared across the suite.

These used to live in ``tests/conftest.py`` and were imported with
``from conftest import run_mis`` -- which silently resolved to
``benchmarks/conftest.py`` whenever pytest collected the benchmarks
directory first, breaking the whole suite.  Keeping the helpers in a module
whose name exists exactly once in the repository makes that shadowing
structurally impossible.  ``tests/conftest.py`` re-exports the fixtures.
"""

from __future__ import annotations

from dataclasses import asdict
from types import SimpleNamespace

import networkx as nx
import numpy as np

from repro.api import solve_mis

#: Small graphs covering the structural corner cases: empty, singleton,
#: disconnected, dense, sparse, bipartite, hub-and-spoke.
GRAPH_CASES = [
    ("single", lambda: nx.empty_graph(1)),
    ("two-isolated", lambda: nx.empty_graph(2)),
    ("edge", lambda: nx.path_graph(2)),
    ("triangle", lambda: nx.complete_graph(3)),
    ("path-9", lambda: nx.path_graph(9)),
    ("cycle-10", lambda: nx.cycle_graph(10)),
    ("star-12", lambda: nx.star_graph(11)),
    ("complete-8", lambda: nx.complete_graph(8)),
    ("bipartite-4-5", lambda: nx.complete_bipartite_graph(4, 5)),
    ("grid-4x4", lambda: nx.convert_node_labels_to_integers(nx.grid_2d_graph(4, 4))),
    ("gnp-30", lambda: nx.gnp_random_graph(30, 0.15, seed=4)),
    ("gnp-60-sparse", lambda: nx.gnp_random_graph(60, 0.05, seed=8)),
    ("two-components",
     lambda: nx.disjoint_union(nx.cycle_graph(5), nx.complete_graph(4))),
    ("isolated-plus-clique",
     lambda: nx.disjoint_union(nx.empty_graph(3), nx.complete_graph(5))),
]

GRAPH_IDS = [name for name, _ in GRAPH_CASES]
GRAPH_BUILDERS = [builder for _, builder in GRAPH_CASES]


def run_mis(graph, algorithm, seed=0, **kwargs):
    """Thin wrapper so tests read uniformly."""
    return solve_mis(graph, algorithm=algorithm, seed=seed, **kwargs)


def assert_equivalent(reference, vectorized):
    """Diff two RunResults field by field with a readable failure."""
    assert reference.n == vectorized.n
    assert reference.rounds == vectorized.rounds
    assert reference.outputs == vectorized.outputs
    assert reference.mis == vectorized.mis
    assert reference.undecided == vectorized.undecided
    assert reference.adjacency == vectorized.adjacency
    assert set(reference.node_stats) == set(vectorized.node_stats)
    for v in reference.node_stats:
        ref = asdict(reference.node_stats[v])
        vec = asdict(vectorized.node_stats[v])
        diff = {key: (ref[key], vec[key]) for key in ref if ref[key] != vec[key]}
        assert not diff, f"node {v!r} stats diverge (ref, vec): {diff}"


def argsort_csr_reference(n, lo, hi):
    """The order-agnostic CSR build the one pair builder is pinned to.

    Distinct undirected pairs ``lo[i] < hi[i]`` in any order -> the
    ``src``/``dst``/``grev``/``deg`` arrays of
    :class:`repro.sim.fast_engine.GraphArrays`, from one int64 argsort of
    all ``2m`` directed ``(src, dst)`` keys.  Slow and simple on purpose:
    it shares no slot arithmetic with the builder it checks.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    m = len(lo)
    nn = np.int64(n)
    keys = np.concatenate([lo * nn + hi, hi * nn + lo])
    order = np.argsort(keys)  # (src, dst) ascending == key ascending
    src = np.concatenate([lo, hi]).astype(np.int32)[order]
    dst = np.concatenate([hi, lo]).astype(np.int32)[order]
    # Pre-sort slot i's reverse partner is slot i +- m; mapping both
    # through the sort permutation yields grev without another sort.
    pos = np.empty(2 * m, dtype=np.int32)
    pos[order] = np.arange(2 * m, dtype=np.int32)
    grev = np.concatenate([pos[m:], pos[:m]])[order]
    deg = np.bincount(src, minlength=n).astype(np.int64)
    return SimpleNamespace(n=n, src=src, dst=dst, grev=grev, deg=deg)
