"""Property-based tests (hypothesis) on core invariants.

Strategy: generate random graph shapes and seeds and assert the invariants
that the paper proves always (not just w.h.p.) or that our implementation
must maintain unconditionally: MIS validity of the greedy oracle, validity
of the phased baselines, rank-order laws, schedule arithmetic, payload bit
monotonicity, the Corollary 1 equivalence conditioned on distinct ranks,
and the cross-engine contract: on any graph, the vectorized engines replay
the generator engine's execution exactly.
"""

import math
from itertools import combinations

import networkx as nx
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import assert_equivalent, run_mis
from repro.api import solve_mis
from repro.baselines.seq_greedy import greedy_mis, lexicographically_first_mis
from repro.core import schedule
from repro.core.ranks import k_rank, ranks_unique
from repro.graphs import is_maximal_independent_set
from repro.sim.fast_engine import SLEEPING_ALGORITHMS, SUPPORTED_ALGORITHMS
from repro.sim.messages import payload_bits

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_graphs(draw, max_nodes=24):
    """A random graph as (n, edge set) with reproducible structure."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(
            st.sampled_from(possible) if possible else st.nothing(),
            unique=True,
            max_size=len(possible),
        )
    ) if possible else []
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    return graph


@st.composite
def shaped_graphs(draw, max_nodes=20):
    """A random graph with planted shapes: a star, a clique, and extra
    isolated nodes, each present or not -- the extremes of the sleeping
    recursion's per-node edge segments (empty, one long hub segment,
    all-to-all)."""
    graph = draw(random_graphs(max_nodes=max_nodes))
    n = graph.number_of_nodes()
    nodes = st.integers(min_value=0, max_value=n - 1)
    if n >= 3 and draw(st.booleans()):
        hub, *leaves = draw(st.lists(nodes, min_size=2, max_size=n, unique=True))
        graph.add_edges_from((hub, leaf) for leaf in leaves)
    if n >= 3 and draw(st.booleans()):
        clique = draw(
            st.lists(nodes, min_size=3, max_size=min(n, 8), unique=True)
        )
        graph.add_edges_from(combinations(clique, 2))
    graph.add_nodes_from(range(n, n + draw(st.integers(0, 3))))
    return graph


class TestCrossEngineFuzz:
    """Differential fuzz: generator engine vs vectorized engine.

    Every NodeStats field must be bit-identical for all six vectorized
    algorithms, both RNG streams, and (for the sleeping recursion)
    depths 0, 1, 3 and the default -- depths the fixed ``GRAPH_CASES``
    reach only on one graph.
    """

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        graph=shaped_graphs(),
        algorithm=st.sampled_from(SUPPORTED_ALGORITHMS),
        rng=st.sampled_from(("pernode", "batched")),
        depth=st.sampled_from((0, 1, 3, None)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_engines_agree_exactly(self, graph, algorithm, rng, depth, seed):
        kwargs = {"rng": rng}
        if depth is not None and algorithm in SLEEPING_ALGORITHMS:
            kwargs["depth"] = depth
        reference = run_mis(
            graph, algorithm, seed=seed, engine="generators", **kwargs
        )
        vectorized = run_mis(
            graph, algorithm, seed=seed, engine="vectorized", **kwargs
        )
        assert_equivalent(reference, vectorized)


class TestGreedyOracleProperties:
    @SLOW
    @given(random_graphs(), st.randoms(use_true_random=False))
    def test_greedy_always_mis(self, graph, rng):
        order = list(graph.nodes())
        rng.shuffle(order)
        mis = greedy_mis(graph, order)
        assert is_maximal_independent_set(graph, mis)

    @SLOW
    @given(random_graphs())
    def test_first_in_order_always_joins(self, graph):
        if graph.number_of_nodes() == 0:
            return
        order = sorted(graph.nodes())
        assert order[0] in greedy_mis(graph, order)

    @SLOW
    @given(random_graphs(), st.integers(min_value=0, max_value=10**6))
    def test_priority_map_equivalent_to_sorted_order(self, graph, salt):
        priority = {v: (v * 2654435761 + salt) % 997 for v in graph.nodes()}
        by_map = lexicographically_first_mis(graph, priority)
        order = sorted(
            graph.nodes(), key=lambda v: (priority[v], v), reverse=True
        )
        assert by_map == greedy_mis(graph, order)


class TestAlgorithmProperties:
    @SLOW
    @given(random_graphs(max_nodes=18), st.integers(min_value=0, max_value=50))
    def test_baselines_always_valid(self, graph, seed):
        for algorithm in ("luby", "greedy", "ghaffari"):
            result = solve_mis(graph, algorithm=algorithm, seed=seed)
            assert is_maximal_independent_set(graph, result.mis)

    @SLOW
    @given(random_graphs(max_nodes=16), st.integers(min_value=0, max_value=50))
    def test_sleeping_valid_when_ranks_distinct(self, graph, seed):
        result = solve_mis(graph, algorithm="sleeping", seed=seed)
        bits_of = {v: p.x_bits for v, p in result.protocols.items()}
        if ranks_unique(bits_of):
            assert is_maximal_independent_set(graph, result.mis)
            # Corollary 1 under the same precondition.
            from repro.analysis import check_lexicographically_first

            assert check_lexicographically_first(result)

    @SLOW
    @given(random_graphs(max_nodes=16), st.integers(min_value=0, max_value=50))
    def test_fast_sleeping_valid(self, graph, seed):
        result = solve_mis(graph, algorithm="fast-sleeping", seed=seed)
        bits_of = {v: p.x_bits for v, p in result.protocols.items()}
        ranks = {
            v: (bits_of[v], getattr(result.protocols[v], "base_rank", None))
            for v in bits_of
        }
        distinct = len(set(map(str, ranks.values()))) == len(ranks)
        if distinct and not any(
            p.base_truncated for p in result.protocols.values()
        ):
            assert is_maximal_independent_set(graph, result.mis)

    @SLOW
    @given(
        random_graphs(max_nodes=14),
        st.integers(min_value=0, max_value=20),
    )
    def test_sleeping_wall_clock_is_schedule(self, graph, seed):
        n = graph.number_of_nodes()
        if n == 0:
            return
        result = solve_mis(graph, algorithm="sleeping", seed=seed)
        assert result.rounds == schedule.call_duration(
            schedule.recursion_depth(n)
        )


class TestRankProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=12),
        st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=12),
    )
    def test_rank_comparison_antisymmetric(self, a, b):
        k = min(len(a), len(b))
        ra, rb = k_rank(a, k), k_rank(b, k)
        assert not (ra < rb and rb < ra)

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=12))
    def test_rank_length(self, bits):
        for k in range(len(bits) + 1):
            assert len(k_rank(bits, k)) == k + 1

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=12))
    def test_rank_prefix_consistency(self, bits):
        # r_k determines r_{k-1} by dropping the leading bit.
        k = len(bits)
        assert k_rank(bits, k)[1:] == k_rank(bits, k - 1)


class TestScheduleProperties:
    @given(st.integers(min_value=0, max_value=30))
    def test_duration_recurrence(self, k):
        if k > 0:
            assert schedule.call_duration(k) == 2 * schedule.call_duration(
                k - 1
            ) + 3

    @given(
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=1000),
    )
    def test_fast_duration_recurrence(self, k, base):
        if k > 0:
            assert schedule.fast_call_duration(
                k, base
            ) == 2 * schedule.fast_call_duration(k - 1, base) + 3

    @given(st.integers(min_value=2, max_value=10**9))
    def test_depths_ordered(self, n):
        assert schedule.truncated_depth(n) <= schedule.recursion_depth(n)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_greedy_rounds_logarithmic(self, n):
        rounds = schedule.greedy_rounds(n)
        assert rounds >= 8
        assert rounds <= 8 * (math.ceil(math.log2(max(n, 2))) + 1)


class TestPayloadProperties:
    @given(st.integers())
    def test_int_bits_match_bit_length(self, value):
        assert payload_bits(value) == max(value.bit_length(), 1) + 2

    @given(st.lists(st.integers(min_value=0, max_value=2**30), max_size=8))
    def test_tuple_bits_sum(self, values):
        total = sum(payload_bits(v) + 4 for v in values)
        assert payload_bits(tuple(values)) == total

    @given(st.text(max_size=40))
    def test_str_bits_linear(self, text):
        assert payload_bits(text) == 8 * len(text) + 8
