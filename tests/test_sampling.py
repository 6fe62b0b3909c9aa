"""The batched rejection samplers against the draw-by-draw loops they
replace: the same generator stream must give the same samples."""

from __future__ import annotations

from bisect import bisect_left

import numpy as np
import pytest

from graphmia.graph import Graph
from graphmia.synth import sbm_graph
from graphmia.victim import _sample_distinct, _sample_negative_pairs


def scalar_negative_pairs(graph: Graph, count: int, rng: np.random.Generator):
    """Reference: one ``rng.integers(n)`` call for u, one for v, until
    ``count`` pairs are neither a self-pair nor an edge."""
    n = graph.num_nodes
    starts, indices = graph.indptr.tolist(), graph.indices.tolist()
    us, vs = [], []
    while len(us) < count:
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u == v:
            continue
        i = bisect_left(indices, v, starts[u], starts[u + 1])
        if i < starts[u + 1] and indices[i] == v:
            continue
        us.append(u)
        vs.append(v)
    return us, vs


def scalar_distinct(rng: np.random.Generator, n: int, exclude: set[int], count: int) -> list[int]:
    """Reference: the rejection path, one ``rng.integers(n)`` call per draw."""
    chosen: list[int] = []
    taken = set(exclude)
    while len(chosen) < count:
        v = int(rng.integers(n))
        if v in taken:
            continue
        taken.add(v)
        chosen.append(v)
    return chosen


def random_graph(n: int, num_edges: int, seed: int, isolated: int = 0) -> Graph:
    """``num_edges`` uniform edges among the first ``n - isolated`` nodes."""
    rng = np.random.default_rng(seed)
    m = n - isolated
    u, v = np.triu_indices(m, k=1)
    pick = rng.choice(len(u), size=num_edges, replace=False)
    return Graph.from_edges(n, np.stack([u[pick], v[pick]], axis=1), np.zeros((n, 1)))


def non_edge_share(graph: Graph) -> float:
    pairs = graph.num_nodes * (graph.num_nodes - 1) // 2
    return (pairs - graph.num_edges) / pairs


@pytest.mark.parametrize("n", [7, 100, 2**31 + 5, 2**40])
def test_scalar_draws_equal_one_block_draw(n):
    """numpy's Generator gives the same integers, and ends in the same
    state, whether bounded integers are drawn one call each or in blocks.
    Both samplers rely on it to keep the draw-by-draw results."""
    a, b, c = (np.random.default_rng(11) for _ in range(3))
    scalar = [int(a.integers(n)) for _ in range(501)]
    assert b.integers(n, size=501).tolist() == scalar
    blocks = [c.integers(n, size=k) for k in (1, 7, 0, 493)]
    assert np.concatenate(blocks).tolist() == scalar
    assert a.bit_generator.state == b.bit_generator.state == c.bit_generator.state


class TestNegativePairs:
    @pytest.mark.parametrize("graph", [
        sbm_graph(30, 4, 3.0, seed=1),
        sbm_graph(200, 4, 8.0, seed=2),
        sbm_graph(500, 4, 1.5, seed=3),         # sparse: many isolated nodes
        random_graph(40, 60, seed=4, isolated=10),
        random_graph(2, 0, seed=5),
    ], ids=["sbm-30", "sbm-200", "sbm-500-sparse", "isolated-10", "edgeless-2"])
    @pytest.mark.parametrize("count", [0, 1, 2, 17, 1000])
    def test_equals_scalar_loop(self, graph, count):
        for seed in range(3):
            us, vs = _sample_negative_pairs(graph, count, np.random.default_rng(seed))
            ref_us, ref_vs = scalar_negative_pairs(graph, count, np.random.default_rng(seed))
            assert us.dtype == vs.dtype == np.int64
            assert us.tolist() == ref_us and vs.tolist() == ref_vs

    @pytest.mark.parametrize("num_edges", [570, 580, 585])
    def test_lowest_acceptance_before_enumeration(self, num_edges):
        """Down to a non-edge share of exactly 1/4, the densest graph still
        rejection-sampled, and one more edge switches to enumeration."""
        graph = random_graph(40, num_edges, seed=num_edges)
        assert non_edge_share(graph) >= 0.25
        assert non_edge_share(random_graph(40, 586, seed=0)) < 0.25
        for count in (1, 50, num_edges):
            us, vs = _sample_negative_pairs(graph, count, np.random.default_rng(count))
            assert (us.tolist(), vs.tolist()) == scalar_negative_pairs(
                graph, count, np.random.default_rng(count))


class TestDistinct:
    @pytest.mark.parametrize("n, exclude, count", [
        (100, set(), 0),
        (100, {3}, 1),
        (500, {0, 1, 2}, 5),
        (500, set(range(0, 500, 2)), 40),       # half the nodes excluded
        (1000, set(range(900)), 10),            # pool of 100 among 1000
        (21, {0, 1, 2, 3}, 4),                  # pool 17, one above 16
        (22, {0, 1, 2, 3}, 4),                  # pool 18
        (50, set(range(9)), 10),                # pool 41, one above 4 * 10
        (50, set(range(8)), 10),                # pool 42
    ])
    def test_rejection_equals_scalar_loop(self, n, exclude, count):
        assert n - len(exclude) > max(4 * count, 16)
        for seed in range(5):
            got = _sample_distinct(np.random.default_rng(seed), n, exclude, count)
            assert got == scalar_distinct(np.random.default_rng(seed), n, exclude, count)
            assert len(set(got)) == count and not set(got) & exclude

    @pytest.mark.parametrize("n, exclude, count", [(20, {0, 1, 2, 3}, 4), (50, set(range(10)), 10)])
    def test_pool_at_the_switch_is_chosen_from(self, n, exclude, count):
        """At ``max(4 * count, 16)`` eligible nodes the pool branch draws
        one ``rng.choice``, unchanged."""
        pool = np.array(sorted(set(range(n)) - exclude))
        got = _sample_distinct(np.random.default_rng(2), n, exclude, count)
        assert got == np.random.default_rng(2).choice(pool, size=count, replace=False).tolist()
