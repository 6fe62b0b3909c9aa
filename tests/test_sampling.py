"""The rank-to-id map behind every negative draw is an exact bijection.

Fed every rank of its pool, the map must return each eligible id once, in
ascending order: the sorted complement of a node's exclusion row, or every
ordered non-edge of a graph in lexicographic order.  A uniform rank then
gives a uniform negative, and distinct ranks give distinct negatives.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphmia.graph import Graph, rank_to_id
from graphmia.nn import info_nce, ref_cosines
from graphmia.rng import derive_seed, substream
from graphmia.synth import sbm_graph
from graphmia.victim import (
    CONTRASTIVE,
    NoNegativeError,
    SSLObjective,
    _closed_row,
    _sample_negative_pairs,
    _sample_outside,
    augment_graph,
    contrastive_loss,
)

from conftest import tiny_model, view_graph


class EveryRank:
    """Generator stand-in whose one bounded draw is every rank in order."""

    def integers(self, high, size):
        assert size == high
        return np.arange(high)


def dense_free(graph: Graph) -> np.ndarray:
    """(n, n) bool matrix: True where (u, v) is an ordered non-edge."""
    n = graph.num_nodes
    free = ~np.eye(n, dtype=bool)
    edges = graph.edge_array
    free[edges[:, 0], edges[:, 1]] = free[edges[:, 1], edges[:, 0]] = False
    return free


def random_graph(n: int, num_edges: int, seed: int, isolated: int = 0) -> Graph:
    """``num_edges`` uniform edges among the first ``n - isolated`` nodes."""
    rng = np.random.default_rng(seed)
    u, v = np.triu_indices(n - isolated, k=1)
    pick = rng.choice(len(u), size=num_edges, replace=False)
    return Graph.from_edges(n, np.stack([u[pick], v[pick]], axis=1), np.zeros((n, 1)))


def hub_graph(n: int) -> Graph:
    """Node 0 adjacent to every other node, plus a path over the rest."""
    edges = [(0, v) for v in range(1, n)] + [(v, v + 1) for v in range(1, n - 1)]
    return Graph.from_edges(n, edges, np.zeros((n, 1)))


def one_non_edge(n: int) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) != (1, n - 2)]
    return Graph.from_edges(n, edges, np.zeros((n, 1)))


GRAPHS = {
    "sbm-30": sbm_graph(30, 4, 3.0, seed=1),
    "sbm-200": sbm_graph(200, 4, 8.0, seed=2),
    "hub-12": hub_graph(12),
    "isolated-10": random_graph(40, 60, seed=4, isolated=10),
    "edgeless-5": Graph.from_edges(5, [], np.zeros((5, 1))),
    "one-non-edge-9": one_non_edge(9),
}


def assert_row_bijection(graph: Graph) -> None:
    """For every node and both exclusion rows (the node alone, and the node
    with its neighbours), every rank maps onto the sorted complement."""
    n = graph.num_nodes
    for node in range(n):
        closed = _closed_row(graph, node)
        assert closed.tolist() == sorted([node, *graph.neighbors(node).tolist()])
        for excluded in (np.array([node]), closed):
            complement = np.setdiff1d(np.arange(n), excluded)
            got = rank_to_id(excluded, np.arange(n - len(excluded)))
            assert got.tolist() == complement.tolist()


def assert_pair_bijection(graph: Graph) -> None:
    """Every rank over the ordered non-edges gives each non-edge once, in
    lexicographic order."""
    want_us, want_vs = np.nonzero(dense_free(graph))
    if len(want_us) == 0:
        with pytest.raises(NoNegativeError):
            _sample_negative_pairs(graph, 1, EveryRank())
        return
    us, vs = _sample_negative_pairs(graph, len(want_us), EveryRank())
    assert us.dtype == vs.dtype == np.int64
    assert us.tolist() == want_us.tolist() and vs.tolist() == want_vs.tolist()


@pytest.mark.parametrize("name", GRAPHS)
def test_node_ranks_enumerate_the_complement(name):
    assert_row_bijection(GRAPHS[name])


@pytest.mark.parametrize("name", GRAPHS)
def test_pair_ranks_enumerate_the_non_edges(name):
    assert_pair_bijection(GRAPHS[name])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 9), data=st.data())
def test_bijections_on_random_graphs(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    graph = Graph.from_edges(n, edges, np.zeros((n, 1)))
    assert_row_bijection(graph)
    assert_pair_bijection(graph)


@pytest.mark.parametrize("pool, count", [(1, 1), (3, 3), (3, 4), (40, 10), (20000, 50)])
def test_distinct_unless_too_few(pool, count):
    """Draws from a pool of ``pool`` eligible ids are distinct when the pool
    holds ``count`` of them, and drawn with replacement otherwise."""
    n = pool + 7
    for seed in range(3):
        excluded = np.sort(np.random.default_rng(seed + 100).choice(n, 7, replace=False))
        eligible = set(np.setdiff1d(np.arange(n), excluded).tolist())
        got = _sample_outside(np.random.default_rng(seed), n, excluded, count)
        assert got.dtype == np.int64 and len(got) == count
        assert set(got.tolist()) <= eligible
        if count <= pool:
            assert len(set(got.tolist())) == count


def test_contrastive_negatives_are_the_offset_draws():
    """Contrastive negatives through the rank map are the non-self draws
    ``raw + (raw >= anchor)`` of the same stream, bit for bit."""
    graph = sbm_graph(50, 4, 4.0, seed=3)
    model = tiny_model(graph, SSLObjective(CONTRASTIVE))
    obj, n = model.objective, graph.num_nodes
    for seed in range(3):
        raw = substream(seed, "contrastive-negatives").integers(
            0, n - 1, size=(n, obj.negatives_per_positive))
        anchors = np.arange(n)
        negatives = raw + (raw >= anchors[:, None])
        # the graph and the view graph embedded apart, the loss read in both
        h, _ = model.forward(graph)
        hv, _ = model.forward(view_graph(graph, *augment_graph(graph, derive_seed(seed, "loss-view"))))
        s, _ = ref_cosines(np.concatenate([h, hv]), anchors, np.column_stack([anchors, negatives]), [n])
        want, _, _ = info_nce(s[:, 0], s[:, 1:], obj.temperature)
        got, _ = contrastive_loss(model, graph, seed)
        assert got == want
