"""Per-node losses on L-hop balls equal their whole-graph definitions.

The reference below evaluates one node's SSL loss on the whole graph, with
the normalized adjacency built entry by entry by the dense oracle of
``test_nn`` and every node embedded, exactly as the loss is defined.  The
ball code must match it (and everything built on it: the Fisher diagonal
and GPIA features) to 1e-12 relative.  The oracle's matrix has the
package's entry rounding and is applied in sparse form, so that each row
sums the same entries in the same order as the package does: a dense
product, or one last bit of an entry, rounds differently, and where a
gradient is what is left after its terms cancel, that alone moves it by
more than 1e-12 of its size, for the whole-graph code as much as for the
ball.  The gradient of the cosine of two parallel embeddings of norm 0.03,
for instance, is the difference of two terms of size 30.  A
second test counts encoder rows to keep per-node work proportional to the
ball, not to the graph.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

import graphmia.baselines as bl
from graphmia.baselines import input_gradient_features
from graphmia.graph import Graph
from graphmia.nn import (
    AdamState,
    GCNEncoder,
    adam_step,
    bce_with_logits,
    cosine_rows,
    info_nce,
)
from graphmia.rng import derive_seed, substream
from graphmia.shadow import estimate_fisher
from graphmia.victim import (
    CONTRASTIVE,
    LINK_PREDICTION,
    SSLObjective,
    VictimModel,
    _augment_draws,
    NodeLoss,
    _sample_distinct,
    augment_graph,
    ball_matrix,
    node_ball,
    per_node_ssl_loss,
)

from conftest import whole_graph_feature_grad
from test_nn import cosine_rows_grad, dense_normalized_adjacency

TOL = 1e-12


def whole_graph_loss(model: VictimModel, graph: Graph, node: int, seed: int):
    """Whole-graph reference of ``per_node_ssl_loss``: every node embedded
    with the oracle adjacency.  Returns (loss, gradient ParamSet, dx)."""
    obj = model.objective
    dom = graph.domain_id
    w_proj = model.projectors[dom]
    weights = model.encoder.weights

    def forward(g: Graph):
        a = sp.csr_matrix(dense_normalized_adjacency(g))
        h = g.features @ w_proj
        cache = []
        for i, w in enumerate(weights):
            m = a @ h
            z = m @ w
            cache.append((m, z))
            h = np.maximum(z, 0.0) if i < len(weights) - 1 else z
        return h, (a, g.features, cache)

    def backward(fcache, dh, grads):
        a, x, cache = fcache
        for i in range(len(weights) - 1, -1, -1):
            m, z = cache[i]
            dz = dh if i == len(weights) - 1 else dh * (z > 0.0)
            grads.tensors[f"gcn.{i}"] += m.T @ dz
            dh = a @ (dz @ weights[i].T)
        grads.tensors[f"proj.{dom}"] += x.T @ dh
        return dh @ w_proj.T

    grads = model.params.zeros_like()
    n = graph.num_nodes
    nbrs = graph.neighbors(node)
    rng = substream(seed, "node-negatives", node)
    if obj.kind == LINK_PREDICTION:
        if len(nbrs) in (0, n - 1):
            return 0.0, grads, np.zeros_like(graph.features)
        negs = np.array(_sample_distinct(rng, n, {node, *nbrs.tolist()}, len(nbrs)))
        others = np.concatenate([nbrs, negs])
        h, fcache = forward(graph)
        loss, ds = bce_with_logits(h[others] @ h[node],
                                   np.r_[np.ones(len(nbrs)), np.zeros(len(negs))])
        dh = np.zeros_like(h)
        for v, d in zip(others, ds):
            dh[v] += d * h[node]
        dh[node] += ds @ h[others]
        return loss, grads, backward(fcache, dh, grads)

    negs = np.array(_sample_distinct(rng, n, {node}, obj.negatives_per_positive))
    aug_seed = derive_seed(seed, "node-view", node)
    h, fcache = forward(graph)
    hv, vcache = forward(augment_graph(graph, aug_seed))
    anchor = np.repeat(h[[node]], len(negs), axis=0)
    loss, dpos, dneg = info_nce(cosine_rows(h[[node]], hv[[node]]),
                                cosine_rows(anchor, h[negs])[None, :], obj.temperature)
    dh = np.zeros_like(h)
    dhv = np.zeros_like(hv)
    da, db = cosine_rows_grad(h[[node]], hv[[node]], dpos)
    dh[node] += da[0]
    dhv[node] += db[0]
    da, db = cosine_rows_grad(anchor, h[negs], dneg[0])
    dh[node] += da.sum(axis=0)
    for v, d in zip(negs, db):
        dh[v] += d
    dx = backward(fcache, dh, grads)
    _, drop_cols = _augment_draws(graph, aug_seed)
    return loss, grads, dx + backward(vcache, dhv, grads) * (~drop_cols)[None, :]


def close(got, want) -> bool:
    """|got - want| <= TOL * max(|want|, 1e-2) at the worst entry.

    Features, weights and similarities here are O(1).  A gradient entry
    far below that is what is left after its O(1) terms cancel (all
    cosines nearly equal, say), and any two summation orders, the whole
    graph's included, agree on it only to the rounding of those terms:
    about 1e-15 in absolute terms on these draws, within the 1e-14 that
    the floor allows."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-2)
    return float(np.max(np.abs(got - want), initial=0.0)) <= TOL * scale


@st.composite
def hub_graphs(draw):
    """A hub adjacent to every node outside a trailing run of isolated
    nodes (to all others when that run is empty), plus random edges."""
    n = draw(st.integers(6, 14))
    isolated = draw(st.integers(0, 2))
    core = n - isolated
    pairs = draw(st.sets(st.tuples(st.integers(1, core - 1), st.integers(1, core - 1)),
                         max_size=2 * n))
    edges = {(0, v) for v in range(1, core)}
    edges |= {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    feats = np.random.default_rng(draw(st.integers(0, 2**16))).normal(size=(n, 3))
    return Graph.from_edges(n, sorted(edges), feats)


def model_for(graph: Graph, kind: str, layers: int, seed: int) -> VictimModel:
    return VictimModel.init(
        {graph.domain_id: graph.feature_dim},
        SSLObjective(kind, negatives_per_positive=3),
        layers,
        8,
        seed=seed,
    )


class TestBallExactness:
    @given(graph=hub_graphs(), kind=st.sampled_from([LINK_PREDICTION, CONTRASTIVE]),
           layers=st.integers(1, 3), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_per_node_loss_gradients_and_dx(self, graph, kind, layers, seed):
        model = model_for(graph, kind, layers, seed)
        for node in range(graph.num_nodes):
            loss, grads = per_node_ssl_loss(model, graph, node, seed=seed)
            dx = whole_graph_feature_grad(model, graph, node, seed)
            ref_loss, ref_grads, ref_dx = whole_graph_loss(model, graph, node, seed)
            assert close(loss, ref_loss)
            for name in ref_grads.names:
                assert close(grads.tensors[name], ref_grads.tensors[name]), (node, name)
            assert close(dx, ref_dx), node

    @given(graph=hub_graphs(), kind=st.sampled_from([LINK_PREDICTION, CONTRASTIVE]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_fisher_diagonal(self, graph, kind, seed):
        model = model_for(graph, kind, 2, seed)
        fisher = estimate_fisher(model, graph, seed)
        n = graph.num_nodes
        for name, value in fisher.items():
            want = sum(
                whole_graph_loss(model, graph, v, derive_seed(seed, "fisher", v))[1].tensors[name] ** 2
                for v in range(n)
            ) / n
            assert close(value, want), name

    @given(graph=hub_graphs(), kind=st.sampled_from([LINK_PREDICTION, CONTRASTIVE]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_gpia_features(self, graph, kind, seed):
        model = model_for(graph, kind, 2, seed)
        nodes = range(graph.num_nodes)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bl, "GPIA_EPOCHS", 3)
            mp.setattr(bl, "GPIA_LR", 1e-2)
            kept, feats, diverged = bl.parameter_change_features(model, graph, nodes, seed)
        assert kept == list(nodes) and diverged == 0
        base = model.params
        compared = 0
        for node, row in zip(nodes, feats):
            tuned = model.copy()
            params = tuned.params
            state = AdamState.init(params, lr=1e-2)
            sensitive = False
            for epoch in range(3):
                _, grads, _ = whole_graph_loss(tuned, graph, node, derive_seed(seed, "gpia", node, epoch))
                sensitive |= adam_sensitive(grads)
                adam_step(state, params, grads)
            if sensitive:
                continue
            want = [np.linalg.norm(params.tensors[k] - base.tensors[k]) for k in base.names]
            assert close(row, want), node
            compared += 1
        assume(compared > 0)


class TestPartialBalls:
    """On a long path every ball is a small part of the graph, so the
    slices, the contrastive view's kept entries and its degrees are read
    at a ball's edge, not on the whole graph."""

    @pytest.mark.parametrize("kind", [LINK_PREDICTION, CONTRASTIVE])
    def test_path_nodes_match_the_whole_graph(self, kind):
        n = 40
        feats = np.random.default_rng(3).normal(size=(n, 3))
        g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)] + [(5, 20)], feats)
        model = model_for(g, kind, 2, seed=4)
        grad_rows = input_gradient_features(model, g, range(n), seed=6)
        for node in range(n):
            seed = derive_seed(6, "grad-feature", node)
            assert len(NodeLoss(g, model.objective, 2, node, [seed]).ball) < n
            loss, grads = per_node_ssl_loss(model, g, node, seed=seed)
            dx = whole_graph_feature_grad(model, g, node, seed)
            ref_loss, ref_grads, ref_dx = whole_graph_loss(model, g, node, seed)
            assert close(loss, ref_loss)
            for name in ref_grads.names:
                assert close(grads.tensors[name], ref_grads.tensors[name]), (node, name)
            assert close(dx, ref_dx), node
            # Grad-MIA reads the node's row of the ball's feature gradient
            np.testing.assert_array_equal(grad_rows[node], dx[node])


def adam_sensitive(grads) -> bool:
    """Whether some gradient entry is nonzero but below 1e-5.

    Adam's first steps move a coordinate by about lr * g / (|g| + eps), so
    a rounding difference d in g moves it by lr * eps * d / g^2.  With
    eps = 1e-8 and d up to 1e-14 (a contrastive gradient whose terms
    cancel), that stays below 1e-12 of a step only for |g| >= 1e-5; an
    entry that is zero in exact arithmetic but not after rounding (a
    positive pair with cosine exactly 1) is the extreme case.  No
    summation order can be compared through such a step."""
    return any(bool(np.any((g != 0) & (np.abs(g) < 1e-5))) for g in grads.tensors.values())


class TestBall:
    @pytest.mark.parametrize("hops, size", [(1, 2), (2, 3000)])
    def test_star_leaf_ball_is_a_slice_of_the_whole_graph_operator(self, hops, size):
        # a leaf of a 2999-leaf star: its 2-hop ball is the whole graph, and
        # the matrix still holds only the ball's edges, never size^2 entries
        n = 3000
        g = Graph.from_edges(n, [(0, v) for v in range(1, n)], np.ones((n, 2)))
        ball = node_ball(g, [5], hops)
        assert len(ball) == size
        got = ball_matrix(g, ball)
        assert got.nnz == size + 2 * (size - 1)
        assert (got != g.gcn_matrix[ball][:, ball]).nnz == 0

    @given(graph=hub_graphs(), hops=st.integers(0, 3), seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_ball_matrix_is_the_whole_graph_slice(self, graph, hops, seed):
        targets = np.random.default_rng(seed).integers(0, graph.num_nodes, size=3)
        ball = node_ball(graph, targets, hops)
        dense = dense_normalized_adjacency(graph)
        assert set(targets) <= set(ball.tolist())
        np.testing.assert_allclose(ball_matrix(graph, ball).toarray(), dense[np.ix_(ball, ball)],
                                   rtol=1e-15, atol=0)


class TestPerNodeCostIsLocal:
    """Fisher over a path must touch O(n) encoder rows in total: each
    node's ball holds at most (2L + 1) nodes around each of its targets.
    Counting rows instead of seconds keeps this independent of the host."""

    @staticmethod
    def _rows(n: int, kind: str, monkeypatch) -> int:
        feats = np.random.default_rng(0).normal(size=(n, 3))
        g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)], feats)
        model = model_for(g, kind, 2, seed=1)
        rows = []
        real = GCNEncoder.forward

        def counting(self, a_hat, h0):
            rows.append(h0.shape[0])
            return real(self, a_hat, h0)

        monkeypatch.setattr(GCNEncoder, "forward", counting)
        estimate_fisher(model, g, seed=2)
        monkeypatch.setattr(GCNEncoder, "forward", real)
        return sum(rows)

    @pytest.mark.parametrize("kind", [LINK_PREDICTION, CONTRASTIVE])
    def test_encoder_rows_grow_linearly(self, kind, monkeypatch):
        small = self._rows(200, kind, monkeypatch)
        large = self._rows(400, kind, monkeypatch)
        # link prediction: node, <= 2 neighbours, <= 2 negatives; contrastive:
        # node and 3 negatives, embedded once in the graph and once in its view
        targets = 5 if kind == LINK_PREDICTION else 2 * 4
        assert large <= 400 * targets * 5
        assert large <= 2.2 * small, (small, large)
