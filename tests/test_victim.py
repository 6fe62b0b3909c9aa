from __future__ import annotations

import contextlib
import signal
import warnings

import numpy as np
import pytest

import graphmia.victim as victim_mod
from graphmia.graph import Graph, graph_fingerprint, induced_subgraph, split_half
from graphmia.nn import NumericError
from graphmia.rng import derive_seed
from graphmia.synth import sbm_graph
from graphmia.victim import (
    CONTRASTIVE,
    LINK_PREDICTION,
    MissingProjectorError,
    NoNegativeError,
    NoPositiveError,
    SSLObjective,
    TrainConfig,
    VictimModel,
    _sample_negative_pairs,
    augment_graph,
    contrastive_loss,
    embed,
    fine_tune,
    linkpred_loss,
    make_positive_negative,
    per_node_ssl_loss,
    pretrain_multidomain,
    ssl_loss_and_grads,
    view_seed,
)

from conftest import (
    finite_diff_grads, gcn_forward, max_rel_error, nan_on_call, tiny_model,
    whole_graph_feature_grad,
)


def star_graph(leaves: int = 5, feature_dim: int = 2, spare: int = 4) -> Graph:
    """Hub 0 with ``leaves`` neighbors, plus a spare clique of non-neighbors."""
    n = leaves + 1 + spare
    feats = np.random.default_rng(0).normal(size=(n, feature_dim))
    edges = [(0, i) for i in range(1, leaves + 1)]
    edges += [(u, v) for u in range(leaves + 1, n) for v in range(u + 1, n)]
    return Graph.from_edges(n, edges, feats)


class TestModelBasics:
    def test_zero_lr_keeps_init(self, small_sbm, linkpred_objective):
        cfg = TrainConfig(epochs=1, lr=0.0, layers=2, emb_dim=8)
        members = frozenset(range(small_sbm.num_nodes))
        trained = pretrain_multidomain([induced_subgraph(small_sbm, members)], linkpred_objective,
                                       cfg, seed=4)
        init = VictimModel.init(
            {small_sbm.domain_id: small_sbm.feature_dim}, linkpred_objective,
            cfg.layers, cfg.emb_dim,
            seed=derive_seed(4, "init"),
        )
        for k in trained.params.names:
            np.testing.assert_array_equal(trained.params.tensors[k], init.params.tensors[k])

    def test_loss_decreases_two_domains(self, linkpred_objective):
        graphs = [sbm_graph(40, 6, 6.0, seed=1, domain_id=0),
                  sbm_graph(40, 5, 6.0, seed=2, domain_id=1)]
        members = [induced_subgraph(g, range(40)) for g in graphs]
        cfg = TrainConfig(epochs=200, lr=1e-3, layers=2, emb_dim=8)
        model = pretrain_multidomain(members, linkpred_objective, cfg, seed=9)
        fresh = VictimModel.init(
            {0: 6, 1: 5}, linkpred_objective, cfg.layers, cfg.emb_dim,
            seed=derive_seed(9, "init"),
        )
        for g in graphs:
            before, _ = ssl_loss_and_grads(fresh, g, seed=123)
            after, _ = ssl_loss_and_grads(model, g, seed=123)
            assert after < before

    def test_five_domains_five_projectors(self, linkpred_objective):
        graphs = [sbm_graph(20, 4, 4.0, seed=d, domain_id=d) for d in range(5)]
        members = [induced_subgraph(g, range(20)) for g in graphs]
        model = pretrain_multidomain(
            members, linkpred_objective, TrainConfig(epochs=1, lr=1e-3, layers=2, emb_dim=6), seed=0
        )
        assert sorted(model.projectors) == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("case, match", [
        ("none", "at least one"), ("twice", "unique"), ("empty", "empty member graph"),
    ])
    def test_rejects_bad_member_graphs(self, small_sbm, linkpred_objective, case, match):
        graphs = {"none": [], "twice": [small_sbm, small_sbm],
                  "empty": [induced_subgraph(small_sbm, [])]}[case]
        with pytest.raises(ValueError, match=match):
            pretrain_multidomain(graphs, linkpred_objective, TrainConfig(epochs=1, lr=1e-3, layers=2, emb_dim=64),
                                 seed=0)

    def test_domain_order_irrelevant(self, linkpred_objective):
        graphs = [sbm_graph(25, 4, 5.0, seed=d, domain_id=d) for d in range(2)]
        members = [induced_subgraph(g, range(25)) for g in graphs]
        cfg = TrainConfig(epochs=10, lr=1e-3, layers=2, emb_dim=6)
        a = pretrain_multidomain(members, linkpred_objective, cfg, seed=5)
        b = pretrain_multidomain(members[::-1], linkpred_objective, cfg, seed=5)
        for k in a.params.names:
            np.testing.assert_array_equal(a.params.tensors[k], b.params.tensors[k])

    def test_missing_projector(self, small_sbm, linkpred_objective):
        model = tiny_model(small_sbm, linkpred_objective)
        unseen = Graph.from_edges(small_sbm.num_nodes, small_sbm.edge_array, small_sbm.features,
                                  domain_id=42)
        with pytest.raises(MissingProjectorError):
            embed(model, unseen)


class TestEmbed:
    def test_zero_weight_model(self, small_sbm, linkpred_objective):
        model = tiny_model(small_sbm, linkpred_objective)
        for t in model.params.tensors.values():
            t[:] = 0.0
        np.testing.assert_array_equal(
            embed(model, small_sbm),
            np.zeros((small_sbm.num_nodes, 6)),
        )

    def test_purity(self, small_sbm, linkpred_objective):
        model = tiny_model(small_sbm, linkpred_objective)
        a = embed(model, small_sbm)
        b = embed(model, small_sbm)
        np.testing.assert_array_equal(a, b)

    def test_composition_oracle(self, small_sbm, linkpred_objective):
        model = tiny_model(small_sbm, linkpred_objective)
        got = embed(model, small_sbm)
        projected = small_sbm.features @ model.projectors[small_sbm.domain_id]
        want = gcn_forward(model.encoder, small_sbm, projected)
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestSampling:
    def test_star_center_three_distinct_leaves(self, linkpred_objective):
        g = star_graph(5)
        pos, neg = make_positive_negative(g, 0, linkpred_objective, 3, seed=1)
        ids = pos.tolist()
        assert len(set(ids)) == 3 and all(1 <= i <= 5 for i in ids)
        # the hub's only non-neighbors are the spare clique's nodes
        assert set(neg.tolist()) <= {6, 7, 8, 9}
        assert pos.dtype == neg.dtype == np.int64

    def test_leaf_with_replacement(self, linkpred_objective):
        g = star_graph(5)
        pos, _ = make_positive_negative(g, 1, linkpred_objective, 2, seed=1)
        assert pos.tolist() == [0, 0]

    def test_negatives_exclude_neighbors_and_self(self, linkpred_objective):
        g = star_graph(6)
        for seed in range(5):
            _, neg = make_positive_negative(g, 1, linkpred_objective, 3, seed=seed)
            for v in neg:
                assert v != 1 and v not in g.neighbors(1)

    def test_contrastive_distinct_view_seeds(self, contrastive_objective):
        g = star_graph(4)
        pos, neg = make_positive_negative(g, 2, contrastive_objective, 2, seed=7)
        # the node itself, read in each of the shared views
        assert pos.tolist() == [2, 2]
        assert view_seed(7, 0) != view_seed(7, 1)
        assert all(v != 2 for v in neg)

    def test_isolated_node_raises(self, linkpred_objective):
        g = Graph.from_edges(4, [(0, 1)], np.ones((4, 2)))
        with pytest.raises(NoPositiveError):
            make_positive_negative(g, 3, linkpred_objective, 1, seed=0)

    def test_deterministic(self, linkpred_objective):
        g = star_graph(8)
        a = make_positive_negative(g, 0, linkpred_objective, 3, 5)
        b = make_positive_negative(g, 0, linkpred_objective, 3, 5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestDegenerateNodes:
    """A hub adjacent to every other node has no negative, a complete graph
    has no non-edge and a one-node contrastive graph has no other node: each
    gives a typed error or a counted skip."""

    @staticmethod
    def _star12() -> Graph:
        feats = np.random.default_rng(1).normal(size=(12, 3))
        return Graph.from_edges(12, [(0, i) for i in range(1, 12)], feats)

    def test_hub_has_no_negative(self, linkpred_objective):
        with pytest.raises(NoNegativeError):
            make_positive_negative(self._star12(), 0, linkpred_objective, 2, seed=0)

    def test_hub_skipped_in_plan(self, linkpred_objective):
        from graphmia.amplify import draw_sample_plan

        plan = draw_sample_plan(self._star12(), range(12), linkpred_objective, 2, seed=0)
        assert plan.skipped == (0,)
        assert plan.nodes == tuple(range(1, 12))

    def test_hub_contributes_zero(self, linkpred_objective):
        g = self._star12()
        model = tiny_model(g, linkpred_objective)
        loss, grads = per_node_ssl_loss(model, g, 0, seed=0)
        assert loss == 0.0
        assert not grads.vector.any() and not whole_graph_feature_grad(model, g, 0, 0).any()

    @staticmethod
    def _k5() -> Graph:
        return Graph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)],
                                np.random.default_rng(2).normal(size=(5, 3)))

    @staticmethod
    @contextlib.contextmanager
    def _returns_within(seconds):
        """Fail rather than hang if the block does not finish in time."""
        def hung(signum, frame):
            pytest.fail(f"no return within {seconds} s on a complete graph")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_complete_graph_raises(self):
        # the negative-pair sampler has no non-edge to draw on a complete graph
        with self._returns_within(20), pytest.raises(NoNegativeError):
            _sample_negative_pairs(self._k5(), 10, np.random.default_rng(0))

    def test_complete_graph_contributes_zero(self, linkpred_objective):
        # as an edgeless graph does, and as a node adjacent to every other
        # node does in NodeLoss
        k5 = self._k5()
        model = tiny_model(k5, linkpred_objective)
        with self._returns_within(20):
            loss, grads = linkpred_loss(model, k5, seed=0)
        assert loss == 0.0 and not grads.vector.any()

    def test_one_node_contrastive_graph_raises(self, contrastive_objective):
        g = Graph.from_edges(1, [], np.ones((1, 3)))
        model = tiny_model(g, contrastive_objective)
        with pytest.raises(NoNegativeError, match="on 1 node"):
            contrastive_loss(model, g, seed=0)

    def test_one_non_edge_is_drawn_without_rejection(self):
        class CountingRng:
            """Generator stand-in that fails once rejection sampling would
            still be drawing."""

            def __init__(self):
                self.rng, self.left = np.random.default_rng(3), 300

            def integers(self, *args, **kwargs):
                self.left -= 1
                assert self.left >= 0, "negative sampler kept drawing"
                return self.rng.integers(*args, **kwargs)

        n = 60
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) != (7, 42)]
        g = Graph.from_edges(n, edges, np.zeros((n, 2)))
        us, vs = _sample_negative_pairs(g, len(edges), CountingRng())
        assert len(us) == len(vs) == len(edges)
        assert set(zip(us.tolist(), vs.tolist())) == {(7, 42), (42, 7)}


class TestTinySplit:
    """A graph with fewer eligible nodes than requested negatives samples
    them with replacement instead of aborting the seed."""

    @staticmethod
    def _path4() -> Graph:
        return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)],
                                np.random.default_rng(3).normal(size=(4, 3)))

    @pytest.mark.parametrize("kind", [LINK_PREDICTION, CONTRASTIVE])
    def test_plan_samples_with_replacement(self, kind):
        from graphmia.amplify import draw_sample_plan

        g = self._path4()
        plan = draw_sample_plan(g, range(4), SSLObjective(kind), 5, seed=0)
        assert plan.nodes == (0, 1, 2, 3) and plan.skipped == ()
        for node, refs in zip(plan.nodes, plan.refs):
            negatives = refs[5:].tolist()
            assert len(negatives) == 5
            assert node not in negatives
            if kind == LINK_PREDICTION:
                assert not set(negatives) & set(g.neighbors(node).tolist())

    def test_no_eligible_negative_is_skipped(self, linkpred_objective):
        from graphmia.amplify import draw_sample_plan

        # on a path of three nodes the middle one is adjacent to every other
        g = Graph.from_edges(3, [(0, 1), (1, 2)], np.zeros((3, 2)))
        plan = draw_sample_plan(g, range(3), linkpred_objective, 5, seed=0)
        assert plan.skipped == (1,)
        assert plan.nodes == (0, 2)


class TestAugment:
    def test_deterministic_and_input_untouched(self, small_sbm):
        fp = graph_fingerprint(small_sbm)
        a = augment_graph(small_sbm, seed=3)
        b = augment_graph(small_sbm, seed=3)
        assert graph_fingerprint(a) == graph_fingerprint(b)
        assert graph_fingerprint(small_sbm) == fp
        assert a.num_edges <= small_sbm.num_edges


class TestGradients:
    def test_linkpred_loss_gradient(self, linkpred_objective):
        g = sbm_graph(8, 3, 3.0, seed=2)
        model = tiny_model(g, linkpred_objective, emb_dim=4)
        params = model.params
        loss, grads = linkpred_loss(model, g, seed=11)
        numeric = finite_diff_grads(lambda: linkpred_loss(model, g, seed=11)[0], params)
        assert max_rel_error(grads, numeric) < 1e-4

    def test_contrastive_loss_gradient(self, contrastive_objective):
        g = sbm_graph(8, 3, 3.0, seed=3)
        model = tiny_model(g, contrastive_objective, emb_dim=4)
        params = model.params
        loss, grads = contrastive_loss(model, g, seed=13)
        numeric = finite_diff_grads(
            lambda: contrastive_loss(model, g, seed=13)[0], params
        )
        assert max_rel_error(grads, numeric) < 1e-4

    @pytest.mark.parametrize("kind", [LINK_PREDICTION, CONTRASTIVE])
    def test_per_node_loss_gradient(self, kind):
        g = sbm_graph(8, 3, 3.0, seed=4)
        model = tiny_model(g, SSLObjective(kind, negatives_per_positive=3), emb_dim=4)
        params = model.params
        _, grads = per_node_ssl_loss(model, g, 2, seed=17)
        numeric = finite_diff_grads(
            lambda: per_node_ssl_loss(model, g, 2, seed=17)[0], params
        )
        assert max_rel_error(grads, numeric) < 1e-4

    @pytest.mark.parametrize("kind", [LINK_PREDICTION, CONTRASTIVE])
    def test_input_feature_gradient(self, kind):
        g = sbm_graph(7, 3, 3.0, seed=5)
        model = tiny_model(g, SSLObjective(kind, negatives_per_positive=2), emb_dim=4)
        node = 1
        dx = whole_graph_feature_grad(model, g, node, 19)
        # finite differences on the node's own feature row
        feats = g.features.copy()
        step = 1e-5
        numeric = np.zeros(g.feature_dim)
        for j in range(g.feature_dim):
            for sign in (1.0, -1.0):
                bumped = feats.copy()
                bumped[node, j] += sign * step
                g2 = Graph.from_edges(
                    g.num_nodes, [tuple(e) for e in g.edge_array.tolist()], bumped,
                    domain_id=g.domain_id,
                )
                val, _ = per_node_ssl_loss(model, g2, node, seed=19)
                numeric[j] += sign * val / (2 * step)
        np.testing.assert_allclose(dx[node], numeric, rtol=1e-4, atol=1e-7)


class TestFineTune:
    def test_input_model_unmutated(self, small_sbm, linkpred_objective):
        model = tiny_model(small_sbm, linkpred_objective)
        snapshot = model.params.copy()
        fine_tune(model, small_sbm, epochs=3, lr=1e-2, seed=1)
        for k in snapshot.names:
            np.testing.assert_array_equal(model.params.tensors[k], snapshot.tensors[k])

    def test_zero_epochs_identity(self, small_sbm, linkpred_objective):
        model = tiny_model(small_sbm, linkpred_objective)
        tuned, history = fine_tune(model, small_sbm, 0, 1e-3, seed=1)
        assert history == []
        for k in model.params.names:
            np.testing.assert_array_equal(tuned.params.tensors[k], model.params.tensors[k])


class TestDivergence:
    def test_fine_tune_names_the_epoch(self, monkeypatch, small_sbm, linkpred_objective):
        model = tiny_model(small_sbm, linkpred_objective)
        nan_on_call(monkeypatch, victim_mod, "ssl_loss_and_grads", 2)
        with pytest.raises(NumericError, match="fine-tune diverged at epoch 2$"):
            fine_tune(model, small_sbm, epochs=5, lr=1e-3, seed=1)

    def test_kernel_error_names_the_stage_and_epoch(self, small_sbm, linkpred_objective):
        # the encoder's own check fires first; minimize names where it fired,
        # and the typed error is the one signal: numpy warns of nothing
        model = tiny_model(small_sbm, linkpred_objective)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericError) as info:
                fine_tune(model, small_sbm, epochs=5, lr=1e300, seed=1)
        assert info.match(r"^fine-tune diverged at epoch \d+: non-finite encoder output$")
        assert str(info.value.__cause__) == "non-finite encoder output"

    def test_pretrain_names_the_epoch_and_domain(self, monkeypatch, linkpred_objective):
        graphs = [sbm_graph(20, 4, 4.0, seed=d, domain_id=d) for d in (0, 1)]
        # each epoch takes one step per domain: call 3 is epoch 1, domain 1
        nan_on_call(monkeypatch, victim_mod, "ssl_loss_and_grads", 3)
        with pytest.raises(NumericError, match="diverged at epoch 1, domain 1$"):
            pretrain_multidomain(graphs, linkpred_objective,
                                 TrainConfig(epochs=4, lr=1e-3, layers=2, emb_dim=4), seed=0)


class TestOverfittingWedge:
    """The membership signal the whole attack rests on must exist at desk
    scale after enough training: positive similarities separate members
    from held-out nodes (contrastive) and the positive-minus-negative
    margin separates them under both objectives."""

    @staticmethod
    def _wedge(kind, seed):
        from graphmia.amplify import draw_sample_plan, similarity_profile

        graph = sbm_graph(200, 16, 10.0, seed=seed)
        obj = SSLObjective(kind)
        members, holdout = split_half(graph, seed=seed + 1)
        model = pretrain_multidomain(
            [induced_subgraph(graph, members)], obj,
            TrainConfig(epochs=300, lr=1e-3, layers=2, emb_dim=64), seed=seed + 2,
        )
        stats = {}
        for tag, nodes in (("member", members), ("holdout", holdout)):
            g = induced_subgraph(graph, nodes)
            plan = draw_sample_plan(g, range(g.num_nodes), obj, 5, seed=99)
            prof = similarity_profile(model, plan)
            pos = float(np.mean(prof[:, :5].mean(axis=1)))
            neg = float(np.mean(prof[:, 5:].mean(axis=1)))
            stats[tag] = (pos, pos - neg)
        return stats

    def test_contrastive_positive_similarity_wedge(self):
        stats = self._wedge(CONTRASTIVE, seed=5)
        assert stats["member"][0] > stats["holdout"][0]
        assert stats["member"][1] > stats["holdout"][1]

    def test_linkpred_margin_wedge(self):
        stats = self._wedge(LINK_PREDICTION, seed=5)
        assert stats["member"][1] > stats["holdout"][1]
