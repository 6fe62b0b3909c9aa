from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graphmia.baselines as bl
import graphmia.victim as victim_mod
from graphmia.baselines import (
    best_threshold,
    embed_mia,
    ge_mia,
    ge_references,
    glo_mia,
    gpia,
    grad_mia,
    input_gradient_features,
    nlo_mia,
    pairwise_similarity_features,
    parameter_change_features,
    perturbed_views,
)
from graphmia.config import ExperimentConfig
from graphmia.graph import Graph, graph_fingerprint, induced_subgraph, partition_shadow
from graphmia.nn import GCNEncoder
from graphmia.synth import sbm_graph
from graphmia.victim import (
    CONTRASTIVE,
    LINK_PREDICTION,
    NodeDraws,
    SSLObjective,
    per_node_ssl_loss,
)

from conftest import assert_record_of, assert_same_scores, tiny_model


@pytest.fixture(scope="module")
def setting():
    graph = sbm_graph(100, 6, 10.0, seed=41)
    obj = SSLObjective(LINK_PREDICTION)
    model = tiny_model(graph, obj, seed=3, emb_dim=10)
    _, train_nodes, test_nodes = partition_shadow(graph, 0.2, seed=5)
    split = (induced_subgraph(graph, train_nodes), induced_subgraph(graph, test_nodes))
    return graph, obj, model, split


@pytest.fixture
def fast(monkeypatch):
    """Three perturbed views, two GPIA epochs and a 20-epoch attack MLP."""
    monkeypatch.setattr(bl, "K_PERTURB", 3)
    monkeypatch.setattr(bl, "GPIA_EPOCHS", 2)
    return ExperimentConfig(epochs_attack=20)


class TestProtocolConstants:
    def test_constants_follow_protocol(self):
        assert bl.K_PERTURB == 10
        assert bl.EDGE_FRACTION == pytest.approx(0.0015)
        assert bl.GE_REFERENCES == 20
        assert bl.GPIA_EPOCHS == 10 and bl.GPIA_LR == pytest.approx(1e-3)


class TestPerturbationFeatures:
    def test_feature_length_45_at_k10(self, setting):
        graph, _, model, _ = setting
        feats = pairwise_similarity_features(model, graph, range(4), seed=1)
        assert feats.shape == (4, 45)

    def test_feature_length_3_at_k3(self, setting, monkeypatch):
        graph, _, model, _ = setting
        monkeypatch.setattr(bl, "K_PERTURB", 3)
        feats = pairwise_similarity_features(model, graph, range(4), seed=1)
        assert feats.shape == (4, 3)

    def test_zero_budget_all_ones(self, setting, monkeypatch):
        graph, _, model, _ = setting
        monkeypatch.setattr(bl, "K_PERTURB", 4)
        monkeypatch.setattr(bl, "EDGE_FRACTION", 0.0)
        feats = pairwise_similarity_features(model, graph, range(5), seed=1)
        np.testing.assert_allclose(feats, 1.0, atol=1e-12)

    def test_perturbed_views_deterministic(self, setting, monkeypatch):
        graph, _, _, _ = setting
        monkeypatch.setattr(bl, "K_PERTURB", 5)
        monkeypatch.setattr(bl, "EDGE_FRACTION", 0.1)
        a = perturbed_views(graph, seed=9)
        b = perturbed_views(graph, seed=9)
        assert len(a) == 5
        assert [graph_fingerprint(g) for g in a] == [graph_fingerprint(g) for g in b]


def grid_oracle(scores: np.ndarray, labels: np.ndarray) -> float:
    """Brute force over the observed grid: the first threshold, ascending,
    of the highest accuracy; ``inf`` without scores."""
    best, best_acc = float("inf"), -1.0
    for t in sorted(set(scores.tolist())):
        acc = float((((scores >= t).astype(int)) == labels).mean())
        if acc > best_acc:
            best, best_acc = t, acc
    return best


class TestThreshold:
    def test_exhaustive_grid_oracle(self):
        scores = np.array([0.1, 0.4, 0.6, 0.9])
        labels = np.array([0, 1, 0, 1])
        assert best_threshold(scores, labels) == grid_oracle(scores, labels)

    @given(pairs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 1)), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_tied_scores_match_grid_oracle(self, pairs):
        # six score values over up to 40 rows, so most scores are tied and
        # many thresholds tie on accuracy
        scores = np.array([s / 5 for s, _ in pairs], dtype=float)
        labels = np.array([l for _, l in pairs], dtype=np.int64)
        assert best_threshold(scores, labels) == grid_oracle(scores, labels)

    def test_all_above_threshold_all_members(self, setting, fast, monkeypatch):
        graph, _, model, split = setting
        monkeypatch.setattr(bl, "EDGE_FRACTION", 0.0)
        # budget 0: every similarity is exactly 1, threshold grid = {1.0},
        # rule is >= so everything is predicted member
        record = glo_mia(model, split, model, [graph], [range(6)], fast, seed=3)[0]
        assert record.nodes.tolist() == list(range(6)) and np.all(record.labels == 1)


class TestGeMia:
    def test_member_centroid_query(self, setting):
        graph, _, model, _ = setting
        record = ge_mia(model, graph, [0, 1, 2], graph, [50, 51, 52], [graph], [[0]])[0]
        assert record.nodes.tolist() == [0] and record.labels.tolist() == [1]

    def test_equidistant_tie_goes_nonmember(self, setting):
        graph, _, model, _ = setting
        refs = [3, 4, 5]
        record = ge_mia(model, graph, refs, graph, refs, [graph], [[10]])[0]
        assert record.nodes.tolist() == [10] and record.labels.tolist() == [0]

    def test_references_capped_sorted_and_deterministic(self, setting):
        graph, _, _, _ = setting
        small = induced_subgraph(graph, range(5))
        member, nonmember = ge_references(graph, small, seed=4)
        assert len(member) == bl.GE_REFERENCES == len(set(member))
        assert member == sorted(member) and member[-1] < graph.num_nodes
        assert nonmember == list(range(5))
        assert ge_references(graph, small, seed=4) == (member, nonmember)


class TestGradMia:
    def test_zero_model_zero_gradient(self, setting):
        graph, obj, model, _ = setting
        zero = model.copy()
        for t in zero.params.tensors.values():
            t[:] = 0.0
        feats = input_gradient_features(zero, graph, [0, 1], seed=2)
        np.testing.assert_array_equal(feats, 0.0)

    def test_gradient_matches_finite_differences(self):
        g = sbm_graph(8, 3, 3.0, seed=7)
        obj = SSLObjective(LINK_PREDICTION)
        model = tiny_model(g, obj, emb_dim=4)
        node = 2
        from graphmia.rng import substream

        feat = input_gradient_features(model, g, [node], seed=5)[0]
        step = 1e-5
        numeric = np.zeros(g.feature_dim)
        for j in range(g.feature_dim):
            vals = []
            for sign in (1.0, -1.0):
                bumped = g.features.copy()
                bumped[node, j] += sign * step
                g2 = Graph.from_edges(
                    g.num_nodes, [tuple(e) for e in g.edge_array.tolist()], bumped,
                    domain_id=g.domain_id,
                )
                # the node is the stage's only one: its stream's first draw
                loss, _ = per_node_ssl_loss(model, g2, node, substream(5, "grad-feature"))
                vals.append(loss)
            numeric[j] = (vals[0] - vals[1]) / (2 * step)
        np.testing.assert_allclose(feat, numeric, rtol=1e-4, atol=1e-7)


class TestGpia:
    def test_zero_lr_zero_change(self, setting, monkeypatch):
        graph, _, model, _ = setting
        monkeypatch.setattr(bl, "GPIA_LR", 0.0)
        _, feats = parameter_change_features(model, graph, [0, 1], seed=1)
        np.testing.assert_array_equal(feats, 0.0)

    def test_feature_length_is_parameter_count(self, setting, monkeypatch):
        graph, _, model, _ = setting
        monkeypatch.setattr(bl, "GPIA_EPOCHS", 1)
        _, feats = parameter_change_features(model, graph, [0], seed=1)
        assert feats.shape == (1, len(model.params.names))

    @staticmethod
    def _diverging(monkeypatch, node: int, epoch: int | None):
        """Make ``node``'s row of its chunk's per-node loss NaN at its epoch
        ``epoch`` (every epoch when None); returns the list of chunks."""
        chunks = []

        class Diverging(victim_mod.NodeLoss):
            def __init__(self, graph, objective, terms):
                super().__init__(graph, objective, terms)
                chunks.append(self.nodes)

            def evaluate(self, model, draw=0, want_feature_grad=False):
                losses, grads, dx = super().evaluate(model, draw, want_feature_grad)
                if node in self.nodes and epoch in (None, draw):
                    losses[self.nodes.index(node)] = np.nan
                return losses, grads, dx

        monkeypatch.setattr(victim_mod, "NodeLoss", Diverging)
        return chunks

    @staticmethod
    def _two_per_chunk(monkeypatch, model, graph, nodes):
        """A chunk budget that takes the four ``nodes`` two at a time."""
        rng = np.random.default_rng(0)
        costs = [victim_mod._term_bytes(model, graph, len(NodeDraws.draw(
            graph, model.objective, 2, v, rng, bl.GPIA_EPOCHS).ball)) for v in nodes]
        monkeypatch.setattr(victim_mod, "CHUNK_BYTES", max(sum(costs[:2]), sum(costs[2:])))

    def test_diverged_node_counted_and_left_out(self, monkeypatch, setting):
        # node 1 shares its chunk with node 0; node 2 opens the next chunk
        graph, _, model, _ = setting
        nodes = [0, 1, 2, 3]
        monkeypatch.setattr(bl, "GPIA_EPOCHS", 3)
        self._two_per_chunk(monkeypatch, model, graph, nodes)
        kept, want = parameter_change_features(model, graph, nodes, seed=1)
        assert kept == nodes
        chunks = self._diverging(monkeypatch, node=1, epoch=1)
        kept, feats = parameter_change_features(model, graph, nodes, seed=1)
        assert chunks == [[0, 1], [2, 3]]
        assert kept == [0, 2, 3] and len(nodes) - len(kept) == 1
        assert feats.tobytes() == want[[0, 2, 3]].tobytes()

    def test_non_finite_encoder_output_counted(self, monkeypatch, setting):
        # node 2's encoder output turns non-finite at its second epoch; the
        # chunk finds it per node, with no floating-point warning
        graph, _, model, _ = setting
        nodes = [0, 1, 2, 3]
        monkeypatch.setattr(bl, "GPIA_EPOCHS", 3)
        _, want = parameter_change_features(model, graph, nodes, seed=1)
        chunks = self._diverging(monkeypatch, node=-1, epoch=None)  # records the chunks only
        real, calls = GCNEncoder.forward, []

        def overflowing(self, a_hat, h0):
            h, cache = real(self, a_hat, h0)
            calls.append(None)
            if len(calls) == 2:
                lo, hi = a_hat.bounds_at(len(a_hat.rows) - 1)[2:4]
                h[lo:hi] = np.inf
            return h, cache

        monkeypatch.setattr(GCNEncoder, "forward", overflowing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kept, feats = parameter_change_features(model, graph, nodes, seed=1)
        assert chunks == [nodes]
        assert kept == [0, 1, 3] and len(nodes) - len(kept) == 1
        assert feats.tobytes() == want[[0, 1, 3]].tobytes()

    @pytest.mark.parametrize("kind", [LINK_PREDICTION, CONTRASTIVE])
    def test_real_divergence_warns_nothing(self, kind):
        # a step size that overflows every node's parameters: each row
        # leaves its chunk as its loss turns non-finite, and numpy warns of
        # nothing on the way
        graph = sbm_graph(30, 4, 6.0, seed=8)
        model = tiny_model(graph, SSLObjective(kind, negatives_per_positive=3), emb_dim=6)
        nodes = range(6)
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("error")
            mp.setattr(bl, "GPIA_LR", 1e300)
            mp.setattr(bl, "GPIA_EPOCHS", 4)
            kept, feats = parameter_change_features(model, graph, nodes, seed=2)
        assert kept == [] and feats.shape == (0, len(model.params.names))
        assert len(nodes) - len(kept) == 6

    @pytest.mark.parametrize("kind", [LINK_PREDICTION, CONTRASTIVE])
    def test_divergence_leaves_the_next_node_bit_identical(self, monkeypatch, kind):
        # a node's epochs are all drawn when it joins its chunk, so a node
        # that stops at its first epoch takes as many draws as one that
        # runs; its chunk partner (node 5) and the first node of the next
        # chunk (node 6) run as if it were not there
        graph = sbm_graph(30, 4, 6.0, seed=8)
        model = tiny_model(graph, SSLObjective(kind, negatives_per_positive=3), emb_dim=6)
        nodes = [4, 5, 6, 7]
        monkeypatch.setattr(bl, "GPIA_EPOCHS", 3)
        self._two_per_chunk(monkeypatch, model, graph, nodes)
        _, want = parameter_change_features(model, graph, nodes, seed=2)
        chunks = self._diverging(monkeypatch, node=4, epoch=0)
        kept, feats = parameter_change_features(model, graph, nodes, seed=2)
        assert chunks == [[4, 5], [6, 7]]
        assert kept == [5, 6, 7] and len(nodes) - len(kept) == 1
        assert feats.tobytes() == want[1:].tobytes()

    def test_divergence_dropped_on_the_record(self, monkeypatch, setting, fast):
        # a query node that diverges leaves the side's record but stays
        # counted in its ``asked``
        graph, _, model, split = setting
        nodes = [0, 1, 2, 3]
        self._diverging(monkeypatch, node=1, epoch=0)
        record = gpia(model, split, model, [graph], [nodes], fast, seed=8)[0]
        assert_record_of(record, nodes)
        assert record.asked - len(record) == 1
        assert record.nodes.tolist() == [0, 2, 3]

    def test_peak_memory_does_not_grow_with_the_queried_nodes(self):
        # the chunk budget bounds the working set: 120 queried nodes peak
        # as 30 do, and well under twice the budget (the per-node code of
        # the same stage peaked near 1.3 MB on the audit fixtures)
        graph = sbm_graph(150, 6, 10.0, seed=3)
        model = tiny_model(graph, SSLObjective(CONTRASTIVE), emb_dim=64)
        peaks = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bl, "GPIA_EPOCHS", 2)
            for count in (30, 120):
                tracemalloc.start()
                parameter_change_features(model, graph, range(count), seed=4)
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0], peaks
        assert peaks[1] <= 2 * victim_mod.CHUNK_BYTES, peaks


class TestEndToEndDeterminism:
    @pytest.mark.parametrize("fn", [embed_mia, grad_mia, nlo_mia, glo_mia, gpia])
    def test_predictions_deterministic(self, fn, setting, fast):
        graph, _, model, split = setting
        nodes = range(5)
        a = fn(model, split, model, [graph], [nodes], fast, seed=8)[0]
        b = fn(model, split, model, [graph], [nodes], fast, seed=8)[0]
        assert_same_scores(a, b)

    def test_embed_feature_dim_is_embedding_dim(self, setting):
        graph, _, model, split = setting
        # the attack MLP input equals the victim embedding width
        from graphmia.victim import embed as embed_fn

        h = embed_fn(model, graph)
        assert h.shape[1] == model.encoder.output_dim == 10


class TestQuerySides:
    """The shadow-trained baselines fit once per call and answer every
    query side from that fit."""

    SHADOW_TRAINED = {
        embed_mia: "embed",
        grad_mia: "input_gradient_features",
        nlo_mia: "pairwise_similarity_features",
        glo_mia: "pairwise_similarity_features",
        gpia: "parameter_change_features",
    }

    @staticmethod
    def _sides(setting):
        graph, _, _, _ = setting
        other = induced_subgraph(graph, range(40, 100))
        return [graph, other], [range(5), [3, 0, 7]]

    @pytest.mark.parametrize("fn", list(SHADOW_TRAINED), ids=lambda f: f.__name__)
    def test_shadow_features_extracted_from_two_graphs(self, fn, setting, fast, monkeypatch):
        _, _, model, split = setting
        name = self.SHADOW_TRAINED[fn]
        real = getattr(bl, name)
        seen = []

        def recording(*args, **kwargs):
            seen.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(bl, name, recording)
        graphs, nodes = self._sides(setting)
        fn(model, split, model, graphs, nodes, fast, seed=8)
        shadow = [g for g in seen if any(g is s for s in split)]
        assert len(shadow) == 2
        assert {id(g) for g in shadow} == {id(g) for g in split}

    @pytest.mark.parametrize("fn", list(SHADOW_TRAINED), ids=lambda f: f.__name__)
    def test_two_sides_equal_two_single_sides(self, fn, setting, fast):
        _, _, model, split = setting
        target = model.copy()
        for t in target.params.tensors.values():
            t *= 1.1
        graphs, nodes = self._sides(setting)
        both = fn(model, split, target, graphs, nodes, fast, seed=8)
        one = [fn(model, split, target, [g], [n], fast, seed=8)[0] for g, n in zip(graphs, nodes)]
        assert_same_scores(both, one)
        assert [side.nodes.tolist() for side in both] == [sorted(n) for n in nodes]

    @pytest.mark.parametrize("fn", [*SHADOW_TRAINED, ge_mia], ids=lambda f: f.__name__)
    def test_records_answer_the_queried_nodes(self, fn, setting, fast):
        graph, _, model, split = setting
        graphs, nodes = self._sides(setting)
        if fn is ge_mia:
            sides = ge_mia(model, graph, [0, 1, 2], graph, [50, 51, 52], graphs, nodes)
        else:
            sides = fn(model, split, model, graphs, nodes, fast, seed=8)
        assert len(sides) == len(nodes)
        for record, queried in zip(sides, nodes):
            assert_record_of(record, queried)

    def test_ge_mia_two_sides_equal_two_single_sides(self, setting):
        graph, _, model, _ = setting
        graphs, nodes = self._sides(setting)
        refs = ([0, 1, 2], [50, 51, 52])
        both = ge_mia(model, graph, refs[0], graph, refs[1], graphs, nodes)
        one = [ge_mia(model, graph, refs[0], graph, refs[1], [g], [n])[0]
               for g, n in zip(graphs, nodes)]
        assert_same_scores(both, one)

    def test_ge_mia_embeds_each_graph_once(self, setting, monkeypatch):
        # the member and non-member graphs serve as references and as
        # query sides, as in run_baseline: two embeddings, not four
        graph, _, model, _ = setting
        other = induced_subgraph(graph, range(40, 100))
        seen = []
        real = bl.embed

        def counting(model_, g):
            seen.append(g)
            return real(model_, g)

        monkeypatch.setattr(bl, "embed", counting)
        ge_mia(model, graph, [0, 1, 2], other, [3, 4], [graph, other], [range(5), [3, 0, 7]])
        assert len(seen) == 2
        assert {id(g) for g in seen} == {id(graph), id(other)}

    def test_side_lists_must_match(self, setting, fast):
        graph, _, model, split = setting
        with pytest.raises(ValueError):
            embed_mia(model, split, model, [graph, graph], [range(3)], fast, seed=8)
