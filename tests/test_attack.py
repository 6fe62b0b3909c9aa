from __future__ import annotations

import numpy as np
import pytest

from graphmia.amplify import draw_sample_plan, similarity_profile
from graphmia.attack import (
    AttackDataset,
    AttackModel,
    DataQualityError,
    Scores,
    build_attack_dataset,
    classify,
    infer_membership,
    train_attack_model,
)
from graphmia.config import ExperimentConfig
from graphmia.graph import Graph, induced_subgraph, partition_shadow
from graphmia.nn import MLP, ShapeError
from graphmia.rng import derive_seed
from graphmia.synth import sbm_graph
from graphmia.victim import LINK_PREDICTION, SSLObjective, VictimModel

from conftest import assert_record_of, assert_same_scores


def shadow_plans(model, train_g, test_g, m, seed, train_nodes=None):
    """The attack dataset's two plans: every node of each side unless
    ``train_nodes`` is given, m positives and m negatives per node."""
    nodes = range(train_g.num_nodes) if train_nodes is None else train_nodes
    return (
        draw_sample_plan(train_g, nodes, model.objective, m, derive_seed(seed, "attack-train")),
        draw_sample_plan(test_g, range(test_g.num_nodes), model.objective, m,
                         derive_seed(seed, "attack-test")),
    )


def toy_dataset(n_per_class: int = 20, m: int = 5, member_level=0.9, nonmember_level=0.1, jitter=0.0):
    rng = np.random.default_rng(3)
    rows, labels = [], []
    for i in range(n_per_class):
        for label, level in ((1, member_level), (0, nonmember_level)):
            rows.append(np.clip(level + jitter * rng.normal(size=2 * m), -1, 1))
            labels.append(label)
    return AttackDataset(x=np.array(rows), y=np.array(labels, dtype=np.int64))


@pytest.fixture(scope="module")
def pipeline_bits():
    graph = sbm_graph(120, 8, 10.0, seed=31)
    obj = SSLObjective(LINK_PREDICTION)
    model = VictimModel.init({0: 8}, obj, 2, 12, seed=2)
    _, train_nodes, test_nodes = partition_shadow(graph, 0.2, seed=4)
    train_g = induced_subgraph(graph, train_nodes)
    test_g = induced_subgraph(graph, test_nodes)
    return model, train_g, test_g


class TestBuildDataset:
    def test_cardinality_and_labels(self, pipeline_bits):
        model, train_g, test_g = pipeline_bits
        ds = build_attack_dataset(model, *shadow_plans(model, train_g, test_g, 5, seed=1))
        n_tr = train_g.num_nodes - ds.skipped_train
        n_te = test_g.num_nodes - ds.skipped_test
        assert len(ds.x) == len(ds.y) == n_tr + n_te
        # shadow-train rows first, labeled members; shadow-test rows after
        np.testing.assert_array_equal(ds.y, [1] * n_tr + [0] * n_te)

    def test_feature_length_2m(self, pipeline_bits):
        model, train_g, test_g = pipeline_bits
        ds = build_attack_dataset(model, *shadow_plans(model, train_g, test_g, 5, seed=1))
        assert ds.feature_dim == 10
        assert ds.x.shape[1] == 10

    def test_plans_must_share_m(self, pipeline_bits):
        model, train_g, test_g = pipeline_bits
        plan_tr, _ = shadow_plans(model, train_g, test_g, 3, seed=1)
        _, plan_te = shadow_plans(model, train_g, test_g, 2, seed=1)
        with pytest.raises(ShapeError):
            build_attack_dataset(model, plan_tr, plan_te)
        with pytest.raises(ValueError):
            build_attack_dataset(model, *shadow_plans(model, train_g, test_g, 0, seed=1))

    def test_mostly_isolated_side_rejected(self, pipeline_bits):
        model, train_g, _ = pipeline_bits
        lonely = Graph.from_edges(6, [(0, 1)], np.ones((6, 8)))
        with pytest.raises(DataQualityError):
            build_attack_dataset(model, *shadow_plans(model, train_g, lonely, 2, seed=1))

    def test_generator_nodes_counted_for_skip_gate(self, pipeline_bits):
        # the gate counts the plan, so a one-shot iterable is judged like a range
        model, _, test_g = pipeline_bits
        lonely = Graph.from_edges(8, [(0, 1), (1, 2)], np.ones((8, 8)))
        plans = shadow_plans(model, lonely, test_g, 2, seed=1, train_nodes=(v for v in range(8)))
        with pytest.raises(DataQualityError):
            build_attack_dataset(model, *plans)

    def test_functorial_in_model_parameters(self, pipeline_bits):
        model, train_g, test_g = pipeline_bits
        twin = model.copy()
        plans = shadow_plans(model, train_g, test_g, 3, seed=9)
        a = build_attack_dataset(model, *plans)
        b = build_attack_dataset(twin, *plans)
        np.testing.assert_array_equal(a.x, b.x)


class TestTrainAttackModel:
    def test_separable_fixture_perfect_accuracy(self):
        ds = toy_dataset()
        model = train_attack_model(ds, ExperimentConfig(epochs_attack=200), seed=5)
        assert model.train_accuracy == 1.0

    def test_null_fixture_near_chance(self):
        rng = np.random.default_rng(11)
        accs = []
        for seed in range(5):
            # balanced random features: held-out accuracy should hover at 0.5
            x = rng.uniform(-1, 1, size=(160, 10))
            y = np.tile([0, 1], 80)
            train_x, test_x = x[:120], x[120:]
            train_y, test_y = y[:120], y[120:]
            ds = AttackDataset(x=train_x, y=train_y)
            model = train_attack_model(ds, ExperimentConfig(epochs_attack=150), seed=seed)
            labels, _ = classify(model.mlp, test_x)
            accs.append(float((labels == test_y).mean()))
        assert abs(np.mean(accs) - 0.5) < 0.1

    def test_hidden_width_default_256(self):
        ds = toy_dataset()
        model = train_attack_model(ds, ExperimentConfig(epochs_attack=1), seed=0)
        assert model.mlp.w1.shape == (10, 256)

    def test_single_class_rejected(self):
        ds = toy_dataset()
        ds.x, ds.y = ds.x[ds.y == 1], ds.y[ds.y == 1]
        with pytest.raises(ValueError):
            train_attack_model(ds, ExperimentConfig(epochs_attack=1), seed=0)


class TestPredict:
    def test_zero_weights_score_half(self):
        model = AttackModel(
            mlp=MLP(w1=np.zeros((4, 8)), b1=np.zeros((1, 8)),
                    w2=np.zeros((8, 2)), b2=np.zeros((1, 2))),
        )
        labels, scores = classify(model.mlp, np.random.default_rng(0).normal(size=(7, 4)))
        np.testing.assert_array_equal(scores, np.full(7, 0.5))
        # exact ties break toward non-member
        np.testing.assert_array_equal(labels, np.zeros(7, dtype=np.int64))

    def test_logit_shift_invariance(self):
        ds = toy_dataset(jitter=0.3)
        model = train_attack_model(ds, ExperimentConfig(epochs_attack=80), seed=3)
        x = ds.x
        labels, _ = classify(model.mlp, x)
        shifted = AttackModel(
            mlp=MLP(w1=model.mlp.w1, b1=model.mlp.b1,
                    w2=model.mlp.w2, b2=model.mlp.b2 + 11.0),
        )
        labels2, _ = classify(shifted.mlp, x)
        np.testing.assert_array_equal(labels, labels2)

    def test_scores_strictly_inside_unit_interval(self):
        ds = toy_dataset()
        model = train_attack_model(ds, ExperimentConfig(epochs_attack=300), seed=1)
        _, scores = classify(model.mlp, ds.x)
        assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_feature_width_mismatch(self):
        ds = toy_dataset()
        model = train_attack_model(ds, ExperimentConfig(epochs_attack=1), seed=0)
        with pytest.raises(ShapeError):
            classify(model.mlp, np.zeros((1, 99)))


class TestInferMembership:
    def test_deterministic(self, pipeline_bits):
        model, train_g, test_g = pipeline_bits
        ds = build_attack_dataset(model, *shadow_plans(model, train_g, test_g, 3, seed=2))
        attack = train_attack_model(ds, ExperimentConfig(epochs_attack=30), seed=2)
        a = infer_membership(attack, model, test_g, range(10), seed=5)
        b = infer_membership(attack, model, test_g, range(10), seed=5)
        assert_same_scores(a, b)

    @pytest.mark.parametrize("m", [2, 3])
    def test_sample_width_from_attack_model(self, pipeline_bits, m):
        model, train_g, test_g = pipeline_bits
        ds = build_attack_dataset(model, *shadow_plans(model, train_g, test_g, m, seed=2))
        assert ds.feature_dim == 2 * m
        attack = train_attack_model(ds, ExperimentConfig(epochs_attack=5), seed=2)
        got = infer_membership(attack, model, test_g, range(10), seed=5)
        plan = draw_sample_plan(test_g, range(10), model.objective, m, 5)
        labels, scores = classify(attack.mlp, similarity_profile(model, plan))
        assert_same_scores(got, Scores(np.array(plan.nodes), labels, scores, 10))

    def test_isolated_node_dropped_on_the_record(self, pipeline_bits):
        # link prediction has no positive for an isolated node: the record
        # leaves it out and still counts it as asked
        model, train_g, test_g = pipeline_bits
        n = test_g.num_nodes
        graph = Graph.from_edges(n + 1, test_g.edge_array.tolist(),
                                 np.vstack([test_g.features, test_g.features[:1]]))
        connected = [v for v in range(12) if len(graph.neighbors(v))]
        queried = connected + [n]
        ds = build_attack_dataset(model, *shadow_plans(model, train_g, test_g, 3, seed=2))
        attack = train_attack_model(ds, ExperimentConfig(epochs_attack=5), seed=2)
        record = infer_membership(attack, model, graph, queried, seed=5)
        assert_record_of(record, queried)
        assert len(record) == record.asked - 1
        assert record.nodes.tolist() == connected

    def test_empty_plan_gives_an_empty_record(self, pipeline_bits):
        model, train_g, test_g = pipeline_bits
        ds = build_attack_dataset(model, *shadow_plans(model, train_g, test_g, 3, seed=2))
        attack = train_attack_model(ds, ExperimentConfig(epochs_attack=5), seed=2)
        isolated = Graph.from_edges(3, [], np.ones((3, 8)))
        record = infer_membership(attack, model, isolated, range(3), seed=5)
        assert_record_of(record, range(3))
        assert len(record) == 0

