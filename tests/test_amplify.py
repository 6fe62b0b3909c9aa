from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphmia import amplify
from graphmia.amplify import (
    distill_loss_and_grads,
    draw_sample_plan,
    fine_tune_augment,
    similarity_profile,
    teacher_scores,
    unlearn,
)
from graphmia.config import ExperimentConfig
from graphmia.graph import Graph
from graphmia.nn import NumericError
from graphmia.rng import derive_seed
from graphmia.synth import sbm_graph
from graphmia.victim import (
    CONTRASTIVE,
    LINK_PREDICTION,
    NoNegativeError,
    NoPositiveError,
    SSLObjective,
    augment_graph,
    embed,
    ssl_loss_and_grads,
    view_seed,
)

from conftest import finite_diff_grads, max_rel_error, nan_on_call, tiny_model


def cycle_graph(n: int = 6, feature_dim: int = 3) -> Graph:
    feats = np.tile(np.array([1.0, 2.0, -1.0]), (n, 1))[:, :feature_dim]
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)], feats)


def plain_cosine(a, b) -> float:
    dot = sum(float(x) * float(y) for x, y in zip(a, b))
    na = math.sqrt(sum(float(x) ** 2 for x in a))
    nb = math.sqrt(sum(float(y) ** 2 for y in b))
    return dot / (na * nb)


class TestSamplePlan:
    def test_deterministic_and_reusable(self, linkpred_objective):
        g = sbm_graph(20, 4, 4.0, seed=2)
        a = draw_sample_plan(g, range(20), linkpred_objective, 3, seed=5)
        b = draw_sample_plan(g, range(20), linkpred_objective, 3, seed=5)
        assert a.nodes == b.nodes
        np.testing.assert_array_equal(a.refs, b.refs)
        assert a.refs.shape == (len(a.nodes), 6)
        assert not a.refs.flags.writeable

    def test_skips_isolated_linkpred(self, linkpred_objective):
        g = Graph.from_edges(5, [(0, 1), (1, 2)], np.ones((5, 2)))
        plan = draw_sample_plan(g, range(5), linkpred_objective, 2, seed=1)
        assert set(plan.skipped) == {3, 4}
        assert set(plan.nodes) == {0, 1, 2}

    def test_contrastive_shared_views(self, contrastive_objective):
        g = sbm_graph(12, 4, 4.0, seed=3)
        plan = draw_sample_plan(g, range(12), contrastive_objective, 2, seed=9)
        assert len(plan.views) == 2
        for p, view in enumerate(plan.views):
            want = augment_graph(g, view_seed(9, p))
            for field in ("indptr", "indices", "features"):
                np.testing.assert_array_equal(getattr(view, field), getattr(want, field))
        # every node reads itself in each shared view
        for p in range(2):
            np.testing.assert_array_equal(plan.refs[:, p], plan.nodes)


class TestSimilarityProfile:
    def test_constant_embeddings_all_ones(self, linkpred_objective):
        g = cycle_graph(6)
        model = tiny_model(g, linkpred_objective, seed=1, emb_dim=8)
        h = embed(model, g)
        assert np.linalg.norm(h[0]) > 0  # guard against a dead-ReLU init
        plan = draw_sample_plan(g, range(6), linkpred_objective, 3, seed=4)
        prof = similarity_profile(model, plan)
        # regular graph with identical features -> identical nonzero rows
        np.testing.assert_allclose(prof, np.ones((6, 6)), atol=1e-12)

    def test_vector_length(self, linkpred_objective, small_sbm):
        model = tiny_model(small_sbm, linkpred_objective)
        plan = draw_sample_plan(small_sbm, range(10), linkpred_objective, 3, seed=4)
        prof = similarity_profile(model, plan)
        assert prof.shape == (len(plan.nodes), 6)

    def test_matches_independent_cosine_oracle(self, linkpred_objective, small_sbm):
        model = tiny_model(small_sbm, linkpred_objective)
        plan = draw_sample_plan(small_sbm, range(8), linkpred_objective, 2, seed=6)
        prof = similarity_profile(model, plan)
        h = embed(model, small_sbm)
        for i, v in enumerate(plan.nodes):
            for entry, j in zip(prof[i], plan.refs[i]):
                assert entry == pytest.approx(plain_cosine(h[v], h[j]), abs=1e-12)

    def test_contrastive_matches_independent_cosine_oracle(self, contrastive_objective, small_sbm):
        g, obj = small_sbm, contrastive_objective
        model = tiny_model(g, obj)
        plan = draw_sample_plan(g, range(8), obj, 2, seed=6)
        prof = similarity_profile(model, plan)
        h = embed(model, g)
        views_h = [embed(model, augment_graph(g, view_seed(6, p))) for p in range(2)]
        assert len(views_h) == 2 and plan.nodes == tuple(range(8))
        for i, v in enumerate(plan.nodes):
            for p, hv in enumerate(views_h):
                assert prof[i, p] == pytest.approx(plain_cosine(h[v], hv[v]), abs=1e-12)
            for entry, j in zip(prof[i, 2:], plan.refs[i, 2:]):
                assert j != v
                assert entry == pytest.approx(plain_cosine(h[v], h[j]), abs=1e-12)

    def test_same_plan_two_models_same_samples(self, linkpred_objective, small_sbm):
        plan = draw_sample_plan(small_sbm, range(10), linkpred_objective, 2, seed=8)
        m1 = tiny_model(small_sbm, linkpred_objective, seed=1)
        m2 = tiny_model(small_sbm, linkpred_objective, seed=2)
        p1 = similarity_profile(m1, plan)
        p2 = similarity_profile(m2, plan)
        # identical node coverage, identical sample ids via plan
        assert p1.shape == p2.shape == (len(plan.nodes), 4)

    def test_out_of_range_cosine_rejected(self, linkpred_objective, small_sbm, monkeypatch):
        model = tiny_model(small_sbm, linkpred_objective)
        plan = draw_sample_plan(small_sbm, range(6), linkpred_objective, 2, seed=8)
        monkeypatch.setattr(amplify, "ref_cosines",
                            lambda h, views_h, anchors, refs: (np.full(refs.shape, 1.5), None))
        with pytest.raises(ValueError):
            similarity_profile(model, plan)


class TestTeacherScores:
    def _pair(self):
        a = np.array([[0.9, 0.1, -0.2], [0.3, -0.6, 0.0]])
        b = np.array([[0.5, 0.3, 0.4], [0.2, 0.7, -1.0]])
        return a, b

    def test_lambda_zero_is_target(self):
        a, b = self._pair()
        t = teacher_scores(a, b, 0.0)
        np.testing.assert_array_equal(t, a)

    def test_lambda_one_is_augment(self):
        a, b = self._pair()
        t = teacher_scores(a, b, 1.0)
        np.testing.assert_array_equal(t, b)

    def test_lambda_above_one_unclamped(self):
        a = np.array([[0.9, 0.0]])
        b = np.array([[-0.9, 0.0]])
        t = teacher_scores(a, b, 2.0)
        assert t[0, 0] == pytest.approx(-2.7)

    @given(
        lam1=st.floats(0, 3), lam2=st.floats(0, 3),
        pos=st.lists(st.floats(-1, 1), min_size=2, max_size=2),
    )
    @settings(max_examples=50, deadline=None)
    def test_linear_in_lambda(self, lam1, lam2, pos):
        a = np.array([pos + [0.3]])
        b = np.array([[0.1, -0.4, -0.8]])
        lhs = (teacher_scores(a, b, lam1)
               + teacher_scores(a, b, lam2)
               - teacher_scores(a, b, 0.0))
        rhs = teacher_scores(a, b, lam1 + lam2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_shape_mismatch(self):
        a = np.array([[0.1, 0.2]])
        b = np.array([[0.1, 0.2], [0.3, 0.4]])
        with pytest.raises(Exception):
            teacher_scores(a, b, 1.0)


class TestFineTuneAugment:
    def test_zero_epochs_identity(self, small_sbm, linkpred_objective):
        model = tiny_model(small_sbm, linkpred_objective)
        cfg = ExperimentConfig(epochs_augment=0)
        out = fine_tune_augment(model, small_sbm, cfg, seed=3)
        for k in model.params.names:
            np.testing.assert_array_equal(out.params.tensors[k], model.params.tensors[k])

    def test_loss_improves_and_target_untouched(self, linkpred_objective):
        g = sbm_graph(30, 5, 6.0, seed=4)
        model = tiny_model(g, linkpred_objective, emb_dim=8)
        snapshot = model.params.copy()
        cfg = ExperimentConfig(epochs_augment=5, lr_augment=1e-2)
        out = fine_tune_augment(model, g, cfg, seed=3)
        before, _ = ssl_loss_and_grads(model, g, seed=77)
        after, _ = ssl_loss_and_grads(out, g, seed=77)
        assert after < before
        for k in snapshot.names:
            np.testing.assert_array_equal(model.params.tensors[k], snapshot.tensors[k])


class TestDistillGradients:
    @pytest.mark.parametrize("kind", [LINK_PREDICTION, CONTRASTIVE])
    def test_gradient_matches_finite_differences(self, kind):
        g = sbm_graph(8, 3, 3.0, seed=6)
        obj = SSLObjective(kind, negatives_per_positive=2)
        model = tiny_model(g, obj, emb_dim=4)
        plan = draw_sample_plan(g, range(g.num_nodes), obj, 2, seed=3)
        rng = np.random.default_rng(0)
        teachers = rng.uniform(-1, 1, size=(len(plan.nodes), 4))

        def loss_fn():
            return distill_loss_and_grads(model, plan, teachers)[0]

        _, grads = distill_loss_and_grads(model, plan, teachers)
        numeric = finite_diff_grads(loss_fn, model.params)
        assert max_rel_error(grads, numeric) < 1e-4


class TestUnlearn:
    def test_lambda_zero_fixed_point(self, linkpred_objective):
        g = sbm_graph(25, 5, 5.0, seed=8)
        model = tiny_model(g, linkpred_objective, emb_dim=8)
        result = unlearn(model, g, ExperimentConfig(lam=0.0, epochs_unlearn=10), seed=2)
        drift = max(
            float(np.max(np.abs(result.model.params.tensors[k] - model.params.tensors[k])))
            for k in model.params.names
        )
        assert drift < 1e-9
        assert result.final_loss < 1e-18

    def test_lambda_one_moves_toward_augment(self, linkpred_objective):
        g = sbm_graph(30, 5, 6.0, seed=9)
        model = tiny_model(g, linkpred_objective, emb_dim=8)
        result = unlearn(
            model, g,
            ExperimentConfig(lam=1.0, epochs_augment=5, epochs_unlearn=40, lr_unlearn=3e-3),
            seed=4,
        )
        assert result.final_loss < result.initial_loss

    def test_distill_loss_final_not_above_initial(self, contrastive_objective):
        g = sbm_graph(20, 4, 5.0, seed=10)
        model = tiny_model(g, contrastive_objective, emb_dim=6)
        result = unlearn(
            model, g, ExperimentConfig(lam=1.0, epochs_augment=3, epochs_unlearn=30), seed=5
        )
        assert result.final_loss <= result.history[0]

    @pytest.mark.parametrize("kind", [LINK_PREDICTION, CONTRASTIVE])
    def test_final_loss_is_the_distill_loss_of_the_student(self, kind):
        g = sbm_graph(20, 4, 5.0, seed=12)
        model = tiny_model(g, SSLObjective(kind), emb_dim=6)
        cfg = ExperimentConfig(lam=1.0, epochs_augment=3, epochs_unlearn=6)
        result = unlearn(model, g, cfg, seed=7)
        augment = fine_tune_augment(model, g, cfg, seed=7)
        teachers = teacher_scores(similarity_profile(model, result.plan),
                                  similarity_profile(augment, result.plan), cfg.lam)
        loss, _ = distill_loss_and_grads(result.model, result.plan, teachers)
        assert result.final_loss == loss

    def test_edgeless_unlearn_graph_raises_no_positive(self, linkpred_objective):
        g = Graph.from_edges(4, [], np.ones((4, 3)))
        model = tiny_model(g, linkpred_objective)
        with pytest.raises(NoPositiveError, match="no unlearn node admits a positive sample"):
            unlearn(model, g, ExperimentConfig(epochs_unlearn=2), seed=3)

    @pytest.mark.parametrize("n", [2, 4])
    def test_complete_unlearn_graph_raises_no_negative(self, n, linkpred_objective):
        # the augment fine-tune runs (a complete graph has zero link-prediction
        # loss); the empty plan then names the complete graph
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)],
                             np.random.default_rng(n).normal(size=(n, 3)))
        model = tiny_model(g, linkpred_objective)
        with pytest.raises(NoNegativeError, match=f"^complete unlearn graph on {n} nodes"):
            unlearn(model, g, ExperimentConfig(epochs_unlearn=2), seed=3)

    def test_diverged_distillation_names_the_epoch(self, monkeypatch, linkpred_objective):
        g = sbm_graph(20, 4, 5.0, seed=11)
        model = tiny_model(g, linkpred_objective, emb_dim=6)
        nan_on_call(monkeypatch, amplify, "distill_loss_and_grads", 1)
        with pytest.raises(NumericError, match="distillation diverged at epoch 1$"):
            unlearn(model, g, ExperimentConfig(epochs_unlearn=5), seed=6)

    def test_never_mutates_target(self, linkpred_objective):
        g = sbm_graph(20, 4, 5.0, seed=11)
        model = tiny_model(g, linkpred_objective, emb_dim=6)
        snapshot = model.params.copy()
        unlearn(model, g, ExperimentConfig(epochs_unlearn=5), seed=6)
        for k in snapshot.names:
            np.testing.assert_array_equal(model.params.tensors[k], snapshot.tensors[k])

    def test_profiles_share_sample_identities(self, linkpred_objective):
        g = sbm_graph(20, 4, 5.0, seed=12)
        model = tiny_model(g, linkpred_objective, emb_dim=6)
        result = unlearn(model, g, ExperimentConfig(epochs_unlearn=1), seed=7)
        replay = draw_sample_plan(
            g, range(g.num_nodes), linkpred_objective, result.plan.m,
            seed=derive_seed(7, "unlearn-plan"),
        )
        assert result.plan.nodes == replay.nodes
        np.testing.assert_array_equal(result.plan.refs, replay.refs)
