from __future__ import annotations

import numpy as np
import pytest

import graphmia.victim as victim_mod
from graphmia.config import ExperimentConfig
from graphmia.nn import ParamSet, ShapeError
from graphmia.shadow import (
    FisherDiag,
    estimate_fisher,
    ewc_penalty,
    incremental_finetune,
)
from graphmia.synth import sbm_graph
from graphmia.victim import LINK_PREDICTION, CONTRASTIVE, SSLObjective, fine_tune

from conftest import finite_diff_grads, max_rel_error, tiny_model


def uniform_fisher(params: ParamSet, value: float = 1.0) -> FisherDiag:
    return FisherDiag({k: np.full_like(t, value) for k, t in params.items()})


class TestFisherDiag:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FisherDiag({"w": np.array([[np.inf, 1.0]])})

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FisherDiag({"w": np.array([[-1.0]])})

    def test_alignment(self, small_sbm, linkpred_objective):
        params = ParamSet({"a": np.zeros((2, 2)), "b": np.zeros((1, 3))})
        fisher = uniform_fisher(params, 0.5)
        params.check_layout(fisher)
        assert fisher.vector.size == 7
        with pytest.raises(ShapeError):
            ParamSet({"a": np.zeros((2, 2))}).check_layout(fisher)
        # the penalty and the fine-tune refuse a Fisher of another layout
        model = tiny_model(small_sbm, linkpred_objective)
        with pytest.raises(ShapeError):
            ewc_penalty(model.params, model.params.copy(), fisher, 1.0)
        with pytest.raises(ShapeError):
            incremental_finetune(model, small_sbm, fisher, ExperimentConfig(epochs_shadow=1),
                                 seed=0)


class TestEstimateFisher:
    def test_squared_gradient_average(self, monkeypatch, small_sbm, linkpred_objective):
        # estimator arithmetic: per-node gradients {1, -3} -> (1 + 9) / 2 = 5
        from graphmia.graph import Graph

        model = tiny_model(small_sbm, linkpred_objective)
        g = Graph.from_edges(2, [(0, 1)], np.ones((2, small_sbm.feature_dim)))
        grads_by_node = {
            0: ParamSet({k: np.full_like(t, 1.0) for k, t in model.params.items()}),
            1: ParamSet({k: np.full_like(t, -3.0) for k, t in model.params.items()}),
        }

        def fake_evaluate(self, model_, draw=0, want_feature_grad=False):
            block = np.stack([grads_by_node[v].vector for v in self.nodes])
            return np.zeros(len(self.nodes)), ParamSet.over(block, model_.params.layout), None

        monkeypatch.setattr(victim_mod.NodeLoss, "evaluate", fake_evaluate)
        fisher = estimate_fisher(model, g, seed=0)
        for v in fisher.tensors.values():
            np.testing.assert_allclose(v, 5.0)

    def test_zero_model_zero_fisher(self, small_sbm, linkpred_objective):
        model = tiny_model(small_sbm, linkpred_objective)
        for t in model.params.tensors.values():
            t[:] = 0.0
        fisher = estimate_fisher(model, small_sbm, seed=1)
        assert float(fisher.vector.max()) == 0.0

    @pytest.mark.parametrize("kind", [LINK_PREDICTION, CONTRASTIVE])
    def test_nonnegative(self, kind, small_sbm):
        obj = SSLObjective(kind, negatives_per_positive=2)
        model = tiny_model(small_sbm, obj)
        fisher = estimate_fisher(model, small_sbm, seed=2)
        assert float(fisher.vector.min()) >= 0.0
        assert np.all(np.isfinite(fisher.vector))

    def test_deterministic(self, small_sbm, linkpred_objective):
        model = tiny_model(small_sbm, linkpred_objective)
        a = estimate_fisher(model, small_sbm, seed=3)
        b = estimate_fisher(model, small_sbm, seed=3)
        np.testing.assert_array_equal(a.vector, b.vector)


class TestEwcPenalty:
    def test_gradient_near_exact(self, small_sbm, linkpred_objective):
        model = tiny_model(small_sbm, linkpred_objective)
        params = model.params
        anchor = params.copy()
        for t in anchor.tensors.values():
            t += 0.3
        rng = np.random.default_rng(4)
        fisher = FisherDiag({k: rng.uniform(0, 2, size=t.shape) for k, t in params.items()})
        value, grads = ewc_penalty(params, anchor, fisher, alpha=0.7)
        numeric = finite_diff_grads(lambda: ewc_penalty(params, anchor, fisher, 0.7)[0], params)
        assert max_rel_error(grads, numeric) < 1e-6
        assert value > 0

    def test_matches_per_tensor_reference(self, small_sbm, linkpred_objective):
        # one flat sum reorders the value's summation: equal to within a few
        # ulps of float64; the gradient is element-wise and stays exact
        model = tiny_model(small_sbm, linkpred_objective)
        params, rng = model.params, np.random.default_rng(6)
        anchor = params.copy()
        anchor.vector += rng.normal(scale=0.2, size=anchor.vector.size)
        fisher = FisherDiag({k: rng.uniform(0, 2, size=t.shape) for k, t in params.items()})
        value, grads = ewc_penalty(params, anchor, fisher, alpha=0.7)
        want = 0.0
        for k, t in params.items():
            diff = t - anchor.tensors[k]
            want += float(0.7 * np.sum(fisher.tensors[k] * diff * diff))
            np.testing.assert_array_equal(grads.tensors[k], 2.0 * 0.7 * fisher.tensors[k] * diff)
        assert value == pytest.approx(want, rel=1e-14)

    def test_zero_at_anchor(self, small_sbm, linkpred_objective):
        model = tiny_model(small_sbm, linkpred_objective)
        params = model.params
        value, grads = ewc_penalty(params, params.copy(), uniform_fisher(params), 5.0)
        assert value == 0.0
        assert float(np.abs(grads.vector).max()) == 0.0


class TestIncrementalFinetune:
    def test_alpha_zero_bit_identical_to_plain(self, linkpred_objective):
        g = sbm_graph(30, 5, 6.0, seed=5)
        model = tiny_model(g, linkpred_objective, emb_dim=8)
        fisher = uniform_fisher(model.params, 1.0)
        tuned, _ = incremental_finetune(
            model, g, fisher, ExperimentConfig(alpha=0.0, epochs_shadow=15, lr_shadow=1e-3), seed=6
        )
        plain, _ = fine_tune(model, g, epochs=15, lr=1e-3, seed=6)
        for k in tuned.params.names:
            np.testing.assert_array_equal(tuned.params.tensors[k], plain.params.tensors[k])

    def test_huge_alpha_pins_parameters(self, linkpred_objective):
        g = sbm_graph(30, 5, 6.0, seed=7)
        model = tiny_model(g, linkpred_objective, emb_dim=8)
        fisher = uniform_fisher(model.params, 1.0)
        free, _ = incremental_finetune(
            model, g, fisher, ExperimentConfig(alpha=0.0, epochs_shadow=30, lr_shadow=1e-3), seed=8
        )
        pinned, _ = incremental_finetune(
            model, g, fisher, ExperimentConfig(alpha=1e6, epochs_shadow=30, lr_shadow=1e-3), seed=8
        )
        base = model.params.vector
        disp_free = float(np.linalg.norm(free.params.vector - base))
        disp_pinned = float(np.linalg.norm(pinned.params.vector - base))
        assert disp_pinned < 1e-3 * disp_free

    def test_monotone_pinning_in_alpha(self, linkpred_objective):
        g = sbm_graph(30, 5, 6.0, seed=9)
        model = tiny_model(g, linkpred_objective, emb_dim=8)
        fisher = uniform_fisher(model.params, 1.0)
        base = model.params.vector
        disps = []
        for alpha in (0.0, 0.01, 1.0, 100.0):
            tuned, _ = incremental_finetune(
                model, g, fisher,
                ExperimentConfig(alpha=alpha, epochs_shadow=20, lr_shadow=1e-3), seed=10
            )
            disps.append(float(np.linalg.norm(tuned.params.vector - base)))
        assert all(a >= b - 1e-12 for a, b in zip(disps, disps[1:]))

    def test_objective_final_not_above_initial(self, linkpred_objective):
        g = sbm_graph(40, 5, 6.0, seed=11)
        model = tiny_model(g, linkpred_objective, emb_dim=8)
        fisher = estimate_fisher(model, g, seed=12)
        _, history = incremental_finetune(
            model, g, fisher, ExperimentConfig(alpha=1.0, epochs_shadow=40, lr_shadow=1e-3), seed=13
        )
        assert history[-1] <= history[0]

    def test_input_unmutated(self, small_sbm, linkpred_objective):
        model = tiny_model(small_sbm, linkpred_objective)
        snapshot = model.params.copy()
        fisher = uniform_fisher(model.params)
        incremental_finetune(model, small_sbm, fisher, ExperimentConfig(epochs_shadow=3), seed=1)
        for k in snapshot.names:
            np.testing.assert_array_equal(model.params.tensors[k], snapshot.tensors[k])

    def test_misaligned_fisher_rejected(self, small_sbm, linkpred_objective):
        model = tiny_model(small_sbm, linkpred_objective)
        bad = FisherDiag({"w": np.zeros((1, 1))})
        with pytest.raises(Exception):
            incremental_finetune(model, small_sbm, bad, ExperimentConfig(), seed=0)
