from __future__ import annotations

import numpy as np
import pytest

import graphmia.diagnostics as diag_mod
from graphmia.diagnostics import (
    robustness_probe,
    separability_projection,
    write_projection_csv,
    write_robustness_csv,
)
from graphmia.graph import Graph, graph_fingerprint, perturb_edges
from graphmia.rng import derive_seed
from graphmia.synth import sbm_graph
from conftest import tiny_model


class TestRobustnessProbe:
    def test_zero_budget_all_ones(self, small_sbm, linkpred_objective, monkeypatch):
        monkeypatch.setattr(diag_mod, "ROBUSTNESS_BUDGET", 0.0)
        model = tiny_model(small_sbm, linkpred_objective)
        probe = robustness_probe(model, small_sbm, trials=3, seed=1)
        assert probe.shape == (small_sbm.num_nodes,)
        np.testing.assert_allclose(probe, 1.0, atol=1e-12)

    def test_isolated_component_untouched(self, linkpred_objective, monkeypatch):
        # node 4 sits in its own component; the pinned seed's perturbations
        # never touch it (asserted below), so its embedding cannot move
        g = Graph.from_edges(
            5, [(0, 1), (1, 2), (0, 2), (2, 3)],
            np.random.default_rng(0).normal(size=(5, 3)),
        )
        seed = 6
        perturbed = perturb_edges(g, 0.5, seed=derive_seed(seed, "robustness", 0))
        assert list(perturbed.neighbors(4)) == []
        model = tiny_model(g, linkpred_objective)
        monkeypatch.setattr(diag_mod, "ROBUSTNESS_BUDGET", 0.5)
        probe = robustness_probe(model, g, trials=1, seed=seed)
        assert probe[4] == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self, small_sbm, linkpred_objective):
        model = tiny_model(small_sbm, linkpred_objective)
        a = robustness_probe(model, small_sbm, trials=2, seed=3)
        b = robustness_probe(model, small_sbm, trials=2, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_input_graph_unchanged(self, small_sbm, linkpred_objective):
        model = tiny_model(small_sbm, linkpred_objective)
        fp = graph_fingerprint(small_sbm)
        robustness_probe(model, small_sbm, trials=1, seed=2)
        assert graph_fingerprint(small_sbm) == fp


class TestCsvExports:
    def test_robustness_csv(self, tmp_path):
        path = tmp_path / "rob.csv"
        write_robustness_csv(path, np.array([0.5, 0.25]), np.array([0, 1]))
        lines = path.read_text().splitlines()
        assert lines[0] == "node,label,mean_similarity"
        assert lines[1] == "0,0,0.5"
        assert lines[2] == "1,1,0.25"

    def test_projection_csv(self, tmp_path, small_sbm, linkpred_objective):
        model = tiny_model(small_sbm, linkpred_objective)
        other = sbm_graph(30, 6, 5.0, seed=77)
        result, labels = separability_projection(model, small_sbm, other)
        assert result.projection.shape == (small_sbm.num_nodes + other.num_nodes, 2)
        path = tmp_path / "pca.csv"
        write_projection_csv(path, result, labels)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("row,label,pc1")
        assert len(lines) == 1 + small_sbm.num_nodes + other.num_nodes
