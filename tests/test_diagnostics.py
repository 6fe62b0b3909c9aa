from __future__ import annotations

import numpy as np
import pytest

import graphmia.diagnostics as diag_mod
from graphmia.diagnostics import (
    robustness_probe,
    separability_projection,
    summarize_by_membership,
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
        probe = robustness_probe(model, small_sbm, range(10), trials=3, seed=1)
        assert all(v == pytest.approx(1.0, abs=1e-12) for v in probe.values())

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
        probe = robustness_probe(model, g, [4], trials=1, seed=seed)
        assert probe[4] == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self, small_sbm, linkpred_objective):
        model = tiny_model(small_sbm, linkpred_objective)
        a = robustness_probe(model, small_sbm, range(8), trials=2, seed=3)
        b = robustness_probe(model, small_sbm, range(8), trials=2, seed=3)
        assert a == b

    def test_input_graph_unchanged(self, small_sbm, linkpred_objective):
        model = tiny_model(small_sbm, linkpred_objective)
        fp = graph_fingerprint(small_sbm)
        robustness_probe(model, small_sbm, range(5), trials=1, seed=2)
        assert graph_fingerprint(small_sbm) == fp


class TestSummaries:
    def test_group_summary_gap(self):
        values = {0: 1.0, 1: 0.8, 2: 0.2, 3: 0.4}
        s = summarize_by_membership(values, members=[0, 1])
        assert s.member_mean == pytest.approx(0.9)
        assert s.nonmember_mean == pytest.approx(0.3)
        assert s.gap == pytest.approx(0.6)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            summarize_by_membership({0: 1.0}, members=[0])


class TestCsvExports:
    def test_robustness_csv(self, tmp_path):
        path = tmp_path / "rob.csv"
        write_robustness_csv(path, {0: 0.5, 1: 0.25}, members=[1])
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
