from __future__ import annotations

import json

import numpy as np
import pytest

import graphmia.experiment as exp_mod
from graphmia.attack import Scores
from graphmia.config import ConfigError, ExperimentConfig, SyntheticSpec
from graphmia.experiment import (
    build_context,
    prepare_domains,
    run_experiment,
    runtime_scaling_check,
)


def tiny_cfg(**kw) -> ExperimentConfig:
    base = dict(
        epochs_pretrain=30, epochs_augment=2, epochs_unlearn=4, epochs_shadow=8,
        epochs_attack=30, repetitions=1, seed=11, m_samples=3, hidden_dim=64,
        emb_dim=16,
        synthetic=SyntheticSpec(domains=2, nodes_per_domain=120, feature_dim=8,
                                avg_degree=12),
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestDomainPreparation:
    def test_halves_partition_each_domain(self):
        cfg = tiny_cfg()
        domains = prepare_domains(cfg, seed=4)
        assert len(domains) == 2
        for d in domains:
            both = np.concatenate([d.member_nodes, d.nonmember_nodes])
            np.testing.assert_array_equal(np.sort(both), np.arange(d.graph.num_nodes))
            assert d.member_graph.num_nodes == len(d.member_nodes)
            assert d.nonmember_graph.num_nodes == len(d.nonmember_nodes)

    def test_context_subgraphs_cover_shadow(self):
        cfg = tiny_cfg()
        ctx = build_context(cfg, seed=4)
        total = (ctx.unlearn_graph.num_nodes + ctx.shadow_train_graph.num_nodes
                 + ctx.shadow_test_graph.num_nodes)
        assert total == ctx.attack_domain.nonmember_graph.num_nodes


@pytest.fixture(scope="module")
def two_node_unlearn_errors():
    """Failure strings by seed of a link-prediction config whose unlearn
    graph has 2 nodes (split (2, 2, 2))."""
    cfg = ExperimentConfig(
        repetitions=5, unlearn_fraction=0.34,
        synthetic=SyntheticSpec(domains=1, nodes_per_domain=12, avg_degree=3),
    )
    return {f.seed: f.error for f in run_experiment(cfg).failures}


class TestRunExperiment:
    def test_reports_and_summary(self, tmp_path):
        cfg = tiny_cfg()
        res = run_experiment(cfg, attacks=("similarity",), variants=("full",),
                             out_dir=tmp_path)
        assert len(res.records) == 1
        assert not res.failures
        written = list(tmp_path.glob("report_*.json"))
        assert len(written) == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "similarity/full" in summary["attacks"]
        amplify = (tmp_path / "amplify_seed11.txt").read_text()
        for key in ("lambda =", "distill_loss_initial =", "similarity_gap_after ="):
            assert key in amplify

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_cfg()
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        run_experiment(cfg, attacks=("similarity", "glo-mia"), variants=("full",), out_dir=a_dir)
        run_experiment(cfg, attacks=("similarity", "glo-mia"), variants=("full",), out_dir=b_dir)
        a_files = sorted(p.name for p in a_dir.glob("report_*.json"))
        b_files = sorted(p.name for p in b_dir.glob("report_*.json"))
        assert a_files == b_files and a_files
        for name in a_files:
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_amplification_records_byte_identical(self, tmp_path):
        # the criterion-9 config; criterion 9 itself compares the reports only
        cfg = ExperimentConfig(
            epochs_pretrain=40, epochs_augment=2, epochs_unlearn=5, epochs_shadow=10,
            epochs_attack=40, repetitions=2, seed=11, m_samples=3, emb_dim=16,
            hidden_dim=64,
            synthetic=SyntheticSpec(domains=2, nodes_per_domain=120, feature_dim=8,
                                    avg_degree=12),
        )
        dirs = (tmp_path / "a", tmp_path / "b")
        for d in dirs:
            run_experiment(cfg, attacks=("similarity",), variants=("full",), out_dir=d)
        names = sorted(p.name for p in dirs[0].glob("amplify_seed*.txt"))
        assert names == ["amplify_seed11.txt", "amplify_seed12.txt"]
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_baselines_share_split_fingerprint(self):
        cfg = tiny_cfg()
        res = run_experiment(cfg, attacks=("similarity", "glo-mia", "ge-mia"))
        fps = {r.split_fingerprint for r in res.records}
        assert len(fps) == 1

    def test_unknown_attack_rejected(self, monkeypatch):
        # the one check on attack names, made before any seed runs
        def no_context(*args, **kwargs):
            raise AssertionError("a seed ran")

        monkeypatch.setattr(exp_mod, "build_context", no_context)
        for attacks in (("voodoo",), ("similarity", "glo-mia", "ge_mia")):
            with pytest.raises(ValueError, match="unknown attack"):
                run_experiment(tiny_cfg(), attacks=attacks)

    def test_failure_containment(self, monkeypatch):
        cfg = tiny_cfg(repetitions=3)
        real = exp_mod.run_similarity_attack
        calls = {"n": 0}

        def flaky(ctx, variant):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("injected failure")
            return real(ctx, variant)

        monkeypatch.setattr(exp_mod, "run_similarity_attack", flaky)
        res = run_experiment(cfg, attacks=("similarity",), variants=("full",))
        assert len(res.failures) == 1
        assert "injected failure" in res.failures[0].error
        # the two surviving seeds still produced records
        assert len(res.records) == 2

    def test_per_seed_work_computed_once(self, monkeypatch):
        cfg = tiny_cfg(repetitions=2, m_queries=6, epochs_attack=10)
        scratch, contexts, profiled = [], [], []
        real_fine_tune = exp_mod.fine_tune
        real_profile = exp_mod.similarity_profile
        real_context = exp_mod.build_context

        def counting_fine_tune(*args, **kwargs):
            scratch.append(1)
            return real_fine_tune(*args, **kwargs)

        def recording_context(*args, **kwargs):
            contexts.append(real_context(*args, **kwargs))
            return contexts[-1]

        def recording_profile(model, plan):
            profiled.append(model)
            return real_profile(model, plan)

        monkeypatch.setattr(exp_mod, "fine_tune", counting_fine_tune)
        monkeypatch.setattr(exp_mod, "build_context", recording_context)
        monkeypatch.setattr(exp_mod, "similarity_profile", recording_profile)
        res = run_experiment(cfg, attacks=("similarity", *exp_mod.BASELINE_KINDS),
                             variants=("full", "wo-il"))
        assert not res.failures
        assert len(res.records) == 2 * (2 + len(exp_mod.BASELINE_KINDS))
        assert len(scratch) == 2
        # the target gap profiles the target once per attack plan per seed
        target_profiles = [ctx.seed for ctx in contexts for m in profiled if m is ctx.target]
        assert target_profiles == [seed for seed in cfg.seeds() for _ in range(2)]
        assert len(profiled) == len(target_profiles)

    def test_plans_drawn_once_per_seed(self, monkeypatch):
        # one unlearn plan and two attack-dataset plans serve all three
        # variants and the gap probe; each variant queries the target twice
        import graphmia.amplify as amplify_mod
        import graphmia.attack as attack_mod

        cfg = tiny_cfg(m_queries=6, epochs_attack=5)
        real = amplify_mod.draw_sample_plan
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for mod in (amplify_mod, attack_mod, exp_mod):
            monkeypatch.setattr(mod, "draw_sample_plan", counting)
        res = run_experiment(cfg, attacks=("similarity",), variants=exp_mod.VARIANTS)
        assert not res.failures and len(res.records) == 3
        assert len(calls) == 1 + 2 + 6

    def test_gap_probe_reads_the_attack_plans(self, monkeypatch):
        # the shadow gap reads the attack dataset's rows; the target gap
        # profiles the target on the attack-dataset plans
        ctx = build_context(tiny_cfg(m_queries=6, epochs_attack=5), seed=11)
        real_gap, real_dataset = exp_mod.similarity_margin_gap, exp_mod.build_attack_dataset
        real_profile = exp_mod.similarity_profile
        probes, datasets, profiled = [], [], []

        def spying_gap(train_profiles, test_profiles):
            probes.append((train_profiles, test_profiles))
            return real_gap(train_profiles, test_profiles)

        def recording_dataset(*args):
            datasets.append(real_dataset(*args))
            return datasets[-1]

        def recording_profile(model, plan):
            profiled.append((model, plan))
            return real_profile(model, plan)

        monkeypatch.setattr(exp_mod, "similarity_margin_gap", spying_gap)
        monkeypatch.setattr(exp_mod, "build_attack_dataset", recording_dataset)
        monkeypatch.setattr(exp_mod, "similarity_profile", recording_profile)
        for variant in ("wo-ul", "wo-il"):
            record = exp_mod.run_similarity_attack(ctx, variant)
            assert "shadow_gap" not in record.extras and "target_gap" not in record.extras
        assert probes == [] and profiled == []
        record = exp_mod.run_similarity_attack(ctx, "full")
        (shadow_tr, shadow_te), (target_tr, target_te) = probes
        x, y = datasets[-1].x, datasets[-1].y
        assert shadow_tr.tobytes() == x[y == 1].tobytes()
        assert shadow_te.tobytes() == x[y == 0].tobytes()
        assert [model is ctx.target for model, _ in profiled] == [True, True]
        assert [plan for _, plan in profiled] == list(ctx.attack_plans)
        want = [real_profile(ctx.target, plan).tobytes() for plan in ctx.attack_plans]
        assert [target_tr.tobytes(), target_te.tobytes()] == want
        assert record.extras["target_gap"] == real_gap(target_tr, target_te)

    def test_edgeless_unlearn_graph_fails_typed(self, two_node_unlearn_errors):
        # seeds 9-11 draw a 2-node link-prediction unlearn graph without an
        # edge: no node has a positive sample, and the seed fails typed
        for seed in (9, 10, 11):
            assert two_node_unlearn_errors[seed] == (
                "NoPositiveError: no unlearn node admits a positive sample")

    def test_complete_unlearn_graph_fails_typed(self, two_node_unlearn_errors):
        # seeds 7 and 8 draw the 2-node unlearn graph with its edge: the
        # augment fine-tune runs on it, and no node has a negative sample
        for seed in (7, 8):
            assert two_node_unlearn_errors[seed] == (
                "NoNegativeError: complete unlearn graph on 2 nodes: "
                "no node admits a negative sample")

    def test_query_cap(self):
        cfg = tiny_cfg(m_queries=15)
        res = run_experiment(cfg, attacks=("similarity",), variants=("full",))
        rep = res.records[0].report
        assert rep.n_members <= 15 and rep.n_nonmembers <= 15


@pytest.fixture(scope="module")
def baseline_ctx():
    return build_context(tiny_cfg(m_queries=6), seed=11)


class TestRunBaseline:
    @pytest.mark.parametrize("kind", exp_mod.BASELINE_KINDS)
    def test_baseline_looked_up_at_call_time(self, kind, baseline_ctx, monkeypatch):
        # run_baseline looks each baseline up by name in graphmia.experiment
        # on every call, so a rebound function (a tracer's wrapper) is the
        # one that runs, and it gets the query node list as its fifth
        # argument (seventh for GE-MIA)
        members, nonmembers = baseline_ctx.query_nodes
        calls = []

        def perfect(*args):
            calls.append(args)
            return [Scores(np.array(v), np.full(len(v), y), np.full(len(v), float(y)), len(v))
                    for v, y in ((members, 1), (nonmembers, 0))]

        monkeypatch.setattr(exp_mod, kind.replace("-", "_"), perfect)
        record = exp_mod.run_baseline(baseline_ctx, kind)
        assert len(calls) == 1
        assert calls[0][6 if kind == "ge-mia" else 4] == [members, nonmembers]
        assert (record.report.attack, record.report.acc) == (kind, 1.0)


class TestScaling:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            runtime_scaling_check([0, 100], tiny_cfg())
        with pytest.raises(ValueError):
            runtime_scaling_check([100], tiny_cfg())

    def test_one_distinct_size_rejected_before_any_run(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an attack was timed for a slope over one size")

        monkeypatch.setattr(exp_mod, "time_attack_pipeline", refuse)
        with pytest.raises(ValueError, match="two distinct sizes"):
            runtime_scaling_check([100, 100], tiny_cfg())

    @pytest.mark.parametrize("sizes, bad", [([8, 16], 8), ([16, 8], 8), ([2, 16], 2)])
    def test_every_size_validated_before_warm_up(self, monkeypatch, sizes, bad):
        # the default config cannot run 8 nodes per domain: its 4-node shadow
        # graph splits (1, 2, 1); 2 nodes are below the SBM fixture's minimum
        def refuse(*args, **kwargs):
            raise AssertionError("an attack was timed before every size was checked")

        monkeypatch.setattr(exp_mod, "time_attack_pipeline", refuse)
        with pytest.raises(ConfigError, match=rf"^nodes_per_domain {bad}: "):
            runtime_scaling_check(sizes, ExperimentConfig())

    def test_runs_and_reports_slope(self):
        cfg = tiny_cfg(epochs_pretrain=10, epochs_shadow=4, epochs_attack=10)
        report = runtime_scaling_check([60, 120], cfg)
        assert len(report.seconds) == 2
        assert all(s > 0 for s in report.seconds)
        assert np.isfinite(report.slope)
