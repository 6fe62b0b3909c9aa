"""Acceptance suite: one test per release criterion.

Criteria 3-5 share a single 5-seed pipeline run on the synthetic two-domain
SBM fixture (~300 nodes per domain, deliberately overfit 500-epoch
link-prediction victim).  A terminal-summary hook in conftest prints one
pass/fail line per criterion.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from graphmia.amplify import (
    draw_sample_plan,
    fine_tune_augment,
    similarity_profile,
    teacher_scores,
    unlearn,
    distill_loss_and_grads,
)
from graphmia.baselines import (
    GE_REFERENCES,
    GPIA_EPOCHS,
    pairwise_similarity_features,
    parameter_change_features,
)
from graphmia.config import ExperimentConfig, SyntheticSpec
from graphmia.experiment import (
    VARIANT_FULL,
    build_context,
    run_experiment,
    run_similarity_attack,
    runtime_scaling_check,
)
from graphmia.metrics import accuracy_f1
from graphmia.nn import MLP, BlockOperator, GCNEncoder, cross_entropy
from graphmia.shadow import FisherDiag, estimate_fisher, ewc_penalty, incremental_finetune
from graphmia.synth import sbm_graph
from graphmia.victim import (
    CONTRASTIVE,
    LINK_PREDICTION,
    SSLObjective,
    contrastive_loss,
    fine_tune,
    linkpred_loss,
)

from conftest import finite_diff_grads, max_rel_error, tiny_model

pytestmark = pytest.mark.acceptance


def acceptance_config() -> ExperimentConfig:
    return ExperimentConfig(
        lr_pretrain=3e-3,
        repetitions=5,
        seed=7,
        synthetic=SyntheticSpec(
            domains=2, nodes_per_domain=300, feature_dim=16, avg_degree=10,
            feature_shift=0.5, feature_noise=2.0,
        ),
    )


@pytest.fixture(scope="module")
def fixture_runs():
    """One 5-seed run of the full pipeline, ablations, and Embed-MIA."""
    t0 = time.perf_counter()
    result = run_experiment(
        acceptance_config(),
        attacks=("similarity", "embed-mia"),
        variants=("full", "wo-ul", "wo-il"),
    )
    elapsed = time.perf_counter() - t0
    assert not result.failures, result.failures
    by_key: dict[tuple[str, str], list] = {}
    for rec in result.records:
        by_key.setdefault((rec.report.attack, rec.variant), []).append(rec)
    return by_key, elapsed


class TestCriterion1GradientIntegrity:
    def test_criterion_1_gradient_integrity(self):
        t0 = time.perf_counter()
        worst = 0.0
        for seed in (0, 1):
            g = sbm_graph(10, 6, 3.0, seed=seed)
            for kind, loss_fn in (
                (LINK_PREDICTION, linkpred_loss),
                (CONTRASTIVE, contrastive_loss),
            ):
                model = tiny_model(g, SSLObjective(kind, negatives_per_positive=3),
                                   seed=seed + 2, emb_dim=8)
                _, grads = loss_fn(model, g, seed=31)
                numeric = finite_diff_grads(
                    lambda m=model, k=loss_fn: k(m, g, seed=31)[0], model.params
                )
                worst = max(worst, max_rel_error(grads, numeric))

            # distillation MSE through the student's embeddings
            obj = SSLObjective(LINK_PREDICTION)
            model = tiny_model(g, obj, seed=seed + 5, emb_dim=8)
            plan = draw_sample_plan(g, range(g.num_nodes), obj, 2, seed=7)
            teachers = np.random.default_rng(seed).uniform(-1, 1, (len(plan.nodes), 4))
            _, grads = distill_loss_and_grads(model, plan, teachers)
            numeric = finite_diff_grads(
                lambda: distill_loss_and_grads(model, plan, teachers)[0],
                model.params,
            )
            worst = max(worst, max_rel_error(grads, numeric))

            # cross-entropy through the attack MLP
            rng = np.random.default_rng(seed)
            mlp = MLP.init(6, 8, 2, seed=seed)
            x = rng.normal(size=(9, 6))
            y = rng.integers(0, 2, size=9)
            logits, cache = mlp.forward(x)
            _, dlogits = cross_entropy(logits, y)
            analytic = mlp.backward(cache, dlogits)
            numeric = finite_diff_grads(
                lambda: cross_entropy(mlp.forward(x)[0], y)[0], mlp.params
            )
            worst = max(worst, max_rel_error(analytic, numeric))

            # EWC quadratic penalty
            model = tiny_model(g, obj, seed=seed + 9, emb_dim=8)
            params = model.params
            anchor = params.copy()
            for t in anchor.tensors.values():
                t += rng.normal(scale=0.2, size=t.shape)
            fisher = FisherDiag({k: rng.uniform(0, 2, size=t.shape) for k, t in params.items()})
            _, grads = ewc_penalty(params, anchor, fisher, alpha=0.6)
            numeric = finite_diff_grads(
                lambda: ewc_penalty(params, anchor, fisher, 0.6)[0], params
            )
            worst = max(worst, max_rel_error(grads, numeric))

        elapsed = time.perf_counter() - t0
        assert worst < 1e-4, f"worst relative gradient error {worst:.2e}"
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


class TestCriterion2AlgebraicFixedPoints:
    def test_criterion_2_algebraic_fixed_points(self):
        g = sbm_graph(30, 6, 6.0, seed=3)
        obj = SSLObjective(LINK_PREDICTION)
        model = tiny_model(g, obj, seed=4, emb_dim=8)

        # lambda = 0: unlearning is a no-op on the parameters
        result = unlearn(model, g, ExperimentConfig(lam=0.0, epochs_unlearn=8), seed=5)
        drift = max(
            float(np.max(np.abs(result.model.params.tensors[k] - model.params.tensors[k])))
            for k in model.params.names
        )
        assert drift < 1e-9

        # lambda = 1: teacher equals the augment scores exactly
        augment = fine_tune_augment(model, g, ExperimentConfig(epochs_augment=3), seed=6)
        plan = draw_sample_plan(g, range(g.num_nodes), obj, 3, seed=8)
        s_t = similarity_profile(model, plan)
        s_a = similarity_profile(augment, plan)
        np.testing.assert_array_equal(teacher_scores(s_t, s_a, 1.0), s_a)

        # alpha = 0: shadow fine-tuning is bit-identical to plain fine-tuning
        fisher = estimate_fisher(model, g, seed=9)
        anchored, _ = incremental_finetune(
            model, g, fisher, ExperimentConfig(alpha=0.0, epochs_shadow=10, lr_shadow=1e-3), seed=10
        )
        plain, _ = fine_tune(model, g, epochs=10, lr=1e-3, seed=10)
        for k in anchored.params.names:
            np.testing.assert_array_equal(anchored.params.tensors[k], plain.params.tensors[k])

        # zero augment epochs: augment model equals the target
        frozen = fine_tune_augment(model, g, ExperimentConfig(epochs_augment=0), seed=11)
        for k in model.params.names:
            np.testing.assert_array_equal(frozen.params.tensors[k], model.params.tensors[k])


class TestCriterion3Amplification:
    def test_criterion_3_amplification_gap(self, fixture_runs):
        by_key, elapsed = fixture_runs
        full = by_key[("similarity", "full")]
        assert len(full) == 5
        wins = sum(1 for rec in full if rec.extras["shadow_gap"] > rec.extras["target_gap"])
        assert wins >= 4, (
            f"amplified gap exceeded the target's in only {wins}/5 seeds: "
            + str([(round(r.extras['shadow_gap'], 4), round(r.extras['target_gap'], 4))
                   for r in full])
        )
        assert elapsed < 300.0, f"fixture run took {elapsed:.0f}s"


class TestCriterion4EndToEnd:
    def test_criterion_4_attack_effectiveness(self, fixture_runs):
        by_key, elapsed = fixture_runs
        sim = [r.report.acc for r in by_key[("similarity", "full")]]
        emb = [r.report.acc for r in by_key[("embed-mia", "full")]]
        assert len(sim) == len(emb) == 5
        # identical split/seed pairing
        sim_fp = sorted(r.split_fingerprint for r in by_key[("similarity", "full")])
        emb_fp = sorted(r.split_fingerprint for r in by_key[("embed-mia", "full")])
        assert sim_fp == emb_fp
        mean_sim = float(np.mean(sim))
        mean_emb = float(np.mean(emb))
        assert mean_sim >= 0.60, f"similarity attack mean accuracy {mean_sim:.3f}"
        assert mean_sim > mean_emb, f"{mean_sim:.3f} vs embed-mia {mean_emb:.3f}"
        assert elapsed < 900.0, f"fixture run took {elapsed:.0f}s"


class TestCriterion5AblationOrdering:
    def test_criterion_5_ablation_ordering(self, fixture_runs):
        by_key, _ = fixture_runs
        accs = {
            variant: np.array([r.report.acc for r in by_key[("similarity", variant)]])
            for variant in ("full", "wo-ul", "wo-il")
        }
        mean_full = float(accs["full"].mean())
        std_full = float(accs["full"].std(ddof=1))
        for variant in ("wo-ul", "wo-il"):
            mean_v = float(accs[variant].mean())
            std_v = float(accs[variant].std(ddof=1))
            tolerance = max(std_full, std_v)
            assert mean_full >= mean_v - tolerance, (
                f"full {mean_full:.3f} below {variant} {mean_v:.3f} by more than "
                f"one std ({tolerance:.3f})"
            )


class TestCriterion6MetricOracle:
    def test_criterion_6_metric_oracle(self):
        n = 8
        for truth_bits in itertools.product([0, 1], repeat=n):
            truth = np.array(truth_bits)
            for pred_bits in itertools.product([0, 1], repeat=n):
                rep = accuracy_f1(np.array(pred_bits), truth)
                tp = sum(p and t for p, t in zip(pred_bits, truth_bits))
                fp = sum(p and not t for p, t in zip(pred_bits, truth_bits))
                tn = sum((not p) and (not t) for p, t in zip(pred_bits, truth_bits))
                fn = n - tp - fp - tn
                assert (rep.tp, rep.fp, rep.tn, rep.fn) == (tp, fp, tn, fn)
                assert rep.acc == (tp + tn) / n
                denom = 2 * tp + fp + fn
                assert rep.f1 == (float(Fraction(2 * tp, denom)) if denom else 0.0)


class TestCriterion7BaselineShapes:
    def test_criterion_7_baseline_shapes(self):
        g = sbm_graph(60, 6, 8.0, seed=13)
        model = tiny_model(g, SSLObjective(LINK_PREDICTION), seed=1, emb_dim=8)

        feats = pairwise_similarity_features(model, g, range(3), seed=2)
        assert feats.shape[1] == 45  # C(10, 2)

        assert GE_REFERENCES == 20

        assert GPIA_EPOCHS == 10
        _, change = parameter_change_features(model, g, [0], seed=3)
        assert change.shape == (1, len(model.params.names))

        assert ExperimentConfig().hidden_dim == 256


SCALING_SIZES = [500, 1000, 2000, 4000]


def scaling_config(nodes_per_domain: int = 500) -> ExperimentConfig:
    """Criterion 8's config, at ``nodes_per_domain`` nodes per domain."""
    return ExperimentConfig(
        epochs_pretrain=60, epochs_augment=3, epochs_unlearn=20, epochs_shadow=40,
        epochs_attack=100, repetitions=1, seed=3, m_samples=5, emb_dim=64,
        synthetic=SyntheticSpec(domains=2, nodes_per_domain=nodes_per_domain, feature_dim=16,
                                avg_degree=10),
    )


class TestCriterion8ComplexityScaling:
    def test_criterion_8_linear_scaling(self):
        report = runtime_scaling_check(SCALING_SIZES, scaling_config())
        assert 0.8 <= report.slope <= 1.4, (
            f"log-log slope {report.slope:.3f}, times {report.seconds}"
        )
        ratios = [b / a for a, b in zip(report.seconds, report.seconds[1:])]
        assert all(1.5 <= r <= 3.0 for r in ratios), (
            f"doubling n should roughly double wall time, got ratios {ratios}"
        )


class TestCriterion8WorkCount:
    """Criterion 8's claim, attack cost linear in n, checked on deterministic
    work counts instead of the clock: over one ``run_similarity_attack(ctx,
    "full")`` at criterion 8's config and sizes, the rows times the width
    at which every ``GCNEncoder.forward`` layer runs, and the nonzeros of
    the aggregation operator times the width of the rows it multiplies,
    forward and backward.  Neither depends on how the rows are split into
    encoder passes.  At 500 -> 1000 nodes the L-hop balls of the per-node
    stages still grow, so the first doubling adds less than twice the
    work (measured ratios 1.89 and 1.54, then 2.02-2.09)."""

    @staticmethod
    def _work(nodes_per_domain: int, monkeypatch) -> tuple[int, int]:
        ctx = build_context(scaling_config(nodes_per_domain), 3)
        work = [0, 0]
        forward = GCNEncoder.forward

        def encoder_rows(self, a_hat, h0):
            h, cache = forward(self, a_hat, h0)
            work[0] += sum(m.shape[0] * m.shape[1] for m, _ in cache)
            return h, cache

        def nonzeros(real):
            def product(self, h, k):
                work[1] += (self.links[k] if self.links else self.full).nnz * h.shape[1]
                return real(self, h, k)
            return product

        with monkeypatch.context() as mp:
            mp.setattr(GCNEncoder, "forward", encoder_rows)
            mp.setattr(BlockOperator, "forward", nonzeros(BlockOperator.forward))
            mp.setattr(BlockOperator, "backward", nonzeros(BlockOperator.backward))
            run_similarity_attack(ctx, VARIANT_FULL)
        return work[0], work[1]

    def test_work_grows_linearly(self, monkeypatch):
        counts = np.array([self._work(n, monkeypatch) for n in SCALING_SIZES], dtype=float)
        for name, work in zip(("encoder rows x width", "aggregation nonzeros x width"), counts.T):
            ratios = work[1:] / work[:-1]
            slope = float(np.polyfit(np.log(SCALING_SIZES), np.log(work), 1)[0])
            assert np.all((1.5 <= ratios) & (ratios <= 2.2)), (name, work.tolist(), ratios.tolist())
            assert 0.85 <= slope <= 1.1, (name, work.tolist(), slope)


class TestCriterion9Determinism:
    def test_criterion_9_byte_identical_reports(self, tmp_path):
        cfg = ExperimentConfig(
            epochs_pretrain=40, epochs_augment=2, epochs_unlearn=5, epochs_shadow=10,
            epochs_attack=40, repetitions=2, seed=11, m_samples=3, emb_dim=16,
            hidden_dim=64,
            synthetic=SyntheticSpec(domains=2, nodes_per_domain=120, feature_dim=8,
                                    avg_degree=12),
        )
        dirs = (tmp_path / "a", tmp_path / "b")
        for d in dirs:
            run_experiment(cfg, attacks=("similarity", "glo-mia"),
                           variants=("full",), out_dir=d)
        names = sorted(p.name for p in dirs[0].glob("report_*.json"))
        assert len(names) == 4  # 2 seeds x 2 attacks
        for name in names:
            a = (dirs[0] / name).read_bytes()
            b = (dirs[1] / name).read_bytes()
            assert a == b, f"report {name} differs between identical runs"
