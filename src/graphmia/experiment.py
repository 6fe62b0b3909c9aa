"""End-to-end experiment orchestration.

One seed drives one complete audit: split every domain graph in half,
pre-train the victim on the member halves, carve the attack domain's
non-member half into unlearn / shadow-train / shadow-test, run the
amplify -> incremental-shadow -> similarity-attack pipeline (plus any
requested baselines and ablation variants), and score predictions against
the true membership labels.  Failures are contained per seed.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .amplify import SamplePlan, UnlearnResult, draw_sample_plan, similarity_profile, unlearn
from .attack import Scores, build_attack_dataset, infer_membership, train_attack_model
from .baselines import KINDS as BASELINE_KINDS
from .baselines import embed_mia, ge_mia, ge_references, glo_mia, gpia, grad_mia, nlo_mia
from .checkpoint import load_pretrained, victim_path
from .config import ConfigError, ExperimentConfig, config_hash
from .graph import Graph, induced_subgraph, load_graph, partition_shadow, split_half
from .metrics import MetricsReport, accuracy_f1
from .rng import derive_seed, substream
from .shadow import estimate_fisher, incremental_finetune
from .synth import sbm_graph
from .victim import SSLObjective, TrainConfig, VictimModel, fine_tune, pretrain_multidomain

PRIMARY_ATTACK = "similarity"
VARIANT_FULL = "full"
VARIANT_WO_UL = "wo-ul"
VARIANT_WO_IL = "wo-il"
VARIANTS = (VARIANT_FULL, VARIANT_WO_UL, VARIANT_WO_IL)


@dataclass
class DomainData:
    """A domain graph's member / non-member halves: sorted node id arrays,
    and the subgraphs they induce, whose local id i is the i-th id."""

    graph: Graph
    member_nodes: np.ndarray
    nonmember_nodes: np.ndarray
    member_graph: Graph
    nonmember_graph: Graph


@dataclass
class AttackContext:
    """Everything one seed's attacks read: config, target model, the attack
    domain, the shadow subgraphs, and the per-seed results that several
    attacks read, each computed once on first use, among them the one
    shadow-side plan pair that every variant and the gap probe read."""

    cfg: ExperimentConfig
    seed: int
    target: VictimModel
    attack_domain: DomainData
    unlearn_graph: Graph
    shadow_train_graph: Graph
    shadow_test_graph: Graph
    split_fingerprint: str

    @cached_property
    def query_nodes(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Local node ids to query in the member and non-member subgraphs."""
        members = list(range(self.attack_domain.member_graph.num_nodes))
        nonmembers = list(range(self.attack_domain.nonmember_graph.num_nodes))
        cap = self.cfg.m_queries
        if cap is not None:
            rng = substream(self.seed, "query-cap")
            if cap < len(members):
                members = sorted(int(v) for v in rng.choice(len(members), cap, replace=False))
            if cap < len(nonmembers):
                nonmembers = sorted(int(v) for v in rng.choice(len(nonmembers), cap, replace=False))
        return tuple(members), tuple(nonmembers)

    @cached_property
    def scratch_shadow(self) -> VictimModel:
        """The no-incremental (wo-il) shadow: the target's architecture (a
        white-box attacker), random initial parameters, fine-tuned on
        shadow-train.  The wo-il variant and every shadow-trained baseline
        use it."""
        cfg = self.cfg
        fresh = VictimModel.init(
            {d: w.shape[0] for d, w in self.target.projectors.items()},
            self.target.objective, cfg.layers, cfg.emb_dim,
            seed=derive_seed(self.seed, "scratch-shadow"),
        )
        model, _ = fine_tune(
            fresh, self.shadow_train_graph, epochs=cfg.epochs_shadow, lr=cfg.lr_shadow,
            seed=derive_seed(self.seed, "shadow-ft"),
        )
        return model

    @cached_property
    def attack_plans(self) -> tuple[SamplePlan, SamplePlan]:
        """m-sample plans over every shadow-train and every shadow-test node:
        the one shadow-side plan pair of the seed.  Every variant's attack
        dataset and the amplification record's gap probe read it."""
        base = derive_seed(self.seed, "attack-dataset")
        return tuple(
            draw_sample_plan(g, range(g.num_nodes), self.target.objective, self.cfg.m_samples,
                             derive_seed(base, f"attack-{part}"))
            for g, part in ((self.shadow_train_graph, "train"), (self.shadow_test_graph, "test"))
        )


@dataclass
class RunRecord:
    report: MetricsReport
    variant: str
    config_hash: str
    split_fingerprint: str
    extras: dict = field(default_factory=dict)

    def report_dict(self) -> dict:
        d = self.report.to_dict()
        d["variant"] = self.variant
        d["config_hash"] = self.config_hash
        return d


@dataclass
class SeedFailure:
    seed: int
    stage: str
    error: str


def summarize_runs(runs: Iterable[tuple[str, MetricsReport]]) -> dict:
    """Run count and mean/std of acc and f1 per ``attack/variant`` key, from
    ``(variant, MetricsReport)`` pairs in run order."""
    groups: dict[str, list[MetricsReport]] = {}
    for variant, report in runs:
        groups.setdefault(f"{report.attack}/{variant}", []).append(report)
    out = {}
    for key, reps in sorted(groups.items()):
        accs = np.array([r.acc for r in reps])
        f1s = np.array([r.f1 for r in reps])
        out[key] = {
            "runs": len(reps),
            "acc_mean": float(accs.mean()),
            "acc_std": float(accs.std(ddof=1)) if len(reps) > 1 else 0.0,
            "f1_mean": float(f1s.mean()),
            "f1_std": float(f1s.std(ddof=1)) if len(reps) > 1 else 0.0,
        }
    return out


@dataclass
class ExperimentResult:
    records: list[RunRecord]
    failures: list[SeedFailure]
    config_hash: str
    wall_time_s: float

    def summary(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "attacks": summarize_runs((rec.variant, rec.report) for rec in self.records),
            "failures": [f"seed {f.seed} @ {f.stage}: {f.error}" for f in self.failures],
            "wall_time_s": self.wall_time_s,
        }


def _objective_from(cfg: ExperimentConfig) -> SSLObjective:
    return SSLObjective(
        kind=cfg.objective,
        temperature=cfg.temperature,
        negatives_per_positive=cfg.negatives_per_positive,
    )


def load_domains(cfg: ExperimentConfig, seed: int) -> list[Graph]:
    if cfg.synthetic is not None:
        spec = cfg.synthetic
        return [
            sbm_graph(
                spec.nodes_per_domain,
                spec.feature_dim,
                spec.avg_degree,
                seed=derive_seed(seed, "domain-graph", d),
                domain_id=d,
                feature_shift=spec.feature_shift,
                feature_noise=spec.feature_noise,
            )
            for d in range(spec.domains)
        ]
    return [
        load_graph(files["edges"], files["features"], domain_id=dom)
        for dom, files in sorted(cfg.dataset.items())
    ]


def prepare_domains(cfg: ExperimentConfig, seed: int) -> list[DomainData]:
    domains = []
    for graph in load_domains(cfg, seed):
        members, nonmembers = split_half(graph, derive_seed(seed, "half", graph.domain_id))
        domains.append(DomainData(
            graph=graph,
            member_nodes=members,
            nonmember_nodes=nonmembers,
            member_graph=induced_subgraph(graph, members),
            nonmember_graph=induced_subgraph(graph, nonmembers),
        ))
    return domains


def _split_fingerprint(domains: list[DomainData], partition: tuple[np.ndarray, ...]) -> str:
    h = hashlib.sha256()
    for d in domains:
        h.update(repr((d.graph.domain_id, d.member_nodes.tolist())).encode())
    for part in partition:
        h.update(repr(part.tolist()).encode())
    return h.hexdigest()[:16]


def pretrain_args(
    cfg: ExperimentConfig, seed: int, domains: list[DomainData],
) -> tuple[list[Graph], SSLObjective, TrainConfig, int]:
    """The arguments of ``pretrain_multidomain`` for one seed: all the
    victim depends on, and so all its checkpoint's pretrain key covers."""
    return (
        [d.member_graph for d in domains],
        _objective_from(cfg),
        TrainConfig(epochs=cfg.epochs_pretrain, lr=cfg.lr_pretrain,
                    layers=cfg.layers, emb_dim=cfg.emb_dim),
        derive_seed(seed, "pretrain"),
    )


def build_context(cfg: ExperimentConfig, seed: int,
                  victim_dir: str | Path | None = None) -> AttackContext:
    """One seed's shared state.  The victim is loaded from ``victim_dir``
    when ``pretrain`` checkpointed it there from the same inputs, and
    pre-trained otherwise; a miss writes nothing."""
    domains = prepare_domains(cfg, seed)
    by_id = {d.graph.domain_id: d for d in domains}
    if cfg.attack_domain not in by_id:
        raise ValueError(f"attack domain {cfg.attack_domain} not among the loaded domains")
    args = pretrain_args(cfg, seed, domains)
    target = None
    if victim_dir is not None:
        target = load_pretrained(victim_path(victim_dir, seed), *args)
    if target is None:
        target = pretrain_multidomain(*args)
    attack_domain = by_id[cfg.attack_domain]
    shadow_graph = attack_domain.nonmember_graph
    partition = partition_shadow(shadow_graph, cfg.unlearn_fraction, derive_seed(seed, "partition"))
    unlearn_graph, shadow_train_graph, shadow_test_graph = (
        induced_subgraph(shadow_graph, part) for part in partition)
    return AttackContext(
        cfg=cfg,
        seed=seed,
        target=target,
        attack_domain=attack_domain,
        unlearn_graph=unlearn_graph,
        shadow_train_graph=shadow_train_graph,
        shadow_test_graph=shadow_test_graph,
        split_fingerprint=_split_fingerprint(domains, partition),
    )


def _score(ctx: AttackContext, member: Scores, nonmember: Scores, attack: str) -> MetricsReport:
    """Score the kept nodes' labels of both query sides against the true
    membership: 1 on the member side, 0 on the non-member side."""
    predictions = np.concatenate([member.labels, nonmember.labels])
    truth = np.repeat(np.array([1, 0], dtype=np.int64), [len(member), len(nonmember)])
    return accuracy_f1(predictions, truth, attack=attack, seed=ctx.seed)


def similarity_margin_gap(train_profiles: np.ndarray, test_profiles: np.ndarray) -> float:
    """Membership-signal gap between shadow-train and shadow-test nodes,
    read from their (nodes x 2m) similarity profiles under one model.

    Per node the signal is its similarity margin, mean(positive sims) -
    mean(negative sims): how much closer the node sits to its positives
    than to random negatives, which is exactly what self-supervised
    training pushes up for nodes it trained on.  Gaps of different models
    on the same plans are comparable.
    """
    margins = []
    for s in (train_profiles, test_profiles):
        m = s.shape[1] // 2
        margins.append(float(np.mean(s[:, :m].mean(axis=1) - s[:, m:].mean(axis=1))))
    return margins[0] - margins[1]


def build_shadow_model(ctx: AttackContext,
                       variant: str) -> tuple[VictimModel, UnlearnResult | None]:
    """The three shadow constructions: full, no-unlearning, no-incremental.
    Returns the shadow model and, for ``full``, the distillation result."""
    cfg, seed = ctx.cfg, ctx.seed
    if variant == VARIANT_WO_IL:
        return ctx.scratch_shadow, None

    result = None
    if variant == VARIANT_FULL:
        result = unlearn(ctx.target, ctx.unlearn_graph, cfg, seed=derive_seed(seed, "unlearn"))
        base = result.model
    elif variant == VARIANT_WO_UL:
        base = ctx.target
    else:
        raise ValueError(f"unknown variant {variant!r}")

    fisher = estimate_fisher(base, ctx.shadow_train_graph, seed=derive_seed(seed, "fisher"))
    model, _ = incremental_finetune(
        base, ctx.shadow_train_graph, fisher, cfg, seed=derive_seed(seed, "shadow-ft"),
    )
    return model, result


def run_similarity_attack(ctx: AttackContext, variant: str) -> RunRecord:
    cfg, seed = ctx.cfg, ctx.seed
    shadow, distilled = build_shadow_model(ctx, variant)
    dataset = build_attack_dataset(shadow, *ctx.attack_plans)
    attack_model = train_attack_model(dataset, cfg, seed=derive_seed(seed, "attack-train"))
    graphs = (ctx.attack_domain.member_graph, ctx.attack_domain.nonmember_graph)
    sides = [infer_membership(attack_model, ctx.target, g, nodes, derive_seed(seed, f"infer-{p}"))
             for g, nodes, p in zip(graphs, ctx.query_nodes, ("members", "nonmembers"))]
    report = _score(ctx, *sides, PRIMARY_ATTACK)
    extras = {}
    if distilled is not None:  # the amplification record's lines
        # the shadow's profiles are the attack dataset's rows
        extras["shadow_gap"] = similarity_margin_gap(dataset.x[dataset.y == 1],
                                                     dataset.x[dataset.y == 0])
        extras["target_gap"] = similarity_margin_gap(
            *(similarity_profile(ctx.target, plan) for plan in ctx.attack_plans))
        extras["distill_initial"] = distilled.initial_loss
        extras["distill_final"] = distilled.final_loss
    return RunRecord(
        report=report, variant=variant, config_hash=config_hash(cfg),
        split_fingerprint=ctx.split_fingerprint, extras=extras,
    )


def run_baseline(ctx: AttackContext, kind: str) -> RunRecord:
    """Baselines attack the same splits; the shadow-trained ones use the
    scratch shadow.  One call answers both query sides.  Each baseline is
    looked up by name on every call, so a rebinding of the module's
    baseline functions takes effect."""
    cfg, seed = ctx.cfg, ctx.seed
    mg = ctx.attack_domain.member_graph
    ng = ctx.attack_domain.nonmember_graph
    graphs, nodes = [mg, ng], list(ctx.query_nodes)

    if kind == "ge-mia":
        ref_m, ref_n = ge_references(mg, ng, seed)
        sides = ge_mia(ctx.target, mg, ref_m, ng, ref_n, graphs, nodes)
    else:
        fn = {
            "embed-mia": embed_mia,
            "grad-mia": grad_mia,
            "nlo-mia": nlo_mia,
            "glo-mia": glo_mia,
            "gpia": gpia,
        }[kind]
        sides = fn(
            ctx.scratch_shadow, (ctx.shadow_train_graph, ctx.shadow_test_graph), ctx.target,
            graphs, nodes, cfg, derive_seed(seed, "baseline", kind),
        )
    report = _score(ctx, *sides, kind)
    return RunRecord(
        report=report, variant=VARIANT_FULL, config_hash=config_hash(cfg),
        split_fingerprint=ctx.split_fingerprint,
    )


def write_report(record: RunRecord, out_dir: Path) -> Path:
    name = f"report_{record.report.attack}_{record.variant}_seed{record.report.seed}.json"
    path = out_dir / name
    path.write_text(
        json.dumps(record.report_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return path


def write_amplification_record(record: RunRecord, cfg: ExperimentConfig, out_dir: Path) -> Path:
    """Text key-value record of what the amplification stage did."""
    ex = record.extras
    lines = [
        f"lambda = {cfg.lam!r}",
        f"augment_epochs = {cfg.epochs_augment}",
        f"distill_epochs = {cfg.epochs_unlearn}",
        f"distill_loss_initial = {ex['distill_initial']!r}",
        f"distill_loss_final = {ex['distill_final']!r}",
        f"similarity_gap_before = {ex['target_gap']!r}",
        f"similarity_gap_after = {ex['shadow_gap']!r}",
    ]
    path = out_dir / f"amplify_seed{record.report.seed}.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def run_experiment(
    cfg: ExperimentConfig,
    attacks: tuple[str, ...] = (PRIMARY_ATTACK,),
    variants: tuple[str, ...] = (VARIANT_FULL,),
    out_dir: str | Path | None = None,
) -> ExperimentResult:
    """Run every requested attack for every seed and persist reports.

    ``attacks`` may mix the primary similarity attack and baseline kinds;
    ``variants`` applies to the primary attack only.  A failing stage
    aborts that seed's remaining work but other seeds continue.
    """
    cfg.validate()
    for a in attacks:
        if a != PRIMARY_ATTACK and a not in BASELINE_KINDS:
            raise ValueError(f"unknown attack {a!r}")
    for v in variants:
        if v not in VARIANTS:
            raise ValueError(f"unknown variant {v!r}")
    t0 = time.perf_counter()
    records: list[RunRecord] = []
    failures: list[SeedFailure] = []
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
    for seed in cfg.seeds():
        stage = "context"
        try:
            ctx = build_context(cfg, seed, out_path)
            for attack in attacks:
                if attack == PRIMARY_ATTACK:
                    for variant in variants:
                        stage = f"{attack}/{variant}"
                        records.append(run_similarity_attack(ctx, variant))
                else:
                    stage = attack
                    records.append(run_baseline(ctx, attack))
        except Exception as exc:  # noqa: BLE001 - contained per seed by design
            failures.append(SeedFailure(seed=seed, stage=stage, error=f"{type(exc).__name__}: {exc}"))
            continue
    result = ExperimentResult(
        records=records,
        failures=failures,
        config_hash=config_hash(cfg),
        wall_time_s=time.perf_counter() - t0,
    )
    if out_path is not None:
        for record in records:
            write_report(record, out_path)
            if "distill_initial" in record.extras:
                write_amplification_record(record, cfg, out_path)
        (out_path / "summary.json").write_text(
            json.dumps(result.summary(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    return result


@dataclass
class ScalingReport:
    sizes: list[int]
    seconds: list[float]
    slope: float

    def to_dict(self) -> dict:
        return {"sizes": self.sizes, "seconds": self.seconds, "slope": self.slope}


def time_attack_pipeline(cfg: ExperimentConfig, seed: int) -> float:
    """Wall time of the attack given a pre-trained target (pre-training and
    graph generation excluded)."""
    ctx = build_context(cfg, seed)
    t0 = time.perf_counter()
    run_similarity_attack(ctx, VARIANT_FULL)
    return time.perf_counter() - t0


def runtime_scaling_check(sizes: list[int], cfg: ExperimentConfig) -> ScalingReport:
    """Fit the log-log slope of attack wall time against graph size.

    Every size reuses the same config with only ``nodes_per_domain``
    replaced; degree, dims and epochs stay fixed so the slope isolates the
    dependence on n.  Every sized config is validated before the first
    run; a ``ConfigError`` names the size it rejects.
    """
    if not sizes or any(int(n) <= 0 for n in sizes):
        raise ValueError("sizes must be positive node counts")
    if len({int(n) for n in sizes}) < 2:
        raise ValueError("need at least two distinct sizes to fit a slope")
    if cfg.synthetic is None:
        raise ConfigError("scaling check requires a synthetic config")
    configs = [_with_nodes(cfg, int(n)) for n in sizes]
    for n, sized in zip(sizes, configs):
        try:
            sized.validate()
        except ConfigError as exc:
            raise ConfigError(f"nodes_per_domain {n}: {exc}") from exc
    # warm-up run so allocator/cache effects do not bias the smallest size
    time_attack_pipeline(configs[0], configs[0].seed)
    seconds = [time_attack_pipeline(sized, sized.seed) for sized in configs]
    slope = float(np.polyfit(np.log(np.array(sizes, float)), np.log(np.array(seconds)), 1)[0])
    return ScalingReport(sizes=[int(n) for n in sizes], seconds=seconds, slope=slope)


def _with_nodes(cfg: ExperimentConfig, nodes: int) -> ExperimentConfig:
    return replace(cfg, synthetic=replace(cfg.synthetic, nodes_per_domain=nodes))
