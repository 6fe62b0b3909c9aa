"""Membership signal amplification via selective unlearning.

The target model is briefly fine-tuned on the unlearn subgraph to obtain an
augment model, teacher similarity scores interpolate between the two, and a
student copy of the target is distilled toward the teachers.  Similarity
profiles are computed against a frozen :class:`SamplePlan` so that scores
from different models are directly comparable entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .nn import (
    AdamState,
    NumericError,
    ParamSet,
    ShapeError,
    adam_step,
    cosine_rows,
    cosine_rows_backward,
)
from .rng import derive_seed
from .victim import (
    NoNegativeError,
    NoPositiveError,
    SSLObjective,
    VictimModel,
    augment_graph,
    embed,
    fine_tune,
    make_positive_negative,
)

_BOUND_TOL = 1e-9


@dataclass(frozen=True)
class SimilarityVector:
    """Cosine similarities of one node to its positive and negative samples.

    ``bounded`` marks vectors whose entries are genuine cosines in [-1, 1];
    teacher vectors may leave that range for lambda > 1 and carry False.
    """

    node: int
    pos_sims: np.ndarray
    neg_sims: np.ndarray
    bounded: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "pos_sims", np.asarray(self.pos_sims, dtype=np.float64))
        object.__setattr__(self, "neg_sims", np.asarray(self.neg_sims, dtype=np.float64))
        if self.bounded:
            for arr in (self.pos_sims, self.neg_sims):
                if arr.size and (arr.min() < -1.0 - _BOUND_TOL or arr.max() > 1.0 + _BOUND_TOL):
                    raise ValueError("similarity entries outside [-1, 1]")

    @property
    def num_positive(self) -> int:
        return len(self.pos_sims)

    @property
    def num_negative(self) -> int:
        return len(self.neg_sims)

    def values(self) -> np.ndarray:
        """Feature layout shared everywhere: positives first, then negatives."""
        return np.concatenate([self.pos_sims, self.neg_sims])


@dataclass(frozen=True)
class UnlearnConfig:
    lam: float = 1.0
    augment_epochs: int = 5
    distill_epochs: int = 50
    lr_augment: float = 1e-3
    lr_distill: float = 1e-3
    num_positive: int = 5
    num_negative: int = 5

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        if self.augment_epochs < 0 or self.distill_epochs < 0:
            raise ValueError("epoch counts must be >= 0")


@dataclass(frozen=True)
class SamplePlan:
    """Frozen positive/negative sample identities for a set of nodes."""

    kind: str
    num_positive: int
    num_negative: int
    nodes: tuple[int, ...]
    skipped: tuple[int, ...]
    positive_refs: dict[int, tuple[tuple, ...]]
    negative_refs: dict[int, tuple[tuple, ...]]
    view_seeds: tuple[int, ...]

    def sample_ids(self, node: int) -> tuple[tuple, ...]:
        return self.positive_refs[node] + self.negative_refs[node]


def draw_sample_plan(
    graph: Graph,
    nodes,
    objective: SSLObjective,
    num_positive: int,
    num_negative: int,
    seed: int,
) -> SamplePlan:
    """Sample positives/negatives for every node; link-prediction nodes that
    are isolated or adjacent to every other node are skipped and recorded."""
    kept: list[int] = []
    skipped: list[int] = []
    pos_refs: dict[int, tuple[tuple, ...]] = {}
    neg_refs: dict[int, tuple[tuple, ...]] = {}
    view_seeds: tuple[int, ...] = ()
    for node in sorted(int(v) for v in nodes):
        try:
            pos, neg = make_positive_negative(
                graph, node, objective, num_positive, num_negative, seed
            )
        except (NoPositiveError, NoNegativeError):
            skipped.append(node)
            continue
        kept.append(node)
        pos_refs[node] = tuple(pos)
        neg_refs[node] = tuple(neg)
        if not view_seeds and pos and pos[0][0] == "view":
            view_seeds = tuple(ref[2] for ref in pos)
    return SamplePlan(
        kind=objective.kind,
        num_positive=num_positive,
        num_negative=num_negative,
        nodes=tuple(kept),
        skipped=tuple(skipped),
        positive_refs=pos_refs,
        negative_refs=neg_refs,
        view_seeds=view_seeds,
    )


def plan_view_graphs(graph: Graph, objective: SSLObjective, plan: SamplePlan) -> list[Graph]:
    """Materialize the shared augmented views a contrastive plan refers to."""
    return [augment_graph(graph, objective, s) for s in plan.view_seeds]


@dataclass
class _PairIndex:
    """Vectorized entry layout for one plan: S has shape (len(nodes), P+N)."""

    node_rows: np.ndarray       # anchor row per node-node entry
    node_others: np.ndarray     # other row per node-node entry
    node_slots: tuple[np.ndarray, np.ndarray]
    view_rows: dict[int, np.ndarray]    # view index -> anchor rows
    view_slots: dict[int, tuple[np.ndarray, np.ndarray]]

    @classmethod
    def from_plan(cls, plan: SamplePlan) -> "_PairIndex":
        n_rows: list[int] = []
        n_others: list[int] = []
        n_slot_i: list[int] = []
        n_slot_c: list[int] = []
        v_rows: dict[int, list[int]] = {}
        v_slot_i: dict[int, list[int]] = {}
        v_slot_c: dict[int, list[int]] = {}
        for i, node in enumerate(plan.nodes):
            refs = list(plan.positive_refs[node]) + list(plan.negative_refs[node])
            for c, ref in enumerate(refs):
                if ref[0] == "node":
                    n_rows.append(node)
                    n_others.append(ref[1])
                    n_slot_i.append(i)
                    n_slot_c.append(c)
                elif ref[0] == "view":
                    p = ref[1]
                    v_rows.setdefault(p, []).append(node)
                    v_slot_i.setdefault(p, []).append(i)
                    v_slot_c.setdefault(p, []).append(c)
                else:
                    raise ValueError(f"unknown sample ref {ref!r}")
        return cls(
            node_rows=np.array(n_rows, dtype=np.int64),
            node_others=np.array(n_others, dtype=np.int64),
            node_slots=(np.array(n_slot_i, dtype=np.int64), np.array(n_slot_c, dtype=np.int64)),
            view_rows={p: np.array(r, dtype=np.int64) for p, r in v_rows.items()},
            view_slots={
                p: (np.array(v_slot_i[p], dtype=np.int64), np.array(v_slot_c[p], dtype=np.int64))
                for p in v_rows
            },
        )


def _plan_sims(h: np.ndarray, views_h: list[np.ndarray], plan: SamplePlan, idx: _PairIndex) -> np.ndarray:
    s = np.zeros((len(plan.nodes), plan.num_positive + plan.num_negative))
    if len(idx.node_rows):
        s[idx.node_slots] = cosine_rows(h[idx.node_rows], h[idx.node_others])
    for p, rows in idx.view_rows.items():
        s[idx.view_slots[p]] = cosine_rows(h[rows], views_h[p][rows])
    return s


def similarity_profile(
    model: VictimModel,
    graph: Graph,
    domain_id: int,
    plan: SamplePlan,
    view_graphs: list[Graph] | None = None,
) -> dict[int, SimilarityVector]:
    """Similarity vectors for every plan node under ``model``.

    Profiles of different models against the same plan use identical sample
    identities, so their entry-wise differences isolate the model change.
    """
    if view_graphs is None:
        view_graphs = plan_view_graphs(graph, model.objective, plan)
    h = embed(model, graph, domain_id)
    views_h = [embed(model, vg, domain_id) for vg in view_graphs]
    idx = _PairIndex.from_plan(plan)
    s = _plan_sims(h, views_h, plan, idx)
    p = plan.num_positive
    return {
        node: SimilarityVector(node=node, pos_sims=s[i, :p], neg_sims=s[i, p:])
        for i, node in enumerate(plan.nodes)
    }


def teacher_scores(
    s_target: SimilarityVector, s_augment: SimilarityVector, lam: float
) -> SimilarityVector:
    """Interpolated target: s_target - lam * (s_target - s_augment).

    Evaluated as (1 - lam) * s_target + lam * s_augment so the lam = 0 and
    lam = 1 endpoints reproduce the inputs bit for bit.  Entries are
    deliberately not clamped; lambda > 1 extrapolates past the augment
    scores and clamping would silently change its meaning.
    """
    if s_target.node != s_augment.node:
        raise ShapeError("teacher_scores needs profiles of the same node")
    if (s_target.num_positive != s_augment.num_positive
            or s_target.num_negative != s_augment.num_negative):
        raise ShapeError("profile shapes disagree")
    pos = (1.0 - lam) * s_target.pos_sims + lam * s_augment.pos_sims
    neg = (1.0 - lam) * s_target.neg_sims + lam * s_augment.neg_sims
    return SimilarityVector(node=s_target.node, pos_sims=pos, neg_sims=neg, bounded=False)


def fine_tune_augment(
    target: VictimModel, unlearn_graph: Graph, config: UnlearnConfig, seed: int = 0
) -> VictimModel:
    """Brief SSL fine-tuning of a copy of the target on the unlearn graph."""
    tuned, _ = fine_tune(
        target,
        unlearn_graph,
        unlearn_graph.domain_id,
        epochs=config.augment_epochs,
        lr=config.lr_augment,
        seed=derive_seed(seed, "augment-ft"),
    )
    return tuned


def distill_loss_and_grads(
    student: VictimModel,
    graph: Graph,
    domain_id: int,
    plan: SamplePlan,
    teachers: np.ndarray,
    idx: _PairIndex,
    view_graphs: list[Graph],
) -> tuple[float, ParamSet]:
    """Sum over plan nodes of ||s_student - s_teacher||^2 with exact gradients.

    ``teachers`` is the (len(nodes), P+N) matrix of teacher entries; the
    teacher is a constant, gradients flow only through the student.
    """
    h, cache = student.forward(graph, domain_id)
    views = [student.forward(vg, domain_id) for vg in view_graphs]
    views_h = [v[0] for v in views]
    s = _plan_sims(h, views_h, plan, idx)
    resid = s - teachers
    loss = float((resid * resid).sum())

    upstream = 2.0 * resid
    dh = np.zeros_like(h)
    if len(idx.node_rows):
        da, db = cosine_rows_backward(
            h[idx.node_rows], h[idx.node_others], upstream[idx.node_slots]
        )
        np.add.at(dh, idx.node_rows, da)
        np.add.at(dh, idx.node_others, db)
    dviews = [np.zeros_like(vh) for vh in views_h]
    for p, rows in idx.view_rows.items():
        da, db = cosine_rows_backward(h[rows], views_h[p][rows], upstream[idx.view_slots[p]])
        np.add.at(dh, rows, da)
        np.add.at(dviews[p], rows, db)

    grads, _ = student.backward(cache, dh)
    for (_, vcache), dv in zip(views, dviews):
        g, _ = student.backward(vcache, dv)
        grads.add_(g)
    return loss, grads


@dataclass
class UnlearnResult:
    model: VictimModel
    augment_model: VictimModel
    plan: SamplePlan
    initial_loss: float
    final_loss: float
    history: list[float]


def unlearn(
    target: VictimModel, unlearn_graph: Graph, config: UnlearnConfig, seed: int
) -> UnlearnResult:
    """Distill a copy of the target toward teacher similarity scores.

    Builds the augment model, profiles target and augment on a shared
    sample plan over the unlearn graph's nodes, forms teachers, and trains
    the student for ``distill_epochs``.  The target itself is never mutated.
    """
    if unlearn_graph.num_nodes == 0:
        raise ValueError("unlearn graph is empty")
    augment_model = fine_tune_augment(target, unlearn_graph, config, seed)
    plan = draw_sample_plan(
        unlearn_graph,
        range(unlearn_graph.num_nodes),
        target.objective,
        config.num_positive,
        config.num_negative,
        derive_seed(seed, "unlearn-plan"),
    )
    if not plan.nodes:
        raise ValueError("no unlearn node admits a positive sample")
    view_graphs = plan_view_graphs(unlearn_graph, target.objective, plan)
    domain = unlearn_graph.domain_id

    s_target = similarity_profile(target, unlearn_graph, domain, plan, view_graphs)
    s_augment = similarity_profile(augment_model, unlearn_graph, domain, plan, view_graphs)
    teachers = np.stack([
        teacher_scores(s_target[v], s_augment[v], config.lam).values() for v in plan.nodes
    ])

    idx = _PairIndex.from_plan(plan)
    student = target.copy()
    params = student.params
    state = AdamState.init(params, lr=config.lr_distill)
    history: list[float] = []
    for epoch in range(config.distill_epochs):
        loss, grads = distill_loss_and_grads(
            student, unlearn_graph, domain, plan, teachers, idx, view_graphs
        )
        if not np.isfinite(loss):
            raise NumericError(f"distillation diverged at epoch {epoch}")
        history.append(loss)
        adam_step(state, params, grads)
    final_loss, _ = distill_loss_and_grads(
        student, unlearn_graph, domain, plan, teachers, idx, view_graphs
    )
    initial = history[0] if history else final_loss
    return UnlearnResult(
        model=student,
        augment_model=augment_model,
        plan=plan,
        initial_loss=initial,
        final_loss=final_loss,
        history=history,
    )
