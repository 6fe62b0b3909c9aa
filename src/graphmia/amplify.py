"""Membership signal amplification via selective unlearning.

The target model is briefly fine-tuned on the unlearn subgraph to obtain an
augment model, teacher similarity scores interpolate between the two, and a
student copy of the target is distilled toward the teachers.  Similarity
profiles are (nodes x samples) matrices computed against a frozen
:class:`SamplePlan`, so scores from different models are directly
comparable entry by entry.  Both stages read their settings (lambda, the
augment and distill epochs and learning rates, m samples) from the
:class:`ExperimentConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .graph import Graph
from .nn import ParamSet, ShapeError, minimize, ref_cosines
from .rng import derive_seed
from .victim import (
    CONTRASTIVE,
    NoNegativeError,
    NoPositiveError,
    SSLObjective,
    VictimModel,
    augment_graph,
    embed,
    fine_tune,
    make_positive_negative,
    view_seed,
)

_BOUND_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SamplePlan:
    """Frozen sample identities for a set of nodes of ``graph``.

    Row i of ``refs`` holds the node ids that ``nodes[i]`` is compared with:
    ``m`` positives, then ``m`` negatives.  Under the contrastive objective
    positive column p is the anchor itself, read in ``views[p]``, the shared
    augmented view drawn with ``view_seed(seed, p)`` from the plan's seed;
    every other column compares two nodes of the graph itself.
    """

    graph: Graph
    m: int
    nodes: tuple[int, ...]
    skipped: tuple[int, ...]
    refs: np.ndarray
    views: tuple[Graph, ...]


def draw_sample_plan(
    graph: Graph, nodes, objective: SSLObjective, m: int, seed: int
) -> SamplePlan:
    """Sample m positives and m negatives for every node; link-prediction
    nodes that are isolated or adjacent to every other node are skipped and
    recorded.  A contrastive plan with kept nodes builds its shared views
    here."""
    kept: list[int] = []
    skipped: list[int] = []
    rows: list[np.ndarray] = []
    for node in sorted(int(v) for v in nodes):
        try:
            pos, neg = make_positive_negative(graph, node, objective, m, seed)
        except (NoPositiveError, NoNegativeError):
            skipped.append(node)
            continue
        kept.append(node)
        rows.append(np.concatenate([pos, neg]))
    refs = np.array(rows, dtype=np.int64).reshape(len(kept), 2 * m)
    refs.flags.writeable = False
    views = ()
    if objective.kind == CONTRASTIVE and kept:
        views = tuple(augment_graph(graph, view_seed(seed, p)) for p in range(m))
    return SamplePlan(
        graph=graph, m=m, nodes=tuple(kept), skipped=tuple(skipped), refs=refs, views=views,
    )


def similarity_profile(model: VictimModel, plan: SamplePlan) -> np.ndarray:
    """The (len(plan.nodes), 2m) similarity matrix under ``model``: row i
    holds the cosines of ``plan.nodes[i]`` to its m positives, then its m
    negatives.

    Profiles of different models against the same plan use identical sample
    identities, so their entry-wise differences isolate the model change.
    """
    views_h = [embed(model, vg) for vg in plan.views]
    s, _ = ref_cosines(embed(model, plan.graph), views_h, plan.nodes, plan.refs)
    if s.size and (s.min() < -1.0 - _BOUND_TOL or s.max() > 1.0 + _BOUND_TOL):
        raise ValueError("similarity entries outside [-1, 1]")
    return s


def teacher_scores(s_target: np.ndarray, s_augment: np.ndarray, lam: float) -> np.ndarray:
    """Interpolated target: s_target - lam * (s_target - s_augment).

    Evaluated as (1 - lam) * s_target + lam * s_augment so the lam = 0 and
    lam = 1 endpoints reproduce the inputs bit for bit.  Entries are
    deliberately not clamped; lambda > 1 extrapolates past the augment
    scores and clamping would silently change its meaning.
    """
    if s_target.shape != s_augment.shape:
        raise ShapeError("profile shapes disagree")
    return (1.0 - lam) * s_target + lam * s_augment


def fine_tune_augment(
    target: VictimModel, unlearn_graph: Graph, cfg: ExperimentConfig, seed: int
) -> VictimModel:
    """Brief SSL fine-tuning of a copy of the target on the unlearn graph."""
    tuned, _ = fine_tune(
        target,
        unlearn_graph,
        epochs=cfg.epochs_augment,
        lr=cfg.lr_augment,
        seed=derive_seed(seed, "augment-ft"),
    )
    return tuned


def distill_loss_and_grads(
    student: VictimModel, plan: SamplePlan, teachers: np.ndarray
) -> tuple[float, ParamSet]:
    """Sum over plan nodes of ||s_student - s_teacher||^2 with exact gradients.

    ``teachers`` is the (len(nodes), 2m) matrix of teacher entries; the
    teacher is a constant, gradients flow only through the student.
    """
    h, cache = student.forward(plan.graph)
    views = [student.forward(vg) for vg in plan.views]
    views_h = [v[0] for v in views]
    s, pullback = ref_cosines(h, views_h, plan.nodes, plan.refs)
    resid = s - teachers
    loss = float((resid * resid).sum())
    dh, dviews = pullback(2.0 * resid)
    grads, _ = student.backward(cache, dh)
    for (_, vcache), dv in zip(views, dviews):
        g, _ = student.backward(vcache, dv)
        grads.add_(g)
    return loss, grads


@dataclass
class UnlearnResult:
    model: VictimModel
    plan: SamplePlan
    initial_loss: float
    final_loss: float
    history: list[float]


def unlearn(
    target: VictimModel, unlearn_graph: Graph, cfg: ExperimentConfig, seed: int
) -> UnlearnResult:
    """Distill a copy of the target toward teacher similarity scores.

    Builds the augment model, profiles target and augment on a shared
    sample plan of ``m_samples`` positives and as many negatives per
    unlearn-graph node, forms teachers, and trains the student for
    ``epochs_unlearn``; its final loss takes one forward pass.  An unlearn
    graph where no node has a sample raises ``NoNegativeError`` if it is
    complete and ``NoPositiveError`` if it has no edge.  The target itself
    is never mutated.
    """
    if unlearn_graph.num_nodes == 0:
        raise ValueError("unlearn graph is empty")
    augment_model = fine_tune_augment(target, unlearn_graph, cfg, seed)
    plan = draw_sample_plan(unlearn_graph, range(unlearn_graph.num_nodes), target.objective,
                            cfg.m_samples, derive_seed(seed, "unlearn-plan"))
    if not plan.nodes:
        if unlearn_graph.num_edges:  # then every node is adjacent to every other
            raise NoNegativeError(f"complete unlearn graph on {unlearn_graph.num_nodes} nodes: "
                                  "no node admits a negative sample")
        raise NoPositiveError("no unlearn node admits a positive sample")
    teachers = teacher_scores(
        similarity_profile(target, plan), similarity_profile(augment_model, plan), cfg.lam
    )

    student = target.copy()
    history = minimize(student.params, cfg.lr_unlearn, cfg.epochs_unlearn,
                       lambda _: distill_loss_and_grads(student, plan, teachers),
                       "distillation", lambda e: f"epoch {e}")
    resid = similarity_profile(student, plan) - teachers
    final_loss = float((resid * resid).sum())
    initial = history[0] if history else final_loss
    return UnlearnResult(
        model=student,
        plan=plan,
        initial_loss=initial,
        final_loss=final_loss,
        history=history,
    )
