"""Similarity-based membership inference.

Attack features are a node's cosine similarities to m positive and m
negative samples.  The labeled dataset comes from the shadow model (shadow
train nodes are members, shadow test nodes are not); a two-layer MLP is
trained on it and applied to features queried from the real target model.
The MLP's width, epochs and learning rate are ``hidden_dim``,
``epochs_attack`` and ``lr_attack`` of the :class:`ExperimentConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .amplify import SamplePlan, draw_sample_plan, similarity_profile
from .config import ExperimentConfig
from .graph import Graph
from .nn import MLP, ParamSet, ShapeError, cross_entropy, minimize
from .rng import derive_seed
from .victim import VictimModel


class DataQualityError(ValueError):
    """Too many nodes had to be skipped while building a dataset."""


@dataclass
class AttackDataset:
    """Row i of ``x`` is one node's similarities to its positives, then its
    negatives; ``y`` is 1 for shadow-train nodes and 0 for shadow-test."""

    x: np.ndarray
    y: np.ndarray
    skipped_train: int = 0
    skipped_test: int = 0

    @property
    def feature_dim(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True, eq=False)
class Scores:
    """One query side's answers: the ascending local ids of the nodes kept,
    their predicted labels (1 = member) and membership scores, one entry
    each, and ``asked``, how many nodes were queried.  A node the attack
    could not answer is absent from ``nodes``; ``asked - len(self)`` counts
    them."""

    nodes: np.ndarray
    labels: np.ndarray
    scores: np.ndarray
    asked: int

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass
class AttackModel:
    mlp: MLP
    train_accuracy: float = 0.0

    @property
    def feature_dim(self) -> int:
        return self.mlp.w1.shape[0]


def build_attack_dataset(
    shadow_model: VictimModel, plan_tr: SamplePlan, plan_te: SamplePlan
) -> AttackDataset:
    """Label-1 features for the shadow-train plan's nodes, label-0 for the
    shadow-test plan's; each plan draws m positives and m negatives.

    Nodes without a valid positive sample are skipped and counted; more
    than half skipped on either side is treated as a data-quality failure.
    """
    if plan_tr.m < 1:
        raise ValueError("need at least one positive/negative sample per node")
    if plan_tr.m != plan_te.m:
        raise ShapeError(f"the plans draw m = {plan_tr.m} and m = {plan_te.m} samples per node")
    for plan, side in ((plan_tr, "train"), (plan_te, "test")):
        if len(plan.skipped) > len(plan.nodes):
            raise DataQualityError(f"more than half of the shadow-{side} nodes were skipped")
    x_tr, x_te = similarity_profile(shadow_model, plan_tr), similarity_profile(shadow_model, plan_te)
    x = np.concatenate([x_tr, x_te])
    if not len(x):
        raise DataQualityError("attack dataset is empty")
    return AttackDataset(
        x=x,
        y=np.repeat(np.array([1, 0], dtype=np.int64), [len(x_tr), len(x_te)]),
        skipped_train=len(plan_tr.skipped),
        skipped_test=len(plan_te.skipped),
    )


def fit_mlp_classifier(x: np.ndarray, y: np.ndarray, cfg: ExperimentConfig, seed: int) -> MLP:
    """Full-batch Adam + cross-entropy fit of a two-layer binary classifier."""
    if len(set(np.asarray(y).tolist())) < 2:
        raise ValueError("training data must contain both labels")
    mlp = MLP.init(x.shape[1], cfg.hidden_dim, 2, seed=derive_seed(seed, "attack-mlp"))
    # A step's activations live into the next step: freed together, they let
    # malloc return their pages, and faulting them in again doubles the fit time.
    cache = None

    def step(_: int) -> tuple[float, ParamSet]:
        nonlocal cache
        logits, cache = mlp.forward(x)
        loss, dlogits = cross_entropy(logits, y)
        return loss, mlp.backward(cache, dlogits)

    minimize(mlp.params, cfg.lr_attack, cfg.epochs_attack, step, "attack training",
             lambda e: f"epoch {e}")
    return mlp


def classify(mlp: MLP, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels, membership scores) for a feature matrix (a 1-D row is one
    sample); ``MLP.forward`` raises ``ShapeError`` on a width mismatch.

    Exact logit ties break toward non-member; the score is the softmax
    probability of the member class, always strictly inside (0, 1).
    """
    logits, _ = mlp.forward(features)
    labels = (logits[:, 1] > logits[:, 0]).astype(np.int64)
    shift = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shift)
    scores = exp[:, 1] / exp.sum(axis=1)
    return labels, scores


def train_attack_model(dataset: AttackDataset, cfg: ExperimentConfig, seed: int) -> AttackModel:
    """Train the two-layer attack MLP on a labeled similarity dataset."""
    x, y = dataset.x, dataset.y
    mlp = fit_mlp_classifier(x, y, cfg, seed)
    logits, _ = mlp.forward(x)
    acc = float((logits.argmax(axis=1) == y).mean())
    return AttackModel(mlp=mlp, train_accuracy=acc)


def infer_membership(
    attack_model: AttackModel,
    target_model: VictimModel,
    graph: Graph,
    nodes,
    seed: int,
) -> Scores:
    """Query the target model and classify each node's similarity row of
    m positives and m negatives, where 2m is the attack model's input width.

    Nodes whose features cannot be built (isolated under link prediction)
    are absent from the record but counted in its ``asked``.
    """
    m = attack_model.feature_dim // 2
    plan = draw_sample_plan(graph, nodes, target_model.objective, m, seed)
    labels, scores = (classify(attack_model.mlp, similarity_profile(target_model, plan))
                      if plan.nodes else (np.zeros(0, dtype=np.int64), np.zeros(0)))
    return Scores(np.array(plan.nodes, dtype=np.int64), labels, scores,
                  len(plan.nodes) + len(plan.skipped))
