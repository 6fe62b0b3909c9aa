"""Incremental shadow model construction.

Per-parameter importances are estimated on the shadow training graph as an
empirical diagonal Fisher (mean of squared per-node loss gradients), then
the unlearned model is fine-tuned under a quadratic anchor penalty
alpha * sum_i I_i (theta_i - theta_anchor_i)^2 so that the shadow model
keeps mimicking the target while fitting the shadow data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .nn import ParamSet, ShapeError
from .rng import derive_seed
from .victim import VictimModel, fine_tune, per_node_ssl_loss


@dataclass
class FisherDiag:
    """Non-negative per-parameter importance weights aligned with a ParamSet."""

    values: dict[str, np.ndarray]
    sample_count: int

    def __post_init__(self) -> None:
        for name, v in self.values.items():
            if not np.all(np.isfinite(v)) or np.any(v < 0):
                raise ValueError(f"Fisher entries for {name!r} must be finite and >= 0")

    @property
    def total_len(self) -> int:
        return sum(v.size for v in self.values.values())

    def flat(self) -> np.ndarray:
        return np.concatenate([v.ravel() for v in self.values.values()])

    @classmethod
    def uniform(cls, params: ParamSet, value: float = 1.0) -> "FisherDiag":
        return cls({k: np.full_like(t, value) for k, t in params.items()}, sample_count=0)

    def aligned_with(self, params: ParamSet) -> bool:
        return (
            list(self.values) == params.names
            and all(self.values[k].shape == params.tensors[k].shape for k in self.values)
        )


@dataclass(frozen=True)
class ShadowConfig:
    alpha: float = 1.0
    epochs: int = 100
    lr: float = 1e-3

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


def estimate_fisher(model: VictimModel, shadow_train: Graph, seed: int) -> FisherDiag:
    """Empirical diagonal Fisher on the shadow training graph.

    Each node's SSL loss contribution counts as one sample; its squared
    parameter gradient is accumulated and the sum averaged over nodes.
    Iteration is over sorted node ids, so the estimate does not depend on
    how the node set was ordered.
    """
    if shadow_train.num_nodes == 0:
        raise ValueError("shadow training graph is empty")
    params = model.params
    acc = {k: np.zeros_like(t) for k, t in params.items()}
    for node in range(shadow_train.num_nodes):
        _, grads, _ = per_node_ssl_loss(model, shadow_train, node, derive_seed(seed, "fisher", node))
        for k, g in grads.items():
            acc[k] += g * g
    n = shadow_train.num_nodes
    return FisherDiag({k: v / n for k, v in acc.items()}, sample_count=n)


def ewc_penalty(
    params: ParamSet, anchor: ParamSet, fisher: FisherDiag, alpha: float
) -> tuple[float, ParamSet]:
    """alpha * sum_i I_i (theta_i - anchor_i)^2 and its exact gradient."""
    if not fisher.aligned_with(params):
        raise ShapeError("Fisher diagonal is not aligned with the parameter set")
    value = 0.0
    grads: dict[str, np.ndarray] = {}
    for k, t in params.items():
        diff = t - anchor.tensors[k]
        fi = fisher.values[k]
        value += float(alpha * np.sum(fi * diff * diff))
        grads[k] = 2.0 * alpha * fi * diff
    return value, ParamSet(grads)


def incremental_finetune(
    unlearned: VictimModel,
    shadow_train: Graph,
    fisher: FisherDiag,
    config: ShadowConfig,
    seed: int,
) -> tuple[VictimModel, list[float]]:
    """Fine-tune a copy of the unlearned model on the shadow training graph
    under the Fisher-weighted anchor penalty.

    With alpha = 0 the penalty branch is skipped entirely, so the run is
    bit-identical to plain fine-tuning with the same seed.  Returns the
    shadow model and the per-epoch total objective.
    """
    if not fisher.aligned_with(unlearned.params):
        raise ShapeError("Fisher diagonal is not aligned with the model parameters")
    anchor = unlearned.params.copy()
    penalty = None
    if config.alpha != 0.0:
        def penalty(params: ParamSet):
            return ewc_penalty(params, anchor, fisher, config.alpha)
    return fine_tune(
        unlearned,
        shadow_train,
        epochs=config.epochs,
        lr=config.lr,
        seed=seed,
        penalty_grads=penalty,
    )
