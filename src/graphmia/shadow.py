"""Incremental shadow model construction.

Per-parameter importances are estimated on the shadow training graph as an
empirical diagonal Fisher (mean of squared per-node loss gradients), then
the unlearned model is fine-tuned under a quadratic anchor penalty
alpha * sum_i I_i (theta_i - theta_anchor_i)^2 so that the shadow model
keeps mimicking the target while fitting the shadow data.  The fine-tune
reads alpha, ``epochs_shadow`` and ``lr_shadow`` from the
:class:`ExperimentConfig`.
"""

from __future__ import annotations

import numpy as np

from .config import ExperimentConfig
from .graph import Graph
from .nn import ParamSet
from .rng import substream
from .victim import VictimModel, fine_tune, loss_chunks


class FisherDiag(ParamSet):
    """Non-negative per-parameter importance weights on a model's layout."""

    def __init__(self, tensors: dict[str, np.ndarray]) -> None:
        super().__init__(tensors)
        if not np.all(np.isfinite(self.vector)) or np.any(self.vector < 0):
            raise ValueError("Fisher entries must be finite and >= 0")


def estimate_fisher(model: VictimModel, shadow_train: Graph, seed: int) -> FisherDiag:
    """Empirical diagonal Fisher on the shadow training graph.

    Each node's SSL loss contribution counts as one sample; its squared
    parameter gradient is accumulated in node order and the sum averaged
    over nodes.  Every node's references come from one stream,
    ``substream(seed, "fisher")``, drawn in ascending node order.  The
    nodes run in :func:`victim.loss_chunks` at the shared parameters; a
    chunk's one backward pass gives each node's own gradient.
    """
    if shadow_train.num_nodes == 0:
        raise ValueError("shadow training graph is empty")
    acc = model.params.zeros_like()
    rng = substream(seed, "fisher")
    for terms in loss_chunks(model, shadow_train, range(shadow_train.num_nodes), rng):
        _, grads, _ = terms.evaluate(model)
        for g in grads.vector:
            acc.vector += g * g
    acc.vector /= shadow_train.num_nodes
    return FisherDiag(acc.tensors)


def ewc_penalty(
    params: ParamSet, anchor: ParamSet, fisher: FisherDiag, alpha: float
) -> tuple[float, ParamSet]:
    """alpha * sum_i I_i (theta_i - anchor_i)^2 and its exact gradient."""
    params.check_layout(fisher)
    diff = params.vector - anchor.vector
    value = float(alpha * np.sum(fisher.vector * diff * diff))
    return value, ParamSet.over(2.0 * alpha * fisher.vector * diff, params.layout)


def incremental_finetune(
    unlearned: VictimModel,
    shadow_train: Graph,
    fisher: FisherDiag,
    cfg: ExperimentConfig,
    seed: int,
) -> tuple[VictimModel, list[float]]:
    """Fine-tune a copy of the unlearned model on the shadow training graph
    under the Fisher-weighted anchor penalty, with ``cfg.resolved_alpha()``
    as alpha.

    With alpha = 0 the penalty branch is skipped entirely, so the run is
    bit-identical to plain fine-tuning with the same seed.  Returns the
    shadow model and the per-epoch total objective.
    """
    unlearned.params.check_layout(fisher)
    anchor = unlearned.params.copy()
    alpha = cfg.resolved_alpha()
    penalty = None
    if alpha != 0.0:
        def penalty(params: ParamSet):
            return ewc_penalty(params, anchor, fisher, alpha)
    return fine_tune(
        unlearned,
        shadow_train,
        epochs=cfg.epochs_shadow,
        lr=cfg.lr_shadow,
        seed=seed,
        penalty_grads=penalty,
    )
