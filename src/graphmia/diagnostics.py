"""Pre-attack diagnostics: embedding separability and perturbation robustness."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import Graph, perturb_edges
from .nn import cosine_rows
from .pca import PCAResult, pca_project
from .rng import derive_seed
from .victim import VictimModel, embed

# Share of a graph's edges each robustness trial edits.  Read at call time.
ROBUSTNESS_BUDGET = 0.15


def robustness_probe(
    model: VictimModel,
    graph: Graph,
    nodes,
    trials: int = 5,
    seed: int = 0,
) -> dict[int, float]:
    """Mean cosine similarity of each node's embedding before and after
    random edits of ``ROBUSTNESS_BUDGET`` of its edges, averaged over
    ``trials`` perturbed copies."""
    if trials < 1:
        raise ValueError("need at least one trial")
    idx = np.fromiter((int(v) for v in nodes), dtype=np.int64)
    h0 = embed(model, graph)[idx]
    sims = np.zeros(len(idx))
    for t in range(trials):
        perturbed = perturb_edges(graph, ROBUSTNESS_BUDGET, derive_seed(seed, "robustness", t))
        ht = embed(model, perturbed)[idx]
        sims += cosine_rows(h0, ht)
    sims /= trials
    return {int(v): float(s) for v, s in zip(idx, sims)}


@dataclass
class GroupSummary:
    """Distribution summary of a per-node statistic split by membership."""

    member_mean: float
    member_std: float
    nonmember_mean: float
    nonmember_std: float

    @property
    def gap(self) -> float:
        return self.member_mean - self.nonmember_mean


def summarize_by_membership(values: dict[int, float], members) -> GroupSummary:
    member_set = {int(v) for v in members}
    mem = np.array([v for k, v in values.items() if k in member_set])
    non = np.array([v for k, v in values.items() if k not in member_set])
    if len(mem) == 0 or len(non) == 0:
        raise ValueError("both membership groups must be non-empty")
    return GroupSummary(
        member_mean=float(mem.mean()),
        member_std=float(mem.std(ddof=1)) if len(mem) > 1 else 0.0,
        nonmember_mean=float(non.mean()),
        nonmember_std=float(non.std(ddof=1)) if len(non) > 1 else 0.0,
    )


def separability_projection(
    model: VictimModel, member_graph: Graph, nonmember_graph: Graph
) -> tuple[PCAResult, np.ndarray]:
    """Two-component PCA projection of member and non-member embeddings
    stacked together.

    Returns the projection result and the 0/1 membership labels row by row.
    """
    h_mem = embed(model, member_graph)
    h_non = embed(model, nonmember_graph)
    stacked = np.concatenate([h_mem, h_non])
    labels = np.concatenate([np.ones(len(h_mem), dtype=np.int64),
                             np.zeros(len(h_non), dtype=np.int64)])
    return pca_project(stacked, k=2), labels


def write_projection_csv(path: str | Path, result: PCAResult, labels: np.ndarray) -> None:
    k = result.projection.shape[1]
    header = "row,label," + ",".join(f"pc{i + 1}" for i in range(k))
    lines = [header]
    for i, (row, lab) in enumerate(zip(result.projection, labels)):
        lines.append(f"{i},{int(lab)}," + ",".join(f"{v:.9g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_robustness_csv(path: str | Path, values: dict[int, float], members) -> None:
    member_set = {int(v) for v in members}
    lines = ["node,label,mean_similarity"]
    for node in sorted(values):
        lines.append(f"{node},{int(node in member_set)},{values[node]:.9g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
