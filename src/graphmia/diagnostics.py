"""Pre-attack diagnostics: embedding separability and perturbation robustness."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .graph import Graph, perturb_edges
from .nn import cosine_rows
from .pca import PCAResult, pca_project
from .rng import derive_seed
from .victim import VictimModel, embed

# Share of a graph's edges each robustness trial edits.  Read at call time.
ROBUSTNESS_BUDGET = 0.15


def robustness_probe(model: VictimModel, graph: Graph, trials: int, seed: int) -> np.ndarray:
    """Mean cosine similarity of each node's embedding before and after
    random edits of ``ROBUSTNESS_BUDGET`` of the graph's edges, averaged
    over ``trials`` perturbed copies; entry v belongs to node v."""
    if trials < 1:
        raise ValueError("need at least one trial")
    h0 = embed(model, graph)
    sims = np.zeros(graph.num_nodes)
    for t in range(trials):
        perturbed = perturb_edges(graph, ROBUSTNESS_BUDGET, derive_seed(seed, "robustness", t))
        sims += cosine_rows(h0, embed(model, perturbed))
    return sims / trials


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


def write_robustness_csv(path: str | Path, values: np.ndarray, labels: np.ndarray) -> None:
    lines = ["node,label,mean_similarity"]
    for i, (value, lab) in enumerate(zip(values, labels)):
        lines.append(f"{i},{int(lab)},{value:.9g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
