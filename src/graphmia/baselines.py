"""Six comparison attacks sharing the graph and model infrastructure.

Every baseline consumes the same shadow split and seeds as the primary
similarity attack within one experiment, so comparisons are paired.  Each
takes a list of query graphs and a matching list of query node sets (the
query sides) and returns one :class:`attack.Scores` record per side: the
nodes it kept, their labels and membership scores, and how many nodes
were asked.  The five shadow-trained attacks fit their decision rule once
per call and answer every side from it; the MLP-based ones fit the attack
MLP with the ``ExperimentConfig`` they are given.  Protocol settings are
the module constants below, read at call time.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .attack import Scores, classify, fit_mlp_classifier
from .config import ExperimentConfig
from .graph import Graph, perturb_edges
from .nn import NumericError, ParamSet, cosine_rows, minimize
from .rng import derive_seed, substream
from .victim import VictimModel, embed, loss_chunks

KINDS = ("embed-mia", "grad-mia", "nlo-mia", "glo-mia", "ge-mia", "gpia")

K_PERTURB = 10  # perturbed views of each graph (NLO-MIA, GLO-MIA)
EDGE_FRACTION = 0.0015  # edge edits per view, as a fraction of the edge count
GE_REFERENCES = 20  # GE-MIA reference nodes per side
GPIA_EPOCHS = 10  # GPIA per-node fine-tune epochs
GPIA_LR = 1e-3  # GPIA per-node fine-tune learning rate


def _shadow_attack(extract, fit, shadow_model: VictimModel, shadow_graphs: tuple[Graph, Graph],
                   target_model: VictimModel, query_graphs, query_nodes) -> list[Scores]:
    """Fit a decision rule once on shadow features, then answer every query side.

    ``extract(model, graph, nodes, role)`` takes ascending ``nodes`` and
    returns the ones it kept, in order, and their feature rows; ``role`` is
    ``"shadow"`` or ``"target"``.  Shadow train rows are labelled member (1)
    and shadow test rows non-member (0).  ``fit(x, y)`` returns the rule, a
    map from a feature matrix to (labels, membership scores).
    ``shadow_graphs`` is the (shadow-train, shadow-test) pair, all of whose
    nodes are used.  One ``Scores`` per (query graph, query nodes) pair, in
    order.
    """
    x_tr, x_te = (extract(shadow_model, g, list(range(g.num_nodes)), "shadow")[1]
                  for g in shadow_graphs)
    rule = fit(
        np.concatenate([x_tr, x_te]),
        np.concatenate([np.ones(len(x_tr), dtype=np.int64), np.zeros(len(x_te), dtype=np.int64)]),
    )
    sides = []
    for graph, nodes in zip(query_graphs, query_nodes, strict=True):
        order = sorted(int(v) for v in nodes)
        kept, qx = extract(target_model, graph, order, "target")
        sides.append(Scores(np.array(kept, dtype=np.int64), *rule(qx), len(order)))
    return sides


def _fit_mlp(cfg: ExperimentConfig, seed: int):
    """Decision rule: the attack MLP trained on the shadow features."""

    def fit(x: np.ndarray, y: np.ndarray):
        return functools.partial(classify, fit_mlp_classifier(x, y, cfg, seed))

    return fit


# ---------------------------------------------------------------------------
# Embed-MIA: raw output embeddings as features


def embed_mia(shadow_model: VictimModel, shadow_graphs: tuple[Graph, Graph],
              target_model: VictimModel, query_graphs, query_nodes,
              cfg: ExperimentConfig, seed: int) -> list[Scores]:
    def extract(model, graph, nodes, role):
        return nodes, embed(model, graph)[np.array(nodes, dtype=np.int64)]

    return _shadow_attack(
        extract, _fit_mlp(cfg, derive_seed(seed, "embed-mia")),
        shadow_model, shadow_graphs, target_model, query_graphs, query_nodes,
    )


# ---------------------------------------------------------------------------
# Grad-MIA: gradient of the node's SSL loss w.r.t. its input feature row


def input_gradient_features(
    model: VictimModel, graph: Graph, nodes, seed: int
) -> np.ndarray:
    """Each node's gradient of its own SSL loss with respect to its own
    feature row, one row per node of the ascending ``nodes``; every node's
    references come from one stream, ``substream(seed, "grad-feature")``.
    The nodes run in :func:`victim.loss_chunks` at the shared parameters,
    each reading its own row of its chunk's feature gradient."""
    rows = []
    for terms in loss_chunks(model, graph, nodes, substream(seed, "grad-feature")):
        _, _, dx = terms.evaluate(model, want_feature_grad=True)
        feats = dx[terms.node_rows]
        bad = ~np.all(np.isfinite(feats), axis=1)
        if bad.any():
            raise NumericError(f"non-finite input gradient at node {terms.nodes[np.argmax(bad)]}")
        rows.append(feats)
    return np.concatenate(rows)


def grad_mia(shadow_model: VictimModel, shadow_graphs: tuple[Graph, Graph],
             target_model: VictimModel, query_graphs, query_nodes,
             cfg: ExperimentConfig, seed: int) -> list[Scores]:
    def extract(model, graph, nodes, role):
        return nodes, input_gradient_features(model, graph, nodes, derive_seed(seed, "grad-mia"))

    return _shadow_attack(
        extract, _fit_mlp(cfg, derive_seed(seed, "grad-mia")),
        shadow_model, shadow_graphs, target_model, query_graphs, query_nodes,
    )


# ---------------------------------------------------------------------------
# NLO-MIA / GLO-MIA: robustness under structural perturbation


def perturbed_views(graph: Graph, seed: int) -> list[Graph]:
    """The ``K_PERTURB`` perturbed copies both robustness baselines share,
    each making ``EDGE_FRACTION`` of the edge count in edge edits."""
    return [
        perturb_edges(graph, EDGE_FRACTION, derive_seed(seed, "perturb-view", i))
        for i in range(K_PERTURB)
    ]


def pairwise_similarity_features(model: VictimModel, graph: Graph, nodes, seed: int) -> np.ndarray:
    """C(k, 2) pairwise cosine similarities of each node across the k =
    ``K_PERTURB`` perturbed views."""
    idx = np.fromiter((int(v) for v in nodes), dtype=np.int64)
    embs = [embed(model, g)[idx] for g in perturbed_views(graph, seed)]
    cols = [cosine_rows(a, b) for a, b in itertools.combinations(embs, 2)]
    return np.stack(cols, axis=1)


def _view_similarities(seed: int):
    """Extractor of the pairwise view similarities under ``seed``."""

    def extract(model, graph, nodes, role):
        return nodes, pairwise_similarity_features(
            model, graph, nodes, derive_seed(seed, "nlo-views"))

    return extract


def nlo_mia(shadow_model: VictimModel, shadow_graphs: tuple[Graph, Graph],
            target_model: VictimModel, query_graphs, query_nodes,
            cfg: ExperimentConfig, seed: int) -> list[Scores]:
    return _shadow_attack(
        _view_similarities(seed), _fit_mlp(cfg, derive_seed(seed, "nlo-mia")),
        shadow_model, shadow_graphs, target_model, query_graphs, query_nodes,
    )


def best_threshold(scores: np.ndarray, labels: np.ndarray) -> float:
    """Grid search over observed scores for the accuracy-maximizing
    member-iff-score>=threshold rule; ties pick the smallest threshold, and
    no scores give ``inf``.  At threshold t the rule is right on the
    members scoring at least t and the non-members scoring below it."""
    if len(scores) == 0:
        return float("inf")
    grid = np.unique(scores)
    members = np.sort(scores[labels == 1])
    others = np.sort(scores[labels != 1])
    correct = len(members) - np.searchsorted(members, grid) + np.searchsorted(others, grid)
    return float(grid[np.argmax(correct)])


def _fit_threshold(x: np.ndarray, y: np.ndarray):
    """Decision rule: member iff the single feature reaches the shadow's
    best threshold; the feature itself is the score."""
    threshold = best_threshold(x[:, 0], y)
    return lambda q: ((q[:, 0] >= threshold).astype(np.int64), q[:, 0])


def glo_mia(shadow_model: VictimModel, shadow_graphs: tuple[Graph, Graph],
            target_model: VictimModel, query_graphs, query_nodes,
            cfg: ExperimentConfig, seed: int) -> list[Scores]:
    """The perturbation procedure of NLO-MIA under this call's own seed,
    but thresholding the mean similarity."""
    views = _view_similarities(seed)

    def extract(model, graph, nodes, role):
        kept, feats = views(model, graph, nodes, role)
        return kept, feats.mean(axis=1, keepdims=True)

    return _shadow_attack(
        extract, _fit_threshold,
        shadow_model, shadow_graphs, target_model, query_graphs, query_nodes,
    )


# ---------------------------------------------------------------------------
# GE-MIA: nearest reference centroid under cosine distance


def ge_references(member_graph: Graph, nonmember_graph: Graph,
                  seed: int) -> tuple[list[int], list[int]]:
    """GE-MIA's member and non-member reference nodes: up to
    ``GE_REFERENCES`` of each graph's nodes, drawn without replacement from
    one stream, member side first, each list sorted."""
    rng = substream(seed, "ge-refs")
    return tuple(
        sorted(int(v) for v in rng.choice(g.num_nodes, min(GE_REFERENCES, g.num_nodes), replace=False))
        for g in (member_graph, nonmember_graph)
    )


def ge_mia(target_model: VictimModel, member_graph: Graph, member_refs,
           nonmember_graph: Graph, nonmember_refs, query_graphs, query_nodes) -> list[Scores]:
    """Predict by the nearer of the member/non-member reference centroids;
    exactly equidistant queries go to non-member.  The score is the cosine
    margin toward the member centroid.  One ``Scores`` per (query graph,
    query nodes) pair, in order, every queried node kept."""
    embeddings: dict[int, np.ndarray] = {}

    def embedded(graph: Graph) -> np.ndarray:
        # graphs are immutable, so one embedding per graph object serves
        # both the reference and the query uses
        if id(graph) not in embeddings:
            embeddings[id(graph)] = embed(target_model, graph)
        return embeddings[id(graph)]

    def centroid(graph: Graph, refs) -> np.ndarray:
        return embedded(graph)[np.fromiter((int(v) for v in refs), dtype=np.int64)].mean(axis=0)

    c_mem = centroid(member_graph, member_refs)
    c_non = centroid(nonmember_graph, nonmember_refs)
    sides = []
    for graph, nodes in zip(query_graphs, query_nodes, strict=True):
        order = np.array(sorted(int(v) for v in nodes), dtype=np.int64)
        hq = embedded(graph)[order]
        sim_mem = cosine_rows(hq, np.broadcast_to(c_mem, hq.shape))
        sim_non = cosine_rows(hq, np.broadcast_to(c_non, hq.shape))
        margin = sim_mem - sim_non  # cosine distance difference, sign-flipped
        sides.append(Scores(order, (margin > 0).astype(np.int64), margin, len(order)))
    return sides


# ---------------------------------------------------------------------------
# GPIA: per-node fine-tuning parameter change


def parameter_change_features(
    model: VictimModel, graph: Graph, nodes, seed: int
) -> tuple[list[int], np.ndarray]:
    """Per-layer L2 norms of the parameter change after fine-tuning a fresh
    copy of the model on each node's own SSL loss for ``GPIA_EPOCHS`` Adam
    steps at ``GPIA_LR``.  Every epoch of a node runs on one L-hop ball that
    covers all its epochs' samples.  All draws come from one stream,
    ``substream(seed, "gpia")``, a node's epochs drawn together when it
    joins its chunk, over the ascending ``nodes``; so a node that diverges
    leaves every later node's draws as they were.

    The nodes run in :func:`victim.loss_chunks`: a chunk's fine-tunes run
    in lockstep, one row each of a (B, P) parameter block, through one
    ``minimize``.  A node whose loss or encoder output turns non-finite
    leaves its chunk before that epoch's step and is left out; the others
    run on as if it were not there.  Returns the surviving nodes, in
    order, and their feature rows."""
    rng = substream(seed, "gpia")
    kept: list[int] = []
    rows: list[np.ndarray] = []
    base = model.params
    for terms in loss_chunks(model, graph, nodes, rng, draws=GPIA_EPOCHS):
        count = len(terms.nodes)
        block = ParamSet.over(np.repeat(base.vector[None, :], count, axis=0), base.layout)
        tuned = VictimModel(block, model.objective)
        history = minimize(block, GPIA_LR, GPIA_EPOCHS,
                           lambda e: terms.evaluate(tuned, e)[:2],
                           "per-node fine-tune", lambda e: f"epoch {e}")
        running = ~np.isnan(history[-1]) if history else np.ones(count, dtype=bool)
        for b in np.flatnonzero(running):
            kept.append(terms.nodes[b])
            rows.append(np.array([
                np.linalg.norm(block.tensors[k][b] - base.tensors[k]) for k in base.names
            ]))
    return kept, np.stack(rows) if rows else np.zeros((0, len(base.names)))


def gpia(shadow_model: VictimModel, shadow_graphs: tuple[Graph, Graph],
         target_model: VictimModel, query_graphs, query_nodes,
         cfg: ExperimentConfig, seed: int) -> list[Scores]:
    def extract(model, graph, nodes, role):
        return parameter_change_features(model, graph, nodes, derive_seed(seed, f"gpia-{role}"))

    return _shadow_attack(
        extract, _fit_mlp(cfg, derive_seed(seed, "gpia")),
        shadow_model, shadow_graphs, target_model, query_graphs, query_nodes,
    )
