"""Multi-domain self-supervised pre-training and the victim model.

The victim is deliberately simplified: one linear projector per domain
mapping raw features into a shared space, followed by a shared GCN
encoder, trained with either a contrastive (InfoNCE over augmented views)
or a link-prediction objective.  It exposes exactly the surfaces the
attack pipeline needs: embed, fine-tune, and per-node loss terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, _csr_slice, ball_matrix, rank_to_id
from .nn import (
    GCNEncoder,
    ParamSet,
    ShapeError,
    bce_with_logits,
    glorot,
    info_nce,
    minimize,
    ref_cosines,
    scatter_matrix,
)
from .rng import derive_seed, substream

CONTRASTIVE = "contrastive"
LINK_PREDICTION = "link_prediction"

# Augmented views drop each edge and mask each feature column with these
# probabilities.  Read at call time.
EDGE_DROP_RATE = 0.2
FEATURE_MASK_RATE = 0.2


class MissingProjectorError(KeyError):
    pass


class NoPositiveError(ValueError):
    """A link-prediction positive was requested where no node has an edge."""


class NoNegativeError(ValueError):
    """A negative was requested where every candidate is excluded: a node
    adjacent to every other node, a graph without a non-edge, or a
    contrastive graph of fewer than two nodes."""


@dataclass(frozen=True)
class SSLObjective:
    kind: str
    temperature: float = 0.5
    negatives_per_positive: int = 5

    def __post_init__(self) -> None:
        if self.kind not in (CONTRASTIVE, LINK_PREDICTION):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.negatives_per_positive < 1:
            raise ValueError("need at least one negative per positive")


@dataclass
class TrainConfig:
    epochs: int
    lr: float
    layers: int
    emb_dim: int


@dataclass
class ForwardCache:
    a_hat: object
    x: np.ndarray
    layers: list
    domain_id: int


@dataclass
class VictimModel:
    """Per-domain projectors plus a shared GCN encoder.

    ``params`` holds ``proj.<d>`` by ascending domain id, then ``gcn.<i>``;
    ``projectors`` and ``encoder.weights`` are views into it.
    """

    params: ParamSet
    objective: SSLObjective
    trained_epochs: int = 0
    projectors: dict[int, np.ndarray] = field(init=False, repr=False)
    encoder: GCNEncoder = field(init=False, repr=False)

    def __post_init__(self) -> None:
        tensors = self.params.tensors
        self.projectors = {int(k[5:]): w for k, w in tensors.items() if k.startswith("proj.")}
        self.encoder = GCNEncoder([w for k, w in tensors.items() if k.startswith("gcn.")])

    @classmethod
    def init(
        cls,
        domain_dims: dict[int, int],
        objective: SSLObjective,
        layers: int,
        emb_dim: int,
        seed: int,
    ) -> "VictimModel":
        if not domain_dims:
            raise ValueError("need at least one domain")
        tensors = {
            f"proj.{d}": glorot(dim, emb_dim, substream(seed, "proj-init", d))
            for d, dim in sorted(domain_dims.items())
        }
        dims = [emb_dim] * (layers + 1)
        tensors.update(GCNEncoder.init(dims, seed=derive_seed(seed, "encoder-init")).param_items())
        return cls(ParamSet(tensors), objective)

    def copy(self) -> "VictimModel":
        return VictimModel(self.params.copy(), self.objective, self.trained_epochs)

    def forward(self, graph: Graph) -> tuple[np.ndarray, ForwardCache]:
        """Embeddings of ``graph`` under its own domain's projector."""
        return self._forward(graph.features, graph.gcn_matrix, graph.domain_id)

    def _forward(self, x: np.ndarray, a_hat, domain_id: int) -> tuple[np.ndarray, ForwardCache]:
        """Embeddings of the feature rows ``x`` under the symmetric
        aggregation operator ``a_hat`` (a graph's, or a node ball's)."""
        if domain_id not in self.projectors:
            raise MissingProjectorError(f"no projector for domain {domain_id}")
        w = self.projectors[domain_id]
        if x.shape[1] != w.shape[0]:
            raise ShapeError(
                f"domain {domain_id} features have dim {x.shape[1]}, projector expects {w.shape[0]}"
            )
        h, layers = self.encoder.forward(a_hat, x @ w)
        return h, ForwardCache(a_hat=a_hat, x=x, layers=layers, domain_id=domain_id)

    def backward(
        self, cache: ForwardCache, d_out: np.ndarray, want_feature_grad: bool = False
    ) -> tuple[ParamSet, np.ndarray | None]:
        """Parameter gradients (aligned with ``self.params``) for upstream d_out."""
        layer_grads, dh0 = self.encoder.backward(cache.a_hat, cache.layers, d_out)
        grads = self.params.zeros_like()
        grads.tensors[f"proj.{cache.domain_id}"] += cache.x.T @ dh0
        for i, g in enumerate(layer_grads):
            grads.tensors[f"gcn.{i}"] += g
        dx = dh0 @ self.projectors[cache.domain_id].T if want_feature_grad else None
        return grads, dx


def embed(model: VictimModel, graph: Graph) -> np.ndarray:
    """Node embeddings of ``graph`` under ``model`` (pure, no caching)."""
    h, _ = model.forward(graph)
    return h


# ---------------------------------------------------------------------------
# augmentation and negative sampling


def _augment_draws(graph: Graph, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A view's kept edges and masked feature columns, drawn from ``rng``."""
    keep_edges = rng.random(graph.num_edges) >= EDGE_DROP_RATE
    drop_cols = rng.random(graph.feature_dim) < FEATURE_MASK_RATE
    return keep_edges, drop_cols


def augment_graph(graph: Graph, seed: int) -> Graph:
    """Stochastic view: edge dropout plus feature-column masking at
    ``EDGE_DROP_RATE`` and ``FEATURE_MASK_RATE``."""
    keep_edges, drop_cols = _augment_draws(graph, substream(seed, "augment"))
    masked = graph.features.copy()
    masked[:, drop_cols] = 0.0
    return _csr_slice(graph, keep_edges[graph.entry_edges], masked)


def view_seed(seed: int, view_index: int) -> int:
    """Augmentation seed of the shared view ``view_index`` under ``seed``."""
    return derive_seed(seed, "view", view_index)


def _closed_row(graph: Graph, node: int) -> np.ndarray:
    """Sorted ids of ``node`` and its neighbours: row ``node`` of the
    pattern of Â, which is A + I."""
    a_hat = graph.gcn_matrix
    return a_hat.indices[a_hat.indptr[node]:a_hat.indptr[node + 1]]


def _sample_outside(rng: np.random.Generator, n: int, excluded: np.ndarray, count: int) -> np.ndarray:
    """``count`` uniform ids in [0, n) outside the sorted ``excluded``:
    distinct, unless fewer than ``count`` are eligible."""
    pool = n - len(excluded)
    if pool <= 0:
        raise NoNegativeError("no eligible nodes to sample")
    return rank_to_id(excluded, rng.choice(pool, size=count, replace=pool < count))


# ---------------------------------------------------------------------------
# self-supervised losses with parameter gradients


def _sample_negative_pairs(
    graph: Graph, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` uniform ordered non-edges (u, v), u != v, with replacement.

    A pair is its key u * n + v, and the pattern of Â (A + I) holds the
    keys of every edge and self-pair, sorted.  One uniform rank over the
    ordered non-edges, mapped past those keys, is the key of a non-edge.
    """
    n = graph.num_nodes
    a_hat = graph.gcn_matrix
    excluded = np.repeat(np.arange(n, dtype=np.int64), np.diff(a_hat.indptr)) * n + a_hat.indices
    pool = n * n - len(excluded)
    if pool == 0:
        raise NoNegativeError(f"complete graph on {n} nodes has no non-edge")
    return np.divmod(rank_to_id(excluded, rng.integers(pool, size=count)), n)


def _pair_bce(h: np.ndarray, us, vs, labels) -> tuple[float, np.ndarray]:
    """BCE on sigmoid(h_u . h_v) over the pairs (us, vs); gradient w.r.t. h.

    The gradient is one pair-operator product with the bits of
    ``np.add.at(dh, us, dscores * h[vs])`` followed by
    ``np.add.at(dh, vs, dscores * h[us])`` (see :func:`scatter_matrix`).
    """
    scores = np.einsum("ij,ij->i", h[us], h[vs])
    loss, dscores = bce_with_logits(scores, labels)
    pair_op = scatter_matrix(np.concatenate([us, vs]), np.concatenate([vs, us]),
                             np.concatenate([dscores, dscores]), (len(h), len(h)))
    return loss, pair_op @ h


def _view_info_nce(h: np.ndarray, hv: np.ndarray, anchors, negatives, temperature: float):
    """InfoNCE of each anchor against itself in the view ``hv`` and its row
    of ``negatives`` in ``h``: the one-view plan row [anchor | negatives].
    Returns the loss and its gradients w.r.t. ``h`` and ``hv``."""
    refs = np.concatenate([anchors[:, None], negatives], axis=1)
    s, pullback = ref_cosines(h, [hv], anchors, refs)
    loss, dpos, dneg = info_nce(s[:, 0], s[:, 1:], temperature)
    dh, (dhv,) = pullback(np.column_stack([dpos, dneg]))
    return loss, dh, dhv


def linkpred_loss(model: VictimModel, graph: Graph, seed: int) -> tuple[float, ParamSet]:
    """BCE on sigmoid(h_u . h_v) over all edges plus matched random non-edges.
    A graph without an edge or without a non-edge has zero loss and zero
    gradients, as a node adjacent to none or to every other has in NodeLoss."""
    edges, n = graph.edge_array, graph.num_nodes
    if len(edges) in (0, n * (n - 1) // 2):
        return 0.0, model.params.zeros_like()
    rng = substream(seed, "linkpred-negatives")
    neg_u, neg_v = _sample_negative_pairs(graph, len(edges), rng)
    us = np.concatenate([edges[:, 0], neg_u])
    vs = np.concatenate([edges[:, 1], neg_v])
    labels = np.concatenate([np.ones(len(edges)), np.zeros(len(edges))])

    h, cache = model.forward(graph)
    loss, dh = _pair_bce(h, us, vs, labels)
    grads, _ = model.backward(cache, dh)
    return loss, grads


def contrastive_loss(model: VictimModel, graph: Graph, seed: int) -> tuple[float, ParamSet]:
    """InfoNCE: every node against itself in one augmented view and K
    uniform in-graph negatives."""
    n = graph.num_nodes
    if n < 2:
        raise NoNegativeError(f"contrastive graph on {n} node(s) has no negative")
    obj = model.objective
    view = augment_graph(graph, derive_seed(seed, "loss-view"))
    h, cache = model.forward(graph)
    hv, cache_v = model.forward(view)

    # anchor a's r-th non-self node v is the rank a * (n - 1) + r over the
    # pairs (a, v), a != v, mapped past the self-pair keys to the key a * n + v
    rng = substream(seed, "contrastive-negatives")
    raw = rng.integers(0, n - 1, size=(n, obj.negatives_per_positive))
    anchors = np.arange(n)
    negatives = rank_to_id(anchors * (n + 1), anchors[:, None] * (n - 1) + raw) % n
    loss, dh, dhv = _view_info_nce(h, hv, anchors, negatives, obj.temperature)

    grads, _ = model.backward(cache, dh)
    grads_v, _ = model.backward(cache_v, dhv)
    grads.add_(grads_v)
    return loss, grads


def ssl_loss_and_grads(model: VictimModel, graph: Graph, seed: int) -> tuple[float, ParamSet]:
    if model.objective.kind == LINK_PREDICTION:
        return linkpred_loss(model, graph, seed)
    return contrastive_loss(model, graph, seed)


# ---------------------------------------------------------------------------
# exact L-hop locality for per-node losses


def node_ball(graph: Graph, targets, hops: int) -> np.ndarray:
    """Sorted ids of the closed ``hops``-hop neighbourhood of ``targets``."""
    ball = np.unique(np.asarray(targets, dtype=np.int64))
    for _ in range(hops):
        if len(ball) == graph.num_nodes:
            break
        ball = np.union1d(ball, graph.indices[graph.row_entries(ball)])
    return ball


def _draw_node_refs(graph: Graph, objective: SSLObjective, node: int, rng: np.random.Generator):
    """One draw of a node's references from ``rng``.  Link prediction:
    (neighbours then as many non-neighbour negatives, labels).
    Contrastive: (K negatives, the ``augment_graph`` draws of the node's
    own view: kept edges and masked feature columns)."""
    if objective.kind == LINK_PREDICTION:
        nbrs = graph.neighbors(node)
        negs = _sample_outside(rng, graph.num_nodes, _closed_row(graph, node), len(nbrs))
        labels = np.concatenate([np.ones(len(nbrs)), np.zeros(len(negs))])
        return np.concatenate([nbrs, negs]), labels
    negs = _sample_outside(rng, graph.num_nodes, np.array([node]), objective.negatives_per_positive)
    return negs, _augment_draws(graph, rng)


class NodeLoss:
    """One node's SSL loss term under ``draws`` reference draws, evaluated
    on the one L-hop ball that covers the references of every draw.

    Every draw is taken from ``rng`` here, when the term is built: draws
    never depend on a model, so a per-node fine-tune runs every epoch on
    the same slice of the graph, and what a stage draws for its next node
    does not depend on how this node's model run ends.  Link-prediction
    nodes that are isolated or adjacent to every other node (no positive or
    no negative) draw nothing and contribute zero loss and zero gradients.
    """

    def __init__(self, graph: Graph, objective: SSLObjective, hops: int, node: int,
                 rng: np.random.Generator, draws: int = 1) -> None:
        self.graph = graph
        self.objective = objective
        self.node = node = int(node)
        degree = len(graph.neighbors(node))
        self.empty = objective.kind == LINK_PREDICTION and degree in (0, graph.num_nodes - 1)
        if self.empty:
            self.ball = np.array([node], dtype=np.int64)
            return
        self.draws = [_draw_node_refs(graph, objective, node, rng) for _ in range(draws)]
        self.ball = node_ball(graph, np.concatenate([[node], *(d[0] for d in self.draws)]), hops)
        self.a_hat, self.x = ball_matrix(graph, self.ball), graph.features[self.ball]

    def __call__(
        self, model: VictimModel, draw: int = 0, want_feature_grad: bool = False
    ) -> tuple[float, ParamSet, np.ndarray | None]:
        """Loss, parameter gradients and (optionally) the gradient with
        respect to the feature rows of ``self.ball``; every other row's is
        zero."""
        if self.empty:
            dx = np.zeros((1, self.graph.feature_dim)) if want_feature_grad else None
            return 0.0, model.params.zeros_like(), dx
        others, extra = self.draws[draw]
        h, cache = model._forward(self.x, self.a_hat, self.graph.domain_id)
        a = np.searchsorted(self.ball, [self.node])
        b = np.searchsorted(self.ball, others)
        if self.objective.kind == LINK_PREDICTION:
            loss, dh = _pair_bce(h, np.repeat(a, len(b)), b, extra)
            return (loss, *model.backward(cache, dh, want_feature_grad=want_feature_grad))
        keep_edges, drop_cols = extra
        # the view's neighbourhoods lie inside the graph's: the ball serves
        view = _csr_slice(self.graph, keep_edges[self.graph.entry_edges], self.graph.features)
        xv = self.x.copy()
        xv[:, drop_cols] = 0.0
        hv, cache_v = model._forward(xv, ball_matrix(view, self.ball), self.graph.domain_id)
        loss, dh, dhv = _view_info_nce(h, hv, a, b[None, :], self.objective.temperature)
        grads, dx = model.backward(cache, dh, want_feature_grad=want_feature_grad)
        grads_v, dx_v = model.backward(cache_v, dhv, want_feature_grad=want_feature_grad)
        grads.add_(grads_v)
        if want_feature_grad:
            # masked columns of the view contribute nothing to the raw-feature grad
            dx = dx + dx_v * (~drop_cols)[None, :]
        return loss, grads, dx


def per_node_ssl_loss(
    model: VictimModel, graph: Graph, node: int, rng: np.random.Generator
) -> tuple[float, ParamSet]:
    """One node's contribution to the SSL loss, with parameter gradients,
    its references drawn from ``rng``.

    Link prediction: the node's incident edges plus the same number of
    random non-edges from it.  Contrastive: the node's anchor term against
    one augmented view and K negatives.  Computed exactly on the node's
    L-hop ball (see :class:`NodeLoss`), so the cost is O(ball), not
    O(graph).
    """
    terms = NodeLoss(graph, model.objective, model.encoder.num_layers, node, rng)
    loss, grads, _ = terms(model)
    return loss, grads


# ---------------------------------------------------------------------------
# training loops


def fine_tune(
    model: VictimModel,
    graph: Graph,
    epochs: int,
    lr: float,
    seed: int,
    penalty_grads=None,
) -> tuple[VictimModel, list[float]]:
    """Plain SSL fine-tuning of a copy of ``model`` on one graph.

    ``penalty_grads``, when given, is called with the live ParamSet and must
    return (penalty_value, penalty_gradient ParamSet); used by the
    incremental shadow construction.  Returns the tuned copy and the
    per-epoch total losses.
    """
    tuned = model.copy()

    def step(epoch: int) -> tuple[float, ParamSet]:
        loss, grads = ssl_loss_and_grads(tuned, graph, derive_seed(seed, "epoch", epoch))
        if penalty_grads is not None:
            pval, pgrad = penalty_grads(tuned.params)
            loss += pval
            grads.add_(pgrad)
        return loss, grads

    history = minimize(tuned.params, lr, epochs, step, "fine-tune", lambda e: f"epoch {e}")
    tuned.trained_epochs += epochs
    return tuned, history


def pretrain_multidomain(
    member_graphs: list[Graph],
    objective: SSLObjective,
    config: TrainConfig,
    seed: int,
) -> VictimModel:
    """Jointly train projectors and the shared encoder across domains.

    Each epoch walks the domains of ``member_graphs`` in ascending
    domain-id order and applies one Adam step per domain.  Each graph is
    its domain's member-induced subgraph, so member nodes are exactly the
    pre-training data the attack later targets.  Sampling streams are
    keyed by domain id, not list position.
    """
    if not member_graphs:
        raise ValueError("need at least one domain graph")
    if len({g.domain_id for g in member_graphs}) != len(member_graphs):
        raise ValueError("domain ids must be unique")
    for g in member_graphs:
        if g.num_nodes == 0:
            raise ValueError(f"domain {g.domain_id} has an empty member graph")

    domain_dims = {g.domain_id: g.feature_dim for g in member_graphs}
    model = VictimModel.init(domain_dims, objective, config.layers, config.emb_dim,
                             seed=derive_seed(seed, "init"))
    by_domain = sorted(member_graphs, key=lambda g: g.domain_id)
    schedule = [(epoch, graph) for epoch in range(config.epochs) for graph in by_domain]

    def step(k: int) -> tuple[float, ParamSet]:
        epoch, graph = schedule[k]
        return ssl_loss_and_grads(model, graph, derive_seed(seed, "pretrain", graph.domain_id, epoch))

    minimize(model.params, config.lr, len(schedule), step, "pre-training",
             lambda k: f"epoch {schedule[k][0]}, domain {schedule[k][1].domain_id}")
    model.trained_epochs = config.epochs
    return model
