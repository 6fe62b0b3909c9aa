"""Multi-domain self-supervised pre-training and the victim model.

The victim is deliberately simplified: one linear projector per domain
mapping raw features into a shared space, followed by a shared GCN
encoder, trained with either a contrastive (InfoNCE over augmented views)
or a link-prediction objective.  It exposes exactly the surfaces the
attack pipeline needs: embed, fine-tune, and per-node loss terms.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from .graph import BallStack, Graph, rank_to_id
from .nn import (
    BlockOperator,
    GCNEncoder,
    NumericError,
    ParamSet,
    ShapeError,
    bce_with_logits,
    block_gram,
    block_matmul,
    glorot,
    grouped_bce,
    info_nce,
    info_nce_rows,
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
        aggregation operator ``a_hat`` (a graph's), or at the loss rows of
        a :class:`BlockOperator` of node balls, whose projector runs only at
        the rows its encoder reads.  A block model (its params a (B, P)
        block) runs block b on row b of its parameters."""
        if domain_id not in self.projectors:
            raise MissingProjectorError(f"no projector for domain {domain_id}")
        w = self.projectors[domain_id]
        if x.shape[1] != w.shape[-2]:
            raise ShapeError(
                f"domain {domain_id} features have dim {x.shape[1]}, projector expects {w.shape[-2]}"
            )
        op = BlockOperator.of(a_hat)
        if op.rows:
            x = x[op.rows[0]]
        h, layers = self.encoder.forward(op, block_matmul(x, w, op.bounds_at(0)))
        return h, ForwardCache(a_hat=op, x=x, layers=layers, domain_id=domain_id)

    def backward(
        self, cache: ForwardCache, d_out: np.ndarray, want_feature_grad: bool = False,
        out: ParamSet | None = None,
    ) -> tuple[ParamSet, np.ndarray | None]:
        """Parameter gradients (aligned with ``self.params``) for upstream
        d_out, added into ``out`` when it is given, and optionally the
        gradient with respect to ``x``.  Under a :class:`BlockOperator` the
        parameter gradients are a (B, P) block, one row per block, and the
        feature gradient has a row for every stacked row."""
        op = cache.a_hat
        layer_grads, dh0 = self.encoder.backward(op, cache.layers, d_out)
        grads = out
        if grads is None:
            lead = self.params.vector.shape[:-1] if op.bounds is None else (op.blocks,)
            grads = ParamSet.over(np.zeros((*lead, self.params.vector.shape[-1])), self.params.layout)
        w = self.projectors[cache.domain_id]
        grads.tensors[f"proj.{cache.domain_id}"] += block_gram(cache.x, dh0, op.bounds_at(0))
        for i, g in enumerate(layer_grads):
            grads.tensors[f"gcn.{i}"] += g
        if not want_feature_grad:
            return grads, None
        dx = block_matmul(dh0, w.swapaxes(-1, -2), op.bounds_at(0))
        if op.rows:
            spread = np.zeros((op.full.shape[0], dx.shape[1]))
            spread[op.rows[0]] = dx
            dx = spread
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


def augment_graph(graph: Graph, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A stochastic view as its two masks, from ``substream(seed, "augment")``:
    a kept bit per row of ``edge_array`` (each dropped at ``EDGE_DROP_RATE``)
    and a masked bit per feature column (at ``FEATURE_MASK_RATE``)."""
    return _augment_draws(graph, substream(seed, "augment"))


def view_seed(seed: int, view_index: int) -> int:
    """Augmentation seed of the shared view ``view_index`` under ``seed``."""
    return derive_seed(seed, "view", view_index)


def view_stack(graph: Graph, keep_edges: np.ndarray, drop_cols: np.ndarray
               ) -> tuple[np.ndarray, BlockOperator]:
    """The graph and its views as the blocks of one operator over every node:
    block 0 the graph, block p + 1 the view of mask row p (stacked
    :func:`augment_graph` masks), as :meth:`graph.BallStack.views` builds
    them: the stacked features and the block-diagonal Â."""
    stack = BallStack.of(graph, [np.arange(graph.num_nodes, dtype=np.int64)] * (len(keep_edges) + 1))
    x, a_hat = stack.views(np.vstack([np.ones(graph.num_edges, dtype=bool), keep_edges]),
                           np.vstack([np.zeros(graph.feature_dim, dtype=bool), drop_cols]))
    return x, BlockOperator(a_hat, stack.bounds)


def view_cosines(model: VictimModel, graph: Graph, x: np.ndarray, a_hat: BlockOperator,
                 anchors, refs: np.ndarray):
    """One encoder pass over the :func:`view_stack` ``(x, a_hat)`` of
    ``graph``: the :func:`nn.ref_cosines` of the anchors to ``refs``, column
    p reading view p for each view, and the map from their upstream
    gradient to the parameter gradients: one backward pass, its block rows
    summed in block order (numpy sums across rows one row at a time)."""
    n = graph.num_nodes
    h, cache = model._forward(x, a_hat, graph.domain_id)
    s, pullback = ref_cosines(h, anchors, refs, range(n, len(h), max(n, 1)))

    def backward(upstream: np.ndarray) -> ParamSet:
        grads, _ = model.backward(cache, pullback(upstream))
        return ParamSet.over(grads.vector.sum(axis=0), grads.layout)

    return s, backward


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


def _pair_pullback(h: np.ndarray, us, vs, dscores) -> np.ndarray:
    """The gradient w.r.t. ``h`` of scores h_u . h_v over the pairs (us, vs)
    with upstream ``dscores``: one pair-operator product with the bits of
    ``np.add.at(dh, us, dscores * h[vs])`` followed by
    ``np.add.at(dh, vs, dscores * h[us])`` (see :func:`scatter_matrix`)."""
    pair_op = scatter_matrix(np.concatenate([us, vs]), np.concatenate([vs, us]),
                             np.concatenate([dscores, dscores]), (len(h), len(h)))
    return pair_op @ h


def _pair_bce(h: np.ndarray, us, vs, labels) -> tuple[float, np.ndarray]:
    """BCE on sigmoid(h_u . h_v) over the pairs (us, vs); gradient w.r.t. h."""
    loss, dscores = bce_with_logits(np.einsum("ij,ij->i", h[us], h[vs]), labels)
    return loss, _pair_pullback(h, us, vs, dscores)


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
    """InfoNCE: every node against itself in one augmented view and K uniform
    in-graph negatives, the graph and its view one :func:`view_cosines` pass."""
    n = graph.num_nodes
    if n < 2:
        raise NoNegativeError(f"contrastive graph on {n} node(s) has no negative")
    obj = model.objective
    keep_edges, drop_cols = augment_graph(graph, derive_seed(seed, "loss-view"))
    stack = view_stack(graph, keep_edges[None], drop_cols[None])

    # anchor a's r-th non-self node v is the rank a * (n - 1) + r over the
    # pairs (a, v), a != v, mapped past the self-pair keys to the key a * n + v
    rng = substream(seed, "contrastive-negatives")
    raw = rng.integers(0, n - 1, size=(n, obj.negatives_per_positive))
    anchors = np.arange(n)
    negatives = rank_to_id(anchors * (n + 1), anchors[:, None] * (n - 1) + raw) % n
    s, backward = view_cosines(model, graph, *stack, anchors, np.column_stack([anchors, negatives]))
    loss, dpos, dneg = info_nce(s[:, 0], s[:, 1:], obj.temperature)
    return loss, backward(np.column_stack([dpos, dneg]))


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


@dataclass(frozen=True)
class NodeDraws:
    """A node's reference draws, taken together, and the L-hop ball that
    covers the node and the references of every draw.  Link-prediction
    nodes that are isolated or adjacent to every other node (no positive
    or no negative) draw nothing, and their ball is the node alone."""

    node: int
    draws: list
    ball: np.ndarray

    @classmethod
    def draw(cls, graph: Graph, objective: SSLObjective, hops: int, node: int,
             rng: np.random.Generator, draws: int = 1) -> "NodeDraws":
        node = int(node)
        degree = len(graph.neighbors(node))
        if objective.kind == LINK_PREDICTION and degree in (0, graph.num_nodes - 1):
            return cls(node, [], np.array([node], dtype=np.int64))
        taken = [_draw_node_refs(graph, objective, node, rng) for _ in range(draws)]
        return cls(node, taken, node_ball(graph, np.concatenate([[node], *(d[0] for d in taken)]), hops))


# working-set budget of one chunk of per-node terms, in bytes
CHUNK_BYTES = 3 * 2**20


def loss_chunks(model: VictimModel, graph: Graph, nodes, rng: np.random.Generator,
                draws: int = 1):
    """The :class:`NodeLoss` chunks of ``nodes``, in the given order.

    Each node takes all its draws from ``rng`` when it joins a chunk, so
    the draws follow the node order whatever the chunk bounds.  A chunk
    takes nodes while its working set stays within ``CHUNK_BYTES``: per
    node, five parameter-sized arrays (a per-node fine-tune's parameters,
    its two Adam moments and scratch, the gradients) plus, per ball row,
    its features and six activations of the embedding width (under the
    contrastive objective, the view's copy of the row adds its features
    and two more); a node that alone exceeds the budget is a chunk of one.
    """
    hops = model.encoder.num_layers
    chunk, used = [], 0
    for node in nodes:
        term = NodeDraws.draw(graph, model.objective, hops, node, rng, draws)
        cost = _term_bytes(model, graph, len(term.ball))
        if chunk and used + cost > CHUNK_BYTES:
            yield NodeLoss(graph, model.objective, chunk)
            chunk, used = [], 0
        chunk.append(term)
        used += cost
    if chunk:
        yield NodeLoss(graph, model.objective, chunk)


def _term_bytes(model: VictimModel, graph: Graph, ball_size: int) -> int:
    """A node's share of its chunk's working set (see :func:`loss_chunks`)."""
    features, width = graph.feature_dim, model.encoder.output_dim
    per_row = features + 6 * width
    if model.objective.kind == CONTRASTIVE:
        per_row += features + 2 * width
    return 8 * (5 * model.params.vector.shape[-1] + per_row * ball_size)


class NodeLoss:
    """The SSL loss terms of a chunk of B nodes, each on its own ball: the
    balls are stacked into one block-diagonal operator (a
    :class:`graph.BallStack`), so a chunk runs the projector, the encoder
    and its backward pass once for all its nodes.

    ``evaluate(model, draw)`` gives every node's loss under its draw
    ``draw``, with the parameter gradients of each node's own loss.  Each
    layer runs only at the rows its output feeds: the last at each block's
    loss rows, the node and its distinct references, and every earlier
    layer one hop further out (:meth:`nn.BlockOperator.at_rows`); the loss
    scatters its gradient with one ``scatter_matrix``.  Under the
    contrastive objective a node's block holds its ball twice, in the
    graph and in the draw's view, so both passes run as one; the view
    blocks of the whole chunk are built by one :meth:`graph.BallStack.views`
    call on the draws' masks, the one builder of every augmented view,
    when the draw is evaluated, and not kept.

    Every draw was taken when the node's :class:`NodeDraws` was, before
    any model runs: a per-node fine-tune runs every epoch on the same
    slice of the graph, and what a stage draws for its next node does not
    depend on how this chunk's model runs end.  A node that draws nothing
    contributes zero loss and zero gradients.
    """

    def __init__(self, graph: Graph, objective: SSLObjective, terms: list[NodeDraws]) -> None:
        self.graph = graph
        self.objective = objective
        self.terms = terms
        self.nodes = [t.node for t in terms]
        # stacked blocks: each node's ball, then (contrastive) its view's
        copies = 1 if objective.kind == LINK_PREDICTION else 2
        self.stack = BallStack.of(graph, [t.ball for t in terms for _ in range(copies)])
        self.bounds = self.stack.bounds[::copies]
        self.owner = self.stack.blocks // copies
        first = np.flatnonzero(self.stack.blocks % copies == 0)
        # each node's ball (its first copy): its ids, their nodes and the node's own row
        self.ids = self.stack.ids[first]
        self.ball_owner = self.owner[first]
        self.node_rows = np.searchsorted(
            first, self.stack.rows_of(np.arange(len(terms)) * copies, np.array(self.nodes)))
        self.a_hat = self.stack.matrix() if copies == 1 else None
        self.empty = np.array([not t.draws for t in terms])
        self._grads = None

    def evaluate(self, model: VictimModel, draw: int = 0, want_feature_grad: bool = False
                 ) -> tuple[np.ndarray, ParamSet, np.ndarray | None]:
        """Each node's loss (B,), the (B, P) block of their parameter
        gradients (overwritten by the next evaluation) and, optionally, the
        gradient with respect to the feature rows of each node's ball,
        ``ids``; every other row's is zero.

        ``model`` is shared by every node, or a block model with one
        parameter row per node.  Shared, a non-finite loss raises
        :class:`NumericError`.  Per node, each node is its own problem: a
        node whose loss or encoder output is not finite reads a NaN loss,
        and the rest of the chunk is computed as if it were not there,
        with no floating-point warning."""
        per_node = model.params.vector.ndim == 2
        if self._grads is None:
            self._grads = np.zeros((len(self.nodes), model.params.vector.shape[-1]))
        else:
            self._grads.fill(0.0)
        grads = ParamSet.over(self._grads, model.params.layout)
        with np.errstate(all="ignore") if per_node else contextlib.nullcontext():
            if self.objective.kind == LINK_PREDICTION:
                losses, dx = self._link_prediction(model, draw, want_feature_grad, grads)
            else:
                losses, dx = self._contrastive(model, draw, want_feature_grad, grads)
        if not per_node and not np.all(np.isfinite(losses)):
            raise NumericError(f"non-finite loss at node {self.nodes[np.argmax(~np.isfinite(losses))]}")
        grads.vector[self.empty] = 0.0
        if want_feature_grad:
            dx[self.empty[self.ball_owner]] = 0.0
        return losses, grads, dx

    def _embed(self, model: VictimModel, x: np.ndarray, a_hat, loss_rows: np.ndarray):
        """Embeddings at the sorted stacked ``loss_rows``, with per-node
        NaN losses marked where a node's rows are not finite."""
        op = BlockOperator.at_rows(a_hat, self.bounds, loss_rows, model.encoder.num_layers)
        h, cache = model._forward(x, op, self.graph.domain_id)
        bad = self.owner[loss_rows[~np.all(np.isfinite(h), axis=1)]]
        return h, cache, np.bincount(bad, minlength=len(self.nodes)) > 0

    def _link_prediction(self, model, draw, want_feature_grad, grads):
        refs = [t.draws[draw] for t in self.terms if t.draws]
        blocks = np.flatnonzero(~self.empty)
        groups = np.repeat(blocks, [len(others) for others, _ in refs])
        others = self.stack.rows_of(groups, np.concatenate([np.zeros(0, np.int64), *(o for o, _ in refs)]))
        labels = np.concatenate([np.zeros(0), *(l for _, l in refs)])
        anchors = self.node_rows[groups]
        rows = np.union1d(self.node_rows[blocks], others)
        h, cache, bad = self._embed(model, self.stack.features, self.a_hat, rows)
        us, vs = np.searchsorted(rows, anchors), np.searchsorted(rows, others)
        losses, dscores = grouped_bce(np.einsum("ij,ij->i", h[us], h[vs]), labels, groups,
                                      len(self.nodes))
        losses[bad] = np.nan
        _, dx = model.backward(cache, _pair_pullback(h, us, vs, dscores), want_feature_grad, grads)
        return losses, dx

    def _contrastive(self, model, draw, want_feature_grad, grads):
        count = len(self.nodes)
        negatives = np.stack([t.draws[draw][0] for t in self.terms])
        keep_edges, drop_cols = (np.stack(d) for d in zip(*(t.draws[draw][1] for t in self.terms)))
        # even blocks are the graph (every edge kept, no column masked),
        # odd blocks the view; each view's neighbourhoods lie inside the
        # graph's, so the ball serves both
        keep, drop = np.repeat(keep_edges, 2, axis=0), np.repeat(drop_cols, 2, axis=0)
        keep[::2], drop[::2] = True, False
        nodes = np.array(self.nodes, dtype=np.int64)
        anchors = self.stack.rows_of(2 * np.arange(count), nodes)
        views = self.stack.rows_of(2 * np.arange(count) + 1, nodes)
        negs = self.stack.rows_of(2 * np.arange(count)[:, None], negatives)
        rows = np.union1d(np.concatenate([anchors, views]), negs)
        h, cache, bad = self._embed(model, *self.stack.views(keep, drop), rows)
        # the first reference of node b is its own view row, read in h too
        refs = np.column_stack([np.searchsorted(rows, views), np.searchsorted(rows, negs)])
        s, pullback = ref_cosines(h, np.searchsorted(rows, anchors), refs, [0])
        losses, dpos, dneg = info_nce_rows(s[:, 0], s[:, 1:], self.objective.temperature)
        losses[bad] = np.nan
        _, dx = model.backward(cache, pullback(np.column_stack([dpos, dneg])), want_feature_grad, grads)
        if want_feature_grad:
            # masked columns of the view contribute nothing to the raw-feature grad
            graph_rows = self.stack.blocks % 2 == 0
            dx = dx[graph_rows] + dx[~graph_rows] * ~drop_cols[self.owner[graph_rows]]
        return losses, dx


def per_node_ssl_loss(
    model: VictimModel, graph: Graph, node: int, rng: np.random.Generator
) -> tuple[float, ParamSet]:
    """One node's contribution to the SSL loss, with parameter gradients,
    its references drawn from ``rng``.

    Link prediction: the node's incident edges plus the same number of
    random non-edges from it.  Contrastive: the node's anchor term against
    one augmented view and K negatives.  Computed exactly on the node's
    L-hop ball, as a :class:`NodeLoss` chunk of one, so the cost is
    O(ball), not O(graph).
    """
    terms = NodeLoss(graph, model.objective,
                     [NodeDraws.draw(graph, model.objective, model.encoder.num_layers, node, rng)])
    losses, grads, _ = terms.evaluate(model)
    return float(losses[0]), ParamSet.over(grads.vector[0], grads.layout)


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
