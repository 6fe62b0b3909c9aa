"""Minimal numeric engine: named parameters, GCN, MLP, losses, Adam.

Everything is float64 and every trainable operation has a hand-written
backward pass returning exact analytic gradients; there is no general
autodiff.  Forward passes cache exactly what their backward needs.

A model's parameters are one contiguous float64 vector (a ``ParamSet``);
its named matrices are views into that vector, and its gradients share
its layout.  Adam, the Fisher estimate and the EWC penalty are therefore
element-wise operations on whole vectors.

Every optimisation of the package (pre-training, the augment and shadow
fine-tunes, distillation, the attack MLP, GPIA's per-node fine-tunes) is
one call of :func:`minimize`.  Each step computes the loss and gradients,
raises :class:`NumericError` naming the stage and the step if the loss is
not finite or a kernel found a non-finite value, takes one Adam step and
appends the loss to the history.

Per-node stages stack B independent problems: a :class:`BlockOperator`
holds their aggregation operators block-diagonally, the encoder runs
them in one pass, and a (B, P) parameter block holds one problem's
parameters in each row.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np
import scipy.sparse as sp

from .rng import substream


class ShapeError(ValueError):
    pass


class NumericError(FloatingPointError):
    pass


# ---------------------------------------------------------------------------
# parameters


class ParamSet:
    """Named 2-D float64 matrices stored as one contiguous vector.

    ``layout`` is the tuple of (name, shape) in insertion order, and
    ``vector`` holds the matrices row-major in that order; ``tensors`` maps
    each name to a reshaped view into ``vector``.  ``ParamSet(dict)`` copies
    the matrices in.  A block, ``ParamSet.over`` a (B, P) array, holds B
    parameter vectors of one layout, one a row; its tensors are (B, rows,
    cols) views.
    """

    def __init__(self, tensors: dict[str, np.ndarray]) -> None:
        for name, t in tensors.items():
            if t.ndim != 2 or t.dtype != np.float64:
                raise ShapeError(f"parameter {name!r} must be a 2-D float64 matrix")
        self.layout = tuple((name, t.shape) for name, t in tensors.items())
        self.vector = np.concatenate([np.zeros(0), *(t.ravel() for t in tensors.values())])

    @classmethod
    def over(cls, vector: np.ndarray, layout: tuple) -> "ParamSet":
        """The ParamSet whose matrices are views into ``vector`` (no copy)."""
        ps = cls.__new__(cls)
        ps.vector, ps.layout = vector, layout
        return ps

    @cached_property
    def tensors(self) -> dict[str, np.ndarray]:
        lead = self.vector.shape[:-1]
        return {name: self.vector[..., lo:hi].reshape(*lead, *shape)
                for (name, shape), lo, hi in self.spans()}

    def spans(self):
        """(name and shape, start, end) of each matrix in ``vector``."""
        ends = list(accumulate(rows * cols for _, (rows, cols) in self.layout))
        return zip(self.layout, [0, *ends], ends)

    @property
    def names(self) -> list[str]:
        return [name for name, _ in self.layout]

    def items(self):
        return self.tensors.items()

    def copy(self) -> "ParamSet":
        return ParamSet.over(self.vector.copy(), self.layout)

    def zeros_like(self) -> "ParamSet":
        return ParamSet.over(np.zeros_like(self.vector), self.layout)

    def check_layout(self, other: "ParamSet") -> None:
        if other.layout != self.layout:
            raise ShapeError(f"parameter layout mismatch: {self.layout} vs {other.layout}")

    def add_(self, other: "ParamSet") -> "ParamSet":
        """In-place self += other; the layouts must be equal."""
        self.check_layout(other)
        self.vector += other.vector
        return self


def glorot(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


# ---------------------------------------------------------------------------
# GCN encoder


@dataclass
class GCNEncoder:
    """Stack of symmetric-normalized aggregation + linear layers.

    ReLU between layers, linear output so embeddings are signed.  Weights
    are named ``gcn.{l}``; in a model they are views into its ParamSet,
    (d, d') each, or (B, d, d') in a block model: one encoder either way.
    """

    weights: list[np.ndarray]

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[-2]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[-1]

    @classmethod
    def init(cls, dims: list[int], seed: int) -> "GCNEncoder":
        if len(dims) < 2:
            raise ShapeError("encoder needs at least one layer (two dims)")
        rng = substream(seed, "gcn-init")
        weights = [glorot(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)]
        return cls(weights=weights)

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        return [(f"gcn.{i}", w) for i, w in enumerate(self.weights)]

    def forward(self, a_hat, h0: np.ndarray) -> tuple[np.ndarray, list]:
        """Returns final embeddings and the per-layer cache for backward.

        ``a_hat`` is one symmetric operator, or a :class:`BlockOperator`
        whose layer k runs only at the rows ``rows[k + 1]``: ``h0`` is given
        at ``rows[0]`` and the embeddings come back at the loss rows.  The
        weights are shared (d, d') or per block (B, d, d'); with per-block
        weights each block is its own problem, so a non-finite output is
        left for the caller to find per block."""
        op = BlockOperator.of(a_hat)
        if h0.shape[1] != self.input_dim:
            raise ShapeError(f"encoder input dim {self.input_dim}, got {h0.shape[1]}")
        if h0.shape[0] != op.count(0):
            raise ShapeError("feature rows do not match graph node count")
        cache = []
        h = h0
        last = len(self.weights) - 1
        # a diverged model overflows here; the finite check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            for i, w in enumerate(self.weights):
                m = op.forward(h, i)
                z = block_matmul(m, w, op.bounds_at(i + 1))
                cache.append((m, z))
                h = np.maximum(z, 0.0) if i < last else z
        if self.weights[0].ndim == 2 and not np.all(np.isfinite(h)):
            raise NumericError("non-finite encoder output")
        return h, cache

    def backward(self, a_hat, cache: list, d_out: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Gradients (per-layer weight grads, d_input) for upstream d_out at
        the rows ``forward`` returned; d_input is at the rows h0 was given
        at.  Under a :class:`BlockOperator` each weight gradient is per
        block, (B, d, d')."""
        op = BlockOperator.of(a_hat)
        last = len(self.weights) - 1
        grads: list[np.ndarray] = [np.empty(0)] * len(self.weights)
        dh = d_out
        for i in range(last, -1, -1):
            m, z = cache[i]
            bounds = op.bounds_at(i + 1)
            dz = dh if i == last else dh * (z > 0.0)
            grads[i] = block_gram(m, dz, bounds)
            dm = block_matmul(dz, self.weights[i].swapaxes(-1, -2), bounds)
            dh = op.backward(dm, i)
        return grads, dh


@dataclass(frozen=True)
class BlockOperator:
    """B independent problems' aggregation operators, stacked, and the rows
    at which an L-layer encoder runs on them.

    ``full`` is the symmetric block-diagonal (N, N) operator, block b on
    rows ``bounds[b]:bounds[b + 1]``; the blocks do not interact, so every
    row of a product is its block's own.  ``rows[L]`` are the sorted loss
    rows, and ``rows[k]`` holds ``rows[k + 1]`` and their neighbours: layer
    k reads its input at ``rows[k]`` and runs only at ``rows[k + 1]``,
    through ``links[k]``, the rows of ``full`` at ``rows[k + 1]`` and its
    columns at ``rows[k]``.  That is exact, since a row of a product reads
    only its neighbours; the backward pass goes back through the transpose
    of each link, one hop per layer.  ``bounds`` None is one problem whose
    loss reads every row: ``BlockOperator.of(a_hat)``.
    """

    full: object
    bounds: np.ndarray | None
    rows: tuple = ()
    links: tuple = ()

    @classmethod
    def of(cls, a_hat) -> "BlockOperator":
        return a_hat if isinstance(a_hat, BlockOperator) else cls(a_hat, None)

    @classmethod
    def at_rows(cls, full, bounds: np.ndarray, loss_rows: np.ndarray, layers: int) -> "BlockOperator":
        """The stack ``full`` under an encoder of ``layers`` layers whose
        loss reads the sorted stacked ``loss_rows``."""
        rows, links = [loss_rows], []
        for _ in range(layers):
            starts = full.indptr[rows[0]]
            counts = full.indptr[rows[0] + 1] - starts
            entries = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
            cols = full.indices[entries]
            reached = np.sort(cols)
            first = np.ones(len(reached), dtype=bool)
            first[1:] = reached[1:] != reached[:-1]
            rows.insert(0, reached[first])
            indptr = np.zeros(len(counts) + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            links.insert(0, sp.csr_array(
                (full.data[entries], np.searchsorted(rows[0], cols), indptr),
                shape=(len(rows[1]), len(rows[0]))))
        return cls(full, bounds, tuple(rows), tuple(links))

    @property
    def blocks(self) -> int | None:
        return None if self.bounds is None else len(self.bounds) - 1

    def count(self, k: int) -> int:
        """Number of rows at level k."""
        return self.full.shape[0] if not self.rows else len(self.rows[k])

    def bounds_at(self, k: int) -> np.ndarray | None:
        """Block bounds of the rows at level k."""
        return self.bounds if not self.rows else np.searchsorted(self.rows[k], self.bounds)

    def forward(self, h: np.ndarray, k: int) -> np.ndarray:
        """Layer k's aggregation of ``h`` (at level k), at level k + 1."""
        return self.links[k] @ h if self.links else self.full @ h

    def backward(self, dm: np.ndarray, k: int) -> np.ndarray:
        """The transpose of ``forward(., k)`` applied to ``dm``."""
        return self.links[k].T @ dm if self.links else self.full @ dm


def block_matmul(a: np.ndarray, w: np.ndarray, bounds: np.ndarray | None) -> np.ndarray:
    """Each block of rows of ``a`` times its block's matrix: ``a @ w`` for
    a shared (k, m) ``w`` or no blocks, else block b's rows times w[b]."""
    if w.ndim == 2:
        return a @ w
    out = np.empty((len(a), w.shape[-1]))
    for b, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        np.matmul(a[lo:hi], w[b], out=out[lo:hi])
    return out


def block_gram(a: np.ndarray, b: np.ndarray, bounds: np.ndarray | None) -> np.ndarray:
    """``a.T @ b`` per block of rows, stacked (B, ka, kb); one (ka, kb)
    product without blocks."""
    if bounds is None:
        return a.T @ b
    out = np.empty((len(bounds) - 1, a.shape[1], b.shape[1]))
    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        np.matmul(a[lo:hi].T, b[lo:hi], out=out[k])
    return out


# ---------------------------------------------------------------------------
# two-layer MLP


class MLP:
    """in -> hidden (ReLU) -> out, with biases.  ``w1``, ``b1``, ``w2`` and
    ``b2`` are views into the one ParamSet ``params``."""

    def __init__(self, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray) -> None:
        self.params = ParamSet({"mlp.w1": w1, "mlp.b1": b1, "mlp.w2": w2, "mlp.b2": b2})
        self.w1, self.b1, self.w2, self.b2 = self.params.tensors.values()

    @classmethod
    def init(cls, in_dim: int, hidden_dim: int, out_dim: int, seed: int) -> "MLP":
        rng = substream(seed, "mlp-init")
        return cls(
            w1=glorot(in_dim, hidden_dim, rng),
            b1=np.zeros((1, hidden_dim)),
            w2=glorot(hidden_dim, out_dim, rng),
            b2=np.zeros((1, out_dim)),
        )

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.w1.shape[0]:
            raise ShapeError(f"MLP expects input dim {self.w1.shape[0]}, got {x.shape[1]}")
        z1 = x @ self.w1 + self.b1
        h1 = np.maximum(z1, 0.0)
        logits = h1 @ self.w2 + self.b2
        return logits, (x, z1, h1)

    def backward(self, cache: tuple, dlogits: np.ndarray) -> ParamSet:
        x, z1, h1 = cache
        grads = self.params.zeros_like()
        dw1, db1, dw2, db2 = grads.tensors.values()
        dw2[:] = h1.T @ dlogits
        db2[:] = dlogits.sum(axis=0)
        dz1 = (dlogits @ self.w2.T) * (z1 > 0.0)
        dw1[:] = x.T @ dz1
        db1[:] = dz1.sum(axis=0)
        return grads


# ---------------------------------------------------------------------------
# scatter-add


def scatter_matrix(targets: np.ndarray, sources: np.ndarray, weights: np.ndarray,
                   shape: tuple[int, int]) -> sp.csr_array:
    """The CSR operator S of ``shape`` with S[targets[i], sources[i]] +=
    weights[i], duplicates kept as separate entries.

    ``S @ x`` equals, bit for bit, ``out = zeros((shape[0], x.shape[1]))``
    followed by ``np.add.at(out, targets, weights[:, None] * x[sources])``:
    the entries are stored by target with a stable sort, so each row keeps
    its terms in index order, and the CSR product starts each row at zero
    and adds one ``weight * x[source]`` row at a time in stored order.
    Building S costs O(len(targets) + shape[0]) memory; the product
    forms no (len(targets) x dim) array.
    """
    # the narrowest unsigned type lets numpy radix-sort targets below 2**16
    order = np.argsort(targets.astype(np.min_scalar_type(max(shape[0] - 1, 0))), kind="stable")
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(targets, minlength=shape[0]), out=indptr[1:])
    return sp.csr_array((weights[order], sources[order], indptr), shape=shape)


# ---------------------------------------------------------------------------
# similarity


def _row_cosines(a: np.ndarray, b: np.ndarray):
    """Row norms of ``a`` and ``b``, the mask of rows whose norm product is
    nonzero, and the row-wise cosines (0 where it is zero)."""
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    denom = na * nb
    dots = np.einsum("ij,ij->i", a, b)
    out = np.zeros(len(a))
    ok = denom > 0.0
    out[ok] = dots[ok] / denom[ok]
    return na, nb, ok, out


def cosine_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cosine between two equally-shaped matrices (0 where degenerate)."""
    return _row_cosines(a, b)[3]


def ref_cosines(h: np.ndarray, anchors, refs: np.ndarray, offsets=()):
    """Cosine of each anchor row of ``h`` to its references, and its pullback.

    Entry (i, c) of ``s`` compares ``h[anchors[i]]`` with row ``refs[i, c]
    + offsets[c]`` of ``h`` for c < len(offsets), a view column whose view
    is a block of ``h``, and with row ``refs[i, c]`` for every later c.
    ``pullback(upstream)`` returns the gradient of sum(upstream * s) at
    every row of ``h``; a pair with a zero-norm side gets zero gradient.

    Each pair is laid out once, the view columns column by column and then
    the other columns row by row, and its norms, dot product and cosine
    serve both directions.  The gradient is one :func:`scatter_matrix`
    product with the bits of ``np.add.at`` applied term after term in this
    order: the anchor rows of view column 0, 1, ..., then the anchor rows
    of the other columns, then the reference rows in the same order.
    """
    anchors, k = np.asarray(anchors, dtype=np.int64), len(offsets)
    rows, cols = refs.shape
    a_idx = np.concatenate([np.tile(anchors, k), np.repeat(anchors, cols - k)])
    b_idx = np.concatenate([*(refs[:, p] + offsets[p] for p in range(k)), refs[:, k:].ravel()])
    a, b = h[a_idx], h[b_idx]
    na, nb, ok, cos = _row_cosines(a, b)
    s = np.empty(refs.shape)
    s[:, :k] = cos[:k * rows].reshape(k, rows).T
    s[:, k:] = cos[k * rows:].reshape(rows, cols - k)

    def pullback(upstream: np.ndarray) -> np.ndarray:
        # a degenerate pair's terms are +-0 (zero upstream, unit norms), and
        # a sum that starts at +0 reads them as the zero rows of np.add.at
        g = np.where(ok, np.concatenate([upstream[:, :k].T.ravel(), upstream[:, k:].ravel()]),
                     0.0)[:, None]
        nai, nbi, c = np.where(ok, na, 1.0)[:, None], np.where(ok, nb, 1.0)[:, None], cos[:, None]
        terms = np.concatenate([g * (b / (nai * nbi) - c * a / (nai * nai)),
                                g * (a / (nai * nbi) - c * b / (nbi * nbi))])
        m = len(terms)
        return scatter_matrix(np.concatenate([a_idx, b_idx]), np.arange(m), np.ones(m),
                              (len(h), m)) @ terms

    return s, pullback


# ---------------------------------------------------------------------------
# losses (each returns loss and gradient w.r.t. its direct inputs)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy; gradient w.r.t. logits."""
    logits = np.atleast_2d(logits)
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if logits.shape[0] != labels.shape[0]:
        raise ShapeError("logit rows and labels disagree")
    with np.errstate(invalid="ignore"):
        m = logits.max(axis=1, keepdims=True)
        exp = np.exp(logits - m)
        z = exp.sum(axis=1, keepdims=True)
        log_probs = (logits - m) - np.log(z)
    n = logits.shape[0]
    loss = -float(log_probs[np.arange(n), labels].mean())
    dlogits = exp / z
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    if not np.isfinite(loss):
        raise NumericError("non-finite cross-entropy")
    return loss, dlogits


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _bce_terms(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each score's binary cross-entropy on sigmoid(score) and its
    derivative, before any mean is taken."""
    softplus = np.maximum(scores, 0.0) + np.log1p(np.exp(-np.abs(scores)))
    return softplus - labels * scores, sigmoid(scores) - labels


def bce_with_logits(scores: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy on sigmoid(scores); gradient w.r.t. scores."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if scores.shape != labels.shape:
        raise ShapeError("scores and labels disagree")
    terms, dscores = _bce_terms(scores, labels)
    loss = float(terms.mean())
    if not np.isfinite(loss):
        raise NumericError("non-finite link-prediction loss")
    return loss, dscores / len(scores)


def grouped_bce(scores: np.ndarray, labels: np.ndarray, groups: np.ndarray,
                count: int) -> tuple[np.ndarray, np.ndarray]:
    """Each of ``count`` groups' mean binary cross-entropy over its scores
    (``groups`` gives each score's group; an empty group's is 0) and the
    gradient of each group's own mean w.r.t. its scores.  Nothing is
    checked: a group's non-finite mean is its caller's to read."""
    terms, dscores = _bce_terms(scores, labels)
    sizes = np.bincount(groups, minlength=count)
    losses = np.zeros(count)
    np.divide(np.bincount(groups, terms, minlength=count), sizes, out=losses, where=sizes > 0)
    return losses, dscores / sizes[groups]


def _info_nce_terms(pos_sim, neg_sims, temperature: float) -> tuple[np.ndarray, np.ndarray]:
    """Each anchor's InfoNCE and its gradient w.r.t. [pos | negs] times the
    temperature."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    pos = np.asarray(pos_sim, dtype=np.float64).ravel()
    negs = np.atleast_2d(np.asarray(neg_sims, dtype=np.float64))
    if negs.shape[0] != pos.shape[0]:
        raise ShapeError("anchor counts disagree between positives and negatives")
    z = np.concatenate([pos[:, None], negs], axis=1) / temperature
    m = z.max(axis=1, keepdims=True)
    exp = np.exp(z - m)
    denom = exp.sum(axis=1, keepdims=True)
    log_probs = (z - m) - np.log(denom)
    dz = exp / denom
    dz[:, 0] -= 1.0
    return -log_probs[:, 0], dz


def info_nce(
    pos_sim: np.ndarray, neg_sims: np.ndarray, temperature: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean InfoNCE over anchors.

    ``pos_sim`` is (n,), ``neg_sims`` is (n, K); similarities are divided by
    ``temperature`` and the positive competes against the K negatives.
    Returns (loss, d_pos_sim, d_neg_sims).
    """
    losses, dz = _info_nce_terms(pos_sim, neg_sims, temperature)
    loss = float(losses.mean())
    dz /= len(losses) * temperature
    if not np.isfinite(loss):
        raise NumericError("non-finite contrastive loss")
    return loss, dz[:, 0], dz[:, 1:]


def info_nce_rows(
    pos_sim: np.ndarray, neg_sims: np.ndarray, temperature: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each anchor's own InfoNCE, as :func:`info_nce` of that anchor alone,
    and the gradients of each anchor's loss; nothing is checked."""
    losses, dz = _info_nce_terms(pos_sim, neg_sims, temperature)
    dz /= temperature
    return losses, dz[:, 0], dz[:, 1:]


# ---------------------------------------------------------------------------
# Adam


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Bias-corrected Adam moments, one vector (or block) each, on a
    ParamSet's layout, and two scratch rows as long as its largest matrix."""

    lr: float
    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray
    step: int = 0

    @classmethod
    def init(cls, params: ParamSet, lr: float) -> "AdamState":
        widest = max((hi - lo for _, lo, hi in params.spans()), default=0)
        return cls(lr=lr, m=np.zeros_like(params.vector), v=np.zeros_like(params.vector),
                   scratch=np.empty((2, *params.vector.shape[:-1], widest)))


def adam_step(state: AdamState, params: ParamSet, grads: ParamSet,
              rows: np.ndarray | None = None) -> None:
    """One in-place Adam update of ``params`` (and ``state``), one matrix
    at a time in the state's scratch rows, so that a step allocates
    nothing.  With a block, only the rows where the mask ``rows`` holds
    (default all) move."""
    params.check_layout(grads)
    state.step += 1
    c1, c2 = 1.0 - BETA1 ** state.step, 1.0 - BETA2 ** state.step
    frozen = rows is not None and not rows.all()
    for _, lo, hi in params.spans():
        g, m, v = grads.vector[..., lo:hi], state.m[..., lo:hi], state.v[..., lo:hi]
        a, b = state.scratch[..., :hi - lo]
        m *= BETA1
        m += np.multiply(1.0 - BETA1, g, out=a)
        v *= BETA2
        v += np.multiply(1.0 - BETA2, np.multiply(g, g, out=a), out=a)
        # lr * (m / c1) / (sqrt(v / c2) + eps), one operation at a time
        np.add(np.sqrt(np.divide(v, c2, out=b), out=b), EPS, out=b)
        np.divide(np.multiply(state.lr, np.divide(m, c1, out=a), out=a), b, out=a)
        p = params.vector[..., lo:hi]
        if frozen:
            np.subtract(p, a, out=p, where=rows[:, None])
        else:
            p -= a


def minimize(params: ParamSet, lr: float, steps: int,
             loss_and_grads: Callable[[int], tuple[float, ParamSet]],
             stage: str, step_name: Callable[[int], str]) -> list:
    """Take ``steps`` Adam steps on ``params`` in place and return each
    step's loss.  ``loss_and_grads(k)`` gives step k's loss and gradients at
    the current parameters; a non-finite loss raises ``NumericError("<stage>
    diverged at <step_name(k)>")`` before step k changes anything, and a
    ``NumericError`` raised inside ``loss_and_grads(k)`` is raised again with
    that prefix before its own message.

    A (B, P) block holds B independent problems, one a row, stepped in
    lockstep: ``loss_and_grads(k)`` gives a (B,) loss array and a (B, P)
    gradient block.  A row whose loss is not finite leaves before step k
    changes it, and stays as it was; each history entry reads NaN for
    every row that has left."""
    state = AdamState.init(params, lr)
    history: list = []
    running = np.ones(params.vector.shape[:-1], dtype=bool)
    for k in range(steps):
        try:
            loss, grads = loss_and_grads(k)
        except NumericError as exc:
            raise NumericError(f"{stage} diverged at {step_name(k)}: {exc}") from exc
        if running.ndim == 0:
            if not np.isfinite(loss):
                raise NumericError(f"{stage} diverged at {step_name(k)}")
            adam_step(state, params, grads)
            history.append(loss)
            continue
        running &= np.isfinite(loss)
        # a row that has left takes no step; zeros keep its moments finite
        grads.vector[~running] = 0.0
        adam_step(state, params, grads, running)
        history.append(np.where(running, loss, np.nan))
    return history
