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
    the matrices in.
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
        views, start = {}, 0
        for name, (rows, cols) in self.layout:
            views[name] = self.vector[start:start + rows * cols].reshape(rows, cols)
            start += rows * cols
        return views

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
    are named ``gcn.{l}``; in a model they are views into its ParamSet.
    """

    weights: list[np.ndarray]

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[1]

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
        """Returns final embeddings and the per-layer cache for backward."""
        if h0.shape[1] != self.input_dim:
            raise ShapeError(f"encoder input dim {self.input_dim}, got {h0.shape[1]}")
        if h0.shape[0] != a_hat.shape[0]:
            raise ShapeError("feature rows do not match graph node count")
        cache = []
        h = h0
        # a diverged model overflows here; the finite check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            for i, w in enumerate(self.weights):
                m = a_hat @ h
                z = m @ w
                cache.append((m, z))
                h = np.maximum(z, 0.0) if i < len(self.weights) - 1 else z
        if not np.all(np.isfinite(h)):
            raise NumericError("non-finite encoder output")
        return h, cache

    def backward(self, a_hat, cache: list, d_out: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Gradients (per-layer weight grads, d_input) for upstream d_out."""
        grads: list[np.ndarray] = [np.empty(0)] * len(self.weights)
        dh = d_out
        for i in range(len(self.weights) - 1, -1, -1):
            m, z = cache[i]
            dz = dh if i == len(self.weights) - 1 else dh * (z > 0.0)
            grads[i] = m.T @ dz
            dm = dz @ self.weights[i].T
            dh = a_hat @ dm
        return grads, dh


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


def ref_cosines(h: np.ndarray, views_h: list, anchors, refs: np.ndarray):
    """Cosine of each anchor row of ``h`` to its references, and its pullback.

    Entry (i, c) of ``s`` compares ``h[anchors[i]]`` with node ``refs[i, c]``,
    read in ``views_h[c]`` for c < len(views_h) and in ``h`` for every later
    c.  ``pullback(upstream)`` returns ``(dh, [dview_p])``, the gradients of
    sum(upstream * s); a pair with a zero-norm side gets zero gradient.

    Each pair is laid out once, the view columns column by column and then
    the columns read in ``h`` row by row, and its norms, dot product and
    cosine serve both directions.  The gradients are one
    :func:`scatter_matrix` product over the rows of ``h`` stacked on each
    view's, with the bits of ``np.add.at`` applied term after term in this
    order: into ``h``, the anchor rows of view column 0, 1, ..., then the
    anchor rows of the columns read in ``h`` and last their reference rows;
    into view p, the reference rows of column p.
    """
    anchors, k = np.asarray(anchors, dtype=np.int64), len(views_h)
    rows, cols = refs.shape
    starts = list(accumulate([len(h), *(len(hv) for hv in views_h)], initial=0))
    stacked = np.concatenate([h, *views_h])
    a_idx = np.concatenate([np.tile(anchors, k), np.repeat(anchors, cols - k)])
    b_idx = np.concatenate([*(refs[:, p] + starts[p + 1] for p in range(k)), refs[:, k:].ravel()])
    a, b = stacked[a_idx], stacked[b_idx]
    na, nb, ok, cos = _row_cosines(a, b)
    s = np.empty(refs.shape)
    s[:, :k] = cos[:k * rows].reshape(k, rows).T
    s[:, k:] = cos[k * rows:].reshape(rows, cols - k)

    def pullback(upstream: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        # a degenerate pair's terms are +-0 (zero upstream, unit norms), and
        # a sum that starts at +0 reads them as the zero rows of np.add.at
        g = np.where(ok, np.concatenate([upstream[:, :k].T.ravel(), upstream[:, k:].ravel()]),
                     0.0)[:, None]
        nai, nbi, c = np.where(ok, na, 1.0)[:, None], np.where(ok, nb, 1.0)[:, None], cos[:, None]
        terms = np.concatenate([g * (b / (nai * nbi) - c * a / (nai * nai)),
                                g * (a / (nai * nbi) - c * b / (nbi * nbi))])
        m = len(terms)
        grads = scatter_matrix(np.concatenate([a_idx, b_idx]), np.arange(m), np.ones(m),
                               (starts[-1], m)) @ terms
        return grads[:len(h)], [grads[lo:hi] for lo, hi in zip(starts[1:], starts[2:])]

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


def bce_with_logits(scores: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy on sigmoid(scores); gradient w.r.t. scores."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if scores.shape != labels.shape:
        raise ShapeError("scores and labels disagree")
    softplus = np.maximum(scores, 0.0) + np.log1p(np.exp(-np.abs(scores)))
    loss = float((softplus - labels * scores).mean())
    dscores = (sigmoid(scores) - labels) / len(scores)
    if not np.isfinite(loss):
        raise NumericError("non-finite link-prediction loss")
    return loss, dscores


def info_nce(
    pos_sim: np.ndarray, neg_sims: np.ndarray, temperature: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean InfoNCE over anchors.

    ``pos_sim`` is (n,), ``neg_sims`` is (n, K); similarities are divided by
    ``temperature`` and the positive competes against the K negatives.
    Returns (loss, d_pos_sim, d_neg_sims).
    """
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
    n = pos.shape[0]
    loss = -float(log_probs[:, 0].mean())
    dz = exp / denom
    dz[:, 0] -= 1.0
    dz /= n * temperature
    if not np.isfinite(loss):
        raise NumericError("non-finite contrastive loss")
    return loss, dz[:, 0], dz[:, 1:]


# ---------------------------------------------------------------------------
# Adam


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Bias-corrected Adam moments, one vector each, on a ParamSet's layout."""

    lr: float
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def init(cls, params: ParamSet, lr: float) -> "AdamState":
        return cls(lr=lr, m=np.zeros_like(params.vector), v=np.zeros_like(params.vector))


def adam_step(state: AdamState, params: ParamSet, grads: ParamSet) -> None:
    """One in-place Adam update of ``params`` (and ``state``)."""
    params.check_layout(grads)
    state.step += 1
    g, m, v = grads.vector, state.m, state.v
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * (g * g)
    params.vector -= state.lr * (m / (1.0 - BETA1 ** state.step)) / (
        np.sqrt(v / (1.0 - BETA2 ** state.step)) + EPS)


def minimize(params: ParamSet, lr: float, steps: int,
             loss_and_grads: Callable[[int], tuple[float, ParamSet]],
             stage: str, step_name: Callable[[int], str]) -> list[float]:
    """Take ``steps`` Adam steps on ``params`` in place and return each
    step's loss.  ``loss_and_grads(k)`` gives step k's loss and gradients at
    the current parameters; a non-finite loss raises ``NumericError("<stage>
    diverged at <step_name(k)>")`` before step k changes anything, and a
    ``NumericError`` raised inside ``loss_and_grads(k)`` is raised again with
    that prefix before its own message."""
    state = AdamState.init(params, lr)
    history: list[float] = []
    for k in range(steps):
        try:
            loss, grads = loss_and_grads(k)
        except NumericError as exc:
            raise NumericError(f"{stage} diverged at {step_name(k)}: {exc}") from exc
        if not np.isfinite(loss):
            raise NumericError(f"{stage} diverged at {step_name(k)}")
        adam_step(state, params, grads)
        history.append(loss)
    return history
