from __future__ import annotations

import os

# One BLAS thread, set before numpy loads its BLAS: the wall-clock gates
# (criterion 8 above all) then measure size scaling, not thread scaling.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import re

import numpy as np
import pytest

_CRITERION_RESULTS: dict[int, tuple[str, str]] = {}
_CRITERION_PATTERN = re.compile(r"test_criterion_(\d+)_(\w+)")


def pytest_runtest_logreport(report):
    match = _CRITERION_PATTERN.search(report.nodeid)
    if not match or report.when != "call":
        return
    num = int(match.group(1))
    name = match.group(2)
    _CRITERION_RESULTS[num] = (name, "PASS" if report.passed else "FAIL")


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_CRITERION_RESULTS):
        name, outcome = _CRITERION_RESULTS[num]
        terminalreporter.write_line(f"criterion {num} ({name.replace('_', ' ')}): {outcome}")

from graphmia.attack import Scores
from graphmia.graph import Graph
from graphmia.nn import GCNEncoder, ParamSet, ShapeError
from graphmia.synth import sbm_graph
from graphmia.victim import (
    LINK_PREDICTION,
    CONTRASTIVE,
    NodeDraws,
    NodeLoss,
    SSLObjective,
    VictimModel,
)


def triangle_graph(extra_nodes: int = 0, feature_dim: int = 2) -> Graph:
    n = 3 + extra_nodes
    features = np.arange(n * feature_dim, dtype=float).reshape(n, feature_dim) + 1.0
    return Graph.from_edges(n, [(0, 1), (1, 2), (0, 2)], features)


def path_graph(n: int = 4, feature_dim: int = 2) -> Graph:
    features = np.arange(n * feature_dim, dtype=float).reshape(n, feature_dim) + 1.0
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)], features)


@pytest.fixture
def small_sbm() -> Graph:
    return sbm_graph(40, 6, 6.0, seed=17)


@pytest.fixture
def linkpred_objective() -> SSLObjective:
    return SSLObjective(LINK_PREDICTION)


@pytest.fixture
def contrastive_objective() -> SSLObjective:
    return SSLObjective(CONTRASTIVE, negatives_per_positive=3)


def tiny_model(graph: Graph, objective: SSLObjective, seed: int = 5, emb_dim: int = 6) -> VictimModel:
    return VictimModel.init(
        {graph.domain_id: graph.feature_dim},
        objective,
        2,
        emb_dim,
        seed=seed,
    )


def gcn_forward(encoder: GCNEncoder, graph: Graph, features: np.ndarray) -> np.ndarray:
    """Embeddings of ``features`` under ``encoder`` on ``graph``."""
    h, _ = encoder.forward(graph.gcn_matrix, np.asarray(features, dtype=np.float64))
    return h


def cosine_sim(a, b) -> tuple[float, bool]:
    """Oracle cosine of two vectors; returns (value, degenerate_flag).

    A zero vector makes the cosine undefined: the value is 0.0 and the
    flag is set.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ShapeError("cosine_sim needs equal-length vectors")
    # the cosine is scale-free: rescale so that the squared norms of tiny
    # vectors do not underflow into subnormals and lose their precision
    scale_a = float(np.abs(a).max(initial=0.0))
    scale_b = float(np.abs(b).max(initial=0.0))
    if scale_a == 0.0 or scale_b == 0.0:
        return 0.0, True
    a, b = a / scale_a, b / scale_b
    return float(a @ b) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b))), False


def finite_diff_grads(loss_fn, params: ParamSet, step: float = 1e-5) -> ParamSet:
    """Central finite differences of a scalar loss over every parameter."""
    out = params.zeros_like()
    for name, tensor in params.items():
        grad = out.tensors[name]
        it = np.nditer(tensor, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = tensor[idx]
            tensor[idx] = orig + step
            up = loss_fn()
            tensor[idx] = orig - step
            down = loss_fn()
            tensor[idx] = orig
            grad[idx] = (up - down) / (2.0 * step)
            it.iternext()
    return out


def max_rel_error(analytic: ParamSet, numeric: ParamSet, floor: float = 1e-3) -> float:
    """Worst-case |a - f| / max(|a|, |f|, floor) over all entries.

    The floor keeps near-zero gradients (where central differences are
    pure roundoff) from dominating; genuine sign/scale bugs still show up
    at O(1) relative error.
    """
    worst = 0.0
    for name in analytic.names:
        a = analytic.tensors[name]
        f = numeric.tensors[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), floor)
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


def whole_graph_feature_grad(model: VictimModel, graph: Graph, node: int, rng):
    """The gradient of ``per_node_ssl_loss(model, graph, node, rng)`` with
    respect to every feature row: the ball rows of a ``NodeLoss`` chunk of
    one placed into a zero (num_nodes x feature_dim) array."""
    terms = NodeLoss(graph, model.objective,
                     [NodeDraws.draw(graph, model.objective, model.encoder.num_layers, node, rng)])
    _, _, ball_dx = terms.evaluate(model, want_feature_grad=True)
    dx = np.zeros_like(graph.features)
    dx[terms.ids] = ball_dx
    return dx


def view_graph(graph: Graph, keep_edges: np.ndarray, drop_cols: np.ndarray) -> Graph:
    """Oracle of an augmented view: the view of ``graph`` under its two
    masks, rebuilt as a graph of its own by the validating
    ``Graph.from_edges`` from the kept rows of ``edge_array`` and the
    features with the masked columns zeroed."""
    masked = graph.features.copy()
    masked[:, drop_cols] = 0.0
    return Graph.from_edges(graph.num_nodes, graph.edge_array[keep_edges], masked,
                            domain_id=graph.domain_id)


def assert_block(x: np.ndarray, a_hat, bounds, block: int, features: np.ndarray, matrix) -> None:
    """Assert that block ``block`` of the stacked features ``x`` and the
    block-diagonal CSR operator ``a_hat``, rows ``bounds[block]`` up to
    ``bounds[block + 1]``, holds ``features`` and the CSR ``matrix``: the
    same feature and operator bits, and the same entries in the same order."""
    lo, hi = int(bounds[block]), int(bounds[block + 1])
    first, last = a_hat.indptr[lo], a_hat.indptr[hi]
    assert x[lo:hi].shape == features.shape and x[lo:hi].tobytes() == features.tobytes()
    assert a_hat.data[first:last].tobytes() == matrix.data.tobytes()
    np.testing.assert_array_equal(a_hat.indices[first:last] - lo, matrix.indices)
    np.testing.assert_array_equal(a_hat.indptr[lo:hi + 1] - first, matrix.indptr)


def nan_on_call(monkeypatch, module, name: str, bad_call: int) -> None:
    """Rebind ``module.name``, a (loss, grads) function, so that its
    ``bad_call``-th call (0-based) returns a NaN loss."""
    real, calls = getattr(module, name), []

    def diverging(*args, **kwargs):
        loss, grads = real(*args, **kwargs)
        calls.append(None)
        return (np.nan if len(calls) == bad_call + 1 else loss), grads

    monkeypatch.setattr(module, name, diverging)


def assert_same_scores(got, want) -> None:
    """Assert that two ``Scores`` records, or two lists of them, are equal
    bit for bit: the same ``asked`` and the same dtype and bytes in every
    array."""
    if isinstance(got, Scores):
        got, want = [got], [want]
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.asked == b.asked
        for name in ("nodes", "labels", "scores"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def assert_record_of(record: Scores, queried) -> None:
    """Assert that ``record`` answers a query of the nodes ``queried``:
    ``asked`` counts them, every array has one entry per kept node, and the
    kept nodes are an ascending subset of the queried ones."""
    queried = sorted(int(v) for v in queried)
    assert record.asked == len(queried)
    assert len(record.nodes) == len(record.labels) == len(record.scores) == len(record)
    assert record.nodes.dtype == record.labels.dtype == np.int64
    assert record.scores.dtype == np.float64
    assert np.all(np.diff(record.nodes) > 0)
    assert set(record.nodes.tolist()) <= set(queried)
