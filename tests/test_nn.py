from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphmia.graph import Graph
from graphmia.nn import (
    MLP,
    AdamState,
    GCNEncoder,
    NumericError,
    ParamSet,
    ShapeError,
    adam_step,
    bce_with_logits,
    cosine_rows,
    cross_entropy,
    info_nce,
    minimize,
    ref_cosines,
    scatter_matrix,
)
from graphmia.victim import (
    LINK_PREDICTION,
    SSLObjective,
    VictimModel,
    _pair_bce,
    embed,
)

from conftest import cosine_sim, finite_diff_grads, gcn_forward, max_rel_error, path_graph


def dense_normalized_adjacency(graph: Graph) -> np.ndarray:
    """Independent oracle: (D+I)^-1/2 (A+I) (D+I)^-1/2 via explicit loops.

    Each entry is the product of the two inverse square roots, the
    rounding the package's matrix has.  ``1/sqrt(d_i d_j)`` can differ
    from it in the last bit, and where a gradient is left after its terms
    cancel, that bit alone moves it past the 1e-12 of ``test_locality``."""
    n = graph.num_nodes
    a = np.eye(n)
    for u in range(n):
        for v in graph.neighbors(u):
            a[u, int(v)] = 1.0
    deg = a.sum(axis=1)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if a[i, j]:
                out[i, j] = (1.0 / math.sqrt(deg[i])) * (1.0 / math.sqrt(deg[j]))
    return out


class TestParamSet:
    def test_flatten_order_stable(self):
        ps = ParamSet({"b": np.ones((1, 2)), "a": np.full((2, 1), 3.0)})
        np.testing.assert_array_equal(ps.vector, [1.0, 1.0, 3.0, 3.0])
        assert ps.names == ["b", "a"]

    def test_copy_is_deep(self):
        ps = ParamSet({"w": np.zeros((2, 2))})
        cp = ps.copy()
        cp.tensors["w"][0, 0] = 5.0
        assert ps.tensors["w"][0, 0] == 0.0

    def test_rejects_non_matrix(self):
        with pytest.raises(ShapeError):
            ParamSet({"v": np.zeros(3)})


class TestOneParameterVector:
    """A model's parameters are one vector, and its weights are views into it."""

    @staticmethod
    def _model() -> VictimModel:
        return VictimModel.init({10: 3, 2: 4}, SSLObjective(LINK_PREDICTION),
                                2, 5, seed=1)

    def test_layout(self):
        params = self._model().params
        assert params.names == ["proj.2", "proj.10", "gcn.0", "gcn.1"]
        assert params.layout == (("proj.2", (4, 5)), ("proj.10", (3, 5)),
                                 ("gcn.0", (5, 5)), ("gcn.1", (5, 5)))
        assert params.vector.ndim == 1 and params.vector.flags.c_contiguous
        assert params.vector.size == 4 * 5 + 3 * 5 + 2 * 5 * 5
        np.testing.assert_array_equal(
            params.vector, np.concatenate([t.ravel() for t in params.tensors.values()]))

    def test_adam_step_through_params_moves_embed(self):
        model = self._model()
        g = path_graph(4, feature_dim=4)
        g = Graph.from_edges(4, g.edge_array, g.features, domain_id=2)
        before = embed(model, g)
        grads = model.params.zeros_like()
        grads.vector[:] = 1.0
        adam_step(AdamState.init(model.params, lr=0.1), model.params, grads)
        assert not np.allclose(embed(model, g), before)
        for w in [*model.projectors.values(), *model.encoder.weights]:
            assert np.shares_memory(w, model.params.vector)

    def test_copies_share_no_memory(self):
        model = self._model()
        copy = model.copy()
        assert not np.shares_memory(copy.params.vector, model.params.vector)
        np.testing.assert_array_equal(copy.params.vector, model.params.vector)
        for w in [*copy.projectors.values(), *copy.encoder.weights]:
            assert not np.shares_memory(w, model.params.vector)
        for source in ({"w": np.ones((2, 3))}, {"a": np.ones((2, 3)), "b": np.zeros((1, 1))}):
            ps = ParamSet(source)
            assert not any(np.shares_memory(ps.vector, t) for t in source.values())

    def test_other_layout_raises(self):
        params = ParamSet({"a": np.zeros((2, 2)), "b": np.zeros((1, 2))})
        for other in (ParamSet({"b": np.ones((1, 2)), "a": np.ones((2, 2))}),
                      ParamSet({"a": np.ones((1, 4)), "b": np.ones((1, 2))})):
            with pytest.raises(ShapeError):
                adam_step(AdamState.init(params, lr=1e-3), params, other)
            with pytest.raises(ShapeError):
                params.add_(other)
        assert not params.vector.any()


class TestGCNForward:
    def test_isolated_node_identity_encoder(self):
        g = Graph.from_edges(1, [], np.array([[2.0, -1.0, 0.5]]))
        enc = GCNEncoder(weights=[np.eye(3)])
        out = gcn_forward(enc, g, g.features)
        np.testing.assert_allclose(out, g.features)

    def test_isomorphic_nodes_equal_rows(self):
        # path 0-1-2 with x0 == x2: nodes 0 and 2 are isomorphic
        feats = np.array([[1.0, 2.0], [0.5, 0.5], [1.0, 2.0]])
        g = Graph.from_edges(3, [(0, 1), (1, 2)], feats)
        enc = GCNEncoder.init([2, 4, 4], seed=3)
        out = gcn_forward(enc, g, g.features)
        np.testing.assert_allclose(out[0], out[2], atol=1e-12)

    def test_matches_dense_oracle_on_path(self):
        g = path_graph(3, feature_dim=2)
        enc = GCNEncoder.init([2, 5, 3], seed=11)
        got = gcn_forward(enc, g, g.features)
        a = dense_normalized_adjacency(g)
        h = np.maximum(a @ g.features @ enc.weights[0], 0.0)
        want = a @ h @ enc.weights[1]
        np.testing.assert_allclose(got, want, atol=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_oracle_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 20))
        edges = {(int(min(u, v)), int(max(u, v)))
                 for u, v in rng.integers(0, n, size=(2 * n, 2)) if u != v}
        g = Graph.from_edges(n, sorted(edges), rng.normal(size=(n, 3)))
        enc = GCNEncoder.init([3, 4, 4, 2], seed=seed)
        got = gcn_forward(enc, g, g.features)
        a = dense_normalized_adjacency(g)
        h = g.features
        for i, w in enumerate(enc.weights):
            h = a @ h @ w
            if i < len(enc.weights) - 1:
                h = np.maximum(h, 0.0)
        np.testing.assert_allclose(got, h, atol=1e-10)

    def test_shape_errors(self):
        g = path_graph(3, feature_dim=2)
        enc = GCNEncoder.init([5, 4], seed=0)
        with pytest.raises(ShapeError):
            gcn_forward(enc, g, g.features)

    def test_backward_matches_finite_differences(self):
        g = path_graph(5, feature_dim=3)
        enc = GCNEncoder.init([3, 4, 2], seed=7)
        a_hat = g.gcn_matrix
        target = np.arange(10, dtype=float).reshape(5, 2)

        def loss_fn():
            h, _ = enc.forward(a_hat, g.features)
            return float(((h - target) ** 2).sum())

        h, cache = enc.forward(a_hat, g.features)
        grads, _ = enc.backward(a_hat, cache, 2.0 * (h - target))
        params = ParamSet(dict(enc.param_items()))
        # ParamSet(dict) copies: perturb the encoder through its views
        enc.weights = list(params.tensors.values())
        numeric = finite_diff_grads(loss_fn, params)
        analytic = ParamSet({f"gcn.{i}": gw for i, gw in enumerate(grads)})
        assert max_rel_error(analytic, numeric) < 1e-4


class TestCosine:
    def test_identical(self):
        v = np.array([0.3, -2.0, 1.0])
        val, flag = cosine_sim(v, v)
        assert val == pytest.approx(1.0) and not flag

    def test_orthogonal(self):
        val, _ = cosine_sim([1.0, 0.0], [0.0, 1.0])
        assert val == 0.0

    def test_hand_case(self):
        val, _ = cosine_sim([1.0, 2.0], [2.0, 1.0])
        assert val == pytest.approx(0.8, abs=1e-12)

    def test_zero_vector_flagged(self):
        val, flag = cosine_sim([0.0, 0.0], [1.0, 1.0])
        assert val == 0.0 and flag

    @given(
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        st.floats(0.01, 100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_scale_invariant(self, a, b, c):
        a, b = np.array(a), np.array(b)
        ab, _ = cosine_sim(a, b)
        ba, _ = cosine_sim(b, a)
        scaled, _ = cosine_sim(c * a, b)
        assert ab == pytest.approx(ba, abs=1e-12)
        assert scaled == pytest.approx(ab, abs=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 3.0, 0.07])
    def test_tiny_vector_keeps_precision(self, scale):
        # a hypothesis draw of the test above: |a|^2 = 1.2e-312 is subnormal,
        # and taking the norm from it read 0.99999999999969 instead of 1
        val, flag = cosine_sim(scale * np.array([1.1e-156, 0.0, 0.0]), [1.0, 0.0, 0.0])
        assert val == 1.0 and not flag


def views_ref_cosines(h, views_h, anchors, refs):
    """``ref_cosines`` on views given apart from ``h``: they are stacked
    under it as its blocks, view column p reading rows offset by view p's
    block start, and the gradient is split back into ``h``'s and each
    view's."""
    starts = np.cumsum([len(h), *(len(hv) for hv in views_h)])
    s, pullback = ref_cosines(np.concatenate([h, *views_h]), anchors, refs, starts[:-1])

    def split(upstream):
        grads = pullback(upstream)
        return grads[:len(h)], [grads[lo:hi] for lo, hi in zip(starts[:-1], starts[1:])]

    return s, split


class TestRefCosines:
    """The one cosine kernel behind similarity profiles, distillation and
    every InfoNCE row, checked entry by entry and by central differences."""

    # anchors 0 repeated; every view column repeats a reference across
    # rows; the columns read in h repeat one within rows 0 and 2 and hold
    # an anchor's own id (row 1); node 5 is a zero embedding row in h and
    # node 4 in the first view
    ANCHORS = np.array([0, 3, 0, 2])
    REFS = np.array([[1, 2, 4, 4, 5], [4, 1, 0, 3, 1], [0, 2, 1, 1, 5], [1, 1, 2, 3, 0]])

    def _inputs(self, num_views):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(6, 4))
        h[5] = 0.0
        views_h = [rng.normal(size=(6, 4)) for _ in range(num_views)]
        if views_h:
            views_h[0][4] = 0.0
        return h, views_h, rng.normal(size=self.REFS.shape)

    @pytest.mark.parametrize("num_views", [0, 1, 2])
    def test_entries_are_plain_cosines(self, num_views):
        h, views_h, _ = self._inputs(num_views)
        s, _ = views_ref_cosines(h, views_h, self.ANCHORS, self.REFS)
        for i, a in enumerate(self.ANCHORS):
            for c, r in enumerate(self.REFS[i]):
                other = views_h[c][r] if c < num_views else h[r]
                assert s[i, c] == pytest.approx(cosine_sim(h[a], other)[0], abs=1e-14)

    @pytest.mark.parametrize("num_views", [0, 1, 2])
    def test_columns_are_cosine_rows(self, num_views):
        # the kernel's entries are those of cosine_rows on each column's
        # rows, byte for byte: one formula behind both
        h, views_h, _ = self._inputs(num_views)
        s, _ = views_ref_cosines(h, views_h, self.ANCHORS, self.REFS)
        for c in range(self.REFS.shape[1]):
            other = views_h[c] if c < num_views else h
            want = cosine_rows(h[self.ANCHORS], other[self.REFS[:, c]])
            assert s[:, c].tobytes() == want.tobytes()

    @pytest.mark.parametrize("num_views", [0, 1, 2])
    def test_backward_matches_finite_differences(self, num_views):
        h, views_h, upstream = self._inputs(num_views)
        _, pullback = views_ref_cosines(h, views_h, self.ANCHORS, self.REFS)
        dh, dviews = pullback(upstream)
        assert len(dviews) == num_views

        def loss():
            return float((upstream * views_ref_cosines(h, views_h, self.ANCHORS, self.REFS)[0]).sum())

        step = 1e-6
        zero_rows = [5, 4, None][:1 + num_views]
        for x, grad, zero_row in zip([h, *views_h], [dh, *dviews], zero_rows):
            # the cosine of a zero vector is not differentiable; its gradient is zero
            if zero_row is not None:
                assert np.all(grad[zero_row] == 0.0)
            for idx in np.ndindex(*x.shape):
                if idx[0] == zero_row:
                    continue
                orig = x[idx]
                x[idx] = orig + step
                up = loss()
                x[idx] = orig - step
                down = loss()
                x[idx] = orig
                assert grad[idx] == pytest.approx((up - down) / (2.0 * step), abs=1e-8)


def cosine_rows_grad(a, b, upstream):
    """d(upstream . cos_rows(a, b)) w.r.t. a and b, from scratch; rows with
    a zero norm get zero gradient."""
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    ok = (na > 0.0) & (nb > 0.0)
    da = np.zeros_like(a)
    db = np.zeros_like(b)
    if not np.any(ok):
        return da, db
    ai, bi = a[ok], b[ok]
    nai = na[ok][:, None]
    nbi = nb[ok][:, None]
    cos = np.einsum("ij,ij->i", ai, bi)[:, None] / (nai * nbi)
    g = upstream[ok][:, None]
    da[ok] = g * (bi / (nai * nbi) - cos * ai / (nai * nai))
    db[ok] = g * (ai / (nai * nbi) - cos * bi / (nbi * nbi))
    return da, db


def add_at_ref_cosines_backward(h, views_h, anchors, refs, upstream):
    """Reference: the pullback of ``ref_cosines`` as np.add.at calls, each
    view column in turn, then the columns read in ``h``."""
    anchors, k = np.asarray(anchors, dtype=np.int64), len(views_h)
    dh = np.zeros_like(h)
    dviews = [np.zeros_like(hv) for hv in views_h]
    for p, hv in enumerate(views_h):
        da, db = cosine_rows_grad(h[anchors], hv[refs[:, p]], upstream[:, p])
        np.add.at(dh, anchors, da)
        np.add.at(dviews[p], refs[:, p], db)
    rep, others = np.repeat(anchors, refs.shape[1] - k), refs[:, k:].ravel()
    da, db = cosine_rows_grad(h[rep], h[others], upstream[:, k:].ravel())
    np.add.at(dh, rep, da)
    np.add.at(dh, others, db)
    return dh, dviews


class TestScatterMatrix:
    """``scatter_matrix(...) @ x`` against the np.add.at loop it replaces,
    byte for byte."""

    @staticmethod
    def add_at(targets, sources, weights, n, x):
        out = np.zeros((n, x.shape[1]))
        np.add.at(out, targets, weights[:, None] * x[sources])
        return out

    @staticmethod
    def wide_values(rng, shape):
        """Signed values whose magnitudes span 1e-5 to 1e5."""
        return rng.normal(size=shape) * 10.0 ** rng.uniform(-5, 5, size=shape)

    @pytest.mark.parametrize("n, pairs", [(1, 7), (5, 200), (50, 30), (300, 5000)])
    def test_matches_add_at(self, n, pairs):
        rng = np.random.default_rng(n + pairs)
        x = self.wide_values(rng, (n, 6))
        # few targets among many pairs: long runs of duplicates in random
        # order; many targets among few pairs: rows nothing references
        targets, sources = rng.integers(n, size=pairs), rng.integers(n, size=pairs)
        weights = self.wide_values(rng, pairs)
        got = scatter_matrix(targets, sources, weights, (n, n)) @ x
        assert got.tobytes() == self.add_at(targets, sources, weights, n, x).tobytes()

    def test_unreferenced_rows_and_empty_index(self):
        x = np.random.default_rng(0).normal(size=(4, 3))
        got = scatter_matrix(np.array([3, 3]), np.array([0, 1]), np.array([1.0, -2.0]), (6, 4)) @ x
        assert np.all(got[:3] == 0.0) and np.all(got[4:] == 0.0)
        assert got[3].tobytes() == (x[0] - 2.0 * x[1]).tobytes()
        empty = np.array([], dtype=np.int64)
        got = scatter_matrix(empty, empty, np.array([]), (6, 4)) @ x
        assert got.shape == (6, 3) and got.tobytes() == np.zeros((6, 3)).tobytes()

    @pytest.mark.parametrize("one_anchor", [False, True])
    def test_pair_bce_is_two_add_at_passes(self, one_anchor):
        rng = np.random.default_rng(4)
        n, pairs = 40, 300
        h = self.wide_values(rng, (n, 8)) * 1e-4
        us = np.full(pairs, 7) if one_anchor else rng.integers(n, size=pairs)
        vs = rng.integers(n, size=pairs)
        labels = (rng.random(pairs) < 0.5).astype(float)
        loss, dh = _pair_bce(h, us, vs, labels)
        ref_loss, dscores = bce_with_logits(np.einsum("ij,ij->i", h[us], h[vs]), labels)
        ref = np.zeros_like(h)
        np.add.at(ref, us, dscores[:, None] * h[vs])
        np.add.at(ref, vs, dscores[:, None] * h[us])
        assert loss == ref_loss and dh.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("num_views", [0, 1, 2])
    def test_ref_cosines_backward_is_add_at_order(self, num_views):
        rng = np.random.default_rng(num_views)
        n, rows, cols = 30, 200, 6
        h = self.wide_values(rng, (n, 5))
        h[3] = 0.0
        views_h = [self.wide_values(rng, (n, 5)) for _ in range(num_views)]
        anchors = rng.integers(n, size=rows)
        refs = rng.integers(n, size=(rows, cols))
        upstream = rng.normal(size=(rows, cols))
        _, pullback = views_ref_cosines(h, views_h, anchors, refs)
        dh, dviews = pullback(upstream)
        ref_dh, ref_dviews = add_at_ref_cosines_backward(h, views_h, anchors, refs, upstream)
        assert dh.tobytes() == ref_dh.tobytes()
        assert [d.tobytes() for d in dviews] == [d.tobytes() for d in ref_dviews]

    def test_memory_linear_in_pairs_plus_rows(self):
        """Building and applying the operator holds O(pairs + n * dim)
        bytes, never a (pairs x dim) array (10 MB here)."""
        rng = np.random.default_rng(5)
        n, pairs, dim = 64, 20_000, 64
        x = rng.normal(size=(n, dim))
        targets, sources = rng.integers(n, size=pairs), rng.integers(n, size=pairs)
        weights = rng.normal(size=pairs)
        tracemalloc.start()
        try:
            scatter_matrix(targets, sources, weights, (n, n)) @ x
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 8 * pairs + 2 * 8 * n * dim < 8 * pairs * dim / 3


class TestMLP:
    def test_zero_weights_zero_logits(self):
        mlp = MLP(w1=np.zeros((3, 4)), b1=np.zeros((1, 4)),
                  w2=np.zeros((4, 2)), b2=np.zeros((1, 2)))
        logits, _ = mlp.forward(np.ones(3))
        np.testing.assert_array_equal(logits, [[0.0, 0.0]])

    def test_hand_computed(self):
        # hidden = relu([x1+x2, x1-x2]); logits = [h1, h1+2*h2] + (1, -1)
        mlp = MLP(
            w1=np.array([[1.0, 1.0], [1.0, -1.0]]),
            b1=np.zeros((1, 2)),
            w2=np.array([[1.0, 1.0], [0.0, 2.0]]),
            b2=np.array([[1.0, -1.0]]),
        )
        out, _ = mlp.forward(np.array([2.0, 1.0]))
        # hidden = [3, 1], logits = [3+1, 3+2-1] = [4, 4]
        np.testing.assert_allclose(out, [[4.0, 4.0]])

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        mlp = MLP.init(4, 6, 2, seed=9)
        x = rng.normal(size=(5, 4))
        y = np.array([0, 1, 1, 0, 1])

        def loss_fn():
            logits, _ = mlp.forward(x)
            loss, _ = cross_entropy(logits, y)
            return loss

        logits, cache = mlp.forward(x)
        _, dlogits = cross_entropy(logits, y)
        analytic = mlp.backward(cache, dlogits)
        numeric = finite_diff_grads(loss_fn, mlp.params)
        assert max_rel_error(analytic, numeric) < 1e-4


class TestLosses:
    def test_cross_entropy_uniform_logits(self):
        loss, _ = cross_entropy(np.array([[0.0, 0.0]]), [1])
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_bce_zero_score(self):
        for label in (0.0, 1.0):
            loss, _ = bce_with_logits(np.array([0.0]), np.array([label]))
            assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_info_nce_uniform(self):
        # equal similarity everywhere: loss = log(1 + K)
        loss, dpos, dneg = info_nce(np.array([0.5]), np.array([[0.5, 0.5, 0.5]]), 0.5)
        assert loss == pytest.approx(math.log(4), abs=1e-12)
        # gradient pushes the positive up and negatives down
        assert dpos[0] < 0 and np.all(dneg > 0)

    def test_nonfinite_raises(self):
        with pytest.raises(FloatingPointError):
            cross_entropy(np.array([[np.inf, 0.0]]), [0])


class TestAdam:
    def test_zero_gradient_noop(self):
        params = ParamSet({"w": np.array([[1.0, -2.0]])})
        state = AdamState.init(params, lr=0.1)
        adam_step(state, params, params.zeros_like())
        np.testing.assert_array_equal(params.tensors["w"], [[1.0, -2.0]])
        assert state.step == 1

    def test_first_step_sign_direction(self):
        params = ParamSet({"w": np.array([[0.0]])})
        state = AdamState.init(params, lr=0.05)
        grads = ParamSet({"w": np.array([[3.0]])})
        adam_step(state, params, grads)
        # bias correction makes m_hat / sqrt(v_hat) = sign(g) on step one
        assert params.tensors["w"][0, 0] == pytest.approx(-0.05, rel=1e-6)

    def test_bit_identical_runs(self):
        def run():
            params = ParamSet({"w": np.array([[1.0, 2.0], [3.0, 4.0]])})
            state = AdamState.init(params, lr=0.01)
            for i in range(25):
                grads = ParamSet({"w": np.sin(params.tensors["w"] + i)})
                adam_step(state, params, grads)
            return params.tensors["w"]

        np.testing.assert_array_equal(run(), run())

    def test_matches_per_tensor_reference(self):
        # the update is element-wise, so one vector gives the bytes of a
        # loop over the tensors
        rng = np.random.default_rng(8)
        params = ParamSet({"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(1, 5))})
        want = {k: t.copy() for k, t in params.items()}
        m = {k: np.zeros_like(t) for k, t in want.items()}
        v = {k: np.zeros_like(t) for k, t in want.items()}
        state = AdamState.init(params, lr=0.01)
        for step in range(1, 11):
            grads = ParamSet({k: rng.normal(size=t.shape) for k, t in want.items()})
            adam_step(state, params, grads)
            for k, t in want.items():
                g = grads.tensors[k]
                m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
                v[k] = 0.999 * v[k] + (1.0 - 0.999) * (g * g)
                t -= 0.01 * (m[k] / (1.0 - 0.9 ** step)) / (np.sqrt(v[k] / (1.0 - 0.999 ** step)) + 1e-8)
        for k, t in want.items():
            np.testing.assert_array_equal(params.tensors[k], t)

    def test_shape_mismatch(self):
        params = ParamSet({"w": np.zeros((2, 2))})
        state = AdamState.init(params, lr=1e-3)
        with pytest.raises(ShapeError):
            adam_step(state, params, ParamSet({"w": np.zeros((1, 2))}))


class TestMinimize:
    @staticmethod
    def quadratic(params, target):
        """0.5 * ||w - target||^2 and its gradient at the live parameters."""
        def loss_and_grads(_):
            diff = params.vector - target
            return 0.5 * float(diff @ diff), ParamSet.over(diff.copy(), params.layout)
        return loss_and_grads

    def test_matches_hand_written_adam(self):
        rng = np.random.default_rng(3)
        params = ParamSet({"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(1, 2))})
        target = rng.normal(size=params.vector.shape)
        w = params.vector.copy()
        m, v, want_history = np.zeros_like(w), np.zeros_like(w), []
        for step in range(1, 16):
            g = w - target
            want_history.append(0.5 * float(g @ g))
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * (g * g)
            w = w - 0.05 * (m / (1.0 - 0.9 ** step)) / (np.sqrt(v / (1.0 - 0.999 ** step)) + 1e-8)
        history = minimize(params, 0.05, 15, self.quadratic(params, target), "quadratic",
                           lambda k: f"step {k}")
        np.testing.assert_array_equal(params.vector, w)
        assert history == want_history

    def test_non_finite_loss_names_the_step_and_stops_before_it(self):
        rng = np.random.default_rng(4)
        start = ParamSet({"w": rng.normal(size=(3, 2))})
        target = rng.normal(size=start.vector.shape)
        want = start.copy()
        minimize(want, 0.1, 3, self.quadratic(want, target), "quadratic", lambda k: f"step {k}")

        params = start.copy()
        finite = self.quadratic(params, target)

        def nan_at_three(k):
            loss, grads = finite(k)
            return (np.nan if k == 3 else loss), grads

        with pytest.raises(NumericError, match="^quadratic diverged at step 3$"):
            minimize(params, 0.1, 6, nan_at_three, "quadratic", lambda k: f"step {k}")
        np.testing.assert_array_equal(params.vector, want.vector)

    def test_kernel_error_gets_the_stage_and_step(self):
        rng = np.random.default_rng(4)
        params = ParamSet({"w": rng.normal(size=(3, 2))})
        finite = self.quadratic(params, rng.normal(size=params.vector.shape))

        def kernel_fails_at_two(k):
            if k == 2:
                raise NumericError("non-finite cross-entropy")
            return finite(k)

        with pytest.raises(NumericError, match="^quadratic diverged at step 2: "
                                               "non-finite cross-entropy$") as info:
            minimize(params, 0.1, 6, kernel_fails_at_two, "quadratic", lambda k: f"step {k}")
        assert isinstance(info.value.__cause__, NumericError)

    def test_zero_steps_leave_parameters_untouched(self):
        params = ParamSet({"w": np.array([[1.0, -2.0]])})
        calls = []
        history = minimize(params, 0.1, 0, lambda k: calls.append(k), "none",
                           lambda k: f"step {k}")
        assert history == [] and calls == []
        np.testing.assert_array_equal(params.vector, [1.0, -2.0])
