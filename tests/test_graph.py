from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

from graphmia.graph import (
    BallStack,
    DegenerateSplitError,
    Graph,
    GraphFormatError,
    NodeRangeError,
    ball_matrix,
    graph_fingerprint,
    induced_subgraph,
    load_graph,
    partition_shadow,
    perturb_edges,
    split_half,
)

import graphmia.victim as victim_mod
from graphmia.rng import substream
from graphmia.victim import _augment_draws, augment_graph, view_stack

from conftest import assert_block, path_graph, triangle_graph, view_graph


def write_graph_files(tmp_path, edges_text: str, features_text: str):
    edge_path = tmp_path / "edges.tsv"
    feat_path = tmp_path / "features.txt"
    edge_path.write_text(edges_text, encoding="utf-8")
    feat_path.write_text(features_text, encoding="utf-8")
    return edge_path, feat_path


class TestLoadGraph:
    def test_basic_load(self, tmp_path):
        edge_path, feat_path = write_graph_files(
            tmp_path,
            "# comment line\n0\t1\n1\t2\n",
            "3 2\n1.0 0.5\n0.0 2.0\n3.0 4.0\n",
        )
        g = load_graph(edge_path, feat_path, domain_id=3)
        assert (g.num_nodes, g.num_edges, g.feature_dim, g.domain_id) == (3, 2, 2, 3)
        assert list(g.neighbors(1)) == [0, 2] and 2 not in g.neighbors(0)
        assert g.features[2, 1] == 4.0

    def test_empty_edges_three_rows(self, tmp_path):
        edge_path, feat_path = write_graph_files(tmp_path, "", "3 1\n1\n2\n3\n")
        g = load_graph(edge_path, feat_path, domain_id=0)
        assert (g.num_nodes, g.num_edges) == (3, 0)

    def test_dedup_and_self_loops(self, tmp_path, caplog):
        edge_path, feat_path = write_graph_files(
            tmp_path,
            "0\t1\n1\t2\n0\t2\n1\t0\n2\t2\n",
            "3 1\n0\n0\n0\n",
        )
        g = load_graph(edge_path, feat_path, domain_id=0)
        assert g.num_edges == 3
        assert "dropped 1 self-loop(s) and 1 duplicate edge(s)" in caplog.text

    def test_malformed_line_reports_lineno(self, tmp_path):
        edge_path, feat_path = write_graph_files(tmp_path, "0\t1\nbogus\n", "2 1\n0\n0\n")
        with pytest.raises(GraphFormatError, match=":2"):
            load_graph(edge_path, feat_path, domain_id=0)

    def test_edge_out_of_range(self, tmp_path):
        edge_path, feat_path = write_graph_files(tmp_path, "0\t7\n", "2 1\n0\n0\n")
        with pytest.raises(NodeRangeError):
            load_graph(edge_path, feat_path, domain_id=0)

    def test_feature_row_mismatch(self, tmp_path):
        edge_path, feat_path = write_graph_files(tmp_path, "", "3 2\n1 2\n3 4\n")
        with pytest.raises(GraphFormatError):
            load_graph(edge_path, feat_path, domain_id=0)

    def test_feature_width_mismatch(self, tmp_path):
        edge_path, feat_path = write_graph_files(tmp_path, "", "2 2\n1 2\n3\n")
        with pytest.raises(GraphFormatError, match="expected 2 values"):
            load_graph(edge_path, feat_path, domain_id=0)

    def test_feature_rows_beyond_header(self, tmp_path):
        edge_path, feat_path = write_graph_files(
            tmp_path, "", "2 2\n1 2\n3 4\n\n5 6\n7 8\n"
        )
        with pytest.raises(GraphFormatError, match=r"features\.txt:5: "):
            load_graph(edge_path, feat_path, domain_id=0)

    @pytest.mark.parametrize("features_text", ["-1 3\n", "2 -1\n\n\n", "3 0\n\n\n\n"],
                             ids=["negative-n", "negative-d", "zero-d"])
    def test_header_needs_nonnegative_n_and_positive_d(self, tmp_path, features_text):
        edge_path, feat_path = write_graph_files(tmp_path, "", features_text)
        with pytest.raises(GraphFormatError, match=r"features\.txt:1: "):
            load_graph(edge_path, feat_path, domain_id=0)

    def test_trailing_blank_feature_lines(self, tmp_path):
        edge_path, feat_path = write_graph_files(tmp_path, "", "2 1\n1\n2\n\n  \n")
        assert load_graph(edge_path, feat_path, domain_id=0).num_nodes == 2


class TestFromEdges:
    @pytest.mark.parametrize("edge", [(0, 3), (3, 0), (-1, 1), (1, -2)])
    def test_out_of_range(self, edge):
        with pytest.raises(NodeRangeError):
            Graph.from_edges(3, [(0, 1), edge], np.zeros((3, 1)))

    def test_self_loop(self):
        with pytest.raises(GraphFormatError, match="self-loop at node 2"):
            Graph.from_edges(3, [(0, 1), (2, 2)], np.zeros((3, 1)))

    @pytest.mark.parametrize("dup", [(0, 1), (1, 0)])
    def test_duplicate_either_orientation(self, dup):
        with pytest.raises(GraphFormatError, match=r"duplicate edge \(0, 1\)"):
            Graph.from_edges(3, [(0, 1), (1, 2), dup], np.zeros((3, 1)))

    @pytest.mark.parametrize("features", [np.zeros((2, 1)), np.zeros((4, 1)), np.zeros(3)])
    def test_feature_row_mismatch(self, features):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(3, [(0, 1)], features)

    def test_arrays_read_only(self):
        g = triangle_graph(extra_nodes=1)
        for arr in (g.indptr, g.indices, g.features, g.edge_array, g.neighbors(0)):
            assert not arr.flags.writeable

    def test_entry_edges_and_row_entries(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 3), (3, 4)], np.zeros((6, 1)))
        for pos, edge in enumerate(g.entry_edges):
            u = int(np.searchsorted(g.indptr, pos, side="right")) - 1
            assert sorted((u, int(g.indices[pos]))) == g.edge_array[edge].tolist()
        assert g.indices[g.row_entries(np.array([3, 5, 0, 2]))].tolist() == [0, 4, 1, 3, 1]
        assert len(g.row_entries(np.array([5], dtype=np.int64))) == 0

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_csr_invariants(self, data):
        # a hub adjacent to every non-isolated node, random edges among the
        # rest and at least one isolated node, under a random relabelling
        n = data.draw(st.integers(3, 24))
        active = data.draw(st.integers(2, n - 1))
        pairs = [(u, v) for u in range(1, active) for v in range(u + 1, active)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        ids = data.draw(st.permutations(range(n)))
        canon = {
            (min(ids[u], ids[v]), max(ids[u], ids[v]))
            for u, v in [(0, w) for w in range(1, active)] + chosen
        }
        listed = data.draw(st.permutations(sorted(canon)))
        flips = data.draw(st.lists(st.booleans(), min_size=len(listed), max_size=len(listed)))
        edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(listed, flips)]
        features = np.arange(n, dtype=float)[:, None]
        g = Graph.from_edges(n, edges, features)

        assert g.edge_array.tolist() == [list(e) for e in sorted(canon)]
        both = {(u, int(v)) for u in range(n) for v in g.neighbors(u)}
        assert both == canon | {(v, u) for u, v in canon}
        for u in range(n):
            assert (np.diff(g.neighbors(u)) > 0).all()
        assert len(g.neighbors(ids[0])) == active - 1
        assert len(g.neighbors(ids[n - 1])) == 0

        keep = data.draw(st.sets(st.integers(0, n - 1)))
        order = sorted(keep)
        relabel = {v: i for i, v in enumerate(order)}
        sub = induced_subgraph(g, keep)
        expected = sorted((relabel[u], relabel[v]) for u, v in canon if u in keep and v in keep)
        assert sub.num_nodes == len(order)
        assert sub.edge_array.tolist() == [list(e) for e in expected]
        np.testing.assert_array_equal(sub.features, features[order])


class TestSplitHalf:
    def test_even_split_sizes(self):
        g = Graph.from_edges(2708, [], np.zeros((2708, 1)))
        members, nonmembers = split_half(g, seed=7)
        assert (len(members), len(nonmembers)) == (1354, 1354)
        assert not np.intersect1d(members, nonmembers).size

    def test_odd_split(self):
        g = Graph.from_edges(5, [], np.zeros((5, 1)))
        members, nonmembers = split_half(g, seed=0)
        assert (len(members), len(nonmembers)) == (3, 2)

    def test_deterministic(self):
        g = path_graph(9)
        for a, b in zip(split_half(g, 42), split_half(g, 42)):
            np.testing.assert_array_equal(a, b)
        assert not np.array_equal(split_half(g, 42)[0], split_half(g, 43)[0])

    def test_degenerate(self):
        g = Graph.from_edges(1, [], np.zeros((1, 1)))
        with pytest.raises(DegenerateSplitError):
            split_half(g, 0)

    @given(n=st.integers(2, 60), seed=st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_partition_property(self, n, seed):
        g = Graph.from_edges(n, [], np.zeros((n, 1)))
        members, nonmembers = split_half(g, seed)
        for part in (members, nonmembers):
            assert part.dtype == np.int64 and (np.diff(part) > 0).all()
        np.testing.assert_array_equal(np.sort(np.concatenate([members, nonmembers])), np.arange(n))


class TestPartitionShadow:
    def test_sizes(self):
        g = Graph.from_edges(100, [], np.zeros((100, 1)))
        assert tuple(len(part) for part in partition_shadow(g, 0.2, seed=1)) == (20, 40, 40)

    def test_degenerate_rounding(self):
        g = Graph.from_edges(10, [], np.zeros((10, 1)))
        with pytest.raises(DegenerateSplitError):
            partition_shadow(g, 0.9, seed=1)

    def test_two_seeds_differ_same_sizes(self):
        g = Graph.from_edges(1000, [], np.zeros((1000, 1)))
        p1 = partition_shadow(g, 0.2, seed=1)
        p2 = partition_shadow(g, 0.2, seed=2)
        assert not np.array_equal(p1[0], p2[0])
        assert len(p1[0]) == len(p2[0]) == 200
        assert len(p1[1]) == len(p2[1]) == 400

    @given(n=st.integers(20, 200), seed=st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_exact_cover(self, n, seed):
        g = Graph.from_edges(n, [], np.zeros((n, 1)))
        parts = partition_shadow(g, 0.2, seed)
        for part in parts:
            assert part.dtype == np.int64 and len(part) and (np.diff(part) > 0).all()
        np.testing.assert_array_equal(np.sort(np.concatenate(parts)), np.arange(n))


class TestInducedSubgraph:
    def test_triangle_pair(self):
        sub = induced_subgraph(triangle_graph(), {0, 1})
        assert (sub.num_nodes, sub.num_edges) == (2, 1)

    def test_identity(self):
        g = triangle_graph(extra_nodes=2)
        sub = induced_subgraph(g, range(g.num_nodes))
        assert [list(sub.neighbors(u)) for u in range(sub.num_nodes)] == \
            [list(g.neighbors(u)) for u in range(g.num_nodes)]
        np.testing.assert_array_equal(sub.features, g.features)

    def test_path_subset(self):
        # path 0-1-2-3, keep {0, 2, 3}: only edge (2,3) survives, relabeled (1,2)
        sub = induced_subgraph(path_graph(4), {0, 2, 3})
        assert sub.num_edges == 1
        assert 2 in sub.neighbors(1)
        np.testing.assert_array_equal(sub.features[0], path_graph(4).features[0])

    def test_out_of_range(self):
        with pytest.raises(NodeRangeError):
            induced_subgraph(triangle_graph(), {0, 9})


@st.composite
def graphs_with_isolated(draw):
    """Random graphs on 1..16 nodes whose trailing 1..3 nodes (when there
    are that many) have no edge."""
    n = draw(st.integers(1, 16))
    core = n - draw(st.integers(1, min(3, n)))
    pairs = [(u, v) for u in range(core) for v in range(u + 1, core)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    feats = np.random.default_rng(draw(st.integers(0, 2**16))).normal(size=(n, 3))
    return Graph.from_edges(n, edges, feats, domain_id=draw(st.integers(0, 3)))


def assert_same_bytes(got: Graph, want: Graph) -> None:
    """Equal CSR arrays, features and normalized adjacency, byte for byte,
    with the derived graph's arrays read-only."""
    assert got.domain_id == want.domain_id
    pairs = [(got.indptr, want.indptr), (got.indices, want.indices),
             (got.features, want.features)]
    for arr, _ in pairs:
        assert not arr.flags.writeable
    a, b = got.gcn_matrix, want.gcn_matrix
    pairs += [(a.data, b.data), (a.indices, b.indices), (a.indptr, b.indptr)]
    for x, y in pairs:
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


class TestCsrSlices:
    """An induced subgraph is a slice of the parent's CSR and a view a
    block of a stacked operator; each must equal a validating
    ``from_edges`` rebuild of the same edges."""

    @given(graph=graphs_with_isolated(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_induced_subgraph_matches_rebuild(self, graph, data):
        n = graph.num_nodes
        drawn = data.draw(st.sets(st.integers(0, n - 1)))
        for keep in (drawn, {data.draw(st.integers(0, n - 1))}, range(n)):
            order = np.array(sorted(keep), dtype=np.int64)
            relabel = {int(v): i for i, v in enumerate(order)}
            edges = [(relabel[u], relabel[v]) for u, v in graph.edge_array.tolist()
                     if u in relabel and v in relabel]
            want = Graph.from_edges(len(order), edges, graph.features[order],
                                    domain_id=graph.domain_id)
            assert_same_bytes(induced_subgraph(graph, keep), want)

    @given(graph=graphs_with_isolated(), rate=st.sampled_from([0.0, 0.3, 1.0]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_view_matches_rebuild(self, graph, rate, seed):
        """A view is its two masks; every stacked block built from them
        holds the bits of the view graph rebuilt from its kept edges."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(victim_mod, "EDGE_DROP_RATE", rate)
            keep_edges, drop_cols = _augment_draws(graph, substream(seed, "augment"))
            got_keep, got_drop = augment_graph(graph, seed)
        assert got_keep.tobytes() == keep_edges.tobytes() and got_drop.tobytes() == drop_cols.tobytes()
        view = view_graph(graph, keep_edges, drop_cols)
        x, a_hat = view_stack(graph, keep_edges[None], drop_cols[None])
        assert_block(x, a_hat.full, a_hat.bounds, 0, graph.features, graph.gcn_matrix)
        assert_block(x, a_hat.full, a_hat.bounds, 1, view.features, view.gcn_matrix)
        # a per-node block: the view at a ball, with the view's degrees
        ball = np.arange(0, graph.num_nodes, 2)
        stack = BallStack.of(graph, [np.arange(graph.num_nodes), ball])
        x, a_hat = stack.views(np.stack([keep_edges] * 2), np.stack([drop_cols] * 2))
        assert_block(x, a_hat, stack.bounds, 0, view.features, view.gcn_matrix)
        assert_block(x, a_hat, stack.bounds, 1, view.features[ball], ball_matrix(view, ball))
        if rate == 0.0:
            assert view.num_edges == graph.num_edges
        if rate == 1.0:
            assert view.num_edges == 0


class TestPerturbEdges:
    def test_zero_budget_identity(self, small_sbm):
        out = perturb_edges(small_sbm, 0.0, seed=3)
        assert graph_fingerprint(out) == graph_fingerprint(small_sbm)

    def test_triangle_one_action(self):
        # complete 3-node graph: deletion leaves 2 edges, an insertion
        # attempt is impossible and becomes a no-op leaving 3
        results = {perturb_edges(triangle_graph(), 1 / 3, seed=s).num_edges for s in range(12)}
        assert results <= {2, 3}
        assert 2 in results and 3 in results

    def test_action_count_parity_and_bound(self):
        g = sbm_1000_edges()
        out = perturb_edges(g, 0.15, seed=11)
        before = {tuple(e) for e in g.edge_array.tolist()}
        after = {tuple(e) for e in out.edge_array.tolist()}
        delta = len(before ^ after)
        # exactly 150 actions: each flips edge presence once, so the
        # symmetric difference has the same parity and cannot exceed it
        assert delta <= 150
        assert delta % 2 == 150 % 2

    def test_input_unchanged(self, small_sbm):
        fp = graph_fingerprint(small_sbm)
        perturb_edges(small_sbm, 0.5, seed=9)
        assert graph_fingerprint(small_sbm) == fp

    def test_deterministic(self, small_sbm):
        a = perturb_edges(small_sbm, 0.3, seed=5)
        b = perturb_edges(small_sbm, 0.3, seed=5)
        assert graph_fingerprint(a) == graph_fingerprint(b)

    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_no_self_loops_or_duplicates(self, seed):
        g = path_graph(8)
        out = perturb_edges(g, 1.0, seed=seed)
        seen = set()
        for u in range(out.num_nodes):
            for v in out.neighbors(u):
                assert u != v
                assert (u, int(v)) not in seen
                seen.add((u, int(v)))
                assert u in out.neighbors(int(v))

    @pytest.mark.parametrize("num_nodes, edges", [
        (5, [(0, 1), (1, 2), (2, 3)]),  # a 3-edge path and an isolated node
        (4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]),
    ])
    def test_law_matches_sequential_edits(self, num_nodes, edges):
        # at budget 1.0 the graph takes one action per edge; over seeds
        # 0..5999 each final edge set must appear as often as the exact law
        # of the sequential edits says, within the 0.999 quantile of chi^2
        # on (number of reachable edge sets - 1) degrees of freedom
        g = Graph.from_edges(num_nodes, edges, np.zeros((num_nodes, 1)))
        law = sequential_edit_law(num_nodes, edges, len(edges))
        seeds = 6000
        counts: dict[frozenset, int] = {}
        for seed in range(seeds):
            out = frozenset(map(tuple, perturb_edges(g, 1.0, seed).edge_array.tolist()))
            counts[out] = counts.get(out, 0) + 1
        assert set(counts) <= set(law)
        expected = np.array([p * seeds for p in law.values()])
        observed = np.array([counts.get(edge_set, 0) for edge_set in law])
        stat = float(((observed - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.999, len(law) - 1)

    @pytest.mark.parametrize("num_nodes, edges", [
        (0, []),
        (1, []),
        (2, []),
        (2, [(0, 1)]),
        (6, []),
        (6, list(itertools.combinations(range(6), 2))),
    ], ids=["0-nodes", "1-node", "2-nodes", "2-nodes-1-edge", "edgeless", "complete"])
    @pytest.mark.parametrize("seed", range(5))
    def test_degenerate_graphs_stay_valid(self, num_nodes, edges, seed):
        g = Graph.from_edges(num_nodes, edges, np.arange(num_nodes, dtype=float)[:, None],
                             domain_id=2)
        out = perturb_edges(g, 1.0, seed)
        rebuilt = Graph.from_edges(num_nodes, out.edge_array, out.features, domain_id=2)
        assert_same_bytes(out, rebuilt)
        np.testing.assert_array_equal(out.features, g.features)
        if not edges:
            assert out.num_edges == 0


def sequential_edit_law(num_nodes: int, edges, actions: int) -> dict[frozenset, float]:
    """Exact distribution of the final edge set after ``actions`` sequential
    edits, by dynamic programming over every edge set: each action deletes
    a uniform present pair or inserts a uniform absent one with chance 1/2
    each, and an impossible action leaves the set as it is."""
    pairs = list(itertools.combinations(range(num_nodes), 2))
    law = {frozenset(map(tuple, edges)): 1.0}
    for _ in range(actions):
        step: dict[frozenset, float] = {}
        for edge_set, p in law.items():
            absent = [e for e in pairs if e not in edge_set]
            for choices, edit in ((sorted(edge_set), edge_set.difference),
                                  (absent, edge_set.union)):
                if not choices:
                    step[edge_set] = step.get(edge_set, 0.0) + p / 2
                for e in choices:
                    key = edit({e})
                    step[key] = step.get(key, 0.0) + p / 2 / len(choices)
        law = step
    return law


def sbm_1000_edges() -> Graph:
    # deterministic graph with exactly 1000 edges
    rng = np.random.default_rng(0)
    edges = set()
    while len(edges) < 1000:
        u, v = rng.integers(0, 200, size=2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(200, sorted(edges), np.zeros((200, 1)))


class TestFingerprint:
    def test_equal_graphs_equal_hash(self):
        assert graph_fingerprint(triangle_graph()) == graph_fingerprint(triangle_graph())

    def test_structure_changes_hash(self):
        a = triangle_graph()
        b = induced_subgraph(a, {0, 1, 2})
        assert graph_fingerprint(a) == graph_fingerprint(b)
        c = Graph.from_edges(3, [(0, 1)], a.features)
        assert graph_fingerprint(a) != graph_fingerprint(c)
