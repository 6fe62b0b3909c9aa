"""Immutable undirected graphs: loading, splits, subgraphs, perturbation.

A :class:`Graph` stores its structure once, in compressed sparse row (CSR)
form over both edge orientations, plus a dense node-feature matrix.  It
never changes after construction, so it can be shared freely across
concurrent pipeline stages.  All randomized operations take an explicit
seed and derive their stream through :mod:`graphmia.rng`.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .rng import substream

log = logging.getLogger(__name__)


class GraphFormatError(ValueError):
    """Malformed edge or feature file."""


class NodeRangeError(ValueError):
    """An edge or node set references a node id outside the graph."""


class DegenerateSplitError(ValueError):
    """A requested split would leave some part empty."""


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def rank_to_id(excluded: np.ndarray, ranks) -> np.ndarray:
    """The ``ranks``-th (from 0) non-negative integers outside the sorted,
    distinct ``excluded``: an exact, order-keeping bijection of [0, pool)
    onto the complement, applied to every rank in one call.

    ``excluded[k] - k`` eligible integers lie below ``excluded[k]``, so the
    r-th eligible one lies past it exactly when that count is at most r.
    Every negative and every inserted edge is a uniform rank mapped here."""
    return ranks + np.searchsorted(excluded - np.arange(len(excluded)), ranks, side="right")


def triu_pair(size: int, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of the strictly-upper-triangle pairs at the given
    row-major positions, in the order of ``np.triu_indices(size, k=1)``,
    using O(len(index)) memory instead of O(size^2).  Pair (u, v), u < v,
    sits at position u(2 size - u - 1)/2 + v - u - 1.

    Counted from the last pair, position q lies in the row k from the
    bottom with k(k+1)/2 <= q < (k+1)(k+2)/2.  A float square root gives
    k to within one; integer comparisons then make it exact.
    """
    index = np.asarray(index, dtype=np.int64)
    q = size * (size - 1) // 2 - 1 - index
    k = ((np.sqrt(8.0 * q + 1.0) - 1.0) // 2.0).astype(np.int64)
    k += (k + 1) * (k + 2) // 2 <= q
    k -= k * (k + 1) // 2 > q
    row = size - 2 - k
    col = index - row * (2 * size - row - 1) // 2 + row + 1
    return row, col


@dataclass(frozen=True)
class Graph:
    """Undirected graph in CSR form.

    Node ``u``'s neighbors are ``indices[indptr[u]:indptr[u + 1]]``, strictly
    increasing; every edge appears in both orientations.  ``indptr`` and
    ``indices`` are int64, the feature matrix is float64 with one row per
    node, and all three are read-only.  An edge list from outside, or a
    generated one, goes through :meth:`from_edges`, which enforces the
    invariants (symmetry, no self-loops, no duplicates).  An induced
    subgraph is a slice of its parent's CSR, valid by construction; an
    augmented view is no graph at all, but a block of a :class:`BallStack`
    under an edge and a column mask.  The raw constructor serves neither.
    """

    indptr: np.ndarray
    indices: np.ndarray
    features: np.ndarray
    domain_id: int = 0

    @property
    def num_nodes(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbor ids of ``node`` (a read-only view)."""
        return self.indices[self.indptr[node]:self.indptr[node + 1]]

    def _rows(self) -> np.ndarray:
        """Source node of every entry of ``indices``."""
        return np.repeat(np.arange(self.num_nodes, dtype=np.int64), np.diff(self.indptr))

    @cached_property
    def edge_array(self) -> np.ndarray:
        """(num_edges, 2) int64 array of edges with u < v, lexicographic."""
        rows = self._rows()
        upper = rows < self.indices
        return _read_only(np.stack([rows[upper], self.indices[upper]], axis=1))

    @cached_property
    def edge_keys(self) -> np.ndarray:
        """Key ``u * num_nodes + v`` of each row (u, v) of ``edge_array``;
        strictly increasing, so an edge is found by binary search."""
        return _read_only(self.edge_array[:, 0] * self.num_nodes + self.edge_array[:, 1])

    @cached_property
    def entry_edges(self) -> np.ndarray:
        """Row of ``edge_array`` that each entry of ``indices`` belongs to."""
        rows = self._rows()
        keys = np.minimum(rows, self.indices) * self.num_nodes + np.maximum(rows, self.indices)
        return _read_only(np.searchsorted(self.edge_keys, keys))

    def row_entries(self, nodes: np.ndarray) -> np.ndarray:
        """Positions in ``indices`` of the neighbor entries of ``nodes``,
        row after row."""
        starts = self.indptr[nodes]
        counts = self.indptr[nodes + 1] - starts
        offsets = np.cumsum(counts) - counts
        return np.repeat(starts - offsets, counts) + np.arange(counts.sum(), dtype=np.int64)

    @cached_property
    def gcn_matrix(self) -> sp.csr_matrix:
        """Symmetric-normalized adjacency with self-loops, (D+I)^-1/2 (A+I) (D+I)^-1/2."""
        return ball_matrix(self, np.arange(self.num_nodes, dtype=np.int64))

    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: np.ndarray | list[tuple[int, int]],
        features: np.ndarray,
        domain_id: int = 0,
    ) -> "Graph":
        """Build a graph from an edge list in any order and orientation.

        Raises on a feature matrix without one row per node, then on the
        first out-of-range id, self-loop or duplicate edge (in either
        orientation), checked in that order.
        """
        features = np.ascontiguousarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] != num_nodes:
            raise GraphFormatError(
                f"feature matrix has {features.shape[0] if features.ndim == 2 else '?'} rows, "
                f"expected {num_nodes}"
            )
        u, v = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
        bad = (np.minimum(u, v) < 0) | (np.maximum(u, v) >= num_nodes)
        if bad.any():
            i = int(np.argmax(bad))
            raise NodeRangeError(f"edge ({u[i]}, {v[i]}) references node >= {num_nodes}")
        if (u == v).any():
            raise GraphFormatError(f"self-loop at node {u[np.argmax(u == v)]}")
        keys, counts = np.unique(
            np.minimum(u, v) * num_nodes + np.maximum(u, v), return_counts=True
        )
        if (counts > 1).any():
            key = int(keys[np.argmax(counts > 1)])
            raise GraphFormatError(f"duplicate edge ({key // num_nodes}, {key % num_nodes})")
        lo, hi = np.divmod(keys, num_nodes)
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        order = np.lexsort((dst, src))
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
        return cls(
            indptr=_read_only(indptr),
            indices=_read_only(dst[order]),
            features=_read_only(features.copy()),
            domain_id=int(domain_id),
        )


def ball_matrix(graph: Graph, ball: np.ndarray) -> sp.csr_matrix:
    """Â[ball, ball]: the rows and columns of the whole graph's normalized
    adjacency at the sorted ids ``ball``, with the whole graph's degrees
    (not renormalised), built from the CSR arrays in O(ball edges).  The
    one ball of a :class:`BallStack`, whose ``matrix`` is the one builder
    of Â: ``Graph.gcn_matrix`` is the whole-graph ball.

    With ``ball`` the L-hop neighbourhood of some targets, an L-layer
    encoder on this matrix embeds the targets exactly: layer k is exact on
    the (L-k)-hop neighbourhood, whose rows read only rows one hop further
    out.  Its backward pass starts at the targets and spreads one hop per
    layer, so every gradient equals the whole graph's as well.  The matrix
    is symmetric and serves as its own transpose, as Â does.
    """
    return BallStack.of(graph, [ball]).matrix()


@dataclass(frozen=True)
class BallStack:
    """The sorted node-id balls of B problems on one graph, stacked: row p
    is node ``ids[p]`` of block ``blocks[p]``, and block b holds rows
    ``bounds[b]:bounds[b + 1]``.  A ball may be every node, and may repeat.

    ``matrix()`` is Â at every ball at once, block-diagonally: each block
    is :func:`ball_matrix` of its ball, entry for entry and in the same
    order within each row.  ``matrix(keep)`` is the same for augmented
    views, block b's view keeping the graph's edge e where ``keep[b, e]``
    holds, with the view's degrees: one vectorised pass over the balls'
    CSR entries.  :meth:`views` adds the masked features; it is the one
    builder of every augmented view, whole-graph and per-node alike.
    """

    graph: Graph
    ids: np.ndarray
    bounds: np.ndarray

    @classmethod
    def of(cls, graph: Graph, balls) -> "BallStack":
        sizes = [len(b) for b in balls]
        bounds = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=bounds[1:])
        return cls(graph, np.concatenate([np.zeros(0, dtype=np.int64), *balls]), bounds)

    @cached_property
    def blocks(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.bounds) - 1), np.diff(self.bounds))

    @cached_property
    def features(self) -> np.ndarray:
        """The graph's feature row of every stacked row."""
        return self.graph.features[self.ids]

    @cached_property
    def _keys(self) -> np.ndarray:
        """Key block * n + id of each stacked row: strictly increasing."""
        return self.blocks * self.graph.num_nodes + self.ids

    def rows_of(self, blocks: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """Stacked row of each node in its block's ball (each must be in it)."""
        return np.searchsorted(self._keys, blocks * self.graph.num_nodes + nodes)

    @cached_property
    def _entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Every neighbour entry of every stacked row: its row and its
        position in ``graph.indices``."""
        g = self.graph
        entries = g.row_entries(self.ids)
        return np.repeat(np.arange(len(self.ids)), g.indptr[self.ids + 1] - g.indptr[self.ids]), entries

    @cached_property
    def _pattern(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows and columns of the block-diagonal A + I pattern, sorted by
        (row, column), and each entry's position in ``graph.indices`` (-1
        on the diagonal)."""
        rows, entries = self._entries
        size = len(self.ids)
        want = self.blocks[rows] * self.graph.num_nodes + self.graph.indices[entries]
        cols = np.searchsorted(self._keys, want)
        inside = self._keys[np.minimum(cols, size - 1)] == want
        r = np.concatenate([np.arange(size), rows[inside]])
        c = np.concatenate([np.arange(size), cols[inside]])
        src = np.concatenate([np.full(size, -1), entries[inside]])
        order = np.lexsort((c, r))
        return r[order], c[order], src[order]

    def views(self, keep_edges: np.ndarray, drop_cols: np.ndarray) -> tuple[np.ndarray, sp.csr_matrix]:
        """Features and Â of every block as an augmented view, block b keeping
        edge e where ``keep_edges[b, e]`` holds and masking feature column j
        where ``drop_cols[b, j]`` does: the bits that the view rebuilt as a
        graph gives, its features and ``ball_matrix`` at the block's ball."""
        return np.where(drop_cols[self.blocks], 0.0, self.features), self.matrix(keep_edges)

    def matrix(self, keep: np.ndarray | None = None) -> sp.csr_matrix:
        r, c, src = self._pattern
        size = len(self.ids)
        if keep is None:
            degree = self.graph.indptr[self.ids + 1] - self.graph.indptr[self.ids]
        else:
            rows, entries = self._entries
            edges = self.graph.entry_edges
            degree = np.bincount(rows[keep[self.blocks[rows], edges[entries]]], minlength=size)
            on = src < 0
            off = ~on
            on[off] = keep[self.blocks[r[off]], edges[src[off]]]
            r, c = r[on], c[on]
        inv_sqrt = 1.0 / np.sqrt(degree.astype(np.float64) + 1.0)
        indptr = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(np.bincount(r, minlength=size), out=indptr[1:])
        return sp.csr_matrix((inv_sqrt[r] * inv_sqrt[c], c, indptr), shape=(size, size))


def graph_fingerprint(graph: Graph) -> str:
    """SHA-256 over structure and features; equal graphs hash equal."""
    h = hashlib.sha256()
    h.update(f"n={graph.num_nodes};d={graph.feature_dim};dom={graph.domain_id};".encode())
    h.update(graph.edge_array.tobytes())
    h.update(np.ascontiguousarray(graph.features).tobytes())
    return h.hexdigest()


def load_graph(edge_path: str | Path, feature_path: str | Path, domain_id: int) -> Graph:
    """Load a graph from an edge file and a feature file.

    Edge file: one ``u<TAB>v`` pair per line, 0-based decimal ids, lines
    starting with ``#`` ignored.  Feature file: header line ``n d`` followed
    by n lines of d space-separated reals, then only blank lines.
    Self-loops and duplicate edges are dropped with a logged count.
    """
    feature_path = Path(feature_path)
    edge_path = Path(edge_path)

    with feature_path.open("r", encoding="utf-8") as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 2:
            raise GraphFormatError(f"{feature_path}:1: expected header 'n d', got {header!r}")
        try:
            num_nodes, dim = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"{feature_path}:1: non-integer header: {header!r}") from exc
        if num_nodes < 0 or dim < 1:
            raise GraphFormatError(f"{feature_path}:1: header needs n >= 0 and d >= 1: {header!r}")
        features = np.empty((num_nodes, dim), dtype=np.float64)
        for i in range(num_nodes):
            line = fh.readline()
            if not line:
                raise GraphFormatError(
                    f"{feature_path}: expected {num_nodes} feature rows, file ended at row {i}"
                )
            row = line.split()
            if len(row) != dim:
                raise GraphFormatError(
                    f"{feature_path}:{i + 2}: expected {dim} values, got {len(row)}"
                )
            try:
                features[i] = [float(x) for x in row]
            except ValueError as exc:
                raise GraphFormatError(f"{feature_path}:{i + 2}: non-numeric value") from exc
        for lineno, line in enumerate(fh, start=num_nodes + 2):
            if line.strip():
                raise GraphFormatError(
                    f"{feature_path}:{lineno}: more feature rows than the {num_nodes} in the header"
                )

    edges: list[tuple[int, int]] = []
    with edge_path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t") if "\t" in line else line.split()
            if len(parts) != 2:
                raise GraphFormatError(f"{edge_path}:{lineno}: expected 'u<TAB>v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(f"{edge_path}:{lineno}: non-integer node id") from exc
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise NodeRangeError(
                    f"{edge_path}:{lineno}: edge ({u}, {v}) references node >= {num_nodes}"
                )
            edges.append((u, v))
    pairs = np.sort(np.array(edges, dtype=np.int64).reshape(-1, 2), axis=1)
    loops = pairs[:, 0] == pairs[:, 1]
    unique = np.unique(pairs[~loops], axis=0)
    dropped_self = int(loops.sum())
    dropped_dup = len(pairs) - dropped_self - len(unique)
    if dropped_self or dropped_dup:
        log.warning(
            "%s: dropped %d self-loop(s) and %d duplicate edge(s)",
            edge_path, dropped_self, dropped_dup,
        )
    return Graph.from_edges(num_nodes, unique, features, domain_id=domain_id)


def split_half(graph: Graph, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Random half/half node split as two sorted int64 id arrays; the first
    part gets the extra node for odd n."""
    n = graph.num_nodes
    if n < 2:
        raise DegenerateSplitError(f"cannot halve a graph with {n} node(s)")
    perm = substream(seed, "split-half").permutation(n)
    k = math.ceil(n / 2)
    return np.sort(perm[:k]), np.sort(perm[k:])


def partition_sizes(n: int, unlearn_fraction: float) -> tuple[int, int, int]:
    """Unlearn / train / test sizes of :func:`partition_shadow` on ``n``
    nodes: ``round(unlearn_fraction * n)`` unlearn nodes, the remainder
    halved (train receives the extra node for odd remainders)."""
    n_unlearn = int(round(unlearn_fraction * n))
    n_train = math.ceil((n - n_unlearn) / 2)
    return n_unlearn, n_train, n - n_unlearn - n_train


def partition_shadow(
    graph: Graph, unlearn_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a shadow graph into disjoint, non-empty unlearn / train / test
    node sets of :func:`partition_sizes`, each a sorted int64 id array."""
    if not 0.0 < unlearn_fraction < 1.0:
        raise ValueError("unlearn_fraction must lie in (0, 1)")
    n = graph.num_nodes
    n_unlearn, n_train, n_test = partition_sizes(n, unlearn_fraction)
    if min(n_unlearn, n_train, n_test) < 1:
        raise DegenerateSplitError(
            f"fraction {unlearn_fraction} on {n} nodes yields sizes "
            f"({n_unlearn}, {n_train}, {n_test})"
        )
    perm = substream(seed, "partition-shadow").permutation(n)
    cut = n_unlearn + n_train
    return np.sort(perm[:n_unlearn]), np.sort(perm[n_unlearn:cut]), np.sort(perm[cut:])


def induced_subgraph(graph: Graph, nodes) -> Graph:
    """Subgraph over ``nodes``, relabeled 0..k-1 by ascending original id: a
    slice of the parent's CSR, valid as the parent is, so nothing is checked."""
    order = np.sort(np.fromiter(nodes, dtype=np.int64))
    if len(order) and (order[0] < 0 or order[-1] >= graph.num_nodes):
        raise NodeRangeError("node set references ids outside the graph")
    if (order[1:] == order[:-1]).any():
        raise ValueError("node set contains duplicates")
    inside = np.zeros(graph.num_nodes, dtype=bool)
    inside[order] = True
    keep = inside[graph._rows()] & inside[graph.indices]
    ends = np.concatenate([[0], np.cumsum(keep, dtype=np.int64)])[graph.indptr]
    indptr = np.concatenate([[0], np.cumsum(np.diff(ends)[order])])
    indices = np.searchsorted(order, graph.indices[keep])
    return Graph(_read_only(indptr), _read_only(indices), _read_only(graph.features[order]),
                 graph.domain_id)


def perturb_edges(graph: Graph, budget_fraction: float, seed: int) -> Graph:
    """Apply ``round(budget_fraction * num_edges)`` random edge edits.

    Each action flips a fair coin between deleting a uniform present pair
    and inserting a uniform absent one (never a self-loop or duplicate), on
    the edge set as edited so far; an impossible action (a delete from an
    edgeless graph, an insert into a complete one) uses up its slot.  The
    edits treat all original edges alike and all original non-edges alike,
    so only two counts step through the actions: x original edges kept and
    y non-edges added.  Draws from ``substream(seed, "perturb-edges")``, in
    order: the coins, the picks, the E - x deleted rows of ``edge_array``,
    and y distinct ranks over the absent pairs, mapped past the edges'
    positions by :func:`rank_to_id` and decoded by :func:`triu_pair`.
    """
    if not 0.0 <= budget_fraction <= 1.0:
        raise ValueError("budget_fraction must lie in [0, 1]")
    n, num_edges = graph.num_nodes, graph.num_edges
    pairs = n * (n - 1) // 2
    n_actions = int(round(budget_fraction * num_edges))
    rng = substream(seed, "perturb-edges")
    deletes = rng.random(n_actions) < 0.5
    picks = rng.random(n_actions)
    kept, added = num_edges, 0
    for delete, pick in zip(deletes.tolist(), picks.tolist()):
        present = kept + added
        if delete and present:  # the pair is an original edge w.p. kept / present
            original = pick * present < kept
            kept, added = kept - original, added - (not original)
        elif not delete and present < pairs:  # w.p. (E - kept) / absent pairs
            original = pick * (pairs - present) < num_edges - kept
            kept, added = kept + original, added + (not original)
    gone = rng.choice(num_edges, num_edges - kept, replace=False)
    u, v = graph.edge_array.T
    positions = u * (2 * n - u - 1) // 2 + v - u - 1
    ranks = rng.choice(pairs - num_edges, added, replace=False)
    new = np.stack(triu_pair(n, rank_to_id(positions, ranks)), axis=1)
    edges = np.concatenate([np.delete(graph.edge_array, gone, axis=0), new])
    return Graph.from_edges(n, edges, graph.features, domain_id=graph.domain_id)
