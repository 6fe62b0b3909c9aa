"""Self-contained synthetic graphs: two-block stochastic block models.

Each domain is one SBM draw with its own block feature means, so all
pipeline and acceptance tests run without downloading datasets.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, triu_pair
from .rng import substream

INTRA_WEIGHT = 0.8  # fraction of a node's expected degree spent inside its block


def sbm_graph(
    num_nodes: int,
    feature_dim: int,
    avg_degree: float,
    seed: int,
    domain_id: int = 0,
    feature_shift: float = 1.0,
    feature_noise: float = 1.0,
) -> Graph:
    """Two-block SBM with block-dependent Gaussian features.

    ``INTRA_WEIGHT`` of a node's expected degree goes to same-block
    neighbors, the rest across blocks.  Block means are drawn per (seed,
    domain, block) and scaled by ``feature_shift``; node features add
    isotropic noise.
    """
    if num_nodes < 4:
        raise ValueError("SBM fixture needs at least 4 nodes")
    if avg_degree <= 0:
        raise ValueError("avg_degree must be positive")
    b0 = num_nodes // 2
    b1 = num_nodes - b0
    blocks = (np.arange(num_nodes) >= b0).astype(np.int64)
    p_in = min(1.0, INTRA_WEIGHT * avg_degree / max(b0 - 1, 1))
    p_out = min(1.0, (1.0 - INTRA_WEIGHT) * avg_degree / max(b1, 1))

    rng = substream(seed, "sbm-edges", domain_id)
    edges = [np.zeros((0, 2), dtype=np.int64)]
    for lo, hi, p in ((0, b0, p_in), (b0, num_nodes, p_in)):
        size = hi - lo
        total = size * (size - 1) // 2
        count = int(rng.binomial(total, p))
        if count:
            pick = rng.choice(total, size=count, replace=False)
            iu, ju = triu_pair(size, pick)
            edges.append(np.stack([iu, ju], axis=1) + lo)
    total_cross = b0 * b1
    count = int(rng.binomial(total_cross, p_out))
    if count:
        pick = rng.choice(total_cross, size=count, replace=False)
        edges.append(np.stack([pick // b1, pick % b1 + b0], axis=1))

    frng = substream(seed, "sbm-features", domain_id)
    means = frng.normal(0.0, feature_shift, size=(2, feature_dim))
    features = means[blocks] + feature_noise * frng.normal(size=(num_nodes, feature_dim))
    return Graph.from_edges(num_nodes, np.concatenate(edges), features, domain_id=domain_id)
