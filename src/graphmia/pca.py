"""Principal component analysis of embedding rows.

The eigenvectors of the sample covariance come from ``np.linalg.eigh``;
a fixed sign rule makes the projection reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_TOL = 1e-10


@dataclass
class PCAResult:
    projection: np.ndarray        # (n, k_effective)
    explained_ratios: np.ndarray  # (k_effective,)
    components: np.ndarray        # (d, k_effective), orthonormal columns
    mean: np.ndarray
    rank_deficient: bool          # fewer informative components than requested


def pca_project(embeddings: np.ndarray, k: int) -> PCAResult:
    """Project rows onto the top-k principal directions.

    Columns are centered; the covariance uses the 1/(n-1) convention.  Each
    eigenvector's first nonzero component is made positive so projections
    are reproducible.  If the data has rank below k the remaining
    directions are dropped and ``rank_deficient`` is set.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("embeddings must be a matrix")
    n, d = x.shape
    if not 1 <= k <= min(n, d):
        raise ValueError(f"k must be in [1, {min(n, d)}]")
    if n < 2:
        raise ValueError("need at least two rows")
    mean = x.mean(axis=0)
    xc = x - mean
    cov = (xc.T @ xc) / (n - 1)
    trace = float(np.trace(cov))

    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending eigenvalues
    components: list[np.ndarray] = []
    kept: list[float] = []
    for lam, v in zip(eigvals[::-1][:k], eigvecs.T[::-1]):
        lam = float(lam)
        if lam <= _TOL * max(trace, 1.0):
            break
        nz = np.nonzero(np.abs(v) > 1e-12)[0]
        if len(nz) and v[nz[0]] < 0:
            v = -v
        components.append(v)
        kept.append(lam)

    comp = np.stack(components, axis=1) if components else np.zeros((d, 0))
    ratios = (np.array(kept) / trace) if trace > 0 else np.zeros(len(kept))
    return PCAResult(
        projection=xc @ comp,
        explained_ratios=ratios,
        components=comp,
        mean=mean,
        rank_deficient=len(components) < k,
    )
