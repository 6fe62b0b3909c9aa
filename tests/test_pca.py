from __future__ import annotations

import numpy as np
import pytest

from graphmia.pca import pca_project


class TestPCA:
    def test_rank_one_line(self):
        t = np.linspace(-2, 2, 40)
        x = np.stack([t, 3 * t], axis=1)
        result = pca_project(x, k=2)
        assert result.rank_deficient
        assert result.projection.shape[1] == 1
        assert float(sum(result.explained_ratios[1:])) == pytest.approx(0.0, abs=1e-10)
        assert result.explained_ratios[0] == pytest.approx(1.0, abs=1e-10)

    def test_isotropic_gaussian_ratios(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1000, 2))
        result = pca_project(x, k=2)
        assert result.explained_ratios[0] == pytest.approx(0.5, abs=0.1)
        assert result.explained_ratios[1] == pytest.approx(0.5, abs=0.1)

    def test_distance_preserving_on_subspace_data(self):
        rng = np.random.default_rng(1)
        basis, _ = np.linalg.qr(rng.normal(size=(6, 2)))
        coords = rng.normal(size=(30, 2))
        x = coords @ basis.T + 5.0
        result = pca_project(x, k=2)
        d_orig = np.linalg.norm(x[:, None] - x[None, :], axis=2)
        p = result.projection
        d_proj = np.linalg.norm(p[:, None] - p[None, :], axis=2)
        np.testing.assert_allclose(d_proj, d_orig, atol=1e-8)

    def test_orthonormal_components(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(50, 6)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.2, 0.1])
        result = pca_project(x, k=4)
        gram = result.components.T @ result.components
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-8)

    def test_matches_library_eigensolver(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(80, 5)) * np.array([4.0, 2.0, 1.0, 0.5, 0.25])
        result = pca_project(x, k=3)
        xc = x - x.mean(axis=0)
        # independent oracle: singular values and right singular vectors of
        # the centred data (descending), not an eigendecomposition
        _, sing, vt = np.linalg.svd(xc, full_matrices=False)
        top_vals = sing[:3] ** 2 / (len(x) - 1)
        top_vecs = vt[:3].T
        got_vals = result.explained_ratios * float((xc ** 2).sum() / (len(x) - 1))
        np.testing.assert_allclose(got_vals, top_vals, rtol=1e-8)
        for j in range(3):
            overlap = abs(float(result.components[:, j] @ top_vecs[:, j]))
            assert overlap == pytest.approx(1.0, abs=1e-6)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 4))
        a = pca_project(x, k=2)
        b = pca_project(x.copy(), k=2)
        np.testing.assert_array_equal(a.projection, b.projection)
        for j in range(2):
            first_nonzero = a.components[np.abs(a.components[:, j]) > 1e-12, j][0]
            assert first_nonzero > 0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            pca_project(np.zeros((5, 3)), k=4)
        with pytest.raises(ValueError):
            pca_project(np.zeros((1, 3)), k=1)
