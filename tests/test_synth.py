from __future__ import annotations

import numpy as np
import pytest

from graphmia.graph import graph_fingerprint, triu_pair
from graphmia.rng import derive_seed
from graphmia.synth import sbm_graph


class TestTriuPair:
    @pytest.mark.parametrize("size", range(2, 61))
    def test_matches_triu_indices_everywhere(self, size):
        rows, cols = np.triu_indices(size, k=1)
        got_rows, got_cols = triu_pair(size, np.arange(len(rows)))
        np.testing.assert_array_equal(got_rows, rows)
        np.testing.assert_array_equal(got_cols, cols)

    def test_round_trips_at_8000(self):
        # np.triu_indices(8000) would need 0.5 GB; invert the row-major
        # position formula instead, including both ends of the range
        size = 8000
        total = size * (size - 1) // 2
        index = np.concatenate([
            np.random.default_rng(0).integers(0, total, size=20000),
            [0, 1, size - 2, size - 1, total - 2, total - 1],
        ])
        rows, cols = triu_pair(size, index)
        assert ((0 <= rows) & (rows < cols) & (cols < size)).all()
        np.testing.assert_array_equal(rows * (2 * size - rows - 1) // 2 + cols - rows - 1, index)


class TestSbmGraphBytes:
    """Decoding the pair positions arithmetically leaves the graphs
    byte-identical; the digests were taken with ``np.triu_indices``."""

    def test_acceptance_fixture_domains(self):
        want = [
            "4a4ce66008a43abf0064de1d6848b7e66e6a301c504db13168b376067613fbd5",
            "e07b74e2cbc15300c54b7f3c6a144d42cbaac2d589ed4c561304da4cbdf20661",
        ]
        for d, digest in enumerate(want):
            g = sbm_graph(300, 16, 10, seed=derive_seed(7, "domain-graph", d), domain_id=d,
                          feature_shift=0.5, feature_noise=2.0)
            assert graph_fingerprint(g) == digest

    def test_4000_nodes(self):
        g = sbm_graph(4000, 16, 10.0, seed=3)
        assert graph_fingerprint(g) == (
            "510db39497b71e76ff13dfba22c34559f44f7c4ebddbd3b1bf00aff4d81d339f"
        )
