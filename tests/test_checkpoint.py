from __future__ import annotations

import struct

import numpy as np
import pytest

from graphmia.checkpoint import (
    CheckpointError,
    MAGIC,
    load_params,
    load_victim,
    save_params,
    save_victim,
)
from graphmia.nn import ParamSet
from graphmia.victim import CONTRASTIVE, SSLObjective

from conftest import tiny_model


def sample_params() -> ParamSet:
    rng = np.random.default_rng(7)
    return ParamSet({
        "proj.0": rng.normal(size=(5, 3)),
        "gcn.0": rng.normal(size=(3, 3)),
        "gcn.1": rng.normal(size=(3, 2)),
    })


class TestParamsRoundtrip:
    def test_bit_exact(self, tmp_path):
        params = sample_params()
        path = tmp_path / "m.ckpt"
        save_params(path, params)
        loaded = load_params(path)
        assert loaded.names == params.names
        for k in params.names:
            np.testing.assert_array_equal(loaded.tensors[k], params.tensors[k])

    def test_layout(self, tmp_path):
        params = ParamSet({"w": np.array([[1.5, -2.0]])})
        path = tmp_path / "m.ckpt"
        save_params(path, params)
        raw = path.read_bytes()
        assert raw[:4] == MAGIC == b"MGPM"
        version, count = struct.unpack_from("<II", raw, 4)
        assert (version, count) == (1, 1)
        name_len = struct.unpack_from("<H", raw, 12)[0]
        assert raw[14:14 + name_len] == b"w"
        rows, cols = struct.unpack_from("<II", raw, 14 + name_len)
        assert (rows, cols) == (1, 2)
        vals = np.frombuffer(raw[14 + name_len + 8:], dtype="<f8")
        np.testing.assert_array_equal(vals, [1.5, -2.0])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError):
            load_params(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        params = ParamSet({"w": np.zeros((1, 1))})
        path = tmp_path / "m.ckpt"
        save_params(path, params)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(CheckpointError):
            load_params(path)


class TestVictimRoundtrip:
    def test_model_and_sidecar(self, tmp_path, small_sbm):
        obj = SSLObjective(CONTRASTIVE, temperature=0.25, negatives_per_positive=4)
        model = tiny_model(small_sbm, obj)
        model.trained_epochs = 12
        path = tmp_path / "victim.ckpt"
        save_victim(path, model, seed=99)
        loaded = load_victim(path)
        assert loaded.objective == obj
        assert loaded.trained_epochs == 12
        for k in model.params.names:
            np.testing.assert_array_equal(loaded.params.tensors[k], model.params.tensors[k])
        meta = (tmp_path / "victim.ckpt.meta").read_text()
        assert "objective = contrastive" in meta
        assert "seed = 99" in meta

    def test_old_fallback_domain_line_ignored(self, tmp_path, small_sbm, linkpred_objective):
        model = tiny_model(small_sbm, linkpred_objective)
        path = tmp_path / "victim.ckpt"
        save_victim(path, model)
        meta = tmp_path / "victim.ckpt.meta"
        meta.write_text(meta.read_text() + "fallback_domain = 0\n")
        loaded = load_victim(path)
        assert not hasattr(loaded, "fallback_domain")
        for k in model.params.names:
            np.testing.assert_array_equal(loaded.params.tensors[k], model.params.tensors[k])
