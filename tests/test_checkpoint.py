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

KEY = "0" * 64


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
        save_victim(path, model, seed=99, key=KEY)
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
        save_victim(path, model, seed=0, key=KEY)
        meta = tmp_path / "victim.ckpt.meta"
        meta.write_text(meta.read_text() + "fallback_domain = 0\n")
        loaded = load_victim(path)
        assert not hasattr(loaded, "fallback_domain")
        for k in model.params.names:
            np.testing.assert_array_equal(loaded.params.tensors[k], model.params.tensors[k])

    def test_older_sidecar_with_rate_lines_loads(self, tmp_path, small_sbm, contrastive_objective):
        # the sidecar format before key version 2: both augmentation-rate
        # lines, and a pretrain key (load_victim never reads the key)
        model = tiny_model(small_sbm, contrastive_objective)
        path = tmp_path / "victim.ckpt"
        save_victim(path, model, seed=4, key="1" * 64)
        meta = tmp_path / "victim.ckpt.meta"
        assert "rate" not in meta.read_text()
        meta.write_text(meta.read_text().replace(
            "negatives_per_positive = 3\n",
            "negatives_per_positive = 3\nedge_drop_rate = 0.2\nfeature_mask_rate = 0.2\n",
        ))
        loaded = load_victim(path)
        assert loaded.objective == contrastive_objective
        for k in model.params.names:
            np.testing.assert_array_equal(loaded.params.tensors[k], model.params.tensors[k])


class TestTruncated:
    def test_every_cut_raises_checkpoint_error(self, tmp_path, small_sbm, linkpred_objective):
        full = tmp_path / "full.ckpt"
        save_params(full, tiny_model(small_sbm, linkpred_objective).params)
        data = full.read_bytes()
        path = tmp_path / "cut.ckpt"
        for end in range(len(data)):
            path.write_bytes(data[:end])
            with pytest.raises(CheckpointError, match="cut.ckpt"):
                load_params(path)

    @pytest.mark.parametrize("keep", [10, 20, -8])
    def test_short_tensor(self, tmp_path, keep):
        path = tmp_path / "m.ckpt"
        save_params(path, ParamSet({"w": np.arange(12.0).reshape(3, 4)}))
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(CheckpointError, match="truncated"):
            load_params(path)


def _victim_files(tmp_path, small_sbm, objective):
    model = tiny_model(small_sbm, objective)
    path = tmp_path / "victim.ckpt"
    save_victim(path, model, seed=3, key=KEY)
    return model, path, tmp_path / "victim.ckpt.meta"


def _edit_meta(meta, key, value):
    """Replace (or, with ``value=None``, drop) one ``key = value`` line."""
    lines = [line for line in meta.read_text().splitlines() if line.split("=")[0].strip() != key]
    if value is not None:
        lines.append(f"{key} = {value}")
    meta.write_text("\n".join(lines) + "\n")


class TestVictimMetaChecked:
    def test_missing_meta(self, tmp_path, small_sbm, linkpred_objective):
        _, path, meta = _victim_files(tmp_path, small_sbm, linkpred_objective)
        meta.unlink()
        with pytest.raises(CheckpointError, match="victim.ckpt.meta"):
            load_victim(path)

    @pytest.mark.parametrize("key", [
        "objective", "temperature", "negatives_per_positive", "domains", "domain_dims",
        "emb_dim", "layers", "trained_epochs",
    ])
    def test_missing_key(self, tmp_path, small_sbm, linkpred_objective, key):
        _, path, meta = _victim_files(tmp_path, small_sbm, linkpred_objective)
        _edit_meta(meta, key, None)
        with pytest.raises(CheckpointError, match=key):
            load_victim(path)

    @pytest.mark.parametrize("key, value", [
        ("objective", "masked_autoencoder"),
        ("temperature", "warm"),
        ("temperature", "0"),
        ("negatives_per_positive", "1.5"),
        ("domains", "zero"),
        ("domains", ""),
        ("domain_dims", "6,6"),
        ("emb_dim", "six"),
        ("layers", "0"),
        ("trained_epochs", ""),
    ])
    def test_malformed_value(self, tmp_path, small_sbm, linkpred_objective, key, value):
        _, path, meta = _victim_files(tmp_path, small_sbm, linkpred_objective)
        _edit_meta(meta, key, value)
        with pytest.raises(CheckpointError):
            load_victim(path)

    @pytest.mark.parametrize("key, value", [
        ("domain_dims", "7"),       # projector input dim contradicts the meta
        ("emb_dim", "5"),
        ("layers", "1"),            # gcn.1 is extra
        ("layers", "3"),            # gcn.2 is missing
        ("domains", "1"),           # proj.1 missing, proj.0 extra
    ])
    def test_meta_contradicts_tensors(self, tmp_path, small_sbm, linkpred_objective, key, value):
        _, path, meta = _victim_files(tmp_path, small_sbm, linkpred_objective)
        _edit_meta(meta, key, value)
        with pytest.raises(CheckpointError):
            load_victim(path)

    @pytest.mark.parametrize("edit", ["drop proj.0", "drop gcn.1", "add gcn.2", "add extra",
                                      "reshape gcn.0", "reshape proj.0"])
    def test_tensor_set_and_shapes(self, tmp_path, small_sbm, linkpred_objective, edit):
        model, path, _ = _victim_files(tmp_path, small_sbm, linkpred_objective)
        tensors = dict(model.params.tensors)
        action, name = edit.split()
        if action == "drop":
            del tensors[name]
        elif action == "add":
            tensors[name] = np.zeros((6, 6))
        else:
            tensors[name] = tensors[name][:, :-1]
        save_params(path, ParamSet(tensors))
        with pytest.raises(CheckpointError):
            load_victim(path)

    def test_tensor_order(self, tmp_path, small_sbm, linkpred_objective):
        # the loaded vector is the model's: its tensors must come in layout order
        model, path, _ = _victim_files(tmp_path, small_sbm, linkpred_objective)
        tensors = dict(reversed(list(model.params.tensors.items())))
        save_params(path, ParamSet(tensors))
        with pytest.raises(CheckpointError, match="not in the order proj.0, gcn.0, gcn.1"):
            load_victim(path)

    def test_no_pretrain_key_still_loads(self, tmp_path, small_sbm, linkpred_objective):
        # a sidecar written before the key was recorded
        model, path, meta = _victim_files(tmp_path, small_sbm, linkpred_objective)
        assert f"pretrain_key = {KEY}" in meta.read_text()
        _edit_meta(meta, "pretrain_key", None)
        assert "pretrain_key" not in meta.read_text()
        loaded = load_victim(path)
        for k in model.params.names:
            np.testing.assert_array_equal(loaded.params.tensors[k], model.params.tensors[k])
