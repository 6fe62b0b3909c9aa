"""The victim cache: ``pretrain`` checkpoints each seed's victim under a
key over its pretrain inputs, and the commands that later write to the
same ``--out`` load it when the key matches and pre-train otherwise."""

from __future__ import annotations

import hashlib
from dataclasses import fields, replace

import pytest

import graphmia.checkpoint as ckpt_mod
import graphmia.experiment as exp_mod
from graphmia.checkpoint import pretrain_key, read_meta, victim_path
from graphmia.cli import main
from graphmia.config import ExperimentConfig, SyntheticSpec, load_config
from graphmia.experiment import prepare_domains, pretrain_args, run_experiment
from graphmia.graph import graph_fingerprint

CONFIG = """
objective = link_prediction
epochs_pretrain = 20
epochs_augment = 2
epochs_unlearn = 3
epochs_shadow = 5
epochs_attack = 20
m_samples = 3
m_queries = 8
hidden_dim = 32
emb_dim = 8
repetitions = 1
seed = 11
synthetic.domains = 2
synthetic.nodes_per_domain = 60
synthetic.feature_dim = 6
synthetic.avg_degree = 8
"""

# one changed value per config field; each must pass validation
FIELD_MUTATIONS = {
    "objective": "contrastive",
    "lam": 0.5,
    "alpha": 0.3,
    "epochs_pretrain": 4,
    "epochs_augment": 6,
    "epochs_unlearn": 51,
    "epochs_shadow": 101,
    "epochs_attack": 301,
    "m_samples": 6,
    "m_queries": 9,
    "hidden_dim": 32,
    "emb_dim": 32,
    "layers": 3,
    "lr_pretrain": 2e-3,
    "lr_augment": 2e-3,
    "lr_unlearn": 2e-3,
    "lr_shadow": 2e-3,
    "lr_attack": 2e-3,
    "unlearn_fraction": 0.3,
    "repetitions": 2,
    "seed": 6,
    "attack_domain": 1,
    "temperature": 0.25,
    "negatives_per_positive": 6,
}
SYNTH_MUTATIONS = {
    "domains": 3,
    "nodes_per_domain": 31,
    "feature_dim": 5,
    "avg_degree": 5.0,
    "feature_shift": 0.5,
    "feature_noise": 1.5,
}
PRETRAIN_FIELDS = {
    "objective", "temperature", "negatives_per_positive", "epochs_pretrain",
    "lr_pretrain", "emb_dim", "layers", "seed",
}

COMMANDS = [
    ["attack"],
    ["ablate", "--variant", "wo-ul"],
    ["ablate", "--variant", "wo-il"],
    ["baseline", "--name", "gpia"],
    ["baseline", "--name", "ge-mia"],
    ["diagnose", "pca"],
    ["diagnose", "robustness", "--trials", "2"],
]


def key_of(cfg: ExperimentConfig, seed: int | None = None) -> str:
    seed = cfg.seed if seed is None else seed
    return pretrain_key(*pretrain_args(cfg, seed, prepare_domains(cfg, seed)))


def version_1_key(cfg: ExperimentConfig, seed: int) -> str:
    """The key the previous sidecar format recorded for the same inputs:
    key version 1, with both augmentation rates inside the objective."""
    graphs, objective, config, pseed = pretrain_args(cfg, seed, prepare_domains(cfg, seed))
    rates = repr(objective)[:-1] + ", edge_drop_rate=0.2, feature_mask_rate=0.2)"
    h = hashlib.sha256(f"v1;seed={pseed};{rates};{config!r}".encode())
    for graph in sorted(graphs, key=lambda g: g.domain_id):
        h.update(graph_fingerprint(graph).encode())
    return h.hexdigest()


def small_cfg() -> ExperimentConfig:
    return ExperimentConfig(
        epochs_pretrain=3, repetitions=1, seed=5,
        synthetic=SyntheticSpec(domains=2, nodes_per_domain=30, feature_dim=4, avg_degree=4.0),
    )


def write_config(tmp_path, text: str = CONFIG):
    path = tmp_path / "audit.cfg"
    path.write_text(text)
    return path


def run(argv, config, out) -> int:
    return main([*argv, "--config", str(config), "--out", str(out)])


def snapshot(out) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.glob("victim_seed*"))}


def outputs(out) -> dict[str, bytes]:
    """Every file a command writes, but the summary (it holds wall time)
    and the checkpoint."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name != "summary.json" and not p.name.startswith("victim_seed")}


@pytest.fixture
def pretrain_calls(monkeypatch) -> list[int]:
    """One entry per victim the pipeline pre-trains."""
    calls: list[int] = []
    real = exp_mod.pretrain_multidomain

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(exp_mod, "pretrain_multidomain", counting)
    return calls


class TestKey:
    def test_covers_exactly_the_pretrain_inputs(self):
        base = small_cfg()
        assert set(FIELD_MUTATIONS) == {f.name for f in fields(ExperimentConfig)} - {"synthetic", "dataset"}
        assert set(SYNTH_MUTATIONS) == {f.name for f in fields(SyntheticSpec)}
        ref = key_of(base)
        assert key_of(small_cfg()) == ref
        changed = set()
        for name, value in FIELD_MUTATIONS.items():
            assert getattr(base, name) != value, name
            cfg = replace(base, **{name: value})
            cfg.validate()
            if key_of(cfg) != ref:
                changed.add(name)
        for name, value in SYNTH_MUTATIONS.items():
            assert getattr(base.synthetic, name) != value, name
            cfg = replace(base, synthetic=replace(base.synthetic, **{name: value}))
            cfg.validate()
            if key_of(cfg) != ref:
                changed.add(f"synthetic.{name}")
        assert changed == PRETRAIN_FIELDS | {f"synthetic.{n}" for n in SYNTH_MUTATIONS}

    def test_dataset_contents_not_paths(self, tmp_path):
        def write_dataset(root):
            root.mkdir()
            n = 16
            spec = {}
            for dom in (0, 1):
                edges = [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 5) % n) for i in range(0, n, 2)]
                (root / f"e{dom}.tsv").write_text("".join(f"{u}\t{v}\n" for u, v in edges))
                rows = [" ".join(f"{(3 * i + j + dom) % 7}.25" for j in range(3)) for i in range(n)]
                (root / f"f{dom}.txt").write_text(f"{n} 3\n" + "\n".join(rows) + "\n")
                spec[dom] = {"edges": str(root / f"e{dom}.tsv"), "features": str(root / f"f{dom}.txt")}
            cfg = replace(small_cfg(), synthetic=None, dataset=spec)
            cfg.validate()
            return cfg

        cfg = write_dataset(tmp_path / "a")
        ref = key_of(cfg)
        assert key_of(write_dataset(tmp_path / "b")) == ref

        def with_row_byte_changed(node: int) -> str:
            path = tmp_path / "a" / "f1.txt"
            original = path.read_bytes()
            lines = original.split(b"\n")
            row = lines[node + 1]
            lines[node + 1] = (b"9" if row[:1] != b"9" else b"8") + row[1:]
            path.write_bytes(b"\n".join(lines))
            try:
                return key_of(cfg)
            finally:
                path.write_bytes(original)

        domain = prepare_domains(cfg, cfg.seed)[1]
        assert with_row_byte_changed(domain.member_nodes[0]) != ref
        # a non-member's features never reach pre-training
        assert with_row_byte_changed(domain.nonmember_nodes[0]) == ref


class TestCache:
    def test_warm_reports_equal_cold_reports(self, tmp_path, monkeypatch, pretrain_calls):
        config = write_config(tmp_path)
        cold, warm = tmp_path / "cold", tmp_path / "warm"
        assert run(["pretrain"], config, warm) == 0
        checkpoint = snapshot(warm)
        pretrain_calls.clear()
        loads: list[int] = []
        real_load = ckpt_mod.load_victim
        monkeypatch.setattr(ckpt_mod, "load_victim", lambda path: loads.append(1) or real_load(path))

        for argv in COMMANDS:
            assert run(argv, config, cold) == 0, argv
        assert (len(pretrain_calls), len(loads)) == (len(COMMANDS), 0)
        for argv in COMMANDS:
            assert run(argv, config, warm) == 0, argv
        assert (len(pretrain_calls), len(loads)) == (len(COMMANDS), len(COMMANDS))

        cold_out = outputs(cold)
        assert {"report_similarity_full_seed11.json", "report_similarity_wo-ul_seed11.json",
                "report_similarity_wo-il_seed11.json", "report_gpia_full_seed11.json",
                "report_ge-mia_full_seed11.json", "amplify_seed11.txt", "pca_seed11.csv",
                "robustness_seed11.csv"} == set(cold_out)
        assert outputs(warm) == cold_out
        assert snapshot(warm) == checkpoint

    @pytest.mark.parametrize("edit", ["stale", "absent"])
    def test_other_key_is_a_miss_left_unchanged(self, tmp_path, pretrain_calls, edit):
        config = write_config(tmp_path)
        out = tmp_path / "runs"
        assert run(["pretrain"], config, out) == 0
        pretrain_calls.clear()
        meta = out / "victim_seed11.ckpt.meta"
        lines = [line for line in meta.read_text().splitlines() if not line.startswith("pretrain_key")]
        if edit == "stale":
            lines.append("pretrain_key = " + "0" * 64)
        meta.write_text("\n".join(lines) + "\n")
        before = snapshot(out)
        assert run(["attack"], config, out) == 0
        assert len(pretrain_calls) == 1
        assert snapshot(out) == before

    def test_version_1_sidecar_is_a_miss(self, tmp_path, pretrain_calls):
        config = write_config(tmp_path)
        out = tmp_path / "runs"
        assert run(["pretrain"], config, out) == 0
        pretrain_calls.clear()
        meta = out / "victim_seed11.ckpt.meta"
        lines = [line for line in meta.read_text().splitlines() if not line.startswith("pretrain_key")]
        at = lines.index("negatives_per_positive = 5") + 1
        lines[at:at] = ["edge_drop_rate = 0.2", "feature_mask_rate = 0.2"]
        lines.append("pretrain_key = " + version_1_key(load_config(config), 11))
        meta.write_text("\n".join(lines) + "\n")
        before = snapshot(out)
        assert run(["attack"], config, out) == 0
        assert len(pretrain_calls) == 1
        assert snapshot(out) == before

    def test_changed_pretrain_field_misses(self, tmp_path, pretrain_calls):
        out = tmp_path / "runs"
        assert run(["pretrain"], write_config(tmp_path), out) == 0
        pretrain_calls.clear()
        other = tmp_path / "other"
        other.mkdir()
        config = write_config(other, CONFIG.replace("epochs_pretrain = 20", "epochs_pretrain = 21"))
        assert run(["attack"], config, out) == 0
        assert len(pretrain_calls) == 1

    def test_unreadable_hit_fails_the_seed(self, tmp_path, pretrain_calls):
        config = write_config(tmp_path)
        out = tmp_path / "runs"
        assert run(["pretrain"], config, out) == 0
        pretrain_calls.clear()
        path = victim_path(out, 11)
        path.write_bytes(path.read_bytes()[:-8])
        result = run_experiment(load_config(config), out_dir=out)
        assert [(f.stage, f.error.split(":")[0]) for f in result.failures] == [("context", "CheckpointError")]
        assert pretrain_calls == []
        assert run(["attack"], config, out) == 1

    def test_pretrain_writes_every_seed(self, tmp_path, pretrain_calls):
        config = write_config(tmp_path, CONFIG.replace("repetitions = 1", "repetitions = 2"))
        out = tmp_path / "runs"
        assert run(["pretrain", "--seed", "21"], config, out) == 0
        pretrain_calls.clear()
        cfg = load_config(config)
        cfg.seed = 21
        keys = [read_meta(victim_path(out, seed)).get("pretrain_key") for seed in (21, 22)]
        assert keys == [key_of(cfg, 21), key_of(cfg, 22)]
        assert keys[0] != keys[1]
        assert run(["attack", "--seed", "21"], config, out) == 0
        assert pretrain_calls == []
        assert sorted(p.name for p in out.glob("report_*")) == [
            "report_similarity_full_seed21.json", "report_similarity_full_seed22.json"]
