from __future__ import annotations

import json
import re
from dataclasses import fields

import numpy as np
import pytest

import graphmia.experiment as exp_mod
from graphmia.cli import main
from graphmia.config import (
    ConfigError,
    ExperimentConfig,
    SyntheticSpec,
    _value_types,
    canonical_text,
    config_hash,
    load_config,
    parse_config,
)


SAMPLE = """
# audit config
objective = link_prediction
lambda = 1.0
alpha = 0.5
epochs_pretrain = 40
epochs_augment = 2
epochs_unlearn = 4
epochs_shadow = 8
epochs_attack = 30
m_samples = 3
hidden_dim = 64
emb_dim = 16
layers = 2
lr_pretrain = 0.003
lr_shadow = 0.001
unlearn_fraction = 0.2
repetitions = 1
seed = 11
synthetic.domains = 2
synthetic.nodes_per_domain = 120
synthetic.feature_dim = 8
synthetic.avg_degree = 12
"""


class TestParsing:
    def test_full_parse(self):
        cfg = parse_config(SAMPLE)
        assert cfg.objective == "link_prediction"
        assert cfg.lam == 1.0 and cfg.alpha == 0.5
        assert cfg.epochs_pretrain == 40 and cfg.seed == 11
        assert cfg.synthetic.nodes_per_domain == 120
        assert cfg.dataset is None

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("bogus = 1\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("epochs_pretrain = soon\n")

    def test_range_validation(self):
        with pytest.raises(ConfigError):
            parse_config("unlearn_fraction = 1.5\n")
        with pytest.raises(ConfigError):
            parse_config("repetitions = 0\n")
        with pytest.raises(ConfigError):
            parse_config("objective = magic\n")

    def test_dataset_keys_and_path_resolution(self, tmp_path):
        (tmp_path / "e.tsv").write_text("0\t1\n")
        (tmp_path / "f.txt").write_text("2 1\n0\n0\n")
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("dataset.0.edges = e.tsv\ndataset.0.features = f.txt\n")
        cfg = load_config(cfg_path)
        assert cfg.synthetic is None
        assert cfg.dataset[0]["edges"].endswith("e.tsv")

    def test_unknown_dataset_attribute(self, tmp_path):
        (tmp_path / "e.tsv").write_text("0\t1\n")
        (tmp_path / "f.txt").write_text("2 1\n0\n0\n")
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "dataset.0.edges = e.tsv\ndataset.0.features = f.txt\ndataset.0.edegs = oops\n"
        )
        with pytest.raises(ConfigError, match=r"line 3: unknown key 'dataset\.0\.edegs'"):
            load_config(cfg_path)

    def test_missing_dataset_file(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("dataset.0.edges = ghost.tsv\ndataset.0.features = ghost.txt\n")
        with pytest.raises(ConfigError, match="no such file"):
            load_config(cfg_path)

    @pytest.mark.parametrize("text, match", [
        (SAMPLE + "temperature = 0\n", "temperature must be positive"),
        (SAMPLE + "negatives_per_positive = 0\n", "at least one negative"),
        (SAMPLE + "synthetic.domains = 0\n", "domains >= 1"),
        (SAMPLE + "synthetic.nodes_per_domain = 1\n", "nodes_per_domain >= 4"),
        (SAMPLE + "synthetic.nodes_per_domain = 3\n", "nodes_per_domain >= 4"),
        (SAMPLE + "synthetic.feature_dim = 0\n", "feature_dim >= 1"),
        (SAMPLE + "synthetic.avg_degree = -3\n", "avg_degree > 0"),
        (SAMPLE + "synthetic.feature_shift = -1\n", "feature_shift >= 0"),
        (SAMPLE + "attack_domain = 5\n", "attack_domain"),
        (SAMPLE + "attack_domain = -1\n", "attack_domain"),
        ("dataset.1.edges = e.tsv\ndataset.1.features = f.txt\n", "attack_domain"),
        # shadow graph of 6 nodes, parts (1, 3, 2): a one-node contrastive unlearn graph
        (SAMPLE + "objective = contrastive\nsynthetic.nodes_per_domain = 12\n"
         "unlearn_fraction = 0.1\n", r"\(1, 3, 2\)"),
        (SAMPLE + "synthetic.nodes_per_domain = 12\nunlearn_fraction = 0.1\n", r"\(1, 3, 2\)"),
        # 5 nodes, (2, 2, 1): a one-node shadow-test graph
        (SAMPLE + "objective = contrastive\nsynthetic.nodes_per_domain = 10\n"
         "unlearn_fraction = 0.4\n", r"\(2, 2, 1\)"),
        # 4 nodes, (2, 1, 1): a one-node shadow-train graph
        (SAMPLE + "objective = contrastive\nsynthetic.nodes_per_domain = 8\n"
         "unlearn_fraction = 0.5\n", r"\(2, 1, 1\)"),
        # 2 nodes, (0, 1, 1): an empty unlearn set
        (SAMPLE + "synthetic.nodes_per_domain = 4\n", r"\(0, 1, 1\)"),
    ], ids=[
        "temperature-0", "negatives-0", "domains-0", "nodes-1", "nodes-3", "feature_dim-0",
        "avg_degree-neg", "feature_shift-neg", "attack_domain-5", "attack_domain-neg",
        "attack_domain-not-a-dataset-key", "contrastive-unlearn-1", "linkpred-unlearn-1",
        "shadow-test-1", "shadow-train-1", "unlearn-0",
    ])
    def test_rejects_configs_no_seed_can_run(self, tmp_path, text, match):
        (tmp_path / "e.tsv").write_text("0\t1\n")
        (tmp_path / "f.txt").write_text("2 1\n0\n0\n")
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text)
        with pytest.raises(ConfigError, match=match):
            load_config(cfg_path)

    @pytest.mark.parametrize("objective", ["contrastive", "link_prediction"])
    def test_accepts_two_node_shadow_parts(self, objective):
        # 12 nodes per domain: a 6-node shadow graph split (2, 2, 2)
        cfg = parse_config(SAMPLE + f"objective = {objective}\nsynthetic.nodes_per_domain = 12\n"
                           "unlearn_fraction = 0.34\n")
        assert cfg.unlearn_fraction == 0.34

    def test_alpha_defaults_by_objective(self):
        assert ExperimentConfig(objective="link_prediction").resolved_alpha() == 1.0
        assert ExperimentConfig(objective="contrastive").resolved_alpha() == pytest.approx(1e-2)
        assert ExperimentConfig(alpha=0.3).resolved_alpha() == 0.3

    def test_hash_stable_and_sensitive(self):
        a = parse_config(SAMPLE)
        b = parse_config(SAMPLE)
        assert config_hash(a) == config_hash(b)
        b.seed = 12
        assert config_hash(a) != config_hash(b)
        assert "seed = 11" in canonical_text(a)


# (file key, value text, field it sets, parsed value): one row per scalar
# field of ExperimentConfig and SyntheticSpec, each value off its default
EVERY_KEY = [
    ("objective", "contrastive", "objective", "contrastive"),
    ("lambda", "0.5", "lam", 0.5),
    ("alpha", "0.25", "alpha", 0.25),
    ("epochs_pretrain", "41", "epochs_pretrain", 41),
    ("epochs_augment", "3", "epochs_augment", 3),
    ("epochs_unlearn", "7", "epochs_unlearn", 7),
    ("epochs_shadow", "9", "epochs_shadow", 9),
    ("epochs_attack", "11", "epochs_attack", 11),
    ("m_samples", "4", "m_samples", 4),
    ("m_queries", "13", "m_queries", 13),
    ("hidden_dim", "17", "hidden_dim", 17),
    ("emb_dim", "19", "emb_dim", 19),
    ("layers", "3", "layers", 3),
    ("lr_pretrain", "0.002", "lr_pretrain", 0.002),
    ("lr_augment", "0.003", "lr_augment", 0.003),
    ("lr_unlearn", "0.004", "lr_unlearn", 0.004),
    ("lr_shadow", "0.005", "lr_shadow", 0.005),
    ("lr_attack", "0.006", "lr_attack", 0.006),
    ("unlearn_fraction", "0.3", "unlearn_fraction", 0.3),
    ("repetitions", "2", "repetitions", 2),
    ("seed", "23", "seed", 23),
    ("attack_domain", "1", "attack_domain", 1),
    ("temperature", "0.7", "temperature", 0.7),
    ("negatives_per_positive", "6", "negatives_per_positive", 6),
    ("synthetic.domains", "3", "synthetic.domains", 3),
    ("synthetic.nodes_per_domain", "50", "synthetic.nodes_per_domain", 50),
    ("synthetic.feature_dim", "9", "synthetic.feature_dim", 9),
    ("synthetic.avg_degree", "7.5", "synthetic.avg_degree", 7.5),
    ("synthetic.feature_shift", "0.5", "synthetic.feature_shift", 0.5),
    ("synthetic.feature_noise", "2", "synthetic.feature_noise", 2.0),
]


# the key of every float setting: ``lambda`` sets the field ``lam``
FLOAT_KEYS = [
    "lambda" if name == "lam" else prefix + name
    for cls, prefix in ((ExperimentConfig, ""), (SyntheticSpec, "synthetic."))
    for name, kind in _value_types(cls).items() if kind is float
]


class TestEveryKey:
    """Each setting is read from a file under its documented key, with its
    field's type, and round-trips through the canonical text."""

    @pytest.mark.parametrize("key, text, name, value", EVERY_KEY, ids=[r[0] for r in EVERY_KEY])
    def test_key_sets_its_field(self, key, text, name, value):
        cfg = parse_config(f"{key} = {text}\n")
        owner = cfg.synthetic if name.startswith("synthetic.") else cfg
        parsed = getattr(owner, name.removeprefix("synthetic."))
        assert parsed == value and type(parsed) is type(value)
        assert f"{name} = {value!r}" in canonical_text(cfg).splitlines()
        default = ExperimentConfig()
        assert f"{name} = {value!r}" not in canonical_text(default).splitlines()

    def test_table_names_every_scalar_field(self):
        scalar = {f.name for f in fields(ExperimentConfig)} - {"synthetic", "dataset"}
        scalar |= {f"synthetic.{f.name}" for f in fields(SyntheticSpec)}
        assert {r[2] for r in EVERY_KEY} == scalar

    @pytest.mark.parametrize("key", ["lam", "synthetic.domians", "synthetic.", "synthetic"])
    def test_unknown_key_names_its_line(self, key):
        with pytest.raises(ConfigError, match=rf"^line 2: unknown key '{key}'$"):
            parse_config(f"seed = 3\n{key} = 1\n")

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_names_its_key(self, key, text):
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be finite, got {text}$"):
            parse_config(f"{key} = {text}\n")

    @pytest.mark.parametrize("key, text", [
        ("synthetic.domains", "two"),
        ("synthetic.avg_degree", "dense"),
        ("synthetic.nodes_per_domain", "1.5"),
        ("lambda", "strong"),
    ])
    def test_bad_value_names_its_line(self, key, text):
        with pytest.raises(ConfigError, match=rf"^line 2: bad value for '{key}': '{text}'$"):
            parse_config(f"seed = 3\n{key} = {text}\n")


@pytest.fixture(scope="module")
def cli_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "audit.cfg"
    path.write_text(SAMPLE)
    return path


class TestCli:
    def test_attack_writes_reports(self, cli_config, tmp_path, capsys):
        out = tmp_path / "runs"
        rc = main(["attack", "--config", str(cli_config), "--out", str(out)])
        assert rc == 0
        reports = sorted(out.glob("report_similarity_full_seed*.json"))
        assert len(reports) == 1
        rec = json.loads(reports[0].read_text())
        assert set(rec) == {
            "attack", "seed", "acc", "f1", "tp", "fp", "tn", "fn",
            "n_members", "n_nonmembers", "variant", "config_hash",
        }
        assert rec["variant"] == "full"
        assert (out / "summary.json").exists()
        assert "similarity/full" in capsys.readouterr().out

    def test_baseline_and_evaluate(self, cli_config, tmp_path, capsys):
        out = tmp_path / "runs"
        assert main(["baseline", "--name", "glo-mia", "--config", str(cli_config),
                     "--out", str(out)]) == 0
        baseline_out = capsys.readouterr().out
        assert main(["evaluate", "--out", str(out)]) == 0
        evaluate_out = capsys.readouterr().out
        assert "glo-mia/full" in evaluate_out
        assert " f1 " in evaluate_out and evaluate_out.count("+-") == 2
        assert evaluate_out == baseline_out

    def test_ablate(self, cli_config, tmp_path):
        out = tmp_path / "runs"
        assert main(["ablate", "--variant", "wo-il", "--config", str(cli_config),
                     "--out", str(out)]) == 0
        assert (out / "report_similarity_wo-il_seed11.json").exists()

    def test_diagnose(self, cli_config, tmp_path, capsys):
        out = tmp_path / "runs"
        assert main(["diagnose", "pca", "--config", str(cli_config), "--out", str(out)]) == 0
        assert main(["diagnose", "robustness", "--trials", "2",
                     "--config", str(cli_config), "--out", str(out)]) == 0
        assert (out / "pca_seed11.csv").exists()
        # member rows first, then non-member rows, numbered like the PCA rows
        rows = [line.split(",") for line in
                (out / "robustness_seed11.csv").read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(len(rows)))
        labels = [int(r[1]) for r in rows]
        assert labels == sorted(labels, reverse=True) and set(labels) == {0, 1}
        means = [np.mean([float(r[2]) for r in rows if int(r[1]) == lab]) for lab in (1, 0)]
        printed = capsys.readouterr().out.splitlines()[-1]
        assert printed.endswith(f"(member mean {means[0]:.4f}, non-member mean {means[1]:.4f})")

    def test_pretrain_checkpoint(self, cli_config, tmp_path):
        out = tmp_path / "runs"
        assert main(["pretrain", "--config", str(cli_config), "--out", str(out)]) == 0
        from graphmia.checkpoint import load_victim

        model = load_victim(out / "victim_seed11.ckpt")
        assert sorted(model.projectors) == [0, 1]

    def test_seed_override(self, cli_config, tmp_path):
        out = tmp_path / "runs"
        assert main(["attack", "--config", str(cli_config), "--seed", "21",
                     "--out", str(out)]) == 0
        assert (out / "report_similarity_full_seed21.json").exists()

    def test_evaluate_empty_dir_fails(self, tmp_path):
        assert main(["evaluate", "--out", str(tmp_path / "nothing")]) == 1


class TestCliArgumentsCheckedFirst:
    """A bad argument or config ends the command with a usage error (exit
    code 2) before any victim is pre-trained."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the arguments were checked")

        monkeypatch.setattr(exp_mod, "pretrain_multidomain", refuse)

    def usage_error(self, argv, capsys) -> str:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("argv, match", [
        (["diagnose", "robustness", "--trials", "0"], "--trials"),
        (["diagnose", "robustness", "--trials", "-3"], "--trials"),
        (["scaling", "--sizes", "40"], "--sizes"),
        (["scaling", "--sizes", "40,x"], "--sizes"),
        (["scaling", "--sizes", "0,40"], "--sizes"),
        (["scaling", "--sizes", "40,"], "--sizes"),
        (["scaling", "--sizes", "40,40"], "--sizes"),
    ], ids=["trials-0", "trials-neg", "one-size", "size-not-int", "size-0", "size-empty",
            "one-distinct-size"])
    def test_bad_argument(self, cli_config, tmp_path, capsys, no_work, argv, match):
        err = self.usage_error([*argv, "--config", str(cli_config), "--out", str(tmp_path)], capsys)
        assert match in err

    @pytest.mark.parametrize("argv", [["attack"], ["pretrain"], ["diagnose", "pca"],
                                      ["scaling", "--sizes", "40,80"]])
    def test_rejected_config(self, tmp_path, capsys, no_work, argv):
        path = tmp_path / "bad.cfg"
        path.write_text(SAMPLE + "repetitions = 0\n")
        err = self.usage_error([*argv, "--config", str(path), "--out", str(tmp_path)], capsys)
        assert "graphmia: error: repetitions must be >= 1" in err

    @pytest.mark.parametrize("key, text", [("synthetic.domains", "two"),
                                           ("synthetic.avg_degree", "dense")])
    def test_bad_synthetic_value(self, tmp_path, capsys, no_work, key, text):
        path = tmp_path / "bad.cfg"
        path.write_text(f"seed = 3\n{key} = {text}\n")
        err = self.usage_error(["attack", "--config", str(path), "--out", str(tmp_path)], capsys)
        assert f"graphmia: error: line 2: bad value for '{key}': '{text}'" in err

    def test_synthetic_and_dataset_keys_mixed(self, tmp_path, capsys, no_work):
        (tmp_path / "e.tsv").write_text("0\t1\n")
        (tmp_path / "f.txt").write_text("2 1\n0\n0\n")
        path = tmp_path / "mixed.cfg"
        path.write_text("synthetic.nodes_per_domain = 40\n"
                        "dataset.0.edges = e.tsv\ndataset.0.features = f.txt\n")
        err = self.usage_error(["attack", "--config", str(path), "--out", str(tmp_path)], capsys)
        assert "graphmia: error: line 2: 'dataset.0.edges' mixes synthetic.* and dataset.* keys" in err

    def test_scaling_needs_a_synthetic_config(self, tmp_path, capsys, no_work):
        (tmp_path / "e.tsv").write_text("0\t1\n")
        (tmp_path / "f.txt").write_text("2 1\n0\n0\n")
        path = tmp_path / "d.cfg"
        path.write_text("dataset.0.edges = e.tsv\ndataset.0.features = f.txt\n")
        err = self.usage_error(["scaling", "--sizes", "40,80", "--config", str(path),
                                "--out", str(tmp_path)], capsys)
        assert "graphmia: error: scaling check requires a synthetic config" in err

    def test_scaling_size_the_config_cannot_run(self, cli_config, tmp_path, capsys, no_work):
        # 8 nodes per domain: a 4-node shadow graph split (1, 2, 1)
        err = self.usage_error(["scaling", "--sizes", "8,16", "--config", str(cli_config),
                                "--out", str(tmp_path)], capsys)
        assert "graphmia: error: nodes_per_domain 8:" in err

    @pytest.mark.parametrize("case, reason", [
        ("missing", "cannot read config {path}: No such file or directory"),
        ("directory", "cannot read config {path}: Is a directory"),
        ("not-utf8", "config {path} is not UTF-8 text: invalid continuation byte"),
    ])
    def test_unreadable_config(self, tmp_path, capsys, no_work, case, reason):
        path = tmp_path / "audit.cfg"
        if case == "directory":
            path.mkdir()
        elif case == "not-utf8":
            path.write_bytes(SAMPLE.encode() + b"# caf\xe9\n")
        err = self.usage_error(["attack", "--config", str(path), "--out", str(tmp_path / "runs")],
                               capsys)
        assert "graphmia: error: " + reason.format(path=path) in err


GOOD_REPORT = {
    "attack": "glo-mia", "seed": 3, "acc": 0.5, "f1": 0.5, "tp": 1, "fp": 1, "tn": 1, "fn": 1,
    "n_members": 2, "n_nonmembers": 2, "variant": "full", "config_hash": "0123456789abcdef",
}


class TestEvaluateUnreadableReports:
    """``evaluate`` names a report it cannot read and exits with code 2."""

    @pytest.mark.parametrize("text, reason", [
        ("{not json", "Expecting property name"),
        (json.dumps({k: v for k, v in GOOD_REPORT.items() if k != "seed"}), "no field 'seed'"),
        (json.dumps({**GOOD_REPORT, "n_members": 3}), "confusion counts do not sum"),
        ("[]", "list indices"),
        (None, "Is a directory"),
        (json.dumps({**GOOD_REPORT, "acc": "0.5"}), "acc '0.5' and f1 0.5 are not (0.5, 0.5)"),
        (json.dumps({**GOOD_REPORT, "fn": 1.5, "n_members": 2.5}), "fn must be a non-negative int"),
        (json.dumps({**GOOD_REPORT, "tp": True}), "tp must be a non-negative int"),
        (json.dumps({**GOOD_REPORT, "tp": -1, "fn": 3}), "tp must be a non-negative int"),
        (json.dumps({**GOOD_REPORT, "acc": 7.0}), "acc 7.0 and f1 0.5 are not (0.5, 0.5)"),
        (json.dumps({**GOOD_REPORT, "f1": float("nan")}), "acc 0.5 and f1 nan are not (0.5, 0.5)"),
        (json.dumps({**GOOD_REPORT, "seed": "3"}), "seed must be an int and attack a str, got '3'"),
        (json.dumps({**GOOD_REPORT, "attack": 3}), "seed must be an int and attack a str, got 3, 3"),
        (json.dumps({**GOOD_REPORT, **dict.fromkeys(["tp", "fp", "tn", "fn", "n_members",
                                                     "n_nonmembers"], 0)}), "no nodes evaluated"),
    ], ids=["not-json", "no-seed", "counts-do-not-sum", "not-an-object", "directory",
            "acc-a-string", "fractional-counts", "bool-count", "negative-count", "acc-not-the-counts",
            "f1-nan", "seed-a-string", "attack-not-a-str", "no-nodes"])
    def test_bad_report(self, tmp_path, capsys, text, reason):
        (tmp_path / "report_glo-mia_full_seed2.json").write_text(json.dumps(GOOD_REPORT))
        bad = tmp_path / "report_glo-mia_full_seed3.json"
        if text is None:
            bad.mkdir()
        else:
            bad.write_text(text)
        assert main(["evaluate", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"graphmia: error: {bad}: ")
        assert reason in captured.err
