"""The benchmark's workloads: one audit per repetition, plus its output checks.

Each workload turns the workload seed into an ``ExperimentConfig`` and runs
one repetition into a fresh, empty output directory.  ``check`` turns the
directory into operations (one per expected report or CLI command) and
says which of them failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

from graphmia import cli
from graphmia.config import ExperimentConfig, SyntheticSpec
from graphmia.experiment import BASELINE_KINDS, PRIMARY_ATTACK, VARIANTS, run_experiment


def acceptance_fixture(seed: int, objective: str = "link_prediction",
                       nodes_per_domain: int = 300) -> ExperimentConfig:
    """The acceptance suite's two-domain SBM fixture (criteria 3-5), one
    seed.  Epochs and the query cap are cut so that one repetition takes a
    few seconds: the benchmark must fit about a hundred runs in an hour."""
    return ExperimentConfig(
        objective=objective,
        lr_pretrain=3e-3,
        epochs_pretrain=60,
        epochs_shadow=30,
        epochs_attack=150,
        m_queries=30,
        repetitions=1,
        seed=seed,
        synthetic=SyntheticSpec(
            domains=2, nodes_per_domain=nodes_per_domain, feature_dim=16, avg_degree=10,
            feature_shift=0.5, feature_noise=2.0,
        ),
    )


def scale_fixture(seed: int) -> ExperimentConfig:
    """4000 nodes per domain and short training, so that size-driven
    costs (the per-node Fisher estimate, SBM generation, graph
    construction) lead; attack quality is near chance here."""
    return ExperimentConfig(
        epochs_pretrain=5,
        epochs_shadow=20,
        epochs_attack=100,
        m_queries=200,
        repetitions=1,
        seed=seed,
        synthetic=SyntheticSpec(domains=2, nodes_per_domain=4000, feature_dim=16,
                                avg_degree=10),
    )


def config_text(cfg: ExperimentConfig) -> str:
    """The config as the CLI's flat ``key = value`` file."""
    spec = cfg.synthetic
    lines = [
        f"objective = {cfg.objective}",
        f"lr_pretrain = {cfg.lr_pretrain!r}",
        f"epochs_pretrain = {cfg.epochs_pretrain}",
        f"epochs_shadow = {cfg.epochs_shadow}",
        f"epochs_attack = {cfg.epochs_attack}",
        f"repetitions = {cfg.repetitions}",
        f"seed = {cfg.seed}",
        f"synthetic.domains = {spec.domains}",
        f"synthetic.nodes_per_domain = {spec.nodes_per_domain}",
        f"synthetic.feature_dim = {spec.feature_dim}",
        f"synthetic.avg_degree = {spec.avg_degree!r}",
        f"synthetic.feature_shift = {spec.feature_shift!r}",
        f"synthetic.feature_noise = {spec.feature_noise!r}",
    ]
    if cfg.m_queries is not None:
        lines.append(f"m_queries = {cfg.m_queries}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Op:
    name: str
    error: str | None = None


def report_name(attack: str, variant: str, seed: int) -> str:
    return f"report_{attack}_{variant}_seed{seed}.json"


def check_report(path: Path) -> str | None:
    """Why a report is unusable, or None when it is fine."""
    if not path.is_file():
        return "missing"
    try:
        rec = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return f"unreadable: {exc}"
    for key in ("acc", "f1"):
        value = rec.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value) or not 0.0 <= value <= 1.0:
            return f"{key} = {value!r} is not a finite number in [0, 1]"
    return None


def report_bytes(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.glob("report_*.json"))}


def reports_sha256(reports: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(reports):
        h.update(name.encode() + b"\0" + reports[name] + b"\0")
    return h.hexdigest()


class Workload:
    name: str
    why: str

    def setup(self, seed: int, work: Path) -> None:
        """Build the config (and anything else a repetition reads)."""
        raise NotImplementedError

    def run(self, out: Path) -> object:
        """One timed repetition into the empty directory ``out``."""
        raise NotImplementedError

    def check(self, outcome: object, out: Path) -> list[Op]:
        """The repetition's operations, each with its error if it failed."""
        raise NotImplementedError


class ExperimentWorkload(Workload):
    """One ``run_experiment`` call."""

    def __init__(self, name: str, why: str, make_config, attacks, variants) -> None:
        self.name = name
        self.why = why
        self.make_config = make_config
        self.attacks = tuple(attacks)
        self.variants = tuple(variants)

    def setup(self, seed: int, work: Path) -> None:
        self.cfg = self.make_config(seed)
        self.cfg.validate()

    def run(self, out: Path):
        return run_experiment(self.cfg, attacks=self.attacks, variants=self.variants, out_dir=out)

    def expected(self) -> list[str]:
        names = []
        for attack in self.attacks:
            for variant in (self.variants if attack == PRIMARY_ATTACK else ("full",)):
                names.append(report_name(attack, variant, self.cfg.seed))
        return names

    def check(self, result, out: Path) -> list[Op]:
        seed_error = "; ".join(f"{f.stage}: {f.error}" for f in result.failures) or None
        return [Op(name, seed_error or check_report(out / name)) for name in self.expected()]


class CliWorkload(Workload):
    """The README CLI flow, each command called in process into one directory."""

    name = "cli-session"
    why = ("pretrain, attack, ablate and baseline through the CLI; the only "
           "workload that runs cli and checkpoint and pre-trains one victim four times")

    def setup(self, seed: int, work: Path) -> None:
        self.cfg = acceptance_fixture(seed)
        self.cfg.validate()
        self.config_path = work / "audit.cfg"
        self.config_path.write_text(config_text(self.cfg), encoding="utf-8")

    def commands(self, out: Path) -> list[list[str]]:
        common = ["--config", str(self.config_path), "--out", str(out)]
        return [
            ["pretrain", *common],
            ["attack", *common],
            ["ablate", "--variant", "wo-il", *common],
            ["baseline", "--name", "ge-mia", *common],
        ]

    def run(self, out: Path):
        codes = []
        for argv in self.commands(out):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    codes.append(cli.main(argv))
                except SystemExit as exc:
                    codes.append(exc.code)
                except Exception as exc:  # noqa: BLE001 - counted as a failed command
                    codes.append(f"{type(exc).__name__}: {exc}")
        return codes

    def check(self, codes, out: Path) -> list[Op]:
        seed = self.cfg.seed
        ops = []
        for argv, code in zip(self.commands(out), codes):
            error = None if code == 0 else f"exit code {code!r}"
            if argv[0] == "pretrain" and error is None and not (out / f"victim_seed{seed}.ckpt").is_file():
                error = "no checkpoint written"
            ops.append(Op(" ".join(argv[:argv.index("--config")]), error))
        for attack, variant in ((PRIMARY_ATTACK, "full"), (PRIMARY_ATTACK, "wo-il"), ("ge-mia", "full")):
            name = report_name(attack, variant, seed)
            ops.append(Op(name, check_report(out / name)))
        return ops


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        ExperimentWorkload(
            "audit-lp",
            "acceptance fixture with link prediction: the attack, both ablations and all "
            "six baselines; GPIA and pretrain lead, and the scratch shadow is retrained per baseline",
            acceptance_fixture,
            (PRIMARY_ATTACK, *BASELINE_KINDS),
            VARIANTS,
        ),
        ExperimentWorkload(
            "audit-cl",
            "the same audit with the contrastive objective on 200-node domains: GPIA and view "
            "building lead, and the link-prediction sampler is never called",
            lambda seed: acceptance_fixture(seed, "contrastive", nodes_per_domain=200),
            (PRIMARY_ATTACK, *BASELINE_KINDS),
            VARIANTS,
        ),
        ExperimentWorkload(
            "scale-lp-4k",
            "4000-node link-prediction domains, similarity/full only: the per-node Fisher "
            "estimate leads and SBM generation sets peak memory",
            scale_fixture,
            (PRIMARY_ATTACK,),
            ("full",),
        ),
        CliWorkload(),
    )
}
