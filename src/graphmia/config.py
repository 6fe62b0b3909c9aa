"""Experiment configuration: flat ``key = value`` text files.

Unknown keys are rejected so typos fail loudly.  ``dataset.N.edges`` /
``dataset.N.features`` point at files for domain N; ``synthetic.*`` keys
configure the in-repo SBM generator instead.  A config hashes to a stable
identifier recorded in every report.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_args, get_type_hints

from .graph import partition_sizes
from .victim import LINK_PREDICTION, SSLObjective


class ConfigError(ValueError):
    pass


@dataclass
class SyntheticSpec:
    domains: int = 2
    nodes_per_domain: int = 300
    feature_dim: int = 16
    avg_degree: float = 10.0
    feature_shift: float = 1.0
    feature_noise: float = 1.0


@dataclass
class ExperimentConfig:
    """Every setting of an audit, named and defaulted here and checked by
    ``validate``; each stage reads the fields it needs from this object."""

    objective: str = LINK_PREDICTION
    lam: float = 1.0
    alpha: float | None = None          # None: resolved by objective kind
    epochs_pretrain: int = 500
    epochs_augment: int = 5
    epochs_unlearn: int = 50
    epochs_shadow: int = 100
    epochs_attack: int = 300
    m_samples: int = 5
    m_queries: int | None = None        # cap on evaluated nodes per side
    hidden_dim: int = 256               # attack MLP latent width
    emb_dim: int = 64
    layers: int = 2
    lr_pretrain: float = 1e-3
    lr_augment: float = 1e-3
    lr_unlearn: float = 1e-3
    lr_shadow: float = 1e-3
    lr_attack: float = 1e-3
    unlearn_fraction: float = 0.2
    repetitions: int = 5
    seed: int = 7
    attack_domain: int = 0
    temperature: float = 0.5
    negatives_per_positive: int = 5
    synthetic: SyntheticSpec | None = field(default_factory=SyntheticSpec)
    dataset: dict[int, dict[str, str]] | None = None

    def resolved_alpha(self) -> float:
        if self.alpha is not None:
            return self.alpha
        return 1.0 if self.objective == LINK_PREDICTION else 1e-2

    def seeds(self) -> list[int]:
        return [self.seed + r for r in range(self.repetitions)]

    def validate(self) -> None:
        for prefix, owner in (("", self), ("synthetic.", self.synthetic)):
            if owner is None:
                continue
            for name, kind in _value_types(type(owner)).items():
                value = getattr(owner, name)
                if kind is float and value is not None and not math.isfinite(value):
                    key = "lambda" if name == "lam" else prefix + name
                    raise ConfigError(f"{key} must be finite, got {value}")
        try:
            SSLObjective(self.objective, self.temperature, self.negatives_per_positive)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.lam < 0:
            raise ConfigError("lambda must be >= 0")
        if self.alpha is not None and self.alpha < 0:
            raise ConfigError("alpha must be >= 0")
        for name in ("epochs_pretrain", "epochs_augment", "epochs_unlearn",
                     "epochs_shadow", "epochs_attack"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.m_samples < 1:
            raise ConfigError("m_samples must be >= 1")
        if self.m_queries is not None and self.m_queries < 1:
            raise ConfigError("m_queries must be >= 1 when set")
        if not 0.0 < self.unlearn_fraction < 1.0:
            raise ConfigError("unlearn_fraction must lie in (0, 1)")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if min(self.emb_dim, self.hidden_dim, self.layers) < 1:
            raise ConfigError("dims and layer count must be positive")
        for name in ("lr_pretrain", "lr_augment", "lr_unlearn", "lr_shadow", "lr_attack"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if (self.synthetic is None) == (self.dataset is None):
            raise ConfigError("exactly one of synthetic.* or dataset.* must be configured")
        synth = self.synthetic
        if synth is not None and (min(synth.domains, synth.feature_dim) < 1 or synth.avg_degree <= 0
                                  or synth.nodes_per_domain < 4 or synth.feature_shift < 0):
            raise ConfigError("synthetic.* needs domains >= 1, nodes_per_domain >= 4, "
                              "feature_dim >= 1, avg_degree > 0 and feature_shift >= 0")
        if synth is not None:
            # the shadow graph is the attack domain's non-member half, the
            # smaller half for odd sizes; a one-node part has no contrastive
            # negative and no link-prediction positive
            shadow = synth.nodes_per_domain // 2
            sizes = partition_sizes(shadow, self.unlearn_fraction)
            if min(sizes) < 2:
                raise ConfigError(
                    f"unlearn_fraction {self.unlearn_fraction} splits the {shadow}-node shadow graph "
                    f"into unlearn, train and test parts of {sizes} nodes; each needs at least 2")
        domains = range(synth.domains) if synth is not None else self.dataset
        if self.attack_domain not in domains:
            raise ConfigError(f"attack_domain {self.attack_domain} is not a configured domain")
        if self.dataset is not None:
            for dom, spec in self.dataset.items():
                for key in ("edges", "features"):
                    if key not in spec:
                        raise ConfigError(f"dataset.{dom}.{key} is missing")
                    if not Path(spec[key]).exists():
                        raise ConfigError(f"dataset.{dom}.{key}: no such file {spec[key]!r}")


@functools.cache
def _value_types(cls: type) -> dict[str, type]:
    """The int, float or str fields of a config dataclass and the type each
    annotation names (``X | None`` names X): the settings a file can set."""
    types = {}
    for name, hint in get_type_hints(cls).items():
        for t in get_args(hint) or (hint,):
            if t in (int, float, str):
                types[name] = t
    return types


# ``lambda`` is a Python keyword, so its setting is the field ``lam``,
# which is not a key itself
_RENAMED = {"lambda": "lam", "lam": None}


def parse_config(text: str, base_dir: Path | None = None) -> ExperimentConfig:
    """Parse config text.  A key outside ``dataset.*`` sets the field of its
    name, on ``cfg.synthetic`` for ``synthetic.*``, converted to the type
    the field's annotation names."""
    cfg = ExperimentConfig()
    dataset_kv: dict[int, dict[str, str]] = {}
    sources: set[str] = set()  # "synthetic" and "dataset", as the file's keys use them
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith(("synthetic.", "dataset.")):
            sources.add(key.split(".", 1)[0])
            if len(sources) > 1:
                raise ConfigError(f"line {lineno}: {key!r} mixes synthetic.* and dataset.* keys")
        unknown = ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            if key.startswith("dataset."):
                _, dom, attr = key.split(".", 2)
                if attr not in ("edges", "features"):
                    raise unknown
                dataset_kv.setdefault(int(dom), {})[attr] = value
                continue
            if key.startswith("synthetic."):
                owner, name = cfg.synthetic, key.removeprefix("synthetic.")
            else:
                owner, name = cfg, _RENAMED.get(key, key)
            kind = _value_types(type(owner)).get(name)
            if kind is None:
                raise unknown
            setattr(owner, name, kind(value))
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {value!r}") from exc
    if dataset_kv:
        cfg.synthetic = None
        if base_dir is not None:
            dataset_kv = {
                dom: {k: str((base_dir / v)) for k, v in spec.items()}
                for dom, spec in dataset_kv.items()
            }
        cfg.dataset = dataset_kv
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse the config file at ``path``; a file that cannot be read as
    UTF-8 text raises ``ConfigError`` naming it."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"config {path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    return parse_config(text, base_dir=path.parent)


def canonical_text(cfg: ExperimentConfig) -> str:
    """Stable textual form used for hashing and reproducibility checks."""
    pairs: list[tuple[str, str]] = []
    for f in fields(cfg):
        if f.name in ("synthetic", "dataset"):
            continue
        pairs.append((f.name, repr(getattr(cfg, f.name))))
    if cfg.synthetic is not None:
        for f in fields(cfg.synthetic):
            pairs.append((f"synthetic.{f.name}", repr(getattr(cfg.synthetic, f.name))))
    if cfg.dataset is not None:
        for dom in sorted(cfg.dataset):
            for k in sorted(cfg.dataset[dom]):
                pairs.append((f"dataset.{dom}.{k}", cfg.dataset[dom][k]))
    return "\n".join(f"{k} = {v}" for k, v in sorted(pairs)) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode()).hexdigest()[:16]
