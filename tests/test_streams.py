"""A run opens as many random streams at any graph size.

Stream labels name stages, domains, epochs and views, never nodes: a stage
that draws for many nodes (a sample plan, the Fisher estimate, Grad-MIA,
GPIA) opens one stream per call.  The calls are counted by rebinding
``substream`` in every graphmia module that binds it; ``derive_seed``
reads it from ``graphmia.rng``.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import graphmia
from graphmia import rng as rng_mod
from graphmia.baselines import KINDS
from graphmia.config import SyntheticSpec
from graphmia.experiment import PRIMARY_ATTACK, VARIANTS, run_experiment
from graphmia.victim import CONTRASTIVE, LINK_PREDICTION

from test_experiment import tiny_cfg


def substream_calls(cfg) -> int:
    """``substream`` calls of every attack and variant on ``cfg``; every
    seed must finish."""
    real, calls = rng_mod.substream, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        for info in pkgutil.iter_modules(graphmia.__path__):
            if info.name != "__main__":
                module = importlib.import_module(f"graphmia.{info.name}")
                if getattr(module, "substream", None) is real:
                    mp.setattr(module, "substream", counting)
        result = run_experiment(cfg, attacks=(PRIMARY_ATTACK, *KINDS), variants=VARIANTS)
    assert not result.failures
    return len(calls)


@pytest.mark.parametrize("kind", [LINK_PREDICTION, CONTRASTIVE])
def test_stream_count_does_not_grow_with_the_graph(kind):
    counts = [
        substream_calls(tiny_cfg(
            objective=kind, epochs_pretrain=5, epochs_augment=1, epochs_unlearn=2,
            epochs_shadow=2, epochs_attack=5, hidden_dim=16, emb_dim=8,
            synthetic=SyntheticSpec(domains=2, nodes_per_domain=nodes, feature_dim=8,
                                    avg_degree=12),
        ))
        for nodes in (40, 80)
    ]
    assert counts[0] == counts[1]
