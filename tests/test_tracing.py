"""The benchmark's span recorder must find every function it traces.

``bench/tracing.py`` rebinds a fixed list of graphmia functions by name, so
a deleted or renamed one breaks every traced benchmark run.  The module is
loaded from its file and only read, never changed.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import graphmia
from graphmia import amplify, attack
from graphmia.experiment import build_context, run_experiment

from test_experiment import tiny_cfg

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_restore():
    tracing = load_tracing()
    originals = (amplify.similarity_profile, attack.draw_sample_plan, graphmia.unlearn)
    restore = tracing.Tracer().install()
    try:
        assert amplify.similarity_profile is not originals[0]
        assert attack.draw_sample_plan is not originals[1]
    finally:
        restore()
    assert (amplify.similarity_profile, attack.draw_sample_plan, graphmia.unlearn) == originals


def test_counters_read_the_traced_arguments():
    # the tracer's counters read positional arguments and results of the
    # functions it wraps; a read that no longer fits fails the seed
    tracing = load_tracing()
    cfg = tiny_cfg(m_queries=6, epochs_attack=5)
    shadow_train = build_context(cfg, cfg.seed).shadow_train_graph.num_nodes
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        res = run_experiment(cfg, attacks=("similarity", "gpia"), variants=("full",))
    finally:
        restore()
    assert not res.failures
    summary = tracer.summary()
    assert summary["shadow.estimate_fisher.nodes"] == shadow_train
    assert summary["attack.infer_membership.answered_ratio"] > 0
    assert summary["baselines.gpia.answered_ratio"] > 0
    assert "quality.skipped_train" in tracer.counters
