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
