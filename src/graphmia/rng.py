"""Deterministic, splittable random streams.

Every random decision in the package flows from one 64-bit experiment seed.
A substream is addressed by the seed plus a path of labels, e.g.
``substream(seed, "pretrain", domain_id, epoch)``.  Each label is hashed
with SHA-256 into a 64-bit word and the words seed a ``numpy`` SeedSequence
backing a PCG64 generator, so streams for different paths are independent
and runs are bit-reproducible on any platform with the same numpy build.

Labels name stages, domains, epochs and views, never nodes.  A stage that
draws for many nodes (a sample plan, the Fisher estimate, Grad-MIA, GPIA)
opens one stream per call and draws every node's samples from it in
ascending node order, so the number of streams a run opens does not grow
with the graph.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _label_word(label: int | str) -> int:
    if isinstance(label, (int, np.integer)):
        token = b"i:" + str(int(label)).encode()
    elif isinstance(label, str):
        token = b"s:" + label.encode()
    else:
        raise TypeError(f"stream labels must be int or str, got {type(label).__name__}")
    return int.from_bytes(hashlib.sha256(token).digest()[:8], "little")


def substream(seed: int, *path: int | str) -> np.random.Generator:
    """Generator for the stream addressed by (seed, *path)."""
    entropy = [int(seed) & _MASK64] + [_label_word(p) for p in path]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def derive_seed(seed: int, *path: int | str) -> int:
    """A fresh 63-bit seed for handing to a nested component."""
    return int(substream(seed, *path).integers(0, 1 << 63))
