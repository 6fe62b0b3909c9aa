"""Bit-exact parameter checkpoints and the victim cache they back.

Layout: magic ``MGPM``, version u32 LE, parameter count u32 LE, then per
parameter: name length u16 LE, UTF-8 name, rows u32 LE, cols u32 LE and
row-major float64 LE values.  Victim models add a text sidecar with the
metadata needed to rebuild them and, when written by ``pretrain``, the
``pretrain_key`` that addresses the victim by the inputs it was trained on.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

from .graph import Graph, graph_fingerprint
from .nn import ParamSet
from .victim import SSLObjective, TrainConfig, VictimModel

MAGIC = b"MGPM"
VERSION = 1
# Part of every pretrain key: bump it whenever a change moves the numbers
# pretrain_multidomain produces, or the text the key hashes, so that older
# checkpoints miss the cache.
PRETRAIN_KEY_VERSION = 3


class CheckpointError(ValueError):
    pass


def save_params(path: str | Path, params: ParamSet) -> None:
    tensors = params.tensors
    with Path(path).open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(tensors)))
        for name, t in tensors.items():
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<II", t.shape[0], t.shape[1]))
            fh.write(np.ascontiguousarray(t, dtype="<f8").tobytes())


def load_params(path: str | Path) -> ParamSet:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read: {exc}") from exc
    offset = 0

    def take(nbytes: int) -> bytes:
        nonlocal offset
        if offset + nbytes > len(data):
            raise CheckpointError(f"{path}: truncated at {len(data)} bytes "
                                  f"(needs at least {offset + nbytes})")
        chunk = data[offset:offset + nbytes]
        offset += nbytes
        return chunk

    magic = take(4)
    if magic != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes {magic!r}")
    version, count = struct.unpack("<II", take(8))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: parameter name is not UTF-8") from exc
        rows, cols = struct.unpack("<II", take(8))
        vals = np.frombuffer(take(rows * cols * 8), dtype="<f8").astype(np.float64)
        tensors[name] = vals.reshape(rows, cols)
    if offset != len(data):
        raise CheckpointError(f"{path}: {len(data) - offset} trailing bytes")
    return ParamSet(tensors)


def victim_path(out_dir: str | Path, seed: int) -> Path:
    """Where ``pretrain`` checkpoints one seed's victim in an output directory."""
    return Path(out_dir) / f"victim_seed{seed}.ckpt"


def _meta_path(path: Path) -> Path:
    return path.with_suffix(path.suffix + ".meta")


def pretrain_key(
    member_graphs: list[Graph],
    objective: SSLObjective,
    config: TrainConfig,
    seed: int,
) -> str:
    """SHA-256 over the arguments of ``pretrain_multidomain``: equal keys,
    bit-identical victims.  Graphs enter by content, in domain order."""
    h = hashlib.sha256()
    h.update(f"v{PRETRAIN_KEY_VERSION};seed={seed};{objective!r};{config!r}".encode())
    for graph in sorted(member_graphs, key=lambda g: g.domain_id):
        h.update(graph_fingerprint(graph).encode())
    return h.hexdigest()


def save_victim(path: str | Path, model: VictimModel, seed: int, key: str) -> None:
    """Checkpoint plus ``.meta`` text sidecar (key = value lines); ``key`` is
    recorded as the ``pretrain_key`` line."""
    path = Path(path)
    save_params(path, model.params)
    obj = model.objective
    meta = {
        "objective": obj.kind,
        "temperature": repr(obj.temperature),
        "negatives_per_positive": obj.negatives_per_positive,
        "domains": ",".join(str(d) for d in model.projectors),
        "domain_dims": ",".join(str(w.shape[0]) for w in model.projectors.values()),
        "emb_dim": model.encoder.output_dim,
        "layers": model.encoder.num_layers,
        "trained_epochs": model.trained_epochs,
        "seed": seed,
        "pretrain_key": key,
    }
    lines = [f"{k} = {v}" for k, v in meta.items()]
    _meta_path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_meta(path: str | Path) -> dict[str, str]:
    """The ``key = value`` lines of a victim checkpoint's sidecar."""
    meta_path = _meta_path(Path(path))
    try:
        text = meta_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{meta_path}: cannot read: {exc}") from exc
    meta: dict[str, str] = {}
    for line in text.splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            meta[k.strip()] = v.strip()
    return meta


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def load_victim(path: str | Path) -> VictimModel:
    """Rebuild a victim around the ParamSet read from ``path``; its tensors,
    their shapes and their order must agree with the sidecar, or
    ``CheckpointError`` names what does not.  Lines it does not read, such
    as the augmentation rates older sidecars record, are ignored."""
    path = Path(path)
    params = load_params(path)
    meta = read_meta(path)
    meta_path = _meta_path(path)
    try:
        objective = SSLObjective(
            kind=meta["objective"],
            temperature=float(meta["temperature"]),
            negatives_per_positive=int(meta["negatives_per_positive"]),
        )
        domains = _int_list(meta["domains"])
        dims = _int_list(meta["domain_dims"])
        emb_dim = int(meta["emb_dim"])
        layers = int(meta["layers"])
        trained_epochs = int(meta["trained_epochs"])
    except KeyError as exc:
        raise CheckpointError(f"{meta_path}: missing key {exc.args[0]!r}") from None
    except ValueError as exc:
        raise CheckpointError(f"{meta_path}: malformed value: {exc}") from exc
    if len(dims) != len(domains) or layers < 1:
        raise CheckpointError(f"{meta_path}: {len(domains)} domains with {len(dims)} "
                              f"domain_dims and {layers} layers")
    expected = {f"proj.{d}": (dim, emb_dim) for d, dim in sorted(zip(domains, dims))}
    expected.update({f"gcn.{i}": (emb_dim, emb_dim) for i in range(layers)})
    if params.layout != tuple(expected.items()):
        found = dict(params.layout)
        problems = [f"{name} is {found.get(name, 'missing')}, meta implies {expected.get(name, 'none')}"
                    for name in sorted(found.keys() | expected.keys())
                    if found.get(name) != expected.get(name)]
        raise CheckpointError(f"{path}: " + ("; ".join(problems)
                                             or f"tensors are not in the order {', '.join(expected)}"))
    return VictimModel(params, objective, trained_epochs)


def load_pretrained(
    path: str | Path,
    member_graphs: list[Graph],
    objective: SSLObjective,
    config: TrainConfig,
    seed: int,
) -> VictimModel | None:
    """The victim checkpointed at ``path`` if its meta records the pretrain
    key of these inputs, else None (no checkpoint, no meta, no key line or
    another key).  A matching checkpoint that cannot be loaded raises
    ``CheckpointError``; it is never silently pre-trained again."""
    path = Path(path)
    if not path.is_file() or not _meta_path(path).is_file():
        return None
    if read_meta(path).get("pretrain_key") != pretrain_key(member_graphs, objective, config, seed):
        return None
    return load_victim(path)
