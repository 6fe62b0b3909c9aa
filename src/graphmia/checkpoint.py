"""Bit-exact parameter checkpoints.

Layout: magic ``MGPM``, version u32 LE, parameter count u32 LE, then per
parameter: name length u16 LE, UTF-8 name, rows u32 LE, cols u32 LE and
row-major float64 LE values.  Victim models add a text sidecar with the
metadata needed to rebuild them.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .nn import GCNEncoder, ParamSet
from .victim import SSLObjective, VictimModel

MAGIC = b"MGPM"
VERSION = 1

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
    data = Path(path).read_bytes()
    if data[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes {data[:4]!r}")
    version, count = struct.unpack_from("<II", data, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    offset = 12
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, offset)
        offset += 2
        name = data[offset:offset + name_len].decode("utf-8")
        offset += name_len
        rows, cols = struct.unpack_from("<II", data, offset)
        offset += 8
        nbytes = rows * cols * 8
        vals = np.frombuffer(data[offset:offset + nbytes], dtype="<f8").astype(np.float64)
        offset += nbytes
        tensors[name] = vals.reshape(rows, cols)
    if offset != len(data):
        raise CheckpointError(f"{path}: {len(data) - offset} trailing bytes")
    return ParamSet(tensors)


def save_victim(path: str | Path, model: VictimModel, seed: int = 0) -> None:
    """Checkpoint plus ``.meta`` text sidecar (key = value lines)."""
    path = Path(path)
    save_params(path, model.params)
    obj = model.objective
    meta = {
        "objective": obj.kind,
        "temperature": repr(obj.temperature),
        "negatives_per_positive": obj.negatives_per_positive,
        "edge_drop_rate": repr(obj.edge_drop_rate),
        "feature_mask_rate": repr(obj.feature_mask_rate),
        "domains": ",".join(str(d) for d in sorted(model.projectors)),
        "domain_dims": ",".join(str(model.projectors[d].shape[0]) for d in sorted(model.projectors)),
        "emb_dim": model.encoder.output_dim,
        "layers": model.encoder.num_layers,
        "trained_epochs": model.trained_epochs,
        "seed": seed,
    }
    lines = [f"{k} = {v}" for k, v in meta.items()]
    path.with_suffix(path.suffix + ".meta").write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_victim(path: str | Path) -> VictimModel:
    path = Path(path)
    params = load_params(path)
    meta: dict[str, str] = {}
    for line in path.with_suffix(path.suffix + ".meta").read_text(encoding="utf-8").splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            meta[k.strip()] = v.strip()
    objective = SSLObjective(
        kind=meta["objective"],
        temperature=float(meta["temperature"]),
        negatives_per_positive=int(meta["negatives_per_positive"]),
        edge_drop_rate=float(meta["edge_drop_rate"]),
        feature_mask_rate=float(meta["feature_mask_rate"]),
    )
    domains = [int(d) for d in meta["domains"].split(",") if d]
    projectors = {d: params.tensors[f"proj.{d}"] for d in domains}
    layers = int(meta["layers"])
    weights = [params.tensors[f"gcn.{i}"] for i in range(layers)]
    return VictimModel(
        projectors=projectors,
        encoder=GCNEncoder(weights=weights),
        objective=objective,
        trained_epochs=int(meta["trained_epochs"]),
    )
