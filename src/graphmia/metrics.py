"""Attack evaluation metrics."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np


@dataclass(frozen=True)
class MetricsReport:
    attack: str
    seed: int
    acc: float
    f1: float
    tp: int
    fp: int
    tn: int
    fn: int
    n_members: int
    n_nonmembers: int

    def __post_init__(self) -> None:
        """Only what :func:`accuracy_f1` writes: non-negative int counts, an
        int seed, a str attack, and acc and f1 recomputed from the counts."""
        for name in ("tp", "fp", "tn", "fn", "n_members", "n_nonmembers"):
            if type(getattr(self, name)) is not int or getattr(self, name) < 0:
                raise ValueError(f"{name} must be a non-negative int, got {getattr(self, name)!r}")
        if type(self.seed) is not int or not isinstance(self.attack, str):
            raise ValueError(f"seed must be an int and attack a str, got {self.seed!r}, {self.attack!r}")
        if self.tp + self.fn != self.n_members or self.tn + self.fp != self.n_nonmembers:
            raise ValueError("confusion counts do not sum to the evaluated nodes")
        want = _rates(self.tp, self.fp, self.tn, self.fn)
        if (self.acc, self.f1) != want:
            raise ValueError(f"acc {self.acc!r} and f1 {self.f1!r} are not {want}, from the counts")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsReport":
        """Inverse of :meth:`to_dict`; keys that are not fields are ignored."""
        return cls(**{f.name: d[f.name] for f in fields(cls)})


def accuracy_f1(
    predictions: np.ndarray, truth: np.ndarray, attack: str = "", seed: int = 0
) -> MetricsReport:
    """Accuracy and F1 of membership predictions against ground truth.

    ``predictions`` and ``truth`` are equal-length 1-D arrays of 0/1
    labels, entry i of both for one node.  F1 is 0 by convention when
    precision or recall is undefined (no predicted or no true positives);
    accuracy and f1 are single exact divisions of integer counts, so
    recomputing them from the stored confusion counts reproduces them bit
    for bit.
    """
    predictions, truth = np.asarray(predictions), np.asarray(truth)
    if predictions.ndim != 1 or predictions.shape != truth.shape:
        raise ValueError("predictions and truth must be 1-D arrays of one length")
    p, y = predictions == 1, truth == 1
    if not (np.all(p | (predictions == 0)) and np.all(y | (truth == 0))):
        raise ValueError("labels must be 0 or 1")
    # Python ints, so that the report serialises to JSON
    tp = int(np.count_nonzero(p & y))
    fp = int(np.count_nonzero(p & ~y))
    fn = int(np.count_nonzero(~p & y))
    tn = len(truth) - tp - fp - fn
    acc, f1 = _rates(tp, fp, tn, fn)
    return MetricsReport(
        attack=attack, seed=seed, acc=acc, f1=f1,
        tp=tp, fp=fp, tn=tn, fn=fn,
        n_members=tp + fn, n_nonmembers=tn + fp,
    )


def _rates(tp: int, fp: int, tn: int, fn: int) -> tuple[float, float]:
    """Accuracy and F1 of the confusion counts (F1 0 when undefined)."""
    if not tp + fp + tn + fn:
        raise ValueError("no nodes evaluated")
    denom = 2 * tp + fp + fn
    return (tp + tn) / (tp + fp + tn + fn), (2 * tp / denom if denom else 0.0)
