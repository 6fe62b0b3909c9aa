"""Attack evaluation metrics."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields


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
        if self.tp + self.fn != self.n_members or self.tn + self.fp != self.n_nonmembers:
            raise ValueError("confusion counts do not sum to the evaluated nodes")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsReport":
        """Inverse of :meth:`to_dict`; keys that are not fields are ignored."""
        return cls(**{f.name: d[f.name] for f in fields(cls)})


def accuracy_f1(
    predictions: dict[int, int], truth: dict[int, int], attack: str = "", seed: int = 0
) -> MetricsReport:
    """Accuracy and F1 of membership predictions against ground truth.

    Both maps must cover exactly the same nodes.  F1 is 0 by convention
    when precision or recall is undefined (no predicted or no true
    positives); accuracy and f1 are single exact divisions of integer
    counts, so recomputing them from the stored confusion counts
    reproduces them bit for bit.
    """
    if predictions.keys() != truth.keys():
        raise KeyError("prediction and truth node sets differ")
    if not truth:
        raise ValueError("no nodes to evaluate")
    tp = fp = tn = fn = 0
    for node, y in truth.items():
        p = predictions[node]
        if p not in (0, 1) or y not in (0, 1):
            raise ValueError("labels must be 0 or 1")
        if p == 1 and y == 1:
            tp += 1
        elif p == 1 and y == 0:
            fp += 1
        elif p == 0 and y == 0:
            tn += 1
        else:
            fn += 1
    total = tp + fp + tn + fn
    acc = (tp + tn) / total
    denom = 2 * tp + fp + fn
    f1 = 2 * tp / denom if denom else 0.0
    return MetricsReport(
        attack=attack, seed=seed, acc=acc, f1=f1,
        tp=tp, fp=fp, tn=tn, fn=fn,
        n_members=tp + fn, n_nonmembers=tn + fp,
    )
