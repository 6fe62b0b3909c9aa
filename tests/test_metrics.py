from __future__ import annotations

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from graphmia.metrics import MetricsReport, accuracy_f1


def as_arrays(preds, truths):
    return np.array(preds), np.array(truths)


class TestAccuracyF1:
    def test_perfect(self):
        preds, truth = as_arrays([1, 0, 1, 0], [1, 0, 1, 0])
        rep = accuracy_f1(preds, truth)
        assert rep.acc == 1.0 and rep.f1 == 1.0

    def test_hand_case(self):
        # tp=2 fp=1 fn=1 tn=2: precision = recall = 2/3, f1 = 2/3, acc = 4/6
        preds, truth = as_arrays([1, 1, 1, 0, 0, 0], [1, 1, 0, 1, 0, 0])
        rep = accuracy_f1(preds, truth)
        assert (rep.tp, rep.fp, rep.fn, rep.tn) == (2, 1, 1, 2)
        assert rep.acc == pytest.approx(4 / 6)
        assert rep.f1 == pytest.approx(2 / 3)

    def test_all_negative_predictions_f1_zero(self):
        preds, truth = as_arrays([0, 0, 0], [1, 1, 0])
        rep = accuracy_f1(preds, truth)
        assert rep.f1 == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="one length"):
            accuracy_f1(np.array([1]), np.array([1, 0]))

    def test_empty_and_non_binary_rejected(self):
        with pytest.raises(ValueError, match="no nodes"):
            accuracy_f1(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="0 or 1"):
            accuracy_f1(np.array([2, 0]), np.array([1, 0]))
        with pytest.raises(ValueError, match="0 or 1"):
            accuracy_f1(np.array([1, 0]), np.array([1, -1]))

    def test_report_fields_are_python_numbers(self):
        # numpy counts would make the report unserialisable as JSON
        rep = accuracy_f1(np.array([1, 1, 0, 0, 1]), np.array([1, 0, 0, 1, 1]))
        for name in ("tp", "fp", "tn", "fn", "n_members", "n_nonmembers"):
            assert type(getattr(rep, name)) is int, name
        assert type(rep.acc) is float and type(rep.f1) is float
        json.dumps(rep.to_dict())

    def test_counts_partition_totals(self):
        preds, truth = as_arrays([1, 0, 1], [0, 0, 1])
        rep = accuracy_f1(preds, truth)
        assert rep.tp + rep.fn == rep.n_members
        assert rep.tn + rep.fp == rep.n_nonmembers
        assert rep.acc == (rep.tp + rep.tn) / 3

    def test_exhaustive_confusion_oracle_eight_nodes(self):
        # every (prediction, truth) labeling pair of 8 nodes, exactly
        n = 8
        for truth_bits in itertools.product([0, 1], repeat=n):
            for pred_bits in itertools.product([0, 1], repeat=n):
                preds, truth = as_arrays(pred_bits, truth_bits)
                rep = accuracy_f1(preds, truth)
                tp = sum(p and t for p, t in zip(pred_bits, truth_bits))
                fp = sum(p and not t for p, t in zip(pred_bits, truth_bits))
                tn = sum((not p) and (not t) for p, t in zip(pred_bits, truth_bits))
                fn = sum((not p) and t for p, t in zip(pred_bits, truth_bits))
                assert (rep.tp, rep.fp, rep.tn, rep.fn) == (tp, fp, tn, fn)
                assert rep.acc == (tp + tn) / n
                denom = 2 * tp + fp + fn
                expected_f1 = float(Fraction(2 * tp, denom)) if denom else 0.0
                assert rep.f1 == expected_f1

    def test_report_rejects_inconsistent_counts(self):
        with pytest.raises(ValueError):
            MetricsReport(attack="x", seed=0, acc=1.0, f1=1.0,
                          tp=1, fp=0, tn=0, fn=0, n_members=2, n_nonmembers=0)
