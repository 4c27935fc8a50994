"""Classification-quality analysis beyond the paper's pi/rho.

The paper reports pi (set size), rho (miss coverage) and xi (dynamic
false-positive impact).  For library users tuning weights or thresholds
it is often more natural to view delinquency identification as a binary
classification problem: ground truth = the ideal Delta reaching a target
coverage (the loads one *should* flag), prediction = the heuristic's
Delta.  This module provides the confusion matrix and the standard
derived scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.metrics.measures import ideal_delta


@dataclass(frozen=True)
class ConfusionMatrix:
    """Static-load classification outcome against a ground-truth set."""

    true_positive: int
    false_positive: int
    false_negative: int
    true_negative: int

    @property
    def total(self) -> int:
        return (self.true_positive + self.false_positive
                + self.false_negative + self.true_negative)

    @property
    def precision(self) -> float:
        denominator = self.true_positive + self.false_positive
        return self.true_positive / denominator if denominator else 0.0

    @property
    def recall(self) -> float:
        denominator = self.true_positive + self.false_negative
        return self.true_positive / denominator if denominator else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    @property
    def accuracy(self) -> float:
        return (self.true_positive + self.true_negative) / self.total \
            if self.total else 0.0

    def describe(self) -> str:
        return (f"TP={self.true_positive} FP={self.false_positive} "
                f"FN={self.false_negative} TN={self.true_negative}  "
                f"precision={self.precision:.2f} "
                f"recall={self.recall:.2f} f1={self.f1:.2f}")


def confusion(delta: set[int], truth: set[int],
              all_loads: set[int]) -> ConfusionMatrix:
    """Confusion matrix of predicted ``delta`` against ``truth`` over
    the static-load universe ``all_loads``."""
    delta = delta & all_loads
    truth = truth & all_loads
    tp = len(delta & truth)
    fp = len(delta - truth)
    fn = len(truth - delta)
    tn = len(all_loads) - tp - fp - fn
    return ConfusionMatrix(tp, fp, fn, tn)


def against_ideal(delta: set[int],
                  load_misses: Mapping[int, int],
                  all_loads: set[int],
                  target_rho: float = 0.90) -> ConfusionMatrix:
    """Confusion matrix against the greedy ideal set at ``target_rho``
    coverage — the ground truth the paper's Table 1 constructs."""
    truth = ideal_delta(load_misses, target_rho)
    return confusion(delta, truth, all_loads)
