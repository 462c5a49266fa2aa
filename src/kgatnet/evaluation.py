"""Confusion-matrix metrics, k-fold splitting, trait correlations, reports.

Metrics with a zero denominator raise UndefinedMetric instead of claiming 0;
report writers render those cells as empty and averages skip them.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .atomic import write_atomically
from .config import TRAITS
from .errors import InvalidK, LengthMismatch, UndefinedMetric

METRICS = ("precision", "recall", "f_measure", "accuracy")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def confusion_counts(predicted: Sequence[int], actual: Sequence[int]) -> ConfusionCounts:
    if len(predicted) != len(actual):
        raise LengthMismatch(f"{len(predicted)} predictions vs {len(actual)} labels")
    tp = tn = fp = fn = 0
    for p, a in zip(predicted, actual):
        if p and a:
            tp += 1
        elif p and not a:
            fp += 1
        elif not p and a:
            fn += 1
        else:
            tn += 1
    return ConfusionCounts(tp, tn, fp, fn)


def precision(c: ConfusionCounts) -> float:
    if c.tp + c.fp == 0:
        raise UndefinedMetric("precision: no positive predictions")
    return c.tp / (c.tp + c.fp)


def recall(c: ConfusionCounts) -> float:
    if c.tp + c.fn == 0:
        raise UndefinedMetric("recall: no positive labels")
    return c.tp / (c.tp + c.fn)


def f_measure(c: ConfusionCounts) -> float:
    p, r = precision(c), recall(c)
    if p + r == 0:
        raise UndefinedMetric("f-measure: precision + recall is 0")
    return 2 * p * r / (p + r)


def accuracy(c: ConfusionCounts) -> float:
    if c.total == 0:
        raise UndefinedMetric("accuracy: nothing evaluated")
    return (c.tp + c.tn) / c.total


def metric_row(c: ConfusionCounts) -> dict[str, float | None]:
    """All four metrics; undefined ones come back as None."""
    row: dict[str, float | None] = {}
    for name, fn in zip(METRICS, (precision, recall, f_measure, accuracy)):
        try:
            row[name] = fn(c)
        except UndefinedMetric:
            row[name] = None
    return row


def k_fold_split(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Disjoint index folds covering range(n), sizes differing by at most 1,
    order shuffled deterministically by seed."""
    if k < 2 or k > n:
        raise InvalidK(f"need 2 <= k <= n, got k={k}, n={n}")
    order = np.random.default_rng(seed).permutation(n)
    # array_split makes the first n % k parts one longer
    return [np.sort(part) for part in np.array_split(order, k)]


def trait_correlations(labels: np.ndarray) -> np.ndarray:
    """Pearson correlation between binary trait columns; constant columns
    yield NaN cells (the undefined marker in matrix form) except the diagonal."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.ndim != 2 or labels.shape[1] != 5:
        raise ValueError("expected an (n, 5) label table")
    if labels.shape[0] < 2:
        raise ValueError("need at least two essays")
    centered = labels - labels.mean(axis=0)
    std = centered.std(axis=0)
    out = np.empty((5, 5))
    for i in range(5):
        for j in range(5):
            if i == j:
                out[i, j] = 1.0
            elif std[i] == 0 or std[j] == 0:
                out[i, j] = np.nan
            else:
                out[i, j] = (centered[:, i] * centered[:, j]).mean() / (std[i] * std[j])
    return out


# --- cross-validation aggregation ----------------------------------------

def aggregate_fold_rows(rows: Sequence[dict[str, float | None]]) -> dict[str, float | None]:
    """Mean per metric over folds, skipping undefined cells; a metric
    undefined in every fold aggregates to None."""
    out: dict[str, float | None] = {}
    for name in METRICS:
        vals = [r[name] for r in rows if r.get(name) is not None]
        out[name] = float(np.asarray(vals, dtype=np.float64).mean()) if vals else None
    return out


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def write_metric_report(per_trait: dict[str, dict[str, float | None]],
                        path: Path | str) -> None:
    """Wide CSV `metric,O,C,E,A,N,avg`; undefined cells empty, the average
    over the defined trait cells only."""
    lines = ["metric," + ",".join(TRAITS) + ",avg"]
    for name in METRICS:
        cells = [per_trait[t][name] for t in TRAITS]
        defined = [c for c in cells if c is not None]
        avg = sum(defined) / len(defined) if defined else None
        lines.append(",".join([name, *(_fmt(c) for c in cells), _fmt(avg)]))
    write_atomically(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_long_report(fold_rows: dict[str, list[dict[str, float | None]]],
                      path: Path | str) -> None:
    """Plot-ready long format `trait,metric,value,fold`; undefined cells are
    skipped entirely."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["trait", "metric", "value", "fold"])
    for trait in TRAITS:
        for fold_i, row in enumerate(fold_rows[trait]):
            for name in METRICS:
                if row.get(name) is not None:
                    w.writerow([trait, name, f"{row[name]:.6f}", fold_i])
    write_atomically(path, buf.getvalue().encode("utf-8"))
