"""Metrics, folds, correlations, report files."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kgatnet.errors import InvalidK, LengthMismatch, UndefinedMetric
from kgatnet.evaluation import (
    TRAITS,
    ConfusionCounts,
    accuracy,
    aggregate_fold_rows,
    confusion_counts,
    f_measure,
    k_fold_split,
    metric_row,
    precision,
    recall,
    trait_correlations,
    write_long_report,
    write_metric_report,
)


def read_metric_report(path):
    """Inverse of write_metric_report, keyed metric -> trait column."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    if header != ["metric", *TRAITS, "avg"]:
        raise ValueError(f"unexpected report header {header!r}")
    out = {}
    for line in lines[1:]:
        cells = line.split(",")
        out[cells[0]] = {
            t: (float(v) if v else None) for t, v in zip([*TRAITS, "avg"], cells[1:])
        }
    return out


def test_confusion_basic():
    c = confusion_counts([1, 0], [1, 1])
    assert (c.tp, c.tn, c.fp, c.fn) == (1, 0, 0, 1)


def test_confusion_identical_vectors():
    c = confusion_counts([1, 0, 1], [1, 0, 1])
    assert c.fp == 0 and c.fn == 0
    assert c.tp == 2 and c.tn == 1


def test_confusion_length_mismatch():
    with pytest.raises(LengthMismatch):
        confusion_counts([1], [1, 0])


def test_confusion_matches_brute_force_tally():
    rng = np.random.default_rng(0)
    pred = rng.integers(0, 2, size=1000)
    gold = rng.integers(0, 2, size=1000)
    c = confusion_counts(pred.tolist(), gold.tolist())
    # independent tally over the four explicit cases
    tally = {"tp": 0, "tn": 0, "fp": 0, "fn": 0}
    for i in range(1000):
        if pred[i] == 1 and gold[i] == 1:
            tally["tp"] += 1
        if pred[i] == 0 and gold[i] == 0:
            tally["tn"] += 1
        if pred[i] == 1 and gold[i] == 0:
            tally["fp"] += 1
        if pred[i] == 0 and gold[i] == 1:
            tally["fn"] += 1
    assert (c.tp, c.tn, c.fp, c.fn) == (
        tally["tp"], tally["tn"], tally["fp"], tally["fn"])
    assert c.total == 1000


def test_precision_direct():
    assert precision(ConfusionCounts(tp=2, tn=0, fp=1, fn=0)) == pytest.approx(2 / 3)


def test_f_measure_fixed_point():
    # P = R makes the harmonic mean collapse to P
    c = ConfusionCounts(tp=3, tn=1, fp=1, fn=1)
    assert precision(c) == recall(c)
    assert f_measure(c) == pytest.approx(precision(c))


def test_accuracy_all_correct():
    assert accuracy(ConfusionCounts(tp=4, tn=6, fp=0, fn=0)) == 1.0


def test_undefined_metrics_raise():
    with pytest.raises(UndefinedMetric):
        precision(ConfusionCounts(0, 5, 0, 2))  # no positive predictions
    with pytest.raises(UndefinedMetric):
        recall(ConfusionCounts(0, 5, 2, 0))  # no positive labels
    with pytest.raises(UndefinedMetric):
        accuracy(ConfusionCounts(0, 0, 0, 0))
    with pytest.raises(UndefinedMetric):
        f_measure(ConfusionCounts(0, 1, 1, 1))  # P = R = 0


def test_metric_row_marks_undefined_as_none():
    row = metric_row(ConfusionCounts(0, 5, 0, 2))
    assert row["precision"] is None
    assert row["recall"] == 0.0
    assert row["accuracy"] == pytest.approx(5 / 7)


counts_strategy = st.builds(
    ConfusionCounts,
    st.integers(0, 50), st.integers(0, 50), st.integers(0, 50), st.integers(0, 50),
)


@given(counts_strategy)
def test_metric_ranges(c):
    row = metric_row(c)
    for value in row.values():
        if value is not None:
            assert 0.0 <= value <= 1.0
    p, r, f = row["precision"], row["recall"], row["f_measure"]
    if f is not None:
        assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1))
def test_accuracy_invariant_under_joint_flip(pairs):
    pred = [p for p, _ in pairs]
    gold = [g for _, g in pairs]
    a1 = accuracy(confusion_counts(pred, gold))
    a2 = accuracy(confusion_counts([1 - p for p in pred], [1 - g for g in gold]))
    assert a1 == pytest.approx(a2)


# --- folds -----------------------------------------------------------------

def test_k_fold_singletons():
    folds = k_fold_split(10, 10, seed=0)
    assert sorted(len(f) for f in folds) == [1] * 10


def test_k_fold_sizes():
    folds = k_fold_split(10, 3, seed=0)
    assert sorted((len(f) for f in folds), reverse=True) == [4, 3, 3]


def test_k_fold_invalid():
    with pytest.raises(InvalidK):
        k_fold_split(5, 1, seed=0)
    with pytest.raises(InvalidK):
        k_fold_split(3, 4, seed=0)


def test_k_fold_deterministic():
    a = k_fold_split(20, 4, seed=7)
    b = k_fold_split(20, 4, seed=7)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = k_fold_split(20, 4, seed=8)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


@given(st.integers(2, 60).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(2, n), st.integers(0, 100))))
def test_k_fold_partition_property(args):
    n, k, seed = args
    folds = k_fold_split(n, k, seed)
    flat = np.concatenate(folds)
    assert sorted(flat.tolist()) == list(range(n))  # disjoint cover
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 1


# --- correlations ------------------------------------------------------------

def test_correlation_identical_columns():
    col = np.array([1, 0, 1, 1, 0])
    labels = np.stack([col] * 5, axis=1)
    m = trait_correlations(labels)
    assert np.allclose(m, 1.0)


def test_correlation_complement_column():
    col = np.array([1, 0, 1, 0])
    labels = np.stack([col, 1 - col, col, col, col], axis=1)
    m = trait_correlations(labels)
    assert m[0, 1] == pytest.approx(-1.0)
    assert m[1, 0] == pytest.approx(-1.0)


def test_correlation_constant_column_is_nan():
    labels = np.array([[1, 1, 0, 1, 0], [1, 0, 1, 0, 1], [1, 1, 1, 1, 1]])
    m = trait_correlations(labels)
    assert np.isnan(m[0, 1]) and np.isnan(m[1, 0])
    assert m[0, 0] == 1.0  # diagonal survives


@given(st.lists(st.tuples(*[st.integers(0, 1)] * 5), min_size=2, max_size=40))
def test_correlation_matrix_properties(rows):
    m = trait_correlations(np.array(rows))
    assert np.array_equal(np.diag(m), np.ones(5))
    with np.errstate(invalid="ignore"):
        finite = ~np.isnan(m)
        assert np.all(np.abs(m[finite]) <= 1.0 + 1e-12)
    assert np.allclose(m, m.T, equal_nan=True)


def test_correlation_matches_numpy_corrcoef():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 2, size=(30, 5))
    labels[:, 2] = rng.integers(0, 2, size=30)  # keep non-constant likely
    if any(labels[:, j].std() == 0 for j in range(5)):
        labels[0] = 1 - labels[0]
    want = np.corrcoef(labels.T)
    got = trait_correlations(labels)
    assert np.allclose(got, want, atol=1e-12)


# --- aggregation and reports ----------------------------------------------

def test_aggregate_fold_rows_skips_undefined():
    rows = [
        {"precision": 0.5, "recall": 1.0, "f_measure": None, "accuracy": 0.75},
        {"precision": None, "recall": 0.5, "f_measure": None, "accuracy": 0.25},
    ]
    agg = aggregate_fold_rows(rows)
    assert agg == {"precision": 0.5, "recall": 0.75, "f_measure": None, "accuracy": 0.5}


def test_metric_report_round_trip(tmp_path):
    per_trait = {
        t: {"precision": 0.5, "recall": 0.25, "f_measure": 1 / 3, "accuracy": 0.75}
        for t in "OCEAN"
    }
    per_trait["N"] = dict(per_trait["N"], precision=None)
    path = tmp_path / "metrics.csv"
    write_metric_report(per_trait, path)
    text = path.read_text().splitlines()
    assert text[0] == "metric,O,C,E,A,N,avg"
    got = read_metric_report(path)
    assert got["precision"]["N"] is None
    assert got["precision"]["O"] == pytest.approx(0.5)
    # avg over the four defined precision cells only
    assert got["precision"]["avg"] == pytest.approx(0.5)
    assert got["accuracy"]["avg"] == pytest.approx(0.75)


def test_metric_report_deterministic_bytes(tmp_path):
    per_trait = {
        t: {"precision": 1 / 3, "recall": 2 / 3, "f_measure": 4 / 9, "accuracy": 0.5}
        for t in "OCEAN"
    }
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_metric_report(per_trait, p1)
    write_metric_report(per_trait, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_long_report(tmp_path):
    fold_rows = {
        t: [{"precision": 0.5, "recall": None, "f_measure": 0.5, "accuracy": 1.0}]
        for t in "OCEAN"
    }
    path = tmp_path / "long.csv"
    write_long_report(fold_rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "trait,metric,value,fold"
    assert "O,precision,0.500000,0" in lines
    assert not any(",recall," in line for line in lines[1:])  # undefined skipped
