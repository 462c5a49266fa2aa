"""Output checks for one benchmark run of the kgatnet pipeline.

Each check returns a list of problems; an empty list means the output
passed.  The checks read the artifacts a user reads (reports, the
aggregated graph and its feature matrix) and never import the pipeline.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

TRAITS = ("O", "C", "E", "A", "N")
METRIC_ROWS = ("precision", "recall", "f_measure", "accuracy")

# manifest.json is the run log: every stage refreshes its config echo and
# completion time by design, skipped or not
RUN_LOG = "manifest.json"
# stage_train rewrites splits.json with identical bytes even when every
# model is present; the rerun counts this as a rewrite instead of failing
KNOWN_REWRITES = frozenset({"models/splits.json"})


def _cell(text: str, lo: float, hi: float) -> float | None:
    """A report cell: empty (metric undefined) or a finite number in [lo, hi]."""
    if text == "":
        return None
    value = float(text)
    if not math.isfinite(value) or not lo <= value <= hi:
        raise ValueError(f"{text!r} is not a finite number in [{lo}, {hi}]")
    return value


def read_metrics(path: Path) -> tuple[dict[str, dict[str, float | None]], list[str]]:
    """Parse metrics.csv into {row: {column: value}}, with its problems."""
    problems: list[str] = []
    if not path.is_file():
        return {}, [f"{path.name} missing"]
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "metric," + ",".join(TRAITS) + ",avg":
        return {}, [f"{path.name}: bad header"]
    table: dict[str, dict[str, float | None]] = {}
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 7:
            problems.append(f"{path.name}: row {cells[0]!r} has {len(cells)} cells")
            continue
        try:
            table[cells[0]] = {c: _cell(v, 0.0, 1.0) for c, v in zip((*TRAITS, "avg"), cells[1:])}
        except ValueError as exc:
            problems.append(f"{path.name}: row {cells[0]}: {exc}")
    if tuple(table) != METRIC_ROWS:
        problems.append(f"{path.name}: rows {tuple(table)} != {METRIC_ROWS}")
    elif any(v is None for v in table["accuracy"].values()):
        problems.append(f"{path.name}: accuracy undefined")
    return table, problems


def check_reports(reports: Path) -> list[str]:
    """metrics.csv, long.csv and correlations.csv are well-formed and finite."""
    _, problems = read_metrics(reports / "metrics.csv")
    long_csv = reports / "long.csv"
    if not long_csv.is_file():
        problems.append("long.csv missing")
    else:
        lines = long_csv.read_text(encoding="utf-8").splitlines()
        if not lines or lines[0] != "trait,metric,value,fold":
            problems.append("long.csv: bad header")
        for line in lines[1:]:
            trait, metric, value, fold = line.split(",")
            try:
                if trait not in TRAITS or metric not in METRIC_ROWS or int(fold) < 0:
                    raise ValueError("unknown trait, metric or fold")
                if _cell(value, 0.0, 1.0) is None:
                    raise ValueError("empty value")
            except ValueError as exc:
                problems.append(f"long.csv: {line!r}: {exc}")
                break
    corr = reports / "correlations.csv"
    if not corr.is_file():
        problems.append("correlations.csv missing")
    else:
        lines = corr.read_text(encoding="utf-8").splitlines()
        if len(lines) != 6 or lines[0] != "trait," + ",".join(TRAITS):
            problems.append("correlations.csv: bad shape")
        else:
            try:
                for line in lines[1:]:
                    for v in line.split(",")[1:]:
                        _cell(v, -1.0 - 1e-9, 1.0 + 1e-9)
            except ValueError as exc:
                problems.append(f"correlations.csv: {exc}")
    return problems


def check_accuracy_floor(reports: Path, floor: float) -> list[str]:
    table, problems = read_metrics(reports / "metrics.csv")
    if problems:
        return problems
    return [f"accuracy {t} = {table['accuracy'][t]} < {floor}"
            for t in TRAITS if table["accuracy"][t] < floor]


def aggregate_counts(aggregate_dir: Path) -> dict[str, int]:
    """Section sizes of aggregate/graph.txt and the nnz of features.npz."""
    counts = {}
    names = {"nodes": "entities", "edges": "entity_edges", "essays": "essays",
             "essay_edges": "essay_edges"}
    lines = (aggregate_dir / "graph.txt").read_text(encoding="utf-8").splitlines()
    pos = 0
    while pos < len(lines):
        header, n = lines[pos].split(" ")
        counts[names[header]] = int(n)
        pos += 1 + int(n)
    with np.load(aggregate_dir / "features.npz") as npz:
        counts["feature_nnz"] = int(npz["data"].size)
    return counts


def check_aggregate(aggregate_dir: Path, expected: dict[str, int]) -> list[str]:
    try:
        got = aggregate_counts(aggregate_dir)
    except (OSError, ValueError, KeyError) as exc:
        return [f"aggregate unreadable: {exc}"]
    return [f"aggregate {k}: pipeline {got.get(k)} != oracle {v}"
            for k, v in expected.items() if got.get(k) != v]


def snapshot(root: Path) -> dict[str, tuple[int, str]]:
    """{relative path: (mtime_ns, sha256)} of every file under root."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[path.relative_to(root).as_posix()] = (
                path.stat().st_mtime_ns, hashlib.sha256(path.read_bytes()).hexdigest())
    return out


def compare_rerun(before: dict, after: dict) -> tuple[list[str], int]:
    """Problems if a rerun added, removed or changed an artifact, plus the
    number of known same-bytes rewrites."""
    problems, rewrites = [], 0
    for rel in sorted(set(before) | set(after)):
        if rel == RUN_LOG:
            continue
        if rel not in after or rel not in before:
            problems.append(f"rerun {'removed' if rel in before else 'added'} {rel}")
        elif before[rel][1] != after[rel][1]:
            problems.append(f"rerun changed the bytes of {rel}")
        elif before[rel][0] != after[rel][0]:
            if rel in KNOWN_REWRITES:
                rewrites += 1
            else:
                problems.append(f"rerun rewrote {rel}")
    return problems, rewrites
