"""Union of per-document graphs plus essay nodes, features, and labels.

Node indexing convention used everywhere downstream: entity nodes first in
first-seen order, then essay nodes in corpus order.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DuplicateDocumentId, MissingLabel
from .evaluation import TRAITS
from .gat import _write_atomically
from .kg_builder import KnowledgeGraph, norm_edge, read_sections
from .preprocess import Document


@dataclass(frozen=True)
class AggregatedGraph:
    entity_nodes: tuple[str, ...]
    essay_nodes: tuple[str, ...]
    entity_entity_edges: frozenset[tuple[str, str]]
    essay_entity_edges: frozenset[tuple[str, str]]

    @cached_property
    def entity_index(self) -> dict[str, int]:
        return {e: i for i, e in enumerate(self.entity_nodes)}

    @cached_property
    def essay_index(self) -> dict[str, int]:
        # essay indices come after the whole entity block
        base = len(self.entity_nodes)
        return {d: base + i for i, d in enumerate(self.essay_nodes)}

    @property
    def n_nodes(self) -> int:
        return len(self.entity_nodes) + len(self.essay_nodes)

    def index_edges(self) -> frozenset[tuple[int, int]]:
        """All edges as node-index pairs (i, j), i < j."""
        ent, ess = self.entity_index, self.essay_index
        pairs = {tuple(sorted((ent[u], ent[v]))) for u, v in self.entity_entity_edges}
        pairs |= {tuple(sorted((ess[d], ent[e]))) for d, e in self.essay_entity_edges}
        return frozenset(pairs)


def aggregate_graphs(graphs: Iterable[KnowledgeGraph]) -> AggregatedGraph:
    """Set union of node and edge sets; entity order is first-seen with each
    graph's node set visited in sorted order (keeps indices reproducible)."""
    seen: dict[str, None] = {}
    edges: set[tuple[str, str]] = set()
    for g in graphs:
        for node in sorted(g.nodes):
            seen.setdefault(node)
        edges.update(g.edges)
    return AggregatedGraph(tuple(seen), (), frozenset(edges), frozenset())


def attach_essay_nodes(
    agg: AggregatedGraph, corpus: Sequence[tuple[Document, frozenset[str]]]
) -> AggregatedGraph:
    """Add one essay node per document and an edge to every entity node that
    occurs in the document's concept set (concepts absent from the aggregated
    vocabulary contribute nothing)."""
    if agg.essay_nodes:
        raise ValueError("essay nodes already attached")
    essay_ids = []
    seen_ids = set()
    edges = set()
    vocab = set(agg.entity_nodes)
    for doc, concepts in corpus:
        if doc.id in seen_ids:
            raise DuplicateDocumentId(doc.id)
        seen_ids.add(doc.id)
        essay_ids.append(doc.id)
        for c in concepts & vocab:
            edges.add((doc.id, c))
    return AggregatedGraph(
        agg.entity_nodes, tuple(essay_ids), agg.entity_entity_edges, frozenset(edges)
    )


def build_feature_matrix(
    agg: AggregatedGraph,
    concept_sets: Sequence[frozenset[str]],
    entity_features: str = "self",
) -> sp.csr_matrix:
    """Binary N x F matrix, F = entity vocabulary size.

    Essay rows mark the vocabulary entities occurring in the essay.  Entity
    rows are one-hot self-indicators ("self") or all zero ("zero"); the
    all-zero variant leaves entity nodes featureless and relies on attention
    over essay neighbours alone.
    """
    if entity_features not in ("self", "zero"):
        raise ValueError(f"entity_features must be 'self' or 'zero', got {entity_features!r}")
    if len(concept_sets) != len(agg.essay_nodes):
        raise ValueError("one concept set per essay node required")
    n_ent = len(agg.entity_nodes)
    rows, cols = [], []
    if entity_features == "self":
        rows.extend(range(n_ent))
        cols.extend(range(n_ent))
    ent_idx = agg.entity_index
    for d, concepts in enumerate(concept_sets):
        for c in concepts:
            j = ent_idx.get(c)
            if j is not None:
                rows.append(n_ent + d)
                cols.append(j)
    data = np.ones(len(rows), dtype=np.float64)
    mat = sp.csr_matrix((data, (rows, cols)), shape=(agg.n_nodes, n_ent))
    mat.sum_duplicates()
    mat.data[:] = 1.0  # binary even if a concept was listed twice
    return mat


def build_label_matrix(corpus: Sequence[Document]) -> np.ndarray:
    """(n_essays, 5) int array in (O, C, E, A, N) order, corpus order rows."""
    out = np.zeros((len(corpus), 5), dtype=np.int64)
    for i, doc in enumerate(corpus):
        if doc.labels is None:
            raise MissingLabel(doc.id)
        out[i] = doc.labels
    return out


# --- serialization -----------------------------------------------------

def aggregated_to_text(agg: AggregatedGraph) -> str:
    """Graph text format plus `essays` and `essay_edges` sections; node line
    order carries the index assignment, so it is not sorted."""
    lines = [f"nodes {len(agg.entity_nodes)}"]
    lines.extend(agg.entity_nodes)
    lines.append(f"edges {len(agg.entity_entity_edges)}")
    lines.extend(f"{u}\t{v}" for u, v in sorted(agg.entity_entity_edges))
    lines.append(f"essays {len(agg.essay_nodes)}")
    lines.extend(agg.essay_nodes)
    lines.append(f"essay_edges {len(agg.essay_entity_edges)}")
    lines.extend(f"{d}\t{e}" for d, e in sorted(agg.essay_entity_edges))
    return "\n".join(lines) + "\n"


def aggregated_from_text(text: str) -> AggregatedGraph:
    entities, ee, essays, ese = read_sections(text, "nodes", "edges", "essays", "essay_edges")
    return AggregatedGraph(tuple(entities), tuple(essays),
                           frozenset(tuple(line.split("\t")) for line in ee),
                           frozenset(tuple(line.split("\t")) for line in ese))


def write_aggregated(agg: AggregatedGraph, path: Path | str) -> None:
    _write_atomically(path, aggregated_to_text(agg).encode("utf-8"))


def read_aggregated(path: Path | str) -> AggregatedGraph:
    return aggregated_from_text(Path(path).read_text(encoding="utf-8"))


def write_labels_csv(doc_ids: Sequence[str], labels: np.ndarray, path: Path | str) -> None:
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["doc_id", *TRAITS])
    for doc_id, row in zip(doc_ids, labels):
        w.writerow([doc_id, *(int(x) for x in row)])
    _write_atomically(path, buf.getvalue().encode("utf-8"))


def read_labels_csv(path: Path | str) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["doc_id", *TRAITS]:
            raise ValueError(f"unexpected label header {header!r}")
        ids, rows = [], []
        for rec in reader:
            ids.append(rec[0])
            rows.append([int(x) for x in rec[1:6]])
    return ids, np.array(rows, dtype=np.int64).reshape(len(ids), 5)
