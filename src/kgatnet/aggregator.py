"""Union of per-document graphs plus essay nodes, and their features.

Node indexing convention used everywhere downstream: entity nodes first in
first-seen order, then essay nodes in corpus order.  The essays' labels stay
in the corpus, which `train` and `evaluate` read them from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import DuplicateDocumentId
from .kg_builder import KnowledgeGraph, read_sections, sections_to_text
from .preprocess import Document

if TYPE_CHECKING:
    import scipy.sparse as sp


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


def build_feature_matrix(agg: AggregatedGraph) -> sp.csr_matrix:
    """Binary N x F matrix, F = entity vocabulary size: one-hot
    self-indicators on the entity rows, and on each essay row the entities
    the essay is linked to (`essay_entity_edges`)."""
    # imported here so that commands that build no matrix never load it
    import scipy.sparse as sp

    n_ent = len(agg.entity_nodes)
    rows, cols = list(range(n_ent)), list(range(n_ent))
    ent, ess = agg.entity_index, agg.essay_index
    for d, e in agg.essay_entity_edges:
        rows.append(ess[d])
        cols.append(ent[e])
    data = np.ones(len(rows), dtype=np.float64)
    return sp.csr_matrix((data, (rows, cols)), shape=(agg.n_nodes, n_ent))


# --- serialization -----------------------------------------------------

def aggregated_to_text(agg: AggregatedGraph) -> str:
    """Graph text format plus `essays` and `essay_edges` sections; node line
    order carries the index assignment, so it is not sorted."""
    return sections_to_text(
        ("nodes", list(agg.entity_nodes)),
        ("edges", [f"{u}\t{v}" for u, v in sorted(agg.entity_entity_edges)]),
        ("essays", list(agg.essay_nodes)),
        ("essay_edges", [f"{d}\t{e}" for d, e in sorted(agg.essay_entity_edges)]),
    )


def aggregated_from_text(text: str) -> AggregatedGraph:
    entities, ee, essays, ese = read_sections(text, "nodes", "edges", "essays", "essay_edges")
    return AggregatedGraph(tuple(entities), tuple(essays),
                           frozenset(tuple(line.split("\t")) for line in ee),
                           frozenset(tuple(line.split("\t")) for line in ese))


def read_aggregated(path: Path | str) -> AggregatedGraph:
    return aggregated_from_text(Path(path).read_text(encoding="utf-8"))

