"""Expected aggregate counts for a generated Essays-shaped input.

Computed from the generator's ``Planted`` record alone, without importing
the pipeline, so a pipeline bug cannot make oracle and output agree:

- a concept is described when it names the subject or object of some
  all-resource statement; a concept the dump spells differently (the
  title-cased gazetteer entities) resolves to the dump spelling when only
  that spelling is described;
- a document's pruned graph keeps its described concepts as nodes, and an
  edge between two distinct ones whenever any statement links them;
- the aggregate is the union over documents, plus one essay node per
  document linked to each node of its pruned graph; the feature matrix has
  one self-indicator per entity and one entry per essay-entity link.
"""

from __future__ import annotations

from dataclasses import dataclass

from essays import Planted


@dataclass(frozen=True)
class AggregateCounts:
    entities: int
    essays: int
    entity_edges: int
    essay_edges: int
    feature_nnz: int


def expected_counts(planted: Planted) -> AggregateCounts:
    described: set[str] = set()
    links: set[frozenset[str]] = set()
    for s, _, o in planted.resource_triples:
        described.update((s, o))
        if s != o:
            links.add(frozenset((s, o)))

    def resolve(concept: str) -> str:
        if concept in described:
            return concept
        spelled = planted.dump_spelling.get(concept, concept)
        return spelled if spelled in described else concept

    entities: set[str] = set()
    entity_edges: set[frozenset[str]] = set()
    essay_edges = 0
    for concepts in planted.doc_concepts:
        nodes = {c for c in map(resolve, concepts) if c in described}
        entities |= nodes
        essay_edges += len(nodes)
        ordered = sorted(nodes)
        for i, u in enumerate(ordered):
            for v in ordered[i + 1:]:
                if frozenset((u, v)) in links:
                    entity_edges.add(frozenset((u, v)))
    return AggregateCounts(
        entities=len(entities),
        essays=len(planted.doc_ids),
        entity_edges=len(entity_edges),
        essay_edges=essay_edges,
        feature_nnz=len(entities) + essay_edges,
    )
