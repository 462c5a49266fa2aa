"""Graph aggregation, essay attachment, the feature matrix."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kgatnet.aggregator import (
    AggregatedGraph,
    aggregate_graphs,
    aggregated_from_text,
    aggregated_to_text,
    attach_essay_nodes,
    build_feature_matrix,
)
from kgatnet.errors import DuplicateDocumentId
from kgatnet.kg_builder import KnowledgeGraph, norm_edge
from kgatnet.preprocess import Document


def kg(*edges, extra_nodes=()):
    nodes = set(extra_nodes)
    es = set()
    for u, v in edges:
        nodes |= {u, v}
        es.add(norm_edge(u, v))
    return KnowledgeGraph(frozenset(nodes), frozenset(es))


def test_aggregate_union():
    agg = aggregate_graphs([kg(("A", "B")), kg(("B", "C"))])
    assert set(agg.entity_nodes) == {"A", "B", "C"}
    assert agg.entity_entity_edges == frozenset({("A", "B"), ("B", "C")})
    assert agg.essay_nodes == () and agg.essay_entity_edges == frozenset()


def test_aggregate_idempotent_on_duplicates():
    g = kg(("A", "B"), ("B", "C"))
    once = aggregate_graphs([g])
    twice = aggregate_graphs([g, g])
    assert once == twice


node_ids = st.sampled_from([f"e{i}" for i in range(12)])
small_graph = st.builds(
    lambda pairs, extra: kg(*[p for p in pairs if p[0] != p[1]], extra_nodes=extra),
    st.lists(st.tuples(node_ids, node_ids), max_size=15),
    st.sets(node_ids, max_size=3),
)


@given(st.lists(small_graph, max_size=10))
def test_aggregate_matches_set_union(graphs):
    agg = aggregate_graphs(graphs)
    want_nodes, want_edges = set(), set()
    for g in graphs:
        want_nodes |= g.nodes
        want_edges |= g.edges
    assert set(agg.entity_nodes) == want_nodes
    assert len(agg.entity_nodes) == len(want_nodes)  # duplicate-free
    assert agg.entity_entity_edges == want_edges


def test_aggregate_order_deterministic():
    # same content in different arrival order of equal graphs -> same vocab order
    g1, g2 = kg(("B", "A")), kg(("A", "B"))
    assert aggregate_graphs([g1]).entity_nodes == aggregate_graphs([g2]).entity_nodes


def test_attach_ignores_unknown_concepts():
    agg = aggregate_graphs([kg(("A", "B"))])
    out = attach_essay_nodes(agg, [(Document("d", "..."), frozenset({"A", "Z"}))])
    assert out.essay_nodes == ("d",)
    assert out.essay_entity_edges == frozenset({("d", "A")})


def test_attach_isolated_essay():
    agg = aggregate_graphs([kg(("A", "B"))])
    out = attach_essay_nodes(agg, [(Document("d", "..."), frozenset({"Q"}))])
    assert out.essay_nodes == ("d",)
    assert out.essay_entity_edges == frozenset()


def test_attach_duplicate_id():
    agg = aggregate_graphs([kg(("A", "B"))])
    corpus = [(Document("d", "x"), frozenset()), (Document("d", "y"), frozenset())]
    with pytest.raises(DuplicateDocumentId):
        attach_essay_nodes(agg, corpus)


def test_attach_requires_empty_essay_part():
    agg = aggregate_graphs([kg(("A", "B"))])
    once = attach_essay_nodes(agg, [(Document("d", "x"), frozenset())])
    with pytest.raises(ValueError):
        attach_essay_nodes(once, [(Document("e", "y"), frozenset())])


@given(
    st.lists(
        st.sets(st.sampled_from([f"e{i}" for i in range(10)]), max_size=6),
        min_size=1,
        max_size=5,
    )
)
def test_attach_matches_double_loop(concept_sets):
    entities = tuple(f"e{i}" for i in range(10))
    agg = AggregatedGraph(entities, (), frozenset(), frozenset())
    corpus = [
        (Document(f"d{i}", ""), frozenset(cs)) for i, cs in enumerate(concept_sets)
    ]
    out = attach_essay_nodes(agg, corpus)
    want = set()
    for doc, cs in corpus:  # brute-force membership cross-check
        for e in entities:
            if e in cs:
                want.add((doc.id, e))
    assert out.essay_entity_edges == want
    assert out.essay_nodes == tuple(d.id for d, _ in corpus)


def two_entity_graph():
    agg = AggregatedGraph(("A", "B"), (), frozenset({("A", "B")}), frozenset())
    return agg


def test_feature_matrix_basic():
    agg = attach_essay_nodes(two_entity_graph(), [(Document("d", ""), frozenset({"A"}))])
    X = build_feature_matrix(agg).toarray()
    assert X.shape == (3, 2)
    assert X[0].tolist() == [1, 0]  # entity A self-indicator
    assert X[1].tolist() == [0, 1]  # entity B
    assert X[2].tolist() == [1, 0]  # essay row


def test_feature_matrix_both_entities():
    agg = attach_essay_nodes(two_entity_graph(), [(Document("d", ""), frozenset({"A", "B"}))])
    X = build_feature_matrix(agg).toarray()
    assert X[2].tolist() == [1, 1]


@given(
    st.lists(
        st.sets(st.sampled_from([f"e{i}" for i in range(8)] + ["zz"]), max_size=9),
        min_size=1,
        max_size=6,
    )
)
def test_feature_row_sums_are_intersection_sizes(concept_sets):
    entities = tuple(f"e{i}" for i in range(8))
    agg = AggregatedGraph(entities, (), frozenset(), frozenset())
    corpus = [(Document(f"d{i}", ""), frozenset(cs)) for i, cs in enumerate(concept_sets)]
    agg = attach_essay_nodes(agg, corpus)
    X = build_feature_matrix(agg)
    sums = np.asarray(X.sum(axis=1)).ravel()
    n_ent = len(entities)
    assert np.all((X.data == 1.0))
    for i, (_, cs) in enumerate(corpus):
        assert sums[n_ent + i] == len(cs & set(entities))
    assert np.all(sums[:n_ent] == 1)  # self-indicators


def test_index_edges_counts():
    agg = AggregatedGraph(
        ("A", "B", "C"),
        ("d1", "d2"),
        frozenset({("A", "B"), ("B", "C")}),
        frozenset({("d1", "A"), ("d2", "C")}),
    )
    idx = agg.index_edges()
    # structural identity: total edges = entity-entity + essay-entity
    assert len(idx) == 4
    assert agg.n_nodes == 5
    assert (3, 0) in {tuple(sorted(p, reverse=True)) for p in idx}  # d1-A as (0,3)


def test_aggregated_text_round_trip():
    agg = AggregatedGraph(
        ("B", "A"),  # deliberate non-sorted vocabulary order
        ("d1",),
        frozenset({("A", "B")}),
        frozenset({("d1", "B")}),
    )
    text = aggregated_to_text(agg)
    back = aggregated_from_text(text)
    assert back == agg
    assert back.entity_nodes == ("B", "A")  # order preserved exactly


def test_aggregated_text_sections():
    agg = AggregatedGraph((), (), frozenset(), frozenset())
    assert aggregated_to_text(agg) == "nodes 0\nedges 0\nessays 0\nessay_edges 0\n"


def test_aggregated_from_text_rejects_truncation():
    with pytest.raises(ValueError):
        aggregated_from_text("nodes 2\nA\n")

