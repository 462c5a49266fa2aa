"""Triple sources, graph building, caching, serialization."""

import json
import os
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kgatnet.errors import NetworkError
from kgatnet.kg_builder import (
    CachingSource,
    KnowledgeGraph,
    NTriplesSource,
    RdfTriple,
    SparqlEndpointSource,
    build_document_graph,
    graph_from_text,
    graph_to_text,
    local_name,
    norm_edge,
    parse_ntriples,
    render_ntriples,
    safe_filename,
    title_case,
)
from oracles import scanned_ntriples, union_then_filter

DUMP = """\
<http://x/Dog> <http://x/relatedTo> <http://x/Wolf> .
<http://x/Cat> <http://x/relatedTo> <http://x/Lion> .
<http://x/New_York> <http://x/locatedIn> <http://x/Usa> .
<http://x/Dog> <http://x/label> "dog"@en .
# a comment line
<http://x/Dog> <http://x/sameAs> _:b0 .
"""


@pytest.fixture
def dump_source(tmp_path):
    p = tmp_path / "dump.nt"
    p.write_text(DUMP, encoding="utf-8")
    return NTriplesSource(p)


class CountingSource:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.names = []
        self.source_id = inner.source_id

    def lookup(self, name):
        self.calls += 1
        self.names.append(name)
        return self.inner.lookup(name)


# --- parsing ------------------------------------------------------------

def test_parse_discards_literals_and_blanks():
    triples = set(parse_ntriples(DUMP.splitlines()))
    assert RdfTriple("Dog", "relatedTo", "Wolf") in triples
    assert len(triples) == 3  # label line and blank-node line dropped


def test_parse_skips_malformed_lines():
    lines = ["<a> <b>", "not a triple at all", "<a> <b> <c> ."]
    assert list(parse_ntriples(lines)) == [RdfTriple("a", "b", "c")]


def test_parse_predicate_allowlist():
    lines = [
        "<http://x/A> <http://good/p> <http://x/B> .",
        "<http://x/A> <http://bad/q> <http://x/C> .",
    ]
    got = list(parse_ntriples(lines, predicate_prefixes=("http://good/",)))
    assert got == [RdfTriple("A", "p", "B")]
    assert got == list(scanned_ntriples(lines, predicate_prefixes=("http://good/",)))


@pytest.mark.parametrize("line, want", [
    ("<a><b><c>.", [("a", "b", "c")]),  # no spaces
    ("<a> <b> <c>\x0b.", [("a", "b", "c")]),  # any whitespace before the dot
    ("\xa0<a>\t<b>\t<c>\xa0.\xa0", [("a", "b", "c")]),
    ("<> <b> <c> .", []),  # empty IRIs
    ("<a> <> <c> .", []),
    ("<a> <b> <> .", []),
    ('<a> <b> "see <x>" .', []),  # a literal that contains an IRI
    ('<a> <b> "<x>"^^<c> .', []),
    ("<a> <b> <c> . # comment", []),
    ("# <a> <b> <c> .", []),
    ("<a> <b> _:c .", []),
    ("<a>\x0b<b> <c> .", []),  # only spaces and tabs separate terms
    ("<a> <b> <c> <d> .", []),
    ("<a> <b> <c .", []),
    ("<http://x/> <b> <c> .", []),  # empty local names
    ("<a> <http://x/ns#> <c> .", []),
    ("<a> <b> <http://x/> .", []),
])
def test_parse_statement_cases(line, want):
    got = list(parse_ntriples([line]))
    assert got == [RdfTriple(*t) for t in want]
    assert got == scanned_resources([line])


def scanned_resources(lines, prefixes=()):
    """The scanner's triples but those with an empty local name, which it
    keeps and the parser drops."""
    return [t for t in scanned_ntriples(lines, prefixes) if all(t)]


NT_CHARS = '<>"\\ .#_:@/ab\t\x0b\xa0'


@settings(max_examples=300)
@given(st.lists(st.tuples(st.sampled_from(["", "<a> <b> ", "<a/b>\t<#a>", "<a><b> <c>"]),
                          st.text(NT_CHARS, max_size=12), st.text(" \t\x0b\xa0", max_size=2),
                          st.sampled_from(["", ".", ". #c"])), max_size=6),
       st.sampled_from([(), ("a",), ("#", "a/")]))
def test_parse_matches_term_scanner(parts, prefixes):
    """On random lines (none, two or three leading IRIs, random characters,
    then whitespace and a dot or not), the pattern keeps exactly the
    statements the term-by-term scanner keeps."""
    lines = ["".join(part) for part in parts]
    assert list(parse_ntriples(lines, prefixes)) == scanned_resources(lines, prefixes)


def test_render_parse_round_trip():
    triples = frozenset(
        {RdfTriple("A", "p", "B"), RdfTriple("B", "q", "C"), RdfTriple("C", "r", "A")}
    )
    assert frozenset(parse_ntriples(render_ntriples(triples).splitlines())) == triples


def test_local_name():
    assert local_name("http://dbpedia.org/resource/New_York") == "New_York"
    assert local_name("http://x/onto#Dog") == "Dog"
    assert local_name("Plain") == "Plain"


def test_title_case():
    assert title_case("New_york") == "New_York"
    assert title_case("dog") == "Dog"
    assert title_case("a_b_c") == "A_B_C"


# --- buildDocumentGraph: lookups and spellings ---------------------------

def test_describe_fixture_lookup(dump_source):
    # Dog's description is its one resource triple, predicate dropped
    g = build_document_graph({"Dog", "Wolf"}, dump_source)
    assert g == KnowledgeGraph(frozenset({"Dog", "Wolf"}), frozenset({("Dog", "Wolf")}))


def test_describe_miss(dump_source):
    assert build_document_graph({"Zzzz_unknown"}, dump_source) == KnowledgeGraph(
        frozenset(), frozenset())


def test_describe_title_case_retry(dump_source):
    g = build_document_graph({"New_york", "Usa"}, dump_source)
    assert g == KnowledgeGraph(frozenset({"New_York", "Usa"}),
                               frozenset({("New_York", "Usa")}))


def test_lookup_by_object_position(dump_source):
    # a concept appearing only as an object still gets its triples
    got = dump_source.lookup("Wolf")
    assert got == frozenset({RdfTriple("Dog", "relatedTo", "Wolf")})
    assert build_document_graph({"Wolf"}, dump_source).nodes == frozenset({"Wolf"})


def test_dump_lookup_serves_the_stored_set(dump_source):
    # frozen when the dump is loaded, so repeated lookups copy nothing
    assert dump_source.lookup("Dog") is dump_source.lookup("Dog")
    assert dump_source.lookup("Zzzz_unknown") == frozenset()


def test_resolve_concepts_spellings(dump_source):
    # a direct hit keeps its name, a title-cased hit replaces the concept,
    # an undescribed concept adds no node
    got = build_document_graph({"Dog", "New_york", "Zzzz_unknown"}, dump_source)
    assert got.nodes == frozenset({"Dog", "New_York"})


def test_resolve_concepts_keeps_direct_hit(dump_source):
    # a name the source knows as-is is never title-cased away
    assert build_document_graph({"New_York"}, dump_source).nodes == frozenset({"New_York"})


def test_build_looks_up_each_concept_once(dump_source):
    # one lookup per described concept; an undescribed one also tries its
    # title case, when that differs from the name
    counting = CountingSource(dump_source)
    build_document_graph({"Dog", "Wolf", "New_york", "Zzzz_unknown", "Q"}, counting)
    assert sorted(counting.names) == sorted(
        ["Dog", "Wolf", "New_york", "New_York", "Zzzz_unknown", "Zzzz_Unknown", "Q"])


# --- buildDocumentGraph: edges ----------------------------------------------

def make_source(tmp_path, triples):
    p = tmp_path / "src.nt"
    p.write_text(
        "".join(f"<http://x/{s}> <http://x/{pd}> <http://x/{o}> .\n" for s, pd, o in triples),
        encoding="utf-8",
    )
    return NTriplesSource(p)


def test_build_multi_edge_unification(tmp_path):
    src = make_source(tmp_path, [("A", "p", "B"), ("A", "q", "B"), ("B", "r", "A")])
    g = build_document_graph({"A", "B"}, src)
    assert g.nodes == frozenset({"A", "B"})
    assert g.edges == frozenset({("A", "B")})


def test_build_empty_concepts(tmp_path):
    src = make_source(tmp_path, [("A", "p", "B")])
    g = build_document_graph(set(), src)
    assert g.nodes == frozenset() and g.edges == frozenset()


def test_build_union_over_concepts(tmp_path):
    src = make_source(tmp_path, [("A", "p", "C"), ("B", "q", "C")])
    g = build_document_graph({"A", "B", "C"}, src)
    # brute-force union over the fixture triples
    want_nodes, want_edges = set(), set()
    for s, _, o in [("A", "p", "C"), ("B", "q", "C")]:
        want_nodes |= {s, o}
        want_edges.add(norm_edge(s, o))
    assert g.nodes == want_nodes and g.edges == want_edges


def test_build_drops_self_loops(tmp_path):
    src = make_source(tmp_path, [("A", "p", "A"), ("A", "q", "B")])
    g = build_document_graph({"A", "B"}, src)
    assert ("A", "A") not in g.edges
    assert g.edges == frozenset({("A", "B")})


def test_prune_basic(tmp_path):
    src = make_source(tmp_path, [("A", "p", "B"), ("A", "q", "C")])
    out = build_document_graph({"A", "B"}, src)
    assert out.edges == frozenset({("A", "B")})
    assert out.nodes == frozenset({"A", "B"})


def test_prune_identity_when_concepts_cover(tmp_path):
    src = make_source(tmp_path, [("A", "p", "B"), ("B", "q", "C")])
    g = KnowledgeGraph(frozenset("ABC"), frozenset({("A", "B"), ("B", "C")}))
    assert build_document_graph({"A", "B", "C"}, src) == g


# lowercase concepts; a few are described only title-cased, so the rescue
# runs, and the dump carries self-loops and parallel predicates
concept_ids = st.sampled_from([f"n{i:02d}" for i in range(20)])
resource_ids = st.one_of(concept_ids, st.sampled_from([f"N{i:02d}" for i in range(5)]))
triples_strategy = st.lists(
    st.tuples(resource_ids, st.sampled_from(["p", "q"]), resource_ids), max_size=40)


def build_over_dump(triples, concepts):
    with tempfile.TemporaryDirectory() as tmp:
        return build_document_graph(concepts, make_source(Path(tmp), triples))


@given(triples_strategy, st.sets(concept_ids, max_size=15))
def test_prune_matches_brute_force(triples, concepts):
    assert build_over_dump(triples, concepts) == union_then_filter(triples, concepts)


@given(triples_strategy, st.sets(concept_ids, max_size=15))
def test_prune_idempotent_and_shrinking(triples, concepts):
    once = build_over_dump(triples, concepts)
    assert build_over_dump(triples, once.nodes) == once
    union_nodes = {u for s, _, o in triples for u in (s, o)}
    union_edges = {norm_edge(s, o) for s, _, o in triples if s != o}
    assert once.edges <= union_edges
    assert once.nodes <= union_nodes | set(concepts)


# --- cache ------------------------------------------------------------

def test_cache_round_trip(dump_source, tmp_path):
    stored = CachingSource(dump_source, tmp_path).lookup("Dog")
    # a second source over the same directory serves the entry from disk
    counting = CountingSource(dump_source)
    assert CachingSource(counting, tmp_path).lookup("Dog") == stored
    assert stored == frozenset({RdfTriple("Dog", "relatedTo", "Wolf")})
    assert counting.calls == 0


def test_cache_miss(dump_source, tmp_path):
    counting = CountingSource(dump_source)
    src = CachingSource(counting, tmp_path)
    assert src.lookup("Dog") == dump_source.lookup("Dog")
    assert counting.names == ["Dog"]
    assert (src.dir / "Dog.nt").is_file()


def test_caching_source_fetches_once(dump_source, tmp_path):
    counting = CountingSource(dump_source)
    src = CachingSource(counting, tmp_path / "cache")
    first = src.lookup("Dog")
    second = src.lookup("Dog")
    assert first == second and counting.calls == 1


def test_cache_empty_set_is_valid_entry(dump_source, tmp_path):
    assert CachingSource(dump_source, tmp_path).lookup("Zzzz_unknown") == frozenset()
    counting = CountingSource(dump_source)
    assert CachingSource(counting, tmp_path).lookup("Zzzz_unknown") == frozenset()
    assert counting.calls == 0


def test_cache_keyed_by_source(dump_source, tmp_path):
    CachingSource(dump_source, tmp_path).lookup("Dog")
    other = CountingSource(dump_source)
    other.source_id = "other-source"
    assert CachingSource(other, tmp_path).lookup("Dog") == dump_source.lookup("Dog")
    assert other.calls == 1


def test_failed_cache_write_leaves_no_file(dump_source, tmp_path, monkeypatch):
    src = CachingSource(dump_source, tmp_path)

    def failing_replace(tmp, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="no space"):
        src.lookup("Dog")
    assert not list(src.dir.iterdir())  # no entry and no temp file
    monkeypatch.undo()
    counting = CountingSource(dump_source)
    assert CachingSource(counting, tmp_path).lookup("Dog") == dump_source.lookup("Dog")
    assert counting.calls == 1
    assert [p.name for p in src.dir.iterdir()] == ["Dog.nt"]


def test_safe_filename_distinct():
    names = ["A/B", "A_B", "a b", "ab", "A%2FB", "x" * 300, "y" * 300]
    stems = [safe_filename(n) for n in names]
    assert len(set(stems)) == len(names)
    for s in stems:
        assert "/" not in s and len(s) < 160


# --- serialization ------------------------------------------------------

def test_graph_text_round_trip_and_order():
    g = KnowledgeGraph(frozenset({"B", "A", "C"}), frozenset({("B", "C"), ("A", "B")}))
    text = graph_to_text(g)
    assert text.splitlines()[0] == "nodes 3"
    assert graph_from_text(text) == g
    # edges listed u < v, lines sorted
    assert "A\tB" in text and text.index("A\tB") < text.index("B\tC")


node_ids = st.sampled_from([f"n{i:02d}" for i in range(20)])
graph_strategy = st.builds(
    lambda pairs, extra: KnowledgeGraph(
        frozenset(extra) | {u for p in pairs for u in p},
        frozenset(norm_edge(*p) for p in pairs if p[0] != p[1]),
    ),
    st.lists(st.tuples(node_ids, node_ids), max_size=40),
    st.sets(node_ids, max_size=5),
)


@settings(max_examples=50)
@given(graph_strategy)
def test_graph_serialization_round_trip(graph):
    assert graph_from_text(graph_to_text(graph)) == graph


def test_graph_from_text_rejects_bad_header():
    with pytest.raises(ValueError):
        graph_from_text("edges 0\n")


def test_graph_from_text_rejects_truncation():
    with pytest.raises(ValueError):
        graph_from_text("nodes 2\nA\n")


# --- SPARQL endpoint client ---------------------------------------------

def bindings_payload(rows):
    return {
        "results": {
            "bindings": [
                {
                    "s": {"type": "uri", "value": f"http://x/{s}"},
                    "p": {"type": "uri", "value": f"http://x/{p}"},
                    "o": o,
                }
                for s, p, o in rows
            ]
        }
    }


class CannedHandler(BaseHTTPRequestHandler):
    responses = []  # list of (status, payload or None); popped per request
    lock = threading.Lock()

    def do_GET(self):
        with CannedHandler.lock:
            status, payload = (
                CannedHandler.responses.pop(0) if CannedHandler.responses else (200, {"results": {"bindings": []}})
            )
        body = json.dumps(payload or {}).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/sparql-results+json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def endpoint():
    server = ThreadingHTTPServer(("127.0.0.1", 0), CannedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    CannedHandler.responses = []
    yield f"http://127.0.0.1:{server.server_address[1]}/sparql"
    server.shutdown()
    thread.join(timeout=5)


def fast_client(url, **kw):
    kw.setdefault("max_attempts", 3)
    kw.setdefault("backoff", 0.0)
    kw.setdefault("min_interval", 0.0)
    kw.setdefault("timeout", 5.0)
    return SparqlEndpointSource(url, **kw)


def test_endpoint_lookup_discards_literals(endpoint):
    rows = [
        ("Dog", "relatedTo", {"type": "uri", "value": "http://x/Wolf"}),
        ("Dog", "label", {"type": "literal", "value": "dog"}),
    ]
    CannedHandler.responses = [(200, bindings_payload(rows))]
    got = fast_client(endpoint).lookup("Dog")
    assert got == frozenset({RdfTriple("Dog", "relatedTo", "Wolf")})


def test_endpoint_retries_on_server_error(endpoint):
    rows = [("A", "p", {"type": "uri", "value": "http://x/B"})]
    CannedHandler.responses = [(500, None), (200, bindings_payload(rows))]
    got = fast_client(endpoint).lookup("A")
    assert got == frozenset({RdfTriple("A", "p", "B")})


def test_endpoint_gives_up_after_retries(endpoint):
    CannedHandler.responses = [(503, None)] * 5
    with pytest.raises(NetworkError):
        fast_client(endpoint, max_attempts=2).lookup("A")


def test_endpoint_client_error_is_immediate(endpoint):
    CannedHandler.responses = [(404, None)]
    with pytest.raises(NetworkError):
        fast_client(endpoint).lookup("A")
    assert CannedHandler.responses == []  # no retry burned


def test_endpoint_unreachable():
    with pytest.raises(NetworkError):
        fast_client("http://127.0.0.1:1/sparql", max_attempts=2, timeout=0.5).lookup("A")


def test_endpoint_predicate_allowlist(endpoint):
    rows = [
        ("A", "good/p", {"type": "uri", "value": "http://x/B"}),
        ("A", "bad/q", {"type": "uri", "value": "http://x/C"}),
    ]
    payload = {
        "results": {
            "bindings": [
                {
                    "s": {"type": "uri", "value": "http://x/A"},
                    "p": {"type": "uri", "value": f"http://x/{p}"},
                    "o": o,
                }
                for _, p, o in rows
            ]
        }
    }
    CannedHandler.responses = [(200, payload)]
    client = fast_client(endpoint, predicate_prefixes=("http://x/good/",))
    assert client.lookup("A") == frozenset({RdfTriple("A", "p", "B")})


def test_cache_hit_returns_what_the_endpoint_lookup_returned(endpoint, tmp_path):
    # an IRI ending in '/' has an empty local name, which the cache entry
    # could not hold, so the endpoint source drops its triple up front
    payload = bindings_payload([("A", "q", {"type": "uri", "value": "http://x/B"})])
    payload["results"]["bindings"].append({
        "s": {"type": "uri", "value": "http://x/"},
        "p": {"type": "uri", "value": "http://x/p"},
        "o": {"type": "uri", "value": "http://x/A"},
    })
    CannedHandler.responses = [(200, payload)]
    src = CachingSource(fast_client(endpoint), tmp_path)
    first = src.lookup("A")
    assert first == src.lookup("A") == frozenset({RdfTriple("A", "q", "B")})
