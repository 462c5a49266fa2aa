"""Triple sources, graph building, caching, serialization."""

import contextlib
import gzip
import hashlib
import json
import os
import re
import tempfile
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kgatnet.cli import main
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

FIXTURE = Path(__file__).parent.parent / "src" / "kgatnet" / "data" / "fixture"

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
    # each response is (status, payload) or (status, payload, delay in
    # seconds); a bytes payload is sent as it is and any other as JSON, and
    # the body is gzipped when the request accepts gzip
    responses = []  # popped per request
    seen = []  # (path, headers) of every request, in order
    lock = threading.Lock()

    def do_GET(self):
        with CannedHandler.lock:
            CannedHandler.seen.append((self.path, self.headers))
            status, payload, delay = (
                (*CannedHandler.responses.pop(0), 0.0)[:3] if CannedHandler.responses
                else (200, {"results": {"bindings": []}}, 0.0)
            )
        time.sleep(delay)
        body = payload if isinstance(payload, bytes) else json.dumps(payload or {}).encode()
        send_body(self, status, body)

    def log_message(self, *args):
        pass


def send_body(handler, status, body):
    gzipped = "gzip" in handler.headers.get("Accept-Encoding", "")
    if gzipped:
        body = gzip.compress(body)
    handler.send_response(status)
    handler.send_header("Content-Type", "application/sparql-results+json")
    if gzipped:
        handler.send_header("Content-Encoding", "gzip")
    handler.send_header("Content-Length", str(len(body)))
    handler.end_headers()
    handler.wfile.write(body)


@contextlib.contextmanager
def serving(handler):
    """The URL of a local SPARQL stand-in served by `handler` meanwhile."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/sparql"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture
def endpoint():
    CannedHandler.responses = []
    CannedHandler.seen = []
    with serving(CannedHandler) as url:
        yield url


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


@pytest.mark.parametrize("url_query", ["", "?default-graph-uri=http%3A%2F%2Fdbpedia.org"])
def test_endpoint_request_wire_shape(endpoint, url_query):
    rows = [("New_York", "p", {"type": "uri", "value": "http://x/Usa"})]
    CannedHandler.responses = [(200, bindings_payload(rows))]
    got = fast_client(endpoint + url_query).lookup("New_York")
    # the stand-in gzips its body, since the client accepts gzip
    assert got == frozenset({RdfTriple("New_York", "p", "Usa")})
    [(path, headers)] = CannedHandler.seen
    url = urllib.parse.urlsplit(path)
    assert url.path == "/sparql"
    params = urllib.parse.parse_qs(url.query)
    assert params["format"] == ["application/sparql-results+json"]
    assert "<http://dbpedia.org/resource/New_York>" in params["query"][0]
    if url_query:  # the endpoint's own parameters are kept
        assert params["default-graph-uri"] == ["http://dbpedia.org"]
    assert headers["Accept"] == "application/sparql-results+json"
    assert headers["User-Agent"] == "kgatnet/0.1"
    assert "gzip" in headers["Accept-Encoding"]


@pytest.mark.parametrize("first", [
    (429, None),  # rate limited
    (200, b"not json"),
    (200, {"results": {"bindings": []}}, 1.0),  # past the client's timeout
])
def test_endpoint_retries_transient_failures(endpoint, first):
    rows = [("A", "p", {"type": "uri", "value": "http://x/B"})]
    CannedHandler.responses = [first, (200, bindings_payload(rows))]
    got = fast_client(endpoint, timeout=0.5).lookup("A")
    assert got == frozenset({RdfTriple("A", "p", "B")})
    assert len(CannedHandler.seen) == 2


class BrokenBodyHandler(BaseHTTPRequestHandler):
    """Answers its first request with a broken body, as `broken` says, and
    every later one with a good answer."""

    broken = ""  # "gzip": not a gzip stream; "short": cut before its length
    answered = 0

    def do_GET(self):
        BrokenBodyHandler.answered += 1
        if BrokenBodyHandler.answered > 1:
            rows = [("A", "p", {"type": "uri", "value": "http://x/B"})]
            return send_body(self, 200, json.dumps(bindings_payload(rows)).encode())
        body = b'{"results": {"bindings": []}}'
        self.send_response(200)
        if BrokenBodyHandler.broken == "gzip":
            self.send_header("Content-Encoding", "gzip")
        self.send_header("Content-Length", str(len(body) * (2 if BrokenBodyHandler.broken == "short" else 1)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.mark.parametrize("broken", ["gzip", "short"])
def test_endpoint_retries_broken_bodies(monkeypatch, broken):
    monkeypatch.setattr(BrokenBodyHandler, "broken", broken)
    monkeypatch.setattr(BrokenBodyHandler, "answered", 0)
    with serving(BrokenBodyHandler) as url:
        got = fast_client(url, timeout=0.5).lookup("A")
    assert got == frozenset({RdfTriple("A", "p", "B")})
    assert BrokenBodyHandler.answered == 2


def test_endpoint_success_other_than_200_is_immediate(endpoint):
    CannedHandler.responses = [(203, bindings_payload([]))]
    with pytest.raises(NetworkError, match="203"):
        fast_client(endpoint).lookup("A")
    assert len(CannedHandler.seen) == 1


def test_endpoint_cache_keyed_by_predicate_allowlist(endpoint, tmp_path):
    # the allowlist filters before the cache stores, so sources with
    # different allowlists must not share entries
    payload = bindings_payload([("A", "good/p", {"type": "uri", "value": "http://x/B"}),
                                ("A", "q", {"type": "uri", "value": "http://x/C"})])
    CannedHandler.responses = [(200, payload), (200, payload)]
    filtered = fast_client(endpoint, predicate_prefixes=("http://x/good/",))
    assert CachingSource(filtered, tmp_path).lookup("A") == {RdfTriple("A", "p", "B")}
    assert CachingSource(fast_client(endpoint), tmp_path).lookup("A") == {
        RdfTriple("A", "p", "B"), RdfTriple("A", "q", "C")}
    assert len(CannedHandler.seen) == 2


def test_endpoint_source_id_without_allowlist_is_the_url_digest():
    # so caches written before the allowlist was part of the id stay valid
    url = "http://127.0.0.1:1/sparql"
    assert fast_client(url).source_id == "sparql-" + hashlib.sha256(url.encode()).hexdigest()[:12]


class DumpEndpointHandler(BaseHTTPRequestHandler):
    """A SPARQL stand-in that answers each lookup query from the fixture
    dump by the local name it asks about, adding a literal and a blank-node
    binding, which the client must drop, to every answer it has."""

    by_name: dict = {}
    names = []  # the local name of every request, in order

    def do_GET(self):
        query = urllib.parse.parse_qs(urllib.parse.urlsplit(self.path).query)["query"][0]
        name = urllib.parse.unquote(
            re.search(r"<http://dbpedia\.org/resource/([^>]*)>", query).group(1))
        DumpEndpointHandler.names.append(name)
        rows = [{k: {"type": "uri", "value": v} for k, v in zip("spo", t)}
                for t in DumpEndpointHandler.by_name.get(name, [])]
        if rows:
            s = rows[0]["s"]
            rows.append({"s": s, "p": s, "o": {"type": "literal", "value": name}})
            rows.append({"s": s, "p": s, "o": {"type": "bnode", "value": "b0"}})
        send_body(self, 200, json.dumps({"results": {"bindings": rows}}).encode())

    def log_message(self, *args):
        pass


def test_endpoint_build_matches_dump_build(tmp_path, monkeypatch):
    monkeypatch.setattr(SparqlEndpointSource, "_throttle", lambda self: None)
    by_name = {}
    for line in (FIXTURE / "dump.nt").read_text(encoding="utf-8").splitlines():
        m = re.fullmatch(r"<([^>]*)> <([^>]*)> <([^>]*)> \.", line)
        if m:
            for term in (m[1], m[3]):
                by_name.setdefault(local_name(term), []).append(m.groups())
    monkeypatch.setattr(DumpEndpointHandler, "by_name", by_name)
    monkeypatch.setattr(DumpEndpointHandler, "names", [])

    def built(name, source_line):
        work = tmp_path / name
        work.mkdir()
        for f in ("corpus.csv", "dump.nt", "gazetteer.txt"):
            (work / f).write_bytes((FIXTURE / f).read_bytes())
        (work / "run.cfg").write_text(
            f"corpus = corpus.csv\ngazetteer = gazetteer.txt\n{source_line}\n", encoding="utf-8")
        for stage in ("preprocess", "build"):
            assert main([stage, "--config", str(work / "run.cfg")]) == 0
        graphs = sorted((work / "out" / "graphs").iterdir())
        return {p.name: p.read_bytes() for p in graphs}

    from_dump = built("dump", "dump = dump.nt")
    with serving(DumpEndpointHandler) as url:
        assert built("endpoint", f"endpoint = {url}") == from_dump
        asked = len(DumpEndpointHandler.names)
        assert len(from_dump) == 30 and asked > 30
        # every lookup is now in the disk cache
        assert main(["build", "--config", str(tmp_path / "endpoint" / "run.cfg"), "--force"]) == 0
        assert len(DumpEndpointHandler.names) == asked
