"""Per-document knowledge graph construction.

Builds each document's graph in one pass over its concepts: every concept
is looked up once in a remote SPARQL endpoint or an offline N-Triples dump
(a miss retries its title-cased spelling, which then replaces it), and of
the triples fetched only the edges between two of the document's concepts
are kept, with predicates dropped and parallel edges merged into a simple
undirected graph.  A dump is indexed in memory when it is loaded; only
endpoint lookups, which are network round trips, go through the per-concept
disk cache.
"""

from __future__ import annotations

import hashlib
import logging
import threading
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Protocol

from .errors import CacheMiss, NetworkError

log = logging.getLogger(__name__)


class RdfTriple(NamedTuple):
    subject: str
    predicate: str
    obj: str


@dataclass(frozen=True)
class KnowledgeGraph:
    """Simple undirected graph; edges stored as (u, v) pairs with u < v."""

    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]


def norm_edge(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u < v else (v, u)


def local_name(uri: str) -> str:
    """Tail of a URI after the last '/' or '#'; identity for plain names."""
    return uri.rsplit("/", 1)[-1].rsplit("#", 1)[-1]


def title_case(concept: str) -> str:
    """Uppercase the first letter of every underscore-separated part."""
    return "_".join(p[:1].upper() + p[1:] for p in concept.split("_"))


# --- N-Triples parsing -------------------------------------------------

def _nt_terms(body: str):
    """Yield (kind, value) terms from one N-Triples statement body."""
    i, n = 0, len(body)
    while i < n:
        ch = body[i]
        if ch in " \t":
            i += 1
        elif ch == "<":
            j = body.index(">", i)
            yield ("uri", body[i + 1 : j])
            i = j + 1
        elif ch == '"':
            j = i + 1
            while j < n and body[j] != '"':
                j += 2 if body[j] == "\\" else 1
            k = j + 1
            while k < n and body[k] not in " \t":
                k += 1  # language tag / datatype suffix
            yield ("literal", body[i + 1 : j])
            i = k
        else:
            j = i
            while j < n and body[j] not in " \t":
                j += 1
            yield ("blank", body[i:j])
            i = j


def parse_ntriples(lines: Iterable[str], predicate_prefixes: tuple[str, ...] = ()):
    """Yield RdfTriple for each resource-only statement; literals and blank
    nodes are discarded, as are predicates outside the allowlist (when given).
    Malformed lines are skipped with a debug log, not fatal."""
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not line.endswith("."):
            log.debug("line %d: no terminating dot, skipped", lineno)
            continue
        try:
            terms = list(_nt_terms(line[:-1].rstrip()))
        except ValueError:
            log.debug("line %d: unterminated term, skipped", lineno)
            continue
        if len(terms) != 3:
            log.debug("line %d: %d terms, skipped", lineno, len(terms))
            continue
        if any(kind != "uri" for kind, _ in terms):
            continue  # literal object or blank node
        s, p, o = (value for _, value in terms)
        if predicate_prefixes and not p.startswith(predicate_prefixes):
            continue
        if s and p and o:
            yield RdfTriple(local_name(s), local_name(p), local_name(o))


def render_ntriples(triples: Iterable[RdfTriple], base: str = "") -> str:
    """Canonical (sorted) N-Triples text; `base` is prepended to bare names."""
    lines = [
        f"<{base}{t.subject}> <{base}{t.predicate}> <{base}{t.obj}> ."
        for t in sorted(triples)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# --- triple sources ----------------------------------------------------

class TripleSource(Protocol):
    source_id: str

    def lookup(self, name: str) -> frozenset[RdfTriple]:
        """All triples where `name` is the subject or object resource."""
        ...


class NTriplesSource:
    """Offline dump backend: the whole file indexed in memory by local name."""

    def __init__(self, path: Path | str, predicate_prefixes: tuple[str, ...] = ()):
        self.path = Path(path)
        self.source_id = "dump-" + hashlib.sha256(str(self.path).encode()).hexdigest()[:12]
        by_name: dict[str, set[RdfTriple]] = {}
        with open(self.path, encoding="utf-8") as fh:
            for t in parse_ntriples(fh, predicate_prefixes):
                by_name.setdefault(t.subject, set()).add(t)
                by_name.setdefault(t.obj, set()).add(t)
        # frozen once here, so a lookup hands out the stored set uncopied
        self._by_name: dict[str, frozenset[RdfTriple]] = {
            name: frozenset(triples) for name, triples in by_name.items()
        }

    def lookup(self, name: str) -> frozenset[RdfTriple]:
        return self._by_name.get(name, frozenset())


class SparqlEndpointSource:
    """Remote SPARQL-protocol client with retries, timeout, and a polite
    minimum interval between requests (thread-safe)."""

    def __init__(
        self,
        endpoint_url: str,
        resource_base: str = "http://dbpedia.org/resource/",
        predicate_prefixes: tuple[str, ...] = (),
        timeout: float = 30.0,
        max_attempts: int = 3,
        backoff: float = 1.0,
        min_interval: float = 1.0,
        max_triples: int = 10000,
    ):
        self.endpoint_url = endpoint_url
        self.resource_base = resource_base
        self.predicate_prefixes = predicate_prefixes
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff = backoff
        self.min_interval = min_interval
        self.max_triples = max_triples
        self.source_id = "sparql-" + hashlib.sha256(endpoint_url.encode()).hexdigest()[:12]
        self._lock = threading.Lock()
        self._last_request = 0.0

    def _throttle(self):
        with self._lock:
            wait = self._last_request + self.min_interval - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            self._last_request = time.monotonic()

    def _query_for(self, name: str) -> str:
        uri = self.resource_base + urllib.parse.quote(name, safe="_()',.-~")
        return (
            "SELECT ?s ?p ?o WHERE { "
            f"{{ <{uri}> ?p ?o . BIND(<{uri}> AS ?s) }} UNION "
            f"{{ ?s ?p <{uri}> . BIND(<{uri}> AS ?o) }} "
            f"}} LIMIT {self.max_triples}"
        )

    def lookup(self, name: str) -> frozenset[RdfTriple]:
        # imported here: only endpoint runs need it, and it slows every
        # start of the command line by tens of milliseconds
        import requests

        params = {"query": self._query_for(name), "format": "application/sparql-results+json"}
        headers = {"Accept": "application/sparql-results+json", "User-Agent": "kgatnet/0.1"}
        last_error: Exception | None = None
        for attempt in range(self.max_attempts):
            if attempt:
                time.sleep(self.backoff * attempt)
            self._throttle()
            try:
                resp = requests.get(
                    self.endpoint_url, params=params, headers=headers, timeout=self.timeout
                )
            except requests.RequestException as exc:
                last_error = exc
                log.warning("request for %r failed (%s), attempt %d", name, exc, attempt + 1)
                continue
            if resp.status_code == 200:
                try:
                    payload = resp.json()
                except ValueError as exc:
                    last_error = exc
                    continue
                return self._parse_bindings(payload)
            if resp.status_code in (429,) or resp.status_code >= 500:
                last_error = NetworkError(f"endpoint returned {resp.status_code}")
                continue
            raise NetworkError(f"endpoint returned {resp.status_code} for {name!r}")
        raise NetworkError(f"endpoint unreachable after {self.max_attempts} attempts") from last_error

    def _parse_bindings(self, payload) -> frozenset[RdfTriple]:
        triples = set()
        try:
            bindings = payload["results"]["bindings"]
        except (KeyError, TypeError):
            raise NetworkError("malformed SPARQL response") from None
        for row in bindings:
            try:
                s, p, o = row["s"], row["p"], row["o"]
            except KeyError:
                continue
            if not all(term.get("type") == "uri" for term in (s, p, o)):
                continue  # literal-valued object
            pred = p["value"]
            if self.predicate_prefixes and not pred.startswith(self.predicate_prefixes):
                continue
            triples.add(RdfTriple(local_name(s["value"]), local_name(pred), local_name(o["value"])))
        return frozenset(triples)


# --- caching -----------------------------------------------------------

def safe_filename(name: str) -> str:
    """Deterministic, collision-free, filesystem-safe stem for a concept."""
    quoted = urllib.parse.quote(name, safe="")
    if not quoted:
        return "_"
    if len(quoted) > 120:
        digest = hashlib.sha256(name.encode("utf-8")).hexdigest()[:24]
        quoted = quoted[:80] + "." + digest
    return quoted


class TripleCache:
    """One N-Triples file per concept under <root>/<source_id>/.

    Holds SPARQL endpoint lookups, each a network round trip; an N-Triples
    dump is already indexed in memory and is not cached.

    Writes go through an adjacent temp file and os.replace, so concurrent
    puts for the same key are last-write-wins and readers never see a
    partial file.  An empty file is a cached (valid) empty result.
    """

    def __init__(self, root: Path | str, source_id: str):
        self.dir = Path(root) / source_id
        self.dir.mkdir(parents=True, exist_ok=True)

    def path_for(self, concept: str) -> Path:
        return self.dir / (safe_filename(concept) + ".nt")

    def get(self, concept: str) -> frozenset[RdfTriple]:
        path = self.path_for(concept)
        if not path.exists():
            raise CacheMiss(concept)
        with open(path, encoding="utf-8") as fh:
            return frozenset(parse_ntriples(fh))

    def put(self, concept: str, triples: Iterable[RdfTriple]) -> None:
        path = self.path_for(concept)
        tmp = path.with_name(path.name + f".tmp{threading.get_ident()}")
        tmp.write_text(render_ntriples(triples), encoding="utf-8")
        tmp.replace(path)


class CachingSource:
    """Wrap a TripleSource with a read-through TripleCache."""

    def __init__(self, inner: TripleSource, cache: TripleCache):
        self.inner = inner
        self.cache = cache
        self.source_id = inner.source_id

    def lookup(self, name: str) -> frozenset[RdfTriple]:
        try:
            return self.cache.get(name)
        except CacheMiss:
            triples = self.inner.lookup(name)
            self.cache.put(name, triples)
            return triples


# --- graph construction ------------------------------------------------

def build_document_graph(concepts: Iterable[str], source: TripleSource) -> KnowledgeGraph:
    """The document's graph over its concepts, from one lookup per concept.

    A concept the source knows nothing about under its own name but does know
    title-cased ("New_york" -> "New_York") is replaced by that variant.  Of
    the fetched triples, with predicates dropped, only edges between two
    distinct resolved concepts are kept; a resolved concept is a node when
    some fetched triple mentions it.
    """
    resolved: set[str] = set()
    fetched: list[frozenset[RdfTriple]] = []
    for concept in sorted(set(concepts)):
        triples = source.lookup(concept)
        if not triples:
            alt = title_case(concept)
            alt_triples = source.lookup(alt) if alt != concept else frozenset()
            if alt_triples:
                concept, triples = alt, alt_triples
            else:
                log.debug("no description for %r", concept)
        resolved.add(concept)
        fetched.append(triples)

    nodes: set[str] = set()
    edges: set[tuple[str, str]] = set()
    for triples in fetched:
        for s, _, o in triples:
            s_in, o_in = s in resolved, o in resolved
            if s_in:
                nodes.add(s)
            if o_in:
                nodes.add(o)
            if s_in and o_in and s != o:
                edges.add(norm_edge(s, o))
    return KnowledgeGraph(frozenset(nodes), frozenset(edges))


# --- serialization -----------------------------------------------------

def graph_to_text(graph: KnowledgeGraph) -> str:
    lines = [f"nodes {len(graph.nodes)}"]
    lines.extend(sorted(graph.nodes))
    lines.append(f"edges {len(graph.edges)}")
    lines.extend(f"{u}\t{v}" for u, v in sorted(graph.edges))
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> KnowledgeGraph:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("nodes "):
        raise ValueError("graph text must start with a 'nodes <count>' header")
    n_nodes = int(lines[0].split()[1])
    nodes = frozenset(lines[1 : 1 + n_nodes])
    edge_header = lines[1 + n_nodes]
    if not edge_header.startswith("edges "):
        raise ValueError("missing 'edges <count>' header")
    n_edges = int(edge_header.split()[1])
    edges = set()
    for line in lines[2 + n_nodes : 2 + n_nodes + n_edges]:
        u, v = line.split("\t")
        edges.add((u, v))
    if len(nodes) != n_nodes or len(edges) != n_edges:
        raise ValueError("graph text counts disagree with payload")
    return KnowledgeGraph(nodes, frozenset(edges))


def read_graph(path: Path | str) -> KnowledgeGraph:
    return graph_from_text(Path(path).read_text(encoding="utf-8"))
