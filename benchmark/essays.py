"""Seeded generator of an Essays-shaped corpus and an N-Triples dump.

The real Essays corpus and a DBpedia dump are not shipped with the
repository, so the ``essays-*`` workloads run on synthetic stand-ins with
the properties that drive the pipeline's cost:

- entity popularity is Zipf-distributed, both in the documents and in the
  dump, so documents share most lookups and popular entities carry large
  descriptions;
- the dump holds parser fodder the pipeline must skip or merge: parallel
  predicates, literals (plain, language-tagged, typed, with escapes), blank
  nodes and self-loops;
- a few multi-word gazetteer entities are spelled title-cased in the dump
  ("Zuma_Keloti") while preprocessing yields "Zuma_keloti", so the
  title-case rescue runs;
- entity and filler names are built from syllables and checked against the
  bundled stopword list and lemma table, so no name is dropped or rewritten
  by preprocessing.

``generate`` returns a ``Planted`` record of exactly what was written; the
oracle in ``oracle.py`` derives the expected aggregate counts from it
without calling the pipeline.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

R = "http://essays.example/resource/"
P = "http://essays.example/prop/"
PREDICATES = ("relatedTo", "linkedWith", "partOf", "knownFor", "influencedBy", "seeAlso")
LITERAL_PREDICATES = ("label", "comment", "population")
TRAITS = "OCEAN"

_ONSETS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Sizes:
    """Corpus and dump dimensions; one value serves every seed."""

    docs: int = 64
    mentions_per_doc: int = 55      # entity tokens per document, Zipf-drawn
    misses_per_doc: int = 12        # content words the dump does not describe
    entities: int = 1500
    gazetteer: int = 8              # multi-word entities among `entities`
    literal_only: int = 20          # entities the dump describes with literals only
    miss_words: int = 300
    zipf: float = 1.05
    links: int = 3000               # entity-to-entity statements
    external_links: int = 1500      # statements to resources no document names
    literals: int = 1000
    blank_nodes: int = 300
    parallel_share: float = 0.15    # share of links repeated under a second predicate
    self_loops: int = 60


@dataclass
class Planted:
    """What the generator wrote, in the vocabulary of the input files."""

    doc_ids: list[str]
    # per document: the concept each content token becomes after
    # preprocessing (first letter upper, words joined by "_")
    doc_concepts: list[set[str]]
    # concept spelling -> the spelling the dump uses for it
    dump_spelling: dict[str, str]
    # every statement whose subject, predicate and object are all resources,
    # as (subject, predicate, object) local names
    resource_triples: list[tuple[str, str, str]]


def _stopwords(data_dir: Path) -> list[str]:
    return [w.strip() for w in (data_dir / "stopwords.txt").read_text().splitlines() if w.strip()]


def _reserved_words(data_dir: Path) -> set[str]:
    """Tokens preprocessing drops or rewrites: stopwords and lemma surfaces."""
    words = set(_stopwords(data_dir))
    for line in (data_dir / "lemmas.tsv").read_text().splitlines():
        if line and not line.startswith("#"):
            words.update(part.strip() for part in line.split("\t"))
    return words


def _names(rng: np.random.Generator, count: int, reserved: set[str], taken: set[str]) -> list[str]:
    """`count` distinct lowercase syllable words of 2-3 syllables."""
    out = []
    while len(out) < count:
        n_syl = 2 + int(rng.integers(2))
        word = "".join(_ONSETS[int(rng.integers(len(_ONSETS)))] + _VOWELS[int(rng.integers(5))]
                       for _ in range(n_syl))
        if rng.random() < 0.5:
            word += _ONSETS[int(rng.integers(len(_ONSETS)))]
        if word in reserved or word in taken:
            continue
        taken.add(word)
        out.append(word)
    return out


def _zipf_weights(n: int, s: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** s
    return w / w.sum()


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def generate(seed: int, sizes: Sizes, data_dir: Path) -> tuple[dict[str, str], Planted]:
    """Return ({file name: text}, Planted) for corpus.csv, dump.nt and
    gazetteer.txt.  `data_dir` holds the bundled stopword and lemma lists."""
    rng = np.random.default_rng([seed, 20220527])
    reserved = _reserved_words(data_dir)
    taken: set[str] = set()

    singles = _names(rng, sizes.entities - sizes.gazetteer, reserved, taken)
    gaz_words = _names(rng, 2 * sizes.gazetteer, reserved, taken)
    gaz = [(gaz_words[2 * i], gaz_words[2 * i + 1]) for i in range(sizes.gazetteer)]
    misses = _names(rng, sizes.miss_words, reserved, taken)

    # concept spelling (what preprocessing yields) and dump spelling
    concept_of: list[str] = [w.capitalize() for w in singles]
    dump_of: list[str] = list(concept_of)
    surface_of: list[str] = list(singles)
    for a, b in gaz:
        concept_of.append(f"{a.capitalize()}_{b}")
        dump_of.append(f"{a.capitalize()}_{b.capitalize()}")
        surface_of.append(f"{a} {b}")
    # popularity rank: a random permutation, so gazetteer entities sit
    # anywhere in the Zipf curve
    order = rng.permutation(sizes.entities)
    concept_of = [concept_of[i] for i in order]
    dump_of = [dump_of[i] for i in order]
    surface_of = [surface_of[i] for i in order]
    pop = _zipf_weights(sizes.entities, sizes.zipf)

    # the least popular entities get literal-only descriptions
    literal_only = set(range(sizes.entities - sizes.literal_only, sizes.entities))
    linkable = np.array([i for i in range(sizes.entities) if i not in literal_only])
    link_pop = pop[linkable] / pop[linkable].sum()

    lines = ["# synthetic Essays-shaped dump", ""]
    resource_triples: list[tuple[str, str, str]] = []

    def add_resource(s: str, p: str, o: str) -> None:
        lines.append(f"<{R}{s}> <{P}{p}> <{R}{o}> .")
        resource_triples.append((s, p, o))

    # entity-to-entity links; both ends Zipf-drawn, so popular entities
    # collect large descriptions from both sides
    subj = linkable[rng.choice(len(linkable), size=sizes.links, p=link_pop)]
    obj = linkable[rng.choice(len(linkable), size=sizes.links, p=link_pop)]
    for s, o in zip(subj, obj):
        if s == o:
            continue
        p = PREDICATES[int(rng.integers(len(PREDICATES)))]
        add_resource(dump_of[s], p, dump_of[o])
        if rng.random() < sizes.parallel_share:
            add_resource(dump_of[s], PREDICATES[(PREDICATES.index(p) + 1) % len(PREDICATES)],
                         dump_of[o])
    # links to resources outside the vocabulary: fetched, then pruned
    ext = linkable[rng.choice(len(linkable), size=sizes.external_links, p=link_pop)]
    for k, s in enumerate(ext):
        target = f"Ext_{int(rng.integers(sizes.external_links // 3))}"
        if k % 2:
            add_resource(dump_of[s], PREDICATES[k % len(PREDICATES)], target)
        else:
            add_resource(target, PREDICATES[k % len(PREDICATES)], dump_of[s])
    for i in rng.choice(linkable, size=sizes.self_loops, replace=False):
        add_resource(dump_of[i], "sameAs", dump_of[i])
    # literals and blank nodes: skipped by the parser
    lit_subjects = list(linkable[rng.choice(len(linkable), size=sizes.literals, p=link_pop)])
    lit_subjects += sorted(literal_only) * 2
    for k, s in enumerate(lit_subjects):
        pred = LITERAL_PREDICATES[k % 3]
        if pred == "population":
            value = f'"{int(rng.integers(10**6))}"^^<http://www.w3.org/2001/XMLSchema#integer>'
        elif pred == "label":
            value = f'"{_escape(dump_of[s].replace("_", " "))}"@en'
        else:
            value = '"' + _escape(f'A {dump_of[s]} said "hello" \\ twice') + '"'
        lines.append(f"<{R}{dump_of[s]}> <{P}{pred}> {value} .")
    for k in range(sizes.blank_nodes):
        s = int(linkable[int(rng.integers(len(linkable)))])
        if k % 2:
            lines.append(f"_:b{k} <{P}relatedTo> <{R}{dump_of[s]}> .")
        else:
            lines.append(f"<{R}{dump_of[s]}> <{P}relatedTo> _:b{k} .")
    order = rng.permutation(len(lines) - 2)
    dump_text = "\n".join(lines[:2] + [lines[2 + i] for i in order]) + "\n"

    # documents: Zipf-drawn entity mentions plus undescribed content words,
    # separated by stopwords and punctuation
    fillers = [w for w in _stopwords(data_dir) if w.isalpha()]
    doc_ids, doc_concepts = [], []
    rows = []
    for d in range(sizes.docs):
        ents = rng.choice(sizes.entities, size=sizes.mentions_per_doc, p=pop)
        words = [surface_of[e] for e in ents]
        miss = rng.choice(len(misses), size=sizes.misses_per_doc)
        words += [misses[m] for m in miss]
        words = [words[i] for i in rng.permutation(len(words))]
        tokens = []
        for k, w in enumerate(words):
            tokens.append(fillers[int(rng.integers(len(fillers)))])
            tokens.append(w.capitalize() if k % 7 == 0 else w)
            if k % 9 == 8:
                tokens[-1] += "."
        doc_id = f"essay{d:04d}"
        bits = tuple(int(b) for b in rng.integers(0, 2, size=5))
        doc_ids.append(doc_id)
        doc_concepts.append({concept_of[e] for e in ents} | {misses[m].capitalize() for m in miss})
        rows.append([doc_id, " ".join(tokens) + ".", *bits])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["doc_id", "text", *TRAITS])
    writer.writerows(rows)

    files = {
        "corpus.csv": buf.getvalue(),
        "dump.nt": dump_text,
        "gazetteer.txt": "".join(f"{a} {b}\n" for a, b in gaz),
    }
    planted = Planted(
        doc_ids=doc_ids,
        doc_concepts=doc_concepts,
        dump_spelling=dict(zip(concept_of, dump_of)),
        resource_triples=resource_triples,
    )
    return files, planted


def write(seed: int, sizes: Sizes, data_dir: Path, out_dir: Path) -> Planted:
    files, planted = generate(seed, sizes, data_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    return planted
