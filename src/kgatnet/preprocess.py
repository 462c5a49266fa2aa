"""Phase-1 text preparation: raw document text to a canonical concept set.

The chain is tokenize -> remove_noise -> normalize -> recognize entities ->
finalize_concept_set.  Every step is a pure function over immutable inputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

_DATA_DIR = Path(__file__).resolve().parent / "data"

# Clitics are split off as their own tokens ("York's" -> "York", "'s");
# everything else is word runs or single punctuation characters, so no
# non-whitespace character is ever dropped.
_TOKEN_RE = re.compile(r"\w+(?=n't\b)|n't\b|'(?:s|ll|re|ve|d|m)\b|\w+|[^\w\s]")

_WS_RUN_RE = re.compile(r"\s+")

TraitLabels = tuple[int, int, int, int, int]


@dataclass(frozen=True)
class Document:
    """One corpus document; ``labels`` is the optional (O,C,E,A,N) bit row."""

    id: str
    text: str
    labels: TraitLabels | None = None


def tokenize(text: str) -> list[str]:
    """Split raw text into word, clitic, and punctuation tokens."""
    return _TOKEN_RE.findall(text)


def is_noise(token: str) -> bool:
    """True for pure sign/punctuation tokens (no letter or digit)."""
    return not any(ch.isalnum() for ch in token)


def remove_noise(tokens: Iterable[str], stopwords: frozenset[str] | set[str]) -> list[str]:
    """Drop punctuation/sign tokens and (case-insensitive) stopwords."""
    return [t for t in tokens if not is_noise(t) and t.lower() not in stopwords]


def normalize(tokens: Iterable[str], lemma_table: dict[str, str]) -> list[str]:
    """Lowercase each token, then map it through the lemma table (identity on miss)."""
    lowered = (t.lower() for t in tokens)
    return [lemma_table.get(t, t) for t in lowered]


class GazetteerRecognizer:
    """Greedy left-to-right longest-match recognizer over a multiword lexicon.

    Entries are lowercase with single spaces between words, matching the
    normalization applied to tokens.  Tokens not covered by a gazetteer match
    pass through as single-token concepts.
    """

    def __init__(self, entries: Iterable[str]):
        self._by_first: dict[str, list[tuple[str, ...]]] = {}
        for entry in entries:
            words = tuple(entry.strip().split())
            if not words:
                continue
            self._by_first.setdefault(words[0], []).append(words)
        # longest candidates first so the first hit wins
        for cands in self._by_first.values():
            cands.sort(key=len, reverse=True)

    @classmethod
    def from_file(cls, path: Path | str) -> "GazetteerRecognizer":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        return cls(line for line in lines if line.strip())

    def recognize(self, tokens: list[str]) -> list[str]:
        mentions: list[str] = []
        i = 0
        n = len(tokens)
        while i < n:
            matched = None
            for cand in self._by_first.get(tokens[i], ()):
                if len(cand) <= n - i and tuple(tokens[i : i + len(cand)]) == cand:
                    matched = cand
                    break
            if matched is not None:
                mentions.append(" ".join(matched))
                i += len(matched)
            else:
                mentions.append(tokens[i])
                i += 1
        return mentions


def finalize_concept_set(mentions: Iterable[str]) -> frozenset[str]:
    """Deduplicate mentions (case-insensitively) into canonical concept form.

    Canonical form: whitespace runs become single underscores, then the first
    character is uppercased ("new york" -> "New_york").
    """
    concepts = set()
    for mention in mentions:
        joined = _WS_RUN_RE.sub("_", mention.strip().lower())
        if joined:
            concepts.add(joined[0].upper() + joined[1:])
    return frozenset(concepts)


def extract_concepts(
    text: str,
    stopwords: frozenset[str],
    lemma_table: dict[str, str],
    recognizer: GazetteerRecognizer,
) -> frozenset[str]:
    """Run the full Phase-1 chain on one document."""
    tokens = normalize(remove_noise(tokenize(text), stopwords), lemma_table)
    return finalize_concept_set(recognizer.recognize(tokens))


def load_stopwords(path: Path | str | None = None) -> frozenset[str]:
    """One lowercase token per line; defaults to the bundled English list."""
    p = Path(path) if path is not None else _DATA_DIR / "stopwords.txt"
    return frozenset(
        line.strip() for line in p.read_text(encoding="utf-8").splitlines() if line.strip()
    )


def load_lemma_table(path: Path | str | None = None) -> dict[str, str]:
    """Tab-separated ``surface<TAB>lemma`` pairs; defaults to the bundled table."""
    p = Path(path) if path is not None else _DATA_DIR / "lemmas.tsv"
    table: dict[str, str] = {}
    for lineno, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        try:
            surface, lemma = line.split("\t")
        except ValueError:
            raise ValueError(f"{p}:{lineno}: expected 'surface<TAB>lemma'") from None
        table[surface.strip()] = lemma.strip()
    return table
