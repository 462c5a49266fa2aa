#!/usr/bin/env python3
"""Regenerate the bundled synthetic fixture (corpus, dump, gazetteer, config).

Thirty short documents are assembled from five 3-entity signature groups,
one group per trait, plus shared background entities dealt from a balanced
deck (two per document, each word reused equally often) so that only the
signature entities carry label signal.  Each trait is "on" in half the
documents; one of those is label-flipped so the entity/label correlation
sits near 0.9 rather than 1.0.  The dump links each signature group into
a triangle and anchors it to the background web, which gives random walks
some trait-cluster structure to pick up.

The script verifies its own output: every document is pushed through the
real preprocessing chain and the graph build, and the planted entities must
come out as nodes of the document's graph.
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kgatnet.kg_builder import NTriplesSource, build_document_graph
from kgatnet.preprocess import (
    GazetteerRecognizer,
    extract_concepts,
    load_lemma_table,
    load_stopwords,
)

TRAITS = "OCEAN"

# _deal_membership's pairwise target of 6 is feasible only at this size
N_DOCS = 30

SIGNATURES = {
    "O": ("Painting", "Museum", "Poetry"),
    "C": ("Schedule", "Checklist", "Deadline"),
    "E": ("Party", "Festival", "Concert"),
    "A": ("Charity", "Volunteer", "Kindness"),
    "N": ("Worry", "Insomnia", "Anxiety"),
}

BACKGROUND = [
    "City", "River", "Coffee", "Tea", "Bus", "Train", "Bicycle", "Garden",
    "Tree", "Dog", "Cat", "Book", "Library", "Kitchen", "Recipe", "Mountain",
    "Beach", "Rain", "Winter", "Summer", "Music", "Guitar", "Piano",
    "Computer", "Phone", "Office", "School", "Market", "Bread", "Cheese",
    "Soup", "Harbor", "Bridge", "Clock", "New_York",
]

# only these appear in document text (each exactly three times, dealt from a
# shuffled schedule, so no background word can separate the labels by luck);
# the rest pad out the dump's graph structure
DOC_BACKGROUND = BACKGROUND[:19] + ["New_York"]

# inflected surfaces the bundled lemma table maps back to the entity name
PLURALS = {
    "Painting": "paintings", "Museum": "museums", "Schedule": "schedules",
    "Checklist": "checklists", "Deadline": "deadlines", "Party": "parties",
    "Concert": "concerts", "Charity": "charities", "Volunteer": "volunteering",
    "Worry": "worries", "Book": "books", "City": "cities", "Dog": "dogs",
    "Cat": "cats",
}

PAIR_TEMPLATES = [
    "I spent the afternoon thinking about the {a} and the {b}.",
    "We talked about the {a} near the {b} yesterday.",
    "There was something about the {a} behind the {b} last week.",
    "My cousin mentioned the {a} while we waited for the {b}.",
    "After dinner I kept comparing the {a} with the {b}.",
]

SINGLE_TEMPLATES = [
    "Later I wrote a note about the {a}.",
    "The {a} kept coming up all evening.",
]

R = "http://fixture.example/resource/"
P = "http://fixture.example/prop/"


def surface(name: str, rng: np.random.Generator) -> str:
    if name == "New_York":
        return "New York"
    if name in PLURALS and rng.random() < 0.4:
        return PLURALS[name]
    return name.lower()


def doc_text(sig_words: list[str], bg_words: list[str], rng: np.random.Generator) -> str:
    words = sig_words + [w for w in bg_words if w != "New_York"]
    order = rng.permutation(len(words))
    words = [words[i] for i in order]
    sentences = []
    if "New_York" in bg_words:
        sentences.append("We visited New York again last weekend.")
    i = 0
    while i < len(words):
        chunk = words[i : i + 2]
        i += 2
        if len(chunk) == 2:
            a, b = (surface(w, rng) for w in chunk)
            tmpl = PAIR_TEMPLATES[int(rng.integers(len(PAIR_TEMPLATES)))]
            sentences.append(tmpl.format(a=a, b=b))
        else:
            tmpl = SINGLE_TEMPLATES[int(rng.integers(len(SINGLE_TEMPLATES)))]
            sentences.append(tmpl.format(a=surface(chunk[0], rng)))
    return " ".join(sentences)


def build_dump(rng: np.random.Generator) -> str:
    lines = ["# synthetic fixture dump", ""]
    stmt = set()

    def add(s, pred, o):
        line = f"<{R}{s}> <{P}{pred}> <{R}{o}> ."
        if line not in stmt:
            stmt.add(line)
            lines.append(line)

    for trait in TRAITS:
        a, b, c = SIGNATURES[trait]
        for u, v in ((a, b), (a, c), (b, c)):
            add(u, "relatedTo", v)
            add(u, "linkedWith", v)  # parallel predicate, merged at build time
    lines.append("")
    for trait in TRAITS:
        for name in SIGNATURES[trait]:
            for j in rng.choice(len(BACKGROUND), size=2, replace=False):
                add(name, "near", BACKGROUND[j])
    lines.append("")
    n = len(BACKGROUND)
    for i in range(n):
        add(BACKGROUND[i], "relatedTo", BACKGROUND[(i + 1) % n])
        add(BACKGROUND[i], "linkedWith", BACKGROUND[(i + 3) % n])
    for _ in range(40):
        i, j = rng.choice(n, size=2, replace=False)
        add(BACKGROUND[i], "near", BACKGROUND[j])
    lines.append("")
    lines.append("# literals, blank nodes, and self-loops below are parser fodder")
    for name in ("Museum", "Party", "Worry", "Coffee", "New_York", "Schedule"):
        lines.append(f'<{R}{name}> <{P}label> "{name.lower()}"@en .')
    lines.append(f'<{R}Clock> <{P}age> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .')
    lines.append(f'<{R}Bridge> <{P}length> "120.5"^^<http://www.w3.org/2001/XMLSchema#double> .')
    for name in ("City", "Music", "Anxiety", "Festival"):
        lines.append(f"<{R}{name}> <{P}relatedTo> <{R}{name}> .")
    lines.append(f"_:b0 <{P}relatedTo> <{R}City> .")
    lines.append(f"<{R}River> <{P}sameAs> _:b1 .")
    return "\n".join(lines) + "\n"


def _deal_membership(rng: np.random.Generator):
    """30x5 binary membership with column sums 15, row sums 2 or 3, and all
    pairwise co-activation counts annealed to exactly 6 (their feasible mean)."""
    half = N_DOCS // 2
    # row capacities force the pairwise sum to 15*C(3,2) + 15*C(2,2) = 60,
    # i.e. a mean of 6 per trait pair
    target = 6

    def greedy():
        row_caps = np.array([3] * half + [2] * (N_DOCS - half))
        rng.shuffle(row_caps)
        m = np.zeros((N_DOCS, 5), dtype=int)
        for j in range(5):
            caps = row_caps - m.sum(axis=1)
            pool = np.flatnonzero(caps > 0)
            if len(pool) < half:
                return None
            picks = rng.choice(pool, size=half, replace=False,
                               p=caps[pool] / caps[pool].sum())
            m[picks, j] = 1
        return m if (m.sum(axis=1) == row_caps).all() else None

    def cost(m):
        err = m.T @ m - target
        np.fill_diagonal(err, 0)
        return int((err * err).sum())

    for _ in range(50):
        m = greedy()
        if m is None:
            continue
        c = cost(m)
        for _ in range(30000):
            if c == 0:
                return {t: set(np.flatnonzero(m[:, j]).tolist())
                        for j, t in enumerate(TRAITS)}
            # swap a trait pair between two documents; keeps all row and
            # column sums, changes only the co-activation counts
            j, k = rng.choice(5, size=2, replace=False)
            aj = np.flatnonzero((m[:, j] == 1) & (m[:, k] == 0))
            bk = np.flatnonzero((m[:, j] == 0) & (m[:, k] == 1))
            if not len(aj) or not len(bk):
                continue
            a, b = int(rng.choice(aj)), int(rng.choice(bk))
            m[a, j], m[a, k], m[b, j], m[b, k] = 0, 1, 1, 0
            c2 = cost(m)
            if c2 <= c:
                c = c2
            else:
                m[a, j], m[a, k], m[b, j], m[b, k] = 1, 0, 0, 1
    return None


def main() -> int:
    default_out = Path(__file__).resolve().parent.parent / "src" / "kgatnet" / "data" / "fixture"
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=default_out)
    args = ap.parse_args()
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(7)

    # Balanced membership: each trait is on in half the documents, each
    # document is active in two or three traits (so essay degrees sit in a
    # narrow band), and every trait pair co-occurs in exactly six documents.
    # The last condition caps inter-trait label correlation at 0.2; without
    # it, one trait's signature entities leak into another's classifier.
    members = _deal_membership(rng)
    if members is None:
        raise SystemExit("could not deal balanced trait membership")

    # one label-flipped document per trait, all five distinct
    flip = {}
    for t in TRAITS:
        cands = [d for d in sorted(members[t]) if d not in flip.values()]
        flip[t] = cands[int(rng.integers(len(cands)))]
    labels = np.zeros((N_DOCS, 5), dtype=int)
    for j, t in enumerate(TRAITS):
        for d in members[t]:
            labels[d, j] = 0 if d == flip[t] else 1

    # deal background words from a fixed-count deck (two per document, each
    # word used the same number of times) so none of them can correlate with
    # a trait strongly enough to act as a spurious separator
    reps = -(-2 * N_DOCS // len(DOC_BACKGROUND))
    deck = (DOC_BACKGROUND * reps)[: 2 * N_DOCS]
    for _ in range(1000):
        deal = [deck[i] for i in rng.permutation(len(deck))]
        bg_pairs = [deal[2 * d : 2 * d + 2] for d in range(N_DOCS)]
        if all(len(set(p)) == len(p) for p in bg_pairs):
            break
    else:
        raise SystemExit("could not deal distinct background pairs")

    docs = []
    new_york_docs = 0
    for d in range(N_DOCS):
        sig_words: list[str] = []
        for t in TRAITS:
            if d in members[t]:
                sig_words += list(SIGNATURES[t])
        bg_words = bg_pairs[d]
        if "New_York" in bg_words:
            new_york_docs += 1
        docs.append((f"doc{d + 1:02d}", doc_text(sig_words, bg_words, rng), sig_words))

    dump_text = build_dump(rng)
    (out / "dump.nt").write_text(dump_text, encoding="utf-8")
    (out / "gazetteer.txt").write_text("new york\n", encoding="utf-8")

    with open(out / "corpus.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["doc_id", "text", "O", "C", "E", "A", "N"])
        for (doc_id, text, _), row in zip(docs, labels):
            w.writerow([doc_id, text, *row.tolist()])

    (out / "fixture.cfg").write_text(
        "# synthetic fixture; paths are relative to this file\n"
        "corpus = corpus.csv\n"
        "dump = dump.nt\n"
        "gazetteer = gazetteer.txt\n"
        "output_dir = out\n"
        "\n"
        "seed = 42\n"
        "protocol = cv\n"
        "cv_folds = 10\n"
        "\n"
        "# small network: the corpus is tiny, so the full-size defaults overfit\n"
        "# before they generalize; small batches give Adam enough steps and the\n"
        "# weight decay keeps rare background entities out of the classifier\n"
        "epochs = 300\n"
        "batch_size = 4\n"
        "learning_rate = 0.01\n"
        "patience = 80\n"
        "validation_split = 0.2\n"
        "weight_decay = 0.02\n"
        "heads_per_layer = 2\n"
        "hidden_units = 16\n"
        "dense_units = 16\n"
        "attention_layers = 2\n"
        "\n"
        "# enough walks and epochs for the skip-gram to separate the entity\n"
        "# clusters; with fewer the vectors stay near their common drift\n"
        "# direction and enrichment only adds noise\n"
        "embed_dim = 8\n"
        "walk_depth = 4\n"
        "walks_per_node = 32\n"
        "window = 3\n"
        "negatives = 4\n"
        "embed_epochs = 12\n",
        encoding="utf-8",
    )

    # verify the planted signal survives the real preprocessing chain
    stop = load_stopwords()
    lemmas = load_lemma_table()
    recognizer = GazetteerRecognizer.from_file(out / "gazetteer.txt")
    source = NTriplesSource(out / "dump.nt")
    for doc_id, text, sig_words in docs:
        concepts = build_document_graph(
            extract_concepts(text, stop, lemmas, recognizer), source).nodes
        missing = set(sig_words) - concepts
        if missing:
            raise SystemExit(f"{doc_id}: planted entities lost in preprocessing "
                             f"or missing from the dump: {missing}")
        if "New York" in text and "New_York" not in concepts:
            raise SystemExit(f"{doc_id}: gazetteer entity did not resolve")

    for j, t in enumerate(TRAITS):
        on = members[t]
        n11 = sum(labels[d, j] for d in on)
        n10 = len(on) - n11
        n01 = int(labels[:, j].sum()) - n11
        n00 = N_DOCS - len(on) - n01
        num = n11 * n00 - n10 * n01
        den = np.sqrt(float((n11 + n10) * (n01 + n00) * (n11 + n01) * (n10 + n00)))
        print(f"{t}: n11={n11} n10={n10} n01={n01} n00={n00} phi={num / den:.3f}")

    # background words must stay label-neutral; with a balanced deal the
    # worst reachable correlation is well under 0.4
    for word in set(DOC_BACKGROUND):
        present = np.array([word in bg_pairs[d] for d in range(N_DOCS)], dtype=int)
        for j, t in enumerate(TRAITS):
            y = labels[:, j]
            if present.std() == 0 or y.std() == 0:
                continue
            phi = float(np.corrcoef(present, y)[0, 1])
            if abs(phi) > 0.45:
                raise SystemExit(f"background word {word} correlates with {t}: {phi:.3f}")
    print(f"wrote {N_DOCS} docs, {sum(1 for l in dump_text.splitlines() if l.endswith('.'))} "
          f"statements, New_York in {new_york_docs} docs -> {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
