"""Config-driven orchestration of the end-to-end classification pipeline.

The six stages (preprocess, build, aggregate, embed, train, evaluate) each
read only upstream artifacts and write only their own outputs under the
configured output directory, so any stage can be rerun in isolation.
Existing outputs are skipped unless --force; every stage refreshes a
manifest.json recording the resolved config, input digests, and versions.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import logging
import platform
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp

from . import __version__
from .aggregator import (
    aggregate_graphs,
    attach_essay_nodes,
    build_feature_matrix,
    build_label_matrix,
    read_aggregated,
    read_labels_csv,
    write_aggregated,
    write_labels_csv,
)
from .errors import ConfigError, DuplicateDocumentId, MissingStageInput, NonFiniteLoss
from .evaluation import (
    TRAITS,
    aggregate_fold_rows,
    confusion_counts,
    k_fold_split,
    metric_row,
    trait_correlations,
    write_long_report,
    write_metric_report,
)
from .gat import (
    TrainConfig,
    _write_atomically,
    load_model,
    predict,
    save_model,
    tensors_from_aggregated,
    train_stack,
    write_history,
)
from .kg_builder import (
    CachingSource,
    NTriplesSource,
    SparqlEndpointSource,
    build_document_graph,
    graph_to_text,
    read_graph,
)
from .preprocess import (
    Document,
    GazetteerRecognizer,
    extract_concepts,
    load_lemma_table,
    load_stopwords,
)
from .rdf2vec import EmbedConfig, read_embeddings, train_embeddings, write_embeddings

log = logging.getLogger(__name__)

STAGES = ("preprocess", "build", "aggregate", "embed", "train", "evaluate")

# doc ids become file names and embedding vocabulary entries, so keep them
# free of whitespace and path separators
_DOC_ID_RE = re.compile(r"[A-Za-z0-9_.-]+")

_CORPUS_HEADER = ["doc_id", "text", *TRAITS]


# --- configuration ---------------------------------------------------------

@dataclass(frozen=True)
class PipelineConfig:
    corpus: Path
    dump: Path | None
    endpoint: str | None
    output_dir: Path
    cache_dir: Path
    stopwords: Path | None
    lemmas: Path | None
    gazetteer: Path | None
    seed: int
    protocol: str
    cv_folds: int
    test_fraction: float
    entity_features: str
    predicate_prefixes: tuple[str, ...]
    train: TrainConfig
    embed: EmbedConfig

    def __post_init__(self):
        if (self.dump is None) == (self.endpoint is None):
            raise ConfigError("exactly one of 'dump' and 'endpoint' is required")
        if self.protocol not in ("cv", "split80"):
            raise ConfigError(f"protocol must be 'cv' or 'split80', got {self.protocol!r}")
        if self.cv_folds < 2:
            raise ConfigError("cv_folds must be >= 2")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must be in (0, 1)")
        if self.entity_features not in ("self", "zero"):
            raise ConfigError("entity_features must be 'self' or 'zero'")

    @property
    def enriched(self) -> bool:
        return self.train.enriched


# pipeline-level key -> default (None: unset); a value is parsed as the
# type of its key's default, and a path key's resolves against the config
# file's directory
_KEY_DEFAULTS: dict[str, object] = {
    "corpus": None,  # required
    "dump": None,
    "endpoint": None,
    "output_dir": "out",
    "cache_dir": None,  # defaults to <output_dir>/cache
    "stopwords": None,  # bundled list
    "lemmas": None,  # bundled table
    "gazetteer": None,  # no multi-word entities
    "seed": TrainConfig.seed,  # EmbedConfig.seed is the same
    "protocol": "cv",
    "cv_folds": 10,
    "test_fraction": 0.2,
    "entity_features": "self",
    "predicate_prefixes": "",
}

# each TrainConfig field but `seed` is set by the key of its name, and each
# EmbedConfig field but `seed` by the key mapped to it here; the keys'
# defaults are the fields', and the one `seed` key seeds all three configs
_TRAIN_KEYS = tuple(f.name for f in dataclasses.fields(TrainConfig) if f.name != "seed")
_EMBED_KEYS = {
    "embed_dim": "dim",
    "walk_depth": "max_depth",
    "walks_per_node": "walks_per_node",
    "window": "window",
    "negatives": "negatives",
    "embed_epochs": "epochs",
    "embed_learning_rate": "learning_rate",
    "embed_min_learning_rate": "min_learning_rate",
}

# every key parse_config accepts, with its default
CONFIG_DEFAULTS: dict[str, object] = {
    **_KEY_DEFAULTS,
    **{key: getattr(TrainConfig, key) for key in _TRAIN_KEYS},
    **{key: getattr(EmbedConfig, name) for key, name in _EMBED_KEYS.items()},
}

# the input files a config names
_INPUT_FILES = ("corpus", "dump", "stopwords", "lemmas", "gazetteer")

_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
_EXPECTED = {bool: "true/false", int: "an integer", float: "a number"}


def _convert(key: str, raw: str, default: object) -> object:
    """`raw` as a value of the default's type; text keys keep the string."""
    kind = type(default)
    try:
        if kind is bool:
            return _BOOL_WORDS[raw.lower()]
        if kind in (int, float):
            return kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{key}: expected {_EXPECTED[kind]}, got {raw!r}") from None
    return raw


def parse_config(text: str, base_dir: Path | str = ".",
                 overrides: dict[str, str] | None = None) -> PipelineConfig:
    """Parse a flat ``key = value`` config (# comments, blank lines allowed).
    `overrides` maps keys to raw values that replace the text's."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    for key, value in (overrides or {}).items():
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"unknown key {key!r}")
        raw[key] = value
    if "corpus" not in raw:
        raise ConfigError("missing required key 'corpus'")

    values = {key: _convert(key, raw[key], default) if key in raw else default
              for key, default in CONFIG_DEFAULTS.items()}
    for key in (*_INPUT_FILES, "output_dir", "cache_dir"):
        if values[key] is not None:
            # an absolute path replaces the base
            values[key] = Path(base_dir) / values[key]
    if values["cache_dir"] is None:
        values["cache_dir"] = values["output_dir"] / "cache"
    values["predicate_prefixes"] = tuple(
        p.strip() for p in values["predicate_prefixes"].split(",") if p.strip())

    seed = values["seed"]
    train = TrainConfig(seed=seed, **{key: values[key] for key in _TRAIN_KEYS})
    embed = EmbedConfig(seed=seed, **{name: values[key] for key, name in _EMBED_KEYS.items()})
    return PipelineConfig(**{key: values[key] for key in _KEY_DEFAULTS}, train=train, embed=embed)


def load_config(path: Path | str, overrides: dict[str, str] | None = None) -> PipelineConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config(p.read_text(encoding="utf-8"), p.parent, overrides)


# --- corpus ----------------------------------------------------------------

def load_corpus(path: Path | str) -> list[Document]:
    """Read ``doc_id,text,O,C,E,A,N`` rows; ids must be unique file-safe names."""
    docs: list[Document] = []
    seen: set[str] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _CORPUS_HEADER:
            raise ConfigError(f"corpus header must be {','.join(_CORPUS_HEADER)}")
        for lineno, row in enumerate(reader, 2):
            if not row:
                continue
            if len(row) != 7:
                raise ConfigError(f"corpus line {lineno}: expected 7 fields, got {len(row)}")
            doc_id, text = row[0], row[1]
            if not _DOC_ID_RE.fullmatch(doc_id):
                raise ConfigError(f"corpus line {lineno}: bad doc id {doc_id!r}")
            if doc_id in seen:
                raise DuplicateDocumentId(f"corpus line {lineno}: duplicate doc id {doc_id!r}")
            seen.add(doc_id)
            try:
                bits = tuple(int(x) for x in row[2:7])
            except ValueError:
                raise ConfigError(f"corpus line {lineno}: labels must be 0/1") from None
            if any(b not in (0, 1) for b in bits):
                raise ConfigError(f"corpus line {lineno}: labels must be 0/1")
            docs.append(Document(doc_id, text, bits))
    if not docs:
        raise ConfigError(f"corpus has no documents: {path}")
    return docs


# --- artifact layout --------------------------------------------------------

class Artifacts:
    """Canonical locations of every stage output under one run directory."""

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.concepts_dir = self.root / "concepts"
        self.graphs_dir = self.root / "graphs"
        self.aggregate_dir = self.root / "aggregate"
        self.models_dir = self.root / "models"
        self.reports_dir = self.root / "reports"
        self.aggregated = self.aggregate_dir / "graph.txt"
        self.features = self.aggregate_dir / "features.npz"
        self.labels = self.aggregate_dir / "labels.csv"
        self.embeddings = self.root / "embeddings" / "vectors.txt"
        self.splits = self.models_dir / "splits.json"
        self.metrics = self.reports_dir / "metrics.csv"
        self.long = self.reports_dir / "long.csv"
        self.correlations = self.reports_dir / "correlations.csv"
        self.manifest = self.root / "manifest.json"

    def concept_path(self, doc_id: str) -> Path:
        return self.concepts_dir / f"{doc_id}.txt"

    def graph_path(self, doc_id: str) -> Path:
        return self.graphs_dir / f"{doc_id}.txt"

    def model_path(self, fold: int, trait: str) -> Path:
        return self.models_dir / f"fold{fold}_{trait}.npz"

    def history_path(self, fold: int, trait: str) -> Path:
        return self.models_dir / f"history_fold{fold}_{trait}.csv"


def _require(path: Path, produced_by: str) -> Path:
    if not path.exists():
        raise MissingStageInput(f"{path} (run the {produced_by} stage first)")
    return path


def _check_config_paths(cfg: PipelineConfig) -> None:
    for name in _INPUT_FILES:
        p = getattr(cfg, name)
        if p is not None and not Path(p).is_file():
            raise ConfigError(f"{name} file not found: {p}")


def read_concept_file(path: Path | str) -> frozenset[str]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return frozenset(line.strip() for line in lines if line.strip())


def make_source(cfg: PipelineConfig):
    """The dump, indexed in memory and re-read on every build, or the SPARQL
    endpoint behind a disk cache, since its lookups are network round trips."""
    if cfg.dump is not None:
        return NTriplesSource(cfg.dump, cfg.predicate_prefixes)
    return CachingSource(
        SparqlEndpointSource(cfg.endpoint, predicate_prefixes=cfg.predicate_prefixes),
        cfg.cache_dir)


# --- stages ------------------------------------------------------------------

def stage_preprocess(cfg: PipelineConfig, force: bool = False) -> dict:
    corpus = load_corpus(cfg.corpus)
    art = Artifacts(cfg.output_dir)
    art.concepts_dir.mkdir(parents=True, exist_ok=True)
    stop = load_stopwords(cfg.stopwords)
    lemmas = load_lemma_table(cfg.lemmas)
    recognizer = (
        GazetteerRecognizer.from_file(cfg.gazetteer)
        if cfg.gazetteer is not None
        else GazetteerRecognizer(())
    )
    todo = [d for d in corpus if force or not art.concept_path(d.id).exists()]
    for doc in todo:
        concepts = extract_concepts(doc.text, stop, lemmas, recognizer)
        if not concepts:
            log.warning("document %s produced an empty concept set", doc.id)
        body = "\n".join(sorted(concepts))
        _write_atomically(art.concept_path(doc.id), (body + "\n" if body else "").encode("utf-8"))
    log.info("preprocess: %d concept sets written, %d already present",
             len(todo), len(corpus) - len(todo))
    return {"documents": len(corpus), "written": len(todo)}


def stage_build(cfg: PipelineConfig, force: bool = False) -> dict:
    corpus = load_corpus(cfg.corpus)
    art = Artifacts(cfg.output_dir)
    art.graphs_dir.mkdir(parents=True, exist_ok=True)
    todo = [d for d in corpus if force or not art.graph_path(d.id).exists()]
    for doc in todo:
        _require(art.concept_path(doc.id), "preprocess")
    source = make_source(cfg) if todo else None
    for doc in todo:
        graph = build_document_graph(read_concept_file(art.concept_path(doc.id)), source)
        _write_atomically(art.graph_path(doc.id), graph_to_text(graph).encode("utf-8"))
    log.info("build: %d graphs written, %d already present",
             len(todo), len(corpus) - len(todo))
    return {"documents": len(corpus), "written": len(todo)}


def stage_aggregate(cfg: PipelineConfig, force: bool = False) -> dict:
    art = Artifacts(cfg.output_dir)
    outputs = (art.aggregated, art.features, art.labels)
    if not force and all(p.exists() for p in outputs):
        log.info("aggregate: outputs present, skipping")
        return {"skipped": True}
    corpus = load_corpus(cfg.corpus)
    graphs = [read_graph(_require(art.graph_path(d.id), "build")) for d in corpus]
    # an essay is linked to every entity that survived into its pruned graph,
    # which carries the source's canonical spellings
    node_sets = [frozenset(g.nodes) for g in graphs]

    entities_only = aggregate_graphs(graphs)
    clash = set(d.id for d in corpus) & set(entities_only.entity_nodes)
    if clash:
        raise ConfigError(f"doc ids collide with entity names: {sorted(clash)[:5]}")
    agg = attach_essay_nodes(entities_only, list(zip(corpus, node_sets)))

    art.aggregate_dir.mkdir(parents=True, exist_ok=True)
    write_aggregated(agg, art.aggregated)
    X = build_feature_matrix(agg, node_sets, cfg.entity_features)
    buf = io.BytesIO()
    sp.save_npz(buf, X)
    _write_atomically(art.features, buf.getvalue())
    labels = build_label_matrix(corpus)
    write_labels_csv([d.id for d in corpus], labels, art.labels)
    log.info("aggregate: %d entities, %d essays, %d features",
             len(agg.entity_nodes), len(agg.essay_nodes), X.shape[1])
    return {"entities": len(agg.entity_nodes), "essays": len(agg.essay_nodes)}


def stage_embed(cfg: PipelineConfig, force: bool = False) -> dict:
    art = Artifacts(cfg.output_dir)
    if not force and art.embeddings.exists():
        log.info("embed: output present, skipping")
        return {"skipped": True}
    agg = read_aggregated(_require(art.aggregated, "aggregate"))
    stats: dict = {}
    matrix = train_embeddings(agg, cfg.embed, stats)
    art.embeddings.parent.mkdir(parents=True, exist_ok=True)
    write_embeddings(matrix, art.embeddings)
    info = {"nodes": len(matrix.node_ids), "dim": matrix.dim, **stats}
    log.info("embed: %(nodes)d vectors of dim %(dim)d from %(walks)d walks, "
             "%(centers)d centers, %(pairs)d pairs, last epoch loss %(loss).6f", info)
    return info


def _make_folds(n_essays: int, cfg: PipelineConfig) -> list[np.ndarray]:
    """Held-out test index sets: k folds under cv, one split under split80."""
    if cfg.protocol == "cv":
        return k_fold_split(n_essays, cfg.cv_folds, cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(n_essays)
    n_test = max(1, int(round(n_essays * cfg.test_fraction)))
    if n_test >= n_essays:
        raise ConfigError("test_fraction leaves no training essays")
    return [np.sort(perm[:n_test])]


def _load_graph_inputs(cfg: PipelineConfig, art: Artifacts):
    agg = read_aggregated(_require(art.aggregated, "aggregate"))
    tensors = tensors_from_aggregated(agg)
    X = sp.load_npz(_require(art.features, "aggregate"))
    doc_ids, labels = read_labels_csv(_require(art.labels, "aggregate"))
    if tuple(doc_ids) != agg.essay_nodes:
        raise ConfigError("labels.csv order does not match the aggregated graph")
    essay_vecs = None
    if cfg.enriched:
        emb = read_embeddings(_require(art.embeddings, "embed"))
        essay_vecs = emb.rows_for(agg.essay_nodes)
        # unit rows: skip-gram norms drift with walk volume, and unscaled
        # vectors can swamp the attention blocks in the classifier input
        norms = np.linalg.norm(essay_vecs, axis=1, keepdims=True)
        essay_vecs = np.divide(essay_vecs, norms, out=np.zeros_like(essay_vecs),
                               where=norms > 0)
    return agg, tensors, X, labels, essay_vecs


# what every (fold, trait) training reads: set in this process before the
# trainings run, and inherited by forked workers without pickling
_train_inputs: tuple | None = None

# a stack trains at most one fold's worth of classifiers at once, which
# bounds a worker's activations at that many models'
MAX_STACK = len(TRAITS)


def plan_stacks(tasks: list, train_sizes: list[int], jobs: int) -> list[list]:
    """Partition `tasks` into the stacks `train_stack` fits together.  Only
    tasks with equally many training essays share a stack, so each group
    of equal `train_sizes` is cut, in order, into the fewest stacks of at
    most MAX_STACK, that count rounded up to a multiple of `jobs` (but not
    past the group's size) so that every worker gets some, with sizes that
    differ by at most one."""
    jobs = max(jobs, 1)
    groups: dict[int, list] = {}
    for task, size in zip(tasks, train_sizes, strict=True):
        groups.setdefault(size, []).append(task)
    stacks = []
    for group in groups.values():
        count = -(-len(group) // MAX_STACK)
        count = min(len(group), -(-count // jobs) * jobs)
        per, extra = divmod(len(group), count)
        start = 0
        for k in range(count):
            end = start + per + (k < extra)
            stacks.append(group[start:end])
            start = end
    return stacks


def _train_stack(stack: list[tuple[int, int]]) -> None:
    """Fit the classifiers of a stack of (fold, trait index) pairs together
    and write each one's history and checkpoint as soon as it stops; the
    checkpoint comes last because it marks the pair done."""
    cfg, tensors, X, labels, essay_vecs, folds = _train_inputs
    art = Artifacts(cfg.output_dir)
    everyone = np.arange(len(labels))
    trainings = train_stack(
        tensors, X, [labels[:, j] for _, j in stack], cfg.train,
        train_idx=[np.setdiff1d(everyone, folds[fold]) for fold, _ in stack],
        embeddings=essay_vecs, seeds=[[cfg.seed, fold, j] for fold, j in stack],
    )
    try:
        for i, model, history in trainings:
            fold, j = stack[i]
            write_history(history, art.history_path(fold, TRAITS[j]))
            save_model(model, art.model_path(fold, TRAITS[j]))
    except NonFiniteLoss as exc:
        fold, j = stack[exc.model]
        raise NonFiniteLoss(f"fold {fold}, trait {TRAITS[j]}: {exc}") from None


def _run_trainings(inputs: tuple, stacks: list[list[tuple[int, int]]], jobs: int) -> None:
    """Run `_train_stack` on every stack over `inputs`: inline when jobs <= 1
    or at most one stack is left, otherwise in up to `jobs` forked
    processes, since training is GIL-bound.  The first worker exception
    re-raises here."""
    global _train_inputs
    _train_inputs = inputs
    try:
        if jobs <= 1 or len(stacks) <= 1:
            for stack in stacks:
                _train_stack(stack)
            return
        # imported here so that runs with nothing left to do skip the cost;
        # a fork pool forks every worker on the first submit, before it
        # starts its own manager thread, so no other thread is forked
        import multiprocessing
        from concurrent.futures.process import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(stacks)),
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            # consume to re-raise the first worker exception; map cancels
            # the stacks not yet started
            list(pool.map(_train_stack, stacks))
    finally:
        _train_inputs = None


def stage_train(cfg: PipelineConfig, force: bool = False, jobs: int = 1) -> dict:
    art = Artifacts(cfg.output_dir)
    agg, tensors, X, labels, essay_vecs = _load_graph_inputs(cfg, art)
    folds = _make_folds(len(agg.essay_nodes), cfg)
    art.models_dir.mkdir(parents=True, exist_ok=True)

    splits = {
        "protocol": cfg.protocol,
        "enriched": cfg.enriched,
        "seed": cfg.seed,
        "doc_ids": list(agg.essay_nodes),
        "folds": [f.tolist() for f in folds],
    }
    text = json.dumps(splits, indent=2) + "\n"
    recorded = art.splits.read_text(encoding="utf-8") if art.splits.exists() else None
    if recorded is not None and recorded != text:
        # models fitted on other folds would be scored on essays they were
        # trained on; they go before the new splits are recorded, so an
        # interrupted refit leaves only models of the recorded splits
        log.info("train: splits changed, refitting every model")
        for p in [*art.models_dir.glob("fold*_*.npz"),
                  *art.models_dir.glob("history_fold*_*.csv")]:
            p.unlink()
    if recorded != text:
        _write_atomically(art.splits, text.encode("utf-8"))

    # every training seeds its own generator with [seed, fold, trait], and
    # a stack computes each model as if alone, so the outputs depend neither
    # on how the trainings are stacked nor on how the pool schedules them
    todo = [(i, j) for i in range(len(folds)) for j, trait in enumerate(TRAITS)
            if force or not art.model_path(i, trait).exists()]
    if todo:
        # reports of the models about to be replaced would otherwise keep
        # `evaluate` from scoring the new ones
        for p in (art.metrics, art.long, art.correlations):
            p.unlink(missing_ok=True)
    stacks = plan_stacks(todo, [len(labels) - len(folds[i]) for i, _ in todo], jobs)
    _run_trainings((cfg, tensors, X, labels, essay_vecs, folds), stacks, jobs)

    log.info("train: %d models fitted, %d already present",
             len(todo), len(folds) * len(TRAITS) - len(todo))
    return {"folds": len(folds), "trained": len(todo)}


def _write_correlations(matrix: np.ndarray, path: Path) -> None:
    lines = ["trait," + ",".join(TRAITS)]
    for trait, row in zip(TRAITS, matrix):
        cells = ("" if np.isnan(v) else f"{v:.6f}" for v in row)
        lines.append(trait + "," + ",".join(cells))
    _write_atomically(path, ("\n".join(lines) + "\n").encode("utf-8"))


def stage_evaluate(cfg: PipelineConfig, force: bool = False) -> dict:
    art = Artifacts(cfg.output_dir)
    # flag consistency comes before the cache check: a skipped stage still
    # refreshes the manifest's config echo, which must not contradict the
    # models the existing reports came from
    splits = json.loads(_require(art.splits, "train").read_text(encoding="utf-8"))
    if splits["enriched"] != cfg.enriched:
        raise ConfigError(
            "models were trained with enriched="
            f"{splits['enriched']}; rerun train or match the flag"
        )
    outputs = (art.metrics, art.long, art.correlations)
    if not force and all(p.exists() for p in outputs):
        log.info("evaluate: reports present, skipping")
        return {"skipped": True}
    agg, tensors, X, labels, essay_vecs = _load_graph_inputs(cfg, art)

    fold_rows: dict[str, list[dict[str, float | None]]] = {t: [] for t in TRAITS}
    for i, test_idx in enumerate(splits["folds"]):
        test_idx = np.asarray(test_idx, dtype=np.int64)
        for j, trait in enumerate(TRAITS):
            path = _require(art.model_path(i, trait), "train")
            try:
                model = load_model(path)
            except ValueError as exc:
                raise ConfigError(f"cannot read checkpoint {path} ({exc}); "
                                  "rerun train --force") from None
            predicted = predict(model, tensors, X, test_idx, essay_vecs)
            counts = confusion_counts(predicted.tolist(), labels[test_idx, j].tolist())
            fold_rows[trait].append(metric_row(counts))

    per_trait = {trait: aggregate_fold_rows(fold_rows[trait]) for trait in TRAITS}

    art.reports_dir.mkdir(parents=True, exist_ok=True)
    write_metric_report(per_trait, art.metrics)
    write_long_report(fold_rows, art.long)
    _write_correlations(trait_correlations(labels), art.correlations)
    acc = [per_trait[t]["accuracy"] for t in TRAITS]
    log.info("evaluate: accuracy %s", " ".join(
        f"{t}={a:.3f}" if a is not None else f"{t}=n/a" for t, a in zip(TRAITS, acc)))
    return {"folds": len(splits["folds"])}


# --- manifest and dispatch ---------------------------------------------------

def _digest(path: Path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _config_echo(cfg: PipelineConfig) -> dict:
    return json.loads(json.dumps(dataclasses.asdict(cfg), default=str))


def update_manifest(cfg: PipelineConfig, stage: str, info: dict) -> None:
    art = Artifacts(cfg.output_dir)
    data = {}
    if art.manifest.exists():
        data = json.loads(art.manifest.read_text(encoding="utf-8"))
    data["config"] = _config_echo(cfg)
    inputs = {}
    for name in _INPUT_FILES:
        p = getattr(cfg, name)
        if p is not None and Path(p).is_file():
            inputs[name] = _digest(p)
    data["inputs"] = inputs
    data["versions"] = {
        "kgatnet": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    entry = dict(info)
    entry["completed"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    data.setdefault("stages", {})[stage] = entry
    art.root.mkdir(parents=True, exist_ok=True)
    _write_atomically(art.manifest,
                      (json.dumps(data, indent=2, sort_keys=True) + "\n").encode("utf-8"))


_STAGE_FUNCS = {
    "preprocess": stage_preprocess,
    "build": stage_build,
    "aggregate": stage_aggregate,
    "embed": stage_embed,
    "train": stage_train,
    "evaluate": stage_evaluate,
}


def run_stage(stage: str, cfg: PipelineConfig, force: bool = False, jobs: int = 1) -> None:
    """Run one named stage (or 'run-all'), then refresh the manifest."""
    if stage == "run-all":
        for name in STAGES:
            # only enriched runs read the embeddings
            if name != "embed" or cfg.enriched:
                run_stage(name, cfg, force=force, jobs=jobs)
        return
    if stage not in _STAGE_FUNCS:
        raise ConfigError(f"unknown stage {stage!r}")
    _check_config_paths(cfg)
    # only training runs in worker processes
    func = _STAGE_FUNCS[stage]
    info = func(cfg, force=force, jobs=jobs) if stage == "train" else func(cfg, force=force)
    update_manifest(cfg, stage, info)
