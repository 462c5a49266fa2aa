"""Config-driven orchestration of the end-to-end classification pipeline.

`load_config` reads a config file through `config.parse_config`, which owns
its keys.  The six stages (preprocess, build, aggregate, embed, train,
evaluate) each read only upstream artifacts and write only their own outputs
under the configured output directory, so any stage can be rerun in isolation.
`STAGE_TABLE` declares what each reads and writes, and `plan_stage` decides
for all of them which output units run, and why, which manifest.json
records with the resolved config, input digests, versions, and the stage's
wall time and peak memory.

numpy, scipy and the modules built on them (aggregator, evaluation, gat,
rdf2vec) load only when a stage has work to do: `_bind` binds their names
in this module when a stage starts that work, and the module `__getattr__`
when one is first read from outside.  `plan_stage` needs neither, since
`train`'s key comes from digests, the corpus and `splits.json` alone, so a
command whose stages all skip imports neither library; their import was
most of such a command's time.  `scipy.sparse` loads later still, only where
a sparse matrix is built, multiplied or (de)serialised.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import importlib
import io
import json
import logging
import os
import platform
import re
import resource
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .atomic import write_atomically
from .config import _INPUT_FILES, TRAITS, PipelineConfig, parse_config
from .errors import (ConfigError, DuplicateDocumentId, MissingStageInput, NonFiniteLoss,
                     UnknownNode, WorkerDied)
from .kg_builder import (
    CachingSource,
    NTriplesSource,
    SparqlEndpointSource,
    build_document_graph,
    graph_to_text,
    read_graph,
    read_sections,
)
from .preprocess import (
    Document,
    GazetteerRecognizer,
    extract_concepts,
    load_lemma_table,
    load_stopwords,
)

# the numpy-backed names the stages call, by the module that defines them
_LAZY = {
    "numpy": ("np",),
    ".aggregator": (
        "aggregate_graphs",
        "aggregated_to_text",
        "attach_essay_nodes",
        "build_feature_matrix",
        "read_aggregated",
    ),
    ".evaluation": (
        "aggregate_fold_rows",
        "confusion_counts",
        "k_fold_split",
        "metric_row",
        "trait_correlations",
        "write_long_report",
        "write_metric_report",
    ),
    ".gat": (
        "load_model",
        "model_bytes",
        "predict",
        "save_model",
        "tensors_from_aggregated",
        "train_stack",
        "write_history",
    ),
    ".rdf2vec": ("read_embeddings", "train_embeddings", "write_embeddings"),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    """Import and bind a numpy-backed name on first access, so that
    `pipeline.<name>` can be read, wrapped and replaced before any stage
    has run."""
    home = _LAZY_HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(home, __package__)
    value = globals()[name] = module if name == "np" else getattr(module, name)
    return value


def _bind() -> None:
    """Bind every numpy-backed name the stages call, keeping any binding
    already there, such as a wrapper set on this module from outside."""
    for name in _LAZY_HOME:
        if name not in globals():
            __getattr__(name)


log = logging.getLogger(__name__)

# doc ids become file names and embedding vocabulary entries, so keep them
# free of whitespace and path separators
_DOC_ID_RE = re.compile(r"[A-Za-z0-9_.-]+")

_CORPUS_HEADER = ["doc_id", "text", *TRAITS]


# --- config and corpus files ------------------------------------------------

def load_config(path: Path | str, overrides: dict[str, str] | None = None) -> PipelineConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config(p.read_text(encoding="utf-8"), p.parent, overrides)


def load_corpus(path: Path | str) -> list[Document]:
    """Read ``doc_id,text,O,C,E,A,N`` rows; ids must be unique file-safe names.
    A leading byte order mark, as spreadsheet exports write, is dropped."""
    docs: list[Document] = []
    seen: set[str] = set()
    with open(path, newline="", encoding="utf-8-sig") as fh:
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


def _json_object(value, name) -> dict:
    """`value` when it is a JSON object, else {} with a warning naming it."""
    if not isinstance(value, dict):
        log.warning("%s holds no JSON object, so it is ignored", name)
        return {}
    return value


def _read_json(path: Path) -> dict:
    """The JSON object in `path`, or {} when there is none: a file that is
    unreadable or holds something else is ignored with a warning."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}
    except (OSError, ValueError):
        data = None
    return _json_object(data, path)


def _manifest_part(data: dict, key: str, path: Path) -> dict:
    """The object under `key` of the manifest `data` read from `path`:
    {} when it is missing, or, with a warning, when it is no object."""
    return _json_object(data.get(key, {}), f"{path}: {key}")


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

@dataclass(frozen=True)
class Plan:
    """What `plan_stage` decided: the units to run, in table order, out of
    `total`, why, and the stage's `key`, if it records one."""
    units: list
    total: int
    reason: str
    key: str | None


def stage_preprocess(cfg: PipelineConfig, art: Artifacts, plan: Plan) -> dict:
    stop = load_stopwords(cfg.stopwords)
    lemmas = load_lemma_table(cfg.lemmas)
    recognizer = (
        GazetteerRecognizer.from_file(cfg.gazetteer)
        if cfg.gazetteer is not None
        else GazetteerRecognizer(())
    )
    for doc in plan.units:
        concepts = extract_concepts(doc.text, stop, lemmas, recognizer)
        if not concepts:
            log.warning("document %s produced an empty concept set", doc.id)
        body = "\n".join(sorted(concepts))
        write_atomically(art.concept_path(doc.id), (body + "\n" if body else "").encode("utf-8"))
    return {"documents": plan.total, "written": len(plan.units)}


def stage_build(cfg: PipelineConfig, art: Artifacts, plan: Plan) -> dict:
    for doc in plan.units:
        _require(art.concept_path(doc.id), "preprocess")
    source = make_source(cfg) if plan.units else None
    for doc in plan.units:
        graph = build_document_graph(read_concept_file(art.concept_path(doc.id)), source)
        write_atomically(art.graph_path(doc.id), graph_to_text(graph).encode("utf-8"))
    return {"documents": plan.total, "written": len(plan.units)}


def stage_aggregate(cfg: PipelineConfig, art: Artifacts, plan: Plan) -> dict:
    if not plan.units:
        return {"skipped": True}
    _bind()
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

    # encoded before scipy.sparse loads: after it, the text's allocations
    # raised essays-cold's peak RSS by about 0.2 MB
    text = aggregated_to_text(agg).encode("utf-8")
    X = build_feature_matrix(agg)
    # imported here so that a skipped aggregate never loads it
    import scipy.sparse as sp
    buf = io.BytesIO()
    sp.save_npz(buf, X)
    # graph.txt goes last, so a run interrupted before it leaves that
    # output missing and the next run redoes both
    art.aggregated.unlink(missing_ok=True)
    write_atomically(art.features, buf.getvalue())
    write_atomically(art.aggregated, text)
    log.info("aggregate: %d entities, %d essays, %d features",
             len(agg.entity_nodes), len(agg.essay_nodes), X.shape[1])
    return {"entities": len(agg.entity_nodes), "essays": len(agg.essay_nodes)}


def stage_embed(cfg: PipelineConfig, art: Artifacts, plan: Plan) -> dict:
    if not plan.units:
        return {"skipped": True}
    _bind()
    agg = read_aggregated(_require(art.aggregated, "aggregate"))
    matrix, stats = train_embeddings(agg, cfg.embed)
    write_embeddings(matrix, art.embeddings)
    info = {"nodes": len(matrix.node_ids), "dim": matrix.dim, **stats}
    log.info("embed: %(nodes)d vectors of dim %(dim)d from %(walks)d walks, "
             "%(centers)d centers, %(pairs)d pairs, last epoch loss %(loss).6f", info)
    return info


def _make_folds(n_essays: int, cfg: PipelineConfig) -> list[np.ndarray]:
    """Held-out test index sets: k folds under cv, one split under split80."""
    _bind()
    if cfg.protocol == "cv":
        return k_fold_split(n_essays, cfg.cv_folds, cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(n_essays)
    n_test = max(1, int(round(n_essays * cfg.test_fraction)))
    if n_test >= n_essays:
        raise ConfigError("test_fraction leaves no training essays")
    return [np.sort(perm[:n_test])]


def _essay_labels(cfg: PipelineConfig, art: Artifacts) -> list[tuple[int, ...]]:
    """Each essay's (O, C, E, A, N) labels, read from the corpus by doc id
    in the essay order of the aggregated graph.  Only the standard library
    reads them, so that a stage that skips loads no numpy."""
    text = _require(art.aggregated, "aggregate").read_text(encoding="utf-8")
    essays = read_sections(text, "nodes", "edges", "essays")[2]
    labels = {doc.id: doc.labels for doc in load_corpus(cfg.corpus)}
    try:
        return [labels[doc_id] for doc_id in essays]
    except KeyError as exc:
        raise MissingStageInput(f"{art.aggregated} has essay {exc}, which the corpus lacks "
                                "(rerun aggregate --force)") from None


def _load_graph_inputs(cfg: PipelineConfig, art: Artifacts, label_rows: list):
    """Everything `train` and `evaluate` read; the labels are
    `_essay_labels`' rows as an (essays, traits) array."""
    # imported here so that a stage with nothing to do never loads it
    import scipy.sparse as sp
    agg = read_aggregated(_require(art.aggregated, "aggregate"))
    tensors = tensors_from_aggregated(agg)
    X = sp.load_npz(_require(art.features, "aggregate"))
    labels = np.array(label_rows, dtype=np.int64).reshape(-1, len(TRAITS))
    essay_vecs = None
    if cfg.enriched:
        path = _require(art.embeddings, "embed")
        # vectors.txt from before the corpus changed, or cut short, is an
        # embed stage left to redo
        try:
            essay_vecs = read_embeddings(path, agg.essay_nodes)
        except UnknownNode as exc:
            raise MissingStageInput(f"{path} has no vector for essay {exc} "
                                    "(rerun embed --force)") from None
        except ValueError as exc:
            raise MissingStageInput(f"{path} is unreadable: {exc} (rerun embed --force)") from None
        # unit rows: skip-gram norms drift with walk volume, and unscaled
        # vectors can swamp the attention blocks in the classifier input
        norms = np.linalg.norm(essay_vecs, axis=1, keepdims=True)
        essay_vecs = np.divide(essay_vecs, norms, out=np.zeros_like(essay_vecs),
                               where=norms > 0)
    return agg, tensors, X, labels, essay_vecs


# what every (fold, trait) training reads: set in this process before the
# trainings run, and inherited by forked workers without pickling
_train_inputs: tuple | None = None


def memory_budget() -> int:
    """The bytes the training processes may hold between them: half of
    physical memory."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2


def stack_cap(one_model: int, jobs: int, budget: int) -> int:
    """The most models of `one_model` bytes a stack may hold so that the
    stacks of `jobs` processes fit `budget`; a model larger than its
    process's share still trains alone."""
    return max(1, budget // (jobs * one_model))


def plan_stacks(tasks: list, train_sizes: list[int], jobs: int, cap: int) -> list[list]:
    """Partition `tasks` into the stacks `train_stack` fits together.  Only
    tasks with equally many training essays share a stack, so each group
    of equal `train_sizes` is cut, in order, into the fewest stacks of at
    most `cap`, that count rounded up to a multiple of `jobs` (but not
    past the group's size) so that every worker gets some, with sizes that
    differ by at most one."""
    groups: dict[int, list] = {}
    for task, size in zip(tasks, train_sizes, strict=True):
        groups.setdefault(size, []).append(task)
    stacks = []
    for group in groups.values():
        count = -(-len(group) // cap)
        count = min(len(group), -(-count // jobs) * jobs)
        # the first len(group) % count stacks are one longer
        size, longer = divmod(len(group), count)
        cuts = [k * size + min(k, longer) for k in range(count + 1)]
        stacks.extend(group[a:b] for a, b in zip(cuts, cuts[1:]))
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


def _run_trainings(inputs: tuple, stacks: list[list[tuple[int, int]]], jobs: int,
                   one_model: int, budget: int) -> None:
    """Run `_train_stack` on every stack over `inputs`: inline when jobs <= 1
    or at most one stack is left, otherwise in up to `jobs` forked
    processes, since training is GIL-bound.  The first worker exception
    re-raises here, and a worker that dies without one raises WorkerDied,
    which names the memory plan; the checkpoints written before stay."""
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
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(stacks)),
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            # consume to re-raise the first worker exception; map cancels
            # the stacks not yet started
            finished = 0
            try:
                for _ in pool.map(_train_stack, stacks):
                    finished += 1
            except BrokenProcessPool:
                stack = stacks[finished]
                fold, j = stack[0]
                raise WorkerDied(
                    f"a training process died before the stack of {len(stack)} models from "
                    f"fold {fold}, trait {TRAITS[j]} finished; model_bytes {one_model}, "
                    f"budget_bytes {budget}, --jobs {jobs}: if memory ran out, lower --jobs "
                    "and rerun, which fits only the models not yet written") from None
    finally:
        _train_inputs = None


def _train_key(cfg: PipelineConfig, art: Artifacts, labels: list, folds) -> str:
    """A sha256 over what the models are fitted on: the digests of the
    aggregated graph and, when enriched, of the embeddings (None while they
    are missing), the essays' `labels`, the held-out `folds`, and the config
    that sets the folds and the models."""
    vectors = _digest(art.embeddings) if cfg.enriched and art.embeddings.is_file() else None
    settings = {"protocol": cfg.protocol, "cv_folds": cfg.cv_folds,
                "test_fraction": cfg.test_fraction, **dataclasses.asdict(cfg.train)}
    text = json.dumps({"inputs": [_digest(art.aggregated), vectors], "labels": labels,
                       "folds": folds, "config": settings}, sort_keys=True)
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _model_units(cfg: PipelineConfig, art: Artifacts) -> list:
    """`train`'s units: one (fold, trait index) model each, whose history
    and checkpoint it writes in that order."""
    n_folds = cfg.cv_folds if cfg.protocol == "cv" else 1
    return [((i, j), (art.history_path(i, trait), art.model_path(i, trait)))
            for i in range(n_folds) for j, trait in enumerate(TRAITS)]


def stage_train(cfg: PipelineConfig, art: Artifacts, plan: Plan, jobs: int = 1) -> dict:
    if plan.units:
        info = _fit(cfg, art, plan, jobs)
    else:
        # nothing to fit, so neither the graph nor numpy is loaded;
        # model_bytes is the last run's echo
        _require(art.features, "aggregate")
        stages = _manifest_part(_read_json(art.manifest), "stages", art.manifest)
        last = _json_object(stages.get("train", {}), f"{art.manifest}: stages.train")
        info = {"folds": plan.total // len(TRAITS), "trained": 0, "stack_sizes": [],
                "input_key": plan.key, "model_bytes": last.get("model_bytes"),
                "budget_bytes": memory_budget()}
    log.info("train: %d models fitted in stacks %s, %d already present "
             "(model_bytes %s, budget_bytes %d)", info["trained"], info["stack_sizes"],
             plan.total - info["trained"], info["model_bytes"], info["budget_bytes"])
    return info


def _fit(cfg: PipelineConfig, art: Artifacts, plan: Plan, jobs: int) -> dict:
    """Fit the models of `plan.units`; when that is all of them, delete
    every old model first and record the splits with the train key.  A
    training process that dies (`WorkerDied`) leaves a manifest entry of the
    plan."""
    _bind()
    label_rows = _essay_labels(cfg, art)
    agg, tensors, X, labels, essay_vecs = _load_graph_inputs(cfg, art, label_rows)
    folds = _make_folds(len(agg.essay_nodes), cfg)
    fold_lists = [f.tolist() for f in folds]

    splits = {
        "protocol": cfg.protocol,
        "enriched": cfg.enriched,
        "seed": cfg.seed,
        "doc_ids": list(agg.essay_nodes),
        "folds": fold_lists,
        "input_key": _train_key(cfg, art, label_rows, fold_lists),
    }
    # when every model is refitted, those of other inputs, settings or folds
    # go before the new key is recorded, so an interrupted refit leaves none;
    # otherwise the key matched, so splits.json holds these splits already
    if len(plan.units) == plan.total:
        stale = [*art.models_dir.glob("fold*_*.npz"), *art.models_dir.glob("history_fold*_*.csv")]
        if stale:
            log.info("train: refitting every model, %d files of the old ones deleted", len(stale))
        for p in stale:
            p.unlink()
        write_atomically(art.splits, (json.dumps(splits, indent=2) + "\n").encode("utf-8"))

    # every training seeds its own generator with [seed, fold, trait], and
    # a stack computes each model as if alone, so the outputs depend neither
    # on how the trainings are stacked nor on how the pool schedules them
    # reports of the models about to be replaced would otherwise keep
    # `evaluate` from scoring the new ones
    for p in (art.metrics, art.long, art.correlations):
        p.unlink(missing_ok=True)
    # stacks as large as memory allows: each of `jobs` processes holds one;
    # the feature matrix has one column per entity
    one_model = model_bytes(tensors.n_nodes, len(tensors.src), len(agg.entity_nodes), cfg.train,
                            0 if essay_vecs is None else essay_vecs.shape[1])
    budget = memory_budget()
    stacks = plan_stacks(plan.units, [len(labels) - len(folds[i]) for i, _ in plan.units], jobs,
                         stack_cap(one_model, jobs, budget))
    info = {"folds": len(folds), "stack_sizes": [len(s) for s in stacks],
            "input_key": splits["input_key"], "model_bytes": one_model, "budget_bytes": budget}
    try:
        _run_trainings((cfg, tensors, X, labels, essay_vecs, folds), stacks, jobs,
                       one_model, budget)
    except WorkerDied as exc:
        # the manifest is otherwise written only when a stage succeeds;
        # this entry says which checkpoints the plan left on disk
        update_manifest(cfg, "train", {
            **info, "checkpoints": sorted(p.name for p in art.models_dir.glob("fold*_*.npz")),
            "error": str(exc)})
        raise
    return {**info, "trained": len(plan.units)}


def _write_correlations(matrix: np.ndarray, path: Path) -> None:
    lines = ["trait," + ",".join(TRAITS)]
    for trait, row in zip(TRAITS, matrix):
        cells = ("" if np.isnan(v) else f"{v:.6f}" for v in row)
        lines.append(trait + "," + ",".join(cells))
    write_atomically(path, ("\n".join(lines) + "\n").encode("utf-8"))


def stage_evaluate(cfg: PipelineConfig, art: Artifacts, plan: Plan) -> dict:
    _require(art.splits, "train")
    splits = _read_json(art.splits)
    label_rows = _essay_labels(cfg, art)
    # the train key is checked before a skip: a skipped stage still
    # refreshes the manifest's config echo, which must not contradict the
    # models the existing reports came from
    if _train_key(cfg, art, label_rows, splits.get("folds")) != splits.get("input_key"):
        raise ConfigError(
            "the models were trained on other inputs or settings (enriched="
            f"{splits.get('enriched')}, seed {splits.get('seed')}); rerun train or match its flags")
    if not plan.units:
        return {"skipped": True}
    _bind()
    agg, tensors, X, labels, essay_vecs = _load_graph_inputs(cfg, art, label_rows)

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

    write_metric_report(per_trait, art.metrics)
    write_long_report(fold_rows, art.long)
    _write_correlations(trait_correlations(labels), art.correlations)
    acc = [per_trait[t]["accuracy"] for t in TRAITS]
    log.info("evaluate: accuracy %s", " ".join(
        f"{t}={a:.3f}" if a is not None else f"{t}=n/a" for t, a in zip(TRAITS, acc)))
    return {"folds": len(splits["folds"])}


# --- manifest and dispatch ---------------------------------------------------

# inputs are hashed this many bytes at a time, so that a dump of gigabytes
# is never held in memory whole
_DIGEST_CHUNK = 1 << 20


def _file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_DIGEST_CHUNK):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


# file digests by (path, inode, size, mtime): each input or artifact is
# read once per process, and again once it is edited or replaced by a
# rename, as every artifact is written
_digests: dict[tuple[str, int, int, int], str] = {}


def _digest(path: Path) -> str:
    st = path.stat()
    key = (str(path), st.st_ino, st.st_size, st.st_mtime_ns)
    if key not in _digests:
        _digests[key] = _file_digest(path)
    return _digests[key]


def _peak_rss_mb() -> float:
    """The peak resident set size of this process, or of its largest
    finished child (the training workers), in MB: a high-water mark of the
    run so far, not of the current stage alone.  Linux reports it in KiB."""
    kib = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return round(kib / 1024, 1)


def _config_echo(cfg: PipelineConfig) -> dict:
    return json.loads(json.dumps(dataclasses.asdict(cfg), default=str))


def _library_version(name: str, recorded: dict) -> str | None:
    """The version of `name` this process loaded, or, when it loaded none,
    the recorded one (None until some command loaded it).  Importing it to
    ask would cost more than a command whose stages all skip."""
    module = sys.modules.get(name)
    return module.__version__ if module is not None else recorded.get(name)


def update_manifest(cfg: PipelineConfig, stage: str, info: dict) -> None:
    art = Artifacts(cfg.output_dir)
    data = _read_json(art.manifest)
    data["config"] = _config_echo(cfg)
    # an input the config names but that is gone keeps its last digest,
    # as a library this command did not load keeps its last version
    recorded = _manifest_part(data, "inputs", art.manifest)
    inputs = {}
    for name in _INPUT_FILES:
        p = getattr(cfg, name)
        if p is not None and Path(p).is_file():
            inputs[name] = _digest(p)
        elif p is not None and name in recorded:
            inputs[name] = recorded[name]
    data["inputs"] = inputs
    versions = _manifest_part(data, "versions", art.manifest)
    data["versions"] = {
        "kgatnet": __version__,
        "python": platform.python_version(),
        **{lib: _library_version(lib, versions) for lib in ("numpy", "scipy")},
        # BLAS threads can change the last bits of long reductions
        **{var: os.environ.get(var)
           for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    entry = dict(info)
    entry["completed"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    data["stages"] = {**_manifest_part(data, "stages", art.manifest), stage: entry}
    write_atomically(art.manifest,
                      (json.dumps(data, indent=2, sort_keys=True) + "\n").encode("utf-8"))


@dataclass(frozen=True)
class Stage:
    """A row of `STAGE_TABLE`.  A unit is done when every file `units` lists
    for it exists."""
    run: Callable[..., dict]  # (cfg, art, plan): the work on plan.units; returns the entry
    reads: tuple[str, ...]  # the config's input files and upstream `Artifacts` it reads
    units: Callable[[PipelineConfig, Artifacts], list]  # [(unit, its files)], in run order
    in_run_all: Callable[[PipelineConfig], bool] = lambda cfg: True
    key_file: str | None = None  # the `Artifacts` file whose ``input_key`` the outputs came from
    key: Callable | None = None  # (cfg, art, what key_file holds): the key of the current inputs
    parallel: bool = False  # whether `run` takes --jobs; only training runs in worker processes


STAGE_TABLE = {
    "preprocess": Stage(
        stage_preprocess, ("corpus", "stopwords", "lemmas", "gazetteer"),
        lambda cfg, art: [(d, (art.concept_path(d.id),)) for d in load_corpus(cfg.corpus)]),
    "build": Stage(
        stage_build, ("corpus", "dump", "concept_path"),
        lambda cfg, art: [(d, (art.graph_path(d.id),)) for d in load_corpus(cfg.corpus)]),
    "aggregate": Stage(stage_aggregate, ("corpus", "graph_path"),
                       lambda cfg, art: [(None, (art.aggregated, art.features))]),
    # only enriched runs read the embeddings
    "embed": Stage(stage_embed, ("aggregated",), lambda cfg, art: [(None, (art.embeddings,))],
                   in_run_all=lambda cfg: cfg.enriched),
    # the key is over the recorded folds, so an edited splits.json no longer
    # matches the key recorded with it
    "train": Stage(stage_train, ("corpus", "aggregated", "features", "embeddings"),
                   _model_units, key_file="splits", parallel=True,
                   key=lambda cfg, art, recorded: _train_key(
                       cfg, art, _essay_labels(cfg, art), recorded.get("folds"))),
    "evaluate": Stage(stage_evaluate, ("corpus", "splits", "model_path", "aggregated",
                                       "features", "embeddings"),
                      lambda cfg, art: [(None, (art.metrics, art.long, art.correlations))]),
}
STAGES = tuple(STAGE_TABLE)

# `run_stage` looks each callable up when it calls it, so that a wrapper
# set here from outside is the one that runs
_STAGE_FUNCS = {name: stage.run for name, stage in STAGE_TABLE.items()}


def plan_stage(stage: str, cfg: PipelineConfig, force: bool = False) -> Plan:
    """The one rule of every stage: run all its units under `force` or when
    its recorded key no longer matches, otherwise those with an output
    missing.  It uses the standard library alone and hashes only what a key
    covers, so that a command whose stages all skip stays cheap."""
    spec = STAGE_TABLE[stage]
    art = Artifacts(cfg.output_dir)
    units = spec.units(cfg, art)
    everything = [unit for unit, _ in units]
    recorded = _read_json(getattr(art, spec.key_file)) if spec.key_file else {}
    key = spec.key(cfg, art, recorded) if spec.key else None
    if force:
        return Plan(everything, len(units), "forced", key)
    if key != recorded.get("input_key"):
        return Plan(everything, len(units), "key changed", key)
    todo = [unit for unit, files in units if not all(p.exists() for p in files)]
    reason = f"outputs missing ({len(todo)} of {len(units)})" if todo else "outputs present"
    return Plan(todo, len(units), reason, key)


def run_stage(stage: str, cfg: PipelineConfig, force: bool = False, jobs: int = 1) -> None:
    """Run one named stage, or under 'run-all' each stage the table runs for
    `cfg`, on the units `plan_stage` picks, and record its manifest entry."""
    if stage == "run-all":
        for name, spec in STAGE_TABLE.items():
            if spec.in_run_all(cfg):
                run_stage(name, cfg, force=force, jobs=jobs)
        return
    spec = STAGE_TABLE.get(stage)
    if spec is None:
        raise ConfigError(f"unknown stage {stage!r}")
    for name in (n for n in spec.reads if n in _INPUT_FILES):
        path = getattr(cfg, name)
        if path is not None and not path.is_file():
            raise ConfigError(f"{name} file not found: {path}")
    start = time.perf_counter()
    plan = plan_stage(stage, cfg, force)
    # a skipped stage still runs its callable, which checks what it must
    info = _STAGE_FUNCS[stage](cfg, Artifacts(cfg.output_dir), plan,
                               **({"jobs": jobs} if spec.parallel else {}))
    log.info("%s: %s, %d of %d units run", stage, plan.reason, len(plan.units), plan.total)
    skipped = {} if plan.units else {"skipped": True}
    update_manifest(cfg, stage, {**info, **skipped, "reason": plan.reason,
                                 "seconds": round(time.perf_counter() - start, 6),
                                 "peak_rss_mb": _peak_rss_mb()})
