"""Config parsing, corpus loading, stage caching, and CLI behavior."""

import dataclasses
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kgatnet.cli import main
from kgatnet.errors import ConfigError, DuplicateDocumentId, MissingStageInput, NonFiniteLoss
from kgatnet.aggregator import read_aggregated
from kgatnet.kg_builder import CachingSource, NTriplesSource, SparqlEndpointSource, read_graph
from kgatnet import pipeline
from kgatnet.gat import TrainConfig, model_bytes
from kgatnet.pipeline import (
    CONFIG_DEFAULTS,
    STAGE_TABLE,
    Artifacts,
    _make_folds,
    load_config,
    load_corpus,
    make_source,
    memory_budget,
    parse_config,
    plan_stacks,
    run_stage,
    stack_cap,
)
from kgatnet.rdf2vec import generate_walks
from oracles import count_pairs

ROOT = Path(__file__).parent.parent
FIXTURE = ROOT / "src" / "kgatnet" / "data" / "fixture"

MINIMAL = "corpus = corpus.csv\ndump = dump.nt\n"


# --- config parsing ---------------------------------------------------------

def test_parse_config_defaults():
    cfg = parse_config(MINIMAL, base_dir="/data")
    assert cfg.seed == 42
    assert cfg.protocol == "cv"
    assert cfg.cv_folds == 10
    assert cfg.train.epochs == 50
    assert cfg.train.batch_size == 32
    assert cfg.train.learning_rate == pytest.approx(3e-4)
    assert cfg.train.heads_per_layer == 8
    assert cfg.train.hidden_units == 128
    assert cfg.train.weight_decay == 0.0
    assert not cfg.train.enriched
    assert cfg.embed.dim == 500
    assert cfg.embed.max_depth == 5
    assert cfg.embed.walks_per_node == 5


def test_parse_config_relative_paths_resolve_against_base_dir():
    cfg = parse_config(MINIMAL + "output_dir = runs/a\n", base_dir="/data")
    assert cfg.corpus == Path("/data/corpus.csv")
    assert cfg.dump == Path("/data/dump.nt")
    assert cfg.output_dir == Path("/data/runs/a")
    assert cfg.cache_dir == Path("/data/runs/a/cache")


def test_parse_config_absolute_path_kept():
    cfg = parse_config("corpus = /abs/c.csv\ndump = dump.nt\n", base_dir="/data")
    assert cfg.corpus == Path("/abs/c.csv")


def test_parse_config_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\n" + MINIMAL + "seed = 7\n")
    assert cfg.seed == 7
    assert cfg.train.seed == 7
    assert cfg.embed.seed == 7


@pytest.mark.parametrize("text,fragment", [
    ("corpus = c.csv\ndump = d.nt\nno_such_key = 1\n", "unknown key"),
    ("corpus = c.csv\ndump = d.nt\nseed = 1\nseed = 2\n", "duplicate key"),
    ("corpus = c.csv\ndump = d.nt\njust words\n", "key = value"),
    ("dump = d.nt\n", "corpus"),
    ("corpus = c.csv\n", "dump"),
    ("corpus = c.csv\ndump = d.nt\nendpoint = http://x\n", "exactly one"),
    ("corpus = c.csv\ndump = d.nt\nseed = abc\n", "integer"),
    ("corpus = c.csv\ndump = d.nt\nlearning_rate = fast\n", "number"),
    ("corpus = c.csv\ndump = d.nt\nenriched = maybe\n", "true/false"),
    ("corpus = c.csv\ndump = d.nt\nprotocol = loocv\n", "protocol"),
    ("corpus = c.csv\ndump = d.nt\ncv_folds = 1\n", "cv_folds"),
    ("corpus = c.csv\ndump = d.nt\ntest_fraction = 1.5\n", "test_fraction"),
    ("corpus = c.csv\ndump = d.nt\nentity_features = onehot\n", "entity_features"),
])
def test_parse_config_rejects(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


def test_with_overrides_seed_propagates():
    out = parse_config(MINIMAL + "seed = 7\n", overrides={"seed": "99"})
    assert out.seed == 99
    assert out.train.seed == 99
    assert out.embed.seed == 99
    with pytest.raises(ConfigError, match="integer"):
        parse_config(MINIMAL, overrides={"seed": "abc"})


def test_with_overrides_enriched_only():
    out = parse_config(MINIMAL, overrides={"enriched": "true"})
    assert out.enriched
    assert out.seed == 42
    assert out == parse_config(MINIMAL + "enriched = true\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(MINIMAL, overrides={"no_such_key": "1"})


def test_readme_configuration_table_names_every_key():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    named = set()
    for line in table.splitlines():
        if line.startswith("| `"):
            named.update(re.findall(r"`([a-z_]+)`", line.split("|")[1]))
    assert named == set(CONFIG_DEFAULTS)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.cfg")


# --- corpus loading ---------------------------------------------------------

def write_corpus(path, rows, header="doc_id,text,O,C,E,A,N"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def test_load_corpus_roundtrip(tmp_path):
    p = tmp_path / "c.csv"
    write_corpus(p, ['a,some text,1,0,1,0,1', 'b,"with, comma",0,0,0,0,0'])
    docs = load_corpus(p)
    assert [d.id for d in docs] == ["a", "b"]
    assert docs[0].labels == (1, 0, 1, 0, 1)
    assert docs[1].text == "with, comma"


@pytest.mark.parametrize("rows,err,fragment", [
    (["a,text,1,0,1"], ConfigError, "7 fields"),
    (["bad id,text,1,0,1,0,1"], ConfigError, "bad doc id"),
    (["a,text,1,0,1,0,2"], ConfigError, "0/1"),
    (["a,text,1,0,1,0,x"], ConfigError, "0/1"),
    (["a,text,1,0,1,0,1", "a,other,0,0,0,0,0"], DuplicateDocumentId, "a"),
])
def test_load_corpus_rejects(tmp_path, rows, err, fragment):
    p = tmp_path / "c.csv"
    write_corpus(p, rows)
    with pytest.raises(err, match=fragment):
        load_corpus(p)


def test_load_corpus_rejects_wrong_header(tmp_path):
    p = tmp_path / "c.csv"
    write_corpus(p, ["a,text,1,0,1,0,1"], header="id,body,O,C,E,A,N")
    with pytest.raises(ConfigError, match="header"):
        load_corpus(p)


def test_load_corpus_rejects_empty(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("doc_id,text,O,C,E,A,N\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="no documents"):
        load_corpus(p)


# --- stages on a small working copy ----------------------------------------

SMALL_OVERRIDES = """\
protocol = split80
test_fraction = 0.3
epochs = 3
batch_size = 8
patience = 2
validation_split = 0.2
heads_per_layer = 2
hidden_units = 8
dense_units = 8
attention_layers = 2
embed_dim = 6
walk_depth = 3
walks_per_node = 2
window = 2
negatives = 2
embed_epochs = 1
"""


@pytest.fixture()
def workdir(tmp_path):
    for name in ("corpus.csv", "dump.nt", "gazetteer.txt"):
        shutil.copy(FIXTURE / name, tmp_path / name)
    (tmp_path / "run.cfg").write_text(
        "corpus = corpus.csv\ndump = dump.nt\ngazetteer = gazetteer.txt\n"
        + SMALL_OVERRIDES,
        encoding="utf-8",
    )
    return tmp_path


def test_stages_chain_and_cache(workdir, caplog):
    cfg = load_config(workdir / "run.cfg")
    art = Artifacts(cfg.output_dir)

    run_stage("preprocess", cfg)
    concept_files = sorted(art.concepts_dir.glob("*.txt"))
    assert len(concept_files) == 30
    assert "Painting" in (art.concepts_dir / "doc01.txt").read_text().splitlines() or any(
        "Painting" in p.read_text() for p in concept_files
    )

    # rerun without --force is a no-op: nothing gets rewritten
    before = {p: p.stat().st_mtime_ns for p in concept_files}
    run_stage("preprocess", cfg)
    assert {p: p.stat().st_mtime_ns for p in concept_files} == before

    run_stage("build", cfg)
    assert len(list(art.graphs_dir.glob("*.txt"))) == 30

    run_stage("aggregate", cfg)
    assert art.aggregated.exists() and art.features.exists()
    # the labels stay in the corpus
    assert sorted(p.name for p in art.aggregate_dir.iterdir()) == ["features.npz", "graph.txt"]

    run_stage("embed", cfg)
    assert art.embeddings.exists()

    run_stage("train", cfg)
    models = list(art.models_dir.glob("fold*_*.npz"))
    assert len(models) == 5  # split80: one fold, five traits
    splits = json.loads(art.splits.read_text())
    assert splits["protocol"] == "split80"
    assert splits["enriched"] is False
    assert len(splits["folds"]) == 1

    run_stage("evaluate", cfg)
    assert art.metrics.exists() and art.long.exists() and art.correlations.exists()
    header = art.metrics.read_text().splitlines()[0]
    assert header == "metric,O,C,E,A,N,avg"

    manifest = json.loads(art.manifest.read_text())
    assert set(manifest["stages"]) == {
        "preprocess", "build", "aggregate", "embed", "train", "evaluate"
    }
    assert manifest["inputs"]["corpus"].startswith("sha256:")
    assert manifest["config"]["seed"] == 42


def test_embed_manifest_entry_counts_the_run(workdir, caplog):
    cfg = load_config(workdir / "run.cfg")
    for stage in ("preprocess", "build", "aggregate"):
        run_stage(stage, cfg)
    with caplog.at_level("INFO"):
        run_stage("embed", cfg)
    art = Artifacts(cfg.output_dir)
    entry = json.loads(art.manifest.read_text())["stages"]["embed"]
    walks = generate_walks(read_aggregated(art.aggregated), 3, 2, 42)
    assert entry["walks"] == len(walks)
    assert entry["centers"] == sum(map(len, walks))  # one epoch
    assert entry["pairs"] == count_pairs(walks, 2)
    assert entry["nodes"] == len({n for w in walks for n in w}) and entry["dim"] == 6
    assert 0.0 < entry["loss"] < 10.0
    line = next(r.getMessage() for r in caplog.records if r.getMessage().startswith("embed:"))
    assert line == (f"embed: {entry['nodes']} vectors of dim 6 from {entry['walks']} walks, "
                    f"{entry['centers']} centers, {entry['pairs']} pairs, "
                    f"last epoch loss {entry['loss']:.6f}")


def test_train_manifest_entry_and_log_record_the_stack_plan(workdir, caplog, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfg = load_config(workdir / "run.cfg")
    for stage in ("preprocess", "build", "aggregate"):
        run_stage(stage, cfg)
    with caplog.at_level("INFO"):
        run_stage("train", cfg, jobs=2)
    manifest = json.loads(Artifacts(cfg.output_dir).manifest.read_text())
    entry = manifest["stages"]["train"]
    # split80 at --jobs 2: five trainings in two stacks, as small models
    assert entry["stack_sizes"] == [3, 2]
    assert entry["budget_bytes"] == memory_budget()
    assert 0 < entry["model_bytes"] < 10**6
    assert (f"stacks [3, 2], 0 already present (model_bytes {entry['model_bytes']}, "
            f"budget_bytes {entry['budget_bytes']})") in caplog.text
    assert manifest["versions"]["OPENBLAS_NUM_THREADS"] == "1"
    assert manifest["versions"]["MKL_NUM_THREADS"] is None
    assert "OMP_NUM_THREADS" in manifest["versions"]


def test_run_all_hashes_each_input_once_until_it_changes(workdir, monkeypatch):
    hashed = []
    file_digest = pipeline._file_digest
    monkeypatch.setattr(pipeline, "_file_digest",
                        lambda path: hashed.append(path.name) or file_digest(path))
    cfg = load_config(workdir / "run.cfg")
    run_stage("run-all", cfg)
    # five stages refresh the manifest, and the dump is read for it once
    assert hashed.count("dump.nt") == 1
    before = json.loads(Artifacts(cfg.output_dir).manifest.read_text())["inputs"]["dump"]

    with open(workdir / "dump.nt", "a", encoding="utf-8") as fh:
        fh.write("# edited\n")
    pipeline.update_manifest(cfg, "evaluate", {})
    assert hashed.count("dump.nt") == 2
    after = json.loads(Artifacts(cfg.output_dir).manifest.read_text())["inputs"]["dump"]
    assert after == pipeline._file_digest(workdir / "dump.nt") != before


def test_file_digest_reads_in_chunks(tmp_path, monkeypatch):
    data = bytes(range(256)) * (2 * pipeline._DIGEST_CHUNK // 256 + 3)
    path = tmp_path / "dump.nt"
    path.write_bytes(data)

    def whole_file(self):
        raise AssertionError("read whole")

    monkeypatch.setattr(Path, "read_bytes", whole_file)
    assert len(data) > 2 * pipeline._DIGEST_CHUNK
    assert pipeline._file_digest(path) == "sha256:" + hashlib.sha256(data).hexdigest()


def test_stage_purity_deleted_artifact_reproduced(workdir):
    cfg = load_config(workdir / "run.cfg")
    art = Artifacts(cfg.output_dir)
    for stage in ("preprocess", "build", "aggregate", "embed", "train", "evaluate"):
        run_stage(stage, cfg)
    first = art.metrics.read_bytes()
    art.metrics.unlink()
    art.long.unlink()
    art.correlations.unlink()
    run_stage("evaluate", cfg)
    assert art.metrics.read_bytes() == first


def test_train_without_aggregate_raises(workdir):
    cfg = load_config(workdir / "run.cfg")
    with pytest.raises(MissingStageInput, match="aggregate"):
        run_stage("train", cfg)


def test_build_without_preprocess_raises(workdir):
    cfg = load_config(workdir / "run.cfg")
    with pytest.raises(MissingStageInput, match="preprocess"):
        run_stage("build", cfg)


def test_evaluate_enriched_flag_mismatch(workdir):
    cfg = load_config(workdir / "run.cfg")
    run_stage("run-all", cfg)
    enriched_cfg = load_config(workdir / "run.cfg", {"enriched": "true"})
    before = Artifacts(cfg.output_dir).manifest.read_bytes()
    with pytest.raises(ConfigError, match="enriched"):
        run_stage("evaluate", enriched_cfg, force=True)
    # the failed command refreshes no entry and no config echo
    assert Artifacts(cfg.output_dir).manifest.read_bytes() == before


def test_empty_document_warns_and_writes_empty_set(tmp_path, caplog):
    write_corpus(tmp_path / "c.csv", ["empty,,0,0,0,0,0"])
    shutil.copy(FIXTURE / "dump.nt", tmp_path / "dump.nt")
    (tmp_path / "run.cfg").write_text("corpus = c.csv\ndump = dump.nt\n")
    cfg = load_config(tmp_path / "run.cfg")
    with caplog.at_level("WARNING"):
        run_stage("preprocess", cfg)
    assert "empty concept set" in caplog.text
    assert Artifacts(cfg.output_dir).concept_path("empty").read_text() == ""


def test_doc_id_entity_clash_rejected(tmp_path):
    write_corpus(tmp_path / "c.csv", ["Painting,a painting,1,0,0,0,0"])
    shutil.copy(FIXTURE / "dump.nt", tmp_path / "dump.nt")
    (tmp_path / "run.cfg").write_text("corpus = c.csv\ndump = dump.nt\n")
    cfg = load_config(tmp_path / "run.cfg")
    run_stage("preprocess", cfg)
    run_stage("build", cfg)
    with pytest.raises(ConfigError, match="collide"):
        run_stage("aggregate", cfg)


def _output_copy(workdir, name):
    return parse_config(
        (workdir / "run.cfg").read_text() + f"output_dir = {name}\n", workdir
    )


def test_train_jobs_processes_match_serial_bytes(workdir):
    serial, parallel = _output_copy(workdir, "serial"), _output_copy(workdir, "parallel")
    run_stage("run-all", serial, jobs=1)
    run_stage("run-all", parallel, jobs=2)
    a, b = Artifacts(serial.output_dir), Artifacts(parallel.output_dir)
    files = sorted(p.name for p in a.models_dir.iterdir())
    assert len(files) == 11  # five checkpoints, five histories, splits.json
    assert sorted(p.name for p in b.models_dir.iterdir()) == files
    for name in files:
        assert (a.models_dir / name).read_bytes() == (b.models_dir / name).read_bytes(), name
    assert a.metrics.read_bytes() == b.metrics.read_bytes()


def test_train_jobs_match_serial_bytes_under_cv_with_uneven_folds(workdir):
    # 30 essays in 7 folds: 10 trainings on 25 essays and 25 on 26; at this
    # geometry memory caps no stack, so at --jobs 2 the 25 go to two stacks
    # [13, 12], which mix folds
    text = (workdir / "run.cfg").read_text().replace("protocol = split80", "protocol = cv")
    serial, parallel = (parse_config(text + f"cv_folds = 7\noutput_dir = {name}\n", workdir)
                        for name in ("serial", "parallel"))
    folds = _make_folds(30, serial)
    todo = [(i, j) for i in range(len(folds)) for j in range(5)]
    sizes = [30 - len(folds[i]) for i, _ in todo]
    assert sorted(set(sizes)) == [25, 26]
    stacks = plan_stacks(todo, sizes, 2, cap=len(todo))
    assert [len(s) for s in stacks] == [5, 5, 13, 12]
    assert any(len({i for i, _ in stack}) > 1 for stack in stacks)
    for stage in ("preprocess", "build", "aggregate"):
        run_stage(stage, serial)
        run_stage(stage, parallel)
    run_stage("train", serial, jobs=1)
    run_stage("train", parallel, jobs=2)
    a, b = Artifacts(serial.output_dir), Artifacts(parallel.output_dir)
    files = sorted(p.name for p in a.models_dir.iterdir())
    assert len(files) == 71  # 35 checkpoints, 35 histories, splits.json
    assert sorted(p.name for p in b.models_dir.iterdir()) == files
    for name in files:
        assert (a.models_dir / name).read_bytes() == (b.models_dir / name).read_bytes(), name


@pytest.mark.parametrize("n_tasks,jobs,want", [
    (15, 1, [5, 5, 5]),
    (15, 2, [4, 4, 4, 3]),
    (5, 2, [3, 2]),               # one split80 fold at --jobs 2
    (50, 2, [5] * 10),
    (15, 8, [2] * 7 + [1]),
    (3, 8, [1, 1, 1]),            # never more stacks than trainings
])
def test_plan_stacks_one_group(n_tasks, jobs, want):
    tasks = list(range(n_tasks))
    stacks = plan_stacks(tasks, [20] * n_tasks, jobs, cap=5)
    assert [len(s) for s in stacks] == want
    assert [t for s in stacks for t in s] == tasks


def test_plan_stacks_rule():
    rng, caps = np.random.default_rng(8), np.random.default_rng(9)
    for _ in range(200):
        n, jobs = int(rng.integers(1, 60)), int(rng.integers(1, 9))
        sizes = rng.choice([20, 21, 22], size=n).tolist()
        tasks = list(range(n))
        for cap in (5, int(caps.integers(1, 20))):
            stacks = plan_stacks(tasks, sizes, jobs, cap)
            assert sorted(t for s in stacks for t in s) == tasks
            for size in set(sizes):
                group = [t for t in tasks if sizes[t] == size]
                mine = [s for s in stacks if sizes[s[0]] == size]
                # one training-set size per stack, the group's order kept
                assert [t for s in mine for t in s] == group
                lengths = [len(s) for s in mine]
                assert max(lengths) <= cap and max(lengths) - min(lengths) <= 1
                fewest = -(-len(group) // cap)
                if len(mine) < len(group):
                    assert len(mine) % jobs == 0 and len(mine) < fewest + jobs
                else:
                    assert all(length == 1 for length in lengths)


# the fixture config's network and its aggregated graph: 65 nodes, 705
# directed edges with self-loops, 35 entity features
FIXTURE_GEOMETRY = dict(n_nodes=65, n_edges=705, n_features=35, config=TrainConfig(
    heads_per_layer=2, hidden_units=16, dense_units=16, attention_layers=2))


@pytest.mark.parametrize("n_tasks,jobs,want", [
    (15, 1, [15]),                # fixture-cv (3 folds) serially: one stack
    (15, 2, [8, 7]),              # fixture-cv at --jobs 2: one stack per worker
    (5, 2, [3, 2]),               # one split80 fold at --jobs 2, as under cap 5
])
def test_fixture_geometry_stacks_are_capped_only_by_jobs(n_tasks, jobs, want):
    one = model_bytes(**FIXTURE_GEOMETRY)
    assert one < 10**6
    stacks = plan_stacks(list(range(n_tasks)), [20] * n_tasks, jobs,
                         stack_cap(one, jobs, 2 * 1024**3))
    assert [len(s) for s in stacks] == want


def test_paper_geometry_trains_one_model_per_stack_under_a_small_budget():
    # 12,000 nodes, 150,000 directed edges, 8 heads x 128 units, dense 128,
    # 5 layers: about 1.3 GB a model, so 2 GB over two processes holds one
    # model each; the estimate reads the geometry and allocates nothing
    one = model_bytes(12_000, 150_000, 9_600, TrainConfig(
        heads_per_layer=8, hidden_units=128, dense_units=128, attention_layers=5))
    assert 1.0e9 < one < 1.6e9
    cap = stack_cap(one, 2, 2 * 1024**3)
    assert cap == 1
    assert [len(s) for s in plan_stacks(list(range(50)), [2_220] * 50, 2, cap)] == [1] * 50


def test_model_bytes_grows_with_every_dimension():
    base = model_bytes(**FIXTURE_GEOMETRY)
    config = FIXTURE_GEOMETRY["config"]
    for change in ({"n_nodes": 130}, {"n_edges": 1410}, {"n_features": 70}):
        assert model_bytes(**{**FIXTURE_GEOMETRY, **change}) > base
    for field in ("heads_per_layer", "hidden_units", "dense_units", "attention_layers"):
        wider = TrainConfig(**{**dataclasses.asdict(config), field: getattr(config, field) + 1})
        assert model_bytes(**{**FIXTURE_GEOMETRY, "config": wider}) > base
    assert model_bytes(**FIXTURE_GEOMETRY, embed_dim=8) > base


def test_divergence_names_fold_and_trait(workdir):
    cfg_path = workdir / "run.cfg"
    cfg_path.write_text(cfg_path.read_text() + "learning_rate = 1e300\n")
    cfg = load_config(cfg_path)
    for stage in ("preprocess", "build", "aggregate"):
        run_stage(stage, cfg)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss,
                                                  match="fold 0, trait O: loss diverged"):
        run_stage("train", cfg, jobs=1)


def test_cli_divergence_in_a_worker_exits_five(workdir):
    cfg_path = workdir / "run.cfg"
    # the first Adam step moves every weight by about the learning rate,
    # so the next forward pass overflows
    cfg_path.write_text(cfg_path.read_text() + "learning_rate = 1e300\n")
    cfg = load_config(cfg_path)
    for stage in ("preprocess", "build", "aggregate"):
        run_stage(stage, cfg)
    with np.errstate(all="ignore"):
        assert main(["train", "--config", str(cfg_path), "--jobs", "2"]) == 5
    assert not list(Artifacts(cfg.output_dir).models_dir.glob("fold*_*.npz"))


def test_plain_run_all_skips_embed(workdir):
    cfg = load_config(workdir / "run.cfg")
    run_stage("run-all", cfg)
    art = Artifacts(cfg.output_dir)
    assert art.metrics.exists()
    assert not art.embeddings.exists()
    assert "embed" not in json.loads(art.manifest.read_text())["stages"]


def test_rerun_leaves_splits_untouched(workdir):
    cfg = load_config(workdir / "run.cfg")
    run_stage("run-all", cfg, jobs=2)
    splits = Artifacts(cfg.output_dir).splits
    before = splits.stat().st_mtime_ns
    run_stage("run-all", cfg, jobs=2)
    assert splits.stat().st_mtime_ns == before


def test_build_force_follows_edited_dump(workdir):
    cfg = load_config(workdir / "run.cfg")
    run_stage("preprocess", cfg)
    run_stage("build", cfg)
    art = Artifacts(cfg.output_dir)
    graphs = sorted(art.graphs_dir.glob("*.txt"))
    assert sum(len(read_graph(p).edges) for p in graphs) > 0
    (workdir / "dump.nt").write_text("", encoding="utf-8")
    run_stage("build", cfg, force=True)
    assert len(graphs) == 30
    assert all(not read_graph(p).edges for p in graphs)


def test_dump_build_writes_no_triple_cache(workdir):
    cfg = load_config(workdir / "run.cfg")
    run_stage("preprocess", cfg)
    run_stage("build", cfg, jobs=2)
    assert len(list(Artifacts(cfg.output_dir).graphs_dir.glob("*.txt"))) == 30
    assert not cfg.cache_dir.exists()


def test_make_source_caches_only_endpoint_lookups(workdir):
    assert isinstance(make_source(load_config(workdir / "run.cfg")), NTriplesSource)
    cfg = parse_config("corpus = corpus.csv\nendpoint = http://127.0.0.1:1/sparql\n", workdir)
    source = make_source(cfg)
    assert isinstance(source, CachingSource)
    assert isinstance(source.inner, SparqlEndpointSource)
    assert source.dir.parent == cfg.cache_dir


def test_interrupted_graph_write_leaves_no_file(workdir, monkeypatch):
    cfg = load_config(workdir / "run.cfg")
    run_stage("preprocess", cfg)
    art = Artifacts(cfg.output_dir)
    victim = art.graph_path("doc05")
    real_replace = os.replace

    def failing_replace(src, dst):
        if Path(dst) == victim:
            raise OSError("no space left on device")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="no space"):
        run_stage("build", cfg)
    assert not victim.exists()
    assert not list(art.graphs_dir.glob("*.tmp*"))
    monkeypatch.undo()
    run_stage("build", cfg)
    assert read_graph(victim).nodes


def test_interrupted_report_write_leaves_no_file(workdir, monkeypatch):
    cfg = load_config(workdir / "run.cfg")
    for stage in ("preprocess", "build", "aggregate", "train"):
        run_stage(stage, cfg)
    art = Artifacts(cfg.output_dir)
    real_replace = os.replace

    def failing_replace(src, dst):
        if Path(dst) == art.metrics:
            raise OSError("no space left on device")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="no space"):
        run_stage("evaluate", cfg)
    assert not art.metrics.exists()
    assert not list(art.reports_dir.glob("*.tmp*"))
    monkeypatch.undo()
    run_stage("evaluate", cfg)
    assert art.metrics.read_text().startswith("metric,O,C,E,A,N,avg\n")


def test_train_new_seed_refits_every_model(workdir):
    cfg_path = str(workdir / "run.cfg")
    for stage in ("preprocess", "build", "aggregate", "train"):
        assert main([stage, "--config", cfg_path]) == 0
    art = Artifacts(workdir / "out")
    # without --force: the recorded splits no longer match, so every model
    # of the old folds is refitted rather than evaluated on its own essays
    assert main(["train", "--config", cfg_path, "--seed", "7"]) == 0
    assert json.loads(art.manifest.read_text())["stages"]["train"]["trained"] == 5
    splits = json.loads(art.splits.read_text())
    seven = load_config(cfg_path, {"seed": "7"})
    assert splits["seed"] == 7
    assert splits["folds"] == [f.tolist() for f in _make_folds(30, seven)]


def _artifact_stamps(root):
    """{path: (mtime_ns, bytes)} of every artifact under root but the
    manifest, which every stage refreshes by design."""
    return {p: (p.stat().st_mtime_ns, p.read_bytes()) for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


def test_train_force_then_evaluate_rewrites_the_reports(workdir):
    cfg_path = workdir / "run.cfg"
    assert main(["run-all", "--config", str(cfg_path)]) == 0
    art = Artifacts(workdir / "out")
    # a rerun with nothing changed rewrites no artifact
    before = _artifact_stamps(art.root)
    assert main(["run-all", "--config", str(cfg_path)]) == 0
    assert _artifact_stamps(art.root) == before

    reports = (art.metrics, art.long, art.correlations)
    old = {p: p.stat().st_mtime_ns for p in reports}
    cfg_path.write_text(cfg_path.read_text().replace("epochs = 3\n", "epochs = 1\n"))
    assert main(["train", "--config", str(cfg_path), "--force"]) == 0
    # every history is one epoch long now
    assert all(len(p.read_text().splitlines()) == 2
               for p in art.models_dir.glob("history_*.csv"))
    # the reports of the replaced models are gone, so evaluate scores the new ones
    assert not any(p.exists() for p in reports)
    assert main(["evaluate", "--config", str(cfg_path)]) == 0
    assert all(p.stat().st_mtime_ns != old[p] for p in reports)
    assert "skipped" not in json.loads(art.manifest.read_text())["stages"]["evaluate"]


def _source_env() -> dict:
    """The environment of a subprocess that imports kgatnet from this tree."""
    src = str(Path(__file__).parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_importing_cli_leaves_requests_unloaded():
    # each is loaded only by the stages that need it: urllib.request by
    # endpoint lookups, numpy and scipy by a stage with work to do,
    # scipy.sparse by the stages that build or read a feature matrix, and
    # concurrent.futures by training with --jobs
    code = ("import sys, kgatnet.cli; sys.exit(any(m in sys.modules for m in"
            " ('urllib.request', 'numpy', 'scipy', 'scipy.sparse', 'concurrent.futures')))")
    assert subprocess.run([sys.executable, "-c", code], env=_source_env(),
                          timeout=60).returncode == 0


def test_importing_kg_builder_loads_only_the_standard_library():
    code = ("import sys, kgatnet.kg_builder; sys.exit(any(m in sys.modules for m in"
            " ('numpy', 'requests', 'urllib.request')))")
    assert subprocess.run([sys.executable, "-c", code], env=_source_env(),
                          timeout=60).returncode == 0


@pytest.mark.parametrize("flags", [[], ["--enriched"]])
def test_rerun_with_every_stage_skipped_leaves_scipy_sparse_unloaded(workdir, flags):
    cfg_path = str(workdir / "run.cfg")
    assert main(["run-all", "--config", cfg_path, *flags]) == 0
    manifest = Artifacts(workdir / "out").manifest
    first = json.loads(manifest.read_text())["stages"]["train"]
    code = ("import sys; from kgatnet.cli import main; rc = main(sys.argv[1:]);"
            " print('scipy.sparse' in sys.modules); sys.exit(rc)")
    done = subprocess.run([sys.executable, "-c", code, "run-all", "--config", cfg_path, *flags],
                          env=_source_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout == "False\n"
    second = json.loads(manifest.read_text())["stages"]["train"]
    assert second["trained"] == 0
    assert second["model_bytes"] == first["model_bytes"]


def test_train_over_finished_models_still_requires_the_features(workdir):
    cfg_path = str(workdir / "run.cfg")
    assert main(["run-all", "--config", cfg_path]) == 0
    # train alone, since a run-all would rebuild them at aggregate
    Artifacts(workdir / "out").features.unlink()
    assert main(["train", "--config", cfg_path]) == 3


def _cli_loads(args: list[str]) -> list[str]:
    """Run the CLI on `args` in a fresh interpreter that must exit 0; which
    of numpy and scipy it loaded."""
    code = ("import sys; from kgatnet.cli import main; rc = main(sys.argv[1:]);"
            " print(*(m for m in ('numpy', 'scipy') if m in sys.modules)); sys.exit(rc)")
    done = subprocess.run([sys.executable, "-c", code, *args], env=_source_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout.split()


@pytest.mark.parametrize("flags", [[], ["--enriched"]])
def test_all_skip_commands_load_neither_numpy_nor_scipy(workdir, flags):
    cfg_path = str(workdir / "run.cfg")
    assert main(["run-all", "--config", cfg_path, *flags]) == 0
    art = Artifacts(workdir / "out")
    first = json.loads(art.manifest.read_text())
    before = _artifact_stamps(art.root)
    # a rerun of every stage, and train alone over finished models
    assert _cli_loads(["run-all", "--config", cfg_path, *flags]) == []
    assert _cli_loads(["train", "--config", cfg_path, *flags]) == []
    assert _artifact_stamps(art.root) == before
    manifest = json.loads(art.manifest.read_text())
    entry = manifest["stages"]["train"]
    assert entry["trained"] == 0 and entry["stack_sizes"] == []
    for key in ("folds", "model_bytes", "input_key"):
        assert entry[key] == first["stages"]["train"][key]
    # the versions of the libraries the first run loaded are kept
    assert manifest["versions"]["numpy"] == np.__version__
    assert manifest["versions"]["scipy"] == first["versions"]["scipy"] is not None


def test_traced_pipeline_names_resolve_before_any_stage_runs(workdir):
    # benchmark/tracer.py reads and replaces these names on a freshly
    # imported pipeline, and a name it cannot find is silently left
    # untimed; three of them name functions that are gone
    tracer = (ROOT / "benchmark" / "tracer.py").read_text()
    names = set(re.findall(r'tracer\.patch\(pipeline, "(\w+)"', tracer))
    names -= {"resolve_concepts", "prune_graph", "train_trait"}
    assert {"build_feature_matrix", "tensors_from_aggregated", "predict"} <= names
    cfg_path = str(workdir / "run.cfg")
    for stage in ("preprocess", "build"):
        assert main([stage, "--config", cfg_path]) == 0
    # a wrapper set before the first stage must be the function it calls
    code = ("import sys; from kgatnet import pipeline;"
            " missing = [n for n in sys.argv[2:] if not callable(getattr(pipeline, n, None))];"
            " real, calls = pipeline.build_feature_matrix, [];"
            " pipeline.build_feature_matrix = lambda *a: calls.append(a) or real(*a);"
            " pipeline.run_stage('aggregate', pipeline.load_config(sys.argv[1]));"
            " print(missing, len(calls))")
    done = subprocess.run([sys.executable, "-c", code, cfg_path, *sorted(names)],
                          env=_source_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout == "[] 1\n"


# --- the train stage's input key -----------------------------------------

def _train_entry(workdir) -> dict:
    return json.loads(Artifacts(workdir / "out").manifest.read_text())["stages"]["train"]


def _train_to_models(cfg_path) -> None:
    for stage in ("preprocess", "build", "aggregate", "train"):
        assert main([stage, "--config", str(cfg_path)]) == 0


def test_train_refits_when_the_fold_count_changes(workdir):
    cfg_path = workdir / "run.cfg"
    text = cfg_path.read_text().replace("protocol = split80", "protocol = cv")
    cfg_path.write_text(text + "cv_folds = 2\n")
    _train_to_models(cfg_path)
    assert _train_entry(workdir)["trained"] == 10
    cfg_path.write_text(text + "cv_folds = 3\n")
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert _train_entry(workdir)["trained"] == 15
    assert len(json.loads(Artifacts(workdir / "out").splits.read_text())["folds"]) == 3


def test_train_refits_after_a_reordered_corpus_is_aggregated(workdir):
    cfg_path = workdir / "run.cfg"
    _train_to_models(cfg_path)
    corpus = workdir / "corpus.csv"
    header, *rows = corpus.read_text(encoding="utf-8").splitlines()
    corpus.write_text("\n".join([header, *reversed(rows)]) + "\n", encoding="utf-8")
    assert main(["aggregate", "--config", str(cfg_path), "--force"]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert _train_entry(workdir)["trained"] == 5
    splits = json.loads(Artifacts(workdir / "out").splits.read_text())
    assert splits["doc_ids"] == [row.split(",")[0] for row in reversed(rows)]


def test_train_refits_after_splits_json_is_edited(workdir):
    cfg_path = workdir / "run.cfg"
    _train_to_models(cfg_path)
    splits = Artifacts(workdir / "out").splits
    recorded = splits.read_text()
    edited = json.loads(recorded)
    edited["folds"][0] = edited["folds"][0][1:]
    splits.write_text(json.dumps(edited, indent=2) + "\n")
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert _train_entry(workdir)["trained"] == 5
    assert splits.read_text() == recorded


def test_train_without_a_manifest_fits_nothing_and_records_its_key(workdir):
    cfg_path = workdir / "run.cfg"
    _train_to_models(cfg_path)
    art = Artifacts(workdir / "out")
    key = _train_entry(workdir)["input_key"]
    assert json.loads(art.splits.read_text())["input_key"] == key
    art.manifest.unlink()
    models = _artifact_stamps(art.models_dir)
    # splits.json holds the key, so the skip needs no manifest, nor numpy
    assert _cli_loads(["train", "--config", str(cfg_path)]) == []
    assert _artifact_stamps(art.models_dir) == models
    entry = _train_entry(workdir)
    assert entry["trained"] == 0 and entry["input_key"] == key


def test_train_without_a_manifest_refits_when_the_splits_change(workdir):
    cfg_path = workdir / "run.cfg"
    _train_to_models(cfg_path)
    Artifacts(workdir / "out").manifest.unlink()
    # no key to compare, but seed 7's folds are not those the models saw
    assert main(["train", "--config", str(cfg_path), "--seed", "7"]) == 0
    assert _train_entry(workdir)["trained"] == 5


def test_train_force_refits_over_a_matching_key(workdir):
    cfg_path = workdir / "run.cfg"
    _train_to_models(cfg_path)
    key = _train_entry(workdir)["input_key"]
    assert main(["train", "--config", str(cfg_path), "--force"]) == 0
    assert _train_entry(workdir)["trained"] == 5
    assert _train_entry(workdir)["input_key"] == key


def test_train_after_an_epochs_edit_refits_every_model(workdir):
    cfg_path = workdir / "run.cfg"
    _train_to_models(cfg_path)
    art = Artifacts(workdir / "out")
    key = _train_entry(workdir)["input_key"]
    cfg_path.write_text(cfg_path.read_text().replace("epochs = 3\n", "epochs = 2\n"))
    assert main(["train", "--config", str(cfg_path)]) == 0
    entry = _train_entry(workdir)
    assert entry["trained"] == 5 and entry["input_key"] != key
    # no history is longer than the new epoch count
    assert all(len(p.read_text().splitlines()) <= 3
               for p in art.models_dir.glob("history_*.csv"))
    # and the next train skips on the new key
    models = _artifact_stamps(art.models_dir)
    assert _cli_loads(["train", "--config", str(cfg_path)]) == []
    assert _artifact_stamps(art.models_dir) == models


def _flip_trait_o(corpus, count=5):
    """Flip trait O of the corpus's first `count` essays."""
    header, *rows = corpus.read_text(encoding="utf-8").splitlines()
    for i, row in enumerate(rows[:count]):
        *head, o, c, e, a, n = row.split(",")
        rows[i] = ",".join([*head, str(1 - int(o)), c, e, a, n])
    corpus.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def test_train_after_a_label_edit_refits_every_model_and_drops_the_reports(workdir):
    cfg_path = workdir / "run.cfg"
    assert main(["run-all", "--config", str(cfg_path)]) == 0
    art = Artifacts(workdir / "out")
    models = _artifact_stamps(art.models_dir)
    _flip_trait_o(workdir / "corpus.csv")
    assert main(["aggregate", "--config", str(cfg_path), "--force"]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert _train_entry(workdir)["trained"] == 5
    after = _artifact_stamps(art.models_dir)
    assert all(after[p][0] != models[p][0] for p in models if p.suffix == ".npz")
    # the reports of the replaced models are gone, so evaluate scores the new ones
    assert not any(p.exists() for p in (art.metrics, art.long, art.correlations))


def test_a_label_flip_refits_and_rescores_without_aggregate_force(workdir):
    cfg_path = str(workdir / "run.cfg")
    assert main(["run-all", "--config", cfg_path]) == 0
    art = Artifacts(workdir / "out")
    correlations = art.correlations.read_bytes()
    _flip_trait_o(workdir / "corpus.csv")
    # aggregate skips, and train reads the new labels from the corpus
    assert main(["run-all", "--config", cfg_path]) == 0
    stages = json.loads(art.manifest.read_text())["stages"]
    assert stages["aggregate"]["skipped"] is True
    assert stages["train"]["trained"] == 5
    assert "skipped" not in stages["evaluate"]
    assert art.correlations.read_bytes() != correlations


def test_evaluate_after_a_label_flip_exits_two_and_rewrites_nothing(workdir, caplog):
    cfg_path = str(workdir / "run.cfg")
    assert main(["run-all", "--config", cfg_path]) == 0
    art = Artifacts(workdir / "out")
    before = _artifact_stamps(art.root)
    _flip_trait_o(workdir / "corpus.csv")
    assert main(["evaluate", "--config", cfg_path, "--force"]) == 2
    assert "rerun train" in caplog.text
    assert _artifact_stamps(art.root) == before


def test_train_over_a_corpus_that_lacks_a_graph_essay_exits_three(workdir, caplog):
    cfg_path = workdir / "run.cfg"
    for stage in ("preprocess", "build", "aggregate"):
        assert main([stage, "--config", str(cfg_path)]) == 0
    corpus = workdir / "corpus.csv"
    lines = corpus.read_text(encoding="utf-8").splitlines()
    corpus.write_text("\n".join(line for line in lines if not line.startswith("doc07,")) + "\n",
                      encoding="utf-8")
    assert main(["train", "--config", str(cfg_path)]) == 3
    assert "'doc07'" in caplog.text and "rerun aggregate --force" in caplog.text
    assert not Artifacts(workdir / "out").models_dir.exists()


def test_every_manifest_entry_records_wall_time_and_peak_memory(workdir):
    cfg = load_config(workdir / "run.cfg")
    run_stage("run-all", cfg)
    stages = json.loads(Artifacts(cfg.output_dir).manifest.read_text())["stages"]
    order = ["preprocess", "build", "aggregate", "train", "evaluate"]
    assert set(stages) == set(order)
    for entry in stages.values():
        for key in ("seconds", "peak_rss_mb"):
            assert math.isfinite(entry[key]) and entry[key] >= 0
    # a high-water mark of the process so far
    peaks = [stages[name]["peak_rss_mb"] for name in order]
    assert peaks == sorted(peaks) and peaks[-1] > 0


# --- determinism ------------------------------------------------------------

def test_two_runs_byte_identical_metrics(workdir):
    cfg = load_config(workdir / "run.cfg")
    run_stage("run-all", cfg)
    first = Artifacts(cfg.output_dir).metrics.read_bytes()

    other = parse_config(
        (workdir / "run.cfg").read_text() + "output_dir = rerun\n", workdir
    )
    run_stage("run-all", other)
    second = Artifacts(other.output_dir).metrics.read_bytes()
    assert first == second


# --- CLI --------------------------------------------------------------------

def test_cli_exit_zero_and_artifacts(workdir):
    rc = main(["preprocess", "--config", str(workdir / "run.cfg")])
    assert rc == 0
    assert (workdir / "out" / "concepts" / "doc01.txt").exists()


def test_cli_exit_two_on_bad_config(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("corpus = c.csv\ndump = d.nt\nwhatever = 1\n")
    assert main(["preprocess", "--config", str(bad)]) == 2


def test_cli_exit_two_on_missing_config(tmp_path):
    assert main(["preprocess", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_cli_exit_two_on_duplicate_doc_id(workdir, caplog):
    corpus = workdir / "corpus.csv"
    rows = corpus.read_text(encoding="utf-8").splitlines()
    doc02 = next(r for r in rows if r.startswith("doc02,"))
    corpus.write_text("\n".join(rows + [doc02]) + "\n", encoding="utf-8")
    assert main(["preprocess", "--config", str(workdir / "run.cfg")]) == 2
    assert f"corpus line {len(rows) + 1}: duplicate doc id 'doc02'" in caplog.text


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_cli_exit_two_on_jobs_below_one(workdir, jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(workdir / "run.cfg"), "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs: expected a positive integer" in capsys.readouterr().err
    assert not (workdir / "out").exists()


def test_cli_exit_three_on_missing_stage_input(workdir):
    assert main(["train", "--config", str(workdir / "run.cfg")]) == 3


def test_cli_exit_three_on_embeddings_older_than_the_corpus(workdir):
    # ROADMAP item 1's reproduction: an essay added after embed ran
    cfg_path = str(workdir / "run.cfg")
    assert main(["run-all", "--config", cfg_path, "--enriched"]) == 0
    art = Artifacts(workdir / "out")
    models = _artifact_stamps(art.models_dir)
    with open(workdir / "corpus.csv", "a", encoding="utf-8") as fh:
        fh.write('doc99,"A painting of the sea, seen from a boat.",1,0,1,0,1\n')
    for stage in ("preprocess", "build"):
        assert main([stage, "--config", cfg_path]) == 0
    assert main(["aggregate", "--config", cfg_path, "--force"]) == 0
    done = subprocess.run(
        [sys.executable, "-m", "kgatnet", "run-all", "--config", cfg_path, "--enriched"],
        env=_source_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 3
    assert "Traceback" not in done.stderr
    errors = [line for line in done.stderr.splitlines() if line.startswith("ERROR")]
    assert len(errors) == 1
    assert "vectors.txt" in errors[0] and "doc99" in errors[0]
    assert "rerun embed --force" in errors[0]
    # the input is checked before any model of the old inputs is deleted
    assert _artifact_stamps(art.models_dir) == models


def test_cli_exit_three_on_truncated_embeddings(workdir, caplog):
    cfg_path = str(workdir / "run.cfg")
    assert main(["run-all", "--config", cfg_path, "--enriched"]) == 0
    vectors = Artifacts(workdir / "out").embeddings
    text = vectors.read_text(encoding="utf-8")
    vectors.write_text(text[: len(text) // 2], encoding="utf-8")
    assert main(["train", "--config", cfg_path, "--enriched"]) == 3
    assert str(vectors) in caplog.text and "rerun embed --force" in caplog.text


def _cli_errors(args: list[str],
                code: str = "from kgatnet.cli import main") -> tuple[int, list[str]]:
    """Run `code`, then the CLI on `args`, in a fresh interpreter that must
    print no traceback; its exit code and its ERROR lines."""
    done = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\nsys.exit(main(sys.argv[1:]))", *args],
        env=_source_env(), capture_output=True, text=True, timeout=120)
    assert "Traceback" not in done.stderr, done.stderr[-2000:]
    return done.returncode, [line for line in done.stderr.splitlines() if line.startswith("ERROR")]


def test_cli_exit_three_on_features_of_another_row_count(workdir):
    import scipy.sparse as sp
    cfg_path = str(workdir / "run.cfg")
    for stage in ("preprocess", "build", "aggregate"):
        assert main([stage, "--config", cfg_path]) == 0
    features = Artifacts(workdir / "out").features
    sp.save_npz(features, sp.load_npz(features)[:-1])
    rc, errors = _cli_errors(["train", "--config", cfg_path])
    assert rc == 3
    assert len(errors) == 1 and "ShapeMismatch" in errors[0]


def test_cli_exit_six_when_a_training_process_dies(workdir):
    cfg_path = str(workdir / "run.cfg")
    _train_to_models(cfg_path)
    art = Artifacts(workdir / "out")
    for trait in "CEA":
        art.model_path(0, trait).unlink()
    kept = {p: v for p, v in _artifact_stamps(art.models_dir).items() if p.suffix == ".npz"}
    # each worker SIGKILLs itself, as the OOM killer would, in a pool of 2
    # running stacks of 2 and 1 models
    die = ("import os, signal\nfrom kgatnet import pipeline\nfrom kgatnet.cli import main\n"
           "def die(stack):\n    os.kill(os.getpid(), signal.SIGKILL)\n"
           "pipeline._train_stack = die")
    rc, errors = _cli_errors(["train", "--config", cfg_path, "--jobs", "2"], die)
    assert rc == 6 and len(errors) == 1
    for part in ("stack of 2 models from fold 0, trait C", "model_bytes", "budget_bytes",
                 "--jobs 2"):
        assert part in errors[0]
    # the manifest records the plan and what it left on disk
    entry = _train_entry(workdir)
    assert entry["stack_sizes"] == [2, 1]
    assert entry["checkpoints"] == sorted(p.name for p in kept)
    assert entry["error"] in errors[0]
    assert entry["input_key"] == json.loads(art.splits.read_text())["input_key"]
    assert entry["model_bytes"] > 0 and entry["budget_bytes"] == memory_budget()
    # the checkpoints written before stay, and a rerun fits only the rest
    after = _artifact_stamps(art.models_dir)
    assert all(after[p] == v for p, v in kept.items())
    assert main(["train", "--config", cfg_path, "--jobs", "2"]) == 0
    assert _train_entry(workdir)["trained"] == 3


def test_cli_exit_two_on_unreadable_checkpoint(workdir, caplog):
    cfg_path = str(workdir / "run.cfg")
    assert main(["run-all", "--config", cfg_path]) == 0
    # a checkpoint of the per-head layout, which version 2 replaced
    old = Artifacts(workdir / "out").model_path(0, "E")
    np.savez(old, __meta__=np.array(json.dumps({"version": 1})), **{"att0.h0.W": np.zeros((8, 8))})
    assert main(["evaluate", "--config", cfg_path, "--force"]) == 2
    assert str(old) in caplog.text
    assert "train --force" in caplog.text


def test_cli_exit_two_on_truncated_checkpoint(workdir, caplog):
    cfg_path = str(workdir / "run.cfg")
    assert main(["run-all", "--config", cfg_path]) == 0
    cut = Artifacts(workdir / "out").model_path(0, "A")
    cut.write_bytes(cut.read_bytes()[:100])
    assert main(["evaluate", "--config", cfg_path, "--force"]) == 2
    assert str(cut) in caplog.text
    assert "train --force" in caplog.text


def test_cli_seed_override_changes_fold_assignment(workdir):
    cfg_path = str(workdir / "run.cfg")
    assert main(["preprocess", "--config", cfg_path]) == 0
    assert main(["build", "--config", cfg_path]) == 0
    assert main(["aggregate", "--config", cfg_path]) == 0
    assert main(["train", "--config", cfg_path]) == 0
    first = json.loads(Artifacts(workdir / "out").splits.read_text())

    # a different seed reshuffles the held-out split
    assert main(["train", "--config", cfg_path, "--seed", "7", "--force"]) == 0
    second = json.loads(Artifacts(workdir / "out").splits.read_text())
    assert second["seed"] == 7
    assert first["folds"] != second["folds"]


def test_cli_rejects_unknown_stage(workdir, capsys):
    with pytest.raises(SystemExit):
        main(["compress", "--config", str(workdir / "run.cfg")])


# --- the stage table ----------------------------------------------------------

def _table_outputs(cfg) -> dict[str, list[Path]]:
    """Each stage's output files by the table: every file of its units, and
    the file that records its key."""
    art = Artifacts(cfg.output_dir)
    return {name: [p for _, files in stage.units(cfg, art) for p in files]
            + ([getattr(art, stage.key_file)] if stage.key_file else [])
            for name, stage in STAGE_TABLE.items()}


def _named_paths(art, doc_ids, n_folds) -> dict[str, set[Path]]:
    """The files each `Artifacts` attribute or method names."""
    named = {name: {value} for name, value in vars(art).items()
             if name != "root" and not name.endswith("_dir")}
    named["concept_path"] = {art.concept_path(d) for d in doc_ids}
    named["graph_path"] = {art.graph_path(d) for d in doc_ids}
    pairs = [(i, trait) for i in range(n_folds) for trait in "OCEAN"]
    named["model_path"] = {art.model_path(*pair) for pair in pairs}
    named["history_path"] = {art.history_path(*pair) for pair in pairs}
    return named


def test_every_artifact_is_the_output_of_exactly_one_stage(workdir):
    text = (workdir / "run.cfg").read_text().replace("protocol = split80", "protocol = cv")
    cfg = parse_config(text + "cv_folds = 3\n", workdir)
    art = Artifacts(cfg.output_dir)
    methods = {n for n, v in vars(Artifacts).items() if callable(v) and not n.startswith("_")}
    assert methods == {"concept_path", "graph_path", "model_path", "history_path"}
    named = _named_paths(art, [d.id for d in load_corpus(cfg.corpus)], 3)
    outputs = _table_outputs(cfg)
    owners = {}
    for name, paths in outputs.items():
        assert len(paths) == len(set(paths)), name
        for path in paths:
            owners.setdefault(path, []).append(name)
    everything = set().union(*named.values())
    assert set(owners) == everything - {art.manifest}
    assert all(len(stages) == 1 for stages in owners.values())
    # each stage reads config input files and outputs of stages before it
    for k, (name, stage) in enumerate(STAGE_TABLE.items()):
        earlier = {p for before in list(STAGE_TABLE)[:k] for p in outputs[before]}
        for read in set(stage.reads) - set(pipeline._INPUT_FILES):
            assert named[read] <= earlier, (name, read)


def _unit_of(stage: str, art) -> list[Path]:
    """The files of one output unit of `stage`."""
    return {"preprocess": [art.concept_path("doc05")], "build": [art.graph_path("doc05")],
            "aggregate": [art.aggregated, art.features], "embed": [art.embeddings],
            "train": [art.history_path(0, "C"), art.model_path(0, "C")],
            "evaluate": [art.metrics, art.long, art.correlations]}[stage]


@pytest.mark.parametrize("stage", list(STAGE_TABLE))
def test_a_deleted_unit_is_rebuilt_alone_with_the_same_bytes(workdir, stage):
    cfg = load_config(workdir / "run.cfg", {"enriched": "true"})
    run_stage("run-all", cfg)
    art = Artifacts(cfg.output_dir)
    before = _artifact_stamps(art.root)
    unit = _unit_of(stage, art)
    for path in unit:
        path.unlink()
    run_stage("run-all", cfg)
    after = _artifact_stamps(art.root)
    assert set(after) == set(before)
    entries = json.loads(art.manifest.read_text())["stages"]
    total = len(STAGE_TABLE[stage].units(cfg, art))
    assert entries[stage]["reason"] == f"outputs missing (1 of {total})"
    # a train that fits a model deletes the reports, so evaluate rescores
    reports = {art.metrics, art.long, art.correlations}
    rewritten = set(unit) | (reports if stage == "train" else set())
    for path, (mtime, data) in before.items():
        assert after[path][1] == data, path
        assert (after[path][0] != mtime) == (path in rewritten), path
    assert {name for name, entry in entries.items() if not entry.get("skipped")} == (
        {stage, "evaluate"} if stage == "train" else {stage})


def test_each_manifest_entry_records_why_its_stage_ran_or_skipped(workdir):
    cfg = load_config(workdir / "run.cfg")
    art = Artifacts(cfg.output_dir)

    def entries():
        return json.loads(art.manifest.read_text())["stages"]

    run_stage("run-all", cfg)
    assert {name: e["reason"] for name, e in entries().items()} == {
        "preprocess": "outputs missing (30 of 30)", "build": "outputs missing (30 of 30)",
        "aggregate": "outputs missing (1 of 1)", "train": "key changed",
        "evaluate": "outputs missing (1 of 1)"}
    assert not any("skipped" in e for e in entries().values())
    run_stage("run-all", cfg)
    assert all(e["reason"] == "outputs present" and e["skipped"] is True
               for e in entries().values())
    run_stage("aggregate", cfg, force=True)
    assert entries()["aggregate"]["reason"] == "forced"
    assert "skipped" not in entries()["aggregate"]
    _flip_trait_o(workdir / "corpus.csv")
    run_stage("train", cfg)
    assert entries()["train"]["reason"] == "key changed"
    assert entries()["train"]["trained"] == 5


@pytest.mark.parametrize("text", ["{garbage", "[]"])
def test_an_unreadable_manifest_is_replaced_and_the_artifacts_kept(workdir, text, caplog):
    cfg_path = str(workdir / "run.cfg")
    assert main(["run-all", "--config", cfg_path]) == 0
    art = Artifacts(workdir / "out")
    before = _artifact_stamps(art.root)
    art.manifest.write_text(text, encoding="utf-8")
    assert main(["evaluate", "--config", cfg_path]) == 0
    assert main(["run-all", "--config", cfg_path]) == 0
    assert "manifest.json holds no JSON object" in caplog.text
    assert _artifact_stamps(art.root) == before
    assert set(json.loads(art.manifest.read_text())["stages"]) == {
        "preprocess", "build", "aggregate", "train", "evaluate"}


@pytest.mark.parametrize("text, part", [
    ('{"stages": []}', "stages"),
    ('{"versions": []}', "versions"),
    ('{"inputs": []}', "inputs"),
    ('{"stages": {"train": []}}', "stages.train"),
])
def test_a_manifest_part_that_is_no_object_is_replaced(workdir, text, part, caplog):
    # a readable manifest whose stage log, versions, input digests or train
    # entry is not an object counts that part as empty, with a warning
    cfg_path = str(workdir / "run.cfg")
    assert main(["run-all", "--config", cfg_path]) == 0
    art = Artifacts(workdir / "out")
    before = _artifact_stamps(art.root)
    art.manifest.write_text(text, encoding="utf-8")
    assert main(["evaluate", "--config", cfg_path]) == 0
    assert main(["run-all", "--config", cfg_path]) == 0
    assert f"manifest.json: {part} holds no JSON object" in caplog.text
    assert _artifact_stamps(art.root) == before
    manifest = json.loads(art.manifest.read_text())
    assert set(manifest["stages"]) == {"preprocess", "build", "aggregate", "train", "evaluate"}
    assert all(isinstance(manifest[key], dict) for key in ("stages", "versions", "inputs"))
    assert all(isinstance(entry, dict) for entry in manifest["stages"].values())


def test_stages_after_build_need_no_dump(workdir, caplog):
    cfg_path = str(workdir / "run.cfg")
    for stage in ("preprocess", "build"):
        assert main([stage, "--config", cfg_path]) == 0
    manifest = Artifacts(workdir / "out").manifest
    digest = json.loads(manifest.read_text())["inputs"]["dump"]
    (workdir / "dump.nt").rename(workdir / "moved.nt")
    for stage in ("aggregate", "embed", "train", "evaluate"):
        assert main([stage, "--config", cfg_path, "--force"]) == 0, stage
    # the manifest keeps the last digest of the input that is gone
    assert json.loads(manifest.read_text())["inputs"]["dump"] == digest
    assert main(["build", "--config", cfg_path, "--force"]) == 2
    assert "dump file not found" in caplog.text and "dump.nt" in caplog.text
