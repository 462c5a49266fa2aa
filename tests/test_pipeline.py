"""Config parsing, corpus loading, stage caching, and CLI behavior."""

import json
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
from kgatnet.pipeline import (
    CONFIG_DEFAULTS,
    MAX_STACK,
    Artifacts,
    _make_folds,
    load_config,
    load_corpus,
    make_source,
    parse_config,
    plan_stacks,
    run_stage,
)
from kgatnet.rdf2vec import count_pairs, generate_walks

ROOT = Path(__file__).parent.parent
FIXTURE = ROOT / "src" / "kgatnet" / "data" / "fixture"

MINIMAL = "corpus = corpus.csv\ndump = dump.nt\n"


# --- config parsing ---------------------------------------------------------

def test_parse_config_defaults():
    cfg = parse_config(MINIMAL, base_dir="/data")
    assert cfg.seed == 42
    assert cfg.protocol == "cv"
    assert cfg.cv_folds == 10
    assert cfg.entity_features == "self"
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
    assert art.aggregated.exists() and art.features.exists() and art.labels.exists()

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
    with pytest.raises(ConfigError, match="enriched"):
        run_stage("evaluate", enriched_cfg, force=True)


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
    # 30 essays in 7 folds: 10 trainings on 25 essays and 25 on 26, and at
    # --jobs 2 the 25 go to six stacks, so stacks mix two folds
    text = (workdir / "run.cfg").read_text().replace("protocol = split80", "protocol = cv")
    serial, parallel = (parse_config(text + f"cv_folds = 7\noutput_dir = {name}\n", workdir)
                        for name in ("serial", "parallel"))
    folds = _make_folds(30, serial)
    todo = [(i, j) for i in range(len(folds)) for j in range(5)]
    sizes = [30 - len(folds[i]) for i, _ in todo]
    assert sorted(set(sizes)) == [25, 26]
    assert any(len({i for i, _ in stack}) > 1 for stack in plan_stacks(todo, sizes, 2))
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
    (15, 1, [5, 5, 5]),           # fixture-cv serially
    (15, 2, [4, 4, 4, 3]),        # fixture-cv at --jobs 2
    (5, 2, [3, 2]),               # one split80 fold at --jobs 2
    (50, 2, [5] * 10),
    (15, 8, [2] * 7 + [1]),
    (3, 8, [1, 1, 1]),            # never more stacks than trainings
])
def test_plan_stacks_one_group(n_tasks, jobs, want):
    tasks = list(range(n_tasks))
    stacks = plan_stacks(tasks, [20] * n_tasks, jobs)
    assert [len(s) for s in stacks] == want
    assert [t for s in stacks for t in s] == tasks


def test_plan_stacks_rule():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n, jobs = int(rng.integers(1, 60)), int(rng.integers(1, 9))
        sizes = rng.choice([20, 21, 22], size=n).tolist()
        tasks = list(range(n))
        stacks = plan_stacks(tasks, sizes, jobs)
        assert sorted(t for s in stacks for t in s) == tasks
        for size in set(sizes):
            group = [t for t in tasks if sizes[t] == size]
            mine = [s for s in stacks if sizes[s[0]] == size]
            # one training-set size per stack, the group's order kept
            assert [t for s in mine for t in s] == group
            lengths = [len(s) for s in mine]
            assert max(lengths) <= MAX_STACK and max(lengths) - min(lengths) <= 1
            fewest = -(-len(group) // MAX_STACK)
            if len(mine) < len(group):
                assert len(mine) % jobs == 0 and len(mine) < fewest + jobs
            else:
                assert all(length == 1 for length in lengths)


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


def test_importing_cli_leaves_requests_unloaded():
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    # scipy loads the concurrent.futures package itself; its thread pool
    # module must stay unloaded, since no stage runs on threads
    code = ("import sys, kgatnet.cli; sys.exit('requests' in sys.modules"
            " or 'concurrent.futures.thread' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


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


def test_cli_exit_three_on_missing_stage_input(workdir):
    assert main(["train", "--config", str(workdir / "run.cfg")]) == 3


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
