"""Quick tests of the benchmark's own parts; run from the repository root:

    python3 -m pytest benchmark/tests -q
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import essays  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

DATA = ROOT / "src" / "kgatnet" / "data"
TINY = essays.Sizes(docs=8, mentions_per_doc=20, misses_per_doc=3, entities=80, gazetteer=10,
                    literal_only=5, miss_words=20, links=200, external_links=80, literals=40,
                    blank_nodes=10, self_loops=5)
TINY_MODEL = """\
epochs = 2
patience = 2
batch_size = 4
heads_per_layer = 2
hidden_units = 4
dense_units = 4
attention_layers = 1
"""
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_generator_is_deterministic_per_seed():
    first, _ = essays.generate(7, TINY, DATA)
    again, _ = essays.generate(7, TINY, DATA)
    other, _ = essays.generate(8, TINY, DATA)
    assert first == again
    assert all(first[name] != other[name] for name in ("corpus.csv", "dump.nt", "gazetteer.txt"))


def test_generated_names_survive_preprocessing():
    from kgatnet.preprocess import load_lemma_table, load_stopwords

    _, planted = essays.generate(7, TINY, DATA)
    reserved = load_stopwords() | set(load_lemma_table())
    for concepts in planted.doc_concepts:
        for concept in concepts:
            assert all(part.lower() not in reserved for part in concept.split("_"))


def _tiny_run(tmp_path, model=TINY_MODEL):
    planted = essays.write(7, TINY, DATA, tmp_path)
    (tmp_path / "run.cfg").write_text(run.ESSAYS_INPUTS + "seed = 7\n" + model, encoding="utf-8")
    return planted


def test_oracle_matches_pipeline_on_tiny_corpus(tmp_path):
    from kgatnet.pipeline import load_config, run_stage

    planted = _tiny_run(tmp_path)
    # the rescue path runs: some document names a title-cased gazetteer entity
    assert any(planted.dump_spelling[c] != c for concepts in planted.doc_concepts
               for c in concepts if c in planted.dump_spelling)
    cfg = load_config(tmp_path / "run.cfg")
    for stage in ("preprocess", "build", "aggregate"):
        run_stage(stage, cfg)
    expected = vars(oracle.expected_counts(planted))
    assert checks.aggregate_counts(tmp_path / "out" / "aggregate") == expected


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec, [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


@pytest.fixture(scope="module")
def traced_tiny(tmp_path_factory):
    """Spans of a traced run-all on the tiny corpus and of its rerun."""
    work = tmp_path_factory.mktemp("traced")
    _tiny_run(work)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for tag in ("run", "rerun"):
        subprocess.run([sys.executable, str(BENCH / "tracer.py"), str(work / f"{tag}.json"),
                        "run-all", "--enriched", "--config", str(work / "run.cfg"), "--jobs", "2"],
                       env=env, check=True, capture_output=True)
    return work


def test_emitted_metric_names_are_declared(traced_tiny):
    spec, end_to_end, per_layer = _declared()
    emitted_layer = run.layer_metrics(
        run.SpanTable([traced_tiny / "run.json"]), run.SpanTable([traced_tiny / "rerun.json"]),
        import_s=0.5, rewrites=1, metrics_csv=traced_tiny / "out" / "reports" / "metrics.csv",
        traced_run_s=2.0, untraced_run_s=1.9)
    emitted_e2e = run.end_to_end_metrics([1.0], [{"run_s": 1.0, "peak_rss_mb": 60.0}], [0.5])
    assert sorted(emitted_layer) == sorted(per_layer)
    assert sorted(emitted_e2e) == sorted(end_to_end)
    names = end_to_end + per_layer + [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    targets = json.loads((BENCH / "targets.json").read_text(encoding="utf-8"))
    assert sorted(targets["per_layer"]) == sorted(per_layer)
    assert sorted(targets["workloads"]) == sorted(run.WORKLOADS)


def test_traced_counts_describe_the_run(traced_tiny):
    m = run.layer_metrics(
        run.SpanTable([traced_tiny / "run.json"]), run.SpanTable([traced_tiny / "rerun.json"]),
        import_s=0.5, rewrites=1, metrics_csv=traced_tiny / "out" / "reports" / "metrics.csv",
        traced_run_s=2.0, untraced_run_s=1.9)
    counts = checks.aggregate_counts(traced_tiny / "out" / "aggregate")
    assert m["preprocess.docs"] == TINY.docs
    assert m["aggregator.entities"] == counts["entities"]
    assert m["aggregator.feature_nnz"] == counts["feature_nnz"]
    assert m["kg_builder.lookups_per_concept"] >= 2.0
    assert m["gat.trainings"] == 5 and m["gat.steps"] > 0
    assert m["pipeline.stages_skipped"] == 6
    assert m["kg_builder.title_case_rescues"] >= 1


def test_rerun_check_flags_changed_artifacts(tmp_path):
    (tmp_path / "models").mkdir()
    (tmp_path / "a.txt").write_text("a")
    (tmp_path / "models" / "splits.json").write_text("{}")
    (tmp_path / "manifest.json").write_text("{}")
    before = checks.snapshot(tmp_path)
    os.utime(tmp_path / "models" / "splits.json", ns=(1, 1))
    (tmp_path / "manifest.json").write_text('{"x": 1}')
    assert checks.compare_rerun(before, checks.snapshot(tmp_path)) == ([], 1)
    (tmp_path / "a.txt").write_text("b")
    problems, _ = checks.compare_rerun(before, checks.snapshot(tmp_path))
    assert problems == ["rerun changed the bytes of a.txt"]
