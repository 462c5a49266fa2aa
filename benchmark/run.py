#!/usr/bin/env python3
"""Benchmark of the kgatnet pipeline: three workloads, end to end and per layer.

Run from the root of a checkout:

    python3 benchmark/run.py --workload fixture-cv --seed 1 --seconds 35 --trace 0

Workloads (BENCHMARK.json says why each exists; targets.json which layers
each should load and which metric each layer metric should move):

- fixture-cv      the bundled fixture, cold ``run-all``, plain, 3-fold CV
- essays-cold     a generated Essays-shaped corpus, cold ``run-all --enriched``
- essays-retrain  the same corpus; set-up runs preprocess, build and
                  aggregate, the measured commands are ``train --force`` and
                  ``evaluate --force`` at the paper's widths

BENCHMARK.json lists fixture-cv and essays-cold, the workloads whose
repeated runs fit its time budget; essays-retrain repeats a set-up of
about 6 s three times per run, so it runs only when named (or with
``--workload all``).

``--trace 0`` runs the workload's commands as untraced
``python -m kgatnet ... --jobs 2`` subprocesses, one at a time (a closed
loop with one client), for ``--seconds`` and at least three times.
After each measured run the same commands run twice more without
``--force`` (the reruns).  The set-up is repeated three times and
``setup_s`` is the median; the second and third set-up run between
measured runs, so that every kind of sample is spread over the run, and
do not count against ``--seconds``.  Each end-to-end time is the median of
its samples.  It reports the end-to-end metrics.

``--trace 1`` makes one untraced pass and one traced pass of set-up,
commands and rerun.  The traced pass runs the same commands through
``tracer.py``, which records spans in the program's own process; the
per-layer metrics come from those spans, and the difference between the
two passes' run times is the tracing overhead.

Every run checks its outputs; a command that exits non-zero or fails a
check counts as failed.  Metrics are printed one per line as
``metric <name> <value> <unit>``, the machine context as ``context`` lines,
and the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Working files go to
``.bench_work/`` in the checkout; the spans of the last traced run are kept
there as ``trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import essays  # noqa: E402
import oracle  # noqa: E402
from context import machine_context  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
PACKAGE = SRC / "kgatnet"
FIXTURE = PACKAGE / "data" / "fixture"
WORK = ROOT / ".bench_work"
JOBS = "2"
SETUPS = 3
# The fixture's cold run-all takes 14-25 s on two shared cores: the host
# slows it in phases of seconds to minutes.  A median of three runs drops
# the most slowed one.
MIN_PASSES = 3
# One BLAS thread per command.  On two cores OpenBLAS's second thread spins
# while it waits, doubling CPU time for little gain, and the wall time of
# the paper-width training swung by +-20% between identical runs with it.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# A rerun takes about a second, mostly interpreter start-up, so rerun_s is
# the median of several: this many after each measured run
RERUNS_PER_PASS = 2
ACCURACY_FLOOR = 0.90

# The fixture as shipped, with three changes that keep one cold run-all
# near 20 s on two cores: 3 folds instead of 10 (15 trainings, not 50), at
# most 150 epochs instead of 300 (patience stays 80), and one skip-gram
# epoch instead of 12 (plain mode never reads the embeddings).  Every
# trait still reaches the accuracy floor at seed 42; two folds, fewer
# epochs, larger batches, one attention layer or a single split each leave
# some trait below it.
FIXTURE_OVERRIDES = {"cv_folds": "3", "epochs": "150", "embed_epochs": "1"}

ESSAYS_INPUTS = """\
corpus = corpus.csv
dump = dump.nt
gazetteer = gazetteer.txt
output_dir = out
protocol = split80
validation_split = 0.2
learning_rate = 0.01
walk_depth = 4
window = 3
negatives = 4
embed_epochs = 1
"""

# the fixture's small attention geometry, so gat does little; the enriched
# classifier reads 32-wide essay embeddings
ESSAYS_COLD_MODEL = """\
epochs = 3
patience = 3
batch_size = 32
heads_per_layer = 2
hidden_units = 16
dense_units = 16
attention_layers = 2
embed_dim = 32
walks_per_node = 4
"""

# the GAT paper's widths (8 heads x 128 units, dense 128) at depth 2; one
# batch per epoch and one epoch, so the step count is fixed and a measured
# run is short enough to repeat several times within --seconds
ESSAYS_RETRAIN_MODEL = """\
epochs = 1
patience = 1
batch_size = 64
heads_per_layer = 8
hidden_units = 128
dense_units = 128
attention_layers = 2
"""


@dataclass(frozen=True)
class Workload:
    name: str
    setup_cmds: tuple[tuple[str, ...], ...]
    run_cmds: tuple[tuple[str, ...], ...]
    rerun_cmds: tuple[tuple[str, ...], ...]
    cold: bool  # every measured run starts from an empty output directory
    model: str  # config lines of the essays workloads; "" for the fixture


WORKLOADS = {
    "fixture-cv": Workload("fixture-cv", (), (("run-all",),), (("run-all",),), True, ""),
    "essays-cold": Workload(
        "essays-cold", (), (("run-all", "--enriched"),), (("run-all", "--enriched"),), True,
        ESSAYS_COLD_MODEL),
    "essays-retrain": Workload(
        "essays-retrain",
        (("preprocess",), ("build",), ("aggregate",)),
        (("train", "--force"), ("evaluate", "--force")),
        (("train",), ("evaluate",)),
        False,
        ESSAYS_RETRAIN_MODEL),
}


class Failed(Exception):
    """The workload could not be set up; no result is printed."""


@dataclass
class Inputs:
    config: Path
    expected: dict[str, int] | None  # oracle counts for generated corpora


class Runner:
    """Runs kgatnet commands for one workload and tallies invocations."""

    def __init__(self, workload: Workload, seed: int):
        self.wl = workload
        self.seed = seed
        self.env = dict(os.environ, **BLAS_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.tag = f"{workload.name}-s{seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    # --- inputs and commands ---------------------------------------------

    def prepare(self, dest: Path) -> Inputs:
        """Write the workload's input files and config into `dest`."""
        shutil.rmtree(dest, ignore_errors=True)
        dest.mkdir(parents=True)
        if self.wl.name == "fixture-cv":
            for name in ("corpus.csv", "dump.nt", "gazetteer.txt"):
                shutil.copyfile(FIXTURE / name, dest / name)
            lines = []
            for line in (FIXTURE / "fixture.cfg").read_text(encoding="utf-8").splitlines():
                key = line.partition("=")[0].strip()
                lines.append(f"{key} = {FIXTURE_OVERRIDES[key]}" if key in FIXTURE_OVERRIDES else line)
            text, expected = "\n".join(lines) + "\n", None
        else:
            planted = essays.write(self.seed, essays.Sizes(), PACKAGE / "data", dest)
            expected = vars(oracle.expected_counts(planted))
            text = ESSAYS_INPUTS + f"seed = {self.seed}\n" + self.wl.model
        config = dest / "run.cfg"
        config.write_text(text, encoding="utf-8")
        return Inputs(config, expected)

    def command(self, args: tuple[str, ...], config: Path, spans: Path | None) -> list[str]:
        tail = [*args, "--config", str(config), "--jobs", JOBS]
        if spans is None:
            return [sys.executable, "-m", "kgatnet", *tail]
        return [sys.executable, str(HERE / "tracer.py"), str(spans), *tail]

    def run(self, cmds, inputs: Inputs, spans_dir: Path | None = None, tag: str = ""):
        """Run commands one at a time; returns (wall seconds, peak RSS MB,
        commands that exited non-zero)."""
        wall, peak, bad = 0.0, 0.0, 0
        log = inputs.config.parent / "commands.log"
        for i, args in enumerate(cmds):
            spans = spans_dir / f"{tag}{i}.json" if spans_dir is not None else None
            with open(log, "ab") as out:
                start = time.perf_counter()
                proc = subprocess.Popen(self.command(args, inputs.config, spans), env=self.env,
                                        stdout=out, stderr=out, cwd=ROOT)
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:  # interrupted: stop the command before leaving
                    proc.kill()
                    proc.wait()
                    raise
                wall += time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            peak = max(peak, usage.ru_maxrss / 1024.0)
            self.attempted += 1
            if proc.returncode != 0:
                bad += 1
                self.problems.append(f"{' '.join(args)} exited with {proc.returncode} (see {log})")
        return wall, peak, bad

    def count_failures(self, exited_bad: int, problems: list[str]) -> None:
        """A group of commands fails once per non-zero exit, or once for
        failed output checks when every command exited cleanly."""
        self.problems += problems
        self.failed += exited_bad or (1 if problems else 0)

    def import_seconds(self) -> float:
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", "import kgatnet.cli"], env=self.env,
                              cwd=ROOT, capture_output=True)
        if done.returncode != 0:
            raise Failed(f"kgatnet does not import from {SRC}: {done.stderr.decode()[-500:]}")
        return time.perf_counter() - start

    def set_up(self, dest: Path, spans_dir: Path | None = None) -> tuple[float, Inputs]:
        start = time.perf_counter()
        inputs = self.prepare(dest)
        self.import_seconds()
        _, _, bad = self.run(self.wl.setup_cmds, inputs, spans_dir, "setup")
        if bad:
            self.failed += bad
            raise Failed("set-up failed: " + "; ".join(self.problems))
        return time.perf_counter() - start, inputs

    # --- one measured pass ------------------------------------------------

    def output_problems(self, inputs: Inputs) -> list[str]:
        out = inputs.config.parent / "out"
        problems = checks.check_reports(out / "reports")
        if self.wl.name == "fixture-cv":
            problems += checks.check_accuracy_floor(out / "reports", ACCURACY_FLOOR)
        if inputs.expected is not None:
            problems += checks.check_aggregate(out / "aggregate", inputs.expected)
        return problems

    def measure(self, inputs: Inputs, spans_dir: Path | None = None) -> dict:
        """The measured commands and their output checks; remembers the
        artifacts they left for the reruns to compare against."""
        out = inputs.config.parent / "out"
        if self.wl.cold:
            shutil.rmtree(out, ignore_errors=True)
        run_s, rss, bad = self.run(self.wl.run_cmds, inputs, spans_dir, "run")
        problems = self.output_problems(inputs) if not bad else []
        self.count_failures(bad, problems)
        self.artifacts = checks.snapshot(out)
        metrics_csv = (out / "reports" / "metrics.csv").read_bytes() if not (bad or problems) else None
        return {"run_s": run_s, "peak_rss_mb": rss, "metrics_csv": metrics_csv}

    def rerun(self, inputs: Inputs, spans_dir: Path | None = None) -> tuple[float, int]:
        """The commands again without --force; returns (wall seconds,
        known same-bytes rewrites).  Every stage must skip."""
        rerun_s, _, bad = self.run(self.wl.rerun_cmds, inputs, spans_dir, "rerun")
        problems, rewrites = checks.compare_rerun(
            self.artifacts, checks.snapshot(inputs.config.parent / "out"))
        self.count_failures(bad, problems)
        return rerun_s, rewrites

    def same_reports(self, passes: list[dict], what: str) -> None:
        """Runs of one seed must write byte-identical metrics.csv."""
        reports = {p["metrics_csv"] for p in passes if p["metrics_csv"] is not None}
        if len(reports) > 1:
            self.problems.append(f"metrics.csv differs between {what}")
            self.failed += 1


# --- per-layer metrics from spans --------------------------------------------

def _self_times(spans: list) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, parent, _, start, end, _ in spans:
        children[parent].append((start, end))
    out = []
    for sid, _, _, start, end, _ in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[sid]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


LAYERS = ("pipeline", "preprocess", "kg_builder", "aggregator", "rdf2vec", "gat", "evaluation")


class SpanTable:
    """Spans of one or more traced commands, indexed by name."""

    def __init__(self, files: list[Path]):
        self.spans: list[tuple] = []
        self.by_name: dict[str, list[tuple]] = defaultdict(list)
        self.self_s: dict[str, float] = defaultdict(float)
        self.warnings: set[str] = set()
        for path in files:
            data = json.loads(path.read_text(encoding="utf-8"))
            spans = [tuple(s) for s in data["spans"]]
            for span, own in zip(spans, _self_times(spans)):
                self.self_s[span[2].split(".")[0]] += own
                self.by_name[span[2]].append(span)
                if span[5] and "attrs_error" in span[5]:
                    self.warnings.add(f"{span[2]}: {span[5]['attrs_error']}")
            self.warnings.update(f"{name}: not found, not traced" for name in data["missing"])
            self.spans += spans

    def named(self, name: str) -> list[tuple]:
        return self.by_name.get(name, [])

    def seconds(self, *names: str) -> float:
        return sum(s[4] - s[3] for n in names for s in self.named(n))

    def count(self, name: str) -> int:
        return len(self.named(name))

    def total(self, name: str, key: str) -> int:
        """Sum of one recorded count over the spans of `name`."""
        return sum((s[5] or {}).get(key, 0) for s in self.named(name))

    def largest(self, name: str, key: str) -> int:
        return max(((s[5] or {}).get(key, 0) for s in self.named(name)), default=0)

    def ms_quantile(self, name: str, q: float) -> float:
        durations = sorted(s[4] - s[3] for s in self.named(name))
        if not durations:
            return 0.0
        return 1e3 * durations[min(len(durations) - 1, int(q * len(durations)))]


def accuracy(metrics_csv: Path) -> tuple[float, float]:
    """(avg cell, lowest trait cell) of the accuracy row of metrics.csv."""
    row = checks.read_metrics(metrics_csv)[0].get("accuracy", {})
    return row.get("avg") or 0.0, min((row.get(t) or 0.0 for t in checks.TRAITS), default=0.0)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(run: SpanTable, rerun: SpanTable, *, import_s: float, rewrites: int,
                  metrics_csv: Path, traced_run_s: float, untraced_run_s: float) -> dict[str, float]:
    """Every per-layer metric: spans of the traced set-up and run (`run`)
    and of its rerun, plus what the benchmark measured around them."""
    m: dict[str, float] = {}
    for stage in ("preprocess", "build", "aggregate", "embed", "train", "evaluate"):
        m[f"pipeline.{stage}_s"] = run.seconds(f"pipeline.{stage}")
    m["pipeline.manifest_s"] = run.seconds("pipeline.update_manifest")
    m["pipeline.import_s"] = import_s
    m["pipeline.stages_skipped"] = sum(
        (s[5] or {}).get("skipped", False) for s in rerun.spans if s[2].startswith("pipeline."))
    m["pipeline.rerun_rewrites"] = rewrites

    docs = run.count("preprocess.extract_concepts")
    m["preprocess.docs"] = docs
    m["preprocess.concepts_per_doc"] = _ratio(run.total("preprocess.extract_concepts", "concepts"), docs)
    m["preprocess.extract_s"] = run.seconds("preprocess.extract_concepts")

    statements = run.total("kg_builder.dump_load", "statements")
    lookups = run.count("kg_builder.lookup")
    concepts = run.total("kg_builder.resolve_concepts", "concepts")
    gets = run.named("kg_builder.cache_get")
    fetched = run.total("kg_builder.build_document_graph", "edges")
    kept = run.total("kg_builder.prune_graph", "edges")
    m["kg_builder.dump_load_s"] = run.seconds("kg_builder.dump_load")
    m["kg_builder.dump_statements"] = statements
    m["kg_builder.lookups"] = lookups
    m["kg_builder.lookups_per_concept"] = _ratio(lookups, concepts)
    m["kg_builder.cache_hit_ratio"] = _ratio(sum(1 for s in gets if "triples" in (s[5] or {})), len(gets))
    m["kg_builder.cache_get_s"] = run.seconds("kg_builder.cache_get")
    m["kg_builder.cache_put_s"] = run.seconds("kg_builder.cache_put")
    m["kg_builder.triples_parsed"] = statements + run.total("kg_builder.cache_get", "triples")
    m["kg_builder.title_case_rescues"] = run.total("kg_builder.resolve_concepts", "rescues")
    m["kg_builder.concept_hit_ratio"] = _ratio(run.total("kg_builder.prune_graph", "nodes"), concepts)
    m["kg_builder.edges_fetched"] = fetched
    m["kg_builder.edges_kept"] = kept
    m["kg_builder.prune_keep_ratio"] = _ratio(kept, fetched)

    # aggregate runs once per traced run, so these totals are its counts
    m["aggregator.entities"] = run.total("aggregator.attach_essay_nodes", "entities")
    m["aggregator.essays"] = run.total("aggregator.attach_essay_nodes", "essays")
    m["aggregator.edges"] = (run.total("aggregator.attach_essay_nodes", "entity_edges")
                             + run.total("aggregator.attach_essay_nodes", "essay_edges"))
    m["aggregator.feature_nnz"] = run.total("aggregator.build_feature_matrix", "nnz")
    m["aggregator.build_s"] = run.seconds("aggregator.aggregate_graphs", "aggregator.attach_essay_nodes",
                                          "aggregator.build_feature_matrix")
    m["aggregator.reads"] = run.count("aggregator.read_aggregated")
    m["aggregator.read_s"] = run.seconds("aggregator.read_aggregated")

    centers = run.total("rdf2vec.train_skip_gram", "centers")
    m["rdf2vec.walks"] = run.total("rdf2vec.generate_walks", "walks")
    m["rdf2vec.walk_s"] = run.seconds("rdf2vec.generate_walks")
    m["rdf2vec.centers"] = centers
    m["rdf2vec.skipgram_s"] = run.seconds("rdf2vec.train_skip_gram")
    m["rdf2vec.us_per_center"] = 1e6 * _ratio(m["rdf2vec.skipgram_s"], centers)
    m["rdf2vec.io_s"] = run.seconds("rdf2vec.write_embeddings", "rdf2vec.read_embeddings")

    epochs = run.total("gat.train_trait", "epochs")
    m["gat.tensors_s"] = run.seconds("gat.tensors_from_aggregated")
    m["gat.edges"] = run.largest("gat.tensors_from_aggregated", "edges")
    m["gat.trainings"] = run.count("gat.train_trait")
    m["gat.epochs"] = epochs
    m["gat.steps"] = run.count("gat.loss_and_gradients")
    m["gat.epochs_wasted_ratio"] = _ratio(run.total("gat.train_trait", "wasted"), epochs)
    m["gat.step_ms.p50"] = run.ms_quantile("gat.loss_and_gradients", 0.5)
    m["gat.step_ms.p90"] = run.ms_quantile("gat.loss_and_gradients", 0.9)
    m["gat.layer_fwd_ms.p50"] = run.ms_quantile("gat.attention_layer_forward", 0.5)
    m["gat.layer_bwd_ms.p50"] = run.ms_quantile("gat.attention_layer_backward", 0.5)
    m["gat.adam_ms.p50"] = run.ms_quantile("gat.adam_step", 0.5)
    m["gat.eval_s"] = run.seconds("gat.evaluate_split")
    m["gat.layer_gather_mb"] = run.largest("gat.attention_layer_forward", "gather_bytes") / 1e6
    m["gat.checkpoint_s"] = run.seconds("gat.save_model", "gat.load_model")

    m["evaluation.predictions"] = run.total("evaluation.predict", "predictions")
    m["evaluation.predict_s"] = run.seconds("evaluation.predict")
    m["evaluation.accuracy_avg"], m["evaluation.accuracy_min"] = accuracy(metrics_csv)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = run.self_s[layer]
    m["trace.run_s"] = traced_run_s
    m["trace.overhead_s"] = traced_run_s - untraced_run_s
    m["trace.spans"] = len(run.spans) + len(rerun.spans)
    return m


def end_to_end_metrics(setups: list[float], passes: list[dict], reruns: list[float]) -> dict[str, float]:
    return {
        "run_s": statistics.median(p["run_s"] for p in passes),
        "rerun_s": statistics.median(reruns),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }


# --- the two modes ------------------------------------------------------------

def untraced(runner: Runner, seconds: float) -> dict[str, float]:
    """Set-ups, measured runs and reruns, interleaved so that every kind of
    sample is spread over the whole run: on a shared machine, speed changes
    in phases of seconds to minutes."""
    setups, passes, reruns = [], [], []
    elapsed, inputs = runner.set_up(WORK / runner.tag / "setup0")
    setups.append(elapsed)
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(runner.measure(inputs))
        reruns += [runner.rerun(inputs)[0] for _ in range(RERUNS_PER_PASS)]
        if len(setups) < SETUPS:  # set-ups do not count against --seconds
            setups.append(runner.set_up(WORK / runner.tag / f"setup{len(setups)}")[0])
            deadline += setups[-1]
    runner.same_reports(passes, "runs of one seed")
    for name, samples in (("run_s", [p["run_s"] for p in passes]), ("rerun_s", reruns),
                          ("setup_s", setups)):
        print(f"info {name} samples {len(samples)}: " + " ".join(f"{x:.3f}" for x in samples))
    # what a user reads in metrics.csv; the traced run reports it per layer
    avg, lowest = accuracy(inputs.config.parent / "out" / "reports" / "metrics.csv")
    print(f"info accuracy_avg {avg!r} ratio\ninfo accuracy_min {lowest!r} ratio")
    return end_to_end_metrics(setups, passes, reruns)


def traced(runner: Runner, trace_file: Path) -> dict[str, float]:
    _, inputs = runner.set_up(WORK / runner.tag / "untraced")
    plain = runner.measure(inputs)
    runner.rerun(inputs)
    spans_dir = WORK / runner.tag / "spans"
    spans_dir.mkdir(parents=True)
    _, inputs = runner.set_up(WORK / runner.tag / "traced", spans_dir)
    with_spans = runner.measure(inputs, spans_dir)
    _, rewrites = runner.rerun(inputs, spans_dir)
    runner.same_reports([plain, with_spans], "the untraced and the traced run")

    run = SpanTable(sorted(spans_dir.glob("setup*.json")) + sorted(spans_dir.glob("run*.json")))
    rerun = SpanTable(sorted(spans_dir.glob("rerun*.json")))
    m = layer_metrics(
        run, rerun,
        import_s=statistics.median(runner.import_seconds() for _ in range(3)),
        rewrites=rewrites,
        metrics_csv=inputs.config.parent / "out" / "reports" / "metrics.csv",
        traced_run_s=with_spans["run_s"], untraced_run_s=plain["run_s"])
    for warning in sorted(run.warnings | rerun.warnings):
        print(f"benchmark: trace: {warning}", file=sys.stderr)
    trace_file.write_text(json.dumps({"run": run.spans, "rerun": rerun.spans}), encoding="utf-8")
    return m


def declared(trace: int) -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all three in turn (each ends with its JSON line)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return max(main(["--workload", name, "--seed", str(args.seed), "--seconds",
                         str(args.seconds), "--trace", str(args.trace)]) for name in WORKLOADS)

    if not (PACKAGE / "cli.py").is_file():
        print(f"benchmark: no kgatnet sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # on SIGTERM, unwind through the handlers that stop the running command
    # and remove the working directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    runner = Runner(WORKLOADS[args.workload], args.seed)
    sizes = essays.Sizes() if args.workload != "fixture-cv" else None
    for key, value in machine_context(args, sizes, runner.env, JOBS):
        print(f"context {key} {value}")
    try:
        if args.trace:
            values = traced(runner, WORK / f"trace-{args.workload}-s{args.seed}.json")
        else:
            values = untraced(runner, args.seconds)
    except Failed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK / runner.tag, ignore_errors=True)

    units = declared(args.trace)
    if set(values) != set(units):
        raise SystemExit(f"benchmark: metrics {sorted(set(values) ^ set(units))} "
                         "do not match BENCHMARK.json")
    for name, unit in units.items():
        print(f"metric {name} {values[name]!r} {unit}")
    for problem in runner.problems:
        print(f"benchmark: check failed: {problem}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
