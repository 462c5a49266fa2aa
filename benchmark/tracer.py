"""Span tracing around kgatnet's public functions, from outside the package.

Run as a program, it is a traced stand-in for ``python -m kgatnet``:

    python3 benchmark/tracer.py SPANS.json <stage> --config FILE [options]

It wraps the functions listed in ``install`` with ``time.perf_counter``
spans, runs ``kgatnet.cli.main`` on the remaining arguments, writes every
span to SPANS.json and exits with the CLI's exit code.

A span is (id, parent id, name, start, end, attributes).  Spans are kept in
memory and written once, when the command ends.  Each name is wrapped where
the caller looks it up: ``pipeline`` binds names with ``from .x import y``,
so stage-level calls are wrapped on ``kgatnet.pipeline``; calls made inside
a module on that module; methods on their class.  The per-document stages
run on worker threads, whose outermost spans get the open stage span as
their parent.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._stage: int | None = None
        self.missing: list[str] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, attrs=None, stage: bool = False):
        """`fn` wrapped in a span; `attrs(args, kwargs, result)` may return a
        dict of counts recorded with the span, computed after it ends."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._stage
            sid = next(self._ids)
            stack.append(sid)
            if stage:
                self._stage = sid
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, start, end, {"raised": type(exc).__name__}))
                raise
            finally:
                if stage:
                    self._stage = None
            end = time.perf_counter()
            stack.pop()
            info = None
            if attrs is not None:
                # a count the program's new shapes no longer fit must not
                # fail the traced command; the error is reported instead
                try:
                    info = attrs(args, kwargs, result)
                except Exception as exc:  # noqa: BLE001
                    info = {"attrs_error": f"{type(exc).__name__}: {exc}"}
            self.spans.append((sid, parent, name, start, end, info))
            return result

        return traced

    def patch(self, owner, attr: str, name: str, attrs=None) -> None:
        """Wrap `owner.attr`; a name the program no longer has is recorded
        as missing rather than failing the command."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(name)
            return
        setattr(owner, attr, self.wrap(fn, name, attrs))

    def dump(self, path: Path | str) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans, "missing": self.missing}),
                              encoding="utf-8")


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _stage_info(args, kwargs, result):
    # a stage that found its outputs present reports skipped, written=0 or
    # trained=0, depending on the stage
    skipped = bool(result.get("skipped")) or result.get("written") == 0 or result.get("trained") == 0
    return {"skipped": skipped}


def _best_epoch(history) -> int:
    # the same rule train_trait uses to keep a snapshot: higher validation
    # accuracy, ties broken by lower validation loss
    best, best_acc, best_loss = 0, -1.0, float("inf")
    for epoch, _, val_loss, val_acc in history:
        if val_acc > best_acc or (val_acc == best_acc and val_loss < best_loss):
            best, best_acc, best_loss = epoch, val_acc, val_loss
    return best


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the kgatnet package in place."""
    import kgatnet.gat as gat
    import kgatnet.kg_builder as kg
    import kgatnet.pipeline as pipeline
    import kgatnet.rdf2vec as rdf2vec

    for stage, fn in list(pipeline._STAGE_FUNCS.items()):
        pipeline._STAGE_FUNCS[stage] = tracer.wrap(fn, f"pipeline.{stage}", _stage_info, stage=True)
    tracer.patch(pipeline, "update_manifest", "pipeline.update_manifest")

    tracer.patch(pipeline, "extract_concepts", "preprocess.extract_concepts",
                 lambda a, k, r: {"concepts": len(r)})

    def dump_info(args, kwargs, result):
        # the in-memory index maps each local name to its triples
        return {"statements": len(set().union(*args[0]._by_name.values()))}

    tracer.patch(kg.NTriplesSource, "__init__", "kg_builder.dump_load", dump_info)
    tracer.patch(kg.CachingSource, "lookup", "kg_builder.lookup")
    tracer.patch(kg.TripleCache, "get", "kg_builder.cache_get",
                 lambda a, k, r: {"triples": len(r)})
    tracer.patch(kg.TripleCache, "put", "kg_builder.cache_put")
    tracer.patch(pipeline, "resolve_concepts", "kg_builder.resolve_concepts",
                 lambda a, k, r: {"concepts": len(a[0]), "rescues": len(r - frozenset(a[0]))})
    tracer.patch(pipeline, "build_document_graph", "kg_builder.build_document_graph",
                 lambda a, k, r: {"edges": len(r.edges)})
    tracer.patch(pipeline, "prune_graph", "kg_builder.prune_graph",
                 lambda a, k, r: {"edges": len(r.edges), "nodes": len(r.nodes)})

    tracer.patch(pipeline, "aggregate_graphs", "aggregator.aggregate_graphs")
    tracer.patch(pipeline, "attach_essay_nodes", "aggregator.attach_essay_nodes",
                 lambda a, k, r: {"entities": len(r.entity_nodes), "essays": len(r.essay_nodes),
                                  "entity_edges": len(r.entity_entity_edges),
                                  "essay_edges": len(r.essay_entity_edges)})
    tracer.patch(pipeline, "build_feature_matrix", "aggregator.build_feature_matrix",
                 lambda a, k, r: {"nnz": int(r.nnz)})
    tracer.patch(pipeline, "read_aggregated", "aggregator.read_aggregated")

    tracer.patch(rdf2vec, "generate_walks", "rdf2vec.generate_walks",
                 lambda a, k, r: {"walks": len(r)})
    skip_gram = rdf2vec.train_skip_gram

    def skip_gram_info(args, kwargs, result):
        bound = _bound(skip_gram, args, kwargs)
        return {"centers": bound["epochs"] * sum(map(len, bound["walks"]))}

    tracer.patch(rdf2vec, "train_skip_gram", "rdf2vec.train_skip_gram", skip_gram_info)
    tracer.patch(pipeline, "write_embeddings", "rdf2vec.write_embeddings")
    tracer.patch(pipeline, "read_embeddings", "rdf2vec.read_embeddings")

    tracer.patch(pipeline, "tensors_from_aggregated", "gat.tensors_from_aggregated",
                 lambda a, k, r: {"edges": len(r.src)})
    tracer.patch(pipeline, "train_trait", "gat.train_trait",
                 lambda a, k, r: {"epochs": len(r[1]), "wasted": len(r[1]) - _best_epoch(r[1])})
    tracer.patch(gat, "loss_and_gradients", "gat.loss_and_gradients")
    # bytes of the per-head (E, F) gather each forward layer materializes
    tracer.patch(gat, "attention_layer_forward", "gat.attention_layer_forward",
                 lambda a, k, r: {"gather_bytes": len(a[1].src) * a[2][0].shape[0] * 8 * len(a[2])})
    tracer.patch(gat, "attention_layer_backward", "gat.attention_layer_backward")
    tracer.patch(gat, "adam_step", "gat.adam_step")
    tracer.patch(gat, "evaluate_split", "gat.evaluate_split")
    tracer.patch(pipeline, "save_model", "gat.save_model")
    tracer.patch(pipeline, "load_model", "gat.load_model")

    tracer.patch(pipeline, "predict", "evaluation.predict",
                 lambda a, k, r: {"predictions": len(r)})


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from kgatnet.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
