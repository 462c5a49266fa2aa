"""Random-walk corpus over the aggregated graph and skip-gram node vectors.

Walks are node-only sequences (predicates are gone by this phase) with
uniform neighbor choice and no backtracking prohibition.  The skip-gram
trainer is negative sampling with one batched update per center word: the
center's contexts and noise draws are scored together and applied at once,
while centers stay sequential in corpus order, so a fixed seed reproduces
the matrix bit for bit.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .aggregator import AggregatedGraph
from .atomic import write_atomically
from .config import EmbedConfig
from .errors import EmptyCorpus, NonFiniteLoss, UnknownNode


def generate_walks(agg: AggregatedGraph, max_depth: int, walks_per_node: int,
                   seed: int) -> list[list[str]]:
    """Up to walks_per_node uniform random walks from every node (entity and
    essay alike), each traversing at most max_depth edges, stopping early at
    dead ends.  Duplicate walks from the same root are emitted once, which is
    why low-degree roots yield fewer than walks_per_node walks.

    Each (root, attempt) pair gets its own seeded generator, so corpora are
    reproducible and roots could be processed in parallel.  `EmbedConfig`
    holds both counts to at least 1.
    """
    names = list(agg.entity_nodes) + list(agg.essay_nodes)
    nbrs: list[list[int]] = [[] for _ in names]
    for i, j in agg.index_edges():
        nbrs[i].append(j)
        nbrs[j].append(i)
    for lst in nbrs:
        lst.sort()

    walks = []
    for root in range(len(names)):
        seen = set()
        for attempt in range(walks_per_node):
            rng = np.random.default_rng([seed, root, attempt])
            path = [root]
            cur = root
            for _ in range(max_depth):
                options = nbrs[cur]
                if not options:
                    break
                cur = options[int(rng.integers(len(options)))]
                path.append(cur)
            key = tuple(path)
            if key not in seen:
                seen.add(key)
                walks.append([names[k] for k in path])
    return walks


@dataclass
class EmbeddingMatrix:
    node_ids: tuple[str, ...]
    vectors: np.ndarray  # (n_nodes, dim), finite

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


# walks per block of skip-gram index arrays: a block's arrays are a few the
# length of its (center, target) rows, so small blocks keep them to tens of
# kB however long the corpus is, and the per-block numpy calls, a few dozen,
# still cost well under a microsecond per center
_CHUNK_WALKS = 32


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _chunk_targets(block, vocab, window, negatives, cum_noise, rng):
    """Index arrays of one block of walks, whose nodes, as `vocab` ids, are
    the block's centers in corpus order.

    Every center's targets are its contexts in walk order, each followed by
    its `negatives` noise draws; a draw equal to its own context is dropped.
    The draws are one `rng.random` call in pair order.  Returns the centers,
    the targets, their labels (1 context, 0 noise), the bounds of each
    center's run of targets, each center's distinct targets with their
    bounds, and every target's index among its center's distinct targets.
    """
    lengths = np.array([len(w) for w in block])
    tokens = np.array([vocab[node] for w in block for node in w], dtype=np.int64)
    n = len(tokens)
    positions = np.arange(n) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    span = min(window, int(lengths.max()) - 1)
    offsets = np.concatenate([np.arange(-span, 0), np.arange(1, span + 1)])
    ctx_pos = positions[:, None] + offsets
    valid = (ctx_pos >= 0) & (ctx_pos < np.repeat(lengths, lengths)[:, None])
    center_of_pair, col = np.nonzero(valid)  # center-major, context ascending
    contexts = tokens[center_of_pair + offsets[col]]
    n_pairs = len(contexts)

    draws = np.searchsorted(cum_noise, rng.random(n_pairs * negatives), side="right")
    per_pair = np.concatenate([contexts[:, None], draws.reshape(n_pairs, negatives)], axis=1)
    keep = per_pair != contexts[:, None]
    keep[:, 0] = True
    targets = per_pair[keep]
    labels = np.zeros(per_pair.shape)
    labels[:, 0] = 1.0
    labels = labels[keep]
    owner = np.broadcast_to(center_of_pair[:, None], per_pair.shape)[keep]
    bounds = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=n))])

    # distinct targets per center: sort by (owner, target), mark first copies
    order = np.lexsort((targets, owner))
    sorted_owner, sorted_targets = owner[order], targets[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (sorted_owner[1:] != sorted_owner[:-1]) | (sorted_targets[1:] != sorted_targets[:-1])
    distinct = sorted_targets[first]
    distinct_bounds = np.concatenate(
        [[0], np.cumsum(np.bincount(sorted_owner[first], minlength=n))])
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    inverse -= distinct_bounds[owner]
    return tokens, targets, labels, bounds, distinct, distinct_bounds, inverse


def train_skip_gram(walks: Sequence[Sequence[str]], dim: int, window: int, negatives: int,
                    epochs: int, lr: float, min_lr: float,
                    seed: int) -> tuple[EmbeddingMatrix, list[float], int]:
    """Skip-gram with negative sampling over walks-as-sentences.

    Unigram^0.75 noise distribution, fixed (non-shrinking) context window,
    learning rate decayed linearly per center word down to min_lr.  Each
    center takes one step: every context and noise draw is scored against
    the center's vector as it was before the step, duplicate targets sum
    their updates, and the center's vector moves once.  Negative draws equal
    to their own context are dropped rather than redrawn.  Returns the
    input-vector matrix, the per-epoch mean pair losses and the (center,
    context) pairs trained, summed over the epochs.
    """
    if not walks:
        raise EmptyCorpus("no walks to train on")
    counts = Counter(itertools.chain.from_iterable(walks))  # in first-seen order
    vocab = {node: idx for idx, node in enumerate(counts)}
    n = len(vocab)
    noise = np.fromiter(counts.values(), dtype=np.float64, count=n) ** 0.75
    cum_noise = np.cumsum(noise / noise.sum())
    cum_noise[-1] = 1.0  # a uniform draw just below 1 must not fall off the end

    rng = np.random.default_rng([seed])
    w_in = rng.uniform(-0.5 / dim, 0.5 / dim, size=(n, dim))
    w_out = np.zeros((n, dim))

    total_centers = epochs * counts.total()
    processed = total_pairs = 0
    epoch_losses = []
    for _ in range(epochs):
        loss_sum = 0.0
        n_pairs = 0
        for start in range(0, len(walks), _CHUNK_WALKS):
            tokens, targets, labels, bounds, distinct, distinct_bounds, inverse = _chunk_targets(
                walks[start : start + _CHUNK_WALKS], vocab, window, negatives, cum_noise, rng)
            step = np.arange(processed, processed + len(tokens))
            step_lrs = np.maximum(min_lr, lr * (1.0 - step / total_centers)).tolist()
            processed += len(tokens)
            scores = np.empty(len(targets))
            b = bounds.tolist()
            db = distinct_bounds.tolist()
            for c, center in enumerate(tokens.tolist()):
                lo, hi = b[c], b[c + 1]
                if lo == hi:
                    continue
                rows = distinct[db[c] : db[c + 1]]
                back = inverse[lo:hi]
                v = w_in[center]
                u = w_out.take(rows, axis=0)  # the rows as they were before this step
                s = _sigmoid(u @ v)[back]
                scores[lo:hi] = s
                g = step_lrs[c] * np.bincount(back, weights=s - labels[lo:hi],
                                              minlength=len(rows))
                w_out[rows] = u - g[:, None] * v
                v -= g @ u
            hit = np.where(labels == 1.0, scores, 1.0 - scores)
            loss_sum -= float(np.sum(np.log(np.maximum(hit, 1e-12))))
            n_pairs += int(np.sum(labels))
        epoch_loss = loss_sum / max(n_pairs, 1)
        if not (np.isfinite(epoch_loss) and np.all(np.isfinite(w_in))
                and np.all(np.isfinite(w_out))):
            raise NonFiniteLoss("skip-gram training diverged")
        epoch_losses.append(float(epoch_loss))
        total_pairs += n_pairs

    return EmbeddingMatrix(tuple(vocab), w_in), epoch_losses, total_pairs


def train_embeddings(agg: AggregatedGraph,
                     config: EmbedConfig) -> tuple[EmbeddingMatrix, dict]:
    """Walks over `agg`, their skip-gram vectors, and the run's counters: the
    number of walks, the centers and pairs trained summed over the epochs,
    and the last epoch's mean pair loss."""
    walks = generate_walks(agg, config.walk_depth, config.walks_per_node, config.seed)
    matrix, losses, pairs = train_skip_gram(
        walks, dim=config.embed_dim, window=config.window, negatives=config.negatives,
        epochs=config.embed_epochs, lr=config.embed_learning_rate,
        min_lr=config.embed_min_learning_rate, seed=config.seed,
    )
    return matrix, {"walks": len(walks), "centers": config.embed_epochs * sum(map(len, walks)),
                    "pairs": pairs, "loss": losses[-1]}


# --- persistence (word2vec text format) ----------------------------------

def write_embeddings(matrix: EmbeddingMatrix, path: Path | str) -> None:
    lines = [f"{len(matrix.node_ids)} {matrix.dim}"]
    for node_id, row in zip(matrix.node_ids, matrix.vectors):
        lines.append(node_id + " " + " ".join(repr(float(v)) for v in row))
    write_atomically(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_embeddings(path: Path | str, node_ids: Sequence[str]) -> np.ndarray:
    """The vectors of `node_ids`, in that order, from a file that
    `write_embeddings` wrote.  Only their rows are parsed to floats, but
    every row's field count and the row count are checked: ValueError for
    a malformed file (an empty one included), UnknownNode for an id the
    file lacks.  An id listed twice reads its last row."""
    wanted = set(node_ids)
    lines, count = {}, 0
    with open(path, encoding="utf-8") as fh:
        n, dim = (int(x) for x in fh.readline().split())
        for line in itertools.islice(fh, n):
            line = line.rstrip("\n")
            node = line.partition(" ")[0]
            if line.count(" ") != dim:
                raise ValueError(f"embedding row for {node!r} has wrong width")
            if node in wanted:
                lines[node] = line
            count += 1
    if count != n:
        raise ValueError("embedding file truncated")
    out = np.empty((len(node_ids), dim))
    for row, node in enumerate(node_ids):
        try:
            line = lines[node]
        except KeyError:
            raise UnknownNode(node) from None
        out[row] = [float(x) for x in line.split(" ")[1:]]
    return out
