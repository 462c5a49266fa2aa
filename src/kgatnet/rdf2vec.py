"""Random-walk corpus over the aggregated graph and skip-gram node vectors.

Walks are node-only sequences (predicates are gone by this phase) with
uniform neighbor choice and no backtracking prohibition.  The skip-gram
trainer is plain negative sampling with sequential updates, so a fixed seed
reproduces the matrix bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .aggregator import AggregatedGraph
from .errors import ConfigError, EmptyCorpus, NonFiniteLoss, UnknownNode
from .gat import _write_atomically


@dataclass(frozen=True)
class EmbedConfig:
    dim: int = 500
    max_depth: int = 5
    walks_per_node: int = 5
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    min_learning_rate: float = 1e-4
    seed: int = 42

    def __post_init__(self):
        for name in ("dim", "max_depth", "walks_per_node", "window", "epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.negatives < 0:
            raise ConfigError("negatives must be >= 0")
        if not 0 < self.min_learning_rate <= self.learning_rate:
            raise ConfigError("need 0 < min_learning_rate <= learning_rate")


def generate_walks(agg: AggregatedGraph, max_depth: int, walks_per_node: int,
                   seed: int) -> list[list[str]]:
    """Up to walks_per_node uniform random walks from every node (entity and
    essay alike), each traversing at most max_depth edges, stopping early at
    dead ends.  Duplicate walks from the same root are emitted once, which is
    why low-degree roots yield fewer than walks_per_node walks.

    Each (root, attempt) pair gets its own seeded generator, so corpora are
    reproducible and roots could be processed in parallel.
    """
    if max_depth < 1 or walks_per_node < 1:
        raise ConfigError("max_depth and walks_per_node must be >= 1")
    names = list(agg.entity_nodes) + list(agg.essay_nodes)
    nbrs: list[list[int]] = [[] for _ in names]
    for i, j in sorted(agg.index_edges()):
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

    def __post_init__(self):
        self._index = {n: i for i, n in enumerate(self.node_ids)}

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def vector_for(self, node_id: str) -> np.ndarray:
        try:
            return self.vectors[self._index[node_id]]
        except KeyError:
            raise UnknownNode(node_id) from None

    def rows_for(self, node_ids: Sequence[str]) -> np.ndarray:
        return np.stack([self.vector_for(n) for n in node_ids])


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def train_skip_gram(walks: Sequence[Sequence[str]], dim=500, window=5,
                    negatives=5, epochs=5, lr=0.025, min_lr=1e-4,
                    seed=0) -> tuple[EmbeddingMatrix, list[float]]:
    """Skip-gram with negative sampling over walks-as-sentences.

    Unigram^0.75 noise distribution, fixed (non-shrinking) context window,
    learning rate decayed linearly per center word down to min_lr.  Negative
    draws equal to the positive context are skipped rather than redrawn.
    Returns the input-vector matrix and per-epoch mean pair losses.
    """
    if not walks:
        raise EmptyCorpus("no walks to train on")
    vocab: dict[str, int] = {}
    counts: list[int] = []
    for walk in walks:
        for node in walk:
            idx = vocab.setdefault(node, len(vocab))
            if idx == len(counts):
                counts.append(0)
            counts[idx] += 1
    n = len(vocab)
    noise = np.asarray(counts, dtype=np.float64) ** 0.75
    cum_noise = np.cumsum(noise / noise.sum())

    rng = np.random.default_rng([seed])
    w_in = rng.uniform(-0.5 / dim, 0.5 / dim, size=(n, dim))
    w_out = np.zeros((n, dim))

    indexed = [[vocab[node] for node in walk] for walk in walks]
    total_centers = epochs * sum(len(w) for w in indexed)
    processed = 0
    epoch_losses = []
    for _ in range(epochs):
        loss_sum = 0.0
        n_pairs = 0
        for walk in indexed:
            for pos, center in enumerate(walk):
                step_lr = max(min_lr, lr * (1.0 - processed / total_centers))
                processed += 1
                lo = max(0, pos - window)
                hi = min(len(walk), pos + window + 1)
                for ctx_pos in range(lo, hi):
                    if ctx_pos == pos:
                        continue
                    context = walk[ctx_pos]
                    v = w_in[center]
                    u = w_out[context]
                    score = _sigmoid(v @ u)
                    loss_sum -= np.log(max(score, 1e-12))
                    g_pos = score - 1.0
                    dv = g_pos * u
                    w_out[context] = u - step_lr * g_pos * v
                    if negatives:
                        draws = np.searchsorted(
                            cum_noise, rng.random(negatives), side="right"
                        )
                        for neg in draws:
                            if neg == context:
                                continue
                            u_n = w_out[neg]
                            s_n = _sigmoid(v @ u_n)
                            loss_sum -= np.log(max(1.0 - s_n, 1e-12))
                            dv = dv + s_n * u_n
                            w_out[neg] = u_n - step_lr * s_n * v
                    w_in[center] = v - step_lr * dv
                    n_pairs += 1
        epoch_loss = loss_sum / max(n_pairs, 1)
        if not (np.isfinite(epoch_loss) and np.all(np.isfinite(w_in))
                and np.all(np.isfinite(w_out))):
            raise NonFiniteLoss("skip-gram training diverged")
        epoch_losses.append(float(epoch_loss))

    order = tuple(vocab)  # insertion order == first-seen order
    return EmbeddingMatrix(order, w_in), epoch_losses


def train_embeddings(agg: AggregatedGraph, config: EmbedConfig) -> EmbeddingMatrix:
    walks = generate_walks(agg, config.max_depth, config.walks_per_node, config.seed)
    matrix, _ = train_skip_gram(
        walks, dim=config.dim, window=config.window, negatives=config.negatives,
        epochs=config.epochs, lr=config.learning_rate,
        min_lr=config.min_learning_rate, seed=config.seed,
    )
    return matrix


# --- persistence (word2vec text format) ----------------------------------

def write_embeddings(matrix: EmbeddingMatrix, path: Path | str) -> None:
    lines = [f"{len(matrix.node_ids)} {matrix.dim}"]
    for node_id, row in zip(matrix.node_ids, matrix.vectors):
        lines.append(node_id + " " + " ".join(repr(float(v)) for v in row))
    _write_atomically(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_embeddings(path: Path | str) -> EmbeddingMatrix:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    n, dim = (int(x) for x in lines[0].split())
    ids, rows = [], []
    for line in lines[1 : 1 + n]:
        parts = line.split(" ")
        if len(parts) != dim + 1:
            raise ValueError(f"embedding row for {parts[0]!r} has wrong width")
        ids.append(parts[0])
        rows.append([float(x) for x in parts[1:]])
    if len(ids) != n:
        raise ValueError("embedding file truncated")
    return EmbeddingMatrix(tuple(ids), np.array(rows, dtype=np.float64))
