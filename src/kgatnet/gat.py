"""Multi-head graph attention network over the aggregated graph, trained
with hand-rolled Adam and early stopping on validation accuracy.

Everything is numpy float64.  The graph lives in edge-list form sorted by
destination, so the per-node softmax reduces to `np.*.reduceat` over
contiguous segments; self-loops guarantee every segment is non-empty.
The same order makes the edges the rows of a CSR attention matrix, so the
aggregation is one SpMM.  `GraphTensors` also keeps the src-major order of
the same edges (a stable argsort of `src`, which maps each edge to its
reverse, since both directions of every edge are stored), so the
backward pass scatters into source nodes as one SpMM with the transposed
matrix and one `np.bincount` instead of `np.add.at`.

Each attention layer keeps its L heads as two stacked parameters,
`att{k}.W` of shape (L, F, D) and `att{k}.a` of shape (L, 2F), and runs
them batched along that leading head axis where that needs only
(L, N, F) or (L, E) arrays it keeps anyway: the projection, the attention
scores, the segment softmax and its backward, the aggregation and the two
scatters (block-diagonal SpMMs with one block per head) and the gradient
of W.  The rest loops over the heads of those arrays: the attention-weight
gradient, an (E, F) product over edges and features that all heads at
once would hold L of, and the gradients of the attention vectors, the
projected input and the layer input, since batched they would need
(L, N, F) temporaries.  Heads are combined by averaging (not
concatenation), and the per-essay classifier input is the concatenation
of every attention layer's output, optionally extended with a fixed
per-essay embedding vector.

Every parameter may also carry leading model axes: a stack of M models
has `proj.W` of shape (M, D, n_features), `att{k}.W` of shape
(M, L, F, D) and so on, and the forward pass, the gradients, the loss and
Adam take every model's step in the same numpy calls.  The kernels treat
(M, L) as the batch axis that L is for one model; the input projection
multiplies the shared features by every model's `proj.W` placed side by
side, and the forward's aggregation and the backward's scatter are each
one block-diagonal SpMM over every (model, head).  Only the
attention-weight gradient loops, once per model over its heads.
`train_stack` fits the (fold, trait) classifiers that share a graph and a
training-set size this way, each model with its own generator, split,
batch order, early stopping and snapshot; a model that stops leaves the
stack.

Every kernel adds in the same order as the per-head layer that
`tests/oracles.py` keeps as a reference (one head at a time, scattering
with `np.add.at`: a CSR row adds its edges one at a time in edge order,
from zero, as such a scatter does), and every stacked operation in the
same order as one model's, so results do not depend on how heads or
models are batched: the tests hold a stacked training bit-equal to the
per-model loop kept there.
"""

from __future__ import annotations

import io
import json
import math
import os
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import (
    ConfigError,
    MissingEmbedding,
    NonFiniteLoss,
    ShapeMismatch,
)

LEAKY_SLOPE = 0.2
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 3e-4
    patience: int = 10
    validation_split: float = 0.1
    heads_per_layer: int = 8
    hidden_units: int = 128
    dense_units: int = 128
    attention_layers: int = 5
    weight_decay: float = 0.0
    seed: int = 42
    enriched: bool = False

    def __post_init__(self):
        for name in ("epochs", "batch_size", "heads_per_layer", "hidden_units",
                     "dense_units", "attention_layers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if not 0.0 < self.validation_split < 1.0:
            raise ConfigError("validation_split must be in (0, 1)")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")


# --- activations --------------------------------------------------------

def leaky_relu(x, slope=LEAKY_SLOPE):
    return np.where(x > 0, x, slope * x)


def elu(x):
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def _elu_grad(pre, out):
    # elu'(x) = 1 for x > 0, elu(x) + 1 otherwise
    return np.where(pre > 0, 1.0, out + 1.0)


def softmax_rows(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=-1, keepdims=True)


def log_softmax_rows(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


# --- graph tensors -------------------------------------------------------

@dataclass(frozen=True)
class GraphTensors:
    """Directed edge list (both directions of every undirected edge plus one
    self-loop per node), sorted by (dst, src).  seg_starts[i] is the offset
    of node i's incoming-edge segment.  src_order is the stable argsort of
    src, so edges[src_order] is the same list in src-major order; as every
    edge is stored in both directions, src_order[e] is the reverse of edge
    e, and node i's outgoing edges start at seg_starts[i] in it.  The
    block-diagonal attention matrices that `attention` and
    `transposed_attention` fill are cached for one block count at a time."""

    n_nodes: int
    src: np.ndarray
    dst: np.ndarray
    seg_starts: np.ndarray
    essay_idx: np.ndarray
    src_order: np.ndarray
    _stacked: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_edges(cls, n_nodes, index_pairs, essay_idx):
        pairs = np.asarray(index_pairs, dtype=np.int64).reshape(-1, 2)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        loops = np.arange(n_nodes, dtype=np.int64)
        src = np.concatenate([pairs[:, 0], pairs[:, 1], loops])
        dst = np.concatenate([pairs[:, 1], pairs[:, 0], loops])
        order = np.lexsort((src, dst))
        src, dst = src[order], dst[order]
        seg_starts = np.searchsorted(dst, loops)
        return cls(n_nodes, src, dst, seg_starts,
                   np.asarray(essay_idx, dtype=np.int64), np.argsort(src, kind="stable"))

    @property
    def n_essays(self) -> int:
        return len(self.essay_idx)

    def _block_matrix(self, key, blocks, build):
        """The matrix cached under `key`, made by `build()` on a miss.  Only
        the matrices of one block count are kept: a miss for `blocks`
        drops those of any other count, so a step's forward and transposed
        matrices stay cached side by side."""
        m = self._stacked.get(key)
        if m is None:
            for old in [k for k in self._stacked if k[1] != blocks]:
                del self._stacked[old]
            m = self._stacked[key] = build()
        return m

    def attention(self, alpha):
        """The attention matrices of `alpha` (B, E), one per block, as one
        block-diagonal (B*N, B*N) CSR matrix: row b*N + i lists node i's
        incoming edges in dst-major order, in the columns b*N + src, so its
        data is `alpha` as it is.  The matrix is built once per B and its
        data refilled on each call."""
        B, E = alpha.shape
        n = self.n_nodes

        def build():
            offsets = np.arange(B)[:, None]
            return sp.csr_matrix(
                (np.empty(B * E), (self.src + n * offsets).ravel(),
                 np.append(self.seg_starts + E * offsets, B * E)),
                shape=(B * n, B * n))

        m = self._block_matrix(("attention", B), B, build)
        m.data[:] = alpha.ravel()
        return m

    def transposed_attention(self, alpha):
        """The transposed attention matrices of `alpha` (B, L, E), block b's
        L heads stacked as one block-diagonal (B*L*N, B*N) CSR matrix: row
        (b*L + l)*N + j lists node j's outgoing edges in src-major order,
        in the columns b*N + dst.  The matrix is built once per (B, L) and
        its data refilled on each call, and shares `attention`'s cache."""
        B, L, E = alpha.shape
        n = self.n_nodes

        def build():
            # edge src_order[e] is edge e reversed, so its dst is src[e]
            cols = self.src + n * np.repeat(np.arange(B), L)[:, None]
            return sp.csr_matrix(
                (np.empty(B * L * E), cols.ravel(),
                 np.append(self.seg_starts + E * np.arange(B * L)[:, None], B * L * E)),
                shape=(B * L * n, B * n))

        m = self._block_matrix(("transposed", B * L, L), B * L, build)
        np.take(alpha.reshape(B * L, E), self.src_order, axis=1, out=m.data.reshape(B * L, E))
        return m


def tensors_from_aggregated(agg) -> GraphTensors:
    n_ent = len(agg.entity_nodes)
    essay_idx = np.arange(n_ent, agg.n_nodes)
    return GraphTensors.from_edges(agg.n_nodes, sorted(agg.index_edges()), essay_idx)


def segment_softmax(scores, dst, seg_starts):
    """Softmax of `scores` within each destination segment of the last axis,
    max-stabilized; leading axes (one per head) are independent."""
    seg_max = np.maximum.reduceat(scores, seg_starts, axis=-1)
    ez = np.exp(scores - np.take(seg_max, dst, axis=-1))
    denom = np.add.reduceat(ez, seg_starts, axis=-1)
    return ez / np.take(denom, dst, axis=-1)


def _tree_sum(arrays):
    """Pairwise-tree summation: bitwise-exact scaling for power-of-two
    counts of identical addends, better rounding behaviour in general."""
    items = list(arrays)
    while len(items) > 1:
        nxt = [items[i] + items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


def attention_layer_forward(H, tensors, W, a):
    """One multi-head layer over the stacked head weights W (..., L, F, D)
    and attention vectors a (..., L, 2F), for input H (..., N, D): per-head
    attention sums averaged, then ELU.  Leading axes are models.

    The cache keeps the batched (..., L, N, F) projection Wh and the
    (..., L, E) scores pre and weights alpha."""
    src, dst, seg = tensors.src, tensors.dst, tensors.seg_starts
    fh = W.shape[-2]
    Wh = np.matmul(H[..., None, :, :], W.swapaxes(-1, -2))       # (..., L, N, F)
    # against an (..., F, 1) column, matmul runs the per-head `Wh @ a` GEMV
    pre = (np.take(np.matmul(Wh, a[..., :fh, None])[..., 0], dst, axis=-1)
           + np.take(np.matmul(Wh, a[..., fh:, None])[..., 0], src, axis=-1))  # (..., L, E)
    alpha = segment_softmax(leaky_relu(pre), dst, seg)
    # sums[..., l, i] = sum over edges (i <- j) of alpha[..., l, e] * Wh[..., l, j]:
    # every model's and head's attention matrix in one block-diagonal CSR
    # matrix, whose rows add their edges in order, as a scatter over dst would
    A = tensors.attention(alpha.reshape(-1, len(src)))
    sums = (A @ Wh.reshape(-1, fh)).reshape(Wh.shape)
    avg = _tree_sum(np.moveaxis(sums, -3, 0)) / W.shape[-3]
    out = elu(avg)
    return out, (H, avg, out, Wh, pre, alpha)


def attention_layer_backward(dOut, cache, tensors, W, a):
    """Returns the gradients wrt the layer input, W (..., L, F, D) and
    a (..., L, 2F)."""
    H, avg, out, Wh, pre, alpha = cache
    src, dst, seg = tensors.src, tensors.dst, tensors.seg_starts
    n, (L, fh) = H.shape[-2], W.shape[-3:-1]
    models = math.prod(W.shape[:-3])
    dHeadSum = (dOut * _elu_grad(avg, out)) / L                     # (..., N, F)
    dalpha = np.empty_like(alpha)
    for dHS_m, Wh_m, dalpha_m in zip(dHeadSum.reshape(models, n, fh),
                                     Wh.reshape(models, L, n, fh),
                                     dalpha.reshape(models, L, -1)):
        m = np.take(dHS_m, dst, axis=0)                             # (E, F)
        for l in range(L):
            dalpha_m[l] = np.einsum("ef,ef->e", m, np.take(Wh_m[l], src, axis=0))
    # dWh[..., l, j] = sum over edges (i <- j) of alpha[..., l, e] * dHeadSum[..., i]:
    # every model's and head's transposed attention matrix in one block-diagonal
    # CSR matrix, whose rows add their edges in the order a scatter over src would
    A_T = tensors.transposed_attention(alpha.reshape(models, L, -1))
    dWh = (A_T @ dHeadSum.reshape(models * n, fh)).reshape(Wh.shape)
    # softmax backward within each destination segment
    t = alpha * dalpha
    de = alpha * (dalpha - np.take(np.add.reduceat(t, seg, axis=-1), dst, axis=-1))
    dpre = de * np.where(pre > 0, 1.0, LEAKY_SLOPE)
    dd = np.add.reduceat(dpre, seg, axis=-1)                        # per-destination term
    ds = np.bincount((src + n * np.arange(models * L)[:, None]).ravel(),
                     weights=dpre.ravel(), minlength=models * L * n).reshape(dd.shape)
    # the rest one head at a time, so no (..., L, N, F) temporary is made
    dH = np.zeros_like(H)
    da = np.empty_like(a)
    for l in range(L):
        Wh_T = Wh[..., l, :, :].swapaxes(-1, -2)
        da[..., l, :fh] = np.matmul(Wh_T, dd[..., l, :, None])[..., 0]
        da[..., l, fh:] = np.matmul(Wh_T, ds[..., l, :, None])[..., 0]
        dWh[..., l, :, :] += (dd[..., l, :, None] * a[..., l, None, :fh]
                              + ds[..., l, :, None] * a[..., l, None, fh:])
        dH += np.matmul(dWh[..., l, :, :], W[..., l, :, :])
    dW = np.matmul(dWh.swapaxes(-1, -2), H[..., None, :, :])
    return dH, dW, da


# --- full model ----------------------------------------------------------

@dataclass
class GatModel:
    """The parameters; the geometry is read from their shapes.  Leading
    axes in front of every parameter's own shape are models
    (`stack_shape`): () for one model, (M,) for a stack of M."""

    params: dict[str, np.ndarray] = field(repr=False)

    @property
    def stack_shape(self) -> tuple[int, ...]:
        return self.params["proj.b"].shape[:-1]

    @property
    def n_features(self) -> int:
        return self.params["proj.W"].shape[-1]

    @property
    def dense_units(self) -> int:
        return self.params["proj.W"].shape[-2]

    @property
    def heads(self) -> int:
        return self.params["att0.W"].shape[-3]

    @property
    def hidden_units(self) -> int:
        return self.params["att0.W"].shape[-2]

    @property
    def n_layers(self) -> int:
        return sum(key.startswith("att") for key in self.params) // 2  # att{k}.W, att{k}.a

    @property
    def embed_dim(self) -> int:
        """0 when not enriched."""
        return self.params["clf.W"].shape[-1] - self.n_layers * self.hidden_units


def glorot(rng, shape, fan_in=None, fan_out=None):
    if fan_in is None:
        fan_in = shape[-1]
    if fan_out is None:
        fan_out = shape[0]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def new_model(n_features, config: TrainConfig, embed_dim=0, rng=None) -> GatModel:
    if rng is None:
        rng = np.random.default_rng(config.seed)
    D, Hd = config.dense_units, config.hidden_units
    L, K = config.heads_per_layer, config.attention_layers
    params = {
        "proj.W": glorot(rng, (D, n_features)),
        "proj.b": np.zeros(D),
    }
    in_width = D
    for k in range(K):
        # head by head, each W before its a: the draw order tests/oracles.py pins
        W, a = np.empty((L, Hd, in_width)), np.empty((L, 2 * Hd))
        for l in range(L):
            W[l] = glorot(rng, (Hd, in_width))
            a[l] = glorot(rng, (2 * Hd,), fan_in=2 * Hd, fan_out=1)
        params[f"att{k}.W"], params[f"att{k}.a"] = W, a
        in_width = Hd
    clf_in = K * Hd + embed_dim
    params["clf.W"] = glorot(rng, (2, clf_in))
    params["clf.b"] = np.zeros(2)
    return GatModel(params)


def _forward(model, tensors, X, embeddings):
    if X.shape != (tensors.n_nodes, model.n_features):
        raise ShapeMismatch(
            f"features {X.shape} vs graph ({tensors.n_nodes}, {model.n_features})"
        )
    p = model.params
    lead, n = model.stack_shape, tensors.n_nodes
    # every model's proj.W side by side, so the shared X is multiplied once
    side = np.asarray(X @ p["proj.W"].reshape(-1, model.n_features).T)
    pre0 = (np.moveaxis(side.reshape(n, *lead, model.dense_units), 0, -2)
            + p["proj.b"][..., None, :])
    H = elu(pre0)
    caches, outs = [], []
    Hk = H
    for k in range(model.n_layers):
        Hk, cache = attention_layer_forward(Hk, tensors, p[f"att{k}.W"], p[f"att{k}.a"])
        caches.append(cache)
        outs.append(Hk)
    parts = [np.take(o, tensors.essay_idx, axis=-2) for o in outs]
    if model.embed_dim:
        if embeddings is None:
            raise MissingEmbedding("model is enriched but no embeddings given")
        if embeddings.shape != (tensors.n_essays, model.embed_dim):
            raise ShapeMismatch(
                f"embeddings {embeddings.shape} vs ({tensors.n_essays}, {model.embed_dim})"
            )
        parts.append(np.broadcast_to(embeddings, (*lead, *embeddings.shape)))
    elif embeddings is not None:
        raise ShapeMismatch("model was not built for embeddings")
    concat = np.concatenate(parts, axis=-1)
    logits = np.matmul(concat, p["clf.W"].swapaxes(-1, -2)) + p["clf.b"][..., None, :]
    return logits, concat, caches, pre0, H


def forward(model, tensors, X, embeddings=None):
    """Per-essay class probabilities, rows summing to 1."""
    logits, *_ = _forward(model, tensors, X, embeddings)
    return softmax_rows(logits)


def _rows(logits, positions):
    """logits[..., positions[..., i], :]: the rows at each model's own
    positions, indexed over one flattened model axis."""
    flat = positions.reshape(-1, positions.shape[-1])
    models = np.arange(len(flat))[:, None]
    return logits.reshape(len(flat), *logits.shape[-2:])[models, flat].reshape(
        *positions.shape, logits.shape[-1])


def _picked(logp, y):
    """logp[..., i, y[..., i]]: each row's log-probability of its target."""
    return logp.reshape(-1, logp.shape[-1])[np.arange(y.size), y.ravel()].reshape(y.shape)


def loss_and_gradients(model, tensors, X, batch_positions, targets, embeddings=None,
                       X_T=None):
    """Mean binary cross-entropy over the batch (positions index the essay
    axis) and the gradient for every parameter.  For a stack of models,
    `batch_positions` and `targets` carry the stack's leading axes, one
    batch per model, and the loss is one per model.  `X_T`, when given, is
    `X.T` built once by a caller that takes many steps over the same X.
    Weight decay is left to the caller: `l2_penalty` for the loss and
    `adam_step` for its gradient.  A non-finite loss raises
    `NonFiniteLoss`, whose `model` is the flat index of the first model
    whose loss diverged."""
    batch = np.asarray(batch_positions, dtype=np.int64)
    y = np.asarray(targets, dtype=np.int64)
    if batch.shape != y.shape:
        raise ShapeMismatch("batch and targets must align")
    ordered = np.sort(batch, axis=-1)
    if np.any(ordered[..., 1:] == ordered[..., :-1]):
        raise ValueError("batch positions must be unique")

    logits, concat, caches, pre0, H0 = _forward(model, tensors, X, embeddings)
    B = batch.shape[-1]
    logp = log_softmax_rows(_rows(logits, batch))
    loss = -_picked(logp, y).mean(axis=-1)
    finite = np.isfinite(loss)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise NonFiniteLoss(f"loss diverged: {loss.flat[bad]}", model=bad)

    g = np.exp(logp)
    g.reshape(-1, g.shape[-1])[np.arange(y.size), y.ravel()] -= 1.0
    g /= B
    dlogits = np.zeros_like(logits)
    # the batch is unique within each model, so no row is assigned twice
    flat = batch.reshape(-1, B)
    dlogits.reshape(len(flat), *logits.shape[-2:])[np.arange(len(flat))[:, None], flat] = (
        g.reshape(len(flat), B, -1))

    p = model.params
    grads = {
        "clf.W": np.matmul(dlogits.swapaxes(-1, -2), concat),
        "clf.b": dlogits.sum(axis=-2),
    }
    dconcat = np.matmul(dlogits, p["clf.W"])

    Hd = model.hidden_units
    dH_next = None
    for k in reversed(range(model.n_layers)):
        dOut = np.zeros((*model.stack_shape, tensors.n_nodes, Hd))
        dOut[..., tensors.essay_idx, :] += dconcat[..., k * Hd : (k + 1) * Hd]
        if dH_next is not None:
            dOut += dH_next
        dH_next, grads[f"att{k}.W"], grads[f"att{k}.a"] = attention_layer_backward(
            dOut, caches[k], tensors, p[f"att{k}.W"], p[f"att{k}.a"])

    dpre0 = dH_next * _elu_grad(pre0, H0)
    if X_T is None:
        X_T = X.T
    # the models' dpre0 side by side, as in the forward projection
    lead = model.stack_shape
    side = np.asarray(X_T @ np.moveaxis(dpre0, -2, 0).reshape(tensors.n_nodes, -1))
    grads["proj.W"] = np.moveaxis(side.reshape(-1, *lead, model.dense_units), 0, -1)
    grads["proj.b"] = dpre0.sum(axis=-2)

    return loss, grads


def _decays(name):
    """Whether weight decay applies to the parameter `name` (biases are exempt)."""
    return not name.endswith(".b")


def l2_penalty(loss, params, weight_decay):
    """`loss` plus `weight_decay` times the squared norm of every non-bias
    parameter, added one parameter at a time in `params` order.  For a
    stack, `loss` has the stack's shape and each model gets its own norm."""
    lead = np.shape(loss)
    for name, value in params.items():
        if _decays(name):
            loss = loss + weight_decay * np.sum((value * value).reshape(*lead, -1), axis=-1)
    return loss


def predict(model, tensors, X, positions=None, embeddings=None):
    """Binary predictions (argmax; an exact tie goes to class 0)."""
    probs = forward(model, tensors, X, embeddings)
    if positions is not None:
        probs = probs[np.asarray(positions, dtype=np.int64)]
    return np.argmax(probs, axis=1)


# --- Adam ---------------------------------------------------------------

def _split(flat, shapes):
    """Views into `flat`, one per entry of `shapes`: the leading axes of
    `flat` (models), then that entry's shape."""
    out, start = {}, 0
    for key, shape in shapes.items():
        size = math.prod(shape)
        out[key] = flat[..., start : start + size].reshape(*flat.shape[:-1], *shape)
        start += size
    return out


@dataclass
class AdamState:
    """First and second moments of every parameter, each held in one flat
    buffer; `m` and `v` map parameter names to views into them.  The
    parameters that weight decay applies to, `decayed`, come first in the
    buffers, so their entries form one leading slice.  For a stack of
    models the buffers have one row per model."""

    m_flat: np.ndarray
    v_flat: np.ndarray
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    decayed: tuple[str, ...] = ()

    @classmethod
    def for_params(cls, params, lead=()):
        """Zero moments for `params`, whose leading axes `lead` are models."""
        decayed = tuple(k for k in params if _decays(k))
        order = [*decayed, *(k for k in params if not _decays(k))]
        shapes = {k: params[k].shape[len(lead):] for k in order}
        size = sum(math.prod(s) for s in shapes.values())
        return cls._over(np.zeros((*lead, size)), np.zeros((*lead, size)), shapes, 0, decayed)

    @classmethod
    def _over(cls, m_flat, v_flat, shapes, t, decayed):
        return cls(m_flat, v_flat, _split(m_flat, shapes), _split(v_flat, shapes), t, decayed)

    def shapes(self):
        """Each parameter's shape without the leading model axes."""
        return {k: v.shape[self.m_flat.ndim - 1:] for k, v in self.m.items()}

    def take(self, rows):
        """The state of the models `rows` of a one-axis stack."""
        return AdamState._over(self.m_flat[rows], self.v_flat[rows], self.shapes(),
                               self.t, self.decayed)


def adam_step(params, grads, state: AdamState, lr,
              beta1=ADAM_BETA1, beta2=ADAM_BETA2, eps=ADAM_EPS, weight_decay=0.0):
    """In-place Adam update with bias correction, over every parameter of
    `state` at once; `grads` must hold a gradient for each of them.  A
    `weight_decay` first adds the gradient of `l2_penalty`,
    `2 * weight_decay * value`, to every non-bias gradient."""
    state.t += 1
    c1 = 1.0 - beta1**state.t
    c2 = 1.0 - beta2**state.t
    lead = state.m_flat.shape[:-1]
    g = np.concatenate([grads[key].reshape(*lead, -1) for key in state.m], axis=-1)
    if weight_decay:
        decayed = np.concatenate([params[key].reshape(*lead, -1) for key in state.decayed],
                                 axis=-1)
        g[..., : decayed.shape[-1]] += 2.0 * weight_decay * decayed
    m, v = state.m_flat, state.v_flat
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    step = lr * (m / c1) / (np.sqrt(v / c2) + eps)
    for key, delta in _split(step, state.shapes()).items():
        params[key] -= delta
    return params, state


# --- training loop -------------------------------------------------------

def evaluate_split(model, tensors, X, positions, y, embeddings=None):
    """(mean cross-entropy, accuracy) on the given essay positions.  For a
    stack, `positions` and `y` carry its leading axes, and so do both
    results."""
    logits, *_ = _forward(model, tensors, X, embeddings)
    pos = np.asarray(positions, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    logp = log_softmax_rows(_rows(logits, pos))
    loss = -_picked(logp, y).mean(axis=-1)
    acc = (np.argmax(logp, axis=-1) == y).mean(axis=-1)
    return loss, acc


def _fit_and_validation(rng, train_idx, validation_split):
    """The essays one model fits and the seeded `validation_split` share of
    `train_idx` it validates on."""
    shuffled = rng.permutation(np.asarray(train_idx, dtype=np.int64))
    n_val = max(1, int(round(len(train_idx) * validation_split)))
    if n_val >= len(train_idx):
        raise ConfigError("validation split leaves no training essays")
    return shuffled[n_val:], shuffled[:n_val]


def train_stack(tensors, X, ys, config: TrainConfig,
                train_idx=None, embeddings=None, seeds=None):
    """Train one binary classifier per label vector in `ys`, transductively,
    as one stack of models that take every step together.

    Model i may use the labels ys[i] of the essay positions train_idx[i]
    (every essay when `train_idx` is None), of which `validation_split` is
    held out (seeded shuffle) for early stopping.  Model i draws its split,
    its initial weights and its batch orders from a generator seeded with
    seeds[i] (`config.seed` when `seeds` is None), so it ends exactly as if
    trained alone.  The models
    must fit and validate on equally many essays, so that their batches
    have one shape.

    Yields (i, best-validation-accuracy snapshot, per-epoch history rows
    (epoch, train_loss, val_loss, val_accuracy)) for each model i as it
    leaves the stack: when its patience runs out, or after the last epoch.
    A diverging loss raises `NonFiniteLoss` whose `model` is the index in
    `ys` of the model that diverged.
    """
    if config.enriched and embeddings is None:
        raise MissingEmbedding("enriched config requires embeddings")
    M = len(ys)
    train_idx = [np.arange(tensors.n_essays)] * M if train_idx is None else train_idx
    seeds = [config.seed] * M if seeds is None else seeds
    embed_dim = embeddings.shape[1] if config.enriched else 0

    rngs, fits, vals, best = [], [], [], []
    for t_idx, seed in zip(train_idx, seeds, strict=True):
        rng = np.random.default_rng(seed)
        fit, val = _fit_and_validation(rng, t_idx, config.validation_split)
        rngs.append(rng)
        fits.append(fit)
        vals.append(val)
        # the initial weights are each model's first snapshot
        best.append(new_model(X.shape[1], config, embed_dim=embed_dim, rng=rng).params)
    if len({len(f) for f in fits}) > 1 or len({len(v) for v in vals}) > 1:
        raise ValueError("the models of a stack must fit and validate on equally many essays")

    Y = np.stack([np.asarray(y, dtype=np.int64) for y in ys])
    V = np.stack(vals)
    YV = np.take_along_axis(Y, V, axis=1)
    model = GatModel({k: np.stack([p[k] for p in best]) for k in best[0]})
    state = AdamState.for_params(model.params, lead=(M,))
    X_T = X.T

    best_acc, best_loss, since = [-np.inf] * M, [np.inf] * M, [0] * M
    histories = [[] for _ in range(M)]
    active = list(range(M))   # the index in ys of each row of the stack
    for epoch in range(1, config.epochs + 1):
        order = np.stack([rngs[i].permutation(fits[i]) for i in active])
        Y_active = Y[active]
        batch_losses = []
        for start in range(0, order.shape[1], config.batch_size):
            batch = order[:, start : start + config.batch_size]
            try:
                loss, grads = loss_and_gradients(
                    model, tensors, X, batch, np.take_along_axis(Y_active, batch, axis=1),
                    embeddings, X_T=X_T)
            except NonFiniteLoss as exc:
                raise NonFiniteLoss(str(exc), model=active[exc.model]) from None
            if config.weight_decay:
                loss = l2_penalty(loss, model.params, config.weight_decay)
            adam_step(model.params, grads, state, config.learning_rate,
                      weight_decay=config.weight_decay)
            batch_losses.append(loss)
        val_loss, val_acc = evaluate_split(model, tensors, X, V[active], YV[active], embeddings)
        # one model's mean over its batches, as a contiguous row
        train_loss = np.stack(batch_losses, axis=-1).mean(axis=-1)
        stay = []
        for row, i in enumerate(active):
            histories[i].append(
                (epoch, float(train_loss[row]), float(val_loss[row]), float(val_acc[row])))
            # accuracy on a small validation set saturates quickly, so ties are
            # broken by loss; otherwise a lucky early epoch would freeze training
            if val_acc[row] > best_acc[i] or (
                    val_acc[row] == best_acc[i] and val_loss[row] < best_loss[i]):
                best_acc[i], best_loss[i] = val_acc[row], val_loss[row]
                best[i] = {k: v[row].copy() for k, v in model.params.items()}
                since[i] = 0
            else:
                since[i] += 1
            if since[i] < config.patience:
                stay.append(row)
            else:
                yield i, GatModel(best[i]), histories[i]
        if len(stay) < len(active):
            active = [active[row] for row in stay]
            if not active:
                return
            model.params = {k: v[stay] for k, v in model.params.items()}
            state = state.take(stay)
    for i in active:
        yield i, GatModel(best[i]), histories[i]


# --- persistence ---------------------------------------------------------

def save_model(model: GatModel, path):
    meta = {"version": CHECKPOINT_VERSION}
    buf = io.BytesIO()
    np.savez(buf, __meta__=np.array(json.dumps(meta)), **model.params)
    _write_atomically(path, buf.getvalue())


def load_model(path) -> GatModel:
    """The model saved at `path`; ValueError for a file that is not a
    readable checkpoint of this version (truncated, not an archive, no
    metadata, another version)."""
    try:
        with np.load(path) as npz:
            if "__meta__" not in npz.files:
                raise ValueError("no checkpoint metadata")
            meta = json.loads(str(npz["__meta__"][()]))
            if meta.get("version") != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {meta.get('version')}")
            params = {k: npz[k] for k in npz.files if k != "__meta__"}
    except (zipfile.BadZipFile, EOFError) as exc:
        raise ValueError(f"not a readable checkpoint: {exc}") from None
    return GatModel(params)


def write_history(history, path):
    lines = ["epoch,train_loss,val_loss,val_accuracy"]
    for epoch, tr, vl, va in history:
        lines.append(f"{epoch},{tr:.6f},{vl:.6f},{va:.6f}")
    _write_atomically(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _write_atomically(path, data: bytes) -> None:
    """Write through a temp file next to `path` and rename it into place, so
    an interrupted write never leaves a partial file that looks finished."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
