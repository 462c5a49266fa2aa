"""Multi-head graph attention network over the aggregated graph, trained
with hand-rolled Adam and early stopping on validation accuracy.

Everything is numpy float64.  The graph lives in edge-list form sorted by
destination, so the per-node softmax reduces to `np.*.reduceat` over
contiguous segments; self-loops guarantee every segment is non-empty.
The same order makes the edges the rows of a CSR attention matrix, so the
aggregation is one SpMM, and the backward's scatter into source nodes is
one SpMM with that matrix's transpose, scipy's CSC view of the same
arrays, which adds each source's terms in destination order.  The view is
made once, on the first backward, and cached beside the matrix, so
refilling the matrix's data refills both.

The classifier reads only the essays' rows, and the essays are the last
nodes, so their incoming edges are a suffix of the dst-sorted edges.  The
last attention layer runs over that suffix, `GraphTensors.essay_view`,
whose destination rows are the essays alone, in training and in
inference.  Its projection and the products of its backward still run
over every node, with zero rows off the essays, as row-subset products
could round differently; so a step stays bit-equal to the full step,
every layer over every edge, that `tests/oracles.py` keeps.  Inference
(`forward`, `predict`) keeps no backward cache: each layer's goes as soon
as the next layer has its input, and only the essay rows of each output
are kept.

A layer's backward cache holds its input and output, the projection Wh,
the attention weights alpha and a one-byte kink mask of the scores,
`pre > 0`, in place of the float scores: LeakyReLU writes over the scores,
the segment softmax turns that buffer into alpha in place, and the
backward builds the softmax gradient in one buffer and multiplies it by
LeakyReLU's derivative, read from the mask.  ELU's derivative is read
from its output, so neither a layer's head average nor the projection's
pre-activation is kept.

Each attention layer keeps its L heads as two stacked parameters,
`att{k}.W` of shape (L, F, D) and `att{k}.a` of shape (L, 2F), and runs
them batched along that leading head axis where that needs only
(L, N, F) or (L, E) arrays it keeps anyway: the projection, the attention
scores, the segment softmax and its backward, the aggregation and the two
scatters (block-diagonal SpMMs with one block per head) and the gradient
of W.  The rest of the backward loops over the heads of those arrays:
the attention-weight gradient, an (E, F) product over edges and features
that all heads at once would hold L of, and the gradients of the
attention vectors, the projected input and the layer input, since
batched they would need (L, N, F) temporaries.  Heads are combined by
averaging (not concatenation), and the per-essay classifier input is the
concatenation of every attention layer's output, optionally extended
with a fixed per-essay embedding vector.

Every parameter may also carry leading model axes: a stack of M models
has `proj.W` of shape (M, D, n_features), `att{k}.W` of shape
(M, L, F, D) and so on, and the forward pass, the gradients, the loss and
Adam take every model's step in the same numpy calls.  The kernels treat
(M, L) as the batch axis that L is for one model; the input projection
multiplies the shared features by every model's `proj.W` placed side by
side, and the forward's aggregation and the backward's scatter are each
one SpMM with the same block-diagonal matrix over every (model, head),
the backward's with its transpose and each model's output gradient
repeated once per head.  The attention-weight
gradient loops once per model over its heads, the backward's last
products once per head over every model.
`train_stack` fits the (fold, trait) classifiers that share a graph and a
training-set size this way, each model with its own generator, split,
batch order, early stopping and snapshot; a model that stops leaves the
stack.  The stack's state is held flat, one row of P values per model:
its parameters, the two Adam moments and the best snapshots are (M, P)
arrays, `model.params` are views into the parameter rows, Adam is
elementwise arithmetic over whole rows, and a model leaves by row
selection.  A step is `_forward`, then `loss_and_gradients` on its
result, then weight decay, added to the loss and to the flat gradient
rows one decayed parameter's columns at a time (`_weight_decay`), then
`adam_step`.  An epoch's validation forward is also the
next epoch's first step's, as the parameters have not moved in between;
only a departure, which changes the rows, makes that step run its own.
The process's heap keeps what a step frees for the next one
(`_keep_freed_memory`).

Every kernel adds in the same order as the per-head layer that
`tests/oracles.py` keeps as a reference (one head at a time, scattering
with `np.add.at`: a CSR row adds its edges one at a time in edge order,
from zero, as such a scatter does), and every stacked operation in the
same order as one model's, so results do not depend on how heads or
models are batched: the tests hold a stacked training bit-equal to the
per-model loop kept there.
"""

from __future__ import annotations

import ctypes
import io
import json
import math
import zipfile
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .atomic import write_atomically
from .config import TrainConfig
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


# --- activations --------------------------------------------------------

def elu(x):
    # expm1(x) >= x for x <= 0, so the larger of x and expm1(min(x, 0)) is
    # x where x > 0 and expm1(x) elsewhere
    out = np.minimum(x, 0.0)
    np.expm1(out, out=out)
    return np.maximum(x, out, out=out)


def _elu_grad(out):
    """elu'(x) from out = elu(x): 1 for x > 0, out + 1 otherwise, that is
    out + 1 capped at 1, as out = x > 0 there and out <= 0 elsewhere."""
    g = out + 1.0
    return np.minimum(g, 1.0, out=g)


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
    of node i's incoming-edge segment.  The last n_essays nodes are the
    essays, the rows the classifier reads.

    `essay_view` is the same kind of object for the edges into the essays
    alone.  Its destination rows are the essays: dst[e] is the essay row
    of edge e, node first_row + dst[e], and seg_starts has one entry per
    essay; src and n_nodes keep the whole graph's numbering.

    The block-diagonal attention matrix that `attention` fills, and its
    transposed view once a backward asks for it, are cached for one block
    count at a time; the essay view keeps its own."""

    n_nodes: int
    src: np.ndarray
    dst: np.ndarray
    seg_starts: np.ndarray
    n_essays: int
    first_row: int = 0
    _stacked: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_edges(cls, n_nodes, index_pairs, n_essays):
        pairs = np.asarray(index_pairs, dtype=np.int64).reshape(-1, 2)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        loops = np.arange(n_nodes, dtype=np.int64)
        src = np.concatenate([pairs[:, 0], pairs[:, 1], loops])
        dst = np.concatenate([pairs[:, 1], pairs[:, 0], loops])
        order = np.lexsort((src, dst))
        src, dst = src[order], dst[order]
        return cls(n_nodes, src, dst, np.searchsorted(dst, loops), n_essays)

    @cached_property
    def essay_view(self) -> GraphTensors:
        """The edges into the last n_essays destination rows, a suffix of
        the dst-sorted edges, with those rows as the view's only ones."""
        skip = len(self.seg_starts) - self.n_essays
        cut = self.seg_starts[skip] if self.n_essays else len(self.src)
        return GraphTensors(self.n_nodes, self.src[cut:], self.dst[cut:] - skip,
                            self.seg_starts[skip:] - cut, self.n_essays, self.first_row + skip)

    def attention(self, alpha, transposed=False):
        """The attention matrices of `alpha` (B, E), one per block, as one
        block-diagonal (B*R, B*N) CSR matrix over the R destination rows:
        row b*R + i lists row i's incoming edges in dst-major order, in the
        columns b*N + src, so its data is `alpha` as it is.  The matrix is
        built once per B, dropping the one of any other B, and its data
        refilled on each call.  With `transposed`, its transpose instead:
        a CSC view of the same arrays, made on the first such call (only a
        backward asks for it) and kept beside the matrix, so that the
        refill refills both."""
        B, E = alpha.shape
        pair = self._stacked.get(B)
        if pair is None:
            # imported here so that commands that train nothing never load it
            import scipy.sparse as sp
            n, offsets = self.n_nodes, np.arange(B)[:, None]
            self._stacked.clear()
            pair = self._stacked[B] = [sp.csr_matrix(
                (np.empty(B * E), (self.src + n * offsets).ravel(),
                 np.append(self.seg_starts + E * offsets, B * E)),
                shape=(B * len(self.seg_starts), B * n)), None]
        pair[0].data[:] = alpha.ravel()
        if not transposed:
            return pair[0]
        if pair[1] is None:
            pair[1] = pair[0].T
        return pair[1]


def tensors_from_aggregated(agg) -> GraphTensors:
    return GraphTensors.from_edges(agg.n_nodes, list(agg.index_edges()), len(agg.essay_nodes))


def segment_softmax(scores, dst, seg_starts):
    """Softmax of `scores` within each destination segment of the last axis,
    max-stabilized; leading axes (one per head) are independent.  It is
    computed in place, so `scores` is overwritten with the result."""
    seg_max = np.maximum.reduceat(scores, seg_starts, axis=-1)
    ez = np.subtract(scores, np.take(seg_max, dst, axis=-1), out=scores)
    np.exp(ez, out=ez)
    ez /= np.take(np.add.reduceat(ez, seg_starts, axis=-1), dst, axis=-1)
    return ez


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
    attention sums averaged, then ELU, on each of the R destination rows of
    `tensors` (..., R, F).  Leading axes are models.

    The cache keeps H, the output, the batched (..., L, N, F) projection
    Wh, the (..., L, E) weights alpha and the (..., L, E) boolean kink
    mask `pre > 0` of the scores: the one float (..., L, E) array in it is
    alpha, as the scores' buffer became alpha in place."""
    src, dst, seg = tensors.src, tensors.dst, tensors.seg_starts
    fh = W.shape[-2]
    Wh = np.matmul(H[..., None, :, :], W.swapaxes(-1, -2))       # (..., L, N, F)
    # against an (..., F, 1) column, matmul runs the per-head `Wh @ a` GEMV,
    # at full height whichever rows the destinations are
    pre = np.matmul(Wh, a[..., :fh, None])[..., tensors.first_row:, 0].take(dst, axis=-1)
    pre += np.matmul(Wh, a[..., fh:, None])[..., 0].take(src, axis=-1)   # (..., L, E)
    mask = pre > 0
    # LeakyReLU in place: max(x, slope * x) is x where x > 0, else slope * x
    alpha = segment_softmax(np.maximum(pre, LEAKY_SLOPE * pre, out=pre), dst, seg)
    # sums[..., l, i] = sum over edges (i <- j) of alpha[..., l, e] * Wh[..., l, j]:
    # every model's and head's attention matrix in one block-diagonal CSR
    # matrix, whose rows add their edges in order, as a scatter over dst would
    A = tensors.attention(alpha.reshape(-1, len(src)))
    sums = (A @ Wh.reshape(-1, fh)).reshape(*Wh.shape[:-2], len(seg), fh)
    avg = _tree_sum(np.moveaxis(sums, -3, 0)) / W.shape[-3]
    out = elu(avg)
    return out, (H, out, Wh, mask, alpha)


def attention_layer_backward(dOut, cache, tensors, W, a):
    """Returns the gradients wrt the layer input, W (..., L, F, D) and
    a (..., L, 2F), for `dOut` on the destination rows."""
    H, out, Wh, mask, alpha = cache
    src, dst, seg = tensors.src, tensors.dst, tensors.seg_starts
    n, rows, (L, fh) = H.shape[-2], len(seg), W.shape[-3:-1]
    models = math.prod(W.shape[:-3])
    dHeadSum = (dOut * _elu_grad(out)) / L                          # (..., R, F)
    dalpha = np.empty_like(alpha)
    for dHS_m, Wh_m, dalpha_m in zip(dHeadSum.reshape(models, rows, fh),
                                     Wh.reshape(models, L, n, fh),
                                     dalpha.reshape(models, L, -1)):
        m = dHS_m.take(dst, axis=0)                                 # (E, F)
        for l in range(L):
            dalpha_m[l] = np.einsum("ef,ef->e", m, Wh_m[l].take(src, axis=0))
    del m   # the last gather, which would otherwise outlive the product below
    # dWh[..., l, j] = sum over edges (i <- j) of alpha[..., l, e] * dHeadSum[..., i]:
    # the transpose of the forward's block-diagonal matrix, refilled with this
    # layer's alpha, as a later layer over the same edges overwrote it, times
    # dHeadSum once per head; each source adds its edges in destination
    # order, as a scatter over src would
    A_T = tensors.attention(alpha.reshape(-1, len(src)), transposed=True)
    dWh = (A_T @ np.repeat(dHeadSum.reshape(models, 1, rows, fh), L, axis=1).reshape(-1, fh)
           ).reshape(Wh.shape)
    # softmax backward within each destination segment, built in dalpha:
    # dpre = alpha * (dalpha - segment sums of alpha * dalpha), times
    # LeakyReLU's derivative, 1 where the kink mask holds and the slope
    # elsewhere
    dalpha -= np.add.reduceat(alpha * dalpha, seg, axis=-1).take(dst, axis=-1)
    dalpha *= alpha
    dalpha *= np.maximum(mask, LEAKY_SLOPE)
    dpre = dalpha
    # the transpose's row indices are the forward matrix's column indices:
    # each entry's (model, head) block offset plus its source node
    ds = np.bincount(A_T.indices, weights=dpre.ravel(),
                     minlength=models * L * n).reshape(*mask.shape[:-1], n)
    # the per-destination term, at full height like ds, so that the products
    # below run over the same rows whichever rows the destinations are
    dd = np.zeros_like(ds)
    dd[..., tensors.first_row :] = np.add.reduceat(dpre, seg, axis=-1)
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
    def hidden_units(self) -> int:
        return self.params["att0.W"].shape[-2]

    @property
    def n_layers(self) -> int:
        # every parameter but proj.W, proj.b, clf.W and clf.b is a layer's W or a
        return (len(self.params) - 4) // 2

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


def model_bytes(n_nodes, n_edges, n_features, config: TrainConfig, embed_dim=0) -> int:
    """Estimated peak bytes that one model adds to a training step over a
    graph of `n_nodes` nodes and `n_edges` directed edges (self-loops
    included).  The graph and the features, which a stack shares, are not
    counted.  A step peaks at one of two points, and holds four copies of
    the parameters at both: the parameters, the two Adam moments and the
    best snapshot.

    - The backward of a layer, while every layer's forward cache and the
      classifier's input and its gradient are held, with a fifth copy, the
      gradients; the layer's output gradient, the next layer's input
      gradient, dHeadSum and dalpha; and the largest of its three stages:
      dalpha's two (E, F) gathers; the product that scatters dHeadSum,
      repeated once per head, into dWh; and dWh with the softmax backward,
      which is built in dalpha beside one (L, E) temporary at a time, and
      the per-head loop.  A layer's cache holds its output, Wh, one float
      (L, E) array, alpha, and one of a byte an entry, the kink mask.  The
      last layer, which runs over the essays' edges only, is counted as if
      it ran over every edge.
    - `adam_step`, with three more copies: the flat gradient and Adam's
      two temporaries.

    The gathers are counted for every model, though the attention-weight
    gradient gathers for one model at a time, so a stack of M holds
    somewhat less than M times this."""
    N, E = n_nodes, n_edges
    L, F, D = config.heads_per_layer, config.hidden_units, config.dense_units
    K = config.attention_layers
    # the projection's output, each layer's cache (out, as its H is the
    # previous out, Wh and alpha), and the classifier's input and its
    # gradient, counted on every node
    forward = N * D + K * (N * F + L * N * F + L * E) + 2 * N * (K * F + embed_dim)
    # a layer's backward: dOut, the next layer's dH, dHeadSum and dalpha
    backward = 3 * N * F + L * E
    # its largest stage: the two gathers; the repeated dHeadSum and dWh; or
    # dWh, the softmax backward's (L, E) temporary, ds, dd, dH and one
    # head's products, three (N, F) or one (N, D)
    stage = max(2 * E * F, 2 * L * N * F,
                L * N * F + L * E + 2 * L * N + N * D + N * max(3 * F, D))
    n_params = (D * (n_features + 1) + L * F * D + (K - 1) * L * F * F + K * L * 2 * F
                + 2 * (K * F + embed_dim + 1))
    # the kink masks, a byte an entry, then the attention matrices of the
    # graph and of its essay view, the view's counted at the graph's size:
    # float64 values, int32 column indices and int32 row pointers
    return (max(8 * (forward + backward + stage + 5 * n_params) + K * L * E, 8 * 7 * n_params)
            + 2 * L * (E * (8 + 4) + N * 4))


def _project(model, tensors, X):
    """The input projection's output (..., N, D)."""
    if X.shape != (tensors.n_nodes, model.n_features):
        raise ShapeMismatch(
            f"features {X.shape} vs graph ({tensors.n_nodes}, {model.n_features})"
        )
    p = model.params
    lead, n = model.stack_shape, tensors.n_nodes
    # every model's proj.W side by side, so the shared X is multiplied once
    side = np.asarray(X @ p["proj.W"].reshape(-1, model.n_features).T)
    return elu(np.moveaxis(side.reshape(n, *lead, model.dense_units), 0, -2)
               + p["proj.b"][..., None, :])


def _layer_graph(model, tensors, k):
    """The edges layer k runs over: the last layer's output is read only
    on the essays, so it runs over the edges into them."""
    return tensors.essay_view if k == model.n_layers - 1 else tensors


def _layer(model, tensors, k, H):
    """Attention layer k's output on the rows of `_layer_graph` and its cache."""
    p = model.params
    return attention_layer_forward(H, _layer_graph(model, tensors, k),
                                   p[f"att{k}.W"], p[f"att{k}.a"])


def _essay_rows(out, n_essays):
    return out[..., out.shape[-2] - n_essays :, :]


def _classify(model, n_essays, parts, embeddings):
    """The classifier's logits (..., n_essays, 2) and input, the essay rows
    of every layer's output in `parts` followed by the embeddings."""
    p = model.params
    lead = model.stack_shape
    if model.embed_dim:
        if embeddings is None:
            raise MissingEmbedding("model is enriched but no embeddings given")
        if embeddings.shape != (n_essays, model.embed_dim):
            raise ShapeMismatch(
                f"embeddings {embeddings.shape} vs ({n_essays}, {model.embed_dim})"
            )
        parts = [*parts, np.broadcast_to(embeddings, (*lead, *embeddings.shape))]
    elif embeddings is not None:
        raise ShapeMismatch("model was not built for embeddings")
    concat = np.concatenate(parts, axis=-1)
    logits = np.matmul(concat, p["clf.W"].swapaxes(-1, -2)) + p["clf.b"][..., None, :]
    return logits, concat


def _forward(model, tensors, X, embeddings):
    """The forward a training step differentiates: the logits, the
    classifier input, every layer's cache, and the projection's output."""
    H = _project(model, tensors, X)
    caches, parts = [], []
    Hk = H
    for k in range(model.n_layers):
        Hk, cache = _layer(model, tensors, k, Hk)
        caches.append(cache)
        parts.append(_essay_rows(Hk, tensors.n_essays))
    logits, concat = _classify(model, tensors.n_essays, parts, embeddings)
    return logits, concat, caches, H


def forward(model, tensors, X, embeddings=None):
    """Per-essay class probabilities, rows summing to 1.  No backward cache
    is kept: each layer's goes as soon as the next layer has its input,
    and of each output only the essay rows are kept."""
    Hk = _project(model, tensors, X)
    parts = []
    for k in range(model.n_layers):
        Hk = _layer(model, tensors, k, Hk)[0]
        parts.append(_essay_rows(Hk, tensors.n_essays).copy())
    return softmax_rows(_classify(model, tensors.n_essays, parts, embeddings)[0])


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


def loss_and_gradients(model, tensors, X_T, fwd, batch_positions, targets):
    """Mean binary cross-entropy over the batch (positions index the essay
    axis) and the gradient for every parameter, from `fwd`, what `_forward`
    returned for this model, and `X_T`, the transposed features it ran on.
    For a stack of models, `batch_positions` and `targets` carry the
    stack's leading axes, one batch per model, and the loss is one per
    model.  Weight decay is left to the caller; `train_stack` adds it over
    its flat rows with `_weight_decay`.  A non-finite loss raises
    `NonFiniteLoss`, whose `model` is the flat index of the first model
    whose loss diverged."""
    batch = np.asarray(batch_positions, dtype=np.int64)
    y = np.asarray(targets, dtype=np.int64)
    if batch.shape != y.shape:
        raise ShapeMismatch("batch and targets must align")
    ordered = np.sort(batch, axis=-1)
    if np.any(ordered[..., 1:] == ordered[..., :-1]):
        raise ValueError("batch positions must be unique")

    logits, concat, caches, H0 = fwd
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

    Hd, n = model.hidden_units, tensors.n_nodes
    dH_next = None
    for k in reversed(range(model.n_layers)):
        if dH_next is None:
            # the last layer's rows are the essays
            dOut = dconcat[..., k * Hd : (k + 1) * Hd]
        else:
            dOut = np.zeros((*model.stack_shape, n, Hd))
            dOut[..., n - tensors.n_essays :, :] += dconcat[..., k * Hd : (k + 1) * Hd]
            dOut += dH_next
        dH_next, grads[f"att{k}.W"], grads[f"att{k}.a"] = attention_layer_backward(
            dOut, caches[k], _layer_graph(model, tensors, k), p[f"att{k}.W"], p[f"att{k}.a"])

    dpre0 = dH_next * _elu_grad(H0)
    # the models' dpre0 side by side, as in the forward projection
    lead = model.stack_shape
    side = np.asarray(X_T @ np.moveaxis(dpre0, -2, 0).reshape(tensors.n_nodes, -1))
    grads["proj.W"] = np.moveaxis(side.reshape(-1, *lead, model.dense_units), 0, -1)
    grads["proj.b"] = dpre0.sum(axis=-2)

    return loss, grads


def _decays(name):
    """Whether weight decay applies to the parameter `name` (biases are exempt)."""
    return not name.endswith(".b")


def _decayed_columns(shapes):
    """The columns of a flat row (see `_split`) that hold each parameter
    weight decay applies to, as slices in `shapes` order."""
    columns, start = [], 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        if _decays(name):
            columns.append(slice(start, start + size))
        start += size
    return columns


def _weight_decay(loss, g, flat, columns, weight_decay):
    """`loss` plus `weight_decay` times each model's squared norm of its
    decayed parameters, with the norm's gradient, `2 * weight_decay *
    value`, added to the flat gradient `g` in place.  `flat` and `g` are
    (M, P) rows and `columns` the decayed parameters' slices of them, which
    are taken one at a time, in order, so the terms are added as they would
    be over the parameters themselves."""
    for cols in columns:
        value = flat[:, cols]
        loss = loss + weight_decay * np.sum(value * value, axis=-1)
        g[:, cols] += 2.0 * weight_decay * value
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


def _flatten(arrays, shapes, lead=()):
    """The inverse of `_split`: `arrays` concatenated along one last axis,
    taken in `shapes` order whatever the order of their dict."""
    return np.concatenate([arrays[key].reshape(*lead, -1) for key in shapes], axis=-1)


def adam_step(flat, g, m, v, t, lr):
    """In-place Adam update with bias correction of the flat parameters
    `flat` by the flat gradient `g`, over moments `m` and `v` of the same
    shape; `t` is the step number after this update."""
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (g * g)
    # the denominator built in place, so the step makes two temporaries
    d = v / (1.0 - ADAM_BETA2**t)
    np.sqrt(d, out=d)
    d += ADAM_EPS
    flat -= lr * (m / (1.0 - ADAM_BETA1**t)) / d


# --- training loop -------------------------------------------------------

def evaluate_split(logits, positions, y):
    """(mean cross-entropy, accuracy) of the essay logits (`_forward`'s
    first result) on the given essay positions.  For a stack, `positions`
    and `y` carry its leading axes, and so do both results."""
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


def _keep_freed_memory():
    """Keep what a training step frees in the heap for the next step, where
    the C library has glibc's `mallopt`.  By default glibc maps each block
    above a threshold afresh and returns the free top of its heap to the
    system once that exceeds twice the threshold, which it raises only to
    the largest mapped block freed so far.  A step frees most of its arrays
    when it ends, so by default the next step page-faults them back in:
    about 200k minor faults in the fixture-cv train stage and 1.3M in the
    shipped fixture's.  The threshold is fixed at glibc's own ceiling, 32 MiB, and
    the heap keeps up to 16 MiB free, enough for a fixture step of 50
    models; keeping 64 MiB raised the peak at paper width by 8 MB."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
    mallopt(-1, 16 << 20)   # M_TRIM_THRESHOLD


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
    _keep_freed_memory()
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
    # the stack's state, one row per model: snapshots, parameters and Adam
    # moments; model.params are views into `flat`
    shapes = {k: a.shape for k, a in best[0].items()}
    best = np.stack([_flatten(p, shapes) for p in best])
    flat, m, v = best.copy(), np.zeros(best.shape), np.zeros(best.shape)
    model = GatModel(_split(flat, shapes))
    decayed = _decayed_columns(shapes)
    X_T = X.T

    best_acc, best_loss, since = [-np.inf] * M, [np.inf] * M, [0] * M
    histories = [[] for _ in range(M)]
    active = list(range(M))   # the index in ys of each row of the stack
    fwd = None                # the forward of the current parameters, once run
    t = 0
    for epoch in range(1, config.epochs + 1):
        order = np.stack([rngs[i].permutation(fits[i]) for i in active])
        Y_active = Y[active]
        batch_losses = []
        for start in range(0, order.shape[1], config.batch_size):
            batch = order[:, start : start + config.batch_size]
            if fwd is None:
                fwd = _forward(model, tensors, X, embeddings)
            try:
                loss, grads = loss_and_gradients(
                    model, tensors, X_T, fwd, batch,
                    np.take_along_axis(Y_active, batch, axis=1))
            except NonFiniteLoss as exc:
                raise NonFiniteLoss(str(exc), model=active[exc.model]) from None
            fwd = None
            t += 1
            # flat, so that neither Adam nor the next backward holds the dict
            grads = _flatten(grads, shapes, (len(active),))
            if config.weight_decay:
                loss = _weight_decay(loss, grads, flat, decayed, config.weight_decay)
            adam_step(flat, grads, m, v, t, config.learning_rate)
            del grads
            batch_losses.append(loss)
        # the parameters stay as they are until the next step, which
        # therefore reuses this forward
        fwd = _forward(model, tensors, X, embeddings)
        val_loss, val_acc = evaluate_split(fwd[0], V[active], YV[active])
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
                best[i] = flat[row]
                since[i] = 0
            else:
                since[i] += 1
            if since[i] < config.patience:
                stay.append(row)
            else:
                yield i, GatModel(_split(best[i], shapes)), histories[i]
        if len(stay) < len(active):
            fwd = None   # it holds rows of models that have left
            active = [active[row] for row in stay]
            if not active:
                return
            flat, m, v = flat[stay], m[stay], v[stay]
            model.params = _split(flat, shapes)
    for i in active:
        yield i, GatModel(_split(best[i], shapes)), histories[i]


# --- persistence ---------------------------------------------------------

def save_model(model: GatModel, path):
    meta = {"version": CHECKPOINT_VERSION}
    buf = io.BytesIO()
    np.savez(buf, __meta__=np.array(json.dumps(meta)), **model.params)
    write_atomically(path, buf.getvalue())


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
    write_atomically(path, ("\n".join(lines) + "\n").encode("utf-8"))
