"""Multi-head graph attention network over the aggregated graph, trained
with hand-rolled Adam and early stopping on validation accuracy.

Everything is numpy float64.  The graph lives in edge-list form sorted by
destination, so per-node softmax and aggregation reduce to `np.*.reduceat`
over contiguous segments; self-loops guarantee every segment is non-empty.
`GraphTensors` also keeps the src-major order of the same edges (a stable
argsort of `src` and its CSR row pointer), so the backward pass scatters
into source nodes as one CSR SpMM and one `np.bincount` instead of
`np.add.at`.

Each attention layer keeps its L heads as two stacked parameters,
`att{k}.W` of shape (L, F, D) and `att{k}.a` of shape (L, 2F), and runs
them batched along that leading head axis where that needs only
(L, N, F) or (L, E) arrays it keeps anyway: the projection, the attention
scores, the segment softmax and its backward, the two scatters and the
gradient of W.  The rest loops over the heads of those arrays: the (E, F)
products over edges and features (the forward aggregation and the
attention-weight gradient), since all heads at once would hold L of them,
and the gradients of the attention vectors, the projected input and the
layer input, since batched they would need (L, N, F) temporaries.  Heads
are combined by averaging (not concatenation), and the per-essay
classifier input is the concatenation of every attention layer's output,
optionally extended with a fixed per-essay embedding vector.

Every kernel adds in the same order as the per-head layer that
`tests/oracles.py` keeps as a reference (one head at a time, scattering
with `np.add.at`), and the tests hold the two bit-equal, so results do not
depend on how the heads are batched.
"""

from __future__ import annotations

import io
import json
import os
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
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=1, keepdims=True)


def log_softmax_rows(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


# --- graph tensors -------------------------------------------------------

@dataclass(frozen=True)
class GraphTensors:
    """Directed edge list (both directions of every undirected edge plus one
    self-loop per node), sorted by (dst, src).  seg_starts[i] is the offset
    of node i's incoming-edge segment.  src_order is the stable argsort of
    src, so edges[src_order] is the same list in src-major order, and
    src_indptr[i] is the offset of node i's outgoing edges in it."""

    n_nodes: int
    src: np.ndarray
    dst: np.ndarray
    seg_starts: np.ndarray
    essay_idx: np.ndarray
    src_order: np.ndarray
    src_indptr: np.ndarray
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
        src_order = np.argsort(src, kind="stable")
        src_indptr = np.searchsorted(src[src_order], np.arange(n_nodes + 1))
        return cls(n_nodes, src, dst, seg_starts,
                   np.asarray(essay_idx, dtype=np.int64), src_order, src_indptr)

    @property
    def n_essays(self) -> int:
        return len(self.essay_idx)

    def _stacked_src_major(self, heads):
        """(indices, indptr) of `heads` transposed adjacency matrices stacked
        as one (heads*N, N) CSR matrix: row h*N + j lists node j's outgoing
        edges in src-major order.  Built once per head count, in the index
        dtype scipy picks, so a matrix over them is cheap to construct."""
        if heads not in self._stacked:
            E = len(self.src)
            m = sp.csr_matrix(
                (np.empty(heads * E), np.tile(self.dst[self.src_order], heads),
                 np.append(self.src_indptr[:-1] + E * np.arange(heads)[:, None], heads * E)),
                shape=(heads * self.n_nodes, self.n_nodes))
            self._stacked[heads] = (m.indices, m.indptr)
        return self._stacked[heads]


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
    """One multi-head layer over the stacked head weights W (L, F, D) and
    attention vectors a (L, 2F): per-head attention sums averaged, then ELU.

    The cache keeps the batched (L, N, F) projection Wh and the (L, E)
    scores pre and weights alpha."""
    src, dst, seg = tensors.src, tensors.dst, tensors.seg_starts
    fh = W.shape[1]
    Wh = np.matmul(H, W.transpose(0, 2, 1))                       # (L, N, F)
    # against an (L, F, 1) column, matmul runs the per-head `Wh @ a` GEMV
    pre = (np.take(np.matmul(Wh, a[:, :fh, None])[..., 0], dst, axis=1)
           + np.take(np.matmul(Wh, a[:, fh:, None])[..., 0], src, axis=1))  # (L, E)
    alpha = segment_softmax(leaky_relu(pre), dst, seg)
    # one (E, F) product per head: all heads at once would hold L of them
    head_sums = []
    for Wh_l, alpha_l in zip(Wh, alpha):
        msg = np.take(Wh_l, src, axis=0)
        msg *= alpha_l[:, None]
        head_sums.append(np.add.reduceat(msg, seg, axis=0))
    avg = _tree_sum(head_sums) / len(W)
    out = elu(avg)
    return out, (H, avg, out, Wh, pre, alpha)


def attention_layer_backward(dOut, cache, tensors, W, a):
    """Returns the gradients wrt the layer input, W (L, F, D) and a (L, 2F)."""
    H, avg, out, Wh, pre, alpha = cache
    src, dst, seg = tensors.src, tensors.dst, tensors.seg_starts
    n, (L, fh) = H.shape[0], W.shape[:2]
    dHeadSum = (dOut * _elu_grad(avg, out)) / L
    m = np.take(dHeadSum, dst, axis=0)                              # (E, F')
    dalpha = np.empty_like(alpha)
    for l in range(L):
        dalpha[l] = np.einsum("ef,ef->e", m, np.take(Wh[l], src, axis=0))
    # dWh[l, j] = sum over edges (i <- j) of alpha[l, e] * dHeadSum[i]: the
    # heads' transposed attention matrices stacked as one CSR matrix, whose
    # rows add their edges in the same order as a scatter over src would
    A_T = sp.csr_matrix(
        (np.take(alpha, tensors.src_order, axis=1).ravel(), *tensors._stacked_src_major(L)),
        shape=(L * n, n))
    dWh = (A_T @ dHeadSum).reshape(L, n, fh)
    # softmax backward within each destination segment
    t = alpha * dalpha
    de = alpha * (dalpha - np.take(np.add.reduceat(t, seg, axis=1), dst, axis=1))
    dpre = de * np.where(pre > 0, 1.0, LEAKY_SLOPE)
    dd = np.add.reduceat(dpre, seg, axis=1)                         # per-destination term
    ds = np.bincount((src + n * np.arange(L)[:, None]).ravel(), weights=dpre.ravel(),
                     minlength=L * n).reshape(L, n)
    # the rest one head at a time, so no (L, N, F) temporary is made
    dH = np.zeros_like(H)
    da = np.empty_like(a)
    for l in range(L):
        da[l, :fh] = Wh[l].T @ dd[l]
        da[l, fh:] = Wh[l].T @ ds[l]
        dWh[l] += dd[l][:, None] * a[l, :fh] + ds[l][:, None] * a[l, fh:]
        dH += dWh[l] @ W[l]
    dW = np.matmul(dWh.transpose(0, 2, 1), H)
    return dH, dW, da


# --- full model ----------------------------------------------------------

@dataclass
class GatModel:
    """The parameters; the geometry is read from their shapes."""

    params: dict[str, np.ndarray] = field(repr=False)

    @property
    def n_features(self) -> int:
        return self.params["proj.W"].shape[1]

    @property
    def dense_units(self) -> int:
        return self.params["proj.W"].shape[0]

    @property
    def heads(self) -> int:
        return self.params["att0.W"].shape[0]

    @property
    def hidden_units(self) -> int:
        return self.params["att0.W"].shape[1]

    @property
    def n_layers(self) -> int:
        return sum(key.startswith("att") for key in self.params) // 2  # att{k}.W, att{k}.a

    @property
    def embed_dim(self) -> int:
        """0 when not enriched."""
        return self.params["clf.W"].shape[1] - self.n_layers * self.hidden_units

    def copy_params(self):
        return {k: v.copy() for k, v in self.params.items()}


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
    pre0 = np.asarray(X @ p["proj.W"].T) + p["proj.b"]
    H = elu(pre0)
    caches, outs = [], []
    Hk = H
    for k in range(model.n_layers):
        Hk, cache = attention_layer_forward(Hk, tensors, p[f"att{k}.W"], p[f"att{k}.a"])
        caches.append(cache)
        outs.append(Hk)
    parts = [o[tensors.essay_idx] for o in outs]
    if model.embed_dim:
        if embeddings is None:
            raise MissingEmbedding("model is enriched but no embeddings given")
        if embeddings.shape != (tensors.n_essays, model.embed_dim):
            raise ShapeMismatch(
                f"embeddings {embeddings.shape} vs ({tensors.n_essays}, {model.embed_dim})"
            )
        parts.append(embeddings)
    elif embeddings is not None:
        raise ShapeMismatch("model was not built for embeddings")
    concat = np.concatenate(parts, axis=1) if parts else np.zeros((0, 0))
    logits = concat @ p["clf.W"].T + p["clf.b"]
    return logits, concat, caches, pre0, H


def forward(model, tensors, X, embeddings=None):
    """Per-essay class probabilities, rows summing to 1."""
    logits, *_ = _forward(model, tensors, X, embeddings)
    return softmax_rows(logits)


def loss_and_gradients(model, tensors, X, batch_positions, targets, embeddings=None,
                       X_T=None):
    """Mean binary cross-entropy over the batch (positions index the essay
    axis) and the gradient for every parameter.  `X_T`, when given, is
    `X.T` built once by a caller that takes many steps over the same X.
    Weight decay is left to the caller: `l2_penalty` for the loss and
    `adam_step` for its gradient."""
    batch = np.asarray(batch_positions, dtype=np.int64)
    y = np.asarray(targets, dtype=np.int64)
    if len(np.unique(batch)) != len(batch):
        raise ValueError("batch positions must be unique")
    if batch.shape != y.shape:
        raise ShapeMismatch("batch and targets must align")

    logits, concat, caches, pre0, H0 = _forward(model, tensors, X, embeddings)
    B = len(batch)
    logp = log_softmax_rows(logits[batch])
    loss = -logp[np.arange(B), y].mean()
    if not np.isfinite(loss):
        raise NonFiniteLoss(f"loss diverged: {loss}")

    dlogits = np.zeros_like(logits)
    dlogits[batch] = np.exp(logp)
    dlogits[batch, y] -= 1.0
    dlogits[batch] /= B

    p = model.params
    grads = {
        "clf.W": dlogits.T @ concat,
        "clf.b": dlogits.sum(axis=0),
    }
    dconcat = dlogits @ p["clf.W"]

    Hd = model.hidden_units
    dH_next = None
    for k in reversed(range(model.n_layers)):
        dOut = np.zeros((tensors.n_nodes, Hd))
        dOut[tensors.essay_idx] += dconcat[:, k * Hd : (k + 1) * Hd]
        if dH_next is not None:
            dOut += dH_next
        dH_next, grads[f"att{k}.W"], grads[f"att{k}.a"] = attention_layer_backward(
            dOut, caches[k], tensors, p[f"att{k}.W"], p[f"att{k}.a"])

    dpre0 = dH_next * _elu_grad(pre0, H0)
    if X_T is None:
        X_T = X.T
    grads["proj.W"] = np.asarray(X_T @ dpre0).T
    grads["proj.b"] = dpre0.sum(axis=0)

    return float(loss), grads


def _decays(name):
    """Whether weight decay applies to the parameter `name` (biases are exempt)."""
    return not name.endswith(".b")


def l2_penalty(loss, params, weight_decay):
    """`loss` plus `weight_decay` times the squared norm of every non-bias
    parameter, added one parameter at a time in `params` order."""
    for name, value in params.items():
        if _decays(name):
            loss = loss + weight_decay * float(np.sum(value * value))
    return loss


def predict(model, tensors, X, positions=None, embeddings=None):
    """Binary predictions (argmax; an exact tie goes to class 0)."""
    probs = forward(model, tensors, X, embeddings)
    if positions is not None:
        probs = probs[np.asarray(positions, dtype=np.int64)]
    return np.argmax(probs, axis=1)


# --- Adam ---------------------------------------------------------------

def _split(flat, like):
    """Views into `flat`, one per entry of `like`, with its shape."""
    out, start = {}, 0
    for key, arr in like.items():
        out[key] = flat[start : start + arr.size].reshape(arr.shape)
        start += arr.size
    return out


@dataclass
class AdamState:
    """First and second moments of every parameter, each held in one flat
    buffer; `m` and `v` map parameter names to views into them.  The
    parameters that weight decay applies to, `decayed`, come first in the
    buffers, so their entries form one leading slice."""

    m_flat: np.ndarray
    v_flat: np.ndarray
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    decayed: tuple[str, ...] = ()

    @classmethod
    def for_params(cls, params):
        decayed = tuple(k for k in params if _decays(k))
        layout = {k: params[k] for k in decayed}
        layout.update((k, v) for k, v in params.items() if not _decays(k))
        size = sum(p.size for p in params.values())
        m_flat, v_flat = np.zeros(size), np.zeros(size)
        return cls(m_flat, v_flat, _split(m_flat, layout), _split(v_flat, layout),
                   decayed=decayed)


def adam_step(params, grads, state: AdamState, lr,
              beta1=ADAM_BETA1, beta2=ADAM_BETA2, eps=ADAM_EPS, weight_decay=0.0):
    """In-place Adam update with bias correction, over every parameter of
    `state` at once; `grads` must hold a gradient for each of them.  A
    `weight_decay` first adds the gradient of `l2_penalty`,
    `2 * weight_decay * value`, to every non-bias gradient."""
    state.t += 1
    c1 = 1.0 - beta1**state.t
    c2 = 1.0 - beta2**state.t
    g = np.concatenate([grads[key].ravel() for key in state.m])
    if weight_decay:
        decayed = np.concatenate([params[key].ravel() for key in state.decayed])
        g[: decayed.size] += 2.0 * weight_decay * decayed
    m, v = state.m_flat, state.v_flat
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    step = lr * (m / c1) / (np.sqrt(v / c2) + eps)
    for key, delta in _split(step, state.m).items():
        params[key] -= delta
    return params, state


# --- training loop -------------------------------------------------------

def evaluate_split(model, tensors, X, positions, y, embeddings=None):
    """(mean cross-entropy, accuracy) on the given essay positions."""
    logits, *_ = _forward(model, tensors, X, embeddings)
    pos = np.asarray(positions, dtype=np.int64)
    logp = log_softmax_rows(logits[pos])
    loss = float(-logp[np.arange(len(pos)), np.asarray(y)].mean())
    acc = float((np.argmax(logp, axis=1) == np.asarray(y)).mean())
    return loss, acc


def train_trait(tensors, X, y, config: TrainConfig,
                train_idx=None, val_idx=None, embeddings=None, seed=None):
    """Train one binary trait classifier transductively.

    `train_idx` are essay positions whose labels may be used; when `val_idx`
    is not given, `validation_split` of them is held out (seeded shuffle) for
    early stopping.  Returns the best-validation-accuracy snapshot and the
    per-epoch history rows (epoch, train_loss, val_loss, val_accuracy).
    """
    y = np.asarray(y, dtype=np.int64)
    if config.enriched and embeddings is None:
        raise MissingEmbedding("enriched config requires embeddings")
    rng = np.random.default_rng(config.seed if seed is None else seed)

    if train_idx is None:
        train_idx = np.arange(tensors.n_essays)
    train_idx = np.asarray(train_idx, dtype=np.int64)
    if val_idx is None:
        shuffled = rng.permutation(train_idx)
        n_val = max(1, int(round(len(train_idx) * config.validation_split)))
        if n_val >= len(train_idx):
            raise ConfigError("validation split leaves no training essays")
        val_idx, fit_idx = shuffled[:n_val], shuffled[n_val:]
    else:
        val_idx = np.asarray(val_idx, dtype=np.int64)
        fit_idx = train_idx
        if set(fit_idx) & set(val_idx):
            raise ConfigError("train and validation essay sets overlap")

    embed_dim = embeddings.shape[1] if config.enriched else 0
    model = new_model(X.shape[1], config, embed_dim=embed_dim, rng=rng)
    state = AdamState.for_params(model.params)
    X_T = X.T

    best_acc = -np.inf
    best_loss = np.inf
    best_params = model.copy_params()
    epochs_since_best = 0
    history = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(fit_idx)
        batch_losses = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grads = loss_and_gradients(
                model, tensors, X, batch, y[batch], embeddings, X_T=X_T)
            if config.weight_decay:
                loss = l2_penalty(loss, model.params, config.weight_decay)
            adam_step(model.params, grads, state, config.learning_rate,
                      weight_decay=config.weight_decay)
            batch_losses.append(loss)
        val_loss, val_acc = evaluate_split(model, tensors, X, val_idx, y[val_idx], embeddings)
        history.append((epoch, float(np.mean(batch_losses)), val_loss, val_acc))
        # accuracy on a small validation set saturates quickly, so ties are
        # broken by loss; otherwise a lucky early epoch would freeze training
        if val_acc > best_acc or (val_acc == best_acc and val_loss < best_loss):
            best_acc = val_acc
            best_loss = val_loss
            best_params = model.copy_params()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                break
    model.params = best_params
    return model, history


# --- persistence ---------------------------------------------------------

def save_model(model: GatModel, path):
    meta = {"version": CHECKPOINT_VERSION}
    buf = io.BytesIO()
    np.savez(buf, __meta__=np.array(json.dumps(meta)), **model.params)
    _write_atomically(path, buf.getvalue())


def load_model(path) -> GatModel:
    with np.load(path) as npz:
        meta = json.loads(str(npz["__meta__"][()]))
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta.get('version')}")
        params = {k: npz[k] for k in npz.files if k != "__meta__"}
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
