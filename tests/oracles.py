"""Independent reference implementations used by several test modules.

The naive oracles are deliberately written with per-node python loops and
plain math, so a shared bug with the vectorized production code is unlikely.
The per-head attention layer, the pairwise edge-list loop, the per-key
Adam step, the one-array-at-a-time initialisation and the one-model
training loop are the straightforward formulations the vectorized and
stacked code must reproduce bit for bit.  The per-head layer aggregates
and scatters with `np.add.at`, one edge at a time in edge order, which is
the order in which a CSR matrix's rows add their edges and in which its
transpose's product adds each source's: the production layer's
block-diagonal SpMMs must match it.  Run on each model of a stack alone,
it is also a full step's layer (`PER_HEAD_LAYER`).  The skip-gram
trainer at the end makes each center's step one target at a time; the
batched kernel must match it to rounding.
The document graph is built the long way: every concept's description
unioned into one graph, then filtered down to the concepts.  N-Triples
lines are scanned term by term, literals and blank nodes included, and
only the statements of three IRIs kept.  The
weight-decayed loss adds the L2 term's gradient per parameter in place;
`l2_penalty` and `l2_gradient` are the same terms over a parameter dict,
which `train_stack` adds over its flat rows.  `leaky_relu`, `where_elu`
and `where_elu_grad` are the activations as `np.where` selects, which the
per-head layer uses and the production layer's max and min forms must
match.
The one-model training loop shares no optimizer code with `train_stack`:
it decays and steps one parameter at a time, over dict moments, and takes
the full step, whose every layer runs over every edge, where the
production step runs its last layer over the essays' edges alone.  The
single-mechanism operations, `rows_for` and `count_pairs` are small
helpers only tests use.
"""

import bisect
import math

import numpy as np

from kgatnet.errors import ConfigError, MissingEmbedding, ShapeMismatch
from kgatnet.gat import (
    LEAKY_SLOPE,
    TrainConfig,
    _classify,
    _decays,
    _forward,
    _picked,
    _project,
    _rows,
    _tree_sum,
    attention_layer_backward,
    attention_layer_forward,
    elu,
    evaluate_split,
    log_softmax_rows,
    loss_and_gradients,
    new_model,
)
from kgatnet.kg_builder import KnowledgeGraph, RdfTriple, local_name, norm_edge, title_case


def neighbors_from_pairs(n_nodes, pairs):
    """Adjacency incl. self-loop, neighbor lists sorted ascending."""
    nbrs = {i: {i} for i in range(n_nodes)}
    for i, j in pairs:
        nbrs[i].add(j)
        nbrs[j].add(i)
    return {i: sorted(js) for i, js in nbrs.items()}


def leaky_relu(x, slope=LEAKY_SLOPE):
    return np.where(x > 0, x, slope * x)


def where_elu(x):
    """ELU as a select, the reference for `gat.elu`."""
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def where_elu_grad(out):
    """elu'(x) from out = elu(x) as a select, the reference for
    `gat._elu_grad`: out > 0 exactly where x > 0."""
    return np.where(out > 0, 1.0, out + 1.0)


def naive_elu(x):
    return x if x > 0 else math.exp(x) - 1.0


def naive_layer(H, nbrs, Ws, As):
    """Head-averaged attention layer over stacked head weights `Ws` and
    attention vectors `As`, scalar loops straight from the math."""
    n = H.shape[0]
    fh = Ws[0].shape[0]
    total = np.zeros((n, fh))
    for W, a in zip(Ws, As):
        Wh = H @ W.T
        for i in range(n):
            js = nbrs[i]
            scores = []
            for j in js:
                pre = float(a @ np.concatenate([Wh[i], Wh[j]]))
                scores.append(pre if pre > 0 else 0.2 * pre)
            mx = max(scores)
            ez = [math.exp(s - mx) for s in scores]
            z = sum(ez)
            for ezj, j in zip(ez, js):
                total[i] += (ezj / z) * Wh[j]
    avg = total / len(Ws)
    out = np.empty_like(avg)
    for idx, val in np.ndenumerate(avg):
        out[idx] = naive_elu(val)
    return out


def naive_forward(model, nbrs, X_dense):
    """Per-layer outputs of the attention stack, loops instead of segments."""
    p = model.params
    H = X_dense @ p["proj.W"].T + p["proj.b"]
    out = np.empty_like(H)
    for idx, val in np.ndenumerate(H):
        out[idx] = naive_elu(val)
    H = out
    layer_outs = []
    for k in range(model.n_layers):
        H = naive_layer(H, nbrs, p[f"att{k}.W"], p[f"att{k}.a"])
        layer_outs.append(H)
    return layer_outs


def naive_probabilities(model, nbrs, X_dense, essay_idx, embeddings=None):
    layer_outs = naive_forward(model, nbrs, X_dense)
    p = model.params
    probs = []
    for row, node in enumerate(essay_idx):
        feats = np.concatenate([out[node] for out in layer_outs])
        if embeddings is not None:
            feats = np.concatenate([feats, embeddings[row]])
        logits = p["clf.W"] @ feats + p["clf.b"]
        ez = [math.exp(v) for v in logits]
        z = sum(ez)
        probs.append([v / z for v in ez])
    return np.array(probs)


def min_leaky_margin(model, tensors, X):
    """Smallest |pre-activation| hitting LeakyReLU anywhere in the stack.

    Central finite differences are only trustworthy when no kink lies within
    the probe radius; callers should demand a margin well above eps.
    """
    p = model.params
    H = elu(np.asarray(X @ p["proj.W"].T) + p["proj.b"])
    margin = np.inf
    for k in range(model.n_layers):
        H, (*_, head_caches) = per_head_layer_forward(H, tensors, p[f"att{k}.W"],
                                                      p[f"att{k}.a"])
        for _, pre, _ in head_caches:
            margin = min(margin, float(np.min(np.abs(pre))))
    return margin


def forward_loss_and_gradients(model, tensors, X, batch, targets, embeddings=None):
    """`_forward`, then `loss_and_gradients` on its result: one training
    step's loss and gradients, before weight decay and Adam."""
    fwd = _forward(model, tensors, X, embeddings)
    return loss_and_gradients(model, tensors, X.T, fwd, batch, targets)


# the (forward, backward) pair of the production layer, the default `layer`
# of `full_forward` and `full_loss_and_gradients`
PRODUCTION_LAYER = (attention_layer_forward, attention_layer_backward)


def full_forward(model, tensors, X, embeddings=None, layer=PRODUCTION_LAYER):
    """`_forward` with every layer over every edge of `tensors`, the last
    one included: its logits, classifier input, per-layer caches and the
    projection's output.  `layer` is the pair of layer functions it runs."""
    layer_forward = layer[0]
    p = model.params
    H = _project(model, tensors, X)
    caches, outs, Hk = [], [], H
    for k in range(model.n_layers):
        Hk, cache = layer_forward(Hk, tensors, p[f"att{k}.W"], p[f"att{k}.a"])
        caches.append(cache)
        outs.append(Hk)
    first = tensors.n_nodes - tensors.n_essays
    logits, concat = _classify(model, tensors.n_essays, [o[..., first:, :] for o in outs],
                               embeddings)
    return logits, concat, caches, H


def full_loss_and_gradients(model, tensors, X, batch, targets, embeddings=None,
                            layer=PRODUCTION_LAYER):
    """`forward_loss_and_gradients` with every layer over every edge: each
    layer's output gradient is full height, zero off the essay rows, and
    the backward runs over the whole graph.  The step whose last layer
    runs over the essays' edges alone must match it bit for bit, with the
    production layer or with `PER_HEAD_LAYER`."""
    layer_backward = layer[1]
    logits, concat, caches, H0 = full_forward(model, tensors, X, embeddings, layer)
    batch = np.asarray(batch, dtype=np.int64)
    y = np.asarray(targets, dtype=np.int64)
    B = batch.shape[-1]
    logp = log_softmax_rows(_rows(logits, batch))
    loss = -_picked(logp, y).mean(axis=-1)
    g = np.exp(logp)
    g.reshape(-1, g.shape[-1])[np.arange(y.size), y.ravel()] -= 1.0
    g /= B
    dlogits = np.zeros_like(logits)
    flat = batch.reshape(-1, B)
    dlogits.reshape(len(flat), *logits.shape[-2:])[np.arange(len(flat))[:, None], flat] = (
        g.reshape(len(flat), B, -1))

    p = model.params
    grads = {"clf.W": np.matmul(dlogits.swapaxes(-1, -2), concat), "clf.b": dlogits.sum(axis=-2)}
    dconcat = np.matmul(dlogits, p["clf.W"])
    Hd, n, first = model.hidden_units, tensors.n_nodes, tensors.n_nodes - tensors.n_essays
    dH_next = None
    for k in reversed(range(model.n_layers)):
        dOut = np.zeros((*model.stack_shape, n, Hd))
        dOut[..., first:, :] += dconcat[..., k * Hd : (k + 1) * Hd]
        if dH_next is not None:
            dOut += dH_next
        dH_next, grads[f"att{k}.W"], grads[f"att{k}.a"] = layer_backward(
            dOut, caches[k], tensors, p[f"att{k}.W"], p[f"att{k}.a"])
    dpre0 = dH_next * where_elu_grad(H0)
    lead = model.stack_shape
    side = np.asarray(X.T @ np.moveaxis(dpre0, -2, 0).reshape(n, -1))
    grads["proj.W"] = np.moveaxis(side.reshape(-1, *lead, model.dense_units), 0, -1)
    grads["proj.b"] = dpre0.sum(axis=-2)
    return loss, grads


def fd_gradient_max_error(model, tensors, X, batch, y, embeddings=None, eps=1e-4):
    """Max relative error between analytic gradients and central finite
    differences over every parameter entry (denominator floored at 1e-6)."""
    _, grads = forward_loss_and_gradients(model, tensors, X, batch, y, embeddings)
    worst = 0.0
    for key, arr in model.params.items():
        flat = arr.ravel()
        gflat = grads[key].ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            lp, _ = forward_loss_and_gradients(model, tensors, X, batch, y, embeddings)
            flat[idx] = orig - eps
            lm, _ = forward_loss_and_gradients(model, tensors, X, batch, y, embeddings)
            flat[idx] = orig
            fd = (lp - lm) / (2 * eps)
            denom = max(abs(fd), abs(gflat[idx]), 1e-6)
            worst = max(worst, abs(fd - gflat[idx]) / denom)
    return worst


# --- single-mechanism operations ------------------------------------------

def raw_attention_score(h_i, h_j, W, a):
    """e_ij = LeakyReLU(a . [W h_i || W h_j]) for one destination/neighbor pair."""
    fh = W.shape[0]
    if a.shape != (2 * fh,):
        raise ShapeMismatch(f"attention vector must have length {2 * fh}")
    if h_i.shape != (W.shape[1],) or h_j.shape != (W.shape[1],):
        raise ShapeMismatch("node feature width does not match W")
    pre = a[:fh] @ (W @ h_i) + a[fh:] @ (W @ h_j)
    return float(leaky_relu(pre))


def normalize_scores(scores):
    """1-D softmax over one neighborhood."""
    scores = np.asarray(scores, dtype=np.float64)
    ez = np.exp(scores - scores.max())
    return ez / ez.sum()


def aggregate_head(alpha, wh_neighbors, activation=elu):
    """sigma( sum_j alpha_j (W h_j) ) for one node and one head."""
    return activation(alpha @ wh_neighbors)


def multi_head_layer(H, tensors, W, a):
    out, _ = attention_layer_forward(H, tensors, W, a)
    return out


# --- bitwise references for the vectorized kernels -------------------------

def loop_edge_list(n_nodes, index_pairs):
    """(src, dst) of GraphTensors.from_edges, built one pair at a time."""
    src, dst = [], []
    for i, j in index_pairs:
        if i == j:
            continue
        src += [i, j]
        dst += [j, i]
    src += list(range(n_nodes))
    dst += list(range(n_nodes))
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    order = np.lexsort((src, dst))
    return src[order], dst[order]


def per_head_segment_softmax(scores, dst, seg_starts):
    seg_max = np.maximum.reduceat(scores, seg_starts)
    ez = np.exp(scores - seg_max[dst])
    denom = np.add.reduceat(ez, seg_starts)
    return ez / denom[dst]


def per_head_layer_forward(H, tensors, Ws, As):
    """The attention layer one head at a time, scattering with np.add.at:
    into destinations for the aggregation, so each node adds its incoming
    edges one at a time in edge order.  The production layer must match it
    bit for bit.  Its cache keeps one (Wh, pre, alpha) per head."""
    src, dst, seg = tensors.src, tensors.dst, tensors.seg_starts
    head_sums, head_caches = [], []
    for W, a in zip(Ws, As):
        fh = W.shape[0]
        Wh = H @ W.T
        pre = (Wh @ a[:fh])[dst] + (Wh @ a[fh:])[src]
        alpha = per_head_segment_softmax(leaky_relu(pre), dst, seg)
        sums = np.zeros_like(Wh)
        np.add.at(sums, dst, alpha[:, None] * Wh[src])
        head_sums.append(sums)
        head_caches.append((Wh, pre, alpha))
    avg = _tree_sum(head_sums) / len(Ws)
    out = where_elu(avg)
    return out, (H, avg, out, head_caches)


def per_head_layer_backward(dOut, cache, tensors, Ws, As):
    H, avg, out, head_caches = cache
    src, dst, seg = tensors.src, tensors.dst, tensors.seg_starts
    dHeadSum = (dOut * where_elu_grad(out)) / len(Ws)
    dH = np.zeros_like(H)
    dWs, das = [], []
    for (W, a, (Wh, pre, alpha)) in zip(Ws, As, head_caches):
        fh = W.shape[0]
        m = dHeadSum[dst]                                   # (E, F')
        dalpha = np.einsum("ef,ef->e", m, Wh[src])
        dWh = np.zeros_like(Wh)
        np.add.at(dWh, src, alpha[:, None] * m)
        # softmax backward within each destination segment
        t = alpha * dalpha
        de = alpha * (dalpha - np.add.reduceat(t, seg)[dst])
        dpre = de * np.where(pre > 0, 1.0, LEAKY_SLOPE)
        dd = np.add.reduceat(dpre, seg)                     # per-destination term
        ds = np.zeros(H.shape[0])
        np.add.at(ds, src, dpre)
        das.append(np.concatenate([Wh.T @ dd, Wh.T @ ds]))
        dWh += dd[:, None] * a[:fh] + ds[:, None] * a[fh:]
        dWs.append(dWh.T @ H)
        dH += dWh @ W
    return dH, dWs, das


def per_model_layer_forward(H, tensors, Ws, As):
    """`per_head_layer_forward` on each model of a stack alone (leading
    axes of H, Ws and As): the outputs stacked, and one cache per model."""
    lead = Ws.shape[:-3]
    outs, caches = [], []
    for m in np.ndindex(lead):
        out, cache = per_head_layer_forward(H[m], tensors, Ws[m], As[m])
        outs.append(out)
        caches.append(cache)
    return np.stack(outs).reshape(*lead, *outs[0].shape), caches


def per_model_layer_backward(dOut, caches, tensors, Ws, As):
    """`per_head_layer_backward` on each model of a stack alone, with the
    caches of `per_model_layer_forward`: dH, dW and da stacked."""
    lead = Ws.shape[:-3]
    dHs, dWs, das = [], [], []
    for m, cache in zip(np.ndindex(lead), caches):
        dH, dW, da = per_head_layer_backward(dOut[m], cache, tensors, Ws[m], As[m])
        dHs.append(dH)
        dWs.append(np.stack(dW))
        das.append(np.stack(da))
    return tuple(np.stack(g).reshape(*lead, *g[0].shape) for g in (dHs, dWs, das))


# the per-head np.add.at layer, as a `layer` of `full_forward` and
# `full_loss_and_gradients`
PER_HEAD_LAYER = (per_model_layer_forward, per_model_layer_backward)


def drawn_in_order(n_features, config, embed_dim=0):
    """new_model's parameters, drawn from default_rng(config.seed) one
    array at a time: proj.W, then each layer's heads in turn, a head's W
    before its a, then clf.W; every draw uniform within the Glorot limit."""
    rng = np.random.default_rng(config.seed)

    def uniform(rows, cols, fan_in, fan_out):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(rows, cols))

    D, Hd = config.dense_units, config.hidden_units
    params = {"proj.W": uniform(D, n_features, n_features, D), "proj.b": np.zeros(D)}
    in_width = D
    for k in range(config.attention_layers):
        heads = []
        for _ in range(config.heads_per_layer):
            W = uniform(Hd, in_width, in_width, Hd)
            a = uniform(1, 2 * Hd, 2 * Hd, 1)[0]
            heads.append((W, a))
        params[f"att{k}.W"] = np.stack([W for W, _ in heads])
        params[f"att{k}.a"] = np.stack([a for _, a in heads])
        in_width = Hd
    clf_in = config.attention_layers * Hd + embed_dim
    params["clf.W"] = uniform(2, clf_in, clf_in, 2)
    params["clf.b"] = np.zeros(2)
    return params


def l2_penalty(loss, params, weight_decay):
    """`loss` plus `weight_decay` times the squared norm of every non-bias
    parameter, added one parameter at a time in `params` order.  For a
    stack, `loss` has the stack's shape and each model gets its own norm."""
    lead = np.shape(loss)
    for name, value in params.items():
        if _decays(name):
            loss = loss + weight_decay * np.sum((value * value).reshape(*lead, -1), axis=-1)
    return loss


def l2_gradient(grads, params, weight_decay):
    """`grads` plus the gradient of `l2_penalty`, `2 * weight_decay * value`,
    for every non-bias parameter."""
    return {name: g + 2.0 * weight_decay * params[name] if _decays(name) else g
            for name, g in grads.items()}


def weight_decayed_loss_and_gradients(model, tensors, X, batch, targets, weight_decay,
                                      embeddings=None):
    """`full_loss_and_gradients` with an L2 penalty of `weight_decay` on
    every non-bias parameter, its gradient added one parameter at a time; a
    zero `weight_decay` adds nothing."""
    loss, grads = full_loss_and_gradients(model, tensors, X, batch, targets, embeddings)
    if not weight_decay:
        return loss, grads
    loss = l2_penalty(loss, model.params, weight_decay)
    for name, value in model.params.items():
        if _decays(name):
            grads[name] += 2.0 * weight_decay * value
    return loss, grads


def per_key_adam_step(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam one parameter at a time over dict moments `m`, `v`; `t` is the
    step number after this update."""
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for key, g in grads.items():
        m[key] *= beta1
        m[key] += (1.0 - beta1) * g
        v[key] *= beta2
        v[key] += (1.0 - beta2) * (g * g)
        params[key] -= lr * (m[key] / c1) / (np.sqrt(v[key] / c2) + eps)


# --- one model at a time ----------------------------------------------------

# the training loop for one classifier: every model of a gat.train_stack
# stack must end with these parameters and this history, bit for bit
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
    m = {k: np.zeros_like(p) for k, p in model.params.items()}
    v = {k: np.zeros_like(p) for k, p in model.params.items()}
    t = 0

    best_acc = -np.inf
    best_loss = np.inf
    best_params = {k: v.copy() for k, v in model.params.items()}
    epochs_since_best = 0
    history = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(fit_idx)
        batch_losses = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grads = weight_decayed_loss_and_gradients(
                model, tensors, X, batch, y[batch], config.weight_decay, embeddings)
            t += 1
            per_key_adam_step(model.params, grads, m, v, t, config.learning_rate)
            batch_losses.append(loss)
        logits = full_forward(model, tensors, X, embeddings)[0]
        val_loss, val_acc = evaluate_split(logits, val_idx, y[val_idx])
        history.append((epoch, float(np.mean(batch_losses)), val_loss, val_acc))
        # accuracy on a small validation set saturates quickly, so ties are
        # broken by loss; otherwise a lucky early epoch would freeze training
        if val_acc > best_acc or (val_acc == best_acc and val_loss < best_loss):
            best_acc = val_acc
            best_loss = val_loss
            best_params = {k: v.copy() for k, v in model.params.items()}
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                break
    model.params = best_params
    return model, history


# --- skip-gram, one target at a time ---------------------------------------

def rows_for(matrix, node_ids):
    """The vectors of `node_ids` in an `EmbeddingMatrix`, in that order."""
    index = {node: i for i, node in enumerate(matrix.node_ids)}
    return matrix.vectors[[index[node] for node in node_ids]]


def count_pairs(walks, window):
    """(center, context) pairs in one epoch over `walks`: the positions
    within `window` of each center in its walk, the center's own excluded."""
    return sum(min(len(w), p + window + 1) - max(0, p - window) - 1
               for w in walks for p in range(len(w)))


def skip_gram_center_step(w_in, w_out, center, targets, labels, lr):
    """One center word's step, in place: each target (label 1 for a context,
    0 for a noise draw) is scored against the center's vector as it was
    before the step, and every update lands after all are scored.  Returns
    the summed pair loss."""
    v = w_in[center].copy()
    dv = np.zeros_like(v)
    d_out = {}
    loss = 0.0
    for t, label in zip(targets, labels):
        s = 1.0 / (1.0 + math.exp(-float(v @ w_out[t])))
        loss -= math.log(max(s if label else 1.0 - s, 1e-12))
        dv += (s - label) * w_out[t]
        d_out[t] = d_out.get(t, 0.0) + (s - label) * v
    for t, d in d_out.items():
        w_out[t] -= lr * d
    w_in[center] -= lr * dv
    return loss


def reference_skip_gram(walks, dim, window, negatives, epochs, lr, min_lr, seed):
    """train_skip_gram with plain loops: the same vocabulary, initialisation
    and uniform draws (`negatives` per pair, in pair order), each center's
    step made by skip_gram_center_step.  Returns the node ids, the vectors,
    the per-epoch mean pair losses, and how many noise draws equalled their
    context and how many centers met some target twice (coverage counters)."""
    vocab, counts = {}, []
    for walk in walks:
        for node in walk:
            if node not in vocab:
                vocab[node] = len(vocab)
                counts.append(0)
            counts[vocab[node]] += 1
    noise = np.asarray(counts, dtype=np.float64) ** 0.75
    cum_noise = list(np.cumsum(noise / noise.sum()))
    rng = np.random.default_rng([seed])
    w_in = rng.uniform(-0.5 / dim, 0.5 / dim, size=(len(vocab), dim))
    w_out = np.zeros((len(vocab), dim))

    indexed = [[vocab[node] for node in walk] for walk in walks]
    total = epochs * sum(len(w) for w in indexed)
    processed = dropped = repeated = 0
    losses = []
    for _ in range(epochs):
        loss, pairs = 0.0, 0
        for walk in indexed:
            for pos, center in enumerate(walk):
                step_lr = max(min_lr, lr * (1.0 - processed / total))
                processed += 1
                targets, labels = [], []
                for ctx_pos in range(max(0, pos - window), min(len(walk), pos + window + 1)):
                    if ctx_pos == pos:
                        continue
                    context = walk[ctx_pos]
                    targets.append(context)
                    labels.append(1.0)
                    pairs += 1
                    for u in rng.random(negatives):
                        neg = min(bisect.bisect_right(cum_noise, u), len(vocab) - 1)
                        if neg == context:
                            dropped += 1
                        else:
                            targets.append(neg)
                            labels.append(0.0)
                repeated += len(set(targets)) < len(targets)
                loss += skip_gram_center_step(w_in, w_out, center, targets, labels, step_lr)
        losses.append(loss / max(pairs, 1))
    return tuple(vocab), w_in, losses, dropped, repeated


def union_then_filter(triples, concepts):
    """Document graph over (subject, predicate, object) `triples`, built the
    long way: resolve each concept (its own name if some triple mentions it,
    else its title case if that is mentioned), union the triples mentioning
    any resolved concept into one graph, then keep the edges with both ends
    resolved and the resolved nodes of the union."""
    mentioned = {u for s, _, o in triples for u in (s, o)}
    resolved = set()
    for c in concepts:
        alt = title_case(c)
        resolved.add(alt if c not in mentioned and alt in mentioned else c)
    union_nodes, union_edges = set(), set()
    for s, _, o in triples:
        if s in resolved or o in resolved:
            union_nodes |= {s, o}
            if s != o:
                union_edges.add(norm_edge(s, o))
    edges = {e for e in union_edges if e[0] in resolved and e[1] in resolved}
    nodes = {u for e in edges for u in e} | (resolved & union_nodes)
    return KnowledgeGraph(frozenset(nodes), frozenset(edges))


def _nt_terms(body):
    """Yield (kind, value) terms from one N-Triples statement body."""
    i, n = 0, len(body)
    while i < n:
        ch = body[i]
        if ch in " \t":
            i += 1
        elif ch == "<":
            j = body.index(">", i)
            yield ("uri", body[i + 1 : j])
            i = j + 1
        elif ch == '"':
            j = i + 1
            while j < n and body[j] != '"':
                j += 2 if body[j] == "\\" else 1
            k = j + 1
            while k < n and body[k] not in " \t":
                k += 1  # language tag / datatype suffix
            yield ("literal", body[i + 1 : j])
            i = k
        else:
            j = i
            while j < n and body[j] not in " \t":
                j += 1
            yield ("blank", body[i:j])
            i = j


def scanned_ntriples(lines, predicate_prefixes=()):
    """RdfTriple for each statement whose three terms, tokenized one by one
    (IRIs, escaped literals with their suffix, blank nodes), are all IRIs;
    predicates outside the allowlist (when given) and malformed lines are
    skipped."""
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not line.endswith("."):
            continue
        try:
            terms = list(_nt_terms(line[:-1].rstrip()))
        except ValueError:
            continue  # unterminated IRI
        if len(terms) != 3:
            continue
        if any(kind != "uri" for kind, _ in terms):
            continue  # literal object or blank node
        s, p, o = (value for _, value in terms)
        if predicate_prefixes and not p.startswith(predicate_prefixes):
            continue
        if s and p and o:
            yield RdfTriple(local_name(s), local_name(p), local_name(o))
