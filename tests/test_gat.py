"""Attention network: forward/backward math, Adam, training loop, persistence."""

import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from kgatnet.aggregator import aggregate_graphs, attach_essay_nodes, build_feature_matrix
from kgatnet.errors import (
    ConfigError,
    MissingEmbedding,
    NonFiniteLoss,
    ShapeMismatch,
)
from kgatnet import gat
from kgatnet.gat import (
    GatModel,
    GraphTensors,
    TrainConfig,
    _flatten,
    _split,
    adam_step,
    attention_layer_backward,
    attention_layer_forward,
    elu,
    evaluate_split,
    forward,
    load_model,
    new_model,
    predict,
    save_model,
    softmax_rows,
    tensors_from_aggregated,
    train_stack,
    write_history,
)
from kgatnet.kg_builder import KnowledgeGraph
from kgatnet.preprocess import Document
from oracles import (
    PER_HEAD_LAYER,
    PRODUCTION_LAYER,
    aggregate_head,
    drawn_in_order,
    fd_gradient_max_error,
    forward_loss_and_gradients,
    full_loss_and_gradients,
    l2_gradient,
    l2_penalty,
    loop_edge_list,
    min_leaky_margin,
    multi_head_layer,
    naive_layer,
    naive_probabilities,
    neighbors_from_pairs,
    normalize_scores,
    per_head_layer_backward,
    per_head_layer_forward,
    per_head_segment_softmax,
    per_key_adam_step,
    raw_attention_score,
    train_trait,
    weight_decayed_loss_and_gradients,
    where_elu,
    where_elu_grad,
)


def small_config(**kw):
    base = dict(
        epochs=5, batch_size=4, learning_rate=0.01, patience=3,
        validation_split=0.25, heads_per_layer=2, hidden_units=4,
        dense_units=4, attention_layers=2, seed=11,
    )
    base.update(kw)
    return TrainConfig(**base)


def tiny_instance(n_ent=4, n_essay=2, pairs=((0, 1), (1, 2), (2, 3)),
                  essay_links=((0, 0), (1, 3)), seed=0):
    """Entities on a path, essays hooked to its ends; returns tensors + X."""
    n = n_ent + n_essay
    index_pairs = list(pairs) + [(n_ent + d, e) for d, e in essay_links]
    tensors = GraphTensors.from_edges(n, index_pairs, n_essay)
    rng = np.random.default_rng(seed)
    X = np.zeros((n, n_ent))
    X[:n_ent] = np.eye(n_ent)
    X[n_ent:] = (rng.random((n_essay, n_ent)) < 0.5).astype(float)
    nbrs = neighbors_from_pairs(n, index_pairs)
    return tensors, X, nbrs


# --- config -------------------------------------------------------------

def test_config_rejects_zero_patience():
    with pytest.raises(ConfigError):
        small_config(patience=0)


def test_config_rejects_bad_split():
    with pytest.raises(ConfigError):
        small_config(validation_split=0.0)
    with pytest.raises(ConfigError):
        small_config(validation_split=1.0)


def test_config_rejects_nonpositive_counts():
    with pytest.raises(ConfigError):
        small_config(epochs=0)
    with pytest.raises(ConfigError):
        small_config(heads_per_layer=0)


def test_config_table_defaults():
    cfg = TrainConfig()
    assert (cfg.epochs, cfg.batch_size, cfg.patience) == (50, 32, 10)
    assert (cfg.heads_per_layer, cfg.hidden_units, cfg.attention_layers) == (8, 128, 5)
    assert cfg.learning_rate == pytest.approx(3e-4)


# --- attention score ------------------------------------------------------

def test_raw_score_zero_case():
    W = np.eye(1)
    a = np.array([1.0, 1.0])
    assert raw_attention_score(np.zeros(1), np.zeros(1), W, a) == 0.0


def test_raw_score_negative_slope():
    # pre-activation of exactly -1 comes out as -0.2
    W = np.eye(1)
    a = np.array([1.0, 0.0])
    got = raw_attention_score(np.array([-1.0]), np.array([5.0]), W, a)
    assert got == pytest.approx(-0.2)


def test_raw_score_matches_direct_formula():
    rng = np.random.default_rng(3)
    W = rng.normal(size=(3, 2))
    a = rng.normal(size=6)
    hs = rng.normal(size=(3, 2))
    for i in range(3):
        for j in range(3):
            pre = 0.0
            for r in range(3):  # scalar evaluation of a . [Wh_i || Wh_j]
                pre += a[r] * sum(W[r, c] * hs[i][c] for c in range(2))
                pre += a[3 + r] * sum(W[r, c] * hs[j][c] for c in range(2))
            want = pre if pre > 0 else 0.2 * pre
            got = raw_attention_score(hs[i], hs[j], W, a)
            assert got == pytest.approx(want, rel=1e-12)


def test_raw_score_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        raw_attention_score(np.zeros(2), np.zeros(2), np.eye(2), np.zeros(3))


def test_normalize_two_equal_scores():
    assert normalize_scores([1.3, 1.3]).tolist() == [0.5, 0.5]


def test_normalize_single_neighbor():
    assert normalize_scores([-7.0]).tolist() == [1.0]


def test_normalize_closed_form():
    got = normalize_scores([0.0, math.log(3.0)])
    assert np.allclose(got, [0.25, 0.75], atol=1e-12)


def test_normalize_sums_to_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        alpha = normalize_scores(rng.normal(size=rng.integers(1, 9)) * 10)
        assert np.all(alpha >= 0)
        assert abs(alpha.sum() - 1.0) < 1e-12


# --- aggregation ---------------------------------------------------------

def test_aggregate_head_single_neighbor_identity():
    wh = np.array([[2.0, -3.0]])
    got = aggregate_head(np.array([1.0]), wh, activation=lambda x: x)
    assert np.array_equal(got, wh[0])


def test_aggregate_head_mean_of_equal_neighbors():
    wh = np.tile([1.5, -0.5], (4, 1))
    alpha = np.full(4, 0.25)
    assert np.allclose(aggregate_head(alpha, wh), elu(wh[0]), atol=1e-15)


def test_aggregate_head_matches_dense_oracle():
    # single head on a random 4-node graph vs sigma(A_alpha . (H W^T))
    rng = np.random.default_rng(5)
    pairs = [(0, 1), (1, 2), (2, 3), (0, 3)]
    tensors = GraphTensors.from_edges(4, pairs, 0)
    H = rng.normal(size=(4, 3))
    W = rng.normal(size=(2, 3))
    a = rng.normal(size=4)
    out, _ = attention_layer_forward(H, tensors, W[None], a[None])

    nbrs = neighbors_from_pairs(4, pairs)
    Wh = H @ W.T
    A = np.zeros((4, 4))
    for i in range(4):
        scores = np.array([
            max(s, 0) + 0.2 * min(s, 0)
            for s in (np.concatenate([Wh[i], Wh[j]]) @ a for j in nbrs[i])
        ])
        ez = np.exp(scores - scores.max())
        A[i, nbrs[i]] = ez / ez.sum()
    want = elu(A @ Wh)
    assert np.allclose(out, want, atol=1e-12)


def test_multi_head_single_head_degeneracy():
    rng = np.random.default_rng(1)
    pairs = [(0, 1), (1, 2)]
    tensors = GraphTensors.from_edges(3, pairs, 0)
    H = rng.normal(size=(3, 2))
    W = rng.normal(size=(2, 2))
    a = rng.normal(size=4)
    single = multi_head_layer(H, tensors, W[None], a[None])
    for copies in (2, 4, 8):
        repeated = multi_head_layer(H, tensors, np.stack([W] * copies), np.stack([a] * copies))
        assert np.array_equal(repeated, single)  # bitwise


def test_multi_head_two_heads_direct_formula():
    rng = np.random.default_rng(2)
    pairs = [(0, 1), (1, 2)]  # 3-node path
    tensors = GraphTensors.from_edges(3, pairs, 0)
    H = rng.normal(size=(3, 3))
    W = rng.normal(size=(2, 2, 3))
    a = rng.normal(size=(2, 4))
    got = multi_head_layer(H, tensors, W, a)
    want = naive_layer(H, neighbors_from_pairs(3, pairs), W, a)
    assert np.allclose(got, want, atol=1e-12)


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(9)
    pairs = [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)]
    tensors = GraphTensors.from_edges(5, pairs, 0)
    H = rng.normal(size=(5, 3))
    _, (*_, alpha) = attention_layer_forward(
        H, tensors, rng.normal(size=(1, 2, 3)), rng.normal(size=(1, 4))
    )
    sums = np.add.reduceat(alpha[0], tensors.seg_starts)
    assert np.allclose(sums, 1.0, atol=1e-6)


def random_pairs(rng, n_nodes, n_pairs):
    """Random index pairs with self-pairs and repeats; the upper nodes get
    none, so they keep only their self-loop."""
    linked = max(1, n_nodes - 2)
    return [tuple(int(v) for v in rng.integers(0, linked, size=2)) for _ in range(n_pairs)]


def test_from_edges_matches_pairwise_loop():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(1, 15))
        pairs = random_pairs(rng, n, int(rng.integers(0, 30)))
        tensors = GraphTensors.from_edges(n, pairs, 0)
        src, dst = loop_edge_list(n, pairs)
        assert np.array_equal(tensors.src, src)
        assert np.array_equal(tensors.dst, dst)
        assert tensors.src.dtype == tensors.dst.dtype == np.int64
        assert np.array_equal(tensors.seg_starts, np.searchsorted(dst, np.arange(n)))


def assert_layer_matches_per_head_reference(tensors, H, W, a, dOut):
    """The layer, forward and backward, against the per-head reference run
    on each model of the stack alone, bit for bit."""
    out, cache = attention_layer_forward(H, tensors, W, a)
    dH, dW, da = attention_layer_backward(dOut, cache, tensors, W, a)
    assert dW.shape == W.shape and da.shape == a.shape
    for m in np.ndindex(W.shape[:-3]):
        ref_out, ref_cache = per_head_layer_forward(H[m], tensors, W[m], a[m])
        assert np.array_equal(out[m], ref_out)
        # the input and the output; the reference's head average, which the
        # layer does not keep, is checked through the output and the backward
        ref_H, _, ref_out, ref_heads = ref_cache
        assert np.array_equal(cache[0][m], ref_H)
        assert np.array_equal(cache[1][m], ref_out)
        # the batched (Wh, kink mask, alpha) against the reference's per-head
        # (Wh, pre, alpha): the mask is where the scores are positive
        assert len(ref_heads) == W.shape[-3]
        ref_Wh, ref_pre, ref_alpha = (np.stack(want) for want in zip(*ref_heads))
        Wh, mask, alpha = cache[2:]
        assert mask.dtype == np.bool_
        assert np.array_equal(Wh[m], ref_Wh)
        assert np.array_equal(mask[m], ref_pre > 0)
        assert np.array_equal(alpha[m], ref_alpha)
        ref_dH, ref_dWs, ref_das = per_head_layer_backward(dOut[m], ref_cache, tensors,
                                                           W[m], a[m])
        assert np.array_equal(dH[m], ref_dH)
        assert np.array_equal(dW[m], np.stack(ref_dWs))
        assert np.array_equal(da[m], np.stack(ref_das))


def random_layer(rng, n, lead, heads):
    """A layer input, head weights, attention vectors and output gradient,
    with `lead` model axes in front of each."""
    f_in, f_out = int(rng.integers(2, 9)), int(rng.integers(9, 14))
    return (rng.normal(size=(*lead, n, f_in)), rng.normal(size=(*lead, heads, f_out, f_in)),
            rng.normal(size=(*lead, heads, 2 * f_out)), rng.normal(size=(*lead, n, f_out)))


@pytest.mark.parametrize("heads", [1, 2, 3, 8])
def test_layer_matches_per_head_reference_bitwise(heads):
    rng = np.random.default_rng(heads)
    for _ in range(10):
        n = int(rng.integers(3, 25))
        pairs = random_pairs(rng, n, int(rng.integers(1, 3 * n)))
        tensors = GraphTensors.from_edges(n, pairs, 0)
        assert_layer_matches_per_head_reference(tensors, *random_layer(rng, n, (), heads))


@pytest.mark.parametrize("heads", [1, 2, 3, 8])
def test_stacked_layer_matches_per_head_reference_bitwise(heads):
    rng = np.random.default_rng(30 + heads)
    for lead in [(3,), (5,), (2, 3)]:
        for _ in range(5):
            n = int(rng.integers(3, 25))
            pairs = random_pairs(rng, n, int(rng.integers(1, 3 * n)))
            tensors = GraphTensors.from_edges(n, pairs, 0)
            assert_layer_matches_per_head_reference(tensors, *random_layer(rng, n, lead, heads))


def test_long_segment_adds_its_edges_in_order():
    # node 0 has 48 incoming edges, so a sum that does not add them one at
    # a time in edge order moves bits there
    rng = np.random.default_rng(40)
    n = 60
    pairs = [(0, j) for j in range(1, 48)] + random_pairs(rng, n, 80)
    tensors = GraphTensors.from_edges(n, pairs, 0)
    assert np.diff(tensors.seg_starts)[0] >= 40
    for lead in [(), (2,)]:
        assert_layer_matches_per_head_reference(tensors, *random_layer(rng, n, lead, 3))


def test_reused_tensors_keep_one_block_count():
    # one GraphTensors serves stacks of 3, 2 and 3 models, as a stack does
    # when models leave it; the cached matrices are refilled, never stale
    rng = np.random.default_rng(41)
    n, heads = 20, 2
    tensors = GraphTensors.from_edges(n, random_pairs(rng, n, 40), 0)
    for models in (3, 2, 3):
        pairs = []
        for _ in range(2):
            assert_layer_matches_per_head_reference(
                tensors, *random_layer(rng, n, (models,), heads))
            # one matrix and its transposed view, of this block count, serve
            # the forward and the backward
            assert list(tensors._stacked) == [models * heads]
            pairs.append(tuple(tensors._stacked[models * heads]))
        # built once per block count, the view over the matrix's own arrays
        (A, A_T), again = pairs
        assert again[0] is A and again[1] is A_T
        assert np.shares_memory(A_T.data, A.data) and np.shares_memory(A_T.indices, A.indices)
    # a forward alone, as in inference, makes no transposed view
    fresh = GraphTensors.from_edges(n, random_pairs(rng, n, 40), 0)
    H, W, a, _ = random_layer(rng, n, (), heads)
    attention_layer_forward(H, fresh, W, a)
    assert fresh._stacked[heads][1] is None


def test_essay_view_is_the_suffix_of_edges_into_the_essays():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(1, 15))
        n_essays = int(rng.integers(0, n + 1))
        tensors = GraphTensors.from_edges(n, random_pairs(rng, n, int(rng.integers(0, 30))),
                                          n_essays)
        view = tensors.essay_view
        assert tensors.essay_view is view
        into = tensors.dst >= n - n_essays
        assert np.array_equal(into, np.arange(len(into)) >= len(into) - into.sum())
        assert (view.n_nodes, view.n_essays, view.first_row) == (n, n_essays, n - n_essays)
        assert np.array_equal(view.src, tensors.src[into])
        assert np.array_equal(view.first_row + view.dst, tensors.dst[into])
        assert np.array_equal(view.seg_starts, np.searchsorted(view.dst, np.arange(n_essays)))


@pytest.mark.parametrize("lead", [(), (3,)])
def test_layer_over_the_essay_view_matches_the_full_layer_bitwise(lead):
    # the view's rows are the full layer's essay rows, and for an output
    # gradient that is zero off the essays the gradients are the full layer's
    rng = np.random.default_rng(42 + len(lead))
    for _ in range(10):
        n = int(rng.integers(3, 25))
        n_essays = int(rng.integers(1, n))
        tensors = GraphTensors.from_edges(n, random_pairs(rng, n, int(rng.integers(1, 3 * n))),
                                          n_essays)
        H, W, a, dOut = random_layer(rng, n, lead, int(rng.integers(1, 4)))
        dOut[..., : n - n_essays, :] = 0.0
        out, cache = attention_layer_forward(H, tensors, W, a)
        view_out, view_cache = attention_layer_forward(H, tensors.essay_view, W, a)
        assert np.array_equal(view_out, out[..., n - n_essays :, :])
        got = attention_layer_backward(dOut[..., n - n_essays :, :], view_cache,
                                       tensors.essay_view, W, a)
        want = attention_layer_backward(dOut, cache, tensors, W, a)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_traced_gat_functions_exist():
    # the benchmark tracer wraps these by name, and a name it cannot find
    # is silently left untimed
    tracer = (Path(__file__).parent.parent / "benchmark" / "tracer.py").read_text()
    names = re.findall(r'tracer\.patch\(gat, "(\w+)"', tracer)
    assert "attention_layer_forward" in names and "attention_layer_backward" in names
    for name in names:
        assert callable(getattr(gat, name, None)), name


# --- initialisation ----------------------------------------------------------

@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("heads", [1, 2, 3])
def test_init_draws_each_head_in_order(seed, heads):
    cfg = small_config(seed=seed, heads_per_layer=heads, hidden_units=3, dense_units=5)
    for embed_dim in (0, 2):
        model = new_model(6, cfg, embed_dim=embed_dim)
        want = drawn_in_order(6, cfg, embed_dim=embed_dim)
        assert list(model.params) == list(want)
        for key in want:
            assert np.array_equal(model.params[key], want[key]), key
        assert model.params["att1.W"].shape == (heads, 3, 3)
        assert model.params["att1.a"].shape == (heads, 6)
        assert (model.n_features, model.dense_units, model.hidden_units,
                model.n_layers, model.embed_dim) == (6, 5, 3, 2, embed_dim)


# --- forward -------------------------------------------------------------

def test_forward_zero_classifier_gives_half():
    tensors, X, _ = tiny_instance()
    model = new_model(X.shape[1], small_config())
    model.params["clf.W"][:] = 0.0
    model.params["clf.b"][:] = 0.0
    probs = forward(model, tensors, X)
    assert np.array_equal(probs, np.full((2, 2), 0.5))


def test_forward_rows_sum_to_one():
    tensors, X, _ = tiny_instance(seed=4)
    model = new_model(X.shape[1], small_config(seed=21))
    probs = forward(model, tensors, sp.csr_matrix(X))
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(probs >= 0)


def test_forward_matches_second_implementation():
    tensors, X, nbrs = tiny_instance(seed=8)
    model = new_model(X.shape[1], small_config(seed=13))
    got = forward(model, tensors, sp.csr_matrix(X))
    essays = range(tensors.n_nodes - tensors.n_essays, tensors.n_nodes)
    want = naive_probabilities(model, nbrs, X, essays)
    assert np.allclose(got, want, atol=1e-10)


def test_aggregated_essays_are_the_rows_the_classifier_reads():
    graphs = [KnowledgeGraph(frozenset("ABC"), frozenset({("A", "B"), ("B", "C")})),
              KnowledgeGraph(frozenset("CD"), frozenset({("C", "D")}))]
    corpus = [(Document(d, ""), frozenset(c))
              for d, c in (("d1", "A"), ("d2", "CD"), ("d3", "BD"))]
    agg = attach_essay_nodes(aggregate_graphs(graphs), corpus)
    tensors = tensors_from_aggregated(agg)
    X = build_feature_matrix(agg)
    assert tensors.n_essays == len(agg.essay_nodes) == 3
    # each essay's probabilities come from its own node in the aggregator's index
    essays = [agg.essay_index[d] for d in agg.essay_nodes]
    nbrs = neighbors_from_pairs(agg.n_nodes, agg.index_edges())
    model = new_model(X.shape[1], small_config(seed=5))
    want = naive_probabilities(model, nbrs, X.toarray(), essays)
    assert np.allclose(forward(model, tensors, X), want, atol=1e-10)


def test_forward_enriched_matches_second_implementation():
    tensors, X, nbrs = tiny_instance(seed=8)
    rng = np.random.default_rng(0)
    emb = rng.normal(size=(2, 3))
    model = new_model(X.shape[1], small_config(seed=13, enriched=True), embed_dim=3)
    got = forward(model, tensors, X, embeddings=emb)
    essays = range(tensors.n_nodes - tensors.n_essays, tensors.n_nodes)
    want = naive_probabilities(model, nbrs, X, essays, embeddings=emb)
    assert np.allclose(got, want, atol=1e-10)


def test_forward_embedding_contract():
    tensors, X, _ = tiny_instance()
    enriched = new_model(X.shape[1], small_config(enriched=True), embed_dim=3)
    with pytest.raises(MissingEmbedding):
        forward(enriched, tensors, X)
    plain = new_model(X.shape[1], small_config())
    with pytest.raises(ShapeMismatch):
        forward(plain, tensors, X, embeddings=np.zeros((2, 3)))
    with pytest.raises(ShapeMismatch):
        forward(enriched, tensors, X, embeddings=np.zeros((2, 7)))


def test_forward_feature_shape_check():
    tensors, X, _ = tiny_instance()
    model = new_model(X.shape[1] + 1, small_config())
    with pytest.raises(ShapeMismatch):
        forward(model, tensors, X)


def stacked(models):
    return GatModel({k: np.stack([m.params[k] for m in models]) for k in models[0].params})


def random_step(rng, layers, lead, enriched, heads=None):
    """A random graph whose last nodes are essays, features, a model (a
    stack of them for a non-empty `lead`) of `heads` heads per layer (1 to
    3 at random when None), embeddings when `enriched`, and each model's
    batch of essay positions and targets."""
    n_essays = int(rng.integers(1, 8))
    n = n_essays + int(rng.integers(2, 12))
    tensors = GraphTensors.from_edges(n, random_pairs(rng, n, int(rng.integers(1, 3 * n))),
                                      n_essays)
    X = sp.csr_matrix((rng.random((n, 6)) < 0.4).astype(float))
    embed_dim = 3 if enriched else 0
    cfg = small_config(attention_layers=layers, heads_per_layer=heads or int(rng.integers(1, 4)),
                       hidden_units=5, dense_units=4, enriched=enriched)
    models = [new_model(6, cfg, embed_dim=embed_dim, rng=rng) for _ in range(math.prod(lead))]
    model = stacked(models) if lead else models[0]
    embeddings = rng.normal(size=(n_essays, embed_dim)) if enriched else None
    size = int(rng.integers(1, n_essays + 1))
    batch = np.stack([rng.permutation(n_essays)[:size] for _ in models]).reshape(*lead, size)
    return model, tensors, X, embeddings, batch, rng.integers(0, 2, size=batch.shape)


@pytest.mark.parametrize("layers, lead, enriched, heads, layer", [
    *(pytest.param(layers, lead, enriched, None, PRODUCTION_LAYER,
                   id=f"{enriched}-lead{i}-{layers}")
      for enriched in (False, True) for i, lead in enumerate([(), (3,)]) for layers in (1, 2, 3)),
    # against the per-head np.add.at layer: three layers over the whole
    # graph share its cached matrix, which each backward must refill with
    # its own weights, as a later layer's forward overwrote them
    pytest.param(4, (), False, None, PER_HEAD_LAYER, id="per_head-4-layers"),
    # the same with the last layer over the essays' edges for a stack of
    # models of several heads
    pytest.param(4, (3,), True, 3, PER_HEAD_LAYER, id="per_head-essay-view-3x3"),
])
def test_step_matches_the_full_step_bitwise(layers, lead, enriched, heads, layer):
    # the step runs its last layer over the essays' edges alone; the full
    # step runs every layer over every edge
    rng = np.random.default_rng([layers, len(lead), enriched])
    for _ in range(5):
        model, tensors, X, embeddings, batch, targets = random_step(rng, layers, lead, enriched,
                                                                    heads)
        loss, grads = forward_loss_and_gradients(model, tensors, X, batch, targets, embeddings)
        want_loss, want_grads = full_loss_and_gradients(model, tensors, X, batch, targets,
                                                        embeddings, layer)
        assert np.array_equal(loss, want_loss)
        assert grads.keys() == want_grads.keys()
        for key in grads:
            assert np.array_equal(grads[key], want_grads[key]), key


@pytest.mark.parametrize("lead", [(), (2,)])
@pytest.mark.parametrize("enriched", [False, True])
def test_forward_is_the_training_forward_without_its_caches(lead, enriched):
    rng = np.random.default_rng([7, len(lead), enriched])
    for layers in (1, 2, 3, 4):
        model, tensors, X, embeddings, _, _ = random_step(rng, layers, lead, enriched)
        want = softmax_rows(gat._forward(model, tensors, X, embeddings)[0])
        assert np.array_equal(forward(model, tensors, X, embeddings), want)


def test_predict_holds_no_backward_cache():
    # four layers: the training forward holds every layer's cache, while
    # predict holds one layer's arrays at a time and the essay rows
    rng = np.random.default_rng(45)
    n, n_essays = 300, 30
    tensors = GraphTensors.from_edges(n, random_pairs(rng, n, 1500), n_essays)
    X = sp.csr_matrix((rng.random((n, 20)) < 0.2).astype(float))
    model = new_model(20, small_config(attention_layers=4, heads_per_layer=4,
                                       hidden_units=16, dense_units=16))

    def peak(fn):
        fn()  # the cached attention matrices are built once, outside the peak
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    inference = peak(lambda: predict(model, tensors, X))
    training = peak(lambda: gat._forward(model, tensors, X, None))
    assert inference < training / 2


def test_segment_softmax_overwrites_its_scores():
    # at test_predict_holds_no_backward_cache's geometry: the softmax runs
    # in place, in the per-head reference's order, and holds one gathered
    # (L, E) array beside the scores, where it held four
    rng = np.random.default_rng(46)
    n = 300
    tensors = GraphTensors.from_edges(n, random_pairs(rng, n, 1500), 0)
    scores = rng.normal(size=(4, len(tensors.src))) * 5
    want = np.stack([per_head_segment_softmax(s, tensors.dst, tensors.seg_starts)
                     for s in scores])
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        got = gat.segment_softmax(scores, tensors.dst, tensors.seg_starts)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert got is scores
    assert np.array_equal(got, want)
    # the gather and the (L, N) segment maxima and sums, with a few KiB over
    assert peak <= scores.nbytes + 2 * scores.shape[0] * n * 8 + (4 << 10)


def test_activations_match_their_select_forms():
    # the max-based ELU and the min-based ELU derivative have the bits of
    # the np.where forms, signed zeros, subnormals and the extremes too
    rng = np.random.default_rng(48)
    tiny = np.finfo(float).tiny
    x = np.concatenate([rng.normal(size=4000) * 4, rng.normal(size=1000) * 1e-9,
                        [0.0, -0.0, tiny, -tiny, tiny / 4, -tiny / 4, 1e-300, -1e-300,
                         -1e-17, 1e-17, -40.0, -800.0, 800.0, np.inf, -np.inf]])
    out = elu(x)
    assert np.array_equal(out, where_elu(x))
    assert np.array_equal(np.signbit(out), np.signbit(where_elu(x)))
    assert np.array_equal(gat._elu_grad(out), where_elu_grad(out))
    assert np.isnan(elu(np.array([np.nan]))).all()


def test_isolated_essay_prediction_finite():
    # essay with no concept links: self-loop only
    tensors = GraphTensors.from_edges(2, [], 1)
    X = np.array([[1.0], [0.0]])
    model = new_model(1, small_config())
    probs = forward(model, tensors, X)
    assert np.all(np.isfinite(probs))
    assert predict(model, tensors, X) in (0, 1)


# --- loss and gradients ----------------------------------------------------

def test_loss_perfect_prediction_near_zero():
    tensors, X, _ = tiny_instance()
    model = new_model(X.shape[1], small_config())
    model.params["clf.W"][:] = 0.0
    model.params["clf.b"][:] = [40.0, -40.0]  # p ~ (1, 0)
    loss, _ = forward_loss_and_gradients(model, tensors, X, [0], [0])
    assert 0.0 <= loss < 1e-12


def test_loss_uniform_prediction_is_ln2():
    tensors, X, _ = tiny_instance()
    model = new_model(X.shape[1], small_config())
    model.params["clf.W"][:] = 0.0
    model.params["clf.b"][:] = 0.0
    for target in (0, 1):
        loss, _ = forward_loss_and_gradients(model, tensors, X, [1], [target])
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_weight_decay_adds_exact_l2_term():
    tensors, X, _ = tiny_instance()
    model = new_model(X.shape[1], small_config())
    wd = 0.01
    plain_loss, plain_grads = forward_loss_and_gradients(model, tensors, X, [0, 1], [0, 1])
    reg_loss, reg_grads = weight_decayed_loss_and_gradients(
        model, tensors, X, [0, 1], [0, 1], wd)
    penalty = sum(
        float(np.sum(v * v)) for k, v in model.params.items() if not k.endswith(".b"))
    assert reg_loss == pytest.approx(plain_loss + wd * penalty, rel=1e-12)
    for name in plain_grads:
        extra = reg_grads[name] - plain_grads[name]
        if name.endswith(".b"):
            assert np.all(extra == 0.0)  # biases are not penalized
        else:
            assert np.allclose(extra, 2 * wd * model.params[name], rtol=1e-12, atol=0)


def test_flat_weight_decay_matches_per_parameter_terms():
    # train_stack adds weight decay over its flat (M, P) rows, one decayed
    # parameter's columns at a time; the loss and the gradient must have the
    # bits of l2_penalty and l2_gradient over the parameter dict, which are
    # those of the per-parameter reference, for one model and for a stack
    tensors, X, _ = tiny_instance()
    wd = 0.02
    for models in (1, 3):
        stack = stacked([new_model(X.shape[1], small_config(seed=s)) for s in range(models)])
        batch, targets = [[0, 1]] * models, [[0, 1]] * models
        plain_loss, plain_grads = forward_loss_and_gradients(stack, tensors, X, batch, targets)
        reg_loss, reg_grads = weight_decayed_loss_and_gradients(stack, tensors, X, batch,
                                                                targets, wd)
        assert np.array_equal(l2_penalty(plain_loss, stack.params, wd), reg_loss)
        decayed = l2_gradient(plain_grads, stack.params, wd)
        assert decayed.keys() == reg_grads.keys()
        for name in reg_grads:
            assert np.array_equal(decayed[name], reg_grads[name])
        assert decayed["proj.b"] is plain_grads["proj.b"]  # biases pass through

        shapes = {k: a.shape[1:] for k, a in stack.params.items()}
        flat = _flatten(stack.params, shapes, (models,))
        g = _flatten(plain_grads, shapes, (models,))
        columns = gat._decayed_columns(shapes)
        assert len(columns) == sum(not name.endswith(".b") for name in shapes)
        loss = gat._weight_decay(plain_loss, g, flat, columns, wd)
        assert np.array_equal(loss, reg_loss)
        assert np.array_equal(g, _flatten(reg_grads, shapes, (models,)))


def test_loss_nonfinite_raises():
    tensors, X, _ = tiny_instance()
    model = new_model(X.shape[1], small_config())
    model.params["proj.W"][0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteLoss):
        forward_loss_and_gradients(model, tensors, X, [0, 1], [0, 1])


def test_loss_rejects_duplicate_batch():
    tensors, X, _ = tiny_instance()
    model = new_model(X.shape[1], small_config())
    with pytest.raises(ValueError):
        forward_loss_and_gradients(model, tensors, X, [0, 0], [0, 1])


def test_gradients_match_finite_differences():
    tensors, X, _ = tiny_instance(seed=17)
    model = new_model(X.shape[1], small_config(seed=23, heads_per_layer=1,
                                               attention_layers=1,
                                               hidden_units=3, dense_units=3))
    # differences straddling a LeakyReLU kink would be meaningless
    assert min_leaky_margin(model, tensors, X) > 0.02
    err = fd_gradient_max_error(model, tensors, sp.csr_matrix(X), [0, 1], [1, 0])
    assert err < 1e-4


def test_gradients_match_finite_differences_enriched():
    tensors, X, _ = tiny_instance(seed=1)
    rng = np.random.default_rng(1)
    emb = rng.normal(size=(2, 2))
    model = new_model(
        X.shape[1],
        small_config(seed=50, heads_per_layer=1, attention_layers=1,
                     hidden_units=3, dense_units=3, enriched=True),
        embed_dim=2,
    )
    assert min_leaky_margin(model, tensors, X) > 0.02
    err = fd_gradient_max_error(model, tensors, X, [0, 1], [0, 1], embeddings=emb)
    assert err < 1e-4


def test_masking_soundness_outside_receptive_field():
    # path of 8 entities, essays at both ends, 2 attention layers: changing
    # the far essay's features cannot touch the near essay's loss
    n_ent = 8
    pairs = [(i, i + 1) for i in range(n_ent - 1)] + [(8, 0), (9, 7)]
    tensors = GraphTensors.from_edges(10, pairs, 2)
    rng = np.random.default_rng(14)
    X = np.zeros((10, n_ent))
    X[:n_ent] = np.eye(n_ent)
    X[8] = (rng.random(n_ent) < 0.5).astype(float)
    X[9] = (rng.random(n_ent) < 0.5).astype(float)
    model = new_model(n_ent, small_config(seed=3))

    loss_before, _ = forward_loss_and_gradients(model, tensors, X, [0], [1])
    X_far = X.copy()
    X_far[9] = 1.0 - X_far[9]  # essay node 9 sits 9 hops away from essay 8
    loss_after, _ = forward_loss_and_gradients(model, tensors, X_far, [0], [1])
    assert loss_before == loss_after  # bitwise


# --- Adam -----------------------------------------------------------------

def test_adam_zero_gradient_keeps_params():
    flat, m, v = np.array([1.0, -2.0]), np.zeros(2), np.zeros(2)
    adam_step(flat, np.zeros(2), m, v, 1, lr=0.1)
    assert np.array_equal(flat, [1.0, -2.0])


def test_adam_first_step_is_signed_lr():
    flat, m, v = np.zeros(2), np.zeros(2), np.zeros(2)
    adam_step(flat, np.array([2.5, -0.3]), m, v, 1, lr=0.01)
    assert np.allclose(flat, [-0.01, 0.01], rtol=1e-6)


def test_adam_matches_reference_trace():
    # scalar quadratic 0.5*(p-3)^2, 10 steps, hand-rolled reference
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    p_ref, m, v = 0.0, 0.0, 0.0
    trace = []
    for t in range(1, 11):
        g = p_ref - 3.0
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p_ref = p_ref - lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        trace.append(p_ref)

    flat, m, v = np.array([0.0]), np.zeros(1), np.zeros(1)
    for t in range(1, 11):
        adam_step(flat, flat - 3.0, m, v, t, lr=lr)
        assert flat[0] == pytest.approx(trace[t - 1], abs=1e-15)


def test_adam_flat_buffer_matches_per_key_reference():
    rng = np.random.default_rng(4)
    shapes = {"a.W": (3, 4), "a.b": (3,), "c.W": (2, 5, 1)}
    for lead in ((), (3,)):  # one model, and a stack of three
        ref = {k: rng.normal(size=(*lead, *s)) for k, s in shapes.items()}
        flat = _flatten(ref, shapes, lead)
        m_ref = {k: np.zeros_like(p) for k, p in ref.items()}
        v_ref = {k: np.zeros_like(p) for k, p in ref.items()}
        m, v = np.zeros_like(flat), np.zeros_like(flat)
        for t in range(1, 11):
            # keys in another order than the parameters, as loss_and_gradients returns them
            grads = {k: rng.normal(size=(*lead, *shapes[k])) for k in reversed(shapes)}
            adam_step(flat, _flatten(grads, shapes, lead), m, v, t, lr=0.03)
            per_key_adam_step(ref, grads, m_ref, v_ref, t, lr=0.03)
            for got, want in ((flat, ref), (m, m_ref), (v, v_ref)):
                views = _split(got, shapes)
                for k in shapes:
                    assert np.array_equal(views[k], want[k])


@st.composite
def shape_dicts(draw):
    """A dict of 1 to 4 named shapes of 1 to 3 axes, and a lead of () or (M,)."""
    names = draw(st.lists(st.text("abcdefW.", min_size=1, max_size=4),
                          min_size=1, max_size=4, unique=True))
    shapes = {n: tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
              for n in names}
    lead = draw(st.sampled_from([(), (1,), (3,)]))
    return shapes, lead


@given(shape_dicts(), st.randoms(use_true_random=False))
def test_flatten_inverts_split_in_shapes_order(case, random):
    shapes, lead = case
    rng = np.random.default_rng(random.getrandbits(32))
    arrays = {k: rng.normal(size=(*lead, *s)) for k, s in shapes.items()}
    shuffled = dict(random.sample(list(arrays.items()), len(arrays)))
    flat = _flatten(shuffled, shapes, lead)
    assert flat.shape == (*lead, sum(math.prod(s) for s in shapes.values()))
    back = _split(flat, shapes)
    assert list(back) == list(shapes)
    for k in shapes:
        assert np.array_equal(back[k], arrays[k])
    assert np.array_equal(_flatten(back, shapes, lead), flat)


# --- training ---------------------------------------------------------------

def planted_corpus(n_essays=12, n_ent=5, seed=0):
    """Label 1 iff the essay mentions entity 0; otherwise random features."""
    rng = np.random.default_rng(seed)
    pairs = [(i, i + 1) for i in range(n_ent - 1)]
    links, X_rows, y = [], [], []
    for d in range(n_essays):
        label = d % 2
        row = (rng.random(n_ent) < 0.4).astype(float)
        row[0] = float(label)
        X_rows.append(row)
        y.append(label)
        for e in np.flatnonzero(row):
            links.append((n_ent + d, int(e)))
    n = n_ent + n_essays
    tensors = GraphTensors.from_edges(n, pairs + links, n_essays)
    X = np.vstack([np.eye(n_ent), np.array(X_rows)])
    return tensors, X, np.array(y)


def train_one(tensors, X, y, config):
    """One classifier: a stack of one model."""
    ((_, model, history),) = train_stack(tensors, X, [y], config)
    return model, history


def test_train_reaches_perfect_validation_on_planted_signal():
    tensors, X, y = planted_corpus()
    cfg = small_config(epochs=50, learning_rate=0.02, patience=10, seed=7)
    model, history = train_one(tensors, X, y, cfg)
    best_val = max(h[3] for h in history)
    assert best_val == 1.0
    assert len(history) <= 50


def test_train_deterministic_for_fixed_seed():
    tensors, X, y = planted_corpus()
    cfg = small_config(epochs=6, seed=5)
    m1, h1 = train_one(tensors, X, y, cfg)
    m2, h2 = train_one(tensors, X, y, cfg)
    assert h1 == h2
    for k in m1.params:
        assert np.array_equal(m1.params[k], m2.params[k])
    m3, _ = train_one(tensors, X, y, small_config(epochs=6, seed=6))
    assert any(not np.array_equal(m3.params[k], m1.params[k]) for k in m1.params)


def test_train_early_stopping_restores_best_snapshot():
    tensors, X, y = planted_corpus()
    cfg = small_config(epochs=40, learning_rate=0.02, patience=2, seed=7)
    model, history = train_one(tensors, X, y, cfg)
    accs = [h[3] for h in history]
    # snapshot rule: accuracy first, loss breaks ties; first strict improvement
    best_epoch, best_key = 0, (history[0][3], -history[0][2])
    for i, (_, _, vloss, vacc) in enumerate(history):
        if (vacc, -vloss) > best_key:
            best_epoch, best_key = i, (vacc, -vloss)
    assert len(history) - 1 - best_epoch <= cfg.patience
    # restored snapshot reproduces the recorded best point on the same split
    rng = np.random.default_rng(cfg.seed)
    shuffled = rng.permutation(np.arange(tensors.n_essays))
    n_val = max(1, int(round(tensors.n_essays * cfg.validation_split)))
    val_idx = shuffled[:n_val]
    loss, acc = evaluate_split(gat._forward(model, tensors, X, None)[0], val_idx, y[val_idx])
    assert acc == max(accs)
    assert loss == min(vl for _, _, vl, va in history if va == max(accs))


def test_train_enriched_requires_embeddings():
    tensors, X, y = planted_corpus()
    with pytest.raises(MissingEmbedding):
        train_one(tensors, X, y, small_config(enriched=True))


def stack_corpus(n_essays=14, n_ent=6, seed=0):
    """A planted corpus with sparse features, as the pipeline passes them,
    and five label vectors: the planted one and four random ones."""
    rng = np.random.default_rng(seed)
    tensors, X, y = planted_corpus(n_essays, n_ent, seed)
    ys = [y] + [(rng.random(n_essays) < 0.5).astype(int) for _ in range(4)]
    return tensors, sp.csr_matrix(X), ys, rng.normal(size=(n_essays, 3))


@pytest.mark.parametrize("models", [1, 3, 5])
@pytest.mark.parametrize("weight_decay,enriched", [(0.0, False), (0.02, False), (0.02, True)])
@pytest.mark.parametrize("batch_size", [4, 1])
def test_stack_matches_per_model_loop_bitwise(models, weight_decay, enriched, batch_size):
    tensors, X, ys, vecs = stack_corpus()
    cfg = small_config(epochs=12, learning_rate=0.02, patience=2, dense_units=5,
                       batch_size=batch_size, weight_decay=weight_decay, enriched=enriched)
    embeddings = vecs if enriched else None
    # each model leaves out two other essays: 12 to train on, 3 held out
    # for validation and 9 to fit, so the last batch of 4 holds one essay,
    # and batches of 1 make an epoch's mean loss a pairwise sum of 9
    train_idx = [np.delete(np.arange(14), [i, i + 3]) for i in range(models)]
    seeds = [[3, i, 7 - i] for i in range(models)]
    stacked = list(train_stack(tensors, X, ys[:models], cfg, train_idx=train_idx,
                               embeddings=embeddings, seeds=seeds))
    epochs = {i: len(history) for i, _, history in stacked}
    # each model comes back as it leaves the stack, ties in stack order
    assert [i for i, _, _ in stacked] == sorted(range(models), key=lambda i: (epochs[i], i))
    for i, model, history in stacked:
        want_model, want_history = train_trait(tensors, X, ys[i], cfg, train_idx=train_idx[i],
                                               embeddings=embeddings, seed=seeds[i])
        assert history == want_history
        assert model.params.keys() == want_model.params.keys()
        for key in model.params:
            assert np.array_equal(model.params[key], want_model.params[key]), (i, key)
    if models == 5:
        # the models leave the stack at different epochs
        assert len(set(epochs.values())) > 1


def test_stack_rejects_unequal_training_sizes():
    tensors, X, ys, _ = stack_corpus()
    with pytest.raises(ValueError, match="equally many"):
        list(train_stack(tensors, X, ys[:2], small_config(),
                         train_idx=[np.arange(12), np.arange(11)]))


def test_stacked_loss_names_the_diverging_model():
    tensors, X, _ = tiny_instance()
    models = [new_model(X.shape[1], small_config(seed=s)) for s in (1, 2, 3)]
    stack = stacked(models)
    stack.params["proj.W"][1, 0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteLoss) as info:
        forward_loss_and_gradients(stack, tensors, X, [[0, 1]] * 3, [[0, 1]] * 3)
    assert info.value.model == 1


def test_stack_divergence_names_the_model_by_its_index(monkeypatch):
    # after the first model leaves, the row of the stack is no longer the
    # index of the model; the error must carry the index
    tensors, X, ys, _ = stack_corpus()
    cfg = small_config(epochs=12, learning_rate=0.02, patience=2)
    seeds = [[3, i] for i in range(5)]
    lengths = {i: len(h) for i, _, h in train_stack(tensors, X, ys, cfg, seeds=seeds)}
    first_out = min(lengths.values())
    assert first_out < cfg.epochs
    real = gat.loss_and_gradients

    def diverge_after_shrinking(model, tensors, X_T, fwd, batch, targets):
        if np.shape(batch)[0] < 5:
            raise NonFiniteLoss("loss diverged: nan", model=0)
        return real(model, tensors, X_T, fwd, batch, targets)

    monkeypatch.setattr(gat, "loss_and_gradients", diverge_after_shrinking)
    with pytest.raises(NonFiniteLoss) as info:
        list(train_stack(tensors, X, ys, cfg, seeds=seeds))
    assert info.value.model == min(i for i, n in lengths.items() if n > first_out)


def count_forwards(monkeypatch):
    calls = []
    real = gat._forward

    def counted(*args, **kw):
        calls.append(np.shape(args[0].params["proj.b"])[0])
        return real(*args, **kw)

    monkeypatch.setattr(gat, "_forward", counted)
    return calls


def test_stack_shares_each_validation_forward_with_the_next_step(monkeypatch):
    # 14 essays, 4 held out and 10 fitted in batches of 4: three steps an
    # epoch, and patience beyond the last epoch, so no model leaves early
    tensors, X, ys, _ = stack_corpus()
    cfg = small_config(epochs=6, patience=7, learning_rate=0.02)
    calls = count_forwards(monkeypatch)
    stacked = list(train_stack(tensors, X, ys[:3], cfg, seeds=[[5, i] for i in range(3)]))
    assert all(len(history) == cfg.epochs for _, _, history in stacked)
    assert len(calls) == cfg.epochs * 3 + 1
    assert set(calls) == {3}


def test_stack_runs_a_new_forward_after_a_departure(monkeypatch):
    tensors, X, ys, _ = stack_corpus()
    cfg = small_config(epochs=12, learning_rate=0.02, patience=2)
    seeds = [[3, i] for i in range(5)]
    calls = count_forwards(monkeypatch)
    lengths = sorted(len(h) for _, _, h in train_stack(tensors, X, ys, cfg, seeds=seeds))
    # each epoch runs a forward per step and one to validate, and each
    # epoch after the first reuses the last one unless a model left
    departures = len({n for n in lengths if n < lengths[-1]})
    assert departures > 0
    assert len(calls) == lengths[-1] * 4 - (lengths[-1] - 1 - departures)
    # the forward that follows a departure is over the smaller stack
    assert sorted(calls, reverse=True) == calls


def test_model_bytes_bounds_the_peak_of_a_parameter_bound_stack():
    # the reproduction's paper widths (8 heads x 128 units, dense 128,
    # 5 layers) over a graph of the fixture's size (65 nodes, 35 entity
    # features, 30 essays): parameters, not activations, set the peak
    rng = np.random.default_rng(44)
    n_ent, n_essays = 35, 30
    n = n_ent + n_essays
    pairs = [tuple(int(v) for v in rng.choice(n, 2, replace=False)) for _ in range(320)]
    X = sp.csr_matrix((rng.random((n, n_ent)) < 0.2).astype(float))
    ys = [(rng.random(n_essays) < 0.5).astype(int) for _ in range(5)]
    cfg = TrainConfig(epochs=2, batch_size=8, patience=5, validation_split=0.2,
                      weight_decay=0.02)
    seeds = [[1, i] for i in range(5)]
    # a first, smaller stack fills numpy's and the interpreter's caches
    warm = GraphTensors.from_edges(n, pairs, n_essays)
    list(train_stack(warm, X, ys[:1], cfg, seeds=seeds[:1]))
    tensors = GraphTensors.from_edges(n, pairs, n_essays)
    estimate = 5 * gat.model_bytes(n, len(tensors.src), n_ent, cfg)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in train_stack(tensors, X, ys, cfg, seeds=seeds):
            pass
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # tracemalloc also counts the interpreter's own objects, which the
    # estimate leaves out: each model's generator, split and history, and
    # freed tuples kept for reuse, some tens of KiB in all
    assert peak <= estimate + (256 << 10)
    assert peak >= 0.99 * estimate


def test_model_bytes_bounds_the_peak_of_an_activation_bound_step():
    # 8 heads x 32 units over a graph of 5,400 edges, half of its 400
    # nodes essays: the (E, F) and (L, E) arrays, not the parameters, set
    # the peak of one step, taken over the parameters, Adam's moments and
    # the snapshot as train_stack holds them
    rng = np.random.default_rng(47)
    n, n_essays, n_ent = 400, 200, 20
    pairs = [tuple(int(v) for v in rng.choice(n, 2, replace=False)) for _ in range(2500)]
    X = sp.csr_matrix((rng.random((n, n_ent)) < 0.2).astype(float))
    cfg = TrainConfig(heads_per_layer=8, hidden_units=32, dense_units=32, attention_layers=2)
    batch = rng.permutation(n_essays)[None, : cfg.batch_size]

    def step(tensors):
        params = new_model(n_ent, cfg, rng=np.random.default_rng(1)).params
        shapes = {k: a.shape for k, a in params.items()}
        best = _flatten(params, shapes)[None]
        flat, m, v = best.copy(), np.zeros(best.shape), np.zeros(best.shape)
        model = GatModel(_split(flat, shapes))
        fwd = gat._forward(model, tensors, X, None)
        _, grads = gat.loss_and_gradients(model, tensors, X.T, fwd, batch, batch % 2)
        fwd = None
        grads = _flatten(grads, shapes, (1,))
        adam_step(flat, grads, m, v, 1, cfg.learning_rate)

    # a first step fills numpy's and the interpreter's caches
    step(GraphTensors.from_edges(n, pairs, n_essays))
    tensors = GraphTensors.from_edges(n, pairs, n_essays)
    estimate = gat.model_bytes(n, len(tensors.src), n_ent, cfg)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        step(tensors)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(tensors.src) == 5_400
    # the estimate counts the last layer, over the essays' edges, and the
    # classifier's input at the graph's size, so it exceeds the peak by
    # under a tenth (8.34 against 7.78 MB); an (E, F) gather kept past the
    # gathers raises the peak above it
    assert peak <= estimate <= 1.15 * peak


def test_predict_tie_goes_to_class_zero():
    tensors, X, _ = tiny_instance()
    model = new_model(X.shape[1], small_config())
    model.params["clf.W"][:] = 0.0
    model.params["clf.b"][:] = 0.0
    assert predict(model, tensors, X).tolist() == [0, 0]


def test_predict_argmax():
    tensors, X, _ = tiny_instance()
    model = new_model(X.shape[1], small_config())
    model.params["clf.W"][:] = 0.0
    model.params["clf.b"][:] = [2.0, -1.0]
    assert predict(model, tensors, X).tolist() == [0, 0]
    model.params["clf.b"][:] = [-1.0, 2.0]
    assert predict(model, tensors, X).tolist() == [1, 1]


def test_predictions_invariant_under_entity_permutation():
    tensors, X, _ = tiny_instance(seed=31)
    model = new_model(X.shape[1], small_config(seed=37))
    base_probs = forward(model, tensors, X)

    n_ent = 4
    rng = np.random.default_rng(99)
    perm = rng.permutation(n_ent)
    inv = np.argsort(perm)
    row_map = np.concatenate([perm, np.arange(n_ent, 6)])
    pairs = [(0, 1), (1, 2), (2, 3), (4, 0), (5, 3)]
    pairs2 = [tuple(sorted((int(row_map[i]), int(row_map[j])))) for i, j in pairs]
    tensors2 = GraphTensors.from_edges(6, pairs2, 2)
    X2 = X[np.argsort(row_map)][:, inv]
    model2 = new_model(X.shape[1], small_config(seed=37))
    model2.params = {k: v.copy() for k, v in model.params.items()}
    model2.params["proj.W"] = model.params["proj.W"][:, inv]
    probs2 = forward(model2, tensors2, X2)
    assert np.allclose(probs2, base_probs, atol=1e-9)
    assert np.array_equal(np.argmax(probs2, 1), np.argmax(base_probs, 1))


# --- persistence -------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path):
    tensors, X, _ = tiny_instance()
    model = new_model(X.shape[1], small_config(seed=41))
    path = tmp_path / "model.npz"
    save_model(model, path)
    back = load_model(path)
    assert back.params.keys() == model.params.keys()
    for k in model.params:
        assert np.array_equal(back.params[k], model.params[k])
    assert (back.n_features, back.hidden_units, back.embed_dim) == (
        model.n_features, model.hidden_units, model.embed_dim)
    # loaded model reproduces the exact same probabilities
    assert np.array_equal(forward(back, tensors, X), forward(model, tensors, X))


def test_checkpoint_rejects_unknown_version(tmp_path):
    import json
    path = tmp_path / "bad.npz"
    np.savez(path, __meta__=np.array(json.dumps({"version": 99})))
    with pytest.raises(ValueError):
        load_model(path)


def test_interrupted_checkpoint_write_leaves_no_file(tmp_path, monkeypatch):
    tensors, X, _ = tiny_instance()
    model = new_model(X.shape[1], small_config(seed=41))
    path = tmp_path / "model.npz"

    real_write_bytes = Path.write_bytes

    def crash(self, data):
        real_write_bytes(self, data[: len(data) // 2])
        raise KeyboardInterrupt

    monkeypatch.setattr(Path, "write_bytes", crash)
    with pytest.raises(KeyboardInterrupt):
        save_model(model, path)
    assert list(tmp_path.iterdir()) == []


def test_history_csv_format(tmp_path):
    path = tmp_path / "history.csv"
    write_history([(1, 0.5, 0.6, 0.75), (2, 0.4, 0.55, 0.8)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,val_accuracy"
    assert lines[1] == "1,0.500000,0.600000,0.750000"
    assert len(lines) == 3
