"""Random walks and skip-gram embeddings."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgatnet import rdf2vec
from kgatnet.aggregator import AggregatedGraph
from kgatnet.errors import ConfigError, EmptyCorpus, NonFiniteLoss, UnknownNode
from kgatnet.rdf2vec import (
    EmbedConfig,
    EmbeddingMatrix,
    generate_walks,
    read_embeddings,
    train_embeddings,
    train_skip_gram,
    write_embeddings,
)
from oracles import count_pairs, reference_skip_gram, rows_for


def graph_from_pairs(n_entities, pairs, essays=()):
    """AggregatedGraph over entity names E0..E{n-1} plus optional essays."""
    names = [f"E{i}" for i in range(n_entities)]
    ee = frozenset(
        tuple(sorted((names[i], names[j]))) for i, j in pairs if i != j
    )
    ese = frozenset((d, names[e]) for d, e in essays)
    return AggregatedGraph(tuple(names), tuple(d for d, _ in essays), ee, ese)


def two_cliques():
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    pairs += [(i, j) for i in range(5, 10) for j in range(i + 1, 10)]
    return graph_from_pairs(10, pairs)


def edge_name_set(agg):
    edges = set()
    for u, v in agg.entity_entity_edges:
        edges.add(frozenset((u, v)))
    for d, e in agg.essay_entity_edges:
        edges.add(frozenset((d, e)))
    return edges


def test_isolated_node_walk_is_root_only():
    agg = graph_from_pairs(2, [])
    walks = generate_walks(agg, max_depth=5, walks_per_node=3, seed=0)
    assert walks == [["E0"], ["E1"]]  # dedup collapses repeats


def test_forced_move_on_path():
    agg = graph_from_pairs(2, [(0, 1)])
    walks = generate_walks(agg, max_depth=1, walks_per_node=4, seed=0)
    from_e0 = [w for w in walks if w[0] == "E0"]
    assert from_e0 == [["E0", "E1"]]


def test_walks_cover_essay_nodes():
    agg = graph_from_pairs(2, [(0, 1)], essays=[("d1", 0)])
    walks = generate_walks(agg, max_depth=2, walks_per_node=4, seed=0)
    roots = {w[0] for w in walks}
    assert "d1" in roots
    flat = {n for w in walks for n in w}
    assert "d1" in flat


def test_walks_deterministic_and_seed_sensitive():
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    agg = graph_from_pairs(6, pairs)
    a = generate_walks(agg, 5, 5, seed=1)
    b = generate_walks(agg, 5, 5, seed=1)
    c = generate_walks(agg, 5, 5, seed=2)
    assert a == b
    assert a != c


@settings(max_examples=30)
@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda p: p[0] != p[1]),
        max_size=12,
    ),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 3),
)
def test_walk_validity_properties(pairs, depth, per_node, seed):
    agg = graph_from_pairs(8, pairs)
    walks = generate_walks(agg, depth, per_node, seed)
    edges = edge_name_set(agg)
    per_root = {}
    for walk in walks:
        assert 1 <= len(walk) <= depth + 1
        for u, v in zip(walk, walk[1:]):
            assert frozenset((u, v)) in edges
        per_root[walk[0]] = per_root.get(walk[0], 0) + 1
    # every node is a root at least once, nobody exceeds the cap
    assert set(per_root) == set(agg.entity_nodes)
    assert all(1 <= c <= per_node for c in per_root.values())


def test_skip_gram_empty_corpus():
    with pytest.raises(EmptyCorpus):
        train_skip_gram([], dim=4, window=2, negatives=2, epochs=1, lr=0.025,
                        min_lr=1e-4, seed=0)


def test_skip_gram_smoke_degenerate():
    walks = [["A", "B"]] * 20
    matrix, losses, _ = train_skip_gram(walks, dim=1, window=2, negatives=2,
                                        epochs=5, lr=0.1, min_lr=1e-4, seed=3)
    assert np.all(np.isfinite(matrix.vectors))
    assert losses[-1] < losses[0]
    assert rows_for(matrix, ["A"])[0].shape == (1,)


def test_skip_gram_deterministic():
    walks = [["A", "B", "C"], ["C", "B", "A"], ["B", "A", "C"]]
    kw = dict(dim=8, window=5, negatives=5, epochs=3, lr=0.025, min_lr=1e-4)
    m1, *_ = train_skip_gram(walks, **kw, seed=5)
    m2, *_ = train_skip_gram(walks, **kw, seed=5)
    assert m1.node_ids == m2.node_ids
    assert np.array_equal(m1.vectors, m2.vectors)
    m3, *_ = train_skip_gram(walks, **kw, seed=6)
    assert not np.array_equal(m3.vectors, m1.vectors)


# corpora for the per-center reference: revisiting walks over a tiny
# vocabulary (a center meets a target twice, a noise draw hits its own
# context), no noise at all, and one-node walks, which train no pair but
# still count toward the learning-rate decay
REFERENCE_CASES = {
    "repeats": ([["A", "B", "A", "B", "C"], ["C", "A", "C", "A"], ["B", "B", "A"],
                 ["A", "C", "B", "C", "A", "B"]] * 3, dict(window=3, negatives=4)),
    "no-negatives": ([["A", "B", "C", "D"], ["D", "C", "A"], ["B", "D"]] * 4,
                     dict(window=2, negatives=0)),
    "one-node-walks": ([["A"], ["A", "B", "C"], ["D"], ["C", "B", "E", "A"], ["E"]] * 4,
                       dict(window=2, negatives=3)),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_skip_gram_matches_per_center_reference(case):
    walks, geometry = REFERENCE_CASES[case]
    kw = dict(dim=6, epochs=3, lr=0.2, min_lr=1e-4, seed=7, **geometry)
    matrix, losses, pairs = train_skip_gram(walks, **kw)
    ids, vectors, ref_losses, dropped, repeated = reference_skip_gram(walks, **kw)
    assert pairs == kw["epochs"] * count_pairs(walks, kw["window"])
    assert matrix.node_ids == ids
    assert np.allclose(matrix.vectors, vectors, rtol=1e-10, atol=1e-13)
    assert np.allclose(losses, ref_losses, rtol=1e-10, atol=0)
    if case == "repeats":
        assert dropped > 0 and repeated > 0  # the corpus exercises both


@pytest.mark.parametrize("chunk", [1, 3, 10_000])
def test_skip_gram_vectors_do_not_depend_on_chunk_size(monkeypatch, chunk):
    walks = generate_walks(two_cliques(), max_depth=4, walks_per_node=30, seed=3)
    assert len(walks) > rdf2vec._CHUNK_WALKS
    kw = dict(dim=8, window=3, negatives=4, epochs=2, lr=0.025, min_lr=1e-4, seed=2)
    base, base_losses, _ = train_skip_gram(walks, **kw)
    monkeypatch.setattr(rdf2vec, "_CHUNK_WALKS", chunk)
    other, losses, _ = train_skip_gram(walks, **kw)
    assert np.array_equal(other.vectors, base.vectors)
    assert losses == pytest.approx(base_losses, rel=1e-12)


def test_each_epoch_draws_pairs_times_negatives_uniforms(monkeypatch):
    walks = [["A", "B", "C", "D", "E"], ["C", "A"], ["B"], ["E", "D", "C", "B"]] * 5
    dim, window, negatives, epochs, seed = 4, 2, 3, 2, 11
    made = []
    real = np.random.default_rng

    def spy(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", spy)
    train_skip_gram(walks, dim=dim, window=window, negatives=negatives,
                    epochs=epochs, lr=0.025, min_lr=1e-4, seed=seed)
    (used,) = made
    by_hand = real([seed])
    by_hand.uniform(-0.5 / dim, 0.5 / dim, size=(5, dim))  # the w_in draw
    pairs = sum(1 for w in walks for p in range(len(w)) for q in range(len(w))
                if q != p and abs(q - p) <= window)
    assert count_pairs(walks, window) == pairs
    by_hand.random(epochs * pairs * negatives)
    assert used.bit_generator.state == by_hand.bit_generator.state


def test_skip_gram_divergence_raises():
    walks = [["A", "B", "C"], ["C", "A", "B"]] * 5
    with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss):
        train_skip_gram(walks, dim=4, window=2, negatives=2, epochs=3,
                        lr=1e200, min_lr=1e200, seed=0)


def test_embedding_stats_describe_the_run():
    agg = two_cliques()
    cfg = EmbedConfig(embed_dim=4, walk_depth=3, walks_per_node=4, window=2,
                      negatives=2, embed_epochs=2, seed=5)
    matrix, stats = train_embeddings(agg, cfg)
    walks = generate_walks(agg, cfg.walk_depth, cfg.walks_per_node, cfg.seed)
    alone, losses, _ = train_skip_gram(walks, dim=4, window=2, negatives=2, epochs=2,
                                       lr=cfg.embed_learning_rate,
                                       min_lr=cfg.embed_min_learning_rate, seed=5)
    assert matrix.node_ids == alone.node_ids
    assert np.array_equal(matrix.vectors, alone.vectors)
    assert stats == {
        "walks": len(walks),
        "centers": 2 * sum(map(len, walks)),
        "pairs": 2 * count_pairs(walks, 2),
        "loss": losses[-1],
    }


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def test_two_cliques_intra_beats_inter_cosine():
    # two disconnected 5-cliques; walks never cross, vectors should cluster
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    pairs += [(i, j) for i in range(5, 10) for j in range(i + 1, 10)]
    agg = graph_from_pairs(10, pairs)
    cfg = EmbedConfig(embed_dim=16, walk_depth=5, walks_per_node=20, window=5,
                      negatives=5, embed_epochs=5, seed=1)
    matrix, _ = train_embeddings(agg, cfg)
    first = list(rows_for(matrix, [f"E{i}" for i in range(5)]))
    second = list(rows_for(matrix, [f"E{i}" for i in range(5, 10)]))
    intra, inter = [], []
    for grp in (first, second):
        for i in range(5):
            for j in range(i + 1, 5):
                intra.append(cosine(grp[i], grp[j]))
    for a in first:
        for b in second:
            inter.append(cosine(a, b))
    assert np.mean(intra) > np.mean(inter)


def written(tmp_path, ids, vectors):
    path = tmp_path / "vectors.txt"
    write_embeddings(EmbeddingMatrix(tuple(ids), np.asarray(vectors, dtype=float)), path)
    return path


def test_read_embeddings_picks_rows_by_id(tmp_path):
    path = written(tmp_path, ("A", "B"), np.arange(6).reshape(2, 3))
    assert read_embeddings(path, ["B"]).tolist() == [[3.0, 4.0, 5.0]]
    assert read_embeddings(path, []).shape == (0, 3)
    with pytest.raises(UnknownNode):
        read_embeddings(path, ["A", "missing"])


def test_read_embeddings_returns_rows_in_the_requested_order(tmp_path):
    path = written(tmp_path, ("A", "B", "C"), np.eye(3))
    assert read_embeddings(path, ["C", "A"]).tolist() == [[0, 0, 1], [1, 0, 0]]


def full_parse(path):
    """Every row of a vectors.txt, parsed to floats: id -> vector."""
    _, *lines = path.read_text(encoding="utf-8").splitlines()
    return {line.split(" ")[0]: [float(x) for x in line.split(" ")[1:]] for line in lines}


def test_read_embeddings_rows_are_bit_equal_to_a_full_parse(tmp_path):
    walks = generate_walks(two_cliques(), max_depth=3, walks_per_node=4, seed=8)
    matrix, *_ = train_skip_gram(walks, dim=5, window=5, negatives=5, epochs=2, lr=0.025,
                                 min_lr=1e-4, seed=4)
    path = tmp_path / "vectors.txt"
    write_embeddings(matrix, path)
    every = full_parse(path)
    picked = ["E7", "E2", "E9"]
    rows = read_embeddings(path, picked)
    assert np.array_equal(rows, np.array([every[node] for node in picked]))
    assert rows.flags.c_contiguous


def test_embedding_file_round_trip(tmp_path):
    walks = [["A", "B", "C"], ["B", "C", "A"]]
    matrix, *_ = train_skip_gram(walks, dim=4, window=5, negatives=5, epochs=2, lr=0.025,
                                 min_lr=1e-4, seed=9)
    path = tmp_path / "vectors.txt"
    write_embeddings(matrix, path)
    assert path.read_text().splitlines()[0] == "3 4"
    back = read_embeddings(path, matrix.node_ids)
    assert np.array_equal(back, matrix.vectors)  # repr round-trips


def test_read_embeddings_rejects_bad_width(tmp_path):
    p = tmp_path / "vectors.txt"
    p.write_text("1 3\nA 0.0 1.0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_embeddings(p, ["A"])


def test_read_embeddings_checks_the_rows_it_does_not_return(tmp_path):
    p = tmp_path / "vectors.txt"
    p.write_text("2 3\nA 0.0 1.0\nB 0.0 1.0 2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="'A' has wrong width"):
        read_embeddings(p, ["B"])


def test_read_embeddings_rejects_a_truncated_file(tmp_path):
    p = tmp_path / "vectors.txt"
    p.write_text("3 2\nA 0.0 1.0\nB 0.0 1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="truncated"):
        read_embeddings(p, ["A"])


def test_read_embeddings_rejects_an_empty_file(tmp_path):
    p = tmp_path / "vectors.txt"
    p.write_text("", encoding="utf-8")
    with pytest.raises(ValueError):
        read_embeddings(p, ["A"])


def test_embed_config_validation():
    with pytest.raises(ConfigError):
        EmbedConfig(embed_dim=0)
    with pytest.raises(ConfigError):
        EmbedConfig(embed_min_learning_rate=0.5, embed_learning_rate=0.1)
    cfg = EmbedConfig()
    assert (cfg.embed_dim, cfg.walk_depth, cfg.walks_per_node) == (500, 5, 5)
