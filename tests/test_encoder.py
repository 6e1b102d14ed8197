import numpy as np
import pytest

from factdesc import corpus, encoder
from factdesc.encoder import EncoderConfig, positional_weights
from factdesc.errors import ConfigError
from factdesc.tensor import Tensor


def test_positional_weights_single_word_column():
    col = positional_weights(1, 4)
    assert col.shape == (4, 1)
    assert np.allclose(col[:, 0], [0.25, 0.5, 0.75, 1.0])


def test_positional_weights_two_by_two():
    w = positional_weights(2, 2)
    assert np.allclose(w[:, 0], [0.5, 0.5])
    assert np.allclose(w[:, 1], [0.5, 1.0])


def test_positional_weights_midpoint_column_is_constant_half():
    for J in (2, 4, 10, 60):
        w = positional_weights(J, 7)
        assert np.allclose(w[:, J // 2 - 1], 0.5)  # j = J/2, 1-indexed


def test_positional_weights_matches_closed_form_everywhere():
    rng = np.random.default_rng(9)
    for _ in range(20):
        J = int(rng.integers(1, 61))
        d = int(rng.integers(1, 101))
        w = positional_weights(J, d)
        for _ in range(10):
            k = int(rng.integers(1, d + 1))
            j = int(rng.integers(1, J + 1))
            expected = (1 - j / J) - (k / d) * (1 - 2 * j / J)
            assert w[k - 1, j - 1] == pytest.approx(expected, abs=1e-15)


def test_positional_weights_column_sums_identity():
    rng = np.random.default_rng(13)
    for _ in range(20):
        J = int(rng.integers(1, 61))
        d = int(rng.integers(1, 101))
        w = positional_weights(J, d)
        j = np.arange(1, J + 1)
        expected = d * (1 - j / J) - ((d + 1) / 2) * (1 - 2 * j / J)
        assert np.allclose(w.sum(axis=0), expected, atol=1e-9)


def test_positional_weights_rejects_zero_phrase():
    with pytest.raises(ConfigError):
        positional_weights(0, 4)


def _vocab(words):
    return corpus.Vocabulary(["<UNK>", "<SOS>", "<EOS>"] + words)


def test_encode_fact_single_word_positional():
    vocab = _vocab(["street"])
    d = 4
    table = Tensor(np.zeros((len(vocab), d)), requires_grad=False)
    table.data[vocab.word_index("street")] = [1.0, 1.0, 1.0, 1.0]
    cfg = EncoderConfig(embedding_dim=d)
    fact = corpus.Fact(["street"], [], [])  # single-word phrase
    out = encoder.encode_fact(fact, table, vocab, cfg)
    assert np.allclose(out.data, [[0.25, 0.5, 0.75, 1.0]])


def test_encode_fact_mean_pool_of_identical_embeddings():
    vocab = _vocab(["blue", "sky"])
    d = 3
    table = Tensor(np.zeros((len(vocab), d)))
    table.data[vocab.word_index("blue")] = [1.0, 2.0, 3.0]
    table.data[vocab.word_index("sky")] = [1.0, 2.0, 3.0]
    cfg = EncoderConfig(embedding_dim=d, encoding="mean_pool")
    fact = corpus.Fact(["blue"], ["sky"], ["sky"])
    out = encoder.encode_fact(fact, table, vocab, cfg)
    assert np.allclose(out.data, [[1.0, 2.0, 3.0]])


def test_encode_fact_mean_pool_opposite_embeddings_cancel():
    vocab = _vocab(["hot", "cold"])
    d = 2
    table = Tensor(np.zeros((len(vocab), d)))
    table.data[vocab.word_index("hot")] = [1.0, -2.0]
    table.data[vocab.word_index("cold")] = [-1.0, 2.0]
    cfg = EncoderConfig(embedding_dim=d, encoding="mean_pool")
    fact = corpus.Fact(["hot"], ["cold"], ["cold"])
    out = encoder.encode_fact(fact, table, vocab, cfg)
    assert np.allclose(out.data, [[0.0, 0.0]])


def test_encode_fact_unknown_words_use_unk_embedding():
    vocab = _vocab([])
    d = 2
    table = Tensor(np.zeros((len(vocab), d)))
    table.data[0] = [5.0, 5.0]  # <UNK>
    cfg = EncoderConfig(embedding_dim=d, encoding="mean_pool")
    fact = corpus.Fact(["mystery"], ["word"], ["word"])
    out = encoder.encode_fact(fact, table, vocab, cfg)
    assert np.allclose(out.data, [[5.0, 5.0]])


def _two_fact_entity():
    return corpus.Entity(
        "Q1",
        [corpus.Fact(["a"], [], []), corpus.Fact(["b"], [], [])],
        None,
    )


def _entity_setup(d=2):
    vocab = _vocab(["a", "b"])
    table = Tensor(np.zeros((len(vocab), d)))
    table.data[vocab.word_index("a")] = [1.0, 0.0][:d]
    table.data[vocab.word_index("b")] = [0.0, 1.0][:d]
    return vocab, table


def test_encode_entity_mean_fact_is_elementwise_mean():
    vocab, table = _entity_setup()
    cfg = EncoderConfig(embedding_dim=2)
    enc = encoder.encode_entity(_two_fact_entity(), table, vocab, cfg, max_facts=4)
    # single-word phrases in positional mode scale by l = [k/d] = [0.5, 1.0]
    f0, f1 = enc.embeddings.data[0], enc.embeddings.data[1]
    mean = enc.embeddings.data[enc.mean_slot]
    assert np.allclose(mean, (f0 + f1) / 2, atol=1e-12)


def test_encode_entity_single_fact_mean_equals_fact():
    vocab, table = _entity_setup()
    cfg = EncoderConfig(embedding_dim=2)
    entity = corpus.Entity("Q1", [corpus.Fact(["a"], [], [])], None)
    enc = encoder.encode_entity(entity, table, vocab, cfg, max_facts=4)
    assert np.allclose(enc.embeddings.data[1], enc.embeddings.data[0])


def test_encode_entity_one_slot_per_fact_plus_mean():
    vocab, table = _entity_setup()
    cfg = EncoderConfig(embedding_dim=2)
    enc = encoder.encode_entity(_two_fact_entity(), table, vocab, cfg, max_facts=5)
    assert enc.embeddings.data.shape == (3, 2)
    assert enc.mask.tolist() == [True, True, True]
    assert enc.n_facts == 2 and enc.mean_slot == 2
    seven = corpus.Entity("Q7", [corpus.Fact(["a"], [], [])] * 7, None)
    enc = encoder.encode_entity(seven, table, vocab, cfg, max_facts=5)
    assert enc.embeddings.data.shape == (6, 2)
    assert enc.mask.tolist() == [True] * 6
    assert enc.n_facts == 5 and enc.mean_slot == 5 and len(enc.word_counts) == 5


def test_encode_entity_fixed_mean_is_shared_across_entities():
    vocab, table = _entity_setup()
    cfg = EncoderConfig(embedding_dim=2, mean_fact="fixed_random")
    rng = np.random.default_rng(0)
    frozen = Tensor(encoder.fixed_mean_vector(rng, 2))
    one = encoder.encode_entity(_two_fact_entity(), table, vocab, cfg, 4, fixed_mean=frozen)
    entity2 = corpus.Entity("Q2", [corpus.Fact(["b"], [], [])], None)
    two = encoder.encode_entity(entity2, table, vocab, cfg, 4, fixed_mean=frozen)
    assert np.array_equal(one.embeddings.data[one.mean_slot],
                          two.embeddings.data[two.mean_slot])
    assert (np.abs(frozen.data) <= 1 / np.sqrt(2)).all()


def test_encode_entity_rejects_zero_facts():
    vocab, table = _entity_setup()
    with pytest.raises(ConfigError):
        encoder.encode_entity(corpus.Entity("Q", [], None), table, vocab,
                              EncoderConfig(embedding_dim=2))


def test_encode_entity_permutation_covariant():
    rng = np.random.default_rng(21)
    vocab = _vocab(["a", "b", "c", "d", "e"])
    d = 3
    table = Tensor(rng.normal(size=(len(vocab), d)))
    cfg = EncoderConfig(embedding_dim=d)
    facts = [corpus.Fact.build(p, v) for p, v in
             [("kind", "a b"), ("place", "c"), ("name", "d e a")]]
    entity = corpus.Entity("Q", facts, None)
    enc = encoder.encode_entity(entity, table, vocab, cfg, max_facts=4)
    perm = [2, 0, 1]
    shuffled = corpus.Entity("Q", [facts[i] for i in perm], None)
    enc_perm = encoder.encode_entity(shuffled, table, vocab, cfg, max_facts=4)
    for new_row, old_row in enumerate(perm):
        assert np.allclose(enc_perm.embeddings.data[new_row], enc.embeddings.data[old_row])
    assert np.allclose(enc_perm.embeddings.data[3], enc.embeddings.data[3], atol=1e-12)
