import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factdesc import corpus, encoder
from factdesc.encoder import positional_weights
from factdesc.errors import ConfigError
from factdesc.tensor import Tape, Tensor, backward, concat, grad_check, mul, sum_all, tanh
from factdesc.training import TrainConfig


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


def _encode_one(fact, table, vocab, cfg):
    """The fact's slot row of a one-fact entity."""
    enc = encoder.encode_entity(corpus.Entity("Q1", [fact], None), table, vocab, cfg)
    return enc.embeddings.data[:1]


def test_encode_fact_single_word_positional():
    vocab = _vocab(["street"])
    d = 4
    table = Tensor(np.zeros((len(vocab), d)), requires_grad=False)
    table.data[vocab.word_index("street")] = [1.0, 1.0, 1.0, 1.0]
    cfg = TrainConfig()
    fact = corpus.Fact(["street"], [], [])  # single-word phrase
    out = _encode_one(fact, table, vocab, cfg)
    assert np.allclose(out, [[0.25, 0.5, 0.75, 1.0]])


def test_encode_entity_takes_the_word_tables_width():
    # d in the closed form is the width of the table the words come from
    vocab = _vocab(["x", "y", "z", "w"])
    fact = corpus.Fact.build("x y", "z w z")
    phrase = fact.phrase()
    J = len(phrase)
    rng = np.random.default_rng(4)
    for d in (1, 3, 5):
        table = Tensor(rng.normal(size=(len(vocab), d)))
        expected = [sum(table.data[vocab.word_index(word), k - 1]
                        * ((1 - j / J) - (k / d) * (1 - 2 * j / J))
                        for j, word in enumerate(phrase, start=1)) for k in range(1, d + 1)]
        enc = encoder.encode_entity(corpus.Entity("Q1", [fact], None), table, vocab,
                                    TrainConfig())
        assert enc.embeddings.data.shape == (2, d)
        assert np.allclose(enc.embeddings.data, [expected, expected], rtol=1e-12, atol=1e-12)


def test_encode_fact_mean_pool_of_identical_embeddings():
    vocab = _vocab(["blue", "sky"])
    d = 3
    table = Tensor(np.zeros((len(vocab), d)))
    table.data[vocab.word_index("blue")] = [1.0, 2.0, 3.0]
    table.data[vocab.word_index("sky")] = [1.0, 2.0, 3.0]
    cfg = TrainConfig(encoding="mean_pool")
    fact = corpus.Fact(["blue"], ["sky"], ["sky"])
    out = _encode_one(fact, table, vocab, cfg)
    assert np.allclose(out, [[1.0, 2.0, 3.0]])


def test_encode_fact_mean_pool_opposite_embeddings_cancel():
    vocab = _vocab(["hot", "cold"])
    d = 2
    table = Tensor(np.zeros((len(vocab), d)))
    table.data[vocab.word_index("hot")] = [1.0, -2.0]
    table.data[vocab.word_index("cold")] = [-1.0, 2.0]
    cfg = TrainConfig(encoding="mean_pool")
    fact = corpus.Fact(["hot"], ["cold"], ["cold"])
    out = _encode_one(fact, table, vocab, cfg)
    assert np.allclose(out, [[0.0, 0.0]])


def test_encode_fact_unknown_words_use_unk_embedding():
    vocab = _vocab([])
    d = 2
    table = Tensor(np.zeros((len(vocab), d)))
    table.data[0] = [5.0, 5.0]  # <UNK>
    cfg = TrainConfig(encoding="mean_pool")
    fact = corpus.Fact(["mystery"], ["word"], ["word"])
    out = _encode_one(fact, table, vocab, cfg)
    assert np.allclose(out, [[5.0, 5.0]])


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
    cfg = TrainConfig()
    enc = encoder.encode_entity(_two_fact_entity(), table, vocab, cfg)
    # single-word phrases in positional mode scale by l = [k/d] = [0.5, 1.0]
    f0, f1 = enc.embeddings.data[0], enc.embeddings.data[1]
    mean = enc.embeddings.data[2]
    assert np.allclose(mean, (f0 + f1) / 2, atol=1e-12)


def test_encode_entity_single_fact_mean_equals_fact():
    vocab, table = _entity_setup()
    cfg = TrainConfig()
    entity = corpus.Entity("Q1", [corpus.Fact(["a"], [], [])], None)
    enc = encoder.encode_entity(entity, table, vocab, cfg)
    assert np.allclose(enc.embeddings.data[1], enc.embeddings.data[0])


def test_encode_entity_one_slot_per_fact_plus_mean():
    vocab, table = _entity_setup()
    cfg = TrainConfig()
    enc = encoder.encode_entity(_two_fact_entity(), table, vocab, cfg)
    assert enc.embeddings.data.shape == (3, 2)
    assert enc.mask.tolist() == [True, True, True]
    # every fact is encoded: the limit on facts applies when entities are read
    seven = corpus.Entity("Q7", [corpus.Fact(["a"], [], [])] * 7, None)
    enc = encoder.encode_entity(seven, table, vocab, cfg)
    assert enc.embeddings.data.shape == (8, 2)
    assert enc.mask.tolist() == [True] * 8
    assert [f.name for f in dataclasses.fields(enc)] == ["embeddings", "mask"]


def test_encode_entity_fixed_mean_is_shared_across_entities():
    vocab, table = _entity_setup()
    cfg = TrainConfig()
    rng = np.random.default_rng(0)
    frozen = Tensor(encoder.fixed_mean_vector(rng, 2))
    one = encoder.encode_entity(_two_fact_entity(), table, vocab, cfg, fixed_mean=frozen)
    entity2 = corpus.Entity("Q2", [corpus.Fact(["b"], [], [])], None)
    two = encoder.encode_entity(entity2, table, vocab, cfg, fixed_mean=frozen)
    assert np.array_equal(one.embeddings.data[2], two.embeddings.data[1])
    assert (np.abs(frozen.data) <= 1 / np.sqrt(2)).all()


def test_encode_entity_rejects_zero_facts():
    vocab, table = _entity_setup()
    with pytest.raises(ConfigError):
        encoder.encode_entity(corpus.Entity("Q", [], None), table, vocab, TrainConfig())


def test_encode_entity_rejects_an_empty_phrase():
    vocab, table = _entity_setup()
    entity = corpus.Entity("Q", [corpus.Fact(["a"], [], []), corpus.Fact([], [], [])], None)
    with pytest.raises(ConfigError, match="empty phrase"):
        encoder.encode_entity(entity, table, vocab, TrainConfig())


def test_encode_entity_permutation_covariant():
    rng = np.random.default_rng(21)
    vocab = _vocab(["a", "b", "c", "d", "e"])
    d = 3
    table = Tensor(rng.normal(size=(len(vocab), d)))
    cfg = TrainConfig()
    facts = [corpus.Fact.build(p, v) for p, v in
             [("kind", "a b"), ("place", "c"), ("name", "d e a")]]
    entity = corpus.Entity("Q", facts, None)
    enc = encoder.encode_entity(entity, table, vocab, cfg)
    perm = [2, 0, 1]
    shuffled = corpus.Entity("Q", [facts[i] for i in perm], None)
    enc_perm = encoder.encode_entity(shuffled, table, vocab, cfg)
    for new_row, old_row in enumerate(perm):
        assert np.allclose(enc_perm.embeddings.data[new_row], enc.embeddings.data[old_row])
    assert np.allclose(enc_perm.embeddings.data[3], enc.embeddings.data[3], atol=1e-12)


def _oracle(entity, table, vocab, cfg, fixed_mean, coeffs):
    """Slot rows and the gradient of sum(coeffs * rows) into the word table, fact by fact.

    Written in plain numpy from ``positional_weights``: a fact's row is
    its phrase's word embeddings weighted by column j of the weights (or
    by 1/J when mean pooling) and summed.
    """
    facts = entity.facts
    rows, grad = [], np.zeros_like(table.data)
    mean_coeff = coeffs[len(facts)] / len(facts) if fixed_mean is None else 0.0
    for i, fact in enumerate(facts):
        phrase = fact.phrase()[: cfg.max_phrase_len]
        emb = table.data[vocab.indices(phrase)]
        if cfg.encoding == "positional":
            weights = positional_weights(len(phrase), table.data.shape[1]).T
        else:
            weights = np.full(emb.shape, 1.0 / len(phrase))
        rows.append((emb * weights).sum(axis=0))
        np.add.at(grad, vocab.indices(phrase), (coeffs[i] + mean_coeff) * weights)
    mean = np.mean(rows, axis=0) if fixed_mean is None else fixed_mean[0]
    return np.array(rows + [mean]), grad


_WORD = st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "h", "zz", "qq"])


_PHRASES = st.lists(st.tuples(st.lists(_WORD, min_size=1, max_size=5),
                              st.lists(_WORD, max_size=5)), min_size=1, max_size=7)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16), n_known=st.integers(0, 8),
       batch=st.lists(_PHRASES, min_size=1, max_size=5),
       dim=st.integers(1, 6), encoding=st.sampled_from(encoder.ENCODING_MODES),
       mean_fact=st.sampled_from(encoder.MEAN_FACT_MODES),
       max_phrase_len=st.integers(1, 10))
def test_encode_entity_equals_per_fact_oracle(seed, n_known, batch, dim, encoding, mean_fact,
                                              max_phrase_len):
    # encode_entities on 1-5 entities against the oracle, entity by entity;
    # each entity's rows against its batch of one (encode_entity)
    rng = np.random.default_rng(seed)
    vocab = _vocab(["a", "b", "c", "d", "e", "f", "g", "h"][:n_known])
    table = Tensor(rng.normal(size=(len(vocab), dim)), requires_grad=True)
    cfg = TrainConfig(encoding=encoding, max_factual_words=max_phrase_len)
    entities = [corpus.Entity(f"Q{i}", [corpus.Fact(p, v, []) for p, v in phrases], None)
                for i, phrases in enumerate(batch)]
    frozen = Tensor(encoder.fixed_mean_vector(rng, dim)) if mean_fact == "fixed_random" else None
    n = np.array([len(phrases) for phrases in batch])  # 1-7 facts, every one encoded
    coeffs = rng.normal(size=(n.sum() + len(n), dim))
    with Tape() as tape:
        fact_rows, mean_rows = encoder.encode_entities(entities, table, vocab, cfg,
                                                       fixed_mean=frozen)
        loss = sum_all(mul(concat([fact_rows, mean_rows]), Tensor(coeffs)))
    backward(loss, tape)
    assert fact_rows.data.shape == (n.sum(), dim) and mean_rows.data.shape == (len(n), dim)
    expected_grad = np.zeros_like(table.data)
    by_phrase = {}
    for b, (entity, start) in enumerate(zip(entities, np.cumsum(n) - n)):
        own = slice(start, start + n[b])
        rows, grad = _oracle(entity, table, vocab, cfg, None if frozen is None else frozen.data,
                             np.vstack([coeffs[own], coeffs[n.sum() + b]]))
        expected_grad += grad
        got = np.vstack([fact_rows.data[own], mean_rows.data[b]])
        assert np.abs(got - rows).max() <= 1e-12 * np.abs(rows).max()
        alone = encoder.encode_entity(entity, table, vocab, cfg, fixed_mean=frozen)
        assert np.array_equal(fact_rows.data[own], alone.embeddings.data[:-1])
        scale = np.abs(alone.embeddings.data[:-1]).max()
        assert np.abs(mean_rows.data[b] - alone.embeddings.data[-1]).max() <= 1e-15 * scale
        for fact, row in zip(entity.facts, fact_rows.data[own]):
            same = by_phrase.setdefault(tuple(fact.phrase()[:max_phrase_len]), row)
            assert np.array_equal(row, same)
    assert (np.abs(table.grad - expected_grad) / np.maximum(1.0, np.abs(expected_grad))).max() \
        <= 1e-10


@pytest.mark.parametrize("mean_fact", encoder.MEAN_FACT_MODES)
def test_encode_entities_gradient_matches_finite_differences(mean_fact):
    rng = np.random.default_rng(17)
    vocab = _vocab(["a", "b", "c", "d"])
    table = Tensor(rng.normal(size=(len(vocab), 3)), requires_grad=True)
    frozen = Tensor(encoder.fixed_mean_vector(rng, 3)) if mean_fact == "fixed_random" else None
    facts = [corpus.Fact.build(p, v) for p, v in
             [("a", "b c"), ("d", "a"), ("b b", "zz d"), ("c", "c a b"), ("qq", "a")]]
    entities = [corpus.Entity("Q1", facts[:3], None), corpus.Entity("Q2", facts[3:4], None),
                corpus.Entity("Q3", facts[3:], None)]  # 3, 1 and 2 facts
    coeffs = Tensor(rng.normal(size=(6 + 3, 3)))

    def f(params):
        rows = encoder.encode_entities(entities, params[0], vocab, TrainConfig(),
                                       fixed_mean=frozen)
        return sum_all(mul(tanh(concat(rows)), coeffs))

    assert grad_check(f, [table]) < 1e-6


def test_identical_phrases_give_bit_equal_rows():
    # attention breaks ties toward the lowest slot, so two facts that read
    # the same words must encode to exactly the same row wherever they sit
    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(12)]
    vocab = _vocab(words)
    long = corpus.Fact(words[:3], words[3:12], [])  # 12 words
    mid = corpus.Fact(["w1", "w0"], ["w5", "w7", "w7", "w2", "w9", "w4"], [])  # 8 words
    short = corpus.Fact(["w3"], ["w8", "w1"], [])
    facts = [long, short, mid, long, mid, short, short, long, mid, mid, long]
    entity = corpus.Entity("Q", facts, None)
    for dim in (7, 64, 100):
        table = Tensor(rng.normal(size=(len(vocab), dim)))
        for encoding in encoder.ENCODING_MODES:
            cfg = TrainConfig(encoding=encoding)
            rows = encoder.encode_entity(entity, table, vocab, cfg).embeddings.data
            for fact in (long, mid, short):
                same = [i for i, f in enumerate(facts) if f is fact]
                for i in same[1:]:
                    assert np.array_equal(rows[i], rows[same[0]]), (dim, encoding, i)
