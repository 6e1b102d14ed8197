from pathlib import Path

import numpy as np
import pytest

from factdesc import corpus, decoder
from factdesc.decoder import DecoderParams, ModelDims
from factdesc.errors import EmptyFactError, ShapeError
from factdesc.tensor import (Tensor, add, affine, getitem, grad_check, masked_softmax, mul,
                             reshape, sum_all)
from factdesc.training import TrainConfig

ROOT = Path(__file__).resolve().parent.parent


def tiny_dims(**kw):
    base = dict(embed_dim=3, hidden_dim=3, attn_dim=3, head_dim=3,
                vocab_size=6, copy_width=4)
    base.update(kw)
    return ModelDims(**base)


def zeroed_params(dims, mean_fact_mode="mean"):
    params = DecoderParams(dims, mean_fact_mode, rng=np.random.default_rng(0))
    for _, t in params.named_tensors():
        t.data[:] = 0.0
    return params


def _attend(embs, mask, h, params):
    # one entity's (T, S) attention rows for the states h (T, H), as a batch of one
    keys = decoder.attention_keys(embs, params)
    return decoder.fact_attention(keys, np.asarray(mask)[None], Tensor(h.data[None]), params)


def test_identical_fact_embeddings_give_uniform_attention():
    dims = tiny_dims()
    params = DecoderParams(dims, rng=np.random.default_rng(1))
    embs = Tensor(np.tile(np.array([[0.3, -0.2, 0.5]]), (4, 1)))
    h = Tensor(np.random.default_rng(2).normal(size=(1, 3)))
    alpha = _attend(embs, np.ones(4, dtype=bool), h, params)
    assert np.allclose(alpha.data, 0.25)


def test_zero_energy_weights_give_uniform_attention():
    dims = tiny_dims()
    params = DecoderParams(dims, rng=np.random.default_rng(3))
    params.attn_energy_w.data[:] = 0.0
    params.attn_energy_b.data[:] = 0.0
    embs = Tensor(np.random.default_rng(4).normal(size=(5, 3)))
    h = Tensor(np.random.default_rng(5).normal(size=(1, 3)))
    alpha = _attend(embs, np.ones(5, dtype=bool), h, params)
    assert np.allclose(alpha.data, 0.2)


def test_attention_matches_softmax_of_constructed_energies():
    # tanh attention wired so slot energies land exactly on (1, 2)
    dims = tiny_dims(embed_dim=1, hidden_dim=1, attn_dim=1)
    params = zeroed_params(dims)
    params.attn_hidden_w.data[:] = [[1.0, 0.0]]
    params.attn_energy_w.data[:] = [[4.0]]
    embs = Tensor(np.array([[np.arctanh(0.25)], [np.arctanh(0.5)], [0.7]]))
    h = Tensor(np.zeros((1, 1)))
    alpha = _attend(embs, np.array([True, True, False]), h, params).data[0]
    assert alpha[2] == 0.0
    assert np.allclose(alpha[:2], [0.26894142, 0.73105858], atol=1e-8)


def test_attention_rows_are_valid_distributions():
    dims = tiny_dims()
    params = DecoderParams(dims, rng=np.random.default_rng(6))
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        mask = rng.uniform(size=n) < 0.7
        if not mask.any():
            mask[0] = True
        embs = Tensor(rng.normal(size=(n, 3)))
        h = Tensor(rng.normal(size=(1, 3)))
        alpha = _attend(embs, mask, h, params).data[0]
        assert abs(alpha.sum() - 1.0) < 1e-12
        assert (alpha[~mask] == 0.0).all()


def _pair_energies(embs, h, params):
    # every (state, slot) pair scored on its own: w . tanh(W [slot; state] + b) + b_e
    p = {name: t.data for name, t in params.named_tensors()}
    return np.array([[p["attn_energy_w"][0] @ np.tanh(p["attn_hidden_w"] @ np.r_[slot, state]
                                                      + p["attn_hidden_b"])
                      + p["attn_energy_b"][0] for slot in embs] for state in h])


def test_fact_attention_pairs_every_state_with_every_slot():
    # state-major: row t holds every slot scored against state t, in one
    # entity's (T, S) layout and in a batch's padded (B * T, S) layout
    dims = tiny_dims(embed_dim=3, hidden_dim=2, attn_dim=4)
    params = DecoderParams(dims, rng=np.random.default_rng(20))
    rng = np.random.default_rng(21)
    embs, h = rng.normal(size=(2, 5, 3)), rng.normal(size=(2, 4, 2))
    masks = np.array([[True, False, True, True, True], [True, True, True, False, False]])
    keys = decoder.attention_keys(Tensor(embs.reshape(10, 3)), params)
    batched = decoder.fact_attention(keys, masks, Tensor(h), params).data.reshape(2, 4, 5)
    with pytest.raises(ShapeError):  # one entity's states and mask without the batch axis
        decoder.fact_attention(decoder.attention_keys(Tensor(embs[0]), params), masks[0],
                               Tensor(h[0]), params)
    for b in range(2):
        one = _attend(Tensor(embs[b]), masks[b], Tensor(h[b]), params).data
        energies = np.where(masks[b], _pair_energies(embs[b], h[b], params), -np.inf)
        expected = np.exp(energies - energies.max(axis=1, keepdims=True))
        expected /= expected.sum(axis=1, keepdims=True)
        assert np.allclose(one, expected, rtol=1e-12, atol=1e-15)
        assert np.allclose(batched[b], one, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("steps", [1, 6])
def test_identical_slots_get_bit_equal_attention_wherever_they_sit(steps):
    # two facts with the same phrase embed identically, and the argmax
    # must then take the lower slot: their weights must tie exactly
    params = DecoderParams(TrainConfig().dims(), rng=np.random.default_rng(22))
    rng = np.random.default_rng(23 + steps)
    for _ in range(150):
        n = int(rng.integers(3, 16))
        embs = rng.normal(size=(n, 100)) * 0.2
        first, second = sorted(rng.choice(n, 2, replace=False))
        embs[second] = embs[first]
        h = Tensor(rng.normal(size=(steps, 100)))
        alpha = _attend(Tensor(embs), np.ones(n, dtype=bool), h, params).data
        assert np.array_equal(alpha[:, first], alpha[:, second]), (n, first, second)
        batch = np.zeros((3, 16, 100))
        batch[1, :n] = embs
        live = np.arange(16) < np.array([[16], [n], [5]])
        keys = decoder.attention_keys(Tensor(batch.reshape(48, 100)), params)
        states = Tensor(np.stack([h.data] * 3))
        alpha = decoder.fact_attention(keys, live, states, params).data[steps:2 * steps]
        assert np.array_equal(alpha[:, first], alpha[:, second]), (n, first, second)


def test_greedy_identical_facts_tie_and_copy_from_the_lower_slot():
    # sample1k-sized layers and 3-15 facts, where a GEMV's rounding could
    # depend on where a row sits: the twin facts' weights must tie exactly
    words = [f"w{i}" for i in range(40)]
    vocab = corpus.Vocabulary(["<UNK>", "<SOS>", "<EOS>"] + words)
    plan = decoder.DecodePlan(DecoderParams(TrainConfig().dims(), rng=np.random.default_rng(24)))
    rng = np.random.default_rng(25)
    picked_twin = 0
    for case in range(40):
        facts = [corpus.Fact.build("p", " ".join(rng.choice(words, int(rng.integers(1, 5)))))
                 for _ in range(int(rng.integers(2, 15)))]
        first, second = sorted(rng.choice(len(facts) + 1, 2, replace=False))
        facts.insert(second, facts[first])
        _, trace = decoder.greedy_decode(corpus.Entity("Q", facts, None), plan, vocab,
                                         TrainConfig(copy_only=case % 2 == 1), max_len=6,
                                         return_trace=True)
        for token, alpha in trace:
            assert alpha[first] == alpha[second], (case, first, second)
            assert np.argmax(alpha) != second
            if np.argmax(alpha) == first:
                assert token in facts[first].factual_words
                picked_twin += 1
    assert picked_twin


def test_greedy_decode_rejects_a_fact_wider_than_the_copy_head():
    dims = tiny_dims(copy_width=4)
    vocab = corpus.Vocabulary(["<UNK>", "<SOS>", "<EOS>", "street", "in", "blue"])
    entity = corpus.Entity("Q", [corpus.Fact.build("kind", "one two three four five")], None)
    for seed in range(5):
        params = DecoderParams(dims, rng=np.random.default_rng(seed))
        with pytest.raises(ShapeError):
            decoder.greedy_decode(entity, decoder.DecodePlan(params), vocab, TrainConfig(),
                                  max_len=20)


def test_positive_rescaling_keeps_argmax():
    rng = np.random.default_rng(8)
    for _ in range(20):
        energies = rng.normal(size=5)
        mask = np.ones(5, dtype=bool)
        base = np.argmax(masked_softmax(Tensor(energies[None]), mask).data)
        for scale in (0.1, 3.0, 17.0):
            assert np.argmax(masked_softmax(Tensor(energies[None] * scale), mask).data) == base


def test_slot_embedding_gathers_the_exact_row():
    rng = np.random.default_rng(15)
    slots = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    weights = Tensor(rng.normal(size=(1, 3)))
    for slot in range(4):
        row = decoder.slot_embedding(slots, [slot])
        assert row.data.shape == (1, 3)
        assert np.array_equal(row.data[0], slots.data[slot])

        def f(ps, slot=slot):
            return sum_all(mul(decoder.slot_embedding(ps[0], [slot]), weights))

        assert grad_check(f, [slots]) < 1e-6
        assert np.array_equal(np.delete(slots.grad, slot, axis=0), np.zeros((3, 3)))


def _gate_inputs(f, w, v, params):
    # (B, T, 3H) gate inputs of the rows [f; w; v] (B, T, .), through the gate columns
    fact, word, copy, bias = decoder.gate_columns(params)
    rows = [reshape(x, (-1, x.shape[-1])) for x in (f, w, v)]
    pre = add(add(affine(rows[0], fact, bias), affine(rows[1], word)), affine(rows[2], copy))
    return reshape(pre, f.shape[:2] + (-1,))


def test_gate_columns_split_each_gate_by_input():
    params = DecoderParams(tiny_dims(), rng=np.random.default_rng(8))
    fact, word, copy, bias = decoder.gate_columns(params)
    for i, gate in enumerate(decoder.GATES):
        x = getattr(params, f"gru_{gate}_x").data
        rows = np.s_[3 * i:3 * i + 3]
        assert np.array_equal(np.hstack([fact.data[rows], word.data[rows], copy.data[rows]]), x)
        assert np.array_equal(bias.data[rows], getattr(params, f"gru_{gate}_b").data)


def test_decoder_step_zero_weights_halve_state():
    dims = tiny_dims()
    params = zeroed_params(dims)
    h_prev = Tensor(np.array([[0.4, -0.8, 1.2]]))
    pre = _gate_inputs(Tensor(np.ones((1, 1, 3))), Tensor(np.zeros((1, 1, 3))),
                       Tensor(np.zeros((1, 1, 4))), params)
    h = decoder.decoder_step(pre, h_prev, params)
    assert h.shape == (1, 1, 3)
    assert np.allclose(h.data[:, 0], 0.5 * h_prev.data)
    zero = decoder.decoder_step(pre, Tensor(np.zeros((1, 3))), params)
    assert np.allclose(zero.data, 0.0)


def test_decoder_step_gradients_match_finite_differences():
    # through the gate columns, so the gradients reach every gru_* tensor
    dims = tiny_dims()
    params = DecoderParams(dims, rng=np.random.default_rng(9))
    rng = np.random.default_rng(10)
    f_t, w_prev, v_prev = (Tensor(rng.normal(size=(1, 1, n))) for n in (3, 3, 4))
    h_prev = Tensor(rng.normal(size=(1, 3)))
    gru = [t for name, t in params.named_tensors() if name.startswith("gru_")]

    def f(_):
        return sum_all(decoder.decoder_step(_gate_inputs(f_t, w_prev, v_prev, params),
                                            h_prev, params))

    assert grad_check(f, gru) < 1e-6
    assert all(np.abs(t.grad).max() > 0 for t in gru)


def test_decoder_step_rows_equal_chained_single_steps():
    dims = tiny_dims()
    rng = np.random.default_rng(17)
    for steps in range(1, 7):
        params = DecoderParams(dims, rng=np.random.default_rng(50 + steps))
        f, w, v = (Tensor(rng.normal(size=(1, steps, n))) for n in (3, 3, 4))
        pre = _gate_inputs(f, w, v, params)
        h0 = Tensor(rng.normal(size=(1, 3)))
        rows = decoder.decoder_step(pre, h0, params).data
        assert rows.shape == (1, steps, 3)
        state = h0
        for t in range(steps):
            state = getitem(decoder.decoder_step(Tensor(pre.data[:, t:t + 1]), state, params), 0)
            assert np.allclose(rows[0, t], state.data[0], rtol=0.0, atol=1e-12)


def test_heads_and_attention_rows_equal_single_row_calls():
    dims = tiny_dims()
    params = DecoderParams(dims, rng=np.random.default_rng(18))
    rng = np.random.default_rng(19)
    f, h = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    embs = Tensor(rng.normal(size=(4, 3)))
    mask = np.array([True, False, True, True])
    counts = [1, 4, 2, 3, 4]
    alpha = _attend(embs, mask, Tensor(h), params).data
    vocab = decoder.vocab_logits(Tensor(f), Tensor(h), params).data
    copy = decoder.copy_logits(Tensor(f), Tensor(h), counts, params).data
    for t in range(5):
        one_f, one_h = Tensor(f[t:t + 1]), Tensor(h[t:t + 1])
        assert np.allclose(alpha[t], _attend(embs, mask, one_h, params).data[0],
                           rtol=0.0, atol=1e-15)
        assert np.allclose(vocab[t], decoder.vocab_logits(one_f, one_h, params).data[0],
                           rtol=0.0, atol=1e-15)
        assert np.allclose(copy[t], decoder.copy_logits(one_f, one_h, counts[t:t + 1],
                                                        params).data[0], rtol=0.0, atol=1e-15)
        assert (copy[t, counts[t]:] == 0.0).all()


def test_vocab_head_uniform_when_output_weights_zero():
    dims = tiny_dims()
    params = zeroed_params(dims)
    dist = decoder.vocab_logits(Tensor(np.ones((1, 3))), Tensor(np.ones((1, 3))), params)
    assert np.allclose(dist.data, 1.0 / dims.vocab_size)


def test_vocab_head_sums_to_one_for_random_params():
    dims = tiny_dims()
    params = DecoderParams(dims, rng=np.random.default_rng(11))
    rng = np.random.default_rng(12)
    dist = decoder.vocab_logits(Tensor(rng.normal(size=(1, 3))),
                                Tensor(rng.normal(size=(1, 3))), params)
    assert abs(dist.data.sum() - 1.0) < 1e-12


def test_vocab_head_hand_set_two_word_vocabulary():
    dims = tiny_dims(vocab_size=2)
    params = zeroed_params(dims)
    params.vocab_out_b.data[:] = [0.0, np.log(3.0)]
    dist = decoder.vocab_logits(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 3))), params)
    assert np.allclose(dist.data, [0.25, 0.75])


def test_copy_head_single_word_is_certain():
    dims = tiny_dims()
    params = DecoderParams(dims, rng=np.random.default_rng(13))
    dist = decoder.copy_logits(Tensor(np.ones((1, 3))), Tensor(np.ones((1, 3))), [1], params)
    assert dist.data[0, 0] == 1.0
    assert np.allclose(dist.data[0, 1:], 0.0)


def test_copy_head_uniform_when_weights_zero():
    dims = tiny_dims()
    params = zeroed_params(dims)
    dist = decoder.copy_logits(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 3))), [4], params)
    assert np.allclose(dist.data, 0.25)


def test_copy_head_emits_fact_word():
    fact = corpus.Fact.build("location", "Elsloo")
    dims = tiny_dims()
    params = zeroed_params(dims)
    dist = decoder.copy_logits(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 3))),
                               [len(fact.factual_words)], params)
    assert fact.factual_words[int(np.argmax(dist.data))] == "elsloo"


def test_copy_head_rejects_empty_fact():
    dims = tiny_dims()
    params = zeroed_params(dims)
    with pytest.raises(EmptyFactError):
        decoder.copy_logits(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 3))), [0], params)


def routing_fixture():
    """Weights that copy 'street', then select the mean slot and stop."""
    dims = ModelDims(embed_dim=1, hidden_dim=1, attn_dim=2, head_dim=1,
                     vocab_size=5, copy_width=4)
    params = zeroed_params(dims, mean_fact_mode="fixed_random")
    vocab = corpus.Vocabulary(["<UNK>", "<SOS>", "<EOS>", "kind", "street"])
    params.word_emb.data[vocab.word_index("street")] = 1.0
    params.mean_fact_fixed.data[:] = -1.0
    # unit 1 fires for (fact slot, low h); unit 2 for (mean slot, high h)
    params.attn_hidden_w.data[:] = [[10.0, -20.0], [-10.0, 20.0]]
    params.attn_hidden_b.data[:] = [0.0, -20.0]
    params.attn_energy_w.data[:] = [[1.0, 1.0]]
    params.gru_update_b.data[:] = 20.0  # z ~ 1: state jumps to the candidate
    params.gru_cand_b.data[:] = 20.0    # candidate ~ 1 every step
    params.vocab_out_b.data[vocab.word_index("<EOS>")] = 5.0
    entity = corpus.Entity("Q1", [corpus.Fact.build("kind", "street")], ["street"])
    return entity, params, vocab


def test_greedy_decode_hand_routed_street():
    entity, params, vocab = routing_fixture()
    tokens, trace = decoder.greedy_decode(entity, decoder.DecodePlan(params), vocab, TrainConfig(),
                                          max_len=8, return_trace=True)
    assert tokens == ["street"]
    assert [t for t, _ in trace] == ["street", "<EOS>"]
    assert np.argmax(trace[0][1]) == 0  # fact slot first
    assert np.argmax(trace[1][1]) == 1  # then the mean slot


def test_greedy_decode_copy_only_never_uses_mean_slot():
    entity, params, vocab = routing_fixture()
    tokens, trace = decoder.greedy_decode(entity, decoder.DecodePlan(params), vocab,
                                          TrainConfig(copy_only=True),
                                          max_len=6, return_trace=True)
    assert len(tokens) == 6  # no <EOS> path, runs to max_len
    for _, alpha in trace:
        assert alpha[1] == 0.0


def random_entity(rng, vocab):
    words = ["street", "in", "elsloo", "museum", "blue", "of"]
    facts = [corpus.Fact.build("kind", " ".join(rng.choice(words, size=2)))
             for _ in range(int(rng.integers(1, 4)))]
    return corpus.Entity("Q", facts, None)


def test_greedy_decode_respects_max_len_and_strips_specials():
    dims = tiny_dims()
    vocab = corpus.Vocabulary(["<UNK>", "<SOS>", "<EOS>", "street", "in", "blue"])
    rng = np.random.default_rng(14)
    for seed in range(6):
        params = DecoderParams(dims, rng=np.random.default_rng(20 + seed))
        entity = random_entity(rng, vocab)
        for max_len in (1, 3, 7):
            tokens = decoder.greedy_decode(entity, decoder.DecodePlan(params), vocab,
                                           TrainConfig(), max_len=max_len)
            assert len(tokens) <= max_len
            assert "<UNK>" not in tokens
            assert "<EOS>" not in tokens


def test_greedy_decode_reselects_when_fact_has_no_words():
    # single real fact whose value is all stopwords: only the mean slot works
    dims = tiny_dims(vocab_size=4)
    params = DecoderParams(dims, rng=np.random.default_rng(30))
    vocab = corpus.Vocabulary(["<UNK>", "<SOS>", "<EOS>", "road"])
    entity = corpus.Entity("Q", [corpus.Fact.build("kind", "of the")], None)
    tokens, trace = decoder.greedy_decode(entity, decoder.DecodePlan(params), vocab,
                                          TrainConfig(), max_len=4, return_trace=True)
    for _, alpha in trace:
        assert np.argmax(alpha) == 1  # mean slot; the wordless fact is masked


def test_greedy_trace_rows_cover_exactly_the_entitys_slots():
    dims = tiny_dims()
    vocab = corpus.Vocabulary(["<UNK>", "<SOS>", "<EOS>", "street", "in", "blue"])
    rng = np.random.default_rng(16)
    for seed in range(8):
        params = DecoderParams(dims, rng=np.random.default_rng(40 + seed))
        entity = random_entity(rng, vocab)
        _, trace = decoder.greedy_decode(entity, decoder.DecodePlan(params), vocab,
                                         TrainConfig(), max_len=6, return_trace=True)
        assert trace
        for _, alpha in trace:
            assert alpha.shape == (len(entity.facts) + 1,)
            assert abs(alpha.sum() - 1.0) < 1e-12


def test_greedy_decode_never_emits_rows_past_the_vocabulary():
    # sample1k sizes give 1,003 vocabulary rows for a 783-word vocabulary;
    # a wordless fact leaves every step to the vocabulary head
    config = TrainConfig.from_file(ROOT / "configs" / "sample1k.json")
    train = corpus.load_entities(ROOT / "data" / "sample1k" / "train.jsonl",
                                 config.max_facts, config.max_factual_words)
    vocab = corpus.build_vocabulary(train, config.vocab_size, config.vocab_source)
    assert len(vocab) == 783 and config.dims().vocab_size == 1003
    entity = corpus.Entity("Q", [corpus.Fact.build("instance of", "the")], None)
    for seed in range(50):
        params = DecoderParams(config.dims(), rng=np.random.default_rng(seed))
        tokens, trace = decoder.greedy_decode(entity, decoder.DecodePlan(params), vocab,
                                              config, return_trace=True)
        assert all(token in vocab for token, _ in trace)
        assert all(token in vocab for token in tokens)
