"""``greedy_decode`` against the layer functions it regroups.

Greedy decoding steps on plain arrays.  The oracle below replays each
decode through the layer functions training uses (``fact_attention``,
``decoder_step``, ``vocab_logits``, ``copy_logits``), driven by the
decode's own choices: the slot each trace row picks and the token it
emits.  Each step's gate inputs come from the input row [f_t; w_{t-1};
one-hot of the copied position] through each gate's whole ``gru_*_x``,
not from ``gate_columns``, so the column layout the plan reads is checked
too.  Every trace row must equal the layer's attention row, and every
token must be the argmax of the head its slot routes to, on random small
models and toy entities that include facts with no factual words and
repeated facts (drawn from a fixed seed, so the suite reruns the same
cases).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from factdesc import corpus, toycorpus, training
from factdesc.corpus import EOS, UNK
from factdesc.decoder import (
    DecodePlan,
    GATES,
    DecoderParams,
    attention_context,
    attention_keys,
    copy_logits,
    decoder_step,
    fact_attention,
    greedy_decode,
    slot_embedding,
    vocab_logits,
)
from factdesc.encoder import encode_entity
from factdesc.tensor import Tensor, affine, concat, embedding_rows, getitem, reshape

WORDLESS = corpus.Fact.build("kind", "of the")  # every value word is a stopword


def replay(entity, params, vocab, config, max_len, tokens, trace):
    """Check one decode step by step against the layer functions, each
    called on a batch of one entity and one step."""
    dims = params.dims
    enc = encode_entity(entity, params.word_emb, vocab, config, fixed_mean=params.fixed_mean())
    mean_slot = len(entity.facts)
    keys = attention_keys(enc.embeddings, params)
    mask = enc.mask[None].copy()  # (1, S)
    if config.copy_only:
        mask[0, mean_slot] = False
    h = Tensor(np.zeros((1, 1, dims.hidden_dim)))  # (B, T, H)
    w_prev = Tensor(np.zeros((1, dims.embed_dim)))
    v_prev = Tensor(np.zeros((1, dims.copy_width)))
    for token, row in trace:
        slot = int(np.argmax(row))
        alpha = fact_attention(keys, mask, h, params)
        # wordless facts that won an earlier attempt of this step are masked
        while (top := int(np.argmax(alpha.data[0]))) != slot:
            assert top != mean_slot and not entity.facts[top].factual_words
            mask[0, top] = False
            alpha = fact_attention(keys, mask, h, params)
        assert np.abs(alpha.data[0] - row).max() <= 1e-12
        f_t = slot_embedding(enc.embeddings, [slot])  # (1, d)
        x = concat([f_t, w_prev, v_prev], axis=1)
        pre = concat([affine(x, getattr(params, f"gru_{g}_x"), getattr(params, f"gru_{g}_b"))
                      for g in GATES], axis=1)
        h = decoder_step(reshape(pre, (1, 1, -1)), getitem(h, 0), params)
        h_t = getitem(h, 0)  # (1, H)
        if slot == mean_slot:
            dist = vocab_logits(attention_context(alpha, enc.embeddings), h_t, params)
            word = int(np.argmax(dist.data[0, : len(vocab)]))
            assert token == vocab.word(word)
            w_prev = embedding_rows(params.word_emb, [word])
            v_prev = Tensor(np.zeros((1, dims.copy_width)))
        else:
            words = entity.facts[slot].factual_words
            pos = int(np.argmax(copy_logits(f_t, h_t, [len(words)], params).data))
            assert token == words[pos]
            onehot = np.zeros((1, dims.copy_width))
            onehot[0, pos] = 1.0
            w_prev, v_prev = Tensor(np.zeros((1, dims.embed_dim))), Tensor(onehot)
    if len(trace) < max_len and not (trace and trace[-1][0] == EOS):
        # decoding stopped early: attending masks every slot left, one by one
        while mask.any():
            top = int(np.argmax(fact_attention(keys, mask, h, params).data[0]))
            assert top != mean_slot and not entity.facts[top].factual_words
            mask[0, top] = False
    assert tokens == [t for t, _ in trace if t not in (EOS, UNK)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16), copy_only=st.booleans(),
       mean_fact=st.sampled_from(["mean", "fixed_random"]),
       encoding=st.sampled_from(["positional", "mean_pool"]),
       sizes=st.tuples(*[st.integers(2, 5)] * 4), max_facts=st.integers(1, 6),
       max_factual_words=st.integers(2, 6), vocab_size=st.integers(3, 40),
       wordless=st.integers(0, 2), repeated=st.integers(0, 2), max_len=st.integers(1, 8))
def test_greedy_decode_equals_the_layer_functions(seed, copy_only, mean_fact, encoding, sizes,
                                                  max_facts, max_factual_words, vocab_size,
                                                  wordless, repeated, max_len):
    embed, hidden, attn, head = sizes
    config = training.TrainConfig(
        max_facts=max_facts, max_factual_words=max_factual_words, vocab_size=vocab_size,
        embed_dim=embed, hidden_dim=hidden, attn_dim=attn, head_dim=head,
        encoding=encoding, mean_fact=mean_fact, copy_only=copy_only)
    entities = [corpus.parse_record(r, max_facts, max_factual_words)
                for r in toycorpus.generate_corpus(4, seed=seed)]
    vocab = corpus.build_vocabulary(entities, vocab_size)
    params = DecoderParams(config.dims(), mean_fact, rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for entity in entities:
        facts = list(entity.facts)
        for _ in range(wordless):
            facts.insert(int(rng.integers(len(facts) + 1)), WORDLESS)
        for _ in range(repeated):
            facts.insert(int(rng.integers(len(facts) + 1)), facts[int(rng.integers(len(facts)))])
        entity = corpus.Entity(entity.id, facts, None)
        tokens, trace = greedy_decode(entity, DecodePlan(params), vocab, config, max_len,
                                      return_trace=True)
        assert len(trace) <= max_len
        replay(entity, params, vocab, config, max_len, tokens, trace)
