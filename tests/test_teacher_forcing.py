"""``step_loss`` and ``batch_loss`` against a per-token teacher-forced loop.

The oracle below is the loss written one token at a time, as greedy
decoding runs: every layer is called on a batch of one entity and one
step, and the GRU step is composed from tape primitives (affine, add,
mul, tanh) rather than the fused ``gru`` node, so its gradient comes
from the tape alone.  The batched losses, of one entity and of a padded
minibatch, must give the same loss and the same gradients on random
small models and toy entities (drawn from a fixed seed, so the suite
reruns the same cases).
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from factdesc import corpus, toycorpus, training
from factdesc.alignment import Source, align_description
from factdesc.decoder import (
    DecoderParams,
    attention_context,
    copy_logits,
    fact_attention,
    slot_embedding,
    vocab_logits,
)
from factdesc.encoder import encode_entity
from factdesc.tensor import (Tape, Tensor, add, affine, backward, concat, embedding_rows, mul,
                             nll, reshape, tanh)

HALF = Tensor(0.5)
MINUS_ONE = Tensor(-1.0)


def _sigmoid(a):
    return add(HALF, mul(HALF, tanh(mul(HALF, a))))


def _gru_step(x, h, p):
    z = _sigmoid(add(affine(x, p.gru_update_x, p.gru_update_b), affine(h, p.gru_update_h)))
    r = _sigmoid(add(affine(x, p.gru_reset_x, p.gru_reset_b), affine(h, p.gru_reset_h)))
    c = tanh(add(affine(x, p.gru_cand_x, p.gru_cand_b), affine(mul(r, h), p.gru_cand_h)))
    return add(h, mul(z, add(c, mul(MINUS_ONE, h))))


def per_token_loss(entity, aligned, params, vocab, config):
    dims = params.dims
    enc = encode_entity(entity, params.word_emb, vocab, config, fixed_mean=params.fixed_mean())
    mean_slot = len(entity.facts)
    # the encoder masks the mean slot under copy_only; checked here, not copied
    assert enc.mask.tolist() == [True] * mean_slot + [not config.copy_only]
    mask = enc.mask[None].copy()  # (1, S)
    h = Tensor(np.zeros((1, dims.hidden_dim)))
    w_prev = Tensor(np.zeros((1, dims.embed_dim)))
    v_prev = Tensor(np.zeros((1, dims.copy_width)))
    terms = []
    for token in aligned.tokens:
        copied = token.source is Source.FACT
        gold = token.fact_index if copied else mean_slot
        scored = copied or not config.copy_only
        if scored:
            alpha = fact_attention(enc.embeddings, mask, reshape(h, (1, 1, dims.hidden_dim)),
                                   params)
            terms.append(nll(alpha, [gold]))
        f_t = slot_embedding(enc.embeddings, [gold])
        h = _gru_step(concat([f_t, w_prev, v_prev], axis=1), h, params)
        if copied:
            dist = copy_logits(f_t, h, [len(entity.facts[gold].factual_words)], params)
            terms.append(nll(dist, [token.copy_pos]))
            onehot = np.zeros((1, dims.copy_width))
            onehot[0, token.copy_pos] = 1.0
            w_prev, v_prev = Tensor(np.zeros((1, dims.embed_dim))), Tensor(onehot)
        else:
            if scored:
                dist = vocab_logits(attention_context(alpha, enc.embeddings), h, params)
                terms.append(nll(dist, [token.word_index]))
            w_prev = embedding_rows(params.word_emb, [token.word_index])
            v_prev = Tensor(np.zeros((1, dims.copy_width)))
    total = Tensor(0.0)
    for term in terms:
        total = add(total, term)
    return total


def _loss_and_grads(loss_fn, params, *args):
    for t in params.learnable():
        t.grad = None
    with Tape() as tape:
        loss = loss_fn(*args)
    if loss.requires_grad:
        backward(loss, tape)
    grads = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
             for t in params.learnable()]
    return float(loss.data), grads


def _assert_same(ours, our_grads, theirs, their_grads, params):
    assert abs(ours - theirs) <= 1e-12 * max(abs(theirs), 1e-300)
    for t, a, b in zip(params.learnable(), our_grads, their_grads):
        err = np.abs(a - b) / np.maximum(1.0, np.abs(b))
        assert err.max(initial=0.0) <= 1e-10, t.name


def _oracle_sum(entities, aligned, params, vocab, config):
    total = Tensor(0.0)
    for entity, tokens in zip(entities, aligned):
        total = add(total, per_token_loss(entity, tokens, params, vocab, config))
    return total


CASES = dict(seed=st.integers(0, 2**16), copy_only=st.booleans(),
             mean_fact=st.sampled_from(["mean", "fixed_random"]),
             encoding=st.sampled_from(["positional", "mean_pool"]),
             sizes=st.tuples(*[st.integers(2, 5)] * 4),
             max_facts=st.integers(1, 6), max_factual_words=st.integers(2, 6),
             vocab_size=st.integers(3, 40))


def _case(seed, copy_only, mean_fact, encoding, sizes, max_facts, max_factual_words,
          vocab_size, n_entities):
    embed, hidden, attn, head = sizes
    config = training.TrainConfig(
        max_facts=max_facts, max_factual_words=max_factual_words, vocab_size=vocab_size,
        embed_dim=embed, hidden_dim=hidden, attn_dim=attn, head_dim=head,
        encoding=encoding, mean_fact=mean_fact, copy_only=copy_only)
    entities = [corpus.parse_record(r, max_facts, max_factual_words)
                for r in toycorpus.generate_corpus(n_entities, seed=seed)]
    vocab = corpus.build_vocabulary(entities, vocab_size)
    params = DecoderParams(config.dims(), mean_fact, rng=np.random.default_rng(seed))
    return config, entities, vocab, params


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**CASES)
def test_step_loss_equals_per_token_loop(seed, copy_only, mean_fact, encoding, sizes,
                                         max_facts, max_factual_words, vocab_size):
    config, entities, vocab, params = _case(seed, copy_only, mean_fact, encoding, sizes,
                                            max_facts, max_factual_words, vocab_size, 4)
    for entity in entities:
        aligned = align_description(entity, vocab)
        ours, our_grads = _loss_and_grads(training.step_loss, params,
                                          entity, aligned, params, vocab, config)
        theirs, their_grads = _loss_and_grads(per_token_loss, params,
                                              entity, aligned, params, vocab, config)
        _assert_same(ours, our_grads, theirs, their_grads, params)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n_entities=st.integers(1, 6), unscored=st.booleans(), **CASES)
def test_batch_loss_equals_sum_of_per_token_loops(n_entities, unscored, seed, copy_only,
                                                  mean_fact, encoding, sizes, max_facts,
                                                  max_factual_words, vocab_size):
    # ragged batches: descriptions of different lengths, entities with
    # different numbers of facts, padded to the batch's largest of each
    config, entities, vocab, params = _case(seed, copy_only, mean_fact, encoding, sizes,
                                            max_facts, max_factual_words, vocab_size,
                                            n_entities)
    aligned = [align_description(e, vocab) for e in entities]
    if unscored and copy_only:
        # a description of vocabulary words only has no scored step here
        entities[0] = dataclasses.replace(entities[0], description_tokens=["qqq"] * 3)
        aligned[0] = align_description(entities[0], vocab)
        assert all(t.source is not Source.FACT for t in aligned[0].tokens)
    ours, our_grads = _loss_and_grads(training.batch_loss, params,
                                      entities, aligned, params, vocab, config)
    theirs, their_grads = _loss_and_grads(_oracle_sum, params,
                                          entities, aligned, params, vocab, config)
    _assert_same(ours, our_grads, theirs, their_grads, params)
