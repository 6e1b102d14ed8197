"""The independent reference agrees with the program on small random models.

Each case draws a config with small layer sizes, a few synthetic
entities and untrained parameters from one seed, then compares the
reference's teacher-forced loss, its gradient along a random direction,
its greedy decodes and its corpus BLEU-4 with the program's.
"""

import numpy as np
import pytest

import reference
from factdesc import corpus, metrics, toycorpus, training
from factdesc.decoder import DecoderParams
from factdesc.metrics import EvalPair
from factdesc.tensor import Tape, backward

SEEDS = range(12)


def _case(seed):
    rng = np.random.default_rng(seed)
    max_facts = int(rng.integers(2, 8))
    max_words = int(rng.integers(1, 5))
    records = toycorpus.generate_corpus(10, seed=seed)
    entities = [corpus.parse_record(r, max_facts, max_words) for r in records]
    distinct = {t for e in entities for t in e.description_tokens}
    config = training.TrainConfig(
        max_facts=max_facts, max_factual_words=max_words,
        # one output row per built vocabulary word, so no decode can pick a
        # row beyond the vocabulary
        vocab_size=len(distinct),
        embed_dim=int(rng.integers(2, 7)), hidden_dim=int(rng.integers(2, 7)),
        attn_dim=int(rng.integers(2, 7)), head_dim=int(rng.integers(2, 7)),
        encoding=("positional", "mean_pool")[seed % 2],
        mean_fact=("mean", "fixed_random")[seed % 3 == 2],
        copy_only=seed % 4 == 3, max_decode_len=int(rng.integers(3, 9)))
    vocab = corpus.build_vocabulary(entities, config.vocab_size)
    params = DecoderParams(config.dims(), config.mean_fact, rng=rng)
    arrays = {name: t.data for name, t in params.named_tensors()}
    return config, entities, vocab, params, reference.Model(arrays, vocab.words, config), rng


@pytest.mark.parametrize("seed", SEEDS)
def test_loss_equals_step_loss(seed):
    config, entities, vocab, params, model, _ = _case(seed)
    for entity in entities:
        aligned = training.align_description(entity, vocab)
        theirs = float(training.step_loss(entity, aligned, params, vocab, config).data)
        assert model.loss(entity) == pytest.approx(theirs, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("seed", SEEDS)
def test_central_difference_matches_backward(seed):
    config, entities, vocab, params, model, rng = _case(seed)
    params.zero_grads()
    for entity in entities:
        with Tape() as tape:
            loss = training.step_loss(entity, training.align_description(entity, vocab),
                                      params, vocab, config)
        backward(loss, tape)
    learnable = [(name, t) for name, t in params.named_tensors() if t.requires_grad]
    direction = {name: rng.standard_normal(t.data.shape) for name, t in learnable}
    analytic = sum(float((t.grad * direction[name]).sum()) for name, t in learnable)

    def total(step):
        arrays = {name: t.data + step * direction[name] if name in direction else t.data
                  for name, t in params.named_tensors()}
        shifted = reference.Model(arrays, vocab.words, config)
        return sum(shifted.loss(e) for e in entities)

    numeric = (total(1e-6) - total(-1e-6)) / 2e-6
    assert numeric == pytest.approx(analytic, rel=1e-5, abs=1e-6)


@pytest.mark.parametrize("seed", SEEDS)
def test_greedy_equals_program(seed):
    config, entities, vocab, params, model, _ = _case(seed)
    checkpoint = training.Checkpoint(params, config, vocab)
    for entity in entities:
        tokens, stopped = model.greedy(entity)
        assert tokens == training.generate_description(checkpoint, entity)
        assert len(tokens) <= config.max_decode_len
        assert not (stopped and config.copy_only)


def test_identical_facts_tie_to_the_lower_index():
    config, _, vocab, params, model, _ = _case(0)
    fact = corpus.Fact.build("zzz", "qqq rrr")
    entity = corpus.Entity("tie", [fact, corpus.Fact.build("zzz", "qqq rrr"),
                                   corpus.Fact.build("instance of", "street")], ["qqq"])
    slots, _ = model.encode(entity)
    alpha = model.attention(model.distinct_slots(slots), np.ones(len(slots), bool),
                            np.zeros(model.hidden_dim))
    assert alpha[0] == alpha[1]


@pytest.mark.parametrize("seed", range(20))
def test_bleu_equals_program(seed):
    rng = np.random.default_rng(seed)
    words = list("abcdef")

    def sentence(low):
        return [str(w) for w in rng.choice(words, size=int(rng.integers(low, 9)))]

    pairs = [(sentence(0), sentence(1)) for _ in range(int(rng.integers(1, 12)))]
    theirs = metrics.bleu([EvalPair(c, r) for c, r in pairs], 4)
    assert reference.corpus_bleu4(pairs) == pytest.approx(theirs, rel=1e-12, abs=1e-12)
