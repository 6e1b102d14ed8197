"""The benchmark's tracer (``perfbench/spans.py``) finds every name it wraps.

The tracer looks the program's functions up by name in each module that
calls them, so renaming or deleting one breaks traced benchmark runs.
Here it is installed, driven through one teacher-forced loss and one
greedy decode, and uninstalled: every patched attribute must be replaced,
then restored.  Training encodes its minibatch with ``encode_entities``,
so only the decode passes through the wrapped ``decoder.encode_entity``.
"""

import importlib
from pathlib import Path

import numpy as np

import pytest

from factdesc import corpus, toycorpus, training
from factdesc.decoder import DecoderParams
from factdesc.encoder import MEAN_FACT_MODES
from factdesc.tensor import Tape

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("mean_fact", MEAN_FACT_MODES)
def test_tracer_wraps_and_restores_every_name(monkeypatch, mean_fact):
    # the tracer reads a fifth positional argument of encode_entity as a
    # fact limit, so the frozen mean vector must travel by keyword
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    config = training.TrainConfig(max_facts=4, max_factual_words=4, vocab_size=20,
                                  embed_dim=3, hidden_dim=3, attn_dim=3, head_dim=3,
                                  mean_fact=mean_fact)
    entity = corpus.parse_record(toycorpus.generate_corpus(1, seed=3)[0], 4, 4)
    vocab = corpus.build_vocabulary([entity], config.vocab_size)
    params = DecoderParams(config.dims(), mean_fact, rng=np.random.default_rng(0))
    tracer = spans.Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        for module, attr, original in patches:
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
        with Tape() as tape:
            loss = training.step_loss(entity, training.align_description(entity, vocab),
                                      params, vocab, config)
        training.backward(loss, tape)
        training.generate_description(training.Checkpoint(params, config, vocab), entity)
    finally:
        tracer.uninstall()
    for module, attr, original in patches:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
    figures = spans.layer_metrics(tracer, 1.0)
    assert figures["training.step_loss_calls"][0] == 1
    assert figures["encoder.encode_entity_calls"][0] == 1
    assert figures["decoder.greedy_decode_calls"][0] == 1
    assert figures["decoder.fact_attention_calls"][0] == 1
    # the loss must reach the GRU and the slot rows through the names the tracer wraps
    assert figures["decoder.decoder_step_calls"][0] == 1
    assert sum(s.name == "decoder.slot_embedding" for s in tracer.spans) > 0
    assert figures["tensor.backward_calls"][0] == 1
