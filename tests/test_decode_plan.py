"""Greedy decoding from a ``DecodePlan`` at the benchmark's real sizes, and the plan contract.

The oracle tests elsewhere decode 2-7-wide random models, where BLAS may
run other kernels than at width 100.  Here the committed converged model
(``perfbench/sample1k.fks``) decodes records of the benchmark's unseen pool,
and every decode must equal the independent numpy model of
``perfbench/reference.py``.  A plan is a snapshot of one model's
parameters: a checkpoint builds one on its first decode and keeps it, and
a plan built after the parameters change decodes the changed model.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from factdesc import corpus, toycorpus, training
from factdesc.decoder import DecodePlan, greedy_decode

ROOT = Path(__file__).resolve().parent.parent
N_SEEN = 1100  # records of generate_corpus(seed=0) in the bundled train and dev splits


@pytest.fixture(scope="module")
def reference():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(ROOT / "perfbench"))
        return importlib.import_module("reference")


@pytest.fixture(scope="module")
def model():
    checkpoint = training.load_checkpoint(ROOT / "perfbench" / "sample1k.fks")
    config = checkpoint.config
    records = toycorpus.generate_corpus(N_SEEN + 300, seed=0)[N_SEEN:]
    entities = [corpus.parse_record(r, config.max_facts, config.max_factual_words)
                for r in records]
    return checkpoint, entities


def arrays(params):
    return {name: t.data for name, t in params.named_tensors()}


def test_committed_model_decodes_the_unseen_pool_as_the_reference(reference, model):
    checkpoint, entities = model
    oracle = reference.Model(arrays(checkpoint.params), checkpoint.vocab.words, checkpoint.config)
    differ = [e.id for e in entities
              if training.generate_description(checkpoint, e) != oracle.greedy(e)[0]]
    assert not differ, f"{len(differ)} of {len(entities)} decodes differ, first {differ[0]}"


def test_a_checkpoint_builds_one_plan_and_keeps_it(monkeypatch, model):
    saved, entities = model
    built = []

    def counting_plan(params):
        built.append(params)
        return DecodePlan(params)

    monkeypatch.setattr(training, "DecodePlan", counting_plan)
    checkpoint = training.Checkpoint(saved.params, saved.config, saved.vocab)
    first = [training.generate_description(checkpoint, e) for e in entities[:20]]
    plan = checkpoint.plan
    assert built == [saved.params]
    assert [training.generate_description(checkpoint, e) for e in entities[:20]] == first
    assert checkpoint.plan is plan and len(built) == 1


def test_a_plan_built_after_a_change_decodes_the_changed_model(reference, model):
    checkpoint, entities = model
    params, vocab, config = checkpoint.params.clone(), checkpoint.vocab, checkpoint.config
    entities = entities[:60]
    before = [greedy_decode(e, DecodePlan(params), vocab, config) for e in entities]
    rng = np.random.default_rng(3)
    for tensor in params.learnable():
        tensor.data += rng.normal(0.0, 0.05, tensor.data.shape)
    plan = DecodePlan(params)
    after = [greedy_decode(e, plan, vocab, config) for e in entities]
    oracle = reference.Model(arrays(params), vocab.words, config)
    assert after == [oracle.greedy(e)[0] for e in entities]
    assert after != before
