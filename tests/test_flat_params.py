"""The model lives in one flat array: every tensor a view of ``params.data``,
every learnable gradient a view of ``params.grad``, at the checkpoint's offsets."""

import numpy as np
import pytest

from factdesc import corpus, training
from factdesc.alignment import align_description
from factdesc.decoder import DecoderParams
from factdesc.errors import TrainingDivergenceError
from factdesc.tensor import Tape, backward, grad_check

from .test_training import load_toy, sample1k_minibatch, tiny_config

MODES = ["mean", "fixed_random"]


def _params(mode):
    config = tiny_config(mean_fact=mode)
    return DecoderParams(config.dims(), mode, rng=np.random.default_rng(4)), config


def _element_offset(view, base):
    assert np.shares_memory(view, base) and view.flags.c_contiguous
    return (view.ctypes.data - base.ctypes.data) // base.itemsize


@pytest.mark.parametrize("mode", MODES)
def test_every_tensor_is_a_view_at_its_checkpoint_offset(mode):
    params, config = _params(mode)
    entries, n_bytes = training._tensor_entries(config)
    assert params.data.size == n_bytes // 4
    assert [e["name"] for e in entries] == [name for name, _ in params.named_tensors()]
    for entry, (name, tensor) in zip(entries, params.named_tensors()):
        assert _element_offset(tensor.data, params.data) == entry["offset"] // 4, name
        assert list(tensor.data.shape) == entry["shape"]
        assert params.tensor_at(entry["offset"] // 4) == name
        assert params.tensor_at(entry["offset"] // 4 + tensor.data.size - 1) == name
    params.data[-1] = 123.0  # writes reach the last tensor
    assert params.named_tensors()[-1][1].data.reshape(-1)[-1] == 123.0


@pytest.mark.parametrize("mode", MODES)
def test_learnable_grads_are_views_after_zero_grads_also_after_grad_check(mode):
    params, config = _params(mode)
    entities, _ = load_toy(3, mean_fact=mode)
    vocab = corpus.build_vocabulary(entities, config.vocab_size)
    aligned = align_description(entities[0], vocab)
    checked = [params.attn_energy_b, params.copy_out_b]

    def loss(_):
        return training.step_loss(entities[0], aligned, params, vocab, config)

    params.zero_grads()
    grad_check(loss, checked)
    assert not any(np.shares_memory(t.grad, params.grad) for t in checked)  # rebound
    params.grad += 1.0
    params.zero_grads()
    assert not params.grad.any()
    offset = 0
    assert params.grad.size == sum(t.data.size for t in params.learnable())
    for tensor in params.learnable():  # learnable tensors come first, in order
        assert tensor.grad.shape == tensor.data.shape
        assert _element_offset(tensor.grad, params.grad) == offset, tensor.name
        offset += tensor.data.size
    assert (params.fixed_mean() is None) == (mode == "mean")


@pytest.mark.parametrize("mode", MODES)
def test_a_whole_minibatch_backward_leaves_every_learnable_grad_a_live_view(mode):
    # a tape node that rebound a weight's .grad would drop its gradient from Adam silently
    entities, aligned, params, vocab, config = sample1k_minibatch(mode)
    params.zero_grads()
    with Tape() as tape:
        loss = training.batch_loss(entities, aligned, params, vocab, config)
    backward(loss, tape)
    for tensor in params.learnable():
        assert np.shares_memory(tensor.grad, params.grad), tensor.name
        assert tensor.grad.any(), tensor.name


@pytest.mark.parametrize("mode", MODES)
def test_clone_shares_no_memory(mode):
    params, _ = _params(mode)
    params.zero_grads()
    copy = params.clone()
    assert copy.grad is None  # a copy made for decoding carries no gradient
    copy.zero_grads()
    assert np.array_equal(copy.data, params.data)
    for (name, a), (_, b) in zip(params.named_tensors(), copy.named_tensors()):
        assert not np.shares_memory(a.data, b.data), name
        if a.requires_grad:
            assert not np.shares_memory(a.grad, b.grad), name
    copy.data += 1.0
    assert not np.array_equal(copy.data, params.data)


@pytest.mark.parametrize("mode", MODES)
def test_nonfinite_gradient_in_training_names_its_tensor(mode, monkeypatch):
    entities, config = load_toy(6, mean_fact=mode)
    original = training.backward

    def poisoned(loss, tape):
        original(loss, tape)
        cand_h = next(t for node in tape.nodes for t in node.inputs if t.name == "gru_cand_h")
        cand_h.grad[1, 2] = np.nan

    monkeypatch.setattr(training, "backward", poisoned)
    with pytest.raises(TrainingDivergenceError) as exc:
        training.train(entities, [], config)
    assert "gru_cand_h" in str(exc.value)


def test_fixed_random_training_leaves_the_frozen_mean_bit_equal():
    entities, config = load_toy(8, mean_fact="fixed_random")
    initial = DecoderParams(config.dims(), "fixed_random", rng=np.random.default_rng(config.seed))
    trained = training.train(entities, entities[:2], config).params
    assert trained.mean_fact_fixed.data.tobytes() == initial.mean_fact_fixed.data.tobytes()
    assert not np.array_equal(trained.word_emb.data, initial.word_emb.data)  # training ran
