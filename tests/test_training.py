import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factdesc import corpus, toycorpus, training
from factdesc.alignment import align_description
from factdesc.decoder import DecoderParams
from factdesc.encoder import ENCODING_MODES, MEAN_FACT_MODES
from factdesc.errors import CheckpointError, ConfigError, DataError, TrainingDivergenceError
from factdesc.tensor import Tape, Tensor, backward, grad_check
from factdesc.training import Checkpoint, TrainConfig


def tiny_config(**kw):
    base = dict(epochs=2, batch_size=4, seed=7, max_facts=5, max_factual_words=6,
                vocab_size=30, embed_dim=6, hidden_dim=6, attn_dim=6, head_dim=6,
                max_decode_len=10)
    base.update(kw)
    return TrainConfig(**base)


def load_toy(n, seed=0, **cfg_kw):
    config = tiny_config(**cfg_kw)
    records = toycorpus.generate_corpus(n, seed=seed)
    entities = [corpus.parse_record(r, config.max_facts, config.max_factual_words)
                for r in records]
    return entities, config


def test_config_json_round_trip(tmp_path):
    config = tiny_config()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    assert TrainConfig.from_file(path) == config


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"learning_rat": 0.1})


def test_config_rejects_nonpositive_values():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)


@pytest.mark.parametrize("field, value", [
    ("grad_clip", 0.0), ("grad_clip", -1.0), ("grad_clip", float("nan")),
    ("grad_clip", float("inf")), ("learning_rate", float("nan")),
    ("learning_rate", float("inf")), ("seed", -1),
])
def test_config_rejects_nonpositive_or_nonfinite_floats(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field", ["encoding", "mean_fact", "vocab_source"])
def test_config_rejects_unknown_modes(field):
    with pytest.raises(ConfigError, match=f"unknown {field} mode 'bogus'"):
        TrainConfig(**{field: "bogus"})


def test_max_phrase_len_is_max_factual_words_and_never_stored():
    config = TrainConfig(max_factual_words=7)
    assert config.max_phrase_len == 7
    assert "max_phrase_len" not in config.to_dict()
    with pytest.raises(ConfigError, match="max_phrase_len"):
        TrainConfig.from_dict({"max_phrase_len": 7})


def test_nonfinite_minibatch_loss_names_epoch_and_entity(monkeypatch):
    entities, config = load_toy(12, seed=3, epochs=3)
    real = training.batch_loss
    calls = []

    def poisoned(batch, *args):
        calls.append([e.id for e in batch])
        loss = real(batch, *args)
        return Tensor(np.nan) if len(calls) == 5 else loss

    monkeypatch.setattr(training, "batch_loss", poisoned)
    with pytest.raises(TrainingDivergenceError) as exc:
        training.train(entities[:10], entities[10:], config)
    # three minibatches of at most 4 per epoch: the fifth call is epoch 2's second
    assert "epoch 2" in str(exc.value) and calls[-1][0] in str(exc.value)


def _uniform_loss_fixture():
    config = tiny_config(vocab_size=5)  # |V| = 8 with specials
    entity = corpus.Entity(
        "Q1",
        [corpus.Fact.build("kind", "qqq"), corpus.Fact.build("place", "www")],
        ["hello", "world", "zzz"],  # zzz is out of vocabulary -> <UNK> class
    )
    vocab = corpus.Vocabulary(["<UNK>", "<SOS>", "<EOS>", "hello", "world",
                               "aa", "bb", "cc"])
    params = DecoderParams(config.dims(), rng=np.random.default_rng(0))
    for _, t in params.named_tensors():
        t.data[:] = 0.0
    return entity, vocab, params, config


def test_step_loss_uniform_model_closed_form():
    entity, vocab, params, config = _uniform_loss_fixture()
    aligned = align_description(entity, vocab)
    assert [t.source.value for t in aligned.tokens] == ["vocab", "vocab", "unk", "vocab"]
    loss = training.step_loss(entity, aligned, params, vocab, config)
    # unknown gold words score against the <UNK> class, so under a uniform
    # model every token costs ln|V| + ln(slots) regardless of source
    slots = len(entity.facts) + 1
    expected = len(aligned.tokens) * (math.log(len(vocab)) + math.log(slots))
    assert float(loss.data) == pytest.approx(expected, rel=1e-12)


def test_step_loss_decomposes_into_nonnegative_parts():
    entities, config = load_toy(6)
    vocab = corpus.build_vocabulary(entities, config.vocab_size)
    params = DecoderParams(config.dims(), rng=np.random.default_rng(1))
    for entity in entities:
        aligned = align_description(entity, vocab)
        total, fact_term, word_term = training.step_loss(
            entity, aligned, params, vocab, config, parts=True)
        assert float(fact_term.data) >= 0.0
        assert float(word_term.data) >= 0.0
        assert float(total.data) == pytest.approx(
            float(fact_term.data) + float(word_term.data))
        assert np.isfinite(total.data)
        assert float(total.data) > 0.0


def test_step_loss_near_zero_for_hand_routed_model():
    from .test_decoder import routing_fixture

    entity, params, vocab = routing_fixture()
    params.attn_energy_w.data[:] = [[8.0, 8.0]]
    params.vocab_out_b.data[vocab.word_index("<EOS>")] = 15.0
    config = TrainConfig(max_facts=1, max_factual_words=4, vocab_size=2,
                         embed_dim=1, hidden_dim=1, attn_dim=2, head_dim=1,
                         mean_fact="fixed_random")
    aligned = align_description(entity, vocab)
    loss = training.step_loss(entity, aligned, params, vocab, config)
    assert 0.0 < float(loss.data) < 1e-3


def test_step_loss_rejects_mismatched_alignment():
    entity, vocab, params, config = _uniform_loss_fixture()
    other = corpus.Entity("Q2", entity.facts, ["hello"])
    aligned = align_description(other, vocab)
    with pytest.raises(DataError):
        training.step_loss(entity, aligned, params, vocab, config)


def test_step_loss_gradients_match_finite_differences():
    entities, config = load_toy(3, seed=3)
    entity = entities[0]
    vocab = corpus.build_vocabulary(entities, config.vocab_size)
    aligned = align_description(entity, vocab)
    params = DecoderParams(config.dims(), rng=np.random.default_rng(2))

    def f(_):
        return training.step_loss(entity, aligned, params, vocab, config)

    small = [t for name, t in params.named_tensors()
             if name in ("attn_hidden_w", "gru_update_x", "vocab_out_b", "copy_out_w")]
    assert grad_check(f, small, perturbation=1e-6) < 1e-6


def test_copy_only_loss_skips_vocabulary_tokens():
    entities, config = load_toy(6, copy_only=True)
    vocab = corpus.build_vocabulary(entities, config.vocab_size)
    entity = entities[0]
    aligned = align_description(entity, vocab)
    total, fact_term, word_term = training.step_loss(
        entity, aligned, params := DecoderParams(config.dims(), rng=np.random.default_rng(3)),
        vocab, config, parts=True)
    # only fact-aligned steps score; with none, the loss is a constant zero
    n_fact = sum(1 for t in aligned.tokens if t.source.value == "fact")
    if n_fact == 0:
        assert float(total.data) == 0.0
    else:
        assert float(total.data) > 0.0
        with Tape() as tape:
            loss = training.step_loss(entity, aligned, params, vocab, config)
        backward(loss, tape)
        assert params.vocab_out_w.grad is None  # vocabulary head untouched


def test_gradient_clipping_scales_to_global_norm():
    grad = np.array([3.0, 4.0, 0.0, 0.0])  # norm 5
    training._clip_gradients(grad, 1.0)
    assert np.sqrt((grad * grad).sum()) == pytest.approx(1.0)
    assert np.allclose(grad, [0.6, 0.8, 0.0, 0.0])

    untouched = np.array([0.3, 0.4])  # norm 0.5 stays put
    training._clip_gradients(untouched, 1.0)
    assert np.allclose(untouched, [0.3, 0.4])


def test_train_accepts_grad_clip():
    entities, config = load_toy(6, grad_clip=0.5)
    checkpoint = training.train(entities, [], config)
    assert np.isfinite(checkpoint.meta["loss_history"]).all()


def test_train_smoke_and_history(caplog):
    entities, config = load_toy(12)
    checkpoint = training.train(entities, entities[:3], config)
    assert isinstance(checkpoint, Checkpoint)
    assert len(checkpoint.meta["loss_history"]) == config.epochs
    assert len(checkpoint.meta["dev_bleu4_history"]) == config.epochs
    assert checkpoint.meta["epoch"] >= 1
    assert checkpoint.meta["seed"] == config.seed
    assert all(np.isfinite(v) for v in checkpoint.meta["loss_history"])


def test_train_rejects_empty_split():
    _, config = load_toy(1)
    with pytest.raises(ConfigError):
        training.train([], [], config)


def test_train_is_deterministic():
    entities, config = load_toy(8)
    first = training.train(entities, entities[:2], config)
    second = training.train(entities, entities[:2], config)
    for (name_a, ta), (_, tb) in zip(first.params.named_tensors(),
                                     second.params.named_tensors()):
        assert np.array_equal(ta.data, tb.data), name_a
    assert first.meta == second.meta


def test_overfit_loss_shrinks():
    entities, config = load_toy(8, epochs=30)
    checkpoint = training.train(entities, [], config)
    history = checkpoint.meta["loss_history"]
    assert np.mean(history[-10:]) < np.mean(history[:10])


def test_train_reads_every_fact_of_an_entity():
    # the limit on facts applies when entities are read; an entity built
    # otherwise is aligned, encoded, trained on and decoded whole
    records = [{"id": f"Q{i}", "facts": [{"property": "kind", "value": "building"},
                                          {"property": "colour", "value": "red"},
                                          {"property": "place", "value": f"town{i} port"}],
                "description": f"port town{i}"} for i in range(4)]
    entities = [corpus.parse_record(r) for r in records]
    config = tiny_config(max_facts=2, epochs=1)
    checkpoint = training.train(entities, entities, config)
    for entity in entities:
        assert {t.fact_index for t in align_description(entity, checkpoint.vocab).tokens[:-1]} \
            == {2}
        _, trace = training.generate_description(checkpoint, entity, return_trace=True)
        assert trace and all(alpha.shape == (len(entity.facts) + 1,) for _, alpha in trace)


def test_generate_description_uses_checkpoint_settings():
    entities, config = load_toy(10)
    checkpoint = training.train(entities, entities[:2], config)
    tokens = training.generate_description(checkpoint, entities[0])
    assert isinstance(tokens, list)
    assert len(tokens) <= config.max_decode_len
    assert "<EOS>" not in tokens and "<UNK>" not in tokens


def test_count_parameters_tiny_hand_sum():
    config = TrainConfig(vocab_size=1, embed_dim=1, hidden_dim=1, attn_dim=1,
                         head_dim=1, max_factual_words=1, max_facts=1)
    total, rows = training.count_parameters(config)
    # emb 4, attention 5, three gates 5 each, vocab head 11, copy head 5
    assert total == 4 + 5 + 15 + 11 + 5
    assert sum(count for _, _, count in rows) == total


def test_count_parameters_linear_in_vocab():
    base = TrainConfig()
    doubled = TrainConfig(vocab_size=2000)
    total_base, _ = training.count_parameters(base)
    total_doubled, _ = training.count_parameters(doubled)
    # each added word costs one embedding row, one softmax row, one bias
    assert total_doubled - total_base == 1000 * (100 + 100 + 1)


def test_count_parameters_default_config_documented_value():
    total, _ = training.count_parameters(TrainConfig())
    assert total == 376_364


def test_count_parameters_excludes_frozen_mean():
    with_frozen = TrainConfig(mean_fact="fixed_random")
    total_frozen, rows = training.count_parameters(with_frozen)
    total_plain, _ = training.count_parameters(TrainConfig())
    assert total_frozen == total_plain
    assert all(name != "mean_fact_fixed" for name, _, _ in rows)


def test_format_param_table_lists_total():
    table = training.format_param_table(TrainConfig())
    assert "total" in table
    assert "376,364" in table


SAMPLE1K_CHECKPOINT = Path(__file__).resolve().parent.parent / "perfbench" / "sample1k.fks"


def _trained_checkpoint(tmp_path, **cfg_kw):
    entities, config = load_toy(8, **cfg_kw)
    return training.train(entities, entities[:2], config), tmp_path / "model.fks"


def _read_each_entry(path):
    """Every tensor of an FKS1 file as float64, read entry by entry from its own offset."""
    raw = path.read_bytes()
    (length,) = struct.unpack("<I", raw[4:8])
    payload = raw[8 + length:]
    arrays = {}
    for entry in json.loads(raw[8:8 + length])["tensors"]:
        chunk = np.frombuffer(payload, "<f4", math.prod(entry["shape"]), entry["offset"])
        arrays[entry["name"]] = chunk.reshape(entry["shape"]).astype(np.float64)
    return arrays


@pytest.mark.parametrize("source", ["sample1k", "mean", "fixed_random"])
def test_loaded_tensors_equal_a_per_entry_read(tmp_path, source):
    # the loader reads the whole payload at once; each tensor must still be its own entry's bytes
    path = SAMPLE1K_CHECKPOINT
    if source != "sample1k":
        checkpoint, path = _trained_checkpoint(tmp_path, mean_fact=source)
        training.save_checkpoint(checkpoint, path)
    loaded = training.load_checkpoint(path)
    expected = _read_each_entry(path)
    assert [name for name, _ in loaded.params.named_tensors()] == list(expected)
    for name, tensor in loaded.params.named_tensors():
        assert tensor.data.dtype == np.float64 and tensor.data.shape == expected[name].shape
        assert tensor.data.tobytes() == expected[name].tobytes(), name
    assert (loaded.params.fixed_mean() is None) == (source != "fixed_random")


def test_checkpoint_round_trip_byte_identical(tmp_path):
    checkpoint, path = _trained_checkpoint(tmp_path)
    training.save_checkpoint(checkpoint, path)
    loaded = training.load_checkpoint(path)
    second = tmp_path / "again.fks"
    training.save_checkpoint(loaded, second)
    assert path.read_bytes() == second.read_bytes()
    assert loaded.config == checkpoint.config
    assert loaded.vocab.words == checkpoint.vocab.words
    assert loaded.meta == checkpoint.meta
    # the committed sample1k model, read only, saves back to its own bytes
    training.save_checkpoint(training.load_checkpoint(SAMPLE1K_CHECKPOINT), second)
    assert second.read_bytes() == SAMPLE1K_CHECKPOINT.read_bytes()


@settings(max_examples=25, deadline=None)
@given(dims=st.lists(st.integers(1, 6), min_size=6, max_size=6),
       encoding=st.sampled_from(ENCODING_MODES),
       mean_fact=st.sampled_from(MEAN_FACT_MODES), seed=st.integers(0, 2**16))
def test_checkpoint_round_trip_byte_identical_on_random_configs(dims, encoding, mean_fact, seed):
    vocab_size, words, embed, hidden, attn, head = dims
    config = TrainConfig(vocab_size=vocab_size, max_factual_words=words, embed_dim=embed,
                         hidden_dim=hidden, attn_dim=attn, head_dim=head, encoding=encoding,
                         mean_fact=mean_fact, seed=seed)
    params = DecoderParams(config.dims(), mean_fact, rng=np.random.default_rng(seed))
    vocab = corpus.Vocabulary([corpus.UNK, corpus.SOS, corpus.EOS]
                              + [f"w{i}" for i in range(seed % (vocab_size + 1))])
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.fks", Path(tmp) / "second.fks"
        training.save_checkpoint(Checkpoint(params, config, vocab, {"seed": seed}), first)
        training.save_checkpoint(training.load_checkpoint(first), second)
        assert first.read_bytes() == second.read_bytes()


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.fks"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        training.load_checkpoint(path)


def test_checkpoint_rejects_truncated_payload(tmp_path):
    checkpoint, path = _trained_checkpoint(tmp_path)
    training.save_checkpoint(checkpoint, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-20])
    with pytest.raises(CheckpointError) as exc:
        training.load_checkpoint(path)
    assert "payload" in str(exc.value)


def test_checkpoint_rejects_version_mismatch(tmp_path):
    checkpoint, path = _trained_checkpoint(tmp_path)
    training.save_checkpoint(checkpoint, path)
    raw = path.read_bytes()
    (mlen,) = struct.unpack("<I", raw[4:8])
    manifest = json.loads(raw[8:8 + mlen])
    manifest["version"] = 99
    blob = json.dumps(manifest, ensure_ascii=False, separators=(",", ":")).encode()
    path.write_bytes(raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + mlen:])
    with pytest.raises(CheckpointError) as exc:
        training.load_checkpoint(path)
    assert "version" in str(exc.value)


def test_checkpoint_rejects_vocab_size_mismatch(tmp_path):
    checkpoint, path = _trained_checkpoint(tmp_path)
    training.save_checkpoint(checkpoint, path)
    raw = path.read_bytes()
    (mlen,) = struct.unpack("<I", raw[4:8])
    manifest = json.loads(raw[8:8 + mlen])
    manifest["config"]["vocab_size"] = 999  # payload no longer matches
    blob = json.dumps(manifest, ensure_ascii=False, separators=(",", ":")).encode()
    path.write_bytes(raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + mlen:])
    with pytest.raises(CheckpointError) as exc:
        training.load_checkpoint(path)
    assert "tensor entry 0" in str(exc.value) and "[1002, 6]" in str(exc.value)
