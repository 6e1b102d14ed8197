"""Training loop, objective, checkpoints, and parameter accounting.

The objective sums, over every aligned description token, the negative
log-likelihood of the gold slot under the attention distribution and
the negative log-likelihood of the gold word under the head that slot
routes to (copy position for fact-aligned tokens, vocabulary index
otherwise, ``<UNK>`` included).  Teacher forcing feeds the gold slot's
embedding and the gold previous-word feedback throughout.  ``train``
records each minibatch's loss (:func:`batch_loss`) on one tape and
replays it once; ``step_loss`` is the same loss for a batch of one.  One
``encode_entities`` call gives the minibatch's padded slots and their mask,
and one ``gate_columns`` call the gate weights and the fed words' feedback rows.

Checkpoint files are binary: magic ``FKS1``, a little-endian uint32
manifest length, a UTF-8 JSON manifest (version, config, vocabulary,
metadata, and the tensor entries the config lays out), then the model's
flat parameter array ``DecoderParams.data`` as little-endian float32.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import struct
from dataclasses import dataclass, field
from functools import cached_property
from math import prod

import numpy as np

from .alignment import Source, align_description
from .corpus import (DECODE_ERRORS, DEFAULT_MAX_FACTS, DEFAULT_MAX_FACTUAL_WORDS, EOS, SOS, UNK,
                     VOCAB_SOURCES, Vocabulary, build_vocabulary)
from .decoder import (
    DecodePlan,
    DecoderParams,
    ModelDims,
    attention_context,
    decoder_step,
    fact_attention,
    gate_columns,
    greedy_decode,
    param_offsets,
    param_shapes,
    slot_embedding,
    vocab_logits,
    copy_logits,
)
from .encoder import ENCODING_MODES, MEAN_FACT_MODES, encode_entities
from .errors import CheckpointError, ConfigError, DataError, TrainingDivergenceError
from .metrics import EvalPair, bleu
from .tensor import (AdamState, Tape, Tensor, adam_step, add, affine, backward, concat,
                     embedding_rows, getitem, nll, reshape)

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"FKS1"
CHECKPOINT_VERSION = 1
MANIFEST_KEYS = ("config", "vocab", "meta", "tensors")

# Python types a JSON config value may have, by TrainConfig annotation.
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool,
               "float | None": (int, float, type(None))}


@dataclass
class TrainConfig:
    epochs: int = 25
    learning_rate: float = 0.001
    batch_size: int = 32
    seed: int = 42
    max_facts: int = DEFAULT_MAX_FACTS  # applied when entities are read (corpus.load_entities)
    max_factual_words: int = DEFAULT_MAX_FACTUAL_WORDS  # also the copy width and phrase cut
    vocab_size: int = 1000
    embed_dim: int = 100
    hidden_dim: int = 100
    attn_dim: int = 100
    head_dim: int = 100
    encoding: str = "positional"
    mean_fact: str = "mean"
    copy_only: bool = False
    max_decode_len: int = 20
    grad_clip: float | None = None  # off by default; the recurrence is shallow
    vocab_source: str = "descriptions"

    def __post_init__(self):
        positive = ("epochs", "learning_rate", "batch_size", "max_facts",
                    "max_factual_words", "vocab_size", "embed_dim", "hidden_dim",
                    "attn_dim", "head_dim", "max_decode_len", "grad_clip")
        for name in positive:
            if (value := getattr(self, name)) is not None and not 0 < value < np.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for name, modes in (("encoding", ENCODING_MODES), ("mean_fact", MEAN_FACT_MODES),
                            ("vocab_source", VOCAB_SOURCES)):
            if (value := getattr(self, name)) not in modes:
                raise ConfigError(f"unknown {name} mode {value!r}, expected one of {modes}")

    @property
    def max_phrase_len(self):  # the encoder's phrase cut; not a field, so never stored
        return self.max_factual_words

    def dims(self):
        return ModelDims(self.embed_dim, self.hidden_dim, self.attn_dim,
                         self.head_dim, self.vocab_size + 3, self.max_factual_words)

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        kinds = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - set(kinds))
        if unknown:
            raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
        for name, value in data.items():
            kind = kinds[name]
            # bool is an int subclass, so true/false only fit bool fields
            if isinstance(value, bool) != (kind == "bool") or not isinstance(
                    value, _JSON_TYPES[kind]):
                raise ConfigError(f"config field {name} must be {kind}, got {value!r}")
        return cls(**data)

    @classmethod
    def from_file(cls, path):
        with open(path, encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except DECODE_ERRORS as exc:
                raise DataError(f"{path}: invalid config JSON: {exc}") from exc
        return cls.from_dict(data)


@dataclass
class Checkpoint:
    params: DecoderParams
    config: TrainConfig
    vocab: Vocabulary
    meta: dict = field(default_factory=dict)

    @cached_property
    def plan(self):
        """Built on the first decode and kept: ``params`` must not change after it."""
        return DecodePlan(self.params)


def step_loss(entity, aligned, params, vocab, config, parts=False):
    """Teacher-forced loss of one entity: :func:`batch_loss` of a batch of one."""
    return batch_loss([entity], [aligned], params, vocab, config, parts)


def batch_loss(entities, aligned, params, vocab, config, parts=False):
    """Teacher-forced loss summed over a minibatch, optionally split into terms.

    Returns the scalar loss, or ``(loss, fact_term, word_term)`` when
    ``parts`` is set.  In ``copy_only`` mode the mean-fact slot is
    masked out of attention and tokens aligned to it contribute no loss
    (the restricted model cannot emit them), though the recurrence
    still advances on their gold feedback.  An entity's slots are its
    facts, then its mean fact at slot ``len(entity.facts)``.  Every GRU input
    is known from the gold tokens, so each layer runs once per minibatch,
    with the slots padded to the most any entity has and the steps to the longest.
    """
    dims = params.dims
    n_facts = np.array([len(entity.facts) for entity in entities])
    fact_embs, mask = encode_entities(entities, params.word_emb, vocab, config,
                                      fixed_mean=params.fixed_mean())
    batch, steps, slots = len(entities), max(len(a.tokens) for a in aligned), mask.shape[1]
    gold = np.repeat(n_facts[:, None], steps, axis=1)  # gold slot per step
    target = np.zeros((batch, steps), dtype=np.intp)  # copy position or word index
    n_words = np.zeros((batch, steps), dtype=np.intp)  # the gold fact's words, copy steps
    copied = np.zeros((batch, steps), dtype=bool)
    # step t's gate inputs add token t-1's feedback, one row of gate_columns' table:
    # the zero row at t = 0, a copy column after a copy, a fed word's row after a word
    feedback = np.zeros((batch, steps), dtype=np.intp)
    fed_words = []
    for b, (entity, tokens) in enumerate(zip(entities, aligned)):
        if tokens.entity_id != entity.id:
            raise DataError(f"alignment for {tokens.entity_id} applied to entity {entity.id}")
        for t, token in enumerate(tokens.tokens):
            if token.source is Source.FACT:
                i, pos = token.fact_index, token.copy_pos
                n_words[b, t] = len(entity.facts[i].factual_words) if 0 <= i < n_facts[b] else 0
                if not 0 <= pos < n_words[b, t]:
                    raise DataError(f"entity {entity.id}: copy position {pos} "
                                    f"of fact {i} out of range")
                copied[b, t], gold[b, t], target[b, t] = True, i, pos
                feedback[b, t + 1:t + 2] = 1 + pos
            else:
                target[b, t] = token.word_index
                if t + 1 < steps:
                    feedback[b, t + 1] = 1 + dims.copy_width + len(fed_words)
                    fed_words.append(token.word_index)
    lengths = np.array([len(a.tokens) for a in aligned])
    scored = copied if config.copy_only else np.arange(steps) < lengths[:, None]
    if not scored.any():
        zero = Tensor(0.0)
        return (zero, zero, zero) if parts else zero

    gold_rows = gold + np.arange(batch)[:, None] * slots  # rows of fact_embs, (B * S, d)
    fact_cols, gate_b, table = gate_columns(params, fed_words)
    slot_in = affine(slot_embedding(fact_embs, gold_rows.reshape(-1)), fact_cols, gate_b)
    pre = add(reshape(slot_in, (batch, steps, -1)), embedding_rows(table, feedback))
    h = decoder_step(pre, Tensor(np.zeros((batch, dims.hidden_dim))), params)
    # h_0..h_{T-1}: step t attends from h_t, and emits from h_{t+1} = h[:, t]
    states = concat([Tensor(np.zeros((batch, 1, dims.hidden_dim))),
                     getitem(h, np.s_[:, :-1])], axis=1)
    alpha = fact_attention(fact_embs, mask, states, params)
    b, t = np.nonzero(scored)
    fact_total = nll(alpha, gold[b, t], rows=b * steps + t)
    word_terms = []  # the heads gather their rows b * steps + t straight from (B, T, .)
    b, t = np.nonzero(copied)
    if b.size:
        dist = copy_logits(slot_embedding(fact_embs, gold_rows[b, t]),
                           embedding_rows(h, b * steps + t), n_words[b, t], params)
        word_terms.append(nll(dist, target[b, t]))
    b, t = np.nonzero(scored & ~copied)
    if b.size:
        context = attention_context(reshape(alpha, (batch, steps, slots)),
                                    reshape(fact_embs, (batch, slots, dims.embed_dim)))
        dist = vocab_logits(embedding_rows(context, b * steps + t),
                            embedding_rows(h, b * steps + t), params)
        word_terms.append(nll(dist, target[b, t]))
    word_total = word_terms[0] if len(word_terms) == 1 else add(*word_terms)
    total = add(word_total, fact_total)
    return (total, fact_total, word_total) if parts else total


def _clip_gradients(grad, clip):
    norm = np.sqrt(grad @ grad)
    if norm > clip:
        grad *= clip / norm


def _dev_bleu4(entities, params, vocab, config):
    """Dev BLEU-4 of greedy decodes, from a plan of the parameters as they are now."""
    described = [e for e in entities if e.description_tokens]
    if not described:
        return None
    plan = DecodePlan(params)
    return bleu([EvalPair(greedy_decode(e, plan, vocab, config), e.description_tokens)
                 for e in described], 4)


def train(train_entities, dev_entities, config):
    """Minibatch Adam over shuffled entities; keeps the best-dev model.

    Dev decoding scores BLEU-4 after every epoch; with an empty dev
    split the final-epoch model is returned instead.  All randomness
    flows from ``config.seed``, so single-threaded runs reproduce
    bit-identically.
    """
    usable = [e for e in train_entities if e.description_tokens is not None]
    if not usable:
        raise ConfigError("training split has no described entities")
    rng = np.random.default_rng(config.seed)
    vocab = build_vocabulary(usable, config.vocab_size, config.vocab_source)
    aligned = [align_description(e, vocab) for e in usable]
    params = DecoderParams(config.dims(), config.mean_fact, rng=rng)
    state = AdamState(learning_rate=config.learning_rate)
    best = None
    best_score = None
    best_epoch = None
    loss_history = []
    dev_history = []
    order = np.arange(len(usable))
    for epoch in range(1, config.epochs + 1):
        rng.shuffle(order)
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            params.zero_grads()
            with Tape() as tape:
                loss = batch_loss([usable[i] for i in batch], [aligned[i] for i in batch],
                                  params, vocab, config)
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingDivergenceError(
                    f"non-finite loss in epoch {epoch} for the minibatch of "
                    f"{len(batch)} entities starting at entity {usable[batch[0]].id}")
            epoch_loss += value
            if loss.requires_grad:
                backward(loss, tape)
            params.grad *= 1.0 / len(batch)
            if config.grad_clip is not None:
                _clip_gradients(params.grad, config.grad_clip)
            adam_step(params.data[:params.grad.size], params.grad, state, params.tensor_at)
        mean_loss = epoch_loss / len(usable)
        loss_history.append(mean_loss)
        dev_score = _dev_bleu4(dev_entities, params, vocab, config)
        if dev_score is not None:
            dev_history.append(dev_score)
            if best_score is None or dev_score > best_score:
                best_score = dev_score
                best_epoch = epoch
                best = params.clone()
        log.info("epoch %d: loss %.4f%s", epoch, mean_loss,
                 "" if dev_score is None else f", dev BLEU-4 {dev_score:.2f}")
    if best is None:
        best = params.clone()
        best_epoch = config.epochs
    meta = {
        "epoch": best_epoch,
        "dev_bleu4": best_score,
        "seed": config.seed,
        "loss_history": loss_history,
        "dev_bleu4_history": dev_history,
    }
    return Checkpoint(best, config, vocab, meta)


def generate_description(checkpoint, entity, max_len=None, return_trace=False):
    """Greedy decoding with everything taken from the checkpoint, its plan included."""
    return greedy_decode(entity, checkpoint.plan, checkpoint.vocab, checkpoint.config,
                         max_len, return_trace)


def count_parameters(config):
    """Closed-form learnable parameter count and per-tensor breakdown."""
    rows = [(name, shape, prod(shape))
            for name, shape, kind in param_shapes(config.dims(), config.mean_fact)
            if kind != "frozen"]
    return sum(count for _, _, count in rows), rows


def format_param_table(config):
    total, rows = count_parameters(config)
    name_w = max(len(name) for name, _, _ in rows)
    lines = [f"{name:<{name_w}}  {str(tuple(shape)):<14}  {count:>9,}"
             for name, shape, count in rows]
    lines.append(f"{'total':<{name_w}}  {'':<14}  {total:>9,}")
    return "\n".join(lines)


def _tensor_entries(config):
    """The config's manifest tensor entries, back to back from byte 0, and the payload size."""
    shapes = param_shapes(config.dims(), config.mean_fact)
    offsets = param_offsets(shapes)
    return [{"name": name, "shape": list(shape), "dtype": "f32", "offset": 4 * offset}
            for (name, shape, _), offset in zip(shapes, offsets)], 4 * offsets[-1]


def _check_layout(path, stored, expected):
    """Raise unless ``stored`` is the tensor layout, naming the first entry that differs."""
    i, got = 0, repr(stored)
    if isinstance(stored, list):
        # compared as JSON text, a shape or offset of 4.0 or true is not 4 or 1
        texts = [[json.dumps(e, sort_keys=True) for e in side] for side in (stored, expected)]
        if texts[0] == texts[1]:
            return
        i = next((i for i, (a, b) in enumerate(zip(*texts)) if a != b), min(map(len, texts)))
        got = repr(stored[i]) if i < len(stored) else "missing"
    want = repr(expected[i]) if i < len(expected) else "no such entry"
    raise CheckpointError(f"{path}: tensor entry {i} is {got}, expected {want}")


def save_checkpoint(checkpoint, path):
    """Serialize to the FKS1 container: the config's tensor layout, then the model's flat
    array in float32."""
    manifest = {
        "version": CHECKPOINT_VERSION,
        "config": checkpoint.config.to_dict(),
        "vocab": checkpoint.vocab.words,
        "meta": checkpoint.meta,
        "tensors": _tensor_entries(checkpoint.config)[0],
    }
    blob = json.dumps(manifest, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(CHECKPOINT_MAGIC)
        handle.write(struct.pack("<I", len(blob)))
        handle.write(blob)
        handle.write(checkpoint.params.data.astype("<f4").tobytes())


def load_checkpoint(path):
    """Read an FKS1 file back into a :class:`Checkpoint`.

    Rejects bad magic, a manifest that is not UTF-8 or that ``json`` cannot
    decode (:data:`~factdesc.corpus.DECODE_ERRORS`), version mismatches,
    malformed manifests (a ``meta`` that is not an object included), a
    vocabulary longer than the output rows, that repeats a word or does not
    start with the specials, a tensor list other than the config's layout
    (naming the first entry that differs), a payload of another length, and
    non-finite tensors (named).
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes")
    if len(raw) < 8:
        raise CheckpointError(f"{path}: file too short for a manifest")
    (manifest_len,) = struct.unpack("<I", raw[4:8])
    blob = raw[8:8 + manifest_len]
    if len(blob) != manifest_len:
        raise CheckpointError(f"{path}: manifest truncated")
    try:
        manifest = json.loads(blob.decode("utf-8"))
    except DECODE_ERRORS as exc:
        raise CheckpointError(f"{path}: manifest unreadable: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: manifest is not a JSON object")
    if manifest.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {manifest.get('version')!r}")
    missing = [key for key in MANIFEST_KEYS if key not in manifest]
    if missing:
        raise CheckpointError(f"{path}: manifest lacks {', '.join(missing)}")
    if not isinstance(manifest["meta"], dict):
        raise CheckpointError(f"{path}: manifest meta is not a JSON object")
    config = TrainConfig.from_dict(manifest["config"])
    words, rows = manifest["vocab"], config.dims().vocab_size
    if (not isinstance(words, list) or not all(isinstance(w, str) for w in words)
            or words[:3] != [UNK, SOS, EOS] or len(set(words)) != len(words) or len(words) > rows):
        raise CheckpointError(f"{path}: vocabulary is not a list of at most {rows} distinct "
                              f"words that starts {UNK}, {SOS}, {EOS}")
    expected, n_bytes = _tensor_entries(config)
    _check_layout(path, manifest["tensors"], expected)
    payload = raw[8 + manifest_len:]
    if len(payload) != n_bytes:
        raise CheckpointError(f"{path}: payload holds {len(payload)} bytes, not {n_bytes}")
    params = DecoderParams(config.dims(), config.mean_fact,
                           data=np.frombuffer(payload, "<f4").astype(np.float64))
    finite = np.isfinite(params.data)
    if not finite.all():
        raise CheckpointError(f"{path}: tensor {params.tensor_at(finite.argmin())!r} "
                              "holds non-finite values")
    return Checkpoint(params, config, Vocabulary(words), manifest["meta"])
