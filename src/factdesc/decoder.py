"""Sequence decoder: attention over facts, GRU state, two output heads.

Each step selects one slot of the encoded entity by attention argmax.
Picking a real fact routes the step through the copy head, which points
at a position inside that fact's factual words; picking the mean-fact
slot routes it through the vocabulary softmax instead.  The GRU input
concatenates the selected fact embedding with feedback from the
previous step: the emitted vocabulary word's embedding or the copied
position's one-hot, never both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import EOS, UNK
from .encoder import encode_entity, fixed_mean_vector
from .errors import EmptyFactError, ShapeError
from .tensor import (
    Tensor,
    additive_energies,
    affine,
    concat,
    embedding_rows,
    getitem,
    gru,
    gru_step,
    masked_softmax,
    matmul,
    relu,
    reshape,
)


@dataclass(frozen=True)
class ModelDims:
    """Sizes every parameter shape derives from (``TrainConfig.dims``)."""

    embed_dim: int   # word and fact embeddings
    hidden_dim: int  # GRU state
    attn_dim: int    # attention hidden layer
    head_dim: int    # vocab/copy head hidden layer
    vocab_size: int  # specials included
    copy_width: int  # positions the copy head can point at

    @property
    def gru_input(self):
        # [selected fact; previous word embedding; previous copy one-hot]
        return 2 * self.embed_dim + self.copy_width

    @property
    def pair_dim(self):
        return self.embed_dim + self.hidden_dim


def param_shapes(dims, mean_fact_mode="mean"):
    """Ordered (name, shape, init kind) for every model tensor.

    Kinds: ``weight`` U(-1/sqrt(fan_in), +1/sqrt(fan_in)), ``bias``
    zeros, ``embedding`` U(-0.1, 0.1), ``frozen`` U(-1/sqrt(d), +1/sqrt(d))
    and excluded from training.
    """
    d, H = dims.embed_dim, dims.hidden_dim
    shapes = [
        ("word_emb", (dims.vocab_size, d), "embedding"),
        ("attn_hidden_w", (dims.attn_dim, dims.pair_dim), "weight"),
        ("attn_hidden_b", (dims.attn_dim,), "bias"),
        ("attn_energy_w", (1, dims.attn_dim), "weight"),
        ("attn_energy_b", (1,), "bias"),
    ]
    for gate in ("update", "reset", "cand"):
        shapes += [
            (f"gru_{gate}_x", (H, dims.gru_input), "weight"),
            (f"gru_{gate}_h", (H, H), "weight"),
            (f"gru_{gate}_b", (H,), "bias"),
        ]
    shapes += [
        ("vocab_hidden_w", (dims.head_dim, dims.pair_dim), "weight"),
        ("vocab_hidden_b", (dims.head_dim,), "bias"),
        ("vocab_out_w", (dims.vocab_size, dims.head_dim), "weight"),
        ("vocab_out_b", (dims.vocab_size,), "bias"),
        ("copy_hidden_w", (dims.head_dim, dims.pair_dim), "weight"),
        ("copy_hidden_b", (dims.head_dim,), "bias"),
        ("copy_out_w", (dims.copy_width, dims.head_dim), "weight"),
        ("copy_out_b", (dims.copy_width,), "bias"),
    ]
    if mean_fact_mode == "fixed_random":
        shapes.append(("mean_fact_fixed", (1, d), "frozen"))
    return shapes


def _init_array(rng, shape, kind):
    if kind == "bias":
        return np.zeros(shape)
    if kind == "embedding":
        return rng.uniform(-0.1, 0.1, shape)
    if kind == "frozen":
        return fixed_mean_vector(rng, shape[1])
    bound = 1.0 / np.sqrt(shape[1])
    return rng.uniform(-bound, bound, shape)


class DecoderParams:
    """Named tensor container for the whole model.

    Tensor order is fixed by :func:`param_shapes`, which keeps
    checkpoints, Adam state, and parameter counting consistent.  ``arrays``
    are used as given; ``load_checkpoint`` checks the layout before.
    """

    def __init__(self, dims, mean_fact_mode="mean", rng=None, arrays=None):
        self.dims = dims
        self.mean_fact_mode = mean_fact_mode
        self._names = []
        rng = rng if rng is not None else np.random.default_rng(0)
        for name, shape, kind in param_shapes(dims, mean_fact_mode):
            data = _init_array(rng, shape, kind) if arrays is None else arrays[name]
            tensor = Tensor(data, requires_grad=(kind != "frozen"), name=name)
            setattr(self, name, tensor)
            self._names.append(name)

    def named_tensors(self):
        return [(name, getattr(self, name)) for name in self._names]

    def learnable(self):
        return [t for _, t in self.named_tensors() if t.requires_grad]

    def zero_grads(self):
        for t in self.learnable():
            t.zero_grad()

    def fixed_mean(self):
        return getattr(self, "mean_fact_fixed", None)

    def clone(self):
        arrays = {name: t.data.copy() for name, t in self.named_tensors()}
        return DecoderParams(self.dims, self.mean_fact_mode, arrays=arrays)


# Teacher-forced training calls each layer below once per minibatch, the B
# entities' slots padded to S and steps to T: states and GRU inputs are
# (B, T, .), and the heads take the N scored steps as (N, .) rows.

def attention_keys(slots, params):
    """Slots (S, d) projected once by the fact columns W_f of ``attn_hidden_w``."""
    fact_cols = getitem(params.attn_hidden_w, np.s_[:, : params.dims.embed_dim])
    return affine(slots, fact_cols, params.attn_hidden_b)


def fact_attention(keys, mask, states, params):
    """Attention distributions over the slots, one row per state h_{t-1}.

    ``keys`` (B * S, a) from :func:`attention_keys`, ``mask`` (B, S) and
    ``states`` (B, T, H) give (B * T, S).  The states are projected once and
    broadcast-added to the keys.
    """
    if states.data.ndim != 3 or np.ndim(mask) != 2:
        raise ShapeError(f"fact_attention got states {states.shape} and mask {np.shape(mask)}")
    dims = params.dims
    batch, steps = states.shape[:2]
    state_cols = getitem(params.attn_hidden_w, np.s_[:, dims.embed_dim:])
    queries = affine(reshape(states, (-1, dims.hidden_dim)), state_cols)
    energies = additive_energies(reshape(keys, (batch, -1, dims.attn_dim)),
                                 reshape(queries, (batch, steps, dims.attn_dim)),
                                 params.attn_energy_w, params.attn_energy_b)
    return masked_softmax(reshape(energies, (batch * steps, -1)),
                          np.repeat(mask, steps, axis=0))


def slot_embedding(fact_embs, slots):
    """Rows of the slot matrix, ``slots.shape + (d,)`` for an index array ``slots``."""
    return embedding_rows(fact_embs, slots)


def attention_context(alpha, fact_embs):
    """Attention-weighted mix of all slots per row: (T, S) by (S, d), or (B, T, S) by (B, S, d)."""
    return matmul(alpha, fact_embs)


def decoder_step(f, w_prev, v_prev, h0, params):
    """GRU states h_1..h_T from the input rows [f_t; w_{t-1}; v_{t-1}] and h_0."""
    return gru(concat([f, w_prev, v_prev], axis=-1), h0,
               params.gru_update_x, params.gru_update_h, params.gru_update_b,
               params.gru_reset_x, params.gru_reset_h, params.gru_reset_b,
               params.gru_cand_x, params.gru_cand_h, params.gru_cand_b)


def vocab_logits(c, h, params):
    """Distributions over the vocabulary from the rows [c_t; h_t]."""
    hidden = relu(affine(concat([c, h], axis=1), params.vocab_hidden_w, params.vocab_hidden_b))
    scores = affine(hidden, params.vocab_out_w, params.vocab_out_b)
    return masked_softmax(scores, np.ones(params.dims.vocab_size, dtype=bool))


def copy_logits(f, h, n_words, params):
    """Distributions over copy positions 1..n_words from the rows [f_t; h_t],
    with one count in ``n_words`` per row."""
    width = params.dims.copy_width
    counts = np.asarray(n_words)
    fewest, most = counts.min(), counts.max()
    if fewest == 0:
        raise EmptyFactError("copy head selected a fact with no factual words")
    if fewest < 0 or most > width:
        raise ShapeError(f"n_words {n_words} outside 1..{width}")
    hidden = relu(affine(concat([f, h], axis=1), params.copy_hidden_w, params.copy_hidden_b))
    scores = affine(hidden, params.copy_out_w, params.copy_out_b)
    return masked_softmax(scores, np.arange(width) < counts[:, None])


def greedy_decode(entity, params, vocab, config, max_len=None, return_trace=False):
    """Greedy generation for one entity under the model's ``TrainConfig``, on plain arrays.

    Each step takes the argmax slot: one of the entity's facts, or the mean
    fact at slot ``len(entity.facts)``.  A fact with no factual words that
    wins is masked out for the rest of the decode and the step attends again.
    Stops at ``<EOS>`` or ``max_len`` (default ``config.max_decode_len``);
    ``<UNK>`` is stripped from the returned tokens (the trace keeps every
    step, with one attention weight per slot).  The vocabulary head picks
    among the ``len(vocab)`` words only.  With ``config.copy_only`` the
    mean-fact slot is never selectable.  The layers above, regrouped: each
    slot passes through the GRU's fact columns once, and a copy feeds back
    its position's column, not a one-hot.
    """
    enc = encode_entity(entity, params.word_emb, vocab, config, fixed_mean=params.fixed_mean())
    slots = enc.embeddings.data
    keys = attention_keys(enc.embeddings, params).data
    mask, mean_slot = enc.mask.copy(), len(entity.facts)
    if config.copy_only:
        mask[mean_slot] = False
    d, n_vocab = params.dims.embed_dim, len(vocab)
    p = {name: t.data for name, t in params.named_tensors()}
    query_w = p["attn_hidden_w"][:, d:]
    energy_w, energy_b = p["attn_energy_w"][0], p["attn_energy_b"]
    gate_x = [p[f"gru_{g}_x"] for g in ("update", "reset", "cand")]
    slot_in = [slots @ w[:, :d].T + p[f"gru_{g}_b"]  # (S, H) per gate
               for w, g in zip(gate_x, ("update", "reset", "cand"))]
    feedback = [0.0, 0.0, 0.0]
    h = np.zeros(params.dims.hidden_dim)
    trace = []
    with np.errstate(over="ignore"):  # a saturated gate, as in ``gru``
        for _ in range(config.max_decode_len if max_len is None else max_len):
            hidden = keys + h @ query_w.T
            energies = (np.tanh(hidden, out=hidden) * energy_w).sum(axis=1) + energy_b
            while mask.any():
                masked = np.where(mask, energies, -np.inf)
                alpha = np.exp(masked - masked.max())
                alpha /= alpha.sum()
                slot = int(alpha.argmax())  # ties toward the lowest slot
                if slot == mean_slot or entity.facts[slot].factual_words:
                    break
                mask[slot] = False
            else:
                break
            h = gru_step(*(s[slot] + f for s, f in zip(slot_in, feedback)), h,
                         p["gru_update_h"], p["gru_reset_h"], p["gru_cand_h"])[3]
            if slot == mean_slot:
                mixed = np.concatenate([alpha @ slots, h])
                head = np.maximum(p["vocab_hidden_w"] @ mixed + p["vocab_hidden_b"], 0.0)
                word = int((p["vocab_out_w"][:n_vocab] @ head + p["vocab_out_b"][:n_vocab])
                           .argmax())
                token = vocab.word(word)
                if token != EOS:
                    feedback = [w[:, d:2 * d] @ p["word_emb"][word] for w in gate_x]
            else:
                n_words = len(entity.facts[slot].factual_words)
                if n_words > params.dims.copy_width:
                    raise ShapeError(f"n_words {n_words} outside 1..{params.dims.copy_width}")
                mixed = np.concatenate([slots[slot], h])
                head = np.maximum(p["copy_hidden_w"] @ mixed + p["copy_hidden_b"], 0.0)
                pos = int((p["copy_out_w"][:n_words] @ head + p["copy_out_b"][:n_words])
                          .argmax())
                token = entity.facts[slot].factual_words[pos]  # lowercase, never <EOS>
                feedback = [w[:, 2 * d + pos] for w in gate_x]
            trace.append((token, alpha))
            if token == EOS:
                break
    tokens = [t for t, _ in trace if t not in (EOS, UNK)]
    return (tokens, trace) if return_trace else tokens
