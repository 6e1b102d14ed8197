"""Sequence decoder: attention over facts, GRU state, two output heads.

Each step selects one slot of the encoded entity by attention argmax.
Picking a real fact routes the step through the copy head, which points
at a position inside that fact's factual words; picking the mean-fact
slot routes it through the vocabulary softmax instead.  A step's GRU gate
inputs add the selected fact's to those the previous step feeds back: the
emitted vocabulary word's or the copied position's, never both.  Training runs
the layer functions below on whole minibatches; greedy decoding regroups their
arithmetic on plain arrays and reads a :class:`DecodePlan` of the weight
products no entity changes.  Both attend over the encoder's slot table and
read the gate weights and feedback rows from :func:`gate_columns`.
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
    transpose,
)

GATES = ("update", "reset", "cand")  # the GRU's, in parameter order


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
    for gate in GATES:
        shapes += [
            (f"gru_{gate}_x", (H, 2 * d + dims.copy_width), "weight"),
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


def param_offsets(shapes):
    """Element offsets of :func:`param_shapes` laid end to end: each start, then the end."""
    return np.cumsum([0] + [np.prod(shape, dtype=int) for _, shape, _ in shapes]).tolist()


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
    """The whole model as one flat float64 array ``data``, laid out as the checkpoint
    payload (:func:`param_offsets`), and its gradient ``grad``, which covers the learnable
    prefix (a frozen ``mean_fact_fixed`` comes last).  Each named tensor's ``.data`` is a
    view of ``data``; :meth:`zero_grads` makes each learnable ``.grad`` a view of ``grad``,
    which it allocates on its first call.  A given ``data`` is used as is;
    ``load_checkpoint`` checks the layout before."""

    def __init__(self, dims, mean_fact_mode="mean", rng=None, data=None):
        self.dims = dims
        self.mean_fact_mode = mean_fact_mode
        shapes = param_shapes(dims, mean_fact_mode)
        self._names = [name for name, _, _ in shapes]
        self._offsets = param_offsets(shapes)
        rng = rng if rng is not None else np.random.default_rng(0)
        self.data = data if data is not None else np.concatenate(
            [_init_array(rng, shape, kind).reshape(-1) for _, shape, kind in shapes])
        for (name, shape, kind), lo, hi in zip(shapes, self._offsets, self._offsets[1:]):
            setattr(self, name, Tensor(self.data[lo:hi].reshape(shape),
                                       requires_grad=(kind != "frozen"), name=name))
        self.grad = None

    def named_tensors(self):
        return [(name, getattr(self, name)) for name in self._names]

    def learnable(self):
        return [t for _, t in self.named_tensors() if t.requires_grad]

    def tensor_at(self, index):
        """The name of the tensor that holds element ``index`` of ``data``."""
        return self._names[np.searchsorted(self._offsets, index, side="right") - 1]

    def zero_grads(self):
        if self.grad is None:  # first allocated here: a model that only decodes has none
            self.grad = np.zeros(self._offsets[len(self.learnable())])
        self.grad.fill(0.0)
        for t, lo, hi in zip(self.learnable(), self._offsets, self._offsets[1:]):
            t.grad = self.grad[lo:hi].reshape(t.shape)  # a view again, also after grad_check

    def fixed_mean(self):
        return getattr(self, "mean_fact_fixed", None)

    def clone(self):
        return DecoderParams(self.dims, self.mean_fact_mode, data=self.data.copy())


# Teacher-forced training calls each layer below once per minibatch, the B
# entities' slots padded to S and steps to T: states and GRU inputs are
# (B, T, .), and the heads take the N scored steps as (N, .) rows.

def fact_attention(slots, mask, states, params):
    """Attention distributions over the slots, one row per state h_{t-1}.

    ``slots`` (B * S, d) and ``mask`` (B, S), as ``encoder.encode_entities`` lays
    them out, and ``states`` (B, T, H) give (B * T, S).  The slots are projected
    once by the fact columns of ``attn_hidden_w`` (the keys), the states once by its
    state columns, and the two are broadcast-added.
    """
    if states.data.ndim != 3 or np.ndim(mask) != 2:
        raise ShapeError(f"fact_attention got states {states.shape} and mask {np.shape(mask)}")
    dims, w = params.dims, params.attn_hidden_w
    batch, steps = states.shape[:2]
    keys = affine(slots, getitem(w, np.s_[:, : dims.embed_dim]), params.attn_hidden_b)
    queries = affine(reshape(states, (-1, dims.hidden_dim)), getitem(w, np.s_[:, dims.embed_dim:]))
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


def gate_columns(params, words):
    """The fact columns (3H, d) and biases (3H,) of the gates stacked over :data:`GATES`,
    and the feedback table: the gate inputs each previous token can feed back.

    Each ``gru_*_x`` reads [selected fact; previous word; previous copy position's
    one-hot], so table row 0 is the first step's zero row, row 1 + p position p's copy
    columns, and row 1 + copy_width + i ``words[i]``'s embedding through the word columns.
    Recorded on the tape, so the gradients reach the weights and the word table."""
    d, weights = params.dims.embed_dim, concat([getattr(params, f"gru_{g}_x") for g in GATES])
    fact, word, copy = (getitem(weights, np.s_[:, lo:hi])
                        for lo, hi in ((0, d), (d, 2 * d), (2 * d, None)))
    bias = concat([getattr(params, f"gru_{g}_b") for g in GATES])
    return fact, bias, concat([Tensor(np.zeros((1, len(bias.data)))), transpose(copy),
                               affine(embedding_rows(params.word_emb, words), word)])


def decoder_step(pre, h0, params):
    """GRU states h_1..h_T from the gate inputs ``pre`` (B, T, 3H) and h_0."""
    return gru(pre, h0, params.gru_update_h, params.gru_reset_h, params.gru_cand_h)


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


class DecodePlan:
    """The arrays greedy decoding reads, derived once from one model's ``params``
    (kept for the encoder).  A snapshot: build a new one after the parameters change.

    ``slot_w`` (d, a + 3H) holds the key columns of ``attn_hidden_w``, then the fact
    columns of :func:`gate_columns`; ``state_w`` (a + 2H, H) the query columns,
    ``gru_update_h`` and ``gru_reset_h``; ``feedback`` (1 + copy_width + V, 3H) is the
    :func:`gate_columns` table of every vocabulary word, word i at row 1 + copy_width + i."""

    def __init__(self, params):
        d, p = params.dims.embed_dim, {name: t.data for name, t in params.named_tensors()}
        columns = gate_columns(params, range(params.dims.vocab_size))  # every word's feedback
        fact, bias, self.feedback = (t.data for t in columns)
        self.params, self.cand_h = params, p["gru_cand_h"]
        self.slot_w = np.concatenate([p["attn_hidden_w"][:, :d], fact]).T.copy()
        self.slot_b = np.concatenate([p["attn_hidden_b"], bias])
        self.state_w = np.concatenate([p["attn_hidden_w"][:, d:], p["gru_update_h"],
                                       p["gru_reset_h"]])
        self.energy_w, self.energy_b = p["attn_energy_w"][0], p["attn_energy_b"]
        layers = ("hidden_w", "hidden_b", "out_w", "out_b")
        self.vocab_head = [p[f"vocab_{layer}"] for layer in layers]
        self.copy_head = [p[f"copy_{layer}"] for layer in layers]


def _head_argmax(head, x, rows):
    """The argmax of a head (:func:`vocab_logits`, :func:`copy_logits`) over its first ``rows``."""
    hidden_w, hidden_b, out_w, out_b = head
    hidden = np.maximum(hidden_w @ x + hidden_b, 0.0)
    return int((out_w[:rows] @ hidden + out_b[:rows]).argmax())


def greedy_decode(entity, plan, vocab, config, max_len=None, return_trace=False):
    """Greedy generation for one entity from the model's plan and ``TrainConfig``.

    Each step takes the argmax slot: one of the entity's facts, or the mean
    fact at slot ``len(entity.facts)``.  A fact with no factual words that
    wins is masked out for the rest of the decode and the step attends again.
    Stops at ``<EOS>`` or ``max_len`` (default ``config.max_decode_len``);
    ``<UNK>`` is stripped from the returned tokens (the trace keeps every
    step, with one attention weight per slot).  The vocabulary head picks
    among the ``len(vocab)`` words only.  The encoder's mask keeps the mean-fact
    slot unselectable under ``copy_only``.  The layers above, regrouped on plain
    arrays: one product per entity gives the keys and all slots' gate inputs, one
    per step the query and gate state terms; feedback is a row of the plan.
    """
    params, dims = plan.params, plan.params.dims
    enc = encode_entity(entity, params.word_emb, vocab, config, fixed_mean=params.fixed_mean())
    slots = enc.embeddings.data
    a, H = dims.attn_dim, dims.hidden_dim
    projected = slots @ plan.slot_w + plan.slot_b  # (S, a + 3H)
    keys, slot_in = projected[:, :a], projected[:, a:]
    mask, mean_slot = enc.mask.copy(), len(entity.facts)
    all_live = mask.all()  # while all are live, nothing is masked
    h, feedback, trace = np.zeros(H), plan.feedback[0], []
    with np.errstate(over="ignore"):  # a saturated gate, as in ``gru``
        for _ in range(config.max_decode_len if max_len is None else max_len):
            state = plan.state_w @ h  # [query; update and reset state terms]
            hidden = keys + state[:a]
            energies = (np.tanh(hidden, out=hidden) * plan.energy_w).sum(axis=1) + plan.energy_b
            while all_live or mask.any():
                masked = energies if all_live else np.where(mask, energies, -np.inf)
                alpha = np.exp(masked - masked.max())
                alpha /= alpha.sum()
                slot = int(alpha.argmax())  # ties toward the lowest slot
                if slot == mean_slot or entity.facts[slot].factual_words:
                    break
                mask[slot] = all_live = False
            else:
                break
            pre = slot_in[slot] + feedback
            h = gru_step(pre[:2 * H] + state[a:], pre[2 * H:], h, plan.cand_h)[3]
            if slot == mean_slot:
                word = _head_argmax(plan.vocab_head, np.concatenate([alpha @ slots, h]),
                                    len(vocab))
                token, feedback = vocab.word(word), plan.feedback[1 + dims.copy_width + word]
            else:
                words = entity.facts[slot].factual_words
                if len(words) > dims.copy_width:
                    raise ShapeError(f"n_words {len(words)} outside 1..{dims.copy_width}")
                pos = _head_argmax(plan.copy_head, np.concatenate([slots[slot], h]), len(words))
                token, feedback = words[pos], plan.feedback[1 + pos]  # lowercase, never <EOS>
            trace.append((token, alpha))
            if token == EOS:
                break
    tokens = [t for t, _ in trace if t not in (EOS, UNK)]
    return (tokens, trace) if return_trace else tokens
