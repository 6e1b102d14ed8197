"""Fact encoder: positionally weighted word embeddings plus a mean fact.

A fact's phrase (property name followed by value) is folded into one
vector.  In ``positional`` mode word j of a J-word phrase is weighted
elementwise by the column l_j with

    l[k, j] = (1 - j/J) - (k/d) * (1 - 2*j/J),   k, j 1-indexed,

so early and late phrase positions project into different embedding
subspaces; ``mean_pool`` mode replaces this with a plain average (every
weight 1/J).  Every fact of an entity is encoded (facts are cut when
entities are read), and the mean of all fact embeddings is appended as
one extra slot (the phantom fact that generates vocabulary words), so an
entity with N facts exposes exactly N + 1 slots; a frozen vector, when
given, stands in for that mean.  d is the word table's width; the rest
(``encoding``, ``max_phrase_len``, ``copy_only``) comes from the ``TrainConfig``.

A minibatch of B entities is encoded in one pass in either mode
(:func:`encode_entities`): one gather of all their phrase words, one
product with the stacked (J, d) weight blocks, one sum per fact's run of
rows, one sum per entity's run of fact rows times its 1/N for the B means,
and one gather that lays the rows out as the padded slot table training and
decoding attend over.  The runs are summed one by one, not by a GEMM with a
0/1 or 1/N segment matrix, whose summation order depends on where a run
sits: facts with the same words must tie exactly, as attention breaks ties
toward the lower slot, and an entity's mean row is the same in any batch.
:func:`encode_entity` is the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .tensor import Tensor, concat, embedding_rows, mul, segment_sum

ENCODING_MODES = ("positional", "mean_pool")
MEAN_FACT_MODES = ("mean", "fixed_random")


@dataclass
class EncodedEntity:
    """Slot matrix one entity exposes to greedy decoding: a row per fact, then the mean
    fact's row, and their mask, as :func:`encode_entities` lays out a batch of one.
    The mask is false for the mean slot under ``copy_only``; decoders copy it to
    switch more slots off."""

    embeddings: Tensor
    mask: np.ndarray


def positional_weights(phrase_len, dim):
    """The (dim, phrase_len) weight matrix of the closed form above."""
    if phrase_len < 1:
        raise ConfigError(f"positional_weights needs a phrase length >= 1, got {phrase_len}")
    if dim < 1:
        raise ConfigError(f"positional_weights needs dim >= 1, got {dim}")
    k = np.arange(1, dim + 1, dtype=np.float64)[:, None]
    j = np.arange(1, phrase_len + 1, dtype=np.float64)[None, :]
    return (1.0 - j / phrase_len) - (k / dim) * (1.0 - 2.0 * j / phrase_len)


@lru_cache(maxsize=None)
def _weight_block(phrase_len, dim, encoding):
    # (J, d) constant, one row of weights per phrase position
    if encoding == "positional":
        return positional_weights(phrase_len, dim).T
    return np.full((phrase_len, dim), 1.0 / phrase_len)


def fixed_mean_vector(rng, dim):
    """The frozen stand-in for the mean fact, sampled once at init."""
    bound = 1.0 / np.sqrt(dim)
    return rng.uniform(-bound, bound, size=(1, dim))


def encode_entities(entities, word_embeddings, vocab, config, *, fixed_mean=None):
    """The padded slot table (B * S, d) of B entities and its attention mask (B, S).

    Entity b's slots are its N_b facts, then its mean fact, masked out under
    ``config.copy_only``, then masked zero rows up to S = max N_b + 1.  ``config``'s
    ``encoding`` weights the words, and phrases are cut to its ``max_phrase_len``;
    unknown words read ``<UNK>``.  ``fixed_mean`` (1, d), when given, is every mean row.
    """
    n_facts = [len(entity.facts) for entity in entities]
    batch, n_rows, width = len(n_facts), sum(n_facts), max(n_facts) + 1
    phrases, layout = [], []
    for b, (entity, n) in enumerate(zip(entities, n_facts)):
        cut = [f.phrase()[: config.max_phrase_len] for f in entity.facts]
        if not cut or not all(cut):
            what = "a fact with an empty phrase" if cut else "an entity without facts"
            raise ConfigError(f"entity {entity.id}: cannot encode {what}")
        # b's slots read its fact rows, then its mean row, then the zero row
        layout += [*range(len(phrases), len(phrases) + n), n_rows + b]
        layout += [n_rows + batch] * (width - n - 1)
        phrases += cut
    lengths, dim = [len(p) for p in phrases], word_embeddings.data.shape[1]
    words = embedding_rows(word_embeddings, vocab.indices([w for p in phrases for w in p]))
    weights = np.concatenate([_weight_block(j, dim, config.encoding) for j in lengths])
    rows = segment_sum(mul(words, Tensor(weights)), lengths)
    means = (mul(segment_sum(rows, n_facts), Tensor(1.0 / np.array(n_facts)[:, None]))
             if fixed_mean is None else embedding_rows(fixed_mean, np.zeros(batch, dtype=np.intp)))
    table, layout = concat([rows, means, Tensor(np.zeros((1, dim)))]), np.array(layout)
    # live: the fact rows, and the mean rows unless copy_only
    mask = layout < n_rows + (0 if config.copy_only else batch)
    return embedding_rows(table, layout), mask.reshape(batch, width)


def encode_entity(entity, word_embeddings, vocab, config, *, fixed_mean=None):
    """The fact embeddings plus the mean-fact slot, and their mask:
    :func:`encode_entities` of a batch of one."""
    slots, mask = encode_entities([entity], word_embeddings, vocab, config, fixed_mean=fixed_mean)
    return EncodedEntity(slots, mask[0])
