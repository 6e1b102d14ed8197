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
given, stands in for that mean.  d is the word table's width; ``encoding``
and the phrase cut ``max_phrase_len`` come from the model's ``TrainConfig``.

A minibatch of B entities is encoded in one pass in either mode
(:func:`encode_entities`): one gather of all their phrase words, one
product with the stacked (J, d) weight blocks, one sum per fact's run of
rows, and one product of a (B, ΣN) block of 1/N rows with the fact rows
for the B means.  The runs are summed one by one, not by a GEMM with a
0/1 segment matrix, whose summation order depends on where a run sits:
facts with the same words must tie exactly, as attention breaks ties
toward the lower slot.  :func:`encode_entity` is the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .tensor import Tensor, concat, embedding_rows, matmul, mul, segment_sum

ENCODING_MODES = ("positional", "mean_pool")
MEAN_FACT_MODES = ("mean", "fixed_random")


@dataclass
class EncodedEntity:
    """Slot matrix one entity exposes to greedy decoding.

    ``embeddings`` has a row per fact, then the mean fact's row, as
    :func:`encode_entities` returns them for a batch of one.  ``mask``
    starts all true; decoders copy it to switch slots off.
    """

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
    """Fact rows (ΣN, d) of B entities, entity by entity, then their mean rows (B, d).

    ``config`` is the model's ``TrainConfig``: its ``encoding`` weights the words,
    and phrases are cut to its ``max_phrase_len``.  Each entity contributes all
    its facts; unknown words read ``<UNK>``.  The mean rows are the (1, d)
    ``fixed_mean`` repeated when it is given.
    """
    phrases, spans = [], []  # spans: (first fact row, fact count) per entity
    for entity in entities:
        cut = [f.phrase()[: config.max_phrase_len] for f in entity.facts]
        if not cut or not all(cut):
            what = "a fact with an empty phrase" if cut else "an entity without facts"
            raise ConfigError(f"entity {entity.id}: cannot encode {what}")
        spans.append((len(phrases), len(cut)))
        phrases += cut
    lengths = [len(p) for p in phrases]
    dim = word_embeddings.data.shape[1]
    words = embedding_rows(word_embeddings, vocab.indices([w for p in phrases for w in p]))
    weights = np.concatenate([_weight_block(j, dim, config.encoding) for j in lengths])
    rows = segment_sum(mul(words, Tensor(weights)), lengths)
    if fixed_mean is not None:
        return rows, embedding_rows(fixed_mean, np.zeros(len(spans), dtype=np.intp))
    block = np.zeros((len(spans), len(phrases)))  # row b: 1/N_b over entity b's fact rows
    for b, (start, n) in enumerate(spans):
        block[b, start:start + n] = 1.0 / n
    return rows, matmul(Tensor(block), rows)


def encode_entity(entity, word_embeddings, vocab, config, *, fixed_mean=None):
    """The fact embeddings plus the mean-fact slot: :func:`encode_entities`
    of a batch of one."""
    slots = concat(encode_entities([entity], word_embeddings, vocab, config,
                                   fixed_mean=fixed_mean))
    return EncodedEntity(slots, np.ones(len(entity.facts) + 1, dtype=bool))
