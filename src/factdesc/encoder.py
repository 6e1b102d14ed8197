"""Fact encoder: positionally weighted word embeddings plus a mean fact.

A fact's phrase (property name followed by value) is folded into one
vector.  In ``positional`` mode word j of a J-word phrase is weighted
elementwise by the column l_j with

    l[k, j] = (1 - j/J) - (k/d) * (1 - 2*j/J),   k, j 1-indexed,

so early and late phrase positions project into different embedding
subspaces; ``mean_pool`` mode replaces this with a plain average (every
weight 1/J).  The mean of all fact embeddings is appended as one extra
slot (the phantom fact that generates vocabulary words), so an entity
with N facts exposes exactly N + 1 slots.

An entity is encoded in one pass in either mode: one gather of all its
phrase words, one product with the stacked (J, d) weight blocks, one sum
per fact's run of rows.  The runs are summed one by one, not by a GEMM
with a 0/1 segment matrix, whose summation order depends on where a run
sits: facts with the same words must tie exactly, as attention breaks
ties toward the lower slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .corpus import DEFAULT_MAX_FACTS
from .errors import ConfigError
from .tensor import Tensor, concat, embedding_rows, matmul, mul, segment_sum

ENCODING_MODES = ("positional", "mean_pool")
MEAN_FACT_MODES = ("mean", "fixed_random")


@dataclass
class EncoderConfig:
    embedding_dim: int = 100
    encoding: str = "positional"
    mean_fact: str = "mean"
    max_phrase_len: int = 60

    def __post_init__(self):
        if self.embedding_dim < 1:
            raise ConfigError(f"embedding_dim must be >= 1, got {self.embedding_dim}")
        if self.encoding not in ENCODING_MODES:
            raise ConfigError(f"unknown encoding mode {self.encoding!r}")
        if self.mean_fact not in MEAN_FACT_MODES:
            raise ConfigError(f"unknown mean_fact mode {self.mean_fact!r}")


@dataclass
class EncodedEntity:
    """Slot matrix an entity exposes to the decoder.

    ``embeddings`` has N + 1 rows: the N fact embeddings, then the mean
    fact.  ``mask`` starts all true; decoders copy it to switch slots off.
    ``word_counts`` holds each fact's number of copyable words.
    """

    embeddings: Tensor
    mask: np.ndarray
    n_facts: int
    word_counts: list[int]

    @property
    def mean_slot(self):
        return self.n_facts


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


@lru_cache(maxsize=None)
def _mean_weights(n):
    return Tensor(np.full((1, n), 1.0 / n))


def fixed_mean_vector(rng, dim):
    """The frozen stand-in for the mean fact, sampled once at init."""
    bound = 1.0 / np.sqrt(dim)
    return rng.uniform(-bound, bound, size=(1, dim))


def encode_entity(entity, word_embeddings, vocab, cfg, max_facts=DEFAULT_MAX_FACTS,
                  fixed_mean=None):
    """The first ``max_facts`` fact embeddings plus the mean-fact slot.

    Phrases are cut to ``cfg.max_phrase_len`` words; unknown words read ``<UNK>``.
    """
    facts = entity.facts[:max_facts]
    n = len(facts)
    if n == 0:
        raise ConfigError(f"entity {entity.id} has no facts to encode")
    phrases = [f.phrase()[: cfg.max_phrase_len] for f in facts]
    lengths = [len(p) for p in phrases]
    if 0 in lengths:
        raise ConfigError(f"entity {entity.id}: cannot encode a fact with an empty phrase")
    words = embedding_rows(word_embeddings, vocab.indices([w for p in phrases for w in p]))
    weights = np.concatenate([_weight_block(j, cfg.embedding_dim, cfg.encoding)
                              for j in lengths])
    stacked = segment_sum(mul(words, Tensor(weights)), lengths)
    if cfg.mean_fact == "mean":
        mean_row = matmul(_mean_weights(n), stacked)
    else:
        if fixed_mean is None:
            raise ConfigError("fixed_random mean-fact mode needs the frozen vector")
        mean_row = fixed_mean
    return EncodedEntity(
        embeddings=concat([stacked, mean_row], axis=0),
        mask=np.ones(n + 1, dtype=bool),
        n_facts=n,
        word_counts=[len(f.factual_words) for f in facts],
    )
