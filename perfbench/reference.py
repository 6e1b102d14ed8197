"""An independent numpy reference for the fact-to-sequence model.

Written from the model's documented equations (the ``factdesc.encoder``,
``factdesc.decoder`` and ``factdesc.training`` docstrings and the
README), not from its code.  It calls nothing in the program's encoder,
decoder, tensor, alignment or metrics modules: it reads only the
parameter arrays, the vocabulary's word list, the config's sizes and the
parsed entities.  The benchmark and its tests compare the program
against it.

With d the embedding width, a fact phrase w_1..w_J (property tokens then
value tokens, cut to ``max_factual_words`` words) is encoded as

    positional:  f = sum_j E[w_j] * l_j,
                 l[k, j] = (1 - j/J) - (k/d) * (1 - 2j/J)  (1-indexed)
    mean_pool:   f = (1/J) sum_j E[w_j]

The slots are the encoded facts followed by their mean (the mean-fact
slot, which routes a step to the vocabulary).  One decoding step, from
the state h, the previous word feedback w and copy feedback v:

    alpha = softmax_i( u . tanh(A [s_i; h] + a) + a0 )   over live slots
    x     = [f; w; v],   f = the chosen slot
    z = sig(Wz x + Uz h + bz),  r = sig(Wr x + Ur h + br)
    c = tanh(Wc x + Uc (r * h) + bc),   h' = (1 - z) * h + z * c
    vocabulary step:  p = softmax(O relu(V [sum_i alpha_i s_i; h'] + b) + o)
    copy step:        q = softmax over the fact's first n words of
                          (P relu(C [f; h'] + b') + o')

The teacher-forced loss sums -log alpha[gold slot] and -log p or q of
the gold word over the aligned description tokens, the closing
``<EOS>`` included.  A description token aligns to the first fact whose
factual words contain it (copy position: its first occurrence there),
else to its vocabulary index (``<UNK>``, index 0, when absent).
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

UNK, SOS, EOS = "<UNK>", "<SOS>", "<EOS>"
SPECIALS = frozenset((UNK, SOS, EOS))


class VocabularyOverrun(RuntimeError):
    """The vocabulary head picked a row the built vocabulary does not have."""


def _sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _softmax(scores):
    e = np.exp(scores - scores.max())
    return e / e.sum()


class Model:
    """The model's forward pass, loss and greedy decoder on plain arrays.

    ``arrays`` maps each parameter name of the model's table to a float64
    array; ``words`` is the vocabulary (specials first); ``config`` is
    read for ``max_facts``, ``max_factual_words``, ``encoding``,
    ``mean_fact``, ``copy_only`` and ``max_decode_len``.
    """

    def __init__(self, arrays, words, config):
        self.p = {name: np.asarray(a, dtype=np.float64) for name, a in arrays.items()}
        self.words = list(words)
        self.index = {w: i for i, w in enumerate(self.words)}
        self.max_facts = config.max_facts
        self.max_phrase_len = config.max_factual_words
        self.encoding = config.encoding
        self.mean_fact = config.mean_fact
        self.copy_only = config.copy_only
        self.max_decode_len = config.max_decode_len
        self.embed_dim = self.p["word_emb"].shape[1]
        self.hidden_dim = self.p["gru_update_h"].shape[0]
        self.copy_width = self.p["copy_out_w"].shape[0]

    # encoder -----------------------------------------------------------
    def _encode_fact(self, fact):
        phrase = (fact.property_tokens + fact.value_tokens)[: self.max_phrase_len]
        emb = self.p["word_emb"][[self.index.get(w, 0) for w in phrase]]
        n = len(phrase)
        if self.encoding == "mean_pool":
            return emb.sum(axis=0) / n
        d = self.embed_dim
        j = np.arange(1, n + 1, dtype=np.float64)
        k = np.arange(1, d + 1, dtype=np.float64)[:, None]
        weights = (1.0 - j / n) - (k / d) * (1.0 - 2.0 * j / n)  # (d, J)
        return (emb * weights.T).sum(axis=0)

    def encode(self, entity):
        """Slot matrix (facts, then the mean fact) and per-fact word counts."""
        facts = entity.facts[: self.max_facts]
        rows = np.array([self._encode_fact(f) for f in facts])
        if self.mean_fact == "mean":
            mean = rows.mean(axis=0)
        else:
            mean = self.p["mean_fact_fixed"][0]
        return np.vstack([rows, mean]), [len(f.factual_words) for f in facts]

    # decoder -----------------------------------------------------------
    @staticmethod
    def distinct_slots(slots):
        """Distinct slot rows and each slot's row among them.

        Two facts with the same phrase (common when every word of both
        maps to ``<UNK>``) tie exactly, and the argmax must then take the
        lower index.  Energies are therefore computed once per distinct
        row, so that rounding inside a matrix product cannot break the
        tie.
        """
        rows, inverse = np.unique(slots, axis=0, return_inverse=True)
        return rows, inverse.ravel()

    def attention(self, distinct, live, h):
        """Attention over the slots, given ``distinct_slots(slots)``."""
        p = self.p
        rows, inverse = distinct
        pairs = np.hstack([rows, np.broadcast_to(h, (rows.shape[0], h.size))])
        hidden = np.tanh(pairs @ p["attn_hidden_w"].T + p["attn_hidden_b"])
        energy = (hidden @ p["attn_energy_w"][0] + p["attn_energy_b"][0])[inverse]
        return _softmax(np.where(live, energy, -np.inf))

    def gru(self, f, w, v, h):
        p = self.p
        x = np.concatenate([f, w, v])
        z = _sigmoid(p["gru_update_x"] @ x + p["gru_update_h"] @ h + p["gru_update_b"])
        r = _sigmoid(p["gru_reset_x"] @ x + p["gru_reset_h"] @ h + p["gru_reset_b"])
        c = np.tanh(p["gru_cand_x"] @ x + p["gru_cand_h"] @ (r * h) + p["gru_cand_b"])
        return (1.0 - z) * h + z * c

    def vocab_dist(self, context, h):
        p = self.p
        hidden = np.maximum(p["vocab_hidden_w"] @ np.concatenate([context, h])
                            + p["vocab_hidden_b"], 0.0)
        return _softmax(p["vocab_out_w"] @ hidden + p["vocab_out_b"])

    def copy_dist(self, f, h, n_words):
        p = self.p
        hidden = np.maximum(p["copy_hidden_w"] @ np.concatenate([f, h])
                            + p["copy_hidden_b"], 0.0)
        return _softmax((p["copy_out_w"] @ hidden + p["copy_out_b"])[:n_words])

    def _initial_state(self):
        return (np.zeros(self.hidden_dim), np.zeros(self.embed_dim),
                np.zeros(self.copy_width))

    # objective ---------------------------------------------------------
    def align(self, entity):
        """(fact index, copy position) or (None, vocabulary index) per token."""
        targets = []
        for token in entity.description_tokens:
            for i, fact in enumerate(entity.facts):
                if token in fact.factual_words:
                    targets.append((i, fact.factual_words.index(token)))
                    break
            else:
                targets.append((None, self.index.get(token, 0)))
        targets.append((None, self.index[EOS]))
        return targets

    def loss(self, entity):
        """Teacher-forced negative log-likelihood of the entity's description."""
        slots, counts = self.encode(entity)
        mean_slot = len(counts)
        live = np.ones(mean_slot + 1, dtype=bool)
        if self.copy_only:
            live[mean_slot] = False
        distinct = self.distinct_slots(slots)
        h, w, v = self._initial_state()
        total = 0.0
        for fact_index, target in self.align(entity):
            slot = mean_slot if fact_index is None else fact_index
            scored = fact_index is not None or not self.copy_only
            if scored:
                alpha = self.attention(distinct, live, h)
                total -= math.log(alpha[slot])
            f = slots[slot]
            h = self.gru(f, w, v, h)
            if fact_index is not None:
                total -= math.log(self.copy_dist(f, h, counts[slot])[target])
                w, v = np.zeros(self.embed_dim), np.zeros(self.copy_width)
                v[target] = 1.0
            else:
                if scored:
                    total -= math.log(self.vocab_dist(alpha @ slots, h)[target])
                w, v = self.p["word_emb"][target], np.zeros(self.copy_width)
        return total

    # inference ---------------------------------------------------------
    def greedy(self, entity, max_len=None):
        """Greedy description and whether decoding stopped at ``<EOS>``.

        Each step attends and takes the argmax slot; a real fact with no
        factual words is masked out for the rest of the decode and the
        step attends again.  ``<UNK>`` emissions are dropped from the
        returned tokens.
        """
        max_len = self.max_decode_len if max_len is None else max_len
        slots, counts = self.encode(entity)
        mean_slot = len(counts)
        live = np.ones(mean_slot + 1, dtype=bool)
        if self.copy_only:
            live[mean_slot] = False
        distinct = self.distinct_slots(slots)
        h, w, v = self._initial_state()
        tokens = []
        for _ in range(max_len):
            while live.any():
                alpha = self.attention(distinct, live, h)
                slot = int(np.argmax(alpha))
                if slot != mean_slot and counts[slot] == 0:
                    live[slot] = False
                    continue
                break
            else:
                break
            f = slots[slot]
            h = self.gru(f, w, v, h)
            if slot == mean_slot:
                word = int(np.argmax(self.vocab_dist(alpha @ slots, h)))
                if word >= len(self.words):
                    raise VocabularyOverrun(
                        f"entity {entity.id}: vocabulary row {word} is beyond the "
                        f"{len(self.words)}-word vocabulary")
                if self.words[word] == EOS:
                    return [t for t in tokens if t != UNK], True
                tokens.append(self.words[word])
                w, v = self.p["word_emb"][word], np.zeros(self.copy_width)
            else:
                pos = int(np.argmax(self.copy_dist(f, h, counts[slot])))
                tokens.append(entity.facts[slot].factual_words[pos])
                w, v = np.zeros(self.embed_dim), np.zeros(self.copy_width)
                v[pos] = 1.0
        return [t for t in tokens if t != UNK], False


def corpus_bleu4(pairs):
    """Corpus BLEU-4 (x100) over (candidate, reference) token lists.

    Clipped n-gram precisions for n = 1..4, their geometric mean, the
    brevity penalty exp(1 - r/c) when c <= r, and 1 / (2 * candidate
    n-grams) in place of a precision with no match (README, Metrics).
    """
    cand_len = sum(len(c) for c, _ in pairs)
    ref_len = sum(len(r) for _, r in pairs)
    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, 5):
        matched = total = 0
        for cand, ref in pairs:
            cand_grams = Counter(tuple(cand[i:i + n]) for i in range(len(cand) - n + 1))
            ref_grams = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
            matched += sum(min(c, ref_grams[g]) for g, c in cand_grams.items())
            total += max(len(cand) - n + 1, 0)
        log_sum += math.log(matched / total if matched else 1.0 / (2 * max(total, 1)))
    brevity = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * brevity * math.exp(log_sum / 4)
