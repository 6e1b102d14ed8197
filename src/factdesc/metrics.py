"""Corpus evaluation metrics for generated descriptions.

All metrics see pre-tokenized sequences and a single reference per
candidate.  Scores follow the usual readability scaling: BLEU, ROUGE-L
and METEOR are multiplied by 100, CIDEr by 10.

METEOR here matches tokens exactly (no stems or synonyms, which would
need external lexical resources); reports label the column
"METEOR-exact" to keep that visible.
"""

from __future__ import annotations

import json
import logging
import math
from collections import Counter
from dataclasses import dataclass

from .errors import DataError

log = logging.getLogger(__name__)

MAX_NGRAM = 4
ROUGE_BETA = 1.2


@dataclass
class EvalPair:
    candidate: list[str]
    reference: list[str]

    def __post_init__(self):
        if not self.reference:
            raise DataError("evaluation pair with an empty reference")


@dataclass
class MetricReport:
    bleu1: float
    bleu2: float
    bleu3: float
    bleu4: float
    rouge_l: float
    meteor_exact: float
    cider: float
    corpus_size: int

    def to_dict(self):
        return {
            "BLEU-1": self.bleu1, "BLEU-2": self.bleu2,
            "BLEU-3": self.bleu3, "BLEU-4": self.bleu4,
            "ROUGE-L": self.rouge_l, "METEOR-exact": self.meteor_exact,
            "CIDEr": self.cider, "corpus_size": self.corpus_size,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self):
        rows = [(k, f"{v:.1f}" if isinstance(v, float) else str(v))
                for k, v in self.to_dict().items()]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def _ngrams(tokens, n):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def bleu(pairs, n=4):
    """Corpus BLEU-n (x100): clipped precisions, geometric mean, brevity penalty.

    An order whose matched count is zero falls back to the smoothed
    precision 1 / (2 * total candidate n-grams at that order), which
    single-reference short descriptions need constantly.
    """
    if n not in (1, 2, 3, 4):
        raise DataError(f"bleu order must be 1..4, got {n}")
    if not pairs:
        raise DataError("bleu needs at least one evaluation pair")
    cand_len = sum(len(p.candidate) for p in pairs)
    ref_len = sum(len(p.reference) for p in pairs)
    if cand_len == 0:
        return 0.0
    log_precision = 0.0
    for k in range(1, n + 1):
        matched = 0
        total = 0
        for pair in pairs:
            cand_counts = Counter(_ngrams(pair.candidate, k))
            ref_counts = Counter(_ngrams(pair.reference, k))
            total += max(len(pair.candidate) - k + 1, 0)
            matched += sum(min(c, ref_counts[g]) for g, c in cand_counts.items())
        if matched == 0:
            precision = 1.0 / (2.0 * max(total, 1))
        else:
            precision = matched / total
        log_precision += math.log(precision)
    brevity = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * brevity * math.exp(log_precision / n)


def _lcs_length(a, b):
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(pairs):
    """Mean LCS F-measure (x100) with recall-favoring beta."""
    if not pairs:
        return 0.0
    beta_sq = ROUGE_BETA ** 2
    total = 0.0
    for pair in pairs:
        lcs = _lcs_length(pair.candidate, pair.reference)
        if lcs == 0:
            continue
        precision = lcs / len(pair.candidate)
        recall = lcs / len(pair.reference)
        total += (1 + beta_sq) * recall * precision / (recall + beta_sq * precision)
    return 100.0 * total / len(pairs)


def _meteor_alignment(candidate, reference):
    """Exact one-to-one alignment; returns (matches, chunks).

    Candidate tokens map left to right onto the earliest unused
    identical reference position; a chunk is a maximal run contiguous
    in both sequences.
    """
    used = [False] * len(reference)
    positions = []
    for token in candidate:
        for j, ref_tok in enumerate(reference):
            if not used[j] and ref_tok == token:
                used[j] = True
                positions.append(j)
                break
        else:
            positions.append(None)
    matches = sum(1 for p in positions if p is not None)
    chunks = 0
    prev = None
    for p in positions:
        if p is None:
            prev = None
            continue
        if prev is None or p != prev + 1:
            chunks += 1
        prev = p
    return matches, chunks


def meteor_exact(pairs):
    """Exact-match METEOR (x100), averaged over pairs.

    Per pair: F = 10PR / (R + 9P), penalty 0.5 * (chunks/matches)^3,
    score F * (1 - penalty).
    """
    if not pairs:
        return 0.0
    total = 0.0
    for pair in pairs:
        matches, chunks = _meteor_alignment(pair.candidate, pair.reference)
        if matches == 0:
            continue
        precision = matches / len(pair.candidate)
        recall = matches / len(pair.reference)
        f_mean = 10.0 * precision * recall / (recall + 9.0 * precision)
        penalty = 0.5 * (chunks / matches) ** 3
        total += f_mean * (1.0 - penalty)
    return 100.0 * total / len(pairs)


def cider(pairs):
    """TF-IDF n-gram cosine similarity averaged over orders 1..4 (x10).

    IDF is log(corpus size / df) over the reference corpus, with df
    clipped to one.  Single-pair corpora degenerate to zero because
    every IDF is log(1) = 0; a warning flags that case.
    """
    if not pairs:
        return 0.0
    if len(pairs) < 2:
        log.warning("cider over %d pair(s): IDF is degenerate, score will be 0",
                    len(pairs))
    size = len(pairs)
    doc_freq = [Counter() for _ in range(MAX_NGRAM)]
    for pair in pairs:
        for k in range(1, MAX_NGRAM + 1):
            doc_freq[k - 1].update(set(_ngrams(pair.reference, k)))
    total = 0.0
    for pair in pairs:
        sims = 0.0
        for k in range(1, MAX_NGRAM + 1):
            df = doc_freq[k - 1]
            cand_vec = {g: c * math.log(size / max(df[g], 1))
                        for g, c in Counter(_ngrams(pair.candidate, k)).items()}
            ref_vec = {g: c * math.log(size / max(df[g], 1))
                       for g, c in Counter(_ngrams(pair.reference, k)).items()}
            dot = sum(w * ref_vec.get(g, 0.0) for g, w in cand_vec.items())
            norm_c = math.sqrt(sum(w * w for w in cand_vec.values()))
            norm_r = math.sqrt(sum(w * w for w in ref_vec.values()))
            if norm_c > 0 and norm_r > 0:
                sims += dot / (norm_c * norm_r)
        total += sims / MAX_NGRAM
    return 10.0 * total / size


def evaluate_corpus(candidates, references):
    """Score candidate descriptions against references matched by id.

    Both arguments map entity id -> token list.  Id mismatches and
    references without tokens raise with the ids listed.
    """
    problems = [("ids without references", set(candidates) - set(references)),
                ("ids without candidates", set(references) - set(candidates)),
                ("references without tokens", {key for key, ref in references.items() if not ref})]
    parts = [f"{what}: {', '.join(sorted(ids))}" for what, ids in problems if ids]
    if parts:
        raise DataError("; ".join(parts))
    if not candidates:
        raise DataError("no evaluation pairs")
    pairs = [EvalPair(candidates[i], references[i]) for i in candidates]
    return MetricReport(
        bleu1=bleu(pairs, 1), bleu2=bleu(pairs, 2),
        bleu3=bleu(pairs, 3), bleu4=bleu(pairs, 4),
        rouge_l=rouge_l(pairs), meteor_exact=meteor_exact(pairs),
        cider=cider(pairs), corpus_size=len(pairs),
    )
