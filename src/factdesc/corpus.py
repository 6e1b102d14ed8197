"""Dataset ingestion: tokenization, entities, facts, and the vocabulary.

Datasets arrive as UTF-8 JSONL, one entity per line::

    {"id": "Q19345316",
     "facts": [{"property": "instance of", "value": "street"},
               {"property": "location", "value": "Elsloo"}],
     "description": "street in Elsloo"}

``id``, ``property`` and ``value`` are strings or numbers; ``description``
is an optional string, absent in inference-only inputs.  Facts beyond
``max_facts`` and factual words beyond ``max_factual_words`` are dropped
in file order, here only: the model reads every fact an entity holds.
"""

from __future__ import annotations

import json
import logging
import unicodedata
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError, DataError, ParseError

log = logging.getLogger(__name__)

DEFAULT_MAX_FACTS = 60
DEFAULT_MAX_FACTUAL_WORDS = 60
VOCAB_SOURCES = ("descriptions", "descriptions+properties")

UNK, SOS, EOS = "<UNK>", "<SOS>", "<EOS>"

# Fixed list of English function words; tokens on it never become
# factual (copyable) words.
STOPWORDS = frozenset({
    "for", "of", "in", "the", "a", "an", "and", "by", "to", "on", "at",
    "with", "from", "as", "is", "was", "are", "were", "or", "that",
    "this", "it", "its", "be", "has", "had", "have", "not", "but", "their",
})


def tokenize(text):
    """Lowercase and split on whitespace, trimming edge punctuation.

    Internal hyphens and apostrophes survive because only leading and
    trailing punctuation characters are stripped; tokens that end up
    empty are dropped.
    """
    tokens = []
    category = unicodedata.category  # two letters, "P?" for punctuation
    for raw in text.lower().split():
        start, end = 0, len(raw)
        while start < end and category(raw[start])[0] == "P":
            start += 1
        while end > start and category(raw[end - 1])[0] == "P":
            end -= 1
        if end > start:
            tokens.append(raw[start:end])
    return tokens


@dataclass
class Fact:
    """A property-value pair; the source of copyable factual words."""

    property_tokens: list[str]
    value_tokens: list[str]
    factual_words: list[str]

    @classmethod
    def build(cls, property_text, value_text, max_factual_words=DEFAULT_MAX_FACTUAL_WORDS):
        prop = tokenize(property_text)
        value = tokenize(value_text)
        return cls(prop, value, extract_factual_words(value, max_factual_words))

    def phrase(self):
        """Property name and value concatenated, the encoder's input."""
        return self.property_tokens + self.value_tokens

    def label(self):
        return f"{' '.join(self.property_tokens)}: {' '.join(self.value_tokens)}"


def extract_factual_words(value_tokens, max_factual_words=DEFAULT_MAX_FACTUAL_WORDS):
    """Order-preserving stopword filter over value tokens.

    Duplicates are kept so copy positions stay well defined.
    """
    kept = [w for w in value_tokens if w not in STOPWORDS]
    return kept[:max_factual_words]


@dataclass
class Entity:
    id: str
    facts: list[Fact]
    description_tokens: Optional[list[str]] = None


@dataclass
class Vocabulary:
    """Closed output dictionary: specials then the top-K corpus words."""

    words: list[str]
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {w: i for i, w in enumerate(self.words)}

    def __len__(self):
        return len(self.words)

    def __contains__(self, word):
        return word in self.index

    def word_index(self, word):
        """Index of ``word``, falling back to ``<UNK>``."""
        return self.index.get(word, 0)

    def indices(self, tokens):
        get = self.index.get
        return [get(t, 0) for t in tokens]

    def word(self, idx):
        return self.words[idx]


def build_vocabulary(train_entities, size, source="descriptions"):
    """Top-``size`` tokens of the training descriptions, plus specials.

    Ties break lexicographically.  ``source`` may be ``descriptions`` or
    ``descriptions+properties``; the latter also counts property-name
    tokens.
    """
    if size <= 0:
        raise ConfigError(f"vocabulary size must be positive, got {size}")
    if source not in VOCAB_SOURCES:
        raise ConfigError(f"unknown vocab_source {source!r}")
    counts: dict[str, int] = {}
    seen_description = False
    for entity in train_entities:
        if entity.description_tokens is not None:
            seen_description = True
            for tok in entity.description_tokens:
                counts[tok] = counts.get(tok, 0) + 1
        if source == "descriptions+properties":
            for fact in entity.facts:
                for tok in fact.property_tokens:
                    counts[tok] = counts.get(tok, 0) + 1
    if not seen_description:
        raise ConfigError("cannot build a vocabulary: no training descriptions")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary([UNK, SOS, EOS] + [w for w, _ in ranked[:size]])


def _text(value, field, entity_id=None):
    """A JSON string or number as text; ``null``, booleans, arrays and objects raise."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        where = "" if entity_id is None else f"entity {entity_id}: "
        raise DataError(f"{where}{field} must be a string or a number, got {json.dumps(value)}")
    return str(value)


def parse_record(record, max_facts=DEFAULT_MAX_FACTS,
                 max_factual_words=DEFAULT_MAX_FACTUAL_WORDS):
    """Turn one decoded JSONL record into an ``Entity`` (or None to skip)."""
    if not isinstance(record, dict) or "id" not in record or "facts" not in record:
        raise DataError("record must be an object with 'id' and 'facts'")
    entity_id = _text(record["id"], "id")
    if not isinstance(description := record.get("description"), (str, type(None))):
        raise DataError(f"entity {entity_id}: description must be a string")
    facts = []
    for raw in record["facts"]:
        prop = _text(raw["property"], "property", entity_id)
        fact = Fact.build(prop, _text(raw["value"], "value", entity_id), max_factual_words)
        if not fact.property_tokens:
            log.warning("entity %s: dropping fact with empty property %r", entity_id, prop)
            continue
        facts.append(fact)
    facts = facts[:max_facts]
    if not facts:
        log.warning("skipping entity %s: no usable facts", entity_id)
        return None
    tokens = tokenize(description) if description is not None else None
    return Entity(entity_id, facts, tokens)


def load_entities(path, max_facts=DEFAULT_MAX_FACTS,
                  max_factual_words=DEFAULT_MAX_FACTUAL_WORDS):
    """Parse one JSONL file; malformed lines raise with their line number."""
    entities = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(utf8_lines(handle, path), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(path, line_no, f"invalid JSON: {exc.msg}") from exc
            try:
                entity = parse_record(record, max_facts, max_factual_words)
            except (DataError, KeyError, TypeError) as exc:
                raise ParseError(path, line_no, str(exc)) from exc
            if entity is not None:
                entities.append(entity)
    return entities


def utf8_lines(handle, path):
    """The lines of a text file opened as UTF-8; other bytes raise ``DataError``."""
    try:
        yield from handle
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc
