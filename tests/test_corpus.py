import json
import re
from pathlib import Path

import pytest

from factdesc import corpus
from factdesc.errors import ConfigError, ParseError


def test_tokenize_lowercases_and_splits():
    assert corpus.tokenize("Michiel de Ruyterstraat") == ["michiel", "de", "ruyterstraat"]


def test_tokenize_empty_string():
    assert corpus.tokenize("") == []


def test_tokenize_strips_edge_punctuation():
    assert corpus.tokenize("Ehime, Japan") == ["ehime", "japan"]


def test_tokenize_strips_non_ascii_edge_punctuation():
    # «, », ¿ and ? are Unicode punctuation (categories Pi, Pf, Po); ß and é are letters
    assert corpus.tokenize("«Straße» ¿qué? «été»!") == ["straße", "qué", "été"]


def test_tokenize_keeps_internal_hyphen_and_apostrophe():
    assert corpus.tokenize("Jean-Luc's (painting)") == ["jean-luc's", "painting"]


def test_tokenize_idempotent_on_rejoined_output():
    samples = [
        "The 'Night Watch', by Rembrandt!",
        "  commune -- in   Haute-Savoie, France.",
        '"1967 song" (single)...',
        "Ōshima island — Ehime, Japan",
    ]
    for text in samples:
        once = corpus.tokenize(text)
        assert corpus.tokenize(" ".join(once)) == once


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


FIG_RECORD = {
    "id": "Q19345316",
    "facts": [
        {"property": "instance of", "value": "street"},
        {"property": "location", "value": "Elsloo"},
    ],
    "description": "street in Elsloo",
}


def test_load_entities_parses_street_record(tmp_path):
    path = tmp_path / "train.jsonl"
    _write_jsonl(path, [FIG_RECORD])
    (entity,) = corpus.load_entities(path)
    assert entity.id == "Q19345316"
    assert len(entity.facts) == 2
    assert entity.facts[0].property_tokens == ["instance", "of"]
    assert entity.facts[0].value_tokens == ["street"]
    assert entity.description_tokens == ["street", "in", "elsloo"]


def test_load_entities_truncates_to_max_facts(tmp_path):
    record = {
        "id": "Q1",
        "facts": [{"property": "p", "value": f"v{i}"} for i in range(75)],
        "description": "x",
    }
    path = tmp_path / "train.jsonl"
    _write_jsonl(path, [record])
    (entity,) = corpus.load_entities(path)
    assert len(entity.facts) == 60
    assert entity.facts[0].value_tokens == ["v0"]
    assert entity.facts[-1].value_tokens == ["v59"]


def test_load_entities_reports_bad_line_number(tmp_path):
    path = tmp_path / "train.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(FIG_RECORD) + "\n")
        handle.write("not json\n")
    with pytest.raises(ParseError) as exc:
        corpus.load_entities(path)
    assert exc.value.line_no == 2


def test_load_entities_skips_zero_fact_entity(tmp_path):
    path = tmp_path / "train.jsonl"
    _write_jsonl(path, [{"id": "Q0", "facts": [], "description": "x"}, FIG_RECORD])
    entities = corpus.load_entities(path)
    assert [e.id for e in entities] == ["Q19345316"]


def test_load_entities_reads_numbers_as_text(tmp_path):
    path = tmp_path / "train.jsonl"
    _write_jsonl(path, [{"id": 7, "facts": [{"property": 1999, "value": 2.5}]}])
    (entity,) = corpus.load_entities(path)
    assert entity.id == "7"
    assert entity.facts[0].label() == "1999: 2.5"


@pytest.mark.parametrize("field", ["id", "property", "value"])
@pytest.mark.parametrize("value", [None, True, ["a", "b"], {"a": "b"}],
                         ids=["null", "boolean", "array", "object"])
def test_load_entities_rejects_non_scalar_text_fields(tmp_path, field, value):
    record = json.loads(json.dumps(FIG_RECORD))
    if field == "id":
        record["id"] = value
    else:
        record["facts"][1][field] = value
    path = tmp_path / "train.jsonl"
    _write_jsonl(path, [FIG_RECORD, record])
    with pytest.raises(ParseError, match=f"{field} must be a string or a number") as exc:
        corpus.load_entities(path)
    assert exc.value.line_no == 2 and str(exc.value).startswith(f"{path}:2: ")


def _entity_with_description(tokens):
    return corpus.Entity("Q", [corpus.Fact.build("p", "v")], tokens)


def test_build_vocabulary_counts_and_tie_break():
    entities = [_entity_with_description(["a", "b"]), _entity_with_description(["a", "c"])]
    vocab = corpus.build_vocabulary(entities, size=2)
    assert vocab.words == ["<UNK>", "<SOS>", "<EOS>", "a", "b"]


def test_build_vocabulary_saturates_below_k():
    entities = [_entity_with_description(["a", "b"])]
    vocab = corpus.build_vocabulary(entities, size=100)
    assert vocab.words == ["<UNK>", "<SOS>", "<EOS>", "a", "b"]


def test_build_vocabulary_rejects_bad_size():
    with pytest.raises(ConfigError):
        corpus.build_vocabulary([_entity_with_description(["a"])], size=0)


def test_build_vocabulary_requires_descriptions():
    entities = [corpus.Entity("Q", [corpus.Fact.build("p", "v")], None)]
    with pytest.raises(ConfigError):
        corpus.build_vocabulary(entities, size=5)


def test_build_vocabulary_can_include_property_words():
    entities = [_entity_with_description(["z"])]
    entities[0].facts = [corpus.Fact.build("instance of", "street")]
    vocab = corpus.build_vocabulary(entities, size=10, source="descriptions+properties")
    assert "instance" in vocab
    assert "street" not in vocab  # value words are not counted


def test_vocabulary_lookup_is_bijective():
    vocab = corpus.Vocabulary(["<UNK>", "<SOS>", "<EOS>", "street", "in"])
    for i, w in enumerate(vocab.words):
        assert vocab.word_index(w) == i
        assert vocab.word(i) == w
    assert vocab.word_index("never-seen") == 0


def test_stopword_list_contract():
    required = {"for", "of", "in", "the", "a", "an", "and", "by", "to", "on",
                "at", "with"}
    assert required <= corpus.STOPWORDS
    assert len(corpus.STOPWORDS) == 30


def test_factual_words_single_value():
    fact = corpus.Fact.build("location", "Elsloo")
    assert fact.factual_words == ["elsloo"]


def test_factual_words_removes_stopwords():
    fact = corpus.Fact.build("employer", "University of Oxford")
    assert fact.factual_words == ["university", "oxford"]


def test_factual_words_all_stopwords():
    fact = corpus.Fact.build("instance of", "of the")
    assert fact.factual_words == []


def test_factual_words_keeps_duplicates_and_order():
    fact = corpus.Fact.build("name", "brown of brown")
    assert fact.factual_words == ["brown", "brown"]


def test_factual_words_truncated():
    value = " ".join(f"w{i}" for i in range(70))
    fact = corpus.Fact.build("p", value, max_factual_words=60)
    assert len(fact.factual_words) == 60


def test_factual_words_subsequence_of_value_tokens(tmp_path):
    import numpy as np

    rng = np.random.default_rng(3)
    alphabet = ["of", "the", "oxford", "museum", "in", "van", "gogh", "blue"]
    for _ in range(50):
        value = " ".join(rng.choice(alphabet, size=rng.integers(1, 8)))
        fact = corpus.Fact.build("p", value)
        it = iter(fact.value_tokens)
        assert all(w in it for w in fact.factual_words)  # subsequence check


def test_the_bundled_data_is_what_the_readme_recipe_writes(tmp_path, monkeypatch):
    # README's regeneration recipe, run as written in an empty directory, writes every
    # bundled file byte for byte: the benchmark's unseen pool and its committed
    # checkpoint both assume the files are generate_corpus output
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    recipe = re.search(r"Regenerate or grow them with:\n\n```python\n(.*?)```", readme, re.S)
    assert recipe, "README has no regeneration recipe"
    (tmp_path / "data" / "sample1k").mkdir(parents=True)
    monkeypatch.chdir(tmp_path)
    exec(recipe.group(1), {})
    bundled = sorted(p.relative_to(root) for p in (root / "data").rglob("*.jsonl"))
    assert bundled == sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*.jsonl"))
    for name in bundled:
        assert (tmp_path / name).read_bytes() == (root / name).read_bytes(), name
