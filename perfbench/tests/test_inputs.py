"""The generate workload's entities are unseen, distinct and fixed by the seed."""

import json

import numpy as np

import run


def _keys(records):
    return [run._record_key(r) for r in records]


def test_unseen_records_skip_the_bundled_splits_and_repeat_per_seed():
    first = run.unseen_records(np.random.default_rng(7), 50)
    again = run.unseen_records(np.random.default_rng(7), 50)
    other = run.unseen_records(np.random.default_rng(8), 50)
    assert first == again
    assert _keys(first) != _keys(other)
    assert len(set(_keys(first))) == 50
    seen = set()
    for split in ("train", "dev"):
        with open(run.SAMPLE1K / f"{split}.jsonl", encoding="utf-8") as handle:
            seen.update(run._record_key(json.loads(line)) for line in handle)
    assert not seen & set(_keys(first))
