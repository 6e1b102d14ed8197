import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factdesc import cli, corpus, toycorpus, training
from factdesc.errors import ConfigError, DataError
from factdesc.training import TrainConfig

from .test_training import SAMPLE1K_CHECKPOINT


def write_config(tmp_path, **kw):
    base = dict(epochs=2, batch_size=4, seed=11, max_facts=5, max_factual_words=6,
                vocab_size=40, embed_dim=6, hidden_dim=6, attn_dim=6, head_dim=6,
                max_decode_len=8)
    base.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base))
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    records = toycorpus.generate_corpus(14, seed=5)
    train_path = tmp_path / "train.jsonl"
    dev_path = tmp_path / "dev.jsonl"
    toycorpus.write_jsonl(records[:11], train_path)
    toycorpus.write_jsonl(records[11:], dev_path)
    config_path = write_config(tmp_path)
    ckpt = tmp_path / "model.fks"
    code = cli.run(["train", "--train", str(train_path), "--dev", str(dev_path),
                    "--config", str(config_path), "--out", str(ckpt)])
    assert code == 0
    return tmp_path, train_path, dev_path, ckpt


def test_unknown_flag_is_usage_error():
    assert cli.run(["train", "--nope"]) == 1


def test_unknown_command_is_usage_error():
    assert cli.run(["frobnicate"]) == 1


def test_params_prints_breakdown(capsys):
    assert cli.run(["params"]) == 0
    out = capsys.readouterr().out
    assert "376,364" in out
    assert "word_emb" in out and "gru_update_x" in out


def test_params_with_config(tmp_path, capsys):
    config_path = write_config(tmp_path)
    assert cli.run(["params", "--config", str(config_path)]) == 0
    total, _ = training.count_parameters(TrainConfig.from_file(config_path))
    assert f"{total:,}" in capsys.readouterr().out


def test_train_prints_seed_and_saves(trained, capsys):
    _, _, _, ckpt = trained
    assert ckpt.exists()
    checkpoint = training.load_checkpoint(ckpt)
    assert checkpoint.meta["seed"] == 11


def test_generate_handles_descriptionless_input(trained, tmp_path):
    base, _, _, ckpt = trained
    records = toycorpus.generate_corpus(4, seed=9)
    for record in records:
        del record["description"]
    inputs = tmp_path / "inputs.jsonl"
    toycorpus.write_jsonl(records, inputs)
    out = tmp_path / "generated.jsonl"
    assert cli.run(["generate", "--checkpoint", str(ckpt), "--input", str(inputs),
                    "--out", str(out), "--max-len", "6"]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 4
    for row in rows:
        assert set(row) == {"id", "text"}
        assert "<" not in row["text"]
        assert len(row["text"].split()) <= 6


def test_evaluate_round_trip(trained, tmp_path):
    rows = [{"id": "Q1", "text": "street in elsloo"},
            {"id": "Q2", "text": "painting by hendrick avercamp"}]
    cands = tmp_path / "cands.jsonl"
    refs = tmp_path / "refs.jsonl"
    for path in (cands, refs):
        with open(path, "w") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
    out = tmp_path / "report.json"
    assert cli.run(["evaluate", "--candidates", str(cands), "--references", str(refs),
                    "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["BLEU-1"] == pytest.approx(100.0)
    assert report["corpus_size"] == 2


def test_evaluate_mismatched_ids_exits_2(trained, tmp_path, capsys):
    cands = tmp_path / "c.jsonl"
    refs = tmp_path / "r.jsonl"
    cands.write_text(json.dumps({"id": "Q1", "text": "a b"}) + "\n")
    refs.write_text(json.dumps({"id": "Q2", "text": "a b"}) + "\n")
    out = tmp_path / "report.json"
    assert cli.run(["evaluate", "--candidates", str(cands), "--references", str(refs),
                    "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Q1" in err and "Q2" in err


def _evaluate_rows(tmp_path, candidates):
    cands, refs = tmp_path / "c.jsonl", tmp_path / "r.jsonl"
    cands.write_text("".join(json.dumps(row) + "\n" for row in candidates))
    refs.write_text(json.dumps({"id": "a", "text": "x y"}) + "\n"
                    + json.dumps({"id": "b", "text": "none"}) + "\n")
    code = cli.run(["evaluate", "--candidates", str(cands), "--references", str(refs),
                    "--out", str(tmp_path / "report.json")])
    return code, cands


def test_evaluate_repeated_id_exits_2_with_its_line(tmp_path, capsys):
    code, cands = _evaluate_rows(tmp_path, [{"id": "a", "text": "q"}, {"id": "b", "text": "none"},
                                            {"id": "a", "text": "x y"}])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{cands}:3: " in err and "repeated id a" in err


def test_evaluate_non_string_text_exits_2_with_its_line(tmp_path, capsys):
    # a null text would otherwise be scored as the word "none"
    code, cands = _evaluate_rows(tmp_path, [{"id": "a", "text": "x y"}, {"id": "b", "text": None}])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{cands}:2: " in err and "must be a string" in err


@pytest.mark.parametrize("bad_id", [None, True, [1], {"q": 1}],
                         ids=["null", "boolean", "array", "object"])
def test_evaluate_non_scalar_id_exits_2_with_its_line(tmp_path, capsys, bad_id):
    # read with str(), a null id became "None" and matched a reference of that name
    cands, refs = tmp_path / "c.jsonl", tmp_path / "r.jsonl"
    for path, odd in ((cands, bad_id), (refs, str(bad_id))):
        path.write_text(json.dumps({"id": "a", "text": "x y"}) + "\n"
                        + json.dumps({"id": odd, "text": "x"}) + "\n")
    assert cli.run(["evaluate", "--candidates", str(cands), "--references", str(refs),
                    "--out", str(tmp_path / "report.json")]) == 2
    err = capsys.readouterr().err
    assert f"{cands}:2: " in err and "id must be a string or a number" in err


def test_evaluate_reference_without_tokens_exits_2_naming_it(tmp_path, capsys):
    cands, refs = tmp_path / "c.jsonl", tmp_path / "r.jsonl"
    cands.write_text(json.dumps({"id": "a", "text": "x"}) + "\n"
                     + json.dumps({"id": "b", "text": "y"}) + "\n")
    refs.write_text(json.dumps({"id": "a", "text": "x"}) + "\n"
                    + json.dumps({"id": "b", "text": "..."}) + "\n")
    assert cli.run(["evaluate", "--candidates", str(cands), "--references", str(refs),
                    "--out", str(tmp_path / "report.json")]) == 2
    assert "references without tokens: b" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_evaluate_numeric_ids_match_their_text(tmp_path):
    cands, refs = tmp_path / "c.jsonl", tmp_path / "r.jsonl"
    cands.write_text(json.dumps({"id": 7, "text": "x y"}) + "\n"
                     + json.dumps({"id": 2.5, "text": "z"}) + "\n")
    refs.write_text(json.dumps({"id": "2.5", "text": "z"}) + "\n"
                    + json.dumps({"id": "7", "text": "x y"}) + "\n")
    out = tmp_path / "report.json"
    assert cli.run(["evaluate", "--candidates", str(cands), "--references", str(refs),
                    "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["corpus_size"] == 2 and report["BLEU-1"] == pytest.approx(100.0)


def test_align_writes_records_and_stats(trained, tmp_path, capsys):
    base, train_path, _, _ = trained
    out = tmp_path / "aligned.jsonl"
    config_path = write_config(tmp_path)
    assert cli.run(["align", "--data", str(train_path), "--config", str(config_path),
                    "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert rows
    for row in rows:
        assert row["tokens"][-1]["w"] == "<EOS>"
        for tok in row["tokens"]:
            assert tok["src"] in ("fact", "vocab", "unk")
            if tok["src"] == "fact":
                assert tok["fact"] >= 0 and tok["pos"] >= 0
    assert "aligned" in capsys.readouterr().out


def test_missing_file_exits_2(tmp_path):
    assert cli.run(["align", "--data", str(tmp_path / "missing.jsonl"),
                    "--out", str(tmp_path / "out.jsonl")]) == 2


@pytest.mark.parametrize("flag", ["--input", "--out"])
def test_generate_directory_path_exits_2(trained, tmp_path, capsys, flag):
    # a directory cannot be opened as a file: IsADirectoryError, an OSError
    paths = {"--input": tmp_path / "in.jsonl", "--out": tmp_path / "out.jsonl"}
    toycorpus.write_jsonl(toycorpus.generate_corpus(2, seed=9), paths["--input"])
    paths[flag] = tmp_path
    assert cli.run(["generate", "--checkpoint", str(trained[3]), "--input", str(paths["--input"]),
                    "--out", str(paths["--out"])]) == 2
    assert str(tmp_path) in capsys.readouterr().err


def test_train_negative_seed_exits_2(trained, tmp_path, capsys):
    _, train_path, dev_path, _ = trained
    out = tmp_path / "model.fks"
    assert cli.run(["train", "--train", str(train_path), "--dev", str(dev_path),
                    "--config", str(write_config(tmp_path, seed=-1)), "--out", str(out)]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["missing-directory", "directory"])
def test_train_unopenable_out_exits_2_before_training(trained, tmp_path, capsys, monkeypatch,
                                                       case):
    _, train_path, dev_path, ckpt = trained
    calls = []

    def recording_train(*args):
        calls.append(args)
        return training.load_checkpoint(ckpt)

    monkeypatch.setattr(training, "train", recording_train)
    config = write_config(tmp_path)
    out = tmp_path / "missing" / "m.fks" if case == "missing-directory" else tmp_path
    before = sorted(tmp_path.rglob("*"))
    assert cli.run(["train", "--train", str(train_path), "--dev", str(dev_path),
                    "--config", str(config), "--out", str(out)]) == 2
    assert calls == [] and str(out) in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_train_that_fails_leaves_no_out_file(trained, tmp_path, monkeypatch):
    _, train_path, dev_path, _ = trained

    def failing_train(*args):
        raise DataError("no usable entities")

    monkeypatch.setattr(training, "train", failing_train)
    out = tmp_path / "m.fks"
    assert cli.run(["train", "--train", str(train_path), "--dev", str(dev_path),
                    "--config", str(write_config(tmp_path)), "--out", str(out)]) == 2
    assert not out.exists()


def test_attention_tsv_rows_are_distributions(trained, tmp_path):
    base, train_path, _, ckpt = trained
    first_id = json.loads(train_path.read_text().splitlines()[0])["id"]
    out = tmp_path / "attn.tsv"
    assert cli.run(["attention", "--checkpoint", str(ckpt), "--id", first_id,
                    "--data", str(train_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = lines[0].split("\t")
    assert header[0] == "token"
    assert header[-1] == "MEAN"
    assert ":" in header[1]  # fact labels are "property: value"
    for line in lines[1:]:
        cells = line.split("\t")
        assert len(cells) == len(header)
        row_sum = sum(float(c) for c in cells[1:])
        assert abs(row_sum - 1.0) < 1e-6


def test_attention_unknown_id_exits_2(trained, tmp_path):
    base, train_path, _, ckpt = trained
    assert cli.run(["attention", "--checkpoint", str(ckpt), "--id", "Q-nope",
                    "--data", str(train_path), "--out", str(tmp_path / "x.tsv")]) == 2


def test_attention_rows_argmax_on_source_fact():
    # the hand-routed model copies "street" from fact 0, then stops via MEAN
    from factdesc.training import Checkpoint

    from .test_decoder import routing_fixture

    entity, params, vocab = routing_fixture()
    config = TrainConfig(max_facts=1, max_factual_words=4, vocab_size=2,
                         embed_dim=1, hidden_dim=1, attn_dim=2, head_dim=1,
                         mean_fact="fixed_random", max_decode_len=8)
    labels, rows = cli.emit_attention(Checkpoint(params, config, vocab), entity)
    assert labels == ["kind: street", "MEAN"]
    assert rows[0][0] == "street" and int(np.argmax(rows[0][1])) == 0
    assert rows[1][0] == "<EOS>" and int(np.argmax(rows[1][1])) == 1


def test_attention_single_fact_entity_has_two_columns(trained, tmp_path):
    base, _, _, ckpt = trained
    single = tmp_path / "single.jsonl"
    single.write_text(json.dumps({
        "id": "Q77", "facts": [{"property": "instance of", "value": "road"}],
    }) + "\n")
    out = tmp_path / "single.tsv"
    assert cli.run(["attention", "--checkpoint", str(ckpt), "--id", "Q77",
                    "--data", str(single), "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0].split("\t")
    assert header == ["token", "instance of: road", "MEAN"]


def _rewrite_manifest(src, dst, edit, extra=b""):
    """Copy an FKS1 file with ``edit(manifest)``'s result as its manifest
    and ``extra`` appended to its payload."""
    raw = src.read_bytes()
    (length,) = struct.unpack("<I", raw[4:8])
    manifest = edit(json.loads(raw[8:8 + length]))
    blob = json.dumps(manifest).encode("utf-8")
    dst.write_bytes(raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + length:] + extra)


def _generate_exit(ckpt, tmp_path, capsys):
    base = tmp_path / "in.jsonl"
    toycorpus.write_jsonl(toycorpus.generate_corpus(2, seed=9), base)
    code = cli.run(["generate", "--checkpoint", str(ckpt), "--input", str(base),
                    "--out", str(tmp_path / "out.jsonl")])
    return code, capsys.readouterr().err


def test_generate_manifest_not_an_object_exits_2(trained, tmp_path, capsys):
    bad = tmp_path / "bad.fks"
    _rewrite_manifest(trained[3], bad, lambda m: [m])
    code, err = _generate_exit(bad, tmp_path, capsys)
    assert code == 2 and "not a JSON object" in err


def test_generate_manifest_meta_not_an_object_exits_2(trained, tmp_path, capsys):
    bad = tmp_path / "bad.fks"
    _rewrite_manifest(trained[3], bad, lambda m: {**m, "meta": [1, 2]})
    code, err = _generate_exit(bad, tmp_path, capsys)
    assert code == 2 and "meta is not a JSON object" in err


@pytest.mark.parametrize("field", ["encoding", "mean_fact", "vocab_source"])
def test_generate_manifest_unknown_mode_exits_2(trained, tmp_path, capsys, field):
    bad = tmp_path / "bad.fks"
    _rewrite_manifest(trained[3], bad, lambda m: {**m, "config": {**m["config"], field: "bogus"}})
    code, err = _generate_exit(bad, tmp_path, capsys)
    assert code == 2 and f"unknown {field} mode 'bogus'" in err


@pytest.mark.parametrize("key", ["config", "vocab", "meta", "tensors"])
def test_generate_manifest_missing_key_exits_2(trained, tmp_path, capsys, key):
    bad = tmp_path / "bad.fks"
    _rewrite_manifest(trained[3], bad, lambda m: {k: v for k, v in m.items() if k != key})
    code, err = _generate_exit(bad, tmp_path, capsys)
    assert code == 2 and key in err


def test_generate_tensor_past_payload_exits_2(trained, tmp_path, capsys):
    shifted = {}

    def shift_last(manifest):
        manifest["tensors"][-1]["offset"] += 4
        shifted.update(manifest["tensors"][-1])
        return manifest

    bad = tmp_path / "bad.fks"
    _rewrite_manifest(trained[3], bad, shift_last)
    code, err = _generate_exit(bad, tmp_path, capsys)
    # the stored entry, wrong offset and all, is named beside the one the config lays out
    assert code == 2 and shifted["name"] == "copy_out_b" and repr(shifted) in err


@pytest.mark.parametrize("case", ["unknown", "repeated", "dtype"])
def test_generate_malformed_tensor_entry_exits_2(trained, tmp_path, capsys, case):
    # an added entry gets payload bytes of its own, so only the entry itself is wrong
    raw = trained[3].read_bytes()
    payload = len(raw) - 8 - struct.unpack("<I", raw[4:8])[0]

    wrong = {}

    def edit(manifest):
        entries = manifest["tensors"]
        if case == "dtype":
            entries[0]["dtype"] = "f64"
        else:
            name = "extra_w" if case == "unknown" else "attn_energy_b"
            entries.append({"name": name, "shape": [1], "dtype": "f32", "offset": payload})
        wrong.update(entries[0] if case == "dtype" else entries[-1])
        return manifest

    bad = tmp_path / "bad.fks"
    _rewrite_manifest(trained[3], bad, edit,
                      b"" if case == "dtype" else np.ones(1, dtype="<f4").tobytes())
    code, err = _generate_exit(bad, tmp_path, capsys)
    assert code == 2 and repr(wrong) in err
    assert {"unknown": "'extra_w'", "repeated": "'attn_energy_b'", "dtype": "'f64'"}[case] in err


@pytest.mark.parametrize("case", ["float-offset", "float-shape", "false-offset", "extra-key"])
def test_generate_entry_equal_only_in_python_exits_2(trained, tmp_path, capsys, case):
    # 4.0 == 4 and False == 0 in Python, so the layout is compared as JSON text; a float
    # never sliced the payload, but a false first offset and an extra key used to load
    wrong = {}

    def edit(manifest):
        entry = manifest["tensors"][0 if case == "false-offset" else 1]
        if case == "float-offset":
            entry["offset"] = float(entry["offset"])
        elif case == "float-shape":
            entry["shape"] = [float(n) for n in entry["shape"]]
        elif case == "false-offset":
            entry["offset"] = False
        else:
            entry["note"] = "x"
        wrong.update(entry)
        return manifest

    bad = tmp_path / "bad.fks"
    _rewrite_manifest(trained[3], bad, edit)
    code, err = _generate_exit(bad, tmp_path, capsys)
    assert code == 2 and repr(wrong) in err


def test_generate_overlapping_tensor_payloads_exit_2(trained, tmp_path, capsys):
    # both tensors are (H,) biases, so the payload length still adds up
    def overlap(manifest):
        entries = {e["name"]: e for e in manifest["tensors"]}
        entries["gru_update_b"]["offset"] = entries["attn_hidden_b"]["offset"]
        return manifest

    bad = tmp_path / "bad.fks"
    _rewrite_manifest(trained[3], bad, overlap)
    code, err = _generate_exit(bad, tmp_path, capsys)
    assert code == 2 and "'gru_update_b'" in err


def test_generate_reordered_tensor_entries_exit_2(tmp_path, capsys):
    # word_emb moved last, its payload with it: every tensor is still where its entry says,
    # but the list is not the layout the config gives, which is the only one saving writes
    raw = SAMPLE1K_CHECKPOINT.read_bytes()
    (length,) = struct.unpack("<I", raw[4:8])
    manifest, payload = json.loads(raw[8:8 + length]), raw[8 + length:]
    first, *rest = manifest["tensors"]
    assert first["name"] == "word_emb" and first["offset"] == 0
    size = 4 * first["shape"][0] * first["shape"][1]
    for entry in rest:
        entry["offset"] -= size
    first["offset"] = len(payload) - size
    manifest["tensors"] = rest + [first]
    bad = tmp_path / "bad.fks"
    _rewrite_manifest(SAMPLE1K_CHECKPOINT, bad, lambda m: manifest)
    bad.write_bytes(bad.read_bytes()[:-len(payload)] + payload[size:] + payload[:size])
    code, err = _generate_exit(bad, tmp_path, capsys)
    assert code == 2 and "tensor entry 0" in err and repr(rest[0]) in err


@pytest.mark.parametrize("case", ["specials", "repeated"])
def test_generate_malformed_vocabulary_exits_2(trained, tmp_path, capsys, case):
    def edit(manifest):
        words = manifest["vocab"]
        if case == "specials":
            words[0], words[2] = words[2], words[0]  # <EOS> where <UNK> belongs
        else:
            words[3] = words[4]
        return manifest

    bad = tmp_path / "bad.fks"
    _rewrite_manifest(trained[3], bad, edit)
    code, err = _generate_exit(bad, tmp_path, capsys)
    assert code == 2 and "vocabulary" in err


def test_generate_vocabulary_longer_than_output_rows_exits_2(trained, tmp_path, capsys):
    def grow_vocab(manifest):
        rows = manifest["config"]["vocab_size"] + 3
        manifest["vocab"] += [f"extra{i}" for i in range(rows + 1 - len(manifest["vocab"]))]
        return manifest

    bad = tmp_path / "bad.fks"
    _rewrite_manifest(trained[3], bad, grow_vocab)
    code, err = _generate_exit(bad, tmp_path, capsys)
    assert code == 2 and "vocabulary" in err


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_generate_nonfinite_tensor_exits_2(trained, tmp_path, capsys, value):
    raw = bytearray(trained[3].read_bytes())
    (length,) = struct.unpack("<I", raw[4:8])
    entry = next(e for e in json.loads(raw[8:8 + length])["tensors"]
                 if e["name"] == "attn_energy_w")
    start = 8 + length + entry["offset"]
    raw[start:start + 4] = np.array([value], dtype="<f4").tobytes()
    bad = tmp_path / "bad.fks"
    bad.write_bytes(bytes(raw))
    code, err = _generate_exit(bad, tmp_path, capsys)
    assert code == 2 and "attn_energy_w" in err and "non-finite" in err
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("command", ["params", "train"])
@pytest.mark.parametrize("config", [[1, 2], {"epochs": "3"}, {"copy_only": 1},
                                    {"batch_size": True}])
def test_malformed_config_exits_2(trained, tmp_path, capsys, command, config):
    _, train_path, dev_path, _ = trained
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = [command, "--config", str(path)]
    if command == "train":
        argv += ["--train", str(train_path), "--dev", str(dev_path),
                 "--out", str(tmp_path / "model.fks")]
    assert cli.run(argv) == 2
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("text", ['{"learning_rate": NaN}', '{"learning_rate": Infinity}',
                                  '{"grad_clip": 0}', '{"grad_clip": -1.0}',
                                  '{"grad_clip": -Infinity}'])
def test_nonpositive_or_nonfinite_config_floats_exit_2(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert cli.run(["params", "--config", str(path)]) == 2
    assert "finite" in capsys.readouterr().err


NOT_UTF8 = b"\xff\xfe{\x00}\x00\n\x00"  # UTF-16 with its byte-order mark


def test_generate_non_utf8_input_exits_2(trained, tmp_path, capsys):
    bad = tmp_path / "in.jsonl"
    bad.write_bytes(NOT_UTF8)
    assert cli.run(["generate", "--checkpoint", str(trained[3]), "--input", str(bad),
                    "--out", str(tmp_path / "out.jsonl")]) == 2
    assert str(bad) in capsys.readouterr().err


def test_non_utf8_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "config.json"
    bad.write_bytes(NOT_UTF8)
    assert cli.run(["params", "--config", str(bad)]) == 2
    assert str(bad) in capsys.readouterr().err


def test_evaluate_non_utf8_rows_exit_2(tmp_path, capsys):
    good = tmp_path / "refs.jsonl"
    good.write_text(json.dumps({"id": "Q1", "text": "a b"}) + "\n")
    bad = tmp_path / "cands.jsonl"
    bad.write_bytes(NOT_UTF8)
    assert cli.run(["evaluate", "--candidates", str(bad), "--references", str(good),
                    "--out", str(tmp_path / "report.json")]) == 2
    assert str(bad) in capsys.readouterr().err


# JSON that json cannot decode although it is well formed: nesting past the
# recursion limit, and an integer past the 4,300-digit conversion limit
UNDECODABLE = {"deep": "[" * 100_000, "digits": "1" * 5_000}


@pytest.mark.parametrize("what", UNDECODABLE)
@pytest.mark.parametrize("where", ["generate-input", "align-data", "evaluate-rows", "config",
                                   "manifest"])
def test_input_json_cannot_decode_exits_2_naming_it(trained, tmp_path, capsys, where, what):
    ckpt, out = trained[3], str(tmp_path / "out")
    good = tmp_path / "good.jsonl"
    toycorpus.write_jsonl(toycorpus.generate_corpus(2, seed=9), good)
    if where == "config":
        bad = tmp_path / "bad.json"
        bad.write_text(UNDECODABLE[what])
        argv = ["params", "--config", str(bad)]
    elif where == "manifest":
        bad, raw, blob = tmp_path / "bad.fks", ckpt.read_bytes(), UNDECODABLE[what].encode()
        (length,) = struct.unpack("<I", raw[4:8])
        bad.write_bytes(raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + length:])
        argv = ["generate", "--checkpoint", str(bad), "--input", str(good), "--out", out]
    else:
        bad = tmp_path / "bad.jsonl"
        first = (json.dumps({"id": "Q1", "text": "a b"}) if where == "evaluate-rows"
                 else good.read_text().splitlines()[0])
        bad.write_text(first + "\n\n" + UNDECODABLE[what] + "\n")  # the bad line is line 3
        argv = {"generate-input": ["generate", "--checkpoint", str(ckpt), "--input", str(bad)],
                "align-data": ["align", "--data", str(bad)],
                "evaluate-rows": ["evaluate", "--candidates", str(bad),
                                  "--references", str(bad)]}[where] + ["--out", out]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(bad) in err
    if bad.suffix == ".jsonl":
        assert f"{bad}:3: " in err


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


# JSON values whose objects often carry the keys the readers look up
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["id", "facts", "property", "value", "description", "text"]) | st.text(),
        inner, max_size=4),
    max_leaves=10)


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(st.one_of(st.text(), _JSON.map(json.dumps), st.binary()), max_size=3))
@example(lines=[UNDECODABLE["deep"]])
@example(lines=[UNDECODABLE["digits"]])
def test_readers_raise_only_data_errors(fuzz_file, lines):
    # whatever the file holds, the JSON readers raise DataError or read it; a config
    # that decodes but is not a valid config raises ConfigError, which exits 2 as well
    fuzz_file.write_bytes(b"\n".join(
        line if isinstance(line, bytes) else line.encode("utf-8") for line in lines))
    for read, allowed in ((corpus.load_entities, DataError), (cli._read_text_rows, DataError),
                          (TrainConfig.from_file, (DataError, ConfigError))):
        try:
            read(fuzz_file)
        except allowed:
            pass


@pytest.mark.parametrize("max_len", ["0", "-4", "two"])
def test_generate_nonpositive_max_len_is_usage_error(trained, tmp_path, capsys, max_len):
    inputs = tmp_path / "in.jsonl"
    toycorpus.write_jsonl(toycorpus.generate_corpus(2, seed=9), inputs)
    out = tmp_path / "out.jsonl"
    assert cli.run(["generate", "--checkpoint", str(trained[3]), "--input", str(inputs),
                    "--out", str(out), "--max-len", max_len]) == 1
    assert "--max-len" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("description", [5, ["a"], {"text": "a"}],
                         ids=["number", "list", "object"])
def test_non_string_description_exits_2_with_its_line(trained, tmp_path, capsys, description):
    records = toycorpus.generate_corpus(3, seed=9)
    records[1]["description"] = description
    data = tmp_path / "data.jsonl"
    toycorpus.write_jsonl(records, data)
    out = tmp_path / "out.jsonl"
    assert cli.run(["align", "--data", str(data), "--out", str(out)]) == 2
    assert f"{data}:2: " in capsys.readouterr().err
    assert cli.run(["generate", "--checkpoint", str(trained[3]), "--input", str(data),
                    "--out", str(out)]) == 2
    assert "description must be a string" in capsys.readouterr().err
