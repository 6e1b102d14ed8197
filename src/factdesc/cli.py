"""Command-line entry point wiring corpus -> training -> inference -> scores.

Exit codes: 0 success, 1 usage error, 2 data error or unopenable path, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import corpus, metrics, training
from .alignment import align_corpus, alignment_to_record
from .errors import ConfigError, DataError, NumericError, ShapeError
from .training import TrainConfig

log = logging.getLogger("factdesc")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text):
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _build_parser():
    parser = _Parser(prog="factdesc",
                     description="Synthesize entity descriptions from facts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and save a checkpoint")
    p_train.add_argument("--train", required=True, help="training JSONL")
    p_train.add_argument("--dev", required=True, help="dev JSONL for model selection")
    p_train.add_argument("--config", help="JSON config (defaults when omitted)")
    p_train.add_argument("--out", required=True, help="checkpoint path")

    p_gen = sub.add_parser("generate", help="greedy-decode descriptions")
    p_gen.add_argument("--checkpoint", required=True)
    p_gen.add_argument("--input", required=True, help="entity JSONL (descriptions optional)")
    p_gen.add_argument("--out", required=True, help="output JSONL of id/text rows")
    p_gen.add_argument("--max-len", type=_positive_int, default=None)

    p_eval = sub.add_parser("evaluate", help="score candidates against references")
    p_eval.add_argument("--candidates", required=True, help="JSONL of id/text rows")
    p_eval.add_argument("--references", required=True, help="JSONL of id/text rows")
    p_eval.add_argument("--out", required=True, help="JSON report path")

    p_align = sub.add_parser("align", help="emit fact alignments for a corpus")
    p_align.add_argument("--data", required=True, help="described entity JSONL")
    p_align.add_argument("--config", help="JSON config (vocabulary settings)")
    p_align.add_argument("--out", required=True, help="alignment JSONL")

    p_attn = sub.add_parser("attention", help="dump one entity's attention matrix")
    p_attn.add_argument("--checkpoint", required=True)
    p_attn.add_argument("--id", required=True, help="entity id to decode")
    p_attn.add_argument("--data", required=True, help="entity JSONL containing the id")
    p_attn.add_argument("--out", required=True, help="TSV path")

    p_params = sub.add_parser("params", help="print the parameter-count table")
    p_params.add_argument("--config", help="JSON config (defaults when omitted)")
    return parser


def _load_config(path):
    return TrainConfig.from_file(path) if path else TrainConfig()


def _load_entities(path, config):
    return corpus.load_entities(path, config.max_facts, config.max_factual_words)


def _read_text_rows(path):
    rows = {}
    for line_no, record in corpus.read_jsonl(path):
        try:
            key, text = corpus.as_text(record["id"], "id"), record["text"]
        except (KeyError, TypeError, DataError) as exc:
            raise DataError(f"{path}:{line_no}: expected {{'id', 'text'}} rows ({exc})")
        if not isinstance(text, str):
            raise DataError(f"{path}:{line_no}: text of {key} must be a string")
        if key in rows:
            raise DataError(f"{path}:{line_no}: repeated id {key}")
        rows[key] = corpus.tokenize(text)
    return rows


def _cmd_train(args):
    config = _load_config(args.config)
    existed = os.path.exists(args.out)
    open(args.out, "ab").close()  # an --out that saving cannot open fails here, before training
    if not existed:
        os.remove(args.out)
    print(f"seed: {config.seed}")
    checkpoint = training.train(_load_entities(args.train, config),
                                _load_entities(args.dev, config), config)
    training.save_checkpoint(checkpoint, args.out)
    score = checkpoint.meta.get("dev_bleu4")
    print(f"saved {args.out} (best epoch {checkpoint.meta['epoch']}"
          + (f", dev BLEU-4 {score:.2f})" if score is not None else ")"))
    return 0


def _cmd_generate(args):
    checkpoint = training.load_checkpoint(args.checkpoint)
    entities = _load_entities(args.input, checkpoint.config)
    with open(args.out, "w", encoding="utf-8") as handle:
        for entity in entities:
            tokens = training.generate_description(checkpoint, entity,
                                                   max_len=args.max_len)
            handle.write(json.dumps({"id": entity.id, "text": " ".join(tokens)},
                                    ensure_ascii=False) + "\n")
    print(f"wrote {len(entities)} descriptions to {args.out}")
    return 0


def _cmd_evaluate(args):
    candidates = _read_text_rows(args.candidates)
    references = _read_text_rows(args.references)
    report = metrics.evaluate_corpus(candidates, references)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(report.to_json() + "\n")
    print(report.to_text())
    return 0


def _cmd_align(args):
    config = _load_config(args.config)
    entities = _load_entities(args.data, config)
    described = [e for e in entities if e.description_tokens is not None]
    if not described:
        raise DataError(f"{args.data}: no described entities to align")
    vocab = corpus.build_vocabulary(described, config.vocab_size, config.vocab_source)
    alignments, stats = align_corpus(entities, vocab)
    with open(args.out, "w", encoding="utf-8") as handle:
        for aligned in alignments:
            handle.write(json.dumps(alignment_to_record(aligned), ensure_ascii=False) + "\n")
    total = sum(stats.values())
    print(f"aligned {len(alignments)} descriptions ({total} tokens: "
          f"{stats['fact']} fact, {stats['vocab']} vocab, {stats['unk']} unk)")
    return 0


def emit_attention(checkpoint, entity):
    """Rows of (emitted token, attention over the entity's slots)."""
    _, trace = training.generate_description(checkpoint, entity, return_trace=True)
    return [fact.label() for fact in entity.facts] + ["MEAN"], trace


def _cmd_attention(args):
    checkpoint = training.load_checkpoint(args.checkpoint)
    entities = _load_entities(args.data, checkpoint.config)
    matches = [e for e in entities if e.id == args.id]
    if not matches:
        raise DataError(f"{args.data}: no entity with id {args.id}")
    labels, rows = emit_attention(checkpoint, matches[0])
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("token\t" + "\t".join(labels) + "\n")
        for token, alpha in rows:
            handle.write(token + "\t" + "\t".join(f"{a:.6f}" for a in alpha) + "\n")
    print(f"wrote {len(rows)} steps x {len(labels)} slots to {args.out}")
    return 0


def _cmd_params(args):
    config = _load_config(args.config)
    print(training.format_param_table(config))
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "generate": _cmd_generate,
    "evaluate": _cmd_evaluate,
    "align": _cmd_align,
    "attention": _cmd_attention,
    "params": _cmd_params,
}


def run(argv):
    """Parse and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (DataError, OSError, ConfigError, ShapeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def main():
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    sys.exit(run(sys.argv[1:]))
