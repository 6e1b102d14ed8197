"""Spans around the calls into each factdesc module, taken from outside it.

A :class:`Tracer` replaces the program's public functions, in every
module namespace that calls them, with wrappers that record one span per
call: name, start, end, parent span and entity id.  Start and end are
CPU time of the process (``time.process_time``), as every time the
benchmark reports is.  Spans stay in memory
until :meth:`Tracer.write` and are turned into per-layer figures by
:func:`layer_metrics`.  The wrappers also keep the counts that the
per-layer ratios need (live attention slots, ``<UNK>`` phrase words,
tape nodes, GEMM flops), read from the wrapped calls' arguments and
results.  Nothing in the program changes; :meth:`Tracer.uninstall`
restores the original functions.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

from factdesc import corpus, decoder, metrics, training
from factdesc.corpus import EOS, Entity

# Layer functions of the decoder, called through both the training module
# (teacher-forced step_loss) and the decoder module (greedy_decode).
DECODER_FUNCTIONS = ("fact_attention", "decoder_step", "copy_logits", "vocab_logits",
                     "slot_embedding", "attention_context")
TIMED = ("corpus.load_entities", "alignment.align_description", "encoder.encode_entity",
         *(f"decoder.{f}" for f in DECODER_FUNCTIONS), "decoder.greedy_decode",
         "tensor.backward", "tensor.adam_step", "training.step_loss", "training.train",
         "training.load_checkpoint", "metrics.bleu")
COUNTED = ("encoder.encode_entity", "decoder.fact_attention", "decoder.decoder_step",
           "decoder.copy_logits", "decoder.vocab_logits", "decoder.greedy_decode",
           "tensor.backward", "tensor.adam_step", "training.step_loss")


class Span:
    """One call; ``parent`` indexes the enclosing span, ``eos`` is
    ``[index of <EOS>, emitted]`` on greedy decodes."""

    __slots__ = ("name", "start", "end", "parent", "entity", "eos")

    def __init__(self, name, parent, entity):
        self.name = name
        self.parent = parent
        self.entity = entity
        self.eos = None


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []

    def _wrap(self, name, original, enter=None, leave=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if args and isinstance(args[0], Entity):
                entity = args[0].id
            else:
                entity = spans[parent].entity if parent is not None else None
            span = Span(name, parent, entity)
            if enter is not None:
                enter(span, args)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.process_time()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.process_time()
                stack.pop()
            if leave is not None:
                leave(span, args, result)
            return result

        return wrapper

    def _patch(self, module, attr, name, enter=None, leave=None):
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self._wrap(name, original, enter, leave))

    def install(self):
        """Wrap every traced function; call :meth:`uninstall` to undo."""
        self._patch(corpus, "load_entities", "corpus.load_entities")
        self._patch(training, "align_description", "alignment.align_description")
        self._patch(decoder, "encode_entity", "encoder.encode_entity",
                    leave=self._count_encode)
        for fn in DECODER_FUNCTIONS:
            leave = self._mark_eos if fn == "vocab_logits" else None
            self._patch(training, fn, f"decoder.{fn}", leave=leave)
            self._patch(decoder, fn, f"decoder.{fn}", leave=leave)
        self._patch(training, "greedy_decode", "decoder.greedy_decode",
                    enter=self._eos_index)
        self._patch(training, "backward", "tensor.backward", leave=self._count_tape)
        self._patch(training, "adam_step", "tensor.adam_step")
        self._patch(training, "step_loss", "training.step_loss", leave=self._count_tokens)
        self._patch(training, "train", "training.train")
        self._patch(training, "load_checkpoint", "training.load_checkpoint")
        self._patch(training, "bleu", "metrics.bleu")
        self._patch(metrics, "bleu", "metrics.bleu")

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # counters read from the wrapped calls ------------------------------
    def _count_encode(self, span, args, result):
        entity, _, vocab, cfg = args[:4]
        max_facts = args[4] if len(args) > 4 else corpus.DEFAULT_MAX_FACTS
        self.counts["live_slots"] += int(result.mask.sum())
        self.counts["slots"] += result.mask.size
        for fact in entity.facts[:max_facts]:
            phrase = fact.phrase()[: cfg.max_phrase_len]
            self.counts["phrase_tokens"] += len(phrase)
            self.counts["unk_phrase_tokens"] += sum(w not in vocab for w in phrase)

    def _eos_index(self, span, args):
        span.eos = [args[2].word_index(EOS), False]

    def _mark_eos(self, span, args, result):
        if span.parent is None:
            return
        parent = self.spans[span.parent]
        if parent.eos is not None and int(np.argmax(result.data)) == parent.eos[0]:
            parent.eos[1] = True

    def _count_tape(self, span, args, result):
        nodes = args[1].nodes
        self.counts["tape_nodes"] += len(nodes)
        flops = 0
        for node in nodes:
            if node.op == "matmul":
                a, b = node.inputs[0].data.shape, node.inputs[1].data.shape
                m = a[0] if len(a) == 2 else 1
                n = b[1] if len(b) == 2 else 1
                flops += 2 * m * a[-1] * n
            elif node.op == "affine":
                (rows, width), (out, _) = node.inputs[0].data.shape, node.inputs[1].data.shape
                flops += 2 * rows * width * out
        self.counts["gemm_flops"] += flops

    def _count_tokens(self, span, args, result):
        self.counts["step_tokens"] += len(args[1].tokens)

    def write(self, path):
        """One JSON array per span: name, start, end, parent index, entity id."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps([s.name, s.start, s.end, s.parent, s.entity]) + "\n")


def layer_metrics(tracer, vocab_rows_live_share):
    """Per-layer figures from every span the tracer recorded.

    ``<layer>.<function>_s`` is the summed self time of that function's
    spans: duration minus the time its child spans cover.
    ``training.dev_decode_s`` is the whole duration of the greedy decodes
    made inside ``training.train``.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    self_time = dict.fromkeys(TIMED, 0.0)
    calls = dict.fromkeys(COUNTED, 0)
    attentions = steps = 0  # inside greedy decodes
    dev_decode = 0.0
    for i, s in enumerate(spans):
        self_time[s.name] += (s.end - s.start) - child_time[i]
        if s.name in calls:
            calls[s.name] += 1
        parent = spans[s.parent] if s.parent is not None else None
        if parent is not None and parent.name == "decoder.greedy_decode":
            attentions += s.name == "decoder.fact_attention"
            steps += s.name == "decoder.decoder_step"
        if (s.name == "decoder.greedy_decode" and parent is not None
                and parent.name == "training.train"):
            dev_decode += s.end - s.start
    greedy = [s for s in spans if s.name == "decoder.greedy_decode"]
    c = tracer.counts
    out = {f"{name}_s": (self_time[name], "s") for name in TIMED}
    out.update({f"{name}_calls": (calls[name], "count") for name in COUNTED})
    out.update({
        "encoder.live_slot_share": (c["live_slots"] / max(c["slots"], 1), "ratio"),
        "encoder.unk_phrase_share": (c["unk_phrase_tokens"] / max(c["phrase_tokens"], 1),
                                     "ratio"),
        "decoder.decode_steps_per_entity": (steps / max(len(greedy), 1), "steps/entity"),
        "decoder.attention_retries": (attentions - steps, "count"),
        "decoder.no_eos_share": (sum(not s.eos[1] for s in greedy) / max(len(greedy), 1),
                                 "ratio"),
        "decoder.vocab_rows_live_share": (vocab_rows_live_share, "ratio"),
        "tensor.tape_nodes_per_token": (c["tape_nodes"] / max(c["step_tokens"], 1),
                                        "nodes/token"),
        "tensor.gemm_flops_per_token": (c["gemm_flops"] / max(c["step_tokens"], 1),
                                        "flop/token"),
        "training.dev_decode_s": (dev_decode, "s"),
    })
    return out
