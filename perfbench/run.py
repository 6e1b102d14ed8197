"""Benchmark of factdesc training and greedy decoding, end to end.

Run from the repository root:

    python3 perfbench/run.py --workload generate --seed 0 --seconds 40 --trace 0

Every workload loads its entities (the set-up, timed ``SETUP_REPEATS``
times).  It then calls ``factdesc.training.train`` until half of
``--seconds`` has passed, and then describes its entities with
``training.generate_description``, one call per entity, in whole passes
until the other half has passed; it trains at least once and makes at
least two passes.  ``train-sample1k`` describes its 1,000 training
entities with the model just trained; ``generate`` describes 2,000
entities that the committed converged model never saw.  The outputs are
checked outside the timed region against the independent numpy model in
``reference.py``.

With ``--trace 0`` the last line of standard output is the result with
the end-to-end metrics.  With ``--trace 1`` the run makes one train call
and two passes untraced, then the same under the span tracer of
``spans.py``, and reports the per-layer figures of the traced ones and
the tracing overhead.  The line before the result is the run record (git
SHA, versions, BLAS pins, config, seed, checks), also written to
``perfbench/runs/``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if not (ROOT / "src" / "factdesc").is_dir():
    sys.exit(f"{ROOT / 'src' / 'factdesc'} is missing: run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from factdesc import corpus, metrics, toycorpus, training  # noqa: E402
from factdesc.metrics import EvalPair  # noqa: E402
from factdesc.tensor import Tape, backward  # noqa: E402

import reference  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

SAMPLE1K = ROOT / "data" / "sample1k"
SAMPLE1K_CONFIG = ROOT / "configs" / "sample1k.json"
CHECKPOINT = BENCH_DIR / "sample1k.fks"
RUNS_DIR = BENCH_DIR / "runs"

EPOCHS = 2                 # the least that shows the loss falling
UNSEEN_ENTITIES = 2000     # decodes per pass on generate; p99 has 20 beyond it
UNSEEN_POOL = 3000         # records of the bundled corpus after its train and dev splits
SETUP_REPEATS = 9
CHECK_ENTITIES = 16        # training entities the loss and gradient checks use
LOSS_RTOL = 1e-9
BLEU_RTOL = 1e-9
FD_STEP = 1e-5
FD_RTOL = 1e-5


@dataclasses.dataclass(frozen=True)
class Workload:
    train_entities: int | None  # leading entities of the bundled splits; None: all
    dev_entities: int | None
    converged: bool             # decode unseen entities with the committed model,
                                # not the training split with the model just trained


WORKLOADS = {
    # The paper's training regime at tight padding: 56% of attention slots live.
    "train-sample1k": Workload(None, None, False),
    # Inference with a converged model, whose output lengths vary.
    "generate": Workload(100, 20, True),
}


@dataclasses.dataclass
class Inputs:
    train: list
    dev: list
    described: list           # the entities each pass decodes
    checkpoint: training.Checkpoint | None


@dataclasses.dataclass
class Pass:
    outputs: list             # decoded tokens, one list per described entity
    latencies: list           # CPU seconds per generate_description call, entity order
    cpu_s: float


@dataclasses.dataclass
class Measured:
    trained: training.Checkpoint  # what the first train call returned
    histories: list               # loss history per train call
    train_s: list                 # CPU seconds per train call
    model: training.Checkpoint    # the model the passes decode with
    passes: list
    wall_s: float                 # wall time of the calls and passes, for the record


def train_config():
    return dataclasses.replace(training.TrainConfig.from_file(SAMPLE1K_CONFIG), epochs=EPOCHS)


def _record_key(record):
    return json.dumps([record["facts"], record["description"]], sort_keys=True)


def unseen_records(rng, n):
    """``n`` records of the bundled corpus that its train and dev splits lack.

    The bundled splits are the first 1,100 (train, dev) and next 100
    (test) records of ``toycorpus.generate_corpus(seed=0)``.  The pool is
    the ``UNSEEN_POOL`` records after train and dev, less any whose facts
    and description repeat a train or dev record or an earlier pool
    record; ``rng`` picks ``n`` of them, kept in corpus order.  The name
    pools are those the model was trained on: ``generate_corpus`` at any
    other seed draws new ones.
    """
    keys = set()
    n_seen = 0
    for split in ("train", "dev"):
        with open(SAMPLE1K / f"{split}.jsonl", encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        keys.update(_record_key(r) for r in records)
        n_seen += len(records)
    pool = []
    for record in toycorpus.generate_corpus(n_seen + UNSEEN_POOL, seed=0)[n_seen:]:
        key = _record_key(record)
        if key not in keys:
            keys.add(key)
            pool.append(record)
    return [pool[i] for i in sorted(rng.choice(len(pool), n, replace=False))]


def setup(workload, config, unseen_path):
    train = corpus.load_entities(SAMPLE1K / "train.jsonl", config.max_facts,
                                 config.max_factual_words)[:workload.train_entities]
    dev = corpus.load_entities(SAMPLE1K / "dev.jsonl", config.max_facts,
                               config.max_factual_words)[:workload.dev_entities]
    if not workload.converged:
        return Inputs(train, dev, train, None)
    checkpoint = training.load_checkpoint(CHECKPOINT)
    unseen = corpus.load_entities(unseen_path, checkpoint.config.max_facts,
                                  checkpoint.config.max_factual_words)
    return Inputs(train, dev, unseen, checkpoint)


def measure(inputs, config, seconds, workdir):
    """Train, then describe ``inputs.described`` one entity per call.

    Train calls repeat until half of ``seconds`` of wall time has passed
    (at least one), then decode passes until the other half has (at least
    two).  Every figure is CPU time of the process (see ``end_to_end``).
    """
    first, histories, train_s = None, [], []
    start = wall_start = time.perf_counter()
    while not train_s or time.perf_counter() - start < seconds / 2:
        t0 = time.process_time()
        checkpoint = training.train(inputs.train, inputs.dev, config)
        train_s.append(time.process_time() - t0)
        histories.append(checkpoint.meta["loss_history"])
        first = first or checkpoint
        del checkpoint  # later calls keep only their figures, so memory is the same
    if inputs.checkpoint is not None:
        model = inputs.checkpoint
    else:
        # As `factdesc train` then `factdesc generate` would: through the file.
        path = workdir / "trained.fks"
        training.save_checkpoint(first, path)
        model = training.load_checkpoint(path)
    passes = []
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds / 2:
        outputs, latencies = [], []
        t_pass = time.process_time()
        for entity in inputs.described:
            t0 = time.process_time()
            outputs.append(training.generate_description(model, entity))
            latencies.append(time.process_time() - t0)
        passes.append(Pass(outputs, latencies, time.process_time() - t_pass))
    return Measured(first, histories, train_s, model, passes,
                    time.perf_counter() - wall_start)


def _arrays(params):
    return {name: t.data for name, t in params.named_tensors()}


def check_training(runs, inputs, config, rng):
    """Loss falls; the reference loss and its central difference match the program."""
    problems = []
    histories = [h for run in runs for h in run.histories]
    if any(h != histories[0] for h in histories):
        problems.append("repeated train calls gave different loss histories")
    if not histories[0][-1] < histories[0][0]:
        problems.append(f"loss did not fall: {histories[0]}")
    vocab = runs[0].trained.vocab
    params = runs[0].trained.params.clone()
    params.zero_grads()
    usable = [e for e in inputs.train if e.description_tokens is not None]
    sample = [usable[i] for i in rng.choice(len(usable), CHECK_ENTITIES, replace=False)]
    model = reference.Model(_arrays(params), vocab.words, config)
    for entity in sample:
        with Tape() as tape:
            loss = training.step_loss(entity, training.align_description(entity, vocab),
                                      params, vocab, config)
        backward(loss, tape)
        ours, theirs = model.loss(entity), float(loss.data)
        if abs(ours - theirs) > LOSS_RTOL * abs(ours):
            problems.append(f"entity {entity.id}: step_loss {theirs!r}, reference {ours!r}")
    direction = {name: rng.standard_normal(t.data.shape)
                 for name, t in params.named_tensors() if t.requires_grad}
    norm = np.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    analytic = sum(float((getattr(params, name).grad * d).sum())
                   for name, d in direction.items()) / float(norm)

    def shifted_loss(step):
        arrays = {name: a + step / norm * direction[name] if name in direction else a
                  for name, a in _arrays(params).items()}
        shifted = reference.Model(arrays, vocab.words, config)
        return sum(shifted.loss(e) for e in sample)

    numeric = (shifted_loss(FD_STEP) - shifted_loss(-FD_STEP)) / (2 * FD_STEP)
    if abs(numeric - analytic) > FD_RTOL * max(abs(numeric), abs(analytic), 1.0):
        problems.append(f"directional derivative: backward {analytic!r}, "
                        f"central difference {numeric!r}")
    return problems


def check_decoding(runs, entities, gen_bleu4):
    """Program tokens equal the reference's; tokens valid; BLEU-4 agrees."""
    problems = []
    outputs = runs[0].passes[0].outputs
    if any(p.outputs != outputs for run in runs for p in run.passes):
        problems.append("repeated passes decoded different tokens")
    config, vocab = runs[0].model.config, runs[0].model.vocab
    model = reference.Model(_arrays(runs[0].model.params), vocab.words, config)
    words = set(vocab.words) - reference.SPECIALS
    mismatched, invalid, too_long, no_eos = [], [], [], 0
    pairs = []
    for entity, tokens in zip(entities, outputs):
        try:
            expected, stopped = model.greedy(entity)
        except reference.VocabularyOverrun as exc:
            problems.append(str(exc))
            continue
        no_eos += not stopped
        pairs.append((expected, entity.description_tokens))
        if tokens != expected:
            mismatched.append(entity.id)
        factual = {w for f in entity.facts[:config.max_facts] for w in f.factual_words}
        if any(t not in words and t not in factual for t in tokens):
            invalid.append(entity.id)
        if len(tokens) > config.max_decode_len:
            too_long.append(entity.id)
    for what, ids in (("differ from the reference", mismatched),
                      ("emit a token that is neither a vocabulary word nor factual", invalid),
                      ("are longer than max_decode_len", too_long)):
        if ids:
            problems.append(f"{len(ids)} decodes {what}, first {ids[0]}")
    ref_bleu = reference.corpus_bleu4(pairs)
    if abs(ref_bleu - gen_bleu4) > BLEU_RTOL * max(abs(ref_bleu), 1.0):
        problems.append(f"gen_bleu4 {gen_bleu4!r}, reference {ref_bleu!r}")
    return problems, no_eos


def _percentile(sorted_values, q):
    """Nearest-rank percentile: the smallest value with q% of samples at or below it."""
    rank = int(np.ceil(q / 100 * len(sorted_values)))
    return sorted_values[max(rank, 1) - 1]


def end_to_end(run, inputs, setup_times, gen_bleu4):
    """Every time is CPU time of the process (``time.process_time``), not
    wall time.  The program runs on one thread with BLAS pinned to one,
    so on an idle machine the two agree; on a shared virtual machine the
    wall time also counts the time the scheduler or the host gives to
    others, which moved whole runs by a quarter or more, while the
    process's CPU time leaves it out (the kernel keeps steal time out of
    task time).  Rates are medians over train calls and over decode
    passes.  An entity's latency is the low median of its decode times
    over the passes (the faster of two, the middle of three), so a burst
    of contention that lands on one decode does not reach the
    percentiles."""
    tokens = EPOCHS * sum(len(e.description_tokens) + 1 for e in inputs.train
                          if e.description_tokens is not None)
    passes = run.passes
    latencies = sorted(map(statistics.median_low, zip(*(p.latencies for p in passes))))
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "train_tokens_per_cpu_s": (statistics.median(tokens / s for s in run.train_s),
                                   "tokens/s"),
        "train_loss_final": (run.histories[0][-1], "nats/entity"),
        "gen_entities_per_cpu_s": (statistics.median(len(p.outputs) / p.cpu_s
                                                     for p in passes), "entities/s"),
        "gen_cpu_p50_ms": (1e3 * _percentile(latencies, 50), "ms"),
        "gen_cpu_p99_ms": (1e3 * _percentile(latencies, 99), "ms"),
        "gen_bleu4": (gen_bleu4, "BLEU"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    config = train_config()
    rng = np.random.default_rng(args.seed)
    RUNS_DIR.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=RUNS_DIR) as tmp:
        workdir = Path(tmp)
        unseen_path = workdir / "unseen.jsonl"
        if workload.converged:
            toycorpus.write_jsonl(unseen_records(rng, UNSEEN_ENTITIES), unseen_path)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.process_time()
            inputs = setup(workload, config, unseen_path)
            setup_times.append(time.process_time() - t0)
        if tracer is None:
            runs = [measure(inputs, config, args.seconds, workdir)]
        else:
            t0 = time.process_time()
            runs = [measure(inputs, config, 0, workdir)]
            plain_s = time.process_time() - t0
            tracer.install()
            try:
                setup(workload, config, unseen_path)
                t0 = time.process_time()
                runs.append(measure(inputs, config, 0, workdir))
                traced_s = time.process_time() - t0
            finally:
                tracer.uninstall()
    gen_bleu4 = metrics.bleu([EvalPair(tokens, e.description_tokens)
                              for e, tokens in zip(inputs.described,
                                                   runs[0].passes[0].outputs)], 4)
    if tracer is None:
        figures = end_to_end(runs[0], inputs, setup_times, gen_bleu4)
    else:
        model = runs[0].model
        figures = layer_metrics(tracer, len(model.vocab) / model.params.vocab_out_w.data.shape[0])
        figures["trace.overhead_s"] = (traced_s - plain_s, "s")
        figures["trace.overhead_share"] = ((traced_s - plain_s) / plain_s, "ratio")
    problems = check_training(runs, inputs, config, rng)
    decode_problems, no_eos = check_decoding(runs, inputs.described, gen_bleu4)
    problems += decode_problems
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": np.__version__, "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "train_config": config.to_dict(), "decode_config": runs[0].model.config.to_dict(),
        "train_calls": sum(len(r.train_s) for r in runs),
        "decode_passes": sum(len(r.passes) for r in runs),
        "described_entities": len(inputs.described),
        "measured_wall_s": [r.wall_s for r in runs],
        "measured_cpu_s": [sum(r.train_s) + sum(p.cpu_s for p in r.passes) for r in runs],
        "train_call_cpu_s": [s for r in runs for s in r.train_s],
        "decode_passes_cpu_s_p50_p99": [(p.cpu_s, _percentile(sorted(p.latencies), 50),
                                     _percentile(sorted(p.latencies), 99))
                                    for r in runs for p in r.passes],
        "reference_no_eos": no_eos, "problems": problems,
        "metrics": {name: value for name, (value, _) in figures.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RUNS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(RUNS_DIR / f"{stem}-spans.jsonl")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    usable = sum(e.description_tokens is not None for e in inputs.train)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(r.train_s) * usable * EPOCHS
                         + len(r.passes) * len(inputs.described) for r in runs),
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in figures.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
