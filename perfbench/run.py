"""nlsql benchmark: serving and training, end to end and layer by layer.

    python3 perfbench/run.py --workload serve-bigtable --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Each workload runs in this single process with one closed-loop client and
one BLAS thread. Inputs come from ``gen.py`` in an untimed child process.
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
repeats the work with spans recorded and reports the per-layer metrics. The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Any output that fails a
check makes the run print ``"correct": false`` and exit 1.
"""

from __future__ import annotations

import bootstrap  # noqa: F401  (before numpy: pins BLAS threads, finds src/)

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from nlsql import model, netops, sampling, train as train_mod, vocab
from nlsql.augment import AugmentConfig
from nlsql.corpus import load_examples, load_tables
from nlsql.executor import execute
from nlsql.model import (
    ModelConfig,
    decode_sketch,
    encode,
    example_loss,
    example_loss_and_grads,
    init_params,
    load_checkpoint,
    make_target,
    predict_heads,
    prepare_features,
    save_checkpoint,
)
from nlsql.serialize import serialize_input, tokenize
from nlsql.sketch import render_sql
from nlsql.train import Sampler, TrainConfig, build_features, train

import checks
import gen
from spans import Tracer

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
WORKLOADS = gen.WORKLOADS
SERVE_STRATEGY = {"serve-bigtable": ("rel", 3), "serve-synth": ("rand", 3)}
TRAIN_STRATEGY = ("rand", 3)
TRAIN_EPOCHS = {"train-synth": 3, "train-bigvocab": 2}
# Set-up runs at least 3 times, then again until 1 s is spent or 50 runs are
# made; setup_s is the median, which a short set-up needs many runs to steady.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 50
SETUP_MIN_SECONDS = 1.0
# serve-bigtable checks every 20th question against the reference
# interpreter: it scans all 100k rows, as slowly as the executor does.
REFERENCE_EVERY = {"serve-bigtable": 20, "serve-synth": 1}
NETOPS = ("attention_fwd", "attention_bwd", "linear_fwd", "linear_bwd",
          "gelu_fwd", "gelu_bwd", "layernorm_fwd", "layernorm_bwd")

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "latency_p50_ms": "ms",
    "latency_p90_ms": "ms", "throughput_per_s": "1/s",
}


class CheckFailed(Exception):
    pass


def _require(problems, what: str) -> None:
    if problems:
        raise CheckFailed(f"{what}: " + "; ".join(problems[:5]))


def _direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _more_setups(setups) -> bool:
    return len(setups) < SETUP_MIN_REPEATS or (
        sum(setups) < SETUP_MIN_SECONDS and len(setups) < SETUP_MAX_REPEATS)


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1] \
        if len(values) > 1 else values[0]


# ---------------------------------------------------------------------------
# Inputs and environment


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in [HERE / "gen.py"] + sorted((bootstrap.SRC / "nlsql").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def prepare_inputs(workload: str, seed: int) -> Path:
    """Generate (or reuse) this seed's inputs in an untimed child process.
    One seed per workload is kept; inputs are keyed by the sources that
    made them."""
    directory = WORK / "inputs" / workload / f"seed-{seed}"
    marker = directory / "complete"
    digest = _source_digest()
    if marker.is_file() and marker.read_text() == digest:
        return directory
    shutil.rmtree(WORK / "inputs" / workload, ignore_errors=True)
    subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(directory)],
                   check=True, timeout=600)
    marker.write_text(digest)
    return directory


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Threads:"):
                    threads = int(line.split()[1])
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {k: os.environ.get(k) for k in bootstrap.BLAS_THREAD_VARS},
        "os_threads": threads,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Serving


def serve_setup(directory: Path, workload: str, seed: int, call):
    tables = call("corpus.load_tables", load_tables, directory / "tables.jsonl")
    corpus = call("corpus.load_examples", load_examples, directory / "questions.jsonl")
    checkpoint = call("model.load_checkpoint", load_checkpoint, directory / "model.ckpt")
    strategy, k = SERVE_STRATEGY[workload]
    sampler = Sampler(tables, strategy, k, seed)
    for table_id in dict.fromkeys(e.table_id for e in corpus.examples):
        if strategy == "rel":
            call("sampling.prepare", sampler.index_for, table_id)
        else:
            call("sampling.prepare", sampler.sample_for, table_id, "")
    return tables, corpus, checkpoint, sampler


def _serialize(question, schema, samples, budget):
    return serialize_input(tokenize(question), schema, samples, budget,
                           question=question)


def serve_question(call, sampler, table, question, checkpoint, budget):
    """The body of ``nlsql repl`` for one question."""
    cfg = checkpoint.config
    samples = call("sampling.sample", sampler.sample_for, table.table_id, question)
    serialized = call("serialize.serialize", _serialize, question, table.schema,
                      samples, budget)
    feats = call("model.features", prepare_features, serialized, checkpoint.vocab)
    enc, _ = call("model.encode", encode, feats, checkpoint.params, cfg)
    heads, _ = call("model.heads", predict_heads, enc, checkpoint.params, cfg)
    sketch = call("model.decode", decode_sketch, heads, table.schema, question,
                  feats.question_spans, cfg.max_span_len)
    sql = call("sketch.render", render_sql, sketch, table.schema)
    result = call("executor.execute", execute, sketch, table)
    return samples, serialized, sketch, sql, result


class ServeChecker:
    """Checks one served question's outputs; keeps the counts per layer."""

    def __init__(self, workload, tables):
        self.strategy, self.k = SERVE_STRATEGY[workload]
        self.reference_every = REFERENCE_EVERY[workload]
        self.distinct = {tid: checks.distinct_cells(t) for tid, t in tables.items()}
        self.matchers = {}
        self.first_samples = {}
        self.first_round = {}
        self.counts = Counter()
        self.sketches = []

    def check(self, index, table, question, outputs, budget):
        """Full checks the first time a question is served; a later round
        must repeat the first round's sketch and result."""
        samples, serialized, sketch, sql, result = outputs
        seen = (sketch, hash(tuple(result.values)))
        if index in self.first_round:
            if seen != self.first_round[index]:
                raise CheckFailed(f"question {index}: a repeated round gave another "
                                  "sketch or result")
            return
        self.first_round[index] = seen
        self.sketches.append(sql)
        tid = table.table_id
        hits = None
        if self.strategy == "rel":
            matcher = self.matchers.get(tid)
            if matcher is None:
                matcher = self.matchers[tid] = checks.BruteForceMatcher(table)
            hits = checks.expected_hits(matcher, question, table.schema.n_columns, self.k)
        else:
            first = self.first_samples.setdefault(tid, samples.columns)
            if samples.columns != first:
                raise CheckFailed(f"{tid}: random samples differ between questions")
        _require(checks.check_samples(samples.columns, self.distinct[tid], self.k, hits),
                 f"samples for {question!r}")
        problems, shed = checks.check_serialized(serialized, question, table.schema,
                                                 samples.columns, budget)
        _require(problems, f"serialized {question!r}")
        _require(checks.check_sketch(sketch, table.schema, question),
                 f"sketch for {question!r}")
        if index % self.reference_every == 0:
            _require(checks.check_result(result.values, sketch, table),
                     f"result of {sql!r}")
            self.counts["reference_checked"] += 1
        self.counts["questions"] += 1
        self.counts["samples_served"] += sum(len(c) for c in samples.columns)
        self.counts["samples_matched"] += sum(len(h) for h in hits) if hits else 0
        self.counts["samples_shed"] += shed
        self.counts["rows_scanned"] += len(table.rows)
        self.counts["result_values"] += len(result.values)
        self.counts["warnings"] += sum(result.warnings.values())


def run_serve(workload, seed, seconds, tracer):
    directory = prepare_inputs(workload, seed)
    call = tracer.call if tracer else _direct
    budget = gen.BUDGET
    setups = []
    while _more_setups(setups):
        state = None
        gc.collect()
        started = time.perf_counter()
        with _patched(tracer, serving=True):
            state = serve_setup(directory, workload, seed, call)
        setups.append(time.perf_counter() - started)
    tables, corpus, checkpoint, sampler = state
    questions = [(e.question, tables[e.table_id]) for e in corpus.examples]
    checker = ServeChecker(workload, tables)

    latencies = []
    attempted = failed = 0
    busy = 0.0
    rounds = 0
    gc.collect()
    with _patched(tracer, serving=True):
        while rounds == 0 or busy < seconds:
            for index, (question, table) in enumerate(questions):
                attempted += 1
                if tracer:
                    tracer.new_op()
                started = time.perf_counter()
                try:
                    outputs = call("question", serve_question, call, sampler, table,
                                   question, checkpoint, budget)
                except Exception as exc:  # an operation that fails is counted
                    failed += 1
                    busy += time.perf_counter() - started
                    print(f"failed: {question!r}: {exc!r}", file=sys.stderr)
                    continue
                latencies.append(time.perf_counter() - started)
                busy += latencies[-1]
                checker.check(index, table, question, outputs, budget)
            rounds += 1
            gc.collect()
    if not latencies:
        raise CheckFailed("every question failed")

    n_q = checker.counts["questions"]
    mix = Counter((s.agg.name, len(s.conds)) for s, _ in checker.first_round.values())
    end_to_end = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": _p90(latencies) * 1e3,
        "throughput_per_s": len(latencies) / sum(latencies),
    }
    counts = {
        "keyword_index.patterns": sum(sampler.index_for(tid).n_patterns for tid in tables)
        if sampler.strategy == "rel" else 0,
        "sampling.matched_share": checker.counts["samples_matched"]
        / max(1, checker.counts["samples_served"]),
        "serialize.samples_shed": checker.counts["samples_shed"] / n_q,
        "executor.rows_scanned": checker.counts["rows_scanned"] / n_q,
        "executor.result_values": checker.counts["result_values"] / n_q,
        "executor.warnings": checker.counts["warnings"] / n_q,
        "vocab.size": len(checkpoint.vocab),
    }
    info = {
        "rounds": rounds,
        "questions_per_round": len(questions),
        "reference_checked": checker.counts["reference_checked"],
        "sketch_mix": {f"{a}/{n}": c for (a, n), c in sorted(mix.items())},
        "digest": hashlib.sha256("\n".join(checker.sketches).encode()).hexdigest()[:16],
    }
    return attempted, failed, end_to_end, counts, len(latencies), info


# ---------------------------------------------------------------------------
# Training


def train_configs(workload, seed):
    strategy, k = TRAIN_STRATEGY
    augment = AugmentConfig(mix_ratio=0.5, seed=seed) if workload == "train-synth" else None
    tc = TrainConfig(epochs=TRAIN_EPOCHS[workload], batch_size=16, lr=1e-3,
                     strategy=strategy, k=k, budget=gen.BUDGET, augment=augment,
                     seed=seed)
    mc = ModelConfig(vocab_size=1, max_positions=gen.BUDGET,
                     seed=gen.MODEL_INIT_SEED, **gen.TRAIN_MODEL)
    return tc, mc


def gradient_check(corpus, tables, tc, mc) -> None:
    """Finite-difference spot check on the first trainable example."""
    voc = vocab.Vocab.build(corpus, tables, max_size=tc.vocab_max_size)
    cfg = dataclasses.replace(mc, vocab_size=len(voc))
    params = init_params(cfg)
    sampler = Sampler(tables, tc.strategy, tc.k, tc.seed)
    for example in corpus.examples:
        feats = build_features(example, tables[example.table_id], sampler, voc, tc.budget)
        target, _ = make_target(example.gold, feats, cfg.max_conds)
        if target is not None:
            break
    else:
        raise CheckFailed("no trainable example for the gradient check")
    _, _, grads = example_loss_and_grads(params, cfg, feats, target)
    d = cfg.d_model
    used = sorted(set(feats.ids.tolist()))[:3]
    focus = {"tok_emb": [i * d for i in used], "pos_emb": [0, d + 1],
             "seg_emb": [int(s) * d for s in sorted(set(feats.segments.tolist()))]}
    _require(checks.finite_difference_check(
        lambda p: example_loss(p, cfg, feats, target), params, grads,
        seed=tc.seed, focus=focus), "finite-difference check")


@contextlib.contextmanager
def step_clock(marks: list):
    """Append the time at the end of every optimizer step to ``marks``.

    One timestamp per step of 16 examples: this gives training a latency
    sample per step without tracing, at about a microsecond per step.
    """
    original = train_mod.AdamState.step

    def step(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        marks.append(time.perf_counter())
        return result

    train_mod.AdamState.step = step
    try:
        yield
    finally:
        train_mod.AdamState.step = original


def run_train(workload, seed, seconds, tracer):
    directory = prepare_inputs(workload, seed)
    call = tracer.call if tracer else _direct
    setups = []
    while _more_setups(setups):
        state = None
        gc.collect()
        started = time.perf_counter()
        state = (call("corpus.load_tables", load_tables, directory / "tables.jsonl"),
                 call("corpus.load_examples", load_examples, directory / "questions.jsonl"))
        setups.append(time.perf_counter() - started)
    tables, corpus = state
    tc, mc = train_configs(workload, seed)
    gradient_check(corpus, tables, tc, mc)

    durations, rates, histories, steps, marks = [], [], [], [], []
    attempted = failed = 0
    busy = 0.0
    checkpoint = None
    gc.collect()
    with _patched(tracer, serving=False), step_clock(marks):
        while attempted == 0 or busy < seconds:
            attempted += 1
            marks.clear()
            started = time.perf_counter()
            try:
                checkpoint, history = call("train.train", train, corpus, tables, tc,
                                           model_config=mc)
            except Exception as exc:  # an operation that fails is counted
                failed += 1
                busy += time.perf_counter() - started
                print(f"failed: train(): {exc!r}", file=sys.stderr)
                continue
            elapsed = time.perf_counter() - started
            busy += elapsed
            durations.append(elapsed)
            # The first step's interval would start inside preparation.
            steps.extend(b - a for a, b in zip(marks, marks[1:]))
            trainable = checkpoint.extra["counters"]["trainable"]
            rates.append(trainable * len(history) / elapsed)
            _require(checks.check_history(history, tc.epochs), "loss history")
            if histories and history != histories[0]:
                raise CheckFailed("a repeated train() call gave another loss history")
            histories.append(history)
            gc.collect()
    if checkpoint is None:
        raise CheckFailed("every train() call failed")
    if not steps:
        raise CheckFailed("no optimizer step was timed")

    path = WORK / f"round-trip-{workload}.ckpt"
    save_checkpoint(path, checkpoint)
    loaded = call("model.load_checkpoint", load_checkpoint, path)
    path.unlink()
    _require(checks.check_round_trip(checkpoint, loaded), "checkpoint round trip")

    end_to_end = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "latency_p50_ms": statistics.median(steps) * 1e3,
        "latency_p90_ms": _p90(steps) * 1e3,
        "throughput_per_s": statistics.median(rates),
    }
    counters = checkpoint.extra["counters"]
    counts = {"vocab.size": checkpoint.config.vocab_size}
    losses = [round(row["loss"], 12) for row in histories[0]]
    info = {
        "train_seconds": [round(d, 4) for d in durations],
        "epochs": tc.epochs,
        "trainable": counters.get("trainable"),
        "counters": counters,
        "loss_history": losses,
        "digest": hashlib.sha256(json.dumps(histories[:1]).encode()).hexdigest()[:16],
    }
    return attempted, failed, end_to_end, counts, len(steps), info


# ---------------------------------------------------------------------------
# Tracing


def trace_targets(serving: bool):
    """Module attributes the program looks up at call time. The serving loop
    calls the stages itself, from spans at its own call sites, so only what
    runs inside those stages is swapped."""
    targets = [(netops, name, f"netops.{name}") for name in NETOPS]
    if serving:
        return targets + [
            (train_mod, "build_index", "keyword_index.build"),
            (sampling, "extract_matches", "keyword_index.extract"),
        ]
    return targets + [
        (model, "encode", "model.encode"),
        (model, "predict_heads", "model.heads"),
        (model, "loss_from_heads", "model.loss"),
        (model, "heads_bwd", "model.heads_bwd"),
        (model, "encode_bwd", "model.encode_bwd"),
        (train_mod, "augment_corpus", "augment.augment"),
        (vocab.Vocab, "build", "vocab.build"),
        (train_mod, "build_features", "train.build_features"),
        (train_mod.Sampler, "sample_for", "sampling.sample"),
        (train_mod, "serialize_input", "serialize.serialize"),
        (train_mod, "prepare_features", "model.features"),
        (train_mod, "init_params", "model.init_params"),
        (train_mod, "example_loss_and_grads", "model.loss_and_grads"),
        (train_mod, "clip_gradients", "train.clip"),
        (train_mod.AdamState, "step", "train.adam_step"),
    ]


def _patched(tracer, serving: bool):
    return tracer.patched(trace_targets(serving)) if tracer else contextlib.nullcontext()


PER_LAYER_UNITS = {
    "corpus.load_tables_s": "s", "corpus.load_examples_s": "s",
    "model.load_checkpoint_s": "s",
    "keyword_index.build_s": "s", "keyword_index.patterns": "count",
    "keyword_index.extract_ms": "ms",
    "sampling.sample_ms": "ms", "sampling.matched_share": "ratio",
    "serialize.serialize_ms": "ms", "serialize.tokens": "count",
    "serialize.samples_shed": "count",
    "model.features_ms": "ms", "model.encode_ms": "ms", "model.heads_ms": "ms",
    "model.decode_ms": "ms", "model.encode_bwd_ms": "ms",
    "model.heads_bwd_ms": "ms", "model.loss_ms": "ms",
    "model.grad_mb_per_example": "MB",
    **{f"netops.{k}_ms": "ms" for k in NETOPS},
    **{f"netops.{k}_calls": "count" for k in NETOPS},
    "netops.linear_mflop": "MFLOP",
    "train.prepare_s": "s", "train.build_features_ms": "ms",
    "train.adam_step_ms": "ms", "train.clip_ms": "ms", "train.steps": "count",
    "augment.augment_s": "s", "augment.examples_added": "count",
    "vocab.build_s": "s", "vocab.size": "count",
    "executor.execute_ms": "ms", "executor.rows_scanned": "count",
    "executor.result_values": "count", "executor.warnings": "count",
    "sketch.render_ms": "ms",
    "trace.uncovered_share": "ratio",
    "trace.latency_p50_ms": "ms", "trace.throughput_per_s": "1/s",
}


def install_counters(tracer: Tracer, tally: Counter) -> None:
    """Work counted where it happens: linear FLOPs, gradient bytes,
    augmentation output."""
    def linear_fwd(args, kwargs, result):
        x, w = args[0], args[1]
        tally["linear_flop"] += 2 * x.shape[0] * w.shape[0] * w.shape[1]

    def linear_bwd(args, kwargs, result):
        x, w = args[1]
        tally["linear_flop"] += 4 * x.shape[0] * w.shape[0] * w.shape[1]

    def grads(args, kwargs, result):
        tally["grad_bytes"] += sum(g.nbytes for g in result[2].values())

    def augmented(args, kwargs, result):
        tally["examples_added"] += result.meta["augmentation"]["added"]

    def serialized(args, kwargs, result):
        tally["tokens"] += len(result.tokens)

    def stepped(args, kwargs, result):
        tracer.new_op()

    tracer.on_return("netops.linear_fwd", linear_fwd)
    tracer.on_return("netops.linear_bwd", linear_bwd)
    tracer.on_return("model.loss_and_grads", grads)
    tracer.on_return("augment.augment", augmented)
    tracer.on_return("serialize.serialize", serialized)
    tracer.on_return("train.adam_step", stepped)


def per_layer(tracer: Tracer, tally: Counter, workload: str, counts: dict,
              end_to_end: dict) -> tuple[dict, dict]:
    totals = tracer.totals()

    def total(name):
        return totals.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    serving = workload.startswith("serve-")
    # Per-operation denominators: a question, or one example's forward and
    # backward pass; per batch for optimizer work; per call of train().
    ops = max(calls("question") if serving else calls("model.loss_and_grads"), 1)
    batches = max(calls("train.adam_step"), 1)
    train_calls = max(calls("train.train"), 1)
    setups = max(calls("corpus.load_tables"), 1)

    def per_op_ms(name):
        return total(name) / ops * 1e3

    m = {
        "corpus.load_tables_s": total("corpus.load_tables") / setups,
        "corpus.load_examples_s": total("corpus.load_examples") / setups,
        "model.load_checkpoint_s": total("model.load_checkpoint") / max(calls("model.load_checkpoint"), 1),
        "keyword_index.build_s": total("keyword_index.build") / (setups if serving else train_calls),
        "keyword_index.patterns": counts.get("keyword_index.patterns", 0),
        "keyword_index.extract_ms": per_op_ms("keyword_index.extract"),
        "sampling.sample_ms": per_op_ms("sampling.sample"),
        "sampling.matched_share": counts.get("sampling.matched_share", 0.0),
        "serialize.serialize_ms": per_op_ms("serialize.serialize"),
        "serialize.tokens": tally["tokens"] / max(calls("serialize.serialize"), 1),
        "serialize.samples_shed": counts.get("serialize.samples_shed", 0),
        "model.features_ms": per_op_ms("model.features"),
        "model.encode_ms": per_op_ms("model.encode"),
        "model.heads_ms": per_op_ms("model.heads"),
        "model.decode_ms": per_op_ms("model.decode"),
        "model.encode_bwd_ms": per_op_ms("model.encode_bwd"),
        "model.heads_bwd_ms": per_op_ms("model.heads_bwd"),
        "model.loss_ms": per_op_ms("model.loss"),
        "model.grad_mb_per_example": tally["grad_bytes"] / 1e6 / ops,
        "netops.linear_mflop": tally["linear_flop"] / 1e6 / ops,
        "train.prepare_s": _prepare_seconds(tracer) / train_calls,
        "train.build_features_ms": total("train.build_features") / max(calls("train.build_features"), 1) * 1e3,
        "train.adam_step_ms": total("train.adam_step") / batches * 1e3,
        "train.clip_ms": total("train.clip") / batches * 1e3,
        "train.steps": calls("train.adam_step") / train_calls,
        "augment.augment_s": total("augment.augment") / train_calls,
        "augment.examples_added": tally["examples_added"] / train_calls,
        "vocab.build_s": total("vocab.build") / train_calls,
        "vocab.size": counts.get("vocab.size", 0),
        "executor.execute_ms": per_op_ms("executor.execute"),
        "executor.rows_scanned": counts.get("executor.rows_scanned", 0),
        "executor.result_values": counts.get("executor.result_values", 0),
        "executor.warnings": counts.get("executor.warnings", 0),
        "sketch.render_ms": per_op_ms("sketch.render"),
        "trace.uncovered_share": tracer.uncovered_share("question" if serving else "train.train"),
        "trace.latency_p50_ms": end_to_end["latency_p50_ms"],
        "trace.throughput_per_s": end_to_end["throughput_per_s"],
    }
    for name in NETOPS:
        m[f"netops.{name}_ms"] = per_op_ms(f"netops.{name}")
        m[f"netops.{name}_calls"] = calls(f"netops.{name}") / ops
    layers = {
        name: {"calls_per_op": t["calls"] / ops, "total_ms_per_op": t["total_s"] / ops * 1e3,
               "self_ms_per_op": t["self_s"] / ops * 1e3}
        for name, t in sorted(totals.items())
    }
    return m, layers


def _prepare_seconds(tracer: Tracer) -> float:
    """Per train() call, the time from entry to the first example's
    forward and backward pass: augmentation, vocabulary, features, init."""
    spans = tracer.spans
    total = 0.0
    open_train = None
    for index, span in enumerate(spans):
        if span is None:
            continue
        if span.name == "train.train":
            open_train = (index, span.start)
        elif span.name == "model.loss_and_grads" and open_train \
                and span.parent == open_train[0]:
            total += span.start - open_train[1]
            open_train = None
    return total


# ---------------------------------------------------------------------------
# Entry points


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    env = environment()
    tracer = Tracer() if trace else None
    tally: Counter = Counter()
    runner = run_serve if workload.startswith("serve-") else run_train
    try:
        if tracer:
            install_counters(tracer, tally)
        attempted, failed, e2e, counts, samples, info = runner(
            workload, seed, seconds, tracer)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1

    if tracer:
        values, layers = per_layer(tracer, tally, workload, counts, e2e)
        units = PER_LAYER_UNITS
        span_path = WORK / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(span_path)
        print(f"{'layer':<28}{'calls/op':>10}{'total ms/op':>14}{'self ms/op':>13}")
        for name, row in layers.items():
            print(f"{name:<28}{row['calls_per_op']:>10.2f}"
                  f"{row['total_ms_per_op']:>14.4f}{row['self_ms_per_op']:>13.4f}")
        info["absent_spans"] = sorted(set(tracer.absent))
        info["spans"] = {"count": len(tracer.spans), "file": str(span_path.relative_to(bootstrap.ROOT))}
    else:
        values, units = e2e, END_TO_END
    info["timed_samples"] = samples
    print("env " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    result = {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = WORK / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"env": env, "info": info, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process; prints one table."""
    status = 0
    summary = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            summary[workload] = {"error": proc.returncode}
            continue
        summary[workload] = json.loads(lines[-1])
        print(f"== {workload}: attempted {summary[workload]['attempted']}, "
              f"failed {summary[workload]['failed']}, "
              f"correct {summary[workload]['correct']}")
        for name, metric in summary[workload]["metrics"].items():
            print(f"   {name:<32}{metric['value']:>14.4f} {metric['unit']}")
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    WORK.mkdir(parents=True, exist_ok=True)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
