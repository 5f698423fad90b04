"""Input generation for the nlsql benchmark: a pure function of the seed.

Run as a script, it writes one workload's inputs (JSONL tables and
questions, and for the serving workloads a random-init checkpoint) into a
directory. The measuring process only loads these files, so generation
costs no set-up time and no memory in the measured process.

    python3 perfbench/gen.py --workload serve-synth --seed 1 --out DIR

Model weights use a fixed init seed on every benchmark seed: the sketch mix
a random-init model predicts, and with it the executor's work, then depends
on the questions alone instead of jumping between seeds.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

import bootstrap  # noqa: F401  (puts the checkout's src/ on sys.path)
from nlsql.corpus import Corpus, save_examples, save_tables
from nlsql.model import Checkpoint, ModelConfig, init_params, save_checkpoint
from nlsql.serialize import DEFAULT_BUDGET, BudgetError, serialize_input, tokenize
from nlsql.sketch import AggOp, CondOp, Condition, Example, SqlSketch, Table
from nlsql.synth import SynthConfig, generate_bench_table, generate_synthetic_corpus
from nlsql.util import normalize_value
from nlsql.vocab import Vocab

BUDGET = DEFAULT_BUDGET
MODEL_INIT_SEED = 0

# Serving model shape (both serve-* workloads) and training shape (criterion 6).
SERVE_MODEL = dict(d_model=128, n_layers=2, n_heads=4)
TRAIN_MODEL = dict(d_model=64, n_layers=2, n_heads=4)

BIGTABLE_ROWS = 100_000
BIGTABLE_QUESTIONS = 100
SERVE_SYNTH = dict(n_tables=96, rows_per_table=8, n_columns_min=3,
                   n_columns_max=5, questions_per_table=4)
# 64 examples like criterion 6's corpus, spread over 16 tables instead of 4 so
# that the mix of 3- and 4-column tables, and with it the cost of an
# example, varies less from seed to seed.
TRAIN_SYNTH = dict(n_tables=16, rows_per_table=6, n_columns_min=3,
                   n_columns_max=4, questions_per_table=2)
# 30k rows put 30k distinct Code numbers in the vocabulary, past its cap.
BIGVOCAB_ROWS = 30_000
BIGVOCAB_QUESTIONS = 32

FILLERS = ("show", "find", "list", "which", "entries", "for", "with")
WORKLOADS = ("serve-bigtable", "serve-synth", "train-synth", "train-bigvocab")


def _rng(*parts) -> random.Random:
    return random.Random("perfbench\x1f" + "\x1f".join(map(str, parts)))


def bigtable_questions(table: Table, n: int, seed: int) -> list[str]:
    """Search-style questions naming 1-2 real cell values of one row."""
    rng = _rng("bigtable-q", seed)
    questions = []
    for _ in range(n):
        row = rng.choice(table.rows)
        cols = rng.sample(range(table.schema.n_columns), rng.randint(1, 2))
        words = [rng.choice(FILLERS)]
        words += [row[c] for c in cols]
        words.append(rng.choice(FILLERS))
        questions.append(" ".join(words))
    return questions


def bigvocab_examples(table: Table, n: int, seed: int) -> list[Example]:
    """Labelled short questions over the bench table: 1-2 equality
    conditions on text columns, each value verbatim in the question."""
    rng = _rng("bigvocab-q", seed)
    headers = table.schema.headers
    text_cols = [c for c, t in enumerate(table.schema.types) if t == "text"]
    examples = []
    for _ in range(n):
        row = rng.choice(table.rows)
        cols = sorted(rng.sample(text_cols, rng.randint(1, 2)))
        sel = rng.choice([c for c in range(len(headers)) if c not in cols])
        agg = rng.choice((AggOp.NONE, AggOp.COUNT))
        conds = tuple(Condition(c, CondOp.EQ, normalize_value(row[c])) for c in cols)
        pieces = [f"{headers[c].lower()} {normalize_value(row[c])}" for c in cols]
        head = headers[sel].lower() if agg is AggOp.NONE else f"how many {headers[sel].lower()}"
        question = " ".join([head] + pieces)
        examples.append(Example(question, table.table_id, SqlSketch(sel, agg, conds),
                                style="short"))
    return examples


def _check_budget(questions_by_table: list[tuple[str, Table]]) -> None:
    """Fail generation if any question with its table's headers alone
    exceeds the token budget: such a question would fail in every run."""
    for question, table in questions_by_table:
        try:
            serialize_input(tokenize(question), table.schema, None, BUDGET,
                            question=question)
        except BudgetError as exc:
            raise SystemExit(f"generated question over budget: {question!r}: {exc}")


def _write_checkpoint(path: Path, corpus: Corpus, tables: dict[str, Table]) -> None:
    vocab = Vocab.build(corpus, tables)
    config = ModelConfig(vocab_size=len(vocab), max_positions=BUDGET,
                         seed=MODEL_INIT_SEED, **SERVE_MODEL)
    save_checkpoint(path, Checkpoint(config, vocab, init_params(config),
                                     extra={"init": "random"}))


def generate(workload: str, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    if workload == "serve-bigtable":
        table = generate_bench_table(BIGTABLE_ROWS, seed=seed)
        tables = {table.table_id: table}
        corpus = Corpus([Example(q, table.table_id, SqlSketch(0))
                         for q in bigtable_questions(table, BIGTABLE_QUESTIONS, seed)])
    elif workload == "serve-synth":
        corpus, tables = generate_synthetic_corpus(SynthConfig(seed=seed, **SERVE_SYNTH))
    elif workload == "train-synth":
        corpus, tables = generate_synthetic_corpus(SynthConfig(seed=seed, **TRAIN_SYNTH))
    elif workload == "train-bigvocab":
        corpus, tables = generate_synthetic_corpus(SynthConfig(seed=seed, **TRAIN_SYNTH))
        table = generate_bench_table(BIGVOCAB_ROWS, seed=seed)
        tables[table.table_id] = table
        corpus = Corpus(corpus.examples
                        + bigvocab_examples(table, BIGVOCAB_QUESTIONS, seed))
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    _check_budget([(e.question, tables[e.table_id]) for e in corpus.examples])
    save_tables(tables, out / "tables.jsonl")
    save_examples(corpus, out / "questions.jsonl")
    if workload.startswith("serve-"):
        _write_checkpoint(out / "model.ckpt", corpus, tables)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
