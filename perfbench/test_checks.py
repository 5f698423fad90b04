"""Each of the benchmark's checkers accepts the program's real output and
rejects a deliberately corrupted one.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses

import bootstrap  # noqa: F401

import numpy as np
import pytest

from nlsql.corpus import Corpus
from nlsql.executor import execute
from nlsql.keyword_index import build_index
from nlsql.model import (
    Checkpoint,
    ModelConfig,
    example_loss,
    example_loss_and_grads,
    init_params,
    load_checkpoint,
    make_target,
    prepare_features,
    save_checkpoint,
)
from nlsql.sampling import sample_random, sample_relevance
from nlsql.serialize import serialize_input, tokenize
from nlsql.sketch import AggOp, CondOp, Condition, Example, SqlSketch, Table, TableSchema
from nlsql.vocab import Vocab

import checks
import run


@pytest.fixture
def table() -> Table:
    return Table(
        TableSchema("t", ("Rider", "Manufacturer", "Laps"), ("text", "text", "real")),
        (
            ("Nicolas Terol", "Derbi", "1"),
            ("Mike Di Meglio", "Honda", "24"),
            ("Stevie Bonsey", "KTM", "0"),
            ("Mike Di Meglio", "Derbi", "x"),
            ("Ana Santos", "Honda", "12"),
        ),
    )


QUESTION = "laps for mike di meglio on honda"


def test_reference_interpreter_rejects_a_wrong_result(table):
    sketches = [
        SqlSketch(0, AggOp.NONE, (Condition(1, CondOp.EQ, "derbi"),)),
        SqlSketch(0, AggOp.COUNT, (Condition(2, CondOp.GT, "5"),)),
        SqlSketch(2, AggOp.SUM, (Condition(0, CondOp.EQ, "mike di meglio"),)),
        SqlSketch(2, AggOp.AVG),
    ]
    for sketch in sketches:
        values = execute(sketch, table).values
        assert checks.check_result(values, sketch, table) == []
        wrong = values[1:] if len(values) > 1 else (values[0] + 1,)
        assert checks.check_result(wrong, sketch, table)


def test_matcher_agrees_with_relevance_and_rejects_misordered_hits(table):
    index = build_index(table)
    matcher = checks.BruteForceMatcher(table)
    samples = sample_relevance(table, index, QUESTION, 3, seed=0)
    hits = checks.expected_hits(matcher, QUESTION, table.schema.n_columns, 3)
    assert hits[0] == ["Mike Di Meglio"] and hits[1] == ["Honda"]
    distinct = checks.distinct_cells(table)
    assert checks.check_samples(samples.columns, distinct, 3, hits) == []
    bad = list(samples.columns)
    bad[1] = tuple(reversed(bad[1]))
    assert checks.check_samples(bad, distinct, 3, hits)


@pytest.mark.parametrize("corrupt", ["repeat", "stray", "short"])
def test_samples_check_rejects_corrupted_samples(table, corrupt):
    samples = sample_random(table, 3, seed=0)
    distinct = checks.distinct_cells(table)
    assert checks.check_samples(samples.columns, distinct, 3) == []
    bad = list(samples.columns)
    if corrupt == "repeat":
        bad[0] = (bad[0][0], bad[0][0], bad[0][2])
    elif corrupt == "stray":
        bad[0] = bad[0][:2] + ("Nobody",)
    else:
        bad[0] = bad[0][:1]
    assert checks.check_samples(bad, distinct, 3)


def test_random_samples_must_repeat_for_every_question(table):
    checker = run.ServeChecker("serve-synth", {"t": table})
    first = sample_random(table, 3, seed=0)
    other = sample_random(table, 3, seed=1)
    assert first.columns != other.columns
    for index, samples in enumerate((first, other)):
        serialized = serialize_input(tokenize(QUESTION), table.schema, samples, 512,
                                     question=QUESTION)
        sketch = SqlSketch(0)
        outputs = (samples, serialized, sketch, "", execute(sketch, table))
        if index == 0:
            checker.check(index, table, QUESTION, outputs, 512)
        else:
            with pytest.raises(run.CheckFailed):
                checker.check(index, table, QUESTION, outputs, 512)


def _serialized(table, budget=512):
    samples = sample_random(table, 3, seed=0)
    return samples, serialize_input(tokenize(QUESTION), table.schema, samples,
                                    budget, question=QUESTION)


def test_serializer_check_counts_shed_samples(table):
    samples, full = _serialized(table)
    assert checks.check_serialized(full, QUESTION, table.schema, samples.columns, 512) \
        == ([], 0)
    budget = len(full.tokens) - 3
    _, tight = _serialized(table, budget)
    problems, shed = checks.check_serialized(tight, QUESTION, table.schema,
                                             samples.columns, budget)
    assert problems == [] and shed > 0


@pytest.mark.parametrize("corrupt", ["budget", "question", "sample"])
def test_serializer_check_rejects_corrupted_input(table, corrupt):
    samples, serialized = _serialized(table)
    budget = 512
    if corrupt == "budget":
        budget = len(serialized.tokens) - 1
    elif corrupt == "question":
        tokens = list(serialized.tokens)
        tokens[1], tokens[2] = tokens[2], tokens[1]
        serialized = dataclasses.replace(serialized, tokens=tuple(tokens))
    else:
        served = list(samples.columns)
        served[0] = ("Ana Santos",) + served[0][1:]
        samples = dataclasses.replace(samples, columns=tuple(served))
    problems, _ = checks.check_serialized(serialized, QUESTION, table.schema,
                                          samples.columns, budget)
    assert problems


def test_sketch_check_rejects_values_outside_the_question(table):
    good = SqlSketch(2, AggOp.NONE, (Condition(0, CondOp.EQ, "mike di meglio"),))
    assert checks.check_sketch(good, table.schema, QUESTION) == []
    assert checks.check_sketch(
        SqlSketch(2, AggOp.NONE, (Condition(0, CondOp.EQ, "ana santos"),)),
        table.schema, QUESTION)
    assert checks.check_sketch(SqlSketch(7), table.schema, QUESTION)


def _tiny_model(table):
    example = Example(QUESTION, "t", SqlSketch(
        2, AggOp.NONE, (Condition(0, CondOp.EQ, "mike di meglio"),)))
    vocab = Vocab.build(Corpus([example]), {"t": table})
    cfg = ModelConfig(vocab_size=len(vocab), d_model=8, n_layers=1, n_heads=2, seed=0)
    serialized = serialize_input(tokenize(QUESTION), table.schema,
                                 sample_random(table, 2, 0), 128, question=QUESTION)
    feats = prepare_features(serialized, vocab)
    target, _ = make_target(example.gold, feats, cfg.max_conds)
    return cfg, init_params(cfg), feats, target, vocab


def test_finite_difference_check_rejects_a_wrong_gradient(table):
    cfg, params, feats, target, _ = _tiny_model(table)
    _, _, grads = example_loss_and_grads(params, cfg, feats, target)

    def loss(p):
        return example_loss(p, cfg, feats, target)

    assert checks.finite_difference_check(loss, params, grads, per_block=2) == []
    grads["enc0.ffn.w1"] = grads["enc0.ffn.w1"] * 1.01
    grads["sel.w"] = np.zeros_like(grads["sel.w"])
    problems = checks.finite_difference_check(loss, params, grads, per_block=2)
    assert any(p.startswith("enc0.ffn.w1") for p in problems)
    assert any(p.startswith("sel.w") for p in problems)


def test_history_check_rejects_a_rising_or_short_history():
    good = [{"loss": 3.0}, {"loss": 2.5}, {"loss": 2.0}]
    assert checks.check_history(good, 3) == []
    assert checks.check_history(good[:2], 3)
    assert checks.check_history([{"loss": 2.0}, {"loss": 2.1}], 2)
    assert checks.check_history([{"loss": 2.0}, {"loss": float("nan")}], 2)


def test_round_trip_check_rejects_one_flipped_bit(table, tmp_path):
    cfg, params, _, _, vocab = _tiny_model(table)
    saved = Checkpoint(cfg, vocab, params)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, saved)
    loaded = load_checkpoint(path)
    assert checks.check_round_trip(saved, loaded) == []
    raw = loaded.params["sel.w"].view(np.uint64)
    raw[0] ^= np.uint64(1)
    assert checks.check_round_trip(saved, loaded)
