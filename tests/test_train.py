import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import nlsql.train as train_module
from nlsql.corpus import Corpus, load_tables, save_tables
from nlsql.executor import execute
from nlsql.model import Gradients, ModelConfig
from nlsql.serialize import token_texts
from nlsql.sketch import AggOp, Example, SqlSketch, Table, TableSchema
from nlsql.synth import SynthConfig, generate_bench_table, generate_synthetic_corpus
from nlsql.train import (
    AdamState,
    Sampler,
    TrainConfig,
    compare_strategies,
    evaluate,
    parse_strategy,
    predict,
    train,
)
from nlsql.vocab import SPECIALS, Vocab


@pytest.fixture(scope="module")
def tiny_setup():
    config = SynthConfig(n_tables=3, rows_per_table=5, questions_per_table=4,
                         seed=2)
    corpus, tables = generate_synthetic_corpus(config)
    return corpus, tables


MODEL = ModelConfig(vocab_size=1, d_model=16, n_layers=1, n_heads=2, seed=0)


def test_parse_strategy():
    assert parse_strategy("rel:3") == ("rel", 3)
    assert parse_strategy("none") == ("none", 0)
    assert parse_strategy("rand") == ("rand", 3)
    assert parse_strategy("em1") == ("em1", 1)
    assert parse_strategy("em1:1") == ("em1", 1)
    for label in ("magic:1", "none:2", "em1:3", "rand:-1", "rand:x"):
        with pytest.raises(ValueError):
            parse_strategy(label)


def test_zero_learning_rate_freezes_parameters(tiny_setup):
    corpus, tables = tiny_setup
    config = TrainConfig(epochs=3, batch_size=8, lr=0.0, strategy="none", k=0,
                         seed=1)
    ckpt, history = train(corpus, tables, config, model_config=MODEL)
    from nlsql.model import init_params
    fresh = init_params(ckpt.config)
    for name, value in ckpt.params.items():
        assert np.array_equal(value, fresh[name])
    losses = [round(row["loss"], 12) for row in history]
    assert len(set(losses)) == 1


def test_same_seed_reproduces_first_epoch_loss(tiny_setup):
    corpus, tables = tiny_setup
    config = TrainConfig(epochs=1, batch_size=8, strategy="rand", k=2, seed=3)
    _, first = train(corpus, tables, config, model_config=MODEL)
    _, second = train(corpus, tables, config, model_config=MODEL)
    assert first[0]["loss"] == second[0]["loss"]


def test_stop_loss_halts_training_early(tiny_setup):
    corpus, tables = tiny_setup
    config = TrainConfig(epochs=50, batch_size=8, strategy="none", k=0,
                         seed=1, stop_loss=100.0)
    _, history = train(corpus, tables, config, model_config=MODEL)
    assert len(history) == 1  # first epoch already under the huge threshold


def test_train_rejects_empty_corpus(tiny_setup):
    _, tables = tiny_setup
    with pytest.raises(ValueError, match="empty"):
        train(Corpus([]), tables, TrainConfig(epochs=1), model_config=MODEL)


def test_gold_predictor_scores_perfectly(tiny_setup, monkeypatch):
    corpus, tables = tiny_setup
    config = TrainConfig(epochs=1, batch_size=8, strategy="none", k=0, seed=0)
    ckpt, _ = train(corpus, tables, config, model_config=MODEL)
    golds = iter([example.gold for example in corpus.examples])
    monkeypatch.setattr(train_module, "predict", lambda *args: next(golds))
    report = evaluate(ckpt, corpus, tables, "none", 0)
    assert report.lf_accuracy == 1.0
    assert report.ex_accuracy == 1.0
    assert all(v == 1.0 for v in report.subtask_accuracy.values())


def test_evaluate_rejects_empty_corpus(tiny_setup):
    corpus, tables = tiny_setup
    config = TrainConfig(epochs=1, batch_size=8, strategy="none", k=0, seed=0)
    ckpt, _ = train(corpus, tables, config, model_config=MODEL)
    with pytest.raises(ValueError, match="empty"):
        evaluate(ckpt, Corpus([]), tables, "none", 0)


def test_evaluate_is_deterministic(tiny_setup):
    corpus, tables = tiny_setup
    config = TrainConfig(epochs=2, batch_size=8, strategy="rand", k=2, seed=5)
    ckpt, _ = train(corpus, tables, config, model_config=MODEL)
    first = evaluate(ckpt, corpus, tables, "rand", 2, seed=5)
    second = evaluate(ckpt, corpus, tables, "rand", 2, seed=5)
    assert first.to_dict() == second.to_dict()
    assert first.predictions == second.predictions


def test_lf_implies_ex_in_reports(tiny_setup):
    corpus, tables = tiny_setup
    config = TrainConfig(epochs=2, batch_size=8, strategy="rel", k=2, seed=5)
    ckpt, _ = train(corpus, tables, config, model_config=MODEL)
    report = evaluate(ckpt, corpus, tables, "rel", 2, seed=5)
    for record in report.predictions:
        assert record["ex"] or not record["lf"]


def test_report_metrics_match_prediction_dump(tiny_setup):
    corpus, tables = tiny_setup
    config = TrainConfig(epochs=2, batch_size=8, strategy="rand", k=2, seed=5)
    ckpt, _ = train(corpus, tables, config, model_config=MODEL)
    report = evaluate(ckpt, corpus, tables, "rand", 2, seed=5)
    assert report.lf_accuracy == sum(p["lf"] for p in report.predictions) / report.n
    assert report.ex_accuracy == sum(p["ex"] for p in report.predictions) / report.n


def test_compare_strategies_rows(tiny_setup):
    corpus, tables = tiny_setup
    config = TrainConfig(epochs=1, batch_size=8, strategy="rand", k=2, seed=0)
    ckpt, _ = train(corpus, tables, config, model_config=MODEL)
    comparison = compare_strategies(ckpt, corpus, tables,
                                    ["none", "rand:2", "rel:2"])
    assert [row["strategy"] for row in comparison.rows] \
        == ["none", "rand:2", "rel:2"]
    single = compare_strategies(ckpt, corpus, tables, ["rand:2"])
    assert len(single.rows) == 1
    again = compare_strategies(ckpt, corpus, tables, ["rand:2"])
    assert single.rows == again.rows
    text = comparison.render_text()
    assert "strategy" in text and "rel:2" in text


def test_sampler_none_strategy_yields_empty_columns(tiny_setup):
    _, tables = tiny_setup
    table_id = next(iter(tables))
    sampler = Sampler(tables, "none", 0)
    samples = sampler.sample_for(table_id, "whatever")
    assert all(column == () for column in samples.columns)


def test_training_drops_unalignable_examples(tiny_setup):
    corpus, tables = tiny_setup
    from nlsql.sketch import AggOp, CondOp, Condition, Example, SqlSketch
    table_id = next(iter(tables))
    bad = Example("question without the value", table_id,
                  SqlSketch(0, AggOp.NONE,
                            (Condition(0, CondOp.EQ, "zzz missing"),)))
    mixed = Corpus(corpus.examples + [bad])
    config = TrainConfig(epochs=1, batch_size=8, strategy="none", k=0, seed=0)
    ckpt, _ = train(mixed, tables, config, model_config=MODEL)
    assert ckpt.extra["counters"]["unalignable"] == 1


def _textbook_adam_step(params, m, v, t, grads, cfg):
    beta1, beta2, eps = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults
    bias1 = 1.0 - beta1 ** t
    bias2 = 1.0 - beta2 ** t
    for name, g in grads.items():
        m[name] = beta1 * m[name] + (1 - beta1) * g
        v[name] = beta2 * v[name] + (1 - beta2) * g * g
        m_hat = m[name] / bias1
        v_hat = v[name] / bias2
        params[name] = params[name] - cfg.lr * m_hat / (np.sqrt(v_hat) + eps)


@pytest.mark.parametrize("lr", [None, 3e-4])  # None: TrainConfig's default
def test_in_place_adam_step_is_bitwise_textbook(lr):
    rng = np.random.default_rng(4)
    shapes = {"tok_emb": (40, 8), "enc0.ffn.w1": (8, 12), "sel.w": (8,),
              "agg.b2": (6,)}
    # Entries as small as an update, so a last-bit change in it shows.
    params = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 1, shape)
              for name, shape in shapes.items()}
    expected = {name: p.copy() for name, p in params.items()}
    m = {name: np.zeros(shape) for name, shape in shapes.items()}
    v = {name: np.zeros(shape) for name, shape in shapes.items()}
    cfg = TrainConfig() if lr is None else TrainConfig(lr=lr)
    adam = AdamState(params)
    grads = Gradients()  # one for the run, as train() keeps it
    flicker = 7  # a tok_emb row with a gradient at step 2 only
    for t in range(1, 4):
        dense = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3, shape)
                 for name, shape in shapes.items()}
        dense["tok_emb"][::3] = 0.0  # rows no example touched
        if t != 2:
            dense["tok_emb"][flicker] = 0.0
        _textbook_adam_step(expected, m, v, t, dense, cfg)
        grads.zero()
        for name, g in dense.items():
            if name == "tok_emb":
                touched = np.flatnonzero(np.any(g, axis=1))
                grads.add_rows(name, params[name], touched, g[touched])
            elif name in grads:
                grads[name] += g
            else:
                grads[name] = g.copy()
        adam.step(params, grads, cfg)
        for name in shapes:
            assert np.array_equal(adam.m[name], m[name]), (t, name)
            assert np.array_equal(adam.v[name], v[name]), (t, name)
            assert np.array_equal(params[name], expected[name]), (t, name)
    # At step 3 the row has no gradient but its moments still move it.
    assert m["tok_emb"][flicker].all()


@pytest.mark.parametrize("max_norm", [0.0, 1.0])
def test_clip_through_scratch_is_bitwise_textbook(max_norm):
    rng = np.random.default_rng(5)
    shapes = {"tok_emb": (300, 8), "enc0.ffn.w1": (8, 12), "sel.w": (8,)}
    dense = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    touched = np.arange(0, 300, 4)
    dense["tok_emb"][np.setdiff1d(np.arange(300), touched)] = 0.0
    grads = Gradients()
    grads.add_rows("tok_emb", dense["tok_emb"], touched, dense["tok_emb"][touched])
    for name in shapes:
        grads.setdefault(name, dense[name].copy())
    # the norm sums the squares of each block's rows that can be nonzero
    live = {name: dense[name][touched] if name == "tok_emb" else dense[name]
            for name in shapes}
    norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in live.values())))
    expected = {name: g * (max_norm / norm) if max_norm else g.copy()
                for name, g in dense.items()}
    scratch = np.full(300 * 8, np.nan)  # stale contents must not leak in
    assert train_module.clip_gradients(grads, max_norm, scratch) == norm
    for name in shapes:
        assert np.array_equal(grads[name], expected[name]), name


def test_an_optimizer_step_allocates_less_than_one_embedding_block(monkeypatch):
    corpus, tables = generate_synthetic_corpus(SynthConfig(
        n_tables=2, rows_per_table=5, questions_per_table=4, seed=2))
    codes = generate_bench_table(5000)
    tables[codes.table_id] = codes  # no question uses its cells' tokens
    step = train_module.AdamState.step
    peaks = []  # per step, the most bytes it allocated and held at once

    def traced_step(self, *args):
        step(self, *args)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.clear_traces()  # forget blocks allocated before

    monkeypatch.setattr(train_module.AdamState, "step", traced_step)
    config = TrainConfig(epochs=1, batch_size=4, strategy="none", k=0, seed=1)
    tracemalloc.start()
    try:
        ckpt, _ = train(corpus, tables, config, model_config=MODEL)
    finally:
        tracemalloc.stop()
    block = ckpt.params["tok_emb"].nbytes
    assert ckpt.config.vocab_size > 5000 and len(peaks) >= 2
    # The second step: accumulate a batch, clip and update.
    assert peaks[1] < block, (peaks, block)


def _row_scan_counts(corpus, tables):
    counts = Counter()
    for example in corpus.examples:
        counts.update(token_texts(example.question))
    for table in tables.values():
        for header in table.schema.headers:
            counts.update(token_texts(header))
        for row in table.rows:
            for cell in row:
                counts.update(token_texts(cell))
    for special in SPECIALS:
        counts.pop(special, None)
    return counts


def test_vocab_counts_cells_like_a_row_scan():
    table = Table(
        TableSchema("t", ("Name", "Team", "Pts"), ("text", "text", "real")),
        (
            ("alpha beta", "red", "10"),
            ("alpha beta", "", "10"),
            ("gamma", "red", ""),
            ("", "blue blue", "7"),
            ("delta", "red", "10"),
            ("alpha beta", "green", "7"),
        ),
    )
    other = Table(TableSchema("u", ("Team",), ("text",)),
                  (("red",), ("zeta",), ("",), ("zeta",)))
    tables = {"t": table, "u": other}
    corpus = Corpus([
        Example("which team has alpha", "t", SqlSketch(1, AggOp.NONE)),
        Example("pts of gamma", "t", SqlSketch(2, AggOp.NONE)),
    ])
    counts = _row_scan_counts(corpus, tables)
    ranked = sorted(counts, key=lambda t: (-counts[t], t))
    ties = 0
    for kept in range(len(ranked) + 2):
        expected = list(SPECIALS) + ranked[:kept]
        built = Vocab.build(corpus, tables, max_size=len(SPECIALS) + kept)
        assert built.tokens == expected
        if 0 < kept < len(ranked):
            ties += counts[ranked[kept - 1]] == counts[ranked[kept]]
    assert ties  # some caps cut between tokens of equal count


@pytest.mark.parametrize("clip_norm", [0.0, 1e-12, 0.05])
def test_history_reports_gradient_norms(tiny_setup, monkeypatch, clip_norm):
    corpus, tables = tiny_setup
    norms = []
    clip = train_module.clip_gradients

    def recording_clip(grads, max_norm, scratch):
        norms.append(clip(grads, max_norm, scratch))
        return norms[-1]

    monkeypatch.setattr(train_module, "clip_gradients", recording_clip)
    config = TrainConfig(epochs=2, batch_size=4, strategy="none", k=0, seed=1,
                         clip_norm=clip_norm)
    ckpt, history = train(corpus, tables, config, model_config=MODEL)
    steps = math.ceil(ckpt.extra["counters"]["trainable"] / config.batch_size)
    assert len(norms) == steps * len(history)
    for epoch, row in enumerate(history):
        epoch_norms = norms[epoch * steps:(epoch + 1) * steps]
        assert row["grad_norm_max"] == max(epoch_norms) > 0
        assert row["clipped_steps"] == sum(
            clip_norm > 0 and n > clip_norm for n in epoch_norms)
    if clip_norm == 1e-12:
        assert all(row["clipped_steps"] == steps for row in history)


def test_the_hot_paths_never_build_a_row(tmp_path, monkeypatch):
    # Tables loaded afresh hold no column store yet; with Table.rows raising,
    # sampling, serving, execution, the vocab, training and eval must read
    # the cells from the store alone.
    corpus, made = generate_synthetic_corpus(SynthConfig(
        n_tables=3, rows_per_table=5, questions_per_table=2, seed=5))
    save_tables(made, tmp_path / "tables.jsonl")
    tables = load_tables(tmp_path / "tables.jsonl")

    def no_rows(table):
        raise AssertionError(f"{table.table_id}: a row was built")

    monkeypatch.setattr(Table, "rows", property(no_rows))
    vocab = Vocab.build(corpus, tables)
    assert len(vocab) > len(SPECIALS)
    checkpoint, history = train(corpus, tables, TrainConfig(epochs=1, batch_size=4, k=2),
                                model_config=MODEL)
    assert len(history) == 1
    for strategy in ("none", "rand", "rel", "em1"):
        sampler = Sampler(tables, strategy, 2)
        for example in corpus.examples:
            table = tables[example.table_id]
            sketch = predict(checkpoint, sampler, table, example.question, 128)
            execute(sketch, table)
            execute(example.gold, table)
        assert evaluate(checkpoint, corpus, tables, strategy, 2, budget=128).n \
            == len(corpus.examples)
