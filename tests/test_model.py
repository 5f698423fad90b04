import errno
import json
import math
import random
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlsql import model
from nlsql.corpus import Corpus
from nlsql.model import (
    Checkpoint,
    Gradients,
    ModelConfig,
    Target,
    _batched_attention,
    decode_sketch,
    encode,
    example_loss,
    example_loss_and_grads,
    find_span,
    init_params,
    load_checkpoint,
    loss_from_heads,
    make_target,
    param_shapes,
    predict_heads,
    prepare_features,
    save_checkpoint,
)
from nlsql.sampling import sample_random
from nlsql.serialize import SEG_HEADER, SEG_QUESTION, serialize_input, tokenize
from nlsql.sketch import (
    AggOp,
    CondOp,
    Condition,
    Example,
    SqlSketch,
    Table,
    TableSchema,
    validate_sketch,
)
from nlsql.vocab import SPECIALS, Vocab


@pytest.fixture
def setup(motogp_table):
    example = Example(
        "grid of bmw rider with more than 200 laps",
        motogp_table.table_id,
        SqlSketch(3, AggOp.NONE, (Condition(1, CondOp.EQ, "bmw"),
                                  Condition(2, CondOp.GT, "200"))),
    )
    corpus = Corpus([example])
    tables = {motogp_table.table_id: motogp_table}
    vocab = Vocab.build(corpus, tables)
    cfg = ModelConfig(vocab_size=len(vocab), d_model=16, n_layers=2,
                      n_heads=2, seed=5)
    params = init_params(cfg)
    samples = sample_random(motogp_table, 2, seed=0)
    serialized = serialize_input(tokenize(example.question),
                                 motogp_table.schema, samples, 128,
                                 question=example.question)
    feats = prepare_features(serialized, vocab)
    target, _ = make_target(example.gold, feats, cfg.max_conds)
    return cfg, params, feats, target, example, motogp_table


def test_encoder_and_head_shapes(setup):
    cfg, params, feats, target, example, table = setup
    enc, _ = encode(feats, params, cfg)
    n = len(feats.ids)
    m = len(feats.question_spans)
    # hidden holds the rows the heads read: the question's, then the headers'
    r = m + sum(end - start for start, end in feats.header_spans)
    assert r < n
    assert enc.hidden.shape == (r, cfg.d_model)
    assert enc.header_vecs.shape == (table.schema.n_columns, cfg.d_model)
    assert enc.question_vecs.shape == (m, cfg.d_model)

    logits, _ = predict_heads(enc, params, cfg)
    assert {head: arr.shape for head, arr in logits.items()} == {
        "sel": (4,), "agg": (6,), "wnum": (cfg.max_conds + 1,), "wcol": (4,),
        "wop": (4, 3), "wvs": (4, m), "wve": (4, m)}
    assert np.all(np.isfinite(logits["sel"]))
    assert np.all(np.isfinite(logits["wcol"]))


def test_residual_stream_starts_at_unit_scale(setup):
    # Each pre-norm LayerNorm scales its input gradient by about 1/std, so a
    # residual stream that starts far below unit scale inflates every
    # gradient that flows back through it.
    cfg, _, feats, *_ = setup
    default = ModelConfig(vocab_size=cfg.vocab_size)
    _, (_, layer_caches, _, _) = encode(feats, init_params(default), default)
    _, inv, _ = layer_caches[0][0]  # enc0.ln1: inv = 1 / per-token std
    token_std = 1.0 / inv.ravel()
    assert np.all((token_std >= 0.5) & (token_std <= 3.0)), token_std


def test_encoder_rejects_overlong_input(setup):
    cfg, params, feats, *_ = setup
    small = ModelConfig(vocab_size=cfg.vocab_size, d_model=16, n_layers=1,
                        n_heads=2, max_positions=4)
    with pytest.raises(ValueError, match="max positions"):
        encode(feats, init_params(small), small)


def test_column_attention_uniform_for_identical_tokens():
    rng = np.random.default_rng(0)
    d, m, c = 8, 5, 3
    headers = rng.normal(size=(c, d))
    question = np.tile(rng.normal(size=d), (m, 1))
    w = rng.normal(size=(d, d))
    context, weights = _batched_attention(headers, question, w)
    assert weights.shape == (c, m)
    assert np.allclose(weights, 1.0 / m)
    assert np.allclose(context, np.tile(question[0], (c, 1)))


def test_column_attention_single_token_weight_one():
    rng = np.random.default_rng(1)
    context, weights = _batched_attention(
        rng.normal(size=(3, 4)), rng.normal(size=(1, 4)), rng.normal(size=(4, 4)))
    assert weights.shape == (3, 1)
    assert weights.ravel() == pytest.approx([1.0, 1.0, 1.0])


def test_column_attention_weights_sum_to_one():
    rng = np.random.default_rng(2)
    for _ in range(10):
        _, weights = _batched_attention(
            rng.normal(size=(4, 6)), rng.normal(size=(7, 6)), rng.normal(size=(6, 6)))
        assert weights.shape == (4, 7)
        assert np.all(np.abs(weights.sum(axis=1) - 1.0) < 1e-6)


def test_permuting_column_blocks_permutes_header_vectors(motogp_table):
    schema = motogp_table.schema
    swapped_schema = TableSchema(
        "swapped",
        (schema.headers[1], schema.headers[0]) + schema.headers[2:],
        (schema.types[1], schema.types[0]) + schema.types[2:],
    )
    corpus = Corpus([Example("bmw grid", schema.table_id, SqlSketch(0))])
    vocab = Vocab.build(corpus, {schema.table_id: motogp_table})
    cfg = ModelConfig(vocab_size=len(vocab), d_model=16, n_layers=2, n_heads=2)
    params = init_params(cfg)
    params["pos_emb"][:] = 0.0  # ablate positions: block order must not matter

    def header_vecs(s):
        serialized = serialize_input(tokenize("bmw grid"), s, None, 64,
                                     question="bmw grid")
        feats = prepare_features(serialized, vocab)
        enc, _ = encode(feats, params, cfg)
        return enc.header_vecs

    original = header_vecs(schema)
    swapped = header_vecs(swapped_schema)
    assert np.allclose(original[0], swapped[1], atol=1e-10)
    assert np.allclose(original[1], swapped[0], atol=1e-10)


def head_logits(m=6, **heads):
    """``predict_heads``-shaped logits for 4 columns and m question
    positions: the arrays given by head name, zeros for the other heads."""
    zeros = {"sel": np.zeros(4), "agg": np.zeros(6), "wnum": np.zeros(5), "wcol": np.zeros(4),
             "wop": np.zeros((4, 3)), "wvs": np.zeros((4, m)), "wve": np.zeros((4, m))}
    return {**zeros, **heads}


def test_uniform_sel_logits_costs_ln4():
    target = Target(sel=1, agg=0, n_conds=0, wcol=np.zeros(4), conds=[])
    _, breakdown, _ = loss_from_heads(head_logits(), target)
    assert breakdown["sel"] == pytest.approx(math.log(4))


def test_perfect_predictions_drive_loss_to_zero():
    big = 40.0
    sel = np.full(4, -big)
    sel[2] = big
    agg = np.full(6, -big)
    agg[3] = big
    wnum = np.full(5, -big)
    wnum[1] = big
    wcol_logits = np.full(4, -big)
    wcol_logits[1] = big
    wop = np.full((4, 3), -big)
    wop[1, 0] = big
    starts = np.full((4, 6), -big)
    ends = np.full((4, 6), -big)
    starts[1, 2] = big
    ends[1, 3] = big
    heads = head_logits(sel=sel, agg=agg, wnum=wnum, wcol=wcol_logits, wop=wop,
                        wvs=starts, wve=ends)
    wcol = np.zeros(4)
    wcol[1] = 1.0
    target = Target(sel=2, agg=3, n_conds=1, wcol=wcol, conds=[(1, 0, 2, 3)])
    total, _, _ = loss_from_heads(heads, target)
    assert total < 1e-6


def test_param_shapes_are_the_blocks_initialised_and_trained(setup):
    cfg, params, feats, target, *_ = setup
    shapes = param_shapes(cfg)
    assert [(name, p.shape) for name, p in params.items()] == list(shapes.items())
    _, _, grads = example_loss_and_grads(params, cfg, feats, target)
    assert {name: g.shape for name, g in grads.items()} == shapes


def test_gradients_match_finite_differences_spot(setup):
    cfg, params, feats, target, *_ = setup
    _, _, grads = example_loss_and_grads(params, cfg, feats, target)
    rng = np.random.default_rng(7)
    h = 1e-5
    for name in ("tok_emb", "enc0.attn.wq", "enc1.ffn.w1", "ln_f.g",
                 "sel.att_w", "wcol.w", "wvs.u", "wnum.u", "agg.w2", "wop.b"):
        flat = params[name].reshape(-1)
        for i in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            keep = flat[i]
            flat[i] = keep + h
            up = example_loss(params, cfg, feats, target)
            flat[i] = keep - h
            down = example_loss(params, cfg, feats, target)
            flat[i] = keep
            fd = (up - down) / (2 * h)
            an = grads[name].reshape(-1)[i]
            assert abs(an - fd) <= 1e-4 * max(abs(an), abs(fd), 1e-3), name


def test_batch_accumulation_equals_sum_of_example_gradients(motogp_table):
    questions = [
        ("laps of derbi rider with grid 20 and laps over 1",
         SqlSketch(2, AggOp.NONE, (Condition(1, CondOp.EQ, "derbi"),))),
        ("grid of honda rider", SqlSketch(
            3, AggOp.NONE, (Condition(1, CondOp.EQ, "honda"),))),
        ("rider of ktm with grid 25", SqlSketch(
            0, AggOp.NONE, (Condition(3, CondOp.EQ, "25"),))),
    ]
    examples = [Example(q, motogp_table.table_id, gold) for q, gold in questions]
    tables = {motogp_table.table_id: motogp_table}
    vocab = Vocab.build(Corpus(examples), tables)
    cfg = ModelConfig(vocab_size=len(vocab), d_model=16, n_layers=2,
                      n_heads=2, seed=3)
    params = init_params(cfg)
    samples = sample_random(motogp_table, 2, seed=0)
    prepared = []
    for example in examples:
        serialized = serialize_input(tokenize(example.question),
                                     motogp_table.schema, samples, 128,
                                     question=example.question)
        feats = prepare_features(serialized, vocab)
        target, _ = make_target(example.gold, feats, cfg.max_conds)
        prepared.append((feats, target))
    ids = [feats.ids.tolist() for feats, _ in prepared]
    assert len(set(ids[0])) < len(ids[0])  # "laps" repeats within one example
    shared = set(ids[0]) & set(ids[1]) & set(ids[2])
    assert vocab.index["rider"] in shared and vocab.index["grid"] in shared

    expected: dict = {}
    for feats, target in prepared:
        _, _, grads = example_loss_and_grads(params, cfg, feats, target)
        for name, g in grads.items():
            if name in expected:
                expected[name] += g
            else:
                expected[name] = g

    batch = Gradients()
    for feats, target in prepared:
        _, _, returned = example_loss_and_grads(params, cfg, feats, target,
                                                grads=batch)
        assert returned is batch
    assert list(batch) == list(expected)  # clipping sums the norm in this order
    for name, g in expected.items():
        assert batch[name].shape == params[name].shape, name
        assert np.array_equal(batch[name], g), name

    # The row-sparse embedding gradients of the first example, at the
    # repeated token's row and at its first and last positions.
    feats, target = prepared[0]
    _, _, grads = example_loss_and_grads(params, cfg, feats, target)
    repeated = next(i for i in ids[0] if ids[0].count(i) > 1)
    last = len(ids[0]) - 1
    h = 1e-5
    for name, row in (("tok_emb", repeated), ("pos_emb", 0), ("pos_emb", last),
                      ("seg_emb", int(feats.segments[0]))):
        for col in (0, cfg.d_model - 1):
            keep = params[name][row, col]
            params[name][row, col] = keep + h
            up = example_loss(params, cfg, feats, target)
            params[name][row, col] = keep - h
            down = example_loss(params, cfg, feats, target)
            params[name][row, col] = keep
            fd = (up - down) / (2 * h)
            an = grads[name][row, col]
            assert abs(an - fd) <= 1e-4 * max(abs(an), abs(fd), 1e-3), (name, row)


def test_decode_empty_when_wnum_zero(setup):
    *_, example, table = setup
    m = 5
    heads = head_logits(m, sel=np.array([0.1, 0.9, 0.0, 0.0]),
                        wnum=np.array([5.0, 0, 0, 0, 0]))
    spans = tuple((i, i + 1) for i in range(m))
    sketch = decode_sketch(heads, table.schema, "a b c d e", spans)
    assert sketch.conds == ()
    assert sketch.select_column == 1


def test_decode_top_n_columns_and_tie_break(setup):
    *_, table = setup
    m = 4
    wnum = np.zeros(5)
    wnum[2] = 9.0
    heads = head_logits(m, wnum=wnum, wcol=np.array([0.9, 0.1, 0.8, 0.2]))
    spans = tuple((i, i + 1) for i in range(m))
    sketch = decode_sketch(heads, table.schema, "a b c d", spans)
    assert [c.column_index for c in sketch.conds] == [0, 2]

    tie = np.array([0.3, 0.5, 0.2, 0.5])
    wnum1 = np.zeros(5)
    wnum1[1] = 9.0
    heads_tie = head_logits(m, wnum=wnum1, wcol=tie)
    sketch = decode_sketch(heads_tie, table.schema, "a b c d", spans)
    assert [c.column_index for c in sketch.conds] == [1]


def test_decode_ranks_where_columns_past_sigmoid_saturation(setup):
    # sigmoid(40) and sigmoid(50) both round to 1.0; the logits still differ.
    *_, table = setup
    m = 4
    wnum = np.zeros(5)
    wnum[1] = 9.0
    heads = head_logits(m, wnum=wnum, wcol=np.array([40.0, 50.0, 0.0, 0.0]))
    spans = tuple((i, i + 1) for i in range(m))
    sketch = decode_sketch(heads, table.schema, "a b c d", spans)
    assert [c.column_index for c in sketch.conds] == [1]


def test_decode_respects_span_length_and_boundaries(setup):
    *_, table = setup
    m = 6
    starts = np.zeros((4, m))
    ends = np.zeros((4, m))
    starts[0, 1] = 5.0
    ends[0, 4] = 5.0
    wnum = np.zeros(5)
    wnum[1] = 9.0
    heads = head_logits(m, wnum=wnum, wcol=np.array([0.9, 0.1, 0.1, 0.1]),
                        wvs=starts, wve=ends)
    question = "alpha beta gamma delta echo fox"
    tokens = tokenize(question)
    spans = tuple((t.start, t.end) for t in tokens)
    sketch = decode_sketch(heads, table.schema, question, spans, max_span_len=16)
    assert sketch.conds[0].value == "beta gamma delta echo"
    # with spans capped at 2 tokens the (1, 4) pair is invalid; the earliest
    # of the tied remaining maxima wins
    short = decode_sketch(heads, table.schema, question, spans, max_span_len=2)
    assert short.conds[0].value == "beta"


def _loop_span(starts, ends, max_span_len):
    """The best (start, end) as a loop over starts: the first best end within
    a start, then the first start with the best score."""
    best, best_span = -np.inf, (0, 0)
    for s in range(len(starts)):
        e_rel = int(np.argmax(ends[s:min(len(ends), s + max_span_len)]))
        if starts[s] + ends[s + e_rel] > best:
            best, best_span = starts[s] + ends[s + e_rel], (s, s + e_rel)
    return best_span


def test_decode_span_equals_the_loop_over_starts_with_ties(setup):
    *_, table = setup
    rng = np.random.default_rng(11)
    wnum = np.zeros(5)
    wnum[4] = 9.0
    for trial in range(300):
        m = int(rng.integers(1, 25))
        max_span_len = int(rng.choice([1, 2, 3, 5, 16]))
        # few distinct values force ties within and across starts
        draw = (lambda shape: rng.integers(-2, 3, size=shape).astype(float)) \
            if trial % 3 else (lambda shape: rng.normal(size=shape))
        starts, ends = draw((4, m)), draw((4, m))
        heads = head_logits(m, wnum=wnum, wvs=starts, wve=ends)
        question = " ".join(f"w{i}" for i in range(m))
        spans = tuple((t.start, t.end) for t in tokenize(question))
        sketch = decode_sketch(heads, table.schema, question, spans, max_span_len)
        for cond in sketch.conds:
            start, end = _loop_span(starts[cond.column_index],
                                    ends[cond.column_index], max_span_len)
            assert cond.value == question[spans[start][0]:spans[end][1]]


def test_decoded_sketch_always_validates(setup):
    cfg, params, feats, target, example, table = setup
    enc, _ = encode(feats, params, cfg)
    heads, _ = predict_heads(enc, params, cfg)
    sketch = decode_sketch(heads, table.schema, feats.question,
                           feats.question_spans, cfg.max_span_len)
    assert validate_sketch(sketch, table.schema) == []


def test_sel_argmax_scale_invariance(setup):
    cfg, params, feats, target, example, table = setup
    enc, _ = encode(feats, params, cfg)
    heads, _ = predict_heads(enc, params, cfg)
    scaled = {**heads, "sel": heads["sel"] * 7.0}
    a = decode_sketch(heads, table.schema, feats.question, feats.question_spans)
    b = decode_sketch(scaled, table.schema, feats.question, feats.question_spans)
    assert a.select_column == b.select_column


def test_find_span_first_occurrence_and_ambiguity():
    tokens = ("laps", "over", "200", "and", "200", "grid")
    span, hits = find_span(tokens, "200")
    assert span == (2, 2) and hits == 2
    span, hits = find_span(tokens, "missing value")
    assert span is None and hits == 0


def test_make_target_drops_unalignable(setup):
    cfg, params, feats, *_ = setup
    gold = SqlSketch(0, AggOp.NONE, (Condition(0, CondOp.EQ, "absent"),))
    target, _ = make_target(gold, feats, cfg.max_conds)
    assert target is None


@pytest.mark.parametrize("sel, cond_column", [(-1, 0), (0, -1), (4, 0), (0, 4)],
                         ids=["sel-minus-1", "cond-minus-1", "sel-past-end", "cond-past-end"])
def test_make_target_drops_a_column_outside_the_table(setup, sel, cond_column):
    # -1 must not supervise the last of the 4 columns
    cfg, _, feats, _, example, _ = setup
    value = feats.question_tokens[0]
    gold = SqlSketch(sel, AggOp.NONE, (Condition(cond_column, CondOp.EQ, value),))
    assert make_target(gold, feats, cfg.max_conds) == (None, False)


@given(st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_encoder_reads_the_rows_the_labels_name(seed):
    # The encoder reads the rows labelled as question, then each column's
    # header rows; the question vectors are those rows of the output, bit for
    # bit, and each header vector the mean of its column's rows.
    rng = random.Random(seed)
    words = ["alpha", "beta", "42", "3.5", "gamma-delta", "x"]
    n_cols = rng.randint(1, 5)
    headers = tuple(" ".join(rng.choices(words, k=rng.randint(1, 3)))
                    for _ in range(n_cols))
    schema = TableSchema("t", headers, ("text",) * n_cols)
    table = Table(schema, [[rng.choice(words) for _ in range(n_cols)]
                           for _ in range(4)])
    question = " ".join(rng.choices(words, k=rng.randint(1, 8)))
    vocab = Vocab.build(Corpus([Example(question, "t", SqlSketch(0))]),
                        {"t": table})
    cfg = ModelConfig(vocab_size=len(vocab), d_model=8, n_layers=1, n_heads=2)
    serialized = serialize_input(tokenize(question), schema,
                                 sample_random(table, 2, seed), 128,
                                 question=question)
    feats = prepare_features(serialized, vocab)
    enc, _ = encode(feats, init_params(cfg), cfg)
    labels = list(zip(serialized.segments, serialized.columns))
    question_rows = [i for i, (seg, _) in enumerate(labels) if seg == SEG_QUESTION]
    header_rows = [[i for i, label in enumerate(labels) if label == (SEG_HEADER, col)]
                   for col in range(n_cols)]
    assert feats.read_rows.tolist() == question_rows + sum(header_rows, [])
    m = len(question_rows)
    assert enc.question_vecs.tobytes() == enc.hidden[:m].tobytes()
    start = m
    for col, rows in enumerate(header_rows):
        assert enc.header_vecs[col].tobytes() \
            == enc.hidden[start:start + len(rows)].mean(axis=0).tobytes()
        start += len(rows)


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_head_shapes_hold_for_arbitrary_inputs(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    n_cols = rng.randint(1, 6)
    headers = tuple(f"col{i}" for i in range(n_cols))
    schema = TableSchema("t", headers, ("text",) * n_cols)
    words = ["alpha", "beta", "42", "gamma", "delta"]
    question = " ".join(rng.choice(words) for _ in range(rng.randint(1, 12)))
    example = Example(question, "t", SqlSketch(0))
    table = Table(schema, ())
    vocab = Vocab.build(Corpus([example]), {"t": table})
    cfg = ModelConfig(vocab_size=len(vocab), d_model=16, n_layers=1, n_heads=2)
    params = init_params(cfg)
    serialized = serialize_input(tokenize(question), schema, None, 256,
                                 question=question)
    feats = prepare_features(serialized, vocab)
    enc, _ = encode(feats, params, cfg)
    heads, _ = predict_heads(enc, params, cfg)
    m = len(feats.question_spans)
    assert {head: arr.shape for head, arr in heads.items()} == {
        "sel": (n_cols,), "agg": (6,), "wnum": (cfg.max_conds + 1,), "wcol": (n_cols,),
        "wop": (n_cols, 3), "wvs": (n_cols, m), "wve": (n_cols, m)}
    for arr in heads.values():
        assert np.all(np.isfinite(arr))
    sketch = decode_sketch(heads, schema, question, feats.question_spans,
                           cfg.max_span_len)
    assert validate_sketch(sketch, schema) == []
    for cond in sketch.conds:
        assert cond.value in question


def test_checkpoint_round_trip(tmp_path, setup):
    cfg, params, feats, target, example, table = setup
    vocab = Vocab.build(Corpus([example]), {table.table_id: table})
    ckpt = Checkpoint(cfg, vocab, params, extra={"note": 1})
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.config == cfg
    assert loaded.vocab.tokens == vocab.tokens
    assert loaded.extra == {"note": 1}
    assert set(loaded.params) == set(params)
    for name in params:
        assert np.array_equal(loaded.params[name], params[name])


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 16)
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(path)


def _big_checkpoint():
    vocab = Vocab(list(SPECIALS) + [f"w{i}" for i in range(1994)])
    cfg = ModelConfig(vocab_size=len(vocab), d_model=128, n_layers=2, n_heads=2)
    return Checkpoint(cfg, vocab, init_params(cfg))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def _rewrite(path, edit_header=None, payload_bytes=None):
    """Rewrite a checkpoint with an edited header and/or a cut payload. The
    header is written unpadded, as before the payload was aligned."""
    data = path.read_bytes()
    (header_len,) = struct.unpack("<Q", data[8:16])
    header = json.loads(data[16:16 + header_len])
    payload = data[16 + header_len:]
    if edit_header:
        edit_header(header)
    raw = json.dumps(header).encode()
    path.write_bytes(data[:8] + struct.pack("<Q", len(raw)) + raw
                     + payload[:payload_bytes])


def _payload_start(path) -> int:
    (header_len,) = struct.unpack("<Q", path.read_bytes()[8:16])
    return 16 + header_len


def test_checkpoint_io_holds_no_second_copy_of_the_tensors(tmp_path):
    ckpt = _big_checkpoint()
    tensor_bytes = sum(a.nbytes for a in ckpt.params.values())
    path = tmp_path / "big.ckpt"
    save_peak, _ = _traced_peak(save_checkpoint, path, ckpt)
    load_peak, loaded = _traced_peak(load_checkpoint, path)
    assert save_peak < 0.25 * tensor_bytes
    assert load_peak < 0.1 * tensor_bytes  # views of the mapped file
    for name, arr in ckpt.params.items():
        assert np.array_equal(loaded.params[name], arr)
    _rewrite(path, edit_header=lambda header: header["extra"].update(note="x"))
    assert _payload_start(path) % 8
    load_peak, loaded = _traced_peak(load_checkpoint, path)
    assert load_peak < 1.2 * tensor_bytes  # read once, into the arrays
    for name, arr in ckpt.params.items():
        assert np.array_equal(loaded.params[name], arr)


def _saved(tmp_path, setup, params=None) -> tuple:
    """Save the fixture's model, or ``params`` in its place, to model.ckpt."""
    cfg, default_params, feats, target, example, table = setup
    vocab = Vocab.build(Corpus([example]), {table.table_id: table})
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, Checkpoint(cfg, vocab, params or default_params))
    return path, default_params


def test_the_padded_header_is_plain_json_before_an_aligned_payload(tmp_path, setup):
    path, params = _saved(tmp_path, setup)
    data = path.read_bytes()
    (header_len,) = struct.unpack("<Q", data[8:16])
    assert (16 + header_len) % 64 == 0
    header = json.loads(data[16:16 + header_len])
    assert header["version"] == 1 and len(header["tensors"]) == len(params)
    loaded = load_checkpoint(path)
    for name, arr in params.items():
        got = loaded.params[name]
        assert not got.flags.owndata  # a view of the mapped file
        assert got.flags.aligned and got.flags.writeable
        assert got.tobytes() == arr.tobytes()


def test_a_checkpoint_without_header_padding_loads_as_before(tmp_path, setup):
    residues = set()
    for width in range(8):  # moves the payload's start through every residue mod 8
        path, params = _saved(tmp_path, setup)
        _rewrite(path, edit_header=lambda header: header["extra"].update(note="x" * width))
        residue = _payload_start(path) % 8
        residues.add(residue)
        loaded = load_checkpoint(path)
        assert loaded.extra == {"note": "x" * width}
        for name, arr in params.items():
            got = loaded.params[name]
            assert got.tobytes() == arr.tobytes() and got.flags.writeable
            # read into an array of its own, unless the payload is aligned by chance
            assert got.flags.owndata == bool(residue)
    assert residues == set(range(8))


def test_saving_over_a_loaded_checkpoint_leaves_its_tensors_as_loaded(tmp_path, setup):
    path, params = _saved(tmp_path, setup)
    loaded = load_checkpoint(path)
    _saved(tmp_path, setup, {name: arr + 1.0 for name, arr in params.items()})
    for name, arr in params.items():
        assert loaded.params[name].tobytes() == arr.tobytes()
    reloaded = load_checkpoint(path)
    assert np.array_equal(reloaded.params["sel.w"], params["sel.w"] + 1.0)


class _FullDisk:
    """A file that takes its first ``writes`` writes and fails the next."""

    def __init__(self, file, mode, writes):
        self.handle, self.writes = open(file, mode), writes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, data):
        if not self.writes:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.writes -= 1
        return self.handle.write(data)


def test_a_save_that_fails_part_way_leaves_the_old_file_and_no_other(tmp_path, setup,
                                                                     monkeypatch):
    path, params = _saved(tmp_path, setup)
    before = path.read_bytes()
    # The magic, header length, header and one tensor are written; the next fails.
    monkeypatch.setattr(model, "open", lambda file, mode: _FullDisk(file, mode, 4),
                        raising=False)
    with pytest.raises(OSError, match="No space left"):
        _saved(tmp_path, setup, {name: arr + 1.0 for name, arr in params.items()})
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_a_write_to_a_loaded_tensor_leaves_the_file_unchanged(tmp_path, setup):
    path, params = _saved(tmp_path, setup)
    before = path.read_bytes()
    loaded = load_checkpoint(path)
    loaded.params["sel.w"].view(np.uint64)[0] ^= np.uint64(1)
    loaded.params["tok_emb"][:] = 0.0
    assert path.read_bytes() == before
    assert load_checkpoint(path).params["sel.w"].tobytes() == params["sel.w"].tobytes()


def _cut_last_tensor(header):
    header["tensors"][-1]["nbytes"] -= 8


@pytest.mark.parametrize("damage, message", [
    (lambda path: _rewrite(path, payload_bytes=-100), "truncated tensor"),
    (lambda path: path.write_bytes(path.read_bytes()[:-100]),
     "truncated tensor 'wvs.w' (28 of 128 bytes)"),
    (lambda path: path.write_bytes(path.read_bytes()[:200]), "truncated header"),
    (lambda path: _rewrite(path, edit_header=_cut_last_tensor),
     "tensor 'wvs.w' has 120 bytes for shape [16]"),
    (lambda path: _rewrite(path, edit_header=lambda header:
                           header["tensors"][0].update(offset=-8)),
     "tensor 'agg.att_w' has offset -8"),
], ids=["truncated", "truncated-aligned", "header-past-end", "nbytes-vs-shape",
        "negative-offset"])
def test_damaged_checkpoint_raises_naming_the_file(tmp_path, setup, damage,
                                                   message):
    cfg, params, feats, target, example, table = setup
    vocab = Vocab.build(Corpus([example]), {table.table_id: table})
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, Checkpoint(cfg, vocab, params))
    damage(path)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load_checkpoint(path)
