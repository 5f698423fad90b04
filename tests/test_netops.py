"""The encoder kernels compute in place into reused workspace buffers; these
tests hold them to the plain expressions, bit for bit, and check the
workspace's lifetime rules. The encoder, whose last layer runs at the rows
the heads read, is held to a full-sequence reference within 1e-12."""

import tracemalloc

import numpy as np
import pytest

from nlsql import netops as nn
from nlsql import train as train_module
from nlsql.model import (
    FFN_MULT,
    INIT_STD,
    Features,
    Gradients,
    ModelConfig,
    encode,
    encode_bwd,
    init_params,
    prepare_features,
)
from nlsql.serialize import (
    SEG_HEADER,
    SEG_QUESTION,
    SEG_SAMPLE,
    SEG_SEPARATOR,
    serialize_input,
    tokenize,
)
from nlsql.synth import SynthConfig, generate_synthetic_corpus
from nlsql.train import Sampler, TrainConfig, train
from nlsql.vocab import Vocab

# ---------------------------------------------------------------------------
# The plain expressions the kernels must reproduce exactly.


def softmax(x):
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def softmax_bwd(dout, probs):
    inner = np.sum(dout * probs, axis=-1, keepdims=True)
    return probs * (dout - inner)


def linear_fwd(x, w, b):
    return x @ w + b, (x, w)


def linear_bwd(dout, cache):
    x, w = cache
    return dout @ w.T, x.T @ dout, dout.sum(axis=0)


def layernorm_fwd(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + nn.LN_EPS)
    xhat = xc * inv
    return xhat * g + b, (xhat, inv, g)


def layernorm_bwd(dout, cache):
    xhat, inv, g = cache
    dxhat = dout * g
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, (dout * xhat).sum(axis=0), dout.sum(axis=0)


C, A = np.sqrt(2.0 / np.pi), 0.044715


def gelu_fwd(x):
    t = np.tanh(C * (x + A * (x * x * x)))
    return 0.5 * x * (1.0 + t), (x, t)


def gelu_bwd(dout, cache):
    x, t = cache
    du_dx = C * (1.0 + 3.0 * A * x * x)
    return dout * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du_dx)


def attention_fwd(x, wq, bq, wk, bk, wv, bv, wo, bo, n_heads, rows=None):
    n, d = x.shape
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)
    xq = x if rows is None else x[rows]
    r = len(xq)
    q = (xq @ wq + bq).reshape(r, n_heads, dh).transpose(1, 0, 2)
    k = (x @ wk + bk).reshape(n, n_heads, dh).transpose(1, 0, 2)
    v = (x @ wv + bv).reshape(n, n_heads, dh).transpose(1, 0, 2)
    probs = softmax((q @ k.transpose(0, 2, 1)) * scale)
    merged = (probs @ v).transpose(1, 0, 2).reshape(r, d)
    return merged @ wo + bo, (x, xq, rows, q, k, v, probs, merged, wq, wk, wv, wo, scale)


def attention_bwd(dout, cache):
    x, xq, rows, q, k, v, probs, merged, wq, wk, wv, wo, scale = cache
    n, d = x.shape
    n_heads, r, dh = q.shape
    dwo = merged.T @ dout
    dbo = dout.sum(axis=0)
    dheads = (dout @ wo.T).reshape(r, n_heads, dh).transpose(1, 0, 2)
    dprobs = dheads @ v.transpose(0, 2, 1)
    dv = probs.transpose(0, 2, 1) @ dheads
    dscores = softmax_bwd(dprobs, probs) * scale
    dq = (dscores @ k).transpose(1, 0, 2).reshape(r, d)
    dk, dv = ((dscores.transpose(0, 2, 1) @ q).transpose(1, 0, 2).reshape(n, d),
              dv.transpose(1, 0, 2).reshape(n, d))
    dx_q = dq @ wq.T
    if rows is not None:  # zero at the rows that did not query
        dx_q = np.zeros((n, d))
        dx_q[rows] = dq @ wq.T
    dx = dx_q + dk @ wk.T + dv @ wv.T
    return dx, {"wq": xq.T @ dq, "bq": dq.sum(axis=0), "wk": x.T @ dk,
                "bk": dk.sum(axis=0), "wv": x.T @ dv, "bv": dv.sum(axis=0),
                "wo": dwo, "bo": dbo}


def reference_encode(feats, params, cfg):
    """(question_vecs, header_vecs) of the encoder run over every row of
    every layer, in the plain expressions."""
    n = len(feats.ids)
    x = (params["tok_emb"][feats.ids] + params["pos_emb"][:n]
         + params["seg_emb"][feats.segments])
    for i in range(cfg.n_layers):
        layer = {name[len(f"enc{i}."):]: value for name, value in params.items()
                 if name.startswith(f"enc{i}.")}
        a_in, _ = layernorm_fwd(x, layer["ln1.g"], layer["ln1.b"])
        a_out, _ = attention_fwd(a_in, *(layer["attn." + w] for w in (
            "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")), cfg.n_heads)
        x = x + a_out
        f_in, _ = layernorm_fwd(x, layer["ln2.g"], layer["ln2.b"])
        h1, _ = linear_fwd(f_in, layer["ffn.w1"], layer["ffn.b1"])
        h2, _ = gelu_fwd(h1)
        f_out, _ = linear_fwd(h2, layer["ffn.w2"], layer["ffn.b2"])
        x = x + f_out
    hidden, _ = layernorm_fwd(x, params["ln_f.g"], params["ln_f.b"])
    m = len(feats.question_spans)
    return hidden[1:1 + m], np.stack([hidden[start:end].mean(axis=0)
                                      for start, end in feats.header_spans])


# ---------------------------------------------------------------------------


def _assert_bitwise(got, want, where):
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            _assert_bitwise(got[key], want[key], f"{where}.{key}")
    elif want is None:
        assert got is None, where
    elif isinstance(want, tuple):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_bitwise(g, w, f"{where}[{i}]")
    else:
        assert np.array_equal(got, want), where


D, HEADS, FFN = 16, 4, 40
VOCAB = 50


def test_kernels_are_bitwise_the_plain_expressions():
    rng = np.random.default_rng(3)
    for length in (6, 11, 6):  # grow the buffers, then reuse a prefix of them
        x = rng.normal(size=(length, D))
        g, b = rng.normal(size=D), rng.normal(size=D)
        w1, b1 = rng.normal(size=(D, FFN)), rng.normal(size=FFN)
        attn = [rng.normal(size=s) for s in ((D, D), D) * 4]
        d_d, d_ffn = rng.normal(size=(length, D)), rng.normal(size=(length, FFN))
        h = rng.normal(size=(length, FFN)) * 2.0

        out, cache = nn.layernorm_fwd(x, g, b, slot="test.ln")
        want, want_cache = layernorm_fwd(x, g, b)
        _assert_bitwise((out, cache), (want, want_cache), f"layernorm_fwd n={length}")
        _assert_bitwise(nn.layernorm_bwd(d_d, cache, slot="test.ln"),
                        layernorm_bwd(d_d, want_cache), f"layernorm_bwd n={length}")

        out, cache = nn.linear_fwd(x, w1, b1, slot="test.lin")
        want, want_cache = linear_fwd(x, w1, b1)
        _assert_bitwise((out, cache), (want, want_cache), f"linear_fwd n={length}")
        _assert_bitwise(nn.linear_bwd(d_ffn, cache, slot="test.lin"),
                        linear_bwd(d_ffn, want_cache), f"linear_bwd n={length}")

        out, cache = nn.gelu_fwd(h, slot="test.gelu")
        want, want_cache = gelu_fwd(h)
        _assert_bitwise((out, cache), (want, want_cache), f"gelu_fwd n={length}")
        _assert_bitwise(nn.gelu_bwd(d_ffn, cache, slot="test.gelu"),
                        gelu_bwd(d_ffn, want_cache), f"gelu_bwd n={length}")

        for rows in (None, rng.permutation(length)[:length // 2 + 1]):
            where = f"n={length} rows={rows}"
            out, cache = nn.attention_fwd(x, *attn, HEADS, slot="test.attn", rows=rows)
            want, want_cache = attention_fwd(x, *attn, HEADS, rows)
            _assert_bitwise((out, cache), (want, want_cache), f"attention_fwd {where}")
            d_out = d_d if rows is None else d_d[:len(rows)]
            _assert_bitwise(nn.attention_bwd(d_out, cache, slot="test.attn"),
                            attention_bwd(d_out, want_cache), f"attention_bwd {where}")

        scores = rng.normal(size=(HEADS, length, length)) * 3.0
        probs = softmax(scores)
        assert np.array_equal(nn.softmax(scores), probs)
        assert np.array_equal(nn.softmax(scores.copy(), out=scores), probs)
        dprobs = rng.normal(size=probs.shape)
        want = softmax_bwd(dprobs, probs)
        assert np.array_equal(nn.softmax_bwd(dprobs, probs), want)
        assert np.array_equal(
            nn.softmax_bwd(dprobs, probs, out=np.empty_like(probs)), want)


def _random_features(rng, n: int) -> Features:
    """Features of n tokens in the serializer's layout: [CLS], m question
    tokens, [SEP], then per column a header run, its samples and a [SEP]."""
    m = int(rng.integers(1, n // 3))
    rest = n - 2 - m
    n_cols = int(rng.integers(1, min(12, rest // 2) + 1))
    # beyond one header token and one [SEP] per column, split the rest
    # between header runs and samples
    extra = rest - 2 * n_cols
    cuts = np.sort(rng.integers(0, extra + 1, size=2 * n_cols - 1))
    lengths = np.diff(np.concatenate([[0], cuts, [extra]]))
    segments = [SEG_SEPARATOR] + [SEG_QUESTION] * m + [SEG_SEPARATOR]
    header_spans = []
    for col in range(n_cols):
        header_spans.append((len(segments), len(segments) + 1 + lengths[2 * col]))
        segments += [SEG_HEADER] * (1 + lengths[2 * col])
        segments += [SEG_SAMPLE] * lengths[2 * col + 1] + [SEG_SEPARATOR]
    assert len(segments) == n
    return Features(ids=rng.integers(0, VOCAB, n), segments=np.array(segments),
                    header_spans=header_spans, question="",
                    question_spans=((0, 0),) * m, question_tokens=("",) * m)


@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_read_rows_match_a_full_sequence_encoder(n_layers):
    # The last layer runs at the read rows only; OpenBLAS may give a row
    # other last bits in a matmul over fewer rows, so the match is to 1e-12.
    rng = np.random.default_rng(n_layers)
    cfg = ModelConfig(vocab_size=VOCAB, d_model=32, n_layers=n_layers,
                      n_heads=4, seed=n_layers)
    params = init_params(cfg)
    for name, value in params.items():  # weights of std 0.3, so attention is not flat
        if name.startswith("enc") and value.ndim == 2:
            value *= 0.3 / INIT_STD
    for n in (9, 10, 47, 128, 300):
        feats = _random_features(rng, n)
        enc, _ = encode(feats, params, cfg)
        question_vecs, header_vecs = reference_encode(feats, params, cfg)
        assert enc.hidden.shape == (len(feats.read_rows), cfg.d_model)
        np.testing.assert_allclose(enc.question_vecs, question_vecs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(enc.header_vecs, header_vecs, rtol=0, atol=1e-12)


@pytest.fixture(scope="module")
def features():
    """Encoder features of two questions of different lengths, and a model
    of the serving shape (d_model 128, a 512-unit FFN)."""
    corpus, tables = generate_synthetic_corpus(SynthConfig(
        n_tables=2, rows_per_table=4, questions_per_table=3, seed=4))
    vocab = Vocab.build(corpus, tables)
    sampler = Sampler(tables, "rand", 2, 0)
    feats = []
    for example in corpus.examples[:2]:
        table = tables[example.table_id]
        serialized = serialize_input(
            tokenize(example.question), table.schema,
            sampler.sample_for(example.table_id, example.question), 512,
            question=example.question)
        feats.append(prepare_features(serialized, vocab))
    cfg = ModelConfig(vocab_size=len(vocab), d_model=128, n_layers=2, n_heads=4)
    return cfg, init_params(cfg), feats


def test_a_second_encode_allocates_less_than_one_ffn_block(features):
    cfg, params, (feats, _) = features
    encode(feats, params, cfg)
    tracemalloc.start()
    try:
        encode(feats, params, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Fresh arrays for every activation would peak at about 1.9 MB here.
    # What is left is numpy's iterator buffer for a broadcasting operand (at
    # most 64 KB) and the fresh output arrays.
    block = len(feats.ids) * FFN_MULT * cfg.d_model * 8
    assert peak < block, (peak, block)


def test_encode_bwd_rejects_a_stale_cache(features):
    cfg, params, (first, second) = features
    assert len(first.ids) != len(second.ids)
    enc, cache = encode(first, params, cfg)
    encode(second, params, cfg)
    with pytest.raises(ValueError, match="stale"):
        encode_bwd(np.ones_like(enc.hidden), params, cache, Gradients())


def test_encoder_outputs_kept_side_by_side_stay_distinct(features):
    cfg, params, (first, second) = features
    enc, _ = encode(first, params, cfg)
    kept = (enc.hidden.copy(), enc.header_vecs.copy(), enc.question_vecs.copy())
    other, _ = encode(second, params, cfg)
    again, _ = encode(first, params, cfg)
    for got, want, repeat in zip((enc.hidden, enc.header_vecs, enc.question_vecs),
                                 kept,
                                 (again.hidden, again.header_vecs, again.question_vecs)):
        assert np.array_equal(got, want) and np.array_equal(repeat, want)
        assert not np.shares_memory(got, repeat)
    assert not np.shares_memory(enc.hidden, other.hidden)


def test_no_gradient_block_lives_in_the_workspace(monkeypatch):
    corpus, tables = generate_synthetic_corpus(SynthConfig(
        n_tables=2, rows_per_table=4, questions_per_table=4, seed=6))
    step = train_module.AdamState.step
    checked = []

    def checked_step(self, params, grads, cfg):
        for name, g in grads.items():
            for slot, buf in nn.WORKSPACE.buffers.items():
                assert not np.shares_memory(g, buf), (name, slot)
        checked.append(len(grads))
        step(self, params, grads, cfg)

    monkeypatch.setattr(train_module.AdamState, "step", checked_step)
    train(corpus, tables, TrainConfig(epochs=1, batch_size=3, seed=0),
          model_config=ModelConfig(vocab_size=1, d_model=16, n_layers=2, n_heads=2))
    assert len(checked) >= 2 and nn.WORKSPACE.buffers
