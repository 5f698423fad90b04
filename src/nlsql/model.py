"""Desk-scale transformer encoder with six sketch-decoding heads.

The encoder is a small pre-norm transformer over token + position + segment
embeddings, trained from scratch in float64, one ``_block_fwd``/``_block_bwd``
pair per layer. Six heads read the encoded question and header tokens, and
only those, so the last block (the pair's ``rows``) runs its queries and FFN,
and the final LayerNorm runs, at those rows alone; the sample and separator
tokens serve as keys and values. The heads are: select column, aggregation,
where-count, where-column (sigmoid per column), where-operator, and
where-value start/end span pointers over the question positions. Column
attention links headers to the question: a pooled header vector attends over
question tokens through a learned bilinear map, one map per head type.

All gradients are hand-derived; the finite-difference suite checks every
parameter block.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
from dataclasses import asdict, dataclass, field
from itertools import groupby

import numpy as np

from . import netops as nn
from .serialize import DEFAULT_BUDGET, N_SEGMENTS, SEG_HEADER, SerializedInput, token_texts
from .sketch import MAX_CONDS, AggOp, CondOp, Condition, SqlSketch, TableSchema
from .util import all_str
from .vocab import SPECIALS, Vocab


FFN_MULT = 4  # the FFN is FFN_MULT * d_model wide
INIT_STD = 0.02  # weight std; embedding tables are N(0, 1)
MAX_SPAN_LEN = 16  # the longest where-value span, in question tokens


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 128
    n_layers: int = 2
    n_heads: int = 4
    max_positions: int = DEFAULT_BUDGET
    seed: int = 0
    # Fixed limits; unannotated, so no constructor or checkpoint takes them.
    max_conds = MAX_CONDS
    max_span_len = MAX_SPAN_LEN

    def __post_init__(self):
        for name, value in asdict(self).items():
            if type(value) is not int:
                raise TypeError(f"ModelConfig.{name} must be an int, got {value!r}")
        if min(self.vocab_size, self.d_model, self.n_layers, self.n_heads,
               self.max_positions) < 1:
            raise ValueError("all ModelConfig dimensions must be >= 1")
        if self.d_model % self.n_heads:
            raise ValueError("d_model must be divisible by n_heads")


N_AGG = len(AggOp)
N_OPS = len(CondOp)


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Each parameter block's name and shape, in the order ``init_params``
    draws them; a checkpoint's tensors must be exactly these."""
    d, f = cfg.d_model, FFN_MULT * cfg.d_model
    shapes = {"tok_emb": (cfg.vocab_size, d), "pos_emb": (cfg.max_positions, d),
              "seg_emb": (N_SEGMENTS, d)}
    layer = [("ln1.g", d), ("ln1.b", d), *((f"attn.w{x}", d, d) for x in "qkvo"),
             *((f"attn.b{x}", d) for x in "qkvo"), ("ln2.g", d), ("ln2.b", d),
             ("ffn.w1", d, f), ("ffn.b1", f), ("ffn.w2", f, d), ("ffn.b2", d)]
    column = [("att_w", d, d), ("u", d, d), ("v", d, d), ("b", d)]  # see _column_head_fwd
    hidden = [("w1", d, d), ("b1", d)]  # see _mlp_fwd
    groups = {**{f"enc{i}": layer for i in range(cfg.n_layers)},
              "ln_f": [("g", d), ("b", d)],
              "sel": column + [("w", d)], "wcol": column + [("w", d)],
              "agg": [("att_w", d, d), *hidden, ("w2", d, N_AGG), ("b2", N_AGG)],
              "wnum": [("u", d), *hidden, ("w2", d, MAX_CONDS + 1), ("b2", MAX_CONDS + 1)],
              "wop": column + [("w2", d, N_OPS), ("b2", N_OPS)],
              "wvs": column[1:] + [("w", d)], "wve": column[1:] + [("w", d)]}
    for group, blocks in groups.items():
        shapes.update({f"{group}.{name}": tuple(shape) for name, *shape in blocks})
    return shapes


def init_params(cfg: ModelConfig) -> dict[str, np.ndarray]:
    """One array per ``param_shapes`` block, drawn in its order: LayerNorm
    gains ones, biases zeros, other weights N(0, INIT_STD), and the ``*_emb``
    tables N(0, 1), so the pre-norm residual stream starts at unit scale (at
    INIT_STD its sigma of ~0.035 would blow the LayerNorm gradients up ~30x
    and leave each Adam step large against the 0.02-sized entries)."""
    rng = np.random.default_rng(cfg.seed)
    params = {}
    for name, shape in param_shapes(cfg).items():
        kind = name.rpartition(".")[2]
        if kind == "g" or kind.startswith("b"):  # a LayerNorm gain, or a bias
            params[name] = np.ones(shape) if kind == "g" else np.zeros(shape)
        else:
            std = 1.0 if name.endswith("_emb") else INIT_STD
            params[name] = rng.normal(0.0, std, size=shape)
    return params


# ---------------------------------------------------------------------------
# Features and supervision targets


@dataclass
class Features:
    ids: np.ndarray
    segments: np.ndarray
    header_spans: list[tuple[int, int]]  # per column, its header's [start, end)
    question: str
    question_spans: tuple[tuple[int, int], ...]  # positions 1..m hold the question
    question_tokens: tuple[str, ...]
    # The positions the heads read: the question's 1..m, then each header run
    read_rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rows = list(range(1, 1 + len(self.question_spans)))
        for start, end in self.header_spans:
            rows.extend(range(start, end))
        self.read_rows = np.array(rows, dtype=np.intp)

    def read_header_spans(self):
        """Each column's header run as [start, end) rows of ``read_rows``."""
        start = len(self.question_spans)
        for first, last in self.header_spans:
            yield start, start + last - first
            start += last - first


def prepare_features(serialized: SerializedInput, vocab: Vocab) -> Features:
    """Positions come from the layout the ``serialize`` docstring states."""
    header_spans = []
    start = 0
    for (segment, _), run in groupby(zip(serialized.segments, serialized.columns)):
        end = start + sum(1 for _ in run)
        if segment == SEG_HEADER:
            header_spans.append((start, end))
        start = end
    m = len(serialized.question_spans)
    return Features(
        ids=np.asarray(vocab.encode(serialized.tokens), dtype=np.int64),
        segments=np.asarray(serialized.segments, dtype=np.int64),
        header_spans=header_spans,
        question=serialized.question,
        question_spans=serialized.question_spans,
        question_tokens=serialized.tokens[1:1 + m],
    )


@dataclass
class Target:
    sel: int
    agg: int
    n_conds: int
    wcol: np.ndarray  # (C,) multi-hot
    conds: list[tuple[int, int, int, int]]  # (col, op, start_tok, end_tok)


def find_span(question_tokens, value: str) -> tuple[tuple[int, int] | None, int]:
    """First contiguous token span matching the value; also how many
    occurrences exist (for ambiguity accounting)."""
    needle = token_texts(value)
    if not needle:
        return None, 0
    hits = []
    limit = len(question_tokens) - len(needle)
    for start in range(limit + 1):
        if list(question_tokens[start:start + len(needle)]) == needle:
            hits.append((start, start + len(needle) - 1))
    return (hits[0] if hits else None), len(hits)


def make_target(gold: SqlSketch, feats: Features,
                max_conds: int) -> tuple[Target | None, bool]:
    """Build the supervision target; None when a gold value has no question
    span (such examples are excluded from training). The flag reports
    whether any value occurred more than once (first occurrence is used)."""
    n_columns = len(feats.header_spans)
    if len(gold.conds) > max_conds or not 0 <= gold.select_column < n_columns:
        return None, False
    wcol = np.zeros(n_columns)
    conds = []
    ambiguous = False
    for cond in gold.conds:
        if not 0 <= cond.column_index < n_columns:
            return None, False
        span, n_hits = find_span(feats.question_tokens, cond.value)
        if span is None:
            return None, False
        ambiguous = ambiguous or n_hits > 1
        wcol[cond.column_index] = 1.0
        conds.append((cond.column_index, int(cond.op), span[0], span[1]))
    return Target(
        sel=gold.select_column,
        agg=int(gold.agg),
        n_conds=len(gold.conds),
        wcol=wcol,
        conds=conds,
    ), ambiguous


# ---------------------------------------------------------------------------
# Encoder


@dataclass
class EncoderOutput:
    hidden: np.ndarray  # (r, d) the read rows: the question's, then each header run
    header_vecs: np.ndarray  # (C, d) mean over each column's header tokens
    question_vecs: np.ndarray  # (m, d)


def _block_fwd(x, params, pre, cfg, rows=None):
    """The pre-norm block whose parameters are named ``pre + ...``: x +
    attention(ln1(x)), then + FFN(ln2(.)); returns (residual, cache), the
    residual being ``x``, added to in place.

    With ``rows`` (distinct indices), all n rows give keys and values but
    only those rows query: the residual becomes their rows of ``x``, gathered
    into ``residual.read``, and the rest of the block runs at them alone.
    """
    a_in, ln1_cache = nn.layernorm_fwd(x, params[pre + "ln1.g"], params[pre + "ln1.b"],
                                       slot=pre + "ln1")
    a_out, attn_cache = nn.attention_fwd(
        a_in, *(params[f"{pre}attn.{kind}{proj}"] for proj in "qkvo" for kind in "wb"),
        cfg.n_heads, slot=pre + "attn", rows=rows)
    if rows is not None:
        (read,) = nn.WORKSPACE.take("residual.read", a_out.shape)
        x = np.take(x, rows, axis=0, out=read)
    x += a_out
    f_in, ln2_cache = nn.layernorm_fwd(x, params[pre + "ln2.g"], params[pre + "ln2.b"],
                                       slot=pre + "ln2")
    h1, lin1_cache = nn.linear_fwd(f_in, params[pre + "ffn.w1"], params[pre + "ffn.b1"],
                                   slot=pre + "ffn1")
    h2, gelu_cache = nn.gelu_fwd(h1, slot=pre + "gelu")
    f_out, lin2_cache = nn.linear_fwd(h2, params[pre + "ffn.w2"], params[pre + "ffn.b2"],
                                      slot=pre + "ffn2")
    x += f_out
    return x, (ln1_cache, attn_cache, ln2_cache, lin1_cache, gelu_cache, lin2_cache,
               pre, rows)


def encode(feats: Features, params: dict, cfg: ModelConfig):
    """Run the encoder; returns (EncoderOutput, cache for backward).

    The embedding sum, one ``_block_fwd`` per layer, then ``ln_f``. The
    heads read only the question rows and the header runs
    (``Features.read_rows``), so the last block takes them as ``rows``: keys
    and values over all n tokens, but queries, residual, FFN and ``ln_f`` at
    those r rows alone; the other tokens reach the heads only as context.

    The output's arrays are fresh. The cache points into ``netops.WORKSPACE``,
    so it is valid only until the next call.
    """
    n = len(feats.ids)
    if n > cfg.max_positions:
        raise ValueError(f"input length {n} exceeds max positions {cfg.max_positions}")
    generation = nn.WORKSPACE.advance()
    (x,) = nn.WORKSPACE.take("residual", (n, cfg.d_model))
    (seg,) = nn.WORKSPACE.take(nn.SCRATCH, (n, cfg.d_model))
    np.take(params["tok_emb"], feats.ids, axis=0, out=x)
    x += params["pos_emb"][:n]
    x += np.take(params["seg_emb"], feats.segments, axis=0, out=seg)
    layer_caches = []
    for i in range(cfg.n_layers):
        rows = feats.read_rows if i == cfg.n_layers - 1 else None
        x, layer_cache = _block_fwd(x, params, f"enc{i}.", cfg, rows)
        layer_caches.append(layer_cache)
    hidden, lnf_cache = nn.layernorm_fwd(x, params["ln_f.g"], params["ln_f.b"], slot="ln_f")
    hidden = hidden.copy()  # a caller may keep the output across calls

    header_vecs = np.stack([hidden[start:end].mean(axis=0)
                            for start, end in feats.read_header_spans()])
    question_vecs = hidden[:len(feats.question_spans)]

    enc = EncoderOutput(hidden, header_vecs, question_vecs)
    cache = (feats, layer_caches, lnf_cache, generation)
    return enc, cache


class Gradients(dict):
    """Gradient sums by parameter name, in first-use order, each block shaped
    like its parameter.

    Training keeps one for the whole run and zeroes it before each batch, so
    each block is allocated once. An embedding block is row-sparse: ``live``
    flags each row ever added to, and its other rows are zero; the batch
    mean, the clip scaling and the Adam step run over the live rows only.
    """

    def __init__(self):
        super().__init__()
        self.live: dict[str, np.ndarray] = {}  # embedding block -> flag per row

    def add_rows(self, name: str, like: np.ndarray, rows, g: np.ndarray) -> None:
        """Add ``g`` into rows ``rows`` (a slice or distinct ids) of the
        embedding gradient ``name``, zeros shaped like ``like`` on first use,
        and mark those rows live."""
        if name not in self:
            self[name] = np.zeros_like(like)
            self.live[name] = np.zeros(len(like), dtype=bool)
        self[name][rows] += g
        self.live[name][rows] = True

    def rows(self, name: str):
        """Index of the rows of block ``name`` that can be nonzero: the live
        rows of an embedding block, every row of any other."""
        live = self.live.get(name)
        return slice(None) if live is None else np.flatnonzero(live)

    def zero(self) -> None:
        """Zero every block where it can be nonzero, for the next batch.

        A dense block then sums from 0.0 instead of starting as its first
        example's array. That can only turn a -0.0 entry into 0.0, and Adam
        adds such an entry to a first moment that is not -0.0 (for beta1 >=
        0.5), so the update comes out the same.
        """
        for name, g in self.items():
            g[self.rows(name)] = 0.0


def _acc(grads, name, g):
    """Add ``g`` into block ``name``. A block's first gradient is stored as it
    is, so ``g`` must be a fresh array, never a workspace view."""
    if name in grads:
        grads[name] += g
    else:
        grads[name] = g


def _acc_embedding(grads, name, params, ids, dx):
    """Scatter-add ``dx`` into the rows ``ids`` of an embedding gradient.

    Repeated ids are summed first, in position order, into a block with one
    row per distinct id, so only the rows the example uses are touched and
    made live.
    """
    uniq, inverse = np.unique(ids, return_inverse=True)
    block = np.zeros((len(uniq), dx.shape[1]))
    np.add.at(block, inverse, dx)
    grads.add_rows(name, params[name], uniq, block)


def _block_bwd(dx, cache, grads):
    """Gradients of ``_block_fwd`` from ``dx``, d(its residual), which is
    added to in place: adds the block's parameter gradients into ``grads``
    and returns d(its input). With ``rows``, ``dx`` covers those rows alone
    and is scattered back onto them."""
    ln1_cache, attn_cache, ln2_cache, lin1_cache, gelu_cache, lin2_cache, pre, rows = cache
    dh2, *ffn2 = nn.linear_bwd(dx, lin2_cache, slot=pre + "ffn2")
    dh1 = nn.gelu_bwd(dh2, gelu_cache, slot=pre + "gelu")
    df_in, *ffn1 = nn.linear_bwd(dh1, lin1_cache, slot=pre + "ffn1")
    dres, *ln2 = nn.layernorm_bwd(df_in, ln2_cache, slot=pre + "ln2")
    dx += dres
    da_in, attn_grads = nn.attention_bwd(dx, attn_cache, slot=pre + "attn")
    dres, *ln1 = nn.layernorm_bwd(da_in, ln1_cache, slot=pre + "ln1")
    names = ("ffn.w2", "ffn.b2", "ffn.w1", "ffn.b1", "ln2.g", "ln2.b",
             *("attn." + name for name in attn_grads), "ln1.g", "ln1.b")
    for name, g in zip(names, (*ffn2, *ffn1, *ln2, *attn_grads.values(), *ln1)):
        _acc(grads, pre + name, g)
    dres[slice(None) if rows is None else rows] += dx
    return dres


def encode_bwd(dhidden: np.ndarray, params: dict, cache, grads: Gradients) -> None:
    """Backprop from d(hidden states), shaped like ``EncoderOutput.hidden``,
    into parameter grads (accumulated): ``ln_f``, each ``_block_bwd`` in
    reverse, then the embeddings, row-sparse: only the rows of the tokens,
    positions and segments the example uses are added to. Raises ValueError
    when ``encode`` has run again since ``cache`` was made.
    """
    feats, layer_caches, lnf_cache, generation = cache
    if generation != nn.WORKSPACE.generation:
        raise ValueError("stale encoder cache: encode has run since it was made")

    dx, dg, db = nn.layernorm_bwd(dhidden, lnf_cache, slot="ln_f")
    _acc(grads, "ln_f.g", dg)
    _acc(grads, "ln_f.b", db)
    for layer_cache in reversed(layer_caches):
        dx = _block_bwd(dx, layer_cache, grads)
    _acc_embedding(grads, "tok_emb", params, feats.ids, dx)
    grads.add_rows("pos_emb", params["pos_emb"], slice(0, len(feats.ids)), dx)
    _acc_embedding(grads, "seg_emb", params, feats.segments, dx)


# ---------------------------------------------------------------------------
# Heads


def _batched_attention(hc, q, w):
    scores = (hc @ w) @ q.T  # (C, m)
    probs = nn.softmax(scores, axis=-1)
    ctx = probs @ q  # (C, d)
    return ctx, probs


# Output layer of each column head: sel and wcol score a column through one
# vector, wop maps a column to operator logits through a matrix and a bias.
_COLUMN_HEAD_OUTPUT = {
    "sel": ("sel.w", None),
    "wcol": ("wcol.w", None),
    "wop": ("wop.w2", "wop.b2"),
}


def _column_head_fwd(head, hc, q, params):
    """Column attention over the question, t = tanh(hc.u + ctx.v + b), then
    the head's output layer; returns (logits, cache)."""
    ctx, probs = _batched_attention(hc, q, params[head + ".att_w"])
    t = np.tanh(hc @ params[head + ".u"] + ctx @ params[head + ".v"]
                + params[head + ".b"])  # (C, d)
    out_w, out_b = _COLUMN_HEAD_OUTPUT[head]
    logits = t @ params[out_w]
    if out_b is not None:
        logits = logits + params[out_b]
    return logits, (ctx, probs, t)


def _mlp_fwd(head, x, params):
    """The agg and wnum output tail, tanh(x.w1 + b1).w2 + b2 over one row;
    returns (logits, t)."""
    t = np.tanh(x @ params[head + ".w1"] + params[head + ".b1"])
    return (t @ params[head + ".w2"] + params[head + ".b2"])[0], t


def _span_head_fwd(head, hc, q, params):
    """A where-value pointer, t = tanh(q.u + hc.v + b) at each (column,
    question position) pair scored through one vector; returns (logits, t)."""
    qu = q @ params[head + ".u"]  # (m, d)
    hv = hc @ params[head + ".v"]  # (C, d)
    t = np.tanh(qu[None, :, :] + hv[:, None, :] + params[head + ".b"])  # (C, m, d)
    return t @ params[head + ".w"], t


def predict_heads(enc: EncoderOutput, params: dict, cfg: ModelConfig,
                  sel_override: int | None = None):
    """All six heads' logits; returns (logits, cache). Both are keyed by each
    head's parameter group (the cache also keeps ``hc`` and ``q``); for C
    columns and m question positions the logits are:

    - ``sel`` (C,) select column, ``agg`` (N_AGG,) aggregation, ``wnum``
      (max_conds + 1,) where-count;
    - ``wcol`` (C,) where-column, pre-sigmoid, ``wop`` (C, N_OPS) operator;
    - ``wvs`` and ``wve`` (C, m) where-value span start and end.

    The aggregation head conditions on the gold select column when
    ``sel_override`` is given (training) and on the predicted one otherwise.
    Value-span logits exist only over question positions, so header and
    sample tokens can never receive probability mass.
    """
    hc, q = enc.header_vecs, enc.question_vecs
    logits, cache = {}, {"hc": hc, "q": q}
    logits["sel"], cache["sel"] = _column_head_fwd("sel", hc, q, params)

    sel_idx = int(sel_override) if sel_override is not None \
        else int(np.argmax(logits["sel"]))
    agg_ctx, agg_probs = _batched_attention(hc[sel_idx:sel_idx + 1], q, params["agg.att_w"])
    logits["agg"], agg_t = _mlp_fwd("agg", agg_ctx, params)
    cache["agg"] = (sel_idx, agg_ctx, agg_probs, agg_t)

    pool_probs = nn.softmax(q @ params["wnum.u"])
    summary = (pool_probs @ q)[None, :]
    logits["wnum"], wnum_t = _mlp_fwd("wnum", summary, params)
    cache["wnum"] = (pool_probs, summary, wnum_t)

    for head in ("wcol", "wop"):
        logits[head], cache[head] = _column_head_fwd(head, hc, q, params)
    for head in ("wvs", "wve"):
        logits[head], cache[head] = _span_head_fwd(head, hc, q, params)
    return logits, cache


def _attention_bwd(dctx, probs, hc, q, w, dhc, dq, grads, name):
    """Backward through _batched_attention; accumulates into dhc/dq/grads."""
    hw = hc @ w
    dprobs = dctx @ q.T
    dq += probs.T @ dctx
    dscores = nn.softmax_bwd(dprobs, probs, axis=-1)
    dhw = dscores @ q
    dq += dscores.T @ hw
    dhc += dhw @ w.T
    _acc(grads, name, hc.T @ dhw)


def _column_head_bwd(head, dlogits, params, cache, hc, q, dhc, dq, grads):
    """Backward through _column_head_fwd; accumulates into dhc/dq/grads."""
    ctx, probs, t = cache
    out_w, out_b = _COLUMN_HEAD_OUTPUT[head]
    _acc(grads, out_w, t.T @ dlogits)
    if out_b is None:
        dt = np.outer(dlogits, params[out_w])
    else:
        _acc(grads, out_b, dlogits.sum(axis=0))
        dt = dlogits @ params[out_w].T
    dt = dt * (1.0 - t * t)
    _acc(grads, head + ".b", dt.sum(axis=0))
    _acc(grads, head + ".u", hc.T @ dt)
    dhc += dt @ params[head + ".u"].T
    _acc(grads, head + ".v", ctx.T @ dt)
    dctx = dt @ params[head + ".v"].T
    _attention_bwd(dctx, probs, hc, q, params[head + ".att_w"],
                   dhc, dq, grads, head + ".att_w")


def _mlp_bwd(head, dlogits, x, t, params, grads):
    """Backward through _mlp_fwd; accumulates into grads, returns d(x)."""
    _acc(grads, head + ".w2", t.T @ dlogits[None, :])
    _acc(grads, head + ".b2", dlogits)
    dt = (dlogits[None, :] @ params[head + ".w2"].T) * (1.0 - t * t)
    _acc(grads, head + ".b1", dt.sum(axis=0))
    _acc(grads, head + ".w1", x.T @ dt)
    return dt @ params[head + ".w1"].T


def _span_head_bwd(head, dlogits, params, t, hc, q, dhc, dq, grads):
    """Backward through _span_head_fwd; accumulates into dhc/dq/grads."""
    _acc(grads, head + ".w", (t * dlogits[:, :, None]).sum(axis=(0, 1)))
    dt = dlogits[:, :, None] * params[head + ".w"] * (1.0 - t * t)
    _acc(grads, head + ".b", dt.sum(axis=(0, 1)))
    dqu = dt.sum(axis=0)  # (m, d)
    dhv = dt.sum(axis=1)  # (C, d)
    _acc(grads, head + ".u", q.T @ dqu)
    dq += dqu @ params[head + ".u"].T
    _acc(grads, head + ".v", hc.T @ dhv)
    dhc += dhv @ params[head + ".v"].T


def heads_bwd(dlogits: dict, params: dict, cache: dict, grads: dict):
    """Backward from head-logit gradients, keyed as ``predict_heads``' logits;
    returns d(hidden header vecs) and d(question vecs)."""
    hc, q = cache["hc"], cache["q"]
    dhc = np.zeros_like(hc)
    dq = np.zeros_like(q)

    _column_head_bwd("sel", dlogits["sel"], params, cache["sel"], hc, q, dhc, dq, grads)

    sel_idx, agg_ctx, agg_probs, agg_t = cache["agg"]
    dctx = _mlp_bwd("agg", dlogits["agg"], agg_ctx, agg_t, params, grads)
    h_star = hc[sel_idx:sel_idx + 1]
    dh_star = np.zeros_like(h_star)
    _attention_bwd(dctx, agg_probs, h_star, q, params["agg.att_w"],
                   dh_star, dq, grads, "agg.att_w")
    dhc[sel_idx] += dh_star[0]

    pool_probs, summary, wnum_t = cache["wnum"]
    dsummary = _mlp_bwd("wnum", dlogits["wnum"], summary, wnum_t, params, grads)[0]
    dpool = q @ dsummary
    dq += np.outer(pool_probs, dsummary)
    dscores = nn.softmax_bwd(dpool, pool_probs)
    _acc(grads, "wnum.u", q.T @ dscores)
    dq += np.outer(dscores, params["wnum.u"])

    for head in ("wcol", "wop"):
        _column_head_bwd(head, dlogits[head], params, cache[head], hc, q, dhc, dq, grads)
    for head in ("wvs", "wve"):
        _span_head_bwd(head, dlogits[head], params, cache[head], hc, q, dhc, dq, grads)
    return dhc, dq


# ---------------------------------------------------------------------------
# Loss


def loss_from_heads(logits: dict, target: Target):
    """Summed cross-entropy over all six subtasks, from ``predict_heads``'
    logits.

    Returns (loss, per-task breakdown, dlogits keyed as the logits). The
    where-operator and where-value terms apply per gold where-column only;
    the where-column term is binary cross-entropy over every column.
    """
    dlogits: dict[str, np.ndarray] = {}
    sel_loss, dlogits["sel"] = nn.cross_entropy_from_logits(logits["sel"], target.sel)
    agg_loss, dlogits["agg"] = nn.cross_entropy_from_logits(logits["agg"], target.agg)
    wnum_loss, dlogits["wnum"] = nn.cross_entropy_from_logits(logits["wnum"], target.n_conds)
    wcol_loss, dlogits["wcol"] = nn.binary_cross_entropy_from_logits(logits["wcol"], target.wcol)

    for head in ("wop", "wvs", "wve"):
        dlogits[head] = np.zeros_like(logits[head])
    wop_loss = 0.0
    wval_loss = 0.0
    for col, op, start, end in target.conds:
        loss_op, d_op = nn.cross_entropy_from_logits(logits["wop"][col], op)
        wop_loss += loss_op
        dlogits["wop"][col] += d_op
        loss_s, d_s = nn.cross_entropy_from_logits(logits["wvs"][col], start)
        loss_e, d_e = nn.cross_entropy_from_logits(logits["wve"][col], end)
        wval_loss += loss_s + loss_e
        dlogits["wvs"][col] += d_s
        dlogits["wve"][col] += d_e

    breakdown = {
        "sel": float(sel_loss),
        "agg": float(agg_loss),
        "wnum": float(wnum_loss),
        "wcol": float(wcol_loss),
        "wop": float(wop_loss),
        "wval": float(wval_loss),
    }
    return sum(breakdown.values()), breakdown, dlogits


def example_loss(params: dict, cfg: ModelConfig, feats: Features,
                 target: Target) -> float:
    """Forward-only loss; the finite-difference oracle drives this."""
    enc, _ = encode(feats, params, cfg)
    logits, _ = predict_heads(enc, params, cfg, sel_override=target.sel)
    loss, _, _ = loss_from_heads(logits, target)
    return float(loss)


def example_loss_and_grads(params: dict, cfg: ModelConfig, feats: Features,
                           target: Target, grads: Gradients | None = None):
    """Loss, per-task breakdown, and gradients for one example.

    The gradients are added into ``grads`` (fresh when None), which is
    returned with one block per parameter; training passes one ``Gradients``
    for the whole run, zeroed before each batch, so the batch sum builds up
    in place. The embedding blocks are touched only at the rows the example
    uses.
    """
    enc, enc_cache = encode(feats, params, cfg)
    logits, head_cache = predict_heads(enc, params, cfg, sel_override=target.sel)
    loss, breakdown, dlogits = loss_from_heads(logits, target)

    if grads is None:
        grads = Gradients()
    dhc, dq = heads_bwd(dlogits, params, head_cache, grads)

    dhidden = np.zeros_like(enc.hidden)
    dhidden[:len(dq)] += dq
    for (start, end), dh in zip(feats.read_header_spans(), dhc):
        dhidden[start:end] += dh / (end - start)
    encode_bwd(dhidden, params, enc_cache, grads)
    return float(loss), breakdown, grads


# ---------------------------------------------------------------------------
# Decoding


def decode_sketch(logits: dict, schema: TableSchema, question: str,
                  question_spans, max_span_len: int = MAX_SPAN_LEN) -> SqlSketch:
    """Turn ``predict_heads``' logits into a sketch.

    select/agg/where-count by argmax; where columns are the top-n
    where-column logits (not their sigmoids, which round to 1.0 for large
    logits) with ties going to the lower column index; per chosen column the
    operator is argmax and the value is the (start, end) span maximizing
    start+end logits subject to start <= end < start + max_span_len (ties
    going to the first end within a start, then to the first start), read
    back from the original question characters.
    """
    n_columns = len(logits["sel"])
    if schema.n_columns != n_columns:
        raise ValueError(
            f"heads cover {n_columns} columns, schema has {schema.n_columns}"
        )
    sel = int(np.argmax(logits["sel"]))
    agg = AggOp(int(np.argmax(logits["agg"])))
    n_conds = int(np.argmax(logits["wnum"]))
    n_conds = min(n_conds, n_columns)
    m = logits["wvs"].shape[1]
    if m == 0:
        n_conds = 0

    order = sorted(range(n_columns),
                   key=lambda c: (-float(logits["wcol"][c]), c))
    chosen = sorted(order[:n_conds])
    if not chosen:
        return SqlSketch(select_column=sel, agg=agg)
    width = min(m, max_span_len)
    # windows[i, s, j] is the end logit of span (s, s + j) of column
    # chosen[i], -inf past m
    padded = np.concatenate([logits["wve"][chosen],
                             np.full((len(chosen), width - 1), -np.inf)], axis=1)
    windows = padded[:, np.arange(m)[:, None] + np.arange(width)]
    end_rel = windows.argmax(axis=2)  # the first best end of each start
    scores = logits["wvs"][chosen] + windows.max(axis=2)
    starts = scores.argmax(axis=1)  # the first best start
    ends = starts + end_rel[np.arange(len(chosen)), starts]
    ops = logits["wop"][chosen].argmax(axis=1)
    conds = tuple(
        Condition(col, CondOp(op), question[question_spans[start][0]:question_spans[end][1]])
        for col, op, start, end in zip(chosen, ops.tolist(), starts.tolist(), ends.tolist()))
    return SqlSketch(select_column=sel, agg=agg, conds=conds)


# ---------------------------------------------------------------------------
# Checkpoint container

_MAGIC = b"NLSQLCK1"
CHECKPOINT_VERSION = 1
# Config keys that older checkpoints carry and inference never read: each is
# a constant now, at the value every checkpoint written held, or is gone.
_RETIRED_CONFIG_KEYS = ("ffn_dim", "dropout", "init_scale", "max_conds",
                        "max_span_len")


@dataclass
class Checkpoint:
    config: ModelConfig
    vocab: Vocab
    params: dict[str, np.ndarray]
    extra: dict = field(default_factory=dict)


def save_checkpoint(path, checkpoint: Checkpoint) -> None:
    """Write the self-describing container.

    Layout: 8-byte magic, little-endian u64 header length, UTF-8 JSON header
    {version, config, vocab, extra, tensors: [{name, shape, dtype, offset, nbytes}]},
    then tensor payloads as little-endian float64, concatenated in header
    order. The header is padded with spaces, which JSON reads as trailing
    whitespace, so the payload starts on a 64-byte boundary and
    ``load_checkpoint`` can map it. Each payload is written from its array's
    own buffer into a file beside ``path`` that then replaces it: a process
    that has the old file mapped keeps reading the old bytes, and a save that
    fails leaves the old file whole.
    """
    arrays = {name: np.ascontiguousarray(checkpoint.params[name], dtype="<f8")
              for name in sorted(checkpoint.params)}
    tensors = []
    offset = 0
    for name, arr in arrays.items():
        tensors.append({
            "name": name,
            "shape": list(arr.shape),
            "dtype": "<f8",
            "offset": offset,
            "nbytes": arr.nbytes,
        })
        offset += arr.nbytes
    header = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(checkpoint.config),
        "vocab": checkpoint.vocab.tokens,
        "extra": checkpoint.extra,
        "tensors": tensors,
    }
    payload = json.dumps(header).encode("utf-8")
    payload += b" " * (-(16 + len(payload)) % 64)
    partial = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(partial, "wb") as handle:
            handle.write(_MAGIC)
            handle.write(struct.pack("<Q", len(payload)))
            handle.write(payload)
            for arr in arrays.values():
                handle.write(arr.data)
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.remove(partial)


def load_checkpoint(path) -> Checkpoint:
    """Read a container written by ``save_checkpoint``, once the header's
    tensor list is checked against ``param_shapes`` of its config and each
    tensor's extent against the file's size.

    One read path: every tensor comes from one copy-on-write mapping of the
    file. When the payload is 8-byte aligned, as ``save_checkpoint`` writes
    it, each tensor is a view: loading copies nothing, the OS reads in only
    the pages a caller touches (memory grows with the embedding rows read,
    not the table), and a write to a tensor changes this process's copy,
    never the file. An unaligned payload (written before the header was
    padded) is copied out of the mapping into fresh arrays. A short,
    inconsistent or malformed file raises ValueError naming it."""
    with open(path, "rb") as handle:
        try:
            return _read_checkpoint(handle)
        except KeyError as exc:
            raise ValueError(f"{path}: header has no {exc} field") from exc
        except (OSError, TypeError, ValueError, OverflowError, MemoryError,
                RecursionError) as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _read_checkpoint(handle) -> Checkpoint:
    prefix = handle.read(16)
    if len(prefix) < 16 or prefix[:8] != _MAGIC:
        raise ValueError("not a checkpoint file")
    (header_len,) = struct.unpack("<Q", prefix[8:])
    raw = handle.read(header_len)
    if len(raw) < header_len:
        raise ValueError(f"truncated header ({len(raw)} of {header_len} bytes)")
    header = json.loads(raw.decode("utf-8"))
    if not isinstance(header, dict):
        raise ValueError("header is not a JSON object")
    if header.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {header.get('version')!r}")
    fields = header["config"]
    if not isinstance(fields, dict):
        raise ValueError("config is not a JSON object")
    config = ModelConfig(**{key: value for key, value in fields.items()
                            if key not in _RETIRED_CONFIG_KEYS})
    tokens = header["vocab"]
    if not isinstance(tokens, list) or tokens[:len(SPECIALS)] != list(SPECIALS) \
            or not all_str(tokens):
        raise ValueError(f"vocab is not a list of strings that starts with {list(SPECIALS)}")
    vocab = Vocab(tokens)
    if len(vocab.index) != len(tokens):
        raise ValueError(f"vocab repeats a token ({len(tokens) - len(vocab.index)} repeats)")
    if len(vocab) != config.vocab_size:
        raise ValueError(f"{len(vocab)} vocab tokens do not fit vocab_size {config.vocab_size}")
    extra = header.get("extra", {})
    if not isinstance(extra, dict) or not isinstance(extra.get("train_config", {}), dict):
        raise ValueError("extra and its train_config must be JSON objects")
    specs = header["tensors"]
    if config.n_layers > len(specs):  # bounds the block table built below
        raise ValueError(f"{len(specs)} tensors cannot hold {config.n_layers} layers")
    unmatched = param_shapes(config)
    for spec in specs:
        shape = unmatched.pop(spec["name"], None)
        if shape is None or list(shape) != spec["shape"]:
            raise ValueError(f"tensor {spec['name']!r} of shape {spec['shape']} does not fit "
                             f"the config's {list(shape) if shape else 'blocks, or repeats'}")
    if unmatched:
        raise ValueError(f"no tensor {next(iter(unmatched))!r} ({len(unmatched)} blocks missing)")
    payload_start = handle.tell()
    size = os.fstat(handle.fileno()).st_size
    mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_COPY)
    params = {}
    for spec in specs:
        name, shape, offset = spec["name"], spec["shape"], spec["offset"]
        nbytes = 8 * math.prod(shape)
        if spec["dtype"] != "<f8":
            raise ValueError(f"tensor {name!r} has dtype {spec['dtype']!r}, not '<f8'")
        if spec["nbytes"] != nbytes:
            raise ValueError(f"tensor {name!r} has {spec['nbytes']} bytes for shape {shape}")
        if type(offset) is not int or offset < 0:
            raise ValueError(f"tensor {name!r} has offset {offset!r}")
        start = payload_start + offset
        if start + nbytes > size:
            raise ValueError(f"truncated tensor {name!r} "
                             f"({max(size - start, 0)} of {nbytes} bytes)")
        tensor = np.frombuffer(mapped, "<f8", nbytes // 8, start).reshape(shape)
        # An unaligned view would be copied whole by np.take on every gather.
        params[name] = tensor if start % 8 == 0 else tensor.copy()
    return Checkpoint(config, vocab, params, extra)
