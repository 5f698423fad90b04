"""Low-level neural net layers: forward passes paired with hand-derived
backward passes over float64 numpy arrays.

Every forward returns (output, cache); the matching backward consumes the
upstream gradient and the cache and returns gradients for inputs and
parameters. Gradient correctness is enforced end-to-end by the central
finite-difference suite, so any change here must keep that suite green.

The encoder kernels (layer norm, linear, GELU, attention) compute in place,
in the operation order of the plain expressions, so their results are bit
for bit the same. Their outputs and caches are views of ``WORKSPACE``, flat
per-process buffers named by the caller's ``slot`` and reused from call to
call: an output or a cache is valid only until the next call with the same
slot, which for the encoder means until the next ``model.encode``. Parameter
gradients are always fresh arrays.

Attention can take query rows: every row gives keys and values, only those
rows query, and the backward pass scatters their query gradients back to
their places. The encoder's last layer runs so, at the rows its heads read.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

LN_EPS = 1e-5
_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


class Workspace:
    """Flat float64 buffers by name, each grown on demand and then reused.

    A kernel takes its outputs and caches from ``slot + ".fwd"`` or
    ``slot + ".bwd"``, and the temporaries that die with the call from the
    one ``SCRATCH`` buffer that all kernels share. ``generation`` counts the
    encoder passes, so a backward pass can tell that its cache was
    overwritten.

    The views are made once per buffer name and shapes and then handed out
    again, so a call with shapes seen before costs one lookup. A buffer that
    grows drops its name's views; the rest stay, one set per sequence length
    the process has seen.
    """

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}
        self.generation = 0
        self._views: dict[str, dict[tuple, tuple[np.ndarray, ...]]] = {}

    def take(self, name: str, *shapes) -> tuple[np.ndarray, ...]:
        """Views of buffer ``name`` with the given shapes, laid end to end."""
        cached = self._views.setdefault(name, {})
        views = cached.get(shapes)
        if views is not None:
            return views
        sizes = [math.prod(shape) for shape in shapes]
        buf = self.buffers.get(name)
        if buf is None or buf.size < sum(sizes):
            buf = self.buffers[name] = np.empty(sum(sizes))
            cached.clear()
        views = cached[shapes] = tuple(
            buf[start:start + size].reshape(shape)
            for shape, size, start in zip(shapes, sizes, accumulate(sizes, initial=0)))
        return views

    def advance(self) -> int:
        """Start a pass that overwrites the buffers; returns its number."""
        self.generation += 1
        return self.generation


WORKSPACE = Workspace()
SCRATCH = "scratch"


def softmax(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    out = np.subtract(x, np.max(x, axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= np.sum(out, axis=axis, keepdims=True)
    return out


def softmax_bwd(dout: np.ndarray, probs: np.ndarray, axis: int = -1,
                out: np.ndarray | None = None) -> np.ndarray:
    """``probs * (dout - sum(dout * probs))``; ``out`` must not be ``dout``."""
    prod = np.multiply(dout, probs, out=out)
    inner = np.sum(prod, axis=axis, keepdims=True)
    return np.multiply(probs, np.subtract(dout, inner, out=prod), out=prod)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def linear_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray, *, slot: str):
    (out,) = WORKSPACE.take(slot + ".fwd", (*x.shape[:-1], w.shape[1]))
    np.matmul(x, w, out=out)
    out += b
    return out, (x, w)


def linear_bwd(dout: np.ndarray, cache, *, slot: str):
    x, w = cache
    (dx,) = WORKSPACE.take(slot + ".bwd", x.shape)
    np.matmul(dout, w.T, out=dx)
    dw = x.T @ dout
    db = dout.sum(axis=0)
    return dx, dw, db


def _row_mean(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a.mean(axis=-1, keepdims=True)`` into ``out``, computed as np.mean
    computes it (the sum, then a division by the count) without its Python
    wrapper."""
    np.add.reduce(a, axis=-1, keepdims=True, out=out)
    out /= a.shape[-1]
    return out


def layernorm_fwd(x: np.ndarray, g: np.ndarray, b: np.ndarray, *, slot: str):
    xhat, inv, out = WORKSPACE.take(slot + ".fwd", x.shape, (*x.shape[:-1], 1), x.shape)
    # inv holds the mean, then the variance, then 1 / sqrt(var + LN_EPS);
    # out holds xc * xc until the output overwrites it
    xc = np.subtract(x, _row_mean(x, out=inv), out=xhat)
    var = _row_mean(np.multiply(xc, xc, out=out), out=inv)
    np.divide(1.0, np.sqrt(np.add(var, LN_EPS, out=inv), out=inv), out=inv)
    np.multiply(xc, inv, out=xhat)
    np.multiply(xhat, g, out=out)
    out += b
    return out, (xhat, inv, g)


def layernorm_bwd(dout: np.ndarray, cache, *, slot: str):
    xhat, inv, g = cache
    (dx,) = WORKSPACE.take(slot + ".bwd", xhat.shape)
    prod, dxhat_mean, proj_mean = WORKSPACE.take(SCRATCH, xhat.shape, inv.shape, inv.shape)
    dxhat = np.multiply(dout, g, out=dx)
    _row_mean(dxhat, out=dxhat_mean)
    _row_mean(np.multiply(dxhat, xhat, out=prod), out=proj_mean)
    # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
    np.subtract(dxhat, dxhat_mean, out=dx)
    dx -= np.multiply(xhat, proj_mean, out=prod)
    dx *= inv
    dg = np.multiply(dout, xhat, out=prod).sum(axis=0)
    db = dout.sum(axis=0)
    return dx, dg, db


def gelu_fwd(x: np.ndarray, *, slot: str):
    t, out = WORKSPACE.take(slot + ".fwd", x.shape, x.shape)
    (one_plus_t,) = WORKSPACE.take(SCRATCH, x.shape)
    # t = tanh(_GELU_C * (x + _GELU_A * (x * x * x)))
    np.multiply(x, x, out=t)
    t *= x
    t *= _GELU_A
    np.add(x, t, out=t)
    t *= _GELU_C
    np.tanh(t, out=t)
    # out = 0.5 * x * (1.0 + t)
    np.multiply(x, 0.5, out=out)
    out *= np.add(t, 1.0, out=one_plus_t)
    return out, (x, t)


def gelu_bwd(dout: np.ndarray, cache, *, slot: str):
    """dout * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * du_dx) with
    du_dx = _GELU_C * (1 + 3 * _GELU_A * x * x)."""
    x, t = cache
    (dx,) = WORKSPACE.take(slot + ".bwd", x.shape)
    du_dx, part = WORKSPACE.take(SCRATCH, x.shape, x.shape)
    np.multiply(x, 3.0 * _GELU_A, out=du_dx)
    du_dx *= x
    du_dx += 1.0
    du_dx *= _GELU_C
    np.multiply(x, 0.5, out=dx)
    dx *= np.subtract(1.0, np.multiply(t, t, out=part), out=part)
    dx *= du_dx
    np.add(t, 1.0, out=part)
    part *= 0.5
    dx += part
    dx *= dout
    return dx


def _split_heads(a: np.ndarray, n_heads: int) -> np.ndarray:
    """The (h, n, dh) view of an (n, d) array, one slice per head."""
    n, d = a.shape
    return a.reshape(n, n_heads, d // n_heads).transpose(1, 0, 2)


def attention_fwd(x: np.ndarray, wq, bq, wk, bk, wv, bv, wo, bo, n_heads: int,
                  *, slot: str, rows: np.ndarray | None = None):
    """Full (unmasked) multi-head self-attention over one sequence (n, d).

    With ``rows``, distinct row indices, only those rows query: keys and
    values cover all n rows, and the output is (len(rows), d), row i being
    row ``rows[i]`` of the full output.
    """
    n, d = x.shape
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)
    r = n if rows is None else len(rows)

    *qkv, merged, out, probs = WORKSPACE.take(
        slot + ".fwd", (r, d), (n, d), (n, d), (r, d), (r, d), (n_heads, r, n))
    xq = x
    if rows is not None:
        (xq,) = WORKSPACE.take(slot + ".rows", (r, d))
        np.take(x, rows, axis=0, out=xq)
    for x_in, w, b, buf in zip((xq, x, x), (wq, wk, wv), (bq, bk, bv), qkv):
        np.matmul(x_in, w, out=buf)
        buf += b
    q, k, v = (_split_heads(buf, n_heads) for buf in qkv)
    np.matmul(q, k.transpose(0, 2, 1), out=probs)  # scores (h, r, n)
    probs *= scale
    softmax(probs, axis=-1, out=probs)
    np.matmul(probs, v, out=_split_heads(merged, n_heads))  # heads (h, r, dh)
    np.matmul(merged, wo, out=out)
    out += bo
    cache = (x, xq, rows, q, k, v, probs, merged, wq, wk, wv, wo, scale)
    return out, cache


def attention_bwd(dout: np.ndarray, cache, *, slot: str):
    """Gradients of ``attention_fwd``; ``dx`` covers all n rows, the query
    rows' part scattered back to their places."""
    x, xq, rows, q, k, v, probs, merged, wq, wk, wv, wo, scale = cache
    n, d = x.shape
    n_heads, r, _ = probs.shape
    (dx,) = WORKSPACE.take(slot + ".bwd", (n, d))
    dmerged, dq, dk, dv, part, dprobs, dscores = WORKSPACE.take(
        SCRATCH, (r, d), (r, d), *[(n, d)] * 3, *[(n_heads, r, n)] * 2)

    dwo = merged.T @ dout
    dbo = dout.sum(axis=0)
    np.matmul(dout, wo.T, out=dmerged)
    dheads = _split_heads(dmerged, n_heads)

    np.matmul(dheads, v.transpose(0, 2, 1), out=dprobs)  # (h, r, n)
    np.matmul(probs.transpose(0, 2, 1), dheads, out=_split_heads(dv, n_heads))
    softmax_bwd(dprobs, probs, axis=-1, out=dscores)
    dscores *= scale
    np.matmul(dscores, k, out=_split_heads(dq, n_heads))
    np.matmul(dscores.transpose(0, 2, 1), q, out=_split_heads(dk, n_heads))

    # dx = dq @ wq.T + dk @ wk.T + dv @ wv.T, dq being zero off the query rows
    if rows is None:
        np.matmul(dq, wq.T, out=dx)
    else:
        dx[:] = 0.0
        dx[rows] = np.matmul(dq, wq.T, out=part[:r])
    dx += np.matmul(dk, wk.T, out=part)
    dx += np.matmul(dv, wv.T, out=part)
    grads = {
        "wq": xq.T @ dq, "bq": dq.sum(axis=0),
        "wk": x.T @ dk, "bk": dk.sum(axis=0),
        "wv": x.T @ dv, "bv": dv.sum(axis=0),
        "wo": dwo, "bo": dbo,
    }
    return dx, grads


def cross_entropy_from_logits(logits: np.ndarray, target: int):
    """(loss, dlogits) for one categorical target."""
    logp = log_softmax(logits)
    loss = -logp[target]
    dlogits = np.exp(logp)
    dlogits[target] -= 1.0
    return loss, dlogits


def binary_cross_entropy_from_logits(logits: np.ndarray, targets: np.ndarray):
    """Summed stable BCE over independent sigmoid units; returns dlogits."""
    loss = float(np.sum(np.maximum(logits, 0.0) - logits * targets
                        + np.log1p(np.exp(-np.abs(logits)))))
    dlogits = 1.0 / (1.0 + np.exp(-logits)) - targets
    return loss, dlogits
