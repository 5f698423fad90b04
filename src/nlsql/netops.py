"""Low-level neural net layers: forward passes paired with hand-derived
backward passes over float64 numpy arrays.

Every forward returns (output, cache); the matching backward consumes the
upstream gradient and the cache and returns gradients for inputs and
parameters. Gradient correctness is enforced end-to-end by the central
finite-difference suite, so any change here must keep that suite green.
"""

from __future__ import annotations

import numpy as np

LN_EPS = 1e-5
_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def softmax_bwd(dout: np.ndarray, probs: np.ndarray, axis: int = -1) -> np.ndarray:
    inner = np.sum(dout * probs, axis=axis, keepdims=True)
    return probs * (dout - inner)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def linear_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    return x @ w + b, (x, w)


def linear_bwd(dout: np.ndarray, cache):
    x, w = cache
    dx = dout @ w.T
    dw = x.T @ dout
    db = dout.sum(axis=0)
    return dx, dw, db


def layernorm_fwd(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return xhat * g + b, (xhat, inv, g)


def layernorm_bwd(dout: np.ndarray, cache):
    xhat, inv, g = cache
    dxhat = dout * g
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    dg = (dout * xhat).sum(axis=0)
    db = dout.sum(axis=0)
    return dx, dg, db


def gelu_fwd(x: np.ndarray):
    u = _GELU_C * (x + _GELU_A * (x * x * x))
    t = np.tanh(u)
    return 0.5 * x * (1.0 + t), (x, t)


def gelu_bwd(dout: np.ndarray, cache):
    x, t = cache
    du_dx = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
    return dout * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du_dx)


def attention_fwd(x: np.ndarray, wq, bq, wk, bk, wv, bv, wo, bo, n_heads: int):
    """Full (unmasked) multi-head self-attention over one sequence (n, d)."""
    n, d = x.shape
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)

    q = (x @ wq + bq).reshape(n, n_heads, dh).transpose(1, 0, 2)
    k = (x @ wk + bk).reshape(n, n_heads, dh).transpose(1, 0, 2)
    v = (x @ wv + bv).reshape(n, n_heads, dh).transpose(1, 0, 2)
    scores = (q @ k.transpose(0, 2, 1)) * scale  # (h, n, n)
    probs = softmax(scores, axis=-1)
    heads = probs @ v  # (h, n, dh)
    merged = heads.transpose(1, 0, 2).reshape(n, d)
    out = merged @ wo + bo
    cache = (x, q, k, v, probs, merged, wq, wk, wv, wo, scale)
    return out, cache


def attention_bwd(dout: np.ndarray, cache):
    x, q, k, v, probs, merged, wq, wk, wv, wo, scale = cache
    n, d = x.shape
    n_heads, _, dh = q.shape

    dwo = merged.T @ dout
    dbo = dout.sum(axis=0)
    dmerged = dout @ wo.T
    dheads = dmerged.reshape(n, n_heads, dh).transpose(1, 0, 2)

    dprobs = dheads @ v.transpose(0, 2, 1)  # (h, n, n)
    dv = probs.transpose(0, 2, 1) @ dheads
    dscores = softmax_bwd(dprobs, probs, axis=-1) * scale
    dq = dscores @ k
    dk = dscores.transpose(0, 2, 1) @ q

    def unmerge(a):
        return a.transpose(1, 0, 2).reshape(n, d)

    dq, dk, dv = unmerge(dq), unmerge(dk), unmerge(dv)
    dx = dq @ wq.T + dk @ wk.T + dv @ wv.T
    grads = {
        "wq": x.T @ dq, "bq": dq.sum(axis=0),
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
