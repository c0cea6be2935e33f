"""Reverse-mode gradients for the network forward pass.

Hand-written backpropagation through the sparse aggregations, the MLPs, the
per-clause standardization, the residual literal update, the layer norm, and
both heads.  Gradients accumulate into plain dictionaries keyed like
NetParams.tensors().
"""

from __future__ import annotations

import numpy as np

from .network import HyperParams, NetParams

__all__ = ["backward_from_heads", "zero_grads"]


def zero_grads(params: NetParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.tensors()}


def _add_swapped(acc, m, n):
    """acc += m with its first n rows and the rest swapped (the gradient of
    pairing each literal with its negation); returns acc."""
    acc[:n] += m[n:]
    acc[n:] += m[:n]
    return acc


def _mlp_backward(layers, caches, dout, slope, grads, prefix):
    upstream = dout
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        h, z, mask = caches[i]
        if i == len(layers) - 1:
            dz = upstream
        else:
            # leaky ReLU derivative, 1 where z > 0 and slope elsewhere: for
            # 0 <= slope <= 1 this max gives exactly where(z > 0, 1.0, slope)
            # without a branch per element
            dz = np.maximum(z > 0, slope)
            dz *= upstream if mask is None else upstream * mask
        grads[f"{prefix}.{i}.w"] += h.T @ dz
        grads[f"{prefix}.{i}.b"] += dz.sum(axis=0)
        upstream = dz @ w.T
    return upstream


def _standardize_backward(dy, y, inv):
    # y = (x - mean(x)) * inv with inv = 1/sqrt(var + eps), per row; returns
    # inv * (dy - mean(dy) - y * mean(dy * y)) with the row means spelled as
    # sum / width, which is what ndarray.mean computes
    width = dy.shape[1]
    dy_mean = dy.sum(axis=1, keepdims=True)
    dy_mean /= width
    prod = dy * y
    prod_mean = prod.sum(axis=1, keepdims=True)
    prod_mean /= width
    dx = dy - dy_mean
    np.multiply(y, prod_mean, out=prod)
    dx -= prod
    dx *= inv
    return dx


def backward_from_heads(params: NetParams, hp: HyperParams, cache, dlogits, dvalue=0.0, grads=None):
    """Backpropagate head gradients through the whole network.

    ``dlogits`` is the loss gradient at the policy logits (length num_vars);
    ``dvalue`` at the scalar value estimate.  Returns the gradient dict,
    creating one when ``grads`` is None.
    """
    if grads is None:
        grads = zero_grads(params)
    graph = cache["graph"]
    g, gt = graph.matrices()
    n = cache["n"]
    dl = hp.delta_l
    slope = hp.leaky_slope

    dX_final = np.zeros((2 * n, 2 * dl))
    dlogits = np.asarray(dlogits, dtype=float).reshape(n, 1)
    if np.any(dlogits):
        dX_final[:n] += _mlp_backward(params.v_policy, cache["p_cache"], dlogits, slope, grads, "v_policy")
    if params.v_value is not None and dvalue != 0.0:
        v = cache["value"]
        dmean = dvalue * v * (1.0 - v)
        dscores = np.full((2 * n, 1), dmean / (2 * n))
        dX_final += _mlp_backward(params.v_value, cache["v_cache"], dscores, slope, grads, "v_value")

    dL = _add_swapped(dX_final[:, :dl].copy(), dX_final[:, dl:], n)
    for it in reversed(cache["iters"]):
        xhat, ln_inv = it["xhat"], it["ln_inv"]
        grads["ln_scale"] += (dL * xhat).sum(axis=0)
        grads["ln_shift"] += dL.sum(axis=0)
        dxhat = dL * params.ln_scale
        dres = _standardize_backward(dxhat, xhat, ln_inv)
        dprev = 0.1 * dres
        dB = _mlp_backward(params.l_update, it["l_cache"], dres, slope, grads, "l_update")
        dC_std = g @ dB
        dC = _standardize_backward(dC_std, it["c_std"], it["c_inv"])
        dA = _mlp_backward(params.c_update, it["c_cache"], dC, slope, grads, "c_update")
        dX = gt @ dA
        dL = dprev
        dL += dX[:, :dl]
        _add_swapped(dL, dX[:, dl:], n)
    grads["l_init"] += dL.sum(axis=0)

    for name, arr in grads.items():
        if not np.isfinite(arr).all():
            raise FloatingPointError(f"non-finite gradient for tensor {name}")
    return grads
