"""Reverse-mode gradients for the network forward pass.

Hand-written backpropagation through the sparse aggregations, the MLPs, the
per-clause standardization, the residual literal update, the layer norm, and
both heads.  Gradients accumulate into plain dictionaries keyed like
NetParams.tensors().
"""

from __future__ import annotations

import numpy as np

from .network import HyperParams, NetParams, _gather, _pool, _scatter

__all__ = ["backward_from_heads", "check_finite", "zero_grads"]


def zero_grads(params: NetParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.tensors()}


def _add_swapped(acc, m, n):
    """acc += m with its first n rows and the rest swapped (the gradient of
    joining each literal with its negation); returns acc."""
    acc[:n] += m[n:]
    acc[n:] += m[:n]
    return acc


def _mlp_backward(layers, caches, dout, slope, grads, prefix, pool, gather_t=None):
    # caches[i] is (layer i's input, its dropout mask or None), as
    # network._mlp_forward keeps them; the first layer's product went
    # through the forward's gather, and gather_t is its transpose as a
    # dense row (iteration 0's sizes) or G itself, whose transpose
    # network._scatter applies; the leaky derivatives, the upstream
    # products and the scattered rows come from pool
    upstream = dout
    h_next = None
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        h, mask = caches[i]
        if h_next is None:
            dz = upstream
        else:
            # leaky ReLU derivative, 1 where z > 0 and slope elsewhere: the
            # next layer's input is positive exactly where z > 0, and where
            # dropout zeroed it upstream * mask is 0, so either factor gives
            # the same bits; for 0 <= slope <= 1 this max gives exactly
            # where(z > 0, 1.0, slope) without a branch per element
            dz = np.greater(h_next, 0, out=pool.take(h_next.shape))
            np.maximum(dz, slope, out=dz)
            if mask is not None:
                upstream *= mask
            dz *= upstream
        grads[f"{prefix}.{i}.b"] += dz.sum(axis=0)
        if isinstance(gather_t, np.ndarray) and i == 0:
            dz = gather_t @ dz
        elif gather_t is not None and i == 0:
            out = pool.take((gather_t.shape[1], dz.shape[1]))
            out.fill(0.0)
            _scatter(gather_t, 0, gather_t.shape[0], dz, out)
            dz = out
        grads[f"{prefix}.{i}.w"] += h.T @ dz
        upstream = np.matmul(dz, w.T, out=pool.take((len(dz), len(w))))
        h_next = h
    return upstream


def _standardize_backward(dy, y, inv, pool):
    # y = (x - mean(x)) * inv with inv = 1/sqrt(var + eps), per row; returns
    # inv * (dy - mean(dy) - y * mean(dy * y)) with the row means spelled as
    # sum / width, which is what ndarray.mean computes; computed in place in
    # dy, which no caller reads afterwards
    width = dy.shape[1]
    dy_mean = dy.sum(axis=1, keepdims=True)
    dy_mean /= width
    prod = np.multiply(dy, y, out=pool.take(dy.shape))
    prod_mean = prod.sum(axis=1, keepdims=True)
    prod_mean /= width
    dy -= dy_mean
    np.multiply(y, prod_mean, out=prod)
    dy -= prod
    dy *= inv
    return dy


def backward_from_heads(params: NetParams, hp: HyperParams, cache, dlogits, dvalue=0.0, grads=None):
    """Backpropagate head gradients through the whole network.

    ``dlogits`` is the loss gradient at the policy logits (length num_vars);
    ``dvalue`` at the value estimates, a scalar or one per part of the
    graph (``ForwardOutput.values``).  Returns the gradient dict.
    When ``grads`` is None it creates one and raises FloatingPointError if a
    tensor is not finite; a caller that accumulates into its own ``grads``
    over several calls checks the sum once with ``check_finite``.

    A ``cnf.disjoint_union`` runs as one graph: each dense product and
    column sum spans all its parts, so the gradients equal the sum of one
    backward per part to rounding, not bit for bit.

    The cache serves one backward: it drops each layer's entries once
    read, so that their memory can go while the pass goes on.
    """
    created = grads is None
    if created:
        grads = zero_grads(params)
    graph = cache["graph"]
    g = graph.matrices()[0]
    sizes, by_size = cache["first_round"]
    n = cache["n"]
    dl = hp.delta_l
    slope = hp.leaky_slope
    pool = _pool()

    dX_final = pool.take((2 * n, 2 * dl))
    dX_final.fill(0.0)
    dlogits = np.asarray(dlogits, dtype=float).reshape(n, 1)
    if np.any(dlogits):
        dX_final[:n] += _mlp_backward(params.v_policy, cache["p_cache"], dlogits, slope, grads, "v_policy", pool)
    if params.v_value is not None and np.any(dvalue):
        # each part's value is the sigmoid of the mean of its 2 n_j score
        # rows, n_j positive and n_j negative: its gradient spreads evenly
        # over them
        counts = np.diff(graph.part_bounds()[1])
        v = cache["values"]
        dscores = np.repeat(np.asarray(dvalue, dtype=float) * v * (1.0 - v) / (2 * counts), counts)
        dscores = np.concatenate((dscores, dscores))[:, None]
        dX_final += _mlp_backward(params.v_value, cache["v_cache"], dscores, slope, grads, "v_value", pool)

    cache["p_cache"] = cache["v_cache"] = None
    dL = _add_swapped(dX_final[:, :dl].copy(), dX_final[:, dl:], n)
    iters = cache["iters"]
    for index in reversed(range(len(iters))):
        it = iters[index]
        iters[index] = None
        xhat, ln_inv = it["xhat"], it["ln_inv"]
        grads["ln_scale"] += (dL * xhat).sum(axis=0)
        grads["ln_shift"] += dL.sum(axis=0)
        dxhat = np.multiply(dL, params.ln_scale, out=pool.take(dL.shape))
        dres = _standardize_backward(dxhat, xhat, ln_inv, pool)
        dprev = 0.1 * dres
        dB = _mlp_backward(params.l_update, it["l_cache"], dres, slope, grads, "l_update", pool)
        # iteration 0 ran the clause update once per size class: its
        # gradient sums over each class through by_size, and the class
        # aggregates were sizes times [l_init, l_init]
        gather_t, spread_t = (sizes[None], by_size) if index == 0 else (g, g)
        dC = _standardize_backward(_gather(spread_t, 0, spread_t.shape[0], dB, pool), it["c_std"], it["c_inv"], pool)
        dX = _mlp_backward(params.c_update, it["c_cache"], dC, slope, grads, "c_update", pool, gather_t)
        if index == 0:
            grads["l_init"] += dprev.sum(axis=0) + dX[0, :dl] + dX[0, dl:]
        else:
            dL = dprev
            dL += dX[:, :dl]
            _add_swapped(dL, dX[:, dl:], n)

    if created:
        check_finite(grads)
    return grads


def check_finite(grads: dict) -> None:
    """Raise FloatingPointError naming the first gradient tensor that holds
    a NaN or an infinity."""
    for name, arr in grads.items():
        if not np.isfinite(arr).all():
            raise FloatingPointError(f"non-finite gradient for tensor {name}")
