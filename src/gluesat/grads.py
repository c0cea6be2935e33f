"""Reverse-mode gradients for the network forward pass.

Hand-written backpropagation through the sparse aggregations, the MLPs, the
per-clause standardization, the residual literal update, the layer norm, and
both heads.  Gradients accumulate into plain dictionaries keyed like
NetParams.tensors().
"""

from __future__ import annotations

import numpy as np

from .network import HyperParams, NetParams, _blocks, _matmul, _pool

__all__ = ["backward_from_heads", "check_finite", "zero_grads"]


def zero_grads(params: NetParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.tensors()}


def _add_swapped(acc, m, n, negation=None):
    """acc += m with its first n rows and the rest swapped, or with row l
    taken from row negation[l] in a union: the gradient of pairing each
    literal with its negation; returns acc."""
    if negation is None:
        acc[:n] += m[n:]
        acc[n:] += m[:n]
    else:
        acc += m[negation]
    return acc


class _PartGrads:
    """Adds a backward's parameter gradients, given one per part, to
    ``grads`` in the order of one backward per part, part after part, so
    that a backward over a disjoint union leaves the same bits in
    ``grads`` as its parts' own backwards would, one after the other.  A
    tensor that gets one gradient per part (``defer`` False) takes them at
    once, in part order; one that gets several, one per message-passing
    iteration, takes part 0's as they come and the others' at ``flush``."""

    def __init__(self, grads, parts, defer=True):
        self.grads = grads
        self.parts = parts
        self.later = [[] for _ in range(parts - 1)] if defer else None

    def add(self, name, per_part):
        """Adds per_part[j], part j's gradient of tensor ``name``."""
        self.grads[name] += per_part[0]
        if self.later is None:
            for grad in per_part[1:]:
                self.grads[name] += grad
        else:
            for pending, grad in zip(self.later, per_part[1:]):
                pending.append((name, grad))

    def sums(self, name, x, blocks):
        """Adds the column sums of each part's rows of x, the (lo, hi)
        ranges of ``blocks``."""
        if self.parts > 1:
            self.add(name, [x[lo:hi].sum(axis=0) for lo, hi in blocks])
        else:
            self.grads[name] += x.sum(axis=0)

    def products(self, name, h, dz, blocks):
        """Adds h.T @ dz over each part's rows."""
        if self.parts > 1:
            self.add(name, [h[lo:hi].T @ dz[lo:hi] for lo, hi in blocks])
        else:
            self.grads[name] += h.T @ dz

    def flush(self):
        for pending in self.later or ():
            for name, grad in pending:
                self.grads[name] += grad


def _mlp_backward(layers, caches, dout, slope, sink, prefix, pool, blocks, gather_t=None, in_blocks=None):
    # caches[i] is (layer i's input, its dropout mask or None), as
    # network._mlp_forward keeps them; gather_t is the transpose of the
    # forward's gather, which the first layer's product went through.
    # Rows come part after part, each part's in the order of its own pass:
    # part j holds rows blocks[j] = (lo, hi) of dout and of every layer's
    # output, and in_blocks[j] of the first layer's input when gather_t is
    # given.  Every dense product and sum runs once per part (_matmul), so
    # each part gets the bits of its own backward: a product with a
    # transposed weight rounds a row differently at different row counts.
    # The leaky derivatives and the upstream products come from pool
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
        sink.sums(f"{prefix}.{i}.b", dz, blocks)
        rows = blocks
        if gather_t is not None and i == 0:
            dz = gather_t(dz) if callable(gather_t) else gather_t @ dz
            rows = in_blocks
        sink.products(f"{prefix}.{i}.w", h, dz, rows)
        upstream = _matmul(dz, w.T, pool.take((len(dz), len(w))), rows)
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

    Over a ``cnf.disjoint_union`` each tensor gets each part's gradients in
    part order, after all of the previous part's, so ``grads`` ends with
    the bits of one backward per graph, graph after graph.

    The cache serves one backward: it drops each layer's entries once
    read, so that their memory can go while the pass goes on.
    """
    created = grads is None
    if created:
        grads = zero_grads(params)
    graph = cache["graph"]
    g, gt = graph.matrices()[:2]
    sizes, by_size, class_bounds = cache["first_round"]
    clause_bounds, var_bounds = graph.part_bounds()
    n = cache["n"]
    dl = hp.delta_l
    slope = hp.leaky_slope
    pool = _pool()
    # the heads' and l_init's tensors get one gradient per part, the
    # message passing's one per part and iteration
    once = _PartGrads(grads, len(graph.parts), defer=False)
    sink = _PartGrads(grads, len(graph.parts))
    # a union keeps each part's rows in one block, in the order of the
    # part's own pass (cnf.disjoint_union): every dense product and column
    # sum runs per block
    var_blocks, literal_blocks = _blocks(var_bounds), _blocks(2 * var_bounds)
    clause_blocks, class_blocks = _blocks(clause_bounds), _blocks(class_bounds)
    negation, positive = graph.pairing() or (None, None)

    dX_final = pool.take((2 * n, 2 * dl))
    dX_final.fill(0.0)
    dlogits = np.asarray(dlogits, dtype=float).reshape(n, 1)
    if np.any(dlogits):
        dpos = _mlp_backward(params.v_policy, cache["p_cache"], dlogits, slope, once, "v_policy", pool, var_blocks)
        if positive is None:
            dX_final[:n] += dpos
        else:
            dX_final[positive] += dpos
    if params.v_value is not None and np.any(dvalue):
        # each part's value is the sigmoid of the mean of its 2 n_j score
        # rows: its gradient spreads evenly over them
        rows = 2 * np.diff(var_bounds)
        v = cache["values"]
        dscores = np.repeat(np.asarray(dvalue, dtype=float) * v * (1.0 - v) / rows, rows)[:, None]
        dX_final += _mlp_backward(params.v_value, cache["v_cache"], dscores, slope, once, "v_value", pool,
                                  literal_blocks)

    cache["p_cache"] = cache["v_cache"] = None
    dL = _add_swapped(dX_final[:, :dl].copy(), dX_final[:, dl:], n, negation)
    iters = cache["iters"]
    for index in reversed(range(len(iters))):
        it = iters[index]
        iters[index] = None
        xhat, ln_inv = it["xhat"], it["ln_inv"]
        sink.sums("ln_scale", dL * xhat, literal_blocks)
        sink.sums("ln_shift", dL, literal_blocks)
        dxhat = np.multiply(dL, params.ln_scale, out=pool.take(dL.shape))
        dres = _standardize_backward(dxhat, xhat, ln_inv, pool)
        dprev = 0.1 * dres
        dB = _mlp_backward(params.l_update, it["l_cache"], dres, slope, sink, "l_update", pool, literal_blocks)
        c_cache = it["c_cache"]
        if index == 0:
            # iteration 0 ran the clause update once per size class of
            # each part: its gradient sums over each part's classes
            # through by_size's transpose, and each part's class
            # aggregates were its sizes times the one row [l_init, l_init]
            parts = len(class_blocks)
            (h, mask), *rest = c_cache
            c_cache = [(np.repeat(h, parts, axis=0), mask), *rest]
            spread_t, blocks, in_blocks = by_size.T, class_blocks, [(j, j + 1) for j in range(parts)]

            def gather_t(dz):
                return np.concatenate([sizes[None, lo:hi] @ dz[lo:hi] for lo, hi in class_blocks])
        else:
            spread_t, blocks, in_blocks, gather_t = g, clause_blocks, literal_blocks, gt
        dC = _standardize_backward(spread_t @ dB, it["c_std"], it["c_inv"], pool)
        dX = _mlp_backward(params.c_update, c_cache, dC, slope, sink, "c_update", pool, blocks, gather_t, in_blocks)
        if index == 0:
            once.add("l_init", [dprev[lo:hi].sum(axis=0) + dX[j, :dl] + dX[j, dl:]
                                for j, (lo, hi) in enumerate(literal_blocks)])
        else:
            dL = dprev
            dL += dX[:, :dl]
            _add_swapped(dL, dX[:, dl:], n, negation)
    sink.flush()

    if created:
        check_finite(grads)
    return grads


def check_finite(grads: dict) -> None:
    """Raise FloatingPointError naming the first gradient tensor that holds
    a NaN or an infinity."""
    for name, arr in grads.items():
        if not np.isfinite(arr).all():
            raise FloatingPointError(f"non-finite gradient for tensor {name}")
