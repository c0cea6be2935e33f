"""Message-passing network over clause-literal graphs (CPU, numpy/scipy).

Each iteration aggregates the paired (literal, negated-literal) embeddings
into clause embeddings, standardizes them per clause, scatters them back to
literals through a residual update, and layer-normalizes.  The policy head
scores each variable from its concatenated positive/negative literal
embeddings; the optional value head maps the mean literal score through a
sigmoid.  A ``cnf.disjoint_union`` of graphs runs as one graph, with one
value per graph.
"""

from __future__ import annotations

import io
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from copy import deepcopy
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

__all__ = [
    "ForwardOutput",
    "HyperParams",
    "NetParams",
    "WeightFormatError",
    "forward",
    "forward_with_cache",
    "init_params",
    "load_weights",
    "mlp_dims",
    "policy_distribution",
    "preset",
    "save_weights",
]

_MAGIC = "NGW1"


class WeightFormatError(ValueError):
    """Corrupt or inconsistent weight file."""


@dataclass(frozen=True)
class HyperParams:
    delta_l: int = 16       # literal embedding width
    delta_c: int = 64       # clause embedding width
    tau_iters: int = 2      # message-passing iterations
    n_l: int = 2            # literal-update MLP depth
    n_c: int = 2            # clause-update MLP depth
    n_p: int = 3            # head MLP depth
    dropout: float = 0.15
    leaky_slope: float = 0.01
    ln_eps: float = 1e-5

    def __post_init__(self):
        if min(self.delta_l, self.delta_c, self.n_l, self.n_c, self.n_p) < 1:
            raise ValueError("all dimensions and depths must be >= 1")
        if self.tau_iters < 1:
            raise ValueError("tau_iters must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        # the leaky ReLU kernels are exact only for a slope in [0, 1]; NaN fails too
        if not 0.0 <= self.leaky_slope <= 1.0:
            raise ValueError("leaky_slope must lie in [0, 1]")
        if not (math.isfinite(self.ln_eps) and self.ln_eps > 0):
            raise ValueError(f"ln_eps must be finite and > 0, got {self.ln_eps}")


_PRESETS = {
    "supervised": HyperParams(delta_l=16, delta_c=64, tau_iters=2, n_l=2, n_c=2, n_p=3),
    "rl": HyperParams(delta_l=32, delta_c=64, tau_iters=4, n_l=3, n_c=3, n_p=4),
}


def preset(name: str) -> HyperParams:
    """Named hyperparameter presets: 'supervised' (small) or 'rl' (wider/deeper)."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(_PRESETS)}") from None


def mlp_dims(depth: int, d_in: int, d_out: int) -> list[int]:
    """Layer widths for a depth-layer MLP; hidden layers keep the input width."""
    return [d_in] * depth + [d_out]


@dataclass
class NetParams:
    """All learnable tensors; MLPs are lists of (weight, bias) pairs with
    weights shaped (fan_in, fan_out)."""

    l_init: np.ndarray
    c_update: list
    l_update: list
    v_policy: list
    v_value: list | None
    ln_scale: np.ndarray
    ln_shift: np.ndarray

    def tensors(self):
        """Yield (name, array) pairs in the canonical serialization order."""
        yield "l_init", self.l_init
        for group, layers in (
            ("c_update", self.c_update),
            ("l_update", self.l_update),
            ("v_policy", self.v_policy),
            ("v_value", self.v_value or []),
        ):
            for i, (w, b) in enumerate(layers):
                yield f"{group}.{i}.w", w
                yield f"{group}.{i}.b", b
        yield "ln_scale", self.ln_scale
        yield "ln_shift", self.ln_shift

    def copy(self) -> "NetParams":
        return deepcopy(self)


@dataclass
class ForwardOutput:
    policy_logits: np.ndarray     # one logit per compacted variable
    values: np.ndarray | None     # one per part of the graph, in [0, 1], when the value head is present

    @property
    def value(self) -> float | None:
        """The value of a plain (one-part) graph, as a float."""
        if self.values is None:
            return None
        if len(self.values) != 1:
            raise ValueError(f"a union of {len(self.values)} graphs has one value per part: read values")
        return float(self.values[0])


def _f32(a):
    # keep parameters exactly representable in the float32 weight format
    return np.asarray(a, dtype=np.float32).astype(np.float64)


def _init_mlp(rng, depth, d_in, d_out):
    dims = mlp_dims(depth, d_in, d_out)
    layers = []
    for a, b in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (a + b))
        w = rng.uniform(-bound, bound, size=(a, b))
        layers.append((_f32(w), np.zeros(b)))
    return layers


def _mlp_layout(hp: HyperParams, value_head: bool):
    """Each MLP's (name, depth, input width, output width), in the order
    init_params draws them and NetParams.tensors lists them."""
    dl, dc = hp.delta_l, hp.delta_c
    layout = [("c_update", hp.n_c, 2 * dl, dc), ("l_update", hp.n_l, dc, dl), ("v_policy", hp.n_p, 2 * dl, 1)]
    if value_head:
        layout.append(("v_value", hp.n_p, 2 * dl, 1))
    return layout


def _tensor_shapes(hp: HyperParams, value_head: bool) -> list[tuple[str, tuple[int, ...]]]:
    """The (name, shape) pairs of init_params(hp, value_head=...).tensors(),
    worked out without allocating a tensor."""
    shapes = [("l_init", (hp.delta_l,))]
    for group, depth, d_in, d_out in _mlp_layout(hp, value_head):
        dims = mlp_dims(depth, d_in, d_out)
        for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
            shapes += [(f"{group}.{i}.w", (a, b)), (f"{group}.{i}.b", (b,))]
    return shapes + [("ln_scale", (hp.delta_l,)), ("ln_shift", (hp.delta_l,))]


def init_params(hp: HyperParams, seed=None, value_head: bool = False) -> NetParams:
    """Fan-in/fan-out scaled uniform weights, zero biases, unit layer norm."""
    rng = np.random.default_rng(seed)
    dl = hp.delta_l
    l_init = _f32(rng.standard_normal(dl) / np.sqrt(dl))
    mlps = {name: _init_mlp(rng, depth, d_in, d_out) for name, depth, d_in, d_out in _mlp_layout(hp, value_head)}
    return NetParams(
        l_init=l_init,
        c_update=mlps["c_update"],
        l_update=mlps["l_update"],
        v_policy=mlps["v_policy"],
        v_value=mlps.get("v_value"),
        ln_scale=np.ones(dl),
        ln_shift=np.zeros(dl),
    )


# ------------------------------------------------------------------ buffers

# Arrays of at least this many float64s (128 KiB, glibc's default mmap
# threshold) are served by glibc's mmap or by a heap top it trims on free,
# so a fresh one faults its pages in again on every pass.
_POOL_FLOOR = 16_384
_POOL_MAX = 64          # buffers one thread retains at most


def _free_refcount():
    # sys.getrefcount of a buffer that only its pool's list holds, read as
    # _Pool.take reads it: through a local name bound from the list
    bufs = [np.empty(1)]
    buf = bufs[0]
    return sys.getrefcount(buf)


_FREE = _free_refcount()


class _Pool:
    """One thread's retained float64 buffers, smallest first.  ``take``
    hands out a view of a buffer that no live array references, so a
    cache or logits still held keep their memory."""

    def __init__(self):
        self.bufs = []

    def take(self, shape):
        """An uninitialized float64 array of the 2-D ``shape``: below the
        floor a fresh one, else a view of the smallest free buffer that
        holds it."""
        size = shape[0] * shape[1]
        if size < _POOL_FLOOR:
            return np.empty(shape)
        bufs = self.bufs
        spare = None
        for i in range(len(bufs)):
            buf = bufs[i]
            if sys.getrefcount(buf) == _FREE:
                if buf.size >= size:
                    return buf[:size].reshape(shape)
                spare = i
        buf = None              # no longer holds the last buffer seen
        if spare is not None:
            del bufs[spare]     # the largest free buffer, too small: replaced
        elif len(bufs) >= _POOL_MAX:
            return np.empty(shape)
        buf = np.empty(size)
        bufs.append(buf)
        bufs.sort(key=len)
        return buf.reshape(shape)


_local = threading.local()


def _pool():
    """This thread's pool, made on first use."""
    if not hasattr(_local, "pool"):
        _local.pool = _Pool()
    return _local.pool


def _concat_neg(L, n, pool):
    # pair each literal's embedding with its negation's: rows v-1 and n+v-1
    # swap; a single shared embedding (1-D L) gives the one row [L, L]
    if L.ndim == 1:
        return np.concatenate((L, L))[None]
    d = L.shape[1]
    X = pool.take((2 * n, 2 * d))
    X[:, :d] = L
    X[:n, d:] = L[n:]
    X[n:, d:] = L[:n]
    return X


def _activate(z, b, slope, dropout, drng, pool, hidden):
    """Add the bias to z in place and, on a hidden layer, apply leaky ReLU
    and dropout; returns the dropout mask or None."""
    z += b
    if not hidden:
        return None
    # leaky ReLU in place: for 0 <= slope <= 1 (HyperParams enforces it)
    # this max is exactly where(z > 0, z, slope * z), without a branch per
    # element
    np.maximum(z, np.multiply(z, slope, out=pool.take(z.shape)), out=z)
    if drng is None or dropout == 0.0:
        return None
    mask = drng.random(out=pool.take(z.shape))
    np.greater_equal(mask, dropout, out=mask)
    mask /= 1.0 - dropout
    z *= mask
    return mask


def _mlp_forward(layers, h, slope, dropout, drng, cache, pool, gather=None, out=None):
    """Run an MLP on h: leaky ReLU and, when drng is given, dropout after
    every layer but the last.

    With ``gather``, the MLP runs on ``gather @ h``: the first layer is
    linear before its bias, so it runs on h's rows and ``gather`` applies to
    its product, ``gather @ (h @ w) + b``.  With ``out`` (and no gather),
    the last layer's product is written there.

    When cache is a list, each layer appends (its input, its dropout mask or
    None), where the first layer's input is h, not ``gather @ h``; the
    pre-activations are not kept, since a hidden layer's output is positive
    exactly where its pre-activation is.  With no cache, no reference to a
    layer's input outlives the computation of its output.  The dense
    products, the leaky ReLU temporary and the dropout masks come from
    ``pool``."""
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        z = np.matmul(h, w, out=out if i == last and out is not None else pool.take((len(h), w.shape[1])))
        if gather is not None and i == 0:
            if cache is None:
                h = None        # free the input before the aggregate is made
            if isinstance(gather, np.ndarray):
                z = np.matmul(gather, z, out=pool.take((len(gather), z.shape[1])))
            else:       # a scipy sparse product takes no out=
                z = gather @ z
        mask = _activate(z, b, slope, dropout, drng, pool, i < last)
        if cache is not None:
            cache.append((h, mask))
        h = z
    return h


def _standardize_rows(x, eps):
    """Per row, x = (x - mean) * inv with inv = 1 / sqrt(var + eps), in
    place: returns (x, inv), with x now holding the standardized rows.

    The mean is x.mean's, in the same order; the sum of squares comes from
    einsum, which makes no squared copy of x (for the clause rows, the
    largest temporary of a cache-free pass), so the variance matches x.var
    to rounding rather than bit for bit."""
    width = x.shape[1]
    mu = x.sum(axis=1, keepdims=True)
    mu /= width
    x -= mu
    inv = np.einsum("ij,ij->i", x, x)[:, None]
    inv /= width
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    x *= inv
    return x, inv


# ------------------------------------------------------- the network worker

# A training batch runs the forward of its next example on the network
# worker while the calling thread runs the current backward
# (training._batch_kl) only when that next graph has at least this many
# edges.  Below it numpy and scipy hold the GIL for much of a pass and the
# two threads mostly take turns.  Overlapped time / serial time of a
# 3-example batch, supervised preset, one BLAS thread, 2 cores: random
# 3-SAT 1.33 at 384 edges, 1.16 at 768, 0.98 at 1,278, 0.97 at 2,001, 0.89
# at 2,556; random 5-SAT 1.27 at 1,000, 1.08 at 2,000 and 0.94 at 4,000
# edges.
_OVERLAP_MIN_EDGES = 3_000

# A cache-free pass over a graph of at least this many edges splits the
# rows of its clause and literal updates between the calling thread and
# the network worker.  A split pass joins its halves 2 * tau_iters - 1
# times, and the halves of small stages contend for the GIL, so it breaks
# even later than the overlap.  Split time / whole time of `forward`,
# random 3-SAT, one BLAS thread, 2 vCPUs of a Xeon (Sapphire Rapids) VM,
# two alternating medians of 50 passes each: supervised preset 0.97-1.0
# at 8,946 edges, 0.89-0.94 at 10,224, 0.74-0.78 at 12,780 and 0.70-0.72
# at 17,892; rl preset 1.02-1.13 at 6,390, 0.95-0.98 at 8,946 and
# 0.62-0.65 at 17,892.
_SPLIT_MIN_EDGES = 10_000


def _spare_core() -> bool:
    """Whether numpy's BLAS runs one thread on a machine of two or more
    cores, so that a second thread has a core to itself.  OpenBLAS reads
    its thread count from the first of these variables set to a positive
    number when it loads, and otherwise takes every core.  With more BLAS
    threads, a second thread only competes for the cores that each BLAS
    call already uses: a 3-example epoch on ~20k-edge graphs took 1.19x
    the serial time with 2 BLAS threads on 2 cores."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads == 1 and (os.cpu_count() or 1) >= 2
    return False


_SPARE_CORE = _spare_core()

_worker = None
_worker_lock = threading.Lock()


def _on_worker():
    _local.on_worker = True


def _network_worker() -> ThreadPoolExecutor:
    """The one thread that runs a split pass's second halves and a training
    batch's forwards, started on first use and kept, so that its buffer
    pool persists."""
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = ThreadPoolExecutor(1, thread_name_prefix="gluesat-network", initializer=_on_worker)
        return _worker


def _forget_worker():
    # a forked child has the executor but not its thread
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_worker)


def _split_worker(graph, keep, drng):
    """The worker that takes the second half of each split stage of this
    pass, or None when the pass runs whole on this thread: it keeps a
    cache, draws dropout masks (one stream, in row order), runs on the
    worker itself, or has no spare core or too few edges to gain."""
    if keep or drng is not None or not _SPARE_CORE or graph.num_edges < _SPLIT_MIN_EDGES:
        return None
    if getattr(_local, "on_worker", False):
        return None
    return _network_worker()


def _half(rows, k):
    """Rows [lo, hi) of half k (0 here, 1 on the worker) of a stage over
    ``rows`` rows.  A stage of fewer than four rows runs whole here: numpy
    multiplies a one-row matrix with a matrix-vector kernel, whose bits
    can differ from the matrix kernel's that the whole stage uses."""
    cut = rows // 2 if rows >= 4 else rows
    return (0, cut) if k == 0 else (cut, rows)


def _row_halves(m):
    """The two row halves (``_half``) of the CSR matrix m as CSR matrices
    sharing its data and indices (scipy's row slicing copies them).  Built
    on the calling thread while the worker waits: the constructors hold
    the GIL, and built inside the halves they cost a split pass at 18k
    edges about 0.3 ms of GIL contention."""
    from scipy.sparse import csr_matrix

    halves = []
    for k in (0, 1):
        lo, hi = _half(m.shape[0], k)
        start, end = m.indptr[lo], m.indptr[hi]
        halves.append(csr_matrix((m.data[start:end], m.indices[start:end], m.indptr[lo : hi + 1] - start),
                                 shape=(hi - lo, m.shape[1]), copy=False))
    return halves


def _in_halves(worker, stage, *args):
    """stage(0, *args) on this thread and stage(1, *args) on the worker.
    Returns once both have finished; an error in either raises here, this
    thread's first, and only after the worker's half has ended."""
    future = worker.submit(stage, 1, *args)
    try:
        stage(0, *args)
    finally:
        wait([future])
    future.result()


# ------------------------------------------------------------------ stages
# Each stage works on rows [lo, hi) of its output (``_half``); a split pass
# runs its two halves at once.


def _clause_rows(k, params, hp, g_halves, P, C_std):
    # the clause update on a half of the clauses after its first product P:
    # G's rows times P, then the rest of the MLP, standardized into C_std
    lo, hi = _half(len(C_std), k)
    pool = _pool()
    z = g_halves[k] @ P
    layers = params.c_update
    _activate(z, layers[0][1], hp.leaky_slope, hp.dropout, None, pool, len(layers) > 1)
    if len(layers) > 1:
        _mlp_forward(layers[1:], z, hp.leaky_slope, hp.dropout, None, None, pool, out=C_std[lo:hi])
    else:
        C_std[lo:hi] = z
    _standardize_rows(C_std[lo:hi], hp.ln_eps)


def _layer_norm(params, hp, x, out):
    """Standardize x's rows in place and write their affine layer norm to
    out; returns the standardized rows and their inverse deviations."""
    xhat, inv = _standardize_rows(x, hp.ln_eps)
    np.multiply(xhat, params.ln_scale, out=out)
    out += params.ln_shift
    return xhat, inv


def _literal_rows(k, params, hp, spread_halves, C_std, L, L_next):
    # the literal update on a half of the literals, from spread's rows
    lo, hi = _half(len(L_next), k)
    L_res = _mlp_forward(params.l_update, spread_halves[k] @ C_std, hp.leaky_slope, hp.dropout, None, None,
                         _pool())
    L_res += 0.1 * (L if L.ndim == 1 else L[lo:hi])
    _layer_norm(params, hp, L_res, L_next[lo:hi])


def _part_values(v_scores, var_bounds):
    """Each part's value: the sigmoid of the mean of its rows of the value
    head's scores, its positive literals' [v_j, v_j+1) and then its
    negative literals' [N + v_j, N + v_j+1), for N = var_bounds[-1]; for a
    plain graph, the mean of all the scores.  Below a mean of about -709
    exp overflows to inf, and the value is its limit, 0.0."""
    n = var_bounds[-1]
    values = []
    for lo, hi in zip(var_bounds[:-1].tolist(), var_bounds[1:].tolist()):
        mean = np.concatenate((v_scores[lo:hi], v_scores[n + lo : n + hi])).mean()
        with np.errstate(over="ignore"):
            values.append(1.0 / (1.0 + np.exp(-mean)))
    return np.array(values)


def _forward(params, hp, graph, train_mode, dropout_seed, keep):
    # the one forward body: with keep, it also returns the cache that
    # backward_from_heads reads; without, each intermediate is freed after
    # its last use.  A pass that _split_worker allows runs each literal
    # update, and each clause update after its first product but iteration
    # 0's, in two halves at once, this thread's and the worker's, into one
    # output; the heads run whole
    for j, (_, num_vars) in enumerate(graph.parts):
        if num_vars == 0:       # no logits, and its value the mean of no scores
            raise ValueError(f"part {j} of {len(graph.parts)} of the graph has no variables")
    g, gt, sizes, by_size = graph.matrices()
    n = graph.num_vars
    pool = _pool()
    drng = np.random.default_rng(dropout_seed) if (train_mode and hp.dropout > 0.0) else None
    worker = _split_worker(graph, keep, drng)
    # every literal starts at l_init, so in iteration 0 a clause's aggregate
    # is its size times [l_init, l_init]: the clause update runs once per
    # size class and by_size sums the classes back into the literals
    if drng is not None:
        # dropout draws a mask per clause: every clause is its own class
        sizes, by_size = np.bincount(graph.rows, minlength=graph.num_clauses).astype(float), gt
    L = params.l_init
    iters = [] if keep else None
    for it in range(hp.tau_iters):
        c_cache = [] if keep else None
        l_cache = [] if keep else None
        gather, spread = (sizes[:, None], by_size) if it == 0 else (g, gt)
        if worker is None or it == 0:
            # the literal pairs go in as an argument expression, so that the
            # clause update can free them after its first product
            C_std, c_inv = _standardize_rows(
                _mlp_forward(params.c_update, _concat_neg(L, n, pool), hp.leaky_slope, hp.dropout, drng,
                             c_cache, pool, gather),
                hp.ln_eps,
            )
        else:
            w = params.c_update[0][0]
            P = np.matmul(_concat_neg(L, n, pool), w, out=pool.take((2 * n, w.shape[1])))
            C_std = pool.take((graph.num_clauses, hp.delta_c))
            _in_halves(worker, _clause_rows, params, hp, _row_halves(g), P, C_std)
            del P
        if worker is None:
            B = spread @ C_std
            if not keep:
                # the largest array of an iteration; held through the literal
                # update, it would set the peak of a cache-free pass
                del C_std
            L_res = _mlp_forward(params.l_update, B, hp.leaky_slope, hp.dropout, drng, l_cache, pool)
            del B
            L_res += 0.1 * L
            del L
            L = pool.take(L_res.shape)
            xhat, inv = _layer_norm(params, hp, L_res, L)
        else:
            L_next = pool.take((2 * n, hp.delta_l))
            _in_halves(worker, _literal_rows, params, hp, _row_halves(spread), C_std, L, L_next)
            del C_std
            L = L_next
        if not np.isfinite(L).all():
            raise FloatingPointError(f"non-finite literal embeddings at iteration {it}")
        if keep:
            iters.append(
                {"c_cache": c_cache, "c_std": C_std, "c_inv": c_inv,
                 "l_cache": l_cache, "xhat": xhat, "ln_inv": inv}
            )
    X_final = _concat_neg(L, n, pool)
    del L
    p_cache = [] if keep else None
    logits = _mlp_forward(params.v_policy, X_final[:n], hp.leaky_slope, hp.dropout, drng, p_cache, pool).ravel()
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite policy logits")
    values = None
    v_cache = [] if keep else None
    if params.v_value is not None:
        v_scores = _mlp_forward(params.v_value, X_final, hp.leaky_slope, hp.dropout, drng, v_cache, pool)
        values = _part_values(v_scores, graph.part_bounds()[1])
    out = ForwardOutput(policy_logits=logits, values=values)
    if not keep:
        return out, None
    cache = {
        "graph": graph, "iters": iters, "first_round": (sizes, by_size), "p_cache": p_cache, "v_cache": v_cache,
        "values": values, "n": n,
    }
    return out, cache


def forward_with_cache(params: NetParams, hp: HyperParams, graph, train_mode=False, dropout_seed=0):
    """The forward pass of ``forward``, also returning the cache that
    ``backward_from_heads`` reads, once: it empties the cache as it goes.

    The cache holds, per message-passing iteration, each MLP layer's input
    and dropout mask (the clause update's first input is the literal pairs,
    one row [l_init, l_init] in iteration 0), the standardized clause
    embeddings ``c_std`` (one row per size class in iteration 0 without
    dropout) and the layer-normalized literals ``xhat`` with their inverse
    deviations; the same per layer for both heads; iteration 0's
    ``first_round`` (sizes, by_size) pair; and the graph, the values and
    the variable count.  Raises ValueError, before allocating, for a
    graph with a part of no variables."""
    return _forward(params, hp, graph, train_mode, dropout_seed, keep=True)


def forward(params: NetParams, hp: HyperParams, graph, train_mode=False, dropout_seed=0) -> ForwardOutput:
    """Run the network over a graph: per-variable policy logits plus the
    optional value estimate of each part (``ForwardOutput.value`` for a
    plain graph).  A ``cnf.disjoint_union`` runs as one graph: a part's
    logits are the union's logits at its variables, and its logits and
    value equal those of its own pass to rounding, not bit for bit, since
    BLAS may round a row differently in a product of another shape.
    Raises ValueError, before allocating, when a part has no variables.
    Keeps no cache, so each intermediate is freed after its last use; the
    outputs are bit-identical to ``forward_with_cache``'s."""
    out, _ = _forward(params, hp, graph, train_mode, dropout_seed, keep=False)
    return out


def policy_distribution(logits, temperature: float) -> np.ndarray:
    """softmax(temperature * logits), stabilized by max subtraction.
    Raises ValueError for empty or non-finite logits."""
    logits = np.asarray(logits, dtype=float)
    if logits.size == 0:
        raise ValueError("empty logits")
    if not np.isfinite(logits).all():
        raise ValueError("logits must be finite")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    z = temperature * logits
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


# ------------------------------------------------------------------ weights


# the hyper line: every HyperParams field in declaration order, then the
# value-head flag; str gives the same text as repr for int and float
_HYPER_FIELDS = [f.name for f in fields(HyperParams)]
_HYPER_TYPES = get_type_hints(HyperParams)


def save_weights(params: NetParams, hp: HyperParams, path) -> None:
    """Write the NGW1 weight file: ASCII header, float32 payloads."""
    value_head = params.v_value is not None
    buf = io.BytesIO()
    buf.write(f"{_MAGIC}\n".encode())
    hyper = [str(getattr(hp, name)) for name in _HYPER_FIELDS]
    buf.write(f"hyper {' '.join(hyper)} {int(value_head)}\n".encode())
    tensors = list(params.tensors())
    for name, arr in tensors:
        dims = " ".join(str(d) for d in arr.shape)
        buf.write(f"tensor {name} {arr.ndim} {dims}\n".encode())
    buf.write(b"data\n")
    for _, arr in tensors:
        buf.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_weights(path) -> tuple[NetParams, HyperParams]:
    """Read an NGW1 file back into (NetParams, HyperParams)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head, sep, payload = blob.partition(b"data\n")
    if not sep:
        raise WeightFormatError("missing data section")
    lines = head.decode("ascii", errors="replace").splitlines()
    if not lines or lines[0] != _MAGIC:
        raise WeightFormatError("bad magic")
    if len(lines) < 2 or not lines[1].startswith("hyper "):
        raise WeightFormatError("missing hyper line")
    tokens = lines[1].split()[1:]
    if len(tokens) != len(_HYPER_FIELDS) + 1:
        raise WeightFormatError("malformed hyper line")
    try:
        hp = HyperParams(**{name: _HYPER_TYPES[name](tok) for name, tok in zip(_HYPER_FIELDS, tokens)})
    except ValueError as exc:
        raise WeightFormatError(f"bad hyper line: {exc}") from exc
    if tokens[-1] not in ("0", "1"):
        raise WeightFormatError(f"bad hyper line: value-head flag must be 0 or 1, got {tokens[-1]!r}")
    value_head = tokens[-1] == "1"
    declared = []
    for line in lines[2:]:
        parts = line.split()
        if not parts:
            continue
        if parts[0] != "tensor" or len(parts) < 3:
            raise WeightFormatError(f"unexpected header line {line!r}")
        try:
            ndim, *dims = map(int, parts[2:])
        except ValueError:
            raise WeightFormatError(f"non-integer dimension in header line {line!r}") from None
        name, dims = parts[1], tuple(dims)
        if len(dims) != ndim or min(dims, default=0) < 0:
            raise WeightFormatError(f"bad dimensions for {name}")
        declared.append((name, dims))
    # the declared dims fix the payload length and the hyper line fixes the
    # tensor list: a file that fails either is refused before init_params
    # allocates what the hyper line asks
    expected = 4 * sum(math.prod(dims) for _, dims in declared)
    if len(payload) < expected:
        raise WeightFormatError(f"truncated payload: {len(payload)} of {expected} bytes")
    if len(payload) > expected:
        raise WeightFormatError("trailing bytes after tensor payloads")
    if declared != _tensor_shapes(hp, value_head):
        raise WeightFormatError("tensor list does not match hyperparameters")
    # init_params defines the tensors: its arrays, in place, take the payload
    params = init_params(hp, seed=0, value_head=value_head)
    offset = 0
    for _, arr in params.tensors():
        arr[...] = np.frombuffer(payload, dtype="<f4", count=arr.size, offset=offset).reshape(arr.shape)
        offset += 4 * arr.size
    return params, hp
