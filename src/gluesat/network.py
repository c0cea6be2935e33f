"""Message-passing network over clause-literal graphs (CPU, numpy and
scipy's compiled sparse kernels).

Each iteration aggregates the paired (literal, negated-literal) embeddings
into clause embeddings, standardizes them per clause, scatters them back to
literals through a residual update, and layer-normalizes.  The policy head
scores each variable from its concatenated positive/negative literal
embeddings; the optional value head maps the mean literal score through a
sigmoid.  A ``cnf.disjoint_union`` of graphs runs as one graph, with one
value per graph.
"""

from __future__ import annotations

import ctypes
import io
import math
from copy import deepcopy
from dataclasses import dataclass, fields
from itertools import pairwise
from typing import get_type_hints

import numpy as np

from .cnf import _sparsetools

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


# ------------------------------------------------------------------ allocator

# glibc hands each freed block of 128 KiB or more back to the OS and trims
# the heap top above 128 KiB of free space, so a pass's arrays would fault
# their pages in again on every pass.  Raising both thresholds keeps freed
# arrays' pages in the process for the next pass: mmap only blocks of 32 MiB
# or more (glibc's 64-bit ceiling), and trim only above twice that (the
# ratio glibc's own dynamic rule keeps).  The setting holds for the whole
# process.
_M_TRIM_THRESHOLD = -1          # mallopt's parameter numbers (malloc.h)
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20


def _set_allocator(libc):
    """Set glibc's mmap and trim thresholds through ``libc``'s mallopt;
    a libc without one (macOS, some others) is left as it is."""
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


_set_allocator(ctypes.CDLL(None))


def _pairs(L, n, lo, hi):
    # rows [lo, hi) of the literal pairs, each literal's embedding beside its
    # negation's (rows v-1 and n+v-1 swap); a single shared embedding (1-D
    # L) gives the one row [L, L]
    if L.ndim == 1:
        return np.concatenate((L, L))[None]
    d = L.shape[1]
    X = np.empty((hi - lo, 2 * d))
    X[:, :d] = L[lo:hi]
    mid = min(max(n, lo), hi)           # rows [lo, mid) are positive literals
    X[: mid - lo, d:] = L[lo + n : mid + n]
    X[mid - lo :, d:] = L[mid - n : hi - n]
    return X


def _activate(z, b, slope, dropout, drng, hidden):
    """Add the bias to z in place and, on a hidden layer, apply leaky ReLU
    and dropout; returns the dropout mask or None."""
    z += b
    if not hidden:
        return None
    # leaky ReLU in place: for 0 <= slope <= 1 (HyperParams enforces it)
    # this max is exactly where(z > 0, z, slope * z), without a branch per
    # element
    np.maximum(z, z * slope, out=z)
    if drng is None:
        return None
    mask = drng.random(z.shape)
    np.greater_equal(mask, dropout, out=mask)
    mask /= 1.0 - dropout
    z *= mask
    return mask


def _mlp_forward(layers, h, slope, dropout, drng, cache):
    """Run an MLP on h: leaky ReLU and, when drng is given, dropout after
    every layer but the last.

    When cache is a list, each layer appends (its input, its dropout mask or
    None); the pre-activations are not kept, since a hidden layer's output
    is positive exactly where its pre-activation is.  With no cache, no
    reference to a layer's input outlives the computation of its output."""
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        z = h @ w
        mask = _activate(z, b, slope, dropout, drng, i < last)
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


# A pass that keeps no cache and draws no dropout masks runs each stage in
# row blocks of at most this many rows, so that it holds O(block x
# delta_c) of clause state where a whole stage held O(M x delta_c).
# `forward`, supervised preset, random 3-SAT, one BLAS thread, 2 vCPUs of a
# Xeon VM, for 1,024 / 2,048 / 4,096 / 8,192 rows: 6.1-6.2 / 6.3-6.4 /
# 6.5-6.6 / 6.6-6.8 ms at 18,000 edges and 139 / 138 / 143 / 139 ms at
# 300,330 (medians of interleaved rounds, the quietest runs of several); at
# 3,003,300 edges a peak RSS growth of 448 / 448 / 448 / 459 MB, and 2.0 /
# 2.0 / 1.8 / 1.9 s (a second pass, one run each; single runs there vary
# by about 20%).  The times are flat within the noise, and below one block
# a pass holds P and B beside its whole clause stage: at 4,096 rows a
# 2,130-clause pass peaked 22% above its peak at 2,048 (tracemalloc).
_BLOCK_ROWS = 2_048


def _block_bounds(rows, whole):
    """The bounds [0, ..., rows] of a stage's row blocks: one block for a
    ``whole`` pass (it keeps a cache or draws dropout masks), otherwise
    ceil(rows / _BLOCK_ROWS) blocks of near-equal size.  A block has two
    rows or more unless the stage has fewer: numpy multiplies a one-row
    matrix with a matrix-vector kernel, whose bits can differ from the
    matrix kernel's."""
    if whole:
        return [0, rows]
    count = max(1, min(-(-rows // _BLOCK_ROWS), rows // 2))
    return [rows * k // count for k in range(count + 1)]


# ------------------------------------------------------------------ stages
# Each computes rows [lo, hi) of one step of an iteration, for _forward's block loops.


def _csr_rows(m, lo, hi):
    # the CSR arrays (indptr, indices, data) of rows [lo, hi) of m, sharing
    # its indices and data
    start, end = m.indptr[lo], m.indptr[hi]
    return m.indptr[lo : hi + 1] - start, m.indices[start:end], m.data[start:end]


def _gather(m, lo, hi, x):
    """Rows [lo, hi) of m @ x, for the ``cnf.CSR`` matrix m: scipy's CSR
    kernel added into zeros, as scipy's ``@`` adds, so the same bits."""
    out = np.zeros((hi - lo, x.shape[1]))
    _sparsetools().csr_matvecs(hi - lo, m.shape[1], x.shape[1], *_csr_rows(m, lo, hi), x, out)
    return out


def _scatter(m, lo, hi, x, out):
    """out += (rows [lo, hi) of m)^T @ x, for the ``cnf.CSR`` matrix m and
    x the rows [lo, hi) of a dense operand: scipy's CSC kernel on m's row
    block, read as the CSC form of its transpose.  Each row of out adds its
    terms in ascending row order of m, so blocks added in order into zeros
    give the bits of scipy's CSR product m^T @ x (m^T's indices are
    sorted)."""
    _sparsetools().csc_matvecs(m.shape[1], hi - lo, x.shape[1], *_csr_rows(m, lo, hi), x, out)


def _clause_rows(lo, hi, gather, P, params, hp, drng, cache):
    """The clause update of rows [lo, hi) after its first product P: those
    rows of gather @ P, the first bias and the rest of the MLP,
    standardized per clause; returns the standardized rows and their
    inverse deviations.  A kept ``cache`` arrives holding the first layer's
    input, which goes in with that layer's dropout mask."""
    if isinstance(gather, np.ndarray):      # iteration 0's one size column
        z = gather[lo:hi] @ P
    else:
        z = _gather(gather, lo, hi, P)
    layers = params.c_update
    mask = _activate(z, layers[0][1], hp.leaky_slope, hp.dropout, drng, len(layers) > 1)
    if cache is not None:
        cache.append((cache.pop(), mask))
    z = _mlp_forward(layers[1:], z, hp.leaky_slope, hp.dropout, drng, cache)
    return _standardize_rows(z, hp.ln_eps)


def _literal_rows(lo, hi, B, L, out, params, hp, drng, cache):
    """The literal update of rows [lo, hi): those rows of the literal
    messages B through the literal MLP, the residual 0.1 L and the layer
    norm, into out[lo:hi]; returns the layer norm's standardized input
    rows and their inverse deviations."""
    L_res = _mlp_forward(params.l_update, B[lo:hi], hp.leaky_slope, hp.dropout, drng, cache)
    L_res += 0.1 * (L if L.ndim == 1 else L[lo:hi])
    xhat, inv = _standardize_rows(L_res, hp.ln_eps)
    block = out[lo:hi]
    np.multiply(xhat, params.ln_scale, out=block)
    block += params.ln_shift
    return xhat, inv


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


def _forward(params, hp, graph, dropout_seed, keep):
    # the one forward body: with keep, it also returns the cache that
    # backward_from_heads reads; without, each intermediate is freed after
    # its last use.  Each iteration loops over row blocks in order three
    # times: the first product P over literal pairs, the clause update over
    # clause rows, each block added into the literal messages B as it comes,
    # and the literal update over the rows of B; a block's result goes before
    # the next block runs.  A pass that keeps a cache or draws dropout masks
    # runs each loop as one block, its result the whole stage's; any other
    # runs blocks of at most _BLOCK_ROWS rows.  The heads run whole
    for j, (_, num_vars) in enumerate(graph.parts):
        if num_vars == 0:       # no logits, and its value the mean of no scores
            raise ValueError(f"part {j} of {len(graph.parts)} of the graph has no variables")
    g, sizes, by_size = graph.matrices()
    n = graph.num_vars
    drng = None if dropout_seed is None or hp.dropout == 0.0 else np.random.default_rng(dropout_seed)
    whole = keep or drng is not None
    # every literal starts at l_init, so in iteration 0 a clause's aggregate
    # is its size times [l_init, l_init]: the clause update runs once per
    # size class and by_size sums the classes back into the literals
    if drng is not None:
        # dropout draws a mask per clause: every clause is its own class
        sizes, by_size = np.bincount(graph.rows, minlength=graph.num_clauses).astype(float), g
    L = params.l_init
    w = params.c_update[0][0]
    iters = [] if keep else None
    for it in range(hp.tau_iters):
        gather, scatter = (sizes[:, None], by_size) if it == 0 else (g, g)
        c_cache, l_cache = ([], []) if keep else (None, None)
        B = np.zeros((2 * n, hp.delta_c))
        pair_rows = 1 if it == 0 else 2 * n
        P = np.empty((pair_rows, w.shape[1]))
        for lo, hi in pairwise(_block_bounds(pair_rows, whole)):
            X = _pairs(L, n, lo, hi)
            np.matmul(X, w, out=P[lo:hi])
            if keep:
                c_cache.append(X)       # the first layer's input
            del X
        for lo, hi in pairwise(_block_bounds(gather.shape[0], whole)):
            kept = None
            kept = _clause_rows(lo, hi, gather, P, params, hp, drng, c_cache)
            _scatter(scatter, lo, hi, kept[0], B)
        del P
        if keep:
            C_std, c_inv = kept
            iters.append({"c_cache": c_cache, "c_std": C_std, "c_inv": c_inv, "l_cache": l_cache})
        del kept
        L_new = np.empty((2 * n, hp.delta_l))
        for lo, hi in pairwise(_block_bounds(2 * n, whole)):
            kept = None
            kept = _literal_rows(lo, hi, B, L, L_new, params, hp, drng, l_cache)
        del B
        if keep:
            iters[-1]["xhat"], iters[-1]["ln_inv"] = kept
        del kept
        L = L_new
        if not np.isfinite(L).all():
            raise FloatingPointError(f"non-finite literal embeddings at iteration {it}")
    X_final = _pairs(L, n, 0, 2 * n)
    del L
    p_cache = [] if keep else None
    logits = _mlp_forward(params.v_policy, X_final[:n], hp.leaky_slope, hp.dropout, drng, p_cache).ravel()
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite policy logits")
    values = None
    v_cache = [] if keep else None
    if params.v_value is not None:
        v_scores = _mlp_forward(params.v_value, X_final, hp.leaky_slope, hp.dropout, drng, v_cache)
        values = _part_values(v_scores, graph.part_bounds()[1])
    out = ForwardOutput(policy_logits=logits, values=values)
    if not keep:
        return out, None
    cache = {
        "graph": graph, "iters": iters, "first_round": (sizes, by_size), "p_cache": p_cache, "v_cache": v_cache,
        "values": values, "n": n,
    }
    return out, cache


def forward_with_cache(params: NetParams, hp: HyperParams, graph, dropout_seed=None):
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
    return _forward(params, hp, graph, dropout_seed, keep=True)


def forward(params: NetParams, hp: HyperParams, graph, dropout_seed=None) -> ForwardOutput:
    """Run the network over a graph: per-variable policy logits plus the
    optional value estimate of each part (``ForwardOutput.value`` for a
    plain graph).  A ``cnf.disjoint_union`` runs as one graph: a part's
    logits are the union's logits at its variables, and its logits and
    value equal those of its own pass to rounding, not bit for bit, since
    BLAS may round a row differently in a product of another shape.
    Draws dropout masks from ``default_rng(dropout_seed)`` exactly when
    given a seed and ``hp.dropout > 0``; inference passes no seed.
    Raises ValueError, before allocating, when a part has no variables.
    Keeps no cache, so each intermediate is freed after its last use; the
    outputs are bit-identical to ``forward_with_cache``'s.

    Without dropout masks it streams: each message-passing stage runs in
    row blocks of at most ``_BLOCK_ROWS`` rows, one after another on the
    calling thread, and each block of clause embeddings is added into the
    literal messages as it comes, so the pass holds its O(N x delta_c)
    literal state and a block of clause state, not O(M x delta_c); at 3M
    edges that was about 120 bytes of peak RSS per edge, against 480-515
    with whole stages.  A pass with dropout masks, like
    ``forward_with_cache``, runs each stage as one block."""
    out, _ = _forward(params, hp, graph, dropout_seed, keep=False)
    return out


def policy_distribution(logits, temperature: float) -> np.ndarray:
    """softmax(temperature * logits), stabilized by max subtraction.
    Raises ValueError for empty or non-finite logits, or a temperature that
    is not finite and > 0."""
    logits = np.asarray(logits, dtype=float)
    if logits.size == 0:
        raise ValueError("empty logits")
    if not np.isfinite(logits).all():
        raise ValueError("logits must be finite")
    if not (math.isfinite(temperature) and temperature > 0):
        raise ValueError(f"temperature must be finite and > 0, got {temperature}")
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
