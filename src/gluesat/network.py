"""Message-passing network over clause-literal graphs (CPU, numpy/scipy).

Each iteration aggregates the paired (literal, negated-literal) embeddings
into clause embeddings, standardizes them per clause, scatters them back to
literals through a residual update, and layer-normalizes.  The policy head
scores each variable from its concatenated positive/negative literal
embeddings; the optional value head maps the mean literal score through a
sigmoid.
"""

from __future__ import annotations

import io
import math
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
    value: float | None           # in (0, 1) when the value head is present


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


def init_params(hp: HyperParams, seed=None, value_head: bool = False) -> NetParams:
    """Fan-in/fan-out scaled uniform weights, zero biases, unit layer norm."""
    rng = np.random.default_rng(seed)
    dl, dc = hp.delta_l, hp.delta_c
    l_init = _f32(rng.standard_normal(dl) / np.sqrt(dl))
    c_update = _init_mlp(rng, hp.n_c, 2 * dl, dc)
    l_update = _init_mlp(rng, hp.n_l, dc, dl)
    v_policy = _init_mlp(rng, hp.n_p, 2 * dl, 1)
    v_value = _init_mlp(rng, hp.n_p, 2 * dl, 1) if value_head else None
    return NetParams(
        l_init=l_init,
        c_update=c_update,
        l_update=l_update,
        v_policy=v_policy,
        v_value=v_value,
        ln_scale=np.ones(dl),
        ln_shift=np.zeros(dl),
    )


def _concat_neg(L, n):
    # pair each literal's embedding with its negation's: rows v-1 and n+v-1 swap
    d = L.shape[1]
    X = np.empty((2 * n, 2 * d))
    X[:, :d] = L
    X[:n, d:] = L[n:]
    X[n:, d:] = L[:n]
    return X


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
        z += b
        mask = None
        if i < last:
            # leaky ReLU in place: for 0 <= slope <= 1 (HyperParams enforces
            # it) this max is exactly where(z > 0, z, slope * z), without a
            # branch per element
            np.maximum(z, slope * z, out=z)
            if drng is not None and dropout > 0.0:
                mask = (drng.random(z.shape) >= dropout) / (1.0 - dropout)
                z *= mask
        if cache is not None:
            cache.append((h, mask))
        h = z
    return h


def _standardize_rows(x, eps):
    """Per row, x = (x - mean) * inv with inv = 1 / sqrt(var + eps), in
    place: returns (x, inv), with x now holding the standardized rows.

    The same operations as x.mean and x.var in the same order, so the same
    bits, but the mean and the centred rows are computed once."""
    width = x.shape[1]
    mu = x.sum(axis=1, keepdims=True)
    mu /= width
    x -= mu
    inv = (x * x).sum(axis=1, keepdims=True)
    inv /= width
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    x *= inv
    return x, inv


def _forward(params, hp, graph, train_mode, dropout_seed, keep):
    # the one forward body: with keep, it also returns the cache that
    # backward_from_heads reads; without, each intermediate is freed after
    # its last use
    g, gt = graph.matrices()
    n = graph.num_vars
    drng = np.random.default_rng(dropout_seed) if (train_mode and hp.dropout > 0.0) else None
    L = np.tile(params.l_init, (2 * n, 1))
    iters = [] if keep else None
    for it in range(hp.tau_iters):
        c_cache = [] if keep else None
        l_cache = [] if keep else None
        C_std, c_inv = _standardize_rows(
            _mlp_forward(params.c_update, g @ _concat_neg(L, n), hp.leaky_slope, hp.dropout, drng, c_cache),
            hp.ln_eps,
        )
        B = gt @ C_std
        if not keep:
            # the largest array of an iteration; held through the literal
            # update, it would set the peak of a cache-free pass
            del C_std
        U = _mlp_forward(params.l_update, B, hp.leaky_slope, hp.dropout, drng, l_cache)
        del B
        L_res = 0.1 * L
        L_res += U
        del U, L
        xhat, inv = _standardize_rows(L_res, hp.ln_eps)
        L = xhat * params.ln_scale
        L += params.ln_shift
        if not np.isfinite(L).all():
            raise FloatingPointError(f"non-finite literal embeddings at iteration {it}")
        if keep:
            iters.append(
                {"c_cache": c_cache, "c_std": C_std, "c_inv": c_inv,
                 "l_cache": l_cache, "xhat": xhat, "ln_inv": inv}
            )
    X_final = _concat_neg(L, n)
    del L
    p_cache = [] if keep else None
    logits = _mlp_forward(params.v_policy, X_final[:n], hp.leaky_slope, hp.dropout, drng, p_cache).ravel()
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite policy logits")
    value = None
    v_cache = [] if keep else None
    if params.v_value is not None:
        v_scores = _mlp_forward(params.v_value, X_final, hp.leaky_slope, hp.dropout, drng, v_cache)
        value = float(1.0 / (1.0 + np.exp(-v_scores.mean())))
    out = ForwardOutput(policy_logits=logits, value=value)
    if not keep:
        return out, None
    cache = {
        "graph": graph, "iters": iters, "p_cache": p_cache,
        "v_cache": v_cache, "value": value, "n": n,
    }
    return out, cache


def forward_with_cache(params: NetParams, hp: HyperParams, graph, train_mode=False, dropout_seed=0):
    """The forward pass of ``forward``, also returning the cache that
    ``backward_from_heads`` reads.

    The cache holds, per message-passing iteration, each MLP layer's input
    and dropout mask, the standardized clause embeddings ``c_std`` and the
    layer-normalized literals ``xhat`` with their inverse deviations; the
    same per layer for both heads; and the graph, the value and the
    variable count."""
    return _forward(params, hp, graph, train_mode, dropout_seed, keep=True)


def forward(params: NetParams, hp: HyperParams, graph, train_mode=False, dropout_seed=0) -> ForwardOutput:
    """Run the network over a graph: per-variable policy logits plus the
    optional scalar value estimate.  Keeps no cache, so each intermediate
    is freed after its last use; the outputs are bit-identical to
    ``forward_with_cache``'s."""
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
    value_head = tokens[-1] == "1"
    declared = []
    for line in lines[2:]:
        parts = line.split()
        if not parts:
            continue
        if parts[0] != "tensor" or len(parts) < 3:
            raise WeightFormatError(f"unexpected header line {line!r}")
        name, ndim = parts[1], int(parts[2])
        dims = tuple(int(d) for d in parts[3:])
        if len(dims) != ndim:
            raise WeightFormatError(f"dimension count mismatch for {name}")
        declared.append((name, dims))
    # init_params defines the tensors: its arrays, in place, take the payload
    params = init_params(hp, seed=0, value_head=value_head)
    if declared != [(name, arr.shape) for name, arr in params.tensors()]:
        raise WeightFormatError("tensor list does not match hyperparameters")
    offset = 0
    for name, arr in params.tensors():
        nbytes = 4 * arr.size
        chunk = payload[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise WeightFormatError(f"truncated payload at tensor {name}")
        arr[...] = np.frombuffer(chunk, dtype="<f4").reshape(arr.shape)
        offset += nbytes
    if offset != len(payload):
        raise WeightFormatError("trailing bytes after tensor payloads")
    return params, hp
