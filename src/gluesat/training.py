"""Training: KL-divergence supervised learning with averaged SGD, and
REINFORCE with a learned value baseline, advantage normalization, gradient
clipping, and importance-sampling correction for policy lag.
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import InitVar, dataclass, field

import numpy as np

from .cnf import SparseGraph, disjoint_union
from .env import GlueEnv, TrivialFormulaError
from .grads import backward_from_heads, check_finite, zero_grads
from .network import (
    HyperParams,
    NetParams,
    forward_with_cache,
    init_params,
    save_weights,
)

__all__ = [
    "AdamState",
    "EpisodeStep",
    "ReinforceLoss",
    "RLConfig",
    "RLResult",
    "SupervisedConfig",
    "SupervisedExample",
    "SupervisedResult",
    "adam_step",
    "asgd_step",
    "clip_gradients",
    "kl_grads",
    "kl_loss",
    "log_softmax",
    "pack_steps",
    "run_episode",
    "sample_action",
    "target_distribution",
    "train_rl",
    "train_supervised",
]


# ------------------------------------------------------------------- losses


def log_softmax(logits) -> np.ndarray:
    z = np.asarray(logits, dtype=float)
    z = z - z.max()
    return z - np.log(np.exp(z).sum())


def target_distribution(glue_counts) -> np.ndarray:
    """Softmax over raw glue counts; strictly positive, sums to 1."""
    counts = np.asarray(glue_counts, dtype=float)
    if counts.size == 0:
        raise ValueError("empty glue counts")
    return np.exp(log_softmax(counts))


def kl_loss(pi, logits) -> float:
    """KL(pi || softmax(logits)), computed in log space."""
    pi = np.asarray(pi, dtype=float)
    logits = np.asarray(logits, dtype=float)
    if pi.shape != logits.shape:
        raise ValueError("distribution and logits lengths differ")
    logq = log_softmax(logits)
    mask = pi > 0
    return float(np.sum(pi[mask] * (np.log(pi[mask]) - logq[mask])))


def kl_grads(params, hp, graph, target, grads=None, scale=1.0, dropout_seed=None):
    """KL loss for one example, accumulating scaled gradients into ``grads``.

    Returns (loss, grads); the gradient of scale*KL lands in the dict.  The
    forward drops units only with a ``dropout_seed`` (see ``forward``).  As
    in ``backward_from_heads``, only a dict created here (``grads`` None) is
    checked for finiteness.
    """
    out, cache = forward_with_cache(params, hp, graph, dropout_seed=dropout_seed)
    return _kl_backward(params, hp, out, cache, target, grads, scale)


def _kl_backward(params, hp, out, cache, target, grads, scale):
    # kl_grads after its forward: the loss of the forward's output and the
    # backward of scale*KL from its logits
    target = np.asarray(target, dtype=float)
    loss = kl_loss(target, out.policy_logits)
    dlogits = (np.exp(log_softmax(out.policy_logits)) - target) * scale
    grads = backward_from_heads(params, hp, cache, dlogits, 0.0, grads)
    return loss, grads


def clip_gradients(grads: dict, max_norm: float = 1.0) -> float:
    """Scale the global L2 norm down to max_norm; returns the pre-clip norm."""
    if not max_norm > 0:        # NaN too: it would never clip
        raise ValueError(f"max_norm must be > 0, got {max_norm}")
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
    if total > max_norm:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
    return total


# --------------------------------------------------------------- optimizers


def asgd_step(params: NetParams, avg: dict, grads: dict, lr: float, step_count: int) -> None:
    """SGD step plus running (Polyak) average; evaluation uses the average."""
    for name, arr in params.tensors():
        arr -= lr * grads[name]
        acc = avg[name]
        acc += (arr - acc) / (step_count + 1)


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0

    @staticmethod
    def for_params(params: NetParams) -> "AdamState":
        return AdamState(m=zero_grads(params), v=zero_grads(params))


def adam_step(state: AdamState, params: NetParams, grads: dict, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    for name, arr in params.tensors():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        arr -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


# ------------------------------------------------------------ supervised run


@dataclass(frozen=True)
class SupervisedExample:
    """A clause-literal graph paired with per-variable glue counts."""

    graph: SparseGraph
    glue_counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.glue_counts) != self.graph.num_vars:
            raise ValueError("glue count vector does not match graph variables")


@dataclass
class SupervisedConfig:
    lr: float = 1e-3
    epochs: int = 3
    batch_size: int = 8
    seed: int = 0
    # constructor-only: perfbench still passes it; goes with ROADMAP item 8's benchmark change
    train_dropout: InitVar[bool] = True

    def __post_init__(self, train_dropout):
        if train_dropout is not True:
            raise ValueError(f"train_dropout must be True, got {train_dropout!r}: "
                             "train without dropout through HyperParams.dropout=0 (--dropout 0)")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class SupervisedResult:
    params: NetParams             # averaged iterate, used for evaluation
    final_params: NetParams       # last SGD iterate
    epoch_kl: list[float]


# A training batch runs the forward of its next example on the network
# worker while the calling thread runs the current backward (_batch_kl)
# only when that next graph has at least this many edges.  Below it numpy
# and scipy hold the GIL for much of a pass and the two threads mostly
# take turns.  Overlapped time / serial time of a 3-example batch,
# supervised preset, one BLAS thread, 2 cores: random 3-SAT 1.33 at 384
# edges, 1.16 at 768, 0.98 at 1,278, 0.97 at 2,001, 0.89 at 2,556; random
# 5-SAT 1.27 at 1,000, 1.08 at 2,000 and 0.94 at 4,000 edges.
_OVERLAP_MIN_EDGES = 3_000


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


def _network_worker() -> ThreadPoolExecutor:
    """The one thread that runs a training batch's forwards, started on
    first use and kept: over 40 train-supervised epochs on perfbench's
    seed-51 and seed-52 examples (one BLAS thread, 2 vCPUs), a thread
    started per batch peaked at 79.7-80.5 MB of RSS against 63.3-64.2 MB
    with this one: the new threads took a second glibc arena, and each
    arena keeps its freed pages (two thread arenas of about 17 MB, not
    one)."""
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = ThreadPoolExecutor(1, thread_name_prefix="gluesat-network")
        return _worker


def _forget_worker():
    # a forked child has the executor but not its thread
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_worker)


def _batch_kl(params, hp, graphs, targets, seeds, grads) -> float:
    """The summed KL loss of one batch, with the gradient of each example's
    KL / len(graphs) accumulated into ``grads`` in batch order.

    When a core is spare and a graph after the first reaches
    _OVERLAP_MIN_EDGES, every forward of the batch runs on the network
    worker, and the forward of each such graph starts as soon as the
    previous forward has returned, so it runs while this thread runs the
    previous example's backward.  Backwards stay here and in order, and each
    forward has its own dropout seed, so the sums are the serial loop's bit
    for bit.  At most one forward runs ahead, and none is left running when
    this returns or raises."""
    scale = 1.0 / len(graphs)
    ahead = [_SPARE_CORE and g.num_edges >= _OVERLAP_MIN_EDGES for g in graphs[1:]]
    ahead.append(False)
    if not any(ahead):
        return sum(kl_grads(params, hp, graph, target, grads, scale, seed)[0]
                   for graph, target, seed in zip(graphs, targets, seeds))
    worker = _network_worker()

    def submit(k):
        return worker.submit(forward_with_cache, params, hp, graphs[k], dropout_seed=seeds[k])

    total = 0.0
    pending = submit(0)
    try:
        for k in range(len(graphs)):
            out, cache = pending.result()
            pending = submit(k + 1) if ahead[k] else None
            total += _kl_backward(params, hp, out, cache, targets[k], grads, scale)[0]
            if pending is None and k + 1 < len(graphs):
                pending = submit(k + 1)
    finally:
        if pending is not None:
            wait([pending])
    return total


def train_supervised(dataset, hp: HyperParams, config: SupervisedConfig | None = None,
                     init: NetParams | None = None) -> SupervisedResult:
    """Minibatch ASGD on the KL objective; epoch order and each forward's
    dropout seed are drawn from one rng seeded by ``cfg.seed``, and
    ``hp.dropout`` alone decides whether those forwards drop units.  A
    non-finite batch gradient raises FloatingPointError before the step.
    Within a batch, the next example's forward may run on a worker thread
    during the current backward (see ``_batch_kl``); the results are the
    same bits either way."""
    cfg = config or SupervisedConfig()
    if not dataset:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(cfg.seed)
    params = init.copy() if init is not None else init_params(hp, seed=cfg.seed)
    averaged = params.copy()
    avg = dict(averaged.tensors())  # averaged's own arrays, which asgd_step updates in place
    targets = [target_distribution(ex.glue_counts) for ex in dataset]
    epoch_kl = []
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(dataset))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            seeds = [int(rng.integers(2**63)) for _ in batch]
            grads = zero_grads(params)
            batch_loss = _batch_kl(params, hp, [dataset[i].graph for i in batch], [targets[i] for i in batch],
                                   seeds, grads)
            check_finite(grads)
            asgd_step(params, avg, grads, cfg.lr, step)
            step += 1
            losses.append(batch_loss / len(batch))
        epoch_kl.append(float(np.mean(losses)))
    return SupervisedResult(
        params=averaged,
        final_params=params,
        epoch_kl=epoch_kl,
    )


# -------------------------------------------------------------- REINFORCE


@dataclass(frozen=True)
class EpisodeStep:
    observation: SparseGraph
    action: int
    behavior_logprob: float
    reward: float
    behavior_value: float | None = None   # value estimate of the rollout policy


# Fixed REINFORCE policy: global gradient-norm clip, importance-ratio clip,
# and the value loss's weight in the total loss.
_CLIP_NORM = 1.0
_RATIO_CLIP = 10.0
_VALUE_COEF = 0.5


@dataclass
class RLConfig:
    workers: int = 4
    episodes_per_worker: int = 2
    grad_steps: int = 2
    batches: int = 50
    lr: float = 1e-4
    seed: int = 0
    checkpoint_path: str | None = None

    def __post_init__(self):
        for name in ("workers", "episodes_per_worker", "grad_steps", "batches"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class ReinforceLoss:
    total: float
    policy_loss: float
    value_loss: float
    grads: dict
    mean_return: float
    policy_entropy: float         # mean entropy of the steps' policies
    ratios: np.ndarray            # the importance ratio each step was weighted by
    forward_s: float              # wall time inside the forward passes
    backward_s: float             # wall time inside the backward passes


@dataclass
class RLResult:
    params: NetParams
    history: list[dict] = field(default_factory=list)


def sample_action(logits, rng) -> tuple[int, float]:
    """Draw an action from softmax(logits) with ``rng``; returns the action
    and its log-probability."""
    logp = log_softmax(logits)
    probs = np.exp(logp)
    action = int(rng.choice(len(probs), p=probs / probs.sum()))
    return action, float(logp[action])


def run_episode(formula, params: NetParams, hp: HyperParams, rng) -> list[EpisodeStep]:
    """Roll out one episode sampling actions from the policy distribution."""
    env = GlueEnv()
    obs = env.reset(formula, seed=int(rng.integers(2**63)))
    steps = []
    while True:
        out, _ = forward_with_cache(params, hp, obs)
        action, logprob = sample_action(out.policy_logits, rng)
        next_obs, reward, done = env.step(action)
        steps.append(EpisodeStep(obs, action, logprob, reward, out.value))
        if done:
            return steps
        obs = next_obs


def _returns_to_go(episodes):
    returns = []
    for ep in episodes:
        acc = 0.0
        tail = []
        for step in reversed(ep):
            acc += step.reward
            tail.append(acc)
        returns.extend(reversed(tail))
    return np.asarray(returns)


# The gradient passes of a batch run over disjoint unions of consecutive
# episode steps of at most this many edges (a larger step runs alone): at
# a few hundred edges per step, per-call overhead sets much of a pass's
# cost.  A union's forward cache grows with its edges, so the budget
# trades time for memory.  perfbench train-rl (rl preset, steps of 240-540
# edges, one forward and one backward per union per grad step, one BLAS
# thread, 2-vCPU Xeon VM, --seconds 12), seeds 31-33, op_s_p50 and
# peak_rss_mb: budget 1,200 0.267-0.276 s and 56.0-56.3 MB; 1,500
# 0.260-0.267 s and 56.9-57.6 MB; 2,000 0.252-0.274 s and 62.9-63.7 MB;
# 3,000 0.251-0.264 s and 68.6-69.9 MB.  The larger budgets' times overlap
# 1,500's, while their peaks grow by 6 MB at 2,000 and 12 MB at 3,000.
_UNION_MAX_EDGES = 1_500


def pack_steps(episodes) -> list[SparseGraph]:
    """The episodes' step observations, in order, as disjoint unions
    (``cnf.disjoint_union``) of consecutive steps, packed greedily under
    _UNION_MAX_EDGES edges each.  Union k holds the len(parts) steps after
    those of unions 0..k-1."""
    unions = []
    group = []
    edges = 0
    for ep in episodes:
        for step in ep:
            graph = step.observation
            if group and edges + graph.num_edges > _UNION_MAX_EDGES:
                unions.append(disjoint_union(group))
                group, edges = [], 0
            group.append(graph)
            edges += graph.num_edges
    if group:
        unions.append(disjoint_union(group))
    return unions


def _union_parts(episodes, unions):
    """Each union with its steps as (step, index in the batch, part index,
    slice of the union's logits); with ``unions`` None, packs the
    episodes' steps here.  Raises ValueError unless the unions' parts
    match the steps, in order, by clause and variable count."""
    if unions is None:
        unions = pack_steps(episodes)
    steps = [step for ep in episodes for step in ep]
    parts = [part for union in unions for part in union.parts]
    if parts != [(step.observation.num_clauses, step.observation.num_vars) for step in steps]:
        raise ValueError(f"the unions' {len(parts)} parts do not match the episodes' {len(steps)} steps")
    i = 0
    for union in unions:
        bounds = union.part_bounds()[1]
        yield union, [(steps[i + j], i + j, j, slice(bounds[j], bounds[j + 1])) for j in range(len(union.parts))]
        i += len(union.parts)


def reinforce_weights(episodes):
    """The per-step constants of a batch's surrogate objective, from the
    episodes alone: (normalized advantages, value targets, returns).

    Each advantage is the step's return-to-go less ``behavior_value``, the
    value the rollout policy recorded for it (0 for a policy without a
    value head), so the baseline never depends on a gradient step taken on
    these same returns; the advantages are then centered and scaled to unit
    variance.  Value targets are the returns clipped to [0, 1].  No forward
    runs, so one call serves every gradient step of the batch.
    """
    returns = _returns_to_go(episodes)
    values = np.array([0.0 if step.behavior_value is None else step.behavior_value
                       for ep in episodes for step in ep])
    adv = returns - values
    if adv.size > 1:
        std = adv.std()
        centered = adv - adv.mean()
        adv = centered / std if std > 1e-8 else centered
    return adv, np.clip(returns, 0.0, 1.0), returns


def reinforce_surrogate(episodes, params: NetParams, hp: HyperParams,
                        ratios, advantages, value_targets, unions=None) -> ReinforceLoss:
    """Surrogate loss and its exact gradients, with (ratios, advantages,
    value_targets) held constant: total = policy + 0.5 * value, where the
    policy term weights each step's log-probability by its ratio times its
    advantage.  Advantages and value targets come from
    ``reinforce_weights``.  With ``ratios`` None, each step's importance
    ratio exp(log-probability of its action - behavior_logprob), clipped to
    [0, _RATIO_CLIP], is read from this call's own forward, and is still a
    constant of the gradient; explicit ratios are used as given.  Either
    way the ratios used are returned in ``ReinforceLoss.ratios``.

    One forward and one backward run per union of ``unions``
    (``pack_steps(episodes)`` when None); each step's log-softmax, loss
    and head gradients are its own, sliced out of its union's logits, and
    the numbers equal those of one pass per step to rounding (a plain graph
    in ``unions`` is a one-part union and gives its own pass's numbers).
    The summed gradients are checked for finiteness once, after the last
    backward pass."""
    total_steps = sum(len(ep) for ep in episodes)
    if total_steps == 0:
        raise ValueError("empty episode batch")
    own_ratios = ratios is None
    ratios = np.empty(total_steps) if own_ratios else np.asarray(ratios, dtype=float)
    grads = zero_grads(params)
    policy_loss = 0.0
    value_loss = 0.0
    returns_sum = sum(sum(s.reward for s in ep) for ep in episodes)
    entropy = 0.0
    forward_s = backward_s = 0.0
    for union, parts in _union_parts(episodes, unions):
        started = time.perf_counter()
        out, cache = forward_with_cache(params, hp, union)
        forward_s += time.perf_counter() - started
        dlogits = np.empty_like(out.policy_logits)
        dvalues = np.zeros(len(parts))
        for step, i, j, part in parts:
            logp = log_softmax(out.policy_logits[part])
            probs = np.exp(logp)
            entropy -= float(probs @ logp)
            if own_ratios:
                ratios[i] = min(max(float(np.exp(logp[step.action] - step.behavior_logprob)), 0.0), _RATIO_CLIP)
            weight = ratios[i] * advantages[i]
            policy_loss += -weight * float(logp[step.action]) / total_steps
            dlogits[part] = (weight / total_steps) * (probs - _onehot(step.action, logp.size))
            if params.v_value is not None:
                err = out.values[j] - value_targets[i]
                value_loss += err * err / total_steps
                dvalues[j] = _VALUE_COEF * 2.0 * err / total_steps
        started = time.perf_counter()
        backward_from_heads(params, hp, cache, dlogits, dvalues, grads)
        backward_s += time.perf_counter() - started
        del cache       # before the next union's forward allocates its own
    check_finite(grads)
    total = policy_loss + _VALUE_COEF * value_loss
    return ReinforceLoss(
        total=float(total),
        policy_loss=float(policy_loss),
        value_loss=float(value_loss),
        grads=grads,
        mean_return=returns_sum / len(episodes),
        policy_entropy=entropy / total_steps,
        ratios=ratios,
        forward_s=forward_s,
        backward_s=backward_s,
    )


def _onehot(index, size):
    e = np.zeros(size)
    e[index] = 1.0
    return e


def train_rl(formulas, hp: HyperParams, config: RLConfig | None = None,
             init: NetParams | None = None) -> RLResult:
    """Synchronous multi-worker REINFORCE.

    Each batch, every worker samples a formula and rolls out episodes under
    the current policy; then the learner applies grad_steps Adam updates, so
    importance ratios depart from 1 after the first step.

    The advantages and value targets are computed once per batch, by
    ``reinforce_weights`` from the values the rollouts recorded, and serve
    every gradient step, as in PPO: the baseline is the rollout policy's,
    never one refitted on the returns it baselines.  The rollouts run one
    forward per episode step.  The gradient steps run over the batch's
    steps packed once (``pack_steps``) into U disjoint unions of
    consecutive steps, each of at most _UNION_MAX_EDGES edges, and each
    union's sparse operators are built once and serve every gradient step.
    Every gradient step runs one forward and one backward per union, and
    takes each step's importance ratio from that forward.  So a batch of S
    episode steps makes S + grad_steps * U forward passes and grad_steps *
    U backward passes.  A union runs as one graph, so its numbers equal
    those of one pass per step to rounding, not bit for bit, and the first
    step's ratios equal 1 to rounding.  The edge budget bounds memory: a
    union's forward cache grows with its edges (at the rl preset one is 2.3
    MB on a 540-edge graph); no cache is kept from one pass to the next.  A
    non-finite gradient raises FloatingPointError before the Adam step.

    Each history row also records, for the last grad step, ``grad_norm``,
    the global gradient norm before clipping; ``ratio_clip_frac``, the
    share of its importance ratios held at the ratio clip (0 at the first
    step, whose ratios are 1 to rounding); and ``policy_entropy``, the mean
    entropy of its per-step policies; and, for the whole batch,
    ``rollout_s`` and ``update_s``, the wall time of its rollouts and of its
    gradient steps, and ``forward_s`` and ``backward_s``, the wall time of
    its gradient steps inside their forward and their backward passes.
    Raises ValueError when a batch's rollouts find only formulas that
    propagation decides at the root.
    """
    cfg = config or RLConfig()
    if not formulas:
        raise ValueError("empty formula set")
    params = init.copy() if init is not None else init_params(hp, seed=cfg.seed, value_head=True)
    if params.v_value is None:
        raise ValueError("reinforcement learning requires a value head")
    adam = AdamState.for_params(params)
    history = []
    for batch_idx in range(cfg.batches):
        started = time.perf_counter()
        episodes = []
        for worker in range(cfg.workers):
            wrng = np.random.default_rng(np.random.SeedSequence([cfg.seed, batch_idx, worker]))
            for _ in range(cfg.episodes_per_worker):
                for _attempt in range(32):
                    formula = formulas[int(wrng.integers(len(formulas)))]
                    try:
                        episodes.append(run_episode(formula, params, hp, wrng))
                        break
                    except TrivialFormulaError:
                        continue
        if not episodes:
            raise ValueError("no usable training formulas (all trivially decided)")
        rolled_out = time.perf_counter()
        unions = pack_steps(episodes)
        advantages, value_targets, _ = reinforce_weights(episodes)
        forward_s = backward_s = 0.0
        for _ in range(cfg.grad_steps):
            last = reinforce_surrogate(episodes, params, hp, None, advantages, value_targets, unions)
            forward_s += last.forward_s
            backward_s += last.backward_s
            grad_norm = clip_gradients(last.grads, _CLIP_NORM)
            adam_step(adam, params, last.grads, cfg.lr)
        updated = time.perf_counter()
        history.append(
            {
                "batch": batch_idx,
                "episodes": len(episodes),
                "mean_return": last.mean_return,
                "policy_loss": last.policy_loss,
                "value_loss": last.value_loss,
                "total_loss": last.total,
                "grad_norm": grad_norm,
                "ratio_clip_frac": float(np.mean(last.ratios >= _RATIO_CLIP)),
                "policy_entropy": last.policy_entropy,
                "rollout_s": rolled_out - started,
                "update_s": updated - rolled_out,
                "forward_s": forward_s,
                "backward_s": backward_s,
            }
        )
        if cfg.checkpoint_path:
            save_weights(params, hp, cfg.checkpoint_path)
    return RLResult(params=params, history=history)
