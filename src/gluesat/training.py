"""Training: KL-divergence supervised learning with averaged SGD, and
REINFORCE with a learned value baseline, advantage normalization, gradient
clipping, and importance-sampling correction for policy lag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cnf import SparseGraph
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


def kl_grads(params, hp, graph, target, grads=None, scale=1.0, train_mode=False, dropout_seed=0):
    """KL loss for one example, accumulating scaled gradients into ``grads``.

    Returns (loss, grads); the gradient of scale*KL lands in the dict.  As
    in ``backward_from_heads``, only a dict created here (``grads`` None) is
    checked for finiteness.
    """
    out, cache = forward_with_cache(params, hp, graph, train_mode=train_mode, dropout_seed=dropout_seed)
    target = np.asarray(target, dtype=float)
    loss = kl_loss(target, out.policy_logits)
    dlogits = (np.exp(log_softmax(out.policy_logits)) - target) * scale
    grads = backward_from_heads(params, hp, cache, dlogits, 0.0, grads)
    return loss, grads


def clip_gradients(grads: dict, max_norm: float = 1.0) -> float:
    """Scale the global L2 norm down to max_norm; returns the pre-clip norm."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
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
    train_dropout: bool = True

    def __post_init__(self):
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


def train_supervised(dataset, hp: HyperParams, config: SupervisedConfig | None = None,
                     init: NetParams | None = None) -> SupervisedResult:
    """Minibatch ASGD on the KL objective; epoch order is seeded.  A
    non-finite batch gradient raises FloatingPointError before the step."""
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
            grads = zero_grads(params)
            batch_loss = 0.0
            for idx in batch:
                ex = dataset[idx]
                loss, _ = kl_grads(
                    params, hp, ex.graph, targets[idx],
                    grads=grads, scale=1.0 / len(batch),
                    train_mode=cfg.train_dropout,
                    dropout_seed=int(rng.integers(2**63)),
                )
                batch_loss += loss
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


def reinforce_weights(episodes, params: NetParams, hp: HyperParams):
    """Per-step constants of the surrogate objective.

    Returns (ratios, normalized advantages, value targets, returns); all are
    treated as constants by the gradient of the surrogate.
    """
    logprobs = []
    values = []
    for ep in episodes:
        for step in ep:
            out, _ = forward_with_cache(params, hp, step.observation)
            logprobs.append(log_softmax(out.policy_logits)[step.action])
            values.append(out.value if out.value is not None else 0.0)
    return _surrogate_weights(episodes, logprobs, values)


def _rollout_weights(episodes):
    """reinforce_weights at the params the episodes were rolled out with,
    from the log-probabilities and values run_episode recorded: no forward
    pass, the same numbers (every ratio is exp(0) = 1 before clipping)."""
    steps = [step for ep in episodes for step in ep]
    logprobs = [step.behavior_logprob for step in steps]
    values = [step.behavior_value for step in steps]
    return _surrogate_weights(episodes, logprobs, values)


def _surrogate_weights(episodes, logprobs, values):
    """Clipped importance ratios, normalized advantages and value targets
    from each step's current log-probability of its action and value."""
    returns = _returns_to_go(episodes)
    behavior = [step.behavior_logprob for ep in episodes for step in ep]
    ratios = [min(max(float(np.exp(lp - blp)), 0.0), _RATIO_CLIP) for lp, blp in zip(logprobs, behavior)]
    values = np.asarray(values)
    adv = returns - values
    if adv.size > 1:
        std = adv.std()
        centered = adv - adv.mean()
        adv = centered / std if std > 1e-8 else centered
    value_targets = np.clip(returns, 0.0, 1.0)
    return np.asarray(ratios), adv, value_targets, returns


def reinforce_surrogate(episodes, params: NetParams, hp: HyperParams,
                        ratios, advantages, value_targets) -> ReinforceLoss:
    """Surrogate loss and its exact gradients, with (ratios, advantages,
    value_targets) held constant: total = policy + 0.5 * value, where the
    policy term weights each step's log-probability by its ratio times its
    advantage.  The constants of a batch come from ``reinforce_weights``.
    The summed gradients are checked for finiteness once, after the last
    backward pass."""
    total_steps = sum(len(ep) for ep in episodes)
    if total_steps == 0:
        raise ValueError("empty episode batch")
    grads = zero_grads(params)
    policy_loss = 0.0
    value_loss = 0.0
    returns_sum = 0.0
    i = 0
    for ep in episodes:
        returns_sum += sum(s.reward for s in ep)
        for step in ep:
            out, cache = forward_with_cache(params, hp, step.observation)
            logp = log_softmax(out.policy_logits)
            weight = ratios[i] * advantages[i]
            policy_loss += -weight * float(logp[step.action]) / total_steps
            dlogits = (weight / total_steps) * (np.exp(logp) - _onehot(step.action, logp.size))
            dvalue = 0.0
            if params.v_value is not None:
                err = out.value - value_targets[i]
                value_loss += err * err / total_steps
                dvalue = _VALUE_COEF * 2.0 * err / total_steps
            backward_from_heads(params, hp, cache, dlogits, dvalue, grads)
            i += 1
    check_finite(grads)
    total = policy_loss + _VALUE_COEF * value_loss
    return ReinforceLoss(
        total=float(total),
        policy_loss=float(policy_loss),
        value_loss=float(value_loss),
        grads=grads,
        mean_return=returns_sum / len(episodes),
    )


def _onehot(index, size):
    e = np.zeros(size)
    e[index] = 1.0
    return e


def train_rl(formulas, hp: HyperParams, config: RLConfig | None = None,
             init: NetParams | None = None) -> RLResult:
    """Synchronous multi-worker REINFORCE.

    Each batch, every worker samples a formula and rolls out episodes under a
    snapshot of the current policy; the learner then applies grad_steps Adam
    updates, so importance ratios depart from 1 after the first step.

    A batch of S episode steps makes 2 * grad_steps * S forward passes and
    grad_steps * S backward passes: S in the rollouts, S for the first
    surrogate gradient, whose ratios, advantages and value targets come from
    the values recorded in the rollouts (the params are still the rollout
    snapshot), and 2 * S for each later step, whose weights need a forward
    at the updated params before the forward that feeds the backward.  No
    forward cache is kept from one step to the next: at the rl preset one
    costs 2.3 MB on a 540-edge graph, so keeping a batch's would multiply
    the training memory.  A non-finite gradient raises FloatingPointError
    before the Adam step.

    Each history row also records ``grad_norm``, the global gradient norm
    of the last grad step before clipping.
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
        snapshot = params.copy()
        episodes = []
        for worker in range(cfg.workers):
            wrng = np.random.default_rng(np.random.SeedSequence([cfg.seed, batch_idx, worker]))
            for _ in range(cfg.episodes_per_worker):
                for _attempt in range(32):
                    formula = formulas[int(wrng.integers(len(formulas)))]
                    try:
                        episodes.append(run_episode(formula, snapshot, hp, wrng))
                        break
                    except TrivialFormulaError:
                        continue
        if not episodes:
            raise RuntimeError("no usable training formulas (all trivially decided)")
        last = None
        for k in range(cfg.grad_steps):
            if k == 0:
                weights = _rollout_weights(episodes)
            else:
                weights = reinforce_weights(episodes, params, hp)
            last = reinforce_surrogate(episodes, params, hp, *weights[:3])
            grad_norm = clip_gradients(last.grads, _CLIP_NORM)
            adam_step(adam, params, last.grads, cfg.lr)
        history.append(
            {
                "batch": batch_idx,
                "episodes": len(episodes),
                "mean_return": last.mean_return,
                "policy_loss": last.policy_loss,
                "value_loss": last.value_loss,
                "total_loss": last.total,
                "grad_norm": grad_norm,
            }
        )
        if cfg.checkpoint_path:
            save_weights(params, hp, cfg.checkpoint_path)
    return RLResult(params=params, history=history)
