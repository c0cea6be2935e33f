"""The decision environment and REINFORCE training.

Run:  python3 demos/05_rl_pipeline.py
"""

import numpy as np

from gluesat import Formula, GlueEnv, clause_literal_graph, random_ksat
from gluesat.network import HyperParams, forward, init_params
from gluesat.training import RLConfig, log_softmax, train_rl

# --- stepping the environment by hand ---------------------------------------------
f = random_ksat(n=20, m=85, k=3, seed=2)
env = GlueEnv()
obs = env.reset(f, seed=0)
rng = np.random.default_rng(1)
rewards = []
print("a random-policy episode:")
while True:
    action = int(rng.integers(len(obs.var_map)))
    var = obs.var_map[action]
    obs, reward, done = env.step(action)
    rewards.append(reward)
    print(f"  assign x{var}: reward {reward:+.3f}")
    if done:
        kind, glue = env.terminal
        print(f"  terminal: {kind}" + (f" with glue {glue}" if glue else ""))
        break
print(f"episode return {sum(rewards):+.3f}")
print("rewards are -1/n per step, 1/glue^2 on conflict, 0 when satisfied\n")

# --- REINFORCE on a two-action bandit ----------------------------------------------
# assigning x1 yields a glue-1 conflict (reward 1) on half the polarity draws;
# assigning x2 always propagates to a satisfying assignment (reward 0)
bandit = Formula(2, ((1, 2), (1, -2)))
hp = HyperParams(delta_l=8, delta_c=8, tau_iters=1, n_l=1, n_c=1, n_p=2, dropout=0.0)
cfg = RLConfig(workers=4, episodes_per_worker=2, grad_steps=2, batches=40, lr=0.02, seed=3)
result = train_rl([bandit], hp, cfg)

root = clause_literal_graph(bandit)
logits = forward(result.params, hp, root).policy_logits
pi = np.exp(log_softmax(logits))
print(f"after {cfg.batches} batches the policy prefers x1 with probability {pi[0]:.3f}")
print("training history (mean return per batch):",
      [round(h["mean_return"], 3) for h in result.history[::8]])
