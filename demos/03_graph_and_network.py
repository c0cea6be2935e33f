"""Graph extraction and the message-passing network.

Run:  python3 demos/03_graph_and_network.py
"""

import tempfile
from pathlib import Path

import numpy as np

from gluesat import (
    Solver,
    extract_graph,
    forward,
    init_params,
    lift_distribution,
    load_weights,
    policy_distribution,
    preset,
    random_ksat,
    save_weights,
)

# --- extracting the residual graph mid-search ----------------------------------
f = random_ksat(n=20, m=85, k=3, seed=4)
s = Solver(f)
print("root extraction equals the full clause-literal graph:")
g0 = extract_graph(s)
print(f"  {g0.num_clauses} rows, {g0.num_vars} vars, {g0.num_edges} edges")

s.decide(5)
g1 = extract_graph(s)
print("after deciding x5 and propagating:")
print(f"  {g1.num_clauses} rows over {g1.num_vars} unassigned vars ({g1.num_edges} edges)")
print(f"  var_map maps compacted columns back to original vars: {g1.var_map[:8]}...\n")

# --- running the network --------------------------------------------------------
hp = preset("supervised")
params = init_params(hp, seed=0, value_head=True)
out = forward(params, hp, g1)
print(f"policy logits for {g1.num_vars} variables, value estimate {out.value:.3f}")

# the solver multiplies logits by temperature 4.0 and softmaxes before
# rescaling by the variable count and kappa = 1e4
probs = policy_distribution(out.policy_logits, temperature=4.0)
print(f"refocus distribution: max {probs.max():.4f}, min {probs.min():.4f}, sum {probs.sum():.6f}")

lifted = lift_distribution(probs, g1.var_map, f.num_vars)
print(f"lifted to original numbering: {np.count_nonzero(lifted)} nonzero of {f.num_vars}\n")

# --- weight files ----------------------------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.ngw"
    save_weights(params, hp, path)
    loaded, hp2 = load_weights(path)
    print(f"saved and reloaded weights: {path.stat().st_size} bytes, hyperparams match: {hp2 == hp}")
    same = all(np.array_equal(a, b) for (_, a), (_, b) in zip(params.tensors(), loaded.tensors()))
    print(f"tensors identical after round-trip: {same}")
