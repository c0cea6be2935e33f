"""Golden values: the network, its gradients, both training loops and the
solver's search against numbers recorded in ``golden_values.json``.

The determinism tests elsewhere compare one run with another, so a change
that alters every run the same way passes them.  These tests pin the
numbers themselves: forward logits and value, every gradient tensor (as a
digest: sum, L1 norm and a fixed random projection), a short ``train_rl``
history with its final parameters, and one ``train_supervised`` epoch.
Tolerances are 1e-10 relative to each quantity's scale, far tighter than
any change to the arithmetic.  For the network they also leave room for a
different BLAS build; for the two training loops they do not.  The
``train_rl`` section pins Adam-amplified rounding noise in two tensors.
One is the policy head's output bias ``v_policy.{n_p-1}.b``, whose exact
gradient is 0: each step's softmax minus its one-hot target sums to 0.
The other is the bias of the layer below, ``v_policy.{n_p-2}.b``: a unit
that is active on all of a step's rows gets its outgoing weight times that
same zero sum, so its bias gradient also cancels exactly.  Adam divides
each such gradient by its own running magnitude, so rounding noise moves
those entries by up to the learning rate.  So any reassociation of a
gradient sum, such as a change in how ``train_rl`` batches its steps,
means regenerating that section, and so may a different BLAS.
Conflict-budget solves are pinned exactly: status, search counters,
glue counts and a digest of the final trail.

Regenerate the file only for an intended change of the numbers::

    PYTHONPATH=src python tests/test_golden.py --write [SECTION ...]

With section names (``network``, ``train_rl``, ``train_supervised``,
``solve``) only those are recomputed, and every other section stays
byte-identical; a bare ``--write`` recomputes them all.  Each section
recomputed follows the running machine's BLAS, so name only the ones
whose numbers the change is meant to move.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from gluesat.cnf import clause_literal_graph, random_ksat
from gluesat.grads import backward_from_heads
from gluesat.network import forward, forward_with_cache, init_params, preset
from gluesat.solver import Budget, Solver, SolverConfig, random_oracle
from gluesat.training import (
    RLConfig,
    SupervisedConfig,
    SupervisedExample,
    train_rl,
    train_supervised,
)

from conftest import perturbed_params

GOLDEN = Path(__file__).with_name("golden_values.json")
TOL = 1e-10
GRAPHS = [(12, 40, 1), (20, 70, 2)]     # (variables, clauses, seed) of random 3-SAT
MODES = {"eval": None, "dropout": 7}     # mode: dropout seed
NETWORK_KEYS = [f"{name}/{i}/{mode}" for name in ("supervised", "rl") for i in range(len(GRAPHS)) for mode in MODES]
SOLVE_FORMULAS = [(100, 426, 1), (100, 426, 2), (100, 426, 4), (150, 639, 5)]     # random 3-SAT at ratio 4.26
SOLVE_CONFLICTS = 600
SOLVE_CONFIGS = ("default", "reduce", "random_oracle", "network_oracle")
SOLVE_KEYS = [f"{config}/{i}" for config in SOLVE_CONFIGS for i in range(len(SOLVE_FORMULAS))]


def digest(arr) -> list[float]:
    """[sum, L1 norm, projection on a fixed uniform(-1, 1) vector]."""
    flat = np.asarray(arr, dtype=float).ravel()
    r = np.random.default_rng(flat.size).uniform(-1.0, 1.0, flat.size)
    return [float(flat.sum()), float(np.abs(flat).sum()), float(flat @ r)]


def params_digest(params) -> dict:
    return {name: digest(arr) for name, arr in params.tensors()}


def network_case(key):
    preset_name, graph_index, mode = key.split("/")
    hp = preset(preset_name)
    params = perturbed_params(hp, seed=3, value_head=preset_name == "rl")
    n, m, seed = GRAPHS[int(graph_index)]
    graph = clause_literal_graph(random_ksat(n, m, 3, seed))
    out, cache = forward_with_cache(params, hp, graph, dropout_seed=MODES[mode])
    dlogits = np.random.default_rng(seed).standard_normal(n)
    dvalue = 0.7 if params.v_value is not None else 0.0
    grads = backward_from_heads(params, hp, cache, dlogits, dvalue)
    return {
        "logits": out.policy_logits.tolist(),
        "value": out.value,
        "grads": {name: digest(g) for name, g in grads.items()},
    }


def rl_case():
    formulas = [random_ksat(10, 42, 3, s) for s in range(4)]
    cfg = RLConfig(workers=2, episodes_per_worker=1, grad_steps=2, batches=2, lr=1e-3, seed=3)
    res = train_rl(formulas, preset("rl"), cfg)
    # wall times vary from run to run: they are not pinned
    timed = ("rollout_s", "update_s", "forward_s", "backward_s")
    history = [{k: v for k, v in row.items() if k not in timed} for row in res.history]
    return {"history": history, "params": params_digest(res.params)}


def supervised_case():
    dataset = []
    for s in range(4):
        graph = clause_literal_graph(random_ksat(10, 40, 3, 20 + s))
        counts = np.random.default_rng(s).integers(0, 30, graph.num_vars)
        dataset.append(SupervisedExample(graph, tuple(int(c) for c in counts)))
    cfg = SupervisedConfig(lr=1e-2, epochs=1, batch_size=2, seed=3)
    res = train_supervised(dataset, preset("supervised"), cfg)
    return {"epoch_kl": res.epoch_kl, "params": params_digest(res.params)}


def solve_setup(config):
    """(SolverConfig, oracle) for one pinned solve configuration."""
    if config == "default":
        return SolverConfig(), None
    if config == "reduce":      # _reduce_db fires several times in the budget
        return SolverConfig(reduce_base=60, reduce_step=20), None
    refocus = SolverConfig(warmup_conflicts=20, schedule_base=20, schedule_quad=0,
                           schedule_cap=20, refocus_margin=0.0)
    if config == "random_oracle":
        return refocus, random_oracle(5)
    hp = preset("supervised")
    params = init_params(hp, seed=0)
    return refocus, lambda graph: forward(params, hp, graph).policy_logits


def solve_case(key):
    config, index = key.split("/")
    n, m, seed = SOLVE_FORMULAS[int(index)]
    cfg, oracle = solve_setup(config)
    solver = Solver(random_ksat(n, m, 3, seed), cfg, oracle)
    res = solver.solve(Budget(max_conflicts=SOLVE_CONFLICTS))
    st = res.stats
    trail = ",".join(map(str, solver.trail)).encode()
    return {
        "status": res.status,
        "conflicts": st.conflicts,
        "decisions": st.decisions,
        "propagations": st.propagations,
        "restarts": st.restarts,
        "reductions": st.reductions,
        "refocuses": st.refocuses,
        "glue_counts": st.glue_counts,
        "trail_len": len(solver.trail),
        "trail_sha256": hashlib.sha256(trail).hexdigest(),
    }


SECTIONS = {
    "network": lambda: {key: network_case(key) for key in NETWORK_KEYS},
    "train_rl": rl_case,
    "train_supervised": supervised_case,
    "solve": lambda: {key: solve_case(key) for key in SOLVE_KEYS},
}


def write(names) -> None:
    """Recompute the named sections of the golden file, keeping the others
    as they are."""
    unknown = sorted(set(names) - set(SECTIONS))
    if unknown:
        sys.exit(f"unknown section(s) {unknown}; choose from {list(SECTIONS)}")
    values = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for name in names:
        values[name] = SECTIONS[name]()
    # json gives each float its shortest repr, which reads back to the same
    # float, so a section read and written again keeps its bytes
    GOLDEN.write_text(json.dumps({name: values[name] for name in SECTIONS if name in values}, indent=1) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def assert_close(actual, expected, scale=None, label=""):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if scale is None:
        scale = np.maximum(np.abs(expected), 1.0)
    assert actual.shape == expected.shape, label
    assert np.all(np.abs(actual - expected) <= TOL * scale), (label, actual, expected)


def assert_digests_close(actual: dict, expected: dict):
    assert sorted(actual) == sorted(expected)
    for name, (s, l1, proj) in expected.items():
        # |sum| and |projection| errors are bounded by the L1 error
        assert_close(actual[name], [s, l1, proj], scale=max(l1, 1e-300), label=name)


@pytest.mark.parametrize("key", NETWORK_KEYS)
def test_network_forward_and_gradients(golden, key):
    got = network_case(key)
    want = golden["network"][key]
    assert_close(got["logits"], want["logits"])
    if want["value"] is None:
        assert got["value"] is None
    else:
        assert_close(got["value"], want["value"])
    assert_digests_close(got["grads"], want["grads"])


def test_train_rl_history_and_params(golden):
    got = rl_case()
    want = golden["train_rl"]
    assert len(got["history"]) == len(want["history"])
    for row, ref in zip(got["history"], want["history"]):
        for key, value in ref.items():
            if isinstance(value, int):
                assert row[key] == value, key
            else:
                assert_close(row[key], value, label=key)
    assert_digests_close(got["params"], want["params"])


def test_train_supervised_epoch_kl(golden):
    got = supervised_case()
    want = golden["train_supervised"]
    assert_close(got["epoch_kl"], want["epoch_kl"])
    assert_digests_close(got["params"], want["params"])


@pytest.mark.parametrize("key", SOLVE_KEYS)
def test_solve_search(golden, key):
    assert solve_case(key) == golden["solve"][key]


def test_write_recomputes_only_the_named_sections(tmp_path, monkeypatch):
    path = tmp_path / GOLDEN.name
    original = GOLDEN.read_text()
    path.write_text(original)
    monkeypatch.setitem(globals(), "GOLDEN", path)
    monkeypatch.setitem(SECTIONS, "train_supervised", lambda: {"recomputed": True})
    write(["train_supervised"])
    got = json.loads(path.read_text())
    assert got["train_supervised"] == {"recomputed": True}
    got["train_supervised"] = json.loads(original)["train_supervised"]
    assert json.dumps(got, indent=1) + "\n" == original
    with pytest.raises(SystemExit, match="unknown section"):
        write(["nonsense"])


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"]:
        sys.exit(__doc__)
    write(sys.argv[2:] or list(SECTIONS))
    print(f"wrote {GOLDEN}")
