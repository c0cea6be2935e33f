"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import csv
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from gluesat.bench import BenchConfig, aggregate, pairwise_better_fraction, par2, run_benchmark, write_outputs
from gluesat.cnf import Formula, brute_force, clause_literal_graph, random_ksat, write_dimacs
from gluesat.datagen import DatagenConfig, build_dataset, load_dataset
from gluesat.env import GlueEnv
from gluesat.network import HyperParams, forward, forward_with_cache, init_params, preset, save_weights
from gluesat.solver import SAT, UNSAT, Budget, Solver, SolverConfig, random_oracle, schedule_threshold, solve
from gluesat.training import (
    AdamState,
    RLConfig,
    SupervisedConfig,
    SupervisedExample,
    adam_step,
    clip_gradients,
    kl_loss,
    kl_grads,
    log_softmax,
    reinforce_surrogate,
    reinforce_weights,
    run_episode,
    sample_action,
    train_rl,
    train_supervised,
)

from conftest import perturbed_params
from oracles import drive_naive, drive_watched, fd_gradients, max_rel_error


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE CRITERION {criterion}: {status} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --------------------------------------------------------------- criterion 1

_SOUND_HP = HyperParams(delta_l=8, delta_c=8, tau_iters=1, n_l=1, n_c=1, n_p=2, dropout=0.0)
_SOUND_PARAMS = None


def _aggressive_config():
    return SolverConfig(
        warmup_conflicts=0,
        schedule_base=5, schedule_quad=0, schedule_cap=5,
        refocus_margin=0.0,
    )


def _soundness_task(seed):
    global _SOUND_PARAMS
    if _SOUND_PARAMS is None:
        _SOUND_PARAMS = init_params(_SOUND_HP, seed=1234)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 21))
    m = int(round(4.3 * n))
    f = random_ksat(n, m, 3, seed)
    want = SAT if brute_force(f) is not None else UNSAT
    oracles = {
        "vanilla": None,
        "neuro": lambda g: forward(_SOUND_PARAMS, _SOUND_HP, g).policy_logits,
        "random": random_oracle(seed),
    }
    refocused = 0
    for name, oracle in oracles.items():
        r = solve(f, config=_aggressive_config(), oracle=oracle)
        if r.status != want:
            return False, f"{name} disagreed on seed {seed} (n={n})", 0
        if name != "vanilla":
            refocused += r.stats.refocuses
    return True, "", refocused


class TestCriterion1:
    def test_solver_soundness_all_variants(self):
        t0 = time.time()
        seeds = list(range(1000))
        refocuses = 0
        failures = []
        with ProcessPoolExecutor(max_workers=4) as pool:
            for ok, msg, refocus_count in pool.map(_soundness_task, seeds, chunksize=25):
                refocuses += refocus_count
                if not ok:
                    failures.append(msg)
        elapsed = time.time() - t0
        ok = not failures and elapsed < 120 and refocuses > 0
        report(
            1,
            ok,
            f"1000 instances x 3 variants vs brute force, {refocuses} refocusings, "
            f"{elapsed:.1f}s (limit 120s)" + (f"; failures: {failures[:3]}" if failures else ""),
        )


# --------------------------------------------------------------- criterion 2


class TestCriterion2:
    def test_propagation_matches_naive(self):
        t0 = time.time()
        rng = np.random.default_rng(20240)
        states = 0
        mismatches = 0
        while states < 10_000:
            n = int(rng.integers(6, 13))
            m = int(rng.integers(2 * n, 4 * n))
            f = random_ksat(n, m, 3, int(rng.integers(1 << 30)))
            decisions = [
                int(v * (1 if rng.integers(2) else -1)) for v in rng.permutation(n) + 1
            ]
            _, watched_states, wconf = drive_watched(f, decisions)
            naive_states, nconf = drive_naive(f, decisions)
            if wconf != nconf:
                mismatches += 1
            else:
                upto = len(watched_states) if wconf is None else wconf
                for i in range(upto):
                    if watched_states[i] != naive_states[i]:
                        mismatches += 1
                        break
            states += len(watched_states)
        elapsed = time.time() - t0
        report(2, mismatches == 0, f"{states} randomized states against the full-scan propagator, {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 3


class TestCriterion3:
    def test_network_correctness(self):
        hp = preset("supervised")
        rng = np.random.default_rng(0)
        max_perm_err = 0.0
        for trial in range(3):
            f = random_ksat(9, 30, 3, trial)
            p = init_params(hp, seed=trial)
            perm = rng.permutation(9) + 1
            relabeled = Formula(
                9,
                tuple(tuple(int(np.sign(l)) * int(perm[abs(l) - 1]) for l in c) for c in f.clauses),
            )
            out = forward(p, hp, clause_literal_graph(f)).policy_logits
            out2 = forward(p, hp, clause_literal_graph(relabeled)).policy_logits
            expected = np.empty(9)
            for v in range(1, 10):
                expected[perm[v - 1] - 1] = out[v - 1]
            max_perm_err = max(max_perm_err, float(np.abs(out2 - expected).max()))

        p = init_params(hp, seed=5)
        g = clause_literal_graph(random_ksat(12, 40, 3, 9))
        _, cache = forward_with_cache(p, hp, g)
        mean_err = max(float(np.abs(it["c_std"].mean(axis=1)).max()) for it in cache["iters"])
        var_err = max(float(np.abs(it["c_std"].var(axis=1) - 1.0).max()) for it in cache["iters"])

        from gluesat.network import policy_distribution

        probs = policy_distribution(np.array([1.0, 0.0]), 4.0)
        softmax_err = max(abs(probs[0] - 0.98201), abs(probs[1] - 0.01799))

        ok = max_perm_err < 1e-9 and mean_err < 1e-6 and var_err < 1e-3 and softmax_err < 1e-5
        report(
            3,
            ok,
            f"permutation equivariance {max_perm_err:.2e} (<1e-9), standardization mean {mean_err:.2e} "
            f"(<1e-6) var {var_err:.2e} (<1e-3), temperature softmax {softmax_err:.2e} (<1e-5)",
        )


# --------------------------------------------------------------- criterion 4


class TestCriterion4:
    def test_gradient_check_both_losses(self):
        t0 = time.time()
        hp = HyperParams(delta_l=3, delta_c=4, tau_iters=2, n_l=2, n_c=2, n_p=2, dropout=0.0)
        f = random_ksat(6, 8, 3, 11)
        graph = clause_literal_graph(f)

        p = perturbed_params(hp)
        target = np.random.default_rng(0).dirichlet(np.ones(6))
        _, kl_g = kl_grads(p, hp, graph, target)
        kl_fd = fd_gradients(p, lambda: kl_loss(target, forward(p, hp, graph).policy_logits))
        kl_err, kl_name = max_rel_error(kl_g, kl_fd)

        behavior = perturbed_params(hp, seed=6, noise=0.07)
        rng = np.random.default_rng(2)
        episodes = [run_episode(f, behavior, hp, rng) for _ in range(3)]
        ratios, adv, targets, _ = reinforce_weights(episodes, p, hp)
        res = reinforce_surrogate(episodes, p, hp, ratios, adv, targets)
        rl_fd = fd_gradients(
            p, lambda: reinforce_surrogate(episodes, p, hp, ratios, adv, targets).total
        )
        rl_err, rl_name = max_rel_error(res.grads, rl_fd)

        elapsed = time.time() - t0
        ok = kl_err <= 1e-4 and rl_err <= 1e-4 and elapsed < 60
        report(
            4,
            ok,
            f"KL worst {kl_err:.2e} ({kl_name}), REINFORCE worst {rl_err:.2e} ({rl_name}), "
            f"6-var/8-clause graph, {elapsed:.1f}s (limit 60s)",
        )


# --------------------------------------------------------------- criterion 5


class TestCriterion5:
    def test_schedule_and_rewards_exact(self):
        sched_ok = (
            schedule_threshold(1) == 50_000
            and schedule_threshold(15) == 246_000
            and schedule_threshold(16) == 250_000
        )

        # non-terminal reward on a 100-variable formula is exactly -1/100
        env = GlueEnv()
        f100 = random_ksat(100, 150, 3, 3)
        env.reset(f100, seed=0)
        _, r_step, done = env.step(0)
        step_ok = (not done) and r_step == -1.0 / 100

        # glue-2 conflict pays exactly 1/4; glue-1 pays exactly 1
        clauses = []
        for a in (1, -1):
            for b in (2, -2):
                clauses.append((a, b, 3))
                clauses.append((a, b, -3))
        env.reset(Formula(3, tuple(clauses)), seed=0)
        obs = env.obs
        _, r1, _ = env.step(list(obs.var_map).index(1))
        _, r2, done2 = env.step(list(env.obs.var_map).index(2))
        glue2_ok = r1 == -1.0 / 3 and r2 == 0.25 and done2 and env.terminal == ("conflict", 2)

        env.reset(Formula(2, ((1, 2), (1, -2), (-1, 2), (-1, -2))), seed=0)
        _, r_g1, _ = env.step(0)
        glue1_ok = r_g1 == 1.0

        env.reset(Formula(2, ((1, 2),)), seed=1)
        rewards = []
        done = False
        while not done:
            _, r, done = env.step(0)
            rewards.append(r)
        sat_ok = env.terminal[0] != "satisfied" or rewards[-1] == 0.0

        ok = sched_ok and step_ok and glue2_ok and glue1_ok and sat_ok
        report(
            5,
            ok,
            "schedule thresholds (50000, 246000, 250000) exact; rewards -1/n, 1/g^2, 0 exact "
            f"(sched={sched_ok}, step={step_ok}, glue2={glue2_ok}, glue1={glue1_ok}, sat={sat_ok})",
        )


# --------------------------------------------------------------- criterion 6


def _degree_example(seed, n=12, m=40):
    f = random_ksat(n, m, 3, seed)
    g = clause_literal_graph(f)
    counts = [0] * n
    for col in g.cols.tolist():
        counts[col % n] += 1
    return SupervisedExample(g, tuple(counts))


class TestCriterion6:
    def test_supervised_overfit(self):
        t0 = time.time()
        examples = [_degree_example(s) for s in range(10)]
        hp = preset("supervised")
        cfg = SupervisedConfig(lr=0.1, epochs=200, batch_size=2, seed=0, train_dropout=False)
        result = train_supervised(examples, hp, cfg)
        elapsed = time.time() - t0
        best = min(result.epoch_kl)
        first = next((i + 1 for i, k in enumerate(result.epoch_kl) if k < 0.05), None)
        ok = best < 0.05 and elapsed < 300
        report(
            6,
            ok,
            f"10-example toy set: mean KL reached {best:.4f} (<0.05) at epoch {first}, "
            f"{elapsed:.1f}s (limit 300s)",
        )


# --------------------------------------------------------------- criterion 7


class TestCriterion7:
    def test_bandit_convergence(self):
        t0 = time.time()
        bandit = Formula(2, ((1, 2), (1, -2)))
        root = clause_literal_graph(bandit)
        hp = HyperParams(delta_l=8, delta_c=8, tau_iters=1, n_l=1, n_c=1, n_p=2, dropout=0.0)
        cfg = RLConfig(workers=4, episodes_per_worker=2, grad_steps=2, lr=0.02, seed=3)
        params = init_params(hp, seed=3, value_head=True)
        adam = AdamState.for_params(params)
        steps = 0
        pi_v1 = 0.0
        while steps < 500:
            snapshot = params.copy()
            episodes = []
            for w in range(cfg.workers):
                wrng = np.random.default_rng(np.random.SeedSequence([cfg.seed, steps, w]))
                for _ in range(cfg.episodes_per_worker):
                    episodes.append(run_episode(bandit, snapshot, hp, wrng))
            for _ in range(cfg.grad_steps):
                res = reinforce_surrogate(episodes, params, hp, *reinforce_weights(episodes, params, hp)[:3])
                clip_gradients(res.grads, 1.0)
                adam_step(adam, params, res.grads, cfg.lr)
                steps += 1
            logits = forward(params, hp, root).policy_logits
            pi_v1 = float(np.exp(log_softmax(logits))[0])
            if pi_v1 > 0.9:
                break
        elapsed = time.time() - t0
        ok = pi_v1 > 0.9 and steps <= 500 and elapsed < 300
        report(
            7,
            ok,
            f"bandit pi(rewarded action) {pi_v1:.3f} (>0.9) after {steps} gradient steps "
            f"(<=500), {elapsed:.1f}s (limit 300s); held-out comparison follows",
        )

    def test_trained_beats_uniform_on_held_out(self):
        hp = HyperParams(delta_l=8, delta_c=16, tau_iters=2, n_l=2, n_c=2, n_p=2, dropout=0.0)
        train_set = [random_ksat(30, 180, 3, s) for s in range(20)]
        held_out = [random_ksat(30, 180, 3, 1000 + s) for s in range(10)]

        def rollout(formula, seed, policy):
            env = GlueEnv()
            rng = np.random.default_rng(seed)
            obs = env.reset(formula, seed=seed)
            total = 0.0
            while True:
                if policy is None:
                    action = int(rng.integers(len(obs.var_map)))
                else:
                    action, _ = sample_action(forward(policy, hp, obs).policy_logits, rng)
                obs, reward, done = env.step(action)
                total += reward
                if done:
                    return total

        def evaluate(policy):
            returns = []
            for i, f in enumerate(held_out):
                for ep in range(15):
                    returns.append(rollout(f, 7000 + i * 100 + ep, policy))
            return float(np.mean(returns)), len(returns)

        cfg = RLConfig(workers=4, episodes_per_worker=2, grad_steps=2, batches=150, lr=3e-3, seed=0)
        result = train_rl(train_set, hp, cfg)
        trained_mean, n_episodes = evaluate(result.params)
        random_mean, _ = evaluate(None)
        ok = trained_mean >= random_mean and n_episodes >= 100
        report(
            7,
            ok,
            f"held-out mean return: trained {trained_mean:.4f} vs uniform-random {random_mean:.4f} "
            f"(paired over {n_episodes} episodes)",
        )


# --------------------------------------------------------------- criterion 8


class TestCriterion8:
    def test_concentrated_oracle_steers_next_decision(self):
        target_holder = {}
        events = []

        def concentrated(graph):
            logits = np.zeros(graph.num_vars)
            pick = len(graph.var_map) // 2
            logits[pick] = 1000.0
            target_holder["var"] = graph.var_map[pick]
            return logits

        class Probe(Solver):
            def _try_refocus(self):
                before = self.refocuses
                super()._try_refocus()
                self._fresh_refocus = self.refocuses > before

            def pick_decision(self):
                lit = super().pick_decision()
                if getattr(self, "_fresh_refocus", False):
                    events.append((target_holder["var"], abs(lit)))
                    self._fresh_refocus = False
                return lit

        cfg = SolverConfig(
            warmup_conflicts=0,
            schedule_base=1, schedule_quad=0, schedule_cap=1, refocus_margin=0.0,
        )
        for seed in range(5):
            Probe(random_ksat(20, 88, 3, seed), config=cfg, oracle=concentrated).solve(
                budget=Budget(max_conflicts=500)
            )
        steer_ok = len(events) > 0 and all(target == decided for target, decided in events)

        # uniform-random oracle keeps verdicts sound
        sound = True
        for seed in range(200):
            g = random_ksat(12, 50, 3, seed)
            want = SAT if brute_force(g) is not None else UNSAT
            r = solve(g, config=_aggressive_config(), oracle=random_oracle(seed))
            if r.status != want:
                sound = False
                break
        ok = steer_ok and sound
        report(
            8,
            ok,
            f"{len(events)} refocusings with a concentrated oracle all steered the next decision "
            f"to the oracle's variable: {steer_ok}; random-oracle soundness on 200 instances: {sound}",
        )


# --------------------------------------------------------------- criterion 9


class TestCriterion9:
    def test_metrics(self, tmp_path):
        from gluesat.bench import EvalRecord, cactus_csv

        def rec(instance, variant, status, runtime, glr=0.5, avg_glue=3.0):
            return EvalRecord(
                instance=instance, variant=variant, seed=0, status=status,
                runtime=runtime, decisions=10, conflicts=5, propagations=0,
                restarts=0, refocuses=0, avg_glue=avg_glue, glr=glr,
            )

        aggs = aggregate(
            [rec("a.cnf", "vanilla", "SAT", 100.0), rec("b.cnf", "vanilla", "UNKNOWN", 5000.0)]
        )
        score = par2(aggs, timeout=5000.0)["vanilla"]["overall"]
        par2_ok = score == 5050.0

        rng = np.random.default_rng(1)
        records = []
        for i in range(9):
            for variant in ("vanilla", "neuro", "random"):
                status = "SAT" if rng.random() < 0.7 else "UNKNOWN"
                records.append(
                    rec(f"{i}.cnf", variant, status, float(rng.uniform(1, 50)),
                        glr=float(rng.random()), avg_glue=float(rng.uniform(2, 8)))
                )
        aggs = aggregate(records)
        path = tmp_path / "cactus.csv"
        cactus_csv(aggs, "runtime", path)
        monotone = True
        by_variant = {}
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                by_variant.setdefault(row["variant"], []).append(float(row["cost"]))
        for costs in by_variant.values():
            if any(a > b for a, b in zip(costs, costs[1:])):
                monotone = False

        complementary = all(
            row["fraction_a"] + row["fraction_b"] == pytest.approx(1.0)
            for metric in ("glr", "avg_glue")
            for row in pairwise_better_fraction(aggs, metric)
        )
        ok = par2_ok and monotone and complementary
        report(
            9,
            ok,
            f"PAR-2 example = {score} (expected 5050 exactly); cactus monotone: {monotone}; "
            f"pairwise fractions complementary: {complementary}",
        )


# -------------------------------------------------------------- criterion 10


class TestCriterion10:
    def test_pipeline_integration(self, tmp_path):
        t0 = time.time()
        instances = tmp_path / "instances"
        instances.mkdir()
        for seed in range(50):
            f = random_ksat(100, 420, 3, seed)
            (instances / f"inst{seed:02d}.cnf").write_text(write_dimacs(f))

        data_dir = tmp_path / "dataset"
        datagen_cfg = DatagenConfig(
            budget_conflicts=3000, dump_interval=1000, max_clauses=150_000,
            seed=0, workers=4,
        )
        rows = build_dataset(instances, data_dir, datagen_cfg)
        dataset = load_dataset(data_dir)
        data_ok = len(rows) == len(dataset) > 0 and all(
            len(ex.glue_counts) == ex.graph.num_vars and any(ex.glue_counts) for ex in dataset
        )

        hp = preset("supervised")
        sup_cfg = SupervisedConfig(lr=1e-3, epochs=2, batch_size=8, seed=0)
        trained = train_supervised(dataset, hp, sup_cfg)
        weights_path = tmp_path / "weights.ngw"
        save_weights(trained.params, hp, weights_path)
        train_ok = weights_path.exists() and np.isfinite(trained.epoch_kl).all()

        bench_out = tmp_path / "bench"
        solver_cfg = SolverConfig(
            warmup_conflicts=0,
            schedule_base=500, schedule_quad=0, schedule_cap=500, refocus_margin=0.0,
        )
        bench_cfg = BenchConfig(
            timeout=None, max_conflicts=50_000, parallelism=4, solver=solver_cfg
        )
        bench_out.mkdir()
        instance_paths = sorted(str(p) for p in instances.glob("*.cnf"))
        records = run_benchmark(
            instance_paths, ["vanilla", "neuro", "random"], [0, 1, 2],
            bench_cfg, weights=str(weights_path),
            records_csv=bench_out / "records.csv",
        )
        write_outputs(records, bench_out, timeout=60.0)

        bench_files_ok = all(
            (bench_out / name).exists()
            for name in ("records.csv", "aggregates.csv", "par2.txt", "pairwise.csv",
                         "cactus_runtime.csv", "cactus_decisions.csv")
        )
        records_ok = len(records) == 50 * 3 * 3
        aggs = aggregate(records)  # raises on any SAT/UNSAT disagreement
        solved = sum(1 for a in aggs if a.variant == "vanilla" and a.solved)
        statuses = {r.status for r in records}
        status_ok = statuses <= {SAT, UNSAT, "UNKNOWN"} and solved > 0

        complementary = all(
            row["fraction_a"] + row["fraction_b"] == pytest.approx(1.0)
            for metric in ("glr", "avg_glue")
            for row in pairwise_better_fraction(aggs, metric)
        )
        elapsed = time.time() - t0
        ok = (
            data_ok and train_ok and bench_files_ok and records_ok
            and status_ok and complementary and elapsed < 1800
        )
        report(
            10,
            ok,
            f"datagen ({len(dataset)} examples) -> train-supervised (KL {trained.epoch_kl[-1]:.3f}) "
            f"-> bench ({len(records)} records, {solved}/50 vanilla-solved), outputs clean, "
            f"{elapsed:.1f}s (limit 1800s)",
        )
