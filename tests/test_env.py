import numpy as np
import pytest

from gluesat.cnf import Formula, clause_literal_graph, random_ksat, satisfies
from gluesat.env import GlueEnv, TrivialFormulaError

from oracles import edge_pairs


def glue2_formula():
    # any polarity pair on vars 1 and 2 forces both 3 and -3: the conflict
    # clause spans decision levels 1 and 2, so the learned clause has glue 2
    clauses = []
    for a in (1, -1):
        for b in (2, -2):
            clauses.append((a, b, 3))
            clauses.append((a, b, -3))
    return Formula(3, tuple(clauses))


class TestReset:
    def test_no_units_observation_is_full_graph(self):
        f = random_ksat(8, 24, 3, 0)
        env = GlueEnv()
        obs = env.reset(f, seed=1)
        ref = clause_literal_graph(f)
        assert set(edge_pairs(obs)) == set(edge_pairs(ref))
        assert obs.var_map == ref.var_map

    def test_root_propagation_applied(self):
        # unit 1 propagates 2; clauses containing 2 become satisfied
        f = Formula(3, ((1,), (-1, 2), (2, 3)))
        env = GlueEnv()
        obs = env.reset(f, seed=0)
        assert obs.num_clauses == 0
        assert obs.num_vars == 1
        assert obs.var_map == (3,)
        assert obs.num_edges == 0

    def test_same_seed_same_observation(self):
        f = random_ksat(10, 30, 3, 1)
        env = GlueEnv()
        a = env.reset(f, seed=5)
        b = env.reset(f, seed=5)
        assert set(edge_pairs(a)) == set(edge_pairs(b)) and a.var_map == b.var_map

    def test_trivially_unsat_rejected(self):
        with pytest.raises(TrivialFormulaError):
            GlueEnv().reset(Formula(1, ((1,), (-1,))), seed=0)

    def test_empty_clause_rejected(self):
        with pytest.raises(TrivialFormulaError):
            GlueEnv().reset(Formula(2, ((), (1, 2))), seed=0)

    def test_fully_decided_rejected(self):
        with pytest.raises(TrivialFormulaError):
            GlueEnv().reset(Formula(2, ((1,), (-1, 2))), seed=0)

    def test_graph_over_edge_cap_rejected(self):
        with pytest.raises(ValueError, match="edge_cap=10 "):
            GlueEnv(edge_cap=10).reset(random_ksat(20, 85, 3, seed=0))

    @pytest.mark.parametrize("cap", [0, -5])
    def test_impossible_edge_cap_refused_at_construction(self, cap):
        with pytest.raises(ValueError, match=f"edge_cap must be >= 1, got {cap}"):
            GlueEnv(edge_cap=cap)


class TestStep:
    def test_nonterminal_reward(self):
        f = random_ksat(100, 150, 3, 3)
        env = GlueEnv()
        obs = env.reset(f, seed=0)
        _, reward, done = env.step(0)
        if not done:
            assert reward == -1.0 / 100

    def test_glue2_conflict_reward(self):
        env = GlueEnv()
        obs = env.reset(glue2_formula(), seed=0)
        # act on var 1 then var 2 (compacted indices)
        obs, r1, done = env.step(list(obs.var_map).index(1))
        assert not done
        assert r1 == -1.0 / 3
        _, r2, done = env.step(list(obs.var_map).index(2))
        assert done
        assert r2 == 0.25
        assert env.terminal == ("conflict", 2)

    def test_glue1_conflict_reward(self):
        f = Formula(2, ((1, 2), (1, -2), (-1, 2), (-1, -2)))
        env = GlueEnv()
        env.reset(f, seed=0)
        _, reward, done = env.step(0)
        assert done
        assert reward == 1.0
        assert env.terminal == ("conflict", 1)

    def test_satisfied_terminal(self):
        f = Formula(2, ((1, 2),))
        env = GlueEnv()
        obs = env.reset(f, seed=0)
        done = False
        total_steps = 0
        while not done:
            obs, reward, done = env.step(0)
            total_steps += 1
        assert env.terminal[0] in ("satisfied", "conflict")
        assert total_steps <= 2

    def test_satisfied_terminal_has_model(self):
        sat_count = 0
        for seed in range(40):
            f = random_ksat(10, 30, 3, seed)
            env = GlueEnv()
            try:
                obs = env.reset(f, seed=seed)
            except TrivialFormulaError:
                continue
            rng = np.random.default_rng(seed)
            done = False
            while not done:
                obs, _, done = env.step(int(rng.integers(len(env.obs.var_map))))
            if env.terminal[0] == "satisfied":
                sat_count += 1
                model = [v if env.solver.value(v) == 1 else -v for v in range(1, 11)]
                assert satisfies(f, model)
        assert sat_count > 0

    def test_invalid_action(self):
        env = GlueEnv()
        obs = env.reset(random_ksat(6, 18, 3, 2), seed=0)
        with pytest.raises(ValueError):
            env.step(len(obs.var_map))

    def test_step_after_done(self):
        f = Formula(2, ((1, 2), (1, -2), (-1, 2), (-1, -2)))
        env = GlueEnv()
        env.reset(f, seed=0)
        env.step(0)
        with pytest.raises(RuntimeError):
            env.step(0)

    def test_valid_actions_match_unassigned(self):
        f = random_ksat(12, 36, 3, 4)
        env = GlueEnv()
        obs = env.reset(f, seed=9)
        rng = np.random.default_rng(0)
        done = False
        while not done:
            s = env.solver
            unassigned = tuple(v for v in range(1, 13) if s.value(v) == 0)
            assert env.obs.var_map == unassigned
            obs, _, done = env.step(int(rng.integers(len(unassigned))))

    def test_observations_never_grow(self):
        # an episode never learns or backtracks, so a step's graph fits
        # whatever cap the reset's graph fit
        for seed in range(10):
            env = GlueEnv()
            obs = env.reset(random_ksat(30, 128, 3, seed), seed=seed)
            rng = np.random.default_rng(seed)
            done = False
            while not done:
                edges = obs.num_edges
                obs, _, done = env.step(int(rng.integers(len(obs.var_map))))
                assert done or obs.num_edges <= edges

    def test_reward_forms_and_episode_length(self):
        for seed in range(30):
            f = random_ksat(10, 32, 3, seed)
            env = GlueEnv()
            try:
                env.reset(f, seed=seed)
            except TrivialFormulaError:
                continue
            rng = np.random.default_rng(seed + 1)
            rewards = []
            done = False
            while not done:
                _, r, done = env.step(int(rng.integers(len(env.obs.var_map))))
                rewards.append(r)
            assert len(rewards) <= 10
            for r in rewards[:-1]:
                assert r == -1.0 / 10
            last = rewards[-1]
            assert last == 0.0 or any(last == 1.0 / g**2 for g in range(1, 11))
            assert -1.0 < sum(rewards) <= 1.0


class TestResetIsolation:
    def test_identical_episodes_after_interleaving(self):
        f = random_ksat(12, 40, 3, 7)
        env = GlueEnv()

        def run(seed, actions_seed):
            env.reset(f, seed=seed)
            rng = np.random.default_rng(actions_seed)
            trace = []
            done = False
            while not done:
                a = int(rng.integers(len(env.obs.var_map)))
                _, r, done = env.step(a)
                trace.append((a, r))
            return trace

        first = run(3, 10)
        for k in range(3):  # unrelated episodes in between
            run(50 + k, 60 + k)
        second = run(3, 10)
        assert first == second
