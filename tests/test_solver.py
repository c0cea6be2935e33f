from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gluesat.cnf import Formula, brute_force, random_ksat, satisfies
from gluesat.solver import (
    _DECAY,
    SAT,
    UNKNOWN,
    UNSAT,
    Budget,
    Solver,
    SolverConfig,
    random_oracle,
    schedule_threshold,
    solve,
)

from oracles import ReferenceSolver, bump, compute_lbd, drive_naive, drive_watched, solver_state


class TestSolveBasics:
    def test_contradictory_units(self):
        assert solve(Formula(1, ((1,), (-1,)))).status == UNSAT

    def test_simple_sat(self):
        r = solve(Formula(2, ((1, 2), (-1, 2))))
        assert r.status == SAT
        assert 2 in r.model

    def test_empty_clause(self):
        assert solve(Formula(3, ((1, 2), ()))).status == UNSAT

    def test_empty_formula(self):
        r = solve(Formula(0, ()))
        assert r.status == SAT and r.model == []

    def test_budget_unknown(self):
        f = random_ksat(40, 180, 3, 0)
        r = solve(f, budget=Budget(max_conflicts=1))
        assert r.status in (UNKNOWN, SAT, UNSAT)
        r0 = solve(f, budget=Budget(max_conflicts=0))
        assert r0.status == UNKNOWN

    def test_wall_clock_budget(self):
        f = random_ksat(40, 180, 3, 0)
        r = solve(f, budget=Budget(max_seconds=0.0))
        assert r.status == UNKNOWN

    def test_sat_model_verified(self):
        for seed in range(40):
            f = random_ksat(15, 60, 3, seed)
            r = solve(f)
            if r.status == SAT:
                assert satisfies(f, r.model)

    def test_matches_brute_force(self):
        for seed in range(150):
            f = random_ksat(14, 58, 3, seed)
            want = SAT if brute_force(f) is not None else UNSAT
            assert solve(f).status == want

    def test_stats_populated(self):
        f = random_ksat(20, 88, 3, 3)
        r = solve(f)
        st = r.stats
        assert st.decisions > 0
        assert st.glr == pytest.approx(st.conflicts / st.decisions)
        assert len(st.glue_counts) == 20
        assert st.runtime >= 0


class TestPropagate:
    def test_unit_chain(self):
        s = Solver(Formula(2, ((1,), (-1, 2))))
        for lit in s._root_units:
            s._enqueue(lit, None)
        assert s._propagate() is None
        assert s.trail == [1, 2]
        assert s.level[1] == 0 and s.level[2] == 0

    def test_immediate_conflict(self):
        s = Solver(Formula(1, ((1,), (-1,))))
        r = s.solve()
        assert r.status == UNSAT

    def test_conflict_clause_returned(self):
        s = Solver(Formula(2, ((-1, 2), (-1, -2))))
        s.trail_lim.append(len(s.trail))
        s._enqueue(1, None)
        conflict = s._propagate()
        assert conflict is not None
        assert all(s.value(l) == -1 for l in conflict.lits)

    def test_matches_naive_propagation(self):
        rng = np.random.default_rng(42)
        states = 0
        for _ in range(120):
            n = int(rng.integers(6, 13))
            m = int(rng.integers(2 * n, 4 * n))
            f = random_ksat(n, m, 3, int(rng.integers(1 << 30)))
            decisions = [
                int(v * (1 if rng.integers(2) else -1))
                for v in rng.permutation(n) + 1
            ]
            _, watched_states, wconf = drive_watched(f, decisions)
            naive_states, nconf = drive_naive(f, decisions)
            assert wconf == nconf
            upto = len(watched_states) if wconf is None else wconf
            for i in range(upto):
                assert watched_states[i] == naive_states[i]
            states += len(watched_states)
        assert states > 500

    def test_watched_invariant_after_propagation(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            f = random_ksat(10, 35, 3, int(rng.integers(1 << 30)))
            decisions = [int(v * (1 if rng.integers(2) else -1)) for v in rng.permutation(10) + 1]
            s, _, conflict_step = drive_watched(f, decisions)
            if conflict_step is not None:
                continue
            for clause in s.original + s.learned:
                w0, w1 = clause.lits[0], clause.lits[1]
                if s.value(w0) == 1 or s.value(w1) == 1:
                    continue
                assert s.value(w0) != -1 and s.value(w1) != -1


class TestAnalyzeConflict:
    def test_chain_first_uip(self):
        # decision 1 propagates 2 then 3, falsifying the last clause
        s = Solver(Formula(3, ((-1, 2), (-2, 3), (-1, -3))))
        s.trail_lim.append(len(s.trail))
        s._enqueue(1, None)
        conflict = s._propagate()
        assert conflict is not None
        learned, bj, glue = s._analyze(conflict)
        assert learned == [-1]
        assert bj == 0
        assert glue == 1

    def test_learned_clause_properties(self):
        checked = 0

        def on_learn(s, learned, bj, glue):
            nonlocal checked
            checked += 1
            level = s.level
            # falsified under the pre-backjump trail
            assert all(s.value(l) == -1 for l in learned)
            # exactly one literal at the current decision level
            current = [l for l in learned if level[abs(l)] >= s.decision_level]
            assert len(current) == 1 and current[0] == learned[0]
            # unit after backjumping: every other literal at level <= bj
            others = [level[abs(l)] for l in learned[1:]]
            assert all(lv <= bj for lv in others)
            if others:
                assert max(others) == bj
            assert glue == len({level[abs(l)] for l in learned})
            assert glue >= 1

        for seed in range(25):
            solve(random_ksat(20, 88, 3, seed), on_learn=on_learn)
        assert checked > 100

    def test_learned_unit_has_glue_one(self):
        glues = []

        def on_learn(s, learned, bj, glue):
            if len(learned) == 1:
                glues.append(glue)

        for seed in range(20):
            solve(random_ksat(12, 50, 3, seed), on_learn=on_learn)
        assert glues and all(g == 1 for g in glues)

    def test_learned_clauses_preserve_verdict(self):
        for seed in range(25):
            f = random_ksat(12, 50, 3, seed)
            collected = []
            r = solve(f, on_learn=lambda s, l, b, g: collected.append(tuple(l)))
            extended = Formula(12, f.clauses + tuple(collected))
            want = brute_force(f)
            got = brute_force(extended)
            assert (want is None) == (got is None)


class TestPublicSearchApi:
    def test_second_solve_raises(self):
        # the budget stop leaves the search above level 0, where a second
        # solve used to read its first propagation conflict as root UNSAT
        f = random_ksat(60, 240, 3, 2)
        for conflicts in (3, 4, 5, 7):
            s = Solver(f)
            assert s.solve(Budget(max_conflicts=conflicts)).status == UNKNOWN
            with pytest.raises(RuntimeError, match="solves once"):
                s.solve()
        s = Solver(f)
        assert s.solve().status == SAT
        with pytest.raises(RuntimeError, match="solves once"):
            s.solve()

    def test_propagate_root(self):
        s = Solver(Formula(3, ((1,), (-1, 2), (2, 3))))
        assert s.propagate_root() is True
        assert s.trail == [1, 2]
        assert s.decision_level == 0 and s.decisions == 0
        assert s.propagate_root() is True
        assert s.trail == [1, 2]

    @pytest.mark.parametrize("clauses", [
        ((1, 2), ()),                      # empty clause
        ((1,), (2, 3), (-1,)),             # contradictory units
        ((1,), (-1, 2), (-1, -2)),         # propagation conflict
    ])
    def test_propagate_root_refutation_is_sticky(self, clauses):
        s = Solver(Formula(3, clauses))
        assert s.propagate_root() is False
        assert s.propagate_root() is False
        assert s.solve().status == UNSAT

    def test_decide(self):
        s = Solver(Formula(3, ((-1, 2), (-2, 3), (1, 2, 3))))
        assert s.propagate_root()
        assert s.decide(1) is None
        assert s.trail == [1, 2, 3]
        assert s.trail_lim == [0]
        assert s.level[3] == 1 and s.decisions == 1
        s = Solver(Formula(2, ((-1, 2), (-1, -2))))
        conflict = s.decide(1)
        assert conflict is not None
        assert all(s.value(l) == -1 for l in conflict.lits)

    @pytest.mark.parametrize("lit", [0, 4, -4, 1, -1])
    def test_decide_rejects_assigned_or_foreign_literals(self, lit):
        s = Solver(Formula(3, ((1,), (2, 3))))
        assert s.propagate_root()
        with pytest.raises(ValueError):
            s.decide(lit)
        assert s.trail == [1] and s.decisions == 0

    @pytest.mark.parametrize("lit", [0, 4, -4, 7, -7])
    def test_value_rejects_foreign_literals(self, lit):
        # -4 used to read the slot of literal 3
        s = Solver(Formula(3, ((1, 2), (2, 3))))
        assert s.decide(3) is None
        assert (s.value(3), s.value(-3), s.value(1)) == (1, -1, 0)
        with pytest.raises(ValueError, match="not a literal of the formula"):
            s.value(lit)

    def test_solve_after_decisions_raises(self):
        s = Solver(random_ksat(10, 30, 3, 0))
        assert s.propagate_root()
        s.decide(s.pick_decision())
        with pytest.raises(RuntimeError):
            s.propagate_root()
        with pytest.raises(RuntimeError):
            s.solve()


class TestComputeLbd:
    def test_distinct_levels(self):
        levels = {1: 3, 2: 3, 3: 5}
        assert compute_lbd([1, -2, 3], levels) == 2

    def test_singleton(self):
        assert compute_lbd([-4], {4: 7}) == 1

    def test_unassigned_literal_raises(self):
        with pytest.raises(ValueError):
            compute_lbd([1, 2], {1: 0, 2: None})

    def test_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            size = int(rng.integers(1, 8))
            cur = int(rng.integers(1, 10))
            levels = {v: int(rng.integers(0, cur + 1)) for v in range(1, size + 1)}
            lits = [v if rng.integers(2) else -v for v in range(1, size + 1)]
            assert compute_lbd(lits, levels) <= min(size, cur + 1)


class TestEvsids:
    def test_first_bump(self):
        s = Solver(random_ksat(5, 10, 3, 0))
        bump(s, 3)
        assert s.evsids[3] == 1.0
        assert all(s.evsids[v] == 0.0 for v in (1, 2, 4, 5))

    def test_decay_scales_increment(self):
        s = Solver(random_ksat(5, 10, 3, 0))
        s._decay()
        assert s.inc == pytest.approx(1 / 0.95)

    def test_rescale_preserves_argmax(self):
        s = Solver(random_ksat(6, 12, 3, 0))
        s.evsids = [0.0, 5e99, 0.0, 8e99, 1e99, 0.0, 2e99]
        s.inc = 9e99
        s._rebuild_heap()
        before = s.pick_decision()
        bump(s, 3)  # pushes var 3 past 1e100, triggering the rescale
        assert max(s.evsids) <= 1e100
        after = s.pick_decision()
        assert abs(before) == abs(after) == 3

    def test_repeated_bumps_rank_first(self):
        s = Solver(random_ksat(6, 12, 3, 0))
        for _ in range(5):
            bump(s, 4)
            s._decay()
        assert abs(s.pick_decision()) == 4


class TestPickDecision:
    def test_tie_breaks_lowest_index(self):
        s = Solver(random_ksat(3, 5, 2, 0))
        s.evsids = [0.0, 0.5, 0.9, 0.9]
        s._rebuild_heap()
        assert abs(s.pick_decision()) == 2

    def test_skips_assigned(self):
        s = Solver(random_ksat(3, 5, 2, 0))
        s.evsids = [0.0, 0.5, 0.9, 0.7]
        s.trail_lim.append(0)
        s._enqueue(2, None)
        s._rebuild_heap()
        assert abs(s.pick_decision()) == 3

    @staticmethod
    def _two_assigned_once():
        s = Solver(Formula(3, ((1, 2, 3),)))
        s.evsids = [0.0, 0.5, 0.9, 0.7]
        s._rebuild_heap()
        assert s.decide(2) is None
        s._backjump(0)          # 2 keeps its live entry: nothing to push
        assert s.decide(2) is None
        return s

    def test_entry_popped_while_assigned_is_requeued(self):
        s = self._two_assigned_once()
        assert abs(s.pick_decision()) == 3      # pops 2's entry
        s._backjump(0)
        assert abs(s.pick_decision()) == 2

    def test_entry_dropped_by_a_rebuild_is_requeued(self):
        s = self._two_assigned_once()
        s._rebuild_heap()       # holds only the unassigned 1 and 3
        s._backjump(0)
        assert abs(s.pick_decision()) == 2

    def test_backjump_requeues_a_moved_score(self):
        s = Solver(Formula(3, ((1, 2, 3),)))
        assert s.decide(3) is None
        s.evsids[3] = 2.0       # a bump while assigned: its entry at 0.0 goes stale
        assert s.decide(1) is None
        s.evsids[1] = 1.0
        s._backjump(0)
        assert abs(s.pick_decision()) == 3
        assert sorted(s.heap)[:2] == [(-2.0, 3), (-1.0, 1)]

    def test_polarity_phase_saving(self):
        s = Solver(random_ksat(4, 8, 3, 0))
        assert s.pick_decision() < 0  # initial phase defaults to false
        s.phase[abs(s.pick_decision())] = True
        assert s.pick_decision() > 0

    def test_all_assigned_raises(self):
        s = Solver(Formula(1, ((1,),)))
        s._enqueue(1, None)
        with pytest.raises(RuntimeError):
            s.pick_decision()

    def test_refocus_concentration_drives_choice(self):
        s = Solver(random_ksat(9, 30, 3, 1))
        probs = np.zeros(9)
        probs[6] = 1.0  # compacted var 7 == original var 7 at the root
        s.apply_refocus(probs, tuple(range(1, 10)))
        assert abs(s.pick_decision()) == 7


class TestGlueEmas:
    def test_constant_stream_converges(self):
        s = Solver(Formula(1, ((1,),)))
        for _ in range(3000):
            s.update_glue_emas(4.0)
        assert s.glue_ema_fast() == pytest.approx(4.0, rel=1e-6)
        assert s.glue_ema_slow() == pytest.approx(4.0, rel=1e-3)

    def test_first_update_bias_corrected(self):
        s = Solver(Formula(1, ((1,),)))
        s.update_glue_emas(3)
        assert s.glue_ema_fast() == pytest.approx(3.0)
        assert s.glue_ema_slow() == pytest.approx(3.0)

    def test_degrading_stream_opens_gate(self):
        # independent simulation of the two bias-corrected recurrences
        af, asl = 2.0**-5, 2.0**-14
        fast = slow = 0.0
        t = 0
        s = Solver(Formula(1, ((1,),)))
        for g in [2.0] * 200 + [8.0] * 64:
            s.update_glue_emas(g)
            t += 1
            fast += af * (g - fast)
            slow += asl * (g - slow)
            assert s.glue_ema_fast() == pytest.approx(fast / (1 - (1 - af) ** t))
            assert s.glue_ema_slow() == pytest.approx(slow / (1 - (1 - asl) ** t))
        assert s.glue_ema_fast() > 1.1 * s.glue_ema_slow()
        assert s.glue_ema_fast() > 1.25 * s.glue_ema_slow()


class TestShouldRestart:
    def test_steady_stream_no_restart(self):
        s = Solver(Formula(1, ((1,),)))
        s.conflicts = 100
        for _ in range(100):
            s.update_glue_emas(3.0)
        assert not s.should_restart()

    def test_degrading_stream_restarts(self):
        s = Solver(Formula(1, ((1,),)))
        s.conflicts = 500
        for g in [2.0] * 200 + [8.0] * 64:
            s.update_glue_emas(g)
        assert s.should_restart()

    def test_interval_gate(self):
        s = Solver(Formula(1, ((1,),)))
        for g in [2.0] * 200 + [8.0] * 64:
            s.update_glue_emas(g)
        s.conflicts = 1
        s._conflicts_at_restart = 0
        assert not s.should_restart()

    def test_restart_never_fires_at_level_zero(self):
        # solve() only restarts above level 0; verify by instrumenting a run
        f = random_ksat(30, 128, 3, 5)
        s = Solver(f, config=SolverConfig())
        r = s.solve(budget=Budget(max_conflicts=2000))
        assert r.stats.restarts >= 0  # smoke: no assertion failures during run


class TestReduceDb:
    def _solver_with_learned(self, glues):
        s = Solver(random_ksat(30, 60, 3, 2))
        from gluesat.solver import _Clause

        for i, g in enumerate(glues):
            lits = [((i * 3) % 29) + 1, -(((i * 3 + 1) % 29) + 1), ((i * 3 + 2) % 29) + 1]
            c = _Clause(lits, glue=g)
            s.learned.append(c)
            s._attach(c)
        return s

    def test_glue_clauses_never_deleted(self):
        s = self._solver_with_learned([2] * 30)
        kept, deleted = s._reduce_db()
        assert not deleted
        assert len(s.learned) == 30

    def test_half_deleted_and_glue_dominated(self):
        glues = [3 + (i % 8) for i in range(100)]
        s = self._solver_with_learned(glues)
        kept, deleted = s._reduce_db()
        assert len(kept) >= 50
        assert len(deleted) == 50
        assert max(c.glue for c in kept) <= min(c.glue for c in deleted)

    def test_reason_clauses_survive(self):
        s = self._solver_with_learned([5] * 20)
        # make one high-glue learned clause the reason of a trail literal
        clause = s.learned[7]
        s.trail_lim.append(len(s.trail))
        s._enqueue(clause.lits[0], clause)
        kept, deleted = s._reduce_db()
        assert clause in s.learned
        assert clause not in deleted

    def test_reduction_during_search_is_sound(self):
        cfg = SolverConfig(reduce_base=50, reduce_step=10)
        for seed in range(25):
            f = random_ksat(14, 58, 3, seed)
            r = solve(f, config=cfg)
            want = SAT if brute_force(f) is not None else UNSAT
            assert r.status == want

    def test_equal_glue_keeps_the_newer_half_in_learn_order(self):
        # 5 clauses of glue 3 and 15 of glue 4: half of the 20 go, all of
        # them glue 4, and among the equal glues the older ones go first.
        s = self._solver_with_learned([4, 3, 4, 4] * 5)
        before = list(s.learned)
        fours = [c for c in before if c.glue == 4]
        survivors = [c for c in before if c.glue == 3 or any(c is f for f in fours[10:])]
        kept, deleted = s._reduce_db()
        assert [id(c) for c in s.learned] == [id(c) for c in survivors]
        assert [id(c) for c in kept] == [id(c) for c in survivors]
        assert sorted(map(id, deleted)) == sorted(map(id, fours[:10]))

    def test_learn_order_preserved(self):
        s = self._solver_with_learned([3 + (i % 5) for i in range(40)])
        position = {id(c): i for i, c in enumerate(s.learned)}
        s._reduce_db()
        order = [position[id(c)] for c in s.learned]
        assert order == sorted(order)


class TestGlueCounts:
    def test_zero_before_conflicts(self):
        s = Solver(random_ksat(8, 20, 3, 0))
        assert s.glue_counts == [0] * 9

    def test_unit_learned_counts(self):
        s = Solver(Formula(4, ((1, 2), (1, -2))))
        s._record_glue([-4], 1)
        assert s.glue_counts[4] == 1

    def test_sum_identity(self):
        total = 0

        def on_learn(s, learned, bj, glue):
            nonlocal total
            if glue <= 2:
                total += len(learned)

        s_holder = {}

        def run(seed):
            f = random_ksat(20, 88, 3, seed)
            s = Solver(f)
            s.solve(on_learn=on_learn)
            return s

        acc = 0
        for seed in range(10):
            s = run(seed)
            acc += sum(s.glue_counts)
        assert acc == total


class TestScheduleThreshold:
    def test_paper_values(self):
        assert schedule_threshold(1) == 50_000
        assert schedule_threshold(15) == 246_000
        assert schedule_threshold(16) == 250_000

    def test_configurable(self):
        assert schedule_threshold(3, base=10, quad=5, cap=100) == 10 + 5 * 4

    def test_bad_ordinal(self):
        with pytest.raises(ValueError):
            schedule_threshold(0)


class TestSolverConfig:
    @pytest.mark.parametrize("field,value", [
        ("kappa", -1.0), ("kappa", 0.0), ("kappa", float("inf")),
        ("temperature", 0.0), ("temperature", float("nan")),
        ("edge_cap", 0),
        ("schedule_base", -1), ("schedule_quad", -1), ("schedule_cap", -1),
        ("warmup_conflicts", -1), ("warmup_mode", "conflict"),
        ("refocus_margin", float("nan")), ("refocus_margin", float("inf")), ("refocus_margin", -1.0),
        ("restart_interval", -1), ("reduce_base", -1), ("reduce_step", -1),
    ])
    def test_impossible_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            SolverConfig(**{field: value})

    def test_edge_values_accepted(self):
        SolverConfig(schedule_base=0, schedule_quad=0, schedule_cap=0, refocus_margin=0.0,
                     warmup_conflicts=0, edge_cap=1)

    def test_warmup_mode_is_constructor_only(self):
        # still accepted by value, but not a stored setting
        cfg = SolverConfig(warmup_mode="conflicts")
        assert cfg == SolverConfig()
        assert "warmup_mode" not in {f.name for f in fields(SolverConfig)}
        assert "warmup_mode" not in asdict(cfg)
        assert len(fields(SolverConfig)) == 11

    @pytest.mark.parametrize("kw, due", [
        ({}, 50_000),
        ({"warmup_conflicts": 0, "schedule_base": 20, "schedule_quad": 7, "schedule_cap": 30}, 20),
        ({"warmup_conflicts": 40, "schedule_base": 20, "schedule_quad": 0, "schedule_cap": 20}, 40),
        ({"warmup_conflicts": 0, "schedule_base": 90, "schedule_quad": 0, "schedule_cap": 30}, 30),
    ])
    def test_first_refocus_due(self, kw, due):
        assert SolverConfig(**kw).first_refocus_due() == due


class TestShouldRefocus:
    def _ready_solver(self, **kw):
        cfg = SolverConfig(warmup_conflicts=0, schedule_base=10, schedule_quad=0,
                           schedule_cap=10, **kw)
        s = Solver(random_ksat(8, 20, 3, 0), config=cfg, oracle=lambda g: np.zeros(g.num_vars))
        for g in [2.0] * 100 + [8.0] * 64:
            s.update_glue_emas(g)
        return s

    def test_below_threshold_never(self):
        s = self._ready_solver()
        s.conflicts = 5
        assert not s.should_refocus()

    def test_ema_gate_blocks(self):
        cfg = SolverConfig(warmup_conflicts=0, schedule_base=10, schedule_quad=0, schedule_cap=10)
        s = Solver(random_ksat(8, 20, 3, 0), config=cfg, oracle=lambda g: np.zeros(g.num_vars))
        for _ in range(100):
            s.update_glue_emas(3.0)  # fast == slow
        s.conflicts = 50
        assert not s.should_refocus()

    def test_all_gates_pass(self):
        s = self._ready_solver()
        s.conflicts = 50
        assert s.should_refocus()

    def test_warmup_blocks(self):
        s = self._ready_solver()
        s.cfg.warmup_conflicts = 1000
        s.conflicts = 50
        assert not s.should_refocus()
        s.conflicts = 999
        assert not s.should_refocus()
        s.conflicts = 1000
        assert s.should_refocus()

    def test_no_oracle_never_refocuses(self):
        s = self._ready_solver()
        s.oracle = None
        s.conflicts = 50
        assert not s.should_refocus()


class TestApplyRefocus:
    def test_rescaling_rule(self):
        # probability p over a graph of n variables becomes p * n * kappa
        s = Solver(random_ksat(100, 200, 3, 0))
        probs = np.full(100, 0.01)
        s.apply_refocus(probs, tuple(range(1, 101)))
        assert all(v == pytest.approx(0.01 * 100 * 1e4) for v in s.evsids[1:])
        assert s.inc == 1.0
        assert s.refocuses == 1

    def test_unnormalized_rejected(self):
        s = Solver(random_ksat(5, 10, 3, 0))
        with pytest.raises(ValueError):
            s.apply_refocus(np.full(5, 0.3), tuple(range(1, 6)))

    @pytest.mark.parametrize("probs", [[np.nan, 0.5, 0.5], [1.5, -0.5, 0.0], [np.inf, 0.0, 0.0]])
    def test_non_finite_or_negative_rejected(self, probs):
        s = Solver(random_ksat(5, 10, 3, 0))
        before = list(s.evsids)
        with pytest.raises(ValueError, match="finite and non-negative"):
            s.apply_refocus(np.array(probs), (1, 2, 3))
        assert s.evsids == before
        assert s.refocuses == 0

    def test_outside_graph_zeroed(self):
        s = Solver(random_ksat(6, 15, 3, 0))
        s.evsids = [0.0] + [7.0] * 6
        s.apply_refocus(np.array([0.5, 0.5]), (2, 5))
        assert s.evsids[2] == pytest.approx(0.5 * 2 * 1e4)
        assert s.evsids[5] == pytest.approx(0.5 * 2 * 1e4)
        assert s.evsids[1] == s.evsids[3] == s.evsids[4] == s.evsids[6] == 0.0

    def test_max_score_bound(self):
        s = Solver(random_ksat(10, 20, 3, 0))
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(10))
        s.apply_refocus(probs, tuple(range(1, 11)))
        assert max(s.evsids) <= 1e4 * 10


class TestRefocusIntegration:
    def test_soundness_with_random_oracle(self):
        cfg = SolverConfig(warmup_conflicts=0, schedule_base=5, schedule_quad=0,
                           schedule_cap=5, refocus_margin=0.0)
        for seed in range(60):
            f = random_ksat(14, 58, 3, seed)
            r = solve(f, config=cfg, oracle=random_oracle(seed))
            want = SAT if brute_force(f) is not None else UNSAT
            assert r.status == want

    def test_refocus_actually_fires(self):
        cfg = SolverConfig(warmup_conflicts=0, schedule_base=5, schedule_quad=0,
                           schedule_cap=5, refocus_margin=0.0)
        fired = 0
        for seed in range(40):
            f = random_ksat(25, 106, 3, seed)
            r = solve(f, config=cfg, oracle=random_oracle(seed))
            fired += r.stats.refocuses
        assert fired > 0

    def test_infinite_logit_fails_the_refocus(self):
        # one +inf logit would turn the softmax into NaNs; the refocus
        # refuses them instead of leaving the solver without a decision
        cfg = SolverConfig(warmup_conflicts=0, schedule_base=5, schedule_quad=0,
                           schedule_cap=5, refocus_margin=0.0)

        def oracle(graph):
            logits = np.zeros(graph.num_vars)
            logits[0] = np.inf
            return logits

        with pytest.raises(ValueError, match="logits must be finite"):
            solve(random_ksat(25, 106, 3, 1), config=cfg, oracle=oracle)

    def test_no_refocus_within_the_first_due_budget(self):
        # the refusal of solve/bench rests on this: a conflict budget of
        # first_refocus_due() conflicts ends before any refocus
        cfg = SolverConfig(warmup_conflicts=30, schedule_base=20, schedule_quad=0,
                           schedule_cap=20, refocus_margin=0.0)
        due = cfg.first_refocus_due()
        assert due == 30
        within = beyond = 0
        for seed in range(10):
            f = random_ksat(40, 170, 3, seed)
            within += solve(f, config=cfg, oracle=random_oracle(seed),
                            budget=Budget(max_conflicts=due)).stats.refocuses
            beyond += solve(f, config=cfg, oracle=random_oracle(seed),
                            budget=Budget(max_conflicts=10 * due)).stats.refocuses
        assert within == 0
        assert beyond > 0

    def test_determinism_with_conflict_warmup(self):
        cfg = SolverConfig(warmup_conflicts=0, schedule_base=5, schedule_quad=0,
                           schedule_cap=5, refocus_margin=0.0)
        f = random_ksat(30, 128, 3, 9)
        runs = []
        for _ in range(2):
            r = solve(f, config=cfg, oracle=random_oracle(11), budget=Budget(max_conflicts=3000))
            d = asdict(r.stats)
            d.pop("runtime")
            runs.append((r.status, d))
        assert runs[0] == runs[1]

    def test_vanilla_determinism(self):
        f = random_ksat(30, 128, 3, 10)
        stats = []
        for _ in range(2):
            r = solve(f, config=SolverConfig())
            d = asdict(r.stats)
            d.pop("runtime")
            stats.append((r.status, d))
        assert stats[0] == stats[1]


class TestMixedWidthFuzz:
    def _random_formula(self, rng):
        n = int(rng.integers(2, 15))
        m = int(rng.integers(1, 5 * n))
        clauses = []
        for _ in range(m):
            k = int(rng.integers(1, min(5, n + 1)))
            vars_ = rng.choice(n, size=k, replace=True) + 1  # duplicates allowed
            signs = rng.integers(0, 2, size=k) * 2 - 1
            clauses.append(tuple(int(s * v) for s, v in zip(signs, vars_)))
        return Formula(n, tuple(clauses))

    def test_vanilla_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for trial in range(600):
            f = self._random_formula(rng)
            want = SAT if brute_force(f) is not None else UNSAT
            assert solve(f).status == want, (trial, f)

    def test_under_maximum_churn(self):
        # restart every conflict, reduce every 20 conflicts, refocus every 3
        cfg = SolverConfig(
            warmup_conflicts=0, schedule_base=3, schedule_quad=0, schedule_cap=3,
            refocus_margin=0.0, reduce_base=20, reduce_step=5, restart_interval=1,
        )
        rng = np.random.default_rng(1)
        for trial in range(250):
            f = self._random_formula(rng)
            want = SAT if brute_force(f) is not None else UNSAT
            got = solve(f, config=cfg, oracle=random_oracle(trial)).status
            assert want == got, (trial, f)


REFERENCE_CONFIGS = {
    "default": lambda seed: (SolverConfig(), None),
    "reduce": lambda seed: (SolverConfig(reduce_base=30, reduce_step=10), None),
    "refocus": lambda seed: (SolverConfig(warmup_conflicts=20, schedule_base=20, schedule_quad=0,
                                          schedule_cap=20, refocus_margin=0.0),
                             random_oracle(seed)),
}


def traced_search(cls, formula, config, seed, conflicts):
    """Run one conflict-budget solve; return everything it leaves behind
    plus the (learned, backjump level, glue) of every conflict."""
    cfg, oracle = REFERENCE_CONFIGS[config](seed)
    learned = []
    s = cls(formula, cfg, oracle)
    res = s.solve(Budget(max_conflicts=conflicts),
                  on_learn=lambda _, lits, bj, glue: learned.append((list(lits), bj, glue)))
    stats = asdict(res.stats)
    del stats["runtime"]
    return {"status": res.status, "stats": stats, "conflicts": learned, "state": solver_state(s)}


class TestMatchesReferenceSolver:
    """The tuned _propagate/_analyze/_backjump against the plain loops in
    oracles.ReferenceSolver: the same search, bit for bit."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(4, 40).flatmap(lambda n: st.builds(
               random_ksat, st.just(n), st.integers(3 * n, 5 * n), st.just(3), st.integers(0, 2**30))),
           st.sampled_from(sorted(REFERENCE_CONFIGS)), st.integers(0, 3), st.integers(1, 300))
    def test_random_formulas(self, formula, config, seed, conflicts):
        want = traced_search(ReferenceSolver, formula, config, seed, conflicts)
        got = traced_search(Solver, formula, config, seed, conflicts)
        assert got == want

    @pytest.mark.parametrize("config", sorted(REFERENCE_CONFIGS))
    def test_threshold_formulas(self, config):
        for seed in range(3):
            formula = random_ksat(120, 510, 3, seed)
            want = traced_search(ReferenceSolver, formula, config, seed, 400)
            got = traced_search(Solver, formula, config, seed, 400)
            assert got == want
            assert want["stats"]["conflicts"] > 50

    def test_past_the_first_rescale(self):
        # inc passes 1e100 after about 4,490 conflicts; this solve takes 4,677,
        # so _rescale rebuilds the heap midway
        formula = random_ksat(150, 639, 3, 1)
        want = traced_search(ReferenceSolver, formula, "default", 0, 10_000)
        got = traced_search(Solver, formula, "default", 0, 10_000)
        assert got == want
        conflicts = want["stats"]["conflicts"]
        assert conflicts > 4490
        assert want["state"]["inc"] < 1e-50 * _DECAY ** -conflicts    # rescaled on the way


class TestDecisionIsArgmax:
    """Every decision of a solve picks the unassigned variable of highest
    EVSIDS score (ties: lowest index), whatever stale entries the heap holds."""

    class Checked(Solver):
        checked = 0

        def pick_decision(self):
            lit = super().pick_decision()
            n = self.n
            best = max((v for v in range(1, n + 1) if self.assign[v + n] == 0),
                       key=lambda v: (self.evsids[v], -v))
            assert lit == (best if self.phase[best] else -best)
            self.checked += 1
            return lit

    @pytest.mark.parametrize("config", sorted(REFERENCE_CONFIGS))
    def test_seeded_solves(self, config):
        for seed in range(3):
            cfg, oracle = REFERENCE_CONFIGS[config](seed)
            s = self.Checked(random_ksat(120, 510, 3, seed), cfg, oracle)
            s.solve(Budget(max_conflicts=400))
            assert s.checked == s.decisions > 0
