import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gluesat.cnf import Formula, SparseGraph, clause_literal_graph, normalize_clause, random_ksat
from gluesat.extract import extract_graph
from gluesat.network import forward, init_params, preset
from gluesat.solver import Budget, Solver, SolverConfig, _Clause

from oracles import drive_watched, edge_pairs, reference_extract


def rows_as_sets(graph):
    rows = [set() for _ in range(graph.num_clauses)]
    for r, c in edge_pairs(graph):
        rows[r].add(c)
    return rows


class TestExtractGraph:
    def test_root_equals_clause_literal_graph(self):
        for seed in range(10):
            f = random_ksat(12, 40, 3, seed)
            s = Solver(f)
            g = extract_graph(s)
            ref = clause_literal_graph(f)
            assert g.num_clauses == ref.num_clauses
            assert g.num_vars == ref.num_vars
            assert g.var_map == ref.var_map
            assert set(edge_pairs(g)) == set(edge_pairs(ref))

    def test_full_graph_on_empty_trail(self):
        f = Formula(3, ((1, 2), (-1, 3)))
        g = extract_graph(Solver(f))
        assert g.num_edges == 4

    def test_hand_simplification(self):
        # deciding 3 satisfies the clauses containing it; only (1, 2) remains
        f = Formula(3, ((1, 2), (-1, 3), (2, 3)))
        s = Solver(f)
        assert s.decide(3) is None
        g = extract_graph(s)
        assert g.num_clauses == 1
        assert g.var_map == (1, 2)
        assert g.num_vars == 2
        assert set(edge_pairs(g)) == {(0, 0), (0, 1)}

    def test_satisfied_clauses_omitted_falsified_literals_stripped(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            f = random_ksat(10, 34, 3, int(rng.integers(1 << 30)))
            decisions = [int(v * (1 if rng.integers(2) else -1)) for v in rng.permutation(10) + 1]
            s, _, conflict = drive_watched(f, decisions[:3])
            if conflict is not None:
                continue
            g = extract_graph(s)
            rows = rows_as_sets(g)
            # rebuild the residual independently
            expected = []
            assigned = {abs(l): (l > 0) for l in s.trail}
            for clause in f.clauses:
                if any(assigned.get(abs(l)) == (l > 0) for l in clause):
                    continue
                expected.append({l for l in clause if abs(l) not in assigned})
            index = {v: i for i, v in enumerate(g.var_map)}
            expected_cols = [
                {index[abs(l)] if l > 0 else g.num_vars + index[abs(l)] for l in cl}
                for cl in expected
            ]
            assert rows == expected_cols

    def test_var_map_is_unassigned_variables(self):
        f = random_ksat(10, 34, 3, 1)
        s = Solver(f)
        s.decide(4)
        g = extract_graph(s)
        unassigned = tuple(v for v in range(1, 11) if s.value(v) == 0)
        assert g.var_map == unassigned

    def test_edge_cap_skip_on_originals(self):
        f = Formula(2, ((1, 2),))
        s = Solver(f, SolverConfig(edge_cap=1))
        assert extract_graph(s) is None

    def test_edge_cap_exact_fit_kept(self):
        f = Formula(2, ((1, 2),))
        s = Solver(f, SolverConfig(edge_cap=2))
        g = extract_graph(s)
        assert g is not None and g.num_edges == 2

    def test_edge_cap_truncates_learned(self):
        from gluesat.solver import _Clause

        f = Formula(4, ((1, 2), (3, 4)))
        s = Solver(f, SolverConfig(edge_cap=5))
        c = _Clause([1, 3, 4], glue=3)
        s.learned.append(c)
        s._attach(c)
        g = extract_graph(s)
        # both originals fit (4 edges); the learned clause would exceed the cap
        assert g.num_clauses == 2
        assert g.num_edges == 4

    def test_learned_clauses_included_after_originals(self):
        from gluesat.solver import _Clause

        f = Formula(3, ((1, 2),))
        s = Solver(f)
        c = _Clause([2, 3], glue=2)
        s.learned.append(c)
        s._attach(c)
        g = extract_graph(s)
        rows = rows_as_sets(g)
        assert len(rows) == 2
        assert rows[0] == {0, 1}   # (1, 2)
        assert rows[1] == {1, 2}   # (2, 3)

    def test_extraction_is_pure(self):
        f = random_ksat(10, 34, 3, 2)
        s = Solver(f)
        s.decide(1)
        before = (
            list(s.trail),
            [list(c.lits) for c in s.original],
            [list(w) for w in s.watches],
            list(s.evsids),
        )
        extract_graph(s)
        after = (
            list(s.trail),
            [list(c.lits) for c in s.original],
            [list(w) for w in s.watches],
            list(s.evsids),
        )
        assert before == after

    def test_edge_count_never_exceeds_cap(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            f = random_ksat(12, 40, 3, int(rng.integers(1 << 30)))
            cap = int(rng.integers(3, 100))
            s = Solver(f, SolverConfig(edge_cap=cap))
            g = extract_graph(s)
            if g is not None:
                assert g.num_edges <= cap


@st.composite
def formulas(draw, max_vars=12, max_clauses=40):
    """Random CNFs whose clauses have 1-4 distinct variables (units included)."""
    n = draw(st.integers(2, max_vars))
    clause = st.lists(st.integers(1, n), min_size=1, max_size=min(4, n), unique=True).flatmap(
        lambda vs: st.tuples(*[st.sampled_from((v, -v)) for v in vs])
    )
    return Formula(n, tuple(draw(st.lists(clause, min_size=1, max_size=max_clauses))))


def residual_edges(solver, clauses):
    """Edges the residuals of ``clauses`` contribute, with no cap."""
    value = solver.value
    total = 0
    for clause in clauses:
        if all(value(lit) != 1 for lit in clause.lits):
            total += sum(value(lit) == 0 for lit in clause.lits)
    return total


def edge_caps(draw, solver):
    """Caps below, at and above the original edge count, and inside the
    learned clauses' edges; each at least 1, as SolverConfig requires."""
    base = residual_edges(solver, solver.original)
    full = base + residual_edges(solver, solver.learned)
    caps = [
        draw(st.integers(0, max(base - 1, 0))),
        base,
        draw(st.integers(base, max(full, base))),
        full + draw(st.integers(0, 3)),
        10_000_000,
    ]
    return [max(cap, 1) for cap in caps]


def outcome(extract, solver, error):
    try:
        return extract(solver)
    except error:
        return "invalid state"


def assert_same_extraction(solver, cap):
    solver.cfg = SolverConfig(edge_cap=cap)
    ref = outcome(reference_extract, solver, AssertionError)
    got = outcome(extract_graph, solver, RuntimeError)
    if ref is None or isinstance(ref, str):
        assert got == ref
        return
    assert got.rows.dtype == np.int32 and got.cols.dtype == np.int32
    assert got.rows.tolist() == ref.rows.tolist()
    assert got.cols.tolist() == ref.cols.tolist()
    assert (got.num_clauses, got.num_vars, got.var_map) == (ref.num_clauses, ref.num_vars, ref.var_map)
    assert isinstance(got.var_map, tuple)


class TestMatchesReferenceExtraction:
    """extract_graph against the clause-by-clause loop in oracles.py: the
    same rows, within-row literal order, var_map and cap handling."""

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(formulas(), st.data())
    def test_random_formulas_at_root(self, formula, data):
        s, _, conflict = drive_watched(formula, [])
        assume(conflict is None)
        for cap in edge_caps(data.draw, s):
            assert_same_extraction(s, cap)

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(formulas(), st.data())
    def test_decision_prefixes(self, formula, data):
        n = formula.num_vars
        decisions = data.draw(st.lists(st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v))),
                                       max_size=n))
        s, _, conflict = drive_watched(formula, decisions)
        assume(conflict is None)
        for cap in edge_caps(data.draw, s):
            assert_same_extraction(s, cap)

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(10, 24).flatmap(lambda n: st.builds(
               random_ksat, st.just(n), st.integers(4 * n, 5 * n), st.just(3), st.integers(0, 2**30))),
           st.integers(1, 40), st.data())
    def test_after_short_solve(self, formula, conflicts, data):
        # learned clauses and watch-swapped literal order are present; the
        # state straight after the budget stops may be short of a fixpoint
        # (both sides must then refuse it), and is one after propagating;
        # back at the root most learned clauses have live residuals
        s = Solver(formula)
        s.solve(Budget(max_conflicts=conflicts))
        for cap in edge_caps(data.draw, s):
            assert_same_extraction(s, cap)
        assume(s._propagate() is None)
        for cap in edge_caps(data.draw, s):
            assert_same_extraction(s, cap)
        s._backjump(0)
        assume(s._propagate() is None)
        for cap in edge_caps(data.draw, s):
            assert_same_extraction(s, cap)

    def test_learned_clause_order_after_watch_swaps(self):
        f = Formula(5, ((1, 2), (3, 4, 5)))
        s = Solver(f)
        s.learned.append(_Clause([5, -1, 4, 2], glue=2))
        s.original[1].lits[:] = [5, 3, 4]     # as a watch swap leaves it
        s.trail_lim.append(0)
        s._enqueue(-4, None)
        g = extract_graph(s)
        # var_map (1, 2, 3, 5): columns 0..3 positive, 4..7 negative; the
        # original row keeps formula order (3, 5), the learned row (5, -1, 2)
        assert edge_pairs(g) == [(0, 0), (0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (2, 1)]
        assert_same_extraction(s, 10_000_000)

    def test_edge_arrays_are_int32(self):
        g = extract_graph(Solver(random_ksat(10, 30, 3, 0)))
        assert g.rows.dtype == np.int32 and g.cols.dtype == np.int32

    def test_unit_residual_raises(self):
        # a learned clause left unit by the trail: not a propagation fixpoint
        f = Formula(3, ((1, 2, 3),))
        s = Solver(f)
        s.learned.append(_Clause([-2, 3], glue=2))
        s.learned.append(_Clause([1, 2], glue=2))
        s.trail_lim.append(0)
        s._enqueue(-1, None)
        with pytest.raises(RuntimeError, match="fixpoint"):
            extract_graph(s)
        s.cfg = SolverConfig(edge_cap=4)
        with pytest.raises(RuntimeError, match="fixpoint"):
            extract_graph(s)
        # the check reaches the clause the cap stops at, not beyond it
        s.cfg = SolverConfig(edge_cap=3)
        assert extract_graph(s).num_clauses == 1
        for cap in range(1, 6):
            assert_same_extraction(s, cap)


def solved_state(formula, conflicts):
    """A solver after a short solve, back at a propagation fixpoint at the
    root: learned clauses present, watch swaps made."""
    s = Solver(formula)
    s.solve(Budget(max_conflicts=conflicts))
    s._backjump(0)
    assert s._propagate() is None
    return s


class TestRowOrder:
    """Extraction keeps original rows in formula order and learned rows in
    their current order; neither order reaches the network, because
    ``SparseGraph.matrices`` builds canonical CSR."""

    def test_original_rows_follow_formula_order_after_watch_swaps(self):
        # duplicate literals, a tautology and a unit: the rows follow the
        # normalized clauses the solver keeps as its originals
        base = random_ksat(40, 170, 3, 4).clauses
        f = Formula(40, ((1, -7, 1, 9),) + base[:60] + ((5, -5, 2), (-3, 8, 11, 8, -20)) + base[60:])
        s = solved_state(f, 200)
        kept = [list(c) for c in map(normalize_clause, f.clauses) if c is not None and len(c) >= 2]
        assert [list(c.lits) for c in s.original] != kept       # the search moved watches
        g = extract_graph(s)
        index = {v: i for i, v in enumerate(g.var_map)}
        expected = []
        for lits in kept:
            if any(s.value(l) == 1 for l in lits):
                continue
            expected.append([index[abs(l)] if l > 0 else g.num_vars + index[abs(l)]
                             for l in lits if s.value(l) == 0])
        rows = [[] for _ in range(g.num_clauses)]
        for r, c in edge_pairs(g):
            rows[r].append(c)
        assert rows[:len(expected)] == expected
        assert_same_extraction(s, 10_000_000)

    @pytest.mark.parametrize("seed", range(3))
    def test_permuting_edges_within_rows_changes_nothing_downstream(self, seed):
        s = solved_state(random_ksat(60, 240, 3, seed), 150)
        g = extract_graph(s)
        assert g.num_clauses > len(s.original) // 2
        rng = np.random.default_rng(seed)
        # a random order inside every row; rows stay where they were
        order = np.lexsort((rng.random(g.num_edges), g.rows))
        assert not np.array_equal(order, np.arange(g.num_edges))
        h = SparseGraph(g.num_clauses, g.num_vars, g.rows[order], g.cols[order], g.var_map)
        (g_mat, sizes, by_size), (h_mat, h_sizes, h_by_size) = g.matrices(), h.matrices()
        assert np.array_equal(sizes, h_sizes)
        for a, b in ((g_mat, h_mat), (by_size, h_by_size)):
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.data, b.data)
        for name in ("supervised", "rl"):
            hp = preset(name)
            params = init_params(hp, seed=seed, value_head=True)
            want, got = forward(params, hp, g), forward(params, hp, h)
            assert np.array_equal(want.policy_logits, got.policy_logits)
            assert want.value == got.value


class TestLiftDistribution:
    """A distribution over a graph's compacted variables lands back on the
    original variables through its var_map, as Solver.apply_refocus lifts
    it: variable var_map[i] scores probs[i] * len(var_map) * kappa."""

    def test_identity_map(self):
        s = Solver(random_ksat(3, 4, 3, 0))
        g = extract_graph(s)
        assert g.var_map == (1, 2, 3)
        probs = np.array([0.2, 0.3, 0.5])
        s.apply_refocus(probs, g.var_map)
        assert np.allclose(s.evsids[1:], probs * 3 * s.cfg.kappa)

    def test_sparse_map(self):
        s = Solver(random_ksat(12, 30, 3, 2))
        assert s.propagate_root()
        for lit in (1, -4, 7):
            if s.value(lit) == 0:
                assert s.decide(lit) is None
        g = extract_graph(s)
        assert 0 < len(g.var_map) < 12
        probs = np.random.default_rng(0).dirichlet(np.ones(len(g.var_map)))
        s.apply_refocus(probs, g.var_map)
        lifted = np.array(s.evsids)
        assert np.flatnonzero(lifted).tolist() == list(g.var_map)
        assert np.allclose(lifted[list(g.var_map)], probs * len(g.var_map) * s.cfg.kappa)

    def test_mass_conserved(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(6))
        s = Solver(random_ksat(12, 30, 3, 0))
        s.apply_refocus(probs, (2, 3, 5, 7, 8, 9))
        assert sum(s.evsids) == pytest.approx(6 * s.cfg.kappa)

    def test_length_mismatch(self):
        s = Solver(random_ksat(5, 10, 3, 0))
        before = list(s.evsids)
        with pytest.raises(ValueError, match="does not match var_map"):
            s.apply_refocus([0.5, 0.5], (1, 2, 3))
        assert s.evsids == before
