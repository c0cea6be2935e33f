import os

import numpy as np
import pytest

from gluesat.cnf import (
    DimacsError,
    Formula,
    SparseGraph,
    brute_force,
    clause_literal_graph,
    disjoint_union,
    normalize_clause,
    parse_dimacs,
    random_ksat,
    random_split,
    satisfies,
    write_dimacs,
)
from gluesat.solver import solve

from oracles import edge_pairs


class TestParseDimacs:
    def test_basic(self):
        f = parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n")
        assert f.num_vars == 2
        assert f.clauses == ((1, 2), (-1,))

    def test_comments_and_multiline_clauses(self):
        f = parse_dimacs("c hello\np cnf 3 1\nc mid\n1 2\n3 0\n")
        assert f.clauses == ((1, 2, 3),)

    def test_tautology_dropped(self):
        f = parse_dimacs("p cnf 1 1\n1 -1 0\n")
        assert f.num_vars == 1
        assert f.clauses == ()

    def test_duplicate_literals_deduped(self):
        f = parse_dimacs("p cnf 2 1\n1 1 2 0\n")
        assert f.clauses == ((1, 2),)

    def test_empty_clause_preserved(self):
        f = parse_dimacs("p cnf 1 1\n0\n")
        assert f.clauses == ((),)

    def test_literal_out_of_range(self):
        with pytest.raises(DimacsError, match="out of range"):
            parse_dimacs("p cnf 3 1\n4 0\n")

    def test_missing_terminator(self):
        with pytest.raises(DimacsError, match="terminating 0"):
            parse_dimacs("p cnf 2 1\n1 2\n")

    def test_non_integer_token(self):
        with pytest.raises(DimacsError, match="non-integer"):
            parse_dimacs("p cnf 2 1\n1 x 0\n")

    def test_malformed_header(self):
        with pytest.raises(DimacsError, match="header"):
            parse_dimacs("p dnf 2 1\n1 0\n")

    def test_error_carries_line_number(self):
        with pytest.raises(DimacsError, match="line 3"):
            parse_dimacs("c x\np cnf 2 1\n1 q 0\n")

    def test_percent_footer_ignored(self):
        f = parse_dimacs("p cnf 1 1\n1 0\n%\n0\n")
        assert f.clauses == ((1,),)


class TestWriteDimacs:
    def test_single_unit(self):
        assert write_dimacs(Formula(1, ((1,),))) == "p cnf 1 1\n1 0\n"

    def test_empty_formula(self):
        assert write_dimacs(Formula(0, ())) == "p cnf 0 0\n"

    def test_round_trip_random(self):
        for seed in range(20):
            f = random_ksat(15, 40, 3, seed)
            assert parse_dimacs(write_dimacs(f)) == f

    def test_round_trip_empty_clause(self):
        f = Formula(2, ((1, -2), ()))
        assert parse_dimacs(write_dimacs(f)) == f


class TestClauseLiteralGraph:
    def test_column_convention(self):
        g = clause_literal_graph(Formula(2, ((1, -2),)))
        assert set(edge_pairs(g)) == {(0, 0), (0, 3)}
        assert g.num_clauses == 1 and g.num_vars == 2

    def test_two_units(self):
        g = clause_literal_graph(Formula(1, ((1,), (-1,))))
        assert set(edge_pairs(g)) == {(0, 0), (1, 1)}

    def test_edge_count_is_occurrence_count(self):
        for seed in range(10):
            f = random_ksat(20, 60, 3, seed)
            g = clause_literal_graph(f)
            assert g.num_edges == sum(len(c) for c in f.clauses) == 180
            assert g.var_map == tuple(range(1, 21))

    def test_indices_in_range(self):
        f = random_ksat(9, 30, 3, 3)
        g = clause_literal_graph(f)
        edges = edge_pairs(g)
        for row, col in edges:
            assert 0 <= row < g.num_clauses
            assert 0 <= col < 2 * g.num_vars
        assert len(set(edges)) == len(edges)

    def test_edge_arrays_in_clause_order(self):
        g = clause_literal_graph(Formula(3, ((1, -2), (), (3, 2, -1))))
        assert g.rows.dtype == np.int32 and g.cols.dtype == np.int32
        assert edge_pairs(g) == [(0, 0), (0, 4), (2, 2), (2, 1), (2, 3)]
        assert g.num_clauses == 3

    def test_repeated_literal_sums_in_csr(self):
        # Formula keeps duplicates: two edges, one CSR entry of 2.0
        g = clause_literal_graph(Formula(2, ((1, 1, -2),)))
        assert edge_pairs(g) == [(0, 0), (0, 0), (0, 3)]
        csr, csr_t = g.matrices()[:2]
        assert csr.nnz == 2
        assert csr[0, 0] == 2.0 and csr[0, 3] == 1.0
        assert csr_t[0, 0] == 2.0

    def test_size_classes_sum_clauses_by_edge_count(self):
        # clause sizes count repeated literals: (1, 1, -2) has size 3 like
        # (3, 2, -1), and the empty clause has its own class
        g = clause_literal_graph(Formula(3, ((1, -2), (), (3, 2, -1), (1, 1, -2))))
        csr, csr_t, sizes, by_size = g.matrices()
        assert sizes.tolist() == [0.0, 2.0, 3.0]
        indicator = np.zeros((g.num_clauses, len(sizes)))
        indicator[[0, 1, 2, 3], [1, 0, 2, 2]] = 1.0
        assert np.array_equal(by_size.toarray(), csr_t.toarray() @ indicator)
        assert by_size[0, 1] == 1.0 and by_size[0, 2] == 2.0       # literal 1
        assert g.matrices()[3] is by_size

    def test_mismatched_edge_arrays_rejected(self):
        with pytest.raises(ValueError):
            SparseGraph(1, 2, np.zeros(2, dtype=np.int32), np.zeros(1, dtype=np.int32), (1, 2))

    def test_parts_must_sum_to_the_graph(self):
        with pytest.raises(ValueError, match="do not sum"):
            SparseGraph(1, 2, [0], [0], (1, 2), ((1, 1),))


class TestDisjointUnion:
    def test_layout_puts_all_positive_literals_first(self):
        a = clause_literal_graph(Formula(2, ((1, -2), (2,))))
        b = clause_literal_graph(Formula(3, ((-1, 3), (-3, 2, 1))))
        u = disjoint_union([a, b])
        assert (u.num_clauses, u.num_vars, u.parts) == (4, 5, ((2, 2), (2, 3)))
        assert u.var_map == (1, 2, 1, 2, 3)
        # b's variable i is the union's variable 2 + i: positive at column
        # 1 + i, negative at column 6 + i
        assert edge_pairs(u) == [(0, 0), (0, 6), (1, 1), (2, 7), (2, 4), (3, 9), (3, 3), (3, 2)]
        assert u.part_bounds()[0].tolist() == [0, 2, 4]
        assert u.part_bounds()[1].tolist() == [0, 2, 5]
        # the graph of the formulas side by side, b's variables renumbered
        side_by_side = clause_literal_graph(Formula(5, ((1, -2), (2,), (-3, 5), (-5, 4, 3))))
        assert edge_pairs(u) == edge_pairs(side_by_side)

    def test_unions_flatten_and_one_graph_keeps_its_edges(self):
        graphs = [clause_literal_graph(random_ksat(5, 9, 3, s)) for s in range(3)]
        nested = disjoint_union([disjoint_union(graphs[:2]), graphs[2]])
        flat = disjoint_union(graphs)
        assert nested.parts == flat.parts == tuple((9, 5) for _ in graphs)
        assert np.array_equal(nested.rows, flat.rows) and np.array_equal(nested.cols, flat.cols)
        one = disjoint_union(graphs[:1])
        assert np.array_equal(one.rows, graphs[0].rows) and np.array_equal(one.cols, graphs[0].cols)
        assert one.parts == graphs[0].parts == ((9, 5),)
        with pytest.raises(ValueError):
            disjoint_union([])

    def test_each_part_block_is_the_graphs_own_matrix(self):
        # G holds each graph's G at its rows and its positive and negative
        # columns, and nothing else; repeated literals and an empty clause
        # included
        graphs = [clause_literal_graph(random_ksat(6 + s, 20 + 3 * s, 3, s)) for s in range(3)]
        graphs.append(clause_literal_graph(Formula(3, ((1, 1, -2), (), (3,)))))
        union = disjoint_union(graphs)
        g = union.matrices()[0].toarray()
        n = union.num_vars
        clause_bounds, var_bounds = union.part_bounds()
        for j, graph in enumerate(graphs):
            lo, hi = var_bounds[j], var_bounds[j + 1]
            cols = np.r_[lo:hi, n + lo : n + hi]
            assert np.array_equal(g[clause_bounds[j] : clause_bounds[j + 1]][:, cols], graph.matrices()[0].toarray())
        assert g.sum() == sum(graph.matrices()[0].sum() for graph in graphs)

    def test_size_classes_span_the_parts(self):
        # a's clauses have sizes 2 and 1, b's 2 and 3: three classes, one
        # per size, whichever part its clauses come from
        a = clause_literal_graph(Formula(2, ((1, -2), (2,))))
        b = clause_literal_graph(Formula(3, ((-1, 3), (-3, 2, 1))))
        _, csr_t, sizes, by_size = disjoint_union([a, b]).matrices()
        assert sizes.tolist() == [1.0, 2.0, 3.0]
        indicator = np.zeros((4, 3))
        indicator[[0, 1, 2, 3], [1, 0, 1, 2]] = 1.0
        assert np.array_equal(by_size.toarray(), csr_t.toarray() @ indicator)


class TestRandomKsat:
    def test_deterministic(self):
        assert random_ksat(5, 10, 3, 1) == random_ksat(5, 10, 3, 1)

    def test_distinct_vars_per_clause(self):
        f = random_ksat(8, 50, 3, 2)
        for clause in f.clauses:
            assert len({abs(l) for l in clause}) == 3

    def test_width_exceeds_vars(self):
        with pytest.raises(ValueError):
            random_ksat(2, 1, 3, 0)

    def test_sat_rate_near_threshold(self):
        # finite-size proxy for the phase transition; wide tolerance
        n, m = 50, int(np.ceil(4.26 * 50))
        sat = 0
        runs = 60
        for seed in range(runs):
            f = random_ksat(n, m, 3, seed)
            if solve(f).status == "SAT":
                sat += 1
        assert 0.2 <= sat / runs <= 0.9

    @pytest.mark.skipif(
        not os.environ.get("GLUESAT_SLOW"),
        reason="set GLUESAT_SLOW=1 for the full-scale phase-transition check (~3 min)",
    )
    def test_sat_rate_at_full_scale(self):
        # measured 0.530 over these 200 seeds
        from gluesat.solver import Budget

        n, m = 150, int(np.ceil(4.26 * 150))
        sat = 0
        for seed in range(200):
            r = solve(random_ksat(n, m, 3, seed), budget=Budget(max_conflicts=300_000))
            assert r.status in ("SAT", "UNSAT")
            sat += r.status == "SAT"
        assert 0.35 <= sat / 200 <= 0.65


class TestBruteForce:
    def test_contradiction(self):
        assert brute_force(Formula(1, ((1,), (-1,)))) is None

    def test_simple_sat(self):
        model = brute_force(Formula(2, ((1, 2),)))
        assert model is not None
        assert satisfies(Formula(2, ((1, 2),)), model)

    def test_empty_clause(self):
        assert brute_force(Formula(2, ((), (1,)))) is None

    def test_zero_vars(self):
        assert brute_force(Formula(0, ())) == []

    def test_guard(self):
        with pytest.raises(ValueError):
            brute_force(Formula(27, ()))

    def test_model_always_satisfies(self):
        for seed in range(50):
            f = random_ksat(10, 42, 3, seed)
            model = brute_force(f)
            if model is not None:
                assert satisfies(f, model)

    def test_agrees_with_cdcl(self):
        for seed in range(200):
            f = random_ksat(12, 50, 3, seed)
            want = "SAT" if brute_force(f) is not None else "UNSAT"
            assert solve(f).status == want


class TestNormalizeClause:
    def test_tautology(self):
        assert normalize_clause([1, -1]) is None

    def test_dedup_keeps_order(self):
        assert normalize_clause([3, 1, 3, 2, 1]) == (3, 1, 2)


class TestRandomSplit:
    def test_passthrough_below_threshold(self):
        f = random_ksat(30, 100, 3, 0)
        pieces = random_split(f, 150_000, 0)
        assert len(pieces) == 1
        assert pieces[0].formula == f
        assert pieces[0].fixed == ()
        assert pieces[0].var_map == tuple(range(1, 31))

    def test_outputs_respect_max_clauses(self):
        f = random_ksat(25, 100, 3, 1)
        for piece in random_split(f, 40, 1):
            assert piece.formula.num_clauses <= 40

    def test_some_branch_stays_satisfiable(self):
        # A model's branch either survives as a satisfiable piece or was
        # discarded as trivially satisfied, in which case every emitted
        # piece's fixed assignment must contradict that model.
        tried = 0
        for seed in range(30):
            f = random_ksat(18, 72, 3, seed)
            model = brute_force(f)
            if model is None:
                continue
            tried += 1
            pieces = random_split(f, 50, seed)
            if any(brute_force(p.formula) is not None for p in pieces):
                continue
            model_set = set(model)
            for piece in pieces:
                assert any(-l in model_set for l in piece.fixed)
        assert tried > 5

    def test_piece_models_extend_to_source_models(self):
        for seed in range(15):
            f = random_ksat(16, 64, 3, seed)
            for piece in random_split(f, 40, seed):
                model = brute_force(piece.formula)
                if model is None:
                    continue
                lifted = {piece.var_map[abs(l) - 1] * (1 if l > 0 else -1) for l in model}
                lifted.update(piece.fixed)
                # unconstrained source vars can take either value
                mentioned = {abs(l) for l in lifted}
                for v in range(1, f.num_vars + 1):
                    if v not in mentioned:
                        lifted.add(v)
                assert satisfies(f, lifted)

    def test_variables_compacted(self):
        f = random_ksat(20, 80, 3, 4)
        for piece in random_split(f, 30, 4):
            seen = {abs(l) for c in piece.formula.clauses for l in c}
            assert seen == set(range(1, piece.formula.num_vars + 1))
            assert len(piece.var_map) == piece.formula.num_vars

    def test_bad_max_clauses(self):
        with pytest.raises(ValueError):
            random_split(Formula(1, ((1,),)), 0, 0)
