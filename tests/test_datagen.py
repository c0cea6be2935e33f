import csv

import numpy as np
import pytest

from gluesat.cnf import Formula, brute_force, clause_literal_graph, random_ksat, write_dimacs
from gluesat.datagen import DatagenConfig, augment, build_dataset, generate_datapoint, load_dataset
from gluesat.solver import Budget

from oracles import edge_pairs


class TestGenerateDatapoint:
    def test_trivially_sat_skipped(self):
        ex = generate_datapoint(Formula(3, ((1,), (2,), (3,))))
        assert ex is None

    def test_counts_length_matches(self):
        f = random_ksat(25, 110, 3, 0)
        ex = generate_datapoint(f, Budget(max_conflicts=2000))
        assert ex is not None
        assert len(ex.glue_counts) == 25
        assert ex.graph.num_vars == 25

    def test_graph_is_original_formula_graph(self):
        f = random_ksat(20, 85, 3, 1)
        ex = generate_datapoint(f, Budget(max_conflicts=2000))
        assert ex is not None
        ref = clause_literal_graph(f)
        assert set(edge_pairs(ex.graph)) == set(edge_pairs(ref))

    def test_deterministic_across_runs(self):
        f = random_ksat(50, 213, 3, 5)
        a = generate_datapoint(f, Budget(max_conflicts=3000))
        b = generate_datapoint(f, Budget(max_conflicts=3000))
        assert a is not None and b is not None
        assert a.glue_counts == b.glue_counts


def with_units(f):
    """f plus four unit clauses, which the solver keeps out of solver.original."""
    return Formula(f.num_vars, f.clauses + ((1,), (2,), (-3,), (4,)))


class TestAugment:
    def test_budget_below_interval_empty(self):
        f = random_ksat(25, 106, 3, 0)
        assert augment(f, dump_interval=10_000, budget=Budget(max_conflicts=50)) == []

    def test_dumps_contain_original_clauses(self):
        for f in (random_ksat(50, 213, 3, 3), with_units(random_ksat(50, 213, 3, 3))):
            dumps = augment(f, dump_interval=10, budget=Budget(max_conflicts=200))
            assert dumps
            original = set(f.clauses)
            for dump in dumps:
                assert dump.num_vars == f.num_vars
                dumped_sets = {frozenset(c) for c in dump.clauses}
                for clause in original:
                    assert frozenset(clause) in dumped_sets
                assert dump.num_clauses >= f.num_clauses

    def test_dumps_equisatisfiable(self):
        cases = [(random_ksat(14, 58, 3, seed), 5, 60) for seed in range(8)]
        cases += [(with_units(random_ksat(12, 48, 3, seed)), 1, 3) for seed in range(100)]
        for f, interval, conflicts in cases:
            want = brute_force(f) is not None
            for dump in augment(f, dump_interval=interval, budget=Budget(max_conflicts=conflicts)):
                assert (brute_force(dump) is not None) == want

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            augment(Formula(1, ((1,),)), dump_interval=0)


class TestBuildDataset:
    def test_empty_input_dir(self, tmp_path):
        (tmp_path / "in").mkdir()
        rows = build_dataset(tmp_path / "in", tmp_path / "out", DatagenConfig())
        assert rows == []
        manifest = (tmp_path / "out" / "manifest.csv").read_text()
        assert manifest.startswith("example,")

    def _write_instances(self, directory, count, n=20, m=85):
        directory.mkdir(parents=True, exist_ok=True)
        for seed in range(count):
            f = random_ksat(n, m, 3, seed)
            (directory / f"inst{seed:02d}.cnf").write_text(write_dimacs(f))

    def test_pipeline_outputs_valid_examples(self, tmp_path):
        self._write_instances(tmp_path / "in", 6)
        cfg = DatagenConfig(budget_conflicts=2000, dump_interval=50, seed=1)
        rows = build_dataset(tmp_path / "in", tmp_path / "out", cfg)
        with open(tmp_path / "out" / "manifest.csv", newline="") as fh:
            manifest_rows = list(csv.DictReader(fh))
        assert len(manifest_rows) == len(rows)
        examples = load_dataset(tmp_path / "out")
        assert len(examples) == len(rows)
        for ex in examples:
            assert len(ex.glue_counts) == ex.graph.num_vars
            assert any(ex.glue_counts)

    def test_unreadable_file_logged_and_skipped(self, tmp_path):
        self._write_instances(tmp_path / "in", 2)
        (tmp_path / "in" / "broken.cnf").write_text("p cnf 2\n1 0\n")
        rows = build_dataset(tmp_path / "in", tmp_path / "out", DatagenConfig(budget_conflicts=500))
        log = (tmp_path / "out" / "errors.log").read_text()
        assert "broken.cnf" in log
        assert all(r["source"] != "broken.cnf" for r in rows)

    def test_deterministic_manifest(self, tmp_path):
        self._write_instances(tmp_path / "in", 4)
        cfg = DatagenConfig(budget_conflicts=1000, dump_interval=40, seed=9)
        a = build_dataset(tmp_path / "in", tmp_path / "out_a", cfg)
        b = build_dataset(tmp_path / "in", tmp_path / "out_b", cfg)
        assert a == b

    def test_parallel_matches_serial(self, tmp_path):
        self._write_instances(tmp_path / "in", 4)
        cfg1 = DatagenConfig(budget_conflicts=800, dump_interval=40, seed=2, workers=1)
        cfg2 = DatagenConfig(budget_conflicts=800, dump_interval=40, seed=2, workers=2)
        a = build_dataset(tmp_path / "in", tmp_path / "out_a", cfg1)
        b = build_dataset(tmp_path / "in", tmp_path / "out_b", cfg2)
        assert a == b

    def test_one_solve_labels_and_dumps_each_piece(self, tmp_path, monkeypatch):
        import gluesat.datagen

        built = []

        class CountingSolver(gluesat.datagen.Solver):
            def __init__(self, formula, *args, **kwargs):
                built.append(formula)
                super().__init__(formula, *args, **kwargs)

        (tmp_path / "in").mkdir()
        f = random_ksat(80, 340, 3, 31)
        (tmp_path / "in" / "f.cnf").write_text(write_dimacs(f))
        dumps = augment(f, dump_interval=100, budget=Budget(max_conflicts=600))
        assert len(dumps) == 2
        monkeypatch.setattr(gluesat.datagen, "Solver", CountingSolver)
        cfg = DatagenConfig(budget_conflicts=600, dump_interval=100)
        build_dataset(tmp_path / "in", tmp_path / "out", cfg)
        # the piece once, then each of its dumps once to label it
        assert built == [f, *dumps]

    def test_split_applied_when_oversized(self, tmp_path):
        (tmp_path / "in").mkdir()
        f = random_ksat(40, 170, 3, 0)
        (tmp_path / "in" / "big.cnf").write_text(write_dimacs(f))
        cfg = DatagenConfig(budget_conflicts=1000, max_clauses=100, seed=0, augment=False)
        rows = build_dataset(tmp_path / "in", tmp_path / "out", cfg)
        for row in rows:
            assert int(row["num_clauses"]) <= 100
        split_paths = {row["split_path"] for row in rows}
        assert any(sp for sp in split_paths)  # at least one non-root piece
