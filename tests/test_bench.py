import csv
from dataclasses import fields

import numpy as np
import pytest

from gluesat.bench import (
    BenchConfig,
    EvalRecord,
    SoundnessError,
    aggregate,
    cactus_csv,
    make_oracle,
    paired,
    par2,
    run_benchmark,
    write_outputs,
)
from gluesat.cnf import clause_literal_graph, random_ksat, write_dimacs
from gluesat.extract import extract_graph
from gluesat.network import init_params, preset, save_weights
from gluesat.solver import Budget, Solver, SolverConfig

from oracles import edge_pairs


def make_instances(directory, count, n=15, m=63):
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for seed in range(count):
        p = directory / f"inst{seed:02d}.cnf"
        p.write_text(write_dimacs(random_ksat(n, m, 3, seed)))
        paths.append(str(p))
    return paths


def desk_config(**kw):
    solver = SolverConfig(
        warmup_conflicts=0,
        schedule_base=5, schedule_quad=0, schedule_cap=5, refocus_margin=0.0,
    )
    kw.setdefault("budget", Budget(max_conflicts=10_000))
    return BenchConfig(solver=solver, **kw)


@pytest.fixture
def weights_file(tmp_path):
    hp = preset("supervised")
    path = tmp_path / "weights.ngw"
    save_weights(init_params(hp, seed=0), hp, path)
    return str(path)


def rec(instance, variant, seed, status, runtime, decisions=100, conflicts=50,
        avg_glue=3.0, glr=0.5):
    return EvalRecord(
        instance=instance, variant=variant, seed=seed, status=status,
        runtime=runtime, decisions=decisions, conflicts=conflicts,
        propagations=0, restarts=0, refocuses=0, avg_glue=avg_glue, glr=glr,
    )


class TestRunBenchmark:
    def test_record_cardinality(self, tmp_path, weights_file):
        instances = make_instances(tmp_path / "inst", 2)
        records = run_benchmark(
            instances, ["vanilla", "neuro", "random"], [0, 1],
            desk_config(), weights=weights_file,
        )
        assert len(records) == 12
        keys = {(r.instance, r.variant, r.seed) for r in records}
        assert len(keys) == 12

    def test_neuro_requires_weights(self, tmp_path):
        instances = make_instances(tmp_path / "inst", 1)
        with pytest.raises(ValueError):
            run_benchmark(instances, ["neuro"], [0], desk_config())

    @pytest.mark.parametrize("variants", [["vanila"], ["vanilla", "typo"], ["Neuro"]])
    def test_unknown_variant_rejected(self, tmp_path, weights_file, variants):
        instances = make_instances(tmp_path / "inst", 1)
        out = tmp_path / "records.csv"
        with pytest.raises(ValueError, match="unknown variant"):
            run_benchmark(instances, variants, [0], desk_config(), weights=weights_file,
                          records_csv=out)
        assert not out.exists()   # refused before any solve or record

    def test_duplicate_file_names_rejected(self, tmp_path):
        first = make_instances(tmp_path / "a", 2)
        second = make_instances(tmp_path / "b", 1)
        out = tmp_path / "records.csv"
        with pytest.raises(ValueError, match="inst00.cnf"):
            run_benchmark(first + second, ["vanilla"], [0], desk_config(), records_csv=out)
        assert not out.exists()   # refused before any solve or record
        # the same path twice is the same clash
        with pytest.raises(ValueError, match="inst01.cnf"):
            run_benchmark(first + first[1:], ["vanilla"], [0], desk_config())

    @pytest.mark.parametrize("variants, seeds, match", [
        (["vanilla", "vanilla"], [0], "repeated variant"),
        (["vanilla", "random", "vanilla"], [0, 1], "repeated variant"),
        (["vanilla"], [0, 0], "repeated seed"),
    ])
    def test_repeated_variant_or_seed_rejected(self, tmp_path, variants, seeds, match):
        instances = make_instances(tmp_path / "inst", 1)
        out = tmp_path / "records.csv"
        with pytest.raises(ValueError, match=match):
            run_benchmark(instances, variants, seeds, desk_config(), records_csv=out)
        assert not out.exists()   # refused before any solve or record

    def test_resume_skips_completed(self, tmp_path, weights_file):
        instances = make_instances(tmp_path / "inst", 2)
        out = tmp_path / "records.csv"
        first = run_benchmark(instances, ["vanilla"], [0, 1], desk_config(), records_csv=out)
        assert len(first) == 4
        with open(out, newline="") as fh:
            rows_before = list(csv.DictReader(fh))
        second = run_benchmark(instances, ["vanilla"], [0, 1], desk_config(), records_csv=out)
        with open(out, newline="") as fh:
            rows_after = list(csv.DictReader(fh))
        assert len(second) == 4
        assert rows_before == rows_after  # no new work appended

    def test_resume_from_an_empty_records_file(self, tmp_path):
        # a run killed before its first record leaves an empty file
        instances = make_instances(tmp_path / "inst", 2)
        out = tmp_path / "records.csv"
        out.touch()
        records = run_benchmark(instances, ["vanilla"], [0], desk_config(), records_csv=out)
        with open(out, newline="") as fh:
            assert next(csv.reader(fh)) == [f.name for f in fields(EvalRecord)]
        resumed = run_benchmark(instances, ["vanilla"], [0], desk_config(), records_csv=out)
        assert resumed == records

    def test_resume_refuses_rows_of_another_budget(self, tmp_path):
        instances = make_instances(tmp_path / "inst", 3, n=60, m=256)
        out = tmp_path / "records.csv"
        first = run_benchmark(instances, ["vanilla"], [0], desk_config(budget=Budget(max_conflicts=30)),
                              records_csv=out)
        assert [r.status for r in first].count("UNKNOWN") > 0
        before = out.read_bytes()
        # rows past the new conflict limit, UNKNOWN rows stopped short of
        # it, and UNKNOWN rows under no limit at all
        for budget in (Budget(max_conflicts=20), Budget(max_conflicts=40), Budget()):
            with pytest.raises(ValueError, match=r"records.csv: the row inst\d\d.cnf,vanilla,0 \(UNKNOWN after 30"):
                run_benchmark(instances, ["vanilla"], [0], desk_config(budget=budget), records_csv=out)
            assert out.read_bytes() == before
        # under a time limit an UNKNOWN row may have stopped on the clock
        resumed = run_benchmark(instances, ["vanilla"], [0],
                                desk_config(budget=Budget(max_conflicts=40, max_seconds=60.0)), records_csv=out)
        assert resumed == first and out.read_bytes() == before

    def test_vanilla_seed_invariant_in_conflict_mode(self, tmp_path):
        instances = make_instances(tmp_path / "inst", 3)
        records = run_benchmark(instances, ["vanilla"], [0, 1, 2], desk_config())
        by_instance = {}
        for r in records:
            by_instance.setdefault(r.instance, set()).add(
                (r.status, r.decisions, r.conflicts, r.glr)
            )
        for values in by_instance.values():
            assert len(values) == 1

    def test_parallel_matches_serial(self, tmp_path, weights_file):
        instances = make_instances(tmp_path / "inst", 3)
        serial = run_benchmark(instances, ["vanilla", "random"], [0], desk_config())
        parallel = run_benchmark(
            instances, ["vanilla", "random"], [0], desk_config(parallelism=3)
        )
        strip = lambda rs: sorted(
            (r.instance, r.variant, r.seed, r.status, r.decisions, r.conflicts) for r in rs
        )
        assert strip(serial) == strip(parallel)

    def test_records_deterministic_modulo_runtime(self, tmp_path, weights_file):
        instances = make_instances(tmp_path / "inst", 3)
        runs = []
        for _ in range(2):
            records = run_benchmark(
                instances, ["vanilla", "neuro", "random"], [0, 1],
                desk_config(), weights=weights_file,
            )
            runs.append(
                sorted(
                    (r.instance, r.variant, r.seed, r.status, r.decisions,
                     r.conflicts, r.propagations, r.restarts, r.refocuses,
                     r.avg_glue, r.glr)
                    for r in records
                )
            )
        assert runs[0] == runs[1]


class TestDegreeOracle:
    def test_logits_follow_residual_occurrences(self):
        s = Solver(random_ksat(40, 170, 3, 2))
        assert s.propagate_root()
        for lit in (1, -2, 3):
            if s.value(lit) == 0:
                assert s.decide(lit) is None
        graph = extract_graph(s)
        ng = graph.num_vars
        assert ng < 40            # a residual graph, not the whole formula
        counts = [0] * ng
        for _, col in edge_pairs(graph):
            counts[col % ng] += 1     # either sign of the variable
        logits = make_oracle("degree")(graph)
        assert np.array_equal(logits, np.log1p(np.array(counts, dtype=float)))
        assert len(set(counts)) > 2

    def test_runs_as_a_bench_variant(self, tmp_path):
        instances = make_instances(tmp_path / "inst", 3, n=60, m=256)
        records = run_benchmark(instances, ["degree"], [0], desk_config())
        assert len(records) == 3 and all(r.refocuses > 0 for r in records)


class TestHindsightOracle:
    def test_logits_are_the_vanilla_glue_counts(self):
        f = random_ksat(100, 426, 3, 1)
        budget = 300
        counts = Solver(f).solve(Budget(max_conflicts=budget)).stats.glue_counts
        assert len(set(counts)) > 2
        oracle = make_oracle("hindsight", formula=f, max_conflicts=budget)
        assert np.array_equal(oracle(clause_literal_graph(f)), np.array(counts, dtype=float))
        s = Solver(f)
        assert s.propagate_root()
        for lit in (1, -2, 3):
            if s.value(lit) == 0:
                assert s.decide(lit) is None
        graph = extract_graph(s)
        assert graph.num_vars < 100     # a residual graph: its variables are renumbered
        assert np.array_equal(oracle(graph), [counts[v - 1] for v in graph.var_map])

    def test_runs_as_a_bench_variant(self, tmp_path):
        instances = make_instances(tmp_path / "inst", 3, n=60, m=256)
        records = run_benchmark(instances, ["hindsight"], [0], desk_config())
        assert len(records) == 3 and all(r.refocuses > 0 for r in records)

    def test_requires_the_formula_and_a_conflict_budget(self, tmp_path):
        with pytest.raises(ValueError, match="hindsight variant requires the formula and a conflict budget"):
            make_oracle("hindsight", formula=random_ksat(10, 40, 3, 0))
        with pytest.raises(ValueError, match="hindsight variant requires the formula"):
            make_oracle("hindsight", max_conflicts=100)
        instances = make_instances(tmp_path / "inst", 1)
        with pytest.raises(ValueError, match="hindsight variant requires the formula and a conflict budget"):
            run_benchmark(instances, ["vanilla", "hindsight"], [0], desk_config(budget=Budget()),
                          records_csv=tmp_path / "records.csv")
        assert not (tmp_path / "records.csv").exists()


class TestAggregate:
    def test_counts_runs_and_means_every_statistic(self):
        records = [
            rec("a.cnf", "vanilla", 0, "SAT", 100.0, conflicts=40),
            rec("a.cnf", "vanilla", 1, "UNKNOWN", 60.0, conflicts=300),
        ]
        aggs = aggregate(records)
        assert len(aggs) == 1
        agg = aggs[0]
        assert (agg["instance"], agg["variant"], agg["status"], agg["runs"], agg["solved"]) == (
            "a.cnf", "vanilla", "SAT", 2, 1)
        assert agg["mean_runtime"] == pytest.approx(80.0)
        assert agg["mean_conflicts"] == pytest.approx(170.0)
        assert [key for key in agg if key.startswith("mean_")] == [
            f"mean_{name}" for name in ("runtime", "decisions", "conflicts", "propagations", "restarts",
                                        "refocuses", "avg_glue", "glr")]

    def test_status_is_the_instances_verdict(self):
        records = [rec("a.cnf", "vanilla", 0, "UNSAT", 1.0), rec("a.cnf", "random", 0, "UNKNOWN", 60.0)]
        by_variant = {agg["variant"]: agg for agg in aggregate(records)}
        assert by_variant["random"]["status"] == "UNSAT" and by_variant["random"]["solved"] == 0
        assert by_variant["vanilla"]["solved"] == 1

    def test_all_timeouts_unsolved(self):
        aggs = aggregate([rec("a.cnf", "vanilla", s, "UNKNOWN", 60.0) for s in range(3)])
        assert (aggs[0]["runs"], aggs[0]["solved"], aggs[0]["status"]) == (3, 0, None)
        assert aggs[0]["mean_runtime"] == pytest.approx(60.0)

    def test_soundness_gate(self):
        records = [
            rec("a.cnf", "vanilla", 0, "SAT", 1.0),
            rec("a.cnf", "random", 0, "UNSAT", 1.0),
        ]
        with pytest.raises(SoundnessError):
            aggregate(records)


class TestPar2:
    def test_paper_example(self):
        records = [
            rec("a.cnf", "vanilla", 0, "SAT", 100.0),
            rec("b.cnf", "vanilla", 0, "UNKNOWN", 5000.0),
        ]
        scores = par2(records, "runtime", 5000.0)
        assert scores["vanilla"]["overall"] == pytest.approx(5050.0)

    def test_all_solved_instantly(self):
        records = [rec(f"{i}.cnf", "vanilla", 0, "SAT", 0.0) for i in range(4)]
        assert par2(records, "runtime", 100.0)["vanilla"]["overall"] == 0.0

    def test_all_unsolved(self):
        records = [rec(f"{i}.cnf", "vanilla", 0, "UNKNOWN", 60.0) for i in range(4)]
        assert par2(records, "runtime", 60.0)["vanilla"]["overall"] == pytest.approx(120.0)

    def test_sat_unsat_splits(self):
        records = [
            rec("a.cnf", "vanilla", 0, "SAT", 10.0),
            rec("b.cnf", "vanilla", 0, "UNSAT", 20.0),
            rec("a.cnf", "random", 0, "UNKNOWN", 60.0),
            rec("b.cnf", "random", 0, "UNSAT", 30.0),
        ]
        scores = par2(records, "runtime", 60.0)
        assert scores["vanilla"]["sat"] == pytest.approx(10.0)
        assert scores["vanilla"]["unsat"] == pytest.approx(20.0)
        assert scores["random"]["sat"] == pytest.approx(120.0)  # unsolved on the sat split
        assert scores["random"]["unsat"] == pytest.approx(30.0)

    def test_monotone_under_unsolving(self):
        solved = [
            rec("a.cnf", "vanilla", 0, "SAT", 30.0),
            rec("b.cnf", "vanilla", 0, "SAT", 40.0),
        ]
        partial = [
            rec("a.cnf", "vanilla", 0, "SAT", 30.0),
            rec("b.cnf", "vanilla", 0, "UNKNOWN", 60.0),
        ]
        overall = {name: par2(records, "runtime", 60.0)["vanilla"]["overall"]
                   for name, records in (("solved", solved), ("partial", partial))}
        assert overall["partial"] >= overall["solved"]

    def test_each_unsolved_seed_is_charged(self):
        # one seed of three solved in 1 s must not score as if all three were
        flaky = [rec("a.cnf", "flaky", 0, "SAT", 1.0)] + [rec("a.cnf", "flaky", s, "UNKNOWN", 60.0) for s in (1, 2)]
        steady = [rec("a.cnf", "steady", s, "SAT", 2.0) for s in range(3)]
        scores = par2(flaky + steady, "runtime", 60)
        assert scores["flaky"]["overall"] == pytest.approx((1.0 + 120.0 + 120.0) / 3)
        assert scores["flaky"]["overall"] == pytest.approx(80.333, abs=1e-3)
        assert scores["steady"]["overall"] == pytest.approx(2.0)

    def test_conflicts_metric_charges_twice_the_conflict_budget(self):
        records = [
            rec("a.cnf", "vanilla", 0, "SAT", 0.5, conflicts=40),
            rec("b.cnf", "vanilla", 0, "UNSAT", 0.5, conflicts=90),
            rec("c.cnf", "vanilla", 0, "UNKNOWN", 0.5, conflicts=300),
        ]
        scores = par2(records, "conflicts", 300)["vanilla"]
        assert scores == {"overall": pytest.approx((40 + 90 + 600) / 3), "sat": 40.0, "unsat": 90.0}

    @pytest.mark.parametrize("metric, limit, match", [
        ("decisions", 60.0, "metric must be 'runtime' or 'conflicts'"),
        ("runtime", None, "the run a.cnf,vanilla,1 is unsolved, with no limit to charge"),
    ], ids=["unknown-metric", "unsolved-without-limit"])
    def test_refuses(self, metric, limit, match):
        records = [rec("a.cnf", "vanilla", 0, "SAT", 1.0), rec("a.cnf", "vanilla", 1, "UNKNOWN", 1.0)]
        with pytest.raises(ValueError, match=match):
            par2(records, metric, limit)
        # with every run solved, no limit is needed
        assert par2(records[:1], "runtime", None)["vanilla"]["overall"] == 1.0
        with pytest.raises(ValueError, match="no records"):
            par2([], "runtime", 60.0)

    def test_soundness_gate(self):
        records = [rec("a.cnf", "vanilla", 0, "SAT", 1.0), rec("a.cnf", "random", 0, "UNSAT", 1.0)]
        with pytest.raises(SoundnessError):
            par2(records, "runtime", 60.0)


def flaky_and_steady():
    """One seed of three solved in 1 s, against three of three in 2 s."""
    flaky = [rec("a.cnf", "flaky", 0, "SAT", 1.0)] + [rec("a.cnf", "flaky", s, "UNKNOWN", 60.0) for s in (1, 2)]
    return flaky + [rec("a.cnf", "steady", s, "SAT", 2.0) for s in range(3)]


def wlt(rows, variant_a):
    """The (wins_a, wins_b, ties) of the one row whose variant_a is ``variant_a``."""
    (row,) = [r for r in rows if r["variant_a"] == variant_a]
    return row["wins_a"], row["wins_b"], row["ties"]


class TestPairwise:
    def test_identical_metrics_tie(self):
        records = [
            rec("a.cnf", "vanilla", 0, "SAT", 1.0, glr=0.5),
            rec("a.cnf", "random", 0, "SAT", 1.0, glr=0.5),
        ]
        assert paired(records, "glr") == [
            {"variant_a": "random", "variant_b": "vanilla", "metric": "glr", "wins_a": 0, "wins_b": 0, "ties": 1}]

    def test_dominant_variant(self):
        records = []
        for i in range(4):
            records.append(rec(f"{i}.cnf", "neuro", 0, "SAT", 1.0, glr=0.9))
            records.append(rec(f"{i}.cnf", "vanilla", 0, "SAT", 1.0, glr=0.2))
        assert wlt(paired(records, "glr"), "neuro") == (4, 0, 0)

    def test_lower_avg_glue_wins(self):
        records = [
            rec("a.cnf", "neuro", 0, "SAT", 1.0, avg_glue=2.0),
            rec("a.cnf", "vanilla", 0, "SAT", 1.0, avg_glue=4.0),
        ]
        assert wlt(paired(records, "avg_glue"), "neuro") == (1, 0, 0)

    def test_counts_cover_every_pair(self):
        rng = np.random.default_rng(0)
        records = []
        for i in range(7):
            for variant in ("vanilla", "neuro", "random"):
                records.append(
                    rec(f"{i}.cnf", variant, 0, "SAT", 1.0, glr=float(rng.random()))
                )
        rows = paired(records, "glr")
        assert len(rows) == 3
        for row in rows:
            assert row["wins_a"] + row["wins_b"] + row["ties"] == 7

    def test_each_seed_is_a_pair(self):
        assert wlt(paired(flaky_and_steady(), "runtime", 60.0), "flaky") == (1, 2, 0)

    def test_solved_beats_unsolved_on_conflicts(self):
        # even at the same count, an unsolved run costs twice the limit
        records = [rec("a.cnf", "neuro", 0, "SAT", 1.0, conflicts=100),
                   rec("a.cnf", "vanilla", 0, "UNKNOWN", 1.0, conflicts=100),
                   rec("b.cnf", "neuro", 0, "UNKNOWN", 1.0, conflicts=100),
                   rec("b.cnf", "vanilla", 0, "UNSAT", 1.0, conflicts=90)]
        assert wlt(paired(records, "conflicts", 100), "neuro") == (1, 1, 0)

    def test_two_unsolved_runs_tie(self):
        records = [rec("a.cnf", "neuro", 0, "UNKNOWN", 1.0, conflicts=80),
                   rec("a.cnf", "vanilla", 0, "UNKNOWN", 2.0, conflicts=100)]
        assert wlt(paired(records, "conflicts", 100), "neuro") == (0, 0, 1)
        assert wlt(paired(records, "runtime", 2.0), "neuro") == (0, 0, 1)

    def test_a_seed_one_variant_ran_is_not_paired(self):
        records = [rec("a.cnf", "neuro", 0, "SAT", 1.0), rec("a.cnf", "neuro", 1, "SAT", 1.0),
                   rec("b.cnf", "neuro", 0, "SAT", 1.0), rec("a.cnf", "vanilla", 0, "SAT", 2.0)]
        assert wlt(paired(records, "runtime"), "neuro") == (1, 0, 0)

    @pytest.mark.parametrize("metric, limit, match", [
        ("decisions", 60.0, "metric must be 'runtime', 'conflicts', 'avg_glue' or 'glr'"),
        ("conflicts", None, "the run a.cnf,vanilla,1 is unsolved, with no limit to charge"),
    ], ids=["unknown-metric", "unsolved-without-limit"])
    def test_refuses(self, metric, limit, match):
        records = [rec("a.cnf", "neuro", 1, "SAT", 1.0), rec("a.cnf", "vanilla", 1, "UNKNOWN", 1.0)]
        with pytest.raises(ValueError, match=match):
            paired(records, metric, limit)
        # no limit is needed for the statistics, or with every run solved
        assert wlt(paired(records, "glr"), "neuro") == (0, 0, 1)
        solved = [records[0], rec("a.cnf", "vanilla", 1, "SAT", 2.0, conflicts=60)]
        assert wlt(paired(solved, "conflicts"), "neuro") == (1, 0, 0)


class TestCactus:
    def read(self, path):
        with open(path, newline="") as fh:
            return [(r["variant"], int(r["solved"]), float(r["cost"])) for r in csv.DictReader(fh)]

    def test_sorted_costs(self, tmp_path):
        records = [
            rec("a.cnf", "vanilla", 0, "SAT", 3.0),
            rec("b.cnf", "vanilla", 0, "SAT", 1.0),
            rec("c.cnf", "vanilla", 0, "SAT", 2.0),
        ]
        path = tmp_path / "cactus.csv"
        cactus_csv(records, "runtime", path)
        assert self.read(path) == [("vanilla", 1, 1.0), ("vanilla", 2, 2.0), ("vanilla", 3, 3.0)]

    def test_unsolved_contribute_no_row(self, tmp_path):
        records = [
            rec("a.cnf", "vanilla", 0, "SAT", 3.0),
            rec("b.cnf", "vanilla", 0, "UNKNOWN", 60.0),
        ]
        path = tmp_path / "cactus.csv"
        cactus_csv(records, "runtime", path)
        assert self.read(path) == [("vanilla", 1, 3.0)]

    def test_each_solved_run_is_a_row(self, tmp_path):
        records = flaky_and_steady() + [rec("a.cnf", "flaky", 3, "SAT", 5.0, decisions=7)]
        path = tmp_path / "cactus.csv"
        cactus_csv(records, "decisions", path)
        assert self.read(path) == [("flaky", 1, 7.0), ("flaky", 2, 100.0)] + [
            ("steady", i, 100.0) for i in (1, 2, 3)]


class TestWriteOutputs:
    def test_mean_refocuses_column(self, tmp_path):
        instances = make_instances(tmp_path / "inst", 3, n=30, m=128)
        records = run_benchmark(instances, ["vanilla", "random"], [0, 1], desk_config())
        write_outputs(records, tmp_path / "out", Budget(max_seconds=60.0))
        with open(tmp_path / "out" / "aggregates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        refocuses = {}
        for row in rows:
            refocuses.setdefault(row["variant"], []).append(float(row["mean_refocuses"]))
        assert refocuses["vanilla"] == [0.0] * 3
        assert sum(refocuses["random"]) > 0
        for agg in aggregate(records):
            runs = [r.refocuses for r in records if (r.instance, r.variant) == (agg["instance"], agg["variant"])]
            assert agg["mean_refocuses"] == pytest.approx(np.mean(runs))

    def test_every_score_counts_runs(self, tmp_path):
        write_outputs(flaky_and_steady(), tmp_path, Budget(max_seconds=60.0))

        def rows(name):
            with open(tmp_path / name, newline="") as fh:
                return list(csv.DictReader(fh))

        assert [(r["variant"], r["cost"]) for r in rows("cactus_runtime.csv")] == [
            ("flaky", "1.0"), ("steady", "2.0"), ("steady", "2.0"), ("steady", "2.0")]
        assert [(r["variant"], r["runs"], r["solved"]) for r in rows("aggregates.csv")] == [
            ("flaky", "3", "1"), ("steady", "3", "3")]
        by_metric = {r["metric"]: (r["wins_a"], r["wins_b"], r["ties"]) for r in rows("pairwise.csv")}
        assert by_metric == {"glr": ("0", "0", "3"), "avg_glue": ("0", "0", "3"), "runtime": ("1", "2", "0")}
        assert (tmp_path / "par2.txt").read_text() == (
            "flaky seconds: overall=80.333 sat=80.333 unsat=0.000\n"
            "steady seconds: overall=2.000 sat=2.000 unsat=0.000\n")

    def test_a_lone_variant_writes_the_headers(self, tmp_path):
        write_outputs([rec("a.cnf", "vanilla", 0, "SAT", 1.0)], tmp_path, Budget(max_conflicts=100))
        assert (tmp_path / "pairwise.csv").read_text() == "variant_a,variant_b,metric,wins_a,wins_b,ties\n"

    def test_full_file_suite(self, tmp_path, weights_file):
        instances = make_instances(tmp_path / "inst", 2)
        records = run_benchmark(
            instances, ["vanilla", "neuro", "random"], [0],
            desk_config(), weights=weights_file,
        )
        write_outputs(records, tmp_path / "out", Budget(max_seconds=60.0))
        for name in (
            "records.csv", "aggregates.csv", "par2.txt", "pairwise.csv",
            "cactus_runtime.csv", "cactus_decisions.csv",
        ):
            assert (tmp_path / "out" / name).exists(), name
        par2_lines = (tmp_path / "out" / "par2.txt").read_text().splitlines()
        assert [line.split(":")[0] for line in par2_lines] == [
            f"{variant} seconds" for variant in ("neuro", "random", "vanilla")]

    @pytest.mark.parametrize("budget, units", [
        (Budget(max_seconds=60.0), ["seconds"]),
        (Budget(max_conflicts=20), ["conflicts"]),
        (Budget(max_conflicts=20, max_seconds=60.0), ["seconds", "conflicts"]),
        (Budget(), ["seconds"]),
    ], ids=["time", "conflicts", "both", "unbounded"])
    def test_par2_blocks_follow_the_budget(self, tmp_path, budget, units):
        records = [rec("a.cnf", "vanilla", 0, "SAT", 0.01, conflicts=5)]
        if budget != Budget():      # an unbounded run always ends solved
            records.append(rec("b.cnf", "vanilla", 0, "UNKNOWN", 0.02, conflicts=20))
        write_outputs(records, tmp_path, budget)
        lines = (tmp_path / "par2.txt").read_text().splitlines()
        assert [line.split(":")[0] for line in lines] == [f"vanilla {unit}" for unit in units]
        for unit, line in zip(units, lines):
            limit = budget.max_seconds if unit == "seconds" else budget.max_conflicts
            metric = "runtime" if unit == "seconds" else "conflicts"
            assert line == "vanilla {}: overall={overall:.3f} sat={sat:.3f} unsat={unsat:.3f}".format(
                unit, **par2(records, metric, limit)["vanilla"])

    def test_conflict_budget_alone_never_charges_zero(self, tmp_path):
        # an unsolved run under a conflict budget alone costs twice that
        # budget, never twice a missing time limit
        records = [rec("a.cnf", "vanilla", 0, "SAT", 0.001, conflicts=5),
                   rec("b.cnf", "vanilla", 0, "UNKNOWN", 0.002, conflicts=300)]
        write_outputs(records, tmp_path, Budget(max_conflicts=300))
        assert (tmp_path / "par2.txt").read_text() == "vanilla conflicts: overall=302.500 sat=5.000 unsat=0.000\n"
