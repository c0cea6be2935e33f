import csv

import numpy as np
import pytest

from gluesat.bench import (
    AggregateRecord,
    BenchConfig,
    EvalRecord,
    SoundnessError,
    aggregate,
    cactus_csv,
    pairwise_better_fraction,
    par2,
    run_benchmark,
    write_outputs,
)
from gluesat.cnf import random_ksat, write_dimacs
from gluesat.network import init_params, preset, save_weights
from gluesat.solver import SolverConfig


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
    kw.setdefault("timeout", None)
    kw.setdefault("max_conflicts", 10_000)
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


class TestAggregate:
    def test_solved_any_seed_and_mean_successful(self):
        records = [
            rec("a.cnf", "vanilla", 0, "SAT", 100.0),
            rec("a.cnf", "vanilla", 1, "UNKNOWN", 60.0),
        ]
        aggs = aggregate(records)
        assert len(aggs) == 1
        agg = aggs[0]
        assert agg.solved
        assert agg.status == "SAT"
        assert agg.mean_successful_runtime == pytest.approx(100.0)
        assert agg.mean_decisions == pytest.approx(100.0)

    def test_all_timeouts_unsolved(self):
        aggs = aggregate([rec("a.cnf", "vanilla", s, "UNKNOWN", 60.0) for s in range(3)])
        assert not aggs[0].solved
        assert aggs[0].mean_successful_runtime is None

    def test_soundness_gate(self):
        records = [
            rec("a.cnf", "vanilla", 0, "SAT", 1.0),
            rec("a.cnf", "random", 0, "UNSAT", 1.0),
        ]
        with pytest.raises(SoundnessError):
            aggregate(records)


class TestPar2:
    def test_paper_example(self):
        aggs = aggregate(
            [
                rec("a.cnf", "vanilla", 0, "SAT", 100.0),
                rec("b.cnf", "vanilla", 0, "UNKNOWN", 5000.0),
            ]
        )
        scores = par2(aggs, timeout=5000.0)
        assert scores["vanilla"]["overall"] == pytest.approx(5050.0)

    def test_all_solved_instantly(self):
        aggs = aggregate(
            [rec(f"{i}.cnf", "vanilla", 0, "SAT", 0.0) for i in range(4)]
        )
        assert par2(aggs, timeout=100.0)["vanilla"]["overall"] == 0.0

    def test_all_unsolved(self):
        aggs = aggregate(
            [rec(f"{i}.cnf", "vanilla", 0, "UNKNOWN", 60.0) for i in range(4)]
        )
        assert par2(aggs, timeout=60.0)["vanilla"]["overall"] == pytest.approx(120.0)

    def test_sat_unsat_splits(self):
        aggs = aggregate(
            [
                rec("a.cnf", "vanilla", 0, "SAT", 10.0),
                rec("b.cnf", "vanilla", 0, "UNSAT", 20.0),
                rec("a.cnf", "random", 0, "UNKNOWN", 60.0),
                rec("b.cnf", "random", 0, "UNSAT", 30.0),
            ]
        )
        scores = par2(aggs, timeout=60.0)
        assert scores["vanilla"]["sat"] == pytest.approx(10.0)
        assert scores["vanilla"]["unsat"] == pytest.approx(20.0)
        assert scores["random"]["sat"] == pytest.approx(120.0)  # unsolved on the sat split
        assert scores["random"]["unsat"] == pytest.approx(30.0)

    def test_monotone_under_unsolving(self):
        solved = aggregate(
            [
                rec("a.cnf", "vanilla", 0, "SAT", 30.0),
                rec("b.cnf", "vanilla", 0, "SAT", 40.0),
            ]
        )
        partial = aggregate(
            [
                rec("a.cnf", "vanilla", 0, "SAT", 30.0),
                rec("b.cnf", "vanilla", 0, "UNKNOWN", 60.0),
            ]
        )
        assert par2(partial, 60.0)["vanilla"]["overall"] >= par2(solved, 60.0)["vanilla"]["overall"]


class TestPairwise:
    def test_identical_metrics_split_evenly(self):
        aggs = aggregate(
            [
                rec("a.cnf", "vanilla", 0, "SAT", 1.0, glr=0.5),
                rec("a.cnf", "random", 0, "SAT", 1.0, glr=0.5),
            ]
        )
        rows = pairwise_better_fraction(aggs, "glr")
        assert rows[0]["fraction_a"] == 0.5 and rows[0]["fraction_b"] == 0.5

    def test_dominant_variant(self):
        records = []
        for i in range(4):
            records.append(rec(f"{i}.cnf", "neuro", 0, "SAT", 1.0, glr=0.9))
            records.append(rec(f"{i}.cnf", "vanilla", 0, "SAT", 1.0, glr=0.2))
        rows = pairwise_better_fraction(aggregate(records), "glr")
        row = next(r for r in rows if r["variant_a"] == "neuro")
        assert row["fraction_a"] == 1.0 and row["fraction_b"] == 0.0

    def test_lower_avg_glue_wins(self):
        records = [
            rec("a.cnf", "neuro", 0, "SAT", 1.0, avg_glue=2.0),
            rec("a.cnf", "vanilla", 0, "SAT", 1.0, avg_glue=4.0),
        ]
        rows = pairwise_better_fraction(aggregate(records), "avg_glue")
        row = next(r for r in rows if r["variant_a"] == "neuro")
        assert row["fraction_a"] == 1.0

    def test_fractions_complementary(self):
        rng = np.random.default_rng(0)
        records = []
        for i in range(7):
            for variant in ("vanilla", "neuro", "random"):
                records.append(
                    rec(f"{i}.cnf", variant, 0, "SAT", 1.0, glr=float(rng.random()))
                )
        for row in pairwise_better_fraction(aggregate(records), "glr"):
            assert row["fraction_a"] + row["fraction_b"] == pytest.approx(1.0)


class TestCactus:
    def test_sorted_costs(self, tmp_path):
        aggs = aggregate(
            [
                rec("a.cnf", "vanilla", 0, "SAT", 3.0),
                rec("b.cnf", "vanilla", 0, "SAT", 1.0),
                rec("c.cnf", "vanilla", 0, "SAT", 2.0),
            ]
        )
        path = tmp_path / "cactus.csv"
        cactus_csv(aggs, "runtime", path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        costs = [float(r["cost"]) for r in rows]
        assert costs == [1.0, 2.0, 3.0]
        assert [int(r["solved"]) for r in rows] == [1, 2, 3]

    def test_unsolved_contribute_no_row(self, tmp_path):
        aggs = aggregate(
            [
                rec("a.cnf", "vanilla", 0, "SAT", 3.0),
                rec("b.cnf", "vanilla", 0, "UNKNOWN", 60.0),
            ]
        )
        path = tmp_path / "cactus.csv"
        cactus_csv(aggs, "runtime", path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1


class TestWriteOutputs:
    def test_mean_refocuses_column(self, tmp_path):
        instances = make_instances(tmp_path / "inst", 3, n=30, m=128)
        records = run_benchmark(instances, ["vanilla", "random"], [0, 1], desk_config())
        write_outputs(records, tmp_path / "out", timeout=60.0)
        with open(tmp_path / "out" / "aggregates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        refocuses = {}
        for row in rows:
            refocuses.setdefault(row["variant"], []).append(float(row["mean_refocuses"]))
        assert refocuses["vanilla"] == [0.0] * 3
        assert sum(refocuses["random"]) > 0
        for agg in aggregate(records):
            runs = [r.refocuses for r in records if (r.instance, r.variant) == (agg.instance, agg.variant)]
            assert agg.mean_refocuses == pytest.approx(np.mean(runs))

    def test_full_file_suite(self, tmp_path, weights_file):
        instances = make_instances(tmp_path / "inst", 2)
        records = run_benchmark(
            instances, ["vanilla", "neuro", "random"], [0],
            desk_config(), weights=weights_file,
        )
        write_outputs(records, tmp_path / "out", timeout=60.0)
        for name in (
            "records.csv", "aggregates.csv", "par2.txt", "pairwise.csv",
            "cactus_runtime.csv", "cactus_decisions.csv",
        ):
            assert (tmp_path / "out" / name).exists(), name
        par2_text = (tmp_path / "out" / "par2.txt").read_text()
        assert "vanilla" in par2_text and "neuro" in par2_text
