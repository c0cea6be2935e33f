import csv
import json
import shlex
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from gluesat import bench, cli
from gluesat.cli import main
from gluesat.cnf import parse_dimacs, random_ksat, write_dimacs
from gluesat.datagen import DatagenConfig
from gluesat.network import HyperParams, init_params, load_weights, preset, save_weights
from gluesat.solver import Budget, Solver, SolverConfig
from gluesat.training import RLConfig, SupervisedConfig, run_episode


@pytest.fixture
def sat_file(tmp_path):
    p = tmp_path / "sat.cnf"
    p.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    return str(p)


@pytest.fixture
def unsat_file(tmp_path):
    p = tmp_path / "unsat.cnf"
    p.write_text("p cnf 1 2\n1 0\n-1 0\n")
    return str(p)


@pytest.fixture
def weights_file(tmp_path):
    hp = preset("supervised")
    path = tmp_path / "w.ngw"
    save_weights(init_params(hp, seed=0), hp, path)
    return str(path)


class TestSolveCommand:
    def test_sat_exit_code_and_json(self, sat_file, capsys):
        code = main(["solve", sat_file, "--model"])
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert code == 10
        assert payload["status"] == "SAT"
        assert "decisions" in payload and "glr" in payload
        assert payload["model"]

    def test_unsat_exit_code(self, unsat_file, capsys):
        assert main(["solve", unsat_file]) == 20
        assert json.loads(capsys.readouterr().out)["status"] == "UNSAT"

    def test_unknown_exit_code(self, tmp_path, capsys):
        p = tmp_path / "hard.cnf"
        p.write_text(write_dimacs(random_ksat(60, 256, 3, 0)))
        code = main(["solve", str(p), "--conflicts", "0"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["status"] == "UNKNOWN"

    def test_neuro_mode(self, tmp_path, weights_file, capsys):
        # large enough for the 1.1 glue-EMA gate to open: the network runs
        p = tmp_path / "inst.cnf"
        p.write_text(write_dimacs(random_ksat(150, 639, 3, 0)))
        code = main(
            [
                "solve", str(p), "--mode", "neuro", "--weights", weights_file,
                "--warmup-conflicts", "0",
                "--schedule", "2", "0", "2", "--conflicts", "300",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == {"UNKNOWN": 0, "SAT": 10, "UNSAT": 20}[out["status"]]
        assert out["refocuses"] > 0

    def test_hindsight_mode(self, tmp_path, capsys):
        p = tmp_path / "inst.cnf"
        p.write_text(write_dimacs(random_ksat(150, 639, 3, 0)))
        code = main(["solve", str(p), "--mode", "hindsight", "--warmup-conflicts", "0",
                     "--schedule", "2", "0", "2", "--conflicts", "300"])
        out = json.loads(capsys.readouterr().out)
        assert code == {"UNKNOWN": 0, "SAT": 10, "UNSAT": 20}[out["status"]]
        assert out["refocuses"] > 0

    def test_neuro_mode_requires_weights(self, sat_file, capsys):
        assert main(["solve", sat_file, "--mode", "neuro"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "weights" in captured.err

    def test_neuro_mode_bad_ln_eps_exits_1(self, tmp_path, weights_file, capsys):
        # a non-positive ln_eps would only fail at the first refocus, mid-search
        path = tmp_path / "bad.ngw"
        magic, hyper, rest = Path(weights_file).read_bytes().split(b"\n", 2)
        fields = hyper.split(b" ")
        fields[9] = b"-1"
        path.write_bytes(b"\n".join([magic, b" ".join(fields), rest]))
        p = tmp_path / "inst.cnf"
        p.write_text(write_dimacs(random_ksat(150, 639, 3, 0)))   # refocuses with valid weights
        code = main(["solve", str(p), "--mode", "neuro", "--weights", str(path),
                     "--warmup-conflicts", "0", "--schedule", "2", "0", "2", "--conflicts", "200"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad hyper line: ln_eps") and "Traceback" not in captured.err

    def test_random_mode(self, tmp_path, capsys):
        p = tmp_path / "inst.cnf"
        p.write_text(write_dimacs(random_ksat(15, 63, 3, 2)))
        code = main(["solve", str(p), "--mode", "random", "--seed", "7",
                     "--warmup-conflicts", "0"])
        assert code in (10, 20)
        json.loads(capsys.readouterr().out)


class TestRefocusBudget:
    """An oracle run whose conflict budget ends before its first refocus is
    due is refused (exit 2); a vanilla run never is."""

    SHORT = ["--schedule", "20", "0", "20", "--warmup-conflicts", "0"]   # first refocus due at 20

    @pytest.fixture
    def formula_dir(self, tmp_path):
        directory = tmp_path / "inst"
        directory.mkdir()
        for seed in range(2):
            (directory / f"i{seed}.cnf").write_text(write_dimacs(random_ksat(30, 128, 3, seed)))
        return directory

    @pytest.mark.parametrize("mode", ["random", "neuro"])
    def test_solve_at_first_due_refused(self, formula_dir, weights_file, capsys, mode):
        argv = ["solve", str(formula_dir / "i0.cnf"), "--mode", mode, "--weights", weights_file,
                *self.SHORT, "--conflicts", "20"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --conflicts 20 ")
        assert "warmup_conflicts=0" in captured.err and "threshold of 20 " in captured.err
        assert "--schedule" in captured.err

    def test_solve_one_past_first_due_runs(self, formula_dir, capsys):
        argv = ["solve", str(formula_dir / "i0.cnf"), "--mode", "random", *self.SHORT, "--conflicts", "21"]
        assert main(argv) in (0, 10, 20)
        json.loads(capsys.readouterr().out)

    def test_vanilla_never_refused(self, formula_dir, capsys):
        argv = ["solve", str(formula_dir / "i0.cnf"), *self.SHORT, "--conflicts", "20"]
        assert main(argv) in (0, 10, 20)
        json.loads(capsys.readouterr().out)

    def test_default_schedule(self, sat_file, capsys):
        assert main(["solve", sat_file, "--mode", "random", "--conflicts", "20000"]) == 2
        err = capsys.readouterr().err
        assert "20000" in err and "50000" in err and "warmup_conflicts=1000" in err
        assert main(["solve", sat_file, "--mode", "vanilla", "--conflicts", "20000"]) == 10

    def test_time_budget_without_refocus_warns(self, formula_dir, capsys):
        path = str(formula_dir / "i0.cnf")
        assert main(["solve", path, "--mode", "random", *self.SHORT, "--time", "0"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["refocuses"] == 0
        assert captured.err == ("warning: the random solve never refocused, so it ran the vanilla search: "
                                "it reached 0 conflicts, and the first refocus is due after 20\n")
        assert main(["solve", path, *self.SHORT, "--time", "0"]) == 0
        assert capsys.readouterr().err == ""

    def test_bench_without_refocus_warns(self, formula_dir, tmp_path, capsys):
        argv = ["bench", "--instances", str(formula_dir), "--out", str(tmp_path / "out"),
                "--variants", "vanilla,random", "--time", "0", *self.SHORT]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert err == ("warning: bench variant 'random' never refocused, so it ran the vanilla search: "
                       "it reached at most 0 conflicts, and the first refocus is due after 20\n")

    @pytest.mark.parametrize("variants, budget, code", [
        ("vanilla,random", "20", 2),
        ("neuro", "20", 2),
        ("vanilla,random", "21", 0),
        ("vanilla", "20", 0),
    ])
    def test_bench(self, formula_dir, weights_file, tmp_path, capsys, variants, budget, code):
        out = tmp_path / "out"
        argv = ["bench", "--instances", str(formula_dir), "--out", str(out), "--variants", variants,
                "--weights", weights_file, "--time", "60", *self.SHORT, "--conflicts", budget]
        assert main(argv) == code
        if code == 2:
            assert f"error: --conflicts {budget} " in capsys.readouterr().err
            assert not out.exists()

    def test_hindsight_without_conflicts_refused(self, formula_dir, tmp_path, capsys):
        out = tmp_path / "out"
        for argv in (["solve", str(formula_dir / "i0.cnf"), "--mode", "hindsight", *self.SHORT],
                     ["bench", "--instances", str(formula_dir), "--out", str(out),
                      "--variants", "vanilla,hindsight", *self.SHORT]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: the hindsight variant requires --conflicts")
        assert not out.exists()


class TestExtractCommand:
    def test_root_graph(self, sat_file, capsys):
        assert main(["extract", sat_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "p graph 2 2"
        assert lines[1] == "varmap 1 2"
        assert len(lines) == 2 + 4

    def test_with_assignment(self, tmp_path, capsys):
        p = tmp_path / "f.cnf"
        p.write_text("p cnf 3 3\n1 2 0\n-1 3 0\n2 3 0\n")
        assert main(["extract", str(p), "--assign", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "p graph 1 2"
        assert lines[1] == "varmap 1 2"

    def test_conflicting_assignment_errors(self, unsat_file, capsys):
        assert main(["extract", unsat_file]) == 1

    @pytest.mark.parametrize("assign", ["0", "4", "-4", "3,x", "1,,2"])
    def test_assignment_outside_formula_errors(self, tmp_path, capsys, assign):
        p = tmp_path / "f.cnf"
        p.write_text("p cnf 3 2\n1 2 0\n-1 3 0\n")
        assert main(["extract", str(p), "--assign", assign]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not a literal of the formula" in err


class TestEnvRolloutCommand:
    def test_random_policy_trace(self, tmp_path, capsys):
        p = tmp_path / "f.cnf"
        p.write_text(write_dimacs(random_ksat(10, 36, 3, 0)))
        assert main(["env-rollout", str(p), "--episodes", "2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "episode 0" in out and "episode 1" in out
        assert "terminal:" in out and "reward" in out

    def test_weights_policy_samples_as_run_episode(self, tmp_path, weights_file, capsys):
        # one seed draws the reset seed and then each action, as in training
        p = tmp_path / "f.cnf"
        p.write_text(write_dimacs(random_ksat(20, 85, 3, 1)))
        assert main(["env-rollout", str(p), "--policy", "weights", "--weights", weights_file,
                     "--seed", "7"]) == 0
        printed = [int(line.split()[3]) for line in capsys.readouterr().out.splitlines()
                   if line.startswith("  step ")]
        params, hp = load_weights(weights_file)
        steps = run_episode(parse_dimacs(p.read_text()), params, hp, np.random.default_rng(7))
        assert len(steps) > 1
        assert printed == [s.observation.var_map[s.action] for s in steps]

    def test_scripted_policy(self, tmp_path, capsys):
        p = tmp_path / "f.cnf"
        p.write_text(write_dimacs(random_ksat(10, 36, 3, 0)))
        code = main(["env-rollout", str(p), "--policy", "scripted", "--actions", "0,1,2"])
        assert code == 0
        assert "terminal:" in capsys.readouterr().out

    def test_graph_over_edge_cap_exits_1(self, tmp_path, capsys, monkeypatch):
        from gluesat import env

        monkeypatch.setattr(env, "GlueEnv", partial(env.GlueEnv, edge_cap=10))
        p = tmp_path / "f.cnf"
        p.write_text(write_dimacs(random_ksat(20, 85, 3, 0)))
        assert main(["env-rollout", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "edge_cap=10 " in err


class TestPipelineCommands:
    def test_datagen_train_bench(self, tmp_path, capsys):
        instances = tmp_path / "instances"
        instances.mkdir()
        for seed in range(4):
            f = random_ksat(25, 110, 3, seed)
            (instances / f"i{seed}.cnf").write_text(write_dimacs(f))

        data_dir = tmp_path / "data"
        assert main(
            [
                "datagen", "--input", str(instances), "--output", str(data_dir),
                "--budget-conflicts", "2000", "--dump-interval", "50", "--seed", "1",
            ]
        ) == 0
        assert (data_dir / "manifest.csv").exists()

        weights = tmp_path / "trained.ngw"
        metrics = tmp_path / "train.csv"
        assert main(
            [
                "train-supervised", "--data", str(data_dir), "--out", str(weights),
                "--epochs", "2", "--batch-size", "4", "--lr", "0.01",
                "--metrics", str(metrics),
            ]
        ) == 0
        assert weights.exists()
        params, hp = load_weights(weights)
        assert hp == preset("supervised")
        with open(metrics, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2

        out_dir = tmp_path / "bench"
        assert main(
            [
                "bench", "--instances", str(instances), "--out", str(out_dir),
                "--variants", "vanilla,neuro,random", "--seeds", "0", "1",
                "--weights", str(weights), "--conflicts", "5000", "--time", "60",
                "--warmup-conflicts", "0",
                "--schedule", "5", "0", "5",
            ]
        ) == 0
        for name in ("records.csv", "aggregates.csv", "par2.txt", "pairwise.csv",
                     "cactus_runtime.csv", "cactus_decisions.csv"):
            assert (out_dir / name).exists()
        with open(out_dir / "records.csv", newline="") as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == 4 * 3 * 2
        heads = [line.split(":")[0] for line in (out_dir / "par2.txt").read_text().splitlines()]
        assert heads == [f"{v} {unit}" for unit in ("seconds", "conflicts") for v in ("neuro", "random", "vanilla")]

    def test_train_rl_command(self, tmp_path, capsys):
        formulas = tmp_path / "formulas"
        formulas.mkdir()
        for seed in range(3):
            (formulas / f"f{seed}.cnf").write_text(write_dimacs(random_ksat(10, 36, 3, seed)))
        weights = tmp_path / "rl.ngw"
        metrics = tmp_path / "rl.csv"
        assert main(
            [
                "train-rl", "--formulas", str(formulas), "--out", str(weights),
                "--batches", "2", "--workers", "1", "--episodes-per-worker", "1",
                "--grad-steps", "1", "--preset", "supervised", "--metrics", str(metrics),
            ]
        ) == 0
        assert weights.exists()
        params, _ = load_weights(weights)
        assert params.v_value is not None
        with open(metrics, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert list(rows[0]) == ["batch", "episodes", "mean_return", "policy_loss",
                                 "value_loss", "total_loss", "grad_norm", "ratio_clip_frac",
                                 "policy_entropy", "rollout_s", "update_s", "forward_s", "backward_s"]
        assert all(float(row["grad_norm"]) > 0 for row in rows)
        assert all(float(row["rollout_s"]) > 0 and float(row["update_s"]) > 0 for row in rows)

    @pytest.mark.parametrize("flag", [["--grad-steps", "0"], ["--workers", "0"],
                                      ["--episodes-per-worker", "0"], ["--lr", "-1.0"],
                                      ["--batches", "0"]])
    def test_train_rl_rejects_invalid_config(self, tmp_path, capsys, flag):
        formulas = tmp_path / "formulas"
        formulas.mkdir()
        (formulas / "f.cnf").write_text(write_dimacs(random_ksat(10, 36, 3, 0)))
        weights = tmp_path / "rl.ngw"
        code = main(["train-rl", "--formulas", str(formulas), "--out", str(weights), *flag])
        assert code == 2
        name = flag[0].lstrip("-").replace("-", "_")
        assert f"error: {name} must be" in capsys.readouterr().err
        assert not weights.exists()

    def test_bench_over_several_directories(self, tmp_path, capsys):
        for name, seeds in (("a", (0, 1)), ("b", (2,))):
            (tmp_path / name).mkdir()
            for seed in seeds:
                (tmp_path / name / f"i{seed}.cnf").write_text(write_dimacs(random_ksat(10, 36, 3, seed)))
        out_dir = tmp_path / "bench"
        args = ["bench", "--instances", str(tmp_path / "a"), str(tmp_path / "b"), "--out", str(out_dir),
                "--variants", "vanilla", "--conflicts", "1000"]
        assert main(args) == 0
        with open(out_dir / "records.csv", newline="") as fh:
            records = list(csv.DictReader(fh))
        assert sorted(r["instance"] for r in records) == ["i0.cnf", "i1.cnf", "i2.cnf"]

    def test_bench_scores_par2_in_both_budget_units(self, tmp_path, capsys):
        # a run that a generous time limit never stops costs twice the
        # conflict budget in the conflicts block, whatever it cost in seconds
        (tmp_path / "inst").mkdir()
        for seed in range(4):
            (tmp_path / "inst" / f"i{seed}.cnf").write_text(write_dimacs(random_ksat(60, 256, 3, seed)))
        out_dir = tmp_path / "bench"
        assert main(["bench", "--instances", str(tmp_path / "inst"), "--out", str(out_dir),
                     "--variants", "vanilla", "--conflicts", "30", "--time", "3600"]) == 0
        with open(out_dir / "records.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        unsolved = [row for row in rows if row["status"] == "UNKNOWN"]
        assert unsolved and all(row["conflicts"] == "30" for row in unsolved)
        costs = [60 if row["status"] == "UNKNOWN" else int(row["conflicts"]) for row in rows]
        seconds, conflicts = (out_dir / "par2.txt").read_text().splitlines()
        assert seconds.startswith("vanilla seconds: overall=")
        assert conflicts.startswith(f"vanilla conflicts: overall={sum(costs) / len(costs):.3f} ")

    def test_bench_under_conflicts_alone_scores_conflicts_alone(self, tmp_path, capsys):
        # no 60 s default beside --conflicts: an unsolved run is charged
        # twice the conflict budget, and nothing in seconds
        (tmp_path / "inst").mkdir()
        for seed in range(3):
            (tmp_path / "inst" / f"i{seed}.cnf").write_text(write_dimacs(random_ksat(60, 256, 3, seed)))
        out_dir = tmp_path / "bench"
        assert main(["bench", "--instances", str(tmp_path / "inst"), "--out", str(out_dir),
                     "--variants", "vanilla", "--conflicts", "30"]) == 0
        assert [line.split(":")[0] for line in (out_dir / "par2.txt").read_text().splitlines()] == [
            "vanilla conflicts"]

    def test_bench_refuses_to_resume_under_another_budget(self, tmp_path, capsys):
        (tmp_path / "inst").mkdir()
        for seed in range(3):
            (tmp_path / "inst" / f"i{seed}.cnf").write_text(write_dimacs(random_ksat(60, 256, 3, seed)))
        out_dir = tmp_path / "bench"
        argv = ["bench", "--instances", str(tmp_path / "inst"), "--out", str(out_dir), "--variants", "vanilla"]
        assert main([*argv, "--conflicts", "300"]) == 0
        capsys.readouterr()
        before = (out_dir / "records.csv").read_bytes()
        assert main([*argv, "--conflicts", "100"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {out_dir / 'records.csv'}: the row i")
        assert ",vanilla,0 (" in captured.err and "was not run under Budget(max_conflicts=100" in captured.err
        assert (out_dir / "records.csv").read_bytes() == before

    @pytest.mark.parametrize("command", ["train-supervised", "train-rl"])
    def test_preset_and_hyper_exclude_each_other(self, tmp_path, capsys, command):
        out = tmp_path / "w.ngw"
        inputs = {"train-supervised": "--data", "train-rl": "--formulas"}[command]
        with pytest.raises(SystemExit) as exc:
            main([command, inputs, str(tmp_path), "--out", str(out),
                  "--preset", "supervised", "--hyper", "8", "8", "1", "1", "1", "1"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("records, message", [
        ("instance,variant,seed,status,runtime\r\nf.cnf,vanilla,0,SAT,0.01\r\n",
         "the header lacks the columns decisions, conflicts, propagations, restarts, refocuses, avg_glue, glr"),
        ("instance,variant,seed,status,runtime,decisions,conflicts,propagations,restarts,refocuses,avg_glue,glr\r\n"
         "f.cnf,vanilla,0,SAT,0.01,3,1,10,0,0,2.0,0.5\r\nf.cnf,vanilla,1,SAT,0.0", "line 3 is incomplete"),
    ])
    def test_bench_refuses_a_damaged_records_file(self, tmp_path, capsys, records, message):
        # a header without every record column, and a last row cut off
        # mid-write, as a killed run leaves it
        (tmp_path / "inst").mkdir()
        (tmp_path / "inst" / "f.cnf").write_text("p cnf 2 1\n1 2 0\n")
        out_dir = tmp_path / "bench"
        out_dir.mkdir()
        (out_dir / "records.csv").write_bytes(records.encode())
        code = main(["bench", "--instances", str(tmp_path / "inst"), "--out", str(out_dir),
                     "--variants", "vanilla", "--seeds", "0", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert (out_dir / "records.csv").read_bytes() == records.encode()

    def test_bench_rejects_clashing_file_names(self, tmp_path, capsys):
        for name in ("sat", "unsat"):
            (tmp_path / name).mkdir()
        (tmp_path / "sat" / "f.cnf").write_text("p cnf 2 1\n1 2 0\n")
        (tmp_path / "unsat" / "f.cnf").write_text("p cnf 1 2\n1 0\n-1 0\n")
        out_dir = tmp_path / "bench"
        code = main(["bench", "--instances", str(tmp_path / "sat"), str(tmp_path / "unsat"),
                     "--out", str(out_dir), "--variants", "vanilla"])
        assert code == 1
        assert "share the file name 'f.cnf'" in capsys.readouterr().err
        assert not (out_dir / "records.csv").exists()

    def test_bench_rejects_unknown_variants(self, tmp_path, capsys):
        (tmp_path / "inst").mkdir()
        (tmp_path / "inst" / "f.cnf").write_text("p cnf 2 1\n1 2 0\n")
        out_dir = tmp_path / "bench"
        code = main(["bench", "--instances", str(tmp_path / "inst"), "--out", str(out_dir),
                     "--variants", "vanila,typo"])
        assert code == 1
        assert "error: unknown variant 'vanila'" in capsys.readouterr().err
        assert not (out_dir / "records.csv").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--variants", "vanilla,vanilla"], "repeated variant"),
        (["--variants", "vanilla", "--seeds", "0", "0"], "repeated seed"),
    ])
    def test_bench_rejects_repeats(self, tmp_path, capsys, flags, message):
        (tmp_path / "inst").mkdir()
        (tmp_path / "inst" / "f.cnf").write_text("p cnf 2 1\n1 2 0\n")
        out_dir = tmp_path / "bench"
        code = main(["bench", "--instances", str(tmp_path / "inst"), "--out", str(out_dir), *flags])
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (out_dir / "records.csv").exists()

    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--timeout", "60"], ["--decisions", "10"]])
    def test_bench_rejects_flags_it_ignores(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--instances", str(tmp_path), "--out", str(tmp_path / "out"), *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve", "{sat}", "--decisions", "10"],
        ["datagen", "--input", "{dir}", "--output", "{out}", "--budget-seconds", "5"],
        ["train-rl", "--formulas", "{dir}", "--out", "{out}", "--dropout", "0.5"],
    ])
    def test_removed_flags_are_refused(self, sat_file, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([arg.format(sat=sat_file, dir=tmp_path, out=out) for arg in argv])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_explicit_hyperparameters(self, tmp_path, capsys):
        formulas = tmp_path / "formulas"
        formulas.mkdir()
        (formulas / "f.cnf").write_text(write_dimacs(random_ksat(8, 28, 3, 0)))
        weights = tmp_path / "rl.ngw"
        assert main(
            [
                "train-rl", "--formulas", str(formulas), "--out", str(weights),
                "--batches", "1", "--workers", "1", "--episodes-per-worker", "1",
                "--grad-steps", "1", "--hyper", "4", "6", "1", "1", "1", "2",
            ]
        ) == 0
        _, hp = load_weights(weights)
        assert (hp.delta_l, hp.delta_c, hp.tau_iters) == (4, 6, 1)
        assert hp.dropout == HyperParams.dropout

    def test_dropout_applies_to_a_preset(self, tmp_path, capsys):
        instances = tmp_path / "instances"
        instances.mkdir()
        (instances / "i.cnf").write_text(write_dimacs(random_ksat(25, 110, 3, 0)))
        data_dir = tmp_path / "data"
        assert main(["datagen", "--input", str(instances), "--output", str(data_dir),
                     "--budget-conflicts", "200", "--no-augment"]) == 0
        weights = tmp_path / "w.ngw"
        assert main(
            [
                "train-supervised", "--data", str(data_dir), "--out", str(weights),
                "--epochs", "1", "--preset", "supervised", "--dropout", "0.5",
            ]
        ) == 0
        hyper_line = weights.read_bytes().split(b"\n")[1].split()
        assert hyper_line[0] == b"hyper" and float(hyper_line[7]) == 0.5
        _, hp = load_weights(weights)
        assert hp == replace(preset("supervised"), dropout=0.5)


class _Stop(Exception):
    pass


def _intercept(monkeypatch, owner, name):
    """Replace owner.name by a stub that records its positional arguments
    and stops the command."""
    calls = []

    def stub(*args, **kwargs):
        calls.append(args)
        raise _Stop

    monkeypatch.setattr(owner, name, stub)
    return calls


class TestConfigDefaults:
    """Only the required arguments give configs equal to the dataclass defaults."""

    def test_solve(self, sat_file, monkeypatch):
        seen = {}

        class Recording(Solver):
            def __init__(self, formula, config=None, oracle=None):
                seen["config"] = config
                super().__init__(formula, config, oracle)

            def solve(self, budget=None, **kwargs):
                seen["budget"] = budget
                return super().solve(budget, **kwargs)

        monkeypatch.setattr(cli, "Solver", Recording)
        assert main(["solve", sat_file]) == 10
        assert seen == {"config": SolverConfig(), "budget": Budget()}
        assert len(fields(Budget)) == 2

    def test_extract(self, sat_file, monkeypatch):
        calls = _intercept(monkeypatch, cli, "extract_graph")
        with pytest.raises(_Stop):
            main(["extract", sat_file])
        assert len(calls[0]) == 1 and calls[0][0].cfg == SolverConfig()
        with pytest.raises(_Stop):
            main(["extract", sat_file, "--edge-cap", "7"])
        assert calls[1][0].cfg == SolverConfig(edge_cap=7)

    def test_datagen(self, tmp_path, monkeypatch):
        calls = _intercept(monkeypatch, cli, "build_dataset")
        with pytest.raises(_Stop):
            main(["datagen", "--input", str(tmp_path), "--output", str(tmp_path / "out")])
        assert calls[0][2] == DatagenConfig()
        assert len(fields(DatagenConfig)) == 6

    def test_train_supervised(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "load_dataset", lambda path: ["example"])
        calls = _intercept(monkeypatch, cli, "train_supervised")
        with pytest.raises(_Stop):
            main(["train-supervised", "--data", str(tmp_path), "--out", str(tmp_path / "w.ngw")])
        _, hp, cfg = calls[0]
        assert cfg == SupervisedConfig()
        assert hp == preset("supervised") and hp.dropout == 0.15

    def test_train_rl(self, tmp_path, monkeypatch):
        (tmp_path / "f.cnf").write_text(write_dimacs(random_ksat(8, 28, 3, 0)))
        calls = _intercept(monkeypatch, cli, "train_rl")
        out = str(tmp_path / "w.ngw")
        with pytest.raises(_Stop):
            main(["train-rl", "--formulas", str(tmp_path), "--out", out])
        _, hp, cfg = calls[0]
        assert cfg == RLConfig(checkpoint_path=out)
        assert hp == preset("rl") and hp.dropout == 0.15

    def test_bench_has_no_conflict_budget(self, sat_file, tmp_path, monkeypatch):
        calls = _intercept(monkeypatch, bench, "run_benchmark")
        with pytest.raises(_Stop):
            main(["bench", "--instances", str(tmp_path), "--out", str(tmp_path / "out")])
        _, variants, seeds, cfg = calls[0]
        assert (variants, seeds) == (list(bench.VARIANTS), [0])
        assert cfg == bench.BenchConfig(solver=SolverConfig())
        assert cfg.budget == Budget(max_seconds=60.0)

    @pytest.mark.parametrize("flags, budget", [
        (["--conflicts", "30"], Budget(max_conflicts=30)),
        (["--time", "5"], Budget(max_seconds=5.0)),
        (["--conflicts", "30", "--time", "5"], Budget(max_conflicts=30, max_seconds=5.0)),
    ], ids=["conflicts", "time", "both"])
    def test_a_bench_budget_flag_replaces_the_default_budget(self, sat_file, tmp_path, monkeypatch, flags,
                                                             budget):
        calls = _intercept(monkeypatch, bench, "run_benchmark")
        with pytest.raises(_Stop):
            main(["bench", "--instances", str(tmp_path), "--out", str(tmp_path / "out"), "--variants", "vanilla",
                  *flags])
        assert calls[0][3].budget == budget


class TestImpossibleSolverFlags:
    @pytest.mark.parametrize("flag", [["--kappa", "-1"], ["--temperature", "0"], ["--edge-cap", "0"],
                                      ["--warmup-conflicts", "-1"], ["--schedule", "5", "-1", "5"],
                                      ["--conflicts", "-3"]])
    def test_solve_and_bench_exit_2(self, sat_file, tmp_path, capsys, flag):
        name = flag[0].lstrip("-").replace("-", "_")
        name = {"schedule": "schedule_quad", "conflicts": "max_conflicts"}.get(name, name)
        bench_argv = ["bench", "--instances", str(tmp_path), "--out", str(tmp_path / "out")]
        for argv in (["solve", sat_file], bench_argv):
            assert main([*argv, *flag]) == 2
            assert f"error: {name} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag, name", [
        ("solve", ["--time", "nan"], "max_seconds"),
        ("solve", ["--time", "-1"], "max_seconds"),
        ("bench", ["--workers", "0"], "parallelism"),
        ("bench", ["--time", "-1"], "max_seconds"),
        ("datagen", ["--dump-interval", "0"], "dump_interval"),
        ("datagen", ["--budget-conflicts", "-5"], "budget_conflicts"),
        ("datagen", ["--max-clauses", "0"], "max_clauses"),
        ("datagen", ["--workers", "0"], "workers"),
        ("train-supervised", ["--epochs", "0"], "epochs"),
        ("train-supervised", ["--batch-size", "0"], "batch_size"),
        ("train-supervised", ["--lr", "0"], "lr"),
        ("train-supervised", ["--dropout", "-0.5"], "dropout"),
        ("extract", ["--edge-cap", "0"], "edge_cap"),
        ("env-rollout", ["--episodes", "0"], "episodes"),
        ("solve", ["--mode", "random", "--seed", "-1"], "seed"),
        ("env-rollout", ["--seed", "-1"], "seed"),
        ("train-supervised", ["--seed", "-1"], "seed"),
        ("train-rl", ["--seed", "-1"], "seed"),
    ])
    def test_other_commands_exit_2(self, sat_file, tmp_path, capsys, command, flag, name):
        out = tmp_path / "out"
        argv = {
            "solve": ["solve", sat_file],
            "bench": ["bench", "--instances", str(tmp_path), "--out", str(out)],
            "datagen": ["datagen", "--input", str(tmp_path), "--output", str(out)],
            "train-supervised": ["train-supervised", "--data", str(tmp_path), "--out", str(out)],
            "train-rl": ["train-rl", "--formulas", str(tmp_path), "--out", str(out)],
            "extract": ["extract", sat_file],
            "env-rollout": ["env-rollout", sat_file],
        }[command]
        assert main([*argv, *flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {name} must be" in captured.err
        assert not out.exists()

    def test_datagen_hashes_a_negative_seed(self, tmp_path, capsys):
        instances = tmp_path / "instances"
        instances.mkdir()
        (instances / "i.cnf").write_text(write_dimacs(random_ksat(25, 110, 3, 0)))
        argv = ["datagen", "--input", str(instances), "--output", str(tmp_path / "out"),
                "--budget-conflicts", "200", "--dump-interval", "50", "--seed", "-1"]
        assert main(argv) == 0
        assert "wrote" in capsys.readouterr().out


class TestUnreadableInput:
    """Input a command cannot read ends it with ``error: ...`` and exit 1,
    not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["solve", "{bad}"],
        ["solve", "{missing}"],
        ["extract", "{bad}"],
        ["env-rollout", "{bad}"],
        ["env-rollout", "{good}", "--policy", "weights", "--weights", "{good}"],
        ["env-rollout", "{good}", "--policy", "scripted", "--actions", "a,b"],
        ["train-rl", "--formulas", "{bad_dir}", "--out", "{out}"],
        ["train-supervised", "--data", "{empty_dir}", "--out", "{out}"],
        ["bench", "--instances", "{bad_dir}", "--out", "{out}", "--variants", "vanilla"],
        ["train-rl", "--formulas", "{trivial_dir}", "--out", "{out}"],
    ])
    def test_error_and_exit_1(self, tmp_path, capsys, argv):
        paths = {name: tmp_path / name for name in ("bad_dir", "empty_dir", "trivial_dir", "out")}
        for name in ("bad_dir", "empty_dir", "trivial_dir"):
            paths[name].mkdir()
        # units decide it at the root, so no episode can start
        (paths["trivial_dir"] / "trivial.cnf").write_text("p cnf 2 2\n1 0\n2 0\n")
        paths["bad"] = paths["bad_dir"] / "bad.cnf"
        paths["bad"].write_text("p cnf 2 1\n1 x 0\n")
        paths["good"] = tmp_path / "good.cnf"
        paths["good"].write_text("p cnf 2 1\n1 2 0\n")
        paths["missing"] = tmp_path / "missing.cnf"
        assert main([arg.format(**paths) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def _readme_commands():
    """Every ``python3 -m gluesat.cli ...`` line in README.md's fenced code
    blocks, joined across backslash continuations, as argument lists."""
    commands, in_block, line = [], False, ""
    for raw in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
        if raw.strip().startswith("```"):
            in_block, line = not in_block, ""
            continue
        if not in_block:
            continue
        line += raw.strip()
        if line.endswith("\\"):
            line = line[:-1] + " "
            continue
        if line.startswith("python3 -m gluesat.cli "):
            commands.append(shlex.split(line, comments=True)[3:])
        line = ""
    return commands


README_COMMANDS = _readme_commands()


def test_readme_lists_its_commands():
    # the parser of each subcommand shows up at least once
    assert {argv[0] for argv in README_COMMANDS} >= {
        "solve", "extract", "datagen", "train-supervised", "train-rl", "env-rollout", "bench"}


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_command_parses(argv):
    # a flag retired from the parser must not linger in the docs
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"README command does not parse (exit {exc.code}): {' '.join(argv)}")
