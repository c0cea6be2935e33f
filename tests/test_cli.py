import csv
import json
from dataclasses import replace

import pytest

from gluesat.cli import main
from gluesat.cnf import random_ksat, write_dimacs
from gluesat.network import init_params, load_weights, preset, save_weights


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
        code = main(["solve", str(p), "--decisions", "0"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["status"] == "UNKNOWN"

    def test_neuro_mode(self, tmp_path, weights_file, capsys):
        p = tmp_path / "inst.cnf"
        p.write_text(write_dimacs(random_ksat(20, 85, 3, 1)))
        code = main(
            [
                "solve", str(p), "--mode", "neuro", "--weights", weights_file,
                "--warmup-mode", "conflicts", "--warmup-conflicts", "0",
                "--schedule", "2", "0", "2", "--conflicts", "5000",
            ]
        )
        assert code in (10, 20)
        json.loads(capsys.readouterr().out)

    def test_neuro_mode_requires_weights(self, sat_file, capsys):
        assert main(["solve", sat_file, "--mode", "neuro"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "weights" in captured.err

    def test_random_mode(self, tmp_path, capsys):
        p = tmp_path / "inst.cnf"
        p.write_text(write_dimacs(random_ksat(15, 63, 3, 2)))
        code = main(["solve", str(p), "--mode", "random", "--seed", "7",
                     "--warmup-mode", "conflicts", "--warmup-conflicts", "0"])
        assert code in (10, 20)
        json.loads(capsys.readouterr().out)


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

    def test_scripted_policy(self, tmp_path, capsys):
        p = tmp_path / "f.cnf"
        p.write_text(write_dimacs(random_ksat(10, 36, 3, 0)))
        code = main(["env-rollout", str(p), "--policy", "scripted", "--actions", "0,1,2"])
        assert code == 0
        assert "terminal:" in capsys.readouterr().out


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
                "--weights", str(weights), "--conflicts", "5000", "--timeout", "60",
                "--warmup-mode", "conflicts", "--warmup-conflicts", "0",
                "--schedule", "5", "0", "5",
            ]
        ) == 0
        for name in ("records.csv", "aggregates.csv", "par2.txt", "pairwise.csv",
                     "cactus_runtime.csv", "cactus_decisions.csv"):
            assert (out_dir / name).exists()
        with open(out_dir / "records.csv", newline="") as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == 4 * 3 * 2

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
                                 "value_loss", "total_loss", "grad_norm"]
        assert all(float(row["grad_norm"]) > 0 for row in rows)

    @pytest.mark.parametrize("flag", [["--grad-steps", "0"], ["--workers", "0"],
                                      ["--episodes-per-worker", "0"], ["--lr", "-1.0"]])
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

    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--time", "5"], ["--decisions", "10"]])
    def test_bench_rejects_flags_it_ignores(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--instances", str(tmp_path), "--out", str(tmp_path / "out"), *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

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
                "--dropout", "0.0",
            ]
        ) == 0
        _, hp = load_weights(weights)
        assert (hp.delta_l, hp.delta_c, hp.tau_iters) == (4, 6, 1)
        assert hp.dropout == 0.0

    def test_dropout_applies_to_a_preset(self, tmp_path, capsys):
        formulas = tmp_path / "formulas"
        formulas.mkdir()
        (formulas / "f.cnf").write_text(write_dimacs(random_ksat(8, 28, 3, 0)))
        weights = tmp_path / "rl.ngw"
        assert main(
            [
                "train-rl", "--formulas", str(formulas), "--out", str(weights),
                "--batches", "1", "--workers", "1", "--episodes-per-worker", "1",
                "--grad-steps", "1", "--preset", "rl", "--dropout", "0.5",
            ]
        ) == 0
        hyper_line = weights.read_bytes().split(b"\n")[1].split()
        assert hyper_line[0] == b"hyper" and float(hyper_line[7]) == 0.5
        _, hp = load_weights(weights)
        assert hp == replace(preset("rl"), dropout=0.5)
