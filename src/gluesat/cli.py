"""Command-line interface: solve, extract, datagen, train-supervised,
train-rl, env-rollout, and bench subcommands."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .cnf import parse_dimacs
from .datagen import DatagenConfig, build_dataset, load_dataset
from .extract import extract_graph
from .network import HyperParams, forward, load_weights, preset, save_weights
from .solver import SAT, UNKNOWN, UNSAT, Budget, Solver, SolverConfig, schedule_threshold
from .training import RLConfig, SupervisedConfig, sample_action, train_rl, train_supervised

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_UNKNOWN = 0

_SCHEDULE = ("schedule_base", "schedule_quad", "schedule_cap")


class _ConfigError(Exception):
    """A flag value that its config refuses; main reports it and exits 2."""


def _error(message, code=1) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _config(cls, args, **extra):
    """Build the config dataclass ``cls`` from the parsed flags named like
    its fields (see ``dest=``), plus ``extra``.  Each such flag defaults to
    its field's default, so the config of a command line that sets none of
    them equals ``cls(**extra)``."""
    names = {f.name for f in fields(cls)} - extra.keys()
    try:
        return cls(**{k: v for k, v in vars(args).items() if k in names}, **extra)
    except ValueError as exc:
        raise _ConfigError(exc) from None


def _seed(args) -> int:
    """The --seed of solve and env-rollout, which seeds numpy generators."""
    if args.seed < 0:
        raise _ConfigError(f"seed must be >= 0, got {args.seed}")
    return args.seed


def _add_solver_flags(p):
    """The flags solve and bench share: conflict budget and solver settings."""
    p.add_argument("--conflicts", type=int, dest="max_conflicts", metavar="CONFLICTS",
                   help="conflict budget; none unless given")
    p.add_argument("--kappa", type=float, default=SolverConfig.kappa)
    p.add_argument("--temperature", type=float, default=SolverConfig.temperature)
    p.add_argument("--schedule", type=int, nargs=3, default=[getattr(SolverConfig, f) for f in _SCHEDULE],
                   metavar=("BASE", "QUAD", "CAP"))
    p.add_argument("--edge-cap", type=int, default=SolverConfig.edge_cap)
    p.add_argument("--warmup-conflicts", type=int, default=SolverConfig.warmup_conflicts)


def _solver_config(args) -> SolverConfig:
    return _config(SolverConfig, args, **dict(zip(_SCHEDULE, args.schedule)))


def _refuse_no_refocus(cfg: SolverConfig, max_conflicts):
    """Refuse an oracle run whose conflict budget ends before its first
    refocus is due: it would quietly be a vanilla search."""
    if max_conflicts is not None and max_conflicts <= cfg.first_refocus_due():
        first = schedule_threshold(1, cfg.schedule_base, cfg.schedule_quad, cfg.schedule_cap)
        raise _ConfigError(
            f"--conflicts {max_conflicts} ends before the first refocus, which needs more than "
            f"warmup_conflicts={cfg.warmup_conflicts} and the first schedule threshold of {first} "
            f"conflicts; lower --schedule (or --warmup-conflicts) or raise --conflicts")


def _warn_no_refocus(what, reached, cfg: SolverConfig):
    """Warn on stderr that an oracle run ended without a refocus: it ran
    the vanilla search."""
    print(f"warning: {what} never refocused, so it ran the vanilla search: it reached {reached} "
          f"conflicts, and the first refocus is due after {cfg.first_refocus_due()}", file=sys.stderr)


def _add_network_flags(p):
    """The flags train-supervised and train-rl share: the network's shape."""
    p.add_argument("--preset", choices=["supervised", "rl"], default=None)
    p.add_argument("--hyper", type=int, nargs=6, default=None,
                   metavar=("DELTA_L", "DELTA_C", "TAU", "N_L", "N_C", "N_P"))


def _cmd_solve(args) -> int:
    cfg = _solver_config(args)
    budget = _config(Budget, args)
    seed = _seed(args)
    if args.mode != "vanilla":
        _refuse_no_refocus(cfg, budget.max_conflicts)
    formula = parse_dimacs(Path(args.input).read_text())
    oracle = bench_mod.make_oracle(args.mode, seed, args.weights)
    result = Solver(formula, config=cfg, oracle=oracle).solve(budget=budget)
    if args.mode != "vanilla" and result.status == UNKNOWN and result.stats.refocuses == 0:
        _warn_no_refocus(f"the {args.mode} solve", result.stats.conflicts, cfg)
    payload = {"status": result.status, **asdict(result.stats)}
    if result.model is not None and args.model:
        payload["model"] = result.model
    print(json.dumps(payload))
    if result.status == SAT:
        return EXIT_SAT
    if result.status == UNSAT:
        return EXIT_UNSAT
    return EXIT_UNKNOWN


def _cmd_extract(args) -> int:
    edge_cap = _config(SolverConfig, args).edge_cap
    formula = parse_dimacs(Path(args.input).read_text())
    solver = Solver(formula)
    if not solver.propagate_root():
        return _error("formula conflicts during propagation")
    if args.assign:
        for tok in args.assign.split(","):
            try:
                lit = int(tok)
            except ValueError:
                lit = 0
            if not 0 < abs(lit) <= formula.num_vars:
                return _error(f"{tok!r} is not a literal of the formula")
            if solver.value(lit) == 1:
                continue
            if solver.value(lit) == -1:
                return _error(f"literal {lit} already falsified")
            if solver.decide(lit) is not None:
                return _error(f"conflict after assigning {lit}")
    graph = extract_graph(solver, edge_cap)
    if graph is None:
        print("skip: edge cap exceeded by original clauses")
        return 0
    print(f"p graph {graph.num_clauses} {graph.num_vars}")
    print("varmap " + " ".join(str(v) for v in graph.var_map))
    for row, col in zip(graph.rows.tolist(), graph.cols.tolist()):
        print(f"{row} {col}")
    return 0


def _cmd_datagen(args) -> int:
    rows = build_dataset(args.input, args.output, _config(DatagenConfig, args))
    print(f"wrote {len(rows)} examples to {args.output}")
    return 0


def _resolve_hyper(args, default_preset, **overrides):
    try:
        if args.hyper is not None:
            return HyperParams(*args.hyper, **overrides)
        return replace(preset(args.preset or default_preset), **overrides)
    except ValueError as exc:
        raise _ConfigError(exc) from None


def _cmd_train_supervised(args) -> int:
    cfg = _config(SupervisedConfig, args)
    hp = _resolve_hyper(args, "supervised", dropout=args.dropout)
    dataset = load_dataset(args.data)
    if not dataset:
        return _error("empty dataset")
    result = train_supervised(dataset, hp, cfg)
    save_weights(result.params, hp, args.out)
    if args.metrics:
        with open(args.metrics, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "mean_kl"])
            for i, kl in enumerate(result.epoch_kl, start=1):
                writer.writerow([i, kl])
    print(f"trained {cfg.epochs} epochs; final mean KL {result.epoch_kl[-1]:.4f}; weights at {args.out}")
    return 0


def _cmd_train_rl(args) -> int:
    cfg = _config(RLConfig, args, checkpoint_path=args.out)
    hp = _resolve_hyper(args, "rl")
    paths = sorted(Path(args.formulas).glob("*.cnf"))
    formulas = [parse_dimacs(p.read_text()) for p in paths]
    if not formulas:
        return _error("no formulas found")
    result = train_rl(formulas, hp, cfg)
    save_weights(result.params, hp, args.out)
    if args.metrics:
        with open(args.metrics, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(result.history[0]))
            writer.writeheader()
            writer.writerows(result.history)
    final = result.history[-1]["mean_return"] if result.history else float("nan")
    print(f"trained {cfg.batches} batches; final mean return {final:.4f}; weights at {args.out}")
    return 0


def _cmd_env_rollout(args) -> int:
    from .env import GlueEnv

    if args.episodes < 1:
        raise _ConfigError(f"episodes must be >= 1, got {args.episodes}")
    seed = _seed(args)
    formula = parse_dimacs(Path(args.input).read_text())
    policy = None
    script = None
    if args.policy == "weights":
        if not args.weights:
            return _error("--weights required for --policy weights")
        params, hp = load_weights(args.weights)
        policy = (params, hp)
    elif args.policy == "scripted":
        if not args.actions:
            return _error("--actions required for --policy scripted")
        script = [int(tok) for tok in args.actions.split(",")]
    rng = np.random.default_rng(seed)
    env = GlueEnv()
    for episode in range(args.episodes):
        obs = env.reset(formula, seed=int(rng.integers(2**63)))
        total = 0.0
        step = 0
        print(f"episode {episode}")
        while True:
            if script is not None:
                action = script[step % len(script)] % len(obs.var_map)
            elif policy is None:
                action = int(rng.integers(len(obs.var_map)))
            else:
                action, _ = sample_action(forward(policy[0], policy[1], obs).policy_logits, rng)
            var = obs.var_map[action]
            obs, reward, done = env.step(action)
            total += reward
            polarity = env.solver.value(var)
            print(f"  step {step}: var {var} -> {'T' if polarity > 0 else 'F'}, reward {reward:+.4f}")
            step += 1
            if done:
                kind, glue = env.terminal
                extra = f" (glue {glue})" if glue is not None else ""
                print(f"  terminal: {kind}{extra}, return {total:+.4f}")
                break
    return 0


def _cmd_bench(args) -> int:
    cfg = _config(bench_mod.BenchConfig, args, solver=_solver_config(args))
    variants = args.variants.split(",")
    if any(v != "vanilla" for v in variants):
        _refuse_no_refocus(cfg.solver, cfg.max_conflicts)
    instances = sorted(str(p) for d in args.instances for p in Path(d).glob("*.cnf"))
    if not instances:
        return _error("no instances found")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = bench_mod.run_benchmark(
        instances, variants, args.seeds, cfg, weights=args.weights,
        records_csv=out_dir / "records.csv",
    )
    bench_mod.write_outputs(records, out_dir, cfg.timeout or 0.0)
    for variant in dict.fromkeys(variants):
        runs = [r for r in records if r.variant == variant]
        if variant != "vanilla" and not any(r.refocuses for r in runs):
            _warn_no_refocus(f"bench variant {variant!r}", f"at most {max(r.conflicts for r in runs)}",
                             cfg.solver)
    print(f"{len(records)} records; outputs in {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gluesat")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a DIMACS file, printing stats as JSON")
    p.add_argument("input")
    p.add_argument("--mode", choices=bench_mod.VARIANTS, default="vanilla")
    p.add_argument("--weights", default=None)
    p.add_argument("--model", action="store_true", help="include the model in the JSON output")
    p.add_argument("--seed", type=int, default=0,
                   help="seeds the random mode's oracle; vanilla and neuro solves do not depend on it")
    p.add_argument("--time", type=float, dest="max_seconds", metavar="TIME",
                   help="wall-clock budget in seconds")
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("extract", help="dump the residual clause-literal graph")
    p.add_argument("input")
    p.add_argument("--assign", default="", help="comma-separated decision literals")
    p.add_argument("--edge-cap", type=int, default=SolverConfig.edge_cap)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("datagen", help="build a supervised dataset from DIMACS files")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--budget-conflicts", type=int, default=DatagenConfig.budget_conflicts)
    p.add_argument("--dump-interval", type=int, default=DatagenConfig.dump_interval)
    p.add_argument("--max-clauses", type=int, default=DatagenConfig.max_clauses)
    p.add_argument("--seed", type=int, default=DatagenConfig.seed)
    p.add_argument("--workers", type=int, default=DatagenConfig.workers)
    p.add_argument("--no-augment", dest="augment", action="store_false")
    p.set_defaults(func=_cmd_datagen)

    p = sub.add_parser("train-supervised", help="train on glue-count labels with ASGD")
    p.add_argument("--data", required=True)
    _add_network_flags(p)
    p.add_argument("--dropout", type=float, default=HyperParams.dropout,
                   help="training dropout, for a preset or --hyper alike")
    p.add_argument("--lr", type=float, default=SupervisedConfig.lr)
    p.add_argument("--epochs", type=int, default=SupervisedConfig.epochs)
    p.add_argument("--batch-size", type=int, default=SupervisedConfig.batch_size)
    p.add_argument("--seed", type=int, default=SupervisedConfig.seed)
    p.add_argument("--out", required=True)
    p.add_argument("--metrics", default=None)
    p.set_defaults(func=_cmd_train_supervised)

    p = sub.add_parser("train-rl", help="REINFORCE training over a formula directory")
    p.add_argument("--formulas", required=True)
    _add_network_flags(p)
    p.add_argument("--batches", type=int, default=RLConfig.batches)
    p.add_argument("--workers", type=int, default=RLConfig.workers)
    p.add_argument("--episodes-per-worker", type=int, default=RLConfig.episodes_per_worker)
    p.add_argument("--grad-steps", type=int, default=RLConfig.grad_steps)
    p.add_argument("--lr", type=float, default=RLConfig.lr)
    p.add_argument("--seed", type=int, default=RLConfig.seed)
    p.add_argument("--out", required=True)
    p.add_argument("--metrics", default=None)
    p.set_defaults(func=_cmd_train_rl)

    p = sub.add_parser("env-rollout", help="print (action, polarity, reward) traces")
    p.add_argument("input")
    p.add_argument("--policy", choices=["random", "weights", "scripted"], default="random")
    p.add_argument("--weights", default=None)
    p.add_argument("--actions", default="", help="comma-separated action indices for --policy scripted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--episodes", type=int, default=1)
    p.set_defaults(func=_cmd_env_rollout)

    # no abbreviations, so solve's --seed and --time are refused here rather
    # than read as --seeds and --timeout
    p = sub.add_parser("bench", help="compare solver variants over instance directories",
                       allow_abbrev=False)
    p.add_argument("--instances", required=True, nargs="+", metavar="DIR",
                   help="directories whose *.cnf files are benchmarked; file names must be unique")
    p.add_argument("--variants", default=",".join(bench_mod.VARIANTS))
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    p.add_argument("--timeout", type=float, default=bench_mod.BenchConfig.timeout)
    p.add_argument("--weights", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, dest="parallelism", metavar="WORKERS",
                   default=bench_mod.BenchConfig.parallelism)
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    """Run one subcommand.  The one error boundary: an impossible flag value
    exits 2, unreadable or inconsistent input (a ValueError such as a DIMACS
    or weight-file error, or an OSError) exits 1, each with ``error: ...``
    on stderr."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _ConfigError as exc:
        return _error(exc, 2)
    except (ValueError, OSError) as exc:
        return _error(exc)


if __name__ == "__main__":
    sys.exit(main())
