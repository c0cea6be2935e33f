"""Command-line interface: solve, extract, datagen, train-supervised,
train-rl, env-rollout, and bench subcommands."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .cnf import parse_dimacs
from .datagen import DatagenConfig, build_dataset, load_dataset
from .extract import extract_graph
from .network import forward, load_weights, preset, save_weights
from .solver import SAT, UNSAT, Budget, Solver, SolverConfig, random_oracle
from .training import RLConfig, SupervisedConfig, train_rl, train_supervised

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_UNKNOWN = 0


def _add_solver_flags(p):
    """The flags solve and bench share: conflict budget and solver settings."""
    p.add_argument("--conflicts", type=int, default=None, help="conflict budget")
    p.add_argument("--kappa", type=float, default=1e4)
    p.add_argument("--temperature", type=float, default=4.0)
    p.add_argument("--schedule", type=int, nargs=3, default=[50_000, 1_000, 250_000],
                   metavar=("BASE", "QUAD", "CAP"))
    p.add_argument("--edge-cap", type=int, default=10_000_000)
    p.add_argument("--warmup-mode", choices=["time", "conflicts"], default="time")
    p.add_argument("--warmup-seconds", type=float, default=15.0)
    p.add_argument("--warmup-conflicts", type=int, default=1000)


def _solver_config(args) -> SolverConfig:
    base, quad, cap = args.schedule
    return SolverConfig(
        kappa=args.kappa,
        temperature=args.temperature,
        schedule_base=base,
        schedule_quad=quad,
        schedule_cap=cap,
        edge_cap=args.edge_cap,
        warmup_mode=args.warmup_mode,
        warmup_seconds=args.warmup_seconds,
        warmup_conflicts=args.warmup_conflicts,
        seed=args.seed,
    )


def _make_oracle(mode, weights, seed):
    if mode == "vanilla":
        return None
    if mode == "random":
        return random_oracle(seed)
    if weights is None:
        raise SystemExit("--weights is required for --mode neuro")
    params, hp = load_weights(weights)
    return lambda g: forward(params, hp, g).policy_logits


def _cmd_solve(args) -> int:
    formula = parse_dimacs(Path(args.input).read_text())
    cfg = _solver_config(args)
    oracle = _make_oracle(args.mode, args.weights, args.seed)
    budget = Budget(max_conflicts=args.conflicts, max_decisions=args.decisions, max_seconds=args.time)
    result = Solver(formula, config=cfg, oracle=oracle).solve(budget=budget)
    payload = {"status": result.status, **result.stats.as_dict()}
    if result.model is not None and args.model:
        payload["model"] = result.model
    print(json.dumps(payload))
    if result.status == SAT:
        return EXIT_SAT
    if result.status == UNSAT:
        return EXIT_UNSAT
    return EXIT_UNKNOWN


def _cmd_extract(args) -> int:
    formula = parse_dimacs(Path(args.input).read_text())
    solver = Solver(formula)
    conflicted = solver._root_unsat
    for lit in solver._root_units:
        if solver.value(lit) == -1:
            conflicted = True
            break
        if solver.value(lit) == 0:
            solver._enqueue(lit, None)
    if conflicted or solver._propagate() is not None:
        print("error: formula conflicts during propagation", file=sys.stderr)
        return 1
    if args.assign:
        for tok in args.assign.split(","):
            lit = int(tok)
            if solver.value(lit) == 1:
                continue
            if solver.value(lit) == -1:
                print(f"error: literal {lit} already falsified", file=sys.stderr)
                return 1
            solver.trail_lim.append(len(solver.trail))
            solver._enqueue(lit, None)
            if solver._propagate() is not None:
                print(f"error: conflict after assigning {lit}", file=sys.stderr)
                return 1
    graph = extract_graph(solver, args.edge_cap)
    if graph is None:
        print("skip: edge cap exceeded by original clauses")
        return 0
    print(f"p graph {graph.num_clauses} {graph.num_vars}")
    print("varmap " + " ".join(str(v) for v in graph.var_map))
    for row, col in zip(graph.rows.tolist(), graph.cols.tolist()):
        print(f"{row} {col}")
    return 0


def _cmd_datagen(args) -> int:
    cfg = DatagenConfig(
        budget_conflicts=args.budget_conflicts,
        budget_seconds=args.budget_seconds,
        dump_interval=args.dump_interval,
        max_clauses=args.max_clauses,
        seed=args.seed,
        workers=args.workers,
        augment=not args.no_augment,
    )
    rows = build_dataset(args.input, args.output, cfg)
    print(f"wrote {len(rows)} examples to {args.output}")
    return 0


def _resolve_hyper(args, default_preset):
    if args.hyper is not None:
        from .network import HyperParams

        dl, dc, tau, n_l, n_c, n_p = args.hyper
        return HyperParams(delta_l=dl, delta_c=dc, tau_iters=tau, n_l=n_l, n_c=n_c,
                           n_p=n_p, dropout=args.dropout)
    return preset(args.preset or default_preset)


def _cmd_train_supervised(args) -> int:
    dataset = load_dataset(args.data)
    if not dataset:
        print("error: empty dataset", file=sys.stderr)
        return 1
    hp = _resolve_hyper(args, "supervised")
    cfg = SupervisedConfig(lr=args.lr, epochs=args.epochs, batch_size=args.batch_size, seed=args.seed)
    result = train_supervised(dataset, hp, cfg)
    save_weights(result.params, hp, args.out)
    if args.metrics:
        with open(args.metrics, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "mean_kl"])
            for i, kl in enumerate(result.epoch_kl, start=1):
                writer.writerow([i, kl])
    print(f"trained {args.epochs} epochs; final mean KL {result.epoch_kl[-1]:.4f}; weights at {args.out}")
    return 0


def _cmd_train_rl(args) -> int:
    try:
        cfg = RLConfig(
            workers=args.workers,
            episodes_per_worker=args.episodes_per_worker,
            grad_steps=args.grad_steps,
            batches=args.batches,
            lr=args.lr,
            seed=args.seed,
            checkpoint_path=args.out,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    paths = sorted(Path(args.formulas).glob("*.cnf"))
    formulas = [parse_dimacs(p.read_text()) for p in paths]
    if not formulas:
        print("error: no formulas found", file=sys.stderr)
        return 1
    hp = _resolve_hyper(args, "rl")
    result = train_rl(formulas, hp, cfg)
    save_weights(result.params, hp, args.out)
    if args.metrics:
        with open(args.metrics, "w", newline="") as fh:
            writer = csv.writer(fh)
            columns = ["batch", "episodes", "mean_return", "policy_loss", "value_loss", "total_loss", "grad_norm"]
            writer.writerow(columns)
            for row in result.history:
                writer.writerow([row[c] for c in columns])
    final = result.history[-1]["mean_return"] if result.history else float("nan")
    print(f"trained {args.batches} batches; final mean return {final:.4f}; weights at {args.out}")
    return 0


def _cmd_env_rollout(args) -> int:
    from .env import GlueEnv
    from .training import log_softmax

    formula = parse_dimacs(Path(args.input).read_text())
    policy = None
    script = None
    if args.policy == "weights":
        if not args.weights:
            print("error: --weights required for --policy weights", file=sys.stderr)
            return 1
        params, hp = load_weights(args.weights)
        policy = (params, hp)
    elif args.policy == "scripted":
        if not args.actions:
            print("error: --actions required for --policy scripted", file=sys.stderr)
            return 1
        script = [int(tok) for tok in args.actions.split(",")]
    rng = np.random.default_rng(args.seed)
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
                logits = forward(policy[0], policy[1], obs).policy_logits
                probs = np.exp(log_softmax(logits))
                action = int(rng.choice(len(probs), p=probs / probs.sum()))
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
    instances = sorted(str(p) for d in args.instances for p in Path(d).glob("*.cnf"))
    if not instances:
        print("error: no instances found", file=sys.stderr)
        return 1
    variants = args.variants.split(",")
    base, quad, cap = args.schedule
    solver_cfg = SolverConfig(
        schedule_base=base, schedule_quad=quad, schedule_cap=cap,
        warmup_mode=args.warmup_mode, warmup_seconds=args.warmup_seconds,
        warmup_conflicts=args.warmup_conflicts, edge_cap=args.edge_cap,
        kappa=args.kappa, temperature=args.temperature,
    )
    cfg = bench_mod.BenchConfig(
        timeout=args.timeout,
        max_conflicts=args.conflicts,
        parallelism=args.workers,
        solver=solver_cfg,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        records = bench_mod.run_benchmark(
            instances, variants, args.seeds, cfg, weights=args.weights,
            records_csv=out_dir / "records.csv",
        )
    except ValueError as exc:   # neuro without weights, clashing names, malformed DIMACS
        print(f"error: {exc}", file=sys.stderr)
        return 1
    effective_timeout = args.timeout if args.timeout is not None else 0.0
    bench_mod.write_outputs(records, out_dir, effective_timeout)
    print(f"{len(records)} records; outputs in {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gluesat")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a DIMACS file, printing stats as JSON")
    p.add_argument("input")
    p.add_argument("--mode", choices=["vanilla", "neuro", "random"], default="vanilla")
    p.add_argument("--weights", default=None)
    p.add_argument("--model", action="store_true", help="include the model in the JSON output")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--decisions", type=int, default=None, help="decision budget")
    p.add_argument("--time", type=float, default=None, help="wall-clock budget in seconds")
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("extract", help="dump the residual clause-literal graph")
    p.add_argument("input")
    p.add_argument("--assign", default="", help="comma-separated decision literals")
    p.add_argument("--edge-cap", type=int, default=10_000_000)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("datagen", help="build a supervised dataset from DIMACS files")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--budget-conflicts", type=int, default=20_000)
    p.add_argument("--budget-seconds", type=float, default=None,
                   help="wall-clock labelling budget (nondeterministic)")
    p.add_argument("--dump-interval", type=int, default=5000)
    p.add_argument("--max-clauses", type=int, default=150_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--no-augment", action="store_true")
    p.set_defaults(func=_cmd_datagen)

    p = sub.add_parser("train-supervised", help="train on glue-count labels with ASGD")
    p.add_argument("--data", required=True)
    p.add_argument("--preset", choices=["supervised", "rl"], default=None)
    p.add_argument("--hyper", type=int, nargs=6, default=None,
                   metavar=("DELTA_L", "DELTA_C", "TAU", "N_L", "N_C", "N_P"))
    p.add_argument("--dropout", type=float, default=0.15)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--metrics", default=None)
    p.set_defaults(func=_cmd_train_supervised)

    p = sub.add_parser("train-rl", help="REINFORCE training over a formula directory")
    p.add_argument("--formulas", required=True)
    p.add_argument("--preset", choices=["supervised", "rl"], default=None)
    p.add_argument("--hyper", type=int, nargs=6, default=None,
                   metavar=("DELTA_L", "DELTA_C", "TAU", "N_L", "N_C", "N_P"))
    p.add_argument("--dropout", type=float, default=0.15)
    p.add_argument("--batches", type=int, default=50)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--episodes-per-worker", type=int, default=2)
    p.add_argument("--grad-steps", type=int, default=2)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--variants", default="vanilla,neuro,random")
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument("--weights", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
