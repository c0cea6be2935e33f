"""Benchmarking the three solver variants and scoring the results.

Run:  python3 demos/06_benchmark.py
"""

import tempfile
from pathlib import Path

from gluesat import random_ksat, write_dimacs
from gluesat.bench import (
    BenchConfig,
    paired,
    par2,
    run_benchmark,
    write_outputs,
)
from gluesat.network import init_params, preset, save_weights
from gluesat.solver import Budget, SolverConfig

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    inst_dir = tmp / "instances"
    inst_dir.mkdir()
    for seed in range(10):
        (inst_dir / f"i{seed:02d}.cnf").write_text(write_dimacs(random_ksat(50, 213, 3, seed)))

    hp = preset("supervised")
    weights = tmp / "w.ngw"
    save_weights(init_params(hp, seed=0), hp, weights)

    # desk-scale config: conflict budget, no wall clock, aggressive refocus
    # schedule so the oracle variants actually fire at this problem size
    solver_cfg = SolverConfig(
        warmup_conflicts=0,
        schedule_base=50, schedule_quad=0, schedule_cap=50, refocus_margin=0.0,
    )
    cfg = BenchConfig(budget=Budget(max_conflicts=20_000), parallelism=2, solver=solver_cfg)

    instances = sorted(str(p) for p in inst_dir.glob("*.cnf"))
    records = run_benchmark(
        instances, ["vanilla", "neuro", "random"], seeds=[0, 1],
        config=cfg, weights=str(weights), records_csv=tmp / "records.csv",
    )
    print(f"{len(records)} records (10 instances x 3 variants x 2 seeds)")

    # PAR-2 in conflicts: a run costs its own conflicts, an unsolved one
    # twice the budget
    scores = par2(records, "conflicts", 20_000)
    print("\nnormalized PAR-2 in conflicts (lower is better):")
    for variant, splits in sorted(scores.items()):
        print(f"  {variant:8s} overall {splits['overall']:8.3f}  sat {splits['sat']:8.3f}"
              f"  unsat {splits['unsat']:8.3f}")

    # paired over the (instance, seed) runs both variants made: the run
    # with the lower PAR-2 cost in conflicts wins
    print("\npaired wins/losses/ties in conflicts:")
    for row in paired(records, "conflicts", 20_000):
        print(f"  {row['variant_a']:8s} vs {row['variant_b']:8s}"
              f"  {row['wins_a']}/{row['wins_b']}/{row['ties']}")

    out_dir = tmp / "out"
    write_outputs(records, out_dir, cfg.budget)
    print("\noutput files:", sorted(p.name for p in out_dir.iterdir()))
    print("(records.csv is append-only; re-running the benchmark resumes from it)")
