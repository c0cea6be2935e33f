"""Benchmark harness: run solver variants over instances and seeds, then
score the runs: PAR-2, paired wins, losses and ties, and cactus data.
"""

from __future__ import annotations

import csv
import hashlib
import io
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .cnf import Formula, parse_dimacs
from .solver import SAT, UNKNOWN, UNSAT, Budget, Solver, SolverConfig, SolveStats, random_oracle

__all__ = [
    "BenchConfig",
    "EvalRecord",
    "HINDSIGHT",
    "SoundnessError",
    "VARIANTS",
    "aggregate",
    "cactus_csv",
    "make_oracle",
    "paired",
    "par2",
    "run_benchmark",
    "write_outputs",
]

VARIANTS = ("vanilla", "neuro", "random", "degree")
# the ceiling oracle, kept out of VARIANTS (what bench runs by default)
# because it needs a conflict budget and bench has none by default
HINDSIGHT = "hindsight"


class SoundnessError(RuntimeError):
    """An instance was reported both SAT and UNSAT across runs."""


@dataclass(frozen=True)
class EvalRecord:
    instance: str
    variant: str
    seed: int
    status: str
    runtime: float
    decisions: int
    conflicts: int
    propagations: int
    restarts: int
    refocuses: int
    avg_glue: float
    glr: float


@dataclass
class BenchConfig:
    budget: Budget = field(default_factory=lambda: Budget(max_seconds=60.0))    # per run
    parallelism: int = 1
    solver: SolverConfig | None = None    # shared by every run; None for the defaults

    def __post_init__(self):
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {self.parallelism}")


def _run_seed(instance: str, variant: str, seed: int) -> int:
    digest = hashlib.sha256(f"{instance}:{variant}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


_NETWORK_ORACLES = {}   # weights path -> network oracle, so a process loads each file once


def make_oracle(variant: str, seed: int = 0, weights=None, formula=None, max_conflicts=None):
    """The refocus oracle of one of ``VARIANTS`` or ``HINDSIGHT``: None for
    vanilla (no refocusing), ``random_oracle(seed)`` for random, for degree
    each variable's log(1 + occurrences of either sign) in the residual
    graph, for neuro the network in the ``weights`` file, and for hindsight
    each variable's glue count from a vanilla solve of ``formula`` under
    ``max_conflicts`` (datagen's labelling solve, run here).  Raises
    ValueError for an unknown variant, neuro without weights and hindsight
    without the formula or a conflict budget."""
    if variant == "vanilla":
        return None
    if variant == "random":
        return random_oracle(seed)
    if variant == "degree":
        def degree(graph):
            n = graph.num_vars
            occ = np.bincount(graph.cols, minlength=2 * n)
            return np.log1p(occ[:n] + occ[n:])

        return degree
    if variant == "neuro":
        if weights is None:
            raise ValueError("the neuro variant requires a weights path")
        oracle = _NETWORK_ORACLES.get(weights)
        if oracle is None:
            from .network import forward, load_weights

            params, hp = load_weights(weights)
            oracle = lambda g: forward(params, hp, g).policy_logits  # noqa: E731
            _NETWORK_ORACLES[weights] = oracle
        return oracle
    if variant == HINDSIGHT:
        if formula is None or max_conflicts is None:
            raise ValueError("the hindsight variant requires the formula and a conflict budget")
        stats = Solver(formula).solve(Budget(max_conflicts=max_conflicts)).stats
        counts = np.asarray(stats.glue_counts, dtype=float)
        return lambda g: counts[np.asarray(g.var_map) - 1]
    raise ValueError(f"unknown variant {variant!r}; choose from {', '.join((*VARIANTS, HINDSIGHT))}")


_RECORD_FIELDS = [f.name for f in fields(EvalRecord)]
_RECORD_TYPES = get_type_hints(EvalRecord)
# the EvalRecord columns a solve's SolveStats fills in
_STAT_FIELDS = [name for name in _RECORD_FIELDS if name in {f.name for f in fields(SolveStats)}]


def _solve_task(args):
    path, variant, seed, weights, cfg = args
    name = Path(path).name
    formula = parse_dimacs(Path(path).read_text())
    oracle = make_oracle(variant, _run_seed(name, variant, seed), weights, formula, cfg.budget.max_conflicts)
    result = Solver(formula, config=cfg.solver, oracle=oracle).solve(budget=cfg.budget)
    stats = {field: getattr(result.stats, field) for field in _STAT_FIELDS}
    return EvalRecord(instance=name, variant=variant, seed=seed, status=result.status, **stats)


def _load_records(path) -> list[EvalRecord]:
    """The records of a records.csv; an empty one, as a run killed before
    its first record leaves it, holds none.  Raises ValueError naming the
    columns its header lacks, or an incomplete line: one short of fields,
    or a last line without its line end, as a run killed mid-write leaves."""
    with open(path, newline="") as fh:
        text = fh.read()
    if text and not text.endswith("\n"):
        raise ValueError(f"{path}: line {len(text.splitlines())} is incomplete; remove it to resume")
    reader = csv.DictReader(io.StringIO(text))
    missing = [name for name in _RECORD_FIELDS if name not in (reader.fieldnames or _RECORD_FIELDS)]
    if missing:
        raise ValueError(f"{path}: the header lacks the columns {', '.join(missing)}")
    records = []
    for row in reader:
        if None in row or None in row.values():
            raise ValueError(f"{path}: line {reader.line_num} does not have the header's fields")
        records.append(EvalRecord(**{name: _RECORD_TYPES[name](row[name]) for name in _RECORD_FIELDS}))
    return records


def run_benchmark(instances, variants, seeds, config: BenchConfig | None = None,
                  weights=None, records_csv=None) -> list[EvalRecord]:
    """One EvalRecord per (instance, variant, seed).

    When ``records_csv`` is given, records are appended as runs finish and
    existing rows are not re-run, making an interrupted benchmark resumable.
    Records are keyed by instance file name, so two entries sharing a name
    (the same path twice included) raise ValueError before anything runs,
    as do a repeated variant or seed, a variant outside ``VARIANTS`` and
    ``HINDSIGHT``, neuro without weights and hindsight without a conflict
    budget.  So does a row of ``records_csv`` that no run under the budget
    leaves: one past its conflict limit, or, without a time limit, an
    UNKNOWN one not stopped at that conflict limit.  A row does not show
    its time limit, so resuming under another one mixes the two unseen.
    """
    by_name = {}
    for path in instances:
        name = Path(path).name
        if name in by_name:
            raise ValueError(f"instances {by_name[name]} and {path} share the file name {name!r}")
        by_name[name] = path
    for kind, values in (("variant", variants), ("seed", seeds)):
        if len(set(values)) < len(values):
            raise ValueError(f"repeated {kind} in {list(values)}: each {kind} runs once per instance")
    cfg = config or BenchConfig()
    limit = cfg.budget.max_conflicts
    # refuse a bad variant before records.csv is opened; the empty formula
    # makes hindsight's labelling solve instant
    for variant in variants:
        make_oracle(variant, weights=weights, formula=Formula(0, ()), max_conflicts=limit)
    done = {}
    with ExitStack() as stack:
        writer = None
        if records_csv is not None:
            records_csv = Path(records_csv)
            if records_csv.exists():
                for rec in _load_records(records_csv):
                    if (limit is not None and rec.conflicts > limit) or (
                            rec.status == UNKNOWN and cfg.budget.max_seconds is None and rec.conflicts != limit):
                        raise ValueError(f"{records_csv}: the row {rec.instance},{rec.variant},{rec.seed} "
                                         f"({rec.status} after {rec.conflicts} conflicts) was not run "
                                         f"under {cfg.budget}")
                    done[(rec.instance, rec.variant, rec.seed)] = rec
            sink = stack.enter_context(open(records_csv, "a", newline=""))
            writer = csv.DictWriter(sink, fieldnames=_RECORD_FIELDS)
            if sink.tell() == 0:    # a new file, or one a run killed before its first record left
                writer.writeheader()
        tasks = []
        for path in instances:
            for variant in variants:
                for seed in seeds:
                    if (Path(path).name, variant, seed) not in done:
                        tasks.append((str(path), variant, seed, weights, cfg))
        records = list(done.values())
        run = map
        if cfg.parallelism > 1 and len(tasks) > 1:
            # imported only here: it loads multiprocessing, which nothing else needs
            from concurrent.futures import ProcessPoolExecutor

            run = stack.enter_context(ProcessPoolExecutor(max_workers=cfg.parallelism)).map
        for rec in run(_solve_task, tasks):
            records.append(rec)
            if writer is not None:
                writer.writerow(asdict(rec))
                sink.flush()
    return records


def _verdicts(records) -> dict[str, str]:
    """Each instance's established status, from any run that solved it.
    Raises SoundnessError when an instance collects both SAT and UNSAT."""
    verdicts = {}
    for rec in records:
        if rec.status in (SAT, UNSAT) and verdicts.setdefault(rec.instance, rec.status) != rec.status:
            raise SoundnessError(f"instance {rec.instance} reported both SAT and UNSAT")
    return verdicts


def aggregate(records) -> list[dict]:
    """Per (instance, variant), sorted: the instance's established
    ``status`` (None when no run solved it), the count of ``runs`` and of
    ``solved`` runs, and ``mean_<name>`` over its runs of every statistic a
    solve fills in.  Raises SoundnessError as ``_verdicts`` does."""
    verdicts = _verdicts(records)
    groups = {}
    for rec in records:
        groups.setdefault((rec.instance, rec.variant), []).append(rec)
    return [
        {"instance": instance, "variant": variant, "status": verdicts.get(instance), "runs": len(recs),
         "solved": sum(rec.status in (SAT, UNSAT) for rec in recs),
         **{f"mean_{name}": float(np.mean([getattr(rec, name) for rec in recs])) for name in _STAT_FIELDS}}
        for (instance, variant), recs in sorted(groups.items())
    ]


def _cost(rec, metric: str, limit) -> float:
    """A run's cost: its own ``metric`` when it solved its instance, and
    ``2 * limit`` when not.  Raises ValueError for an unsolved run without
    a ``limit``."""
    if rec.status in (SAT, UNSAT):
        return getattr(rec, metric)
    if limit is None:
        raise ValueError(f"the run {rec.instance},{rec.variant},{rec.seed} is unsolved, with no limit to charge")
    return 2.0 * limit


def par2(records, metric: str, limit) -> dict[str, dict[str, float]]:
    """Normalized PAR-2 per variant: the mean of its runs' ``_cost`` in
    ``metric`` ("runtime" or "conflicts"), with sat-only and unsat-only
    splits over the runs of instances whose status any run established.
    Raises ValueError for no records, another metric, or an unsolved run
    without a ``limit``, and SoundnessError as ``_verdicts`` does."""
    if metric not in ("runtime", "conflicts"):
        raise ValueError(f"metric must be 'runtime' or 'conflicts', got {metric!r}")
    if not records:
        raise ValueError("no records")
    verdicts = _verdicts(records)
    costs = {}
    for rec in records:
        costs.setdefault(rec.variant, []).append((verdicts.get(rec.instance), _cost(rec, metric, limit)))
    return {
        variant: {split: float(np.mean([cost for verdict, cost in runs if status in (None, verdict)] or [0.0]))
                  for split, status in (("overall", None), ("sat", SAT), ("unsat", UNSAT))}
        for variant, runs in sorted(costs.items())
    }


def paired(records, metric: str, limit=None) -> list[dict]:
    """For each pair of variants a < b, the runs each wins and the ties,
    over the (instance, seed) runs both made: on "runtime" and "conflicts"
    the lower ``_cost`` wins, on "avg_glue" the lower value and on "glr"
    the higher.  Raises ValueError for another metric, and for an unsolved
    run without a ``limit`` on a cost metric."""
    if metric in ("runtime", "conflicts"):
        loss = lambda rec: _cost(rec, metric, limit)     # noqa: E731
    elif metric in ("avg_glue", "glr"):
        sign = -1.0 if metric == "glr" else 1.0
        loss = lambda rec: sign * getattr(rec, metric)   # noqa: E731
    else:
        raise ValueError(f"metric must be 'runtime', 'conflicts', 'avg_glue' or 'glr', got {metric!r}")
    runs = {}
    for rec in records:
        runs.setdefault(rec.variant, {})[rec.instance, rec.seed] = loss(rec)
    variants = sorted(runs)
    rows = []
    for i, va in enumerate(variants):
        for vb in variants[i + 1:]:
            pairs = [(runs[va][key], runs[vb][key]) for key in runs[va].keys() & runs[vb].keys()]
            wins_a = sum(a < b for a, b in pairs)
            wins_b = sum(a > b for a, b in pairs)
            rows.append({"variant_a": va, "variant_b": vb, "metric": metric,
                         "wins_a": wins_a, "wins_b": wins_b, "ties": len(pairs) - wins_a - wins_b})
    return rows


def cactus_csv(records, axis: str, path) -> None:
    """Each variant's solved runs sorted by their ``axis`` ("runtime" or
    "decisions"): row i says "solved i runs within cost".  Header:
    variant,solved,cost."""
    if axis not in ("runtime", "decisions"):
        raise ValueError("axis must be 'runtime' or 'decisions'")
    costs = {}
    for rec in records:
        if rec.status in (SAT, UNSAT):
            costs.setdefault(rec.variant, []).append(float(getattr(rec, axis)))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "solved", "cost"])
        for variant, solved in sorted(costs.items()):
            for i, cost in enumerate(sorted(solved), start=1):
                writer.writerow([variant, i, cost])


def write_outputs(records, out_dir, budget: Budget) -> None:
    """Emit the full file suite: records, aggregates, PAR-2, paired W/L/T,
    cactus.  par2.txt scores each variant in seconds unless ``budget`` sets
    a conflict limit alone, and in conflicts when it sets a conflict limit;
    pairwise.csv compares GLR, average glue and the metric of each par2.txt
    block."""
    blocks = []
    if budget.max_seconds is not None or budget.max_conflicts is None:
        blocks.append(("seconds", "runtime", budget.max_seconds))
    if budget.max_conflicts is not None:
        blocks.append(("conflicts", "conflicts", budget.max_conflicts))
    lines, pair_rows = [], paired(records, "glr") + paired(records, "avg_glue")
    for unit, metric, limit in blocks:
        for variant, splits in par2(records, metric, limit).items():
            lines.append(f"{variant} {unit}: overall={splits['overall']:.3f} sat={splits['sat']:.3f} "
                         f"unsat={splits['unsat']:.3f}")
        pair_rows += paired(records, metric, limit)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    aggs = aggregate(records)
    for name, columns, rows in (
            ("records.csv", _RECORD_FIELDS, map(asdict, records)),
            ("aggregates.csv", list(aggs[0]), aggs),
            ("pairwise.csv", ["variant_a", "variant_b", "metric", "wins_a", "wins_b", "ties"], pair_rows)):
        with open(out_dir / name, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns)
            writer.writeheader()
            writer.writerows(rows)
    (out_dir / "par2.txt").write_text("\n".join(lines) + "\n")
    cactus_csv(records, "runtime", out_dir / "cactus_runtime.csv")
    cactus_csv(records, "decisions", out_dir / "cactus_decisions.csv")
