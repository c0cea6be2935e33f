"""Benchmark harness: run solver variants over instances and seeds, then
aggregate into PAR-2 scores, pairwise metric comparisons, and cactus data.
"""

from __future__ import annotations

import csv
import hashlib
import io
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .cnf import Formula, parse_dimacs
from .solver import SAT, UNSAT, Budget, Solver, SolverConfig, SolveStats, random_oracle

__all__ = [
    "AggregateRecord",
    "BenchConfig",
    "EvalRecord",
    "HINDSIGHT",
    "SoundnessError",
    "VARIANTS",
    "aggregate",
    "cactus_csv",
    "make_oracle",
    "pairwise_better_fraction",
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


@dataclass(frozen=True)
class AggregateRecord:
    instance: str
    variant: str
    solved: bool
    status: str | None                    # established verdict, if any
    mean_successful_runtime: float | None
    mean_successful_decisions: float | None
    mean_decisions: float
    mean_conflicts: float
    mean_refocuses: float
    mean_avg_glue: float
    mean_glr: float


@dataclass
class BenchConfig:
    timeout: float | None = 60.0          # wall-clock per run, None to disable
    max_conflicts: int | None = None      # conflict budget, None to disable
    parallelism: int = 1
    solver: SolverConfig | None = None    # shared by every run; None for the defaults

    def __post_init__(self):
        for name in ("timeout", "max_conflicts"):
            value = getattr(self, name)
            if value is not None and not value >= 0:    # NaN fails too
                raise ValueError(f"{name} must be None or >= 0, got {value}")
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
    oracle = make_oracle(variant, _run_seed(name, variant, seed), weights, formula, cfg.max_conflicts)
    budget = Budget(max_conflicts=cfg.max_conflicts, max_seconds=cfg.timeout)
    result = Solver(formula, config=cfg.solver, oracle=oracle).solve(budget=budget)
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
    budget.
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
    # refuse a bad variant before records.csv is opened; the empty formula
    # makes hindsight's labelling solve instant
    for variant in variants:
        make_oracle(variant, weights=weights, formula=Formula(0, ()), max_conflicts=cfg.max_conflicts)
    done = {}
    with ExitStack() as stack:
        writer = None
        if records_csv is not None:
            records_csv = Path(records_csv)
            if records_csv.exists():
                for rec in _load_records(records_csv):
                    done[(rec.instance, rec.variant, rec.seed)] = rec
            new_file = not records_csv.exists()
            sink = stack.enter_context(open(records_csv, "a", newline=""))
            writer = csv.DictWriter(sink, fieldnames=_RECORD_FIELDS)
            if new_file:
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
            run = stack.enter_context(ProcessPoolExecutor(max_workers=cfg.parallelism)).map
        for rec in run(_solve_task, tasks):
            records.append(rec)
            if writer is not None:
                writer.writerow(asdict(rec))
                sink.flush()
    return records


def aggregate(records) -> list[AggregateRecord]:
    """Per (instance, variant): any-seed solved flag, mean successful runtime,
    and per-metric means over all runs.  Raises SoundnessError when any
    instance collects both SAT and UNSAT verdicts."""
    statuses = {}
    for rec in records:
        statuses.setdefault(rec.instance, set()).add(rec.status)
    for instance, seen in statuses.items():
        if SAT in seen and UNSAT in seen:
            raise SoundnessError(f"instance {instance} reported both SAT and UNSAT")
    groups = {}
    for rec in records:
        groups.setdefault((rec.instance, rec.variant), []).append(rec)
    out = []
    for (instance, variant), recs in sorted(groups.items()):
        solved_recs = [r for r in recs if r.status in (SAT, UNSAT)]
        status = solved_recs[0].status if solved_recs else None
        out.append(
            AggregateRecord(
                instance=instance,
                variant=variant,
                solved=bool(solved_recs),
                status=status,
                mean_successful_runtime=(
                    float(np.mean([r.runtime for r in solved_recs])) if solved_recs else None
                ),
                mean_successful_decisions=(
                    float(np.mean([r.decisions for r in solved_recs])) if solved_recs else None
                ),
                mean_decisions=float(np.mean([r.decisions for r in recs])),
                mean_conflicts=float(np.mean([r.conflicts for r in recs])),
                mean_refocuses=float(np.mean([r.refocuses for r in recs])),
                mean_avg_glue=float(np.mean([r.avg_glue for r in recs])),
                mean_glr=float(np.mean([r.glr for r in recs])),
            )
        )
    return out


def _established(aggregates):
    verdicts = {}
    for agg in aggregates:
        if agg.status is not None:
            verdicts.setdefault(agg.instance, agg.status)
    return verdicts


def par2(aggregates, timeout: float) -> dict[str, dict[str, float]]:
    """Normalized PAR-2 per variant, with sat-only and unsat-only splits over
    instances whose status any variant established."""
    if not aggregates:
        raise ValueError("no aggregates")
    verdicts = _established(aggregates)
    variants = sorted({a.variant for a in aggregates})
    instances = sorted({a.instance for a in aggregates})
    by_key = {(a.instance, a.variant): a for a in aggregates}
    scores = {}
    for variant in variants:
        split_sets = {
            "overall": instances,
            "sat": [i for i in instances if verdicts.get(i) == SAT],
            "unsat": [i for i in instances if verdicts.get(i) == UNSAT],
        }
        scores[variant] = {}
        for split, members in split_sets.items():
            if not members:
                scores[variant][split] = 0.0
                continue
            total = 0.0
            for instance in members:
                agg = by_key.get((instance, variant))
                if agg is not None and agg.solved:
                    total += agg.mean_successful_runtime
                else:
                    total += 2.0 * timeout
            scores[variant][split] = total / len(members)
    return scores


def pairwise_better_fraction(aggregates, metric: str) -> list[dict]:
    """For each variant pair, the fraction of instances on which each side is
    better (higher GLR / lower average glue); ties split evenly."""
    if metric not in ("glr", "avg_glue"):
        raise ValueError("metric must be 'glr' or 'avg_glue'")
    field_name = "mean_glr" if metric == "glr" else "mean_avg_glue"
    higher_wins = metric == "glr"
    variants = sorted({a.variant for a in aggregates})
    by_key = {(a.instance, a.variant): a for a in aggregates}
    instances = sorted({a.instance for a in aggregates})
    rows = []
    for i, va in enumerate(variants):
        for vb in variants[i + 1:]:
            wins_a = 0.0
            count = 0
            for instance in instances:
                a = by_key.get((instance, va))
                b = by_key.get((instance, vb))
                if a is None or b is None:
                    continue
                count += 1
                ma, mb = getattr(a, field_name), getattr(b, field_name)
                if ma == mb:
                    wins_a += 0.5
                elif (ma > mb) == higher_wins:
                    wins_a += 1.0
            frac_a = wins_a / count if count else 0.5
            rows.append(
                {"variant_a": va, "variant_b": vb, "metric": metric,
                 "fraction_a": frac_a, "fraction_b": 1.0 - frac_a, "instances": count}
            )
    return rows


def cactus_csv(aggregates, axis: str, path) -> None:
    """Sorted per-variant success costs: row i says "solved i+1 instances
    within cost".  Header: variant,solved,cost."""
    if axis not in ("runtime", "decisions"):
        raise ValueError("axis must be 'runtime' or 'decisions'")
    attr = "mean_successful_runtime" if axis == "runtime" else "mean_successful_decisions"
    variants = sorted({a.variant for a in aggregates})
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "solved", "cost"])
        for variant in variants:
            costs = sorted(
                getattr(a, attr) for a in aggregates if a.variant == variant and a.solved
            )
            for i, cost in enumerate(costs, start=1):
                writer.writerow([variant, i, cost])


def write_outputs(records, out_dir, timeout: float) -> None:
    """Emit the full file suite: records, aggregates, PAR-2, pairwise, cactus."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "records.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_RECORD_FIELDS)
        writer.writeheader()
        writer.writerows(asdict(rec) for rec in records)
    aggs = aggregate(records)
    with open(out_dir / "aggregates.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=[f.name for f in fields(AggregateRecord)])
        writer.writeheader()
        writer.writerows(asdict(agg) for agg in aggs)
    scores = par2(aggs, timeout)
    lines = []
    for variant, splits in sorted(scores.items()):
        lines.append(
            f"{variant}: overall={splits['overall']:.3f} sat={splits['sat']:.3f} unsat={splits['unsat']:.3f}"
        )
    (out_dir / "par2.txt").write_text("\n".join(lines) + "\n")
    pair_rows = pairwise_better_fraction(aggs, "glr") + pairwise_better_fraction(aggs, "avg_glue")
    with open(out_dir / "pairwise.csv", "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["variant_a", "variant_b", "metric", "fraction_a", "fraction_b", "instances"]
        )
        writer.writeheader()
        writer.writerows(pair_rows)
    cactus_csv(aggs, "runtime", out_dir / "cactus_runtime.csv")
    cactus_csv(aggs, "decisions", out_dir / "cactus_decisions.csv")
