"""Supervised training data: solve under a budget, harvest glue-count labels,
split oversized problems, and augment by dumping learned clauses.
"""

from __future__ import annotations

import csv
import hashlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .cnf import Formula, clause_literal_graph, normalize_clause, parse_dimacs, random_split, write_dimacs
from .solver import Budget, Solver
from .training import SupervisedExample

__all__ = [
    "DatagenConfig",
    "augment",
    "build_dataset",
    "generate_datapoint",
    "load_dataset",
]


@dataclass
class DatagenConfig:
    budget_conflicts: int | None = 20_000
    dump_interval: int = 5000
    max_clauses: int = 150_000
    seed: int = 0
    workers: int = 1
    augment: bool = True

    def __post_init__(self):
        if self.budget_conflicts is not None and not self.budget_conflicts >= 0:   # NaN fails too
            raise ValueError(f"budget_conflicts must be None or >= 0, got {self.budget_conflicts}")
        for name in ("dump_interval", "max_clauses", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


def _solve(formula: Formula, budget: Budget | None, dump_interval: int | None = None):
    """One vanilla solve to budget (``budget_conflicts`` by default).

    Returns the glue counts and, when ``dump_interval`` is given, the
    snapshots taken every dump_interval conflicts: the formula's unit and
    original clauses plus the learned clauses retained at that point.
    """
    if dump_interval is not None and dump_interval < 1:
        raise ValueError("dump_interval must be >= 1")
    budget = budget or Budget(max_conflicts=DatagenConfig.budget_conflicts)
    # the solver keeps unit clauses out of solver.original
    units = [c for c in map(normalize_clause, formula.clauses) if c is not None and len(c) == 1]
    dumps = []

    def on_learn(solver, learned, bj, glue):
        if solver.conflicts % dump_interval == 0:
            clauses = units + [tuple(c.lits) for c in solver.original]
            clauses.extend(tuple(c.lits) for c in solver.learned)
            if len(learned) > 1:    # the clause this conflict is about to add
                clauses.append(tuple(learned))
            dumps.append(Formula(formula.num_vars, tuple(clauses)))

    result = Solver(formula).solve(budget=budget, on_learn=on_learn if dump_interval else None)
    return result.stats.glue_counts, dumps


def _example(formula: Formula, glue_counts) -> SupervisedExample | None:
    counts = tuple(glue_counts)
    if not any(counts):
        return None
    return SupervisedExample(graph=clause_literal_graph(formula), glue_counts=counts)


def generate_datapoint(formula: Formula, budget: Budget | None = None) -> SupervisedExample | None:
    """Vanilla solve to budget, then pair the formula's graph with its glue
    counts; None when no glue clause was ever learned."""
    return _example(formula, _solve(formula, budget)[0])


def augment(formula: Formula, dump_interval: int = DatagenConfig.dump_interval,
            budget: Budget | None = None) -> list[Formula]:
    """Snapshots of the formula plus its currently retained learned clauses,
    taken every dump_interval conflicts during a vanilla solve."""
    return _solve(formula, budget, dump_interval)[1]


def _file_seed(master: int, name: str) -> int:
    digest = hashlib.sha256(f"{master}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _emit(formula, example, out_dir, stem, rows, source, split_path, dump_index, seed):
    if example is None:
        return
    cnf_path = out_dir / f"{stem}.cnf"
    cnf_path.write_text(write_dimacs(formula))
    counts_path = out_dir / f"{stem}.counts"
    counts_path.write_text("\n".join(str(c) for c in example.glue_counts) + "\n")
    rows.append(
        {
            "example": stem,
            "source": source,
            "split_path": split_path,
            "dump_index": dump_index,
            "seed": seed,
            "num_vars": formula.num_vars,
            "num_clauses": formula.num_clauses,
        }
    )


def _process_file(args):
    path, out_dir, cfg = args
    out_dir = Path(out_dir)
    rows = []
    try:
        formula = parse_dimacs(Path(path).read_text())
    except (OSError, ValueError) as exc:
        return [], f"{path}: {exc}"
    seed = _file_seed(cfg.seed, Path(path).name)
    budget = Budget(max_conflicts=cfg.budget_conflicts)
    pieces = random_split(formula, cfg.max_clauses, seed)
    stem_base = Path(path).stem
    for pi, piece in enumerate(pieces):
        split_path = " ".join(str(l) for l in piece.fixed)
        # one solve labels the piece and takes its dumps
        counts, dumps = _solve(piece.formula, budget, cfg.dump_interval if cfg.augment else None)
        _emit(piece.formula, _example(piece.formula, counts), out_dir, f"{stem_base}__p{pi:03d}", rows,
              Path(path).name, split_path, 0, seed)
        for di, dump in enumerate(dumps, start=1):
            _emit(dump, generate_datapoint(dump, budget), out_dir, f"{stem_base}__p{pi:03d}_d{di:02d}", rows,
                  Path(path).name, split_path, di, seed)
    return rows, None


_MANIFEST_FIELDS = ["example", "source", "split_path", "dump_index", "seed", "num_vars", "num_clauses"]


def build_dataset(input_dir, output_dir, config: DatagenConfig | None = None) -> list[dict]:
    """Run the full pipeline over a directory of DIMACS files.

    Writes one ``<stem>.cnf`` + ``<stem>.counts`` pair per emitted example and
    a ``manifest.csv`` recording provenance; returns the manifest rows.
    Unreadable files are skipped with a note in ``errors.log``.
    """
    cfg = config or DatagenConfig()
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = sorted(str(p) for p in Path(input_dir).glob("*.cnf"))
    tasks = [(f, str(out_dir), cfg) for f in files]
    rows = []
    errors = []
    if cfg.workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_process_file, tasks))
    else:
        results = [_process_file(t) for t in tasks]
    for file_rows, err in results:
        rows.extend(file_rows)
        if err:
            errors.append(err)
    with open(out_dir / "manifest.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_MANIFEST_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    if errors:
        (out_dir / "errors.log").write_text("\n".join(errors) + "\n")
    return rows


def load_dataset(dataset_dir) -> list[SupervisedExample]:
    """Read back examples written by build_dataset (manifest order)."""
    dataset_dir = Path(dataset_dir)
    manifest = dataset_dir / "manifest.csv"
    examples = []
    with open(manifest, newline="") as fh:
        for row in csv.DictReader(fh):
            formula = parse_dimacs((dataset_dir / f"{row['example']}.cnf").read_text())
            counts = tuple(
                int(line)
                for line in (dataset_dir / f"{row['example']}.counts").read_text().split()
            )
            examples.append(SupervisedExample(graph=clause_literal_graph(formula), glue_counts=counts))
    return examples
