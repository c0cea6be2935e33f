"""CNF data model: DIMACS I/O, clause-literal graphs, random instance
generation, a bit-parallel brute-force oracle, and assignment splitting.

Literals are signed integers (DIMACS convention): variable ``v`` appears
positively as ``v`` and negatively as ``-v``; negation is unary minus.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

__all__ = [
    "CSR",
    "DimacsError",
    "Formula",
    "SparseGraph",
    "SplitPiece",
    "brute_force",
    "clause_literal_graph",
    "disjoint_union",
    "normalize_clause",
    "parse_dimacs",
    "random_ksat",
    "random_split",
    "satisfies",
    "write_dimacs",
]


class DimacsError(ValueError):
    """Malformed DIMACS input; the message carries the offending line."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def normalize_clause(lits) -> tuple[int, ...] | None:
    """Deduplicate literals (keeping first occurrence); None for tautologies."""
    seen = set()
    out = []
    for lit in lits:
        if -lit in seen:
            return None
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    return tuple(out)


@dataclass(frozen=True)
class Formula:
    """A CNF over variables 1..num_vars; clauses are tuples of signed ints."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        """Refuse, with ValueError, num_vars < 0 and any literal that is not
        an integer (a bool, float or str among them), is 0 or lies beyond
        +-num_vars: the solver and the graph index by it."""
        if self.num_vars < 0:
            raise ValueError(f"num_vars must be >= 0, got {self.num_vars}")
        _check_literals(self.clauses, self.num_vars)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def parse_dimacs(source) -> Formula:
    """Parse DIMACS CNF text (string or file-like).

    Duplicate literals within a clause are dropped, tautological clauses are
    removed, and an explicit empty clause is preserved.  A bare ``%`` line is
    treated as an end-of-file marker (SATLIB convention).  A literal beyond
    the header's variable count raises DimacsError naming its line, also
    in a tautology.
    """
    text = source.read() if hasattr(source, "read") else source
    num_vars = None
    clauses = []
    dropped = []        # the literals of tautologies, which the formula does not keep
    current = []
    lineno = 0
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line == "%":
            break
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError("duplicate header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"malformed header {line!r}", lineno)
            try:
                num_vars, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(f"malformed header {line!r}", lineno) from None
            if num_vars < 0 or declared < 0:
                raise DimacsError(f"malformed header {line!r}", lineno)
            continue
        if num_vars is None:
            raise DimacsError("clause before 'p cnf' header", lineno)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError(f"non-integer token {tok!r}", lineno) from None
            if lit == 0:
                clause = normalize_clause(current)
                if clause is None:
                    dropped += current
                else:
                    clauses.append(clause)
                current = []
            else:
                current.append(lit)
    if num_vars is None:
        raise DimacsError("missing 'p cnf' header", lineno or 1)
    if current:
        raise DimacsError("missing terminating 0 in final clause", lineno)
    # the one range check of each literal is the vectorized one of Formula;
    # only a refused literal sends the parse back over the lines for it
    try:
        if dropped:
            _check_literals((dropped,), num_vars)
        return Formula(num_vars, tuple(clauses))
    except ValueError:
        lineno, lit = _out_of_range(lines, num_vars)
        raise DimacsError(f"literal {lit} out of range", lineno) from None


def _out_of_range(lines, num_vars):
    # the line number and value of the first clause literal beyond
    # +-num_vars in lines that parse_dimacs has read without error
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line == "%":
            break
        if line and not line.startswith(("c", "p")):
            for lit in map(int, line.split()):
                if abs(lit) > num_vars:
                    return lineno, lit


def write_dimacs(formula: Formula) -> str:
    """Render a Formula as DIMACS text; round-trips through parse_dimacs."""
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0" if clause else "0")
    return "\n".join(lines) + "\n"


def satisfies(formula: Formula, assignment) -> bool:
    """True iff the assignment (iterable of signed literals) satisfies every clause."""
    true_lits = set(assignment)
    return all(any(l in true_lits for l in clause) for clause in formula.clauses)


_SPARSETOOLS = "scipy.sparse._sparsetools"
_sparsetools_module = None
_sparsetools_lock = threading.Lock()


def _sparsetools():
    """scipy's compiled sparse kernels, the extension module
    scipy.sparse._sparsetools, loaded once per process.

    Importing scipy.sparse loads about 300 modules and 15-22 MB of RSS
    (scipy 1.17) for the seven kernels that gluesat calls; this loads
    their one extension file alone.  A process that has imported scipy.sparse
    already gets its module.  Otherwise the file comes from scipy's package
    directory, found without running any scipy code, and leaves no entry
    in sys.modules, so that a later ``import scipy.sparse`` loads and binds
    it as usual.  Where that file is missing, this imports the module the
    ordinary way: the kernels are the same, only the import costs more."""
    global _sparsetools_module
    if _sparsetools_module is None:
        with _sparsetools_lock:
            if _sparsetools_module is None:
                _sparsetools_module = sys.modules.get(_SPARSETOOLS) or _load_sparsetools(_sparsetools_file())
    return _sparsetools_module


def _sparsetools_file():
    # the path of scipy/sparse/_sparsetools<extension suffix>, or None
    spec = importlib.util.find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load_sparsetools(path):
    # the extension at path, by scipy's module name, or the ordinary import
    # without a path; an extension of single-phase initialization enters
    # itself in sys.modules as it loads, without its parent package, which
    # would then never bind it as an attribute
    if path is None:
        return importlib.import_module(_SPARSETOOLS)
    spec = importlib.util.spec_from_file_location(_SPARSETOOLS, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if sys.modules.get(_SPARSETOOLS) is module:
        del sys.modules[_SPARSETOOLS]
    return module


class CSR(NamedTuple):
    """A compressed sparse row matrix in scipy's layout, the form that
    scipy's kernels take: row i holds the columns indices[indptr[i] :
    indptr[i + 1]] with the values data[indptr[i] : indptr[i + 1]].
    ``scipy.sparse.csr_matrix((data, indices, indptr), shape)`` wraps one
    without a copy."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]


def _coo_to_csr(rows, cols, shape):
    """The CSR matrix of ones at (rows[k], cols[k]), repeats summed, by
    scipy's own steps for ``coo_matrix(...).tocsr()``: coo_tocsr, then,
    unless the result already has sorted indices without repeats,
    csr_sort_indices and ``_summed``.  Every index must lie in the shape:
    the kernels write without bounds checks."""
    kernels = _sparsetools()
    nnz = len(rows)
    # scipy's index type: int32 where every index and count fits
    idx = np.int32 if max(nnz, *shape) <= np.iinfo(np.int32).max else np.int64
    m = CSR(np.empty(shape[0] + 1, idx), np.empty(nnz, idx), np.empty(nnz), shape)
    kernels.coo_tocsr(*shape, nnz, rows.astype(idx, copy=False), cols.astype(idx, copy=False), np.ones(nnz), *m[:3])
    if kernels.csr_has_canonical_format(shape[0], m.indptr, m.indices):
        return m
    kernels.csr_sort_indices(shape[0], *m[:3])
    return _summed(m)


def _summed(m):
    """m, whose rows have sorted indices, with each run of a repeated index
    summed into one entry by csr_sum_duplicates, in place, then trimmed as
    scipy's prune trims: indices and data cut to the new count, and copied
    where that frees more than half of them."""
    _sparsetools().csr_sum_duplicates(*m.shape, *m[:3])
    nnz = int(m.indptr[-1])
    indices, data = m.indices[:nnz], m.data[:nnz]
    if nnz < len(m.indices) // 2:
        indices, data = indices.copy(), data.copy()
    return CSR(m.indptr, indices, data, m.shape)


def _transposed(m):
    """m^T as a CSR matrix, by scipy's transpose kernel csr_tocsc: its row
    k lists the rows of m with an entry in column k in ascending order,
    side by side where m's indices repeat."""
    rows, cols = m.shape
    t = CSR(np.empty(cols + 1, m.indptr.dtype), np.empty(len(m.indices), m.indptr.dtype), np.empty(len(m.data)),
            (cols, rows))
    _sparsetools().csr_tocsc(rows, cols, *m[:3], *t[:3])
    return t


@dataclass(frozen=True, eq=False)
class SparseGraph:
    """Clause-literal bipartite adjacency in coordinate form.

    Edge ``k`` joins clause ``rows[k]`` to literal column ``cols[k]``; both
    are int32 arrays of equal length (8 bytes per edge).  Rows index clauses;
    columns index literals of the *compacted* variables: compacted variable
    ``i`` (1-based) is positive at column ``i-1`` and negative at column
    ``num_vars + i - 1``.  ``var_map[i-1]`` gives the original variable
    behind compacted variable ``i``.

    ``parts`` holds the (clause count, variable count) of each graph that
    ``disjoint_union`` joined into this one, in order; a plain graph is
    one part, ``((num_clauses, num_vars),)``, the default.  Parts only say
    how to slice a pass's outputs: a union is laid out as any graph.
    """

    num_clauses: int
    num_vars: int
    rows: np.ndarray
    cols: np.ndarray
    var_map: tuple[int, ...]
    parts: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        """Refuse, with ValueError, a negative clause or variable count, a
        var_map of other than num_vars entries, parts that do not sum to
        the graph, edges that are not integers (bool, float or object
        elements; empty arrays pass), and an edge whose row lies outside
        [0, num_clauses) or whose column lies outside [0, 2 num_vars):
        ``matrices()`` hands the edges to kernels that write without bounds
        checks.  The edges are checked as given, then kept as int32."""
        rows, cols = np.asarray(self.rows), np.asarray(self.cols)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError(f"rows {rows.shape} and cols {cols.shape} must be equal-length vectors")
        for name, index in (("rows", rows), ("cols", cols)):
            if index.size and index.dtype.kind not in "iu":
                raise ValueError(f"{name} must hold integers, got dtype {index.dtype}")
        if self.num_clauses < 0 or self.num_vars < 0:
            raise ValueError(f"clause and variable counts must be >= 0, got {self.num_clauses} and {self.num_vars}")
        if len(self.var_map) != self.num_vars:
            raise ValueError(f"var_map has {len(self.var_map)} entries for {self.num_vars} variables")
        parts = tuple(self.parts) or ((self.num_clauses, self.num_vars),)
        if tuple(map(sum, zip(*parts))) != (self.num_clauses, self.num_vars):
            raise ValueError(f"parts {parts} do not sum to ({self.num_clauses}, {self.num_vars})")
        for name, index, bound in (("row", rows, self.num_clauses), ("column", cols, 2 * self.num_vars)):
            if index.size and (index.min() < 0 or index.max() >= bound):
                bad = index[(index < 0) | (index >= bound)][0]
                raise ValueError(f"edge {name} {bad} outside [0, {bound})")
        object.__setattr__(self, "rows", rows.astype(np.int32, copy=False))
        object.__setattr__(self, "cols", cols.astype(np.int32, copy=False))
        object.__setattr__(self, "parts", parts)

    @property
    def num_edges(self) -> int:
        return len(self.cols)

    def part_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(clause bounds, variable bounds), cached after first use: part j
        holds clauses [c[j], c[j + 1]) and compacted variables v[j] + 1 to
        v[j + 1]."""
        cached = self.__dict__.get("_bounds")
        if cached is None:
            cached = tuple(np.cumsum(np.array(((0, 0),) + self.parts), axis=0).T)
            object.__setattr__(self, "_bounds", cached)
        return cached

    def matrices(self):
        """(G, sizes, by_size), cached after first use.

        G is the M x 2N ``CSR`` record of clause rows and literal columns,
        with sorted indices; repeated (row, col) edges sum into one entry.
        The network applies G's transpose through G's own arrays
        (``network._scatter``), so none is kept.  ``sizes`` holds the
        distinct clause sizes (edge counts, repeats included) in ascending
        order, as floats; ``by_size`` is the len(sizes) x 2N ``CSR`` record
        whose entry (u, l) sums G[c, l] over the clauses c of size
        ``sizes[u]``: the clause-to-size indicator transposed times G, laid
        out like G, one row per size class.  A union's size classes span
        its parts.

        Both are built by scipy's compiled kernels alone (``_sparsetools``),
        in scipy's own steps, so their arrays equal those of
        ``scipy.sparse.coo_matrix(...).tocsr()`` and of the indicator
        product, without importing scipy.sparse.
        """
        cached = self.__dict__.get("_mats")
        if cached is None:
            g = _coo_to_csr(self.rows, self.cols, (self.num_clauses, 2 * self.num_vars))
            counts = np.bincount(self.rows, minlength=self.num_clauses)
            present = np.bincount(counts) > 0
            size_class = np.cumsum(present) - 1
            # G^T with each clause column relabelled to its size class,
            # transposed again: one row per class (a row's literals
            # ascending, repeats side by side), then summed; G^T is
            # dropped after
            gt = _transposed(g)
            gt = gt._replace(indices=size_class[counts][gt.indices].astype(gt.indices.dtype),
                             shape=(gt.shape[0], int(present.sum())))
            by_size = _summed(_transposed(gt))
            cached = (g, np.flatnonzero(present).astype(float), by_size)
            object.__setattr__(self, "_mats", cached)
        return cached


def _flat_literals(clauses):
    """Concatenated literals of ``clauses`` (int32) and each clause's length."""
    lens = np.fromiter(map(len, clauses), dtype=np.int64, count=len(clauses))
    lits = np.fromiter(chain.from_iterable(clauses), dtype=np.int32, count=int(lens.sum()))
    return lits, lens


def _check_literals(clauses, n):
    """Raise ValueError unless every literal of ``clauses`` is an integer,
    not a bool, of size 1 to n.  One pass collects the literals' types and
    one array takes their values: numpy would turn 1.5, True or "1" into 1
    without a word, and no Python loop runs per literal."""
    flat = list(chain.from_iterable(clauses))
    for kind in set(map(type, flat)):
        if kind is bool or not issubclass(kind, (int, np.integer)):
            example = next(x for x in flat if type(x) is kind)
            raise ValueError(f"literals must be integers, got {kind.__name__} {example!r}")
    try:
        lits = np.fromiter(flat, dtype=np.int32, count=len(flat))
    except OverflowError as exc:        # beyond int32, so beyond any num_vars that fits a graph
        raise ValueError(f"literal out of range for num_vars={n}: {exc}") from None
    if lits.size and (lits.min() < -n or lits.max() > n or not lits.all()):
        bad = lits[(lits == 0) | (lits < -n) | (lits > n)][0]
        raise ValueError(f"literal {bad} out of range: literals are nonzero and at most num_vars={n} in size")


def clause_literal_graph(formula: Formula) -> SparseGraph:
    """One edge per (clause, literal) occurrence; var_map is the identity."""
    n = formula.num_vars
    lits, lens = _flat_literals(formula.clauses)
    rows = np.repeat(np.arange(len(lens), dtype=np.int32), lens)
    cols = np.where(lits > 0, lits - 1, n - lits - 1).astype(np.int32, copy=False)
    return SparseGraph(len(lens), n, rows, cols, tuple(range(1, n + 1)))


def disjoint_union(graphs) -> SparseGraph:
    """The graphs side by side in one graph, for one network pass over all
    of them, laid out as one graph (NeuroSAT's batching): its clauses
    graph after graph, and as its literal columns all the graphs'
    positive literals, then all their negative ones.  A graph whose
    predecessors hold o of the union's N variables keeps its variable i
    as variable o + i, so its column c below its own variable count n
    moves to o + c, and a negative column c to N + o + (c - n).
    ``parts`` records each graph's clause and variable counts (a union's
    parts count singly), and ``var_map`` chains the graphs' maps."""
    graphs = list(graphs)
    if not graphs:
        raise ValueError("no graphs to join")
    total = sum(g.num_vars for g in graphs)
    rows, cols = [], []
    clauses = offset = 0
    for g in graphs:
        rows.append(g.rows + clauses)
        cols.append(np.where(g.cols < g.num_vars, g.cols + offset, g.cols + (total - g.num_vars + offset)))
        clauses += g.num_clauses
        offset += g.num_vars
    return SparseGraph(clauses, total, np.concatenate(rows), np.concatenate(cols),
                       tuple(chain.from_iterable(g.var_map for g in graphs)),
                       tuple(chain.from_iterable(g.parts for g in graphs)))


def random_ksat(n: int, m: int, k: int, seed=None) -> Formula:
    """Uniform random k-SAT: m clauses over k distinct variables each."""
    if k < 1 or m < 0:
        raise ValueError(f"need a clause width k >= 1 and a clause count m >= 0, got k={k}, m={m}")
    if k > n:
        raise ValueError(f"clause width {k} exceeds variable count {n}")
    rng = np.random.default_rng(seed)
    clauses = []
    for _ in range(m):
        vars_ = rng.choice(n, size=k, replace=False) + 1
        signs = rng.integers(0, 2, size=k) * 2 - 1
        clauses.append(tuple(int(s * v) for s, v in zip(signs, vars_)))
    return Formula(n, tuple(clauses))


@lru_cache(maxsize=8)
def _variable_masks(n: int) -> tuple[int, ...]:
    # bit i of masks[j] is set iff assignment index i makes variable j+1 true
    total_bits = 1 << n
    masks = []
    for j in range(n):
        half = 1 << j
        mask = ((1 << half) - 1) << half
        width = half << 1
        while width < total_bits:
            mask |= mask << width
            width <<= 1
        masks.append(mask)
    return tuple(masks)


def brute_force(formula: Formula) -> list[int] | None:
    """Exhaustively test all 2^n assignments (bit-parallel over big integers).

    Returns a satisfying assignment as a list of signed literals, or None if
    the formula is unsatisfiable.  Guarded to num_vars <= 26.
    """
    n = formula.num_vars
    if n > 26:
        raise ValueError(f"brute_force limited to 26 variables, got {n}")
    masks = _variable_masks(n)
    full = (1 << (1 << n)) - 1
    sat = full
    for clause in formula.clauses:
        cm = 0
        for lit in clause:
            m = masks[abs(lit) - 1]
            cm |= m if lit > 0 else m ^ full
        sat &= cm
        if sat == 0:
            return None
    index = (sat & -sat).bit_length() - 1
    return [v if (index >> (v - 1)) & 1 else -v for v in range(1, n + 1)]


def _simplify(clauses, assumptions):
    """Assign literals and unit-propagate to fixpoint.

    Returns (residual_clauses, implied_literals, status) where status is None
    for a live residual, "sat" if every clause is satisfied, and "unsat" if a
    clause is falsified or contradictory units arise.
    """
    value = {}
    implied = []
    queue = list(assumptions)
    while True:
        while queue:
            lit = queue.pop()
            v = abs(lit)
            want = lit > 0
            if v in value:
                if value[v] != want:
                    return [], implied, "unsat"
                continue
            value[v] = want
            implied.append(lit)
        residual = []
        units = []
        for clause in clauses:
            satisfied = False
            left = []
            for lit in clause:
                w = value.get(abs(lit))
                if w is None:
                    left.append(lit)
                elif (lit > 0) == w:
                    satisfied = True
                    break
            if satisfied:
                continue
            if not left:
                return [], implied, "unsat"
            if len(left) == 1:
                units.append(left[0])
            residual.append(tuple(left))
        clauses = residual
        if units:
            queue.extend(units)
            continue
        break
    if not clauses:
        return [], implied, "sat"
    return clauses, implied, None


@dataclass(frozen=True)
class SplitPiece:
    """A subproblem from random_split.

    ``fixed`` lists the literals (original numbering) assigned on the branch,
    decisions and propagated units alike; ``var_map[i-1]`` is the original
    variable behind the piece's compacted variable ``i``.  A model of
    ``formula`` lifted through ``var_map`` plus ``fixed`` is a model of the
    source formula restricted to this branch.
    """

    formula: Formula
    fixed: tuple[int, ...]
    var_map: tuple[int, ...]


def random_split(formula: Formula, max_clauses: int, seed=None) -> list[SplitPiece]:
    """Split into subproblems of at most max_clauses clauses.

    Repeatedly branches on a uniformly random unassigned variable (both
    polarities, random order), simplifying and unit-propagating after each
    assignment.  Subproblems that become trivially satisfied or falsified
    are discarded; output formulas have densely renumbered variables.
    """
    if max_clauses < 1:
        raise ValueError("max_clauses must be >= 1")
    if len(formula.clauses) <= max_clauses:
        return [SplitPiece(formula, (), tuple(range(1, formula.num_vars + 1)))]
    rng = np.random.default_rng(seed)
    out = []
    stack = [(list(formula.clauses), ())]
    while stack:
        clauses, fixed = stack.pop()
        if len(clauses) <= max_clauses:
            occurring = sorted({abs(l) for c in clauses for l in c})
            index = {v: i + 1 for i, v in enumerate(occurring)}
            renumbered = tuple(
                tuple(index[abs(l)] if l > 0 else -index[abs(l)] for l in c) for c in clauses
            )
            out.append(SplitPiece(Formula(len(occurring), renumbered), fixed, tuple(occurring)))
            continue
        occurring = sorted({abs(l) for c in clauses for l in c})
        if not occurring:
            continue
        v = int(occurring[rng.integers(len(occurring))])
        first = v if rng.integers(2) else -v
        for lit in (first, -first):
            residual, implied, status = _simplify(clauses, [lit])
            if status is not None:
                continue
            stack.append((residual, fixed + tuple(implied)))
    return out
