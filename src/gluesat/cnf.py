"""CNF data model: DIMACS I/O, clause-literal graphs, random instance
generation, a bit-parallel brute-force oracle, and assignment splitting.

Literals are signed integers (DIMACS convention): variable ``v`` appears
positively as ``v`` and negatively as ``-v``; negation is unary minus.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

__all__ = [
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

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def parse_dimacs(source) -> Formula:
    """Parse DIMACS CNF text (string or file-like).

    Duplicate literals within a clause are dropped, tautological clauses are
    removed, and an explicit empty clause is preserved.  A bare ``%`` line is
    treated as an end-of-file marker (SATLIB convention).
    """
    text = source.read() if hasattr(source, "read") else source
    num_vars = None
    clauses = []
    current = []
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
                if clause is not None:
                    clauses.append(clause)
                current = []
            else:
                if abs(lit) > num_vars:
                    raise DimacsError(f"literal {lit} out of range", lineno)
                current.append(lit)
    if num_vars is None:
        raise DimacsError("missing 'p cnf' header", lineno or 1)
    if current:
        raise DimacsError("missing terminating 0 in final clause", lineno)
    return Formula(num_vars, tuple(clauses))


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
        rows = np.asarray(self.rows, dtype=np.int32)
        cols = np.asarray(self.cols, dtype=np.int32)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError(f"rows {rows.shape} and cols {cols.shape} must be equal-length vectors")
        parts = tuple(self.parts) or ((self.num_clauses, self.num_vars),)
        if tuple(map(sum, zip(*parts))) != (self.num_clauses, self.num_vars):
            raise ValueError(f"parts {parts} do not sum to ({self.num_clauses}, {self.num_vars})")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
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
        """(G, G_transpose, sizes, by_size), cached after first use.

        G and its transpose are scipy CSR matrices; repeated (row, col)
        edges sum into one entry.  ``sizes`` holds the distinct clause sizes
        (edge counts, repeats included) in ascending order, as floats;
        ``by_size`` is the 2N x len(sizes) CSR matrix whose entry (l, u)
        sums G[c, l] over the clauses c of size ``sizes[u]``: G transposed
        times the clause-to-size indicator.  A union's size classes span
        its parts.
        """
        cached = self.__dict__.get("_mats")
        if cached is None:
            from scipy.sparse import coo_matrix, csr_matrix

            shape = (self.num_clauses, 2 * self.num_vars)
            g = coo_matrix((np.ones(len(self.rows)), (self.rows, self.cols)), shape=shape).tocsr()
            gt = g.T.tocsr()
            counts = np.bincount(self.rows, minlength=self.num_clauses)
            present = np.bincount(counts) > 0
            size_class = np.cumsum(present) - 1
            # G^T's entries with each clause column replaced by its size
            # class; sum_duplicates works in place, hence the copies
            by_size = csr_matrix(
                (gt.data.copy(), size_class[counts][gt.indices], gt.indptr.copy()),
                shape=(2 * self.num_vars, int(present.sum())),
            )
            by_size.sum_duplicates()
            cached = (g, gt, np.flatnonzero(present).astype(float), by_size)
            object.__setattr__(self, "_mats", cached)
        return cached


def _flat_literals(clauses):
    """Concatenated literals of ``clauses`` (int32) and each clause's length."""
    lens = np.fromiter(map(len, clauses), dtype=np.int64, count=len(clauses))
    lits = np.fromiter(chain.from_iterable(clauses), dtype=np.int32, count=int(lens.sum()))
    return lits, lens


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
