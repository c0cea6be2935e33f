"""Independent reference implementations used only to check the package."""

from __future__ import annotations

import numpy as np

from gluesat.cnf import SparseGraph
from gluesat.solver import Solver


def edge_pairs(graph):
    """A graph's edges as a list of (row, col) int pairs, in edge order."""
    return list(zip(graph.rows.tolist(), graph.cols.tolist()))


def naive_up(clauses, assign, new_lits):
    """Full-scan unit propagation to fixpoint.

    ``assign`` maps var -> bool and is updated in place; returns True on
    conflict.  Deliberately simple and independent of the watched scheme.
    """
    queue = list(new_lits)
    while True:
        while queue:
            lit = queue.pop()
            v, want = abs(lit), lit > 0
            if v in assign:
                if assign[v] != want:
                    return True
                continue
            assign[v] = want
        units = []
        for clause in clauses:
            satisfied = False
            left = []
            for lit in clause:
                w = assign.get(abs(lit))
                if w is None:
                    left.append(lit)
                elif (lit > 0) == w:
                    satisfied = True
                    break
            if satisfied:
                continue
            if not left:
                return True
            if len(left) == 1:
                units.append(left[0])
        if not units:
            return False
        queue = units


def drive_watched(formula, decisions):
    """Apply a decision sequence with the real solver's propagation.

    Returns (solver, trail_literal_sets, conflict_step) where
    trail_literal_sets[i] is the assignment after step i (step 0 is the root)
    and conflict_step is the index of the conflicting step or None.
    """
    s = Solver(formula)
    if s._root_unsat:
        return s, [set()], 0
    for lit in s._root_units:
        if s.value(lit) == -1:
            return s, [set()], 0
        if s.value(lit) == 0:
            s._enqueue(lit, None)
    states = []
    if s._propagate() is not None:
        return s, [set(s.trail)], 0
    states.append(set(s.trail))
    for i, lit in enumerate(decisions, start=1):
        if s.value(lit) != 0:
            states.append(set(s.trail))
            continue
        s.trail_lim.append(len(s.trail))
        s._enqueue(lit, None)
        if s._propagate() is not None:
            states.append(set(s.trail))
            return s, states, i
        states.append(set(s.trail))
    return s, states, None


def reference_extract(solver, edge_cap=10_000_000):
    """Clause-by-clause residual graph extraction, the loop form of
    ``gluesat.extract.extract_graph``: same rows, literal order, var_map,
    cap handling and skip rule."""
    n = solver.n
    assign = solver.assign
    unassigned = [v for v in range(1, n + 1) if assign[v + n] == 0]
    index = {v: i for i, v in enumerate(unassigned)}
    ng = len(unassigned)
    edges = []
    row = 0

    def residual_of(lits):
        left = []
        for lit in lits:
            val = assign[lit + n]
            if val == 1:
                return None
            if val == 0:
                left.append(lit)
        return left

    for clause in solver.original:
        left = residual_of(clause.lits)
        if left is None:
            continue
        assert len(left) >= 2, "unit or empty residual clause at propagation fixpoint"
        if len(edges) + len(left) > edge_cap:
            return None
        for lit in left:
            v = index[abs(lit)]
            edges.append((row, v if lit > 0 else ng + v))
        row += 1
    for clause in solver.learned:
        left = residual_of(clause.lits)
        if left is None:
            continue
        assert len(left) >= 2, "unit or empty residual clause at propagation fixpoint"
        if len(edges) + len(left) > edge_cap:
            break
        for lit in left:
            v = index[abs(lit)]
            edges.append((row, v if lit > 0 else ng + v))
        row += 1
    rows = np.array([r for r, _ in edges], dtype=np.int32)
    cols = np.array([c for _, c in edges], dtype=np.int32)
    return SparseGraph(row, ng, rows, cols, tuple(unassigned))


def drive_naive(formula, decisions):
    """The same protocol with the full-scan propagator."""
    assign = {}
    if naive_up(formula.clauses, assign, []):
        return [set()], 0
    states = [{v if w else -v for v, w in assign.items()}]
    for i, lit in enumerate(decisions, start=1):
        if abs(lit) in assign:
            states.append({v if w else -v for v, w in assign.items()})
            continue
        if naive_up(formula.clauses, assign, [lit]):
            states.append(None)
            return states, i
        states.append({v if w else -v for v, w in assign.items()})
    return states, None


def fd_gradients(params, loss_fn, step=1e-5):
    """Central finite differences of loss_fn() with respect to every tensor."""
    out = {}
    for name, arr in params.tensors():
        fd = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            hi = loss_fn()
            arr[idx] = orig - step
            lo = loss_fn()
            arr[idx] = orig
            fd[idx] = (hi - lo) / (2.0 * step)
        out[name] = fd
    return out


def max_rel_error(analytic, numeric, floor=1e-4):
    """Worst-case elementwise relative error with an absolute floor."""
    worst = 0.0
    worst_name = None
    for name, fd in numeric.items():
        g = analytic[name]
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(g)), floor)
        err = float((np.abs(fd - g) / denom).max()) if fd.size else 0.0
        if err > worst:
            worst, worst_name = err, name
    return worst, worst_name
