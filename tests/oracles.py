"""Independent reference implementations used only to check the package."""

from __future__ import annotations

from heapq import heappush

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
    if not s.propagate_root():
        return s, [set(s.trail)], 0
    states = [set(s.trail)]
    for i, lit in enumerate(decisions, start=1):
        if s.value(lit) != 0:
            states.append(set(s.trail))
            continue
        if s.decide(lit) is not None:
            states.append(set(s.trail))
            return s, states, i
        states.append(set(s.trail))
    return s, states, None


def compute_lbd(lits, levels) -> int:
    """Number of distinct decision levels among a clause's literals.

    ``levels`` maps variables to their decision level; None means unassigned,
    which violates the caller's contract.
    """
    distinct = set()
    for lit in lits:
        lv = levels[abs(lit)]
        if lv is None:
            raise ValueError(f"literal {lit} is unassigned")
        distinct.add(lv)
    return len(distinct)


def bump(solver, v):
    """One EVSIDS bump of variable v, as ``Solver._analyze`` does inline,
    plus the heap entry an unassigned variable needs at its new score."""
    s = solver.evsids[v] + solver.inc
    solver.evsids[v] = s
    if s > 1e100:
        solver._rescale()
    elif solver.assign[v + solver.n] == 0:
        solver._queued[v] = s
        heappush(solver.heap, (-s, v))


class ReferenceSolver(Solver):
    """The straightforward form of the CDCL hot loop: ``_propagate``,
    ``_analyze`` and ``_backjump`` as plain loops over solver attributes.
    The package's tuned versions must reproduce its search exactly: trail,
    literal order inside every clause, watch-list order, learned clauses,
    EVSIDS scores and stats."""

    def _propagate(self):
        n = self.n
        assign = self.assign
        watches = self.watches
        trail = self.trail
        while self.qhead < len(trail):
            p = trail[self.qhead]
            self.qhead += 1
            self.propagations += 1
            falsified = -p
            ws = watches[falsified + n]
            i = j = 0
            conflict = None
            while i < len(ws):
                clause = ws[i]
                i += 1
                lits = clause.lits
                if lits[0] == falsified:
                    lits[0] = lits[1]
                    lits[1] = falsified
                first = lits[0]
                if assign[first + n] == 1:
                    ws[j] = clause
                    j += 1
                    continue
                moved = False
                for k in range(2, len(lits)):
                    lk = lits[k]
                    if assign[lk + n] != -1:
                        lits[1] = lk
                        lits[k] = falsified
                        watches[lk + n].append(clause)
                        moved = True
                        break
                if moved:
                    continue
                ws[j] = clause
                j += 1
                if assign[first + n] == -1:
                    while i < len(ws):      # conflict: keep the rest watched
                        ws[j] = ws[i]
                        j += 1
                        i += 1
                    conflict = clause
                    break
                self._enqueue(first, clause)
            del ws[j:]
            if conflict is not None:
                return conflict
        return None

    def _analyze(self, conflict):
        level = self.level
        reason = self.reason
        trail = self.trail
        seen = self._seen
        cur = self.decision_level
        counter = 0
        tail = []
        p = None
        idx = len(trail) - 1
        clause = conflict
        while True:
            lits = clause.lits
            for t in range(0 if p is None else 1, len(lits)):
                q = lits[t]
                v = abs(q)
                if seen[v] or level[v] == 0:
                    continue
                seen[v] = 1
                bump(self, v)
                if level[v] >= cur:
                    counter += 1
                else:
                    tail.append(q)
            while not seen[abs(trail[idx])]:
                idx -= 1
            p = trail[idx]
            v = abs(p)
            clause = reason[v]
            seen[v] = 0
            counter -= 1
            idx -= 1
            if counter == 0:
                break
        learned = [-p] + tail
        if tail:
            bj = 0
            spot = 1
            for t in range(1, len(learned)):
                lv = level[abs(learned[t])]
                if lv > bj:
                    bj = lv
                    spot = t
            learned[1], learned[spot] = learned[spot], learned[1]
        else:
            bj = 0
        glue = len({level[abs(l)] for l in learned})
        for lit in tail:
            seen[abs(lit)] = 0
        return learned, bj, glue

    def _backjump(self, target_level):
        trail = self.trail
        lim = self.trail_lim
        if target_level >= len(lim):
            return
        keep = lim[target_level]
        n = self.n
        heap = self.heap
        evsids = self.evsids
        for i in range(len(trail) - 1, keep - 1, -1):
            lit = trail[i]
            v = abs(lit)
            self.assign[lit + n] = 0
            self.assign[-lit + n] = 0
            self.phase[v] = lit > 0
            self.reason[v] = None
            heappush(heap, (-evsids[v], v))
        del trail[keep:]
        del lim[target_level:]
        self.qhead = keep


def solver_state(solver):
    """Everything the search leaves behind, with clauses named by their
    position in ``original + learned`` (-1 for a clause in neither).

    Of the heap it keeps the sorted live entries of unassigned variables,
    those at the variable's current score: the entries ``pick_decision``
    can return.  Which stale and duplicate entries sit beside them depends
    on the re-queuing policy, not on the search."""
    clauses = solver.original + solver.learned
    index = {id(c): i for i, c in enumerate(clauses)}
    n = solver.n
    live = {(negscore, v) for negscore, v in solver.heap
            if solver.assign[v + n] == 0 and -negscore == solver.evsids[v]}

    def name(clause):
        return None if clause is None else index.get(id(clause), -1)

    return {
        "trail": list(solver.trail),
        "trail_lim": list(solver.trail_lim),
        "qhead": solver.qhead,
        "assign": list(solver.assign),
        "level": list(solver.level),
        "reason": [name(c) for c in solver.reason],
        "phase": list(solver.phase),
        "clauses": [list(c.lits) for c in clauses],
        "learned": [(c.glue, list(c.lits)) for c in solver.learned],
        "watches": [[name(c) for c in ws] for ws in solver.watches],
        "evsids": list(solver.evsids),
        "inc": solver.inc,
        "heap": sorted(live),
    }


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
