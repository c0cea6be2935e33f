"""Independent reference implementations used only to check the package."""

from __future__ import annotations

import time
from heapq import heappush

import numpy as np

from gluesat.cnf import SparseGraph, normalize_clause, satisfies
from gluesat.grads import check_finite, zero_grads
from gluesat.solver import SAT, UNKNOWN, UNSAT, Budget, Solver, SolveResult
from gluesat.training import asgd_step, kl_grads, target_distribution


def edge_pairs(graph):
    """A graph's edges as a list of (row, col) int pairs, in edge order."""
    return list(zip(graph.rows.tolist(), graph.cols.tolist()))


def scipy_csr(m):
    """A ``cnf.CSR`` record as a scipy CSR matrix over the same arrays."""
    from scipy.sparse import csr_matrix

    return csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def scipy_matrices(graph):
    """(G, sizes, by_size) of ``SparseGraph.matrices()`` built through
    scipy.sparse's public API: G by ``coo_matrix(...).tocsr()``, and
    by_size as the clause-to-size-class indicator, transposed, times G,
    in canonical form (the product's indices come unsorted)."""
    from scipy.sparse import coo_matrix

    shape = (graph.num_clauses, 2 * graph.num_vars)
    g = coo_matrix((np.ones(graph.num_edges), (graph.rows, graph.cols)), shape=shape).tocsr()
    counts = np.bincount(graph.rows, minlength=graph.num_clauses)
    sizes = np.unique(counts).astype(float)
    classes = np.searchsorted(sizes, counts)
    indicator = coo_matrix((np.ones(graph.num_clauses), (np.arange(graph.num_clauses), classes)),
                           shape=(graph.num_clauses, len(sizes))).tocsr()
    by_size = (indicator.T @ g).tocsr()
    by_size.sum_duplicates()
    return g, sizes, by_size


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
    """One EVSIDS bump of variable v, as ``Solver.analyze`` does inline,
    plus the heap entry an unassigned variable needs at its new score."""
    s = solver.evsids[v] + solver.inc
    solver.evsids[v] = s
    if s > 1e100:
        solver._rescale()
    elif solver.assign[v + solver.n] == 0:
        solver._queued[v] = s
        heappush(solver.heap, (-s, v))


class ReferenceSolver(Solver):
    """The straightforward form of the CDCL hot loop: ``solve`` checking
    the budget and every gate before each decision, and ``_propagate``,
    ``analyze`` and ``_backjump`` as plain loops over solver attributes,
    with watch lists, reasons and conflicts holding each clause's literal
    list and every clause width taking the one generic scan.  The package's
    tuned versions must reproduce its search exactly: trail, literal order
    inside every clause, watch-list order, learned clauses, EVSIDS scores
    and stats."""

    def solve(self, budget=None, on_learn=None):
        budget = budget or Budget()
        self._start = time.monotonic()
        status = None if self.propagate_root() else UNSAT
        while status is None:
            if ((budget.max_conflicts is not None and self.conflicts >= budget.max_conflicts)
                    or (budget.max_seconds is not None
                        and time.monotonic() - self._start >= budget.max_seconds)):
                status = UNKNOWN
                break
            if self.conflicts >= self._next_reduce:
                self._reduce_db()
            if self.decision_level > 0 and self.should_restart():
                self._backjump(0)
                self.restarts += 1
                self._conflicts_at_restart = self.conflicts
            if len(self.trail) == self.n:
                status = SAT
                break
            self._try_refocus()
            conflict = self.decide(self.pick_decision())
            while conflict is not None:
                self.conflicts += 1
                if self.decision_level == 0:
                    status = UNSAT
                    break
                learned, bj, glue = self.analyze(conflict)
                self._decay()
                self.update_glue_emas(glue)
                self._record_glue(learned, glue)
                if on_learn is not None:
                    on_learn(self, learned, bj, glue)
                self._learn(learned, bj, glue)
                if budget.max_conflicts is not None and self.conflicts >= budget.max_conflicts:
                    status = UNKNOWN
                    break
                conflict = self._propagate()
        model = self._model() if status == SAT else None
        assert model is None or satisfies(self.formula, model)
        return SolveResult(status=status, model=model, stats=self._stats())

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
                lits = ws[i]
                i += 1
                if lits[0] == falsified:
                    lits[0] = lits[1]
                    lits[1] = falsified
                first = lits[0]
                if assign[first + n] == 1:
                    ws[j] = lits
                    j += 1
                    continue
                moved = False
                for k in range(2, len(lits)):
                    lk = lits[k]
                    if assign[lk + n] != -1:
                        lits[1] = lk
                        lits[k] = falsified
                        watches[lk + n].append(lits)
                        moved = True
                        break
                if moved:
                    continue
                ws[j] = lits
                j += 1
                if assign[first + n] == -1:
                    while i < len(ws):      # conflict: keep the rest watched
                        ws[j] = ws[i]
                        j += 1
                        i += 1
                    conflict = lits
                    break
                self._enqueue(first, lits)
            del ws[j:]
            if conflict is not None:
                return conflict
        return None

    def analyze(self, conflict):
        level = self.level
        reason = self.reason
        trail = self.trail
        seen = self._seen
        cur = self.decision_level
        counter = 0
        tail = []
        p = None
        idx = len(trail) - 1
        lits = conflict
        while True:
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
            lits = reason[v]
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
    """Everything the search leaves behind, with the literal lists that
    watches and reasons hold named by the position of the clause that owns
    them in ``original + learned``.  Anything else there, a copy of a
    clause's literals included, raises KeyError.

    Of the heap it keeps the sorted live entries of unassigned variables,
    those at the variable's current score: the entries ``pick_decision``
    can return.  Which stale and duplicate entries sit beside them depends
    on the re-queuing policy, not on the search."""
    clauses = solver.original + solver.learned
    index = {id(c.lits): i for i, c in enumerate(clauses)}
    n = solver.n
    live = {(negscore, v) for negscore, v in solver.heap
            if solver.assign[v + n] == 0 and -negscore == solver.evsids[v]}

    def name(lits):
        return None if lits is None else index[id(lits)]

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
        "watches": [[name(lits) for lits in ws] for ws in solver.watches],
        "evsids": list(solver.evsids),
        "inc": solver.inc,
        "heap": sorted(live),
    }


def reference_extract(solver):
    """Clause-by-clause residual graph extraction, the loop form of
    ``gluesat.extract.extract_graph``: same rows, literal order, var_map,
    cap handling (the solver's ``cfg.edge_cap``) and skip rule.  Original
    clauses are read from the formula itself, normalized as the solver
    keeps them (tautologies and units left out), so their rows follow
    formula order whatever the watch swaps did to ``solver.original``."""
    n = solver.n
    edge_cap = solver.cfg.edge_cap
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

    original = [c for c in map(normalize_clause, solver.formula.clauses) if c is not None and len(c) >= 2]
    for lits in original:
        left = residual_of(lits)
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


def _reference_mlp(layers, h, slope, dropout, drng):
    """An MLP layer by layer: leaky ReLU and dropout after every layer but
    the last; returns the output and each layer's (input, pre-activation,
    mask)."""
    tape = []
    for i, (w, b) in enumerate(layers):
        z = h @ w + b
        mask = None
        if i < len(layers) - 1:
            out = np.where(z > 0, z, slope * z)
            if drng is not None:
                mask = (drng.random(z.shape) >= dropout) / (1.0 - dropout)
                out = out * mask
        else:
            out = z
        tape.append((h, z, mask))
        h = out
    return h, tape


def _reference_mlp_backward(layers, tape, dout, slope, grads, prefix):
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        h, z, mask = tape[i]
        dz = dout
        if i < len(layers) - 1:
            if mask is not None:
                dz = dz * mask
            dz = dz * np.where(z > 0, 1.0, slope)
        grads[f"{prefix}.{i}.w"] += h.T @ dz
        grads[f"{prefix}.{i}.b"] += dz.sum(axis=0)
        dout = dz @ w.T
    return dout


def _reference_standardize(x, eps):
    inv = 1.0 / np.sqrt(x.var(axis=1, keepdims=True) + eps)
    return (x - x.mean(axis=1, keepdims=True)) * inv, inv


def _reference_standardize_backward(dy, y, inv):
    return inv * (dy - dy.mean(axis=1, keepdims=True) - y * (dy * y).mean(axis=1, keepdims=True))


def _pair_with_negation(L, n):
    return np.hstack([L, np.vstack([L[n:], L[:n]])])


def reference_network(params, hp, graph, dropout_seed=None):
    """The network in its textbook order: every iteration pairs each
    literal with its negation, aggregates the pairs into clauses through a
    dense adjacency (repeated edges add up) and runs the clause update on
    the clause rows; every literal row starts as its own copy of l_init.
    With a dropout seed and hp.dropout > 0, dropout masks are drawn in the
    package's order, layer by layer.

    Returns (logits, value, tape); ``reference_backward`` reads the tape."""
    n = graph.num_vars
    G = np.zeros((graph.num_clauses, 2 * n))
    np.add.at(G, (graph.rows, graph.cols), 1.0)
    slope = hp.leaky_slope
    drng = None if dropout_seed is None or hp.dropout == 0.0 else np.random.default_rng(dropout_seed)
    L = np.tile(params.l_init, (2 * n, 1))
    iters = []
    for _ in range(hp.tau_iters):
        C, c_tape = _reference_mlp(params.c_update, G @ _pair_with_negation(L, n), slope, hp.dropout, drng)
        C_std, c_inv = _reference_standardize(C, hp.ln_eps)
        U, l_tape = _reference_mlp(params.l_update, G.T @ C_std, slope, hp.dropout, drng)
        xhat, ln_inv = _reference_standardize(0.1 * L + U, hp.ln_eps)
        L = xhat * params.ln_scale + params.ln_shift
        iters.append((c_tape, C_std, c_inv, l_tape, xhat, ln_inv))
    X = _pair_with_negation(L, n)
    logits, p_tape = _reference_mlp(params.v_policy, X[:n], slope, hp.dropout, drng)
    value = v_tape = None
    if params.v_value is not None:
        scores, v_tape = _reference_mlp(params.v_value, X, slope, hp.dropout, drng)
        value = float(1.0 / (1.0 + np.exp(-scores.mean())))
    tape = {"G": G, "n": n, "iters": iters, "p_tape": p_tape, "v_tape": v_tape, "value": value}
    return logits.ravel(), value, tape


def reference_backward(params, hp, tape, dlogits, dvalue=0.0):
    """Reverse mode through ``reference_network``'s tape, step by step."""
    grads = {name: np.zeros_like(arr) for name, arr in params.tensors()}
    G, n, slope, dl = tape["G"], tape["n"], hp.leaky_slope, hp.delta_l
    dX = np.zeros((2 * n, 2 * dl))
    dX[:n] += _reference_mlp_backward(params.v_policy, tape["p_tape"], np.reshape(dlogits, (n, 1)),
                                      slope, grads, "v_policy")
    if params.v_value is not None:
        v = tape["value"]
        dscores = np.full((2 * n, 1), dvalue * v * (1.0 - v) / (2 * n))
        dX += _reference_mlp_backward(params.v_value, tape["v_tape"], dscores, slope, grads, "v_value")
    dL = dX[:, :dl] + np.vstack([dX[n:, dl:], dX[:n, dl:]])
    for c_tape, C_std, c_inv, l_tape, xhat, ln_inv in reversed(tape["iters"]):
        grads["ln_scale"] += (dL * xhat).sum(axis=0)
        grads["ln_shift"] += dL.sum(axis=0)
        dres = _reference_standardize_backward(dL * params.ln_scale, xhat, ln_inv)
        dB = _reference_mlp_backward(params.l_update, l_tape, dres, slope, grads, "l_update")
        dC = _reference_standardize_backward(G @ dB, C_std, c_inv)
        dA = _reference_mlp_backward(params.c_update, c_tape, dC, slope, grads, "c_update")
        dX = G.T @ dA
        dL = 0.1 * dres + dX[:, :dl] + np.vstack([dX[n:, dl:], dX[:n, dl:]])
    grads["l_init"] += dL.sum(axis=0)
    return grads


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


def serial_train_supervised(dataset, hp, config, init):
    """train_supervised's loop with every example's forward and backward
    run in turn on the calling thread, as it ran before forwards could run
    ahead on a worker: the bit-for-bit reference for the overlapped loop.
    Returns (final params, averaged params, epoch KLs)."""
    rng = np.random.default_rng(config.seed)
    params = init.copy()
    averaged = params.copy()
    avg = dict(averaged.tensors())
    targets = [target_distribution(ex.glue_counts) for ex in dataset]
    epoch_kl = []
    step = 0
    for _ in range(config.epochs):
        order = rng.permutation(len(dataset))
        losses = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            grads = zero_grads(params)
            batch_loss = 0.0
            for idx in batch:
                loss, _ = kl_grads(
                    params, hp, dataset[idx].graph, targets[idx],
                    grads=grads, scale=1.0 / len(batch),
                    dropout_seed=int(rng.integers(2**63)),
                )
                batch_loss += loss
            check_finite(grads)
            asgd_step(params, avg, grads, config.lr, step)
            step += 1
            losses.append(batch_loss / len(batch))
        epoch_kl.append(float(np.mean(losses)))
    return params, averaged, epoch_kl
