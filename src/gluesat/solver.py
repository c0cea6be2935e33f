"""CDCL solver: two-watched-literal propagation, first-UIP learning, EVSIDS
branching with phase saving, glue-EMA restarts, glue-preserving database
reduction, and periodic oracle-driven score refocusing.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from heapq import heapify, heappop, heappush

import numpy as np

from .cnf import Formula, normalize_clause, satisfies

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"

__all__ = [
    "SAT",
    "UNSAT",
    "UNKNOWN",
    "Budget",
    "Solver",
    "SolverConfig",
    "SolveResult",
    "SolveStats",
    "random_oracle",
    "schedule_threshold",
    "solve",
]


@dataclass
class SolverConfig:
    decay: float = 0.95                 # EVSIDS rho
    phase_default: bool = False
    restart_interval: int = 2
    restart_margin: float = 1.25
    reduce_base: int = 2000
    reduce_step: int = 300
    ema_alpha_fast: float = 2.0 ** -5
    ema_alpha_slow: float = 2.0 ** -14
    schedule_base: int = 50_000
    schedule_quad: int = 1_000
    schedule_cap: int = 250_000
    refocus_margin: float = 1.1
    kappa: float = 1e4
    temperature: float = 4.0
    edge_cap: int = 10_000_000
    warmup_mode: str = "time"           # "time" or "conflicts"
    warmup_seconds: float = 15.0
    warmup_conflicts: int = 1000


@dataclass
class Budget:
    max_conflicts: int | None = None
    max_decisions: int | None = None
    max_seconds: float | None = None


@dataclass
class SolveStats:
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    restarts: int = 0
    refocuses: int = 0
    reductions: int = 0
    learned: int = 0
    avg_glue: float = 0.0
    glr: float = 0.0
    runtime: float = 0.0
    glue_counts: list[int] = field(default_factory=list)

    def as_dict(self):
        return asdict(self)


@dataclass
class SolveResult:
    status: str
    model: list[int] | None
    stats: SolveStats


def schedule_threshold(n: int, base: int = 50_000, quad: int = 1_000, cap: int = 250_000) -> int:
    """Conflict count required before the n-th refocus: min(base + quad*(n-1)^2, cap)."""
    if n < 1:
        raise ValueError("refocus ordinal must be >= 1")
    return min(base + quad * (n - 1) ** 2, cap)


def random_oracle(seed):
    """Refocus oracle producing logits uniform on [0,1), seeded per solver."""
    rng = np.random.default_rng(seed)

    def oracle(graph):
        return rng.random(graph.num_vars)

    return oracle


class _Clause:
    __slots__ = ("lits", "learned", "glue", "born")

    def __init__(self, lits, learned=False, glue=None, born=0):
        self.lits = lits
        self.learned = learned
        self.glue = glue
        self.born = born

    def __repr__(self):
        return f"_Clause({self.lits}, glue={self.glue})"


class Solver:
    """Single-use CDCL engine over one formula.

    Either call ``solve`` once, or drive the search by hand with
    ``propagate_root`` and then ``decide``; ``solve`` refuses a second call
    and a solver that already holds decisions.  The refocus ``oracle``,
    when given, maps a SparseGraph of the residual formula to one logit per
    compacted variable.  Instances are not thread safe; run independent
    solvers for concurrency.
    """

    def __init__(self, formula: Formula, config: SolverConfig | None = None, oracle=None):
        self.formula = formula
        self.cfg = config or SolverConfig()
        self.oracle = oracle
        n = formula.num_vars
        self.n = n
        self.assign = [0] * (2 * n + 1)       # index lit+n: 1 true, -1 false
        self.level = [0] * (n + 1)
        self.reason = [None] * (n + 1)
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.watches = [[] for _ in range(2 * n + 1)]
        self.evsids = [0.0] * (n + 1)
        self.inc = 1.0
        self.heap = [(0.0, v) for v in range(1, n + 1)]
        self.phase = [self.cfg.phase_default] * (n + 1)
        self.original = []
        self.learned = []
        self._seen = bytearray(n + 1)
        self._born = 0
        self._root_units = []
        self._root_unsat = False

        self.decisions = 0
        self.conflicts = 0
        self.propagations = 0
        self.restarts = 0
        self.refocuses = 0
        self.reductions = 0
        self.glue_counts = [0] * (n + 1)
        self._glue_sum = 0
        self._glue_n = 0
        self._ema_fast = 0.0
        self._ema_slow = 0.0
        self._ema_t = 0
        self._conflicts_at_restart = 0
        self._conflicts_at_refocus = 0
        self._next_reduce = self.cfg.reduce_base
        self._start = None

        for lits in formula.clauses:
            c = normalize_clause(lits)
            if c is None:
                continue
            if not c:
                self._root_unsat = True
            elif len(c) == 1:
                self._root_units.append(c[0])
            else:
                clause = _Clause(list(c))
                self.original.append(clause)
                self._attach(clause)

    # ------------------------------------------------------------------ core

    @property
    def decision_level(self) -> int:
        return len(self.trail_lim)

    def value(self, lit: int) -> int:
        """1 if lit is true, -1 if false, 0 if unassigned.  ValueError when
        ``lit`` is not a literal of the formula."""
        if not 0 < abs(lit) <= self.n:
            raise ValueError(f"{lit} is not a literal of the formula")
        return self.assign[lit + self.n]

    def _attach(self, clause):
        n = self.n
        lits = clause.lits
        self.watches[lits[0] + n].append(clause)
        self.watches[lits[1] + n].append(clause)

    def _detach(self, clause):
        n = self.n
        self.watches[clause.lits[0] + n].remove(clause)
        self.watches[clause.lits[1] + n].remove(clause)

    def propagate_root(self) -> bool:
        """Assign the unit clauses and propagate them at decision level 0.

        Returns False when the formula is refuted at the root (an empty
        clause, contradictory units or a propagation conflict), True
        otherwise.  Calling it again is harmless and gives the same answer.
        """
        if self.trail_lim:
            raise RuntimeError("propagate_root called above decision level 0")
        if not self._root_unsat:
            for lit in self._root_units:
                val = self.value(lit)
                if val == -1:
                    self._root_unsat = True
                    return False
                if val == 0:
                    self._enqueue(lit, None)
            if self._propagate() is not None:
                self._root_unsat = True
        return not self._root_unsat

    def decide(self, lit: int):
        """Open a decision level, assign ``lit`` true and propagate.

        Returns the falsified clause on a conflict, else None.  ``lit`` must
        be an unassigned literal of the formula.
        """
        if not 0 < abs(lit) <= self.n or self.assign[lit + self.n] != 0:
            raise ValueError(f"cannot decide {lit}: not an unassigned literal of the formula")
        self.decisions += 1
        self.trail_lim.append(len(self.trail))
        self._enqueue(lit, None)
        return self._propagate()

    def _enqueue(self, lit, reason=None):
        n = self.n
        self.assign[lit + n] = 1
        self.assign[-lit + n] = -1
        v = abs(lit)
        self.level[v] = self.decision_level
        self.reason[v] = reason
        self.trail.append(lit)

    def _propagate(self):
        """Propagate queued assignments; returns a falsified clause or None."""
        n = self.n
        assign = self.assign
        watches = self.watches
        level = self.level
        reason = self.reason
        trail = self.trail
        cur = len(self.trail_lim)
        qhead = self.qhead
        conflict = None
        while qhead < len(trail):
            falsified = -trail[qhead]
            qhead += 1
            # Rebuilt rather than compacted in place: no clause moves its
            # watch onto this list, since the new watch is not false.
            keep = []
            it = iter(watches[falsified + n])
            for clause in it:
                lits = clause.lits
                first = lits[0]
                if first == falsified:
                    first = lits[1]
                    lits[0] = first
                    lits[1] = falsified
                val = assign[first + n]
                if val == 1:
                    keep.append(clause)
                    continue
                for k in range(2, len(lits)):
                    lk = lits[k]
                    if assign[lk + n] != -1:
                        lits[1] = lk
                        lits[k] = falsified
                        watches[lk + n].append(clause)
                        break
                else:
                    keep.append(clause)
                    if val == -1:
                        keep.extend(it)     # conflict: keep the rest watched
                        conflict = clause
                        break
                    assign[first + n] = 1
                    assign[n - first] = -1
                    v = first if first > 0 else -first
                    level[v] = cur
                    reason[v] = clause
                    trail.append(first)
            watches[falsified + n] = keep
            if conflict is not None:
                break
        self.propagations += qhead - self.qhead
        self.qhead = qhead
        return conflict

    def _analyze(self, conflict):
        """First-UIP conflict analysis.

        Returns (learned_lits, backjump_level, glue); learned_lits[0] is the
        asserting literal and, for clauses of size >= 2, learned_lits[1] sits
        at the backjump level so the watches are correct after backjumping.
        Every variable it meets gets its EVSIDS score raised by ``inc``
        (rescaling past 1e100); all of them are assigned, so none goes on
        the heap here (``_backjump`` pushes it).
        """
        level = self.level
        reason = self.reason
        trail = self.trail
        seen = self._seen
        evsids = self.evsids
        inc = self.inc
        cur = len(self.trail_lim)
        counter = 0
        tail = []
        idx = len(trail) - 1
        lits = conflict.lits
        while True:
            for q in lits:
                v = q if q > 0 else -q
                if seen[v] or level[v] == 0:
                    continue
                seen[v] = 1
                s = evsids[v] + inc
                evsids[v] = s
                if s > 1e100:
                    self._rescale()
                    evsids = self.evsids
                    inc = self.inc
                if level[v] >= cur:
                    counter += 1
                else:
                    tail.append(q)
            p = trail[idx]
            while not seen[p if p > 0 else -p]:
                idx -= 1
                p = trail[idx]
            v = p if p > 0 else -p
            seen[v] = 0
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            lits = reason[v].lits[1:]       # lits[0] is p itself
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
        lim = self.trail_lim
        if target_level >= len(lim):
            return
        trail = self.trail
        keep = lim[target_level]
        n = self.n
        assign = self.assign
        phase = self.phase
        reason = self.reason
        heap = self.heap
        evsids = self.evsids
        for lit in reversed(trail[keep:]):
            assign[lit + n] = 0
            assign[n - lit] = 0
            v = lit if lit > 0 else -lit
            phase[v] = lit > 0
            reason[v] = None
            heappush(heap, (-evsids[v], v))
        del trail[keep:]
        del lim[target_level:]
        self.qhead = keep

    # --------------------------------------------------------------- scoring

    def _decay(self):
        # EVSIDS trick: growing the increment decays all existing scores
        self.inc /= self.cfg.decay
        if self.inc > 1e100:
            self._rescale()

    def _rescale(self):
        for v in range(1, self.n + 1):
            self.evsids[v] *= 1e-100
        self.inc = max(self.inc * 1e-100, 1e-100)
        self._rebuild_heap()

    def _rebuild_heap(self):
        n = self.n
        assign = self.assign
        self.heap = [(-self.evsids[v], v) for v in range(1, n + 1) if assign[v + n] == 0]
        heapify(self.heap)

    def pick_decision(self) -> int:
        """Unassigned variable of maximal EVSIDS score (ties: lowest index),
        signed by its saved phase."""
        n = self.n
        assign = self.assign
        heap = self.heap
        if len(heap) > 8 * n + 64:
            self._rebuild_heap()
            heap = self.heap
        while heap:
            negscore, v = heappop(heap)
            if assign[v + n] == 0 and -negscore == self.evsids[v]:
                heappush(heap, (negscore, v))
                return v if self.phase[v] else -v
        raise RuntimeError("no unassigned variable to decide on")

    # ------------------------------------------------------------------ glue

    def update_glue_emas(self, glue):
        """Fold one learned-clause glue into the fast and slow EMAs."""
        self._ema_t += 1
        self._ema_fast += self.cfg.ema_alpha_fast * (glue - self._ema_fast)
        self._ema_slow += self.cfg.ema_alpha_slow * (glue - self._ema_slow)

    def glue_ema_fast(self) -> float:
        """Bias-corrected fast EMA of glue levels (0 before any conflict)."""
        if self._ema_t == 0:
            return 0.0
        return self._ema_fast / (1.0 - (1.0 - self.cfg.ema_alpha_fast) ** self._ema_t)

    def glue_ema_slow(self) -> float:
        if self._ema_t == 0:
            return 0.0
        return self._ema_slow / (1.0 - (1.0 - self.cfg.ema_alpha_slow) ** self._ema_t)

    def should_restart(self) -> bool:
        if self.conflicts - self._conflicts_at_restart < self.cfg.restart_interval:
            return False
        if self._ema_t == 0:
            return False
        return self.glue_ema_fast() > self.cfg.restart_margin * self.glue_ema_slow()

    # --------------------------------------------------------------- refocus

    def _warmup_done(self) -> bool:
        if self.cfg.warmup_mode == "conflicts":
            return self.conflicts >= self.cfg.warmup_conflicts
        if self._start is None:
            return False
        return time.monotonic() - self._start >= self.cfg.warmup_seconds

    def should_refocus(self) -> bool:
        """All three gates: warm-up elapsed, conflict schedule met, fast glue
        EMA above the slow EMA by the configured margin."""
        if self.oracle is None or not self._warmup_done():
            return False
        due = schedule_threshold(
            self.refocuses + 1, self.cfg.schedule_base, self.cfg.schedule_quad, self.cfg.schedule_cap
        )
        if self.conflicts - self._conflicts_at_refocus < due:
            return False
        if self._ema_t == 0:
            return False
        return self.glue_ema_fast() > self.cfg.refocus_margin * self.glue_ema_slow()

    def _try_refocus(self):
        from .extract import extract_graph

        if not self.should_refocus():
            return
        graph = extract_graph(self, self.cfg.edge_cap)
        self._conflicts_at_refocus = self.conflicts
        if graph is None:
            return
        from .network import policy_distribution

        logits = np.asarray(self.oracle(graph), dtype=float)
        probs = policy_distribution(logits, self.cfg.temperature)
        self.apply_refocus(probs, graph.var_map)

    def apply_refocus(self, probs, var_map):
        """Replace EVSIDS scores with oracle probabilities scaled by the
        number of graph variables and kappa; everything else drops to 0.
        Raises ValueError, leaving the scores as they were, unless probs
        is a finite, non-negative distribution over var_map."""
        probs = np.asarray(probs, dtype=float)
        if len(probs) != len(var_map):
            raise ValueError("probability vector does not match var_map")
        if not np.isfinite(probs).all() or (probs < 0).any():
            raise ValueError("refocus probabilities must be finite and non-negative")
        if abs(float(probs.sum()) - 1.0) > 1e-6:
            raise ValueError("refocus distribution is not normalized")
        scale = len(var_map) * self.cfg.kappa
        fresh = np.zeros(self.n + 1)
        fresh[np.asarray(var_map, dtype=np.intp)] = probs * scale
        self.evsids = fresh.tolist()
        self.inc = 1.0
        self.refocuses += 1
        self._rebuild_heap()

    # ------------------------------------------------------------- reduction

    def _reduce_db(self):
        """Drop the worse half of the high-glue learned clauses.

        Glue clauses (glue <= 2) and reason clauses of the current trail are
        always retained.  Returns (kept, deleted) for inspection.
        """
        locked = {id(self.reason[abs(lit)]) for lit in self.trail if self.reason[abs(lit)] is not None}
        always = [c for c in self.learned if c.glue <= 2]
        candidates = [c for c in self.learned if c.glue > 2]
        candidates.sort(key=lambda c: (c.glue, -c.born))
        half = len(candidates) // 2
        kept = candidates[: len(candidates) - half]
        deleted = []
        for clause in candidates[len(candidates) - half:]:
            if id(clause) in locked:
                kept.append(clause)
            else:
                deleted.append(clause)
        for clause in deleted:
            self._detach(clause)
        retained = {id(c) for c in always}
        retained.update(id(c) for c in kept)
        self.learned = [c for c in self.learned if id(c) in retained]  # keep learn order
        self.reductions += 1
        self._next_reduce = self.conflicts + self.cfg.reduce_base + self.cfg.reduce_step * self.reductions
        return list(self.learned), deleted

    # ----------------------------------------------------------------- solve

    def _record_glue(self, learned, glue):
        self._glue_sum += glue
        self._glue_n += 1
        if glue <= 2:
            for lit in learned:
                self.glue_counts[abs(lit)] += 1

    def _learn(self, learned, bj, glue):
        self._backjump(bj)
        if len(learned) == 1:
            self._enqueue(learned[0], None)
        else:
            clause = _Clause(learned, learned=True, glue=glue, born=self._born)
            self._born += 1
            self.learned.append(clause)
            self._attach(clause)
            self._enqueue(learned[0], clause)

    def _stats(self):
        st = SolveStats(
            decisions=self.decisions,
            conflicts=self.conflicts,
            propagations=self.propagations,
            restarts=self.restarts,
            refocuses=self.refocuses,
            reductions=self.reductions,
            learned=self._glue_n,
            avg_glue=self._glue_sum / self._glue_n if self._glue_n else 0.0,
            glr=self.conflicts / self.decisions if self.decisions else 0.0,
            runtime=time.monotonic() - self._start if self._start is not None else 0.0,
            glue_counts=self.glue_counts[1:],
        )
        return st

    def _model(self):
        n = self.n
        return [v if self.assign[v + n] == 1 else -v for v in range(1, n + 1)]

    def solve(self, budget: Budget | None = None, on_learn=None, on_conflict=None) -> SolveResult:
        """Run CDCL to completion or budget exhaustion; once per Solver.

        A second call raises RuntimeError: a solve stopped by its budget
        leaves the search above decision level 0, where a conflict no longer
        proves the formula unsatisfiable.

        ``on_learn(solver, learned_lits, backjump_level, glue)`` fires after
        conflict analysis but before backjumping; ``on_conflict(solver)``
        fires once each conflict is fully processed.
        """
        if self._start is not None:
            raise RuntimeError("a Solver solves once; build a new one for another solve")
        budget = budget or Budget()
        self._start = time.monotonic()
        status = None if self.propagate_root() else UNSAT
        while status is None:
            if budget.max_conflicts is not None and self.conflicts >= budget.max_conflicts:
                status = UNKNOWN
                break
            if budget.max_decisions is not None and self.decisions >= budget.max_decisions:
                status = UNKNOWN
                break
            if budget.max_seconds is not None and time.monotonic() - self._start >= budget.max_seconds:
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
                learned, bj, glue = self._analyze(conflict)
                self._decay()
                self.update_glue_emas(glue)
                self._record_glue(learned, glue)
                if on_learn is not None:
                    on_learn(self, learned, bj, glue)
                self._learn(learned, bj, glue)
                if on_conflict is not None:
                    on_conflict(self)
                if budget.max_conflicts is not None and self.conflicts >= budget.max_conflicts:
                    status = UNKNOWN
                    break
                conflict = self._propagate()
        model = None
        if status == SAT:
            model = self._model()
            if not satisfies(self.formula, model):
                raise AssertionError("internal error: SAT model fails verification")
        return SolveResult(status=status, model=model, stats=self._stats())


def solve(formula, config=None, budget=None, oracle=None, on_learn=None, on_conflict=None) -> SolveResult:
    """Convenience wrapper: build a Solver and run it once."""
    return Solver(formula, config=config, oracle=oracle).solve(
        budget=budget, on_learn=on_learn, on_conflict=on_conflict
    )
