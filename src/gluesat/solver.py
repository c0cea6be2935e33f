"""CDCL solver: two-watched-literal propagation, first-UIP learning, EVSIDS
branching with phase saving, glue-EMA restarts, glue-preserving database
reduction, and periodic oracle-driven score refocusing.
"""

from __future__ import annotations

import math
import time
from dataclasses import InitVar, dataclass, field
from heapq import heapify, heappop, heappush

import numpy as np

from . import extract
from .cnf import Formula, _flat_literals, normalize_clause, satisfies
from .network import policy_distribution

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"

# Fixed policy, as in CaDiCaL: EVSIDS decay (rho), initial phase, restart
# margin, glue EMA rates.
_DECAY = 0.95
_INITIAL_PHASE = False
_RESTART_MARGIN = 1.25
_EMA_FAST = 2.0 ** -5
_EMA_SLOW = 2.0 ** -14

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
    restart_interval: int = 2
    reduce_base: int = 2000
    reduce_step: int = 300
    schedule_base: int = 50_000
    schedule_quad: int = 1_000
    schedule_cap: int = 250_000
    refocus_margin: float = 1.1
    kappa: float = 1e4
    temperature: float = 4.0
    edge_cap: int = 10_000_000
    warmup_conflicts: int = 1000
    # constructor-only: perfbench still passes it; goes with ROADMAP item 8's benchmark change
    warmup_mode: InitVar[str] = "conflicts"

    def __post_init__(self, warmup_mode):
        if warmup_mode != "conflicts":
            raise ValueError(f"warmup_mode must be 'conflicts' (the only warm-up), got {warmup_mode!r}")
        if not (math.isfinite(self.refocus_margin) and self.refocus_margin >= 0):
            raise ValueError(f"refocus_margin must be finite and >= 0, got {self.refocus_margin}")
        for name in ("kappa", "temperature"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if self.edge_cap < 1:
            raise ValueError(f"edge_cap must be >= 1, got {self.edge_cap}")
        # a restart needs a conflict since the last one: at 0 the search
        # would restart before every decision and never reach a conflict
        if self.restart_interval < 1:
            raise ValueError(f"restart_interval must be >= 1, got {self.restart_interval}")
        for name in ("reduce_base", "reduce_step", "schedule_base",
                     "schedule_quad", "schedule_cap", "warmup_conflicts"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    def first_refocus_due(self) -> int:
        """The first conflict count at which a refocus can fire: the warm-up
        and the first schedule threshold both lie behind it."""
        return max(self.warmup_conflicts,
                   schedule_threshold(1, self.schedule_base, self.schedule_quad, self.schedule_cap))


@dataclass
class Budget:
    max_conflicts: int | None = None
    max_seconds: float | None = None

    def __post_init__(self):
        for name in ("max_conflicts", "max_seconds"):
            value = getattr(self, name)
            if value is not None and not value >= 0:    # NaN fails too
                raise ValueError(f"{name} must be None or >= 0, got {value}")


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


@dataclass
class SolveResult:
    status: str
    model: list[int] | None
    stats: SolveStats


def schedule_threshold(n: int, base: int = SolverConfig.schedule_base,
                       quad: int = SolverConfig.schedule_quad, cap: int = SolverConfig.schedule_cap) -> int:
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
    """An original or learned clause: its literal list, which watch lists,
    reasons and conflicts hold directly, and its glue (None for originals)."""

    __slots__ = ("lits", "glue")

    def __init__(self, lits, glue=None):
        self.lits = lits
        self.glue = glue

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

    ``original_flat`` is the original clauses' literals in formula order,
    concatenated into one int32 array, with each clause's length: watch
    swaps reorder ``clause.lits`` but never this copy.
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
        self._queued = [0.0] * (n + 1)       # score of v's live heap entry, None if it has none
        self.phase = [_INITIAL_PHASE] * (n + 1)
        self.original = []
        self.learned = []
        self._seen = bytearray(n + 1)
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
        self.original_flat = _flat_literals([c.lits for c in self.original])

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
        self.watches[lits[0] + n].append(lits)
        self.watches[lits[1] + n].append(lits)

    def _detach(self, clause):
        # by identity: list.remove would take the first *equal* literal list
        lits = clause.lits
        for watched in lits[:2]:
            ws = self.watches[watched + self.n]
            for i, other in enumerate(ws):
                if other is lits:
                    del ws[i]
                    break

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

        Returns the falsified clause's literal list on a conflict, else
        None.  ``lit`` must be an unassigned literal of the formula.
        """
        if not 0 < abs(lit) <= self.n or self.assign[lit + self.n] != 0:
            raise ValueError(f"cannot decide {lit}: not an unassigned literal of the formula")
        return self._decide(lit)

    def _decide(self, lit):
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
        """Propagate queued assignments; returns the literal list of a
        falsified clause, or None."""
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
            for lits in it:
                first = lits[0]
                if first == falsified:
                    first = lits[1]
                    lits[0] = first
                    lits[1] = falsified
                val = assign[first + n]
                if val == 1:
                    keep.append(lits)
                    continue
                # most watch visits are to 3-literal clauses: one candidate
                if len(lits) == 3:
                    lk = lits[2]
                    if assign[lk + n] != -1:
                        lits[1] = lk
                        lits[2] = falsified
                        watches[lk + n].append(lits)
                        continue
                else:
                    for k in range(2, len(lits)):
                        lk = lits[k]
                        if assign[lk + n] != -1:
                            lits[1] = lk
                            lits[k] = falsified
                            watches[lk + n].append(lits)
                            break
                    else:
                        k = 0       # no replacement watch
                    if k:
                        continue
                keep.append(lits)
                if val == -1:
                    keep.extend(it)     # conflict: keep the rest watched
                    conflict = lits
                    break
                assign[first + n] = 1
                assign[n - first] = -1
                v = first if first > 0 else -first
                level[v] = cur
                reason[v] = lits
                trail.append(first)
            watches[falsified + n] = keep
            if conflict is not None:
                break
        self.propagations += qhead - self.qhead
        self.qhead = qhead
        return conflict

    def analyze(self, conflict):
        """First-UIP conflict analysis.

        Returns (learned_lits, backjump_level, glue); learned_lits[0] is the
        asserting literal and, for clauses of size >= 2, learned_lits[1] sits
        at the backjump level so the watches are correct after backjumping.
        Every variable it meets gets its EVSIDS score raised by ``inc``
        (rescaling past 1e100); all of them are assigned, so none goes on
        the heap here (``_backjump`` re-queues it).
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
        lits = conflict
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
            lits = reason[v][1:]        # [0] is p itself
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
        queued = self._queued
        for lit in reversed(trail[keep:]):
            assign[lit + n] = 0
            assign[n - lit] = 0
            v = lit if lit > 0 else -lit
            phase[v] = lit > 0
            reason[v] = None
            s = evsids[v]
            if queued[v] != s:      # its live entry, if any, holds an older score
                queued[v] = s
                heappush(heap, (-s, v))
        del trail[keep:]
        del lim[target_level:]
        self.qhead = keep

    # --------------------------------------------------------------- scoring

    def _decay(self):
        # EVSIDS trick: growing the increment decays all existing scores
        self.inc /= _DECAY
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
        evsids = self.evsids
        queued = [None] * (n + 1)
        heap = []
        for v in range(1, n + 1):
            if assign[v + n] == 0:
                queued[v] = s = evsids[v]
                heap.append((-s, v))
        heapify(heap)
        self.heap = heap
        self._queued = queued

    def pick_decision(self) -> int:
        """Unassigned variable of maximal EVSIDS score (ties: lowest index),
        signed by its saved phase.

        The heap holds at most one live entry per variable, at the score
        ``_queued`` records, beside stale entries that a later score left
        behind.  Every unassigned variable's live entry holds its current
        score, so the first entry on top that is an unassigned variable at
        its current score is the decision.  Entries above it are popped; a
        popped live entry clears its variable's mark, so that the next
        backjump re-queues it.
        """
        n = self.n
        assign = self.assign
        evsids = self.evsids
        queued = self._queued
        heap = self.heap
        if len(heap) > 8 * n + 64:
            self._rebuild_heap()
            heap = self.heap
            queued = self._queued
        while heap:
            negscore, v = heap[0]
            if assign[v + n] == 0 and -negscore == evsids[v]:
                return v if self.phase[v] else -v
            heappop(heap)
            if queued[v] == -negscore:
                queued[v] = None
        raise RuntimeError("no unassigned variable to decide on")

    # ------------------------------------------------------------------ glue

    def update_glue_emas(self, glue):
        """Fold one learned-clause glue into the fast and slow EMAs."""
        self._ema_t += 1
        self._ema_fast += _EMA_FAST * (glue - self._ema_fast)
        self._ema_slow += _EMA_SLOW * (glue - self._ema_slow)

    def _debiased(self, ema, alpha) -> float:
        return ema / (1.0 - (1.0 - alpha) ** self._ema_t) if self._ema_t else 0.0

    def glue_ema_fast(self) -> float:
        """Bias-corrected fast EMA of glue levels (0 before any conflict)."""
        return self._debiased(self._ema_fast, _EMA_FAST)

    def glue_ema_slow(self) -> float:
        return self._debiased(self._ema_slow, _EMA_SLOW)

    def _glue_surge(self, margin) -> bool:
        """Fast glue EMA above ``margin`` times the slow one."""
        return self._ema_t > 0 and self.glue_ema_fast() > margin * self.glue_ema_slow()

    def should_restart(self) -> bool:
        if self.conflicts - self._conflicts_at_restart < self.cfg.restart_interval:
            return False
        return self._glue_surge(_RESTART_MARGIN)

    # --------------------------------------------------------------- refocus

    def should_refocus(self) -> bool:
        """All three gates: conflict warm-up elapsed, conflict schedule met,
        fast glue EMA above the slow EMA by the configured margin."""
        if self.oracle is None or self.conflicts < self.cfg.warmup_conflicts:
            return False
        due = schedule_threshold(
            self.refocuses + 1, self.cfg.schedule_base, self.cfg.schedule_quad, self.cfg.schedule_cap
        )
        if self.conflicts - self._conflicts_at_refocus < due:
            return False
        return self._glue_surge(self.cfg.refocus_margin)

    def _try_refocus(self) -> bool:
        """Refocus when ``should_refocus`` holds; returns whether it held."""
        if not self.should_refocus():
            return False
        graph = extract.extract_graph(self)
        self._conflicts_at_refocus = self.conflicts
        if graph is not None:
            logits = np.asarray(self.oracle(graph), dtype=float)
            probs = policy_distribution(logits, self.cfg.temperature)
            self.apply_refocus(probs, graph.var_map)
        return True

    def apply_refocus(self, probs, var_map):
        """Replace EVSIDS scores with oracle probabilities scaled by the
        number of graph variables and kappa; everything else drops to 0.
        Raises ValueError, leaving the scores as they were, unless probs
        is a finite, non-negative distribution over var_map and var_map
        holds distinct variables in 1..n."""
        probs = np.asarray(probs, dtype=float)
        if len(probs) != len(var_map):
            raise ValueError("probability vector does not match var_map")
        if not np.isfinite(probs).all() or (probs < 0).any():
            raise ValueError("refocus probabilities must be finite and non-negative")
        if abs(float(probs.sum()) - 1.0) > 1e-6:
            raise ValueError("refocus distribution is not normalized")
        if min(var_map) < 1 or max(var_map) > self.n or len(set(var_map)) < len(var_map):
            raise ValueError(f"var_map must hold distinct variables in 1..{self.n}")
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
        always retained; among equal glues the older clauses go first.
        Returns (kept, deleted) for inspection.
        """
        # newest first, then a stable sort by glue: the oldest of equal glues go last
        candidates = sorted((c for c in reversed(self.learned) if c.glue > 2), key=lambda c: c.glue)
        # skip locked clauses: a reason clause implies its first literal
        deleted = [c for c in candidates[(len(candidates) + 1) // 2:]
                   if self.reason[abs(c.lits[0])] is not c.lits]
        for clause in deleted:
            self._detach(clause)
        gone = set(deleted)
        self.learned = [c for c in self.learned if c not in gone]  # keep learn order
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
            clause = _Clause(learned, glue=glue)
            self.learned.append(clause)
            self._attach(clause)
            self._enqueue(learned[0], learned)

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

    def solve(self, budget: Budget | None = None, on_learn=None) -> SolveResult:
        """Run CDCL to completion or budget exhaustion; once per Solver.

        A second call raises RuntimeError: a solve stopped by its budget
        leaves the search above decision level 0, where a conflict no longer
        proves the formula unsatisfiable.

        ``on_learn(solver, learned_lits, backjump_level, glue)``, the one
        hook, fires after each conflict's analysis but before backjumping,
        so ``learned_lits`` is not yet in ``solver.learned``.
        """
        if self._start is not None:
            raise RuntimeError("a Solver solves once; build a new one for another solve")
        budget = budget or Budget()
        self._start = time.monotonic()
        status = None if self.propagate_root() else UNSAT
        max_conflicts, max_seconds = budget.max_conflicts, budget.max_seconds
        if status is None and max_conflicts is not None and self.conflicts >= max_conflicts:
            status = UNKNOWN
        # the reduce, restart and refocus gates read only what conflicts and
        # the gates themselves change (the restart gate also waits for a
        # decision level), so they are evaluated after each conflict streak,
        # again right after one fires, and after one decision from level 0
        gates = True
        while status is None:
            if max_seconds is not None and time.monotonic() - self._start >= max_seconds:
                status = UNKNOWN
                break
            check, gates = gates, False
            if check:
                if self.conflicts >= self._next_reduce:
                    self._reduce_db()
                    gates = True
                if self.decision_level == 0:
                    gates = True
                elif self.should_restart():
                    self._backjump(0)
                    self.restarts += 1
                    self._conflicts_at_restart = self.conflicts
                    gates = True
            if len(self.trail) == self.n:
                status = SAT
                break
            if check and self._try_refocus():
                gates = True
            # pick_decision returns an unassigned literal: decide's checks
            # are left out
            conflict = self._decide(self.pick_decision())
            while conflict is not None:
                gates = True
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
                if max_conflicts is not None and self.conflicts >= max_conflicts:
                    status = UNKNOWN
                    break
                conflict = self._propagate()
        model = None
        if status == SAT:
            model = self._model()
            if not satisfies(self.formula, model):
                raise AssertionError("internal error: SAT model fails verification")
        return SolveResult(status=status, model=model, stats=self._stats())


def solve(formula, config=None, budget=None, oracle=None, on_learn=None) -> SolveResult:
    """Convenience wrapper: build a Solver and run it once."""
    return Solver(formula, config=config, oracle=oracle).solve(budget=budget, on_learn=on_learn)
