"""Residual clause-literal graph extraction from live solver state.

Builds the network input at a decision point: satisfied clauses dropped,
falsified literals stripped, unassigned variables densely renumbered, with
original clauses traversed before learned ones under the solver's edge cap.
"""

from __future__ import annotations

import numpy as np

from .cnf import SparseGraph, _flat_literals

__all__ = ["extract_graph"]


def extract_graph(solver) -> SparseGraph | None:
    """Extract the simplified clause-literal graph, or None to skip.

    Must be called at a propagation fixpoint without conflict: a residual
    clause of size < 2 met before the cap stops traversal is an invariant
    violation and raises RuntimeError.  Traversal stops once adding a clause
    would push the edge count past the solver's ``cfg.edge_cap``; if that
    happens among the original clauses the whole extraction is skipped
    (returns None).  An original clause's row keeps its surviving literals
    in formula order (from ``solver.original_flat``, which watch swaps leave
    alone), a learned clause's row in their current order;
    ``SparseGraph.matrices`` sorts each row, so the network never sees the
    order within a row.  Pure read; never mutates state.
    """
    n = solver.n
    assign = np.fromiter(solver.assign, dtype=np.int8, count=2 * n + 1)
    unassigned = np.flatnonzero(assign[n + 1:] == 0) + 1
    ng = len(unassigned)
    original_lits, original_lens = solver.original_flat
    num_original = len(original_lens)
    learned_lits, learned_lens = _flat_literals([c.lits for c in solver.learned])
    lits = np.concatenate((original_lits, learned_lits))
    lens = np.concatenate((original_lens, learned_lens))
    vals = assign[lits + n]
    free = vals == 0
    ends = np.cumsum(lens)
    starts = ends - lens

    def per_clause(mask):
        sums = np.zeros(len(mask) + 1, dtype=np.int64)
        np.cumsum(mask, out=sums[1:])
        return sums[ends] - sums[starts]

    unsatisfied = per_clause(vals == 1) == 0
    live = np.flatnonzero(unsatisfied)
    left = per_clause(free)[live]
    # the first live clause whose edges would push the total past the cap
    stop = int(np.searchsorted(np.cumsum(left), solver.cfg.edge_cap, side="right"))
    if np.any(left[: stop + 1] < 2):
        raise RuntimeError("unit or empty residual clause at propagation fixpoint")
    if stop < np.searchsorted(live, num_original):
        return None
    end = int(ends[live[stop - 1]]) if stop else 0
    keep = free[:end] & np.repeat(unsatisfied, lens)[:end]
    col_of = np.zeros(2 * n + 1, dtype=np.int32)
    compact = np.arange(ng, dtype=np.int32)
    col_of[n + unassigned] = compact
    col_of[n - unassigned] = compact + ng
    rows = np.repeat(np.arange(stop, dtype=np.int32), left[:stop])
    cols = col_of[lits[:end][keep] + n]
    return SparseGraph(stop, ng, rows, cols, tuple(unassigned.tolist()))
