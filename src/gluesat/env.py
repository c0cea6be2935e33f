"""Episodic decision environment wrapped around the CDCL engine.

Actions pick an unassigned variable (by compacted index into the current
observation); the environment assigns a uniformly random polarity and unit
propagates.  A conflict ends the episode with reward 1/glue^2, full
assignment ends it with reward 0, and every other step costs -1/n.
Learned clauses never survive a reset.
"""

from __future__ import annotations

import numpy as np

from .cnf import Formula
from .extract import extract_graph
from .solver import Solver, SolverConfig

__all__ = ["GlueEnv", "TrivialFormulaError"]


class TrivialFormulaError(ValueError):
    """Formula is decided by root unit propagation; no episode is possible."""


class GlueEnv:
    """One environment per rollout worker; never share instances.  Refuses an edge_cap below 1."""

    def __init__(self, edge_cap: int = SolverConfig.edge_cap):
        self.cfg = SolverConfig(edge_cap=edge_cap)
        self.solver = None
        self.obs = None
        self.terminal = None
        self._rng = None

    def reset(self, formula: Formula, seed=None):
        """Start an episode: fresh engine (discarding learned clauses), root
        unit propagation, observation of the residual graph.  ValueError
        when that graph exceeds ``edge_cap``; since an episode never learns
        or backtracks, later observations only shrink and always fit."""
        solver = Solver(formula, self.cfg)
        if not solver.propagate_root():
            raise TrivialFormulaError("formula is refuted at the root")
        if len(solver.trail) == solver.n or solver.n == 0:
            raise TrivialFormulaError("root unit propagation decides the formula")
        obs = extract_graph(solver)
        if obs is None:
            raise ValueError(f"the residual formula has more than edge_cap={self.cfg.edge_cap} edges")
        self.solver = solver
        self._rng = np.random.default_rng(seed)
        self.terminal = None
        self.obs = obs
        return obs

    def step(self, action: int):
        """Apply one decision; returns (observation, reward, done).

        The observation is None on terminal steps.
        """
        if self.obs is None:
            raise RuntimeError("step called on a finished episode")
        var_map = self.obs.var_map
        if not 0 <= action < len(var_map):
            raise ValueError(f"action {action} out of range for {len(var_map)} valid actions")
        v = var_map[action]
        polarity = bool(self._rng.integers(2))
        lit = v if polarity else -v
        s = self.solver
        conflict = s.decide(lit)
        if conflict is not None:
            _, _, glue = s.analyze(conflict)
            self.terminal = ("conflict", glue)
            self.obs = None
            return None, 1.0 / glue**2, True
        if len(s.trail) == s.n:
            self.terminal = ("satisfied", None)
            self.obs = None
            return None, 0.0, True
        self.obs = extract_graph(s)
        return self.obs, -1.0 / s.n, False
