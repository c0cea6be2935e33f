"""Seeded formula generation and answer checking, independent of gluesat.

The benchmark builds every input here and hands it to the program as DIMACS
text, so a change to the program cannot change the workload, and it checks
the program's answers with this module's own code.

Clauses are tuples of signed ints (DIMACS convention).
"""

from __future__ import annotations

import random


def rng_for(seed: int, *purpose) -> random.Random:
    """A stream keyed by the run seed and a purpose label; string seeding
    hashes with SHA-512, so streams are stable across Python versions."""
    return random.Random(":".join(str(p) for p in (seed, *purpose)))


def random_3sat(n: int, m: int, rng: random.Random) -> list[tuple[int, ...]]:
    """Uniform random 3-SAT: m clauses over 3 distinct variables each."""
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return clauses


def planted_3sat(n: int, m: int, rng: random.Random) -> list[tuple[int, ...]]:
    """Random 3-SAT conditioned on a hidden model, so satisfiable: clauses
    the model falsifies are redrawn."""
    hidden = [v if rng.random() < 0.5 else -v for v in range(1, n + 1)]
    truth = set(hidden)
    clauses = []
    while len(clauses) < m:
        (clause,) = random_3sat(n, 1, rng)
        if any(lit in truth for lit in clause):
            clauses.append(clause)
    return clauses


def to_dimacs(n: int, clauses) -> str:
    lines = [f"p cnf {n} {len(clauses)}"]
    lines.extend(" ".join(map(str, c)) + " 0" for c in clauses)
    return "\n".join(lines) + "\n"


def satisfies(clauses, model) -> bool:
    """True iff the model (signed literals) makes every clause true."""
    truth = set(model)
    return all(any(lit in truth for lit in c) for c in clauses)


def brute_force_sat(n: int, clauses) -> bool:
    """Satisfiability by testing all 2^n assignments at once: bit a of a
    variable's mask is set iff assignment a makes the variable true."""
    if n > 16:
        raise ValueError(f"brute force limited to 16 variables, got {n}")
    size = 1 << n
    full = (1 << size) - 1
    true_mask = [0] * (n + 1)
    for v in range(1, n + 1):
        true_mask[v] = sum(1 << a for a in range(size) if a >> (v - 1) & 1)
    alive = full
    for c in clauses:
        sat = 0
        for lit in c:
            m = true_mask[abs(lit)]
            sat |= m if lit > 0 else full ^ m
        alive &= sat
        if not alive:
            return False
    return True
