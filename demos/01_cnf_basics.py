"""CNF basics: parsing, writing, generating, and brute-force checking.

Run:  python3 demos/01_cnf_basics.py
"""

from gluesat import (
    brute_force,
    clause_literal_graph,
    parse_dimacs,
    random_ksat,
    random_split,
    satisfies,
    write_dimacs,
)

# --- parsing ----------------------------------------------------------------
text = """c a tiny instance
p cnf 3 3
1 2 0
-1 3 0
-2 -3 0
"""
f = parse_dimacs(text)
print("parsed:", f.num_vars, "vars,", f.num_clauses, "clauses:", f.clauses)

# round-trips are structural identities
assert parse_dimacs(write_dimacs(f)) == f
print("round-trip OK\n")

# --- the clause-literal graph ------------------------------------------------
g = clause_literal_graph(f)
print("clause-literal graph:", g.num_clauses, "rows x", 2 * g.num_vars, "columns")
print("edges (row, col):", list(zip(g.rows.tolist(), g.cols.tolist())))
print("column convention: var v positive at v-1, negative at num_vars+v-1\n")

# --- random instances and the bit-parallel oracle ----------------------------
inst = random_ksat(n=12, m=50, k=3, seed=7)
model = brute_force(inst)
if model is None:
    print("random 12-var instance is UNSAT")
else:
    print("random 12-var instance is SAT, e.g.", model)
    assert satisfies(inst, model)

# satisfiability near the classic density threshold m/n = 4.26
sat = sum(brute_force(random_ksat(16, 68, 3, s)) is not None for s in range(40))
print(f"near-threshold sample: {sat}/40 satisfiable\n")

# --- splitting a problem into subproblems ------------------------------------
big = random_ksat(25, 100, 3, 3)
pieces = random_split(big, max_clauses=40, seed=0)
print(f"split a {big.num_clauses}-clause instance into {len(pieces)} pieces:")
for piece in pieces[:5]:
    print(
        f"  {piece.formula.num_clauses:3d} clauses over {piece.formula.num_vars:2d} vars,"
        f" fixed {len(piece.fixed)} literals on this branch"
    )
