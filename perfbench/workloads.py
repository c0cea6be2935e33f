"""The four seeded workloads.

Each workload makes its inputs from the run seed with ``gen``, hands them to
gluesat as DIMACS text through ``parse_dimacs``, and calls the public API in
this process.  ``inputs(seed)`` is the benchmark's own untimed generation
(formulas, their DIMACS text, brute-force answers); ``setup(inputs)`` is what
set-up time measures and calls only gluesat.  ``prepare(state, i)`` makes op
i's input untimed and ``op(state, item, i)`` is the timed operation; both
depend only on (state, i), so op i can be repeated exactly.  ``checks`` runs
the untimed correctness checks.  Sizes were chosen on a 2-core machine
so that one op takes under two seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from gluesat import (
    SAT,
    UNKNOWN,
    UNSAT,
    Budget,
    RLConfig,
    SolverConfig,
    SupervisedConfig,
    augment,
    forward,
    generate_datapoint,
    init_params,
    parse_dimacs,
    preset,
    train_rl,
    train_supervised,
)

from gen import brute_force_sat, planted_3sat, random_3sat, rng_for, satisfies, to_dimacs

RATIO = 4.26            # clauses per variable, near the random 3-SAT threshold
# Network weights come from a fixed seed, like one model used on every input:
# the run seed varies the formulas, not the model that steers or is trained.
MODEL_SEED = 0


def parse(text, tracer):
    with tracer.span("cnf.parse"):
        return parse_dimacs(text)


def op_seed(seed: int, i: int) -> int:
    return seed * 1_000_000 + i


@dataclass
class SolveState:
    seed: int
    known: list                 # (formula, clauses, expected): True/False = SAT/UNSAT
    config: SolverConfig
    oracle: object = None
    first: dict = field(default_factory=dict)   # instance -> (signature, stats) of its first solve


class Solve:
    """Random 3-SAT near the threshold, solved under a conflict budget.

    Op i solves instance i, made from (seed, i) and parsed just before the
    op, so a run covers as many distinct instances as it has ops and its
    medians do not hang on a few of them.  Op 0 runs twice (warm-up and
    first timed op) to check that a repeated solve reproduces its counts.
    About half of these instances are UNSAT and most solves stop at the
    budget, so only SAT models are judged on them.  Known-answer slice: planted-solution formulas, which must come
    back SAT, and formulas small enough for ``gen.brute_force_sat``, which
    must get its answer.
    """

    op_label = "solve_s"
    rate_label = "conflicts_per_s"
    planted = (4, 100)          # count, variables
    tiny = (8, 10)
    known_conflicts = 50_000
    quality_instances = 8
    setup_repeats = 9

    def __init__(self, name, n, conflicts, trace_ops, refocus_every=None):
        self.name = name
        self.n = n
        self.conflicts = conflicts
        self.trace_ops = trace_ops
        self.refocus_every = refocus_every

    def inputs(self, seed):
        known = []
        rng = rng_for(seed, self.name, "planted")
        count, n = self.planted
        for _ in range(count):
            clauses = planted_3sat(n, round(RATIO * n), rng)
            known.append((to_dimacs(n, clauses), clauses, True))
        rng = rng_for(seed, self.name, "tiny")
        count, n = self.tiny
        for _ in range(count):
            clauses = random_3sat(n, round(RATIO * n), rng)
            known.append((to_dimacs(n, clauses), clauses, brute_force_sat(n, clauses)))
        return seed, known

    def setup(self, inputs, tracer) -> SolveState:
        seed, texts = inputs
        known = [(parse(text, tracer), clauses, expected) for text, clauses, expected in texts]
        if self.refocus_every is None:
            return SolveState(seed, known, SolverConfig())
        every = self.refocus_every
        config = SolverConfig(warmup_mode="conflicts", warmup_conflicts=every,
                              schedule_base=every, schedule_quad=0, schedule_cap=every)
        # untrained weights: forward cost does not depend on their values
        hp = preset("supervised")
        params = init_params(hp, seed=MODEL_SEED)

        def oracle(graph):
            with tracer.span("network.forward", graph.num_edges):
                return forward(params, hp, graph).policy_logits

        return SolveState(seed, known, config, oracle)

    def prepare(self, state, i, tracer):
        clauses = random_3sat(self.n, round(RATIO * self.n), rng_for(state.seed, self.name, "instance", i))
        return parse(to_dimacs(self.n, clauses), tracer), clauses

    def _solve(self, state, formula, conflicts, tracer):
        return tracer.Solver(formula, state.config, state.oracle).solve(Budget(max_conflicts=conflicts))

    def op(self, state, item, i, tracer):
        formula, clauses = item
        res = self._solve(state, formula, self.conflicts, tracer)
        st = res.stats
        sig = (st.conflicts, st.decisions, st.propagations)
        first = state.first.setdefault(i, (sig, st))
        ok = answer_ok(res, clauses, None) and first[0] == sig
        return st.conflicts, ok

    def checks(self, state, tracer) -> list[bool]:
        oks = [self.op(state, self.prepare(state, i, tracer), i, tracer)[1]
               for i in range(self.quality_instances) if i not in state.first]
        for formula, clauses, expected in state.known:
            res = self._solve(state, formula, self.known_conflicts, tracer)
            oks.append(answer_ok(res, clauses, expected))
        return oks

    def quality(self, state) -> dict:
        """Mean GLR and glue over the first instances: exact per seed."""
        stats = [state.first[i][1] for i in range(self.quality_instances) if i in state.first]
        if not stats:
            return {}
        return {
            "glr": (sum(s.glr for s in stats) / len(stats), "", len(stats)),
            "avg_glue": (sum(s.avg_glue for s in stats) / len(stats), "", len(stats)),
        }


def answer_ok(res, clauses, expected) -> bool:
    """SAT models re-checked against the generator's clauses; ``expected``
    True/False demands that exact answer, None judges only SAT models."""
    if res.status == SAT and not satisfies(clauses, res.model):
        return False
    if res.status not in (SAT, UNSAT, UNKNOWN):
        return False
    return expected is None or res.status == (SAT if expected else UNSAT)


def finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


@dataclass
class TrainState:
    data: list
    hp: object
    params: object
    seed: int


class Train:
    """What the two training workloads share: no per-op input, no checks
    beyond each op's own, no quality scores."""

    rate_label = None

    def prepare(self, state, i, tracer):
        return None

    def checks(self, state, tracer) -> list[bool]:
        return []

    def quality(self, state) -> dict:
        return {}


class TrainRL(Train):
    """``train_rl``, one batch per op, over small seeded 3-SAT formulas."""

    name = "train-rl"
    op_label = "rl_batch_s"
    trace_ops = 12
    setup_repeats = 9
    formulas, n, m = 20, 30, 180

    def inputs(self, seed):
        rng = rng_for(seed, self.name, "pool")
        return seed, [to_dimacs(self.n, random_3sat(self.n, self.m, rng)) for _ in range(self.formulas)]

    def setup(self, inputs, tracer) -> TrainState:
        seed, texts = inputs
        formulas = [parse(text, tracer) for text in texts]
        hp = preset("rl")
        return TrainState(formulas, hp, init_params(hp, seed=MODEL_SEED, value_head=True), seed)

    def op(self, state, item, i, tracer):
        cfg = RLConfig(workers=4, episodes_per_worker=2, grad_steps=2, batches=1, seed=op_seed(state.seed, i))
        with tracer.span("training"):
            result = train_rl(state.data, state.hp, cfg, init=state.params)
        ok = all(finite(h["total_loss"], h["mean_return"]) for h in result.history)
        return sum(h["episodes"] for h in result.history), ok


class TrainSupervised(Train):
    """Set-up runs datagen on 400-variable formulas: ``augment`` dumps each
    formula with the clauses learned in its first 600 conflicts, and
    ``generate_datapoint`` labels the dump (about three in four get a label).
    Set-up always runs datagen on 5 formulas, more only if fewer than 3 got
    labels, and keeps the first 3 examples, so set-up work and epoch work
    (3 graphs of about 20k edges) hardly vary with the seed.  Each op is one
    ``train_supervised`` epoch with dropout on."""

    name = "train-supervised"
    op_label = "epoch_s"
    trace_ops = 24
    setup_repeats = 3
    n, formulas, examples = 400, 5, 3
    dump_at, label_conflicts = 600, 900
    max_formulas = 20

    def inputs(self, seed):
        m = round(RATIO * self.n)
        return seed, [to_dimacs(self.n, random_3sat(self.n, m, rng_for(seed, self.name, "formula", k)))
                      for k in range(self.max_formulas)]

    def setup(self, inputs, tracer) -> TrainState:
        seed, texts = inputs
        examples = []
        for k, text in enumerate(texts):
            if k >= self.formulas and len(examples) >= self.examples:
                break
            formula = parse(text, tracer)
            with tracer.span("datagen"):
                (dump,) = augment(formula, self.dump_at, Budget(max_conflicts=self.dump_at))
            with tracer.span("datagen") as sp:
                ex = generate_datapoint(dump, Budget(max_conflicts=self.label_conflicts))
                if sp is not None:
                    sp.flag = ex is not None
            if ex is not None:
                examples.append(ex)
        if len(examples) < self.examples:
            raise RuntimeError(f"datagen labelled fewer than {self.examples} of {self.max_formulas} formulas")
        hp = preset("supervised")
        return TrainState(examples[: self.examples], hp, init_params(hp, seed=MODEL_SEED), seed)

    def op(self, state, item, i, tracer):
        cfg = SupervisedConfig(epochs=1, seed=op_seed(state.seed, i), train_dropout=True)
        with tracer.span("training"):
            result = train_supervised(state.data, state.hp, cfg, init=state.params)
        return len(state.data), finite(*result.epoch_kl)


WORKLOADS = {
    w.name: w
    for w in (
        Solve("solve-vanilla", n=250, conflicts=1000, trace_ops=16),
        Solve("solve-neuro", n=2000, conflicts=500, trace_ops=8, refocus_every=15),
        TrainRL(),
        TrainSupervised(),
    )
}
