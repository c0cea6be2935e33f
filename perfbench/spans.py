"""In-memory span tracing around gluesat's public call points.

A span records (name, start, end, parent, op id) and, where the layer works
on a graph, its edge count.  Spans are kept in memory and written out once
at the end.  A layer's self time is its span's duration minus the time its
child spans cover.  Wrappers are installed on public names that gluesat
looks up at call time, only for the traced part of a run, and removed
after it; nothing under ``src/`` is changed.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import gluesat.datagen
import gluesat.env
import gluesat.extract
import gluesat.training
from gluesat.cnf import SparseGraph
from gluesat.env import GlueEnv, TrivialFormulaError
from gluesat.solver import Solver

# counters read off every solver a traced op created, summed into solver.<name>
SOLVER_COUNTERS = ("conflicts", "decisions", "propagations", "restarts", "reductions", "refocuses")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "edges", "flag", "child_s")

    def __init__(self, name, start, parent, op, edges):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.edges = edges
        self.flag = False
        self.child_s = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Collects spans while installed; a no-op otherwise.

    Benchmark code opens spans with ``span`` and builds solvers through
    ``tracer.Solver``; both cost nothing measurable when not installed.
    """

    def __init__(self):
        self.active = False
        self.op = None
        self.spans: list[Span] = []
        self.solver_counts: dict[str, int] = defaultdict(int)
        self.Solver = Solver
        self._stack: list[int] = []
        self._solvers: list[Solver] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name, edges=None):
        if not self.active:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), parent, self.op, edges)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += sp.seconds

    def harvest(self):
        """Fold the counters of every solver created since the last call."""
        for s in self._solvers:
            for name in SOLVER_COUNTERS:
                self.solver_counts[name] += getattr(s, name)
        self._solvers.clear()

    # ------------------------------------------------------------ wrappers

    @contextmanager
    def installed(self):
        """Trace inside the block: wrappers on, and removed again on exit."""
        tracer = self
        extract_graph = gluesat.extract.extract_graph
        forward_with_cache = gluesat.training.forward_with_cache
        backward_from_heads = gluesat.training.backward_from_heads
        reset, step, matrices = GlueEnv.reset, GlueEnv.step, SparseGraph.matrices

        class TracedSolver(Solver):
            def __init__(self, *args, **kwargs):
                with tracer.span("solver.init"):
                    super().__init__(*args, **kwargs)
                tracer._solvers.append(self)

            def solve(self, *args, **kwargs):
                with tracer.span("solver"):
                    return super().solve(*args, **kwargs)

        def traced_extract(solver, *args, **kwargs):
            with tracer.span("extract") as sp:
                graph = extract_graph(solver, *args, **kwargs)
                if graph is None:
                    sp.flag = True
                else:
                    sp.edges = graph.num_edges
                return graph

        def traced_forward(params, hp, graph, *args, **kwargs):
            with tracer.span("network.forward", graph.num_edges):
                return forward_with_cache(params, hp, graph, *args, **kwargs)

        def traced_backward(params, hp, cache, *args, **kwargs):
            with tracer.span("grads.backward", cache["graph"].num_edges):
                return backward_from_heads(params, hp, cache, *args, **kwargs)

        def traced_reset(env, *args, **kwargs):
            with tracer.span("env.reset") as sp:
                try:
                    return reset(env, *args, **kwargs)
                except TrivialFormulaError:
                    sp.flag = True
                    raise

        def traced_step(env, *args, **kwargs):
            with tracer.span("env.step"):
                return step(env, *args, **kwargs)

        def traced_matrices(graph):
            if "_mats" in graph.__dict__:       # cached: no CSR build happens
                return matrices(graph)
            with tracer.span("cnf.csr", graph.num_edges):
                return matrices(graph)

        patches = [
            (gluesat.extract, "extract_graph", traced_extract),
            (gluesat.env, "extract_graph", traced_extract),
            (gluesat.env, "Solver", TracedSolver),
            (gluesat.datagen, "Solver", TracedSolver),
            (gluesat.training, "forward_with_cache", traced_forward),
            (gluesat.training, "backward_from_heads", traced_backward),
            (GlueEnv, "reset", traced_reset),
            (GlueEnv, "step", traced_step),
            (SparseGraph, "matrices", traced_matrices),
            (self, "Solver", TracedSolver),
        ]
        saved = [(obj, name, getattr(obj, name)) for obj, name, _ in patches]
        for obj, name, new in patches:
            setattr(obj, name, new)
        self.active = True
        try:
            yield self
        finally:
            self.active = False
            for obj, name, old in reversed(saved):
                setattr(obj, name, old)

    # ------------------------------------------------------------- results

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics derived from the spans and solver counters."""
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        edges = defaultdict(int)
        flags = defaultdict(int)
        for sp in self.spans:
            calls[sp.name] += 1
            total[sp.name] += sp.seconds
            self_s[sp.name] += sp.self_s
            edges[sp.name] += sp.edges or 0
            flags[sp.name] += sp.flag

        def ratio(a, b):
            return a / b if b else 0.0

        def ms_per_1e5_edges(name):
            return ratio(1000.0 * self_s[name], edges[name] / 1e5)

        m = {f"solver.{name}": self.solver_counts[name] for name in SOLVER_COUNTERS}
        m["solver.self_s"] = self_s["solver"]
        m["solver.props_per_s"] = ratio(self.solver_counts["propagations"], self_s["solver"])
        m["solver.init_s"] = total["solver.init"]
        m["extract.calls"] = calls["extract"]
        m["extract.edges"] = edges["extract"]
        m["extract.s"] = total["extract"]
        m["extract.edges_per_s"] = ratio(edges["extract"], total["extract"])
        m["extract.skip_frac"] = ratio(flags["extract"], calls["extract"])
        m["cnf.parse_s"] = total["cnf.parse"]
        m["cnf.csr_builds"] = calls["cnf.csr"]
        m["cnf.csr_s"] = total["cnf.csr"]
        m["network.forward_calls"] = calls["network.forward"]
        m["network.forward_s"] = self_s["network.forward"]
        m["network.forward_ms_per_1e5_edges"] = ms_per_1e5_edges("network.forward")
        m["grads.backward_calls"] = calls["grads.backward"]
        m["grads.backward_s"] = self_s["grads.backward"]
        m["grads.backward_ms_per_1e5_edges"] = ms_per_1e5_edges("grads.backward")
        m["env.resets"] = calls["env.reset"]
        m["env.steps"] = calls["env.step"]
        m["env.step_self_s"] = self_s["env.step"]
        m["env.trivial_frac"] = ratio(flags["env.reset"], calls["env.reset"])
        m["training.forwards_per_backward"] = ratio(calls["network.forward"], calls["grads.backward"])
        m["training.self_s"] = self_s["training"]
        m["datagen.s"] = total["datagen"]
        m["datagen.examples"] = flags["datagen"]
        return m

    def write(self, path, meta: dict):
        """Write every span as [name, start, end, parent, op, edges, flag],
        times in seconds since the tracer was made."""
        t0 = self._t0
        rows = [
            [sp.name, round(sp.start - t0, 7), round(sp.end - t0, 7), sp.parent, sp.op, sp.edges, sp.flag]
            for sp in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["name", "start", "end", "parent", "op", "edges", "flag"],
                       "spans": rows}, fh)
