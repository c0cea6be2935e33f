import hashlib
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from dataclasses import replace
from itertools import pairwise
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gluesat.network as network
import gluesat.training as training
from gluesat.cnf import Formula, SparseGraph, clause_literal_graph, disjoint_union, random_ksat
from gluesat.grads import backward_from_heads
from gluesat.network import (
    HyperParams,
    WeightFormatError,
    forward,
    forward_with_cache,
    init_params,
    load_weights,
    mlp_dims,
    policy_distribution,
    preset,
    save_weights,
)

from conftest import assert_rounding_close, graph_lists
from oracles import scipy_csr


@pytest.fixture
def small_graph():
    return clause_literal_graph(random_ksat(10, 36, 3, 7))


class TestHyperParams:
    def test_presets(self):
        sup = preset("supervised")
        assert (sup.delta_l, sup.delta_c, sup.tau_iters, sup.n_l, sup.n_c, sup.n_p) == (16, 64, 2, 2, 2, 3)
        rl = preset("rl")
        assert (rl.delta_l, rl.delta_c, rl.tau_iters, rl.n_l, rl.n_c, rl.n_p) == (32, 64, 4, 3, 3, 4)
        assert sup.dropout == 0.15

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("huge")

    def test_validation(self):
        with pytest.raises(ValueError):
            HyperParams(delta_l=0)
        with pytest.raises(ValueError):
            HyperParams(tau_iters=0)
        with pytest.raises(ValueError):
            HyperParams(dropout=1.0)

    def test_leaky_slope_range(self):
        for slope in (0.0, 0.01, 1.0):
            assert HyperParams(leaky_slope=slope).leaky_slope == slope
        for slope in (-0.01, 1.5, 2.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="leaky_slope"):
                HyperParams(leaky_slope=slope)

    def test_ln_eps_finite_and_positive(self):
        assert HyperParams(ln_eps=1e-9).ln_eps == 1e-9
        for eps in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="ln_eps must be finite and > 0"):
                HyperParams(ln_eps=eps)

    def test_mlp_dims(self):
        assert mlp_dims(1, 8, 4) == [8, 4]
        assert mlp_dims(3, 8, 4) == [8, 8, 8, 4]


class TestInitParams:
    def test_deterministic(self, tiny_hyper):
        a = init_params(tiny_hyper, seed=3, value_head=True)
        b = init_params(tiny_hyper, seed=3, value_head=True)
        for (na, ta), (nb, tb) in zip(a.tensors(), b.tensors()):
            assert na == nb
            assert np.array_equal(ta, tb)

    def test_shapes_and_finite(self):
        hp = preset("supervised")
        p = init_params(hp, seed=0, value_head=True)
        shapes = dict((n, t.shape) for n, t in p.tensors())
        assert shapes["l_init"] == (16,)
        assert shapes["c_update.0.w"] == (32, 32)
        assert shapes["c_update.1.w"] == (32, 64)
        assert shapes["l_update.0.w"] == (64, 64)
        assert shapes["l_update.1.w"] == (64, 16)
        assert shapes["v_policy.0.w"] == (32, 32)
        assert shapes["v_policy.2.w"] == (32, 1)
        assert shapes["ln_scale"] == (16,)
        for _, t in p.tensors():
            assert np.isfinite(t).all()

    def test_fresh_forward_healthy(self, small_graph):
        hp = preset("supervised")
        p = init_params(hp, seed=1)
        out = forward(p, hp, small_graph)
        std = out.policy_logits.std()
        assert 1e-6 < std < 1e2


class TestForward:
    def test_logit_count_and_value_range(self, tiny_hyper, small_graph):
        p = init_params(tiny_hyper, seed=0, value_head=True)
        out = forward(p, tiny_hyper, small_graph)
        assert out.policy_logits.shape == (10,)
        assert 0.0 < out.value < 1.0

    def test_no_value_head(self, tiny_hyper, small_graph):
        p = init_params(tiny_hyper, seed=0, value_head=False)
        assert forward(p, tiny_hyper, small_graph).value is None

    def test_zero_edges_equal_logits(self, tiny_hyper):
        empty = np.zeros(0, dtype=np.int32)
        g = SparseGraph(num_clauses=0, num_vars=5, rows=empty, cols=empty, var_map=tuple(range(1, 6)))
        p = init_params(tiny_hyper, seed=2, value_head=False)
        out = forward(p, tiny_hyper, g)
        assert np.allclose(out.policy_logits, out.policy_logits[0])

    @pytest.mark.parametrize("keep", [False, True])
    def test_a_part_without_variables_is_refused(self, tiny_hyper, small_graph, keep):
        # its value would be the mean of no scores: refused, naming the
        # part, before any operator is built
        empty = clause_literal_graph(Formula(0, ()))
        union = disjoint_union([small_graph, empty, small_graph])
        params = init_params(tiny_hyper, seed=0, value_head=True)
        run = forward_with_cache if keep else forward
        for graph, part in ((empty, "part 0 of 1"), (union, "part 1 of 3")):
            with pytest.raises(ValueError, match=f"{part} of the graph has no variables"):
                run(params, tiny_hyper, graph)
            assert "_mats" not in graph.__dict__

    def test_eval_mode_deterministic(self, tiny_hyper, small_graph):
        p = init_params(tiny_hyper, seed=4, value_head=True)
        a = forward(p, tiny_hyper, small_graph)
        b = forward(p, tiny_hyper, small_graph)
        assert np.array_equal(a.policy_logits, b.policy_logits)
        assert a.value == b.value

    def test_dropout_needs_a_seed(self, small_graph):
        hp = HyperParams(delta_l=4, delta_c=4, tau_iters=1, n_l=2, n_c=2, n_p=2, dropout=0.3)
        p = init_params(hp, seed=4)
        eval_out = forward(p, hp, small_graph)
        train_a, _ = forward_with_cache(p, hp, small_graph, dropout_seed=1)
        train_b, _ = forward_with_cache(p, hp, small_graph, dropout_seed=2)
        train_a2, _ = forward_with_cache(p, hp, small_graph, dropout_seed=1)
        assert not np.allclose(eval_out.policy_logits, train_a.policy_logits)
        assert not np.allclose(train_a.policy_logits, train_b.policy_logits)
        assert np.array_equal(train_a.policy_logits, train_a2.policy_logits)

    @pytest.mark.parametrize("name", ["supervised", "rl"])
    def test_no_seed_is_dropout_zero(self, name):
        # the one switch: a pass without a seed is the pass at dropout 0
        hp = preset(name)
        p = init_params(hp, seed=2, value_head=True)
        g = clause_literal_graph(random_ksat(40, 170, 3, 1))
        unseeded = forward(p, hp, g)
        zero, _ = forward_with_cache(p, replace(hp, dropout=0.0), g, dropout_seed=5)
        assert np.array_equal(unseeded.policy_logits, zero.policy_logits)
        assert unseeded.value == zero.value

    @pytest.mark.parametrize("name", ["supervised", "rl"])
    def test_cached_dropout_masks_are_one_byte_per_unit(self, name):
        # every hidden layer keeps a bool keep mask the shape of its output,
        # the next layer's input; without a dropout seed every layer keeps
        # None
        hp = preset(name)
        p = init_params(hp, seed=2, value_head=True)
        g = clause_literal_graph(random_ksat(40, 170, 3, 1))
        for seed in (3, None):
            _, cache = forward_with_cache(p, hp, g, dropout_seed=seed)
            mlps = [(it["c_cache"], p.c_update) for it in cache["iters"]]
            mlps += [(it["l_cache"], p.l_update) for it in cache["iters"]]
            mlps += [(cache["p_cache"], p.v_policy), (cache["v_cache"], p.v_value)]
            for layers_cache, layers in mlps:
                assert len(layers_cache) == len(layers)
                for (_, mask), (h_next, _) in pairwise(layers_cache):
                    if seed is None:
                        assert mask is None
                    else:
                        assert mask.dtype == np.bool_ and mask.nbytes == mask.size
                        assert mask.shape == h_next.shape
                assert layers_cache[-1][1] is None

    def test_dropout_cache_size(self):
        # the arrays that a dropout forward_with_cache keeps on a
        # 5,112-edge graph: 6.99 MB with float64 masks, 5.33 MB with bool
        hp = preset("supervised")
        p = init_params(hp, seed=0)
        g = clause_literal_graph(random_ksat(400, 1704, 3, 0))
        _, cache = forward_with_cache(p, hp, g, dropout_seed=1)

        def arrays(x):
            if isinstance(x, np.ndarray):
                yield x
            elif isinstance(x, dict):
                for v in x.values():
                    yield from arrays(v)
            elif isinstance(x, (list, tuple)):
                for v in x:
                    yield from arrays(v)

        total = sum(a.nbytes for a in arrays(cache))
        assert total < 6.0e6, total

    def test_permutation_equivariance(self, tiny_hyper):
        rng = np.random.default_rng(0)
        hp = preset("supervised")
        for trial in range(3):
            f = random_ksat(9, 30, 3, trial)
            p = init_params(hp, seed=trial, value_head=False)
            perm = rng.permutation(9) + 1  # old var v -> new var perm[v-1]
            relabeled = Formula(
                9,
                tuple(
                    tuple(int(np.sign(l)) * int(perm[abs(l) - 1]) for l in c)
                    for c in f.clauses
                ),
            )
            out = forward(p, hp, clause_literal_graph(f)).policy_logits
            out2 = forward(p, hp, clause_literal_graph(relabeled)).policy_logits
            expected = np.empty(9)
            for v in range(1, 10):
                expected[perm[v - 1] - 1] = out[v - 1]
            assert np.abs(out2 - expected).max() < 1e-9

    def test_clause_order_invariance(self):
        hp = preset("supervised")
        f = random_ksat(8, 26, 3, 5)
        p = init_params(hp, seed=9, value_head=False)
        shuffled = Formula(8, tuple(reversed(f.clauses)))
        a = forward(p, hp, clause_literal_graph(f)).policy_logits
        b = forward(p, hp, clause_literal_graph(shuffled)).policy_logits
        assert np.abs(a - b).max() < 1e-9

    def test_negation_duality(self):
        # negating every literal swaps each variable's embedding pair, so
        # swapping the policy head's two input blocks recovers the logits
        hp = preset("supervised")
        f = random_ksat(8, 26, 3, 6)
        p = init_params(hp, seed=10, value_head=False)
        negated = Formula(8, tuple(tuple(-l for l in c) for c in f.clauses))
        base = forward(p, hp, clause_literal_graph(f)).policy_logits

        swapped = p.copy()
        w0, b0 = swapped.v_policy[0]
        dl = hp.delta_l
        swapped.v_policy[0] = (np.concatenate([w0[dl:], w0[:dl]], axis=0), b0)
        dual = forward(swapped, hp, clause_literal_graph(negated)).policy_logits
        assert np.abs(base - dual).max() < 1e-9

    def test_clause_standardization_stats(self, small_graph):
        hp = preset("supervised")
        p = init_params(hp, seed=3, value_head=False)
        _, cache = forward_with_cache(p, hp, small_graph)
        for it in cache["iters"]:
            c_std = it["c_std"]
            assert np.abs(c_std.mean(axis=1)).max() < 1e-6
            assert np.abs(c_std.var(axis=1) - 1.0).max() < 1e-3

    def test_layernorm_constant_row_maps_to_shift(self, tiny_hyper):
        from gluesat.network import _standardize_rows

        p = init_params(tiny_hyper, seed=0)
        p.ln_shift[:] = np.array([0.5, -1.0, 2.0])
        row = np.full((1, 3), 7.0)
        xhat, _ = _standardize_rows(row, tiny_hyper.ln_eps)
        out = xhat * p.ln_scale + p.ln_shift
        assert np.allclose(out, p.ln_shift)


class TestCacheFreeForward:
    @pytest.mark.parametrize("name", ["supervised", "rl"])
    def test_same_bits_as_forward_with_cache(self, name):
        hp = preset(name)
        p = init_params(hp, seed=2, value_head=True)
        g = clause_literal_graph(random_ksat(60, 256, 3, 4))
        lean = forward(p, hp, g)
        full, _ = forward_with_cache(p, hp, g)
        assert np.array_equal(lean.policy_logits, full.policy_logits)
        assert lean.value == full.value

    @pytest.mark.parametrize("name", ["supervised", "rl"])
    def test_peak_below_half_the_retained_cache(self, name):
        # forward frees each intermediate after its last use, so its peak
        # stays well below what forward_with_cache hands back to the caller
        hp = preset(name)
        p = init_params(hp, seed=0, value_head=True)
        g = clause_literal_graph(random_ksat(500, 2130, 3, 1))
        g.matrices()                        # the CSR build is not the pass's
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kept = forward_with_cache(p, hp, g)
            retained = tracemalloc.get_traced_memory()[0] - base
            del kept
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            forward(p, hp, g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * retained, (peak, retained)

    @pytest.mark.parametrize("name", ["supervised", "rl"])
    def test_peak_does_not_grow_with_the_clause_count(self, name):
        # at a fixed variable count, a pass holds its literal state and one
        # clause block at a time: four times the clauses, in blocks of the
        # same size, leave its peak where it was (a whole clause stage makes
        # it grow about threefold)
        hp = preset(name)
        p = init_params(hp, seed=0, value_head=True)
        peaks = []
        for m in (4_096, 16_384):               # multiples of the block size
            g = clause_literal_graph(random_ksat(500, m, 3, 1))
            g.matrices()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                forward(p, hp, g)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0], peaks

    @pytest.mark.skipif(
        not os.environ.get("GLUESAT_SLOW"),
        reason="set GLUESAT_SLOW=1 for the paper-scale memory check (a 3M-edge pass, about 1 GB of RSS)",
    )
    def test_rss_per_edge_at_paper_scale(self):
        # one pass over 1,001,100 random 3-clauses (3,003,300 edges) in a
        # fresh interpreter: its peak RSS above the built graph and
        # operators, per edge.  Measured on a 2-vCPU VM, with one BLAS
        # thread and with default BLAS alike: 480-515 bytes per edge
        # (1.38-1.47 GB) with whole clause stages, about 120 (0.36 GB)
        # streamed.  RSS growth moves with the heap that the operator
        # build freed and the pass reuses, so the pass's own peak of traced
        # allocations above its start, per edge, is bounded beside it
        script = textwrap.dedent("""
            import resource, sys, tracemalloc
            import numpy as np
            sys.path.insert(0, sys.argv[1])
            from gluesat.cnf import SparseGraph
            from gluesat.network import forward, init_params, preset

            m = 1_001_100
            n = round(m / 4.26)
            rng = np.random.default_rng(1)
            v = rng.integers(0, n, (m, 3))
            while True:                         # three distinct variables a clause
                bad = (v[:, 0] == v[:, 1]) | (v[:, 0] == v[:, 2]) | (v[:, 1] == v[:, 2])
                if not bad.any():
                    break
                v[bad] = rng.integers(0, n, (int(bad.sum()), 3))
            cols = np.where(rng.integers(0, 2, (m, 3)) == 1, v, v + n).ravel()
            g = SparseGraph(m, n, np.repeat(np.arange(m), 3), cols, tuple(range(1, n + 1)))
            del v, cols
            hp = preset("supervised")
            p = init_params(hp, seed=0)
            g.matrices()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            tracemalloc.start()
            start = tracemalloc.get_traced_memory()[0]
            forward(p, hp, g)
            traced = tracemalloc.get_traced_memory()[1] - start
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print((after - before) * 1024 / g.num_edges, traced / g.num_edges)
        """)
        src = os.path.dirname(os.path.dirname(network.__file__))
        out = subprocess.run([sys.executable, "-c", script, src], capture_output=True, text=True, check=True)
        per_edge, traced_per_edge = map(float, out.stdout.split())
        assert per_edge < 300, per_edge
        assert traced_per_edge < 300, traced_per_edge


@st.composite
def block_graphs(draw):
    """1 to 80 variables and 0, 1 or up to 120 clauses of 0 to 6 literal
    columns drawn with replacement: stages of fewer than four rows (which
    run as one block) and of more, odd row counts, repeated edges, empty
    and one-literal clauses."""
    n = draw(st.integers(1, 80))
    m = draw(st.sampled_from([0, 1]) | st.integers(2, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.repeat(np.arange(m), rng.integers(0, 7, m))
    cols = rng.integers(0, 2 * n, len(rows))
    return SparseGraph(m, n, rows, cols, tuple(range(1, n + 1)))


def _whole(params, hp, graph):
    """forward as one block per stage."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "_BLOCK_ROWS", 10**9)
        return forward(params, hp, graph)


def _same_output(got, want):
    assert np.array_equal(got.policy_logits, want.policy_logits)
    assert got.value == want.value


def _stages(monkeypatch):
    """Record each clause and literal stage that a pass runs: its name and
    block count, from the calls of its row function (a stage's first block
    starts at row 0)."""
    blocks = []

    def record(name):
        rows = getattr(network, name)

        def recorded(lo, *args):
            if lo == 0:
                blocks.append((name, 0))
            blocks[-1] = (name, blocks[-1][1] + 1)
            return rows(lo, *args)

        monkeypatch.setattr(network, name, recorded)

    record("_clause_rows")
    record("_literal_rows")
    return blocks


class TestStreamedForward:
    """forward, which keeps no cache and draws no dropout masks, runs each
    stage in row blocks of at most _BLOCK_ROWS rows on the calling thread,
    and adds each clause block into the literal messages in block order:
    with blocks of a few rows it must give the one-block pass's bits, and
    forward_with_cache, with or without dropout masks, stays one block."""

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(block_graphs(), st.sampled_from(["supervised", "rl"]), st.integers(0, 1000), st.integers(2, 7))
    def test_same_bits_as_one_block(self, graph, name, seed, block_rows):
        hp = preset(name)
        params = init_params(hp, seed=seed, value_head=True)
        want = _whole(params, hp, graph)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(network, "_BLOCK_ROWS", block_rows)
            blocks = _stages(patch)
            got = forward(params, hp, graph)
            kept, _ = forward_with_cache(params, hp, graph)
        _same_output(got, want)
        _same_output(kept, want)
        counts = {stage: max(k for s, k in blocks if s == stage) for stage, _ in blocks}
        # past iteration 0, clause rows are the graph's clauses and literal
        # rows its 2N literals; no block has fewer than 2 rows
        for stage, rows in (("_clause_rows", graph.num_clauses), ("_literal_rows", 2 * graph.num_vars)):
            assert (counts[stage] > 1) == (rows >= 4 and rows > block_rows)
            assert counts[stage] >= -(-rows // block_rows) or counts[stage] == max(1, rows // 2)

    @pytest.mark.parametrize("name", ["supervised", "rl"])
    def test_streams_at_the_real_block_size(self, monkeypatch, name):
        # more clauses than _BLOCK_ROWS: the clause stages run in blocks
        graph = clause_literal_graph(random_ksat(1000, 4260, 3, 3))
        hp = preset(name)
        params = init_params(hp, seed=8, value_head=True)
        blocks = _stages(monkeypatch)
        got = forward(params, hp, graph)
        assert ("_clause_rows", -(-graph.num_clauses // network._BLOCK_ROWS)) in blocks
        _same_output(got, _whole(params, hp, graph))

    def test_a_forward_starts_no_thread(self, monkeypatch):
        # a pass of several row blocks, with a core spare for the training
        # overlap, runs every block on this thread
        monkeypatch.setattr(training, "_SPARE_CORE", True)
        graph = clause_literal_graph(random_ksat(900, 3834, 3, 1))
        hp = preset("supervised")
        params = init_params(hp, seed=0)
        before = set(threading.enumerate())
        forward(params, hp, graph)
        forward_with_cache(params, hp, graph)
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("failing", [0, 1])
    def test_an_error_in_a_block_leaves_the_next_pass_exact(self, monkeypatch, failing):
        # a literal block that raises mid-pass leaves the next pass its bits
        monkeypatch.setattr(network, "_BLOCK_ROWS", 256)
        graph = clause_literal_graph(random_ksat(300, 1278, 3, 2))
        hp = preset("supervised")
        params = init_params(hp, seed=1)
        want = _whole(params, hp, graph)
        literal_rows = network._literal_rows

        def poisoned(lo, *args):
            result = literal_rows(lo, *args)
            if int(lo > 0) == failing:
                raise FloatingPointError(f"poisoned block {failing}")
            return result

        with monkeypatch.context() as patch:
            patch.setattr(network, "_literal_rows", poisoned)
            with pytest.raises(FloatingPointError, match=f"poisoned block {failing}"):
                forward(params, hp, graph)
        _same_output(forward(params, hp, graph), want)

    def test_concurrent_callers_get_the_whole_pass_bits(self, monkeypatch):
        # three callers streaming small blocks, switching threads every few
        # bytecodes
        monkeypatch.setattr(network, "_BLOCK_ROWS", 128)
        hp = preset("rl")
        params = init_params(hp, seed=3, value_head=True)
        graphs = [clause_literal_graph(random_ksat(300 + s, 1278 + 4 * s, 3, s)) for s in (2, 5, 6)]
        wants = [_whole(params, hp, g) for g in graphs]
        results = [[] for _ in graphs]

        def run(i):
            for _ in range(8):
                results[i].append(forward(params, hp, graphs[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=run, args=(i,)) for i in range(len(graphs))]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for got, want in zip(results, wants):
            assert len(got) == 8
            for out in got:
                _same_output(out, want)

    @pytest.mark.parametrize("dropout", [False, True])
    def test_forward_with_cache_runs_each_stage_as_one_block(self, monkeypatch, dropout):
        monkeypatch.setattr(network, "_BLOCK_ROWS", 4)
        graph = clause_literal_graph(random_ksat(300, 1278, 3, 2))
        hp = preset("supervised")
        params = init_params(hp, seed=0)
        blocks = _stages(monkeypatch)
        kept, _ = forward_with_cache(params, hp, graph, 0 if dropout else None)
        assert blocks and {k for _, k in blocks} == {1}
        if not dropout:
            _same_output(kept, _whole(params, hp, graph))

    @pytest.mark.parametrize("name", ["supervised", "rl"])
    def test_a_union_streams_like_a_plain_graph(self, monkeypatch, name):
        # a union's clause and literal stages run in several blocks and give
        # the one-block pass's bits, every part's value included
        monkeypatch.setattr(network, "_BLOCK_ROWS", 300)
        union = disjoint_union([clause_literal_graph(random_ksat(120, 511, 3, s)) for s in range(7)])
        hp = preset(name)
        params = init_params(hp, seed=7, value_head=True)
        blocks = _stages(monkeypatch)
        got = forward(params, hp, union)
        assert ("_clause_rows", -(-union.num_clauses // 300)) in blocks
        assert ("_literal_rows", -(-2 * union.num_vars // 300)) in blocks
        want = _whole(params, hp, union)
        assert np.array_equal(got.policy_logits, want.policy_logits)
        assert np.array_equal(got.values, want.values)

    @pytest.mark.parametrize("rows, whole, want", [
        (9, False, [0, 3, 6, 9]), (9, True, [0, 9]), (3, False, [0, 3]), (1, False, [0, 1]), (0, False, [0, 0]),
        (11, False, [0, 3, 7, 11]), (5, False, [0, 2, 5]), (8, False, [0, 4, 8]), (4, False, [0, 4]),
        (12, False, [0, 4, 8, 12]),
    ])
    def test_block_bounds(self, monkeypatch, rows, whole, want):
        # at most _BLOCK_ROWS rows a block, near-equal sizes, no block below
        # two rows, and one block for a pass that keeps a cache or draws
        # dropout masks
        monkeypatch.setattr(network, "_BLOCK_ROWS", 4)
        assert network._block_bounds(rows, whole) == want


def _kernel_graph(seed):
    # 0 to 6 literal columns per clause drawn with replacement, so repeated
    # edges and empty clauses, several terms per literal
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(40), rng.integers(0, 7, 40))
    return SparseGraph(40, 5, rows, rng.integers(0, 10, len(rows)), tuple(range(1, 6)))


class TestSparseKernels:
    """``network._gather`` and ``network._scatter`` call scipy's private CSR
    and CSC kernels.  Streaming relies on their order of addition: these
    pin it against scipy's public products, so that a scipy that changes
    it fails here rather than in a pass's last bits."""

    @pytest.mark.parametrize("bounds", [[0, 40], [0, 1, 2, 40], [0, 7, 19, 20, 33, 40]])
    @pytest.mark.parametrize("seed", range(3))
    def test_blocks_scattered_in_order_are_the_transposed_product(self, bounds, seed):
        g = _kernel_graph(seed).matrices()[0]
        C = np.random.default_rng(seed).standard_normal((40, 64))
        B = np.zeros((10, 64))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            network._scatter(g, lo, hi, C[lo:hi], B)
        assert np.array_equal(B, scipy_csr(g).T.tocsr() @ C)

    @pytest.mark.parametrize("seed", range(3))
    def test_gathered_blocks_are_the_product(self, seed):
        g = _kernel_graph(seed).matrices()[0]
        P = np.random.default_rng(seed).standard_normal((10, 32))
        got = [network._gather(g, lo, hi, P) for lo, hi in ((0, 13), (13, 14), (14, 40))]
        assert np.array_equal(np.vstack(got), scipy_csr(g) @ P)

    def test_network_processes_never_import_scipy_sparse(self):
        # a fresh interpreter runs forward, forward_with_cache with
        # backward_from_heads and a solve refocused by the network, with
        # scipy's kernels loaded alone; then scipy.sparse imports as usual,
        # and its public products agree with the kernels' bits
        script = textwrap.dedent("""
            import sys
            import numpy as np
            sys.path.insert(0, sys.argv[1])
            from gluesat.cnf import clause_literal_graph, random_ksat
            from gluesat.grads import backward_from_heads
            from gluesat.network import _gather, _scatter, forward, forward_with_cache, init_params, preset
            from gluesat.solver import SolverConfig, solve

            hp = preset("supervised")
            params = init_params(hp, seed=0, value_head=True)
            g = clause_literal_graph(random_ksat(40, 170, 3, 1))
            forward(params, hp, g)
            _, cache = forward_with_cache(params, hp, g)
            backward_from_heads(params, hp, cache, np.ones(g.num_vars), 1.0)
            cfg = SolverConfig(warmup_conflicts=0, schedule_base=5, schedule_quad=0, schedule_cap=5,
                               refocus_margin=0.0)
            result = solve(random_ksat(60, 256, 3, 2), config=cfg,
                           oracle=lambda graph: forward(params, hp, graph).policy_logits)
            assert result.stats.refocuses > 0, result.stats
            loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
            assert "scipy.sparse" not in sys.modules, loaded

            from scipy.sparse import csr_matrix
            G = g.matrices()[0]
            public = csr_matrix((G.data, G.indices, G.indptr), shape=G.shape)
            x = np.random.default_rng(0).standard_normal((G.shape[1], 8))
            assert np.array_equal(_gather(G, 0, G.shape[0], x), public @ x)
            y = np.random.default_rng(1).standard_normal((G.shape[0], 8))
            out = np.zeros((G.shape[1], 8))
            _scatter(G, 0, G.shape[0], y, out)
            assert np.array_equal(out, public.T.tocsr() @ y)
        """)
        src = os.path.dirname(os.path.dirname(network.__file__))
        out = subprocess.run([sys.executable, "-c", script, src], capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr


def test_a_forward_leaves_the_process_pool_unimported():
    # the process pool loads multiprocessing; only run_benchmark and
    # build_dataset import it, when they start a pool
    script = textwrap.dedent("""
        import sys
        sys.path.insert(0, sys.argv[1])
        import gluesat
        from gluesat.cnf import clause_literal_graph, random_ksat

        hp = gluesat.preset("supervised")
        gluesat.forward(gluesat.init_params(hp, seed=0), hp, clause_literal_graph(random_ksat(40, 170, 3, 1)))
        loaded = [name for name in ("multiprocessing", "concurrent.futures.process") if name in sys.modules]
        assert not loaded, loaded
    """)
    src = os.path.dirname(os.path.dirname(network.__file__))
    out = subprocess.run([sys.executable, "-c", script, src], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


class TestAllocatorSetting:
    """network sets glibc's allocator once, at import, through mallopt."""

    def test_raises_the_mmap_and_trim_thresholds(self):
        calls = []
        network._set_allocator(SimpleNamespace(mallopt=lambda param, value: calls.append((param, value))))
        # M_MMAP_THRESHOLD (-3) to 32 MiB, then M_TRIM_THRESHOLD (-1) to 64 MiB
        assert calls == [(-3, 32 * 2**20), (-1, 64 * 2**20)]

    def test_a_libc_without_mallopt_is_left_alone(self):
        network._set_allocator(SimpleNamespace())


class TestDisjointUnion:
    """One pass over a disjoint union gives each part its own pass's
    logits and value, to rounding."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(graph_lists(), st.sampled_from(["supervised", "rl"]), st.integers(0, 1000))
    def test_each_part_gets_its_own_pass(self, graphs, name, seed):
        hp = preset(name)
        params = init_params(hp, seed=seed, value_head=True)
        union = disjoint_union(graphs)
        got = forward_with_cache(params, hp, union)[0]
        assert len(got.values) == len(graphs)
        lo = 0
        for j, graph in enumerate(graphs):
            want = forward_with_cache(params, hp, graph)[0]
            part = got.policy_logits[lo : lo + graph.num_vars]
            lo += graph.num_vars
            assert_rounding_close(part, want.policy_logits, f"logits of part {j}")
            assert_rounding_close(got.values[j], want.value, f"value of part {j}")
        lean = forward(params, hp, union)
        assert np.array_equal(lean.policy_logits, got.policy_logits)
        assert np.array_equal(lean.values, got.values)

    @pytest.mark.parametrize("name", ["supervised", "rl"])
    def test_one_part_union_is_the_plain_pass(self, small_graph, name):
        hp = preset(name)
        params = init_params(hp, seed=4, value_head=True)
        got, want = forward(params, hp, disjoint_union([small_graph])), forward(params, hp, small_graph)
        assert np.array_equal(got.policy_logits, want.policy_logits)
        assert np.array_equal(got.values, want.values)
        assert isinstance(want.value, float)

    def test_a_union_has_no_single_value(self, tiny_hyper, small_graph):
        params = init_params(tiny_hyper, seed=0, value_head=True)
        out = forward(params, tiny_hyper, disjoint_union([small_graph, small_graph]))
        assert out.values.shape == (2,)
        assert_rounding_close(out.values[1], out.values[0])
        with pytest.raises(ValueError, match="one value per part"):
            out.value


class TestValueHead:
    def test_very_negative_mean_gives_zero_without_warning(self, small_graph):
        # exp(-mean) overflows below a mean of about -709; filterwarnings =
        # error turns numpy's overflow warning into a failure here
        hp = preset("rl")
        params = init_params(hp, seed=0, value_head=True)
        params.v_value[-1][1][:] = -1e6
        out, cache = forward_with_cache(params, hp, small_graph)
        assert out.value == 0.0 and out.values.tolist() == [0.0]
        grads = backward_from_heads(params, hp, cache, np.zeros(small_graph.num_vars), 1.0)
        assert not grads["v_value.3.b"].any()


class TestPolicyDistribution:
    def test_symmetric(self):
        assert np.allclose(policy_distribution(np.zeros(2), 3.0), [0.5, 0.5])

    def test_paper_temperature_example(self):
        probs = policy_distribution(np.array([1.0, 0.0]), 4.0)
        assert probs[0] == pytest.approx(0.98201, abs=1e-5)
        assert probs[1] == pytest.approx(0.01799, abs=1e-5)

    def test_shift_invariance(self):
        logits = np.array([0.3, -1.2, 2.0])
        a = policy_distribution(logits, 4.0)
        b = policy_distribution(logits + 100.0, 4.0)
        assert np.allclose(a, b)

    def test_sums_to_one_strictly_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            probs = policy_distribution(rng.normal(size=17) * 10, 4.0)
            assert abs(probs.sum() - 1.0) < 1e-9
            assert (probs > 0).all()

    def test_extreme_logits_no_nan(self):
        probs = policy_distribution(np.array([1e4, -1e4, 0.0]), 4.0)
        assert np.isfinite(probs).all()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            policy_distribution(np.array([]), 4.0)

    def test_bad_temperature(self):
        # NaN and inf would give [nan nan]
        for temperature in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="temperature"):
                policy_distribution(np.array([1.0, 2.0]), temperature)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_logits_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            policy_distribution(np.array([0.5, bad, -1.0]), 4.0)


class TestWeights:
    def test_round_trip_bitwise(self, tmp_path, tiny_hyper):
        p = init_params(tiny_hyper, seed=8, value_head=True)
        path = tmp_path / "w.ngw"
        save_weights(p, tiny_hyper, path)
        loaded, hp2 = load_weights(path)
        assert hp2 == tiny_hyper
        for (na, ta), (nb, tb) in zip(p.tensors(), loaded.tensors()):
            assert na == nb
            assert np.array_equal(ta, tb)

    def test_round_trip_without_value_head(self, tmp_path, tiny_hyper):
        p = init_params(tiny_hyper, seed=8, value_head=False)
        path = tmp_path / "w.ngw"
        save_weights(p, tiny_hyper, path)
        loaded, _ = load_weights(path)
        assert loaded.v_value is None

    def test_bad_magic(self, tmp_path, tiny_hyper):
        p = init_params(tiny_hyper, seed=0)
        path = tmp_path / "w.ngw"
        save_weights(p, tiny_hyper, path)
        blob = path.read_bytes()
        path.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(WeightFormatError, match="magic"):
            load_weights(path)

    def test_truncated(self, tmp_path, tiny_hyper):
        p = init_params(tiny_hyper, seed=0)
        path = tmp_path / "w.ngw"
        save_weights(p, tiny_hyper, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(WeightFormatError, match="truncated"):
            load_weights(path)

    def test_short_payload_refused_before_allocation(self, tmp_path):
        # the hyper line asks for 2048-wide layers (about 170 MB of
        # tensors); the declared l_init needs 8192 payload bytes and the
        # file has none, which the declared dims alone show
        path = tmp_path / "w.ngw"
        path.write_bytes(b"NGW1\nhyper 2048 2048 1 1 1 1 0.0 0.01 1e-05 0\ntensor l_init 1 2048\ndata\n")
        tracemalloc.start()
        try:
            with pytest.raises(WeightFormatError, match="truncated payload: 0 of 8192 bytes"):
                load_weights(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    def test_wrong_tensor_list_refused_before_allocation(self, tmp_path):
        # payload and declared dims agree (one float), but 2048-wide layers
        # want another tensor list: the hyper line alone shows it, so the
        # ~170 MB init_params template is never built
        path = tmp_path / "w.ngw"
        path.write_bytes(b"NGW1\nhyper 2048 2048 1 1 1 1 0.0 0.01 1e-05 0\ntensor l_init 1 1\ndata\n" + bytes(4))
        tracemalloc.start()
        try:
            with pytest.raises(WeightFormatError, match="tensor list does not match hyperparameters"):
                load_weights(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    def test_trailing_bytes(self, tmp_path, tiny_hyper):
        path = tmp_path / "w.ngw"
        save_weights(init_params(tiny_hyper, seed=0), tiny_hyper, path)
        path.write_bytes(path.read_bytes() + b"\0\0\0\0")
        with pytest.raises(WeightFormatError, match="trailing bytes"):
            load_weights(path)

    def test_header_shape_mismatch(self, tmp_path, tiny_hyper):
        p = init_params(tiny_hyper, seed=0)
        path = tmp_path / "w.ngw"
        save_weights(p, tiny_hyper, path)
        text = path.read_bytes()
        corrupted = text.replace(b"tensor l_init 1 3", b"tensor l_init 1 4", 1)
        path.write_bytes(corrupted)
        with pytest.raises(WeightFormatError):
            load_weights(path)

    @pytest.mark.parametrize("line", [b"tensor l_init one 3", b"tensor l_init 1 3.0"])
    def test_non_integer_dimension_rejected(self, tmp_path, tiny_hyper, line):
        path = tmp_path / "w.ngw"
        save_weights(init_params(tiny_hyper, seed=0), tiny_hyper, path)
        path.write_bytes(path.read_bytes().replace(b"tensor l_init 1 3", line, 1))
        with pytest.raises(WeightFormatError, match=f"non-integer dimension in header line '{line.decode()}'"):
            load_weights(path)

    @pytest.mark.parametrize("flag", [b"yes", b"2"])
    def test_value_head_flag_must_be_0_or_1(self, tmp_path, tiny_hyper, flag):
        path = tmp_path / "w.ngw"
        save_weights(init_params(tiny_hyper, seed=0), tiny_hyper, path)
        magic, hyper, rest = path.read_bytes().split(b"\n", 2)
        assert hyper.endswith(b" 0")
        path.write_bytes(b"\n".join([magic, hyper[:-1] + flag, rest]))
        with pytest.raises(WeightFormatError, match="value-head flag must be 0 or 1"):
            load_weights(path)

    @pytest.mark.parametrize("slope", [b"2", b"nan"])
    def test_bad_leaky_slope_rejected(self, tmp_path, tiny_hyper, slope):
        path = tmp_path / "w.ngw"
        save_weights(init_params(tiny_hyper, seed=0), tiny_hyper, path)
        magic, hyper, rest = path.read_bytes().split(b"\n", 2)
        fields = hyper.split(b" ")
        assert fields[8] == repr(tiny_hyper.leaky_slope).encode()
        fields[8] = slope
        path.write_bytes(b"\n".join([magic, b" ".join(fields), rest]))
        with pytest.raises(WeightFormatError, match="leaky_slope"):
            load_weights(path)

    @pytest.mark.parametrize("eps", [b"0.0", b"-1", b"nan"])
    def test_bad_ln_eps_rejected(self, tmp_path, tiny_hyper, eps):
        path = tmp_path / "w.ngw"
        save_weights(init_params(tiny_hyper, seed=0), tiny_hyper, path)
        magic, hyper, rest = path.read_bytes().split(b"\n", 2)
        fields = hyper.split(b" ")
        assert fields[9] == repr(tiny_hyper.ln_eps).encode()
        fields[9] = eps
        path.write_bytes(b"\n".join([magic, b" ".join(fields), rest]))
        with pytest.raises(WeightFormatError, match="bad hyper line: ln_eps"):
            load_weights(path)

    @pytest.mark.parametrize("name, value_head, digest", [
        ("supervised", False, "7233f4899d7887bed6cd66639c29eadece29c3419bab3fb1dc56bd50280b8654"),
        ("supervised", True, "95c429e5b187c05b5febd39ef13469211cc147eca79ff79b96a22f049762c2b4"),
        ("rl", False, "c43c0de738dd27a3847aae1d30317975f190a1961078e5ee1e08d496238ce85a"),
        ("rl", True, "d43417724a6e9b2fd253fcb76247b2bde46155a535a913da1b4542828784853e"),
    ])
    def test_file_bytes_pinned(self, tmp_path, name, value_head, digest):
        # the whole file, so the hyper line (HyperParams' field order
        # included), the tensor list and the payload cannot drift
        hp = preset(name)
        p = init_params(hp, seed=0, value_head=value_head)
        path = tmp_path / "w.ngw"
        save_weights(p, hp, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        loaded, hp2 = load_weights(path)
        assert hp2 == hp
        assert [(n, a.shape) for n, a in loaded.tensors()] == [(n, a.shape) for n, a in p.tensors()]
        for (_, ta), (_, tb) in zip(p.tensors(), loaded.tensors()):
            assert np.array_equal(ta, tb)

    def test_format_layout(self, tmp_path, tiny_hyper):
        p = init_params(tiny_hyper, seed=0, value_head=True)
        path = tmp_path / "w.ngw"
        save_weights(p, tiny_hyper, path)
        head = path.read_bytes().split(b"data\n")[0].decode().splitlines()
        assert head[0] == "NGW1"
        assert head[1].startswith("hyper 3 4 2 2 2 2 ")
        assert head[1].endswith(" 1")
        assert head[2] == "tensor l_init 1 3"
