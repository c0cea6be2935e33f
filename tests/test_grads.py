import os
import subprocess
import sys
import textwrap
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gluesat
from gluesat.cnf import SparseGraph, clause_literal_graph, disjoint_union, random_ksat
from gluesat.grads import backward_from_heads, check_finite, zero_grads
from gluesat.network import forward, forward_with_cache, init_params, preset
from gluesat.training import (
    kl_grads,
    kl_loss,
    reinforce_surrogate,
    reinforce_weights,
    run_episode,
)

from conftest import assert_rounding_close, graph_lists, perturbed_params
from oracles import fd_gradients, max_rel_error, reference_backward, reference_network


@pytest.fixture
def graph_6x8():
    return clause_literal_graph(random_ksat(6, 8, 3, 11))


class TestBackwardBasics:
    def test_zero_loss_zero_gradients(self, tiny_hyper, graph_6x8):
        p = perturbed_params(tiny_hyper)
        _, cache = forward_with_cache(p, tiny_hyper, graph_6x8)
        grads = backward_from_heads(p, tiny_hyper, cache, np.zeros(6), 0.0)
        for name, g in grads.items():
            assert not g.any(), name

    def test_gradients_shape_matched(self, tiny_hyper, graph_6x8):
        p = perturbed_params(tiny_hyper)
        out, cache = forward_with_cache(p, tiny_hyper, graph_6x8)
        grads = backward_from_heads(p, tiny_hyper, cache, np.ones(6), 0.5)
        for name, arr in p.tensors():
            assert grads[name].shape == arr.shape

    def test_kl_stationary_at_match(self, tiny_hyper, graph_6x8):
        p = perturbed_params(tiny_hyper)
        out = forward(p, tiny_hyper, graph_6x8)
        z = out.policy_logits - out.policy_logits.max()
        target = np.exp(z) / np.exp(z).sum()
        loss, grads = kl_grads(p, tiny_hyper, graph_6x8, target)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.abs(grads[f"v_policy.{tiny_hyper.n_p - 1}.b"]).max() < 1e-12


@st.composite
def odd_graphs(draw):
    """Clauses of 0 to 9 literal columns drawn with replacement: repeated
    edges, one-literal clauses and many clause sizes in one graph."""
    n = draw(st.integers(1, 8))
    clauses = draw(st.lists(st.lists(st.integers(0, 2 * n - 1), max_size=9), max_size=14))
    rows = [r for r, clause in enumerate(clauses) for _ in clause]
    cols = [c for clause in clauses for c in clause]
    return SparseGraph(len(clauses), n, np.array(rows, dtype=np.int32), np.array(cols, dtype=np.int32),
                       tuple(range(1, n + 1)))


def assert_rel_close(got, want, label):
    # 1e-12 of the largest entry: the package sums in another order
    # (iteration 0 per clause size, the first clause layer before the
    # aggregation, squares through einsum) but computes the same function
    want = np.asarray(want, dtype=float)
    scale = np.abs(want).max() if want.size else 0.0
    assert np.all(np.abs(np.asarray(got) - want) <= 1e-12 * scale), label


class TestMatchesReferenceNetwork:
    """forward, forward_with_cache and backward_from_heads against
    oracles.reference_network: the plain formulation, aggregating every
    literal pair through the adjacency before the clause update."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(odd_graphs(), st.sampled_from(["supervised", "rl"]), st.booleans(), st.integers(0, 2**30))
    def test_odd_graphs(self, graph, name, dropout, seed):
        hp = preset(name)
        params = perturbed_params(hp, seed=seed % 1000)
        dropout_seed = seed if dropout else None
        want_logits, want_value, tape = reference_network(params, hp, graph, dropout_seed)
        full, cache = forward_with_cache(params, hp, graph, dropout_seed)
        for out in [full] if dropout else [forward(params, hp, graph), full]:
            assert_rel_close(out.policy_logits, want_logits, "logits")
            assert_rel_close(out.value, want_value, "value")
        rng = np.random.default_rng(seed)
        dlogits, dvalue = rng.standard_normal(graph.num_vars), rng.standard_normal()
        got = backward_from_heads(params, hp, cache, dlogits, dvalue)
        want = reference_backward(params, hp, tape, dlogits, dvalue)
        for tensor, _ in params.tensors():
            assert_rel_close(got[tensor], want[tensor], tensor)


class TestKlFiniteDifferences:
    def test_every_tensor_matches(self, tiny_hyper, graph_6x8):
        p = perturbed_params(tiny_hyper)
        target = np.random.default_rng(0).dirichlet(np.ones(6))
        _, grads = kl_grads(p, tiny_hyper, graph_6x8, target)
        numeric = fd_gradients(
            p, lambda: kl_loss(target, forward(p, tiny_hyper, graph_6x8).policy_logits)
        )
        worst, name = max_rel_error(grads, numeric)
        assert worst <= 1e-4, f"{name}: {worst}"

    def test_dropout_matches(self, graph_6x8):
        from gluesat.network import HyperParams

        hp = HyperParams(delta_l=3, delta_c=4, tau_iters=1, n_l=2, n_c=2, n_p=2, dropout=0.2)
        p = perturbed_params(hp)
        target = np.random.default_rng(1).dirichlet(np.ones(6))
        _, grads = kl_grads(p, hp, graph_6x8, target, dropout_seed=77)

        def loss():
            out, _ = forward_with_cache(p, hp, graph_6x8, dropout_seed=77)
            return kl_loss(target, out.policy_logits)

        worst, name = max_rel_error(grads, fd_gradients(p, loss))
        assert worst <= 1e-4, f"{name}: {worst}"


class TestDisjointUnionBackward:
    """A backward over a union, from each part's head gradients, gives the
    sum of one backward per part, to rounding."""

    @staticmethod
    def _heads(rng, graphs):
        return [(rng.standard_normal(g.num_vars), float(rng.standard_normal())) for g in graphs]

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(graph_lists(), st.sampled_from(["supervised", "rl"]), st.integers(0, 1000))
    def test_sums_the_per_part_gradients(self, graphs, name, seed):
        hp = preset(name)
        params = init_params(hp, seed=seed, value_head=True)
        heads = self._heads(np.random.default_rng(seed), graphs)
        want = zero_grads(params)
        for graph, (dlogits, dvalue) in zip(graphs, heads):
            backward_from_heads(params, hp, forward_with_cache(params, hp, graph)[1], dlogits, dvalue, want)
        _, cache = forward_with_cache(params, hp, disjoint_union(graphs))
        got = backward_from_heads(params, hp, cache, np.concatenate([d for d, _ in heads]),
                                  np.array([v for _, v in heads]))
        for name_, g in got.items():
            assert_rounding_close(g, want[name_], name_)

    def test_backward_empties_the_cache(self, graph_6x8):
        # so that a layer's memory can go once the backward has read it
        hp = preset("rl")
        params = init_params(hp, seed=1, value_head=True)
        union = disjoint_union([graph_6x8, clause_literal_graph(random_ksat(5, 9, 3, 2))])
        dlogits = np.random.default_rng(0).standard_normal(union.num_vars)
        dvalues = np.array([0.3, -0.2])
        _, cache = forward_with_cache(params, hp, union)
        backward_from_heads(params, hp, cache, dlogits, dvalues)
        assert cache["p_cache"] is None and cache["v_cache"] is None
        assert cache["iters"] == [None] * hp.tau_iters

    def test_one_part_union_gives_the_same_bits(self, graph_6x8):
        hp = preset("rl")
        params = init_params(hp, seed=1, value_head=True)
        dlogits = np.random.default_rng(0).standard_normal(graph_6x8.num_vars)
        want = backward_from_heads(params, hp, forward_with_cache(params, hp, graph_6x8)[1], dlogits, 0.3)
        _, cache = forward_with_cache(params, hp, disjoint_union([graph_6x8]))
        got = backward_from_heads(params, hp, cache, dlogits, np.array([0.3]))
        for name, g in got.items():
            assert np.array_equal(g, want[name]), name


class TestReinforceFiniteDifferences:
    def test_every_tensor_matches(self, tiny_hyper):
        p = perturbed_params(tiny_hyper)
        behavior = perturbed_params(tiny_hyper, seed=6, noise=0.07)
        f = random_ksat(6, 8, 3, 11)
        rng = np.random.default_rng(2)
        episodes = [run_episode(f, behavior, tiny_hyper, rng) for _ in range(3)]
        adv, targets, _ = reinforce_weights(episodes)
        res = reinforce_surrogate(episodes, p, tiny_hyper, None, adv, targets)
        ratios = res.ratios     # the surrogate's own ratios, now held constant

        def loss():
            return reinforce_surrogate(episodes, p, tiny_hyper, ratios, adv, targets).total

        worst, name = max_rel_error(res.grads, fd_gradients(p, loss))
        assert worst <= 1e-4, f"{name}: {worst}"

    def test_value_head_gets_gradient(self, tiny_hyper):
        p = perturbed_params(tiny_hyper)
        f = random_ksat(6, 8, 3, 11)
        rng = np.random.default_rng(3)
        episodes = [run_episode(f, p, tiny_hyper, rng)]
        adv, targets, _ = reinforce_weights(episodes)
        res = reinforce_surrogate(episodes, p, tiny_hyper, None, adv, targets)
        assert any(res.grads[f"v_value.{i}.w"].any() for i in range(tiny_hyper.n_p))


class TestNonFiniteDetection:
    def test_non_finite_gradient_reported(self, tiny_hyper, graph_6x8):
        p = perturbed_params(tiny_hyper)
        _, cache = forward_with_cache(p, tiny_hyper, graph_6x8)
        with pytest.raises(FloatingPointError, match="non-finite gradient for tensor"):
            backward_from_heads(p, tiny_hyper, cache, np.full(6, np.nan), 0.0)

    def test_accumulating_call_leaves_the_check_to_the_caller(self, tiny_hyper, graph_6x8):
        # training loops sum many backward passes into one dict and check it
        # once per optimizer step, not once per pass
        p = perturbed_params(tiny_hyper)
        _, cache = forward_with_cache(p, tiny_hyper, graph_6x8)
        grads = zero_grads(p)
        grads["ln_shift"][0] = np.nan
        backward_from_heads(p, tiny_hyper, cache, np.ones(6), 0.0, grads)
        with pytest.raises(FloatingPointError, match="non-finite gradient for tensor ln_shift"):
            check_finite(grads)

    def test_non_finite_forward_reported(self, tiny_hyper, graph_6x8):
        p = perturbed_params(tiny_hyper)
        p.l_init[:] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(FloatingPointError, match="iteration 0"):
                forward(p, tiny_hyper, graph_6x8)


class TestFreedArraysServeLaterPasses:
    """Arrays a pass frees serve the passes after it: caches still held and
    threads running at once keep their bits, and repeated passes fault no
    pages in.  The graphs' largest arrays reach glibc's default mmap
    threshold, 128 KiB or 16,384 float64s, which the allocator setting
    raises."""

    @staticmethod
    def largest_intermediate(graph, hp):
        # float64s in a pass's largest dense buffer: a row per clause or per
        # literal, as wide as a clause embedding or a literal pair
        return max(graph.num_clauses, 2 * graph.num_vars) * max(hp.delta_c, 2 * hp.delta_l)

    @staticmethod
    def pass_grads(p, hp, graph, cache, seed):
        dlogits = np.random.default_rng(seed).standard_normal(graph.num_vars)
        return backward_from_heads(p, hp, cache, dlogits, 0.3)

    def test_live_caches_keep_their_buffers(self):
        hp = preset("supervised")
        p = init_params(hp, seed=1, value_head=True)
        graphs = [clause_literal_graph(random_ksat(500, 2130, 3, 1)),
                  clause_literal_graph(random_ksat(450, 1900, 3, 2))]
        assert all(self.largest_intermediate(g, hp) >= 16_384 for g in graphs)
        sequential = []
        for k, g in enumerate(graphs):
            _, cache = forward_with_cache(p, hp, g, dropout_seed=k)
            sequential.append(self.pass_grads(p, hp, g, cache, k))
        caches = [forward_with_cache(p, hp, g, dropout_seed=k)[1]
                  for k, g in enumerate(graphs)]
        for k, (g, cache) in enumerate(zip(graphs, caches)):
            got = self.pass_grads(p, hp, g, cache, k)
            for name, want in sequential[k].items():
                assert np.array_equal(got[name], want), (k, name)

    def test_threads_at_once_match_serial_bits(self):
        # more threads than a 2-core runner has cores, each on its own graph
        hp = preset("supervised")
        p = init_params(hp, seed=2, value_head=True)
        graphs = [clause_literal_graph(random_ksat(300 + 20 * k, 1280 + 85 * k, 3, k)) for k in range(4)]
        assert all(self.largest_intermediate(g, hp) >= 16_384 for g in graphs)
        rounds = 6

        def run(g, barrier=None):
            if barrier is not None:
                barrier.wait(timeout=60)
            return [forward_with_cache(p, hp, g, dropout_seed=r)[0].policy_logits for r in range(rounds)]

        serial = [run(g) for g in graphs]
        barrier = threading.Barrier(len(graphs))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)      # switch threads as often as the interpreter can
        try:
            with ThreadPoolExecutor(len(graphs)) as ex:
                futures = [ex.submit(run, g, barrier) for g in graphs]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for want, got in zip(serial, threaded):
            for r in range(rounds):
                assert np.array_equal(got[r], want[r]), r

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor page faults")
    def test_repeated_passes_fault_no_pages_in(self):
        # with glibc's default thresholds each pass faults in about 3,100
        # pages (glibc returns its large arrays to the OS on free); with
        # network's allocator setting the warm-up's freed pages serve the
        # later passes, of which the first may still grow the heap: five
        # passes stay below what one pass faults in without it.  A fresh
        # interpreter runs them, since what the allocator does depends on
        # its history
        script = textwrap.dedent("""
            import resource, sys
            import numpy as np
            sys.path.insert(0, sys.argv[1])
            from gluesat.cnf import SparseGraph
            from gluesat.grads import backward_from_heads
            from gluesat.network import forward_with_cache, init_params, preset

            hp = preset("supervised")
            p = init_params(hp, seed=0)
            # the shape of a training example: 2,304 clauses of 3 to 14
            # literals (learned clauses among them) over 400 variables
            rng = np.random.default_rng(0)
            n, m = 400, 2304
            rows = np.repeat(np.arange(m, dtype=np.int32), rng.integers(3, 15, size=m))
            cols = rng.integers(0, 2 * n, size=len(rows)).astype(np.int32)
            g = SparseGraph(m, n, rows, cols, tuple(range(1, n + 1)))
            assert len(rows) > 19_000
            for k in range(6):
                if k == 1:
                    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                _, cache = forward_with_cache(p, hp, g, dropout_seed=k)
                backward_from_heads(p, hp, cache, rng.standard_normal(n))
                del cache
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        src = os.path.dirname(os.path.dirname(gluesat.__file__))
        out = subprocess.run([sys.executable, "-c", script, src], capture_output=True, text=True, check=True)
        faults = int(out.stdout)
        assert faults < 3_000, faults
