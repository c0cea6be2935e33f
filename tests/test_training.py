import itertools
import multiprocessing
import sys
import threading
import time
from dataclasses import asdict, fields, replace
from functools import partial

import numpy as np
import pytest

import gluesat.training as training
from gluesat.cnf import Formula, clause_literal_graph, disjoint_union, random_ksat
from gluesat.env import GlueEnv
from gluesat.network import HyperParams, forward, init_params, preset
from gluesat.training import (
    AdamState,
    RLConfig,
    SupervisedConfig,
    SupervisedExample,
    adam_step,
    asgd_step,
    clip_gradients,
    kl_loss,
    log_softmax,
    pack_steps,
    reinforce_surrogate,
    reinforce_weights,
    run_episode,
    target_distribution,
    train_rl,
    train_supervised,
)

from conftest import assert_rounding_close, perturbed_params
from oracles import serial_train_supervised


class _ScalarParams:
    """Minimal stand-in exposing the tensors() protocol for optimizer tests."""

    def __init__(self, value):
        self.w = np.array([float(value)])

    def tensors(self):
        yield "w", self.w


class TestTargetDistribution:
    def test_zero_counts_uniform(self):
        assert np.allclose(target_distribution([0, 0, 0]), [1 / 3] * 3)

    def test_single_count(self):
        t = target_distribution([1, 0])
        e = np.e
        assert t[0] == pytest.approx(e / (e + 1), abs=1e-4)
        assert t[1] == pytest.approx(1 / (e + 1), abs=1e-4)

    def test_strictly_positive_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            counts = rng.integers(0, 500, size=12)
            t = target_distribution(counts)
            assert (t > 0).all()
            assert t.sum() == pytest.approx(1.0)

    def test_huge_counts_stable(self):
        t = target_distribution([10_000, 0, 9_999])
        assert np.isfinite(t).all()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            target_distribution([])


class TestKlLoss:
    def test_zero_at_match(self):
        logits = np.array([0.7, -0.2, 1.1])
        pi = np.exp(log_softmax(logits))
        assert kl_loss(pi, logits) == pytest.approx(0.0, abs=1e-12)

    def test_onehot_vs_uniform(self):
        assert kl_loss(np.array([1.0, 0.0]), np.zeros(2)) == pytest.approx(np.log(2))

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pi = rng.dirichlet(np.ones(8))
            logits = rng.normal(size=8) * 3
            assert kl_loss(pi, logits) >= 0

    def test_no_nan_for_large_logits(self):
        pi = np.full(4, 0.25)
        assert np.isfinite(kl_loss(pi, np.array([1e4, -1e4, 0.0, 5e3])))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kl_loss(np.array([0.5, 0.5]), np.zeros(3))


class TestClipGradients:
    def test_below_max_unchanged(self):
        grads = {"a": np.array([0.3, 0.4])}
        norm = clip_gradients(grads, 1.0)
        assert norm == pytest.approx(0.5)
        assert np.allclose(grads["a"], [0.3, 0.4])

    def test_scaled_down(self):
        grads = {"a": np.array([6.0, 8.0])}
        clip_gradients(grads, 1.0)
        assert np.sqrt((grads["a"] ** 2).sum()) == pytest.approx(1.0)
        assert np.allclose(grads["a"], [0.6, 0.8])

    def test_post_clip_norm_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            grads = {k: rng.normal(size=5) * rng.uniform(0, 10) for k in "abc"}
            clip_gradients(grads, 1.0)
            total = np.sqrt(sum((g**2).sum() for g in grads.values()))
            assert total <= 1.0 + 1e-9

    @pytest.mark.parametrize("max_norm", [0.0, np.nan])
    def test_non_positive_max_norm_refused(self, max_norm):
        # NaN fails every comparison: unrefused, it would never clip
        with pytest.raises(ValueError, match="max_norm"):
            clip_gradients({"a": np.ones(3)}, max_norm)


class TestAsgd:
    def test_single_quadratic_step(self):
        p = _ScalarParams(1.0)
        avg = {"w": p.w.copy()}
        asgd_step(p, avg, {"w": np.array([2.0])}, lr=0.1, step_count=0)  # d(w^2)/dw at 1
        assert p.w[0] == pytest.approx(0.8)
        assert avg["w"][0] == pytest.approx(0.8)

    def test_average_of_two_iterates(self):
        p = _ScalarParams(1.0)
        avg = {"w": p.w.copy()}
        iterates = []
        for step in range(2):
            asgd_step(p, avg, {"w": np.array([2.0 * p.w[0]])}, lr=0.1, step_count=step)
            iterates.append(p.w[0])
        assert avg["w"][0] == pytest.approx(np.mean(iterates))


class TestAdam:
    def test_first_step_magnitude(self):
        for g in (1e-4, 1.0, 1e4):
            p = _ScalarParams(0.0)
            state = AdamState.for_params(p)
            adam_step(state, p, {"w": np.array([g])}, lr=0.01)
            assert abs(p.w[0]) == pytest.approx(0.01, rel=1e-3)

    def test_zero_gradient_no_change(self):
        p = _ScalarParams(3.0)
        state = AdamState.for_params(p)
        adam_step(state, p, {"w": np.zeros(1)}, lr=0.01)
        assert p.w[0] == 3.0

    def test_quadratic_convergence(self):
        p = _ScalarParams(1.0)
        state = AdamState.for_params(p)
        for _ in range(5000):
            adam_step(state, p, {"w": 2.0 * p.w}, lr=0.01)
            if p.w[0] ** 2 < 1e-6:
                break
        assert p.w[0] ** 2 < 1e-6


def degree_example(seed, n=12, m=40):
    """Structure-aligned toy datapoint: counts equal variable occurrences."""
    f = random_ksat(n, m, 3, seed)
    g = clause_literal_graph(f)
    counts = [0] * n
    for col in g.cols.tolist():
        counts[col % n] += 1
    return SupervisedExample(g, tuple(counts))


class TestTrainSupervised:
    def test_loss_decreases_and_overfits(self):
        examples = [degree_example(s) for s in range(10)]
        hp = replace(preset("supervised"), dropout=0.0)
        cfg = SupervisedConfig(lr=0.1, epochs=60, batch_size=2, seed=0)
        res = train_supervised(examples, hp, cfg)
        assert res.epoch_kl[-1] < res.epoch_kl[0]
        assert min(res.epoch_kl) < 0.5

    def test_epoch3_not_worse_than_epoch1(self):
        examples = [degree_example(s) for s in range(10)]
        hp = replace(preset("supervised"), dropout=0.0)
        cfg = SupervisedConfig(lr=0.1, epochs=3, batch_size=2, seed=0)
        res = train_supervised(examples, hp, cfg)
        assert res.epoch_kl[2] <= res.epoch_kl[0]

    def test_deterministic(self):
        examples = [degree_example(s) for s in range(6)]
        hp = HyperParams(delta_l=4, delta_c=6, tau_iters=1, n_l=1, n_c=1, n_p=2, dropout=0.15)
        cfg = SupervisedConfig(lr=0.01, epochs=3, batch_size=2, seed=4)
        a = train_supervised(examples, hp, cfg)
        b = train_supervised(examples, hp, cfg)
        assert a.epoch_kl == b.epoch_kl
        for (_, ta), (_, tb) in zip(a.params.tensors(), b.params.tensors()):
            assert np.array_equal(ta, tb)

    def test_returned_params_are_averaged(self):
        examples = [degree_example(s) for s in range(4)]
        hp = HyperParams(delta_l=4, delta_c=6, tau_iters=1, n_l=1, n_c=1, n_p=2, dropout=0.0)
        cfg = SupervisedConfig(lr=0.05, epochs=2, batch_size=2, seed=0)
        res = train_supervised(examples, hp, cfg)
        diffs = [
            float(np.abs(ta - tb).max())
            for (_, ta), (_, tb) in zip(res.params.tensors(), res.final_params.tensors())
        ]
        assert max(diffs) > 0  # average lags the last iterate

    def test_dropout_zero_is_the_retired_train_dropout_false(self):
        # the values SupervisedConfig(..., train_dropout=False) gave under the
        # supervised preset's dropout 0.15, before hp.dropout became the only
        # switch: epoch KLs and a digest (sum, L1 norm, fixed projection) of
        # the averaged parameters, to the golden values' 1e-10 of scale
        dataset = []
        for s in range(4):
            graph = clause_literal_graph(random_ksat(10, 40, 3, 20 + s))
            counts = np.random.default_rng(s).integers(0, 30, graph.num_vars)
            dataset.append(SupervisedExample(graph, tuple(int(c) for c in counts)))
        hp = replace(preset("supervised"), dropout=0.0)
        res = train_supervised(dataset, hp, SupervisedConfig(lr=1e-2, epochs=2, batch_size=2, seed=3))
        flat = np.concatenate([arr.ravel() for _, arr in res.params.tensors()])
        proj = np.random.default_rng(flat.size).uniform(-1.0, 1.0, flat.size)
        got = [*res.epoch_kl, flat.sum(), np.abs(flat).sum(), flat @ proj]
        want = [1.6565570731877912, 1.6560598524713008, 1.770654631780971, 1347.2784730896492, -10.629705604272141]
        scale = [1.6565570731877912, 1.6560598524713008, *[1347.2784730896492] * 3]
        assert np.all(np.abs(np.subtract(got, want)) <= 1e-10 * np.array(scale)), got

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_supervised([], preset("supervised"))

    def test_non_finite_gradient_stops_before_the_step(self, monkeypatch):
        monkeypatch.setattr(training, "backward_from_heads", _poisoned_backward(training.backward_from_heads))
        monkeypatch.setattr(training, "asgd_step", _no_step)
        examples = [degree_example(s) for s in range(4)]
        hp = HyperParams(delta_l=4, delta_c=6, tau_iters=1, n_l=1, n_c=1, n_p=2, dropout=0.0)
        with pytest.raises(FloatingPointError, match="non-finite gradient for tensor ln_shift"):
            train_supervised(examples, hp, SupervisedConfig(epochs=1, batch_size=2))


def _labelled(graph, seed):
    counts = np.random.default_rng(seed).integers(0, 6, graph.num_vars)
    return SupervisedExample(graph, tuple(int(c) for c in counts))


@pytest.fixture(scope="module")
def overlap_data():
    """Three graphs above the overlap gate and one below it."""
    big = [clause_literal_graph(random_ksat(260, 1100, 3, s)) for s in range(3)]
    assert min(g.num_edges for g in big) >= training._OVERLAP_MIN_EDGES
    small = degree_example(0).graph
    assert small.num_edges < training._OVERLAP_MIN_EDGES
    return [_labelled(g, s) for s, g in enumerate([big[0], small, big[1], big[2]])]


def _same_bits(result, reference):
    final, averaged, epoch_kl = reference
    assert result.epoch_kl == epoch_kl
    for mine, ref in ((result.final_params, final), (result.params, averaged)):
        for (name, a), (_, b) in zip(mine.tensors(), ref.tensors()):
            assert np.array_equal(a, b), name


def _forward_threads(monkeypatch):
    """Record the thread that runs each training forward."""
    threads = []
    forward_with_cache = training.forward_with_cache

    def recorded(*args, **kwargs):
        threads.append(threading.current_thread())
        return forward_with_cache(*args, **kwargs)

    monkeypatch.setattr(training, "forward_with_cache", recorded)
    return threads


class TestOverlappedTraining:
    """With a spare core, a batch runs the next forward on a worker thread
    during the current backward: the parameters must be the serial loop's
    bits, and no forward may outlive the call."""

    @pytest.fixture(autouse=True)
    def spare_core(self, monkeypatch):
        monkeypatch.setattr(training, "_SPARE_CORE", True)

    @pytest.mark.parametrize("dropout", [True, False])
    @pytest.mark.parametrize("batch_size", [1, 2, 3])
    def test_matches_the_serial_loop(self, overlap_data, monkeypatch, dropout, batch_size):
        hp = preset("supervised") if dropout else replace(preset("supervised"), dropout=0.0)
        cfg = SupervisedConfig(lr=0.05, epochs=2, batch_size=batch_size, seed=3)
        init = init_params(hp, seed=1)
        reference = serial_train_supervised(overlap_data, hp, cfg, init)
        threads = _forward_threads(monkeypatch)
        _same_bits(train_supervised(overlap_data, hp, cfg, init=init), reference)
        on_worker = sum(t is not threading.main_thread() for t in threads)
        assert len(threads) == 2 * len(overlap_data)
        if batch_size == 1:
            assert on_worker == 0
        else:
            assert 0 < on_worker

    def test_concurrent_callers_share_the_worker(self, overlap_data):
        # three callers on two cores, switching threads every few bytecodes:
        # their forwards interleave on the one worker and its buffer pool,
        # while each caller's backward still reads its own caches
        hp = preset("supervised")
        cfgs = [SupervisedConfig(lr=0.05, epochs=1, batch_size=4, seed=s) for s in range(3)]
        init = init_params(hp, seed=4)
        references = [serial_train_supervised(overlap_data, hp, cfg, init) for cfg in cfgs]
        results = [None] * len(cfgs)

        def run(i):
            results[i] = train_supervised(overlap_data, hp, cfgs[i], init=init)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=run, args=(i,)) for i in range(len(cfgs))]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for result, reference in zip(results, references):
            _same_bits(result, reference)

    def test_below_the_gate_starts_no_thread(self, monkeypatch):
        data = [degree_example(s) for s in range(4)]
        hp = preset("supervised")
        cfg = SupervisedConfig(epochs=2, batch_size=3, seed=0)
        init = init_params(hp, seed=0)
        reference = serial_train_supervised(data, hp, cfg, init)
        monkeypatch.setattr(training, "_worker", None)
        threads = _forward_threads(monkeypatch)
        before = set(threading.enumerate())
        _same_bits(train_supervised(data, hp, cfg, init=init), reference)
        assert training._worker is None
        assert set(threading.enumerate()) == before
        assert len(threads) == 8 and all(t is threading.main_thread() for t in threads)

    @pytest.mark.parametrize("env, cores, spare", [
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, True),
        ({"OMP_NUM_THREADS": "1"}, 2, True),
        ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2, True),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, False),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, False),
        ({}, 2, False),         # OpenBLAS then takes every core
    ])
    def test_a_core_is_spare_only_beside_one_blas_thread(self, monkeypatch, env, cores, spare):
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(training.os, "cpu_count", lambda: cores)
        assert training._spare_core() is spare

    def test_no_core_to_spare_starts_no_thread(self, overlap_data, monkeypatch):
        monkeypatch.setattr(training, "_SPARE_CORE", False)
        threads = _forward_threads(monkeypatch)
        hp = preset("supervised")
        train_supervised(overlap_data, hp, SupervisedConfig(epochs=1, batch_size=4))
        assert all(t is threading.main_thread() for t in threads)

    @pytest.mark.parametrize("fail_in", ["forward", "backward"])
    def test_failure_leaves_no_forward_running(self, overlap_data, monkeypatch, fail_in):
        hp = preset("supervised")
        cfg = SupervisedConfig(lr=0.05, epochs=2, batch_size=4, seed=5)
        init = init_params(hp, seed=2)
        # the first example of the first batch whose successor runs ahead:
        # that forward is still running when this example's backward fails
        order = np.random.default_rng(cfg.seed).permutation(len(overlap_data))
        k = next(k for k in range(3) if overlap_data[order[k + 1]].graph.num_edges >= training._OVERLAP_MIN_EDGES)
        poisoned = overlap_data[order[k]].graph
        ends = []
        forward_with_cache = training.forward_with_cache
        backward_from_heads = training.backward_from_heads

        def slow_forward(params, hp, graph, **kwargs):
            try:
                time.sleep(0.05)        # still running when the backward fails
                if fail_in == "forward" and graph is poisoned:
                    raise FloatingPointError("non-finite policy logits")
                return forward_with_cache(params, hp, graph, **kwargs)
            finally:
                ends.append(time.perf_counter())

        def failing_backward(params, hp, cache, *args, **kwargs):
            if fail_in == "backward" and cache["graph"] is poisoned:
                raise FloatingPointError("non-finite gradient")
            return backward_from_heads(params, hp, cache, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(training, "forward_with_cache", slow_forward)
            patch.setattr(training, "backward_from_heads", failing_backward)
            with pytest.raises(FloatingPointError):
                train_supervised(overlap_data, hp, cfg, init=init)
            raised = time.perf_counter()
            time.sleep(0.2)
        # every forward that started had ended before the call raised
        assert len(ends) == k + 2 - (fail_in == "forward")
        assert max(ends) < raised
        # the worker still serves the next call
        _same_bits(train_supervised(overlap_data, hp, cfg, init=init),
                   serial_train_supervised(overlap_data, hp, cfg, init))

    def test_forked_child_starts_its_own_worker(self, overlap_data):
        hp = preset("supervised")
        cfg = SupervisedConfig(epochs=1, batch_size=4, seed=0)
        train_supervised(overlap_data, hp, cfg)        # the worker now runs here
        assert training._worker is not None
        child = multiprocessing.get_context("fork").Process(
            target=train_supervised, args=(overlap_data, hp, cfg))
        child.start()
        child.join(timeout=60)
        alive = child.is_alive()
        if alive:
            child.kill()
        assert not alive and child.exitcode == 0


def _poisoned_backward(backward):
    """backward_from_heads that leaves a NaN in the accumulated ln_shift
    gradient, as an overflow in a later tensor would."""

    def poisoned(*args, **kwargs):
        grads = backward(*args, **kwargs)
        grads["ln_shift"][0] = np.nan
        return grads

    return poisoned


def _no_step(*args, **kwargs):
    raise AssertionError("optimizer stepped on a non-finite gradient")


def _untimed(row):
    # a history row without its wall times
    return {k: v for k, v in row.items() if k not in ("rollout_s", "update_s", "forward_s", "backward_s")}


class TestReinforcePieces:
    def _episodes(self, params, hp, k=3, seed=2):
        f = random_ksat(6, 8, 3, 11)
        rng = np.random.default_rng(seed)
        return [run_episode(f, params, hp, rng) for _ in range(k)]

    def test_on_policy_ratios_are_one(self, tiny_hyper):
        p = perturbed_params(tiny_hyper)
        episodes = self._episodes(p, tiny_hyper)
        ratios = reinforce_surrogate(episodes, p, tiny_hyper, None, *reinforce_weights(episodes)[:2]).ratios
        # the steps run in unions, the rollouts one by one: equal to rounding
        assert_rounding_close(ratios, np.ones(len(ratios)))

    def test_behavior_logprob_matches_recompute(self, tiny_hyper):
        p = perturbed_params(tiny_hyper)
        for ep in self._episodes(p, tiny_hyper):
            for step in ep:
                logits = forward(p, tiny_hyper, step.observation).policy_logits
                assert log_softmax(logits)[step.action] == step.behavior_logprob

    def test_equal_advantages_normalize_to_zero(self, tiny_hyper):
        # one-step episodes with identical rewards and a shared observation
        # give identical advantages, which normalization maps to zero
        p = perturbed_params(tiny_hyper)
        f = Formula(2, ((1, 2), (1, -2), (-1, 2), (-1, -2)))
        rng = np.random.default_rng(0)
        episodes = [run_episode(f, p, tiny_hyper, rng) for _ in range(4)]
        assert all(len(ep) == 1 and ep[0].reward == 1.0 for ep in episodes)
        adv, targets, _ = reinforce_weights(episodes)
        assert np.allclose(adv, 0.0)
        res = reinforce_surrogate(episodes, p, tiny_hyper, None, adv, targets)
        assert res.policy_loss == pytest.approx(0.0, abs=1e-12)
        for i in range(tiny_hyper.n_p):
            assert not res.grads[f"v_policy.{i}.w"].any()

    def test_advantage_normalization_stats(self, tiny_hyper):
        p = perturbed_params(tiny_hyper)
        episodes = self._episodes(p, tiny_hyper, k=5, seed=7)
        adv, _, _ = reinforce_weights(episodes)
        if adv.size > 1 and adv.std() > 0:
            assert abs(adv.mean()) < 1e-9
            assert abs(adv.var() - 1.0) < 1e-6

    def test_ratio_clipping(self, tiny_hyper):
        p = perturbed_params(tiny_hyper)
        episodes = self._episodes(p, tiny_hyper)
        # inflate the behavior logprobs so exp(lp - blp) explodes
        inflated = [[replace(s, behavior_logprob=s.behavior_logprob - 50.0) for s in ep] for ep in episodes]
        ratios = reinforce_surrogate(inflated, p, tiny_hyper, None, *reinforce_weights(inflated)[:2]).ratios
        assert ratios.max() <= 10.0
        assert np.all(ratios == 10.0)

    def test_weights_come_from_the_rollouts_alone(self, tiny_hyper, monkeypatch):
        # returns-to-go less each step's recorded value, normalized; no forward
        p = perturbed_params(tiny_hyper)
        episodes = self._episodes(p, tiny_hyper, k=4, seed=5)
        monkeypatch.setattr(training, "forward_with_cache", lambda *args: pytest.fail("a forward ran"))
        adv, targets, returns = reinforce_weights(episodes)
        want_returns = [sum(s.reward for s in ep[t:]) for ep in episodes for t in range(len(ep))]
        assert np.allclose(returns, want_returns, rtol=0, atol=1e-12)
        raw = returns - [s.behavior_value for ep in episodes for s in ep]
        assert np.array_equal(adv, (raw - raw.mean()) / raw.std())
        assert np.array_equal(targets, np.clip(returns, 0.0, 1.0))
        # a policy without a value head baselines at 0
        headless = [[replace(s, behavior_value=None) for s in ep] for ep in episodes]
        assert np.array_equal(reinforce_weights(headless)[0], (returns - returns.mean()) / returns.std())

    def test_policy_entropy_is_the_mean_step_entropy(self, tiny_hyper):
        p = perturbed_params(tiny_hyper)
        episodes = self._episodes(p, tiny_hyper, k=4, seed=3)
        res = reinforce_surrogate(episodes, p, tiny_hyper, None, *reinforce_weights(episodes)[:2])
        entropies = []
        for ep in episodes:
            for step in ep:
                probs = np.exp(log_softmax(forward(p, tiny_hyper, step.observation).policy_logits))
                entropies.append(-np.sum(probs * np.log(probs)))
        assert res.policy_entropy == pytest.approx(np.mean(entropies), rel=1e-12)

    def test_unions_match_one_pass_per_step(self, tiny_hyper):
        # to rounding: a union runs as one graph
        p = perturbed_params(tiny_hyper)
        behavior = perturbed_params(tiny_hyper, seed=6, noise=0.07)
        episodes = self._episodes(behavior, tiny_hyper, k=5, seed=4)
        unions = pack_steps(episodes)
        singles = [step.observation for ep in episodes for step in ep]     # a plain graph is one part
        assert len(unions) < len(singles)
        adv, targets, _ = reinforce_weights(episodes)
        got = reinforce_surrogate(episodes, p, tiny_hyper, None, adv, targets, unions)
        want = reinforce_surrogate(episodes, p, tiny_hyper, None, adv, targets, singles)
        for key in ("total", "policy_loss", "value_loss", "mean_return", "policy_entropy", "ratios"):
            assert_rounding_close(getattr(got, key), getattr(want, key), key)
        for name, g in got.grads.items():
            assert_rounding_close(g, want.grads[name], name)

    def test_unions_must_match_the_steps(self, tiny_hyper):
        p = perturbed_params(tiny_hyper)
        episodes = self._episodes(p, tiny_hyper, k=2, seed=4)
        graphs = [step.observation for ep in episodes for step in ep]
        weights = reinforce_weights(episodes)
        short = [disjoint_union(graphs[:-1])]
        extra = [disjoint_union(graphs + graphs[:1])]
        swapped = [disjoint_union([graphs[-1], *graphs[:-1]])]
        assert graphs[-1].parts != graphs[0].parts
        for unions in (short, extra, swapped):
            with pytest.raises(ValueError, match="do not match"):
                reinforce_surrogate(episodes, p, tiny_hyper, None, *weights[:2], unions)

    def test_empty_batch_rejected(self, tiny_hyper):
        p = perturbed_params(tiny_hyper)
        with pytest.raises(ValueError, match="empty episode batch"):
            reinforce_surrogate([], p, tiny_hyper, [], [], [])

    def test_returns_clamped_for_value_head(self, tiny_hyper):
        p = perturbed_params(tiny_hyper)
        episodes = self._episodes(p, tiny_hyper, k=4, seed=9)
        _, targets, returns = reinforce_weights(episodes)
        assert (targets >= 0).all() and (targets <= 1).all()
        assert np.all(targets == np.clip(returns, 0.0, 1.0))


class TestRLConfig:
    @pytest.mark.parametrize("field", ["workers", "episodes_per_worker", "grad_steps", "batches"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_counts_must_be_positive(self, field, value):
        with pytest.raises(ValueError, match=field):
            RLConfig(**{field: value})
        RLConfig(**{field: 1})

    @pytest.mark.parametrize("field", ["lr"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_rates_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=field):
            RLConfig(**{field: value})
        RLConfig(**{field: 1e-9})

    def test_defaults_valid(self):
        RLConfig()
        # clipping, the value weight and the edge cap are fixed, not settings
        assert len(fields(RLConfig)) == 7


def test_train_dropout_is_constructor_only():
    # perfbench's call, still accepted by value but not a stored setting
    cfg = SupervisedConfig(epochs=1, seed=123, train_dropout=True)
    assert cfg == SupervisedConfig(epochs=1, seed=123)
    assert [f.name for f in fields(SupervisedConfig)] == ["lr", "epochs", "batch_size", "seed"]
    assert "train_dropout" not in asdict(cfg)
    with pytest.raises(ValueError, match=r"HyperParams\.dropout=0"):
        SupervisedConfig(epochs=1, seed=123, train_dropout=False)


@pytest.mark.parametrize("cls", [RLConfig, SupervisedConfig])
def test_seed_must_be_nonnegative(cls):
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        cls(seed=-1)
    cls(seed=0)


class TestTrainRl:
    def test_deterministic_single_worker(self):
        hp = HyperParams(delta_l=4, delta_c=4, tau_iters=1, n_l=1, n_c=1, n_p=2, dropout=0.0)
        formulas = [random_ksat(8, 28, 3, s) for s in range(4)]
        cfg = RLConfig(workers=1, episodes_per_worker=2, grad_steps=2, batches=4, lr=1e-3, seed=5)
        a = train_rl(formulas, hp, cfg)
        b = train_rl(formulas, hp, cfg)
        assert [_untimed(row) for row in a.history] == [_untimed(row) for row in b.history]
        for (_, ta), (_, tb) in zip(a.params.tensors(), b.params.tensors()):
            assert np.array_equal(ta, tb)

    def test_history_records_rollout_and_update_time(self):
        hp = HyperParams(delta_l=4, delta_c=4, tau_iters=1, n_l=1, n_c=1, n_p=2, dropout=0.0)
        formulas = [random_ksat(8, 28, 3, s) for s in range(4)]
        cfg = RLConfig(workers=2, episodes_per_worker=1, grad_steps=2, batches=2, lr=1e-3, seed=5)
        for row in train_rl(formulas, hp, cfg).history:
            assert row["rollout_s"] > 0.0 and row["update_s"] > 0.0
            # the update's time inside its passes, a part of the update's time
            assert row["forward_s"] > 0.0 and row["backward_s"] > 0.0
            assert row["forward_s"] + row["backward_s"] <= row["update_s"]

    @pytest.mark.parametrize("grad_steps", [1, 3])
    def test_every_grad_step_uses_the_batch_constants(self, monkeypatch, grad_steps):
        # the advantages and value targets of every step are those of
        # reinforce_weights(episodes); each step's ratios are read from its
        # own forward at that step's params
        calls = []
        surrogate = training.reinforce_surrogate

        def spy(episodes, params, hp, ratios, advantages, value_targets, unions=None):
            res = surrogate(episodes, params, hp, ratios, advantages, value_targets, unions)
            calls.append((episodes, params.copy(), ratios, advantages, value_targets, res.ratios))
            return res

        monkeypatch.setattr(training, "reinforce_surrogate", spy)
        hp = HyperParams(delta_l=4, delta_c=4, tau_iters=1, n_l=1, n_c=1, n_p=2, dropout=0.0)
        formulas = [random_ksat(20, 85, 3, s) for s in range(4)]
        cfg = RLConfig(workers=2, episodes_per_worker=2, grad_steps=grad_steps, batches=2, lr=0.05, seed=1)
        train_rl(formulas, hp, cfg)
        assert len(calls) == cfg.batches * grad_steps
        for k, (episodes, params, ratios, adv, targets, got) in enumerate(calls):
            want_adv, want_targets, _ = reinforce_weights(episodes)
            assert ratios is None
            assert np.array_equal(adv, want_adv) and np.array_equal(targets, want_targets)
            steps = [step for ep in episodes for step in ep]
            want = [min(max(np.exp(log_softmax(forward(params, hp, s.observation).policy_logits)[s.action]
                                   - s.behavior_logprob), 0.0), 10.0) for s in steps]
            assert_rounding_close(got, want)
            if k % grad_steps == 0:     # the rollout snapshot's params
                assert_rounding_close(got, np.ones(len(steps)))
        if grad_steps > 1:
            assert any(not np.allclose(got, 1.0) for *_, got in calls)

    @pytest.mark.parametrize("grad_steps", [1, 3])
    def test_history_records_ratio_clips_and_entropy(self, grad_steps):
        hp = HyperParams(delta_l=4, delta_c=4, tau_iters=1, n_l=1, n_c=1, n_p=2, dropout=0.0)
        formulas = [random_ksat(20, 85, 3, s) for s in range(4)]
        # a large step moves the policy far enough for ratios to reach the clip
        cfg = RLConfig(workers=2, episodes_per_worker=2, grad_steps=grad_steps, batches=3, lr=0.5, seed=1)
        history = train_rl(formulas, hp, cfg).history
        for row in history:
            assert 0.0 <= row["ratio_clip_frac"] <= 1.0
            # every step's policy is over at most 20 variables
            assert 0.0 <= row["policy_entropy"] <= np.log(20)
        clipped = [row["ratio_clip_frac"] for row in history]
        if grad_steps == 1:
            assert clipped == [0.0] * len(history)     # every ratio is exp(0) = 1
        else:
            assert max(clipped) > 0.0

    def test_forward_and_backward_counts(self, monkeypatch):
        # a batch of S steps packed into U unions makes S rollout forwards,
        # one per step on its own graph; then, per grad step, one forward
        # and one backward per union.  Every pass kind sees each step's
        # graph exactly once, and every grad step the same union objects,
        # so each union's operators are built once per batch
        episodes, passes = [], []
        run_episode_, forward_, backward_ = (
            training.run_episode, training.forward_with_cache, training.backward_from_heads)

        def counted_episode(*args, **kwargs):
            episodes.append(run_episode_(*args, **kwargs))
            return episodes[-1]

        def counted_forward(params, hp, graph, *args, **kwargs):
            passes.append(("forward", graph))
            return forward_(params, hp, graph, *args, **kwargs)

        def counted_backward(params, hp, cache, *args, **kwargs):
            passes.append(("backward", cache["graph"]))
            return backward_(params, hp, cache, *args, **kwargs)

        monkeypatch.setattr(training, "run_episode", counted_episode)
        monkeypatch.setattr(training, "forward_with_cache", counted_forward)
        monkeypatch.setattr(training, "backward_from_heads", counted_backward)
        hp = HyperParams(delta_l=4, delta_c=4, tau_iters=1, n_l=1, n_c=1, n_p=2, dropout=0.0)
        formulas = [random_ksat(8, 28, 3, s) for s in range(4)]
        # one step per union, a few steps per union, the default budget
        for budget, grad_steps in itertools.product((0, 250, training._UNION_MAX_EDGES), (1, 2, 3)):
            monkeypatch.setattr(training, "_UNION_MAX_EDGES", budget)
            episodes.clear()
            passes.clear()
            cfg = RLConfig(workers=2, episodes_per_worker=2, grad_steps=grad_steps, batches=1, lr=1e-3, seed=1)
            train_rl(formulas, hp, cfg)
            graphs = [step.observation for ep in episodes for step in ep]
            S = len(graphs)
            backwards = [graph for kind, graph in passes if kind == "backward"]
            U = len(backwards) // grad_steps
            unions = backwards[:U]
            assert sum(kind == "forward" for kind, _ in passes) == S + grad_steps * U
            assert len(backwards) == grad_steps * U
            surrogate = [(kind, u) for u in unions for kind in ("forward", "backward")]
            want = [("forward", g) for g in graphs] + surrogate * grad_steps
            assert len(passes) == len(want)
            assert all(kind == want_kind and graph is want_graph
                       for (kind, graph), (want_kind, want_graph) in zip(passes, want))
            assert [p for u in unions for p in u.parts] == [(g.num_clauses, g.num_vars) for g in graphs]
            assert sum(u.num_edges for u in unions) == sum(g.num_edges for g in graphs)
            assert all(u.num_edges <= budget or len(u.parts) == 1 for u in unions)
            assert U == S if budget == 0 else 1 < U < S or budget >= sum(g.num_edges for g in graphs)

    def test_non_finite_gradient_stops_before_the_step(self, monkeypatch):
        monkeypatch.setattr(training, "backward_from_heads", _poisoned_backward(training.backward_from_heads))
        monkeypatch.setattr(training, "adam_step", _no_step)
        hp = HyperParams(delta_l=4, delta_c=4, tau_iters=1, n_l=1, n_c=1, n_p=2, dropout=0.0)
        formulas = [random_ksat(8, 28, 3, s) for s in range(4)]
        cfg = RLConfig(workers=1, episodes_per_worker=1, grad_steps=1, batches=1, seed=1)
        with pytest.raises(FloatingPointError, match="non-finite gradient for tensor ln_shift"):
            train_rl(formulas, hp, cfg)

    def test_graph_over_edge_cap_rejected(self, monkeypatch):
        # an oversized graph is an error, not skipped like a trivial formula
        monkeypatch.setattr(training, "GlueEnv", partial(GlueEnv, edge_cap=10))
        hp = HyperParams(delta_l=4, delta_c=4, tau_iters=1, n_l=1, n_c=1, n_p=2, dropout=0.0)
        with pytest.raises(ValueError, match="edge_cap=10 "):
            train_rl([random_ksat(20, 85, 3, 0)], hp, RLConfig(batches=1))

    def test_only_trivial_formulas_refused(self):
        hp = HyperParams(delta_l=4, delta_c=4, tau_iters=1, n_l=1, n_c=1, n_p=2, dropout=0.0)
        trivial = Formula(2, ((1,), (2,)))
        with pytest.raises(ValueError, match="trivially decided"):
            train_rl([trivial], hp, RLConfig(workers=1, episodes_per_worker=1, batches=1))

    def test_requires_value_head(self):
        hp = HyperParams(delta_l=4, delta_c=4, tau_iters=1, n_l=1, n_c=1, n_p=2, dropout=0.0)
        init = init_params(hp, seed=0, value_head=False)
        with pytest.raises(ValueError):
            train_rl([random_ksat(8, 28, 3, 0)], hp, RLConfig(batches=1), init=init)

    def test_history_and_checkpoint(self, tmp_path):
        hp = HyperParams(delta_l=4, delta_c=4, tau_iters=1, n_l=1, n_c=1, n_p=2, dropout=0.0)
        formulas = [random_ksat(8, 28, 3, s) for s in range(3)]
        ckpt = tmp_path / "rl.ngw"
        cfg = RLConfig(workers=2, episodes_per_worker=1, grad_steps=1, batches=3,
                       lr=1e-3, seed=0, checkpoint_path=str(ckpt))
        res = train_rl(formulas, hp, cfg)
        assert len(res.history) == 3
        assert all(np.isfinite(row["grad_norm"]) and row["grad_norm"] > 0 for row in res.history)
        assert ckpt.exists()
        from gluesat.network import load_weights

        loaded, hp2 = load_weights(ckpt)
        assert hp2 == hp
        for (_, ta), (_, tb) in zip(res.params.tensors(), loaded.tensors()):
            assert np.allclose(ta, tb, atol=1e-6)  # float32 checkpoint precision
