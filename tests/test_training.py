from dataclasses import fields
from functools import partial

import numpy as np
import pytest

import gluesat.training as training
from gluesat.cnf import Formula, clause_literal_graph, random_ksat
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
    reinforce_surrogate,
    reinforce_weights,
    run_episode,
    target_distribution,
    train_rl,
    train_supervised,
)

from conftest import perturbed_params


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
        hp = preset("supervised")
        cfg = SupervisedConfig(lr=0.1, epochs=60, batch_size=2, seed=0, train_dropout=False)
        res = train_supervised(examples, hp, cfg)
        assert res.epoch_kl[-1] < res.epoch_kl[0]
        assert min(res.epoch_kl) < 0.5

    def test_epoch3_not_worse_than_epoch1(self):
        examples = [degree_example(s) for s in range(10)]
        hp = preset("supervised")
        cfg = SupervisedConfig(lr=0.1, epochs=3, batch_size=2, seed=0, train_dropout=False)
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


class TestReinforcePieces:
    def _episodes(self, params, hp, k=3, seed=2):
        f = random_ksat(6, 8, 3, 11)
        rng = np.random.default_rng(seed)
        return [run_episode(f, params, hp, rng) for _ in range(k)]

    def test_on_policy_ratios_are_one(self, tiny_hyper):
        p = perturbed_params(tiny_hyper)
        episodes = self._episodes(p, tiny_hyper)
        ratios, _, _, _ = reinforce_weights(episodes, p, tiny_hyper)
        assert np.all(ratios == 1.0)

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
        ratios, adv, targets, _ = reinforce_weights(episodes, p, tiny_hyper)
        assert np.allclose(adv, 0.0)
        res = reinforce_surrogate(episodes, p, tiny_hyper, ratios, adv, targets)
        assert res.policy_loss == pytest.approx(0.0, abs=1e-12)
        for i in range(tiny_hyper.n_p):
            assert not res.grads[f"v_policy.{i}.w"].any()

    def test_advantage_normalization_stats(self, tiny_hyper):
        p = perturbed_params(tiny_hyper)
        episodes = self._episodes(p, tiny_hyper, k=5, seed=7)
        _, adv, _, _ = reinforce_weights(episodes, p, tiny_hyper)
        if adv.size > 1 and adv.std() > 0:
            assert abs(adv.mean()) < 1e-9
            assert abs(adv.var() - 1.0) < 1e-6

    def test_ratio_clipping(self, tiny_hyper):
        p = perturbed_params(tiny_hyper)
        episodes = self._episodes(p, tiny_hyper)
        # inflate the behavior logprobs so exp(lp - blp) explodes
        inflated = [
            [type(s)(s.observation, s.action, s.behavior_logprob - 50.0, s.reward) for s in ep]
            for ep in episodes
        ]
        ratios, _, _, _ = reinforce_weights(inflated, p, tiny_hyper)
        assert ratios.max() <= 10.0

    def test_empty_batch_rejected(self, tiny_hyper):
        p = perturbed_params(tiny_hyper)
        with pytest.raises(ValueError, match="empty episode batch"):
            reinforce_surrogate([], p, tiny_hyper, [], [], [])

    def test_returns_clamped_for_value_head(self, tiny_hyper):
        p = perturbed_params(tiny_hyper)
        episodes = self._episodes(p, tiny_hyper, k=4, seed=9)
        _, _, targets, returns = reinforce_weights(episodes, p, tiny_hyper)
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
        assert a.history == b.history
        for (_, ta), (_, tb) in zip(a.params.tensors(), b.params.tensors()):
            assert np.array_equal(ta, tb)

    def test_forward_and_backward_counts(self, monkeypatch):
        # the first grad step reuses the rollout's log-probabilities and
        # values, so each episode step costs 2 * grad_steps forwards
        counts = {"steps": 0, "forward": 0, "backward": 0}
        run_episode_, forward_, backward_ = (
            training.run_episode, training.forward_with_cache, training.backward_from_heads)

        def counted_episode(*args, **kwargs):
            steps = run_episode_(*args, **kwargs)
            counts["steps"] += len(steps)
            return steps

        def counted_forward(*args, **kwargs):
            counts["forward"] += 1
            return forward_(*args, **kwargs)

        def counted_backward(*args, **kwargs):
            counts["backward"] += 1
            return backward_(*args, **kwargs)

        monkeypatch.setattr(training, "run_episode", counted_episode)
        monkeypatch.setattr(training, "forward_with_cache", counted_forward)
        monkeypatch.setattr(training, "backward_from_heads", counted_backward)
        hp = HyperParams(delta_l=4, delta_c=4, tau_iters=1, n_l=1, n_c=1, n_p=2, dropout=0.0)
        formulas = [random_ksat(8, 28, 3, s) for s in range(4)]
        for grad_steps in (1, 2, 3):
            counts.update(steps=0, forward=0, backward=0)
            cfg = RLConfig(workers=2, episodes_per_worker=2, grad_steps=grad_steps, batches=2,
                           lr=1e-3, seed=1)
            train_rl(formulas, hp, cfg)
            assert counts["steps"] > 0
            assert counts["forward"] == counts["steps"] * 2 * grad_steps
            assert counts["backward"] == counts["steps"] * grad_steps

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
