import numpy as np
import pytest

from gluesat.cnf import clause_literal_graph, random_ksat
from gluesat.grads import backward_from_heads, check_finite, zero_grads
from gluesat.network import forward, forward_with_cache, init_params
from gluesat.training import (
    RLConfig,
    kl_grads,
    kl_loss,
    reinforce_surrogate,
    reinforce_weights,
    run_episode,
)

from conftest import perturbed_params
from oracles import fd_gradients, max_rel_error


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

    def test_train_mode_with_dropout_matches(self, graph_6x8):
        from gluesat.network import HyperParams

        hp = HyperParams(delta_l=3, delta_c=4, tau_iters=1, n_l=2, n_c=2, n_p=2, dropout=0.2)
        p = perturbed_params(hp)
        target = np.random.default_rng(1).dirichlet(np.ones(6))
        _, grads = kl_grads(p, hp, graph_6x8, target, train_mode=True, dropout_seed=77)

        def loss():
            out = forward(p, hp, graph_6x8, train_mode=True, dropout_seed=77)
            return kl_loss(target, out.policy_logits)

        worst, name = max_rel_error(grads, fd_gradients(p, loss))
        assert worst <= 1e-4, f"{name}: {worst}"


class TestReinforceFiniteDifferences:
    def test_every_tensor_matches(self, tiny_hyper):
        p = perturbed_params(tiny_hyper)
        behavior = perturbed_params(tiny_hyper, seed=6, noise=0.07)
        f = random_ksat(6, 8, 3, 11)
        rng = np.random.default_rng(2)
        episodes = [run_episode(f, behavior, tiny_hyper, rng) for _ in range(3)]
        cfg = RLConfig()
        ratios, adv, targets, _ = reinforce_weights(episodes, p, tiny_hyper, cfg)
        res = reinforce_surrogate(episodes, p, tiny_hyper, cfg, ratios, adv, targets)

        def loss():
            return reinforce_surrogate(episodes, p, tiny_hyper, cfg, ratios, adv, targets).total

        worst, name = max_rel_error(res.grads, fd_gradients(p, loss))
        assert worst <= 1e-4, f"{name}: {worst}"

    def test_value_head_gets_gradient(self, tiny_hyper):
        p = perturbed_params(tiny_hyper)
        f = random_ksat(6, 8, 3, 11)
        rng = np.random.default_rng(3)
        episodes = [run_episode(f, p, tiny_hyper, rng)]
        cfg = RLConfig()
        ratios, adv, targets, _ = reinforce_weights(episodes, p, tiny_hyper, cfg)
        res = reinforce_surrogate(episodes, p, tiny_hyper, cfg, ratios, adv, targets)
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
