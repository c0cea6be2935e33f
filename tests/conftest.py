import numpy as np
import pytest

from gluesat.network import HyperParams, init_params


@pytest.fixture
def tiny_hyper():
    """Small dimensions keep gradient checks and forwards fast."""
    return HyperParams(delta_l=3, delta_c=4, tau_iters=2, n_l=2, n_c=2, n_p=2, dropout=0.0)


def perturbed_params(hp, seed=5, noise=0.05, value_head=True):
    """Init params nudged off the zero-bias point so no pre-activation sits
    exactly on the LeakyReLU kink (which would break finite differences)."""
    params = init_params(hp, seed=seed, value_head=value_head)
    rng = np.random.default_rng(seed + 1000)
    for _, arr in params.tensors():
        arr += noise * rng.standard_normal(arr.shape)
    return params
