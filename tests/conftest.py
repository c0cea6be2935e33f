import numpy as np
import pytest
from hypothesis import strategies as st

from gluesat.cnf import SparseGraph
from gluesat.network import HyperParams, init_params


@pytest.fixture
def tiny_hyper():
    """Small dimensions keep gradient checks and forwards fast."""
    return HyperParams(delta_l=3, delta_c=4, tau_iters=2, n_l=2, n_c=2, n_p=2, dropout=0.0)


# A disjoint union runs as one graph, so its numbers equal those of one
# pass per part only to rounding: this bound, relative to max(|x|, 1) of
# the per-part value x, is 100 times tighter than the golden values' 1e-10
ROUNDING = 1e-12


def assert_rounding_close(got, want, label=""):
    """got equals want to within ROUNDING of max(|want|, 1), elementwise."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, label
    assert np.all(np.abs(got - want) <= ROUNDING * np.maximum(np.abs(want), 1.0)), (label, got, want)


def perturbed_params(hp, seed=5, noise=0.05, value_head=True):
    """Init params nudged off the zero-bias point so no pre-activation sits
    exactly on the LeakyReLU kink (which would break finite differences)."""
    params = init_params(hp, seed=seed, value_head=value_head)
    rng = np.random.default_rng(seed + 1000)
    for _, arr in params.tensors():
        arr += noise * rng.standard_normal(arr.shape)
    return params


@st.composite
def small_graphs(draw):
    """1 to 12 variables and 0 to 30 clauses of 1 to 5 literal columns
    drawn with replacement, so clause sizes mix within and across graphs."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.repeat(np.arange(m), rng.integers(1, 6, m))
    cols = rng.integers(0, 2 * n, len(rows))
    return SparseGraph(m, n, rows, cols, tuple(range(1, n + 1)))


@st.composite
def graph_lists(draw):
    """1 to 6 small graphs, one of them of one variable and one clause."""
    graphs = draw(st.lists(small_graphs(), min_size=0, max_size=5))
    graphs.insert(draw(st.integers(0, len(graphs))), SparseGraph(1, 1, [0, 0], [0, 1], (1,)))
    return graphs
