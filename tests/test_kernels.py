import numpy as np
import pytest

from leggettsim import kernels
from leggettsim.kernels import Coupling


@pytest.fixture
def draw_inputs(rng):
    n = 5000
    pa = rng.random(n)
    pb = rng.random(n)
    u1 = rng.random(n)
    u2 = rng.random(n)
    return pa, pb, u1, u2


class TestKernelSemantics:
    def test_outcomes_are_plus_minus_one(self, draw_inputs):
        a, b = kernels.draw_outcomes(*draw_inputs, Coupling.INDEPENDENT)
        assert set(np.unique(a)) <= {-1.0, 1.0}
        assert set(np.unique(b)) <= {-1.0, 1.0}

    @pytest.mark.parametrize("coupling", [Coupling.INDEPENDENT, Coupling.COMONOTONE,
                                          Coupling.ANTIMONOTONE], ids=["0", "1", "2"])
    def test_outcomes_are_int8(self, draw_inputs, coupling):
        a, b = kernels.draw_outcomes(*draw_inputs, coupling)
        for x in (a, b):
            assert x.dtype == np.int8
            assert set(np.unique(x).tolist()) == {-1, 1}

    def test_comonotone_uses_shared_uniform(self):
        pa = np.array([0.5, 0.5])
        pb = np.array([0.5, 0.5])
        u1 = np.array([0.1, 0.9])
        u2 = np.array([0.9, 0.1])
        a, b = kernels.draw_outcomes(pa, pb, u1, u2, Coupling.COMONOTONE)
        assert np.array_equal(a, b)

    def test_antimonotone_flips(self):
        pa = np.array([0.5, 0.5])
        pb = np.array([0.5, 0.5])
        u1 = np.array([0.1, 0.9])
        u2 = np.array([0.5, 0.5])
        a, b = kernels.draw_outcomes(pa, pb, u1, u2, Coupling.ANTIMONOTONE)
        assert np.array_equal(a, -b)

    def test_abs_sum_diff_values(self, rng):
        alpha = rng.uniform(-1, 1, 100)
        beta = rng.uniform(-1, 1, 100)
        plus, minus = kernels.abs_sum_diff(alpha, beta)
        assert np.array_equal(plus, np.abs(alpha + beta))
        assert np.array_equal(minus, np.abs(alpha - beta))

    def test_abs_sum_diff_into_out(self, rng):
        alpha = rng.uniform(-1, 1, 100)
        beta = rng.uniform(-1, 1, 100)
        rows = np.full((2, 100), np.nan)
        plus, minus = kernels.abs_sum_diff(alpha, beta, out=(rows[0], rows[1]))
        assert np.shares_memory(plus, rows[0]) and np.shares_memory(minus, rows[1])
        assert rows.tobytes() == np.array(kernels.abs_sum_diff(alpha, beta)).tobytes()
