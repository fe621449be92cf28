import sys
import threading
import tracemalloc

import numpy as np
import pytest

from leggettsim import montecarlo, sphere
from leggettsim.models import (
    Coupling,
    LeggettModel,
    SettingsPair,
    SubensembleDistribution,
    exact_model_correlation,
    isotropic_product,
    outcome_law,
    point_mass,
    sample_outcome_arrays,
)
from leggettsim.montecarlo import BLOCK_SIZE, CorrelationEstimate, estimate_correlation

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def block_sums(law, n, seed, stream_id):
    """Integer sums of AB, A and B over n draws, drawn block by block from
    the streams estimate_correlation uses."""
    sums = [0, 0, 0]
    for block, offset in enumerate(range(0, n, BLOCK_SIZE)):
        rng = sphere.make_rng(seed, stream_id, block=block)
        a, b = sample_outcome_arrays(law, rng.random((law.rows, min(BLOCK_SIZE, n - offset))))
        for i, x in enumerate((a * b, a, b)):
            sums[i] += int(np.sum(x, dtype=np.int64))
    return tuple(sums)


def sample_marginals(law, n, seed):
    """Sample means of A and B over n draws, with their standard errors."""
    a, b = sample_outcome_arrays(law, sphere.make_rng(seed, 0).random((law.rows, n)))
    return (CorrelationEstimate(float(a.mean()), n),
            CorrelationEstimate(float(b.mean()), n))


class TestCorrelationEstimate:
    def test_se_formula(self):
        est = CorrelationEstimate(0.6, 100)
        assert est.se == pytest.approx(np.sqrt((1 - 0.36) / 100), abs=1e-15)

    def test_degenerate_se(self):
        assert CorrelationEstimate(1.0, 50).se == 0.0


class TestEstimateCorrelation:
    def test_point_mass_degenerate(self):
        model = LeggettModel(point_mass(X, Y), Coupling.INDEPENDENT)
        est = estimate_correlation(outcome_law(model, SettingsPair(X, Y)), 100, seed=1)
        assert est.mean == 1.0 and est.se == 0.0 and est.n == 100

    def test_orthogonal_point_mass(self):
        model = LeggettModel(point_mass(Z, Z), Coupling.INDEPENDENT)
        est = estimate_correlation(outcome_law(model, SettingsPair(X, Y)), 100_000, seed=2)
        assert abs(est.mean - 0.0) <= 4 * est.se

    def test_mirrored_same_setting(self):
        # oracle: exact correlation on a dense deterministic mirrored grid is -1/3
        u = sphere.sphere_grid(10_000)
        model = LeggettModel(SubensembleDistribution(u, -u, np.full(10_000, 1e-4)), Coupling.INDEPENDENT)
        law = outcome_law(model, SettingsPair(X, X))
        exact = exact_model_correlation(law)
        assert exact == pytest.approx(-1 / 3, abs=1e-3)
        est = estimate_correlation(law, 100_000, seed=3)
        assert abs(est.mean - exact) <= 4 * est.se

    def test_reproducible(self):
        model = LeggettModel(isotropic_product(50, sphere.make_rng(5, 0)), Coupling.COMONOTONE)
        law = outcome_law(model, SettingsPair(X, Z))
        a = estimate_correlation(law, 70_001, seed=9, stream_id=4)
        b = estimate_correlation(law, 70_001, seed=9, stream_id=4)
        c = estimate_correlation(law, 70_001, seed=9, stream_id=5)
        assert a == b
        assert a != c

    def test_invalid_count(self):
        model = LeggettModel(point_mass(X, Y), Coupling.INDEPENDENT)
        with pytest.raises(ValueError):
            estimate_correlation(outcome_law(model, SettingsPair(X, Y)), 0, seed=1)

    def test_in_range(self):
        model = LeggettModel(isotropic_product(20, sphere.make_rng(6, 0)), Coupling.ANTIMONOTONE)
        law = outcome_law(model, SettingsPair(X, Y))
        for seed in range(5):
            est = estimate_correlation(law, 1000, seed=seed)
            assert -1.0 <= est.mean <= 1.0

    def test_convergence_rate(self):
        # 1/sqrt(n): quadrupling n should roughly halve the mean abs error
        model = LeggettModel(isotropic_product(30, sphere.make_rng(7, 0)), Coupling.INDEPENDENT)
        law = outcome_law(model, SettingsPair(X, Z))
        exact = exact_model_correlation(law)
        err_small = np.mean(
            [abs(estimate_correlation(law, 10_000, seed=k).mean - exact) for k in range(50)]
        )
        err_large = np.mean(
            [abs(estimate_correlation(law, 40_000, seed=k, stream_id=1).mean - exact) for k in range(50)]
        )
        ratio = err_small / err_large
        assert 2.0 * 0.7 <= ratio <= 2.0 * 1.3


class TestEstimateMarginals:
    """Sample means of A and B, as drawn for the correlation estimates."""

    def test_point_mass_aligned(self):
        model = LeggettModel(point_mass(X, Y), Coupling.INDEPENDENT)
        est_a, _ = sample_marginals(outcome_law(model, SettingsPair(X, Y)), 500, seed=1)
        assert est_a.mean == 1.0

    def test_isotropic_near_zero(self):
        model = LeggettModel(isotropic_product(500, sphere.make_rng(8, 0)), Coupling.INDEPENDENT)
        est_a, est_b = sample_marginals(outcome_law(model, SettingsPair(X, Y)), 100_000, seed=4)
        # exact means are the weighted mean vectors dotted with the settings
        d = model.distribution
        exact_a = float(d.w @ (d.u @ X))
        exact_b = float(d.w @ (d.v @ Y))
        assert abs(est_a.mean - exact_a) <= 4 * est_a.se
        assert abs(est_b.mean - exact_b) <= 4 * est_b.se

    def test_known_dot(self):
        u = sphere.normalize([0.6, 0.8, 0.0])
        model = LeggettModel(point_mass(u, Z), Coupling.INDEPENDENT)
        est_a, _ = sample_marginals(outcome_law(model, SettingsPair(X, Z)), 100_000, seed=5)
        assert abs(est_a.mean - 0.6) <= 4 * est_a.se


class TestMultiBlock:
    """Estimates over three blocks, the last one partial, pinned exactly."""

    N = 2 * BLOCK_SIZE + 17
    SETTINGS = SettingsPair(sphere.normalize([1.0, 2.0, 2.0]), sphere.normalize([-2.0, 1.0, 0.5]))
    # (atoms, coupling) -> integer sums of AB, A and B over the N draws,
    # taken from the sampler that rebuilt the law and searched unsorted keys
    # in every block
    GOLDEN_SUMS = {
        (1, "independent"): (-3689, -24165, 18489),
        (1, "comonotone"): (88655, -24165, 18269),
        (1, "antimonotone"): (-126297, -24165, 19373),
        (3, "independent"): (-18565, 7407, 8021),
        (3, "comonotone"): (25997, 7407, 7631),
        (3, "antimonotone"): (-71287, 7407, 8295),
        (2000, "independent"): (-491, 1253, 573),
        (2000, "comonotone"): (43423, 1253, 355),
        (2000, "antimonotone"): (-43713, 1253, 631),
    }

    @pytest.mark.parametrize("atoms, coupling", sorted(GOLDEN_SUMS))
    def test_golden(self, atoms, coupling):
        model = LeggettModel(isotropic_product(atoms, sphere.make_rng(31, atoms)), Coupling(coupling))
        law = outcome_law(model, self.SETTINGS)
        sums = block_sums(law, self.N, 2026, 5)
        assert sums == self.GOLDEN_SUMS[atoms, coupling]
        est = estimate_correlation(law, self.N, seed=2026, stream_id=5)
        assert est == CorrelationEstimate(sums[0] / self.N, self.N)

    def test_law_built_once_per_estimate(self, monkeypatch):
        # one sphere.dots call per side, from outcome_law on, for the whole
        # estimate, not per block
        calls = []
        dots = sphere.dots

        def counting_dots(vecs, ref):
            calls.append(1)
            return dots(vecs, ref)

        monkeypatch.setattr(sphere, "dots", counting_dots)
        model = LeggettModel(isotropic_product(100, sphere.make_rng(3, 0)), Coupling.INDEPENDENT)
        estimate_correlation(outcome_law(model, self.SETTINGS), 3 * BLOCK_SIZE, seed=1)
        assert len(calls) == 2


class TestSearchPaths:
    """Integer sums over three blocks of a 100000-atom model with equal and
    with heavy-tailed weights, pinned exactly."""

    N = TestMultiBlock.N
    SETTINGS = TestMultiBlock.SETTINGS
    # (weights, coupling) -> integer sums of AB, A and B over the N draws,
    # taken from the sampler that searched sorted keys above 32 atoms
    GOLDEN_SUMS = {
        ("isotropic", "independent"): (-123, -985, -349),
        ("isotropic", "comonotone"): (43537, -985, -557),
        ("isotropic", "antimonotone"): (-43487, -985, -545),
        ("heavy", "independent"): (-22025, -46805, 59545),
        ("heavy", "comonotone"): (23417, -46805, 59479),
        ("heavy", "antimonotone"): (-117519, -46805, 59955),
    }

    @staticmethod
    def _distribution(weights):
        d = isotropic_product(100_000, sphere.make_rng(31, 100_000))
        if weights == "isotropic":
            return d
        # u**-2 for uniform u: a Pareto tail of index 1/2
        w = sphere.make_rng(7, 0).random(100_000) ** -2.0
        return SubensembleDistribution(d.u, d.v, w / w.sum())

    @pytest.mark.parametrize("weights, scan", [("isotropic", 1), ("heavy", 4007)])
    def test_golden(self, weights, scan):
        d = self._distribution(weights)
        for coupling in Coupling:
            law = outcome_law(LeggettModel(d, coupling), self.SETTINGS)
            assert law.scan == scan
            sums = block_sums(law, self.N, 2026, 5)
            assert sums == self.GOLDEN_SUMS[weights, coupling.value]
            est = estimate_correlation(law, self.N, seed=2026, stream_id=5)
            assert est == CorrelationEstimate(sums[0] / self.N, self.N)


class TestDrawnAhead:
    """The worker thread that fills each block's uniforms one block ahead."""

    SETTINGS = TestMultiBlock.SETTINGS

    @staticmethod
    def _law(coupling, atoms=50):
        model = LeggettModel(isotropic_product(atoms, sphere.make_rng(31, atoms)), coupling)
        return outcome_law(model, TestDrawnAhead.SETTINGS)

    @staticmethod
    def _recording_rngs(monkeypatch, fail_block=None):
        """Record the thread that makes each block's generator and the one
        that fills it; the fill of ``fail_block`` raises."""
        made, filled = [], []
        make_rng = sphere.make_rng

        class Recording:
            def __init__(self, rng, block):
                self.rng, self.block = rng, block

            def random(self, *args, **kwargs):
                filled.append(threading.get_ident())
                if self.block == fail_block:
                    raise FloatingPointError(f"fill of block {self.block}")
                return self.rng.random(*args, **kwargs)

        def recording(seed, stream_id=0, block=0):
            made.append(threading.get_ident())
            return Recording(make_rng(seed, stream_id, block=block), block)

        monkeypatch.setattr(sphere, "make_rng", recording)
        return made, filled

    @pytest.mark.parametrize("coupling", list(Coupling), ids=lambda c: c.value)
    @pytest.mark.parametrize("n", [1, BLOCK_SIZE, BLOCK_SIZE + 1, 3 * BLOCK_SIZE + 5])
    def test_helper_on_and_off_agree(self, coupling, n):
        # the estimate, its later blocks filled on the worker, equals the
        # sums of the same blocks drawn one after the other on this thread
        law = self._law(coupling)
        sums = block_sums(law, n, 2026, 5)
        assert estimate_correlation(law, n, seed=2026, stream_id=5) == CorrelationEstimate(sums[0] / n, n)

    def test_concurrent_estimates_under_fast_switching(self):
        # four estimates at once, each with its own worker, so more threads
        # than cores, switching every microsecond: a fill that landed in a
        # buffer the caller still reads would change a sum
        law = self._law(Coupling.INDEPENDENT)
        n = 4 * BLOCK_SIZE + 3
        expected = [CorrelationEstimate(block_sums(law, n, 2026, s)[0] / n, n) for s in range(4)]
        results = [None] * 4

        def run(s):
            results[s] = estimate_correlation(law, n, seed=2026, stream_id=s)

        threads = [threading.Thread(target=run, args=(s,)) for s in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == expected

    @pytest.mark.parametrize("n", [3 * BLOCK_SIZE + 5, BLOCK_SIZE], ids=["four-blocks", "one-block"])
    def test_who_draws(self, monkeypatch, n):
        # the calling thread makes every generator and fills block 0; one
        # other thread fills every later block, and a one-block estimate
        # starts no thread
        law = self._law(Coupling.INDEPENDENT)
        made, filled = self._recording_rngs(monkeypatch)
        before = threading.active_count()
        during = []
        sample = montecarlo.sample_outcome_arrays

        def counting(law, uniforms):
            during.append(threading.active_count())
            return sample(law, uniforms)

        monkeypatch.setattr(montecarlo, "sample_outcome_arrays", counting)
        estimate_correlation(law, n, seed=1)
        caller = threading.get_ident()
        blocks = -(-n // BLOCK_SIZE)
        assert made == [caller] * blocks
        assert filled[0] == caller and len(filled) == blocks
        assert len(set(filled[1:])) == (blocks > 1) and caller not in filled[1:]
        assert during == [before + (blocks > 1)] * blocks
        assert threading.active_count() == before

    def _sampling_raises_at(self, monkeypatch, fail_block):
        calls = []

        def failing(law, uniforms):
            calls.append(1)
            if len(calls) == fail_block + 1:
                raise FloatingPointError(f"block {fail_block}")
            return sample_outcome_arrays(law, uniforms)

        monkeypatch.setattr(montecarlo, "sample_outcome_arrays", failing)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match=f"block {fail_block}") as raised:
            estimate_correlation(self._law(Coupling.COMONOTONE), 5 * BLOCK_SIZE, seed=1)
        # counted while ``raised`` holds the traceback, and through it the
        # estimate's frame, so no finalizer has stopped the worker
        assert threading.active_count() == before
        assert len(calls) == fail_block + 1 and raised.traceback

    def test_no_thread_outlives_a_block_that_raises(self, monkeypatch):
        # of five blocks, block 2 is sampled while block 3 fills
        self._sampling_raises_at(monkeypatch, 2)

    def test_no_thread_outlives_the_last_block_that_raises(self, monkeypatch):
        # block 4, the last of five, is sampled after every fill is done
        self._sampling_raises_at(monkeypatch, 4)

    def _fill_raises_at(self, monkeypatch, fail_block):
        law = self._law(Coupling.INDEPENDENT)
        self._recording_rngs(monkeypatch, fail_block=fail_block)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match=f"fill of block {fail_block}") as raised:
            estimate_correlation(law, 5 * BLOCK_SIZE, seed=1)
        assert threading.active_count() == before
        assert raised.traceback

    def test_fill_that_raises_reaches_the_caller(self, monkeypatch):
        self._fill_raises_at(monkeypatch, 2)

    # of five blocks: block 1's fill is the first the worker runs, and block
    # 4's the last, waited for once block 3 is sampled
    @pytest.mark.parametrize("fail_block", [1, 4], ids=["first-later", "last"])
    def test_any_later_fill_that_raises_reaches_the_caller(self, monkeypatch, fail_block):
        self._fill_raises_at(monkeypatch, fail_block)

    def test_memory_does_not_grow_with_n(self, monkeypatch):
        # before its first block is sampled, an estimate of 10**10 draws
        # (152588 blocks) holds its two buffers and nothing per block
        law = self._law(Coupling.INDEPENDENT)
        estimate_correlation(law, 2 * BLOCK_SIZE, seed=1)  # first-call imports

        def failing(law, uniforms):
            raise FloatingPointError("block 0")

        monkeypatch.setattr(montecarlo, "sample_outcome_arrays", failing)
        tracemalloc.start()
        try:
            with pytest.raises(FloatingPointError, match="block 0"):
                estimate_correlation(law, 10**10, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * law.rows * BLOCK_SIZE * 8 + (1 << 20)
