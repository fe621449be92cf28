import numpy as np
import pytest

from leggettsim import sphere
from leggettsim.models import Coupling, LeggettModel, SettingsPair, isotropic_product
from leggettsim.models import exact_model_correlation, outcome_law
from leggettsim.quantum import (
    CLASSICAL_CHSH_BOUND,
    TSIRELSON_BOUND,
    chsh_pairs,
    chsh_value,
    planar_scenario,
    singlet_correlation,
    standard_planar_scenario,
)

from conftest import random_rotation

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])


class TestSingletCorrelation:
    def test_aligned(self):
        assert singlet_correlation(SettingsPair(X, X)) == -1.0

    def test_orthogonal(self):
        assert singlet_correlation(SettingsPair(X, Y)) == 0.0

    def test_sixty_degrees(self):
        b = sphere.normalize([np.cos(np.pi / 3), np.sin(np.pi / 3), 0.0])
        assert singlet_correlation(SettingsPair(X, b)) == pytest.approx(-0.5, abs=1e-12)

    def test_bounded(self, rng):
        for _ in range(200):
            a, b = sphere.random_unit_vectors(rng, 2)
            assert abs(singlet_correlation(SettingsPair(a, b))) <= 1.0

    def test_clamped(self):
        # a.a rounds to 1 + 2**-52 for this unit vector; the prediction stays in [-1, 1]
        a = sphere.normalize([1.0, 1.0, 1.0])
        assert float(np.dot(a, a)) > 1.0
        assert singlet_correlation(SettingsPair(a, a)) == -1.0
        assert singlet_correlation(SettingsPair(a, -a)) == 1.0

    def test_rotation_invariant(self, rng):
        for _ in range(50):
            a, b = sphere.random_unit_vectors(rng, 2)
            rot = random_rotation(rng)
            assert singlet_correlation(SettingsPair(rot @ a, rot @ b)) == pytest.approx(
                singlet_correlation(SettingsPair(a, b)), abs=1e-12
            )


class TestChsh:
    def test_zero_correlation(self):
        assert chsh_value(standard_planar_scenario(), lambda s: 0.0) == 0.0

    def test_standard_scenario_tsirelson(self):
        s = chsh_value(standard_planar_scenario(), singlet_correlation)
        assert s == pytest.approx(TSIRELSON_BOUND, abs=1e-12)

    def test_grid_search_confirms_maximum(self):
        # independent oracle: coarse-to-fine search over coplanar scenarios
        angles = np.linspace(0.0, 2 * np.pi, 41)
        aa, ap, bb, bp = np.meshgrid(angles, angles, angles, angles, indexing="ij", sparse=True)
        s = np.abs(-np.cos(aa - bb) - np.cos(aa - bp) - np.cos(ap - bb) + np.cos(ap - bp))
        best = float(s.max())
        assert best <= TSIRELSON_BOUND + 1e-9
        assert best == pytest.approx(TSIRELSON_BOUND, abs=0.05)

    def test_separable_models_respect_classical_bound(self):
        rng = sphere.make_rng(21, 0)
        model = LeggettModel(isotropic_product(50, rng), Coupling.INDEPENDENT)
        corr = lambda s: exact_model_correlation(outcome_law(model, s))
        worst = 0.0
        for _ in range(10_000):
            vecs = sphere.random_unit_vectors(rng, 4)
            scenario = chsh_pairs(*vecs)
            worst = max(worst, abs(chsh_value(scenario, corr)))
        assert worst <= CLASSICAL_CHSH_BOUND + 1e-9

    def test_rotation_invariant(self, rng):
        for _ in range(20):
            vecs = sphere.random_unit_vectors(rng, 4)
            rot = random_rotation(rng)
            s1 = chsh_value(chsh_pairs(*vecs), singlet_correlation)
            s2 = chsh_value(chsh_pairs(*(rot @ v for v in vecs)), singlet_correlation)
            assert s2 == pytest.approx(s1, abs=1e-12)

    @pytest.mark.parametrize("bad", [[1.0, 0.0], np.array([X, Y]), [np.nan, 0.0, 0.0]],
                             ids=["2-vector", "(2, 3)", "nan"])
    @pytest.mark.parametrize("name", ["a", "a_prime", "b", "b_prime"])
    def test_rejects_malformed_vectors(self, bad, name):
        vecs = {"a": X, "a_prime": Y, "b": X, "b_prime": Y, name: bad}
        with pytest.raises(ValueError):
            chsh_pairs(**vecs)

    def test_copies_the_callers_arrays(self):
        vecs = [X.copy(), Y.copy(), X.copy(), Y.copy()]
        sc = chsh_pairs(*vecs)
        assert all(v.flags.writeable for v in vecs)
        for v in vecs:
            v[:] = [0.0, 0.0, 5.0]
        assert [sc[0].a.tolist(), sc[2].a.tolist(), sc[0].b.tolist(), sc[1].b.tolist()] == [
            X.tolist(), Y.tolist(), X.tolist(), Y.tolist()]
        assert [singlet_correlation(p) for p in sc] == [-1.0, -0.0, -0.0, -1.0]

    def test_planar_scenario_builder(self):
        sc = planar_scenario(0.0, np.pi / 2, np.pi, 3 * np.pi / 2)
        assert np.allclose(sc[0].a, X)
        assert np.allclose(sc[2].a, Y)
