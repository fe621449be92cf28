import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from leggettsim import sphere
from leggettsim.bounds import (
    LeggettBounds,
    averaged_bounds,
    check_bounds,
    pointwise_identity,
)
from leggettsim.models import (
    Coupling,
    LeggettModel,
    SettingsPair,
    SubensembleDistribution,
    exact_model_correlation,
    outcome_law,
    point_mass,
)

from conftest import edge_distribution, law_correlation, point_law, random_rotation

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def bounds_of(d: SubensembleDistribution, s: SettingsPair) -> LeggettBounds:
    """averaged_bounds of d at s; the coupling is not read, so any one does."""
    return averaged_bounds(outcome_law(LeggettModel(d, Coupling.INDEPENDENT), s))


class TestPointwiseIdentity:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (1, 1, 1.0),
            (1, -1, -1.0),
            (-1, 1, -1.0),
            (-1, -1, 1.0),
        ],
    )
    def test_exhaustive(self, a, b, expected):
        lhs, mid, rhs = pointwise_identity(a, b)
        assert lhs == mid == rhs == expected

    def test_out_of_domain(self):
        with pytest.raises(ValueError):
            pointwise_identity(0, 1)


class TestConditionalBounds:
    """The bounds given (u, v): the averaged bounds of the one-atom model at (u, v)."""

    def test_aligned_forces_one(self):
        b = averaged_bounds(point_law(X, Y, SettingsPair(X, Y)))
        assert b.lower == b.upper == 1.0

    def test_orthogonal_vacuous(self):
        b = averaged_bounds(point_law(Z, Z, SettingsPair(X, Y)))
        assert (b.lower, b.upper) == (-1.0, 1.0)

    def test_half_dots(self):
        # dots (0.5, -0.5): lower = -1 + |0| = -1, upper = 1 - |1| = 0
        u = sphere.normalize([0.5, np.sqrt(0.75), 0.0])
        v = sphere.normalize([-0.5, np.sqrt(0.75), 0.0])
        b = averaged_bounds(point_law(u, v, SettingsPair(X, X)))
        assert b.lower == pytest.approx(-1.0, abs=1e-12)
        assert b.upper == pytest.approx(0.0, abs=1e-12)

    def test_contains_every_coupling(self, rng):
        # machine check of the conditional inequality over random configurations
        for _ in range(1000):
            u, v, a, b = sphere.random_unit_vectors(rng, 4)
            law = point_law(u, v, SettingsPair(a, b))
            bd = averaged_bounds(law)
            assert bd.lower <= bd.upper
            for coupling in Coupling:
                e_ab = law_correlation(law.pa[0], law.pb[0], coupling)
                assert bd.lower - 1e-12 <= e_ab <= bd.upper + 1e-12

    def test_rotation_invariance(self, rng):
        for _ in range(50):
            u, v, a, b = sphere.random_unit_vectors(rng, 4)
            rot = random_rotation(rng)
            b1 = averaged_bounds(point_law(u, v, SettingsPair(a, b)))
            b2 = averaged_bounds(point_law(rot @ u, rot @ v, SettingsPair(rot @ a, rot @ b)))
            assert b2.lower == pytest.approx(b1.lower, abs=1e-12)
            assert b2.upper == pytest.approx(b1.upper, abs=1e-12)


class TestAveragedBounds:
    def test_point_mass_reduces_to_conditional(self, rng):
        for _ in range(20):
            u, v, a, b = sphere.random_unit_vectors(rng, 4)
            s = SettingsPair(a, b)
            avg = bounds_of(point_mass(u, v), s)
            # the conditional bounds, from the clamped dots of the one atom
            alpha = min(1.0, max(-1.0, float(np.dot(u, a))))
            beta = min(1.0, max(-1.0, float(np.dot(v, b))))
            assert avg.lower == pytest.approx(-1.0 + abs(alpha + beta), abs=1e-15)
            assert avg.upper == pytest.approx(1.0 - abs(alpha - beta), abs=1e-15)

    def test_mixture_linearity(self, rng):
        u = sphere.random_unit_vectors(rng, 4)
        v = sphere.random_unit_vectors(rng, 4)
        s = SettingsPair(*sphere.random_unit_vectors(rng, 2))
        lam = 0.3
        p = SubensembleDistribution(u[:2], v[:2], [0.5, 0.5])
        q = SubensembleDistribution(u[2:], v[2:], [0.25, 0.75])
        mix = SubensembleDistribution(u, v, np.concatenate([lam * p.w, (1 - lam) * q.w]))
        bp, bq, bm = (bounds_of(d, s) for d in (p, q, mix))
        assert bm.lower == pytest.approx(-1 + lam * (bp.lower + 1) + (1 - lam) * (bq.lower + 1), abs=1e-12)
        assert bm.upper == pytest.approx(1 - lam * (1 - bp.upper) - (1 - lam) * (1 - bq.upper), abs=1e-12)

    def test_grid_integral_matches_monte_carlo(self):
        # two independent integrators for E|u.a + v.b| must agree
        gu = sphere.sphere_grid(100)
        gv = sphere.sphere_grid(100)
        u = np.repeat(gu, 100, axis=0)
        v = np.tile(gv, (100, 1))
        dist = SubensembleDistribution(u, v, np.full(10_000, 1e-4))
        s = SettingsPair(X, sphere.normalize([0.3, -0.5, 0.8]))
        grid_lower = bounds_of(dist, s).lower

        rng = sphere.make_rng(31, 0)
        n = 1_000_000
        mu = sphere.random_unit_vectors(rng, n)
        mv = sphere.random_unit_vectors(rng, n)
        vals = np.abs(mu @ s.a + mv @ s.b)
        mc_lower = -1.0 + vals.mean()
        se = vals.std() / np.sqrt(n)
        assert abs(grid_lower - mc_lower) <= 3 * se + 1e-3  # small bias term for the finite grid

    def test_exact_correlation_within_bounds(self, rng):
        for coupling in Coupling:
            for _ in range(30):
                u = sphere.random_unit_vectors(rng, 8)
                v = sphere.random_unit_vectors(rng, 8)
                w = rng.random(8)
                w /= w.sum()
                d = SubensembleDistribution(u, v, w)
                law = outcome_law(LeggettModel(d, coupling), SettingsPair(*sphere.random_unit_vectors(rng, 2)))
                b = averaged_bounds(law)
                value = exact_model_correlation(law)
                assert b.lower - 1e-12 <= value <= b.upper + 1e-12

    def test_same_for_every_coupling(self, rng):
        # the paper's point: the bounds follow from the Malus marginals and the
        # pointwise identity alone, so no coupling enters them, to the last bit
        w = rng.random(50)
        d = SubensembleDistribution(sphere.random_unit_vectors(rng, 50), sphere.random_unit_vectors(rng, 50),
                                    w / w.sum())
        s = SettingsPair(*sphere.random_unit_vectors(rng, 2))
        laws = [outcome_law(LeggettModel(d, coupling), s) for coupling in Coupling]
        bounds = [averaged_bounds(law) for law in laws]
        assert len({(b.lower.hex(), b.upper.hex()) for b in bounds}) == 1
        assert len({exact_model_correlation(law) for law in laws}) == 3

    def test_ordering_and_range(self, rng):
        for _ in range(100):
            u = sphere.random_unit_vectors(rng, 5)
            v = sphere.random_unit_vectors(rng, 5)
            d = SubensembleDistribution(u, v, np.full(5, 0.2))
            b = bounds_of(d, SettingsPair(*sphere.random_unit_vectors(rng, 2)))
            assert -1.0 - 1e-12 <= b.lower <= b.upper <= 1.0 + 1e-12

    def test_never_crossed(self, rng):
        # at u = a the atom's bound terms are |1 + beta| and |1 - beta|, and
        # these round apart: before upper was raised to lower, about one law
        # in eight here had lower - upper = 1.1e-16
        for _ in range(4000):
            a, v, b = sphere.random_unit_vectors(rng, 3)
            bd = averaged_bounds(point_law(a, v, SettingsPair(a, b)))
            assert bd.lower <= bd.upper

    def test_clamped_at_the_edge(self):
        for b, expected in ((Y, 1.0), (-Y, -1.0)):
            bd = bounds_of(edge_distribution(), SettingsPair(X, b))
            assert bd.lower == bd.upper == expected

    def test_rotation_invariance(self, rng):
        u = sphere.random_unit_vectors(rng, 6)
        v = sphere.random_unit_vectors(rng, 6)
        d = SubensembleDistribution(u, v, np.full(6, 1 / 6))
        a, b = sphere.random_unit_vectors(rng, 2)
        rot = random_rotation(rng)
        d_rot = SubensembleDistribution(u @ rot.T, v @ rot.T, np.full(6, 1 / 6))
        b1 = bounds_of(d, SettingsPair(a, b))
        b2 = bounds_of(d_rot, SettingsPair(rot @ a, rot @ b))
        assert b2.lower == pytest.approx(b1.lower, abs=1e-12)
        assert b2.upper == pytest.approx(b1.upper, abs=1e-12)


class TestCheckBounds:
    def test_comfortable_pass(self):
        v = check_bounds(0.0, 0.0, LeggettBounds(-1.0, 1.0), 4.0)
        assert v.satisfied and v.margin == 1.0

    def test_clear_violation(self):
        v = check_bounds(1.0, 0.0, LeggettBounds(-1.0, 0.0), 4.0)
        assert not v.satisfied and v.margin == -1.0

    def test_allowance_rescues_near_miss(self):
        v = check_bounds(0.05, 0.02, LeggettBounds(-1.0, 0.0), 4.0)
        assert v.satisfied
        assert v.margin == pytest.approx(-0.05, abs=1e-15)

    def test_negative_se_rejected(self):
        with pytest.raises(ValueError):
            check_bounds(0.0, -0.1, LeggettBounds(-1.0, 1.0))

    @pytest.mark.parametrize("se, k", [
        (float("nan"), 4.0), (float("inf"), 4.0),
        (0.1, float("nan")), (0.1, float("inf")), (0.1, -1.0),
    ])
    def test_non_finite_se_or_k_sigma_rejected(self, se, k):
        with pytest.raises(ValueError):
            check_bounds(0.0, se, LeggettBounds(-1.0, 1.0), k)

    @hyp_settings(max_examples=200, deadline=None)
    @given(
        value=st.floats(-1.0, 1.0),
        se=st.floats(0.0, 0.5),
        k=st.floats(0.0, 8.0),
        lo=st.floats(-1.0, 1.0),
        hi=st.floats(-1.0, 1.0),
    )
    def test_margin_consistent(self, value, se, k, lo, hi):
        if lo > hi:
            lo, hi = hi, lo
        v = check_bounds(value, se, LeggettBounds(lo, hi), k)
        assert v.margin == min(value - lo, hi - value)
        assert v.satisfied == (lo - k * se <= value <= hi + k * se)
