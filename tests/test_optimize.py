import itertools

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from leggettsim import certify, sphere
from leggettsim.certify import (
    CertStatus,
    TargetConstraint,
    build_atom_grid,
    build_problem,
    solve,
    verify_certificate,
)
from leggettsim.models import SettingsPair
from leggettsim.optimize import (
    FAMILIES,
    certified_margin,
    optimize_settings,
    pattern_search,
)
from leggettsim.quantum import singlet_correlation
from leggettsim.simplex import phase1_simplex

from conftest import numpy_orthogonal_doublets, numpy_proven_gap

SMALL_GRID = build_atom_grid(12, 12, n_mirrored=24)
DOUBLETS = FAMILIES["orthogonal-doublets"]


class TestFamilies:
    def test_build_refuses_wrong_param_count(self):
        # build checks the count for every caller, the CLI's family targets among them
        for family in FAMILIES.values():
            assert family.build(np.full(4, 0.5))
            for n in (0, 3, 5):
                with pytest.raises(ValueError, match=f"family '{family.name}' takes 4 params"):
                    family.build(np.full(n, 0.5))

    def test_orthogonal_doublets_structure(self):
        fam = FAMILIES["orthogonal-doublets"]
        constraints = fam.build(np.array([0.5, 0.1, 0.2, 0.3]))
        assert len(constraints) == 6
        for c in constraints:
            assert c.e == pytest.approx(singlet_correlation(c.settings), abs=1e-12)

    @staticmethod
    def assert_numpy_bits(params):
        targets = DOUBLETS.build(params)
        reference = numpy_orthogonal_doublets(params)
        assert len(targets) == len(reference) == 6
        for t, (a, b) in zip(targets, reference):
            assert t.settings.a.tobytes() == a.tobytes()
            assert t.settings.b.tobytes() == b.tobytes()
            assert t.e.hex() == singlet_correlation(SettingsPair(a, b)).hex()

    def test_doublets_match_numpy_at_box_edges(self):
        # every corner and edge midpoint of the box, and a seeded sample in
        # it; psi in (pi, 3pi/2) makes both products with 0.0 negative, so
        # m holds a -0.0 that a change of order would turn into 0.0
        levels = [(lo, 0.5 * (lo + hi), hi) for lo, hi in zip(DOUBLETS.lower, DOUBLETS.upper)]
        rng = sphere.make_rng(17, 0)
        sample = DOUBLETS.lower + (DOUBLETS.upper - DOUBLETS.lower) * rng.random((500, DOUBLETS.n_params))
        for params in itertools.chain(itertools.product(*levels), sample):
            self.assert_numpy_bits(np.array(params))

    @hyp_settings(max_examples=200, deadline=None)
    @given(st.tuples(*(st.floats(lo, hi) for lo, hi in zip(DOUBLETS.lower, DOUBLETS.upper))))
    def test_doublets_match_numpy(self, params):
        self.assert_numpy_bits(np.array(params))

    def test_planar_chsh_structure(self):
        fam = FAMILIES["planar-chsh"]
        constraints = fam.build(np.array([0.0, np.pi / 2, np.pi / 4, 3 * np.pi / 4]))
        assert len(constraints) == 4
        for c in constraints:
            assert c.settings.a[2] == 0.0 and c.settings.b[2] == 0.0


class TestPatternSearch:
    def test_maximizes_concave_function(self):
        rng = sphere.make_rng(1, 0)
        target = np.array([0.3, -0.6])
        f = lambda x: -float(np.sum((x - target) ** 2))
        best = pattern_search(f, np.array([-1.0, -1.0]), np.array([1.0, 1.0]), budget=500, rng=rng)
        assert np.allclose(best, target, atol=0.02)

    @hyp_settings(max_examples=100, deadline=None)
    @given(st.integers(1, 200), st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4), st.integers(0, 2**32))
    def test_objective_called_budget_times(self, budget, spans, seed):
        # the optimize report's evaluations is the config's budget, by this
        # invariant; the point returned is the best one evaluated, in the box
        lower = -np.arange(1.0, len(spans) + 1)
        upper = lower + np.array(spans)
        calls = []

        def objective(x):
            calls.append((x.copy(), float(np.sin(7.0 * x).sum())))
            return calls[-1][1]

        best = pattern_search(objective, lower, upper, budget, sphere.make_rng(seed, 0))
        assert len(calls) == budget
        assert np.all(lower <= best) and np.all(best <= upper)
        assert max(calls, key=lambda call: call[1])[0].tobytes() == best.tobytes()

    def test_budget_required(self):
        rng = sphere.make_rng(1, 0)
        with pytest.raises(ValueError):
            pattern_search(lambda x: 0.0, np.zeros(1), np.ones(1), budget=0, rng=rng)


class TestCertifiedMargin:
    def test_single_pair_never_infeasible(self, rng):
        # a grid with near-polar atoms keeps any single-pair problem feasible
        for _ in range(5):
            s = SettingsPair(*sphere.random_unit_vectors(rng, 2))
            p = build_problem(SMALL_GRID, [TargetConstraint(settings=s, e=singlet_correlation(s))])
            cert = solve(p)
            assert cert.status is CertStatus.FEASIBLE

    def test_duplicate_pairs_change_nothing(self):
        fam = FAMILIES["orthogonal-doublets"]
        params = np.array([0.7, 0.4, 1.1, 2.0])
        constraints = fam.build(params)
        m1 = solve(build_problem(SMALL_GRID, constraints)).margin
        m2 = solve(build_problem(SMALL_GRID, constraints + constraints)).margin
        assert m2 == pytest.approx(m1, abs=1e-9)

    def test_doublets_witness_violation(self):
        fam = FAMILIES["orthogonal-doublets"]
        margins = certified_margin(fam, np.array([0.6, 0.3, 0.9, 1.4]), [SMALL_GRID])
        assert margins[0] > 0.0


class TestOptimizeSettings:
    def test_budget_validation(self):
        fam = FAMILIES["orthogonal-doublets"]
        with pytest.raises(ValueError):
            optimize_settings(fam, [SMALL_GRID], budget=0, seed=1)

    def test_finds_violation_and_is_deterministic(self):
        fam = FAMILIES["orthogonal-doublets"]
        params1, margins1 = optimize_settings(fam, [SMALL_GRID], budget=60, seed=5)
        params2, margins2 = optimize_settings(fam, [SMALL_GRID], budget=60, seed=5)
        assert min(margins1) > 0.0
        assert margins1 == margins2
        assert np.array_equal(params1, params2)
        # the margins are those of the returned parameters
        assert certified_margin(fam, params1, [SMALL_GRID]) == margins1

    # pivots summed over the 61 solves of this seeded run and its margins,
    # measured on the solver before its pivot loop was trimmed: any change
    # to a pivot choice or to the arithmetic of one shows here
    PINNED_PIVOTS = 1773
    PINNED_MARGINS = "(0.554923877222917,)"

    def test_pinned_pivot_path(self, monkeypatch):
        pivots = []

        def counting_simplex(*args, **kwargs):
            result = phase1_simplex(*args, **kwargs)
            pivots.append(result.iterations)
            return result

        monkeypatch.setattr(certify, "phase1_simplex", counting_simplex)
        _, margins = optimize_settings(FAMILIES["orthogonal-doublets"], [SMALL_GRID], budget=60, seed=5)
        assert len(pivots) == 61
        assert sum(pivots) == self.PINNED_PIVOTS
        assert repr(margins) == self.PINNED_MARGINS

    def test_proven_gaps_match_numpy_formula(self, monkeypatch):
        # every certificate of the seeded run, 60 of them Farkas: the
        # verifier's proven gap, from one product lam^T A_ub, has the bits of
        # the formula that copied |A_ub| for a second product
        verified, checked = [], []

        def checking_verify(problem, cert):
            if cert.status is CertStatus.INFEASIBLE:
                got = certify._proven_gap(problem, cert.farkas_ub)
                want = numpy_proven_gap(problem, cert.farkas_ub)
                checked.append([v.hex() for v in got] == [v.hex() for v in want])
            verified.append(verify_certificate(problem, cert))
            return verified[-1]

        monkeypatch.setattr(certify, "verify_certificate", checking_verify)
        optimize_settings(FAMILIES["orthogonal-doublets"], [SMALL_GRID], budget=60, seed=5)
        assert len(verified) == 61 and all(verified)
        assert len(checked) == 60 and all(checked)
