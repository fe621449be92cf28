import dataclasses
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings as hyp_settings
from hypothesis import strategies as st

from leggettsim import certify, sphere
from leggettsim.sphere import make_rng
from leggettsim.bounds import averaged_bounds
from leggettsim.certify import (
    FEAS_TOL,
    AtomGrid,
    CertStatus,
    Farkas,
    TargetConstraint,
    Witness,
    build_atom_grid,
    build_problem,
    read_certificate,
    solve,
    verify_certificate,
    witness_distribution,
)
from leggettsim.models import (
    Coupling,
    LeggettModel,
    SettingsPair,
    SubensembleDistribution,
    exact_model_correlation,
    outcome_law,
)
from leggettsim.optimize import FAMILIES, optimize_settings

from conftest import exact_farkas_gap, exact_feasible, numpy_proven_gap

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def two_atom_infeasible_problem():
    """Hand-checkable system: two settings pairs, each aligned with one of
    the two atoms, targets E = -0.5. The |u.a + v.b| rows have coefficient
    2 on the matching atom and 0 on the other with right side 0.5, so any
    admissible w sums to at most 0.5, conflicting with sum w = 1."""
    u = np.array([X, Y])
    v = np.array([X, Y])
    constraints = [
        TargetConstraint(settings=SettingsPair(X, X), e=-0.5),
        TargetConstraint(settings=SettingsPair(Y, Y), e=-0.5),
    ]
    return build_problem(AtomGrid(u, v), constraints)


def dense_weights(witness) -> np.ndarray:
    """The witness's weights on every atom of the grid."""
    w = np.zeros(witness.n_atoms)
    w[witness.index] = witness.weight
    return w


def traced_peak(fn, *args):
    """fn(*args), and the most memory it held at once on top of what was held
    before the call, as tracemalloc counts it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def stacked_lattices(n_u: int, n_v: int, n_mirrored: int):
    """The atoms as build_atom_grid used to make them, by repeat, tile and vstack."""
    gu, gv = sphere.sphere_grid(n_u), sphere.sphere_grid(n_v)
    u, v = np.repeat(gu, n_v, axis=0), np.tile(gv, (n_u, 1))
    if n_mirrored > 0:
        gm = sphere.sphere_grid(n_mirrored)
        u, v = np.vstack([u, gm]), np.vstack([v, -gm])
    return u, v


def per_pair_rows(grid, constraints):
    """(A_ub, b_ub) as build_problem used to make them: two dots per
    settings pair, then the list of rows stacked."""
    rows_ub = []
    for c in constraints:
        alpha, beta = sphere.dots(grid.u, c.settings.a), sphere.dots(grid.v, c.settings.b)
        rows_ub += [np.abs(alpha + beta), np.abs(alpha - beta)]
    return np.asarray(rows_ub), np.asarray([rhs for c in constraints for rhs in (1.0 + c.e, 1.0 - c.e)])


def exact_bound_gap(problem, lam) -> Fraction:
    """exact_farkas_gap of the bound rows alone: a problem has no other rows."""
    no_rows = np.empty((0, problem.n_atoms))
    return exact_farkas_gap(problem.A_ub, problem.b_ub, no_rows, np.empty(0), lam, np.empty(0))


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


# the grid hash of records built by hand, off any problem
NO_GRID = "0" * 64


# settings the property below draws from: axes (whose dots hold signed
# zeros) and a few random directions, so that pairs share or repeat settings
SETTINGS_POOL = [X, Y, Z, -X, *sphere.random_unit_vectors(make_rng(11, 0), 4)]


class TestAtomGrid:
    @pytest.mark.parametrize("u, v", [
        (np.array([[1.0, 1.0, 0.0]]), np.array([X])),
        (np.array([[np.nan, 0.0, 0.0]]), np.array([X])),
        (np.array([X, Y]), np.array([X])),
        (np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]])),
        (np.empty((0, 3)), np.empty((0, 3))),
    ], ids=["non-unit", "nan", "mismatched", "not-3-vectors", "empty"])
    def test_invalid_grid_rejected(self, u, v):
        with pytest.raises(ValueError):
            AtomGrid(u, v)

    @pytest.mark.parametrize("sizes", [(0, 3, 0), (3, 0, 0), (3, 3, -3)],
                             ids=["n_u", "n_v", "n_mirrored"])
    def test_negative_lattice_size_rejected(self, sizes):
        with pytest.raises(ValueError):
            build_atom_grid(*sizes)

    def test_read_only(self):
        grid = build_atom_grid(3, 3)
        with pytest.raises(ValueError):
            grid.u[0, 0] = 0.0
        with pytest.raises(ValueError):
            grid.v[1] = X
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid.u = np.array([X])

    def test_source_arrays_copied(self):
        u, v = np.array([X, Y]), np.array([Y, Z])
        grid = AtomGrid(u, v)
        digest = grid.grid_hash
        u[0] = Z
        v[:] = X
        assert np.array_equal(grid.u, [X, Y]) and np.array_equal(grid.v, [Y, Z])
        assert grid.grid_hash == digest == certify.grid_hash(np.array([X, Y]), np.array([Y, Z]))

    def test_frozen_arrays_held(self):
        # a grid's arrays are frozen, so a grid built from them holds them
        # too, not copies: build_atom_grid goes through this one constructor
        grid = build_atom_grid(4, 4, 4)
        again = AtomGrid(grid.u, grid.v)
        assert np.shares_memory(again.u, grid.u) and np.shares_memory(again.v, grid.v)
        assert again.grid_hash == grid.grid_hash

    def test_checked_and_hashed_once(self, monkeypatch):
        # an optimizer run pays for no grid check and no hash: the grids
        # were checked and hashed when they were built
        hashes, unit_checks = [], []
        grid_hash, is_unit = certify.grid_hash, sphere.is_unit

        def counting_hash(u, v):
            hashes.append(1)
            return grid_hash(u, v)

        def counting_is_unit(vec):
            if np.ndim(vec) == 2:
                unit_checks.append(len(vec))
            return is_unit(vec)

        monkeypatch.setattr(certify, "grid_hash", counting_hash)
        monkeypatch.setattr(sphere, "is_unit", counting_is_unit)
        grids = [build_atom_grid(4, 4, 4), build_atom_grid(5, 5, 6)]
        assert len(hashes) == 2 and unit_checks == [20, 20, 31, 31]
        hashes.clear()
        unit_checks.clear()
        optimize_settings(FAMILIES["orthogonal-doublets"], grids, budget=10, seed=3)
        assert hashes == []
        assert unit_checks == []


    @pytest.mark.parametrize("sizes", [(1, 7, 0), (7, 1, 0), (1, 1, 0), (5, 6, 0), (5, 6, 9), (1, 3, 4)])
    def test_same_atoms_as_stacked_lattices(self, sizes):
        grid = build_atom_grid(*sizes)
        u, v = stacked_lattices(*sizes)
        assert same_bits(grid.u, u) and same_bits(grid.v, v)

    # digests of the benchmark's and the optimizer's grids; a change means
    # different atoms, and certificates written for the old ones stop matching
    @pytest.mark.parametrize("sizes, digest", [
        ((96, 96, 1024), "3c75c7092f75b713433eea3b8aa9a2c77f67f5e72827148e70231e559a8f1b58"),
        ((192, 192, 4096), "78aae95a508c216d50f0ad445c40f3a6dbdff61a5d55830b40f9546cfc2c06f8"),
        ((24, 24, 64), "dc10e2a6b1874d6eae7c5bbf1d1f7c67fcc5f85777a5241b6039eea6ec35999c"),
        ((48, 48, 256), "e1b5b4961c44062c9f6cfab81949190da6272e55b06e288ea11b023727924ce1"),
    ])
    def test_golden_grid_hash(self, sizes, digest):
        grid = build_atom_grid(*sizes)
        assert grid.grid_hash == digest == certify.grid_hash(*stacked_lattices(*sizes))

    def test_build_memory(self):
        # the lattices are written in place and the grid holds those arrays,
        # frozen, not copies of them: what is held at the peak is the two
        # built arrays and the unit-norm check's two (m,) temporaries, a
        # third as much again, plus 4 KiB for the Python objects around them
        # (0.6 to 1.6 KB measured). A third temporary would make it 1.5x,
        # a second copy of the atoms 2x.
        grid, peak = traced_peak(build_atom_grid, 192, 192, 4096)
        assert peak <= 4 / 3 * (grid.u.nbytes + grid.v.nbytes) + 4 * 1024


class TestBuildProblem:
    @given(
        sizes=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(0, 3)),
        pairs=st.lists(st.tuples(st.sampled_from(range(len(SETTINGS_POOL))),
                                 st.sampled_from(range(len(SETTINGS_POOL))),
                                 st.floats(-1.0, 1.0)), min_size=1, max_size=6),
    )
    @hyp_settings(max_examples=60, deadline=None)
    def test_same_rows_as_per_pair_stacking(self, sizes, pairs):
        grid = build_atom_grid(*sizes)
        constraints = [TargetConstraint(SettingsPair(SETTINGS_POOL[i], SETTINGS_POOL[k]), e) for i, k, e in pairs]
        p = build_problem(grid, constraints)
        for got, expected in zip((p.A_ub, p.b_ub), per_pair_rows(grid, constraints)):
            assert same_bits(got, expected)

    def test_build_memory(self):
        # the rows are written into A_ub: besides it, build_problem holds one
        # alpha and one beta, each clamped in place by sphere.dots (2 rows measured)
        grid = build_atom_grid(192, 192, 4096)
        constraints = FAMILIES["orthogonal-doublets"].build(np.array([0.94, 3.46, 2.11, 2.34]))
        problem, peak = traced_peak(build_problem, grid, constraints)
        assert peak <= problem.A_ub.nbytes + 2.5 * grid.u[:, 0].nbytes

    def test_rows_read_only(self):
        # a write into A_ub after the build would undo the A_ub >= 0 check
        # the verifier's rounding bound relies on
        p = two_atom_infeasible_problem()
        for problem in (p, dataclasses.replace(p, b_ub=np.array([1.5, 0.5, 1.5, 0.5]))):
            for arr in (problem.A_ub, problem.b_ub):
                with pytest.raises(ValueError):
                    arr[0] = -1.0
            assert problem.A_ub.min() >= 0.0

    def test_orthogonal_atom_contributes_zero(self):
        u = np.array([Z])
        v = np.array([Z])
        p = build_problem(AtomGrid(u, v), [TargetConstraint(settings=SettingsPair(X, Y), e=0.9)])
        assert np.allclose(p.A_ub[:, 0], 0.0)
        assert np.allclose(p.b_ub, [1.9, 0.1])

    def test_boundary_target(self):
        u = np.array([X, Z])
        v = np.array([X, Z])
        p = build_problem(AtomGrid(u, v), [TargetConstraint(settings=SettingsPair(X, X), e=1.0)])
        # second row forces support on atoms with u.a = v.b
        assert p.b_ub[1] == 0.0
        cert = solve(p)
        assert cert.status is CertStatus.FEASIBLE
        assert np.allclose(p.A_ub[1] @ dense_weights(cert), 0.0, atol=1e-9)

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError):
            TargetConstraint(settings=SettingsPair(X, Y), e=1.5)

    @pytest.mark.parametrize("field", ["e"])  # the one number a target holds
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1.5])
    def test_non_finite_target_rejected(self, field, bad):
        with pytest.raises(ValueError):
            TargetConstraint(settings=SettingsPair(X, Y), **{field: bad})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_problem(AtomGrid(np.empty((0, 3)), np.empty((0, 3))), [])
        with pytest.raises(ValueError):
            build_problem(AtomGrid(np.array([X]), np.array([X])), [])

    def test_hand_checkable_coefficients(self):
        p = two_atom_infeasible_problem()
        plus_rows = p.A_ub[[0, 2]]
        assert np.allclose(plus_rows, [[2.0, 0.0], [0.0, 2.0]])
        assert np.allclose(p.b_ub[[0, 2]], 0.5)


class TestSolve:
    def test_hand_checkable_infeasible(self):
        p = two_atom_infeasible_problem()
        cert = solve(p)
        assert cert.status is CertStatus.INFEASIBLE
        assert cert.margin >= 0.5
        assert verify_certificate(p, cert)

    def test_single_pair_always_feasible(self, rng):
        grid = build_atom_grid(8, 8, n_mirrored=8)
        for _ in range(10):
            a, b = sphere.random_unit_vectors(rng, 2)
            e = float(rng.uniform(-1, 1))
            p = build_problem(grid, [TargetConstraint(settings=SettingsPair(a, b), e=e)])
            assert solve(p).status is CertStatus.FEASIBLE

    def test_self_consistency_with_atomic_model(self, rng):
        # targets generated by a model whose atoms are in the grid must be feasible,
        # and the witness must reproduce them
        grid = build_atom_grid(6, 6)
        w = rng.random(grid.n_atoms)
        w /= w.sum()
        model = LeggettModel(SubensembleDistribution(grid.u, grid.v, w), Coupling.INDEPENDENT)
        constraints = []
        for _ in range(4):
            s = SettingsPair(*sphere.random_unit_vectors(rng, 2))
            constraints.append(TargetConstraint(settings=s, e=exact_model_correlation(outcome_law(model, s))))
        p = build_problem(grid, constraints)
        cert = solve(p)
        assert cert.status is CertStatus.FEASIBLE
        assert verify_certificate(p, cert)
        witness = witness_distribution(p, cert)
        for c in constraints:
            b = averaged_bounds(outcome_law(LeggettModel(witness, Coupling.INDEPENDENT), c.settings))
            assert b.lower - 1e-9 <= c.e <= b.upper + 1e-9

    def test_grid_superset_preserves_feasibility(self, rng):
        s = SettingsPair(*sphere.random_unit_vectors(rng, 2))
        cons = [TargetConstraint(settings=s, e=0.3)]
        p_small = build_problem(build_atom_grid(5, 5), cons)
        if solve(p_small).status is CertStatus.FEASIBLE:
            big = build_atom_grid(5, 5, n_mirrored=20)
            assert solve(build_problem(big, cons)).status is CertStatus.FEASIBLE

    def test_extra_constraint_never_rescues_infeasible(self, rng):
        p = two_atom_infeasible_problem()
        assert solve(p).status is CertStatus.INFEASIBLE
        cons = [
            TargetConstraint(settings=SettingsPair(X, X), e=-0.5),
            TargetConstraint(settings=SettingsPair(Y, Y), e=-0.5),
            TargetConstraint(settings=SettingsPair(*sphere.random_unit_vectors(rng, 2)), e=0.0),
        ]
        p2 = build_problem(p.grid, cons)
        assert same_bits(p2.A_ub[:4], p.A_ub) and same_bits(p2.b_ub[:4], p.b_ub)
        assert solve(p2).status is CertStatus.INFEASIBLE

    def test_randomized_certificates_verify(self, rng):
        grid = build_atom_grid(6, 6, n_mirrored=12)
        n_feasible = 0
        n_infeasible = 0
        for _ in range(50):
            k = int(rng.integers(1, 5))
            constraints = []
            for _ in range(k):
                s = SettingsPair(*sphere.random_unit_vectors(rng, 2))
                constraints.append(TargetConstraint(settings=s, e=float(rng.uniform(-1, 1))))
            p = build_problem(grid, constraints)
            cert = solve(p)
            assert verify_certificate(p, cert)
            if cert.status is CertStatus.FEASIBLE:
                n_feasible += 1
            else:
                n_infeasible += 1
        assert n_feasible > 0 and n_infeasible > 0


class TestVerifyCertificate:
    def test_perturbed_weight_rejected(self):
        p = build_problem(build_atom_grid(4, 4), [TargetConstraint(settings=SettingsPair(X, Y), e=0.0)])
        cert = solve(p)
        assert cert.status is CertStatus.FEASIBLE
        bad = np.array(cert.weight)
        bad[0] += 0.1
        tampered = dataclasses.replace(cert, weight=bad)
        assert not verify_certificate(p, tampered)

    def test_flipped_farkas_sign_rejected(self):
        p = two_atom_infeasible_problem()
        cert = solve(p)
        lam = np.array(cert.farkas_ub)
        nz = np.nonzero(lam)[0][0]
        lam[nz] = -lam[nz]
        tampered = Farkas(cert.grid_hash, lam, cert.margin)
        assert not verify_certificate(p, tampered)

    def test_grid_hash_mismatch_rejected(self):
        p = two_atom_infeasible_problem()
        cert = solve(p)
        other = Farkas(NO_GRID, cert.farkas_ub, cert.margin)
        assert not verify_certificate(p, other)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["weights", "farkas_ub"])
    def test_non_finite_entry_rejected(self, field, bad):
        if field == "weights":
            p = build_problem(build_atom_grid(4, 4), [TargetConstraint(settings=SettingsPair(X, Y), e=0.0)])
        else:
            p = two_atom_infeasible_problem()
        cert = solve(p)
        field = "weight" if field == "weights" else field
        values = np.array(getattr(cert, field))
        values[0] = bad
        tampered = dataclasses.replace(cert, **{field: values})
        round_tripped = read_certificate(json.loads(json.dumps(tampered.to_dict())))
        assert not verify_certificate(p, tampered)
        assert not verify_certificate(p, round_tripped)

    @pytest.mark.parametrize("status", [CertStatus.FEASIBLE, CertStatus.INFEASIBLE])
    def test_certificate_without_its_proof_rejected(self, status):
        # no witness, no multipliers: a verdict without a proof cannot be built
        p = two_atom_infeasible_problem()
        with pytest.raises(ValueError):
            if status is CertStatus.FEASIBLE:
                Witness(p.grid_hash, p.n_atoms, None, None)
            else:
                Farkas(p.grid_hash, None, 0.0)

    @pytest.mark.parametrize("gap, accepted", [(2.0**-52, False), (1e-9, True)])
    def test_gap_below_rounding_bound_rejected(self, gap, accepted):
        # lam = (1, 0, 1, 0) gives combo (2, 2) against value b_0 + b_2; raising
        # b_0 leaves an exact gap of about `gap`, which must clear the a
        # priori rounding bound (about 1e-11 here) to count as a proof
        p = two_atom_infeasible_problem()
        b_ub = np.array(p.b_ub)
        b_ub[0] = 1.5 - gap
        nudged = dataclasses.replace(p, b_ub=b_ub)
        lam = np.array([1.0, 0.0, 1.0, 0.0])
        assert exact_bound_gap(nudged, lam) > 0
        cert = Farkas(p.grid_hash, lam, 0.0)
        assert verify_certificate(nudged, cert) is accepted

    @hyp_settings(max_examples=60, deadline=None)
    @given(
        n_u=st.integers(1, 5),
        n_v=st.integers(1, 5),
        n_mirrored=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
        targets=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
        from_model=st.booleans(),
        slack=st.floats(-1e-10, 1e-10),
    )
    def test_accepted_certificates_hold_exactly(self, n_u, n_v, n_mirrored, seed, targets, from_model, slack):
        rng = make_rng(seed, 0)
        grid = build_atom_grid(n_u, n_v, n_mirrored)
        u, v = grid.u, grid.v
        w_model = rng.random(grid.n_atoms)
        w_model /= w_model.sum()
        model = LeggettModel(SubensembleDistribution(u, v, w_model), Coupling.INDEPENDENT)
        constraints = []
        for e in targets:
            s = SettingsPair(*sphere.random_unit_vectors(rng, 2))
            if from_model:
                e = exact_model_correlation(outcome_law(model, s))
            constraints.append(TargetConstraint(settings=s, e=e))
        p = build_problem(grid, constraints)
        cert = solve(p)
        assert verify_certificate(p, cert)
        # the JSON form reads back as the same record, to the bit, and verifies
        restored = read_certificate(json.loads(json.dumps(cert.to_dict())))
        assert type(restored) is type(cert)
        for f in dataclasses.fields(cert):
            got, want = getattr(restored, f.name), getattr(cert, f.name)
            assert same_bits(got, want) if isinstance(want, np.ndarray) else got == want
        assert restored.margin.hex() == cert.margin.hex()
        assert verify_certificate(p, restored)
        # move one right-hand side so the certificate sits `slack` away from
        # the edge of validity, where only the rounding bound decides
        b_ub = np.array(p.b_ub)
        if cert.status is CertStatus.INFEASIBLE:
            lam = cert.farkas_ub
            i = int(np.argmax(lam))
            gap = float(np.min(lam @ p.A_ub)) - float(lam @ p.b_ub)
            b_ub[i] += (gap - slack) / lam[i]
        else:
            b_ub[0] = float(p.A_ub[0] @ dense_weights(cert)) - FEAS_TOL + slack
        edge = dataclasses.replace(p, b_ub=b_ub)
        # a Witness's margin is always 0
        edge_cert = dataclasses.replace(cert, margin=0.0) if isinstance(cert, Farkas) else cert
        for problem, certificate in ((p, cert), (edge, edge_cert)):
            if not verify_certificate(problem, certificate):
                continue
            if cert.status is CertStatus.INFEASIBLE:
                assert exact_bound_gap(problem, cert.farkas_ub) > 0
            else:
                # with the row sum(w) = 1, which the problem leaves implicit
                assert exact_feasible(problem.A_ub, problem.b_ub, np.ones((1, problem.n_atoms)), [1.0],
                                      dense_weights(cert))

    @pytest.mark.parametrize("bad", [-2.0**-1074, -1.0, np.nan])
    def test_bound_rows_must_be_nonnegative(self, bad):
        # the verifier takes lam^T A_ub as its own sum of absolute terms
        p = two_atom_infeasible_problem()
        A_ub = np.array(p.A_ub)
        A_ub[1, 0] = bad
        with pytest.raises(ValueError, match="nonnegative"):
            dataclasses.replace(p, A_ub=A_ub)

    def test_proven_gap_matches_numpy_formula(self):
        # the README problem: one product lam^T A_ub gives the combination
        # and its absolute-value bound, to the bit
        constraints = FAMILIES["orthogonal-doublets"].build(np.array([0.94, 3.46, 2.11, 2.34]))
        p = build_problem(build_atom_grid(24, 24, 64), constraints)
        cert = solve(p)
        assert cert.status is CertStatus.INFEASIBLE
        got = certify._proven_gap(p, cert.farkas_ub)
        want = numpy_proven_gap(p, cert.farkas_ub)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert got[0] > 0.0

    def test_dimension_mismatch_raises(self):
        p = two_atom_infeasible_problem()
        bad = Witness(p.grid_hash, 1, np.array([0]), np.array([1.0]))
        with pytest.raises(ValueError):
            verify_certificate(p, bad)

    @pytest.mark.parametrize("lam", [np.ones(3), np.ones(5)], ids=["short-farkas-ub", "long-farkas-ub"])
    def test_farkas_dimension_mismatch_raises(self, lam):
        # the problem has four bound rows
        p = two_atom_infeasible_problem()
        with pytest.raises(ValueError, match="Farkas vector has wrong dimensions"):
            verify_certificate(p, Farkas(p.grid_hash, lam, 0.0))

    def test_zero_multipliers_rejected(self):
        # all-zero multipliers have scale 0: there is no gap to divide, and nothing is proven
        p = two_atom_infeasible_problem()
        assert verify_certificate(p, Farkas(p.grid_hash, np.zeros(4), 0.0)) is False


def _i64(*values) -> np.ndarray:
    return np.array(values, dtype=np.int64)


def _f64(*values) -> np.ndarray:
    return np.array(values, dtype=np.float64)


class TestWitness:
    """A Witness checks its own shape rules when it is built, so a record made
    in memory cannot reach the verifier with indices it would wrap or overrun."""

    def test_shifted_support_rejected(self):
        # the 16-atom problem of test_perturbed_weight_rejected: shifted by -16
        # the indices wrap round to the same columns, so such a record verified
        p = build_problem(build_atom_grid(4, 4), [TargetConstraint(settings=SettingsPair(X, Y), e=0.0)])
        wit = solve(p)
        assert wit.n_atoms == 16
        for shift in (-16, 16):
            with pytest.raises(ValueError):
                Witness(wit.grid_hash, 16, wit.index + shift, wit.weight)
            with pytest.raises(ValueError):
                dataclasses.replace(wit, index=wit.index + shift)

    @pytest.mark.parametrize("n_atoms, index, weight", [
        (16, _i64(-1, 3), _f64(0.5, 0.5)),
        (16, _i64(3, 16), _f64(0.5, 0.5)),
        (16, _i64(3, 3), _f64(0.5, 0.5)),
        (16, _i64(5, 3), _f64(0.5, 0.5)),
        (16, _i64(3, 5), _f64(1.0)),
        (16, _i64(3), _f64(0.5, 0.5)),
        (16, _i64(3).astype(np.int32), _f64(1.0)),
        (16, _f64(3.0), _f64(1.0)),
        (16, [3], _f64(1.0)),
        (16, _i64(3).reshape(1, 1), _f64(1.0).reshape(1, 1)),
        (16, _i64(3), _f64(1.0).astype(np.float32)),
        (16, _i64(3), _i64(1)),
        (0, _i64(), _f64()),
        (2**63, _i64(3), _f64(1.0)),
        (16.0, _i64(3), _f64(1.0)),
        (True, _i64(0), _f64(1.0)),
    ], ids=["negative", "past-end", "duplicate", "unsorted", "short-weight", "short-index",
            "int32-index", "float-index", "list-index", "2d-index", "float32-weight", "int-weight",
            "zero-atoms", "atoms-beyond-int64", "float-atoms", "bool-atoms"])
    def test_malformed_record_rejected(self, n_atoms, index, weight):
        with pytest.raises(ValueError):
            Witness(NO_GRID, n_atoms, index, weight)

    def test_empty_support_accepted(self):
        assert Witness(NO_GRID, 3, _i64(), _f64()).index.size == 0

    def test_read_only(self):
        # the same 16-atom problem: a write into the solved witness raised
        # nothing, left indices [-14, -10], and the certificate still verified
        p = build_problem(build_atom_grid(4, 4), [TargetConstraint(settings=SettingsPair(X, Y), e=0.0)])
        cert = solve(p)
        for arr in (cert.index, cert.weight):
            with pytest.raises(ValueError):
                arr[:] -= 16
        assert cert.index.min() >= 0
        assert verify_certificate(p, cert)

    def test_source_arrays_copied(self):
        index, weight = _i64(3, 5), _f64(0.25, 0.75)
        wit = Witness(NO_GRID, 16, index, weight)
        index[:] = [-1, 40]
        weight[:] = np.nan
        assert wit.index.tolist() == [3, 5] and wit.weight.tolist() == [0.25, 0.75]

    def test_distribution_drops_tolerated_negative_weight(self):
        # the verifier accepts a weight down to -FEAS_TOL; the distribution
        # drops it and normalizes what is left
        p = feasible_problem()
        wit = solve(p)
        assert wit.index[0] > 0 and wit.index.size == 2
        cert = dataclasses.replace(wit, index=np.r_[0, wit.index],
                                   weight=np.r_[-5e-10, wit.weight + [5e-10, 0.0]])
        assert verify_certificate(p, cert)
        d = witness_distribution(p, cert)
        assert d.n_atoms == 2 and abs(float(d.w.sum()) - 1.0) <= 1e-12
        np.testing.assert_array_equal(d.u, p.grid.u[wit.index])

    def test_distribution_refuses_farkas(self):
        p = two_atom_infeasible_problem()
        cert = solve(p)
        assert isinstance(cert, Farkas)
        with pytest.raises(ValueError):
            witness_distribution(p, cert)


@pytest.mark.parametrize("make", [
    lambda: SettingsPair(X, Y),
    lambda: SubensembleDistribution(np.array([X]), np.array([Y]), [1.0]),
    lambda: TargetConstraint(SettingsPair(X, Y), 0.5),
    lambda: LeggettModel(SubensembleDistribution(np.array([X]), np.array([Y]), [1.0]), Coupling.INDEPENDENT),
    two_atom_infeasible_problem,
    lambda: Witness(NO_GRID, 16, _i64(3, 5), _f64(0.25, 0.75)),
    lambda: Farkas(NO_GRID, _f64(1.0, 0.0), 0.5),
    # a copy of the family, since FAMILIES holds one record per name
    lambda: dataclasses.replace(FAMILIES["orthogonal-doublets"]),
], ids=["settings", "distribution", "target", "model", "problem", "witness", "farkas", "family"])
def test_records_compare_and_hash(make):
    # records holding arrays compare by identity: == on their fields raised
    # ValueError, and hash() raised TypeError
    record = make()
    assert record == record
    assert record != make()
    assert hash(record) == hash(record)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_optimizer_records_held(name):
    # one family record per name, built once; its bounds are read-only, and
    # writing them raised nothing
    family = FAMILIES[name]
    assert family is FAMILIES[name] and family == FAMILIES[name]
    for array in (family.lower, family.upper):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0


def feasible_problem():
    return build_problem(build_atom_grid(6, 6, 4), [
        TargetConstraint(settings=SettingsPair(X, Y), e=0.0),
        TargetConstraint(settings=SettingsPair(Z, X), e=-0.3),
    ])


class TestSerialization:
    def test_certificate_round_trip(self, tmp_path):
        p = two_atom_infeasible_problem()
        cert = solve(p)
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert.to_dict()), encoding="utf-8")
        restored = read_certificate(json.loads(path.read_text(encoding="utf-8")))
        assert restored.status is CertStatus.INFEASIBLE
        assert restored.margin == cert.margin
        assert verify_certificate(p, restored)

    def test_feasible_round_trip(self, tmp_path):
        p = feasible_problem()
        cert = solve(p)
        assert cert.status is CertStatus.FEASIBLE
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert.to_dict()), encoding="utf-8")
        restored = read_certificate(json.loads(path.read_text(encoding="utf-8")))
        assert restored.status is CertStatus.FEASIBLE
        assert restored.weight.dtype == np.float64
        assert restored.n_atoms == cert.n_atoms
        np.testing.assert_array_equal(restored.index, cert.index)
        np.testing.assert_array_equal(restored.weight, cert.weight)
        assert verify_certificate(p, restored)

    def test_witness_written_as_support(self):
        # a basic solution has at most one nonzero weight per LP row: the
        # four bound rows and the normalization
        p = feasible_problem()
        witness = solve(p).to_dict()["witness"]
        assert witness["n_atoms"] == p.n_atoms == 40
        assert 1 <= len(witness["index"]) <= 5
        assert witness["index"] == sorted(set(witness["index"]))
        assert len(witness["weight"]) == len(witness["index"])
        assert all(w != 0.0 for w in witness["weight"])

    def test_unallocatable_witness_checked_by_count(self):
        # a loaded witness stays a support: one that claims more atoms than
        # memory could hold loads, and a problem of another size rejects it
        # with ValueError (a dense copy would have raised MemoryError)
        p = feasible_problem()
        data = solve(p).to_dict()
        data["witness"]["n_atoms"] = 10**15
        cert = read_certificate(data)
        assert cert.n_atoms == 10**15
        with pytest.raises(ValueError):
            verify_certificate(p, cert)
        with pytest.raises(ValueError):
            witness_distribution(p, cert)

    def test_witness_count_beyond_int64_rejected(self):
        witness = {"n_atoms": 2**63, "index": [2**63 - 1], "weight": [1.0]}
        data = {"status": "feasible", "grid_hash": "0" * 64, "margin": 0.0, "witness": witness}
        with pytest.raises(ValueError):
            read_certificate(data)

    @pytest.mark.parametrize("witness", [
        {"n_atoms": 0, "index": [], "weight": []},
        {"n_atoms": 2.0, "index": [0], "weight": [1.0]},
        {"n_atoms": True, "index": [0], "weight": [1.0]},
        {"n_atoms": "3", "index": [0], "weight": [1.0]},
        {"n_atoms": 3, "index": [1.0], "weight": [1.0]},
        {"n_atoms": 3, "index": [False], "weight": [1.0]},
        {"n_atoms": 3, "index": [2, 1], "weight": [0.5, 0.5]},
        {"n_atoms": 3, "index": [1, 1], "weight": [0.5, 0.5]},
        {"n_atoms": 3, "index": [-1], "weight": [1.0]},
        {"n_atoms": 3, "index": [3], "weight": [1.0]},
        {"n_atoms": 3, "index": [0, 1], "weight": [1.0]},
        {"n_atoms": 3, "index": [0], "weight": [0.5, 0.5]},
        {"n_atoms": 3, "index": [0], "weight": ["1.0"]},
        {"n_atoms": 3, "index": [0], "weight": [10**400]},
        {"n_atoms": 3, "index": [0]},
        [1.0, 0.0, 0.0],
        None,
    ], ids=["zero-atoms", "float-atoms", "bool-atoms", "string-atoms", "float-index",
            "bool-index", "decreasing", "repeated", "negative", "past-end",
            "short-weight", "short-index", "string-weight", "huge-weight", "missing-key",
            "dense-list", "no-witness"])
    def test_malformed_witness_rejected(self, witness):
        # None drops the key
        data = {"status": "feasible", "grid_hash": "0" * 64, "margin": 0.0, "witness": witness}
        if witness is None:
            del data["witness"]
        with pytest.raises(ValueError):
            read_certificate(data)

    @pytest.mark.parametrize("change", [
        {"margin": "0.5"},
        {"margin": True},
        {"margin": 10**400},
        {"farkas_ub": ["1", True]},
        {"farkas_ub": [1.0, True]},
        {"farkas_ub": 1.0},
        {"farkas_ub": [10**400, 0.0]},
        # multipliers on marginal rows, which no problem has: the key is
        # refused, also as the empty list every such certificate wrote
        {"farkas_eq": ["0"]},
        {"farkas_eq": []},
        {"farkas_ub": None, "farkas_eq": []},
        {"status": "maybe"},
        {"status": None},
        {"grid_hash": 5},
        {"grid_hash": None},
        {"extra": 1},
        {"farkas_ub": None},
        {"witness": {"n_atoms": 4, "index": [0], "weight": [1.0]}},
        {"status": "feasible"},
        {"margin": None},
        {"status": "feasible", "margin": 0.5, "farkas_ub": None,
         "witness": {"n_atoms": 2, "index": [0], "weight": [1.0]}},
    ], ids=["string-margin", "bool-margin", "huge-margin", "string-farkas", "bool-farkas",
            "scalar-farkas", "huge-farkas", "string-farkas-eq", "ub-with-eq", "eq-without-ub",
            "bad-status", "missing-status", "int-hash", "missing-hash", "unknown-key",
            "no-farkas", "with-witness", "feasible-with-farkas", "missing-margin",
            "feasible-with-margin"])
    def test_malformed_farkas_certificate_rejected(self, change):
        # None drops the key
        data = solve(two_atom_infeasible_problem()).to_dict()
        assert data["status"] == "infeasible"
        for key, value in change.items():
            if value is None:
                del data[key]
            else:
                data[key] = value
        with pytest.raises(ValueError):
            read_certificate(data)


# orthogonal-doublets parameters within the family's box
DOUBLET_PARAMS = st.tuples(st.floats(0.05, 2.0), *[st.floats(0.0, 2.0 * np.pi)] * 3).map(np.array)


class TestBoundRowsAlone:
    """The LP has the bound rows alone, and rows fixing the marginals would
    change no continuum verdict for zero-marginal targets: the bound rows
    are invariant under (u, v) -> (-u, -v), so a weighting that meets them,
    averaged with its mirror, meets them too and has zero marginals."""

    @given(params=DOUBLET_PARAMS, dropped=st.integers(0, 2))
    @hyp_settings(max_examples=30, deadline=None)
    def test_mirror_keeps_the_rows_and_zeroes_the_marginals(self, params, dropped):
        targets = FAMILIES["orthogonal-doublets"].build(params)
        grid = build_atom_grid(16, 16, 64)
        mirror = AtomGrid(-grid.u, -grid.v)
        assert same_bits(build_problem(mirror, targets).A_ub, build_problem(grid, targets).A_ub)
        # two doublets, where a grid witness is common
        kept = [t for j, t in enumerate(targets) if j // 2 != dropped]
        problem = build_problem(grid, kept)
        cert = solve(problem)
        assume(isinstance(cert, Witness))
        assert verify_certificate(problem, cert)
        # the witness and its mirror, half each, on the joined grid G u -G
        m = grid.n_atoms
        joined = build_problem(AtomGrid(np.vstack([grid.u, mirror.u]), np.vstack([grid.v, mirror.v])), kept)
        half = Witness(joined.grid_hash, 2 * m, np.concatenate([cert.index, cert.index + m]),
                       np.concatenate([cert.weight, cert.weight]) / 2.0)
        assert verify_certificate(joined, half)
        model = LeggettModel(witness_distribution(joined, half), Coupling.INDEPENDENT)
        for t in targets:
            law = outcome_law(model, t.settings)
            assert abs(law.w @ law.alpha) < 1e-15 and abs(law.w @ law.beta) < 1e-15

    @given(params=DOUBLET_PARAMS)
    @hyp_settings(max_examples=50, deadline=None)
    def test_no_two_doublets_exclude_a_model(self, params):
        # without the LP: for each dropped doublet k, the model
        # {(-e_k, e_k), (e_k, -e_k)}, weight 1/2 each, has zero marginals and
        # puts every target of the other two doublets inside its bounds
        targets = FAMILIES["orthogonal-doublets"].build(params)
        for k, axis in enumerate(np.eye(3)):
            pair = SubensembleDistribution(np.array([-axis, axis]), np.array([axis, -axis]), [0.5, 0.5])
            model = LeggettModel(pair, Coupling.INDEPENDENT)
            for t in targets[:2 * k] + targets[2 * k + 2:]:
                law = outcome_law(model, t.settings)
                b = averaged_bounds(law)
                assert b.lower - FEAS_TOL <= t.e <= b.upper + FEAS_TOL
                assert law.w @ law.alpha == 0.0 and law.w @ law.beta == 0.0
