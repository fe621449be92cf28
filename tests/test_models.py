import json

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from leggettsim import kernels, sphere
from leggettsim.models import (
    Coupling,
    LeggettModel,
    SettingsPair,
    SubensembleDistribution,
    exact_model_correlation,
    exact_model_marginals,
    isotropic_product,
    mirrored,
    outcome_law,
    point_mass,
    sample_outcome_arrays,
)
from leggettsim.models import _atom_indices, _guide_table, _padded

from conftest import edge_distribution, joint_law, law_correlation, point_law

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


class TestSettingsAndOutcomes:
    def test_settings_require_unit_vectors(self):
        with pytest.raises(ValueError):
            SettingsPair(np.array([2.0, 0.0, 0.0]), Y)

    @pytest.mark.parametrize("bad", [
        [1.0, 0.0],
        np.array([X, Y]),
        [np.nan, 0.0, 0.0],
        [[1.0, 0.0, 0.0]],
    ], ids=["2-vector", "(2, 3)", "nan", "(1, 3)"])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_settings_reject_malformed_vectors(self, bad, side):
        with pytest.raises(ValueError):
            SettingsPair(**{"a": X, "b": Y, side: bad})

    def test_settings_copy_the_callers_arrays(self):
        a, b = X.copy(), Y.copy()
        s = SettingsPair(a, b)
        # the caller's arrays stay writeable, and writing to them leaves
        # the checked settings as they were
        assert a.flags.writeable and b.flags.writeable
        a[:] = [0.0, 0.0, 5.0]
        b[0] = np.nan
        assert s.a.tolist() == [1.0, 0.0, 0.0] and s.b.tolist() == [0.0, 1.0, 0.0]
        with pytest.raises(ValueError):
            s.a[0] = 0.5

    def test_settings_copy_a_view_of_a_batch(self):
        batch = np.array([X, Y])
        s = SettingsPair(batch[0], batch[1])
        batch[0] = [0.0, 0.0, 5.0]
        assert s.a.tolist() == [1.0, 0.0, 0.0]
        assert exact_model_correlation(outcome_law(LeggettModel(point_mass(X, Y), Coupling.INDEPENDENT), s)) == 1.0


class TestSubensembleDistribution:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SubensembleDistribution(np.array([X]), np.array([Y]), [0.9])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            SubensembleDistribution(np.array([X, Y]), np.array([X, Y]), [1.5, -0.5])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError):
            SubensembleDistribution(np.array([X, Y]), np.array([X, Y]), [0.5, bad])

    def test_nan_weights_rejected_on_load(self):
        data = {"atoms": [{"u": list(X), "v": list(Y), "w": float("nan")}], "coupling": "independent"}
        with pytest.raises(ValueError):
            LeggettModel.from_dict(data)

    def test_zero_weight_atoms_pruned(self):
        d = SubensembleDistribution(np.array([X, Y]), np.array([X, Y]), [1.0, 0.0])
        assert d.n_atoms == 1
        for arr in (d.u, d.v, d.w):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_arrays_immutable(self, rng):
        d = isotropic_product(10, rng)
        for arr in (d.w, d.cdf, d.guide):
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("make", [
        lambda n: isotropic_product(n, np.random.default_rng(0)),
        lambda n: mirrored(n, np.random.default_rng(0)),
    ], ids=["isotropic", "mirrored"])
    def test_generators_reject_zero_atoms(self, make):
        with pytest.raises(ValueError):
            make(0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SubensembleDistribution(np.empty((0, 3)), np.empty((0, 3)), [])

    @pytest.mark.parametrize("u, v, w", [
        (np.array([X, Y]), np.array([X]), [0.5, 0.5]),
        (np.array([X]), np.array([X, Y]), [1.0]),
        (np.array([X, Y]), np.array([X, Y]), [1.0]),
    ], ids=["short-v", "short-u", "short-w"])
    def test_mismatched_lengths_rejected(self, u, v, w):
        with pytest.raises(ValueError, match="atom arrays must have shapes"):
            SubensembleDistribution(u, v, w)

    def test_2d_weights_rejected(self):
        # an (m, 1) array holding a zero weight must be refused before the
        # pruning step indexes the atoms with it
        with pytest.raises(ValueError):
            SubensembleDistribution(np.eye(3)[:2], np.eye(3)[:2], [[1.0], [0.0]])


class TestConditionalMarginals:
    def test_orthogonal(self):
        law = point_law(X, X, SettingsPair(Y, Y))
        assert law.pa[0] == 0.5 and law.pb[0] == 0.5

    def test_aligned(self):
        assert point_law(X, Y, SettingsPair(X, Y)).pa[0] == 1.0

    def test_direct_formula(self):
        u = sphere.normalize([0.6, 0.8, 0.0])
        assert point_law(u, Z, SettingsPair(X, Z)).pa[0] == pytest.approx(0.8, abs=1e-12)


class TestJointConditionalLaw:
    """Each coupling's P(A=1, B=1), read through the reference four-outcome law."""

    def test_degenerate_marginals(self):
        for coupling in Coupling:
            law = point_law(X, Y, SettingsPair(X, Y), coupling)
            joint = joint_law(law.pa[0], law.pb[0], law.coupling)
            assert joint[0] == 1.0 and np.all(joint[1:] == 0.0)

    def test_independent_uniform(self):
        law = point_law(Z, Z, SettingsPair(X, Y), Coupling.INDEPENDENT)
        assert np.allclose(joint_law(law.pa[0], law.pb[0], law.coupling), 0.25)

    def test_comonotone_uniform(self):
        # min-coupling: all mass on the diagonal
        law = point_law(Z, Z, SettingsPair(X, Y), Coupling.COMONOTONE)
        assert np.allclose(joint_law(law.pa[0], law.pb[0], law.coupling), [0.5, 0.0, 0.0, 0.5])

    @hyp_settings(max_examples=200, deadline=None)
    @given(
        pa=st.floats(0.0, 1.0),
        pb=st.floats(0.0, 1.0),
        coupling=st.sampled_from(list(Coupling)),
    )
    def test_is_probability_law_with_exact_marginals(self, pa, pb, coupling):
        law = joint_law(pa, pb, coupling)
        assert np.all(law >= 0.0)
        assert sum(law) == pytest.approx(1.0, abs=1e-12)
        assert law[0] + law[1] == pytest.approx(pa, abs=1e-12)
        assert law[0] + law[2] == pytest.approx(pb, abs=1e-12)

    def test_marginal_exactness_random_configurations(self, rng):
        for _ in range(1000):
            u, v, a, b = sphere.random_unit_vectors(rng, 4)
            coupling = list(Coupling)[int(rng.integers(3))]
            law = point_law(u, v, SettingsPair(a, b), coupling)
            pa, pb = law.pa[0], law.pb[0]
            joint = joint_law(pa, pb, coupling)
            assert abs((joint[0] + joint[1]) - pa) <= 1e-12
            assert abs((joint[0] + joint[2]) - pb) <= 1e-12


def draw(law, n, rng):
    """n draws of ``law`` from the block of uniforms ``rng`` fills next."""
    return sample_outcome_arrays(law, rng.random((law.rows, n)))


class TestSampling:
    def test_point_mass_degenerate(self, rng):
        model = LeggettModel(point_mass(X, Y), Coupling.INDEPENDENT)
        a, b = draw(outcome_law(model, SettingsPair(X, Y)), 50, rng)
        assert np.all(a == 1) and np.all(b == 1)

    def test_point_mass_antialigned(self, rng):
        model = LeggettModel(point_mass(-X, Y), Coupling.INDEPENDENT)
        a, _ = draw(outcome_law(model, SettingsPair(X, Y)), 200, rng)
        assert np.all(a == -1.0)

    def test_isotropic_mean_near_zero(self):
        model = LeggettModel(isotropic_product(1000, sphere.make_rng(11, 0)), Coupling.INDEPENDENT)
        law = outcome_law(model, SettingsPair(X, Y))
        a, _ = draw(law, 100_000, sphere.make_rng(11, 1))
        exact_a, _ = exact_model_marginals(law)
        se = 1.0 / np.sqrt(100_000)
        assert abs(a.mean() - exact_a) <= 4 * se

    def test_invalid_count(self):
        for coupling in Coupling:
            law = outcome_law(LeggettModel(point_mass(X, Y), coupling), SettingsPair(X, Y))
            with pytest.raises(ValueError, match="n >= 1"):
                sample_outcome_arrays(law, np.empty((law.rows, 0)))

    @pytest.mark.parametrize("coupling, shape", [
        (Coupling.INDEPENDENT, (2, 10)),  # no u2 row for the coupling that reads it
        (Coupling.COMONOTONE, (3, 10)),  # a u2 row the coupling does not read
        (Coupling.ANTIMONOTONE, (1, 10)),
        (Coupling.INDEPENDENT, (30,)),  # not 2-D
        (Coupling.COMONOTONE, (2, 5, 1)),
    ], ids=["independent-2-rows", "comonotone-3-rows", "antimonotone-1-row", "1d", "3d"])
    def test_malformed_uniforms(self, coupling, shape):
        law = outcome_law(LeggettModel(point_mass(X, Y), coupling), SettingsPair(X, Y))
        with pytest.raises(ValueError, match="uniforms must be"):
            sample_outcome_arrays(law, np.full(shape, 0.5))

    @pytest.mark.parametrize("coupling, draws", [
        (Coupling.INDEPENDENT, 3), (Coupling.COMONOTONE, 2), (Coupling.ANTIMONOTONE, 2),
    ], ids=["independent", "comonotone", "antimonotone"])
    def test_uniforms_drawn(self, coupling, draws):
        # keys and u1 for every coupling; u2 only where the coupling reads it
        law = outcome_law(LeggettModel(point_mass(X, Y), coupling), SettingsPair(X, Y))
        assert law.rows == draws
        a, b = sample_outcome_arrays(law, np.full((draws, 7), 0.25))
        assert a.shape == b.shape == (7,)

    @pytest.mark.parametrize("rows", [2, 3])
    @pytest.mark.parametrize("n", [1, 5, 1001, 65537])
    def test_one_fill_is_successive_draws(self, rows, n):
        # a (rows, n) fill reads the stream in the order of rows successive
        # random(n) calls, also where n is no multiple of Philox's four words,
        # and a fill through out= into a view of a larger buffer does too
        ref = sphere.make_rng(3, 1, block=2)
        successive = np.stack([ref.random(n) for _ in range(rows)])
        assert np.array_equal(sphere.make_rng(3, 1, block=2).random((rows, n)), successive)
        buffer = np.zeros(rows * (n + 3))
        view = buffer[: rows * n].reshape(rows, n)
        sphere.make_rng(3, 1, block=2).random(out=view)
        assert np.array_equal(view, successive) and not buffer[rows * n:].any()

    @pytest.mark.parametrize("coupling", list(Coupling), ids=lambda c: c.value)
    def test_marginals_carry_the_laws_bits(self, monkeypatch, coupling):
        # the sampler forms (1 + x)/2 only for the atoms it draws, and hands
        # draw_outcomes the law's own pa and pb at those atoms, bit for bit,
        # with row 1 as u1 and row 2, where the coupling reads it, as u2
        seen = []
        draw_outcomes = kernels.draw_outcomes

        def recording(*args):
            seen.append(args)
            return draw_outcomes(*args)

        monkeypatch.setattr(kernels, "draw_outcomes", recording)
        model = LeggettModel(isotropic_product(500, sphere.make_rng(9, 0)), coupling)
        law = outcome_law(model, SettingsPair(X, sphere.normalize([1.0, 2.0, 3.0])))
        uniforms = sphere.make_rng(9, 1).random((law.rows, 10_001))
        sample_outcome_arrays(law, uniforms)
        (pa, pb, u1, u2, passed), = seen
        idx = _atom_indices(law.cdf, law.guide, law.scan, uniforms[0])
        assert pa.tobytes() == law.pa[idx].tobytes() and pb.tobytes() == law.pb[idx].tobytes()
        assert np.array_equal(u1, uniforms[1]) and passed is coupling
        assert u2 is None if law.rows == 2 else np.array_equal(u2, uniforms[2])


def _weights(shape: str, m: int, rng: np.random.Generator) -> np.ndarray:
    if shape == "one":
        return np.array([1.0])
    if shape == "equal":
        w = np.ones(m)
    elif shape == "heavy":
        w = rng.pareto(0.5, m) + 1e-3
    else:
        # one dominant atom among many that barely move the cumulative sum,
        # so the CDF holds runs of equal entries
        w = rng.random(m) * 1e-16
        w[rng.integers(m)] += 1.0
    return w / w.sum()


def _cdf(w: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(w)
    cdf[-1] = 1.0
    return cdf


class TestAtomIndices:
    """The guided binary search must pick exactly the atoms searchsorted
    picks, for any weights and any scan bound at or above the table's."""

    @pytest.mark.parametrize("side", ["guided", "sorted"])
    @hyp_settings(max_examples=120, deadline=None)
    @given(m=st.integers(2, 256), shape=st.sampled_from(["one", "equal", "heavy", "tiny"]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_searchsorted(self, side, m, shape, seed):
        rng = np.random.default_rng(seed)
        cdf = _cdf(_weights(shape, m, rng))
        guide, scan = _guide_table(cdf)
        if side == "sorted":
            # any bound at or above the true scan is valid; the atom count,
            # the widest gap there is, makes each key's search span the
            # whole sorted CDF above its guide entry
            scan = max(scan, cdf.shape[0])
        # keys lie in [0, 1), as the generator draws them: each CDF entry and
        # each bucket edge k/K with their neighbouring floats, the ends of the
        # range, and uniform filler
        k = cdf.shape[0] + 1
        bucket_edges = np.arange(k + 1) / k
        edges = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
                                bucket_edges, np.nextafter(bucket_edges, 0.0),
                                np.nextafter(bucket_edges, 1.0),
                                [0.0, np.nextafter(1.0, 0.0)], rng.random(4 * m)])
        keys = rng.permutation(edges[(edges >= 0.0) & (edges < 1.0)])
        want = np.searchsorted(cdf, keys, side="right")
        got = _atom_indices(_padded(cdf, scan), guide, scan, keys)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_last_atom_holds_the_weight(self):
        # the first 999 entries share bucket 0; a key in any later bucket
        # starts at the last atom, index 999, and its first step of 512 probes
        # index 1510, where a read past an unpadded CDF raises IndexError
        w = np.full(1000, 1e-9)
        w[-1] = 1.0
        cdf = _cdf(w / w.sum())
        guide, scan = _guide_table(cdf)
        assert scan == 999 and guide[1] == 999
        keys = np.concatenate([cdf[:-1], np.nextafter(cdf[:-1], 0.0), [0.0, 0.5, np.nextafter(1.0, 0.0)]])
        np.testing.assert_array_equal(_atom_indices(_padded(cdf, scan), guide, scan, keys),
                                      np.searchsorted(cdf, keys, side="right"))

    def test_equal_weights_scan_once(self):
        # weights as the generators make them: one more bucket than atoms
        # gives every entry below 1.0 a bucket of its own, a single pass per key
        for m in [*range(2, 3001), 100_000]:
            assert _guide_table(_cdf(np.full(m, 1.0 / m)))[1] == 1, m

    def test_guide_table(self):
        # one atom: its entry, 1.0, lies in bucket 2, which no key reaches, so
        # every key picks it without a step
        guide, scan = _guide_table(np.array([1.0]))
        assert scan == 0 and guide.tolist() == [0, 0, 0]
        # equal weights put one entry in a bucket; a heavy tail or one
        # dominant atom piles many into one
        rng = np.random.default_rng(3)
        for shape, want in (("equal", 1), ("heavy", 656), ("tiny", 69436)):
            assert _guide_table(_cdf(_weights(shape, 100_000, rng)))[1] == want, shape


class TestExactCorrelation:
    def test_point_mass_aligned(self):
        model = LeggettModel(point_mass(X, Y), Coupling.INDEPENDENT)
        assert exact_model_correlation(outcome_law(model, SettingsPair(X, Y))) == 1.0

    def test_two_atom_symmetry(self):
        d = SubensembleDistribution(np.array([X, -X]), np.array([Y, Y]), [0.5, 0.5])
        model = LeggettModel(d, Coupling.INDEPENDENT)
        assert exact_model_correlation(outcome_law(model, SettingsPair(X, Y))) == 0.0

    def test_product_formula(self):
        # dots (0.5, -0.5) -> -0.25, checked against the enumeration oracle
        u = sphere.normalize([0.5, np.sqrt(0.75), 0.0])
        v = sphere.normalize([-0.5, 0.0, np.sqrt(0.75)])
        model = LeggettModel(point_mass(u, v), Coupling.INDEPENDENT)
        s = SettingsPair(X, X)
        value = exact_model_correlation(outcome_law(model, s))
        assert value == pytest.approx(-0.25, abs=1e-12)
        assert value == pytest.approx(law_correlation(0.75, 0.25, Coupling.INDEPENDENT), abs=1e-12)

    def test_matches_enumeration_oracle(self, rng):
        # the closed form must agree with the exhaustive 4-outcome law, atom by atom
        for _ in range(50):
            u, v, a, b = sphere.random_unit_vectors(rng, 4)
            s = SettingsPair(a, b)
            for coupling in Coupling:
                law = point_law(u, v, s, coupling)
                assert exact_model_correlation(law) == pytest.approx(
                    law_correlation(law.pa[0], law.pb[0], coupling), abs=1e-12
                )

    def test_marginals_clamped(self):
        law = outcome_law(LeggettModel(edge_distribution(), Coupling.INDEPENDENT), SettingsPair(X, -Y))
        assert exact_model_marginals(law) == (1.0, -1.0)

    def test_mirrored_same_setting(self):
        # v = -u isotropic and a = b gives E(AB) = -E[(u.a)^2] = -1/3
        model = LeggettModel(mirrored(200_000, sphere.make_rng(13, 0)), Coupling.INDEPENDENT)
        assert exact_model_correlation(outcome_law(model, SettingsPair(Z, Z))) == pytest.approx(-1 / 3, abs=5e-3)


class TestSerialization:
    def test_round_trip(self, rng):
        model = LeggettModel(isotropic_product(20, rng), Coupling.ANTIMONOTONE)
        restored = LeggettModel.from_dict(model.to_dict())
        assert np.allclose(restored.distribution.u, model.distribution.u)
        assert np.allclose(restored.distribution.w, model.distribution.w)
        assert restored.coupling is model.coupling

    def test_file_round_trip(self, rng, tmp_path):
        model = LeggettModel(mirrored(5, rng), Coupling.COMONOTONE)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model.to_dict()), encoding="utf-8")
        restored = LeggettModel.from_dict(json.loads(path.read_text(encoding="utf-8")))
        assert np.allclose(restored.distribution.v, model.distribution.v)
        assert restored.coupling is Coupling.COMONOTONE

    def test_small_weight_drift_renormalized(self):
        data = {
            "atoms": [
                {"u": list(X), "v": list(Y), "w": 0.5 + 2e-10},
                {"u": list(Y), "v": list(X), "w": 0.5},
            ],
            "coupling": "independent",
        }
        model = LeggettModel.from_dict(data)
        assert model.distribution.w.sum() == pytest.approx(1.0, abs=1e-15)

    def test_large_weight_drift_rejected(self):
        data = {
            "atoms": [{"u": list(X), "v": list(Y), "w": 0.9}],
            "coupling": "independent",
        }
        with pytest.raises(ValueError):
            LeggettModel.from_dict(data)

    ATOM = {"u": [1.0, 0.0, 0.0], "v": [0.0, 1.0, 0.0], "w": 1.0}

    @pytest.mark.parametrize("data", [
        {"atoms": [{**ATOM, "u": ["1", "0", "0"]}], "coupling": "independent"},
        {"atoms": [{**ATOM, "w": "1"}], "coupling": "independent"},
        {"atoms": [{**ATOM, "v": [False, True, False]}], "coupling": "independent"},
        {"atoms": [{**ATOM, "w": True}], "coupling": "independent"},
        {"atoms": [{**ATOM, "w": 10**400}], "coupling": "independent"},
        {"atoms": [{**ATOM, "u": [1.0, 0.0]}], "coupling": "independent"},
        {"atoms": [{**ATOM, "u": 1.0}], "coupling": "independent"},
        {"atoms": [{**ATOM, "x": 0.0}], "coupling": "independent"},
        {"atoms": [{"u": [1.0, 0.0, 0.0], "v": [0.0, 1.0, 0.0]}], "coupling": "independent"},
        {"atoms": [[1.0, 0.0, 0.0]], "coupling": "independent"},
        {"atoms": ATOM, "coupling": "independent"},
        {"atoms": "atoms", "coupling": "independent"},
        {"atoms": [ATOM], "coupling": "independent", "typo": 1},
        {"atoms": [ATOM]},
        {"atoms": [ATOM], "coupling": ["independent"]},
        [ATOM],
    ], ids=["string-component", "string-weight", "bool-component", "bool-weight", "huge-weight",
            "two-components", "scalar-vector", "unknown-atom-key", "missing-weight", "atom-list",
            "atoms-object", "atoms-string", "unknown-key", "missing-coupling", "list-coupling",
            "top-level-list"])
    def test_malformed_model_rejected(self, data):
        with pytest.raises(ValueError):
            LeggettModel.from_dict(data)

    def test_json_schema(self, rng):
        text = json.dumps(LeggettModel(point_mass(X, Y), Coupling.INDEPENDENT).to_dict())
        data = json.loads(text)
        assert data["coupling"] == "independent"
        assert data["atoms"][0]["w"] == 1.0
        assert data["atoms"][0]["u"] == [1.0, 0.0, 0.0]
