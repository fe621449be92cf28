import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from leggettsim import sphere
from leggettsim.models import hold

from conftest import random_rotation


def dot(a, b) -> float:
    """sphere.dots over a batch of one."""
    return float(sphere.dots(np.asarray(a, dtype=np.float64)[None, :], b)[0])


class TestDot:
    def test_identical(self):
        assert dot([1, 0, 0], [1, 0, 0]) == 1.0

    def test_orthogonal(self):
        assert dot([1, 0, 0], [0, 1, 0]) == 0.0

    def test_antiparallel(self):
        assert dot([1, 0, 0], [-1, 0, 0]) == -1.0

    def test_clamped(self, rng):
        for a in sphere.random_unit_vectors(rng, 200):
            assert -1.0 <= dot(a, a) <= 1.0
        # this unit vector's product with itself rounds to 1 + 2**-52
        a = sphere.normalize([1.0, 1.0, 1.0])
        assert float(np.dot(a, a)) > 1.0 and dot(a, a) == 1.0 and dot(a, -a) == -1.0

    def test_symmetric(self, rng):
        for _ in range(100):
            a, b = sphere.random_unit_vectors(rng, 2)
            assert dot(a, b) == dot(b, a)

    def test_rotation_invariant(self, rng):
        for _ in range(100):
            a, b = sphere.random_unit_vectors(rng, 2)
            rot = random_rotation(rng)
            assert dot(rot @ a, rot @ b) == pytest.approx(dot(a, b), abs=1e-12)


class TestConstruction:
    def test_normalize_single_vector(self):
        v = sphere.normalize([3.0, 4.0, 0.0])
        assert np.allclose(v, [0.6, 0.8, 0.0])
        assert sphere.is_unit(v)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            sphere.normalize([0.0, 0.0, 0.0])

    def test_batch_normalize(self, rng):
        arr = rng.standard_normal((50, 3))
        out = sphere.normalize(arr)
        assert sphere.is_unit(out)

    def test_overflowing_norm(self):
        # the squared norm of this finite direction overflows, yet it names
        # the direction [1, 1, 0]
        assert sphere.normalize([1e200, 1e200, 0.0]).tobytes() == sphere.normalize([1.0, 1.0, 0.0]).tobytes()

    def test_overflowing_batch_row(self):
        # only the row whose squared norm overflows is rescaled, with no
        # warning; the others keep their bits
        arr = np.array([[1e300, -1e300, 0.0], [3.0, 4.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sphere.normalize(arr)
        assert out.tobytes() == sphere.normalize(np.array([[1.0, -1.0, 0.0], [3.0, 4.0, 0.0]])).tobytes()


def frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def held(arr) -> np.ndarray:
    """arr as a record holds it: checked by unit_checked, then held by hold."""
    record = types.SimpleNamespace()
    hold(record, arr=sphere.unit_checked(arr))
    return record.arr


class TestUnitCopy:
    """The checked unit vectors a record holds: ``unit_checked`` checks them
    and copies nothing, ``models.hold`` keeps frozen memory and copies the
    rest."""

    @pytest.mark.parametrize("vecs", [[0.6, 0.8, 0.0], [[1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]])
    def test_read_only_copy(self, vecs):
        arr = np.array(vecs)
        assert sphere.unit_checked(arr) is arr
        out = held(arr)
        assert out.dtype == np.float64 and out.flags.c_contiguous and not out.flags.writeable
        assert not np.shares_memory(out, arr) and arr.flags.writeable
        assert out.tolist() == arr.tolist()

    def test_fortran_order_input(self):
        arr = np.asfortranarray(sphere.sphere_grid(5))
        assert held(arr).flags.c_contiguous

    @pytest.mark.parametrize("arr", [frozen(sphere.sphere_grid(5)), frozen(np.array([0.6, 0.8, 0.0]))],
                             ids=["batch", "3-vector"])
    def test_frozen_input_kept(self, arr):
        # read-only, C-ordered float64 and owning its memory: nothing but a
        # view made before the freeze could write to it, so it is not copied
        assert held(arr) is arr

    @pytest.mark.parametrize("arr", [
        sphere.sphere_grid(5),
        frozen(sphere.sphere_grid(5)[:]),
        frozen(np.asfortranarray(sphere.sphere_grid(5))),
        frozen(np.eye(3, dtype=np.float32)),
    ], ids=["writable", "read-only-view", "fortran", "float32"])
    def test_other_inputs_copied(self, arr):
        out = held(arr)
        assert out.dtype == np.float64 and out.flags.c_contiguous and not out.flags.writeable
        assert not np.shares_memory(out, arr)
        assert out.tolist() == arr.tolist()

    @pytest.mark.parametrize("vecs", [
        1.0, [1.0, 0.0], [[1.0, 0.0]], np.empty((0, 3)), np.ones((1, 1, 3)) / np.sqrt(3.0),
        [2.0, 0.0, 0.0], [np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [[1.0, 0.0, 0.0], [0.0, 0.5, 0.0]],
        ["a", "b", "c"], [[1.0, 0.0, 0.0], [0.0, 1.0]],
    ])
    def test_rejects(self, vecs):
        with pytest.raises(ValueError):
            sphere.unit_checked(vecs)


def axis_sum_is_unit(vec) -> bool:
    """The check is_unit replaced: the squared norms by a reduction over the last axis."""
    arr = np.asarray(vec, dtype=np.float64)
    return bool(np.all(np.abs(np.sum(arr * arr, axis=-1) - 1.0) <= sphere.UNIT_NORM_TOL))


class TestIsUnit:
    """is_unit sums the squares column by column, in the order of the axis sum."""

    def test_agrees_at_the_tolerance(self, rng):
        # rows scaled so that their squared norms land within a few ulps of
        # 1 +- UNIT_NORM_TOL, on both sides of the edge
        rows = sphere.random_unit_vectors(rng, 200)
        edge = 1.0 + sphere.UNIT_NORM_TOL * np.array([-1.0, 1.0])
        offsets = np.arange(-4, 5) * np.finfo(np.float64).eps
        verdicts = []
        for sq in (edge[:, None] + offsets).ravel():
            scaled = rows * np.sqrt(sq)
            assert sphere.is_unit(scaled) == axis_sum_is_unit(scaled)
            for row in scaled:
                verdicts.append(sphere.is_unit(row))
                assert verdicts[-1] == axis_sum_is_unit(row)
        assert set(verdicts) == {True, False}

    @pytest.mark.parametrize("row", [
        [np.nan, 0.0, 0.0], [0.0, 0.0, np.inf], [-np.inf, 0.0, 0.0], [np.inf, np.nan, 0.0],
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.6, 0.0, -0.8], [1.0 + 1e-12, 0.0, 0.0],
    ])
    def test_agrees_on_special_rows(self, row):
        batch = np.array([[0.0, 1.0, 0.0], row])
        assert sphere.is_unit(row) == axis_sum_is_unit(row)
        assert sphere.is_unit(batch) == axis_sum_is_unit(batch)


def outcome(fn, vec):
    """The bytes fn returns for vec, or the ValueError it raises."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(vec).tobytes()
    except ValueError:
        return ValueError


# any float, and the special ones: signed zeros, infinities, NaN, squares
# that overflow and a subnormal
COMPONENT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1.0, 1.0),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 1e154, -1e155, 1e300, 5e-324]),
)


@st.composite
def near_unit_edge(draw) -> np.ndarray:
    """A direction scaled so that its squared norm lands within a few ulps
    of 1 +- UNIT_NORM_TOL, on either side of the edge."""
    direction = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
        lambda t: sum(x * x for x in t) > 0.01)))
    sq = 1.0 + draw(st.sampled_from([-1.0, 1.0])) * sphere.UNIT_NORM_TOL
    sq += draw(st.integers(-4, 4)) * np.finfo(np.float64).eps
    return direction / np.linalg.norm(direction) * np.sqrt(sq)


VECTORS = st.one_of(st.tuples(COMPONENT, COMPONENT, COMPONENT).map(np.array), near_unit_edge())


class TestThreeVectorPath:
    """unit_checked and normalize take a single 3-vector through Python floats;
    they must give the bits, and the verdict, of a batch of one."""

    @hyp_settings(max_examples=400, deadline=None)
    @given(VECTORS)
    def test_unit_checked_matches_batch(self, vec):
        assert outcome(sphere.unit_checked, vec) == outcome(lambda v: sphere.unit_checked(v[None])[0], vec)

    @hyp_settings(max_examples=400, deadline=None)
    @given(VECTORS)
    def test_normalize_matches_batch(self, vec):
        assert outcome(sphere.normalize, vec) == outcome(lambda v: sphere.normalize(v[None])[0], vec)

    @pytest.mark.parametrize("row", [
        [np.nan, 0.0, 0.0], [0.0, 0.0, np.inf], [-np.inf, 0.0, 0.0], [0.0, 0.0, 0.0],
        [-0.0, 1.0, -0.0], [0.6, 0.0, -0.8], [1e155, 0.0, 0.0], [1e-200, 0.0, 0.0],
        [1.0 + 1e-12, 0.0, 0.0], [1.0 - 1e-12, 0.0, 0.0], [3.0, 4.0, 0.0],
    ])
    def test_special_rows(self, row):
        vec = np.array(row)
        assert outcome(sphere.unit_checked, vec) == outcome(lambda v: sphere.unit_checked(v[None])[0], vec)
        assert outcome(sphere.normalize, vec) == outcome(lambda v: sphere.normalize(v[None])[0], vec)
        with np.errstate(over="ignore"):
            assert (outcome(sphere.unit_checked, vec) is ValueError) != axis_sum_is_unit(vec)


class TestRandomUnitVectors:
    def test_unit_norm_invariant(self, rng):
        v = sphere.random_unit_vectors(rng, 1000)
        assert np.all(np.abs(np.linalg.norm(v, axis=1) - 1.0) <= 1e-12)

    def test_mean_vector_small(self):
        # CLT: each coordinate mean is O(1/sqrt(n))
        rng = sphere.make_rng(7, 0)
        pts = sphere.random_unit_vectors(rng, 100_000)
        assert np.linalg.norm(pts.mean(axis=0)) <= 0.02

    def test_hemisphere_balance(self):
        rng = sphere.make_rng(8, 0)
        pts = sphere.random_unit_vectors(rng, 100_000)
        frac = np.mean(pts[:, 2] > 0)
        assert 0.49 <= frac <= 0.51

    def test_stream_reproducibility(self):
        a = sphere.random_unit_vectors(sphere.make_rng(3, 5), 100)
        b = sphere.random_unit_vectors(sphere.make_rng(3, 5), 100)
        c = sphere.random_unit_vectors(sphere.make_rng(3, 6), 100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_block_streams_disjoint(self):
        a = sphere.make_rng(3, 5, block=0).random(10)
        b = sphere.make_rng(3, 5, block=1).random(10)
        assert not np.array_equal(a, b)


class TestSphereGrid:
    def test_single_point_on_equator(self):
        pts = sphere.sphere_grid(1)
        assert pts.shape == (1, 3)
        assert abs(pts[0, 2]) < 1.0
        assert pts[0, 2] == pytest.approx(0.0, abs=1e-15)

    def test_unit_norm(self):
        pts = sphere.sphere_grid(100)
        assert np.all(np.abs(np.einsum("ij,ij->i", pts, pts) - 1.0) <= 1e-12)

    def test_mean_dot_near_zero(self, rng):
        # exact spherical average of u.a is 0 for any fixed a
        pts = sphere.sphere_grid(1000)
        for a in sphere.random_unit_vectors(rng, 5):
            assert abs(np.mean(pts @ a)) <= 0.01

    def test_deterministic(self):
        assert np.array_equal(sphere.sphere_grid(257), sphere.sphere_grid(257))

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            sphere.sphere_grid(0)
