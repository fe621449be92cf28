"""Unit vectors on the sphere: construction, seeded sampling, Fibonacci grids.

All vectors are float64 numpy arrays. Single vectors have shape (3,),
batches have shape (n, 3). Random streams are counter-based (Philox) and
keyed by a (seed, stream_id) pair, so a given stream is reproducible
regardless of how work is scheduled.

``unit_copy`` and ``normalize`` take a single 3-vector through Python
floats, where a few float operations cost less than the numpy calls that
a batch needs. The squared norm is x*x + y*y + z*z, summed left to right:
the order of ``is_unit``'s column sums and of the last-axis reduction in
``np.linalg.norm(axis=-1)``. Each step rounds once in binary64, and
``math.sqrt`` is correctly rounded like ``np.sqrt``, so a 3-vector gets
the same bits, and the same verdict, as a batch of one.
"""

from __future__ import annotations

import math

import numpy as np

UNIT_NORM_TOL = 1e-12

# Fractional part of the golden ratio, used as the azimuth increment of the
# Fibonacci lattice.
GOLDEN_RATIO_CONJUGATE = (np.sqrt(5.0) - 1.0) / 2.0

_MIN_NORM = 1e-8


def make_rng(seed: int, stream_id: int = 0, block: int = 0) -> np.random.Generator:
    """Counter-based generator for the stream (seed, stream_id).

    ``block`` jumps the Philox counter to a disjoint region, letting one
    logical stream be split into independent sub-streams whose outputs do
    not depend on execution order.
    """
    bits = np.random.Philox(key=[seed, stream_id], counter=[0, block, 0, 0])
    return np.random.Generator(bits)


def normalize(vec) -> np.ndarray:
    """Scale a 3-vector (or (n, 3) batch) to unit norm.

    A finite vector whose squared norm overflows is first divided by its
    largest |component|; every other vector keeps the bits of x / |x|."""
    arr = np.asarray(vec, dtype=np.float64)
    if arr.shape == (3,):
        x, y, z = arr.tolist()
        n = math.sqrt(x * x + y * y + z * z)
        if n == math.inf:
            top = max(abs(x), abs(y), abs(z))
            if top < math.inf:
                return normalize([x / top, y / top, z / top])
        if n < _MIN_NORM:
            raise ValueError("cannot normalize a (near-)zero vector")
        return np.array([x / n, y / n, z / n])
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(arr, axis=-1, keepdims=True)
    if np.any(norm < _MIN_NORM):
        raise ValueError("cannot normalize a (near-)zero vector")
    out = arr / norm
    big = norm[..., 0] == np.inf
    if big.any():
        big &= np.isfinite(arr).all(axis=-1)
        rows = arr[big]
        out[big] = normalize(rows / np.abs(rows).max(axis=-1, keepdims=True))
    return out


def is_unit(vec) -> bool:
    """Whether every 3-vector of ``vec`` (shape (3,) or (n, 3)) is finite with
    a squared norm within UNIT_NORM_TOL of 1.

    The squares are summed column by column, x*x + y*y then + z*z: the same
    order, and so the same bits, as ``np.sum(vec * vec, axis=-1)``, without
    its per-row reduction or its (n, 3) temporary. The distance from 1 is
    taken in place, so no more than two (n,) float temporaries are held.
    """
    arr = np.atleast_2d(np.asarray(vec, dtype=np.float64))  # a (3,) vector's squares form an array too
    sq = arr[..., 0] * arr[..., 0]
    sq += arr[..., 1] * arr[..., 1]
    sq += arr[..., 2] * arr[..., 2]
    sq -= 1.0
    np.abs(sq, out=sq)
    return bool((sq <= UNIT_NORM_TOL).all())


def unit_copy(vecs) -> np.ndarray:
    """A checked, read-only, C-ordered float64 copy of a unit 3-vector or a
    non-empty (m, 3) batch of them.

    Anything else raises ValueError: another shape, a NaN, or a squared
    norm off 1 by more than UNIT_NORM_TOL. The copy keeps later writes to
    the caller's array from reaching the checked vectors. It is made after
    the check, so a large batch never holds its copy and the check's
    temporaries at once. An input already frozen (read-only, C-ordered
    float64, owning its memory) is checked and returned itself: no write
    can reach it unless a writable view of it was made before the freeze.
    """
    arr = np.asarray(vecs, dtype=np.float64)
    if arr.shape == (3,):
        x, y, z = arr.tolist()
        unit = abs(x * x + y * y + z * z - 1.0) <= UNIT_NORM_TOL
    elif arr.ndim != 2 or arr.shape[-1] != 3 or arr.size == 0:
        raise ValueError(f"expected a 3-vector or a non-empty (m, 3) batch, got shape {arr.shape}")
    else:
        unit = is_unit(arr)
    if not unit:
        raise ValueError("vectors must be finite with unit norm")
    if not arr.flags.writeable and arr.flags.c_contiguous and arr.flags.owndata:
        return arr
    out = np.array(arr, order="C")
    out.setflags(write=False)
    return out


def dots(vecs, ref) -> np.ndarray:
    """Row-wise inner products of an (n, 3) batch against one 3-vector,
    clamped to [-1, 1] in place, so a call allocates one (n,) array."""
    vals = np.asarray(vecs, dtype=np.float64) @ np.asarray(ref, dtype=np.float64)
    return vals.clip(-1.0, 1.0, out=vals)


def random_unit_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform points on the sphere, shape (n, 3).

    Gaussian triples are normalized; draws with norm below 1e-8 are
    redrawn (the rejection loop terminates with probability 1).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = rng.standard_normal((n, 3))
    norms = np.linalg.norm(out, axis=1)
    bad = norms < _MIN_NORM
    while np.any(bad):
        out[bad] = rng.standard_normal((int(bad.sum()), 3))
        norms[bad] = np.linalg.norm(out[bad], axis=1)
        bad = norms < _MIN_NORM
    return out / norms[:, None]


def sphere_grid(n: int) -> np.ndarray:
    """Deterministic Fibonacci lattice of n points on the sphere, shape (n, 3).

    z_k = 1 - 2(k + 0.5)/n, azimuth_k = 2*pi*k*phi with phi the golden
    ratio conjugate.
    """
    if n < 1:
        raise ValueError("sphere_grid requires n >= 1")
    k = np.arange(n, dtype=np.float64)
    z = 1.0 - 2.0 * (k + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    azimuth = 2.0 * np.pi * k * GOLDEN_RATIO_CONJUGATE
    pts = np.column_stack([r * np.cos(azimuth), r * np.sin(azimuth), z])
    # renormalize to keep the unit-norm invariant at 1e-12 even for large n
    return pts / np.linalg.norm(pts, axis=1)[:, None]
