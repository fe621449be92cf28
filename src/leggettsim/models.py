"""Hidden-variable models: subensemble distributions and conditional laws.

A model is a settings-independent distribution over hidden vector pairs
(u, v) together with a coupling rule that fixes the joint conditional law
of the two +/-1 outcomes. The conditional marginals are always the
Malus-law values P(A=1) = (1 + u.a)/2 and P(B=1) = (1 + v.b)/2; the
coupling only decides how the two outcomes correlate beyond that.
``outcome_law`` is the one place where a model's atoms meet a settings
pair: the draws, the exact values and ``bounds.averaged_bounds`` all read
the u.a and v.b it takes once per atom.

Sampling draws an atom by its weight through a guide table over the weight
CDF (Chen and Asau, 1974; Devroye, *Non-Uniform Random Variate Generation*,
1986, III.2.4), built once per distribution, and a binary search inside
each key's bucket: one search for any weights, a few passes longer where
uneven weights crowd many atoms into one bucket. The couplings live in
``kernels``. Outcomes come back as +/-1 int8 arrays.

Every JSON input is read here one way: through a table of ``Field``s
(``read_fields``, ``read_variant``), whose readers check and convert one
value each (``integer``, ``real``, ``typed``, ``choice``, ``list_of``,
``vector``, ``float_array``). A config, a model file (``MODEL``) and a
certificate (``certify.CERTIFICATES``) all go through them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import kernels, sphere
from .kernels import Coupling

WEIGHT_SUM_TOL = 1e-12
# JSON loads renormalize weight sums within this tolerance, reject beyond it.
LOAD_RENORM_TOL = 1e-9


def is_integer(x) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_number(x) -> bool:
    """A JSON number: an int or a float that is not a bool (a numeric string is not one)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def float_array(values, name: str) -> np.ndarray:
    """Reader of a JSON list of numbers as float64, NaN and inf included.

    Anything else raises ValueError, as does an integer beyond the float64
    range, which numpy would raise as OverflowError.
    """
    if not isinstance(values, list) or not all(map(is_number, values)):
        raise ValueError(f"{name} must be a list of numbers")
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{name} must be float64 numbers") from None


REQUIRED = object()


class Field(NamedTuple):
    """One field of a JSON object: ``read(value, name)`` checks and converts
    its value. A field without a default is required; with a default of None,
    leaving it out or giving null means "not given"."""

    name: str
    read: Callable[[object, str], object]
    default: object = REQUIRED


def read_fields(table: tuple[Field, ...], spec, where: str) -> dict:
    """Read an object through its table: take each field from the object or
    its default and read it, then reject unknown keys. ``partial(read_fields,
    table)`` is the reader of a nested object."""
    if not isinstance(spec, dict):
        raise ValueError(f"{where} must be an object, got {spec!r}")
    out = {}
    for name, read, default in table:
        value = spec.get(name, default)
        if value is REQUIRED:
            raise ValueError(f"{where} requires {name!r}")
        out[name] = None if value is None and default is None else read(value, name)
    # out holds every field of the table, so the keys beyond it are unknown
    if not spec.keys() <= out.keys():
        raise ValueError(f"unknown {where} keys: {sorted(spec.keys() - out.keys())}")
    return out


def read_variant(spec, where: str, key: str, tables: dict) -> tuple[str, dict]:
    """Read an object whose ``key`` names the table the rest of it is read through."""
    if not isinstance(spec, dict) or key not in spec:
        raise ValueError(f"{where} must be an object with a {key!r} key, got {spec!r}")
    return spec[key], read_fields(choice(tables)(spec[key], key), {k: v for k, v in spec.items() if k != key}, where)


def integer(lo: int, hi: float = math.inf):
    """Reader of a count or seed in [lo, hi): a JSON integer, or a float with no
    fractional part. Booleans, fractions and strings are refused, not truncated."""
    def read(value, name: str) -> int:
        n = int(value) if isinstance(value, float) and value.is_integer() else value
        if not (is_integer(n) and lo <= n < hi):
            raise ValueError(f"{name} must be an integer in [{lo}, {hi}), got {value!r}")
        return n
    return read


def real(lo: float = -math.inf, hi: float = math.inf):
    """Reader of a finite real number in [lo, hi]: a JSON integer or float.
    Booleans and strings are rejected rather than converted."""
    # NaN fails every comparison, and an integer beyond the float64 range
    # fails the bounds clamped to that range, so float() cannot overflow
    low, high = max(lo, -sys.float_info.max), min(hi, sys.float_info.max)

    def read(value, name: str) -> float:
        if not (is_number(value) and low <= value <= high):
            raise ValueError(f"{name} must be a finite number in [{lo}, {hi}], got {value!r}")
        return float(value)
    return read


def typed(kind: type, what: str):
    """Reader of a value of JSON type ``kind``, taken as it is."""
    def read(value, name: str):
        if not isinstance(value, kind):
            raise ValueError(f"{name} must be {what}, got {value!r}")
        return value
    return read


TEXT = typed(str, "a string")
REAL = real()


def choice(options: dict):
    """Reader of one of the string keys of ``options``, read as its value."""
    def read(value, name: str):
        if not isinstance(value, str) or value not in options:
            raise ValueError(f"{name} must be one of {sorted(options)}, got {value!r}")
        return options[value]
    return read


def list_of(read, what: str):
    """Reader of a non-empty list whose items are read by ``read``."""
    def read_list(value, name: str) -> list:
        if not isinstance(value, list) or not value:
            raise ValueError(f"{name} must be a non-empty list of {what}, got {value!r}")
        return [read(item, f"{name}[{i}]") for i, item in enumerate(value)]
    return read_list


def vector(value, name: str) -> list:
    """Reader of a list of three finite numbers, taken as it is."""
    if not isinstance(value, list) or len(value) != 3:
        raise ValueError(f"{name} must be a list of three numbers, got {value!r}")
    for x in value:
        REAL(x, name)
    return value


def hold(record, **fields) -> None:
    """Set fields of a frozen record, each ndarray marked read-only in place,
    so no later write gets past the checks the record made when it was
    built. The arrays must be ones no other code holds: a fresh copy, or
    one the caller has just built."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(record, name, value)


@dataclass(frozen=True, eq=False)
class SettingsPair:
    """Measurement directions chosen by the two experimenters."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a, b = sphere.unit_copy(self.a), sphere.unit_copy(self.b)
        if a.ndim != 1 or b.ndim != 1:
            raise ValueError("each setting must be a single unit 3-vector")
        hold(self, a=a, b=b)


@dataclass(frozen=True, eq=False)
class SubensembleDistribution:
    """Atomic (weighted point-mass) distribution over hidden pairs (u, v).

    Arrays are immutable after construction; zero-weight atoms are pruned
    and the weights, a 1-D array, must sum to 1 within 1e-12. Nothing in
    the structure can reference measurement settings, so the weight CDF
    (last entry set to 1.0) and its guide table (see ``_guide_table``),
    which the sampler reads, are built here once. ``cdf`` holds one entry
    per atom followed by the padding of ``_padded``, which the sampler's
    probes read past the last atom.
    """

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    cdf: np.ndarray = field(init=False, repr=False)
    guide: np.ndarray = field(init=False, repr=False)
    scan: int = field(init=False, repr=False)

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 1:
            raise ValueError(f"atom weights must be a 1-D array, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("atom weights must be finite")
        if np.any(w < 0):
            raise ValueError("atom weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError("atom weights must sum to 1 within 1e-12")
        keep = w > 0.0
        # the table is built before the vectors are copied, so its
        # temporaries never sit beside those copies
        cdf = np.cumsum(w[keep])
        cdf[-1] = 1.0
        guide, scan = _guide_table(cdf)
        cdf = _padded(cdf, scan)
        u = np.atleast_2d(sphere.unit_copy(self.u))
        v = np.atleast_2d(sphere.unit_copy(self.v))
        if u.shape != v.shape or u.shape[0] != w.shape[0]:
            raise ValueError("atom arrays must have shapes (m, 3), (m, 3), (m,)")
        w = w[keep]
        if w.shape[0] < u.shape[0]:
            u, v = u[keep], v[keep]  # fresh copies of checked rows
        hold(self, u=u, v=v, w=w, cdf=cdf, guide=guide, scan=scan)

    @property
    def n_atoms(self) -> int:
        return self.w.shape[0]


def point_mass(u, v) -> SubensembleDistribution:
    """Single-atom distribution at (u, v)."""
    return SubensembleDistribution(np.asarray(u)[None, :], np.asarray(v)[None, :], [1.0])


def _check_atom_count(n_atoms: int) -> None:
    if n_atoms < 1:
        raise ValueError("atom count must be >= 1")


def isotropic_product(n_atoms: int, rng: np.random.Generator) -> SubensembleDistribution:
    """u and v independent uniform on the sphere, equal weights."""
    _check_atom_count(n_atoms)
    u = sphere.random_unit_vectors(rng, n_atoms)
    v = sphere.random_unit_vectors(rng, n_atoms)
    return SubensembleDistribution(u, v, np.full(n_atoms, 1.0 / n_atoms))


def mirrored(n_atoms: int, rng: np.random.Generator) -> SubensembleDistribution:
    """v = -u with u uniform on the sphere, equal weights."""
    _check_atom_count(n_atoms)
    u = sphere.random_unit_vectors(rng, n_atoms)
    return SubensembleDistribution(u, -u, np.full(n_atoms, 1.0 / n_atoms))


COUPLINGS = choice({c.value: c for c in Coupling})
# a model file, the form LeggettModel.to_dict writes
ATOM = (Field("u", vector), Field("v", vector), Field("w", real(0.0)))


def _atom_row(value, name: str) -> tuple:
    """An atom read through ATOM, as its row of seven numbers: u, v, then w.
    The garbage collector stops tracking a tuple of numbers at its first
    pass, where a dict that holds the two lists stays tracked: kept for
    every atom of a large file, those dicts cost a full collection."""
    atom = read_fields(ATOM, value, name)
    return (*atom["u"], *atom["v"], atom["w"])


MODEL = (Field("atoms", list_of(_atom_row, "atom objects")), Field("coupling", COUPLINGS))


@dataclass(frozen=True)
class LeggettModel:
    """A subensemble distribution plus a conditional coupling rule."""

    distribution: SubensembleDistribution
    coupling: Coupling

    def to_dict(self) -> dict:
        d = self.distribution
        return {
            "atoms": [
                {"u": list(map(float, d.u[i])), "v": list(map(float, d.v[i])), "w": float(d.w[i])}
                for i in range(d.n_atoms)
            ],
            "coupling": self.coupling.value,
        }

    @classmethod
    def from_dict(cls, data) -> "LeggettModel":
        """Read the form ``to_dict`` writes, through the MODEL table; anything
        else raises ValueError. Weights that sum to within LOAD_RENORM_TOL of
        1 are renormalized, and the vectors are normalized."""
        f = read_fields(MODEL, data, "model")
        rows = np.array(f["atoms"], dtype=np.float64)
        w = rows[:, 6].copy()  # contiguous, so its sum adds the weights in the order it always has
        total = float(w.sum())
        if abs(total - 1.0) > LOAD_RENORM_TOL:
            raise ValueError(f"atom weights sum to {total!r}, outside the 1e-9 load tolerance")
        u, v = sphere.normalize(rows[:, :3]), sphere.normalize(rows[:, 3:6])
        return cls(SubensembleDistribution(u, v, w / total), f["coupling"])


class OutcomeLaw(NamedTuple):
    """A model's atoms projected onto one settings pair.

    ``w`` are the atom weights and ``alpha``, ``beta`` each atom's u.a and
    v.b; the averaged bounds read only these three. ``cdf``, ``guide`` and
    ``scan`` are the distribution's weight table (see
    ``SubensembleDistribution``) and ``coupling`` the model's coupling. The
    law holds no marginals: ``pa`` and ``pb`` compute them, and the sampler
    forms them only for the atoms it draws.
    """

    w: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    cdf: np.ndarray
    guide: np.ndarray
    scan: int
    coupling: Coupling

    @property
    def pa(self) -> np.ndarray:
        """The Malus marginals P(A=1) = (1 + alpha)/2."""
        return (1.0 + self.alpha) / 2.0

    @property
    def pb(self) -> np.ndarray:
        """The Malus marginals P(B=1) = (1 + beta)/2."""
        return (1.0 + self.beta) / 2.0

    @property
    def rows(self) -> int:
        """Uniform rows one draw reads: the atom key, u1, and u2 only for
        the independent coupling, the one coupling that reads it."""
        return 3 if self.coupling is Coupling.INDEPENDENT else 2


def outcome_law(model: LeggettModel, settings: SettingsPair) -> OutcomeLaw:
    """The one projection of a model's atoms onto a settings pair, built
    once per setting and read by its draws, exact values and bounds."""
    d = model.distribution
    return OutcomeLaw(d.w, sphere.dots(d.u, settings.a), sphere.dots(d.v, settings.b),
                      d.cdf, d.guide, d.scan, model.coupling)


def exact_model_correlation(law: OutcomeLaw) -> float:
    """Closed-form E(AB): the weighted mean of E(AB | u, v) = 4 p_pp - 2 pa - 2 pb + 1,
    which the three couplings make alpha*beta, 1 - |alpha - beta| and -1 + |alpha + beta|."""
    pa, pb = law.pa, law.pb
    value = float(law.w @ (4.0 * law.coupling.p_pp(pa, pb) - 2.0 * pa - 2.0 * pb + 1.0))
    return min(1.0, max(-1.0, value))


def _guide_table(cdf: np.ndarray) -> tuple[np.ndarray, int]:
    """Guide table of ``cdf`` with K = len(cdf) + 1 buckets (Chen and Asau, 1974).

    Bucket k holds the keys x with ``int(x * K) == k``. ``guide[k]`` counts
    the CDF entries whose own bucket lies below k, and ``scan`` is the
    largest number of entries in any one bucket a key in [0, 1) can reach.
    x -> fl(x * K) is monotone, so every entry in a lower bucket than a key
    is <= it and every entry in a higher one is > it: the key's atom, the
    first index whose entry is > it, lies in ``[guide[k], guide[k + 1]]``,
    at most ``scan`` steps above ``guide[k]``. With K one more than the
    atom count, equal weights put each entry but the last, 1.0, in a bucket
    of its own, and the last in bucket K, which no key reaches: scan 1.
    """
    n_buckets = cdf.shape[0] + 1
    counts = np.bincount((cdf * n_buckets).astype(np.intp), minlength=n_buckets + 1)
    guide = np.zeros(n_buckets + 1, dtype=np.intp)
    np.cumsum(counts[:n_buckets], out=guide[1:])
    return guide, int(counts[:n_buckets].max())


def _padded(cdf: np.ndarray, scan: int) -> np.ndarray:
    """``cdf`` followed by P - 1 entries of 1.0, P = 2**scan.bit_length(),
    as ``_atom_indices`` reads it."""
    return np.concatenate([cdf, np.ones((1 << scan.bit_length()) - 1)])


def _atom_indices(cdf: np.ndarray, guide: np.ndarray, scan: int, keys: np.ndarray) -> np.ndarray:
    """For each key in [0, 1), the first index whose CDF entry is > it.

    Each key starts at the guide entry of its bucket (K = len(guide) - 1
    buckets), below its atom by at most ``scan``, and closes the gap by a
    binary search: steps P/2, ..., 2, 1 with P = 2**scan.bit_length() > scan,
    each taken where the entry just below the step's end is <= the key.
    That is scan.bit_length() passes for any weights. ``cdf`` is padded as
    ``_padded`` pads it: a key's index never passes its atom, so a probe
    lands at most P/2 - 1 entries past the last atom and reads 1.0, which
    no key reaches. The probes of a step are one ``take`` from the view
    that starts step - 1 entries in.
    """
    idx = guide.take((keys * (guide.shape[0] - 1)).astype(np.intp))
    step = (1 << scan.bit_length()) >> 1
    while step > 1:
        idx += step * (cdf[step - 1 :].take(idx) <= keys)
        step >>= 1
    if step:
        idx += cdf.take(idx) <= keys
    return idx


def sample_outcome_arrays(law: OutcomeLaw, uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """n independent draws of (A, B) as two +/-1 int8 arrays from ``law``.

    ``uniforms`` is one (``law.rows``, n) array: row 0 the atom keys, row 1
    u1, and row 2 u2, which only the independent coupling reads and so
    draws. ``rng.random((law.rows, n))`` fills it in the order that many
    successive ``rng.random(n)`` calls would. Each key picks the first atom
    whose CDF entry is > it, so a seeded stream gives the same outcomes
    however the search finds that atom. The marginals are formed only from
    the gathered u.a and v.b, with the bits of ``OutcomeLaw.pa``: 1 + x
    rounds once, and halving it is exact, so ``* 0.5`` (a multiply, about
    twice as fast as numpy's divide) gives the bits of ``/ 2``.
    """
    if uniforms.ndim != 2 or uniforms.shape[0] != law.rows or uniforms.shape[1] < 1:
        raise ValueError(f"uniforms must be a ({law.rows}, n) array with n >= 1 for the "
                         f"{law.coupling.value} coupling, got shape {uniforms.shape}")
    idx = _atom_indices(law.cdf, law.guide, law.scan, uniforms[0])
    pa, pb = law.alpha.take(idx), law.beta.take(idx)
    for p in (pa, pb):
        p += 1.0
        p *= 0.5
    u2 = uniforms[2] if law.rows == 3 else None
    return kernels.draw_outcomes(pa, pb, uniforms[1], u2, law.coupling)
