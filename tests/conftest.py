import numpy as np
import pytest

from leggettsim import make_rng
from leggettsim.models import (
    Coupling,
    LeggettModel,
    OutcomeLaw,
    SettingsPair,
    SubensembleDistribution,
    outcome_law,
    point_mass,
)

# the outcome pairs (A, B) in the order of joint_law's entries
OUTCOME_VALUES = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random rotation matrix via QR of a Gaussian matrix."""
    m = rng.standard_normal((3, 3))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def point_law(u, v, settings: SettingsPair, coupling: Coupling = Coupling.INDEPENDENT) -> OutcomeLaw:
    """The outcome law of the one-atom model at (u, v): ``pa[0]``, ``pb[0]``
    are that atom's Malus marginals, and its averaged bounds are the
    conditional bounds given (u, v)."""
    return outcome_law(LeggettModel(point_mass(u, v), coupling), settings)


def edge_distribution() -> SubensembleDistribution:
    """Five atoms at u = x, v = y whose weights sum to 1 + 2**-52, as a model
    file's weights do once renormalized on load: at a = +-x, b = +-y every
    weighted sum over them rounds a few ulps past +-1."""
    w = np.array([0.258, 0.119, 0.111, 0.408, 0.104])
    x, y = np.eye(3)[:2]
    return SubensembleDistribution(np.tile(x, (5, 1)), np.tile(y, (5, 1)), w / w.sum())


def joint_law(pa: float, pb: float, coupling: Coupling) -> np.ndarray:
    """Reference: one atom's joint law over (++, +-, -+, --) from the
    coupling's P(A=1, B=1), clipped against rounding at the edge of the
    probability simplex."""
    p_pp = coupling.p_pp(pa, pb)
    return np.clip(np.array([p_pp, pa - p_pp, pb - p_pp, 1.0 - pa - pb + p_pp]), 0.0, 1.0)


def law_correlation(pa: float, pb: float, coupling: Coupling) -> float:
    """Reference: E(AB) by exhaustive enumeration of the four-outcome law."""
    return sum(p * a * b for p, (a, b) in zip(joint_law(pa, pb, coupling), OUTCOME_VALUES))


def numpy_orthogonal_doublets(params) -> list[tuple[np.ndarray, np.ndarray]]:
    """Reference: the (a, b) settings of the orthogonal-doublets family as
    numpy arithmetic on the rows of np.eye(3) forms them, with b scaled by
    np.linalg.norm(axis=-1). ``optimize`` forms the same vectors in Python
    floats and must match these bit for bit."""
    theta, psis = params[0], params[1:]
    axes = np.eye(3)
    others = [(1, 2), (2, 0), (0, 1)]
    out = []
    for i in range(3):
        e = axes[i]
        j, k = others[i]
        m = np.cos(psis[i]) * axes[j] + np.sin(psis[i]) * axes[k]
        b_plus = np.cos(theta / 2.0) * m + np.sin(theta / 2.0) * e
        b_minus = np.cos(theta / 2.0) * m - np.sin(theta / 2.0) * e
        for b in (b_plus, b_minus):
            out.append((m, b / np.linalg.norm(b, axis=-1, keepdims=True)))
    return out


@pytest.fixture
def rng() -> np.random.Generator:
    return make_rng(12345, 0)
