"""Quantum singlet predictions and the CHSH combination."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .models import SettingsPair

TSIRELSON_BOUND = 2.0 * np.sqrt(2.0)
CLASSICAL_CHSH_BOUND = 2.0


def chsh_pairs(a, a_prime, b, b_prime) -> tuple[SettingsPair, SettingsPair, SettingsPair, SettingsPair]:
    """The four settings pairs of a CHSH experiment, two directions per side:
    (a, b), (a, b'), (a', b), (a', b')."""
    return SettingsPair(a, b), SettingsPair(a, b_prime), SettingsPair(a_prime, b), SettingsPair(a_prime, b_prime)


def planar_scenario(angle_a: float, angle_a_prime: float, angle_b: float,
                    angle_b_prime: float) -> tuple[SettingsPair, ...]:
    """CHSH pairs with all four directions in the xy-plane, angles in radians."""

    def vec(t: float) -> np.ndarray:
        return np.array([np.cos(t), np.sin(t), 0.0])

    return chsh_pairs(vec(angle_a), vec(angle_a_prime), vec(angle_b), vec(angle_b_prime))


def standard_planar_scenario() -> tuple[SettingsPair, ...]:
    """The planar geometry at 0, 90, 225, 135 degrees that maximizes |S|
    for the singlet."""
    deg = np.pi / 180.0
    return planar_scenario(0.0, 90.0 * deg, 225.0 * deg, 135.0 * deg)


def singlet_correlation(settings: SettingsPair) -> float:
    """Singlet-state prediction E(AB) = -a.b (marginals are zero)."""
    return -min(1.0, max(-1.0, float(np.dot(settings.a, settings.b))))


def chsh_value(pairs: tuple[SettingsPair, ...], corr: Callable[[SettingsPair], float]) -> float:
    """S = E(a,b) + E(a,b') + E(a',b) - E(a',b') over the pairs of ``chsh_pairs``."""
    ab, ab_prime, a_prime_b, a_prime_b_prime = pairs
    return corr(ab) + corr(ab_prime) + corr(a_prime_b) - corr(a_prime_b_prime)
