"""Quantum singlet predictions and the CHSH combination."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .models import SettingsPair

TSIRELSON_BOUND = 2.0 * np.sqrt(2.0)
CLASSICAL_CHSH_BOUND = 2.0


@dataclass(frozen=True)
class ChshScenario:
    """Four measurement directions: two per side."""

    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray

    def __post_init__(self):
        # SettingsPair checks and copies the directions, two at a time
        for x, y in (("a", "b"), ("a_prime", "b_prime")):
            pair = SettingsPair(getattr(self, x), getattr(self, y))
            object.__setattr__(self, x, pair.a)
            object.__setattr__(self, y, pair.b)

    def pairs(self) -> list[SettingsPair]:
        return [
            SettingsPair(self.a, self.b),
            SettingsPair(self.a, self.b_prime),
            SettingsPair(self.a_prime, self.b),
            SettingsPair(self.a_prime, self.b_prime),
        ]


def planar_scenario(angle_a: float, angle_a_prime: float, angle_b: float, angle_b_prime: float) -> ChshScenario:
    """Scenario with all four directions in the xy-plane, angles in radians."""

    def vec(t: float) -> np.ndarray:
        return np.array([np.cos(t), np.sin(t), 0.0])

    return ChshScenario(vec(angle_a), vec(angle_a_prime), vec(angle_b), vec(angle_b_prime))


def standard_planar_scenario() -> ChshScenario:
    """The planar geometry at 0, 90, 225, 135 degrees that maximizes |S|
    for the singlet."""
    deg = np.pi / 180.0
    return planar_scenario(0.0, 90.0 * deg, 225.0 * deg, 135.0 * deg)


def singlet_correlation(settings: SettingsPair) -> float:
    """Singlet-state prediction E(AB) = -a.b (marginals are zero)."""
    return -min(1.0, max(-1.0, float(np.dot(settings.a, settings.b))))


def chsh_value(scenario: ChshScenario, corr: Callable[[SettingsPair], float]) -> float:
    """S = E(a,b) + E(a,b') + E(a',b) - E(a',b')."""
    pairs = scenario.pairs()
    return corr(pairs[0]) + corr(pairs[1]) + corr(pairs[2]) - corr(pairs[3])
