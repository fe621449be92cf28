"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import time

import numpy as np
import pytest

from leggettsim import sphere
from leggettsim.bounds import averaged_bounds, pointwise_identity
from leggettsim.certify import (
    CertStatus,
    TargetConstraint,
    AtomGrid,
    build_atom_grid,
    build_problem,
    solve,
    verify_certificate,
)
from leggettsim.cli import EXIT_OK, main
from leggettsim.models import (
    Coupling,
    LeggettModel,
    SettingsPair,
    SubensembleDistribution,
    exact_model_correlation,
    isotropic_product,
    mirrored,
    outcome_law,
)
from leggettsim.montecarlo import estimate_correlation
from leggettsim.optimize import FAMILIES, optimize_settings
from leggettsim.quantum import chsh_pairs, chsh_value, singlet_correlation, standard_planar_scenario

from conftest import law_correlation, point_law

# Frozen regression value: worst-grid infeasibility margin found by the
# seeded optimizer run in criterion 7 (budget 300, seed 2026, grids
# 24x24+64 and 48x48+256). Established once, pinned thereafter.
PINNED_VIOLATION_MARGIN = 0.46824942463078556

# The same run to the bit: repr of its per-grid margins and float.hex of its
# best parameters (the same with 1 and 2 OpenBLAS threads).
PINNED_VIOLATION_RUN = (
    "(0.4741782936542769, 0.4682494246307782)",
    ("0x1.def227ae25f75p-1", "0x1.baf6edad319acp+1", "0x1.0ea373fcdcfafp+1", "0x1.2bedf1668e9afp+1"),
)


def _report(criterion: int, label: str, elapsed: float) -> None:
    print(f"PASS criterion {criterion}: {label} ({elapsed:.3f}s)")


def _random_model(rng, max_atoms=12) -> LeggettModel:
    kind = int(rng.integers(3))
    coupling = list(Coupling)[int(rng.integers(3))]
    n = int(rng.integers(1, max_atoms + 1))
    if kind == 0:
        u = sphere.random_unit_vectors(rng, 1)
        v = sphere.random_unit_vectors(rng, 1)
        dist = SubensembleDistribution(u, v, [1.0])
    elif kind == 1:
        dist = isotropic_product(n, rng)
    else:
        dist = mirrored(n, rng)
    return LeggettModel(dist, coupling)


def test_criterion_1_pointwise_identity():
    start = time.perf_counter()
    for a in (-1, 1):
        for b in (-1, 1):
            lhs, mid, rhs = pointwise_identity(a, b)
            assert lhs == mid == rhs
    elapsed = time.perf_counter() - start
    assert elapsed < 1e-3
    _report(1, "pointwise identity exact on all 4 outcome pairs", elapsed)


def test_criterion_2_conditional_bounds():
    start = time.perf_counter()
    rng = sphere.make_rng(1001, 0)
    n = 10_000
    u = sphere.random_unit_vectors(rng, n)
    v = sphere.random_unit_vectors(rng, n)
    a = sphere.random_unit_vectors(rng, n)
    b = sphere.random_unit_vectors(rng, n)
    alpha = np.clip(np.sum(u * a, axis=1), -1.0, 1.0)
    beta = np.clip(np.sum(v * b, axis=1), -1.0, 1.0)
    lower = -1.0 + np.abs(alpha + beta)
    upper = 1.0 - np.abs(alpha - beta)
    # exact conditional correlations for the three couplings
    values = {
        Coupling.INDEPENDENT: alpha * beta,
        Coupling.COMONOTONE: 1.0 - np.abs(alpha - beta),
        Coupling.ANTIMONOTONE: -1.0 + np.abs(alpha + beta),
    }
    for coupling, e_ab in values.items():
        assert np.all(lower <= e_ab + 1e-12)
        assert np.all(e_ab <= upper + 1e-12)
    # cross-check the vectorized formulas against the enumeration oracle
    for i in range(100):
        law = point_law(u[i], v[i], SettingsPair(a[i], b[i]))
        for coupling in Coupling:
            oracle = law_correlation(law.pa[0], law.pb[0], coupling)
            assert abs(oracle - values[coupling][i]) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, "conditional bounds hold for 10^4 configurations x 3 couplings", elapsed)


def test_criterion_3_averaged_bounds():
    start = time.perf_counter()
    rng = sphere.make_rng(1002, 0)
    for _ in range(20):
        model = _random_model(rng)
        for _ in range(100):
            s = SettingsPair(*sphere.random_unit_vectors(rng, 2))
            law = outcome_law(model, s)
            b = averaged_bounds(law)
            value = exact_model_correlation(law)
            assert b.lower - 1e-12 <= value <= b.upper + 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(3, "exact correlations inside averaged bounds for 20 models x 100 settings", elapsed)


def test_criterion_4_monte_carlo_vs_oracle():
    start = time.perf_counter()
    rng = sphere.make_rng(1003, 0)
    hits = 0
    for k in range(100):
        model = _random_model(rng)
        law = outcome_law(model, SettingsPair(*sphere.random_unit_vectors(rng, 2)))
        est = estimate_correlation(law, 100_000, seed=5000 + k)
        exact = exact_model_correlation(law)
        se = max(est.se, 1e-12)
        if abs(est.mean - exact) <= 4 * se or est.mean == exact:
            hits += 1
    assert hits >= 99
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(4, f"Monte Carlo within 4 se of oracle in {hits}/100 configurations", elapsed)


def test_criterion_5_chsh():
    start = time.perf_counter()
    rng = sphere.make_rng(1004, 0)
    model = LeggettModel(isotropic_product(40, rng), Coupling.INDEPENDENT)
    corr = lambda s: exact_model_correlation(outcome_law(model, s))
    worst = 0.0
    for _ in range(10_000):
        scenario = chsh_pairs(*sphere.random_unit_vectors(rng, 4))
        worst = max(worst, abs(chsh_value(scenario, corr)))
    assert worst <= 2.0 + 1e-9
    s_singlet = chsh_value(standard_planar_scenario(), singlet_correlation)
    assert abs(s_singlet - 2.0 * np.sqrt(2.0)) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(5, f"separable max |S| = {worst:.6f} <= 2; singlet S = 2*sqrt(2)", elapsed)


def test_criterion_6_certification_soundness():
    start = time.perf_counter()
    rng = sphere.make_rng(1005, 0)
    grid = build_atom_grid(6, 6, n_mirrored=14)
    for _ in range(200):
        k = int(rng.integers(1, 6))
        constraints = [
            TargetConstraint(
                settings=SettingsPair(*sphere.random_unit_vectors(rng, 2)),
                e=float(rng.uniform(-1, 1)),
            )
            for _ in range(k)
        ]
        problem = build_problem(grid, constraints)
        cert = solve(problem)
        assert verify_certificate(problem, cert)

    # hand-checkable 2-atom system: admissible mass is capped at 0.5 < 1
    ex = np.array([1.0, 0.0, 0.0])
    ey = np.array([0.0, 1.0, 0.0])
    p2 = build_problem(
        AtomGrid(np.array([ex, ey]), np.array([ex, ey])),
        [TargetConstraint(settings=SettingsPair(ex, ex), e=-0.5),
         TargetConstraint(settings=SettingsPair(ey, ey), e=-0.5)],
    )
    cert2 = solve(p2)
    assert cert2.status is CertStatus.INFEASIBLE
    assert cert2.margin >= 0.5
    assert verify_certificate(p2, cert2)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(6, "200 randomized certificates verified; 2-atom system margin >= 0.5", elapsed)


def test_criterion_7_violation_witness():
    start = time.perf_counter()
    family = FAMILIES["orthogonal-doublets"]
    grids = [build_atom_grid(24, 24, 64), build_atom_grid(48, 48, 256)]
    assert grids[0].n_atoms >= 500
    assert grids[1].n_atoms >= 2000
    params, margins = optimize_settings(family, grids, budget=300, seed=2026)
    m_coarse, m_fine = margins
    assert m_coarse > 0.0 and m_fine > 0.0
    assert abs(m_coarse - m_fine) <= 0.2 * max(m_coarse, m_fine)
    assert min(margins) == pytest.approx(PINNED_VIOLATION_MARGIN, abs=1e-6)
    assert (repr(margins), tuple(float(x).hex() for x in params)) == PINNED_VIOLATION_RUN
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(
        7,
        f"singlet targets infeasible on both grids (margins {m_coarse:.6f}/{m_fine:.6f})",
        elapsed,
    )


def test_criterion_8_reproducibility(tmp_path):
    start = time.perf_counter()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"generator": "isotropic", "atoms": 100},
        "settings": {"random": 5},
        "samples": 20_000,
    }))
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    for out in (out1, out2):
        code = main(["simulate", "--config", str(config), "--seed", "99", "--output", str(out)])
        assert code == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(8, "simulate reruns byte-identical", elapsed)
