"""End-to-end acceptance gate.

Each test exercises one headline capability at its stated tolerance and
records a one-line PASS/FAIL verdict that the terminal summary reprints.
"""

import math
import time

import numpy as np
import pytest

import conftest
from nlmc import (
    SimplexGrid,
    build_M,
    certify_ergodic_2,
    certify_ergodic_3,
    certify_unique,
    constant_generator,
    corpus,
    evolve,
    find_invariant,
    integrate_flow,
    sample_path,
)
from nlmc.certify import _defects
from nlmc.generator import _irreducible
from nlmc.simplex import _chart_jacobian

from helpers import (
    CONSUMER_PARAMS,
    bistable_scalar_drift,
    expm_oracle,
    random_rate_matrix,
    stationary_oracle,
    stays_in_simplex,
)

CONSUMER = corpus("consumer", CONSUMER_PARAMS)
UNIQUE_MIN_DET_BASELINE = 1.3724687512799956


def _record(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[ACCEPTANCE] criterion {number} ({name}): {status} ({detail})"
    conftest.ACCEPTANCE_RESULTS.append(line)
    print(line)


def test_criterion_1_oscillator_period_return():
    spec = corpus("oscillator")
    m0 = (0.2, 0.4, 0.4)
    tic = time.perf_counter()
    trajectory = evolve(spec, m0, 2.0 * math.pi)
    elapsed = time.perf_counter() - tic
    deviation = float(np.max(np.abs(trajectory.states[-1] - np.array(m0))))
    min_component = float(trajectory.states.min())
    ok = deviation <= 1e-4 and min_component >= 0.12 and elapsed < 1.0
    _record(
        1,
        "oscillator period-2pi return",
        ok,
        f"deviation={deviation:.2e}, min component={min_component:.4f}, {elapsed:.2f}s",
    )
    assert deviation <= 1e-4
    assert min_component >= 0.12
    assert elapsed < 1.0


def test_criterion_2_bistable_stationary_set():
    found = find_invariant(corpus("bistable"), SimplexGrid(2, 20))
    points = sorted(float(r.point.probs[0]) for r in found)
    set_ok = len(points) == 3 and bool(
        np.allclose(points, [0.25, 0.5, 0.75], atol=1e-8)
    )
    drift_values = [abs(bistable_scalar_drift(r)) for r in (0.25, 0.5, 0.75)]
    drift_ok = max(drift_values) <= 1e-14
    ok = set_ok and drift_ok
    _record(
        2,
        "bistable stationary set",
        ok,
        f"points={', '.join(f'{p:.10f}' for p in points)}, "
        f"max |f(root)|={max(drift_values):.1e}",
    )
    assert set_ok
    assert drift_ok


def test_criterion_3_bistable_basins():
    spec = corpus("bistable")
    cases = {0.05: 0.25, 0.3: 0.25, 0.6: 0.75, 0.9: 0.75}
    tic = time.perf_counter()
    errors = {}
    for start, limit in cases.items():
        trajectory = evolve(spec, (start, 1.0 - start), 50.0)
        errors[start] = abs(float(trajectory.final.probs[0]) - limit)
    elapsed = time.perf_counter() - tic
    worst = max(errors.values())
    ok = worst <= 1e-4 and elapsed < 1.0
    _record(
        3,
        "bistable basin convergence",
        ok,
        f"worst |final - limit|={worst:.2e} over starts "
        f"{sorted(cases)}, {elapsed:.2f}s total",
    )
    assert worst <= 1e-4
    assert elapsed < 1.0


def test_criterion_4_irreducible_but_not_ergodic():
    spec = corpus("bistable")
    certificate = certify_ergodic_2(spec, SimplexGrid(2, 40))
    refuted = (
        certificate.verdict == "REFUTED"
        and "uniqueness" in certificate.reason
        and len(certificate.evidence["witnesses"]) == 3
    )
    rng = np.random.default_rng(41)
    points = np.array([rng.dirichlet(np.ones(2)) for _ in range(100)])
    checked = _irreducible(spec.rates_batch(points))
    irreducible = bool(checked.all())
    ok = refuted and irreducible
    _record(
        4,
        "irreducible yet not strongly ergodic",
        ok,
        f"verdict={certificate.verdict}, witnesses="
        f"{len(certificate.evidence.get('witnesses', ()))}, "
        f"irreducible at {sum(checked)}/100 random points",
    )
    assert refuted
    assert irreducible


def test_criterion_5_uniqueness_certificate():
    tic = time.perf_counter()
    certificate = certify_unique(CONSUMER, SimplexGrid(3, 40))
    elapsed = time.perf_counter() - tic
    min_det = certificate.evidence.get("min_abs_determinant", 0.0)
    certified = certificate.verdict == "CERTIFIED" and min_det > 1e-8
    stable = min_det == pytest.approx(UNIQUE_MIN_DET_BASELINE, rel=1e-6)
    ok = certified and stable and elapsed < 30.0
    _record(
        5,
        "uniqueness certificate",
        ok,
        f"verdict={certificate.verdict}, min |det M|={min_det:.10f}, {elapsed:.1f}s",
    )
    assert certificate.verdict == "CERTIFIED"
    assert min_det > 1e-8
    assert min_det == pytest.approx(UNIQUE_MIN_DET_BASELINE, rel=1e-6)
    assert elapsed < 30.0


def test_criterion_6_ergodicity_certificate():
    tic = time.perf_counter()
    certificate = certify_ergodic_3(CONSUMER, SimplexGrid(3, 40))
    certified = (
        certificate.verdict == "CERTIFIED"
        and certificate.evidence["divergence_sign"] == -1.0
        and certificate.evidence["jacobian_determinant"] > 0
    )
    rest = np.asarray(certificate.evidence["rest_point"].probs)
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(10):
        m0 = rng.dirichlet(np.ones(3))
        trajectory = evolve(CONSUMER, m0, 100.0)
        worst = max(worst, float(np.max(np.abs(trajectory.states[-1] - rest))))
    elapsed = time.perf_counter() - tic
    converged = worst <= 1e-4
    ok = certified and converged and elapsed < 30.0
    _record(
        6,
        "ergodicity certificate",
        ok,
        f"verdict={certificate.verdict}, worst random-start gap at t=100: "
        f"{worst:.2e}, {elapsed:.1f}s",
    )
    assert certified
    assert converged
    assert elapsed < 30.0


def test_criterion_7_classical_regression():
    rng = np.random.default_rng(2024)
    worst_flow = 0.0
    worst_invariant = 0.0
    worst_det = 0.0
    for trial in range(20):
        s = 2 + trial % 3
        q = random_rate_matrix(rng, s)
        spec = constant_generator(q)
        m0 = rng.dirichlet(np.ones(s))

        flow = integrate_flow(spec, m0, 5.0, rtol=1e-10, atol=1e-12)
        for t in (0.5, 1.0, 5.0):
            gap = float(np.max(np.abs(flow.at_many([t])[0] - expm_oracle(q, m0, t))))
            worst_flow = max(worst_flow, gap)

        found = find_invariant(spec, SimplexGrid(s, 5))
        assert len(found) == 1
        gap = float(
            np.max(np.abs(np.asarray(found.points[0].probs) - stationary_oracle(q)))
        )
        worst_invariant = max(worst_invariant, gap)

        certificate = certify_unique(spec, SimplexGrid(s, 8 if s < 4 else 6))
        assert certificate.verdict == "CERTIFIED"
        target = (-1.0) ** (s - 1)
        for _ in range(2):
            det = float(np.linalg.det(build_M(spec, rng.dirichlet(np.ones(s)))))
            worst_det = max(worst_det, abs(det - target))

    ok = worst_flow <= 1e-8 and worst_invariant <= 1e-10 and worst_det <= 1e-8
    _record(
        7,
        "constant-chain regression",
        ok,
        f"worst flow gap={worst_flow:.1e}, worst invariant gap="
        f"{worst_invariant:.1e}, worst |det M - (-1)^(S-1)|={worst_det:.1e}",
    )
    assert worst_flow <= 1e-8
    assert worst_invariant <= 1e-10
    assert worst_det <= 1e-8


def test_criterion_8_property_suites():
    # Simplex invariance and tangent-cone audit across corpus runs.
    runs = (
        (corpus("bistable"), (0.9, 0.1), 50.0),
        (CONSUMER, (1 / 3, 1 / 3, 1 / 3), 20.0),
        (corpus("oscillator"), (0.2, 0.4, 0.4), 2.0 * math.pi),
    )
    audits_clean = True
    for spec, m0, horizon in runs:
        states = evolve(spec, m0, horizon).states
        audits_clean = audits_clean and stays_in_simplex(states, spec.drift_batch(states))

    # Second-order finite differences: halving the step shrinks the error
    # by ~4; require at least 3.5 at random smooth interior points.
    rng = np.random.default_rng(7)
    ratios = []
    for spec in (CONSUMER, corpus("bistable")):
        for _ in range(3):
            u = rng.dirichlet(np.ones(spec.dimension))[None, :-1]
            coarse, half, quarter = (
                _chart_jacobian(lambda rows: _defects(spec, rows), u, h)[0]
                for h in (1e-3, 5e-4, 2.5e-4)
            )
            e1 = float(np.linalg.norm(coarse - half))
            e2 = float(np.linalg.norm(half - quarter))
            ratios.append(e1 / e2)
    fd_ok = min(ratios) >= 3.5

    # Monte-Carlo consistency of the jump sampler against the flow.
    spec = corpus("bistable")
    m0 = (0.9, 0.1)
    flow = integrate_flow(spec, np.array(m0), 50.0)
    hits = 0
    n_paths = 10_000
    for seed in range(n_paths):
        path = sample_path(spec, m0, horizon=50.0, seed=seed, flow=flow)
        if path.state_at(50.0) == 0:
            hits += 1
    occupancy = hits / n_paths
    mc_ok = abs(occupancy - 0.75) <= 0.02

    ok = audits_clean and fd_ok and mc_ok
    _record(
        8,
        "structural property suites",
        ok,
        f"audits clean={audits_clean}, min FD ratio={min(ratios):.2f}, "
        f"state-1 occupancy={occupancy:.4f}",
    )
    assert audits_clean
    assert fd_ok
    assert mc_ok
