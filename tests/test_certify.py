"""Uniqueness and ergodicity certificates: chart Jacobians, sweeps, verdicts."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

import nlmc.certify
from nlmc import (
    Certificate,
    CertificateEvaluationError,
    Distribution,
    GeneratorSpec,
    ReducedSystem,
    SimplexGrid,
    build_M,
    certify_ergodic_2,
    certify_ergodic_3,
    certify_unique,
    constant_generator,
    corpus,
    evolve,
    find_invariant,
)
from nlmc.certify import _defects
from nlmc.simplex import _chart_drift, _chart_embed, _chart_jacobian
from nlmc.stationary import StationaryResult, StationarySet

from helpers import (
    CONSUMER_PARAMS,
    RPS_GAME,
    bistable_scalar_drift,
    consumer_rest_point,
    fraction_dulac_field,
    random_polynomial_cells,
    random_rate_matrix,
    relabel,
    rps_mutator_cells,
    two_state_drift_roots,
    two_state_herding_cells,
)

CONSUMER = corpus("consumer", CONSUMER_PARAMS)


def _m1_drift(spec, m1) -> np.ndarray:
    """Drift of m_1 of a two-state generator at each m_1 of ``m1``."""
    m1 = np.asarray(m1, dtype=float)
    return spec.drift_batch(np.column_stack([m1, 1.0 - m1]))[:, 0]


def _bistable_chart_slope(m1: float) -> float:
    """Analytic d/dm1 [x1(m1)] - 1 for the two-state bistable generator.

    x1 = q21 / (q12 + q21) is the frozen-chain stationary mass of state 1.
    """
    q12 = 29.0 / 3.0 * m1**2 - 16.0 * m1 + 22.0 / 3.0
    q21 = m1**2 + m1 + 1.0
    dq12 = 58.0 / 3.0 * m1 - 16.0
    dq21 = 2.0 * m1 + 1.0
    total = q12 + q21
    return (dq21 * total - q21 * (dq12 + dq21)) / total**2 - 1.0


class TestCertificateContract:
    def test_verdict_vocabulary_is_enforced(self):
        with pytest.raises(ValueError):
            Certificate(
                claim="unique-invariant-distribution",
                verdict="MAYBE",
                reason="",
                generator_id="x",
                evidence={},
                tolerances={},
            )

    def test_certified_requires_positive_margin(self):
        with pytest.raises(ValueError):
            Certificate(
                claim="strong-ergodicity",
                verdict="CERTIFIED",
                reason="",
                generator_id="x",
                evidence={},
                tolerances={},
            )
        with pytest.raises(ValueError):
            Certificate(
                claim="strong-ergodicity",
                verdict="CERTIFIED",
                reason="",
                generator_id="x",
                evidence={"margin": -1.0},
                tolerances={},
            )

    def test_refuted_requires_witnesses(self):
        with pytest.raises(ValueError):
            Certificate(
                claim="strong-ergodicity",
                verdict="REFUTED",
                reason="",
                generator_id="x",
                evidence={"witnesses": []},
                tolerances={},
            )

    def test_json_export_is_canonical(self, tmp_path):
        spec = constant_generator([[-2.0, 2.0], [1.0, -1.0]])
        certificate = certify_ergodic_2(spec, SimplexGrid(2, 40))
        text = certificate.to_json_text()
        assert text.endswith("\n")
        doc = json.loads(text)
        assert set(doc) == {"claim", "verdict", "reason", "generator", "evidence", "tolerances"}
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        path = tmp_path / "certificate.json"
        certificate.to_json(path)
        assert path.read_text(encoding="utf-8") == text


class TestBuildM:
    def test_matches_analytic_chart_slope_for_two_states(self):
        spec = corpus("bistable")
        for m1 in (0.1, 0.3, 0.5, 0.7, 0.9):
            matrix = build_M(spec, (m1, 1.0 - m1))
            assert matrix.shape == (1, 1)
            expected = _bistable_chart_slope(m1)
            assert matrix[0, 0] == pytest.approx(expected, rel=1e-6)

    def test_degree_identity_sum_over_rest_points(self):
        # Signed determinant indices of the three rest points add up to the
        # degree of -identity on the chart, (-1)^(S-1) = -1 for S = 2.
        spec = corpus("bistable")
        signs = [
            float(np.sign(np.linalg.det(build_M(spec, (r, 1.0 - r)))))
            for r in (0.25, 0.5, 0.75)
        ]
        assert signs == [-1.0, 1.0, -1.0]
        assert sum(signs) == -1.0

    def test_second_order_convergence_under_step_halving(self):
        # M by build_M's stencil at m = (0.3, 0.45, 0.25), with other steps than FD_STEP.
        u = np.array([[0.3, 0.45]])
        coarse, half, quarter = (
            _chart_jacobian(lambda rows: _defects(CONSUMER, rows), u, h)[0]
            for h in (1e-3, 5e-4, 2.5e-4)
        )
        e1 = float(np.linalg.norm(coarse - half))
        e2 = float(np.linalg.norm(half - quarter))
        assert e1 / e2 >= 3.5

    def test_reducible_point_raises(self):
        with pytest.raises(CertificateEvaluationError):
            build_M(corpus("oscillator"), (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            build_M(CONSUMER, (0.5, 0.5))

    def test_takes_no_step(self):
        # M is always taken at FD_STEP, the step every certificate records.
        with pytest.raises(TypeError):
            build_M(corpus("bistable"), (0.3, 0.7), 1e-3)


class TestCertifyUnique:
    def test_consumer_is_certified(self):
        certificate = certify_unique(CONSUMER, SimplexGrid(3, 12))
        assert certificate.verdict == "CERTIFIED"
        assert certificate.certified
        assert certificate.claim == "unique-invariant-distribution"
        assert certificate.generator_id == CONSUMER.generator_id
        evidence = certificate.evidence
        assert evidence["margin"] > 0
        assert evidence["determinant_sign"] == 1.0
        assert evidence["min_abs_determinant"] > 1e-8
        assert evidence["label"] == "grid-certified"
        assert evidence["points_checked"] == len(SimplexGrid(3, 12))

    def test_binding_point_reproduces_the_least_determinant(self):
        grid = SimplexGrid(3, 12)
        evidence = certify_unique(CONSUMER, grid).evidence
        point = evidence["binding_point"]
        assert any(np.array_equal(point, row) for row in grid.array)
        det = abs(float(np.linalg.det(build_M(CONSUMER, point))))
        assert det == pytest.approx(evidence["min_abs_determinant"], rel=1e-9)

    def test_constant_chain_determinant_is_minus_identity(self):
        spec = constant_generator([[-2.0, 2.0, 0.0], [1.0, -2.0, 1.0], [0.5, 0.5, -1.0]])
        certificate = certify_unique(spec, SimplexGrid(3, 6))
        assert certificate.verdict == "CERTIFIED"
        assert certificate.evidence["min_abs_determinant"] == pytest.approx(1.0, abs=1e-8)
        assert certificate.evidence["max_abs_determinant"] == pytest.approx(1.0, abs=1e-8)

    def test_bistable_multistability_is_not_certified(self):
        certificate = certify_unique(corpus("bistable"), SimplexGrid(2, 30))
        assert certificate.verdict == "INCONCLUSIVE"
        assert "sign" in certificate.reason
        assert len(certificate.evidence["witnesses"]) == 2

    def test_oscillator_reducibility_refutes_the_precondition(self):
        certificate = certify_unique(corpus("oscillator"), SimplexGrid(3, 10))
        assert certificate.verdict == "REFUTED"
        assert "reducible" in certificate.reason
        assert certificate.evidence["witnesses"]
        assert certificate.evidence["reducible_points"] > 0

    def test_uniform_wrong_sign_trips_the_degree_guard(self, monkeypatch):
        # A genuine frozen-stationary map cannot have a uniformly wrong
        # determinant sign (the degree identity forbids it), so the guard is
        # exercised with a stubbed defect whose chart slope is +1.5.
        def fake_defects(spec, rows):
            return 1.5 * rows

        monkeypatch.setattr(nlmc.certify, "_defects", fake_defects)
        certificate = certify_unique(corpus("bistable"), SimplexGrid(2, 10))
        assert certificate.verdict == "INCONCLUSIVE"
        assert certificate.reason == "determinant sign contradicts the degree identity"
        assert certificate.evidence["determinant_sign"] == 1.0
        assert certificate.evidence["expected_sign"] == -1.0

    def test_reducible_probe_point_is_inconclusive(self):
        # Q12 = K (m1 - a)^2 vanishes exactly at the lower probe of the grid
        # point m1 = 1/2 (chart step 1e-6 * 1.5), while every grid point and
        # every other probe keeps Q12 above the rate floor.
        big, a = 1e4, 0.5 - 1.5e-6
        spec = GeneratorSpec(
            2,
            cells={
                (0, 1): [((2, 0), big), ((1, 0), -2.0 * big * a), ((0, 0), big * a * a)],
                (1, 0): [((0, 0), 1.0)],
            },
        )
        certificate = certify_unique(spec, SimplexGrid(2, 10))
        assert certificate.verdict == "INCONCLUSIVE"
        assert certificate.reason == "determinant could not be evaluated at a grid point"
        assert [list(w) for w in certificate.evidence["witnesses"]] == [[0.5, 0.5]]
        assert certificate.evidence["detail"] == (
            "frozen chain is reducible at probe point (0.4999985, 0.5000015)"
        )

    def test_grid_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            certify_unique(CONSUMER, SimplexGrid(2, 10))


class TestCertifyErgodicTwoStates:
    def test_scalar_drift_matches_direct_evaluation(self):
        m1 = np.linspace(0.0, 1.0, 21)
        for x, drift in zip(m1, _m1_drift(corpus("bistable"), m1)):
            assert drift == pytest.approx(bistable_scalar_drift(float(x)), abs=1e-12)

    def test_contracting_chain_is_certified(self):
        spec = constant_generator([[-2.0, 2.0], [1.0, -1.0]])
        certificate = certify_ergodic_2(spec, SimplexGrid(2, 40))
        assert certificate.verdict == "CERTIFIED"
        assert certificate.claim == "strong-ergodicity"
        assert certificate.evidence["margin"] > 1e-10
        root = certificate.evidence["rest_point"]
        assert root[0] == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert root[1] == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_bistable_multiple_roots_refute(self):
        certificate = certify_ergodic_2(corpus("bistable"), SimplexGrid(2, 40))
        assert certificate.verdict == "REFUTED"
        assert "multiple rest points" in certificate.reason
        witnesses = certificate.evidence["witnesses"]
        assert len(witnesses) == 3
        for witness, root in zip(witnesses, (0.25, 0.5, 0.75)):
            assert witness[0] == pytest.approx(root, abs=1e-9)
            assert witness[0] + witness[1] == pytest.approx(1.0, abs=1e-12)

    def test_a_vanishing_drift_lists_at_most_five_roots(self):
        # A drift that is zero on [0, 1] has a root every few grid points.
        still = constant_generator([[0, 0], [0, 0]])
        certificate = certify_ergodic_2(still, SimplexGrid(2, 20_300))
        assert certificate.verdict == "REFUTED"
        evidence = certificate.evidence
        assert evidence["root_count"] > 5
        assert len(evidence["roots"]) == len(evidence["witnesses"]) == 5
        assert evidence["roots"][0] == 0.0
        assert len(certificate.to_json_text()) < 4096
        bistable = certify_ergodic_2(corpus("bistable"), SimplexGrid(2, 40))
        assert "root_count" not in bistable.evidence

    def test_cubically_flat_rest_point_is_inconclusive(self):
        # Drift -(m1 - 1/2)^3 has slope 0 at its root, a grid point, so the field's
        # limit -f1'(1/2) there cannot clear its 1e-8 tolerance.
        cells = {
            (0, 1): [((0, 0), 0.825), ((1, 0), -1.5), ((2, 0), 0.8)],
            (1, 0): [((0, 0), 0.125), ((1, 0), 0.2), ((2, 0), 0.2)],
        }
        spec = GeneratorSpec(2, cells=cells)
        m1 = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.allclose(_m1_drift(spec, m1), -((m1 - 0.5) ** 3), rtol=0.0, atol=1e-15)
        certificate = certify_ergodic_2(spec, SimplexGrid(2, 40))
        assert certificate.verdict == "INCONCLUSIVE"
        assert certificate.reason == "two-state field magnitude below tolerance"
        assert certificate.evidence["witnesses"][0].tolist() == [0.5, 0.5]

    def test_a_drift_without_a_rest_point_is_inconclusive(self):
        # A rate into state 1 of -5e-11 passes validation (OFFDIAG_TOL is 1e-10),
        # and the drift -m1 - 5e-11 (1 - m1) then stays below zero on [0, 1].
        spec = GeneratorSpec(2, cells={(0, 1): [((0, 0), 1.0)], (1, 0): [((0, 0), -5e-11)]})
        certificate = certify_ergodic_2(spec, SimplexGrid(2, 40))
        assert certificate.verdict == "INCONCLUSIVE"
        assert certificate.reason == "the drift scan located no rest point"
        assert certificate.evidence["roots"] == []

    def test_boundary_rest_point_certifies_from_one_side(self):
        # All mass drains into state 2: the unique rest point sits at the
        # m1 = 0 vertex and every grid point lies to its right.
        spec = GeneratorSpec(2, cells={(0, 1): [((0, 0), 1.0), ((1, 0), 1.0)]})
        certificate = certify_ergodic_2(spec, SimplexGrid(2, 40))
        assert certificate.verdict == "CERTIFIED"
        assert certificate.evidence["rest_point"][0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("k", [10, 37])
    def test_lockstep_roots_match_a_scalar_bisection(self, k):
        def bisect(f, a, b, fa):
            while b - a > nlmc.certify.ROOT_REFINE_TOL:
                mid = 0.5 * (a + b)
                fm = f(mid)
                if fm == 0.0:
                    return mid
                if (fa > 0) == (fm > 0):
                    a, fa = mid, fm
                else:
                    b = mid
            return 0.5 * (a + b)

        def reference_roots(spec):
            def f(x):
                return float(_m1_drift(spec, [x])[0])

            xs = SimplexGrid(2, k).array[:, 0].tolist()
            vals = [f(x) for x in xs]
            near = [abs(v) <= nlmc.certify.ZERO_DRIFT_TOL for v in vals]
            raw = [x for x, zero in zip(xs, near) if zero]
            for n in range(k):
                if not (near[n] or near[n + 1]) and (vals[n] > 0) != (vals[n + 1] > 0):
                    raw.append(bisect(f, xs[n], xs[n + 1], vals[n]))
            roots = []
            for r in sorted(raw):
                if not roots or r - roots[-1] > 2.0 / k:
                    roots.append(r)
            return roots

        rng = np.random.default_rng(k)
        for _ in range(12):
            # q12 = a (m1 - r)^2 + c and q21 = d m1^2 + e m1 + g give up to three roots.
            a, r, c, d, e, g = rng.uniform([0.5, 0.0, 0.0, 0.0, 0.0, 0.0], [20, 1, 1, 3, 3, 1])
            spec = GeneratorSpec(
                2,
                cells={
                    (0, 1): [((2, 0), a), ((1, 0), -2.0 * a * r), ((0, 0), a * r * r + c)],
                    (1, 0): [((2, 0), d), ((1, 0), e), ((0, 0), g)],
                },
            )
            roots = certify_ergodic_2(spec, SimplexGrid(2, k)).evidence["roots"]
            assert roots == reference_roots(spec)
            assert roots

    @staticmethod
    def _count_rate_calls(monkeypatch) -> list:
        calls = []
        original = GeneratorSpec.rates_batch
        monkeypatch.setattr(
            GeneratorSpec, "rates_batch", lambda self, pts: calls.append(1) or original(self, pts)
        )
        return calls

    def test_midpoint_with_exact_zero_drift_is_the_root(self, monkeypatch):
        # Drift 3 - 32 m1 vanishes exactly at 3/32, the midpoint of the grid
        # bracket [1/16, 2/16], so the first halving ends the bisection; one more
        # call takes the drift at the root for the field.
        spec = constant_generator([[-29.0, 29.0], [3.0, -3.0]])
        spec.require_valid()
        calls = self._count_rate_calls(monkeypatch)
        certificate = certify_ergodic_2(spec, SimplexGrid(2, 16))
        assert certificate.evidence["roots"] == [0.09375]
        assert certificate.verdict == "CERTIFIED"
        assert len(calls) == 3

    def test_all_brackets_share_one_rate_call_per_halving(self, monkeypatch):
        spec = corpus("bistable")
        spec.require_valid()
        calls = self._count_rate_calls(monkeypatch)
        certificate = certify_ergodic_2(spec, SimplexGrid(2, 37))
        assert len(certificate.evidence["roots"]) == 3
        halvings = math.ceil(math.log2((1.0 / 37) / nlmc.certify.ROOT_REFINE_TOL))
        assert len(calls) <= 1 + halvings

    def test_wrong_dimension_raises(self):
        with pytest.raises(ValueError, match="requires a two-state generator"):
            certify_ergodic_2(CONSUMER, SimplexGrid(3, 10))

    def test_a_grid_on_another_state_count_is_refused_before_any_rate_call(self, monkeypatch):
        spec = corpus("bistable")
        calls = self._count_rate_calls(monkeypatch)
        with pytest.raises(ValueError, match="grid on 3 states does not match"):
            certify_ergodic_2(spec, SimplexGrid(3, 10))
        assert calls == []

    @pytest.mark.parametrize("k", [10, 40, 20_300])
    def test_constant_chains_have_the_closed_form_margin(self, k):
        # f1 = q21 - (q12 + q21) m1, so h = q12 + q21 at every grid point.
        rng = np.random.default_rng(k)
        for q12, q21 in rng.uniform(0.1, 10.0, (30, 2)):
            spec = constant_generator([[-q12, q12], [q21, -q21]])
            certificate = certify_ergodic_2(spec, SimplexGrid(2, k))
            assert certificate.verdict == "CERTIFIED"
            expected = q12 + q21 - nlmc.certify.DIV_TOL
            assert certificate.evidence["margin"] == pytest.approx(expected, rel=0.0, abs=1e-9)
            root = certificate.evidence["rest_point"][0]
            assert root == pytest.approx(q21 / (q12 + q21), rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("k", [20, 40])
    def test_refuted_exactly_when_numpy_finds_two_roots(self, k):
        refuted = 0
        for cells in two_state_herding_cells(40):
            roots = two_state_drift_roots(cells)
            certificate = certify_ergodic_2(GeneratorSpec(2, cells=cells), SimplexGrid(2, k))
            assert (certificate.verdict == "REFUTED") == (len(roots) >= 2)
            assert certificate.verdict in ("REFUTED", "CERTIFIED")
            for root in certificate.evidence["roots"]:
                assert np.min(np.abs(roots - root)) <= 1e-12
            refuted += certificate.verdict == "REFUTED"
        assert refuted >= 2

    def test_a_root_on_a_grid_point_takes_the_stencil_value(self):
        # f1 = 1 - 2 m1 vanishes at the grid point 1/2, where h = -f1'(1/2) = 2, not 0/0.
        spec = constant_generator([[-1.0, 1.0], [1.0, -1.0]])
        certificate = certify_ergodic_2(spec, SimplexGrid(2, 40))
        assert certificate.verdict == "CERTIFIED"
        assert certificate.evidence["rest_point"] == [0.5, 0.5]
        expected = 2.0 - nlmc.certify.DIV_TOL
        assert certificate.evidence["margin"] == pytest.approx(expected, rel=0.0, abs=1e-9)


class TestReducedSystem:
    def test_planar_drift_agrees_with_the_full_flow(self):
        system = ReducedSystem(CONSUMER)
        rng = np.random.default_rng(43)
        for _ in range(20):
            u = rng.dirichlet(np.ones(3))[:2]
            full = CONSUMER.drift(np.array([u[0], u[1], 1.0 - u[0] - u[1]]))
            planar = _chart_drift(system.spec, u[None])[0]
            assert np.allclose(planar, full[:2], atol=1e-14)

    def test_divergence_matches_analytic_value(self):
        # For the consumer generator div f = -(2 lam + b + 2 eps) - 2 e (m1 + m2) reduces to
        # -3.2 - 2 (m1 + m2) at the default parameters, and D = div f - sum_i f_i / m_i.
        system = ReducedSystem(CONSUMER)
        pts = np.array([[0.2, 0.3], [0.5, 0.4], [0.1, 0.1], [0.6, 0.05], [0.01, 0.98]])
        m1, m2, m3 = _chart_embed(pts).T
        f1 = m3 - m1 * (1.1 + m1)
        f2 = m1 + m3 - m2 * (m2 + 0.1)
        f3 = m1 * (m1 + 0.1) + m2 * (m2 + 0.1) - 2.0 * m3
        expected = -3.2 - 2.0 * (m1 + m2) - f1 / m1 - f2 / m2 - f3 / m3
        assert np.allclose(system.divergence_batch(pts), expected, rtol=0.0, atol=1e-8)

    @pytest.mark.parametrize("row", [(0.0, 0.0), (0.5, 0.5), (0.0, 0.3), (-0.02, 1.0), (0.6, 0.6)])
    def test_divergence_refuses_rows_off_the_open_simplex(self, row):
        # D carries 1/m_i, so a face row (some m_i = 0) or one outside the simplex has no value.
        with pytest.raises(ValueError, match="defined only on the open simplex"):
            ReducedSystem(CONSUMER).divergence_batch(np.array([[0.2, 0.3], row]))

    def test_divergence_of_a_constant_chain_matches_its_closed_form(self):
        # A linear flow has chart divergence tr Q, so D = -sum_{i != j} m_j Q_ji / m_i.
        rng = np.random.default_rng(17)
        for k in (10, 40, 200):
            for _ in range(10):
                q = random_rate_matrix(rng, 3)
                system = ReducedSystem(constant_generator(q))
                sweep = system.lattice(k)
                m = _chart_embed(sweep)
                expected = -sum(
                    m[:, j] * q[j, i] / m[:, i] for i in range(3) for j in range(3) if i != j
                )
                values = system.divergence_batch(sweep)
                assert np.allclose(values, expected, rtol=1e-8, atol=0.0), k

    def test_divergence_of_a_polynomial_spec_matches_exact_arithmetic(self):
        rng = np.random.default_rng(29)
        for _ in range(8):
            cells = random_polynomial_cells(rng, 3, 3)
            system = ReducedSystem(GeneratorSpec(3, cells=cells))
            for k in (10, 40):
                sweep = system.lattice(k)[::5]
                exact = [float(fraction_dulac_field(cells, p)) for p in _chart_embed(sweep)]
                values = system.divergence_batch(sweep)
                assert np.allclose(values, exact, rtol=0.0, atol=1e-8), k

    def test_jacobian_matches_analytic_value(self):
        system = ReducedSystem(CONSUMER)
        rest = consumer_rest_point()
        jac = system.jacobian(float(rest[0]), float(rest[1]))
        expected = np.array(
            [[-2.1 - 2.0 * rest[0], -1.0], [0.0, -1.1 - 2.0 * rest[1]]]
        )
        assert np.allclose(jac, expected, atol=1e-6)

    def test_lattice_is_the_interior_of_a_grid_three_finer(self):
        # Grid k's point a/k moves to (a + 1)/(k + 3): every m_i reaches 1/(k + 3) on its edge.
        system = ReducedSystem(CONSUMER)
        for k in (1, 6, 10, 40, 60, 200):
            sweep = system.lattice(k)
            assert sweep.shape == (math.comb(k + 2, 2), 2)
            finer = SimplexGrid(3, k + 3).array
            assert np.array_equal(sweep, finer[finer.min(axis=1) > 0.0][:, :2])
            lowest = _chart_embed(sweep).min(axis=0)
            assert np.allclose(lowest, 1.0 / (k + 3), rtol=0.0, atol=1e-15), (k, lowest)
        with pytest.raises(ValueError):
            ReducedSystem(corpus("bistable"))


class TestCertifyErgodicThreeStates:
    def test_consumer_is_certified(self):
        certificate = certify_ergodic_3(CONSUMER, SimplexGrid(3, 12))
        assert certificate.verdict == "CERTIFIED"
        evidence = certificate.evidence
        assert evidence["divergence_sign"] == -1.0
        assert evidence["margin"] > 0
        rest = np.asarray(evidence["rest_point"].probs)
        assert float(np.max(np.abs(rest - consumer_rest_point()))) < 1e-9
        expected_det = (2.1 + 2.0 * rest[0]) * (1.1 + 2.0 * rest[1])
        assert evidence["jacobian_determinant"] == pytest.approx(expected_det, rel=1e-4)
        assert evidence["saddle_discriminant"] > 0
        assert evidence["uniqueness"] == "degree"
        unique = certify_unique(CONSUMER, SimplexGrid(3, 12))
        assert evidence["uniqueness_margin"] == unique.evidence["margin"]

    def test_symmetric_circulant_chain_is_certified(self):
        spec = constant_generator(
            [[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]]
        )
        certificate = certify_ergodic_3(spec, SimplexGrid(3, 8))
        assert certificate.verdict == "CERTIFIED"
        # D = 3 - sum_i 1/m_i is weakest at the sweep points (4, 4, 3)/11, where it is -37/6.
        expected = 37.0 / 6.0 - 1e-8
        assert certificate.evidence["margin"] == pytest.approx(expected, rel=0.0, abs=1e-9)
        assert certificate.evidence["jacobian_determinant"] == pytest.approx(9.0, rel=1e-6)
        rest = np.asarray(certificate.evidence["rest_point"].probs)
        assert np.allclose(rest, 1.0 / 3.0, atol=1e-10)
        assert certificate.evidence["uniqueness"] == "degree"

    def test_oscillator_clamp_artifacts_refute_uniqueness(self):
        certificate = certify_ergodic_3(corpus("oscillator"), SimplexGrid(3, 6))
        assert certificate.verdict == "REFUTED"
        # The degree sweep refutes its own precondition, so the full search decides.
        assert certificate.evidence["uniqueness"] == "search"
        assert "uniqueness_margin" not in certificate.evidence
        assert "multiple invariant distributions" in certificate.reason
        assert len(certificate.evidence["witnesses"]) >= 2
        assert "extension_note" in certificate.evidence

    def test_nearly_static_chain_is_inconclusive(self):
        # A slow cyclic chain has divergence -3e-9, below the 1e-8 tolerance:
        # the sweep cannot distinguish it from a measure-preserving flow.
        eps = 1e-9
        spec = constant_generator(
            [[-eps, eps, 0.0], [0.0, -eps, eps], [eps, 0.0, -eps]]
        )
        certificate = certify_ergodic_3(spec, SimplexGrid(3, 6))
        assert certificate.verdict == "INCONCLUSIVE"
        assert "below tolerance" in certificate.reason
        assert certificate.evidence["min_abs_divergence"] < 1e-8

    def test_divergence_sign_change_is_inconclusive(self):
        # Rock-paper-scissors with mutation: its one rest point, the barycentre, is
        # surrounded by a limit cycle, which no certificate may call ergodic.
        spec = GeneratorSpec(3, cells=rps_mutator_cells(0.02, RPS_GAME))
        certificate = certify_ergodic_3(spec, SimplexGrid(3, 10))
        assert certificate.verdict == "INCONCLUSIVE"
        assert certificate.reason == "reduced-flow divergence changes sign on the open simplex"
        assert certificate.evidence["uniqueness"] == "search"
        assert np.allclose(certificate.evidence["rest_point"].probs, 1.0 / 3.0, atol=1e-12)
        witnesses = np.array(certificate.evidence["witnesses"], dtype=float)
        divergence = ReducedSystem(spec).divergence_batch(witnesses)
        assert certificate.evidence["divergences"] == divergence.tolist()
        assert divergence[0] > 0.0 > divergence[1]
        # The orbit persists: from near the barycentre and from near a corner, m1 still
        # swings by more than 0.7 over [900, 1000].
        starts = [(0.3, 0.33, 0.37), (0.05, 0.05, 0.9)]
        for trajectory in evolve(spec, starts, 1000.0, sample_every=0.1):
            late = trajectory.states[trajectory.times >= 900.0, 0]
            assert float(late.max() - late.min()) >= 0.7

    def test_a_positive_sweep_is_inconclusive(self):
        # With weak mutation D > 0 at every grid-10 sweep point, yet D -> -inf near each face
        # (P = m1 m2 m3 D = -f_i prod_{k != i} m_k < 0 there), so the sign is not uniform on
        # the open simplex, and indeed the barycentre is ringed by a limit cycle.
        spec = GeneratorSpec(3, cells=rps_mutator_cells(0.004, RPS_GAME))
        assert np.all(ReducedSystem(spec).divergence_batch(ReducedSystem(spec).lattice(10)) > 0.0)
        certificate = certify_ergodic_3(spec, SimplexGrid(3, 10))
        assert certificate.verdict == "INCONCLUSIVE"
        assert certificate.reason == "reduced-flow divergence sign contradicts its sign on the faces"
        assert certificate.evidence["divergence_sign"] == 1.0
        assert certificate.evidence["expected_sign"] == -1.0
        finer = certify_ergodic_3(spec, SimplexGrid(3, 40))
        assert finer.verdict == "INCONCLUSIVE"
        assert finer.reason == "reduced-flow divergence changes sign on the open simplex"
        # m1 swings by more than 0.9 over [900, 1000] (0.9357 measured) from both starts.
        starts = [(0.3, 0.33, 0.37), (0.05, 0.05, 0.9)]
        for trajectory in evolve(spec, starts, 1000.0, sample_every=0.1):
            late = trajectory.states[trajectory.times >= 900.0, 0]
            assert float(late.max() - late.min()) >= 0.9

    def test_saddle_linearization_is_inconclusive(self, monkeypatch):
        # Conservative frozen chains cannot produce a saddle at an isolated
        # rest point of this contracting chain, so the branch is exercised
        # with a stubbed linearization.
        spec = constant_generator(
            [[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]]
        )
        monkeypatch.setattr(
            nlmc.certify.ReducedSystem,
            "jacobian",
            lambda self, u1, u2, h=1e-6: np.array([[1.0, 0.0], [0.0, -3.0]]),
        )
        certificate = certify_ergodic_3(spec, SimplexGrid(3, 6))
        assert certificate.verdict == "INCONCLUSIVE"
        assert "saddle" in certificate.reason

    def test_wrong_dimension_raises(self):
        with pytest.raises(ValueError):
            certify_ergodic_3(corpus("bistable"), SimplexGrid(2, 10))

    def test_wrong_dimension_is_refused_before_any_rate_call(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("evaluated rates before checking the state count")

        monkeypatch.setattr(nlmc.generator.GeneratorSpec, "rates_batch", no_work)
        with pytest.raises(ValueError, match="^the planar reduction requires a three-state"):
            certify_ergodic_3(corpus("bistable"), SimplexGrid(2, 10))

    def test_divergence_binding_point_is_the_weakest_sweep_point(self):
        # D = -6.5 + 6 m1^2 - sum_i f_i / m_i is weakest at (0.4, 0.4, 0.2), where f3 = 0 and
        # f1 = -f2, so D = -5.54, away from the first sweep point; the degree sweep is
        # inconclusive at the m1 corner, so the full search decides.
        cells = {
            (0, 1): [((0, 0, 0), 3.0), ((2, 0, 0), -2.0)],
            (1, 0): [((0, 0, 0), 0.5)],
            (1, 2): [((0, 0, 0), 1.0)],
            (2, 0): [((0, 0, 0), 2.0)],
        }
        spec = GeneratorSpec(3, cells=cells)
        certificate = certify_ergodic_3(spec, SimplexGrid(3, 12))
        assert certificate.verdict == "CERTIFIED"
        assert certificate.evidence["uniqueness"] == "search"
        system = ReducedSystem(spec)
        sweep = system.lattice(12)
        divergence = np.abs(system.divergence_batch(sweep))
        weakest = certificate.evidence["divergence_binding_point"]
        assert np.array_equal(weakest, sweep[np.argmin(divergence)])
        assert np.allclose(weakest, (0.4, 0.4), rtol=0.0, atol=1e-15)
        assert certificate.evidence["min_abs_divergence"] == divergence.min()
        assert divergence.min() == pytest.approx(5.54, rel=0.0, abs=1e-8)

    @pytest.mark.parametrize("count", [0, 2])
    def test_a_small_search_without_one_distribution_falls_through(self, monkeypatch, count):
        # The degree premise searches from the grid point of least max-norm drift alone.
        grid = SimplexGrid(3, 10)
        seed = grid.array[np.argmin(np.max(np.abs(CONSUMER.drift_batch(grid.array)), axis=1))]
        search = nlmc.certify.find_invariant
        received = []

        def spy(spec, seeds):
            received.append(seeds)
            found = search(spec, seeds)
            if seeds is grid:
                return found
            corner = StationaryResult(Distribution((1.0, 0.0, 0.0)), 0.0, "boundary")
            results = {0: (), 2: (*found.results, corner)}[count]
            return dataclasses.replace(found, results=results)

        monkeypatch.setattr(nlmc.certify, "find_invariant", spy)
        certificate = certify_ergodic_3(CONSUMER, grid)
        assert len(received) == 2 and received[1] is grid
        assert received[0].shape == (3,) and received[0].tobytes() == seed.tobytes()
        assert certificate.verdict == "CERTIFIED"
        assert certificate.evidence["uniqueness"] == "search"
        rest = certificate.evidence["rest_point"].probs
        assert float(np.max(np.abs(rest - consumer_rest_point()))) < 1e-9

    def test_a_zero_chain_lists_at_most_five_invariants(self):
        certificate = certify_ergodic_3(constant_generator(np.zeros((3, 3))), SimplexGrid(3, 40))
        assert certificate.verdict == "REFUTED"
        evidence = certificate.evidence
        assert evidence["uniqueness"] == "search"
        assert evidence["invariant_count"] == len(SimplexGrid(3, 40)) == 861
        assert len(evidence["witnesses"]) == 5
        assert len(certificate.to_json_text()) < 2_000

    def test_no_invariant_from_any_seed_is_inconclusive(self, monkeypatch):
        monkeypatch.setattr(
            nlmc.certify,
            "certify_unique",
            lambda spec, grid: Certificate(
                "unique-invariant-distribution", "INCONCLUSIVE", "stub", "", {}, {}
            ),
        )
        monkeypatch.setattr(
            nlmc.certify, "find_invariant", lambda spec, grid: StationarySet((), 66, 66, 1e-10)
        )
        certificate = certify_ergodic_3(corpus("consumer", CONSUMER_PARAMS), SimplexGrid(3, 10))
        assert certificate.verdict == "INCONCLUSIVE"
        assert certificate.reason == "no invariant distribution found from any seed"
        assert certificate.evidence["uniqueness"] == "search"
        assert certificate.evidence["failed_seeds"] == 66

    def test_the_degree_premise_matches_the_full_search_on_random_consumer_sets(
        self, monkeypatch
    ):
        rng = np.random.default_rng(11)
        grid = SimplexGrid(3, 10)
        for _ in range(40):
            b, e, lam = rng.uniform(0.2, 5.0, 3)
            params = {"b": b, "e": e, "eps": rng.uniform(0.02, 0.5), "lam": lam}
            spec = corpus("consumer", params)
            fast = certify_ergodic_3(spec, grid)
            with monkeypatch.context() as patch:
                # A degree sweep that never certifies leaves the full search to decide.
                patch.setattr(
                    nlmc.certify,
                    "certify_unique",
                    lambda spec, grid: Certificate(
                        "unique-invariant-distribution", "INCONCLUSIVE", "stub", "", {}, {}
                    ),
                )
                slow = certify_ergodic_3(spec, grid)
            (found,) = find_invariant(spec, grid)
            assert fast.evidence["uniqueness"] == "degree"
            assert slow.evidence["uniqueness"] == "search"
            assert fast.verdict == slow.verdict == "CERTIFIED", params
            rest = fast.evidence["rest_point"].probs
            assert float(np.max(np.abs(rest - found.point.probs))) <= 1e-9
            assert float(np.max(np.abs(rest - slow.evidence["rest_point"].probs))) <= 1e-9
            assert fast.evidence["margin"] == pytest.approx(slow.evidence["margin"], rel=1e-6)


# Consumer's reference parameter sets (b, e, eps, lam).
_CONSUMER_SETS = [(1.0, 1.0, 0.1, 1.0), (2.0, 3.0, 0.05, 0.5), (0.5, 4.0, 0.01, 2.0)]
_ORDERS = list(itertools.permutations(range(3)))


class TestStateOrder:
    """Relabelling the states changes none of the paper's objects, so no certificate may move."""

    @pytest.mark.parametrize("k", [10, 40])
    @pytest.mark.parametrize("params", _CONSUMER_SETS, ids=str)
    def test_consumer_certificates_do_not_depend_on_state_order(self, params, k):
        spec = corpus("consumer", dict(zip(("b", "e", "eps", "lam"), params)))
        grid = SimplexGrid(3, k)
        ergodic = certify_ergodic_3(spec, grid)
        (found,) = find_invariant(spec, grid)
        m = np.array([0.2, 0.3, 0.5])
        for perm in _ORDERS:
            relabelled = relabel(spec, perm)
            permuted = spec.rates(m)[np.ix_(perm, perm)]
            assert np.allclose(relabelled.rates(m[list(perm)]), permuted, rtol=0.0, atol=1e-14)
            certificate = certify_ergodic_3(relabelled, grid)
            assert certificate.verdict == ergodic.verdict == "CERTIFIED", perm
            # uniqueness_margin is certify_unique's margin on the same grid.
            for key in ("margin", "min_abs_divergence", "uniqueness_margin"):
                expected = pytest.approx(ergodic.evidence[key], rel=1e-9, abs=0.0)
                assert certificate.evidence[key] == expected, (perm, key)
            (point,) = find_invariant(relabelled, grid)
            back = point.point.probs[np.argsort(perm)]
            assert float(np.max(np.abs(back - found.point.probs))) <= 1e-12, perm

    def test_a_sign_change_only_outside_the_simplex_is_certified_in_every_order(self):
        # The 36th draw of random_polynomial_cells(default_rng(7), 3, 2).  Its plain divergence
        # turns positive just outside the corner m1 = 1; the Dulac field, swept inside the
        # simplex, is negative in every order and gives the same margin.
        cells = {
            (0, 1): [((1, 1, 0), 0.2121003181289723)],
            (0, 2): [((0, 0, 0), 0.9736151162916649), ((1, 0, 1), 1.7596649675290805)],
            (1, 0): [((1, 1, 0), 0.208862174060573), ((0, 0, 0), 0.47426372524090676)],
            (1, 2): [
                ((1, 1, 0), 1.8697408369723048),
                ((0, 0, 0), 0.12416494401172062),
                ((0, 1, 0), 1.1448266052050093),
            ],
            (2, 0): [((1, 0, 1), 0.2655211992809572)],
            (2, 1): [
                ((0, 0, 1), 0.9361463908943883),
                ((0, 1, 1), 1.2155407871915265),
                ((0, 0, 0), 0.7423783211002045),
            ],
        }
        spec = GeneratorSpec(3, cells=cells)
        for k in (10, 40):
            reference = certify_ergodic_3(spec, SimplexGrid(3, k))
            for perm in _ORDERS:
                certificate = certify_ergodic_3(relabel(spec, perm), SimplexGrid(3, k))
                assert certificate.verdict == "CERTIFIED", (perm, k)
                for key in ("margin", "min_abs_divergence"):
                    expected = pytest.approx(reference.evidence[key], rel=1e-9, abs=0.0)
                    assert certificate.evidence[key] == expected, (perm, k, key)
