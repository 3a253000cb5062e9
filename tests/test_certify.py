"""Uniqueness and ergodicity certificates: chart Jacobians, sweeps, verdicts."""

import json
import math

import numpy as np
import pytest

import nlmc.certify
from nlmc import (
    Certificate,
    CertificateEvaluationError,
    GeneratorSpec,
    SimplexGrid,
    build_M,
    certify_ergodic_2,
    certify_ergodic_3,
    certify_unique,
    constant_generator,
    corpus,
    polynomial_generator,
    reduced_system,
    scalar_drift,
)

from helpers import CONSUMER_PARAMS, bistable_scalar_drift, consumer_rest_point

CONSUMER = corpus("consumer", CONSUMER_PARAMS)


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
        certificate = certify_ergodic_2(constant_generator([[-2.0, 2.0], [1.0, -1.0]]))
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
        m = (0.3, 0.45, 0.25)
        coarse = build_M(CONSUMER, m, 1e-3)
        half = build_M(CONSUMER, m, 5e-4)
        quarter = build_M(CONSUMER, m, 2.5e-4)
        e1 = float(np.linalg.norm(coarse - half))
        e2 = float(np.linalg.norm(half - quarter))
        assert e1 / e2 >= 3.5

    def test_reducible_point_raises(self):
        with pytest.raises(CertificateEvaluationError):
            build_M(corpus("oscillator"), (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            build_M(CONSUMER, (0.5, 0.5))


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
        assert "degree" in certificate.reason

    def test_reducible_probe_point_is_inconclusive(self):
        # Q12 = K (m1 - a)^2 vanishes exactly at the lower probe of the grid
        # point m1 = 1/2 (chart step 1e-6 * 1.5), while every grid point and
        # every other probe keeps Q12 above the rate floor.
        big, a = 1e4, 0.5 - 1.5e-6
        spec = polynomial_generator(
            2,
            {
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
        f = scalar_drift(corpus("bistable"))
        for m1 in np.linspace(0.0, 1.0, 21):
            assert f(float(m1)) == pytest.approx(bistable_scalar_drift(float(m1)), abs=1e-12)
        with pytest.raises(ValueError):
            scalar_drift(CONSUMER)

    def test_contracting_chain_is_certified(self):
        spec = constant_generator([[-2.0, 2.0], [1.0, -1.0]])
        certificate = certify_ergodic_2(spec)
        assert certificate.verdict == "CERTIFIED"
        assert certificate.claim == "strong-ergodicity"
        assert certificate.evidence["margin"] > 1e-10
        root = certificate.evidence["rest_point"]
        assert root[0] == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert root[1] == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_bistable_multiple_roots_refute(self):
        certificate = certify_ergodic_2(corpus("bistable"))
        assert certificate.verdict == "REFUTED"
        assert "multiple rest points" in certificate.reason
        witnesses = certificate.evidence["witnesses"]
        assert len(witnesses) == 3
        for witness, root in zip(witnesses, (0.25, 0.5, 0.75)):
            assert witness[0] == pytest.approx(root, abs=1e-9)
            assert witness[0] + witness[1] == pytest.approx(1.0, abs=1e-12)

    def test_a_vanishing_drift_lists_at_most_five_roots(self):
        # A drift that is zero on [0, 1] has a root every few scan points.
        certificate = certify_ergodic_2(constant_generator([[0, 0], [0, 0]]), 10**6)
        assert certificate.verdict == "REFUTED"
        evidence = certificate.evidence
        assert evidence["root_count"] > 5
        assert len(evidence["roots"]) == len(evidence["witnesses"]) == 5
        assert evidence["roots"][0] == 0.0
        assert len(certificate.to_json_text()) < 4096
        assert "root_count" not in certify_ergodic_2(corpus("bistable")).evidence

    def test_cubically_flat_rest_point_is_inconclusive(self):
        # Drift -(m1 - 1/2)^3 decays below the 1e-10 margin near the root, so
        # the one-sided sign check cannot clear its tolerance.
        cells = {
            (0, 1): [((0, 0), 0.825), ((1, 0), -1.5), ((2, 0), 0.8)],
            (1, 0): [((0, 0), 0.125), ((1, 0), 0.2), ((2, 0), 0.2)],
        }
        spec = polynomial_generator(2, cells)
        f = scalar_drift(spec)
        for m1 in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert f(m1) == pytest.approx(-((m1 - 0.5) ** 3), abs=1e-15)
        certificate = certify_ergodic_2(spec)
        assert certificate.verdict == "INCONCLUSIVE"
        assert "uniformly" in certificate.reason

    def test_boundary_rest_point_certifies_from_one_side(self):
        # All mass drains into state 2: the unique rest point sits at the
        # m1 = 0 vertex and only the right-hand margin exists.
        spec = polynomial_generator(2, {(0, 1): [((0, 0), 1.0), ((1, 0), 1.0)]})
        certificate = certify_ergodic_2(spec)
        assert certificate.verdict == "CERTIFIED"
        assert certificate.evidence["rest_point"][0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("scan", [10, 37])
    def test_lockstep_roots_match_a_scalar_bisection(self, scan):
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
            f = scalar_drift(spec)
            xs = np.linspace(0.0, 1.0, scan + 1).tolist()
            vals = [f(x) for x in xs]
            near = [abs(v) <= nlmc.certify.ZERO_DRIFT_TOL for v in vals]
            raw = [x for x, zero in zip(xs, near) if zero]
            for k in range(scan):
                if not (near[k] or near[k + 1]) and (vals[k] > 0) != (vals[k + 1] > 0):
                    raw.append(bisect(f, xs[k], xs[k + 1], vals[k]))
            roots = []
            for r in sorted(raw):
                if not roots or r - roots[-1] > 2.0 / scan:
                    roots.append(r)
            return roots

        rng = np.random.default_rng(scan)
        for _ in range(12):
            # q12 = a (m1 - r)^2 + c and q21 = d m1^2 + e m1 + g give up to three roots.
            a, r, c, d, e, g = rng.uniform([0.5, 0.0, 0.0, 0.0, 0.0, 0.0], [20, 1, 1, 3, 3, 1])
            spec = polynomial_generator(
                2,
                {
                    (0, 1): [((2, 0), a), ((1, 0), -2.0 * a * r), ((0, 0), a * r * r + c)],
                    (1, 0): [((2, 0), d), ((1, 0), e), ((0, 0), g)],
                },
            )
            roots = certify_ergodic_2(spec, scan).evidence["roots"]
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
        # Drift 3 - 32 m1 vanishes exactly at 3/32, the midpoint of the
        # scan bracket [1/16, 2/16], so the first halving ends the bisection.
        spec = constant_generator([[-29.0, 29.0], [3.0, -3.0]])
        spec.require_valid()
        calls = self._count_rate_calls(monkeypatch)
        certificate = certify_ergodic_2(spec, 16)
        assert certificate.evidence["roots"] == [0.09375]
        assert certificate.verdict == "CERTIFIED"
        assert len(calls) == 2

    def test_all_brackets_share_one_rate_call_per_halving(self, monkeypatch):
        spec = corpus("bistable")
        spec.require_valid()
        calls = self._count_rate_calls(monkeypatch)
        certificate = certify_ergodic_2(spec, 37)
        assert len(certificate.evidence["roots"]) == 3
        halvings = math.ceil(math.log2((1.0 / 37) / nlmc.certify.ROOT_REFINE_TOL))
        assert len(calls) <= 1 + halvings

    def test_wrong_dimension_and_bad_scan_raise(self):
        with pytest.raises(ValueError):
            certify_ergodic_2(CONSUMER)
        with pytest.raises(ValueError):
            certify_ergodic_2(corpus("bistable"), scan_resolution=5)


class TestReducedSystem:
    def test_planar_drift_agrees_with_the_full_flow(self):
        system = reduced_system(CONSUMER)
        rng = np.random.default_rng(43)
        for _ in range(20):
            u = rng.dirichlet(np.ones(3))[:2]
            full = CONSUMER.drift(np.array([u[0], u[1], 1.0 - u[0] - u[1]]))
            planar = system.drift(float(u[0]), float(u[1]))
            assert np.allclose(planar, full[:2], atol=1e-14)

    def test_divergence_matches_analytic_value(self):
        # For the consumer generator div f = -(b + eps + e) - ... reduces to
        # -3.2 - 2 (u1 + u2) at the default parameters.
        system = reduced_system(CONSUMER)
        pts = np.array([[0.2, 0.3], [0.0, 0.0], [0.5, 0.4], [-0.02, 1.0]])
        values = system.divergence_batch(pts)
        expected = -3.2 - 2.0 * pts.sum(axis=1)
        assert np.allclose(values, expected, atol=1e-6)

    def test_jacobian_matches_analytic_value(self):
        system = reduced_system(CONSUMER)
        rest = consumer_rest_point()
        jac = system.jacobian(float(rest[0]), float(rest[1]))
        expected = np.array(
            [[-2.1 - 2.0 * rest[0], -1.0], [0.0, -1.1 - 2.0 * rest[1]]]
        )
        assert np.allclose(jac, expected, atol=1e-6)

    def test_lattice_covers_the_extended_chart(self):
        system = reduced_system(CONSUMER)
        sweep = system.lattice(10)
        assert float(sweep.min()) == pytest.approx(-0.02, abs=1e-12)
        assert float(sweep.max()) == pytest.approx(1.02, abs=1e-12)
        assert float((sweep[:, 0] + sweep[:, 1]).max()) <= 1.02 + 1e-9
        with pytest.raises(ValueError):
            reduced_system(corpus("bistable"))


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

    def test_symmetric_circulant_chain_is_certified(self):
        spec = constant_generator(
            [[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]]
        )
        certificate = certify_ergodic_3(spec, SimplexGrid(3, 8))
        assert certificate.verdict == "CERTIFIED"
        assert certificate.evidence["margin"] == pytest.approx(6.0, rel=1e-6)
        assert certificate.evidence["jacobian_determinant"] == pytest.approx(9.0, rel=1e-6)
        rest = np.asarray(certificate.evidence["rest_point"].probs)
        assert np.allclose(rest, 1.0 / 3.0, atol=1e-10)

    def test_oscillator_clamp_artifacts_refute_uniqueness(self):
        certificate = certify_ergodic_3(corpus("oscillator"), SimplexGrid(3, 6))
        assert certificate.verdict == "REFUTED"
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
