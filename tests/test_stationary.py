"""Frozen-chain stationary distributions and the invariant-distribution search."""

import json

import numpy as np
import pytest

import nlmc.stationary
from nlmc import (
    Distribution,
    GeneratorSpec,
    ReducibleGeneratorError,
    SimplexGrid,
    constant_generator,
    corpus,
    evolve,
    find_invariant,
    frozen_stationary,
    polynomial_generator,
    residual,
)
from nlmc.stationary import _fixed_point, _frozen_solve, _newton_polish

from helpers import (
    CONSUMER_PARAMS,
    bistable_scalar_drift,
    consumer_rest_point,
    random_distribution,
    random_rate_matrix,
    stationary_oracle,
)

SKEWED_CONSUMER = corpus("consumer", {"b": 2.0, "e": 3.0, "eps": 0.05, "lam": 0.5})


class TestResidual:
    def test_zero_generator(self):
        spec = polynomial_generator(2, {})
        assert residual(spec, (0.5, 0.5)) == 0.0

    def test_bistable_rest_point_is_exact(self):
        spec = corpus("bistable")
        assert residual(spec, (0.5, 0.5)) < 1e-15

    def test_bistable_matches_direct_polynomial_evaluation(self):
        spec = corpus("bistable")
        for m1 in (0.3, 0.9, 0.1, 0.62):
            expected = abs(bistable_scalar_drift(m1))
            assert residual(spec, (m1, 1.0 - m1)) == pytest.approx(expected, rel=1e-12)
        assert residual(spec, (0.3, 0.7)) == pytest.approx(0.048, abs=1e-12)

    def test_consumer_rest_point_residual_vanishes(self):
        spec = corpus("consumer", CONSUMER_PARAMS)
        assert residual(spec, consumer_rest_point()) < 1e-14


class TestFrozenStationary:
    def test_symmetric_two_state(self):
        spec = constant_generator([[-1.0, 1.0], [1.0, -1.0]])
        x = frozen_stationary(spec, (0.9, 0.1))
        assert np.allclose(x.probs, (0.5, 0.5), atol=1e-13)

    def test_asymmetric_two_state(self):
        spec = constant_generator([[-2.0, 2.0], [1.0, -1.0]])
        x = frozen_stationary(spec, (0.9, 0.1))
        assert np.allclose(x.probs, (1.0 / 3.0, 2.0 / 3.0), atol=1e-13)

    def test_matches_null_space_oracle_on_random_chains(self):
        rng = np.random.default_rng(19)
        for s in (2, 3, 4):
            for _ in range(5):
                q = random_rate_matrix(rng, s)
                spec = constant_generator(q)
                x = frozen_stationary(spec, random_distribution(rng, s))
                assert float(np.max(np.abs(x.probs - stationary_oracle(q)))) < 1e-12
                assert float(np.max(np.abs(x.probs @ q))) < 1e-12

    def test_constant_chain_result_ignores_the_marginal(self):
        rng = np.random.default_rng(29)
        spec = constant_generator(random_rate_matrix(rng, 3))
        baseline = frozen_stationary(spec, random_distribution(rng, 3)).probs.tobytes()
        for _ in range(9):
            m = random_distribution(rng, 3)
            assert frozen_stationary(spec, m).probs.tobytes() == baseline

    def test_nonlinear_frozen_chain_matches_oracle(self):
        spec = corpus("consumer", CONSUMER_PARAMS)
        rng = np.random.default_rng(37)
        for _ in range(10):
            m = random_distribution(rng, 3)
            x = frozen_stationary(spec, m)
            oracle = stationary_oracle(spec.rates(m))
            assert float(np.max(np.abs(x.probs - oracle))) < 1e-10
            assert float(x.probs.min()) > 0.0

    def test_reducible_frozen_chain_raises(self):
        spec = corpus("oscillator")
        with pytest.raises(ReducibleGeneratorError):
            frozen_stationary(spec, (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0))

    def test_batched_solve_matches_null_space_oracle(self):
        rng = np.random.default_rng(59)
        for s in range(2, 7):
            stack = np.array([random_rate_matrix(rng, s) for _ in range(8)])
            x = _frozen_solve(stack)
            assert x.shape == (8, s)
            for q, row in zip(stack, x):
                assert float(np.max(np.abs(row - stationary_oracle(q)))) < 1e-12
            one_at_a_time = np.concatenate([_frozen_solve(q[None]) for q in stack])
            assert np.array_equal(x, one_at_a_time)

    def test_singular_stack_gives_nan_rows(self):
        # Two closed classes {1, 2} and {3, 4}: the stationary set is a segment.
        pair = np.array([[-1.0, 1.0], [1.0, -1.0]])
        two_classes = np.block([[pair, np.zeros((2, 2))], [np.zeros((2, 2)), pair]])
        assert np.isnan(_frozen_solve(two_classes[None])).all()
        assert np.isnan(_frozen_solve(np.array([two_classes, two_classes]))).all()

    def test_singular_matrix_fails_only_its_own_row(self):
        pair = np.array([[-1.0, 1.0], [1.0, -1.0]])
        two_classes = np.block([[pair, np.zeros((2, 2))], [np.zeros((2, 2)), pair]])
        single = np.full((4, 4), 1.0)
        np.fill_diagonal(single, -3.0)
        x = _frozen_solve(np.array([single, two_classes, single]))
        assert np.isnan(x[1]).all()
        assert np.array_equal(x[[0, 2]], _frozen_solve(np.array([single, single])))
        assert float(np.max(np.abs(x[0] - 0.25))) < 1e-15


class TestFindInvariant:
    def test_bistable_finds_all_three_rest_points(self):
        found = find_invariant(corpus("bistable"), SimplexGrid(2, 20))
        assert len(found) == 3
        expected = ((0.25, 0.75), (0.5, 0.5), (0.75, 0.25))
        for result, target in zip(found, expected):
            assert float(np.max(np.abs(result.point.probs - target))) < 1e-8
            assert result.residual <= 1e-10
            assert result.classification == "interior"
        assert found.seed_count == 21
        assert found.failed_seeds == 0
        assert [len(r.basin_hint) for r in found] == [10, 1, 10]

    def test_stable_rest_points_are_reproduced_by_the_flow(self):
        spec = corpus("bistable")
        found = find_invariant(spec, SimplexGrid(2, 20))
        for result in (found.results[0], found.results[2]):
            tail = evolve(spec, result.point, 10.0).final
            assert float(np.max(np.abs(tail.probs - result.point.probs))) < 1e-6

    def test_constant_chain_matches_null_space_oracle(self):
        rng = np.random.default_rng(41)
        for s in (2, 3, 4):
            q = random_rate_matrix(rng, s)
            found = find_invariant(constant_generator(q), SimplexGrid(s, 5))
            assert len(found) == 1
            assert float(np.max(np.abs(found.points[0].probs - stationary_oracle(q)))) < 1e-10

    def test_consumer_has_a_unique_interior_rest_point(self):
        found = find_invariant(corpus("consumer", CONSUMER_PARAMS), SimplexGrid(3, 10))
        assert len(found) == 1
        result = found.results[0]
        assert result.classification == "interior"
        assert float(np.max(np.abs(result.point.probs - consumer_rest_point()))) < 1e-9
        assert result.residual <= 1e-10

    def test_explicit_seed_lists_are_accepted(self):
        spec = corpus("bistable")
        found = find_invariant(spec, [Distribution((0.05, 0.95)), (0.95, 0.05)])
        assert len(found) == 2
        assert float(np.max(np.abs(found.points[0].probs - (0.25, 0.75)))) < 1e-9
        assert float(np.max(np.abs(found.points[1].probs - (0.75, 0.25)))) < 1e-9
        with pytest.raises(ValueError):
            find_invariant(spec, [])

    def test_absorbing_state_yields_boundary_classification(self):
        spec = constant_generator([[-1.0, 1.0], [0.0, 0.0]])
        found = find_invariant(spec, SimplexGrid(2, 5))
        assert len(found) == 1
        result = found.results[0]
        assert result.classification == "boundary"
        assert float(np.max(np.abs(result.point.probs - (0.0, 1.0)))) < 1e-12

    def test_oscillator_search_reports_center_and_clamp_artifacts(self):
        # The clamped extension of the oscillator has genuine rest points on
        # the m3 = 0 edge in addition to the center; the search reports every
        # zero it converges to rather than filtering.
        found = find_invariant(corpus("oscillator"), SimplexGrid(3, 6))
        center_hits = [
            r
            for r in found
            if float(np.max(np.abs(r.point.probs - (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)))) < 1e-8
        ]
        assert len(center_hits) == 1
        assert center_hits[0].classification == "interior"
        for result in found:
            assert result.residual <= 1e-10
        edge_hits = [r for r in found if float(r.point.probs[2]) < 1e-8]
        assert edge_hits, "expected at least one rest point on the clamped edge"
        for result in edge_hits:
            assert result.classification == "boundary"
            assert float(result.point.probs[0]) <= 1.0 / 3.0 + 1e-8

    @pytest.mark.parametrize(
        "spec, resolution",
        [
            pytest.param(corpus("bistable"), 20, id="bistable-20"),
            pytest.param(corpus("oscillator"), 6, id="oscillator-6"),
            pytest.param(SKEWED_CONSUMER, 10, id="consumer-10"),
        ],
    )
    def test_a_seed_alone_lands_where_it_lands_in_lockstep(self, spec, resolution):
        # Bistable grid 20 takes the flow fallback on 4 seeds; on oscillator
        # grid 6 every frozen chain is reducible and 12 seeds fail the polish;
        # the consumer cells multiply by non-unit coefficients.
        grid = SimplexGrid(spec.dimension, resolution)
        together = find_invariant(spec, grid)
        landed = {seed: r.point.probs for r in together for seed in r.basin_hint}
        assert len(landed) + together.failed_seeds == len(grid)
        for seed in grid.points:
            alone = find_invariant(spec, [seed])
            if seed in landed:
                assert alone.failed_seeds == 0
                assert float(np.max(np.abs(alone.points[0].probs - landed[seed]))) <= 1e-12
            else:
                assert alone.failed_seeds == 1
                assert len(alone) == 0

    @pytest.mark.parametrize(
        "spec, resolution",
        [
            pytest.param(corpus("bistable"), 20, id="bistable-20"),
            pytest.param(SKEWED_CONSUMER, 10, id="consumer-10"),
        ],
    )
    def test_a_seed_alone_lands_bitwise_on_its_lockstep_point(self, spec, resolution):
        def landings(rows):
            m, failed = _fixed_point(spec, rows)
            polished = iter(_newton_polish(spec, m[~failed]))
            return [None if f else next(polished) for f in failed]

        rows = SimplexGrid(spec.dimension, resolution).array
        for k, together in enumerate(landings(rows)):
            (alone,) = landings(rows[k : k + 1])
            assert together is not None and np.array_equal(alone, together)

    def test_the_flow_fallback_rides_every_cycling_seed_in_one_call(self, monkeypatch):
        calls = []
        original = nlmc.stationary.integrate_flow

        def counting(spec, m0, horizon, controls=None):
            calls.append(len(m0))
            return original(spec, m0, horizon, controls)

        monkeypatch.setattr(nlmc.stationary, "integrate_flow", counting)
        found = find_invariant(corpus("bistable"), SimplexGrid(2, 20))
        # One fallback round on grid 20, over the 4 seeds that cycle.
        assert calls == [4]
        assert len(found) == 3

    def test_the_flow_fallback_rides_at_default_accuracy(self, monkeypatch):
        steps = []
        original = nlmc.stationary.integrate_flow

        def counting(spec, m0, horizon, controls=None):
            flow = original(spec, m0, horizon, controls)
            steps.append(flow.steps)
            return flow

        monkeypatch.setattr(nlmc.stationary, "integrate_flow", counting)
        found = find_invariant(corpus("bistable"), SimplexGrid(2, 20))
        # 526 steps when the fallback asked for rtol 1e-10, atol 1e-12.
        assert len(steps) == 1 and steps[0] <= 300
        assert (found.seed_count, found.failed_seeds) == (21, 0)
        assert [len(r.basin_hint) for r in found] == [10, 1, 10]
        for result, root in zip(found, (0.25, 0.5, 0.75)):
            assert abs(result.point[0] - root) <= 1e-15
            assert result.residual <= 1e-15

    def test_a_singular_polish_row_fails_alone(self):
        # The drift is exactly (1, -1) where m1 >= 1/2, so the Jacobian there
        # is zero; elsewhere it is 1 - 4 m1, with its root at m1 = 1/4.
        def batch(points):
            flat = points[:, 0] >= 0.5
            q = np.empty((points.shape[0], 2, 2))
            q[:, 0] = np.where(flat[:, None], [1.0, -1.0], [-3.0, 3.0])
            q[:, 1] = np.where(flat[:, None], [1.0, -1.0], [1.0, -1.0])
            return q

        spec = GeneratorSpec(2, "builtin", batch, name="flat-drift")
        rows = np.array([[0.1, 0.9], [0.9, 0.1], [0.3, 0.7]])
        out = _newton_polish(spec, rows)
        assert out[1] is None
        for n in (0, 2):
            (alone,) = _newton_polish(spec, rows[n : n + 1])
            assert np.array_equal(out[n], alone)
            assert abs(out[n][0] - 0.25) <= 1e-15

    def test_json_export_is_deterministic_and_complete(self):
        found = find_invariant(corpus("bistable"), SimplexGrid(2, 20))
        text = found.to_json_text()
        assert text.endswith("\n")
        doc = json.loads(text)
        assert doc["seed_count"] == 21
        assert doc["failed_seeds"] == 0
        assert doc["tolerance"] == 1e-10
        assert len(doc["invariant_distributions"]) == 3
        entry = doc["invariant_distributions"][0]
        assert set(entry) == {"point", "residual", "classification", "converged_seeds"}
        again = find_invariant(corpus("bistable"), SimplexGrid(2, 20)).to_json_text()
        assert again == text
