"""Frozen-chain stationary distributions and the invariant-distribution search."""

import itertools
import json
import time

import numpy as np
import pytest

import nlmc.stationary
from nlmc import (
    Distribution,
    GeneratorSpec,
    NumericalError,
    ReducibleGeneratorError,
    SimplexGrid,
    constant_generator,
    corpus,
    evolve,
    find_invariant,
    frozen_stationary,
    residual,
)
from nlmc.certify import build_M
from nlmc.stationary import (
    CLUSTER_RADIUS,
    TOL_INVARIANT,
    _cluster,
    _frozen_solve,
    _land,
    _newton_polish,
    _solve_rows,
)

from helpers import (
    CONSUMER_PARAMS,
    bistable_scalar_drift,
    consumer_rest_point,
    random_distribution,
    random_rate_matrix,
    stationary_oracle,
    two_state_drift_roots,
    two_state_herding_cells,
)

SKEWED_CONSUMER = corpus("consumer", {"b": 2.0, "e": 3.0, "eps": 0.05, "lam": 0.5})


# Newton leaves the simplex from 3 of this spec's grid-20 seeds, so they ride the flow.
RIDING_HERDING = GeneratorSpec(2, cells=two_state_herding_cells(2)[1])


def _three_state_herding(rng):
    """Rates q_ij = a + c m_j^k into every state j, with a, c and k drawn once per spec."""
    a, c, k = float(rng.uniform(0.05, 0.5)), float(rng.uniform(1.0, 12.0)), int(rng.integers(1, 4))
    cells = {}
    for i, j in itertools.permutations(range(3), 2):
        exponents = [0, 0, 0]
        exponents[j] = k
        cells[(i, j)] = [((0, 0, 0), a), (tuple(exponents), c)]
    return GeneratorSpec(3, cells=cells)


class TestResidual:
    def test_zero_generator(self):
        spec = GeneratorSpec(2, cells={})
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

    @pytest.mark.parametrize("scale", [1e4, 1e6])
    def test_fast_chains_match_null_space_oracle(self, scale):
        # x Q rounds in proportion to the rates, and so does the residual guard.
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = random_rate_matrix(rng, 4, 0.2 * scale, 1.5 * scale)
            x = frozen_stationary(constant_generator(q), (0.25, 0.25, 0.25, 0.25))
            assert float(np.max(np.abs(x.probs - stationary_oracle(q)))) < 1e-12

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_a_corrupted_solve_raises(self, monkeypatch, scale):
        solve = nlmc.stationary._frozen_solve
        monkeypatch.setattr(
            nlmc.stationary, "_frozen_solve", lambda q: solve(q) + np.array([1e-9, -1e-9])
        )
        spec = constant_generator([[-2.0 * scale, 2.0 * scale], [scale, -scale]])
        with pytest.raises(NumericalError, match="frozen stationary solve left residual"):
            frozen_stationary(spec, (0.9, 0.1))

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


class TestSolveRows:
    @staticmethod
    def _stack(rng, n, s):
        return rng.uniform(-1.0, 1.0, size=(n, s, s)) + s * np.eye(s), rng.normal(size=(n, s))

    def test_a_regular_stack_takes_no_determinant(self, monkeypatch):
        calls = []
        slogdet = np.linalg.slogdet
        monkeypatch.setattr(np.linalg, "slogdet", lambda a: calls.append(a) or slogdet(a))
        a, b = self._stack(np.random.default_rng(3), 6, 4)
        x, solved = _solve_rows(a, b)
        assert calls == []
        assert solved.all()
        assert np.allclose(np.einsum("nij,nj->ni", a, x), b, atol=1e-12)

    def test_a_singular_matrix_leaves_only_its_row_nan(self):
        a, b = self._stack(np.random.default_rng(4), 5, 3)
        a[2, 1] = a[2, 0]  # two equal rows
        x, solved = _solve_rows(a, b)
        assert solved.tolist() == [True, True, False, True, True]
        assert np.isnan(x[2]).all()
        for k in (0, 1, 3, 4):
            assert x[k].tobytes() == np.linalg.solve(a[k], b[k]).tobytes()

    def test_an_empty_stack_gives_no_rows(self):
        x, solved = _solve_rows(np.zeros((0, 3, 3)), np.zeros((0, 3)))
        assert x.shape == (0, 3)
        assert solved.shape == (0,)


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
        # Newton lands the repeller 1/2 from the 5 seeds around it.
        assert [len(r.basin_hint) for r in found] == [8, 5, 8]
        for result, target in zip(found, expected):
            assert abs(result.point[0] - target[0]) <= 1e-15
            assert result.residual <= 1e-15

    def test_bistable_is_complete_at_every_grid(self):
        # Newton lands the repeller 1/2 from the seeds around it, also on the
        # odd grids, where no seed sits on it.
        for resolution in range(4, 41):
            found = find_invariant(corpus("bistable"), SimplexGrid(2, resolution))
            assert len(found) == 3 and found.failed_seeds == 0, resolution
            for result, root in zip(found, (0.25, 0.5, 0.75)):
                assert abs(result.point[0] - root) <= 1e-12, resolution

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
        with pytest.raises(ValueError, match="^seeds must hold at least one point$"):
            find_invariant(spec, [])
        message = "^seeds on 3 states does not match the generator's 2 states$"
        with pytest.raises(ValueError, match=message):
            find_invariant(spec, [(0.2, 0.3, 0.5)])

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
        # Newton lands every bistable seed; on oscillator grid 6, 12 seeds
        # ride the flow before they land; the consumer cells multiply by
        # non-unit coefficients.  The oscillator's rest points fill a segment,
        # so a seed's landing is compared bit for bit with its own lockstep
        # row, not with its cluster's first point.
        seeds = SimplexGrid(spec.dimension, resolution).points
        together = _land(spec, np.array([seed.probs for seed in seeds]))
        for seed, landed in zip(seeds, together):
            alone = find_invariant(spec, [seed])
            if landed is not None:
                assert alone.failed_seeds == 0
                assert alone.points == (Distribution(landed),)
            else:
                assert alone.failed_seeds == 1
                assert len(alone) == 0

    @pytest.mark.parametrize(
        "spec, resolution",
        [
            pytest.param(corpus("bistable"), 20, id="bistable-20"),
            pytest.param(corpus("oscillator"), 6, id="oscillator-6"),
            pytest.param(SKEWED_CONSUMER, 10, id="consumer-10"),
        ],
    )
    def test_a_seed_alone_lands_bitwise_on_its_lockstep_point(self, spec, resolution):
        rows = SimplexGrid(spec.dimension, resolution).array
        for k, together in enumerate(_land(spec, rows)):
            (alone,) = _land(spec, rows[k : k + 1])
            assert together is not None and np.array_equal(alone, together)

    def test_the_flow_fallback_rides_every_cycling_seed_in_one_call(self, monkeypatch):
        calls = []
        original = nlmc.stationary.integrate_flow

        def counting(spec, m0, horizon, **kwargs):
            calls.append(len(m0))
            return original(spec, m0, horizon, **kwargs)

        monkeypatch.setattr(nlmc.stationary, "integrate_flow", counting)
        found = find_invariant(RIDING_HERDING, SimplexGrid(2, 20))
        # One ride, over the 3 seeds from which Newton leaves the simplex.
        assert calls == [3]
        assert (found.seed_count, found.failed_seeds) == (21, 0)

    def test_the_flow_fallback_rides_at_fallback_accuracy(self, monkeypatch):
        steps = []
        original = nlmc.stationary.integrate_flow

        def counting(spec, m0, horizon, **kwargs):
            flow = original(spec, m0, horizon, **kwargs)
            steps.append(flow.steps)
            return flow

        monkeypatch.setattr(nlmc.stationary, "integrate_flow", counting)
        found = find_invariant(RIDING_HERDING, SimplexGrid(2, 20))
        # 210 steps at FALLBACK_RTOL 1e-5, FALLBACK_ATOL 1e-8; 346 at the
        # integrator's defaults and 643 at rtol 1e-10, atol 1e-12.
        assert len(steps) == 1 and steps[0] <= 230
        assert (found.seed_count, found.failed_seeds) == (21, 0)
        assert [len(r.basin_hint) for r in found] == [21]
        assert found.results[0].residual <= 1e-15

    @pytest.mark.parametrize(
        "spec, resolution, rides",
        [
            pytest.param(corpus("bistable"), 20, 0, id="bistable-20"),
            pytest.param(SKEWED_CONSUMER, 10, 0, id="consumer-10"),
            pytest.param(corpus("oscillator"), 6, 1, id="oscillator-6"),
        ],
    )
    def test_only_the_seeds_newton_cannot_land_ride_the_flow(
        self, spec, resolution, rides, monkeypatch
    ):
        ridden = []
        original = nlmc.stationary.integrate_flow

        def recording(spec, m0, horizon, **kwargs):
            ridden.append(np.array(m0))
            return original(spec, m0, horizon, **kwargs)

        monkeypatch.setattr(nlmc.stationary, "integrate_flow", recording)
        grid = SimplexGrid(spec.dimension, resolution)
        lost = [n for n, found in enumerate(_newton_polish(spec, grid.array)) if found is None]
        found = find_invariant(spec, grid)
        assert len(ridden) == rides
        # The ride starts from the seeds themselves, and only from those Newton did not land.
        for starts in ridden:
            assert np.array_equal(starts, grid.array[lost])
        assert found.failed_seeds == 0
        for result in found:
            assert result.residual <= TOL_INVARIANT

    def test_two_state_points_are_the_roots_numpy_finds(self, monkeypatch):
        calls = []
        original = nlmc.stationary.integrate_flow

        def counting(spec, m0, horizon, **kwargs):
            calls[-1] += 1
            return original(spec, m0, horizon, **kwargs)

        monkeypatch.setattr(nlmc.stationary, "integrate_flow", counting)
        multistable = 0
        for cells in two_state_herding_cells(40):
            calls.append(0)
            roots = two_state_drift_roots(cells)
            multistable += len(roots) == 3
            found = find_invariant(GeneratorSpec(2, cells=cells), SimplexGrid(2, 20))
            landed = np.array([r.point[0] for r in found])
            assert found.failed_seeds == 0
            for point in landed:
                assert np.min(np.abs(roots - point)) <= 1e-12
            # Every root is found, the repellers between the attractors too.
            for root in roots:
                assert np.min(np.abs(landed - root)) <= 1e-12
        assert multistable >= 2
        # The rows Newton cannot land ride the flow together, in at most one call per search.
        assert max(calls) <= 1

    def test_three_state_index_sums_match_the_degree(self):
        # Where every frozen chain is irreducible, the Brouwer indices sign det M
        # of the invariants sum to (-1)^(S-1) = +1; a search that misses a
        # saddle reads +2 or +3.
        rng = np.random.default_rng(11)
        multiple = 0
        for _ in range(30):
            spec = _three_state_herding(rng)
            found = find_invariant(spec, SimplexGrid(3, 10))
            assert found.failed_seeds == 0
            signs = [np.sign(np.linalg.det(build_M(spec, result.point))) for result in found]
            assert sum(signs) == 1.0
            multiple += len(found) > 1
        assert multiple >= 10

    def test_a_singular_polish_row_fails_alone(self):
        # The drift is exactly (1, -1) where m1 >= 1/2, so the Jacobian there
        # is zero; elsewhere it is 1 - 4 m1, with its root at m1 = 1/4.
        def batch(points):
            flat = points[:, 0] >= 0.5
            q = np.empty((points.shape[0], 2, 2))
            q[:, 0] = np.where(flat[:, None], [1.0, -1.0], [-3.0, 3.0])
            q[:, 1] = np.where(flat[:, None], [1.0, -1.0], [1.0, -1.0])
            return q

        spec = GeneratorSpec(2, batch, name="flat-drift")
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


def _first_match_clusters(outcomes):
    """Reference clustering: compare each point with every earlier first point, in order."""
    clusters = []
    for index, found in enumerate(outcomes):
        if found is None:
            continue
        for cluster in clusters:
            if float(np.max(np.abs(cluster[0] - found))) <= CLUSTER_RADIUS:
                cluster[1].append(index)
                break
        else:
            clusters.append([found, [index]])
    return clusters


def _points_near_the_radius(rng, s: int, count: int) -> list:
    """Points in three tight groups whose max-norm gaps straddle ``CLUSTER_RADIUS``.

    Each step loses its mean, so every point keeps unit mass; every seventh step
    starts as the radius on a single coordinate, and every fifth entry is a failed seed.
    """
    centres = [0.1 / s + 0.9 * random_distribution(rng, s) for _ in range(3)]
    outcomes = []
    for n in range(count):
        if n % 5 == 4:
            outcomes.append(None)
            continue
        step = CLUSTER_RADIUS * rng.uniform(-1.5, 1.5, s)
        if n % 7 == 0 and s > 1:
            step = np.zeros(s)
            step[rng.integers(s - 1)] = CLUSTER_RADIUS * rng.choice((-1.0, 1.0))
        outcomes.append(centres[rng.integers(3)] + step - step.mean())
    return outcomes


class TestClustering:
    @pytest.mark.parametrize("s", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cell_index_matches_the_first_match_loop(self, s, seed):
        outcomes = _points_near_the_radius(np.random.default_rng(seed), s, 300)
        expected = _first_match_clusters(outcomes)
        got = _cluster(outcomes, s)
        assert [indices for _, indices in got] == [indices for _, indices in expected]
        assert all(rep is ref for (rep, _), (ref, _) in zip(got, expected))
        if s > 1:
            assert 3 < len(got) < 240  # the groups neither merge whole nor split apart

    def test_basin_hints_follow_the_first_match_loop(self, monkeypatch):
        outcomes = _points_near_the_radius(np.random.default_rng(7), 3, 200)
        failed = np.array([found is None for found in outcomes])
        monkeypatch.setattr(nlmc.stationary, "_land", lambda spec, rows: outcomes)
        spec = constant_generator(random_rate_matrix(np.random.default_rng(7), 3))
        found = find_invariant(spec, [(1.0 / 3.0,) * 3] * len(outcomes))
        expected = {
            tuple(Distribution(rep).probs): tuple(hint)
            for rep, hint in _first_match_clusters(outcomes)
        }
        assert {tuple(r.point.probs): r.basin_hint for r in found} == expected
        assert found.failed_seeds == int(failed.sum())

    def test_a_zero_chain_at_grid_80_clusters_in_under_two_seconds(self):
        spec = constant_generator(np.zeros((3, 3)))
        grid = SimplexGrid(3, 80)
        spec.require_valid()
        tic = time.perf_counter()
        found = find_invariant(spec, grid)
        elapsed = time.perf_counter() - tic
        # Every grid point is invariant, so each seed is its own cluster.
        assert len(found) == len(grid) == 3321
        assert sorted(r.basin_hint for r in found) == [(n,) for n in range(len(grid))]
        assert elapsed < 2.0
