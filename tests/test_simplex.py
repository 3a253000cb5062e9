"""Simplex primitives: distributions, lattice grids, projection, tangent cone."""

import math

import numpy as np
import pytest

from nlmc import (
    Distribution,
    IntegrationDivergedError,
    SimplexGrid,
    constant_generator,
    corpus,
    project_to_simplex,
    tangent_cone_member,
)
from nlmc.simplex import _chart_embed, _chart_jacobian, _project_array

from helpers import CONSUMER_PARAMS, projection_oracle, random_rate_matrix


class TestDistribution:
    def test_keeps_valid_vector(self):
        d = Distribution((0.2, 0.3, 0.5))
        assert np.allclose(d.probs, (0.2, 0.3, 0.5), atol=1e-15)
        assert d.dimension == 3
        assert len(d) == 3
        assert d[1] == 0.3

    def test_clamps_tiny_negative_entries(self):
        d = Distribution((1.0, -5e-13, 5e-13))
        assert d.probs[1] == 0.0
        assert float(d.probs.min()) >= 0.0
        assert float(d.probs.sum()) == pytest.approx(1.0, abs=1e-15)

    def test_renormalizes_small_mass_defect(self):
        d = Distribution((0.5 + 3e-10, 0.5 + 3e-10))
        assert float(d.probs.sum()) == pytest.approx(1.0, abs=1e-15)
        assert d.probs[0] == d.probs[1]

    def test_rejects_entry_below_negative_tolerance(self):
        with pytest.raises(ValueError):
            Distribution((1.0 + 1e-6, -1e-6))

    def test_rejects_mass_defect_beyond_tolerance(self):
        with pytest.raises(ValueError):
            Distribution((0.5 + 1e-8, 0.5 + 1e-8))
        with pytest.raises(ValueError):
            Distribution((0.2, 0.2))

    def test_rejects_non_finite_and_bad_shape(self):
        with pytest.raises(ValueError):
            Distribution((float("nan"), 1.0))
        with pytest.raises(ValueError):
            Distribution((float("inf"), 0.0))
        with pytest.raises(ValueError):
            Distribution([[0.5, 0.5]])
        with pytest.raises(ValueError):
            Distribution([])

    def test_array_is_read_only(self):
        d = Distribution((0.5, 0.5))
        with pytest.raises(ValueError):
            d.probs[0] = 0.9

    def test_equality_and_hash_by_value(self):
        a = Distribution((0.25, 0.75))
        b = Distribution((0.25, 0.75))
        c = Distribution((0.75, 0.25))
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != (0.25, 0.75)


class TestSimplexGrid:
    def test_point_count_matches_stars_and_bars(self):
        for s in range(1, 5):
            for k in (1, 2, 3, 5, 10, 25, 50):
                assert len(SimplexGrid(s, k)) == math.comb(k + s - 1, s - 1)

    def test_points_are_exact_lattice_distributions(self):
        grid = SimplexGrid(3, 7)
        arr = grid.array
        assert arr.shape == (36, 3)
        assert np.all(arr >= 0.0)
        assert np.allclose(arr.sum(axis=1), 1.0, atol=1e-12)
        counts = arr * 7
        assert float(np.max(np.abs(counts - np.rint(counts)))) < 1e-9
        assert len({tuple(row) for row in arr}) == len(grid)
        assert all(isinstance(p, Distribution) for p in grid.points)

    def test_grid_covers_vertices(self):
        grid = SimplexGrid(3, 4)
        rows = {tuple(row) for row in grid.array}
        assert (1.0, 0.0, 0.0) in rows
        assert (0.0, 1.0, 0.0) in rows
        assert (0.0, 0.0, 1.0) in rows

    def test_array_matches_a_recursive_composition_oracle(self):
        def compositions(total, parts):
            if parts == 1:
                return [(total,)]
            return [
                (head, *tail)
                for head in range(total + 1)
                for tail in compositions(total - head, parts - 1)
            ]

        for s in range(1, 7):
            for k in range(1, 13):
                expected = np.array(compositions(k, s), dtype=float) / float(k)
                arr = SimplexGrid(s, k).array
                assert arr.dtype == expected.dtype and arr.shape == expected.shape
                assert arr.tobytes() == expected.tobytes()

    def test_array_is_read_only(self):
        grid = SimplexGrid(2, 4)
        with pytest.raises(ValueError):
            grid.array[0, 0] = 0.5

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            SimplexGrid(0, 5)
        with pytest.raises(ValueError):
            SimplexGrid(2, 0)


class TestTangentCone:
    def test_vertex_allows_outflow_only(self):
        vertex = Distribution((1.0, 0.0))
        assert tangent_cone_member(vertex, (-1.0, 1.0))
        assert not tangent_cone_member(vertex, (1.0, -1.0))

    def test_interior_point_needs_only_zero_sum(self):
        m = Distribution((0.5, 0.5))
        assert tangent_cone_member(m, (0.3, -0.3))
        assert not tangent_cone_member(m, (0.3, -0.2))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            tangent_cone_member(Distribution((0.5, 0.5)), (0.1, -0.1, 0.0))

    def test_drift_of_random_generators_is_tangent(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            s = int(rng.integers(2, 5))
            spec = constant_generator(random_rate_matrix(rng, s, sparsity=0.5))
            v = rng.random(s) * (rng.random(s) < 0.7)
            if v.sum() == 0.0:
                v[int(rng.integers(s))] = 1.0
            m = Distribution(v / v.sum())
            assert tangent_cone_member(m, spec.drift(m))

    def test_corpus_drifts_are_tangent_on_boundary_grids(self):
        specs = (
            corpus("bistable"),
            corpus("oscillator"),
            corpus("consumer", CONSUMER_PARAMS),
        )
        for spec in specs:
            for m in SimplexGrid(spec.dimension, 4).points:
                assert tangent_cone_member(m, spec.drift(m))


class TestProjection:
    def test_identity_on_simplex_points(self):
        for v in ((0.5, 0.5), (1.0, 0.0, 0.0), (0.2, 0.3, 0.5)):
            p = project_to_simplex(v)
            assert np.allclose(p.probs, v, atol=1e-15)

    def test_repairs_rounding_scale_drift(self):
        p = project_to_simplex((1.0000004, -0.0000004, 0.0))
        assert np.allclose(p.probs, (1.0, 0.0, 0.0), atol=1e-12)

    def test_matches_bisection_oracle_on_random_noise(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            s = int(rng.integers(2, 6))
            noisy = rng.dirichlet(np.ones(s)) + rng.uniform(-2e-7, 2e-7, size=s)
            p = project_to_simplex(noisy)
            oracle = projection_oracle(noisy)
            assert float(np.max(np.abs(p.probs - oracle))) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            noisy = rng.dirichlet(np.ones(4)) + rng.uniform(-2e-7, 2e-7, size=4)
            once = project_to_simplex(noisy)
            twice = project_to_simplex(once.probs)
            assert float(np.max(np.abs(once.probs - twice.probs))) < 1e-15

    def test_rejects_genuine_divergence(self):
        with pytest.raises(IntegrationDivergedError):
            project_to_simplex((0.6, 0.6))
        with pytest.raises(IntegrationDivergedError):
            project_to_simplex((1.2, -0.2))
        with pytest.raises(IntegrationDivergedError):
            project_to_simplex((float("nan"), 1.0))


class TestRowProjection:
    @staticmethod
    def noisy_rows(rng, s, n=300):
        rows = rng.dirichlet(np.ones(s), size=n)
        if s > 1:
            # Boundary rows: a zero coordinate, with mass moved to the last one.
            rows[: n // 3, -1] += rows[: n // 3, 0]
            rows[: n // 3, 0] = 0.0
        return rows + rng.uniform(-2e-7, 2e-7, size=rows.shape)

    @pytest.mark.parametrize("s", [1, 2, 3, 5])
    def test_each_row_is_projected_as_if_alone(self, s):
        rng = np.random.default_rng(40 + s)
        noisy = self.noisy_rows(rng, s)
        x, drift = _project_array(noisy)
        assert x.shape == noisy.shape and drift.shape == (noisy.shape[0],)
        for k in range(noisy.shape[0]):
            (alone,), (alone_drift,) = _project_array(noisy[k : k + 1])
            assert np.array_equal(x[k], alone) and drift[k] == alone_drift
            assert float(np.max(np.abs(project_to_simplex(noisy[k]).probs - x[k]))) <= 1e-15

    @pytest.mark.parametrize("s", [2, 3, 5])
    def test_rows_meet_the_kkt_conditions(self, s):
        # x = max(v - theta, 0): mass 1, v - x = theta on the support, v <= theta off it.
        noisy = self.noisy_rows(np.random.default_rng(50 + s), s)
        x, drift = _project_array(noisy)
        assert np.all(x >= 0.0)
        assert float(np.max(np.abs(x.sum(axis=1) - 1.0))) <= 1e-15
        off_support = 0
        for v, row in zip(noisy, x):
            support = row > 0.0
            theta = v[support] - row[support]
            assert float(np.ptp(theta)) <= 1e-15
            assert np.all(v[~support] <= theta.mean() + 1e-15)
            off_support += int(np.count_nonzero(~support))
        assert off_support > 0
        assert np.array_equal(drift, np.max(np.abs(noisy - x), axis=1))

    def test_one_bad_row_fails_the_whole_call(self):
        good = np.full((4, 3), 1.0 / 3.0)
        poisoned = good.copy()
        poisoned[2, 1] = np.inf
        with pytest.raises(IntegrationDivergedError, match="non-finite"):
            _project_array(poisoned)
        over = np.array([[0.5, 0.5], [0.5 + 4e-6, 0.5], [0.5 + 1e-5, 0.5], [0.5, 0.5]])
        with pytest.raises(IntegrationDivergedError, match="drifted 5.000000e-06"):
            _project_array(over)


def _quadratic(rows):
    u0, u1 = rows[:, 0], rows[:, 1]
    return np.column_stack([u0**2 + 3.0 * u0 * u1, 2.0 * u1**2 - u0, u0 - 4.0 * u1])


def _quadratic_jacobian(u):
    return np.array([[2.0 * u[0] + 3.0 * u[1], 3.0 * u[0]], [-1.0, 4.0 * u[1]], [1.0, -4.0]])


class TestChartJacobian:
    ROWS = np.array([[0.2, 0.3], [0.0, 1.0], [-0.02, 0.7], [1.5, -0.4]])

    def test_reproduces_the_exact_jacobian_of_a_quadratic_map(self):
        # Central differences are exact on quadratics, so only rounding remains.
        jac = _chart_jacobian(_quadratic, self.ROWS, 1e-4)
        for row, got in zip(self.ROWS, jac):
            assert np.allclose(got, _quadratic_jacobian(row), rtol=0.0, atol=1e-9)

    def test_batched_call_equals_row_by_row_calls(self):
        spec = corpus("consumer", CONSUMER_PARAMS)

        def chart_drift(rows):
            return spec.drift_batch(_chart_embed(rows))

        batched = _chart_jacobian(chart_drift, self.ROWS, 1e-6)
        for row, got in zip(self.ROWS, batched):
            assert np.array_equal(got, _chart_jacobian(chart_drift, row[None], 1e-6)[0])

    def test_output_shape_is_rows_by_outputs_by_chart_dimension(self):
        calls = []

        def lifted(rows):
            calls.append(rows.shape)
            return _chart_embed(rows)

        jac = _chart_jacobian(lifted, self.ROWS, 1e-6)
        assert jac.shape == (4, 3, 2)
        assert calls == [(16, 2)]
        # The lift appends m_S = 1 - sum(u), so each row of the chart Jacobian
        # of the embedding is a unit vector or the all -1 row.
        assert np.allclose(jac, np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]), atol=1e-9)
        assert np.allclose(_chart_embed(self.ROWS).sum(axis=1), 1.0, atol=1e-15)
