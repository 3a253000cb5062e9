"""Simplex primitives: distributions, lattice grids, projection, tangent cone."""

import math
import re

import numpy as np
import pytest

import nlmc
from nlmc import (
    Distribution,
    IntegrationDivergedError,
    SimplexGrid,
    constant_generator,
    corpus,
)
from nlmc.simplex import _chart_embed, _chart_jacobian, _project_array

from helpers import (
    CONSUMER_PARAMS,
    projection_oracle,
    random_rate_matrix,
    sorted_projection_oracle,
    stays_in_simplex,
)


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

    @pytest.mark.parametrize(
        "probs, text",
        [((1.0,), "Distribution((1.0,))"), ((0.2, 0.3, 0.5), "Distribution((0.2, 0.3, 0.5))")],
        ids=["S=1", "S=3"],
    )
    def test_repr_evaluates_back_to_an_equal_distribution(self, probs, text):
        d = Distribution(probs)
        assert repr(d) == text
        assert eval(repr(d), {"Distribution": Distribution}) == d


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

    @pytest.mark.parametrize("dimension, resolution", [(3, 2.5), (2, True), (2, "2"), (2.0, 3)])
    def test_refuses_a_size_that_is_not_an_integer(self, dimension, resolution):
        with pytest.raises(ValueError, match="must be an integer"):
            SimplexGrid(dimension, resolution)

    def test_takes_numpy_integers(self):
        grid = SimplexGrid(np.int64(3), np.int32(2))
        assert (grid.dimension, grid.resolution, len(grid)) == (3, 2, 6)
        assert type(grid.dimension) is int and type(grid.resolution) is int


class TestTangentCone:
    def test_vertex_allows_outflow_only(self):
        vertex = np.array([1.0, 0.0])
        assert stays_in_simplex(vertex, np.array([-1.0, 1.0]))
        assert not stays_in_simplex(vertex, np.array([1.0, -1.0]))

    def test_interior_point_needs_only_zero_sum(self):
        m = np.array([0.5, 0.5])
        assert stays_in_simplex(m, np.array([0.3, -0.3]))
        assert not stays_in_simplex(m, np.array([0.3, -0.2]))

    def test_drift_of_random_generators_is_tangent(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            s = int(rng.integers(2, 5))
            spec = constant_generator(random_rate_matrix(rng, s, sparsity=0.5))
            v = rng.random(s) * (rng.random(s) < 0.7)
            if v.sum() == 0.0:
                v[int(rng.integers(s))] = 1.0
            m = Distribution(v / v.sum())
            assert stays_in_simplex(m.probs, spec.drift(m))

    def test_corpus_drifts_are_tangent_on_boundary_grids(self):
        specs = (
            corpus("bistable"),
            corpus("oscillator"),
            corpus("consumer", CONSUMER_PARAMS),
        )
        for spec in specs:
            for m in SimplexGrid(spec.dimension, 4).points:
                assert stays_in_simplex(m.probs, spec.drift(m))


def _project_one(v) -> np.ndarray:
    (x,), _ = _project_array(np.array([v], dtype=float))
    return x


class TestProjection:
    def test_identity_on_simplex_points(self):
        for v in ((0.5, 0.5), (1.0, 0.0, 0.0), (0.2, 0.3, 0.5)):
            p = _project_one(v)
            assert np.allclose(p, v, atol=1e-15)

    def test_repairs_rounding_scale_drift(self):
        p = _project_one((1.0000004, -0.0000004, 0.0))
        assert np.allclose(p, (1.0, 0.0, 0.0), atol=1e-12)

    def test_matches_bisection_oracle_on_random_noise(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            s = int(rng.integers(2, 6))
            noisy = rng.dirichlet(np.ones(s)) + rng.uniform(-2e-7, 2e-7, size=s)
            p = _project_one(noisy)
            oracle = projection_oracle(noisy)
            assert float(np.max(np.abs(p - oracle))) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            noisy = rng.dirichlet(np.ones(4)) + rng.uniform(-2e-7, 2e-7, size=4)
            once = _project_one(noisy)
            twice = _project_one(once)
            assert float(np.max(np.abs(once - twice))) < 1e-15

    def test_rejects_genuine_divergence(self):
        with pytest.raises(IntegrationDivergedError):
            _project_one((0.6, 0.6))
        with pytest.raises(IntegrationDivergedError):
            _project_one((1.2, -0.2))
        with pytest.raises(IntegrationDivergedError):
            _project_one((float("nan"), 1.0))
        # Refused before any sum: inf - inf would warn.
        with pytest.raises(IntegrationDivergedError):
            _project_one((float("inf"), float("-inf")))


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

    def test_a_nan_in_the_last_row_of_a_stack_on_the_simplex_is_refused(self):
        # Positive dyadic rows sum to exactly 1.0, so the clean stack takes the early exit.
        rows = (1 + np.random.default_rng(4096).multinomial(61, np.ones(3) / 3, size=4096)) / 64.0
        x, drift = _project_array(rows)
        assert x.tobytes() == rows.tobytes() and not drift.any()
        rows[-1, 1] = np.nan
        with pytest.raises(IntegrationDivergedError, match="non-finite"):
            _project_array(rows)


ROW_KINDS = ("on-simplex", "zero-entries", "negative-entry", "dirichlet", "off-by-1e-9")
# A one-state row has no room for a zero or a negative entry.
ONE_STATE_KINDS = ("on-simplex", "dirichlet", "off-by-1e-9")


class TestSortedProjectionOracle:
    """``_project_array`` returns what the full sort-based search returns, bit for
    bit, whether or not it takes its exit for rows already on the simplex."""

    @staticmethod
    def rows(rng, s, kind, n=200):
        if kind == "on-simplex":
            # Positive dyadic entries: every partial sum is exact, so each
            # row's descending sum is exactly 1.0.
            return (1 + rng.multinomial(64 - s, np.ones(s) / s, size=n)) / 64.0
        if kind == "zero-entries":
            rows = rng.multinomial(64, np.ones(s) / s, size=n) / 64.0
            rows[:, -1] += rows[:, 0]
            rows[:, 0] = 0.0
            return rows
        if kind == "negative-entry":
            # The descending sum is exactly 1.0, yet the threshold is not 0.
            rows = (1 + rng.multinomial(64 - s, np.ones(s) / s, size=n)) / 64.0
            rows[:, -1] += rows[:, 0] + 2.0**-30
            rows[:, 0] = -(2.0**-30)
            return rows
        if kind == "dirichlet":
            return rng.dirichlet(np.ones(s), size=n)
        return rng.dirichlet(np.ones(s), size=n) + rng.uniform(-1e-9, 1e-9, size=(n, s))

    @staticmethod
    def assert_matches_oracle(v):
        x, drift = _project_array(v)
        oracle_x, oracle_drift = sorted_projection_oracle(v)
        assert x.tobytes() == oracle_x.tobytes()
        assert drift.tobytes() == oracle_drift.tobytes()
        assert not np.shares_memory(x, v)
        return x, drift

    @pytest.mark.parametrize(
        "s, kind", [(s, k) for k in ROW_KINDS for s in range(1, 7) if s > 1 or k in ONE_STATE_KINDS]
    )
    def test_each_kind_of_row(self, s, kind):
        v = self.rows(np.random.default_rng(10 * s), s, kind)
        x, drift = self.assert_matches_oracle(v)
        sums = np.add.accumulate(np.sort(v, axis=1)[:, ::-1], axis=1)[:, -1]
        if kind == "on-simplex":
            # Every row meets the exit's premise, so the whole stack takes it.
            assert np.all(sums == 1.0) and np.all(v > 0.0)
            assert np.array_equal(x, v) and not drift.any()
        if kind == "negative-entry":
            # The sums alone would pass the exit; the negative entry must still move.
            assert np.all(sums == 1.0) and drift.all()

    @pytest.mark.parametrize("s", range(1, 7))
    def test_mixed_stacks_and_single_rows(self, s):
        rng = np.random.default_rng(70 + s)
        kinds = ROW_KINDS if s > 1 else ONE_STATE_KINDS
        v = np.concatenate([self.rows(rng, s, kind, n=50) for kind in kinds])
        v = v[rng.permutation(len(v))]
        x, drift = self.assert_matches_oracle(v)
        for k in range(0, len(v), 7):
            alone, alone_drift = self.assert_matches_oracle(v[k : k + 1])
            assert alone.tobytes() == x[k : k + 1].tobytes() and alone_drift[0] == drift[k]

    def test_an_empty_stack(self):
        x, drift = _project_array(np.empty((0, 3)))
        assert x.shape == (0, 3) and drift.shape == (0,)


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


# Every entry point that takes points, called with 3-state input on the 2-state
# bistable generator, and the name its refusal gives that input.  The entries of
# _WORKING go on to validate, evaluate rates or integrate once the input is read.
_THREE = (0.2, 0.3, 0.5)
_RAGGED = [(0.5, 0.5), _THREE]  # numpy refuses to stack it; nlmc must word the refusal
_WRONG_STATE_COUNT = {
    "integrate_flow": ("m0", lambda spec: nlmc.integrate_flow(spec, _THREE, 1.0)),
    "integrate_flow-stack": ("m0", lambda spec: nlmc.integrate_flow(spec, [_THREE, _THREE], 1.0)),
    "integrate_flow-ragged": ("m0", lambda spec: nlmc.integrate_flow(spec, _RAGGED, 1.0)),
    "integrate_flow-ragged-iterator": (
        "m0", lambda spec: nlmc.integrate_flow(spec, iter(_RAGGED), 1.0)
    ),
    "evolve": ("m0", lambda spec: nlmc.evolve(spec, _THREE, 1.0)),
    "sample_path": ("m0", lambda spec: nlmc.sample_path(spec, _THREE, horizon=1.0)),
    "sample_path-flow": ("m0", lambda spec: nlmc.sample_path(
        spec, _THREE, horizon=1.0, flow=_BISTABLE_FLOW
    )),
    "find_invariant-seeds": ("seeds", lambda spec: nlmc.find_invariant(spec, [_THREE])),
    "find_invariant-ragged": ("seeds", lambda spec: nlmc.find_invariant(spec, _RAGGED)),
    "find_invariant-ragged-iterator": (
        "seeds", lambda spec: nlmc.find_invariant(spec, iter(_RAGGED))
    ),
    "find_invariant-grid": ("grid", lambda spec: nlmc.find_invariant(spec, SimplexGrid(3, 4))),
    "build_M": ("points", lambda spec: nlmc.build_M(spec, _THREE)),
    "frozen_stationary": ("points", lambda spec: nlmc.frozen_stationary(spec, _THREE)),
    "residual": ("points", lambda spec: nlmc.residual(spec, _THREE)),
    "rates": ("points", lambda spec: spec.rates(_THREE)),
    "drift": ("points", lambda spec: spec.drift(Distribution(_THREE))),
    "validate": ("grid", lambda spec: nlmc.validate(spec, SimplexGrid(3, 4))),
    "certify_unique": ("grid", lambda spec: nlmc.certify_unique(spec, SimplexGrid(3, 4))),
}
_BISTABLE_FLOW = nlmc.integrate_flow(corpus("bistable"), (0.5, 0.5), 1.0)
_WORKING = ["integrate_flow", "integrate_flow-stack", "evolve", "sample_path",
            "sample_path-flow", "find_invariant-seeds", "find_invariant-grid",
            "integrate_flow-ragged", "integrate_flow-ragged-iterator",
            "find_invariant-ragged", "find_invariant-ragged-iterator"]


class TestPointInput:
    @pytest.mark.parametrize("entry", list(_WRONG_STATE_COUNT))
    def test_a_wrong_state_count_is_refused_in_one_wording(self, entry):
        what, call = _WRONG_STATE_COUNT[entry]
        message = f"^{what} on 3 states does not match the generator's 2 states$"
        with pytest.raises(ValueError, match=message):
            call(corpus("bistable"))

    @pytest.mark.parametrize("entry", _WORKING)
    def test_a_wrong_state_count_is_refused_before_any_work(self, entry, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("worked before checking the state count")

        monkeypatch.setattr(nlmc.generator, "validate", no_work)
        monkeypatch.setattr(nlmc.generator.GeneratorSpec, "rates_batch", no_work)
        monkeypatch.setattr(nlmc.semigroup, "thinning_bound", no_work)
        monkeypatch.setattr(nlmc.stationary, "integrate_flow", no_work)
        if entry.startswith("sample_path"):
            monkeypatch.setattr(nlmc.semigroup, "integrate_flow", no_work)
        what, call = _WRONG_STATE_COUNT[entry]
        with pytest.raises(ValueError, match=f"^{what} on 3 states"):
            call(corpus("bistable"))

    def test_numpy_reads_a_distribution_as_its_probs_without_a_copy(self):
        d = Distribution((0.2, 0.3, 0.5))
        assert np.asarray(d) is d.probs
        assert np.asarray(d, dtype=float) is d.probs
        copied = np.array(d)
        assert np.array_equal(copied, d.probs) and not np.shares_memory(copied, d.probs)
        copied /= 2.0  # the copy is the caller's to write; the stored array is read-only
        assert not np.asarray(d).flags.writeable
        assert np.asarray(d, dtype=np.float32).dtype == np.float32
        # Called directly with a dtype alone, and no copy keyword.
        assert d.__array__() is d.probs and d.__array__(float) is d.probs

    def test_a_distribution_passes_through_bit_for_bit(self):
        # Renormalizing the numbers of a stored point again moves the last bits
        # of some points; a Distribution argument keeps its own.
        rng = np.random.default_rng(0)
        points = [Distribution(p) for p in rng.dirichlet(np.ones(3), 2000)]
        moved = [d for d in points if not np.array_equal(Distribution(d.probs).probs, d.probs)]
        assert len(moved) > 50
        spec = corpus("consumer", CONSUMER_PARAMS)
        for d in moved[:20]:
            assert Distribution(d).probs.tobytes() == d.probs.tobytes()
            assert nlmc.integrate_flow(spec, d, 0.1).ys[0].tobytes() == d.probs.tobytes()
        flow = nlmc.integrate_flow(spec, moved[:20], 0.1)
        starts = flow.ys[list(flow.offsets[:-1])]
        assert starts.tobytes() == np.array([d.probs for d in moved[:20]]).tobytes()

    @pytest.mark.parametrize("point, shape", [([[0.5, 0.5]], (1, 2)), (0.5, ())], ids=str)
    @pytest.mark.parametrize("call", [
        lambda spec, m: spec.rates(m),
        lambda spec, m: spec.drift(m),
        lambda spec, m: nlmc.residual(spec, m),
        lambda spec, m: nlmc.frozen_stationary(spec, m),
        lambda spec, m: nlmc.build_M(spec, m),
    ], ids=["rates", "drift", "residual", "frozen_stationary", "build_M"])
    def test_a_point_that_is_not_a_vector_is_refused_by_its_own_shape(self, call, point, shape):
        message = f"^a point must be a vector \\(2,\\), got shape {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=message):
            call(corpus("bistable"), point)

    @pytest.mark.parametrize("call", [
        lambda: Distribution(_RAGGED),
        lambda: nlmc.sample_path(corpus("bistable"), _RAGGED, horizon=1.0),
    ], ids=["Distribution", "sample_path"])
    def test_a_ragged_stack_is_refused_as_no_distribution(self, call):
        with pytest.raises(ValueError, match="^distribution must be a non-empty 1-d vector"):
            call()

    def test_an_empty_stack_is_refused(self):
        for call in (
            lambda spec: nlmc.integrate_flow(spec, [], 1.0),
            lambda spec: nlmc.find_invariant(spec, np.empty((0, 2))),
        ):
            with pytest.raises(ValueError, match="must hold at least one point"):
                call(corpus("bistable"))
