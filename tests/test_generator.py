"""Generators: rate matrices, polynomial cells, the built-in corpus, file IO."""

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from nlmc import (
    GeneratorEvaluationError,
    GeneratorFileError,
    GeneratorSpec,
    RateMatrix,
    SimplexGrid,
    constant_generator,
    corpus,
    generator_from_json,
    generator_to_json,
    irreducible_at,
    lipschitz_estimate,
    load_generator,
    polynomial_generator,
    save_generator,
    validate,
)
from nlmc.generator import CORPUS_NAMES, RATE_FLOOR, _irreducible, rate_matrix_violations

from helpers import (
    CONSUMER_PARAMS,
    naive_rates,
    random_distribution,
    random_polynomial_cells,
    random_rate_matrix,
)

ROW_CASES = [
    pytest.param(corpus("consumer", {"b": 2.0, "e": 3.0, "eps": 0.05, "lam": 0.5}), id="consumer"),
    pytest.param(corpus("bistable"), id="bistable"),
    pytest.param(corpus("oscillator"), id="oscillator"),
    pytest.param(
        polynomial_generator(4, random_polynomial_cells(np.random.default_rng(21), 4)),
        id="random-4",
    ),
]


class TestRateMatrix:
    def test_accepts_conservative_matrix(self):
        q = RateMatrix([[-1.0, 1.0], [2.0, -2.0]])
        assert q.dimension == 2
        assert np.allclose(q.entries, [[-1.0, 1.0], [2.0, -2.0]])

    def test_clamps_offdiagonal_rounding_noise(self):
        q = RateMatrix([[1e-13, -1e-13], [2.0, -2.0]])
        assert q.entries[0, 1] == 0.0

    def test_entries_are_read_only(self):
        q = RateMatrix([[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(ValueError):
            q.entries[0, 1] = 5.0

    def test_rejects_negative_offdiagonal(self):
        with pytest.raises(GeneratorEvaluationError):
            RateMatrix([[0.5, -0.5], [1.0, -1.0]])

    def test_rejects_nonzero_row_sum(self):
        with pytest.raises(GeneratorEvaluationError):
            RateMatrix([[-1.0, 1.1], [1.0, -1.0]])

    def test_violation_messages_name_the_problem(self):
        bad = np.array([[0.5, -0.5], [1.0, -1.0]])
        messages = rate_matrix_violations(bad)
        assert any("negative" in msg for msg in messages)
        bad = np.array([[-1.0, 1.2], [1.0, -1.0]])
        messages = rate_matrix_violations(bad)
        assert any("sums to" in msg for msg in messages)
        assert rate_matrix_violations(np.array([[np.nan, 0.0], [0.0, 0.0]]))
        assert rate_matrix_violations(np.zeros((2, 3)))
        assert not rate_matrix_violations(np.zeros((2, 2)))


class TestPolynomialGenerator:
    def test_rates_match_naive_monomial_evaluation(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            s = int(rng.integers(2, 5))
            cells = random_polynomial_cells(rng, s)
            spec = polynomial_generator(s, cells)
            pts = rng.dirichlet(np.ones(s), size=8)
            q_batch = spec.rates_batch(pts)
            for n in range(pts.shape[0]):
                oracle = naive_rates(s, cells, pts[n])
                assert np.allclose(q_batch[n], oracle, atol=1e-13)

    def test_one_monomial_table_matches_term_by_term_sums(self):
        # Cells share monomials, repeat them within a cell, and span six decades.
        rng = np.random.default_rng(17)
        s = 4
        pool = [tuple(int(e) for e in rng.multinomial(d, np.ones(s) / s)) for d in (0, 1, 1, 2, 3)]
        cells = {
            (i, j): [(pool[k], float(10.0 ** rng.uniform(-3, 3))) for k in rng.integers(0, 5, 4)]
            for i in range(s)
            for j in range(s)
            if i != j
        }
        spec = polynomial_generator(s, cells)
        pts = rng.dirichlet(np.ones(s), size=50)
        for q, point in zip(spec.rates_batch(pts), pts):
            oracle = naive_rates(s, cells, point)
            assert np.all(np.abs(q - oracle) <= 1e-13 * np.abs(oracle))

    @pytest.mark.parametrize("spec", ROW_CASES)
    def test_a_point_gets_the_same_bits_alone_as_in_a_batch(self, spec):
        pts = np.random.default_rng(8).dirichlet(np.ones(spec.dimension), size=500)
        rates, drifts = spec.rates_batch(pts), spec.drift_batch(pts)
        for k, point in enumerate(pts):
            assert np.array_equal(rates[k], spec.rates(point))
            assert np.array_equal(drifts[k], spec.drift(point))

    def test_rows_sum_to_zero_by_construction(self):
        rng = np.random.default_rng(9)
        spec = polynomial_generator(3, random_polynomial_cells(rng, 3))
        pts = rng.dirichlet(np.ones(3), size=50)
        q = spec.rates_batch(pts)
        assert float(np.max(np.abs(q.sum(axis=2)))) < 1e-12

    def test_drift_is_left_multiplication(self):
        rng = np.random.default_rng(13)
        spec = polynomial_generator(3, random_polynomial_cells(rng, 3))
        pts = rng.dirichlet(np.ones(3), size=10)
        batch = spec.drift_batch(pts)
        for n in range(pts.shape[0]):
            expected = pts[n] @ spec.rates(pts[n])
            assert np.allclose(spec.drift(pts[n]), expected, atol=1e-15)
            assert np.allclose(batch[n], expected, atol=1e-15)

    def test_rejects_bad_cells(self):
        with pytest.raises(ValueError):
            polynomial_generator(2, {(0, 0): [((0, 0), 1.0)]})
        with pytest.raises(ValueError):
            polynomial_generator(2, {(0, 2): [((0, 0), 1.0)]})
        with pytest.raises(ValueError):
            polynomial_generator(2, {(0, 1): [((0, 0, 0), 1.0)]})
        with pytest.raises(ValueError):
            polynomial_generator(2, {(0, 1): [((-1, 0), 1.0)]})
        with pytest.raises(ValueError):
            polynomial_generator(2, {(0, 1): [((9, 0), 1.0)]})
        with pytest.raises(ValueError):
            polynomial_generator(2, {(0, 1): [((0, 0), float("inf"))]})

    def test_constant_generator_reproduces_matrix(self):
        rng = np.random.default_rng(2)
        q = random_rate_matrix(rng, 3)
        spec = constant_generator(q)
        for _ in range(5):
            m = random_distribution(rng, 3)
            assert np.allclose(spec.rates(m), q, atol=1e-14)
            assert np.allclose(spec.drift(m), m @ q, atol=1e-14)
        assert isinstance(spec.eval(SimplexGrid(3, 2).points[0]), RateMatrix)

    def test_non_finite_rates_raise(self):
        def batch(points):
            q = np.zeros((points.shape[0], 2, 2))
            q[points[:, 0] > 0.5, 0, 1] = np.nan
            return q

        spec = GeneratorSpec(2, "builtin", batch, name="poisoned")
        assert np.allclose(spec.rates((0.4, 0.6)), 0.0)
        with pytest.raises(GeneratorEvaluationError):
            spec.rates((0.9, 0.1))

    def test_rejects_wrong_point_shape(self):
        spec = corpus("bistable")
        with pytest.raises(ValueError):
            spec.rates_batch(np.zeros((4, 3)))


class TestGeneratorId:
    def test_builtin_ids_are_stable(self):
        assert corpus("bistable").generator_id == "builtin:bistable()"
        a = corpus("consumer", CONSUMER_PARAMS).generator_id
        b = corpus("consumer", CONSUMER_PARAMS).generator_id
        assert a == b
        assert a.startswith("builtin:consumer(")
        other = corpus("consumer", {**CONSUMER_PARAMS, "eps": 0.2}).generator_id
        assert other != a

    def test_polynomial_id_depends_on_cells_not_order(self):
        cells_one = {(0, 1): [((1, 0), 2.0)], (1, 0): [((0, 0), 1.0)]}
        cells_two = {(1, 0): [((0, 0), 1.0)], (0, 1): [((1, 0), 2.0)]}
        id_one = polynomial_generator(2, cells_one).generator_id
        id_two = polynomial_generator(2, cells_two).generator_id
        assert id_one == id_two
        assert id_one.startswith("polynomial:2:")
        changed = {(0, 1): [((1, 0), 2.5)], (1, 0): [((0, 0), 1.0)]}
        assert polynomial_generator(2, changed).generator_id != id_one


class TestCorpus:
    def test_names_and_dimensions(self):
        assert set(CORPUS_NAMES) == {"bistable", "consumer", "oscillator"}
        assert corpus("bistable").dimension == 2
        assert corpus("oscillator").dimension == 3
        assert corpus("consumer", CONSUMER_PARAMS).dimension == 3

    def test_consumer_parameter_validation(self):
        with pytest.raises(ValueError):
            corpus("consumer")
        with pytest.raises(ValueError):
            corpus("consumer", {"b": 1.0, "e": 1.0, "eps": 0.1})
        with pytest.raises(ValueError):
            corpus("consumer", {**CONSUMER_PARAMS, "extra": 2.0})
        with pytest.raises(ValueError):
            corpus("consumer", {**CONSUMER_PARAMS, "b": -1.0})
        with pytest.raises(ValueError):
            corpus("oscillator", {"b": 1.0})
        with pytest.raises(ValueError):
            corpus("bistable", {"b": 1.0})
        with pytest.raises(ValueError):
            corpus("unknown-name")

    def test_bistable_rates_at_known_points(self):
        spec = corpus("bistable")
        q0 = spec.rates((0.0, 1.0))
        assert q0[0, 1] == pytest.approx(22.0 / 3.0, abs=1e-12)
        assert q0[1, 0] == pytest.approx(1.0, abs=1e-12)
        q1 = spec.rates((1.0, 0.0))
        assert q1[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert q1[1, 0] == pytest.approx(3.0, abs=1e-12)

    def test_consumer_rates_at_known_point(self):
        spec = corpus("consumer", CONSUMER_PARAMS)
        q = spec.rates((0.2, 0.3, 0.5))
        expected = np.array(
            [
                [-1.3, 1.0, 0.3],
                [0.0, -0.4, 0.4],
                [1.0, 1.0, -2.0],
            ]
        )
        assert np.allclose(q, expected, atol=1e-14)

    def test_oscillator_drift_rotates_about_center(self):
        spec = corpus("oscillator")
        pts = [
            (0.2, 0.4, 0.4),
            (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
            (0.5, 0.3, 0.2),
            (0.12, 0.5, 0.38),
            (0.4, 0.12, 0.48),
        ]
        for m in pts:
            m = np.asarray(m)
            f = spec.drift(m)
            expected = np.array([m[1] - 1.0 / 3.0, 1.0 / 3.0 - m[0], m[0] - m[1]])
            assert np.allclose(f, expected, atol=1e-12)

    def test_corpus_members_are_conservative_everywhere(self):
        for spec in (
            corpus("bistable"),
            corpus("oscillator"),
            corpus("consumer", CONSUMER_PARAMS),
        ):
            rng = np.random.default_rng(21)
            pts = rng.dirichlet(np.ones(spec.dimension), size=200)
            q = spec.rates_batch(pts)
            assert float(np.max(np.abs(q.sum(axis=2)))) < 1e-12
            off = ~np.eye(spec.dimension, dtype=bool)
            assert float(q[:, off].min()) >= 0.0


class TestValidate:
    def test_corpus_members_validate_clean(self):
        for spec in (
            corpus("bistable"),
            corpus("oscillator"),
            corpus("consumer", CONSUMER_PARAMS),
        ):
            report = validate(spec)
            assert report.valid
            assert report.grid_resolution == 20
            assert report.checked == len(SimplexGrid(spec.dimension, 20))
            assert report.violations == ()

    def test_reports_nonconservative_rates(self):
        def batch(points):
            n = points.shape[0]
            q = np.tile(np.array([[-1.0, 1.2], [1.0, -1.0]]), (n, 1, 1))
            return q

        spec = GeneratorSpec(2, "builtin", batch, name="leaks-mass")
        report = validate(spec)
        assert not report.valid
        assert any("row sum off by" in v.message for v in report.violations)
        with pytest.raises(GeneratorEvaluationError):
            spec.require_valid()

    def test_reports_negative_offdiagonal_rates(self):
        def batch(points):
            n = points.shape[0]
            return np.tile(np.array([[0.5, -0.5], [1.0, -1.0]]), (n, 1, 1))

        spec = GeneratorSpec(2, "builtin", batch, name="negative-rate")
        report = validate(spec)
        assert not report.valid
        assert any("negative" in v.message for v in report.violations)

    def test_violations_match_a_point_by_point_oracle(self):
        # Non-finite rates where m1 >= 1/2, a negative off-diagonal rate where
        # m2 >= 1/2 and a row-sum fault where m3 >= 1/2; the faults overlap
        # at (1/2, 0, 1/2) and (0, 1/2, 1/2).
        def batch(points):
            q = np.zeros((points.shape[0], 3, 3))
            q[:, 0, 1] = q[:, 1, 2] = q[:, 2, 0] = 1.0
            q[:, 1, 2] = np.where(points[:, 1] >= 0.5, -0.25, 1.0)
            idx = np.arange(3)
            q[:, idx, idx] = -q.sum(axis=2)
            q[:, 2, 2] += np.where(points[:, 2] >= 0.5, 0.5, 0.0)
            q[:, 0, 1] = np.where(points[:, 0] >= 0.5, np.nan, q[:, 0, 1])
            return q

        spec = GeneratorSpec(3, "builtin", batch, name="three-faults")
        grid = SimplexGrid(3, 6)
        expected = []
        for row in grid.array:
            point = tuple(float(x) for x in row)
            (q,) = batch(row[None])
            if not np.all(np.isfinite(q)):
                expected.append((point, "non-finite rates"))
                continue
            off = min(q[i, j] for i in range(3) for j in range(3) if i != j)
            if off < -1e-10:
                expected.append((point, f"negative off-diagonal rate {off:.6e}"))
            worst = max(abs(float(q[i].sum())) for i in range(3))
            if worst > 1e-9:
                expected.append((point, f"row sum off by {worst:.6e}"))

        report = validate(spec, grid)
        assert [(v.point, v.message) for v in report.violations] == expected
        messages = {v.message.split(" ")[0] for v in report.violations}
        assert messages == {"non-finite", "negative", "row"}
        assert report.checked == len(grid)

    def test_grid_validation_is_grid_limited(self):
        # The leak vanishes at every multiple of 1/20, so the default grid
        # cannot see it; a grid with a different resolution can.
        def batch(points):
            n = points.shape[0]
            q = np.zeros((n, 2, 2))
            q[:, 0, 1] = 1.0 + 0.3 * np.sin(20.0 * np.pi * points[:, 0]) ** 2
            q[:, 0, 0] = -1.0
            q[:, 1, 0] = 1.0
            q[:, 1, 1] = -1.0
            return q

        spec = GeneratorSpec(2, "builtin", batch, name="grid-aligned-leak")
        assert validate(spec).valid
        assert not validate(spec, SimplexGrid(2, 37)).valid


class TestLipschitzEstimate:
    def test_constant_generator_has_zero_estimate(self):
        rng = np.random.default_rng(4)
        spec = constant_generator(random_rate_matrix(rng, 3))
        assert lipschitz_estimate(spec) == 0.0

    def test_linear_cell_gives_half_slope(self):
        # Q12 = m1 changes by 1/k across a one-move neighbor pair while the
        # l1 distance is 2/k, so the ratio is exactly 1/2 at any resolution.
        cells = {(0, 1): [((1, 0), 1.0)], (1, 0): [((0, 0), 1.0)]}
        spec = polynomial_generator(2, cells)
        assert lipschitz_estimate(spec, SimplexGrid(2, 100)) == pytest.approx(0.5, rel=1e-12)

    def test_consumer_estimate_is_half_crowd_coefficient(self):
        spec = corpus("consumer", CONSUMER_PARAMS)
        assert lipschitz_estimate(spec) == pytest.approx(0.5, rel=1e-12)

    def test_bistable_estimate_frozen(self):
        spec = corpus("bistable")
        value = lipschitz_estimate(spec, SimplexGrid(2, 50))
        assert value == pytest.approx(7.903333333333329, rel=1e-12)


class TestIrreducibility:
    def test_consumer_is_irreducible_in_the_interior(self):
        spec = corpus("consumer", CONSUMER_PARAMS)
        rng = np.random.default_rng(17)
        for _ in range(50):
            assert irreducible_at(spec, random_distribution(rng, 3))

    def test_bistable_is_irreducible_everywhere(self):
        spec = corpus("bistable")
        for m in SimplexGrid(2, 10).points:
            assert irreducible_at(spec, m)

    def test_oscillator_frozen_chain_is_reducible(self):
        spec = corpus("oscillator")
        center = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
        assert not irreducible_at(spec, center)

    def test_block_structure_is_reducible(self):
        q = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
        spec = constant_generator(q)
        assert not irreducible_at(spec, (0.3, 0.3, 0.4))

    def test_batched_kernel_matches_strong_components_oracle(self):
        def cycle(last_rate):
            q = np.zeros((3, 3))
            q[0, 1], q[1, 2], q[2, 0] = 1.0, 1.0, last_rate
            np.fill_diagonal(q, -q.sum(axis=1))
            return q

        rng = np.random.default_rng(53)
        for s in range(1, 7):
            stack = np.array(
                [random_rate_matrix(rng, s, sparsity=p) for p in (0.0, 0.3, 0.5, 0.7) * 10]
            )
            if s == 3:
                # A rate exactly at the floor is not an edge; twice the floor is.
                stack = np.concatenate([stack, [cycle(RATE_FLOOR), cycle(2.0 * RATE_FLOOR)]])
            expected = [
                connected_components(q > RATE_FLOOR, directed=True, connection="strong")[0] == 1
                for q in stack
            ]
            assert _irreducible(stack).tolist() == expected
            assert 0 < sum(expected) < len(expected) or s == 1
            if s == 3:
                assert expected[-2:] == [False, True]


class TestFileRoundTrip:
    def test_save_load_round_trip_is_byte_stable(self, tmp_path):
        rng = np.random.default_rng(23)
        cells = random_polynomial_cells(rng, 3)
        spec = polynomial_generator(3, cells, metadata={"label": "round-trip"})
        path = tmp_path / "generator.json"
        save_generator(spec, path)
        loaded = load_generator(path)
        assert loaded.generator_id == spec.generator_id
        assert loaded.metadata == {"label": "round-trip"}
        assert generator_to_json(loaded) == generator_to_json(spec)
        pts = rng.dirichlet(np.ones(3), size=20)
        assert np.allclose(loaded.rates_batch(pts), spec.rates_batch(pts), atol=0.0)

    def test_canonical_text_ignores_cell_order(self):
        cells_one = {(0, 1): [((1, 0), 2.0)], (1, 0): [((0, 0), 1.0)]}
        cells_two = {(1, 0): [((0, 0), 1.0)], (0, 1): [((1, 0), 2.0)]}
        assert generator_to_json(polynomial_generator(2, cells_one)) == generator_to_json(
            polynomial_generator(2, cells_two)
        )

    def test_builtin_closed_forms_cannot_be_saved(self):
        with pytest.raises(ValueError):
            generator_to_json(corpus("oscillator"))

    def test_bistable_cell_table_survives_the_file_format(self, tmp_path):
        spec = corpus("bistable")
        path = tmp_path / "bistable.json"
        save_generator(spec, path)
        loaded = load_generator(path)
        xs = np.linspace(0.0, 1.0, 17)
        pts = np.column_stack([xs, 1.0 - xs])
        assert np.allclose(loaded.rates_batch(pts), spec.rates_batch(pts), atol=0.0)


class TestFileErrors:
    def test_invalid_json_reports_position(self):
        with pytest.raises(GeneratorFileError, match="line 1"):
            generator_from_json("{ nope")

    def test_schema_violations_are_named(self):
        good = generator_to_json(corpus("bistable"))
        cases = [
            ('"just a string"', "top level"),
            (good.replace('"nlmc-generator"', '"other-format"'), "format"),
            (good.replace('"version": 1', '"version": 2'), "version"),
            (good.replace('"dimension": 2', '"dimension": 0'), "dimension"),
            (good.replace('"from": 1', '"from": 5'), "out of range"),
            (good.replace('"from": 2', '"from": 1'), "diagonal"),
        ]
        for text, needle in cases:
            with pytest.raises(GeneratorFileError, match=needle):
                generator_from_json(text)

    def test_term_schema_violations(self):
        def doc(terms):
            return (
                '{"format": "nlmc-generator", "version": 1, "dimension": 2, '
                '"metadata": {}, "cells": [{"from": 1, "to": 2, "terms": ' + terms + "}]}"
            )

        with pytest.raises(GeneratorFileError, match="exponents"):
            generator_from_json(doc('[{"exponents": [1], "coefficient": 1.0}]'))
        with pytest.raises(GeneratorFileError, match="exponents"):
            generator_from_json(doc('[{"exponents": [1, -1], "coefficient": 1.0}]'))
        with pytest.raises(GeneratorFileError, match="degree"):
            generator_from_json(doc('[{"exponents": [9, 0], "coefficient": 1.0}]'))
        with pytest.raises(GeneratorFileError, match="coefficient"):
            generator_from_json(doc('[{"exponents": [1, 0], "coefficient": true}]'))
        with pytest.raises(GeneratorFileError, match="coefficient"):
            generator_from_json(doc('[{"exponents": [1, 0]}]'))
        with pytest.raises(GeneratorFileError):
            generator_from_json(doc('[{"exponents": [1, 0], "coefficient": Infinity}]'))

    def test_dimension_indices_and_exponents_must_be_json_integers(self):
        # int() truncated 1.9 to state 1 and read the string "2" as state 2,
        # and JSON true passed as the integer 1.
        good = generator_to_json(corpus("bistable"))
        cases = [
            (good.replace('"from": 1,', '"from": 1.9,'), r"cells\[0\]\.from"),
            (good.replace('"to": 2', '"to": "2"'), r"cells\[0\]\.to"),
            (good.replace('"to": 1', '"to": true'), r"cells\[1\]\.to"),
            (
                '{"format": "nlmc-generator", "version": 1, "dimension": 2, "cells": '
                '[{"from": 1, "to": 2, "terms": [{"exponents": [true, false], '
                '"coefficient": 1.0}]}]}',
                "exponents",
            ),
            (
                '{"format": "nlmc-generator", "version": 1, "dimension": true, "cells": []}',
                "dimension",
            ),
        ]
        for text, needle in cases:
            with pytest.raises(GeneratorFileError, match=needle):
                generator_from_json(text)

    def test_missing_file_raises_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_generator(tmp_path / "does-not-exist.json")
