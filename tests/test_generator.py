"""Generators: rate matrices, polynomial cells, the built-in corpus, file IO."""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

import nlmc.generator
from nlmc import (
    GeneratorEvaluationError,
    GeneratorFileError,
    GeneratorSpec,
    SimplexGrid,
    constant_generator,
    corpus,
    generator_from_json,
    generator_to_json,
    lipschitz_estimate,
    load_generator,
    save_generator,
    validate,
)
from nlmc.generator import CORPUS_NAMES, MAX_TOTAL_DEGREE, RATE_FLOOR, ROWSUM_TOL, _irreducible

from helpers import (
    CONSUMER_PARAMS,
    einsum_oracle,
    fraction_rates,
    naive_rates,
    oscillator_rates_oracle,
    random_distribution,
    random_polynomial_cells,
    random_rate_matrix,
)

ROW_CASES = [
    pytest.param(corpus("consumer", {"b": 2.0, "e": 3.0, "eps": 0.05, "lam": 0.5}), id="consumer"),
    pytest.param(corpus("bistable"), id="bistable"),
    pytest.param(corpus("oscillator"), id="oscillator"),
    pytest.param(
        GeneratorSpec(4, cells=random_polynomial_cells(np.random.default_rng(21), 4)),
        id="random-4",
    ),
]


class TestRateMatrix:
    """``constant_generator``'s check of the one rate matrix it wraps."""

    def test_accepts_conservative_matrix(self):
        spec = constant_generator([[-1.0, 1.0], [2.0, -2.0]])
        assert spec.dimension == 2
        assert np.allclose(spec.rates((0.3, 0.7)), [[-1.0, 1.0], [2.0, -2.0]])

    def test_clamps_offdiagonal_rounding_noise(self):
        spec = constant_generator([[1e-13, -1e-13], [2.0, -2.0]])
        assert (0, 1) not in spec.cells
        assert spec.rates((0.5, 0.5))[0, 1] == 0.0
        assert spec.generator_id == constant_generator([[0.0, 0.0], [2.0, -2.0]]).generator_id

    def test_later_edits_of_the_matrix_do_not_reach_the_rates(self):
        q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        spec = constant_generator(q)
        q[0, 1] = 5.0
        assert spec.rates((0.5, 0.5))[0, 1] == 1.0

    def test_rejects_negative_offdiagonal(self):
        with pytest.raises(GeneratorEvaluationError):
            constant_generator([[0.5, -0.5], [1.0, -1.0]])

    def test_rejects_nonzero_row_sum(self):
        with pytest.raises(GeneratorEvaluationError):
            constant_generator([[-1.0, 1.1], [1.0, -1.0]])

    def test_accepts_a_conservative_chain_at_rate_scale_1e8(self):
        # Rounding of rates near 1e8 alone leaves a row sum 1.5e-8 from zero.
        q = random_rate_matrix(np.random.default_rng(0), 4, 0.2e8, 1.5e8)
        assert float(np.max(np.abs(q.sum(axis=1)))) > ROWSUM_TOL
        spec = constant_generator(q)
        assert validate(spec).valid
        off = ~np.eye(4, dtype=bool)
        assert np.array_equal(spec.rates(np.full(4, 0.25))[off], q[off])

    @pytest.mark.parametrize("scale", [1.0, 1e8])
    def test_refuses_an_unbalanced_row_at_any_scale(self, scale):
        # The second row's sum misses zero by ten times its slack.
        q = scale * np.array([[-1.0, 0.6, 0.4], [0.3, -0.8, 0.5], [0.2, 0.7, -0.9]])
        q[1, 1] += 10.0 * ROWSUM_TOL * scale
        with pytest.raises(GeneratorEvaluationError, match="row sum off by"):
            constant_generator(q)
        spec = GeneratorSpec(3, lambda p: np.broadcast_to(q, (len(p), 3, 3)).copy(), name="leak")
        report = validate(spec)
        assert not report.valid
        assert all(v.message.startswith("row sum off by") for v in report.violations)

    def test_violation_messages_name_the_problem(self):
        with pytest.raises(GeneratorEvaluationError, match="negative off-diagonal rate"):
            constant_generator([[0.5, -0.5], [1.0, -1.0]])
        with pytest.raises(GeneratorEvaluationError, match="row sum off by"):
            constant_generator([[-1.0, 1.2], [1.0, -1.0]])
        with pytest.raises(GeneratorEvaluationError, match="^non-finite rates$"):
            constant_generator([[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="square and non-empty"):
            constant_generator(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="square and non-empty"):
            constant_generator(np.zeros((0, 0)))
        assert constant_generator(np.zeros((2, 2))).cells == {}
        assert constant_generator(np.zeros((1, 1))).dimension == 1

    @pytest.mark.parametrize(
        "q",
        [
            pytest.param([[0.5, -0.5], [1.0, -1.0]], id="negative-offdiagonal"),
            pytest.param([[-1.0, 1.1], [1.0, -1.0]], id="row-sum"),
            pytest.param([[np.nan, 0.0], [0.0, 0.0]], id="nan"),
        ],
    )
    def test_refusal_words_the_failure_as_validate_does(self, q):
        q = np.array(q)
        spec = GeneratorSpec(2, lambda p: np.broadcast_to(q, (len(p), 2, 2)).copy(), name="fixed")
        first = validate(spec, SimplexGrid(2, 1)).violations[0]
        with pytest.raises(GeneratorEvaluationError) as refused:
            constant_generator(q)
        assert str(refused.value) == first.message


class TestPolynomialGenerator:
    def test_rates_match_naive_monomial_evaluation(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            s = int(rng.integers(2, 5))
            cells = random_polynomial_cells(rng, s)
            spec = GeneratorSpec(s, cells=cells)
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
        spec = GeneratorSpec(s, cells=cells)
        pts = rng.dirichlet(np.ones(s), size=50)
        for q, point in zip(spec.rates_batch(pts), pts):
            oracle = naive_rates(s, cells, point)
            assert np.all(np.abs(q - oracle) <= 1e-13 * np.abs(oracle))

    @pytest.mark.parametrize("s", range(1, 7))
    def test_rates_match_exact_fractions_at_rational_points(self, s):
        # Dyadic points are exact floats: on the simplex, then off-simplex probes.
        rng = np.random.default_rng(50 + s)
        for _ in range(4):
            cells = random_polynomial_cells(rng, s)  # S = 1 has no cells
            spec = GeneratorSpec(s, cells=cells)
            on = rng.multinomial(1024, np.ones(s) / s, size=5) / 1024.0
            off = rng.integers(-512, 1536, size=(5, s)) / 1024.0
            for point, q in zip(np.vstack([on, off]), spec.rates_batch(np.vstack([on, off]))):
                exact, scale = fraction_rates(s, cells, point)
                for i in range(s):
                    assert sum(exact[i]) == 0
                    for j in range(s):
                        assert abs(Fraction(q[i, j]) - exact[i][j]) <= 1e-13 * scale[i]

    @pytest.mark.parametrize("spec", ROW_CASES)
    def test_a_point_gets_the_same_bits_alone_as_in_a_batch(self, spec):
        pts = np.random.default_rng(8).dirichlet(np.ones(spec.dimension), size=500)
        rates, drifts = spec.rates_batch(pts), spec.drift_batch(pts)
        for k, point in enumerate(pts):
            assert np.array_equal(rates[k], spec.rates(point))
            assert np.array_equal(drifts[k], spec.drift(point))

    def test_rows_sum_to_zero_by_construction(self):
        rng = np.random.default_rng(9)
        spec = GeneratorSpec(3, cells=random_polynomial_cells(rng, 3))
        pts = rng.dirichlet(np.ones(3), size=50)
        q = spec.rates_batch(pts)
        assert float(np.max(np.abs(q.sum(axis=2)))) < 1e-12

    def test_drift_is_left_multiplication(self):
        rng = np.random.default_rng(13)
        spec = GeneratorSpec(3, cells=random_polynomial_cells(rng, 3))
        pts = rng.dirichlet(np.ones(3), size=10)
        batch = spec.drift_batch(pts)
        for n in range(pts.shape[0]):
            expected = pts[n] @ spec.rates(pts[n])
            assert np.allclose(spec.drift(pts[n]), expected, atol=1e-15)
            assert np.allclose(batch[n], expected, atol=1e-15)

    def test_rejects_bad_cells(self):
        with pytest.raises(ValueError):
            GeneratorSpec(2, cells={(0, 0): [((0, 0), 1.0)]})
        with pytest.raises(ValueError):
            GeneratorSpec(2, cells={(0, 2): [((0, 0), 1.0)]})
        with pytest.raises(ValueError):
            GeneratorSpec(2, cells={(0, 1): [((0, 0, 0), 1.0)]})
        with pytest.raises(ValueError):
            GeneratorSpec(2, cells={(0, 1): [((-1, 0), 1.0)]})
        with pytest.raises(ValueError):
            GeneratorSpec(2, cells={(0, 1): [((9, 0), 1.0)]})
        with pytest.raises(ValueError):
            GeneratorSpec(2, cells={(0, 1): [((0, 0), float("inf"))]})

    @pytest.mark.parametrize(
        ("cells", "needle", "entry"),
        [
            pytest.param(
                {(0.7, 1): [((0, 0), 1.0)]},
                r"cell \(0\.7, 1\): key",
                {"from": 1.7, "to": 2, "terms": []},
                id="float-key",
            ),
            pytest.param(
                {(True, 0): [((0, 0), 1.0)]},
                r"cell \(True, 0\): key",
                {"from": True, "to": 1, "terms": []},
                id="bool-key",
            ),
            pytest.param(
                {(0, 1): [((1.5, 0), 1.0)]},
                r"cell \(0, 1\) term 0: exponents",
                {"from": 1, "to": 2, "terms": [{"exponents": [1.5, 0], "coefficient": 1.0}]},
                id="float-exponent",
            ),
            pytest.param(
                {(0, 1): [((True, 0), 1.0)]},
                r"cell \(0, 1\) term 0: exponents",
                {"from": 1, "to": 2, "terms": [{"exponents": [True, 0], "coefficient": 1.0}]},
                id="bool-exponent",
            ),
            pytest.param(
                {(0, 1): [((0, 0), "2.5")]},
                r"cell \(0, 1\) term 0: coefficient",
                {"from": 1, "to": 2, "terms": [{"exponents": [0, 0], "coefficient": "2.5"}]},
                id="str-coefficient",
            ),
            pytest.param(
                {(0, 1): [((0, 0), True)]},
                r"cell \(0, 1\) term 0: coefficient",
                {"from": 1, "to": 2, "terms": [{"exponents": [0, 0], "coefficient": True}]},
                id="bool-coefficient",
            ),
            pytest.param(
                {(0, 1): 1.0},
                r"cell \(0, 1\): must be a list",
                {"from": 1, "to": 2, "terms": 1.0},
                id="cell-not-a-list",
            ),
            pytest.param(
                {(0, 1): [1.0]},
                r"cell \(0, 1\) term 0: must be an \(exponents, coefficient\) pair",
                {"from": 1, "to": 2, "terms": [1.0]},
                id="term-not-a-pair",
            ),
        ],
    )
    def test_cell_tables_obey_the_file_rules(self, cells, needle, entry):
        # int() and float() used to truncate or coerce these instead of refusing them.
        with pytest.raises(ValueError, match=needle):
            GeneratorSpec(2, cells=cells)
        doc = {"format": "nlmc-generator", "version": 1, "dimension": 2, "cells": [entry]}
        with pytest.raises(GeneratorFileError, match=r"cells\[0\]"):
            generator_from_json(json.dumps(doc))

    def test_numpy_integer_keys_and_exponents_are_accepted(self):
        key = (np.int64(0), np.int32(1))
        spec = GeneratorSpec(2, cells={key: [((np.int64(1), np.uint8(0)), np.float64(2.0))]})
        assert spec.cells == {(0, 1): (((1, 0), 2.0),)}
        assert all(type(index) is int for index in next(iter(spec.cells)))

    def test_constant_generator_reproduces_matrix(self):
        rng = np.random.default_rng(2)
        q = random_rate_matrix(rng, 3)
        spec = constant_generator(q)
        for _ in range(5):
            m = random_distribution(rng, 3)
            assert np.allclose(spec.rates(m), q, atol=1e-14)
            assert np.allclose(spec.drift(m), m @ q, atol=1e-14)
        assert validate(spec).valid

    def test_non_finite_rates_raise(self):
        def batch(points):
            q = np.zeros((points.shape[0], 2, 2))
            q[points[:, 0] > 0.5, 0, 1] = np.nan
            return q

        spec = GeneratorSpec(2, batch, name="poisoned")
        assert np.allclose(spec.rates((0.4, 0.6)), 0.0)
        with pytest.raises(GeneratorEvaluationError):
            spec.rates((0.9, 0.1))

    def test_rejects_wrong_point_shape(self):
        spec = corpus("bistable")
        with pytest.raises(ValueError):
            spec.rates_batch(np.zeros((4, 3)))


class TestStridedDiagonal:
    @staticmethod
    def _fancy_index_oracle(q: np.ndarray) -> np.ndarray:
        oracle = q.copy()
        idx = np.arange(q.shape[1])
        oracle[:, idx, idx] = 0.0  # what the off-diagonal cells leave there
        oracle[:, idx, idx] = -oracle.sum(axis=2)
        return oracle

    @pytest.mark.parametrize("s", range(1, 6))
    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_rates_match_fancy_index_diagonal_bitwise(self, s, n):
        # A polynomial diagonal is compiled into the coefficient table, so the oracle
        # sets it there by fancy index (einsum_oracle) rather than in the rates.  It is
        # summed from the finished table, so the order of the cells cannot round it.
        rng = np.random.default_rng(100 * s + n)
        for _ in range(5):
            cells = random_polynomial_cells(rng, s)
            points = rng.dirichlet(np.ones(s), size=n).reshape(n, s)
            oracle = einsum_oracle(s, cells, points)[0]
            for table in (cells, dict(reversed(cells.items()))):
                q = GeneratorSpec(s, cells=table).rates_batch(points)
                assert q.shape == (n, s, s)
                assert q.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_oscillator_matches_fancy_index_diagonal_bitwise(self, n):
        rng = np.random.default_rng(n)
        q = corpus("oscillator").rates_batch(rng.dirichlet(np.ones(3), size=n).reshape(n, 3))
        assert q.shape == (n, 3, 3)
        assert q.tobytes() == self._fancy_index_oracle(q).tobytes()


class TestOscillatorRates:
    """The oscillator's rates equal the cell-by-cell ``np.where`` formula bit for bit."""

    @staticmethod
    def assert_matches_oracle(points):
        q = corpus("oscillator").rates_batch(points)
        assert q.tobytes() == oscillator_rates_oracle(points).tobytes()

    def test_random_points(self):
        rng = np.random.default_rng(8)
        self.assert_matches_oracle(rng.dirichlet(np.ones(3), size=2000))
        # Finite-difference probes step slightly off the simplex.
        self.assert_matches_oracle(rng.uniform(-0.1, 1.1, size=(2000, 3)))

    def test_on_the_lines_where_a_coordinate_is_one_third(self):
        third = 1.0 / 3.0
        t = np.random.default_rng(9).uniform(0.0, 2.0 / 3.0, size=500)
        others = np.column_stack([t, 2.0 / 3.0 - t])
        for j in range(3):
            for c in (np.nextafter(third, 0.0), third, np.nextafter(third, 1.0)):
                self.assert_matches_oracle(np.insert(others, j, c, axis=1))
        self.assert_matches_oracle(np.full((1, 3), third))

    def test_on_the_clamp(self):
        rng = np.random.default_rng(10)
        points = rng.dirichlet(np.ones(3), size=600)
        points[:200, 0] = 0.1
        points[200:400, 1] = rng.uniform(0.0, 0.1, size=200)
        points[400:, 2] = 0.0
        self.assert_matches_oracle(points)
        self.assert_matches_oracle(np.eye(3))

    def test_a_nan_coordinate_is_refused(self):
        with pytest.raises(GeneratorEvaluationError, match="non-finite"):
            corpus("oscillator").rates_batch([[0.2, np.nan, 0.8]])

    def test_a_row_alone_gets_its_bits_in_a_stack_of_4096(self):
        # The table is built a cell per row of (9, n); a row's bits must not depend on n.
        rng = np.random.default_rng(4096)
        spec = corpus("oscillator")
        points = np.vstack([rng.dirichlet(np.ones(3), 2048), rng.uniform(-0.1, 1.1, (2048, 3))])
        points[:100, 0] = 1.0 / 3.0
        points[100:200, 1] = 0.1
        rates, drifts = spec.rates_batch(points), spec.drift_batch(points)
        for k, point in enumerate(points):
            assert spec.rates(point).tobytes() == rates[k].tobytes()
            assert spec.drift(point).tobytes() == drifts[k].tobytes()


def _marked_rates(bad):
    """A rate function on 2 states that puts ``bad`` in Q_12 of each row with m_1 > 1."""

    def batch(points):
        q = np.broadcast_to(np.array([[-1.0, 1.0], [2.0, -2.0]]), (len(points), 2, 2)).copy()
        q[points[:, 0] > 1.0, 0, 1] = bad
        return q

    return batch


NON_FINITE_SPECS = [
    # One monomial, so the overflowing row's rates are +inf and -inf, with no inf - inf.
    pytest.param(GeneratorSpec(2, cells={(0, 1): [((2, 0), 1e300)], (1, 0): [((2, 0), 1.0)]}),
                 id="overflowing-cell"),
    *(pytest.param(GeneratorSpec(2, _marked_rates(bad), name="marked"), id=f"function-{bad}")
      for bad in (np.nan, np.inf, -np.inf)),
]


class TestNonFiniteRates:
    """``rates_batch`` refuses a NaN or an infinity in any row, the last of a block included."""

    @pytest.mark.parametrize("n", [1, 4096])
    @pytest.mark.parametrize("spec", NON_FINITE_SPECS)
    def test_a_bad_last_row_is_refused(self, spec, n):
        points = np.random.default_rng(n).dirichlet(np.ones(2), n)
        assert np.isfinite(spec.rates_batch(points)).all()
        points[-1] = (1e10, 0.0)  # off the simplex: 1e20 times 1e300 overflows
        with np.errstate(over="ignore"), pytest.raises(GeneratorEvaluationError, match="non-finite"):
            spec.rates_batch(points)

    @pytest.mark.parametrize("spec", NON_FINITE_SPECS)
    def test_no_rows_give_an_empty_stack(self, spec):
        rates = spec.rates_batch(np.empty((0, 2)))
        assert rates.shape == (0, 2, 2)


class TestContractionBits:
    """Rates and drifts keep the bytes of ``np.einsum``, the kernel being called directly."""

    @pytest.mark.parametrize("n", [0, 1, 7])
    @pytest.mark.parametrize("s", range(1, 7))
    def test_polynomial_rates_and_drifts(self, s, n):
        rng = np.random.default_rng(100 * s + n)
        cells = random_polynomial_cells(rng, s)  # S = 1 has no cells
        spec = GeneratorSpec(s, cells=cells)
        # Dirichlet rows, then off-simplex probe rows.
        for points in (rng.dirichlet(np.ones(s), size=n), rng.uniform(-0.5, 1.5, size=(n, s))):
            rates, drifts = einsum_oracle(s, cells, points)
            assert spec.rates_batch(points).tobytes() == rates.tobytes()
            assert spec.drift_batch(points).tobytes() == drifts.tobytes()

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_oscillator_drifts(self, n):
        rng = np.random.default_rng(n)
        for points in (rng.dirichlet(np.ones(3), size=n), rng.uniform(-0.1, 1.1, size=(n, 3))):
            drifts = np.einsum("ni,nij->nj", points, oscillator_rates_oracle(points))
            assert corpus("oscillator").drift_batch(points).tobytes() == drifts.tobytes()


class TestMonomialProducts:
    """Monomials are products of their factors: exact to a few ulps, and the same bits for a
    row whatever the batch."""

    @pytest.mark.parametrize("degree", range(MAX_TOTAL_DEGREE + 1))
    @pytest.mark.parametrize("s", range(1, 7))
    def test_rates_are_within_a_few_ulps_of_exact_fractions(self, s, degree):
        # Every cell gets a term of total degree ``degree`` besides its random lower ones;
        # the empty table comes last, and its rates must be exact zeros.
        rng = np.random.default_rng(1000 * s + degree)
        tables = [random_polynomial_cells(rng, s, degree) for _ in range(3)]  # S = 1: no cells
        for terms in (terms for cells in tables for terms in cells.values()):
            exponents = tuple(int(e) for e in rng.multinomial(degree, np.ones(s) / s))
            terms.append((exponents, float(rng.uniform(0.1, 2.0))))
        for cells in (*tables, {}):
            spec = GeneratorSpec(s, cells=cells)
            # Floats are rationals: points on the simplex, then off-simplex probes.
            points = np.vstack([rng.dirichlet(np.ones(s), size=4), rng.uniform(-0.5, 1.5, (4, s))])
            for point, q in zip(points, spec.rates_batch(points)):
                exact, scale = fraction_rates(s, cells, point)
                for i in range(s):
                    for j in range(s):
                        error = abs(Fraction(q[i, j]) - exact[i][j])
                        assert error <= 4 * Fraction(np.finfo(float).eps) * scale[i]

    def test_a_row_alone_gets_its_bits_in_a_stack_of_4096(self):
        rng = np.random.default_rng(4096)
        spec = GeneratorSpec(6, cells=random_polynomial_cells(rng, 6, MAX_TOTAL_DEGREE))
        points = np.vstack([rng.dirichlet(np.ones(6), 2048), rng.uniform(-0.5, 1.5, (2048, 6))])
        rates, drifts = spec.rates_batch(points), spec.drift_batch(points)
        for k, point in enumerate(points):
            assert spec.rates(point).tobytes() == rates[k].tobytes()
            assert spec.drift(point).tobytes() == drifts[k].tobytes()


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
        id_one = GeneratorSpec(2, cells=cells_one).generator_id
        id_two = GeneratorSpec(2, cells=cells_two).generator_id
        assert id_one == id_two
        assert id_one.startswith("polynomial:2:")
        changed = {(0, 1): [((1, 0), 2.5)], (1, 0): [((0, 0), 1.0)]}
        assert GeneratorSpec(2, cells=changed).generator_id != id_one

    def test_canonical_form_is_pinned(self, tmp_path):
        # Terms sort by exponents alone: duplicate monomials keep input order, zeros stay.
        cells = {(0, 1): [((1, 0), 2.0), ((0, 0), 0.5), ((1, 0), 0.0)], (1, 0): [((0, 1), 1.5)]}
        spec = GeneratorSpec(2, cells=cells)
        assert spec.generator_id == "polynomial:2:bfc8d1775f3d"
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_generator(spec, first)
        save_generator(load_generator(first), second)
        assert first.read_bytes() == second.read_bytes()
        bistable = generator_from_json(generator_to_json(corpus("bistable")))
        assert bistable.generator_id == "polynomial:2:00a7b5e18207"

    def test_a_spec_needs_a_name_or_a_cell_table(self):
        with pytest.raises(ValueError, match="name or a cell table"):
            GeneratorSpec(2, lambda points: np.zeros((len(points), 2, 2)))

    @pytest.mark.parametrize(
        "dimension, extension, message",
        [
            (0, "analytic", "at least 1"),
            (2.5, "analytic", "must be an integer"),
            (True, "analytic", "must be an integer"),
            (2, "bogus", "unknown extension 'bogus'"),
        ],
    )
    def test_a_spec_needs_a_state_and_a_known_extension(self, dimension, extension, message):
        with pytest.raises(ValueError, match=message):
            GeneratorSpec(dimension, lambda points: points, name="refused", extension=extension)

    def test_a_spec_takes_a_rate_function_or_a_cell_table_not_both(self):
        # Cells given beside a rate function would name rates that are never evaluated.
        cells = {(0, 1): [((1, 0), 2.0)]}
        with pytest.raises(ValueError, match="exactly one"):
            GeneratorSpec(2, lambda points: np.zeros((len(points), 2, 2)), cells=cells)
        with pytest.raises(ValueError, match="exactly one"):
            GeneratorSpec(2)
        spec = GeneratorSpec(2, cells=cells)
        assert spec.cells == {(0, 1): (((1, 0), 2.0),)}
        assert spec.rates((0.25, 0.75)).tolist() == [[-0.5, 0.5], [0.0, 0.0]]


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
        for value in (math.nan, math.inf, -math.inf, 0, 10**400):
            with pytest.raises(ValueError, match="parameter eps must be real, positive and finite"):
                corpus("consumer", {**CONSUMER_PARAMS, "eps": value})
        # float() would take these; a parameter must be a number already.
        for value in ("1", True, np.True_):
            with pytest.raises(ValueError, match="parameter lam must be real"):
                corpus("consumer", {**CONSUMER_PARAMS, "lam": value})
        with pytest.raises(ValueError):
            corpus("oscillator", {"b": 1.0})
        with pytest.raises(ValueError):
            corpus("bistable", {"b": 1.0})
        with pytest.raises(ValueError):
            corpus("unknown-name")

    def test_integer_consumer_parameters_are_stored_as_floats(self):
        spec = corpus("consumer", {"b": 1, "e": np.int64(2), "eps": 0.1, "lam": 1})
        assert spec.generator_id == "builtin:consumer(b=1.0, e=2.0, eps=0.1, lam=1.0)"
        assert all(type(v) is float for v in spec.params.values())

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

        spec = GeneratorSpec(2, batch, name="leaks-mass")
        report = validate(spec)
        assert not report.valid
        assert any("row sum off by" in v.message for v in report.violations)
        with pytest.raises(GeneratorEvaluationError):
            spec.require_valid()

    def test_reports_negative_offdiagonal_rates(self):
        def batch(points):
            n = points.shape[0]
            return np.tile(np.array([[0.5, -0.5], [1.0, -1.0]]), (n, 1, 1))

        spec = GeneratorSpec(2, batch, name="negative-rate")
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

        spec = GeneratorSpec(3, batch, name="three-faults")
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
            sums = [abs(float(q[i].sum())) for i in range(3)]
            if any(sums[i] > 1e-9 * max(1.0, float(np.abs(q[i]).max())) for i in range(3)):
                expected.append((point, f"row sum off by {max(sums):.6e}"))

        report = validate(spec, grid)
        assert [(v.point, v.message) for v in report.violations] == expected
        messages = {v.message.split(" ")[0] for v in report.violations}
        assert messages == {"non-finite", "negative", "row"}
        assert report.checked == len(grid)

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_a_blocked_sweep_reports_as_one_evaluation(self, block, monkeypatch):
        # The rate m1 - 0.4 into state 2 is negative wherever m1 < 0.4, in many blocks.
        cells = {(0, 1): [((1, 0, 0), 1.0), ((0, 0, 0), -0.4)], (1, 2): [((0, 0, 0), 1.0)]}
        spec = GeneratorSpec(3, cells=cells)
        monkeypatch.setattr(nlmc.generator, "RATE_BLOCK", 10**9)
        whole = validate(spec)
        monkeypatch.setattr(nlmc.generator, "RATE_BLOCK", block)
        assert validate(spec) == whole
        assert len(whole.violations) == sum(21 - a for a in range(8))  # m1 = a/20 < 0.4

    def test_a_six_state_sweep_holds_one_block_of_rates(self, monkeypatch):
        # All 53 130 points of the default grid in one rate call peaked at 132.6 MB;
        # blocks of 4 096 points peak at about 13 MB, 2.6 MB of it the grid.
        spec = GeneratorSpec(6, cells=random_polynomial_cells(np.random.default_rng(6), 6, 8))
        tracemalloc.start()
        try:
            report = validate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6
        assert report.checked == 53130
        monkeypatch.setattr(nlmc.generator, "RATE_BLOCK", 10**9)
        assert validate(spec) == report

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

        spec = GeneratorSpec(2, batch, name="grid-aligned-leak")
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
        spec = GeneratorSpec(2, cells=cells)
        assert lipschitz_estimate(spec, SimplexGrid(2, 100)) == pytest.approx(0.5, rel=1e-12)

    def test_consumer_estimate_is_half_crowd_coefficient(self):
        spec = corpus("consumer", CONSUMER_PARAMS)
        assert lipschitz_estimate(spec) == pytest.approx(0.5, rel=1e-12)

    def test_bistable_estimate_frozen(self):
        spec = corpus("bistable")
        value = lipschitz_estimate(spec, SimplexGrid(2, 50))
        assert value == pytest.approx(7.903333333333329, rel=1e-12)

    @staticmethod
    def _pair_loop(spec, grid):
        # Every unordered neighbor pair, found by moving one unit between two coordinates.
        k = grid.resolution
        counts = np.rint(grid.array * k).astype(int)
        index_of = {tuple(row): n for n, row in enumerate(counts)}
        pairs = set()
        for n, row in enumerate(counts):
            for a in range(spec.dimension):
                for b in range(spec.dimension):
                    if a != b and row[a] > 0:
                        moved = list(row)
                        moved[a] -= 1
                        moved[b] += 1
                        pairs.add(tuple(sorted((n, index_of[tuple(moved)]))))
        if not pairs:
            return 0.0
        first, second = np.array(sorted(pairs)).T
        q = spec.rates_batch(grid.array)
        return float(np.abs(q[first] - q[second]).max(axis=(1, 2)).max() * (k / 2.0))

    @pytest.mark.parametrize("s", range(1, 6))
    @pytest.mark.parametrize("resolution", [1, 7, 13, None])
    def test_matches_the_neighbor_pair_loop(self, s, resolution):
        rng = np.random.default_rng(10 * s + (resolution or 0))
        grid = SimplexGrid(s, resolution or 20)
        for _ in range(3):
            spec = GeneratorSpec(s, cells=random_polynomial_cells(rng, s))
            expected = self._pair_loop(spec, grid)
            assert lipschitz_estimate(spec, grid if resolution else None) == expected

    def test_keys_past_int64_match_the_neighbor_pair_loop(self):
        # 2^64 keys of 64 states at resolution 1 do not fit int64.
        rng = np.random.default_rng(64)
        cells = {
            (i, (i + 1) % 64): [(tuple(int(c == i) for c in range(64)), float(rng.uniform(0.5, 2.0)))]
            for i in range(64)
        }
        spec = GeneratorSpec(64, cells=cells)
        grid = SimplexGrid(64, 1)
        assert lipschitz_estimate(spec, grid) == self._pair_loop(spec, grid) > 0.0


@pytest.mark.parametrize("sweep", [validate, lipschitz_estimate])
def test_sweeps_refuse_a_grid_of_another_dimension(sweep):
    message = "^grid on 2 states does not match the generator's 3 states$"
    with pytest.raises(ValueError, match=message):
        sweep(corpus("consumer", CONSUMER_PARAMS), SimplexGrid(2, 5))


class TestIrreducibility:
    def test_consumer_is_irreducible_in_the_interior(self):
        spec = corpus("consumer", CONSUMER_PARAMS)
        rng = np.random.default_rng(17)
        points = np.array([random_distribution(rng, 3) for _ in range(50)])
        assert _irreducible(spec.rates_batch(points)).all()

    def test_bistable_is_irreducible_everywhere(self):
        spec = corpus("bistable")
        assert _irreducible(spec.rates_batch(SimplexGrid(2, 10).array)).all()

    def test_oscillator_frozen_chain_is_reducible(self):
        spec = corpus("oscillator")
        center = np.array([1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])
        assert not _irreducible(spec.rates(center)[None])[0]

    def test_block_structure_is_reducible(self):
        q = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
        spec = constant_generator(q)
        assert not _irreducible(spec.rates(np.array([0.3, 0.3, 0.4]))[None])[0]

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
        spec = GeneratorSpec(3, cells=cells, metadata={"label": "round-trip"})
        path = tmp_path / "generator.json"
        save_generator(spec, path)
        loaded = load_generator(path)
        assert loaded.generator_id == spec.generator_id
        assert loaded.metadata == {"label": "round-trip"}
        assert generator_to_json(loaded) == generator_to_json(spec)
        pts = rng.dirichlet(np.ones(3), size=20)
        assert np.allclose(loaded.rates_batch(pts), spec.rates_batch(pts), atol=0.0)

    def test_string_keyed_metadata_round_trips_equal(self, tmp_path):
        metadata = {"label": "x", "a": [1, 2.5], "nested": {"z": None, "b": True}}
        spec = GeneratorSpec(2, cells={(0, 1): [((1, 0), 2.0)]}, metadata=metadata)
        path = tmp_path / "generator.json"
        save_generator(spec, path)
        assert load_generator(path).metadata == metadata

    @pytest.mark.parametrize(
        "metadata",
        [{1: "a"}, {1: "a", "b": 2}, [("a", 1)]],
        ids=["int-key", "mixed-keys", "list-of-pairs"],
    )
    def test_metadata_that_cannot_round_trip_is_refused(self, metadata):
        # {1: "a"} loaded back as {"1": "a"}; mixed keys made the writer raise TypeError.
        with pytest.raises(ValueError, match="metadata must be an object"):
            GeneratorSpec(2, cells={(0, 1): [((1, 0), 2.0)]}, metadata=metadata)

    def test_canonical_text_ignores_cell_order(self):
        cells_one = {(0, 1): [((1, 0), 2.0)], (1, 0): [((0, 0), 1.0)]}
        cells_two = {(1, 0): [((0, 0), 1.0)], (0, 1): [((1, 0), 2.0)]}
        assert generator_to_json(GeneratorSpec(2, cells=cells_one)) == generator_to_json(
            GeneratorSpec(2, cells=cells_two)
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

    def test_deep_nesting_is_a_file_error(self):
        # json's decoder recurses once per level and raised RecursionError.
        message = "^invalid JSON: arrays or objects nested too deeply$"
        with pytest.raises(GeneratorFileError, match=message):
            generator_from_json("[" * 100_000 + "]" * 100_000)

    def test_schema_violations_are_named(self):
        good = generator_to_json(corpus("bistable"))
        doc = json.loads(good)
        cell = doc["cells"][0]

        def variant(**fields):
            return json.dumps({**doc, **fields})

        cases = [
            ('"just a string"', "top level"),
            (good.replace('"nlmc-generator"', '"other-format"'), "format"),
            (good.replace('"version": 1', '"version": 2'), "version"),
            (good.replace('"dimension": 2', '"dimension": 0'), "dimension"),
            (good.replace('"from": 1', '"from": 5'), r"cells\[0\].*out of range 1\.\.2"),
            (good.replace('"from": 2', '"from": 1'), r"cells\[1\].*diagonal"),
            (variant(metadata=[]), "metadata must be an object"),
            (variant(cells={}), "cells must be an array"),
            (variant(cells=[1]), r"cells\[0\] must be an object"),
            (variant(cells=[cell, cell]), r"cells\[1\] repeats cell \(1, 2\)"),
            (variant(cells=[{**cell, "terms": {}}]), r"cells\[0\]\.terms must be an array"),
            (variant(cells=[{**cell, "terms": [1]}]), r"cells\[0\]\.terms\[0\] must be an object"),
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

        term = r"cells\[0\]\.terms\[0\].*"
        with pytest.raises(GeneratorFileError, match=term + "exponents"):
            generator_from_json(doc('[{"exponents": [1], "coefficient": 1.0}]'))
        with pytest.raises(GeneratorFileError, match=term + "exponents"):
            generator_from_json(doc('[{"exponents": [1, -1], "coefficient": 1.0}]'))
        with pytest.raises(GeneratorFileError, match=term + "degree"):
            generator_from_json(doc('[{"exponents": [9, 0], "coefficient": 1.0}]'))
        with pytest.raises(GeneratorFileError, match=term + "coefficient"):
            generator_from_json(doc('[{"exponents": [1, 0], "coefficient": true}]'))
        with pytest.raises(GeneratorFileError, match=term + "coefficient"):
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
                r"cells\[0\]\.terms\[0\].*exponents",
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
