"""Nonlinear generators m -> Q(m): rate matrices, polynomial cells, corpus, file IO.

A generator maps each distribution m on {1, ..., S} to a conservative rate
matrix Q(m): off-diagonal entries non-negative, every row summing to zero.
Polynomial generators store only the off-diagonal cells as monomial tables and
compile each diagonal as minus its row's cells, so conservativity holds by
construction, up to rounding.  Built-in generators may instead wrap a
closed-form rate function.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import numbers
import sys
from dataclasses import dataclass

import numpy as np

# numpy's einsum kernel; np.einsum(..., optimize=False) returns exactly its result
from numpy._core.multiarray import c_einsum as _einsum

from .errors import GeneratorEvaluationError, GeneratorFileError
from .simplex import SimplexGrid, _check_states, _is_int, _write_text

OFFDIAG_TOL = 1e-10      # off-diagonal entries may round this far below zero
ROWSUM_TOL = 1e-9        # conservativity slack per row, times max(1, the row's largest |rate|)
RATE_FLOOR = 1e-9        # rates at or below this count as structural zeros
MAX_TOTAL_DEGREE = 8     # cap on the total degree of a cell table's monomials
VALIDATION_RESOLUTION = 20
RATE_BLOCK = 4096        # points whose rates a sweep holds at once

FILE_FORMAT = "nlmc-generator"
FILE_VERSION = 1


class GeneratorSpec:
    """A nonlinear generator: a map from distributions to conservative rate matrices.

    A spec takes a rate function ``batch_rates``, mapping points ``(n, S)``
    to raw rate arrays ``(n, S, S)``, or a cell table ``cells``, mapping
    0-based index pairs (i, j), i != j, to ``(exponents, coefficient)``
    pairs, which it checks and compiles into its rates.  A name or a cell
    table identifies a spec: a named spec (a corpus member) by its name and
    ``params``, an unnamed one by a digest of ``cells``.  ``extension``
    records how rates behave just outside the simplex: ``"analytic"`` cells
    evaluate anywhere, while ``"clamped"`` rates freeze their arguments at a
    cutoff (certificates quote this, since derivative estimates near the
    clamp boundary are one-sided).

    ``rates`` and ``rates_batch`` return raw arrays without conservativity
    checks, which keeps finite-difference probes at slightly off-simplex
    points legal; :func:`validate` checks conservativity on a grid.
    """

    def __init__(
        self,
        dimension: int,
        batch_rates=None,
        *,
        name: str | None = None,
        params: dict | None = None,
        cells: dict | None = None,
        metadata: dict | None = None,
        extension: str = "analytic",
    ) -> None:
        if not _is_int(dimension) or dimension < 1:
            raise ValueError(f"dimension must be an integer of at least 1, got {dimension!r}")
        if (batch_rates is None) == (cells is None):
            raise ValueError("a generator takes exactly one of a rate function and a cell table")
        if name is None and cells is None:
            raise ValueError("a generator needs a name or a cell table to identify it")
        if extension not in ("analytic", "clamped"):
            raise ValueError(f"unknown extension {extension!r}")
        self.dimension = int(dimension)
        self.name = name
        self.params = dict(params or {})
        metadata = {} if metadata is None else metadata
        if not isinstance(metadata, dict) or not all(isinstance(k, str) for k in metadata):
            raise ValueError("metadata must be an object: a dict with str keys")
        self.cells = None if cells is None else _normalize_cells(self.dimension, cells)
        self.metadata = dict(metadata)
        self.extension = extension
        self._batch = batch_rates if cells is None else _compile_cells(self.dimension, self.cells)
        self._validation = None

    def rates_batch(self, points) -> np.ndarray:
        """Raw rate arrays, shape (n, S, S), for points given as rows (n, S)."""
        arr = np.asarray(points, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"points must be rows (n, {self.dimension}), got shape {arr.shape}")
        _check_states("points", arr.shape[1], self.dimension)
        out = self._batch(arr)
        if np.count_nonzero(np.isfinite(out)) != out.size:
            raise GeneratorEvaluationError(f"{self.describe()} produced non-finite rates")
        return out

    def rates(self, m) -> np.ndarray:
        """Raw S x S rate array at one point (no conservativity checks)."""
        return self.rates_batch(self._row(m))[0]

    def drift(self, m) -> np.ndarray:
        """Marginal drift f(m) with components f_j = sum_i m_i Q_ij(m)."""
        return self.drift_batch(self._row(m))[0]

    def _row(self, m) -> np.ndarray:
        """One point ``m`` ``(S,)`` as a row ``(1, S)``; another shape is refused as passed."""
        arr = np.asarray(m, dtype=float)
        if arr.ndim != 1:
            raise ValueError(f"a point must be a vector ({self.dimension},), got shape {arr.shape}")
        return arr[None]

    def drift_batch(self, points) -> np.ndarray:
        """Marginal drifts, shape (n, S), for points given as rows (n, S)."""
        arr = np.asarray(points, dtype=float)
        return _einsum("ni,nij->nj", arr, self.rates_batch(arr))

    def describe(self) -> str:
        if self.name is not None:
            return f"builtin generator {self.name!r}"
        return f"polynomial generator on {self.dimension} states"

    @property
    def generator_id(self) -> str:
        """Stable identifier used in exported artifacts."""
        if self.name is not None:
            inside = ", ".join(f"{k}={self.params[k]!r}" for k in sorted(self.params))
            return f"builtin:{self.name}({inside})"
        text = json.dumps(_canonical_cells(self), sort_keys=True)
        return f"polynomial:{self.dimension}:{hashlib.sha256(text.encode()).hexdigest()[:12]}"

    def require_valid(self) -> None:
        """Validate once on the default grid and cache; raise if invalid."""
        if self._validation is None:
            self._validation = validate(self)
        if not self._validation.valid:
            first = self._validation.violations[0]
            raise GeneratorEvaluationError(
                f"{self.describe()} is not conservative on the simplex: {first.message}"
                f" at {first.point}"
            )

    def __repr__(self) -> str:
        return f"<GeneratorSpec {self.generator_id} dimension={self.dimension}>"


def _normalize_cells(dimension: int, cells: dict) -> dict[tuple[int, int], tuple]:
    """``cells`` checked against every rule of a cell table, as tuples of ints and floats.

    A violation raises ValueError naming its cell and any term at fault; the error's ``cell``
    and ``term`` hold their positions and ``problem`` the rest, states as ``{first}..{last}``."""

    def fail(problem, term=None):  # names the cell of the current iteration
        where = f"cell {key!r}" + ("" if term is None else f" term {term}")
        error = ValueError(f"{where}: {problem.format(first=0, last=dimension - 1)}")
        error.cell, error.term, error.problem = position, term, problem
        return error

    out = {}
    for position, (key, cell) in enumerate(cells.items()):
        if not (isinstance(key, tuple) and len(key) == 2 and all(map(_is_int, key))):
            raise fail("key must be a pair of integers (i, j)")
        if not all(0 <= index < dimension for index in key):
            raise fail("indices out of range {first}..{last}")
        if key[0] == key[1]:
            raise fail("is diagonal; diagonals are derived")
        if not isinstance(cell, (list, tuple)):
            raise fail("must be a list of (exponents, coefficient) pairs")
        for term, pair in enumerate(cell):
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise fail("must be an (exponents, coefficient) pair", term)
            exps, coefficient = pair
            counts = isinstance(exps, (list, tuple)) and all(_is_int(e) and e >= 0 for e in exps)
            if not counts or len(exps) != dimension:
                raise fail(f"exponents must be {dimension} non-negative integers", term)
            if sum(exps) > MAX_TOTAL_DEGREE:
                raise fail(f"has total degree {sum(exps)}, above the cap {MAX_TOTAL_DEGREE}", term)
            real = isinstance(coefficient, numbers.Real) and not isinstance(coefficient, bool)
            if not (real and abs(coefficient) <= sys.float_info.max):  # float() overflows
                raise fail("coefficient must be a finite real number", term)
        out[tuple(map(int, key))] = tuple((tuple(map(int, exps)), float(c)) for exps, c in cell)
    return out


def _compile_cells(dimension: int, cells: dict[tuple[int, int], tuple]):
    """Rates as sorted monomial values times one table with a column per entry of Q, each
    diagonal column minus its row's other columns.  A monomial is the product of its factors,
    one coordinate per unit of degree in index order, padded to the largest degree and masked,
    so no power is taken.  The factors are gathered from the transposed points as (T, d, n):
    ``take`` along the points' axis 1 costs less for one row but slows batches 2-6x.  einsum,
    not @: BLAS fuses multiply-adds and takes another path for one row, so rates would depend
    on the batch size.  Its kernel is called directly: np.einsum's wrapper costs more than a row."""
    monomials = sorted({exps for terms in cells.values() for exps, _ in terms})
    column = {exps: k for k, exps in enumerate(monomials)}
    degrees = np.array([sum(exps) for exps in monomials], dtype=int)
    used = (np.arange(degrees.max(initial=0)) < degrees[:, None])[:, :, None]
    factors = np.zeros(used.shape[:2], dtype=np.intp)
    factors[used[:, :, 0]] = [k for exps in monomials for k, e in enumerate(exps) for _ in range(e)]
    coeffs = np.zeros((len(monomials), dimension * dimension))
    for (i, j), terms in cells.items():
        for monomial, coefficient in terms:
            coeffs[column[monomial], i * dimension + j] += coefficient
    coeffs[:, :: dimension + 1] = -np.add.reduce(coeffs.reshape(-1, dimension, dimension), axis=2)

    def batch(points: np.ndarray) -> np.ndarray:
        values = np.multiply.reduce(points.T.take(factors, axis=0), axis=1, where=used, initial=1.0)
        return _einsum("tn,tk->nk", values, coeffs).reshape(-1, dimension, dimension)

    return batch


def constant_generator(matrix) -> GeneratorSpec:
    """Wrap a constant conservative rate matrix as a (linear) generator.

    A matrix that is not square and non-empty raises ValueError, one that fails
    :func:`validate`'s check GeneratorEvaluationError in its words; off-diagonal
    rounding noise down to ``-OFFDIAG_TOL`` becomes a zero rate.
    """
    q = np.array(matrix, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape[0] == 0:
        raise ValueError(f"rate matrix must be square and non-empty, got shape {q.shape}")
    problems = _problems(q[None])
    if problems:
        raise GeneratorEvaluationError("; ".join(message for _, message in problems))
    s = q.shape[0]
    cells = {(i, j): [((0,) * s, float(q[i, j]))] for i, j in zip(*np.nonzero(q > 0.0)) if i != j}
    return GeneratorSpec(s, cells=cells)


# The oscillator's cells (0, 2), (1, 2), (2, 0), (2, 1) as flat indices; cell k is
# max(sign_k (c_j - 1/3), 0) / c_i with (j, i) = _OSC_COLUMNS[:, k] of the clamped point.
_OSC_CELLS = np.array([2, 5, 6, 7])
_OSC_COLUMNS = np.array([[1, 0, 1, 0], [0, 1, 2, 2]])
_OSC_SIGNS = np.array([[-1.0], [1.0], [1.0], [-1.0]])
_OSC_THIRDS = _OSC_SIGNS / 3.0


def _oscillator_batch(points: np.ndarray) -> np.ndarray:
    # Rates are defined on the region where every component is >= 1/10 and
    # extended to the rest of the simplex by clamping each argument at 1/10,
    # which keeps every cell bounded and Lipschitz.  sign c_j - sign/3 rounds to
    # exactly sign (c_j - 1/3), and to +0.0, never -0.0, at c_j = 1/3.  The table
    # is built transposed, (9, n), a cell per row: gathers along the points' axis 1
    # slow batches.  A row of Q has at most two non-zero terms, so its sum is exact.
    c = np.maximum(points.T, 0.1)[_OSC_COLUMNS]
    q = np.zeros((9, points.shape[0]))
    q[_OSC_CELLS] = np.maximum(_OSC_SIGNS * c[0] - _OSC_THIRDS, 0.0) / c[1]
    np.negative(np.add.reduce(q.reshape(3, 3, -1), axis=1), out=q[::4])
    return q.T.reshape(-1, 3, 3)


_BISTABLE_CELLS = {
    (0, 1): [((2, 0), 29.0 / 3.0), ((1, 0), -16.0), ((0, 0), 22.0 / 3.0)],
    (1, 0): [((2, 0), 1.0), ((1, 0), 1.0), ((0, 0), 1.0)],
}

CORPUS_NAMES = ("consumer", "oscillator", "bistable")
CONSUMER_PARAMS = ("b", "e", "eps", "lam")

CORPUS_SUMMARY = {
    "consumer": (
        "3 states (browsing, holding, done); parameters b, e, eps, lam > 0; "
        "purchase pressure grows with the crowd in each aisle"
    ),
    "oscillator": (
        "3 states; rates engineered so the marginal flow circles the "
        "barycenter with period 2*pi (rates clamped below component 1/10)"
    ),
    "bistable": (
        "2 states; cubic marginal drift with stable rest points at "
        "m1 = 0.25 and 0.75 and an unstable one at 0.5"
    ),
}


def corpus(name: str, params: dict | None = None) -> GeneratorSpec:
    """Return a named built-in generator.

    ``consumer`` requires parameters ``b``, ``e``, ``eps``, ``lam``, real numbers (not str
    or bool), positive and finite, kept as floats; ``oscillator`` and ``bistable`` take none.
    """
    params = dict(params or {})
    if name == "consumer":
        if set(params) != set(CONSUMER_PARAMS):
            got = ", ".join(sorted(map(str, params))) or "none"
            raise ValueError(f"consumer takes parameters {', '.join(CONSUMER_PARAMS)}; got {got}")
        for k, v in params.items():  # checked before float(), which takes "1" and True
            real = isinstance(v, numbers.Real) and not isinstance(v, bool)
            if not (real and 0 < v <= sys.float_info.max):  # NaN fails; no float() overflow
                raise ValueError(f"consumer parameter {k} must be real, positive and finite")
        values = {k: float(params[k]) for k in CONSUMER_PARAMS}
        b, e, eps, lam = (values[k] for k in CONSUMER_PARAMS)
        cells = {
            (0, 1): [((0, 0, 0), b)],
            (0, 2): [((1, 0, 0), e), ((0, 0, 0), eps)],
            (1, 2): [((0, 1, 0), e), ((0, 0, 0), eps)],
            (2, 0): [((0, 0, 0), lam)],
            (2, 1): [((0, 0, 0), lam)],
        }
        return GeneratorSpec(3, cells=cells, name="consumer", params=values)
    if name in ("oscillator", "bistable") and params:
        raise ValueError(f"{name} takes no parameters")
    if name == "oscillator":
        return GeneratorSpec(3, _oscillator_batch, name="oscillator", extension="clamped")
    if name == "bistable":
        return GeneratorSpec(2, cells=_BISTABLE_CELLS, name="bistable")
    raise ValueError(f"unknown corpus generator {name!r}; choose from {', '.join(CORPUS_NAMES)}")


@dataclass(frozen=True)
class GridViolation:
    """One conservativity failure observed at a grid point."""

    point: tuple[float, ...]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking a generator on every point of a simplex grid."""

    dimension: int
    grid_resolution: int
    checked: int
    violations: tuple[GridViolation, ...]

    @property
    def valid(self) -> bool:
        return not self.violations


def _sweep_grid(spec: GeneratorSpec, grid: SimplexGrid | None = None) -> SimplexGrid:
    """``grid`` checked against the dimension of ``spec``, or by default the
    resolution-``VALIDATION_RESOLUTION`` grid."""
    if grid is None:
        return SimplexGrid(spec.dimension, VALIDATION_RESOLUTION)
    _check_states("grid", grid.dimension, spec.dimension)
    return grid


def _problems(q: np.ndarray) -> list[tuple[int, str]]:
    """Conservativity failures of a stack ``(n, S, S)``, as (index, message) in index order.

    Off-diagonal entries may dip ``OFFDIAG_TOL`` below zero and a row sum may miss zero
    by ``ROWSUM_TOL`` times max(1, the row's largest |rate|), as rounding of large
    rates does; a matrix with a non-finite entry reports only that.
    """
    finite = np.all(np.isfinite(q), axis=(1, 2))
    off_min = np.where(np.eye(q.shape[-1], dtype=bool), np.inf, q).min(axis=(1, 2))
    row_sums = np.abs(q.sum(axis=2))
    negative = finite & (off_min < -OFFDIAG_TOL)
    unbalanced = finite & (np.max(row_sums, axis=1) > ROWSUM_TOL)
    # The slack is at least ROWSUM_TOL, so only those matrices need their rates' scale.
    for n in np.flatnonzero(unbalanced):
        unbalanced[n] = np.any(row_sums[n] > ROWSUM_TOL * np.abs(q[n]).max(axis=1, initial=1.0))
    problems = []
    for n in np.flatnonzero(~finite | negative | unbalanced):
        if not finite[n]:
            problems.append((n, "non-finite rates"))
        if negative[n]:
            problems.append((n, f"negative off-diagonal rate {float(off_min[n]):.6e}"))
        if unbalanced[n]:
            problems.append((n, f"row sum off by {float(np.max(row_sums[n])):.6e}"))
    return problems


def validate(spec: GeneratorSpec, grid: SimplexGrid | None = None) -> ValidationReport:
    """Check conservativity of ``spec`` at every point of ``grid``.

    The default grid has resolution ``VALIDATION_RESOLUTION``, evaluated ``RATE_BLOCK``
    points at a time.  Each failure of the check (see ``_problems``) is reported with the
    offending point.
    """
    grid = _sweep_grid(spec, grid)
    points = grid.array
    problems = [
        (first + n, message)
        for first in range(0, len(points), RATE_BLOCK)
        for n, message in _problems(spec._batch(points[first : first + RATE_BLOCK]))
    ]
    return ValidationReport(
        dimension=spec.dimension,
        grid_resolution=grid.resolution,
        checked=points.shape[0],
        violations=tuple(GridViolation(tuple(points[n].tolist()), m) for n, m in problems),
    )


def lipschitz_estimate(spec: GeneratorSpec, grid: SimplexGrid | None = None) -> float:
    """Largest observed |Q_ij(m) - Q_ij(m')| / ||m - m'||_1 over grid neighbors.

    Neighbors are grid points one lattice move apart (mass 1/k shifted
    between two coordinates, l1 distance 2/k).  This is a lower bound on
    the true Lipschitz constant of the cells, reported as a diagnostic.
    """
    grid = _sweep_grid(spec, grid)
    k, s = grid.resolution, spec.dimension
    # Each composition's key in base k + 1 (Python ints past int64); the grid's
    # lexicographic order sorts the keys, and moving one unit from a to b adds
    # place[b] - place[a].  Ordered pairs (a, b) visit every neighbor pair twice.
    exact = np.int64 if (k + 1) ** s < 2**63 else object
    place = np.array([(k + 1) ** (s - 1 - c) for c in range(s)], dtype=exact)
    counts = np.rint(grid.array * k).astype(np.int64).astype(exact)
    keys = counts @ place
    q = spec.rates_batch(grid.array)
    worst = 0.0
    for a, b in itertools.permutations(range(s), 2):
        moved = np.flatnonzero(counts[:, a] > 0)
        other = np.searchsorted(keys, keys[moved] + (place[b] - place[a]))
        worst = max(worst, float(np.abs(q[moved] - q[other]).max()))
    return worst * (k / 2.0)


def _irreducible(q: np.ndarray) -> np.ndarray:
    """Strong connectivity of every rate graph in a stack ``(n, S, S)``, as ``(n,)`` bools.

    Edges are rates strictly above ``RATE_FLOOR``.  Each boolean squaring of
    the reflexive adjacency matrix doubles the path length it covers
    (transitive closure by repeated squaring, after Warshall 1962), so
    ceil(log2(S - 1)) squarings reach every state that is reachable at all.
    """
    s = q.shape[-1]
    reach = (q > RATE_FLOOR) | np.eye(s, dtype=bool)
    covered = 1
    while covered < s - 1:
        reach = reach @ reach
        covered *= 2
    return reach.all(axis=(1, 2))


def _canonical_cells(spec: GeneratorSpec) -> list:
    """The cell table as JSON-ready objects: cells sorted by index pair, 1-based, and each
    cell's terms stable-sorted by exponents alone, so duplicate monomials keep input order."""
    return [
        {
            "from": i + 1,
            "to": j + 1,
            "terms": [
                {"exponents": list(exps), "coefficient": coefficient}
                for exps, coefficient in sorted(terms, key=lambda term: term[0])
            ],
        }
        for (i, j), terms in sorted(spec.cells.items())
    ]


def generator_to_json(spec: GeneratorSpec) -> str:
    """Serialize a polynomial cell table to canonical JSON text, in ``_canonical_cells``'s
    order, so save, load, save again gives identical text."""
    if spec.cells is None:
        raise ValueError(f"{spec.describe()} cannot be saved: no polynomial cell table")
    doc = {
        "format": FILE_FORMAT,
        "version": FILE_VERSION,
        "dimension": spec.dimension,
        "metadata": spec.metadata,
        "cells": _canonical_cells(spec),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_generator(spec: GeneratorSpec, path) -> None:
    """Write ``spec``'s cell table to ``path`` as :func:`generator_to_json` text."""
    _write_text(path, generator_to_json(spec))


def generator_from_json(text: str) -> GeneratorSpec:
    """Parse generator JSON text into :class:`GeneratorSpec`, whose rules these are; a
    violation raises GeneratorFileError naming its entry, with states counted from 1."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GeneratorFileError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:  # the decoder recurses once per level of nesting
        raise GeneratorFileError("invalid JSON: arrays or objects nested too deeply") from None
    if not isinstance(doc, dict):
        raise GeneratorFileError("top level must be an object")
    if doc.get("format") != FILE_FORMAT:
        raise GeneratorFileError(f"unknown format {doc.get('format')!r}, expected {FILE_FORMAT!r}")
    if doc.get("version") != FILE_VERSION:
        raise GeneratorFileError(f"unsupported version {doc.get('version')!r}")
    raw_cells = doc.get("cells")
    if not isinstance(raw_cells, list):
        raise GeneratorFileError("cells must be an array")
    cells: dict[tuple[int, int], list] = {}
    for pos, entry in enumerate(raw_cells):
        where = f"cells[{pos}]"
        if not isinstance(entry, dict):
            raise GeneratorFileError(f"{where} must be an object")
        for end in ("from", "to"):
            if not _is_int(entry.get(end)):
                raise GeneratorFileError(f"{where}.{end} must be an integer")
        key = (entry["from"] - 1, entry["to"] - 1)
        if key in cells:
            raise GeneratorFileError(f"{where} repeats cell ({entry['from']}, {entry['to']})")
        terms = entry.get("terms")
        if not isinstance(terms, list):
            raise GeneratorFileError(f"{where}.terms must be an array")
        for tpos, term in enumerate(terms):
            if not isinstance(term, dict):
                raise GeneratorFileError(f"{where}.terms[{tpos}] must be an object")
        cells[key] = [(term.get("exponents"), term.get("coefficient")) for term in terms]
    try:
        return GeneratorSpec(doc.get("dimension"), cells=cells, metadata=doc.get("metadata", {}))
    except ValueError as exc:
        message = str(exc)
        if hasattr(exc, "cell"):  # entries fill ``cells`` in file order, so positions match
            where = f"cells[{exc.cell}]" + ("" if exc.term is None else f".terms[{exc.term}]")
            message = f"{where}: {exc.problem.format(first=1, last=doc['dimension'])}"
        raise GeneratorFileError(message) from exc


def load_generator(path) -> GeneratorSpec:
    """Read a generator file written by :func:`save_generator`, as :func:`generator_from_json`."""
    with open(path, "r", encoding="utf-8") as handle:
        return generator_from_json(handle.read())
