"""Nonlinear generators m -> Q(m): rate matrices, polynomial cells, corpus, file IO.

A generator maps each distribution m on {1, ..., S} to a conservative rate
matrix Q(m): off-diagonal entries non-negative, every row summing to zero.
Polynomial generators store only the off-diagonal cells as monomial tables;
diagonals are derived, so conservativity holds by construction.  Built-in
generators may instead wrap a closed-form rate function.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import GeneratorEvaluationError, GeneratorFileError
from .simplex import Distribution, SimplexGrid

OFFDIAG_TOL = 1e-10      # off-diagonal entries may round this far below zero
ROWSUM_TOL = 1e-9        # conservativity slack per row
RATE_FLOOR = 1e-9        # rates at or below this count as structural zeros
MAX_TOTAL_DEGREE = 8     # cap on monomial total degree in generator files
VALIDATION_RESOLUTION = 20

FILE_FORMAT = "nlmc-generator"
FILE_VERSION = 1


class RateMatrix:
    """A conservative transition rate matrix.

    Construction validates shape, finiteness, off-diagonal sign (within
    ``OFFDIAG_TOL``) and row sums (within ``ROWSUM_TOL``), then clamps
    off-diagonal rounding noise to zero.  The stored array is read-only.
    """

    __slots__ = ("entries",)

    def __init__(self, entries) -> None:
        q = np.array(entries, dtype=float)
        problems = rate_matrix_violations(q)
        if problems:
            raise GeneratorEvaluationError("; ".join(problems))
        off = ~np.eye(q.shape[0], dtype=bool)
        q[off] = np.maximum(q[off], 0.0)
        q.flags.writeable = False
        self.entries = q

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:
        return f"RateMatrix({self.entries.tolist()!r})"


def rate_matrix_violations(q: np.ndarray) -> list[str]:
    """List the ways a raw array fails to be a conservative rate matrix."""
    if q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape[0] == 0:
        return [f"rate matrix must be square and non-empty, got shape {q.shape}"]
    problems = []
    if not np.all(np.isfinite(q)):
        problems.append("rate matrix has non-finite entries")
        return problems
    off = ~np.eye(q.shape[0], dtype=bool)
    worst_off = float(q[off].min()) if q.shape[0] > 1 else 0.0
    if worst_off < -OFFDIAG_TOL:
        i, j = _argmin_offdiag(q)
        problems.append(f"off-diagonal entry ({i + 1},{j + 1}) = {worst_off:.6e} is negative")
    row_sums = q.sum(axis=1)
    worst_row = int(np.argmax(np.abs(row_sums)))
    if abs(float(row_sums[worst_row])) > ROWSUM_TOL:
        problems.append(
            f"row {worst_row + 1} sums to {float(row_sums[worst_row]):.6e}, not zero"
        )
    return problems


def _argmin_offdiag(q: np.ndarray) -> tuple[int, int]:
    masked = q + np.diag(np.full(q.shape[0], np.inf))
    flat = int(np.argmin(masked))
    return flat // q.shape[0], flat % q.shape[0]


@dataclass(frozen=True)
class PolyTerm:
    """One monomial: coefficient * prod_i m_i ** exponents[i]."""

    exponents: tuple[int, ...]
    coefficient: float


@dataclass(frozen=True)
class PolynomialCell:
    """A polynomial off-diagonal cell, stored as a tuple of monomials."""

    terms: tuple[PolyTerm, ...]

    @property
    def total_degree(self) -> int:
        return max((sum(t.exponents) for t in self.terms), default=0)


class GeneratorSpec:
    """A nonlinear generator: a map from distributions to conservative rate matrices.

    ``kind`` is ``"builtin"`` for named corpus members and ``"polynomial"``
    for cell-table generators.  ``extension`` records how rates behave just
    outside the simplex: ``"analytic"`` cells evaluate anywhere, while
    ``"clamped"`` rates freeze their arguments at a cutoff (certificates
    quote this, since derivative estimates near the clamp boundary are
    one-sided).

    ``rates`` and ``rates_batch`` return raw arrays without conservativity
    checks, which keeps finite-difference probes at slightly off-simplex
    points legal; ``eval`` wraps the result in a validated
    :class:`RateMatrix`.
    """

    def __init__(
        self,
        dimension: int,
        kind: str,
        batch_rates,
        *,
        name: str | None = None,
        params: dict | None = None,
        cells: dict[tuple[int, int], PolynomialCell] | None = None,
        metadata: dict | None = None,
        extension: str = "analytic",
    ) -> None:
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        if kind not in ("builtin", "polynomial"):
            raise ValueError(f"unknown generator kind {kind!r}")
        if extension not in ("analytic", "clamped"):
            raise ValueError(f"unknown extension {extension!r}")
        self.dimension = int(dimension)
        self.kind = kind
        self.name = name
        self.params = dict(params or {})
        self.cells = dict(cells) if cells is not None else None
        self.metadata = dict(metadata or {})
        self.extension = extension
        self._batch = batch_rates
        self._validation = None

    def rates_batch(self, points) -> np.ndarray:
        """Raw rate arrays, shape (n, S, S), for points given as rows (n, S)."""
        arr = np.asarray(points, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.dimension:
            raise ValueError(f"expected points of shape (n, {self.dimension}), got {arr.shape}")
        out = self._batch(arr)
        if not np.isfinite(out).all():
            raise GeneratorEvaluationError(f"{self.describe()} produced non-finite rates")
        return out

    def rates(self, m) -> np.ndarray:
        """Raw S x S rate array at one point (no conservativity checks)."""
        arr = m.probs if isinstance(m, Distribution) else np.asarray(m, dtype=float)
        return self.rates_batch(arr[None, :])[0]

    def eval(self, m: Distribution) -> RateMatrix:
        """Validated rate matrix at ``m``."""
        return RateMatrix(self.rates(m))

    def drift(self, m) -> np.ndarray:
        """Marginal drift f(m) with components f_j = sum_i m_i Q_ij(m)."""
        arr = m.probs if isinstance(m, Distribution) else np.asarray(m, dtype=float)
        return self.drift_batch(arr[None])[0]

    def drift_batch(self, points) -> np.ndarray:
        """Marginal drifts, shape (n, S), for points given as rows (n, S)."""
        arr = np.asarray(points, dtype=float)
        return np.einsum("ni,nij->nj", arr, self.rates_batch(arr))

    def describe(self) -> str:
        if self.kind == "builtin":
            return f"builtin generator {self.name!r}"
        return f"polynomial generator on {self.dimension} states"

    @property
    def generator_id(self) -> str:
        """Stable identifier used in exported artifacts."""
        if self.kind == "builtin":
            inside = ", ".join(f"{k}={self.params[k]!r}" for k in sorted(self.params))
            return f"builtin:{self.name}({inside})"
        digest = hashlib.sha256(_canonical_cells_json(self).encode()).hexdigest()[:12]
        return f"polynomial:{self.dimension}:{digest}"

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


def _normalize_cells(dimension: int, cells: dict) -> dict[tuple[int, int], PolynomialCell]:
    out = {}
    for key, cell in cells.items():
        i, j = int(key[0]), int(key[1])
        if not (0 <= i < dimension and 0 <= j < dimension):
            raise ValueError(f"cell index ({i}, {j}) out of range for {dimension} states")
        if i == j:
            raise ValueError(f"cell ({i}, {j}) is diagonal; diagonals are derived")
        if not isinstance(cell, PolynomialCell):
            cell = PolynomialCell(
                tuple(PolyTerm(tuple(int(e) for e in exps), float(c)) for exps, c in cell)
            )
        for term in cell.terms:
            if len(term.exponents) != dimension:
                raise ValueError(
                    f"cell ({i}, {j}) has a term with {len(term.exponents)} exponents, "
                    f"expected {dimension}"
                )
            if any(e < 0 for e in term.exponents):
                raise ValueError(f"cell ({i}, {j}) has a negative exponent")
            if not np.isfinite(term.coefficient):
                raise ValueError(f"cell ({i}, {j}) has a non-finite coefficient")
        if cell.total_degree > MAX_TOTAL_DEGREE:
            raise ValueError(
                f"cell ({i}, {j}) has total degree {cell.total_degree}, "
                f"above the cap {MAX_TOTAL_DEGREE}"
            )
        out[(i, j)] = cell
    return out


def _compile_cells(dimension: int, cells: dict[tuple[int, int], PolynomialCell]):
    # Exponents (T, S) of the distinct monomials, coefficients (T, S*S).  einsum, not @:
    # BLAS takes another path for one row, so rates would depend on the batch size.
    monomials = sorted({t.exponents for cell in cells.values() for t in cell.terms})
    column = {exps: k for k, exps in enumerate(monomials)}
    exps = np.array(monomials, dtype=float).reshape(len(monomials), dimension)
    coeffs = np.zeros((len(monomials), dimension * dimension))
    for (i, j), cell in cells.items():
        for t in cell.terms:
            coeffs[column[t.exponents], i * dimension + j] += t.coefficient
    idx = np.arange(dimension)

    def batch(points: np.ndarray) -> np.ndarray:
        values = (points[:, None, :] ** exps[None, :, :]).prod(axis=2)
        q = np.einsum("nt,tk->nk", values, coeffs).reshape(-1, dimension, dimension)
        q[:, idx, idx] = -q.sum(axis=2)
        return q

    return batch


def polynomial_generator(
    dimension: int,
    cells: dict,
    *,
    name: str | None = None,
    params: dict | None = None,
    metadata: dict | None = None,
    kind: str = "polynomial",
) -> GeneratorSpec:
    """Build a generator from off-diagonal polynomial cell tables.

    ``cells`` maps 0-based index pairs (i, j), i != j, to either a
    :class:`PolynomialCell` or an iterable of ``(exponents, coefficient)``
    pairs.  Omitted cells are zero.
    """
    norm = _normalize_cells(dimension, cells)
    return GeneratorSpec(
        dimension,
        kind,
        _compile_cells(dimension, norm),
        name=name,
        params=params,
        cells=norm,
        metadata=metadata,
    )


def constant_generator(matrix) -> GeneratorSpec:
    """Wrap a constant conservative rate matrix as a (linear) generator."""
    q = RateMatrix(matrix).entries
    s = q.shape[0]
    cells = {}
    for i in range(s):
        for j in range(s):
            if i != j and q[i, j] != 0.0:
                cells[(i, j)] = [((0,) * s, float(q[i, j]))]
    return polynomial_generator(s, cells)


def _oscillator_batch(points: np.ndarray) -> np.ndarray:
    # Rates are defined on the region where every component is >= 1/10 and
    # extended to the rest of the simplex by clamping each argument at 1/10,
    # which keeps every cell bounded and Lipschitz.
    c = np.maximum(points, 0.1)
    third = 1.0 / 3.0
    n = points.shape[0]
    q = np.zeros((n, 3, 3))
    q[:, 0, 2] = np.where(c[:, 1] <= third, (third - c[:, 1]) / c[:, 0], 0.0)
    q[:, 1, 2] = np.where(c[:, 0] >= third, (c[:, 0] - third) / c[:, 1], 0.0)
    q[:, 2, 0] = np.where(c[:, 1] >= third, (c[:, 1] - third) / c[:, 2], 0.0)
    q[:, 2, 1] = np.where(c[:, 0] <= third, (third - c[:, 0]) / c[:, 2], 0.0)
    idx = np.arange(3)
    q[:, idx, idx] = -q.sum(axis=2)
    return q


_BISTABLE_CELLS = {
    (0, 1): [((2, 0), 29.0 / 3.0), ((1, 0), -16.0), ((0, 0), 22.0 / 3.0)],
    (1, 0): [((2, 0), 1.0), ((1, 0), 1.0), ((0, 0), 1.0)],
}

CORPUS_NAMES = ("consumer", "oscillator", "bistable")

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

    ``consumer`` requires parameters ``b``, ``e``, ``eps``, ``lam`` (all
    positive); ``oscillator`` and ``bistable`` take none.
    """
    params = dict(params or {})
    if name == "consumer":
        required = ("b", "e", "eps", "lam")
        missing = [k for k in required if k not in params]
        if missing:
            raise ValueError(f"consumer requires parameters {', '.join(missing)}")
        unknown = sorted(set(params) - set(required))
        if unknown:
            raise ValueError(f"consumer does not take parameters {', '.join(unknown)}")
        values = {k: float(params[k]) for k in required}
        if any(v <= 0 for v in values.values()):
            raise ValueError("consumer parameters must be positive")
        b, e, eps, lam = (values[k] for k in required)
        cells = {
            (0, 1): [((0, 0, 0), b)],
            (0, 2): [((1, 0, 0), e), ((0, 0, 0), eps)],
            (1, 2): [((0, 1, 0), e), ((0, 0, 0), eps)],
            (2, 0): [((0, 0, 0), lam)],
            (2, 1): [((0, 0, 0), lam)],
        }
        return polynomial_generator(3, cells, name="consumer", params=values, kind="builtin")
    if name == "oscillator":
        if params:
            raise ValueError("oscillator takes no parameters")
        return GeneratorSpec(
            3, "builtin", _oscillator_batch, name="oscillator", extension="clamped"
        )
    if name == "bistable":
        if params:
            raise ValueError("bistable takes no parameters")
        return polynomial_generator(2, _BISTABLE_CELLS, name="bistable", kind="builtin")
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


def validate(spec: GeneratorSpec, grid: SimplexGrid | None = None) -> ValidationReport:
    """Check conservativity of ``spec`` at every point of ``grid``.

    The default grid has resolution ``VALIDATION_RESOLUTION``.  Off-diagonal
    entries may dip ``OFFDIAG_TOL`` below zero and row sums may miss zero by
    ``ROWSUM_TOL``; anything worse is reported with the offending point.
    """
    if grid is None:
        grid = SimplexGrid(spec.dimension, VALIDATION_RESOLUTION)
    if grid.dimension != spec.dimension:
        raise ValueError(
            f"grid dimension {grid.dimension} does not match generator dimension {spec.dimension}"
        )
    points = grid.array
    try:
        q = spec.rates_batch(points)
    except GeneratorEvaluationError:
        q = spec._batch(points)
    violations = []
    finite = np.all(np.isfinite(q), axis=(1, 2))
    off_mask = ~np.eye(spec.dimension, dtype=bool)
    off_min = np.where(off_mask[None, :, :], q, np.inf).min(axis=(1, 2))
    row_worst = np.max(np.abs(q.sum(axis=2)), axis=1)
    negative = finite & (off_min < -OFFDIAG_TOL)
    unbalanced = finite & (row_worst > ROWSUM_TOL)
    for n in np.flatnonzero(~finite | negative | unbalanced):
        point = tuple(points[n].tolist())
        if not finite[n]:
            violations.append(GridViolation(point, "non-finite rates"))
        if negative[n]:
            violations.append(
                GridViolation(point, f"negative off-diagonal rate {float(off_min[n]):.6e}")
            )
        if unbalanced[n]:
            violations.append(
                GridViolation(point, f"row sum off by {float(row_worst[n]):.6e}")
            )
    return ValidationReport(
        dimension=spec.dimension,
        grid_resolution=grid.resolution,
        checked=points.shape[0],
        violations=tuple(violations),
    )


def lipschitz_estimate(spec: GeneratorSpec, grid: SimplexGrid | None = None) -> float:
    """Largest observed |Q_ij(m) - Q_ij(m')| / ||m - m'||_1 over grid neighbors.

    Neighbors are grid points one lattice move apart (mass 1/k shifted
    between two coordinates, l1 distance 2/k).  This is a lower bound on
    the true Lipschitz constant of the cells, reported as a diagnostic.
    """
    if grid is None:
        grid = SimplexGrid(spec.dimension, VALIDATION_RESOLUTION)
    if grid.dimension != spec.dimension:
        raise ValueError(
            f"grid dimension {grid.dimension} does not match generator dimension {spec.dimension}"
        )
    k = grid.resolution
    counts = np.rint(grid.array * k).astype(int)
    index_of = {tuple(row): n for n, row in enumerate(counts)}
    pairs_a = []
    pairs_b = []
    for n, row in enumerate(counts):
        for a in range(spec.dimension):
            if row[a] == 0:
                continue
            for b in range(spec.dimension):
                if a == b:
                    continue
                moved = list(row)
                moved[a] -= 1
                moved[b] += 1
                other = index_of[tuple(moved)]
                if other > n:
                    pairs_a.append(n)
                    pairs_b.append(other)
    if not pairs_a:
        return 0.0
    q = spec.rates_batch(grid.array)
    diffs = np.abs(q[pairs_a] - q[pairs_b]).max(axis=(1, 2))
    return float(diffs.max() * (k / 2.0))


def irreducible_at(spec: GeneratorSpec, m) -> bool:
    """Whether the frozen chain Q(m) is irreducible.

    Edges are rates strictly above ``RATE_FLOOR``; the test is strong
    connectivity of the resulting directed graph.
    """
    return bool(_irreducible(spec.rates(m)[None])[0])


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


def _canonical_cells_json(spec: GeneratorSpec) -> str:
    if spec.cells is None:
        raise ValueError(f"{spec.describe()} has no polynomial cell table")
    cells = []
    for (i, j), cell in sorted(spec.cells.items()):
        terms = sorted(cell.terms, key=lambda t: t.exponents)
        cells.append(
            {
                "from": i + 1,
                "to": j + 1,
                "terms": [
                    {"exponents": list(t.exponents), "coefficient": t.coefficient}
                    for t in terms
                ],
            }
        )
    return json.dumps(cells, sort_keys=True)


def generator_to_json(spec: GeneratorSpec) -> str:
    """Serialize a polynomial cell table to canonical JSON text.

    Cells are sorted by index pair and terms by exponent tuple, so the
    output is byte-stable: save, load, save again gives identical text.
    """
    if spec.cells is None:
        raise ValueError(f"{spec.describe()} cannot be saved: no polynomial cell table")
    doc = {
        "format": FILE_FORMAT,
        "version": FILE_VERSION,
        "dimension": spec.dimension,
        "metadata": {str(k): spec.metadata[k] for k in sorted(spec.metadata)},
        "cells": json.loads(_canonical_cells_json(spec)),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_generator(spec: GeneratorSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(generator_to_json(spec))


def _is_json_int(value) -> bool:
    """True for a JSON integer; ``bool`` subclasses ``int`` in Python but is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def generator_from_json(text: str) -> GeneratorSpec:
    """Parse generator JSON text, reporting position information on failure."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GeneratorFileError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise GeneratorFileError("top level must be an object")
    if doc.get("format") != FILE_FORMAT:
        raise GeneratorFileError(f"unknown format {doc.get('format')!r}, expected {FILE_FORMAT!r}")
    if doc.get("version") != FILE_VERSION:
        raise GeneratorFileError(f"unsupported version {doc.get('version')!r}")
    dimension = doc.get("dimension")
    if not _is_json_int(dimension) or dimension < 1:
        raise GeneratorFileError("dimension must be a positive integer")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise GeneratorFileError("metadata must be an object")
    raw_cells = doc.get("cells")
    if not isinstance(raw_cells, list):
        raise GeneratorFileError("cells must be an array")
    cells: dict[tuple[int, int], list] = {}
    for pos, entry in enumerate(raw_cells):
        where = f"cells[{pos}]"
        if not isinstance(entry, dict):
            raise GeneratorFileError(f"{where} must be an object")
        for key in ("from", "to"):
            if not _is_json_int(entry.get(key)):
                raise GeneratorFileError(f"{where}.{key} must be an integer")
        i, j = entry["from"] - 1, entry["to"] - 1
        if not (0 <= i < dimension and 0 <= j < dimension):
            raise GeneratorFileError(f"{where} indices out of range 1..{dimension}")
        if i == j:
            raise GeneratorFileError(f"{where} is diagonal; diagonals are derived")
        if (i, j) in cells:
            raise GeneratorFileError(f"{where} repeats cell ({i + 1}, {j + 1})")
        terms = entry.get("terms")
        if not isinstance(terms, list):
            raise GeneratorFileError(f"{where}.terms must be an array")
        parsed = []
        for tpos, term in enumerate(terms):
            twhere = f"{where}.terms[{tpos}]"
            if not isinstance(term, dict):
                raise GeneratorFileError(f"{twhere} must be an object")
            exps = term.get("exponents")
            coeff = term.get("coefficient")
            if (
                not isinstance(exps, list)
                or len(exps) != dimension
                or not all(_is_json_int(e) and e >= 0 for e in exps)
            ):
                raise GeneratorFileError(
                    f"{twhere}.exponents must be {dimension} non-negative integers"
                )
            if sum(exps) > MAX_TOTAL_DEGREE:
                raise GeneratorFileError(
                    f"{twhere} has total degree {sum(exps)}, above the cap {MAX_TOTAL_DEGREE}"
                )
            if not isinstance(coeff, (int, float)) or isinstance(coeff, bool):
                raise GeneratorFileError(f"{twhere}.coefficient must be a number")
            parsed.append((tuple(exps), float(coeff)))
        cells[(i, j)] = parsed
    try:
        return polynomial_generator(dimension, cells, metadata=metadata)
    except ValueError as exc:
        raise GeneratorFileError(str(exc)) from exc


def load_generator(path) -> GeneratorSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return generator_from_json(handle.read())
