"""Frozen-chain stationary distributions and invariant-distribution search.

A distribution m is invariant when its own drift vanishes: m^T Q(m) = 0.
The search runs a damped fixed-point iteration on m -> x(m), where x(m) is
the stationary distribution of the frozen chain Q(m), falls back to riding
the marginal flow when that iteration cycles, switches to a damped Newton
method on the chart drift when the frozen chain is reducible, and always
finishes with a Newton polish.  Results from all seeds are clustered.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ReducibleGeneratorError
from .generator import GeneratorSpec, _irreducible
from .semigroup import IntegratorControls, integrate_flow
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
    non-singular when Q has a single closed class; a singular stack gives NaN rows.
    """
    n, s, _ = q.shape
    a = np.swapaxes(q, 1, 2).copy()
    a[:, -1, :] = 1.0
    b = np.zeros((n, s, 1))
    b[:, -1] = 1.0
    try:
        return np.linalg.solve(a, b)[..., 0]
    except np.linalg.LinAlgError:
        return np.full((n, s), np.nan)


def find_invariant(spec: GeneratorSpec, seeds) -> StationarySet:
    """Search for every invariant distribution reachable from ``seeds``.

    ``seeds`` is a :class:`SimplexGrid` or an iterable of distributions.
    Converged points closer than ``CLUSTER_RADIUS`` in max norm are merged;
    each cluster records the seeds that reached it.
    """
    spec.require_valid()
    if isinstance(seeds, SimplexGrid):
        seed_arrays = [row for row in seeds.array]
    else:
        seed_arrays = [
            s.probs if isinstance(s, Distribution) else Distribution(s).probs for s in seeds
        ]
    if not seed_arrays:
        raise ValueError("at least one seed is required")
    for arr in seed_arrays:
        if arr.shape != (spec.dimension,):
            raise ValueError(
                f"seed of shape {arr.shape} does not match generator dimension {spec.dimension}"
            )

    outcomes = [_search_from(spec, arr) for arr in seed_arrays]

    clusters: list[list] = []
    failed = 0
    for seed_arr, found in zip(seed_arrays, outcomes):
        if found is None:
            failed += 1
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
        res = residual(spec, point)
        classification = "interior" if float(point.probs.min()) > INTERIOR_TOL else "boundary"
        results.append(
            StationaryResult(
                point=point,
                residual=res,
                classification=classification,
                basin_hint=tuple(Distribution(s) for s in hint_seeds),
            )
        )
    results.sort(key=lambda r: tuple(r.point.probs))
    return StationarySet(
        results=tuple(results),
        seed_count=len(seed_arrays),
        failed_seeds=failed,
        tolerance=TOL_INVARIANT,
    )


def _search_from(spec: GeneratorSpec, seed: np.ndarray) -> np.ndarray | None:
    m = np.array(seed, dtype=float)
    q = spec.rates(m)
    r = float(np.max(np.abs(m @ q)))
    alpha = DAMPING
    fell_back = False
    for _ in range(MAX_ITERATIONS):
        if r <= TOL_INVARIANT:
            break
        if not _irreducible(q[None])[0]:
            return _newton_polish(spec, m)
        x = _frozen_solve(q[None])[0]
        if not np.all(np.isfinite(x)):
            return None
        candidate = (1.0 - alpha) * m + alpha * x
        q_cand = spec.rates(candidate)
        r_cand = float(np.max(np.abs(candidate @ q_cand)))
        if r_cand < r:
            m, q, r = candidate, q_cand, r_cand
            alpha = min(1.0, 1.25 * alpha)
            continue
        alpha *= 0.5
        if alpha >= 1e-3:
            continue
        if fell_back:
            break
        # The iteration is cycling around a repeller; ride the flow instead.
        m = _flow_tail(spec, m, EVOLVE_HORIZON)
        q = spec.rates(m)
        r = float(np.max(np.abs(m @ q)))
        alpha = DAMPING
        fell_back = True
    return _newton_polish(spec, m)


def _flow_tail(spec: GeneratorSpec, arr: np.ndarray, horizon: float) -> np.ndarray:
    projected, _ = _project_array(arr)
    flow = integrate_flow(spec, projected, horizon, IntegratorControls(rtol=1e-10, atol=1e-12))
    return flow.ys[-1]


def _newton_polish(spec: GeneratorSpec, arr: np.ndarray) -> np.ndarray | None:
    """Damped Newton on the chart drift; None when it fails to meet tolerance.

    Works on u = (m_1, ..., m_{S-1}) with m_S = 1 - sum(u); the chart drift
    is the first S-1 components of f, which vanish together with f itself
    because f always sums to zero.
    """
    s = spec.dimension
    if s == 1:
        return np.array([1.0])
    u = np.array(arr[: s - 1], dtype=float)

    def chart_drift(rows: np.ndarray) -> np.ndarray:
        return spec.drift_batch(_chart_embed(rows))[:, : s - 1]

    g = chart_drift(u[None])[0]
    for _ in range(NEWTON_STEPS):
        gnorm = float(np.max(np.abs(g)))
        if gnorm <= POLISH_TARGET:
            break
        jac = _chart_jacobian(chart_drift, u[None], 1e-6)[0]
        try:
            delta = np.linalg.solve(jac, g)
        except np.linalg.LinAlgError:
            return None
        lam = 1.0
        while lam > 1e-8:
            trial = u - lam * delta
            if float(np.max(np.abs(trial))) > 10.0:
                lam *= 0.5
                continue
            gt = chart_drift(trial[None])[0]
            if float(np.max(np.abs(gt))) < gnorm:
                u = trial
                g = gt
                break
            lam *= 0.5
        else:
            break
    candidate = _chart_embed(u[None])[0]
    if float(candidate.min()) < -1e-9 or not np.all(np.isfinite(candidate)):
        return None
    candidate, _ = _project_array(candidate)
    if residual(spec, candidate) > TOL_INVARIANT:
        return None
    return candidate
