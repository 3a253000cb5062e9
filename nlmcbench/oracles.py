"""Correctness oracles for the benchmark's CLI artifacts.

Everything here is computed with numpy from closed forms of the corpus
generators, never by calling nlmc: the bistable drift is the cubic
-(32/3)(m1 - 1/4)(m1 - 1/2)(m1 - 3/4) expanded from its cell table, and the
consumer rates are written out from the corpus definition.  Each function
returns a list of problems; an empty list means the artifact is correct.
"""

from __future__ import annotations

import json
import os

import numpy as np

MASS_TOL = 1e-9        # |sum(row) - 1| of a trajectory row
NEGATIVE_TOL = 1e-12   # entries may dip this far below zero
ROOT_TOL = 1e-8        # bistable rest points and witnesses
CONSUMER_REST_TOL = 1e-9


def bistable_roots() -> np.ndarray:
    """Rest points of the bistable drift f(m1) = (1 - m1) q21 - m1 q12 with
    q12 = 29/3 m1^2 - 16 m1 + 22/3 and q21 = m1^2 + m1 + 1, that is
    f = -32/3 m1^3 + 16 m1^2 - 22/3 m1 + 1."""
    return np.sort(np.roots([-32.0 / 3.0, 16.0, -22.0 / 3.0, 1.0]).real)


def bistable_limit(m1: float) -> np.ndarray:
    """Limit of the bistable flow from (m1, 1 - m1), m1 != 1/2: the stable
    root on the same side of the repeller."""
    low, mid, high = bistable_roots()
    limit = low if m1 < mid else high
    return np.array([limit, 1.0 - limit])


def consumer_drift(m: np.ndarray, p: dict[str, float]) -> np.ndarray:
    """m^T Q(m) for the consumer generator, from its closed-form rates."""
    q = np.array([
        [0.0, p["b"], p["e"] * m[0] + p["eps"]],
        [0.0, 0.0, p["e"] * m[1] + p["eps"]],
        [p["lam"], p["lam"], 0.0],
    ])
    q -= np.diag(q.sum(axis=1))
    return m @ q


def _load_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _load_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _on_simplex(states: np.ndarray, label: str) -> list[str]:
    problems = []
    mass = np.abs(states.sum(axis=1) - 1.0)
    if mass.max() > MASS_TOL:
        problems.append(f"{label}: row mass off by {mass.max():.3e}")
    if states.min() < -NEGATIVE_TOL:
        problems.append(f"{label}: entry {states.min():.3e} below zero")
    return problems


def trajectory(path: str, horizon: float, states: int, end=None, end_tol=None) -> list[str]:
    """Trajectory CSV: S+1 columns, times from 0 to the horizon, every row on
    the simplex, and (if ``end`` is given) a final row within ``end_tol``."""
    data = _load_csv(path)
    label = os.path.basename(path)
    if data.shape[1] != states + 1:
        return [f"{label}: {data.shape[1]} columns, expected {states + 1}"]
    times, rows = data[:, 0], data[:, 1:]
    problems = _on_simplex(rows, label)
    if times[0] != 0.0 or abs(times[-1] - horizon) > 1e-12 * horizon or np.any(np.diff(times) <= 0):
        problems.append(f"{label}: times do not run increasing from 0 to {horizon!r}")
    if end is not None:
        gap = float(np.max(np.abs(rows[-1] - np.asarray(end))))
        if gap > end_tol:
            problems.append(f"{label}: final state {gap:.3e} from its expected limit")
    return problems


def jump_path(path: str, horizon: float, states: int) -> list[str]:
    """Jump-path CSV: a first row at t = 0, strictly increasing jump times no
    later than the horizon, states in 1..S, and every jump a change of state."""
    data = _load_csv(path)
    label = os.path.basename(path)
    if data.shape[1] != 2:
        return [f"{label}: {data.shape[1]} columns, expected 2"]
    times, visited = data[:, 0], data[:, 1]
    problems = []
    if times[0] != 0.0 or np.any(np.diff(times) <= 0) or times[-1] > horizon:
        problems.append(f"{label}: jump times are not increasing within [0, {horizon!r}]")
    if np.any(visited != np.round(visited)) or visited.min() < 1 or visited.max() > states:
        problems.append(f"{label}: states outside 1..{states}")
    if np.any(np.diff(visited) == 0):
        problems.append(f"{label}: a jump leaves the state unchanged")
    return problems


def consumer_certified(path: str, params: dict[str, float], check_rest_point: bool) -> list[str]:
    """Consumer certificate: CERTIFIED with a positive margin; the ergodicity
    certificate's rest point must be invariant under the closed-form rates."""
    doc = _load_json(path)
    label = os.path.basename(path)
    problems = []
    if doc["verdict"] != "CERTIFIED":
        problems.append(f"{label}: verdict {doc['verdict']} ({doc['reason']}) for {params}")
    elif not doc["evidence"].get("margin", 0.0) > 0.0:
        problems.append(f"{label}: CERTIFIED without a positive margin")
    if check_rest_point and "rest_point" in doc["evidence"]:
        defect = float(np.max(np.abs(consumer_drift(np.array(doc["evidence"]["rest_point"]), params))))
        if defect > CONSUMER_REST_TOL:
            problems.append(f"{label}: rest point has ||m^T Q(m)|| = {defect:.3e}")
    elif check_rest_point:
        problems.append(f"{label}: no rest point in the evidence")
    return problems


def _matches_roots(m1_values, label: str) -> list[str]:
    roots = bistable_roots()
    m1 = np.sort(np.asarray(m1_values, dtype=float))
    if m1.size != roots.size:
        return [f"{label}: {m1.size} rest points, expected {roots.size}"]
    gap = float(np.max(np.abs(m1 - roots)))
    if gap > ROOT_TOL:
        return [f"{label}: rest points {gap:.3e} from 1/4, 1/2, 3/4"]
    return []


def bistable_invariant(path: str) -> list[str]:
    """Bistable invariant search: exactly the three closed-form rest points."""
    doc = _load_json(path)
    points = np.array([d["point"] for d in doc["invariant_distributions"]])
    if points.size == 0:
        return [f"{os.path.basename(path)}: no invariant distribution found"]
    return _matches_roots(points[:, 0], os.path.basename(path))


def bistable_refuted(path: str) -> list[str]:
    """Bistable ergodicity certificate: REFUTED, witnessed by the three roots."""
    doc = _load_json(path)
    label = os.path.basename(path)
    if doc["verdict"] != "REFUTED":
        return [f"{label}: verdict {doc['verdict']}, expected REFUTED"]
    witnesses = np.array(doc["evidence"]["witnesses"])
    return _matches_roots(witnesses[:, 0], label)


def fig2(outdir: str) -> list[str]:
    """``reproduce fig2``: every start reaches the stable root of its basin."""
    summary = _load_json(os.path.join(outdir, "fig2_summary.json"))
    problems = []
    for run in summary["runs"]:
        start = run["start"]
        path = os.path.join(outdir, f"fig2_{start:g}.csv")
        problems += trajectory(
            path, summary["horizon"], 2, end=bistable_limit(start), end_tol=1e-6
        )
    if len(summary["runs"]) != 8:
        problems.append(f"fig2: {len(summary['runs'])} runs, expected 8")
    return problems
