"""Numerical certificates: uniqueness of invariant distributions and ergodicity.

Certificates are grid-based numerical evidence, not proofs.  Each one
records its verdict (CERTIFIED, INCONCLUSIVE, or REFUTED), the tolerances
it was checked against, and enough evidence to rerun the check: margins,
witnesses, grid resolution, finite-difference steps.

The uniqueness certificate sweeps the sign of det M(m), where M is the
chart Jacobian of the fixed-point defect f(m) = x(m) - m and x(m) is the
frozen-chain stationary distribution: a uniform nonzero sign matching the
degree of -identity, (-1)^(S-1), rules out a second zero of f.  Ergodicity
certificates cover two states (one root r of the drift, which points toward
it: h = f1/(r1 - m1) > 0) and three states (a Dulac argument, see
:func:`certify_ergodic_3`).  All three sweep a :class:`SimplexGrid` with one sign test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import CertificateEvaluationError
from .generator import RATE_FLOOR, GeneratorSpec, _irreducible, _sweep_grid
from .simplex import (
    FD_STEP, Distribution, SimplexGrid, _chart_drift, _chart_embed, _chart_jacobian, _write_text,
)
from .stationary import TOL_INVARIANT, _frozen_solve, find_invariant

TOL_DET = 1e-8
DIV_TOL = 1e-8
ROOT_REFINE_TOL = 1e-12
ZERO_DRIFT_TOL = 1e-12

CLAIM_UNIQUE = "unique-invariant-distribution"
CLAIM_ERGODIC = "strong-ergodicity"

_WITNESS_CAP = 5


@dataclass(frozen=True)
class Certificate:
    """Outcome of one certificate run.

    ``evidence`` always carries ``margin`` (> 0) when CERTIFIED and a
    non-empty ``witnesses`` list when REFUTED; INCONCLUSIVE verdicts carry
    witnesses when a concrete point triggered them.
    """

    claim: str
    verdict: str
    reason: str
    generator_id: str
    evidence: dict
    tolerances: dict

    def __post_init__(self) -> None:
        if self.verdict not in ("CERTIFIED", "INCONCLUSIVE", "REFUTED"):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "CERTIFIED":
            margin = self.evidence.get("margin")
            if margin is None or not margin > 0:
                raise ValueError("a CERTIFIED certificate must carry a positive margin")
        if self.verdict == "REFUTED" and not self.evidence.get("witnesses"):
            raise ValueError("a REFUTED certificate must carry witnesses")

    @property
    def certified(self) -> bool:
        return self.verdict == "CERTIFIED"

    def to_json_text(self) -> str:
        doc = {
            "claim": self.claim,
            "verdict": self.verdict,
            "reason": self.reason,
            "generator": self.generator_id,
            "evidence": _jsonable(self.evidence),
            "tolerances": _jsonable(self.tolerances),
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def to_json(self, path) -> None:
        _write_text(path, self.to_json_text())


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, Distribution):
        return [float(x) for x in value.probs]
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def build_M(spec: GeneratorSpec, m) -> np.ndarray:
    """Chart Jacobian of f(m) = x(m) - m by central differences.

    Works on the chart u = (m_1, ..., m_{S-1}); the step is ``FD_STEP``
    scaled by (1 + ||u||).  Requires the frozen chain to be irreducible at
    ``m`` and at every probe point, else :class:`CertificateEvaluationError`.
    """
    arr = np.asarray(m, dtype=float)
    if not _irreducible(spec.rates(arr)[None])[0]:
        raise CertificateEvaluationError(
            f"frozen chain is reducible at {tuple(float(x) for x in arr)}"
        )
    return _chart_jacobian(lambda rows: _defects(spec, rows), arr[None, :-1], FD_STEP)[0]


def _defects(spec: GeneratorSpec, rows: np.ndarray) -> np.ndarray:
    """Chart defects (x(m) - m)[:S-1] at chart rows ``(n, S-1)``, solving irreducible rows only.

    The first failing row raises :class:`CertificateEvaluationError` with its ``probe`` index.
    """
    points = _chart_embed(rows)
    q = spec.rates_batch(points)
    irreducible = _irreducible(q)
    x = np.full(points.shape, np.nan)
    x[irreducible] = _frozen_solve(q[irreducible])
    failed = ~np.all(np.isfinite(x), axis=1)
    if failed.any():
        n = int(np.argmax(failed))
        what = "frozen chain is reducible" if not irreducible[n] else "stationary solve failed"
        error = CertificateEvaluationError(f"{what} at probe point {tuple(map(float, points[n]))}")
        error.probe = n
        raise error
    return (x - points)[:, :-1]


def _verdicts(claim: str, spec: GeneratorSpec, tolerances: dict, base_evidence: dict):
    """The one certificate constructor of a run: ``verdict(outcome, reason, **evidence)``.

    Every verdict carries ``claim``, the generator id, ``tolerances`` and
    ``base_evidence`` extended by its own ``evidence``.
    """

    def verdict(outcome: str, reason: str, **evidence) -> Certificate:
        return Certificate(
            claim=claim,
            verdict=outcome,
            reason=reason,
            generator_id=spec.generator_id,
            evidence={**base_evidence, **evidence},
            tolerances=tolerances,
        )

    return verdict


def _sign_failure(verdict, values, points, tol, name, key, where, expected, against, **evidence):
    """The INCONCLUSIVE verdict unless ``values`` at ``points`` all have the sign ``expected``.

    The first weakest value fails when its magnitude, ``min_abs_<key>``, is at
    most ``tol``; else the first positive and first negative values, ``<key>s``;
    else a shared sign other than ``expected``, which ``against`` contradicts.
    """
    magnitude = np.abs(values)
    weakest = int(np.argmin(magnitude))
    signs = np.sign(values)
    if magnitude[weakest] <= tol:
        at, reason = [weakest], "magnitude below tolerance"
        found = {f"min_abs_{key}": float(magnitude[weakest])}
    elif signs.min() != signs.max():
        at, reason = [int(np.argmax(signs > 0)), int(np.argmax(signs < 0))], f"changes sign {where}"
        found = {f"{key}s": [float(values[n]) for n in at]}
    elif signs[0] != expected:
        at, reason = [0], f"sign contradicts {against}"
        found = {f"{key}_sign": float(signs[0]), "expected_sign": expected}
    else:
        return None
    witnesses = [points[n] for n in at]
    return verdict("INCONCLUSIVE", f"{name} {reason}", **evidence, witnesses=witnesses, **found)


def certify_unique(spec: GeneratorSpec, grid: SimplexGrid) -> Certificate:
    """Certify uniqueness of the invariant distribution by a degree argument.

    Sweeps det M over the grid.  All determinants sharing the sign
    (-1)^(S-1) with magnitude above tolerance is CERTIFIED; a reducible
    frozen chain anywhere is REFUTED (precondition); a near-zero or
    sign-flipping determinant is INCONCLUSIVE.
    """
    grid = _sweep_grid(spec, grid)
    spec.require_valid()
    verdict = _verdicts(
        CLAIM_UNIQUE,
        spec,
        {"determinant": TOL_DET, "rate_floor": RATE_FLOOR, "fd_step": FD_STEP},
        {
            "grid_resolution": grid.resolution,
            "points_checked": len(grid),
            "label": "grid-certified",
        },
    )
    points = grid.array
    reducible = np.flatnonzero(~_irreducible(spec.rates_batch(points)))
    if reducible.size:
        return verdict(
            "REFUTED",
            "precondition: frozen chain reducible at a grid point",
            witnesses=[points[n] for n in reducible[:_WITNESS_CAP]],
            reducible_points=len(reducible),
        )

    d = spec.dimension - 1
    try:
        jacobians = _chart_jacobian(lambda rows: _defects(spec, rows), points[:, :d], FD_STEP)
    except CertificateEvaluationError as exc:
        # Probes come row by row, 2d per grid point.
        return verdict(
            "INCONCLUSIVE",
            "determinant could not be evaluated at a grid point",
            witnesses=[points[exc.probe // (2 * d)]],
            detail=str(exc),
        )
    dets = np.linalg.det(jacobians)
    sign = -1.0 if spec.dimension % 2 == 0 else 1.0
    failure = _sign_failure(
        verdict, dets, points, TOL_DET, "determinant", "determinant", "across the grid", sign,
        "the degree identity",
    )
    if failure is not None:
        return failure
    abs_dets = np.abs(dets)
    return verdict(
        "CERTIFIED",
        "uniform determinant sign matching the degree identity",
        determinant_sign=sign,
        min_abs_determinant=float(abs_dets.min()),
        max_abs_determinant=float(abs_dets.max()),
        binding_point=points[np.argmin(abs_dets)],
        margin=float(abs_dets.min() - TOL_DET),
    )


def _bisect_rows(spec: GeneratorSpec, a: np.ndarray, b: np.ndarray, fa: np.ndarray) -> np.ndarray:
    """Roots of the scalar drift in the brackets [a, b], with ``fa`` the drift at ``a``.

    All brackets are halved together, one ``drift_batch`` call per halving.
    A row stops when its width is at most ``ROOT_REFINE_TOL`` (its root is
    the bracket's midpoint) or when the drift at a midpoint is exactly 0.0
    (its root is that midpoint).
    """
    a, b, fa = a.copy(), b.copy(), fa.copy()
    live = np.flatnonzero(b - a > ROOT_REFINE_TOL)
    while live.size:
        mid = 0.5 * (a[live] + b[live])
        fm = _chart_drift(spec, mid[:, None])[:, 0]
        right = (fa[live] > 0) == (fm > 0)
        a[live[right]], fa[live[right]] = mid[right], fm[right]
        b[live[~right]] = mid[~right]
        # An exact zero collapses the bracket onto its midpoint.
        zero = fm == 0.0
        a[live[zero]] = b[live[zero]] = mid[zero]
        live = live[b[live] - a[live] > ROOT_REFINE_TOL]
    return 0.5 * (a + b)


def certify_ergodic_2(spec: GeneratorSpec, grid: SimplexGrid) -> Certificate:
    """Ergodicity certificate for two states.

    Scans the scalar drift f1 at the points of ``grid`` and bisects every sign change for a
    rest point; roots within 2/k of each other merge, k the grid's resolution.  Multiple roots
    refute ergodicity outright, since each is a rest point of the marginal flow; the evidence
    lists at most ``_WITNESS_CAP`` of them and then counts them all in ``root_count``.  One
    root r certifies when h(m) = f1(m)/(r1 - m1) is positive at every grid point: the drift
    points toward r there.  A point within ``FD_STEP`` of r takes h(r) = -f1'(r) from the
    difference stencil.  ``margin``, a rate, is min h - ``DIV_TOL``, at ``binding_point``.
    """
    if spec.dimension != 2:
        raise ValueError("this certificate requires a two-state generator")
    grid = _sweep_grid(spec, grid)
    spec.require_valid()
    drift = partial(_chart_drift, spec)
    points = grid.array
    xs = points[:, 0]
    vals = drift(points[:, :1])[:, 0]
    near = np.abs(vals) <= ZERO_DRIFT_TOL
    flips = np.flatnonzero(~near[:-1] & ~near[1:] & ((vals[:-1] > 0) != (vals[1:] > 0)))
    bisected = _bisect_rows(spec, xs[flips], xs[flips + 1], vals[flips])
    window = 2.0 / grid.resolution
    roots: list[float] = []
    for r in np.sort(np.concatenate([xs[near], bisected])).tolist():
        if not roots or r - roots[-1] > window:
            roots.append(r)

    base = {"grid_resolution": grid.resolution, "roots": roots[:_WITNESS_CAP]}
    if len(roots) > _WITNESS_CAP:
        base["root_count"] = len(roots)
    verdict = _verdicts(
        CLAIM_ERGODIC,
        spec,
        dict(field=DIV_TOL, root_refine=ROOT_REFINE_TOL, zero=ZERO_DRIFT_TOL, fd_step=FD_STEP),
        base,
    )
    if not roots:
        return verdict("INCONCLUSIVE", "the drift scan located no rest point")
    if len(roots) > 1:
        return verdict(
            "REFUTED",
            "uniqueness fails: the scalar drift has multiple rest points",
            witnesses=[[r, 1.0 - r] for r in base["roots"]],
        )
    root = roots[0]
    gap = root - xs
    close = np.abs(gap) <= FD_STEP
    # h as the slope to r, (f1(m) - f1(r))/(r1 - m1): equal where f1(r) = 0, and blind to
    # the root's bisection error, which f1(m)/(r1 - m1) carries at points next to r.
    rise = vals - drift(np.array([[root]]))[0, 0]
    field = np.divide(rise, gap, out=np.empty_like(vals), where=~close)
    if close.any():
        field[close] = -_chart_jacobian(drift, np.array([[root]]), FD_STEP)[0, 0, 0]
    evidence = {"rest_point": [root, 1.0 - root]}
    failure = _sign_failure(
        verdict, field, points, DIV_TOL, "two-state field", "field", "across the grid", 1.0,
        "an attracting rest point", **evidence,
    )
    if failure is not None:
        return failure
    return verdict(
        "CERTIFIED",
        "unique attracting rest point of the scalar drift",
        **evidence,
        binding_point=points[np.argmin(field)],
        margin=float(field.min() - DIV_TOL),
    )


@dataclass(frozen=True)
class ReducedSystem:
    """Planar reduction of a three-state marginal flow f = m^T Q(m) on the chart (m1, m2),
    m3 = 1 - m1 - m2; the sweep is the same interior points whichever state is dropped."""

    spec: GeneratorSpec

    def __post_init__(self) -> None:
        if self.spec.dimension != 3:
            raise ValueError("the planar reduction requires a three-state generator")

    def divergence_batch(self, u: np.ndarray) -> np.ndarray:
        """The Dulac field D = div(B f)/B = tr J(u) - sum_i f_i/m_i, B = 1/(m1 m2 m3), at
        chart rows ``u`` ``(n, 2)`` inside the open simplex, where alone it is defined."""
        m = _chart_embed(u)
        if not np.all(m > 0.0):
            raise ValueError("the Dulac field is defined only on the open simplex")
        jac = _chart_jacobian(partial(_chart_drift, self.spec), u, FD_STEP)
        return np.trace(jac, axis1=1, axis2=2) - (self.spec.drift_batch(m) / m).sum(axis=1)

    def jacobian(self, u1: float, u2: float) -> np.ndarray:
        return _chart_jacobian(partial(_chart_drift, self.spec), np.array([[u1, u2]]), FD_STEP)[0]

    def lattice(self, resolution: int) -> np.ndarray:
        """Chart rows of the C(k + 2, 2) interior points of ``SimplexGrid(3, k + 3)``, k the
        ``resolution``: each point a/k of ``SimplexGrid(3, k)`` moved to (a + 1)/(k + 3)."""
        k = resolution
        return (np.rint(SimplexGrid(3, k).array[:, :2] * k) + 1.0) / (k + 3)


def certify_ergodic_3(spec: GeneratorSpec, grid: SimplexGrid) -> Certificate:
    """Ergodicity certificate for three states.

    Requires, in order: a single invariant distribution, a Dulac field D (``divergence_batch``)
    negative at :meth:`ReducedSystem.lattice` on ``grid``'s resolution
    (``divergence_binding_point`` is where it is weakest), and a non-saddle linearization at
    the rest point.  Uniqueness is ``"degree"`` when :func:`certify_unique` certifies on
    ``grid`` and a search from the grid point of least max-norm drift then finds one
    distribution (the degree sweep leaves one rest point to locate, so one seed will do); else
    ``"search"``, from every grid point, which may refute with at most ``_WITNESS_CAP``
    witnesses (``invariant_count`` counts them all).  ``margin`` takes the divergence and
    saddle margins.

    D = div(B f)/B, B = 1/(m1 m2 m3), of one sign on the open simplex excludes every closed
    orbit and loop made of orbits inside it (Dulac).  On a face m_i = 0 the inflow f_i >= 0,
    so P = m1 m2 m3 D = -f_i prod_{k != i} m_k <= 0: no point outside the simplex is needed,
    and D > 0 throughout would need every face invariant, every corner a rest point, so a
    positive sweep is INCONCLUSIVE.  B is singular on the faces, so the saddle check stays:
    a homoclinic loop there needs a hyperbolic sector, which det J > 0 excludes.
    """
    system = ReducedSystem(spec)  # refuses a spec not on three states before any rate call
    unique = certify_unique(spec, grid)
    premise = {"uniqueness": "degree", "uniqueness_margin": unique.evidence.get("margin")}
    stationary = ()
    if unique.certified:  # one rest point, located from the grid point of least drift
        drifts = np.max(np.abs(spec.drift_batch(grid.array)), axis=1)
        stationary = find_invariant(spec, grid.array[np.argmin(drifts)])
    if len(stationary) != 1:
        stationary = find_invariant(spec, grid)
        premise = {"uniqueness": "search"}
    base_evidence = {"grid_resolution": grid.resolution, **premise}
    if spec.extension == "clamped":
        base_evidence["extension_note"] = (
            "rates use a clamped extension outside their native region; "
            "derivative sweeps across the clamp boundary are one-sided"
        )
    verdict = _verdicts(
        CLAIM_ERGODIC,
        spec,
        {"divergence": DIV_TOL, "saddle": TOL_DET, "invariant": TOL_INVARIANT, "fd_step": FD_STEP},
        base_evidence,
    )

    if len(stationary) == 0:
        return verdict(
            "INCONCLUSIVE",
            "no invariant distribution found from any seed",
            failed_seeds=stationary.failed_seeds,
        )
    if len(stationary) > 1:
        count = {"invariant_count": len(stationary)} if len(stationary) > _WITNESS_CAP else {}
        return verdict(
            "REFUTED",
            "uniqueness fails: multiple invariant distributions found",
            witnesses=[r.point for r in stationary.results[:_WITNESS_CAP]],
            **count,
        )
    rest = stationary.results[0]

    sweep = system.lattice(grid.resolution)
    divergence = system.divergence_batch(sweep)
    evidence = {
        "rest_point": rest.point,
        "rest_point_residual": rest.residual,
        "sweep_points": int(sweep.shape[0]),
    }
    failure = _sign_failure(
        verdict, divergence, sweep, DIV_TOL, "reduced-flow divergence", "divergence",
        "on the open simplex", -1.0, "its sign on the faces", **evidence,
    )
    if failure is not None:
        return failure
    jac = system.jacobian(*map(float, rest.point.probs[:2]))
    det = float(np.linalg.det(jac))
    trace = float(np.trace(jac))
    discriminant = trace * trace - 4.0 * det
    saddle_margins = [value - TOL_DET for value in (det, -discriminant) if value > TOL_DET]
    min_abs_divergence = float(np.abs(divergence).min())
    evidence.update(
        divergence_sign=float(np.sign(divergence[0])),
        min_abs_divergence=min_abs_divergence,
        divergence_binding_point=sweep[np.argmin(np.abs(divergence))],
        jacobian=jac,
        jacobian_determinant=det,
        jacobian_trace=trace,
        saddle_discriminant=discriminant,
    )
    if not saddle_margins:
        return verdict(
            "INCONCLUSIVE",
            "rest-point linearization may be a saddle",
            **evidence,
            witnesses=[rest.point],
        )
    return verdict(
        "CERTIFIED",
        "unique rest point, dissipative reduced flow, non-saddle linearization",
        **evidence,
        margin=min(min_abs_divergence - DIV_TOL, max(saddle_margins)),
    )
