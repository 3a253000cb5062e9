"""Numerical certificates: uniqueness of invariant distributions and ergodicity.

Certificates are grid-based numerical evidence, not proofs.  Each one
records its verdict (CERTIFIED, INCONCLUSIVE, or REFUTED), the tolerances
it was checked against, and enough evidence to rerun the check: margins,
witnesses, grid resolution, finite-difference steps.

The uniqueness certificate sweeps the sign of det M(m), where M is the
chart Jacobian of the fixed-point defect f(m) = x(m) - m and x(m) is the
frozen-chain stationary distribution: a uniform nonzero sign matching the
degree of -identity, (-1)^(S-1), rules out a second zero of f.  Ergodicity
certificates cover two states (scalar drift with a unique attracting root)
and three states (dissipative reduced planar flow plus a non-saddle rest
point, which excludes cycles and homoclinic loops).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CertificateEvaluationError
from .generator import RATE_FLOOR, GeneratorSpec, _irreducible, irreducible_at
from .simplex import Distribution, SimplexGrid, _chart_embed, _chart_jacobian
from .stationary import TOL_INVARIANT, _frozen_solve, find_invariant

TOL_DET = 1e-8
DIV_TOL = 1e-8
FD_STEP = 1e-6
CHART_MARGIN = 0.02
SCAN_MARGIN_TOL = 1e-10
ROOT_REFINE_TOL = 1e-12
ZERO_DRIFT_TOL = 1e-12
DEFAULT_SCAN_RESOLUTION = 10_000

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
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json_text())


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


def build_M(spec: GeneratorSpec, m, h: float = FD_STEP) -> np.ndarray:
    """Chart Jacobian of f(m) = x(m) - m by central differences.

    Works on the chart u = (m_1, ..., m_{S-1}); the step is ``h`` scaled by
    (1 + ||u||).  Requires the frozen chain to be irreducible at ``m`` and
    at every probe point, else :class:`CertificateEvaluationError`.
    """
    arr = m.probs if isinstance(m, Distribution) else np.asarray(m, dtype=float)
    s = spec.dimension
    if arr.shape != (s,):
        raise ValueError(f"point of shape {arr.shape} does not match dimension {s}")
    if not irreducible_at(spec, arr):
        raise CertificateEvaluationError(
            f"frozen chain is reducible at {tuple(float(x) for x in arr)}"
        )
    return _chart_jacobian(lambda rows: _defects(spec, rows), arr[None, : s - 1], h)[0]


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


def _sign_defect(values: np.ndarray, tol: float):
    """Why ``values`` fail to share one sign with magnitude above ``tol``, or None.

    ``("small", [weakest])`` names the first value of least magnitude when
    that magnitude is at most ``tol``; ``("mixed", [first positive, first
    negative])`` names the first value of each sign.
    """
    magnitude = np.abs(values)
    weakest = int(np.argmin(magnitude))
    if magnitude[weakest] <= tol:
        return "small", [weakest]
    signs = np.sign(values)
    if signs.min() != signs.max():
        return "mixed", [int(np.argmax(signs > 0)), int(np.argmax(signs < 0))]
    return None


def certify_unique(spec: GeneratorSpec, grid: SimplexGrid, h: float = FD_STEP) -> Certificate:
    """Certify uniqueness of the invariant distribution by a degree argument.

    Sweeps det M over the grid.  All determinants sharing the sign
    (-1)^(S-1) with magnitude above tolerance is CERTIFIED; a reducible
    frozen chain anywhere is REFUTED (precondition); a near-zero or
    sign-flipping determinant is INCONCLUSIVE.
    """
    spec.require_valid()
    if grid.dimension != spec.dimension:
        raise ValueError(
            f"grid dimension {grid.dimension} does not match generator dimension {spec.dimension}"
        )
    verdict = _verdicts(
        CLAIM_UNIQUE,
        spec,
        {"determinant": TOL_DET, "rate_floor": RATE_FLOOR, "fd_step": h},
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
        jacobians = _chart_jacobian(lambda rows: _defects(spec, rows), points[:, :d], h)
    except CertificateEvaluationError as exc:
        # Probes come row by row, 2d per grid point.
        return verdict(
            "INCONCLUSIVE",
            "determinant could not be evaluated at a grid point",
            witnesses=[points[exc.probe // (2 * d)]],
            detail=str(exc),
        )
    dets = np.linalg.det(jacobians)
    defect = _sign_defect(dets, TOL_DET)
    if defect is not None:
        kind, at = defect
        if kind == "small":
            return verdict(
                "INCONCLUSIVE",
                "determinant magnitude below tolerance",
                witnesses=[points[at[0]]],
                min_abs_determinant=float(abs(dets[at[0]])),
            )
        return verdict(
            "INCONCLUSIVE",
            "determinant changes sign across the grid",
            witnesses=[points[n] for n in at],
            determinants=[float(dets[n]) for n in at],
        )
    sign = float(np.sign(dets[0]))
    expected = -1.0 if spec.dimension % 2 == 0 else 1.0
    if sign != expected:
        return verdict(
            "INCONCLUSIVE",
            "determinant sign contradicts the degree identity",
            witnesses=[points[0]],
            determinant_sign=sign,
            expected_sign=expected,
        )
    abs_dets = np.abs(dets)
    return verdict(
        "CERTIFIED",
        "uniform determinant sign matching the degree identity",
        determinant_sign=sign,
        min_abs_determinant=float(abs_dets.min()),
        max_abs_determinant=float(abs_dets.max()),
        margin=float(abs_dets.min() - TOL_DET),
    )


def scalar_drift(spec: GeneratorSpec) -> Callable[[float], float]:
    """The drift of m_1 for a two-state generator: f(m1) = m1 Q11 + (1 - m1) Q21."""
    if spec.dimension != 2:
        raise ValueError("scalar drift requires a two-state generator")

    def f(m1: float) -> float:
        return float(spec.drift([m1, 1.0 - m1])[0])

    return f


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
        fm = spec.drift_batch(np.column_stack([mid, 1.0 - mid]))[:, 0]
        right = (fa[live] > 0) == (fm > 0)
        a[live[right]], fa[live[right]] = mid[right], fm[right]
        b[live[~right]] = mid[~right]
        # An exact zero collapses the bracket onto its midpoint.
        zero = fm == 0.0
        a[live[zero]] = b[live[zero]] = mid[zero]
        live = live[b[live] - a[live] > ROOT_REFINE_TOL]
    return 0.5 * (a + b)


def certify_ergodic_2(
    spec: GeneratorSpec, scan_resolution: int = DEFAULT_SCAN_RESOLUTION
) -> Certificate:
    """Ergodicity certificate for two states.

    Scans the scalar drift on a uniform grid over [0, 1], refines every
    sign change by bisection, and requires exactly one root with the drift
    uniformly positive to its left and negative to its right (margins
    recorded).  Multiple roots refute ergodicity outright, since each is a
    rest point of the marginal flow; the evidence lists at most
    ``_WITNESS_CAP`` of them and then counts them all in ``root_count``.
    """
    if spec.dimension != 2:
        raise ValueError("this certificate requires a two-state generator")
    if scan_resolution < 10:
        raise ValueError("scan_resolution must be at least 10")
    spec.require_valid()
    xs = np.linspace(0.0, 1.0, scan_resolution + 1)
    vals = spec.drift_batch(np.column_stack([xs, 1.0 - xs]))[:, 0]
    near = np.abs(vals) <= ZERO_DRIFT_TOL
    flips = np.flatnonzero(~near[:-1] & ~near[1:] & ((vals[:-1] > 0) != (vals[1:] > 0)))
    bisected = _bisect_rows(spec, xs[flips], xs[flips + 1], vals[flips])
    # Roots closer than ``window`` merge, and the margins skip ``window`` around the root.
    window = 2.0 / scan_resolution
    roots: list[float] = []
    for r in np.sort(np.concatenate([xs[near], bisected])).tolist():
        if not roots or r - roots[-1] > window:
            roots.append(r)

    base = {"scan_resolution": scan_resolution, "roots": roots[:_WITNESS_CAP]}
    if len(roots) > _WITNESS_CAP:
        base["root_count"] = len(roots)
    verdict = _verdicts(
        CLAIM_ERGODIC,
        spec,
        {"margin": SCAN_MARGIN_TOL, "root_refine": ROOT_REFINE_TOL, "zero": ZERO_DRIFT_TOL},
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
    margins = []
    for side, sign, reason in (
        (xs < root - window, 1.0, "drift is not uniformly positive left of the rest point"),
        (xs > root + window, -1.0, "drift is not uniformly negative right of the rest point"),
    ):
        signed = sign * vals[side]
        if signed.size:
            weakest = int(np.argmin(signed))
            if float(signed[weakest]) <= SCAN_MARGIN_TOL:
                x = float(xs[side][weakest])
                return verdict("INCONCLUSIVE", reason, witnesses=[[x, 1.0 - x]])
            margins.append(float(signed[weakest]))
    if not margins:
        return verdict("INCONCLUSIVE", "scan too coarse to bracket the rest point")
    return verdict(
        "CERTIFIED",
        "unique attracting rest point of the scalar drift",
        rest_point=[root, 1.0 - root],
        margin=min(margins),
    )


@dataclass(frozen=True)
class ReducedSystem:
    """Planar reduction of a three-state marginal flow on the chart (m1, m2).

    The third coordinate is eliminated through m3 = 1 - m1 - m2; the chart
    extends ``CHART_MARGIN`` beyond the simplex so derivative sweeps can
    cover a closed neighborhood.
    """

    spec: GeneratorSpec

    def drift_batch(self, u: np.ndarray) -> np.ndarray:
        return self.spec.drift_batch(_chart_embed(u))[:, :2]

    def drift(self, u1: float, u2: float) -> np.ndarray:
        return self.drift_batch(np.array([[u1, u2]]))[0]

    def divergence_batch(self, u: np.ndarray, h: float = FD_STEP) -> np.ndarray:
        return np.trace(_chart_jacobian(self.drift_batch, u, h), axis1=1, axis2=2)

    def jacobian(self, u1: float, u2: float, h: float = FD_STEP) -> np.ndarray:
        return _chart_jacobian(self.drift_batch, np.array([[u1, u2]]), h)[0]

    def lattice(self, resolution: int) -> np.ndarray:
        """Sweep points covering the chart extended by ``CHART_MARGIN``."""
        eps = CHART_MARGIN
        vals = np.linspace(-eps, 1.0 + eps, resolution + 1)
        u1, u2 = np.meshgrid(vals, vals, indexing="ij")
        keep = (u1 + u2) <= 1.0 + eps + 1e-12
        return np.column_stack([u1[keep], u2[keep]])


def reduced_system(spec: GeneratorSpec) -> ReducedSystem:
    """Planar reduction of a three-state generator's marginal flow."""
    if spec.dimension != 3:
        raise ValueError("the planar reduction requires a three-state generator")
    return ReducedSystem(spec=spec)


def certify_ergodic_3(spec: GeneratorSpec, grid: SimplexGrid, h: float = FD_STEP) -> Certificate:
    """Ergodicity certificate for three states.

    Requires a single invariant distribution (searched from every grid
    point), a reduced-flow divergence of uniform sign over the extended
    chart (which excludes periodic orbits), and a non-saddle linearization
    at the rest point (which excludes homoclinic loops).
    """
    if spec.dimension != 3:
        raise ValueError("this certificate requires a three-state generator")
    spec.require_valid()
    base_evidence = {"grid_resolution": grid.resolution, "chart_margin": CHART_MARGIN}
    if spec.extension == "clamped":
        base_evidence["extension_note"] = (
            "rates use a clamped extension outside their native region; "
            "derivative sweeps across the clamp boundary are one-sided"
        )
    verdict = _verdicts(
        CLAIM_ERGODIC,
        spec,
        {"divergence": DIV_TOL, "saddle": TOL_DET, "invariant": TOL_INVARIANT, "fd_step": h},
        base_evidence,
    )

    stationary = find_invariant(spec, grid)
    if len(stationary) == 0:
        return verdict(
            "INCONCLUSIVE",
            "no invariant distribution found from any seed",
            failed_seeds=stationary.failed_seeds,
        )
    if len(stationary) > 1:
        return verdict(
            "REFUTED",
            "uniqueness fails: multiple invariant distributions found",
            witnesses=[r.point for r in stationary],
        )
    rest = stationary.results[0]
    rest_u = rest.point.probs[:2]

    system = reduced_system(spec)
    sweep = system.lattice(grid.resolution)
    divergence = system.divergence_batch(sweep, h)
    evidence = {
        "rest_point": rest.point,
        "rest_point_residual": rest.residual,
        "sweep_points": int(sweep.shape[0]),
    }
    defect = _sign_defect(divergence, DIV_TOL)
    if defect is not None:
        kind, at = defect
        if kind == "small":
            return verdict(
                "INCONCLUSIVE",
                "reduced-flow divergence magnitude below tolerance",
                **evidence,
                witnesses=[sweep[at[0]]],
                min_abs_divergence=float(abs(divergence[at[0]])),
            )
        return verdict(
            "INCONCLUSIVE",
            "reduced-flow divergence changes sign on the extended chart",
            **evidence,
            witnesses=[sweep[n] for n in at],
        )
    jac = system.jacobian(float(rest_u[0]), float(rest_u[1]), h)
    det = float(np.linalg.det(jac))
    trace = float(np.trace(jac))
    discriminant = trace * trace - 4.0 * det
    saddle_margins = [value - TOL_DET for value in (det, -discriminant) if value > TOL_DET]
    min_abs_divergence = float(np.abs(divergence).min())
    evidence.update(
        divergence_sign=float(np.sign(divergence[0])),
        min_abs_divergence=min_abs_divergence,
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
