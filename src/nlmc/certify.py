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
    tolerances = {"determinant": TOL_DET, "rate_floor": RATE_FLOOR, "fd_step": h}
    base_evidence = {
        "grid_resolution": grid.resolution,
        "points_checked": len(grid),
        "label": "grid-certified",
    }
    points = grid.array
    reducible = np.flatnonzero(~_irreducible(spec.rates_batch(points)))
    if reducible.size:
        witnesses = [points[n] for n in reducible[:_WITNESS_CAP]]
        return Certificate(
            claim=CLAIM_UNIQUE,
            verdict="REFUTED",
            reason="precondition: frozen chain reducible at a grid point",
            generator_id=spec.generator_id,
            evidence={
                **base_evidence,
                "witnesses": witnesses,
                "reducible_points": len(reducible),
            },
            tolerances=tolerances,
        )

    d = spec.dimension - 1
    try:
        jacobians = _chart_jacobian(lambda rows: _defects(spec, rows), points[:, :d], h)
    except CertificateEvaluationError as exc:
        # Probes come row by row, 2d per grid point.
        return Certificate(
            claim=CLAIM_UNIQUE,
            verdict="INCONCLUSIVE",
            reason="determinant could not be evaluated at a grid point",
            generator_id=spec.generator_id,
            evidence={
                **base_evidence,
                "witnesses": [points[exc.probe // (2 * d)]],
                "detail": str(exc),
            },
            tolerances=tolerances,
        )
    dets = np.linalg.det(jacobians)
    abs_dets = np.abs(dets)
    weakest = int(np.argmin(abs_dets))
    if abs_dets[weakest] <= TOL_DET:
        return Certificate(
            claim=CLAIM_UNIQUE,
            verdict="INCONCLUSIVE",
            reason="determinant magnitude below tolerance",
            generator_id=spec.generator_id,
            evidence={
                **base_evidence,
                "witnesses": [points[weakest]],
                "min_abs_determinant": float(abs_dets[weakest]),
            },
            tolerances=tolerances,
        )
    signs = np.sign(dets)
    if signs.min() != signs.max():
        first_pos = int(np.argmax(signs > 0))
        first_neg = int(np.argmax(signs < 0))
        return Certificate(
            claim=CLAIM_UNIQUE,
            verdict="INCONCLUSIVE",
            reason="determinant changes sign across the grid",
            generator_id=spec.generator_id,
            evidence={
                **base_evidence,
                "witnesses": [points[first_pos], points[first_neg]],
                "determinants": [float(dets[first_pos]), float(dets[first_neg])],
            },
            tolerances=tolerances,
        )
    expected = -1.0 if spec.dimension % 2 == 0 else 1.0
    if float(signs[0]) != expected:
        return Certificate(
            claim=CLAIM_UNIQUE,
            verdict="INCONCLUSIVE",
            reason="determinant sign contradicts the degree identity",
            generator_id=spec.generator_id,
            evidence={
                **base_evidence,
                "witnesses": [points[0]],
                "determinant_sign": float(signs[0]),
                "expected_sign": expected,
            },
            tolerances=tolerances,
        )
    return Certificate(
        claim=CLAIM_UNIQUE,
        verdict="CERTIFIED",
        reason="uniform determinant sign matching the degree identity",
        generator_id=spec.generator_id,
        evidence={
            **base_evidence,
            "determinant_sign": float(signs[0]),
            "min_abs_determinant": float(abs_dets.min()),
            "max_abs_determinant": float(abs_dets.max()),
            "margin": float(abs_dets.min() - TOL_DET),
        },
        tolerances=tolerances,
    )


def scalar_drift(spec: GeneratorSpec) -> Callable[[float], float]:
    """The drift of m_1 for a two-state generator: f(m1) = m1 Q11 + (1 - m1) Q21."""
    if spec.dimension != 2:
        raise ValueError("scalar drift requires a two-state generator")

    def f(m1: float) -> float:
        return float(spec.drift([m1, 1.0 - m1])[0])

    return f


def _bisect(f: Callable[[float], float], a: float, b: float, fa: float) -> float:
    while b - a > ROOT_REFINE_TOL:
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fa > 0) == (fm > 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def certify_ergodic_2(
    spec: GeneratorSpec, scan_resolution: int = DEFAULT_SCAN_RESOLUTION
) -> Certificate:
    """Ergodicity certificate for two states.

    Scans the scalar drift on a uniform grid over [0, 1], refines every
    sign change by bisection, and requires exactly one root with the drift
    uniformly positive to its left and negative to its right (margins
    recorded).  Multiple roots refute ergodicity outright, since each is a
    rest point of the marginal flow.
    """
    if spec.dimension != 2:
        raise ValueError("this certificate requires a two-state generator")
    if scan_resolution < 10:
        raise ValueError("scan_resolution must be at least 10")
    spec.require_valid()
    tolerances = {
        "margin": SCAN_MARGIN_TOL,
        "root_refine": ROOT_REFINE_TOL,
        "zero": 1e-12,
    }
    xs = np.linspace(0.0, 1.0, scan_resolution + 1)
    pts = np.column_stack([xs, 1.0 - xs])
    vals = spec.drift_batch(pts)[:, 0]
    f = scalar_drift(spec)
    zero_atol = tolerances["zero"]

    raw_roots = [float(xs[i]) for i in range(xs.size) if abs(vals[i]) <= zero_atol]
    for i in range(xs.size - 1):
        if abs(vals[i]) <= zero_atol or abs(vals[i + 1]) <= zero_atol:
            continue
        if (vals[i] > 0) != (vals[i + 1] > 0):
            raw_roots.append(_bisect(f, float(xs[i]), float(xs[i + 1]), float(vals[i])))
    raw_roots.sort()
    merge_radius = 2.0 / scan_resolution
    roots: list[float] = []
    for r in raw_roots:
        if roots and r - roots[-1] <= merge_radius:
            continue
        roots.append(r)

    base_evidence = {"scan_resolution": scan_resolution, "roots": list(roots)}
    if not roots:
        return Certificate(
            claim=CLAIM_ERGODIC,
            verdict="INCONCLUSIVE",
            reason="the drift scan located no rest point",
            generator_id=spec.generator_id,
            evidence=base_evidence,
            tolerances=tolerances,
        )
    if len(roots) > 1:
        return Certificate(
            claim=CLAIM_ERGODIC,
            verdict="REFUTED",
            reason="uniqueness fails: the scalar drift has multiple rest points",
            generator_id=spec.generator_id,
            evidence={**base_evidence, "witnesses": [[r, 1.0 - r] for r in roots]},
            tolerances=tolerances,
        )
    root = roots[0]
    window = 2.0 / scan_resolution
    left = vals[xs < root - window]
    right = vals[xs > root + window]
    margins = []
    if left.size:
        if float(left.min()) <= SCAN_MARGIN_TOL:
            x = float(xs[xs < root - window][int(np.argmin(left))])
            return Certificate(
                claim=CLAIM_ERGODIC,
                verdict="INCONCLUSIVE",
                reason="drift is not uniformly positive left of the rest point",
                generator_id=spec.generator_id,
                evidence={**base_evidence, "witnesses": [[x, 1.0 - x]]},
                tolerances=tolerances,
            )
        margins.append(float(left.min()))
    if right.size:
        if float(right.max()) >= -SCAN_MARGIN_TOL:
            x = float(xs[xs > root + window][int(np.argmax(right))])
            return Certificate(
                claim=CLAIM_ERGODIC,
                verdict="INCONCLUSIVE",
                reason="drift is not uniformly negative right of the rest point",
                generator_id=spec.generator_id,
                evidence={**base_evidence, "witnesses": [[x, 1.0 - x]]},
                tolerances=tolerances,
            )
        margins.append(float(right.max()) * -1.0)
    if not margins:
        return Certificate(
            claim=CLAIM_ERGODIC,
            verdict="INCONCLUSIVE",
            reason="scan too coarse to bracket the rest point",
            generator_id=spec.generator_id,
            evidence=base_evidence,
            tolerances=tolerances,
        )
    return Certificate(
        claim=CLAIM_ERGODIC,
        verdict="CERTIFIED",
        reason="unique attracting rest point of the scalar drift",
        generator_id=spec.generator_id,
        evidence={
            **base_evidence,
            "rest_point": [root, 1.0 - root],
            "margin": min(margins),
        },
        tolerances=tolerances,
    )


@dataclass(frozen=True)
class ReducedSystem:
    """Planar reduction of a three-state marginal flow on the chart (m1, m2).

    The third coordinate is eliminated through m3 = 1 - m1 - m2; the chart
    extends ``chart_margin`` beyond the simplex so derivative sweeps can
    cover a closed neighborhood.
    """

    spec: GeneratorSpec
    chart_margin: float = CHART_MARGIN

    def drift_batch(self, u: np.ndarray) -> np.ndarray:
        return self.spec.drift_batch(_chart_embed(u))[:, :2]

    def drift(self, u1: float, u2: float) -> np.ndarray:
        return self.drift_batch(np.array([[u1, u2]]))[0]

    def divergence_batch(self, u: np.ndarray, h: float = FD_STEP) -> np.ndarray:
        return np.trace(_chart_jacobian(self.drift_batch, u, h), axis1=1, axis2=2)

    def divergence(self, u1: float, u2: float, h: float = FD_STEP) -> float:
        return float(self.divergence_batch(np.array([[u1, u2]]), h)[0])

    def jacobian(self, u1: float, u2: float, h: float = FD_STEP) -> np.ndarray:
        return _chart_jacobian(self.drift_batch, np.array([[u1, u2]]), h)[0]

    def lattice(self, resolution: int) -> np.ndarray:
        """Sweep points covering the chart extended by ``chart_margin``."""
        eps = self.chart_margin
        vals = np.linspace(-eps, 1.0 + eps, resolution + 1)
        u1, u2 = np.meshgrid(vals, vals, indexing="ij")
        keep = (u1 + u2) <= 1.0 + eps + 1e-12
        return np.column_stack([u1[keep], u2[keep]])


def reduced_system(spec: GeneratorSpec, chart_margin: float = CHART_MARGIN) -> ReducedSystem:
    """Planar reduction of a three-state generator's marginal flow."""
    if spec.dimension != 3:
        raise ValueError("the planar reduction requires a three-state generator")
    return ReducedSystem(spec=spec, chart_margin=chart_margin)


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
    tolerances = {
        "divergence": DIV_TOL,
        "saddle": TOL_DET,
        "invariant": TOL_INVARIANT,
        "fd_step": h,
    }
    base_evidence = {
        "grid_resolution": grid.resolution,
        "chart_margin": CHART_MARGIN,
    }
    if spec.extension == "clamped":
        base_evidence["extension_note"] = (
            "rates use a clamped extension outside their native region; "
            "derivative sweeps across the clamp boundary are one-sided"
        )

    stationary = find_invariant(spec, grid)
    if len(stationary) == 0:
        return Certificate(
            claim=CLAIM_ERGODIC,
            verdict="INCONCLUSIVE",
            reason="no invariant distribution found from any seed",
            generator_id=spec.generator_id,
            evidence={**base_evidence, "failed_seeds": stationary.failed_seeds},
            tolerances=tolerances,
        )
    if len(stationary) > 1:
        return Certificate(
            claim=CLAIM_ERGODIC,
            verdict="REFUTED",
            reason="uniqueness fails: multiple invariant distributions found",
            generator_id=spec.generator_id,
            evidence={
                **base_evidence,
                "witnesses": [r.point for r in stationary],
            },
            tolerances=tolerances,
        )
    rest = stationary.results[0]
    rest_u = rest.point.probs[:2]

    system = reduced_system(spec)
    sweep = system.lattice(grid.resolution)
    divergence = system.divergence_batch(sweep, h)
    abs_div = np.abs(divergence)
    weakest = int(np.argmin(abs_div))
    evidence = {
        **base_evidence,
        "rest_point": rest.point,
        "rest_point_residual": rest.residual,
        "sweep_points": int(sweep.shape[0]),
    }
    if abs_div[weakest] <= DIV_TOL:
        return Certificate(
            claim=CLAIM_ERGODIC,
            verdict="INCONCLUSIVE",
            reason="reduced-flow divergence magnitude below tolerance",
            generator_id=spec.generator_id,
            evidence={
                **evidence,
                "witnesses": [sweep[weakest]],
                "min_abs_divergence": float(abs_div[weakest]),
            },
            tolerances=tolerances,
        )
    signs = np.sign(divergence)
    if signs.min() != signs.max():
        first_pos = int(np.argmax(signs > 0))
        first_neg = int(np.argmax(signs < 0))
        return Certificate(
            claim=CLAIM_ERGODIC,
            verdict="INCONCLUSIVE",
            reason="reduced-flow divergence changes sign on the extended chart",
            generator_id=spec.generator_id,
            evidence={
                **evidence,
                "witnesses": [sweep[first_pos], sweep[first_neg]],
            },
            tolerances=tolerances,
        )
    jac = system.jacobian(float(rest_u[0]), float(rest_u[1]), h)
    det = float(np.linalg.det(jac))
    trace = float(np.trace(jac))
    discriminant = trace * trace - 4.0 * det
    saddle_margins = []
    if det > TOL_DET:
        saddle_margins.append(det - TOL_DET)
    if discriminant < -TOL_DET:
        saddle_margins.append(-discriminant - TOL_DET)
    evidence.update(
        {
            "divergence_sign": float(signs[0]),
            "min_abs_divergence": float(abs_div.min()),
            "jacobian": jac,
            "jacobian_determinant": det,
            "jacobian_trace": trace,
            "saddle_discriminant": discriminant,
        }
    )
    if not saddle_margins:
        return Certificate(
            claim=CLAIM_ERGODIC,
            verdict="INCONCLUSIVE",
            reason="rest-point linearization may be a saddle",
            generator_id=spec.generator_id,
            evidence={**evidence, "witnesses": [rest.point]},
            tolerances=tolerances,
        )
    margin = min(float(abs_div.min()) - DIV_TOL, max(saddle_margins))
    return Certificate(
        claim=CLAIM_ERGODIC,
        verdict="CERTIFIED",
        reason="unique rest point, dissipative reduced flow, non-saddle linearization",
        generator_id=spec.generator_id,
        evidence={**evidence, "margin": margin},
        tolerances=tolerances,
    )
