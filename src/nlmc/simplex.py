"""Probability-simplex primitives: points, lattice grids, projection, tangent cone.

Three tolerance tiers are used throughout the package:

* ``TOL_MEMBERSHIP`` (1e-12) is representation noise: a stored point may carry
  entries this far below zero and is still treated as on-simplex.
* ``TOL_RENORMALIZE`` (1e-9) is integrator noise: the :class:`Distribution`
  constructor silently renormalizes a mass defect up to this size.
* ``TOL_PROJECTION`` (1e-6) is the repair budget: anything farther from the
  simplex than this is treated as genuine divergence, not rounding error.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import IntegrationDivergedError

TOL_MEMBERSHIP = 1e-12
TOL_RENORMALIZE = 1e-9
TOL_PROJECTION = 1e-6
TOL_CONE = 1e-10


class Distribution:
    """A probability distribution on the finite state space {1, ..., S}.

    Entries are validated to be finite and no more than ``TOL_MEMBERSHIP``
    below zero, tiny negatives are clamped to zero, and the vector is
    renormalized provided its mass is within ``TOL_RENORMALIZE`` of one.
    The stored array is read-only.
    """

    __slots__ = ("probs",)

    def __init__(self, probs) -> None:
        v = np.array(probs, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError(f"distribution must be a non-empty 1-d vector, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("distribution entries must be finite")
        lowest = float(v.min())
        if lowest < -TOL_MEMBERSHIP:
            raise ValueError(f"entry {lowest:.6e} is below -{TOL_MEMBERSHIP:g}")
        np.maximum(v, 0.0, out=v)
        mass = float(v.sum())
        if abs(mass - 1.0) > TOL_RENORMALIZE:
            raise ValueError(f"entries sum to {mass!r}, more than {TOL_RENORMALIZE:g} from 1")
        v /= mass
        v.flags.writeable = False
        self.probs = v

    @property
    def dimension(self) -> int:
        return self.probs.size

    def __len__(self) -> int:
        return self.probs.size

    def __getitem__(self, index):
        return self.probs[index]

    def __iter__(self):
        return iter(self.probs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return self.probs.shape == other.probs.shape and bool(np.all(self.probs == other.probs))

    def __hash__(self) -> int:
        return hash(self.probs.tobytes())

    def __repr__(self) -> str:
        inside = ", ".join(repr(p) for p in self.probs)
        return f"Distribution(({inside}))"


class SimplexGrid:
    """All distributions with entries on the lattice {0, 1/k, ..., k/k}.

    ``array`` holds the points as rows in lexicographic order of the
    underlying integer compositions; ``points`` materializes them lazily as
    :class:`Distribution` objects.
    """

    __slots__ = ("dimension", "resolution", "array", "_points")

    def __init__(self, dimension: int, resolution: int) -> None:
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        if resolution < 1:
            raise ValueError("resolution must be at least 1")
        self.dimension = int(dimension)
        self.resolution = int(resolution)
        # Stars and bars: S - 1 bars among k + S - 1 slots, in lexicographic order.
        k, bars = self.resolution, self.dimension - 1
        count = math.comb(k + bars, bars)
        flat = itertools.chain.from_iterable(itertools.combinations(range(k + bars), bars))
        cuts = np.fromiter(flat, dtype=np.intp, count=count * bars).reshape(count, bars)
        arr = (np.diff(cuts, axis=1, prepend=-1, append=k + bars) - 1) / float(k)
        arr.flags.writeable = False
        self.array = arr
        self._points = None

    @property
    def points(self) -> list[Distribution]:
        if self._points is None:
            self._points = [Distribution(row) for row in self.array]
        return self._points

    def __len__(self) -> int:
        return self.array.shape[0]

    def __iter__(self):
        return iter(self.points)


def tangent_cone_member(m: Distribution, y, tol: float = TOL_CONE) -> bool:
    """Test whether ``y`` lies in the tangent cone of the simplex at ``m``.

    A direction is tangent exactly when it conserves mass and does not push
    any zero coordinate negative, so the test is: ``sum(y)`` within ``tol``
    of zero, and ``y_i >= -tol`` wherever ``m_i <= TOL_MEMBERSHIP``.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != m.probs.shape:
        raise ValueError(f"direction shape {y.shape} does not match point shape {m.probs.shape}")
    return _tangent_ok(m.probs, y, tol)


def _tangent_ok(m_arr: np.ndarray, y_arr: np.ndarray, tol: float = TOL_CONE) -> bool:
    if abs(float(y_arr.sum())) > tol:
        return False
    at_zero = m_arr <= TOL_MEMBERSHIP
    if not np.any(at_zero):
        return True
    return bool(np.all(y_arr[at_zero] >= -tol))


def project_to_simplex(v) -> Distribution:
    """Euclidean projection onto the simplex (sorted-threshold algorithm).

    Only small drift is repaired: if the input is farther than
    ``TOL_PROJECTION`` away in max norm, the caller's integration has
    genuinely left the simplex and :class:`IntegrationDivergedError` is
    raised instead of silently rewriting the state.
    """
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"projection needs a non-empty 1-d vector, got shape {arr.shape}")
    (x,), _ = _project_array(arr[None])
    return Distribution(x)


def _chart_embed(u: np.ndarray) -> np.ndarray:
    """Lift chart rows ``(n, S-1)`` to points ``(n, S)`` through m_S = 1 - sum(u)."""
    u = np.asarray(u, dtype=float)
    return np.concatenate([u, 1.0 - u.sum(axis=1, keepdims=True)], axis=1)


def _chart_jacobian(func, u: np.ndarray, h: float) -> np.ndarray:
    """Central-difference Jacobians ``(n, k, d)`` of ``func`` at chart rows ``u`` ``(n, d)``.

    ``func`` maps rows ``(p, d)`` to values ``(p, k)`` and is called once
    with all 2d probes of every row, ordered row by row as u + s e_b,
    u - s e_b for b = 0, ..., d-1.  The step of a row is s = h (1 + ||u||_2).
    """
    u = np.asarray(u, dtype=float)
    n, d = u.shape
    steps = h * (1.0 + np.linalg.norm(u, axis=1))
    offsets = np.eye(d)[None, :, None, :] * np.array([1.0, -1.0])[None, None, :, None]
    probes = u[:, None, None, :] + offsets * steps[:, None, None, None]
    values = np.asarray(func(probes.reshape(n * d * 2, d)), dtype=float)
    values = values.reshape(n, d, 2, values.shape[-1])
    diff = (values[:, :, 0, :] - values[:, :, 1, :]) / (2.0 * steps[:, None, None])
    return diff.transpose(0, 2, 1)


def _project_array(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project rows ``(n, S)`` each on its own, giving (rows, max-norm drifts ``(n,)``).

    A non-finite entry, or any row moved more than ``TOL_PROJECTION``, raises.
    """
    if not np.isfinite(v).all():
        raise IntegrationDivergedError("state contains non-finite entries")
    n, s = v.shape
    u = np.sort(v, axis=1)[:, ::-1]
    thresholds = (u.cumsum(axis=1) - 1.0) / np.arange(1, s + 1)
    rho = s - 1 - (u > thresholds)[:, ::-1].argmax(axis=1)
    x = np.maximum(v - thresholds[np.arange(n), rho][:, None], 0.0)
    drift = np.abs(v - x).max(axis=1)
    worst = drift.max(initial=0.0)
    if worst > TOL_PROJECTION:
        raise IntegrationDivergedError(
            f"state drifted {worst:.6e} from the simplex, beyond the {TOL_PROJECTION:g} repair budget"
        )
    return x, drift
