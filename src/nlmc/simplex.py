"""Probability-simplex primitives: points, lattice grids, projection, the chart.

It owns point input (:func:`_rows`; :func:`_check_states` words a wrong state count). Three
tolerance tiers are used throughout the package:

* ``TOL_MEMBERSHIP`` (1e-12) is representation noise: a stored point may carry
  entries this far below zero and is still treated as on-simplex.
* ``TOL_RENORMALIZE`` (1e-9) is integrator noise: the :class:`Distribution`
  constructor silently renormalizes a mass defect up to this size.
* ``TOL_PROJECTION`` (1e-6) is the repair budget: anything farther from the
  simplex than this is treated as genuine divergence, not rounding error.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import IntegrationDivergedError

TOL_MEMBERSHIP = 1e-12
TOL_RENORMALIZE = 1e-9
TOL_PROJECTION = 1e-6


class Distribution:
    """A probability distribution on the finite state space {1, ..., S}.

    Entries are validated to be finite and no more than ``TOL_MEMBERSHIP``
    below zero, tiny negatives are clamped to zero, and the vector is
    renormalized provided its mass is within ``TOL_RENORMALIZE`` of one.
    The stored array is read-only and is what ``np.asarray(d)`` returns (``np.array(d)`` copies);
    a ``Distribution`` argument keeps its own, as renormalizing again can move the last bits.
    """

    __slots__ = ("probs",)

    def __init__(self, probs) -> None:
        if isinstance(probs, Distribution):
            self.probs = probs.probs
            return
        try:
            v = np.array(probs, dtype=float)
        except ValueError:  # numpy refuses a ragged stack, and an entry that is no number
            raise ValueError("distribution must be a non-empty 1-d vector of numbers") from None
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

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.probs, dtype=dtype, copy=copy)

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
        return f"Distribution({tuple(self.probs.tolist())!r})"


class SimplexGrid:
    """All distributions with entries on the lattice {0, 1/k, ..., k/k}.

    ``array`` holds the points as rows in lexicographic order of the
    underlying integer compositions; ``points`` materializes them lazily as
    :class:`Distribution` objects.
    """

    __slots__ = ("dimension", "resolution", "array", "_points")

    def __init__(self, dimension: int, resolution: int) -> None:
        for name, value in (("dimension", dimension), ("resolution", resolution)):
            if not _is_int(value) or value < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
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


def _check_states(what: str, n: int, s: int) -> None:
    """Refuse ``what`` on ``n`` states for a generator on ``s``: the one wording."""
    if n != s:
        raise ValueError(f"{what} on {n} states does not match the generator's {s} states")


def _rows(points, dimension: int, what: str) -> np.ndarray:
    """``points`` as rows ``(n, S)`` on ``dimension`` states: a :class:`SimplexGrid`'s own array
    (named ``grid``), else one point ``(S,)`` or each of a stack or iterable as a Distribution."""
    if isinstance(points, SimplexGrid):
        _check_states("grid", points.dimension, dimension)
        return points.array
    try:
        one = np.ndim(points) == 1 and len(points) > 0  # [] holds no point
    except ValueError:  # numpy refuses a ragged stack, which is no single point
        one = False
    rows = [Distribution(p).probs for p in ([points] if one else points)]
    if not rows:
        raise ValueError(f"{what} must hold at least one point")
    for row in rows:
        _check_states(what, row.size, dimension)
    return np.array(rows)


def _is_int(value) -> bool:
    """True for a Python or numpy integer; ``bool`` subclasses ``int`` but is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _write_text(path, text: str) -> None:
    """Write an artifact's text as UTF-8 with LF line ends on every platform."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _chart_embed(u: np.ndarray) -> np.ndarray:
    """Lift chart rows ``(n, S-1)`` to points ``(n, S)`` through m_S = 1 - sum(u)."""
    u = np.asarray(u, dtype=float)
    return np.concatenate([u, 1.0 - u.sum(axis=1, keepdims=True)], axis=1)


def _chart_drift(spec, u: np.ndarray) -> np.ndarray:
    """The first S-1 components ``(n, S-1)`` of ``spec``'s drift at chart rows ``u``."""
    return spec.drift_batch(_chart_embed(u))[:, :-1]


FD_STEP = 1e-6  # the package's central-difference step h, scaled per row by (1 + ||u||_2)


@functools.cache
def _stencil_offsets(d: int) -> np.ndarray:
    """``_chart_jacobian``'s probe offsets +e_b, -e_b ``(d, 2, d)``, read-only, built once per d."""
    offsets = np.eye(d)[:, None] * np.array([[1.0], [-1.0]])
    offsets.flags.writeable = False
    return offsets


def _chart_jacobian(func, u: np.ndarray, h: float) -> np.ndarray:
    """Central-difference Jacobians ``(n, k, d)`` of ``func`` at chart rows ``u`` ``(n, d)``.

    ``func`` maps rows ``(p, d)`` to values ``(p, k)`` and is called once
    with all 2d probes of every row, ordered row by row as u + s e_b,
    u - s e_b for b = 0, ..., d-1.  The step of a row is s = h (1 + ||u||_2), summed as
    ``np.linalg.norm`` sums it.
    """
    u = np.asarray(u, dtype=float)
    n, d = u.shape
    steps = h * (1.0 + np.sqrt(np.add.reduce(u * u, axis=1)))
    probes = u[:, None, None, :] + _stencil_offsets(d) * steps[:, None, None, None]
    values = np.asarray(func(probes.reshape(n * d * 2, d)), dtype=float)
    values = values.reshape(n, d, 2, values.shape[-1])
    diff = (values[:, :, 0, :] - values[:, :, 1, :]) / (2.0 * steps[:, None, None])
    return diff.transpose(0, 2, 1)


def _project_array(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project rows ``(n, S)`` each on its own, giving (rows, max-norm drifts ``(n,)``).

    A non-finite entry, or any row moved more than ``TOL_PROJECTION``, raises.
    A row of positive entries whose descending sum is exactly 1.0 has threshold
    0: it is its own projection, and a stack of only such rows returns at once.
    """
    n, s = v.shape
    u = v.copy()
    u.sort(axis=1)
    u = u[:, ::-1]
    # The exit is tested before the finiteness scan, positivity first: a -inf never
    # reaches the sums, where inf - inf would warn.  A row that exits is finite.
    positive = np.count_nonzero(u[:, -1] > 0.0) == n
    if positive:
        sums = np.add.accumulate(u, axis=1)
        if np.count_nonzero(sums[:, -1] == 1.0) == n:
            return v.copy(), np.zeros(n)
    if np.count_nonzero(np.isfinite(v)) != v.size:
        raise IntegrationDivergedError("state contains non-finite entries")
    if not positive:
        sums = np.add.accumulate(u, axis=1)
    thresholds = (sums - 1.0) / np.arange(1, s + 1)
    rho = s - 1 - (u > thresholds)[:, ::-1].argmax(axis=1)
    x = np.maximum(v - thresholds[np.arange(n), rho][:, None], 0.0)
    drift = np.abs(v - x).max(axis=1)
    worst = drift.max(initial=0.0)
    if worst > TOL_PROJECTION:
        raise IntegrationDivergedError(
            f"state drifted {worst:.6e} from the simplex, beyond the {TOL_PROJECTION:g} repair budget"
        )
    return x, drift
