"""Marginal-flow integration and jump-path sampling.

The marginal flow solves dm/dt = f(m) with f_j(m) = sum_i m_i Q_ij(m).
Integration uses an embedded Dormand-Prince 5(4) pair with adaptive steps;
every accepted state is projected back onto the simplex, and drift beyond
the projection repair budget raises instead of being silently absorbed.
Jump paths are sampled by thinning a dominating Poisson clock against the
precomputed marginal flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationDivergedError
from .generator import GeneratorSpec, _einsum
from .generator import RATE_BLOCK as THINNING_BLOCK  # proposals, or bound-grid points, held at once
from .simplex import (
    TOL_RENORMALIZE, Distribution, SimplexGrid, _check_states, _is_int, _project_array, _rows,
    _write_text,
)

MAX_HORIZON = 1e6
MAX_SAMPLES = 1_000_000
MAX_STEPS = 1_000_000    # step attempts, accepted or rejected, of one integrate_flow call
THINNING_GRID_RESOLUTION = 50
THINNING_HEADROOM = 1.1
RTOL = 1e-8              # default error tolerances of the marginal-flow integrator
ATOL = 1e-10

# Dormand-Prince 5(4) tableau: _DP_A[i - 1] holds the weights of stage i on
# stages 0..i-1.  The last stage is evaluated at the fifth-order solution itself,
# so its row is the fifth-order weights; _DP_E, those weights minus the embedded
# fourth-order ones, gives the error estimate in one contraction of all 7 stages.
_DP_A = tuple(map(np.array, (
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
)))
_DP_E = np.append(_DP_A[-1], 0.0) - np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


@dataclass(frozen=True)
class Flow:
    """Dense-output marginal flow on [0, horizon].

    ``ts``/``ys``/``fs`` hold the accepted step times, the repaired states,
    and the drift at those states; ``at_many`` interpolates with the
    cubic Hermite matched to the stored derivatives.

    A flow of n starts stacks its rows' knots: row i owns the knots
    ``offsets[i]:offsets[i + 1]`` and took ``row_steps[i]`` steps with
    largest repair ``row_drifts[i]``; ``steps`` and ``max_drift`` are the
    total and the largest over rows.  ``row(i)`` is row i as a flow of its
    own; interpolation needs a one-row flow.
    """

    generator_id: str
    horizon: float
    ts: np.ndarray
    ys: np.ndarray
    fs: np.ndarray
    offsets: tuple[int, ...]
    row_steps: tuple[int, ...]
    row_drifts: tuple[float, ...]

    @property
    def steps(self) -> int:
        return sum(self.row_steps)

    @property
    def max_drift(self) -> float:
        return max(self.row_drifts)

    def row(self, i: int) -> Flow:
        start, stop = self.offsets[i], self.offsets[i + 1]
        return Flow(
            self.generator_id, self.horizon, self.ts[start:stop], self.ys[start:stop],
            self.fs[start:stop], (0, stop - start), self.row_steps[i : i + 1],
            self.row_drifts[i : i + 1],
        )

    def at_many(self, times) -> np.ndarray:
        if len(self.offsets) != 2:
            raise ValueError("interpolate one row at a time: use flow.row(i)")
        times = np.clip(np.asarray(times, dtype=float), 0.0, self.horizon)
        right = np.clip(self.ts.searchsorted(times, side="right"), 1, len(self.ts) - 1)
        left = right - 1
        t0 = self.ts[left]
        h = self.ts[right] - t0
        theta = ((times - t0) / h)[:, None]
        y0, y1 = self.ys[left], self.ys[right]
        f0, f1 = self.fs[left], self.fs[right]
        h00 = (1.0 + 2.0 * theta) * (1.0 - theta) ** 2
        h10 = theta * (1.0 - theta) ** 2
        h01 = theta**2 * (3.0 - 2.0 * theta)
        h11 = theta**2 * (theta - 1.0)
        return h00 * y0 + h10 * h[:, None] * f0 + h01 * y1 + h11 * h[:, None] * f1


@dataclass(frozen=True)
class Trajectory:
    """States of the marginal flow sampled on a fixed time grid.

    Rows of ``states`` are the projected samples, kept as raw arrays;
    ``final`` is the last one as a validated :class:`Distribution`.
    """

    generator_id: str
    times: np.ndarray
    states: np.ndarray
    max_drift: float = 0.0

    def __len__(self) -> int:
        return self.times.size

    @property
    def final(self) -> Distribution:
        return Distribution(self.states[-1])

    def to_csv_text(self) -> str:
        """CSV with header ``t,m_1,...,m_S``; floats use repeatable %.17g."""
        s = self.states.shape[1]
        header = "t," + ",".join(f"m_{j + 1}" for j in range(s)) + "\n"
        line = ",".join(["%.17g"] * (s + 1)) + "\n"
        values = np.column_stack((self.times, self.states)).ravel().tolist()
        return header + (line * self.times.size) % tuple(values)

    def to_csv(self, path) -> None:
        _write_text(path, self.to_csv_text())


@dataclass(frozen=True)
class JumpPath:
    """One sampled trajectory of the underlying jump process.

    States are 0-based in memory; CSV output labels them 1-based to match
    the ``m_j`` trajectory columns.
    """

    generator_id: str
    seed: int
    horizon: float
    initial_state: int
    jump_times: np.ndarray
    states_visited: np.ndarray

    @property
    def jump_count(self) -> int:
        return self.jump_times.size

    def state_at(self, t: float) -> int:
        if not 0.0 <= t <= self.horizon:
            raise ValueError(f"time {t!r} outside [0, {self.horizon!r}]")
        idx = int(np.searchsorted(self.jump_times, t, side="right"))
        if idx == 0:
            return int(self.initial_state)
        return int(self.states_visited[idx - 1])

    def occupation_time(self, state: int) -> float:
        """Total time spent in ``state`` over [0, horizon]."""
        edges = np.concatenate(([0.0], self.jump_times, [self.horizon]))
        holders = np.concatenate(([self.initial_state], self.states_visited))
        return float(np.diff(edges)[holders == state].sum())

    def to_csv_text(self) -> str:
        times = np.concatenate(([0.0], self.jump_times))
        states = np.concatenate(([self.initial_state], self.states_visited)) + 1
        values = np.column_stack((times, states)).ravel().tolist()
        return "t,state\n" + ("%.17g,%d\n" * times.size) % tuple(values)

    def to_csv(self, path) -> None:
        _write_text(path, self.to_csv_text())


def _check_horizon(horizon: float) -> None:
    if not (0.0 < horizon <= MAX_HORIZON):
        raise ValueError(f"horizon must lie in (0, {MAX_HORIZON:g}], got {horizon!r}")


def _check_seed(seed) -> None:
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _check_tolerances(rtol: float, atol: float) -> None:
    # A NaN tolerance would reject every step; chained comparisons refuse it.
    if not (0.0 < rtol < math.inf and 0.0 < atol < math.inf):
        raise ValueError("rtol and atol must be positive and finite")


def integrate_flow(
    spec: GeneratorSpec, m0, horizon: float, *, rtol: float = RTOL, atol: float = ATOL
) -> Flow:
    """Integrate the marginal flow from each start in ``m0`` over [0, horizon].

    ``m0`` is one start ``(S,)`` or a stack of starts ``(n, S)``, each read as
    a :class:`Distribution`; a wrong state count is refused before any work.
    All rows step together, each with its own step size, accept/reject
    decision, error norm, step count and stop time, and a row leaves the live
    set when it reaches the horizon.  Stages combine element-wise in stage
    order, so a row's result does not depend on the other rows of the call:
    one start is row 0 of the same loop.  The result is one :class:`Flow` whose rows are
    the starts (``Flow.row``); ``steps`` is their total.

    Adaptive Dormand-Prince 5(4): the error estimate is one contraction of
    the stages with the fifth-order weights minus the embedded fourth-order
    ones, acceptance is against ``rtol``/``atol`` (positive and finite) mixed
    per component, and each accepted state is projected back onto the simplex
    (the largest repaired drift is reported on the returned flow).
    """
    y = _rows(m0, spec.dimension, "m0")
    _check_tolerances(rtol, atol)
    _check_horizon(horizon)
    spec.require_valid()
    n = y.shape[0]
    f = spec.drift_batch(y)
    # The live rows, as indices of the starts; a row leaves when it reaches the horizon.
    ids = np.arange(n)
    t = np.zeros(n)
    h = np.minimum(horizon, 0.01 / (1.0 + np.abs(f).max(axis=1)))
    row_steps = np.zeros(n, dtype=int)
    # Accepted knots as (row, t, y, f, repaired drift); a knot may share the live y and f.
    knots = [(ids, t, y, f, np.zeros(n))]
    floor = 1e-14 * max(1.0, horizon)
    stages = np.empty((7, *y.shape))
    for step in range(MAX_STEPS):
        t_next = t + h
        final = t_next >= horizon
        # Only a step on which some row reaches the horizon clamps h and may end rows.
        if reaching := np.count_nonzero(final):
            h = np.where(final, horizon - t, h)
            t_next = np.where(final, horizon, t_next)
        hc = h.repeat(y.shape[1]).reshape(y.shape)  # a same-shape multiply beats a broadcast
        stages[0] = f
        for i, weights in enumerate(_DP_A, start=1):
            yi = y + hc * _einsum("k,kns->ns", weights, stages[:i])
            stages[i] = spec.drift_batch(yi)
        # yi is now the fifth-order solution; error is its distance from the fourth-order one.
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(yi))
        error = hc * _einsum("k,kns->ns", _DP_E, stages)
        err = np.sqrt(np.add.reduce((error / scale) ** 2, axis=1) / y.shape[1])
        ok = err <= 1.0
        if (accepted := np.count_nonzero(ok)) == ok.size:
            t = t_next
            y, repaired = _project_array(yi)
            f = spec.drift_batch(y)
            knots.append((ids, t, y, f, repaired))
        elif accepted:
            t = np.where(ok, t_next, t)
            y_ok, repaired = _project_array(yi[ok])
            f_ok = spec.drift_batch(y_ok)
            y, f = y.copy(), f.copy()  # so no stored knot changes
            y[ok], f[ok] = y_ok, f_ok
            knots.append((ids[ok], t[ok], y_ok, f_ok, repaired))
        # The growth 0.9 err^-0.2 is at least 0.9 on an accepted row and below
        # 0.9 on a rejected one, so one clip to [0.2, 5] serves both; err = 0
        # takes the largest growth without a division by zero.
        h = h * np.minimum(np.maximum(0.9 * np.maximum(err, 1e-300) ** -0.2, 0.2), 5.0)
        if np.count_nonzero(h < floor):
            raise IntegrationDivergedError(f"step size underflow at t = {float(t[h.argmin()])!r}")
        if reaching and np.count_nonzero(done := ok & final):
            row_steps[ids[done]] = step + 1
            live = ~done
            ids, t, h, y, f = ids[live], t[live], h[live], y[live], f[live]
            if ids.size == 0:
                break
            stages = np.empty((7, *y.shape))
    else:
        raise IntegrationDivergedError(
            f"no convergence within {MAX_STEPS} steps at t = {float(t[0])!r}"
        )
    rows = np.concatenate([k[0] for k in knots])
    order = np.argsort(rows, kind="stable")
    ts, ys, fs, repairs = (np.concatenate([k[j] for k in knots])[order] for j in range(1, 5))
    offsets = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    row_drifts = np.maximum.reduceat(repairs, offsets[:-1])
    return Flow(
        generator_id=spec.generator_id,
        horizon=float(horizon),
        ts=ts,
        ys=ys,
        fs=fs,
        offsets=tuple(offsets.tolist()),
        row_steps=tuple(row_steps.tolist()),
        row_drifts=tuple(row_drifts.tolist()),
    )


def _check_sample_every(sample_every: float | None) -> None:
    if sample_every is not None and not (0.0 < sample_every < math.inf):
        raise ValueError("sample_every must be positive and finite")


def _sample_times(horizon: float, sample_every: float | None) -> np.ndarray:
    _check_sample_every(sample_every)
    if sample_every is None:
        sample_every = horizon / 1000.0
    count = np.floor(horizon / sample_every + 1e-9)
    if count + 1 > MAX_SAMPLES:
        raise ValueError(f"sampling needs {count + 1:.0f} samples, above the cap {MAX_SAMPLES}")
    times = np.arange(int(count) + 1) * sample_every
    if times[-1] < horizon * (1.0 - 1e-12):
        times = np.append(times, horizon)
    else:
        times[-1] = horizon
    return times


def evolve(
    spec: GeneratorSpec,
    m0,
    horizon: float,
    *,
    rtol: float = RTOL,
    atol: float = ATOL,
    sample_every: float | None = None,
) -> Trajectory | list[Trajectory]:
    """Marginal flow sampled every ``sample_every`` (default horizon/1000).

    One start ``(S,)`` gives one :class:`Trajectory`; a stack of starts
    ``(n, S)`` gives a list with one per row, from one ``integrate_flow``
    call at ``rtol`` and ``atol``.
    """
    _check_horizon(horizon)
    times = _sample_times(horizon, sample_every)
    flow = integrate_flow(spec, m0, horizon, rtol=rtol, atol=atol)
    times.flags.writeable = False
    trajectories = []
    for i in range(len(flow.offsets) - 1):
        row = flow.row(i)
        states, _ = _project_array(row.at_many(times))
        states.flags.writeable = False
        trajectories.append(Trajectory(spec.generator_id, times, states, row.max_drift))
    return trajectories[0] if np.ndim(m0) == 1 else trajectories


def thinning_bound(spec: GeneratorSpec) -> float:
    """Dominating jump rate: 1.1 * max exit rate over a resolution-50 grid, a block at a time."""
    points = SimplexGrid(spec.dimension, THINNING_GRID_RESOLUTION).array
    idx = np.arange(spec.dimension)
    exits = max(
        float(np.max(-spec.rates_batch(points[k : k + THINNING_BLOCK])[:, idx, idx]))
        for k in range(0, len(points), THINNING_BLOCK)
    )
    return max(THINNING_HEADROOM * exits if spec.dimension > 1 else 0.0, 0.0)


def sample_path(
    spec: GeneratorSpec,
    m0,
    initial_state: int | None = None,
    horizon: float = 1.0,
    seed: int = 0,
    flow: Flow | None = None,
) -> JumpPath:
    """Sample one jump path of the chain driven by the marginal flow.

    Candidate jump times come from a Poisson clock at the dominating rate
    ``thinning_bound(spec)`` and are accepted with probability
    (exit rate at the current state under Q(m(t))) / bound; accepted jumps
    pick the target in proportion to the off-diagonal rates.  If the exit
    rate is ever observed above the bound, the whole path restarts from the
    same seed with the bound doubled.  A run whose proposal count, about
    bound x horizon, would exceed ``MAX_SAMPLES`` is refused with
    ValueError, before integrating and again at each doubling.
    ``initial_state`` is a 0-based integer; None draws it from ``m0``.  The path
    follows ``flow`` when given (one row from ``m0`` for the same generator,
    covering ``horizon``), else ``integrate_flow`` at the default tolerances;
    pass ``flow=integrate_flow(spec, m0, horizon, rtol=..., atol=...)`` to
    sample under other tolerances.  An ``m0`` on the wrong state count is refused first.
    """
    m0_arr = Distribution(m0).probs
    _check_states("m0", m0_arr.size, spec.dimension)
    _check_horizon(horizon)
    s = spec.dimension
    if initial_state is not None and not (_is_int(initial_state) and 0 <= initial_state < s):
        raise ValueError(f"initial_state must be an integer in 0..{s - 1}, got {initial_state!r}")
    _check_seed(seed)
    spec.require_valid()
    base = thinning_bound(spec)
    _check_proposals(base, horizon)
    if flow is None:
        flow = integrate_flow(spec, m0_arr, horizon)
    elif flow.generator_id != spec.generator_id:
        raise ValueError("flow was integrated for a different generator")
    elif flow.horizon < horizon:
        raise ValueError(f"flow horizon {flow.horizon!r} is shorter than {horizon!r}")
    elif len(flow.offsets) != 2:
        raise ValueError("flow has several rows; pass one of them with flow.row(i)")
    elif np.abs(flow.ys[0] - m0_arr).max() > TOL_RENORMALIZE:
        raise ValueError(f"flow starts at {flow.ys[0].tolist()!r}, not at m0")
    for doubling in range(64):
        bound = base * (2.0**doubling)
        _check_proposals(bound, horizon)
        rng = np.random.default_rng(seed)
        if initial_state is None:
            start = int(np.cumsum(m0_arr).searchsorted(rng.random(), side="right"))
            start = min(start, s - 1)
        else:
            start = int(initial_state)
        if bound == 0.0:
            path = np.empty(0), np.empty(0, dtype=int)
        else:
            path = _thin_path(spec, flow, start, horizon, bound, rng)
        if path is not None:
            times, visited = path
            return JumpPath(
                generator_id=spec.generator_id,
                seed=int(seed),
                horizon=float(horizon),
                initial_state=start,
                jump_times=times,
                states_visited=visited,
            )
    raise IntegrationDivergedError("thinning bound kept being exceeded after 64 doublings")


def _check_proposals(bound: float, horizon: float) -> None:
    # _thin_path holds every proposal time of the horizon at once.
    count = bound * horizon
    if count > MAX_SAMPLES:
        raise ValueError(
            f"thinning needs about {count:.0f} proposals, above the cap {MAX_SAMPLES}"
        )


def _thin_path(spec, flow, start, horizon, bound, rng):
    """One thinning attempt; None means the bound was exceeded."""
    chunks = []
    total = 0.0
    while total < horizon:
        block = rng.exponential(1.0 / bound, size=256)
        chunks.append(block)
        total += float(block.sum())
    proposals = np.cumsum(np.concatenate(chunks))
    proposals = proposals[proposals <= horizon]
    n = proposals.size
    accept_u = rng.random(n)
    target_u = rng.random(n)
    s = spec.dimension
    idx = np.arange(s)
    visited = np.full(n, -1)
    current = start
    for first in range(0, n, THINNING_BLOCK):
        times = proposals[first : first + THINNING_BLOCK]
        # Interpolated flow states can undershoot zero by rounding noise only;
        # clamping is enough here, rates never see more than that.
        q = spec.rates_batch(np.maximum(flow.at_many(times), 0.0))
        exits = -q[:, idx, idx]
        q[:, idx, idx] = 0.0
        cum = np.cumsum(np.maximum(q, 0.0, out=q), axis=2)
        for k in range(times.size):
            lam = exits[k, current]
            if lam > bound:
                return None
            if lam <= 0.0 or accept_u[first + k] * bound >= lam:
                continue
            row = cum[k, current]
            if row[-1] <= 0.0:
                continue
            target = int(row.searchsorted(target_u[first + k] * row[-1], side="right"))
            target = min(target, s - 1)
            if target == current:
                continue
            visited[first + k] = target
            current = target
    jumped = visited >= 0
    return proposals[jumped], visited[jumped]
