"""Marginal-flow integration, invariance auditing, and jump-path sampling.

The marginal flow solves dm/dt = f(m) with f_j(m) = sum_i m_i Q_ij(m).
Integration uses an embedded Dormand-Prince 5(4) pair with adaptive steps;
every accepted state is projected back onto the simplex, and drift beyond
the projection repair budget raises instead of being silently absorbed.
Jump paths are sampled by thinning a dominating Poisson clock against the
precomputed marginal flow.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationDivergedError
from .generator import GeneratorSpec
from .simplex import (
    TOL_MEMBERSHIP,
    TOL_RENORMALIZE,
    Distribution,
    SimplexGrid,
    _project_array,
    _tangent_ok,
)

MAX_HORIZON = 1e6
MAX_SAMPLES = 1_000_000
THINNING_GRID_RESOLUTION = 50
THINNING_HEADROOM = 1.1
THINNING_BLOCK = 4096    # proposals whose rates are held at once

# Dormand-Prince 5(4) tableau: row i holds the weights of stage i.  The last
# stage is evaluated at the fifth-order solution itself, so its row is the
# fifth-order weights; _DP_B4 are the embedded fourth-order weights.  Shaped
# to broadcast against stages (7, n, S).
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])[:, :, None, None]
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)[:, None, None]


@dataclass(frozen=True)
class IntegratorControls:
    """Step-size and sampling knobs for the marginal-flow integrator."""

    rtol: float = 1e-8
    atol: float = 1e-10
    sample_every: float | None = None
    max_steps: int = 1_000_000

    def __post_init__(self) -> None:
        # A NaN tolerance would reject every step; chained comparisons refuse it.
        if not (0.0 < self.rtol < math.inf and 0.0 < self.atol < math.inf):
            raise ValueError("rtol and atol must be positive and finite")
        if self.sample_every is not None and not (0.0 < self.sample_every < math.inf):
            raise ValueError("sample_every must be positive and finite")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass(frozen=True)
class Flow:
    """Dense-output marginal flow on [0, horizon].

    ``ts``/``ys``/``fs`` hold the accepted step times, the repaired states,
    and the drift at those states; ``at``/``at_many`` interpolate with the
    cubic Hermite matched to the stored derivatives.

    A flow of n starts stacks its rows' knots: row i owns the knots
    ``offsets[i]:offsets[i + 1]`` and took ``row_steps[i]`` steps with
    largest repair ``row_drifts[i]``, while ``steps`` and ``max_drift`` are
    the total and the largest over rows.  ``row(i)`` is row i as a flow of
    its own; interpolation needs a one-row flow.  The row fields default to
    the one row that ``ts`` holds.
    """

    generator_id: str
    horizon: float
    ts: np.ndarray
    ys: np.ndarray
    fs: np.ndarray
    max_drift: float
    steps: int
    offsets: tuple[int, ...] | None = None
    row_steps: tuple[int, ...] | None = None
    row_drifts: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.offsets is None:
            object.__setattr__(self, "offsets", (0, len(self.ts)))
            object.__setattr__(self, "row_steps", (self.steps,))
            object.__setattr__(self, "row_drifts", (self.max_drift,))

    def row(self, i: int) -> Flow:
        start, stop = self.offsets[i], self.offsets[i + 1]
        return Flow(
            self.generator_id, self.horizon, self.ts[start:stop], self.ys[start:stop],
            self.fs[start:stop], self.row_drifts[i], self.row_steps[i],
        )

    def at(self, t: float) -> np.ndarray:
        return self.at_many(np.array([t]))[0]

    def at_many(self, times) -> np.ndarray:
        if len(self.offsets) != 2:
            raise ValueError("interpolate one row at a time: use flow.row(i)")
        times = np.clip(np.asarray(times, dtype=float), 0.0, self.horizon)
        right = np.clip(np.searchsorted(self.ts, times, side="right"), 1, len(self.ts) - 1)
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

    Rows of ``states`` are kept exactly as produced so that audits can see
    them; use ``state`` or ``final`` for validated :class:`Distribution`
    views.
    """

    generator_id: str
    times: np.ndarray
    states: np.ndarray
    max_drift: float = 0.0

    def __len__(self) -> int:
        return self.times.size

    def state(self, index: int) -> Distribution:
        return Distribution(self.states[index])

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
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(self.to_csv_text())


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
        if t < 0 or t > self.horizon:
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
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(self.to_csv_text())


def _check_horizon(horizon: float) -> None:
    if not (0.0 < horizon <= MAX_HORIZON):
        raise ValueError(f"horizon must lie in (0, {MAX_HORIZON:g}], got {horizon!r}")


def _as_state(m) -> np.ndarray:
    if isinstance(m, Distribution):
        return m.probs.copy()
    return Distribution(m).probs.copy()


def _is_one_start(m0) -> bool:
    return isinstance(m0, Distribution) or np.ndim(m0) == 1


def integrate_flow(
    spec: GeneratorSpec,
    m0,
    horizon: float,
    controls: IntegratorControls | None = None,
) -> Flow:
    """Integrate the marginal flow from each start in ``m0`` over [0, horizon].

    ``m0`` is one start ``(S,)`` or a stack of starts ``(n, S)``; all rows
    step together, each with its own step size, accept/reject decision,
    error norm, step count and stop time, and a row leaves the live set when
    it reaches the horizon.  Stages combine element-wise in a fixed order, so
    a row's result does not depend on the other rows of the call: one start
    is row 0 of the same loop.  The result is one :class:`Flow` whose rows
    are the starts (``Flow.row``); ``steps`` is their total.

    Adaptive Dormand-Prince 5(4): the error estimate uses the embedded
    fourth-order weights, acceptance is against rtol/atol mixed per
    component, and each accepted state is projected back onto the simplex
    (the largest repaired drift is reported on the returned flow).
    """
    controls = controls or IntegratorControls()
    _check_horizon(horizon)
    spec.require_valid()
    starts = [m0] if _is_one_start(m0) else list(m0)
    if not starts:
        raise ValueError("at least one start is required")
    y = np.array([_as_state(m) for m in starts])
    n = y.shape[0]
    f = spec.drift_batch(y)
    # The live rows, as indices of the starts; a row leaves when it reaches the horizon.
    ids = np.arange(n)
    t = np.zeros(n)
    h = np.minimum(horizon, 0.01 / (1.0 + np.abs(f).max(axis=1)))
    row_steps = np.zeros(n, dtype=int)
    # Accepted knots as (row, t, y, f, repaired drift); y and f change in place.
    knots = [(ids, t, y.copy(), f.copy(), np.zeros(n))]
    floor = 1e-14 * max(1.0, horizon)
    for step in range(controls.max_steps):
        final = t + h >= horizon
        h = np.where(final, horizon - t, h)
        hc = h[:, None]
        stages = np.empty((7, *y.shape))
        stages[0] = f
        for i in range(1, 7):
            yi = y + hc * np.add.reduce(_DP_A[i, :i] * stages[:i])
            stages[i] = spec.drift_batch(yi)
        # yi is now the fifth-order solution.
        y4 = y + hc * np.add.reduce(_DP_B4 * stages)
        scale = controls.atol + controls.rtol * np.maximum(np.abs(y), np.abs(yi))
        err = np.sqrt(np.add.reduce(((yi - y4) / scale) ** 2, axis=1) / y.shape[1])
        ok = err <= 1.0
        if ok.any():
            t = np.where(ok, np.where(final, horizon, t + h), t)
            y_ok, repaired = _project_array(yi[ok])
            f_ok = spec.drift_batch(y_ok)
            y[ok], f[ok] = y_ok, f_ok
            knots.append((ids[ok], t[ok], y_ok, f_ok, repaired))
        # The growth 0.9 err^-0.2 is at least 0.9 on an accepted row and below
        # 0.9 on a rejected one, so one clip to [0.2, 5] serves both; err = 0
        # takes the largest growth without a division by zero.
        h = h * np.minimum(np.maximum(0.9 * np.maximum(err, 1e-300) ** -0.2, 0.2), 5.0)
        if h.min() < floor:
            raise IntegrationDivergedError(f"step size underflow at t = {float(t[h.argmin()])!r}")
        done = ok & final
        if done.any():
            row_steps[ids[done]] = step + 1
            live = ~done
            ids, t, h, y, f = ids[live], t[live], h[live], y[live], f[live]
            if ids.size == 0:
                break
    else:
        raise IntegrationDivergedError(
            f"no convergence within {controls.max_steps} steps at t = {float(t[0])!r}"
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
        max_drift=float(row_drifts.max()),
        steps=int(row_steps.sum()),
        offsets=tuple(offsets.tolist()),
        row_steps=tuple(row_steps.tolist()),
        row_drifts=tuple(row_drifts.tolist()),
    )


def _sample_times(horizon: float, sample_every: float | None) -> np.ndarray:
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
    controls: IntegratorControls | None = None,
) -> Trajectory | list[Trajectory]:
    """Marginal flow sampled every ``controls.sample_every`` (default horizon/1000).

    One start ``(S,)`` gives one :class:`Trajectory`; a stack of starts
    ``(n, S)`` gives a list with one per row, from one ``integrate_flow``
    call.
    """
    controls = controls or IntegratorControls()
    _check_horizon(horizon)
    times = _sample_times(horizon, controls.sample_every)
    flow = integrate_flow(spec, m0, horizon, controls)
    times.flags.writeable = False
    trajectories = []
    for i in range(len(flow.offsets) - 1):
        row = flow.row(i)
        states, _ = _project_array(row.at_many(times))
        states.flags.writeable = False
        trajectories.append(Trajectory(spec.generator_id, times, states, row.max_drift))
    return trajectories[0] if _is_one_start(m0) else trajectories


@dataclass(frozen=True)
class AuditFinding:
    """One invariance failure at a sampled trajectory state."""

    index: int
    time: float
    message: str


@dataclass(frozen=True)
class AuditReport:
    """Outcome of checking a trajectory against simplex invariance.

    ``clean`` means every sampled state is on the simplex (within
    integrator-noise tolerances) and the drift at that state lies in the
    tangent cone, so the flow never tried to leave.
    """

    clean: bool
    states_checked: int
    max_drift_before_repair: float
    worst_negative_entry: float
    worst_mass_defect: float
    min_component: float
    findings: tuple[AuditFinding, ...]


def flow_invariance_audit(trajectory: Trajectory, spec: GeneratorSpec) -> AuditReport:
    """Audit every sampled state of ``trajectory`` for simplex invariance.

    Checks per state: entries at least -``TOL_RENORMALIZE``, mass within
    ``TOL_RENORMALIZE`` of one, and drift membership in the tangent cone at
    that state.
    """
    states = np.asarray(trajectory.states, dtype=float)
    findings = []
    worst_negative = float(states.min())
    mass_defects = np.abs(states.sum(axis=1) - 1.0)
    drifts = spec.drift_batch(states)
    for n in range(states.shape[0]):
        t = float(trajectory.times[n])
        row = states[n]
        ok_entries = float(row.min()) >= -TOL_RENORMALIZE
        ok_mass = float(mass_defects[n]) <= TOL_RENORMALIZE
        if not ok_entries:
            findings.append(AuditFinding(n, t, f"entry {float(row.min()):.6e} below -{TOL_RENORMALIZE:g}"))
        if not ok_mass:
            findings.append(AuditFinding(n, t, f"mass off by {float(mass_defects[n]):.6e}"))
        if ok_entries and ok_mass and not _tangent_ok(np.maximum(row, 0.0), drifts[n]):
            findings.append(AuditFinding(n, t, "drift leaves the tangent cone"))
    return AuditReport(
        clean=not findings,
        states_checked=states.shape[0],
        max_drift_before_repair=float(trajectory.max_drift),
        worst_negative_entry=min(worst_negative, 0.0),
        worst_mass_defect=float(mass_defects.max()),
        min_component=worst_negative,
        findings=tuple(findings),
    )


_THINNING_CACHE: weakref.WeakKeyDictionary[GeneratorSpec, float] = weakref.WeakKeyDictionary()


def thinning_bound(spec: GeneratorSpec) -> float:
    """Dominating jump rate: 1.1 * max exit rate over a resolution-50 grid."""
    cached = _THINNING_CACHE.get(spec)
    if cached is not None:
        return cached
    grid = SimplexGrid(spec.dimension, THINNING_GRID_RESOLUTION)
    q = spec.rates_batch(grid.array)
    idx = np.arange(spec.dimension)
    bound = float(THINNING_HEADROOM * np.max(-q[:, idx, idx])) if spec.dimension > 1 else 0.0
    bound = max(bound, 0.0)
    _THINNING_CACHE[spec] = bound
    return bound


def sample_path(
    spec: GeneratorSpec,
    m0,
    initial_state: int | None = None,
    horizon: float = 1.0,
    seed: int = 0,
    controls: IntegratorControls | None = None,
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
    ``initial_state`` is 0-based; None draws it from ``m0``.  Passing a
    precomputed ``flow`` (covering ``horizon`` for the same generator)
    skips re-integration.
    """
    _check_horizon(horizon)
    m0_arr = _as_state(m0)
    s = spec.dimension
    if initial_state is not None and not (0 <= int(initial_state) < s):
        raise ValueError(f"initial_state must lie in 0..{s - 1}, got {initial_state!r}")
    spec.require_valid()
    base = thinning_bound(spec)
    _check_proposals(base, horizon)
    if flow is None:
        flow = integrate_flow(spec, m0_arr, horizon, controls)
    else:
        if flow.generator_id != spec.generator_id:
            raise ValueError("flow was integrated for a different generator")
        if flow.horizon < horizon:
            raise ValueError(f"flow horizon {flow.horizon!r} is shorter than {horizon!r}")
    for doubling in range(64):
        bound = base * (2.0**doubling)
        _check_proposals(bound, horizon)
        rng = np.random.default_rng(seed)
        if initial_state is None:
            start = int(np.searchsorted(np.cumsum(m0_arr), rng.random(), side="right"))
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
                seed=seed,
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
            target = int(np.searchsorted(row, target_u[first + k] * row[-1], side="right"))
            target = min(target, s - 1)
            if target == current:
                continue
            visited[first + k] = target
            current = target
    jumped = visited >= 0
    return proposals[jumped], visited[jumped]
