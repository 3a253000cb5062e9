"""Seeded operation lists for the benchmark workloads.

Every operation is one argv for ``nlmc.cli.main`` plus the oracle that
checks what it wrote.  The inputs (corpus parameters, start points, sampler
seeds) come only from the workload seed, so the same seed gives the same
argvs.

* ``certify``: the search and certificate path (``find_invariant`` from
  every grid point, the uniqueness sweep, the divergence sweep).
* ``trajectories``: the single-point path (Dormand-Prince integrator,
  ``evolve`` resampling, the thinning loop, CSV writing).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

WORKLOADS = ("certify", "trajectories")

TRAJECTORY_ROUNDS_PER_PASS = 4  # repeats of the five-operation mix
CONSUMER_PAIRS = 3  # antithetic pairs of consumer parameter sets in ``certify``
CERTIFY_GRID = "10"  # grid resolution of the consumer certificates


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv, the exit code it must return, and its oracle.

    ``artifact`` is the file (or, for ``reproduce``, the directory) the call
    writes; ``check`` reads it and returns a list of problems, empty when
    correct.
    """

    argv: tuple[str, ...]
    expect_exit: int
    artifact: str
    check: Callable[[], list[str]]


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    """The fixed operation list of one pass."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    os.makedirs(workdir, exist_ok=True)
    if workload == "certify":
        return _certify_ops(rng, workdir)
    if workload == "trajectories":
        return _trajectory_ops(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def _num(x: float) -> str:
    return repr(float(x))


_CONSUMER_LOW = np.array([0.5, 0.5, 0.05, 0.5])   # b, e, eps, lam
_CONSUMER_HIGH = np.array([2.0, 2.0, 0.5, 2.0])


def _consumer_params(u) -> dict[str, float]:
    """Consumer parameters at the point ``u`` of the unit cube: b, e and lam
    in [0.5, 2], eps in [0.05, 0.5]."""
    values = _CONSUMER_LOW + np.asarray(u) * (_CONSUMER_HIGH - _CONSUMER_LOW)
    return dict(zip(("b", "e", "eps", "lam"), (float(v) for v in values)))


def _consumer_flags(p: dict[str, float]) -> tuple[str, ...]:
    return (
        "--corpus", "consumer",
        "--b", _num(p["b"]), "--e", _num(p["e"]),
        "--eps", _num(p["eps"]), "--lambda", _num(p["lam"]),
    )


def _m0_flag(m0) -> str:
    return ",".join(_num(x) for x in m0)


def _certify_ops(rng, workdir: str) -> list[Op]:
    # The consumer sets come in antithetic pairs, u and 1 - u: each is
    # uniform on the parameter box, but the cost of the search, which grows
    # with e and falls with b, largely cancels across a pair.  That keeps
    # the pass time steady from seed to seed.  The grid is small so that
    # each operation is short and repeats many times in a run: the fastest
    # of many short repeats is steadier on a shared machine than the
    # fastest of a few long ones.
    ops = []
    points = []
    for _ in range(CONSUMER_PAIRS):
        u = rng.random(4)
        points += [u, 1.0 - u]
    for k, point in enumerate(points):
        params = _consumer_params(point)
        for command, rest in (("certify-ergodic", True), ("certify-unique", False)):
            out = os.path.join(workdir, f"{command}-consumer-{k}.json")
            ops.append(Op(
                argv=(command, *_consumer_flags(params), "--grid", CERTIFY_GRID, "--out", out),
                expect_exit=0,
                artifact=out,
                check=functools.partial(
                    oracles.consumer_certified, out, params, check_rest_point=rest
                ),
            ))
    out = os.path.join(workdir, "invariant-bistable.json")
    ops.append(Op(
        argv=("invariant", "--corpus", "bistable", "--grid", "20", "--out", out),
        expect_exit=0,
        artifact=out,
        check=functools.partial(oracles.bistable_invariant, out),
    ))
    out = os.path.join(workdir, "certify-ergodic-bistable.json")
    ops.append(Op(
        argv=("certify-ergodic", "--corpus", "bistable", "--out", out),
        expect_exit=2,
        artifact=out,
        check=functools.partial(oracles.bistable_refuted, out),
    ))
    return ops


def _bistable_start(rng) -> float:
    """m1 drawn from [0.02, 0.45] or [0.55, 0.98], away from the repeller at 1/2."""
    low = rng.uniform(0.02, 0.45)
    return float(low if rng.random() < 0.5 else 1.0 - low)


def _trajectory_ops(rng, workdir: str) -> list[Op]:
    ops = []
    for r in range(TRAJECTORY_ROUNDS_PER_PASS):
        m1 = _bistable_start(rng)
        out = os.path.join(workdir, f"simulate-bistable-{r}.csv")
        ops.append(Op(
            argv=("simulate", "--corpus", "bistable", "--m0", _m0_flag((m1, 1.0 - m1)),
                  "--horizon", "50", "--out", out),
            expect_exit=0,
            artifact=out,
            check=functools.partial(
                oracles.trajectory, out, 50.0, 2, end=oracles.bistable_limit(m1), end_tol=1e-6
            ),
        ))

        m1 = _bistable_start(rng)
        out = os.path.join(workdir, f"sample-bistable-{r}.csv")
        ops.append(Op(
            argv=("sample", "--corpus", "bistable", "--m0", _m0_flag((m1, 1.0 - m1)),
                  "--horizon", "100", "--seed", str(int(rng.integers(2**31))), "--out", out),
            expect_exit=0,
            artifact=out,
            check=functools.partial(oracles.jump_path, out, 100.0, 2),
        ))

        params = _consumer_params(rng.random(4))
        out = os.path.join(workdir, f"simulate-consumer-{r}.csv")
        ops.append(Op(
            argv=("simulate", *_consumer_flags(params), "--m0", _m0_flag(rng.dirichlet(np.ones(3))),
                  "--horizon", "20", "--out", out),
            expect_exit=0,
            artifact=out,
            check=functools.partial(oracles.trajectory, out, 20.0, 3),
        ))

        params = _consumer_params(rng.random(4))
        out = os.path.join(workdir, f"sample-consumer-{r}.csv")
        ops.append(Op(
            argv=("sample", *_consumer_flags(params), "--m0", _m0_flag(rng.dirichlet(np.ones(3))),
                  "--horizon", "100", "--seed", str(int(rng.integers(2**31))), "--out", out),
            expect_exit=0,
            artifact=out,
            check=functools.partial(oracles.jump_path, out, 100.0, 3),
        ))

        # Starts on the segment from the barycentre to (0.2, 0.4, 0.4) stay in
        # the unclamped region, where every orbit has period 2*pi.
        t = rng.uniform(0.0, 1.0)
        m0 = np.full(3, 1.0 / 3.0) + t * (np.array([0.2, 0.4, 0.4]) - 1.0 / 3.0)
        out = os.path.join(workdir, f"simulate-oscillator-{r}.csv")
        ops.append(Op(
            argv=("simulate", "--corpus", "oscillator", "--m0", _m0_flag(m0),
                  "--horizon", _num(2.0 * math.pi), "--out", out),
            expect_exit=0,
            artifact=out,
            check=functools.partial(
                oracles.trajectory, out, 2.0 * math.pi, 3, end=m0, end_tol=1e-4
            ),
        ))
    outdir = os.path.join(workdir, "fig2")
    ops.append(Op(
        argv=("reproduce", "fig2", "--outdir", outdir),
        expect_exit=0,
        artifact=outdir,
        check=functools.partial(oracles.fig2, outdir),
    ))
    return ops
