"""nlmc benchmark: CLI workloads timed end to end, and a traced per-layer run.

Usage, from the repository root:

    python3 nlmcbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

One process and one thread run the workload as a closed loop: each
operation is an in-process ``nlmc.cli.main(argv)`` call, the next starting
when the previous returns, after one warm-up operation.  A pass is the
workload's fixed operation list; passes repeat until ``--seconds`` have
elapsed (at least three, so every artifact is compared across passes and
every operation is timed more than once).  Every operation's exit code and
artifact are checked against closed-form oracles and against the artifact
its argv wrote on the first pass.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: wall time of one pass, as the sum over its operations of
  each operation's fastest time across the passes;
* ``setup_s``: median wall time of a fresh ``python -c "import nlmc.cli"``,
  over 15 spawns spread evenly over the run;
* ``peak_rss_mb``: ``ru_maxrss`` of this process after the passes.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.per_layer`` with ``trace.overhead_ratio``
(traced pass time / untraced pass time); the spans are written to
``.bench_work/spans-<workload>.jsonl``.

The last line of standard output is the result object; the line before it
holds the machine and run information.  The program's inputs are generated
under ``.bench_work/`` and removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

import numpy as np

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_SPAWNS = 15
MIN_PASSES = 3
THREAD_VARS = ("NLMC_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fail(message: str) -> int:
    print(f"nlmcbench: {message}", file=sys.stderr)
    return 1


def _digest(path: str) -> str:
    """sha256 of a file, or of every file under a directory in name order."""
    h = hashlib.sha256()
    names = [path] if os.path.isfile(path) else [
        os.path.join(path, n) for n in sorted(os.listdir(path))
    ]
    for name in names:
        h.update(os.path.basename(name).encode())
        with open(name, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


class Runner:
    """Runs operations through ``nlmc.cli.main`` and checks every result."""

    def __init__(self, cli, ops) -> None:
        self.cli = cli
        self.ops = ops
        self.checked: dict[int, tuple[str, list[str]]] = {}
        self.attempted = 0
        self.problems: list[str] = []

    def run_op(self, index: int) -> float:
        """Run one operation, check it, and return its wall time in seconds."""
        op = self.ops[index]
        captured = io.StringIO()
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = self.cli.main(list(op.argv))
        except Exception:  # a crash is a failed operation, not a crashed benchmark
            elapsed = time.perf_counter() - start
            where = " | ".join(traceback.format_exc().strip().splitlines()[-3:])
            self.problems.append(f"op {index} {op.argv[0]}: raised: {where}")
            return elapsed
        elapsed = time.perf_counter() - start
        problems = []
        if code != op.expect_exit:
            problems.append(f"exit {code}, expected {op.expect_exit}: {captured.getvalue()[-300:]!r}")
        else:
            try:
                digest = _digest(op.artifact)
                if index not in self.checked:
                    # The oracle runs on an operation's first artifact; later
                    # runs must reproduce it byte for byte, so they share its verdict.
                    self.checked[index] = (digest, op.check())
                first, verdict = self.checked[index]
                problems += verdict if digest == first else ["artifact differs from the first run"]
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"unreadable artifact: {exc!r}")
        if problems:
            self.problems.append(f"op {index} {op.argv[0]}: " + "; ".join(problems))
        return elapsed

    def run_pass(self, tracer=None) -> list[float]:
        """Run every operation once; returns their wall times in order."""
        times = []
        for index in range(len(self.ops)):
            if tracer is not None:
                tracer.op = index
            times.append(self.run_op(index))
        return times

    @property
    def failed(self) -> int:
        return len(self.problems)


def setup_time() -> float:
    """Wall time of a fresh interpreter importing the CLI."""
    env = {k: v for k, v in os.environ.items() if k != "NLMC_THREADS"}
    env["PYTHONPATH"] = SRC
    start = time.perf_counter()
    # No timeout: with one, the wait polls in steps of up to 50 ms, which
    # would quantise the measurement.
    subprocess.run([sys.executable, "-c", "import nlmc.cli"], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - start


def info_block(args, thread_env, ops) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26 prints its configuration instead
        blas = {}
    src_lines = 0
    for name in sorted(os.listdir(os.path.join(SRC, "nlmc"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "nlmc", name), encoding="utf-8") as handle:
                src_lines += sum(1 for _ in handle)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": thread_env,
        "workload": args.workload,
        "seed": args.seed,
        "operations_per_pass": len(ops),
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nlmc", "__init__.py")):
        return _fail(f"no nlmc sources under {SRC}; run from a full checkout")
    # The load model is one thread: NLMC_THREADS is unset for every operation.
    thread_env = {k: os.environ.get(k) for k in THREAD_VARS}
    os.environ.pop("NLMC_THREADS", None)
    sys.path.insert(0, SRC)
    import nlmc
    import nlmc.cli

    if os.path.dirname(os.path.abspath(nlmc.__file__)) != os.path.join(SRC, "nlmc"):
        return _fail(f"imported nlmc from {nlmc.__file__}, not from {SRC}")

    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        runner = Runner(nlmc.cli, ops)
        runner.run_op(0)  # warm-up
        if args.trace:
            metrics = traced_run(runner, args)
        else:
            metrics = untraced_run(runner, args)
        info = info_block(args, thread_env, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info["failed_ratio"] = runner.failed / runner.attempted
    info["problems"] = runner.problems[:20]
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def pass_time(passes: list[list[float]]) -> float:
    """Wall time of one pass: the sum over its operations of each one's
    fastest time across passes.  Load from other tenants of a shared machine
    only ever slows an operation down, in bursts of seconds, so the fastest
    repeat is the steadiest estimate of the work itself."""
    return sum(min(op_times) for op_times in zip(*passes))


def untraced_run(runner: Runner, args) -> dict[str, tuple[float, str]]:
    setup_time()  # unmeasured: fills the file cache
    passes, setups = [], []
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES or len(setups) < SETUP_SPAWNS
           or time.perf_counter() - start < args.seconds):
        passes.append(runner.run_pass())
        # The spawns are spread evenly over the run, so their median sees
        # the same machine as the passes do.
        if len(setups) < SETUP_SPAWNS * (time.perf_counter() - start) / args.seconds:
            setups.append(setup_time())
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": (pass_time(passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak, "MB"),
    }


def traced_run(runner: Runner, args) -> dict[str, tuple[float, str]]:
    tracer = tracing.Tracer()
    untraced, traced, totals = [], [], Counter()
    spans_out = os.path.join(WORK, f"spans-{args.workload}.jsonl")
    with open(spans_out, "w", encoding="utf-8") as out:
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < args.seconds:
            untraced.append(runner.run_pass())
            with tracer.installed():
                traced.append(runner.run_pass(tracer))
            spans = tracer.take()
            totals.update(tracing.totals(spans))
            for span in spans:
                out.write(json.dumps([len(traced), *span]) + "\n")
    if not tracing.unpatched():
        raise RuntimeError("a traced binding was not restored")
    overhead = pass_time(traced) / pass_time(untraced)
    return tracing.per_layer(totals, len(traced), overhead)


if __name__ == "__main__":
    sys.exit(main())
