"""Span tracing of nlmc's public entry points, done from outside the package.

``Tracer.installed()`` replaces each target function at every place it is
bound: the class for methods, and for functions the defining module plus
every ``nlmc`` module that imported it by name (``find_invariant`` in
``certify`` and ``cli``, ``integrate_flow`` in ``stationary``, ...), so no
call escapes through a name-imported binding.  Each call records a span
``[name, start_ns, end_ns, parent, op, count]`` in memory; ``count`` is read
from the arguments or the return value (batch size, ``len(Flow.ts) - 1``,
``StationarySet.seed_count``, ``JumpPath.jump_count``, grid length, bytes
written).  Private kernels (the frozen solve, the BFS, the projection) have
no span of their own and show up as the self time of their callers.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _written_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 1, "path"))


# (module, attribute path, span name, counter(args, kwargs, result) or None)
TARGETS = (
    ("nlmc.generator", "GeneratorSpec.rates_batch", "rates_batch",
     lambda a, k, r: len(_arg(a, k, 1, "points"))),
    ("nlmc.generator", "validate", "validate", lambda a, k, r: r.checked),
    ("nlmc.simplex", "SimplexGrid.__init__", "grid", lambda a, k, r: len(a[0])),
    ("nlmc.stationary", "find_invariant", "find_invariant",
     lambda a, k, r: (r.seed_count, r.failed_seeds)),
    ("nlmc.semigroup", "integrate_flow", "integrate_flow", lambda a, k, r: (len(r.ts) - 1, r.steps)),
    ("nlmc.semigroup", "evolve", "evolve", None),
    ("nlmc.semigroup", "thinning_bound", "thinning_bound", None),
    ("nlmc.semigroup", "sample_path", "sample_path", lambda a, k, r: r.jump_count),
    ("nlmc.certify", "certify_unique", "certify_unique", lambda a, k, r: len(_arg(a, k, 1, "grid"))),
    ("nlmc.certify", "certify_ergodic_2", "certify_ergodic_2", None),
    ("nlmc.certify", "certify_ergodic_3", "certify_ergodic_3", None),
    ("nlmc.certify", "ReducedSystem.divergence_batch", "divergence_batch",
     lambda a, k, r: len(_arg(a, k, 1, "u"))),
    ("nlmc.semigroup", "Trajectory.to_csv", "write", _written_bytes),
    ("nlmc.semigroup", "JumpPath.to_csv", "write", _written_bytes),
    ("nlmc.stationary", "StationarySet.to_json", "write", _written_bytes),
    ("nlmc.certify", "Certificate.to_json", "write", _written_bytes),
    ("nlmc.cli", "main", "cli", None),
)


def _bindings(module_name: str, path: str):
    """Every (owner, attribute) that holds the target, and the target itself."""
    module = sys.modules[module_name]
    if "." in path:
        cls_name, attr = path.split(".")
        owner = getattr(module, cls_name)
        return vars(owner)[attr], [(owner, attr)]
    target = getattr(module, path)
    owners = [
        (mod, name)
        for mod_name, mod in sorted(sys.modules.items())
        if mod is not None and (mod_name == "nlmc" or mod_name.startswith("nlmc."))
        for name, value in vars(mod).items()
        if value is target
    ]
    return target, owners


class Tracer:
    """Records spans of calls into nlmc while installed.

    ``op`` is the id of the operation in progress; set it before each call
    so that the spans of one operation share it.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        spans = self.spans
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        wrapper._traced = True
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every target; restore them all on exit."""
        import nlmc.cli  # noqa: F401  (loads every module that binds a target)

        try:
            for module_name, path, name, counter in TARGETS:
                target, owners = _bindings(module_name, path)
                wrapper = self._wrap(name, target, counter)
                for owner, attr in owners:
                    self._patched.append((owner, attr, target))
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            while self._patched:
                owner, attr, target = self._patched.pop()
                setattr(owner, attr, target)

    def take(self) -> list[list]:
        """The spans recorded so far; the tracer starts a fresh list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def unpatched() -> bool:
    """Whether no nlmc module and no traced class still holds a wrapper."""
    owners = [mod for name, mod in sys.modules.items() if name == "nlmc" or name.startswith("nlmc.")]
    owners += [getattr(sys.modules[m], p.split(".")[0]) for m, p, _, _ in TARGETS if "." in p]
    return not any(getattr(value, "_traced", False) for owner in owners for value in vars(owner).values())


# Spans whose rate calls are charged to them rather than to their ancestors.
_OWNERS = frozenset({
    "validate", "thinning_bound", "integrate_flow", "sample_path",
    "find_invariant", "certify_unique", "certify_ergodic_2", "certify_ergodic_3",
    "divergence_batch",
})


def totals(spans: list[list]) -> Counter:
    """Work counts and nanosecond totals of one list of spans."""
    kids = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            kids[span[3]].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def kid_ns(i, names=None):
        return sum(dur(j) for j in kids[i] if names is None or spans[j][0] in names)

    def ancestors(i):
        parent = spans[i][3]
        while parent >= 0:
            yield spans[parent][0]
            parent = spans[parent][3]

    t = Counter()
    for i, (name, start, end, _, _, count) in enumerate(spans):
        d = end - start
        if count is None:  # the call raised, so it returned nothing to count
            count = (0, 0) if name in ("find_invariant", "integrate_flow") else 0
        if name == "rates_batch":
            if count == 1:
                t["single_calls"] += 1
                t["single_ns"] += d
            else:
                t["batched_points"] += count
                t["batched_ns"] += d
            chain = list(ancestors(i))
            owner = next((a for a in chain if a in _OWNERS), None)
            if "find_invariant" in chain and "validate" not in chain:
                t["search_rate_calls"] += 1
            if owner == "integrate_flow":
                t["integrate_rate_calls"] += 1
            elif owner == "sample_path":
                t["proposals"] += count
            elif owner == "thinning_bound":
                t["thinning_points"] += count
        elif name == "validate":
            t["validate_ns"] += d
            t["validate_points"] += count
        elif name == "grid":
            t["grid_points"] += count
            t["grid_ns"] += d
        elif name == "find_invariant":
            t["seeds"] += count[0]
            t["failed_seeds"] += count[1]
            t["search_ns"] += d - kid_ns(i, {"validate"})
            t["search_self_ns"] += d - kid_ns(i)
        elif name == "integrate_flow":
            t["accepted_steps"] += count[0]
            t["rejected_steps"] += count[1] - count[0]
            t["integrate_ns"] += d - kid_ns(i, {"validate"})
        elif name == "evolve":
            t["resample_ns"] += d - kid_ns(i)
        elif name == "thinning_bound":
            t["thinning_ns"] += d
        elif name == "sample_path":
            t["jumps"] += count
            t["sample_ns"] += d - kid_ns(i, {"validate", "integrate_flow", "thinning_bound"})
        elif name == "certify_unique":
            t["unique_points"] += count
            t["unique_ns"] += d - kid_ns(i, {"validate"})
        elif name == "certify_ergodic_3":
            t["ergodic3_ns"] += d
            t["ergodic3_search_ns"] += kid_ns(i, {"find_invariant"})
        elif name == "divergence_batch":
            t["sweep_points"] += count
            t["sweep_ns"] += d
        elif name == "certify_ergodic_2":
            t["ergodic2_ns"] += d
        elif name == "write":
            t["write_ns"] += d
            t["write_bytes"] += count
        elif name == "cli":
            t["cli_ns"] += d
            t["cli_self_ns"] += d - kid_ns(i)
    return t


def per_layer(t: Counter, passes: int, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the totals of ``passes`` traced passes.

    Counts and ``ms`` figures are per pass; unit costs are totals over
    totals; a ``pass_share`` is the layer's time over the time spent in
    ``cli.main``.  A layer that did no work reports 0.
    """

    def ratio(a, b, scale=1.0):
        return t[a] * scale / t[b] if t[b] else 0.0

    def per_pass(key, scale=1.0):
        return t[key] * scale / passes

    ms = 1e-6
    return {
        "generator.rates.single_calls": (per_pass("single_calls"), "count"),
        "generator.rates.single_ns_per_point": (ratio("single_ns", "single_calls"), "ns"),
        "generator.rates.batched_points": (per_pass("batched_points"), "count"),
        "generator.rates.batched_ns_per_point": (ratio("batched_ns", "batched_points"), "ns"),
        "generator.validate.ms": (per_pass("validate_ns", ms), "ms"),
        "simplex.grid.points": (per_pass("grid_points"), "count"),
        "simplex.grid.ms": (per_pass("grid_ns", ms), "ms"),
        "stationary.search.seeds": (per_pass("seeds"), "count"),
        "stationary.search.ms_per_seed": (ratio("search_ns", "seeds", ms), "ms"),
        "stationary.search.rate_calls_per_seed": (ratio("search_rate_calls", "seeds"), "count"),
        "stationary.search.self_share": (ratio("search_self_ns", "search_ns"), "ratio"),
        "stationary.search.converged_ratio": (
            1.0 - ratio("failed_seeds", "seeds") if t["seeds"] else 0.0, "ratio"),
        "stationary.search.pass_share": (ratio("search_ns", "cli_ns"), "ratio"),
        "semigroup.integrate.accepted_steps": (per_pass("accepted_steps"), "count"),
        "semigroup.integrate.rejected_steps": (per_pass("rejected_steps"), "count"),
        "semigroup.integrate.us_per_accepted_step": (
            ratio("integrate_ns", "accepted_steps", 1e-3), "us"),
        "semigroup.integrate.rate_calls_per_accepted_step": (
            ratio("integrate_rate_calls", "accepted_steps"), "count"),
        "semigroup.integrate.pass_share": (
            (t["integrate_ns"] + t["resample_ns"]) / t["cli_ns"] if t["cli_ns"] else 0.0, "ratio"),
        "semigroup.evolve.resample_ms": (per_pass("resample_ns", ms), "ms"),
        "semigroup.thinning_bound.points": (per_pass("thinning_points"), "count"),
        "semigroup.thinning_bound.ms": (per_pass("thinning_ns", ms), "ms"),
        "semigroup.thinning_bound.pass_share": (ratio("thinning_ns", "cli_ns"), "ratio"),
        "semigroup.sample.proposals": (per_pass("proposals"), "count"),
        "semigroup.sample.jumps": (per_pass("jumps"), "count"),
        "semigroup.sample.accept_ratio": (ratio("jumps", "proposals"), "ratio"),
        "semigroup.sample.us_per_proposal": (ratio("sample_ns", "proposals", 1e-3), "us"),
        "certify.unique.points": (per_pass("unique_points"), "count"),
        "certify.unique.us_per_point": (ratio("unique_ns", "unique_points", 1e-3), "us"),
        "certify.ergodic3.search_share": (ratio("ergodic3_search_ns", "ergodic3_ns"), "ratio"),
        "certify.ergodic3.sweep_us_per_point": (ratio("sweep_ns", "sweep_points", 1e-3), "us"),
        "certify.ergodic2.ms": (per_pass("ergodic2_ns", ms), "ms"),
        "cli.self_ms": (per_pass("cli_self_ns", ms), "ms"),
        "cli.artifact.write_ms": (per_pass("write_ns", ms), "ms"),
        "cli.artifact.bytes": (per_pass("write_bytes"), "bytes"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
