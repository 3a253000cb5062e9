"""Self-check of the benchmark's tracing on constant chains.

Traced counts must equal counts computed without the tracer, which shows
that no call escapes through a name-imported binding; artifacts must not
change under tracing, and every binding must be restored afterwards.

Run from the repository root:  python3 -m pytest -q nlmcbench
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import nlmc  # noqa: E402
import nlmc.cli  # noqa: E402
import tracing  # noqa: E402

CHAINS = {
    2: [[-1.0, 1.0], [0.5, -0.5]],
    3: [[-1.0, 0.6, 0.4], [0.3, -0.8, 0.5], [0.2, 0.7, -0.9]],
}
HORIZON = 30.0
SEED = 3


def _traced(tracer, call):
    """Run ``call`` with the tracer installed; returns (result, totals)."""
    with tracer.installed():
        result = call()
    return result, tracing.totals(tracer.take())


def _proposal_count(q, m0, horizon, seed) -> int:
    """Thinning proposals of a constant chain, replayed from the seed: the
    dominating rate is 1.1 times the largest exit rate, the initial state
    takes one uniform draw, then exponential gaps come in blocks of 256."""
    bound = 1.1 * float(np.max(-np.diag(q)))
    rng = np.random.default_rng(seed)
    rng.random()
    gaps = []
    while sum(g.sum() for g in gaps) < horizon:
        gaps.append(rng.exponential(1.0 / bound, size=256))
    return int(np.count_nonzero(np.cumsum(np.concatenate(gaps)) <= horizon))


@pytest.mark.parametrize("states", sorted(CHAINS))
def test_traced_counts_match_independent_counts(states):
    q = np.array(CHAINS[states])
    m0 = np.full(states, 1.0 / states)
    tracer = tracing.Tracer()

    spec = nlmc.constant_generator(q)
    flow, t = _traced(tracer, lambda: nlmc.integrate_flow(spec, m0, HORIZON))
    assert t["validate_points"] == math.comb(20 + states - 1, states - 1)
    assert t["accepted_steps"] == len(flow.ts) - 1
    assert t["rejected_steps"] == flow.steps - (len(flow.ts) - 1)
    # One drift at the start, six per attempted step, one per accepted step.
    assert t["integrate_rate_calls"] == 1 + 6 * flow.steps + len(flow.ts) - 1

    spec = nlmc.constant_generator(q)
    grid = nlmc.SimplexGrid(states, 10)
    found, t = _traced(tracer, lambda: nlmc.find_invariant(spec, grid))
    assert t["seeds"] == len(grid) == found.seed_count
    assert t["search_rate_calls"] >= len(grid)

    direct = nlmc.sample_path(nlmc.constant_generator(q), m0, horizon=HORIZON, seed=SEED)
    spec = nlmc.constant_generator(q)
    path, t = _traced(tracer, lambda: nlmc.sample_path(spec, m0, horizon=HORIZON, seed=SEED))
    assert t["proposals"] == _proposal_count(q, m0, HORIZON, SEED)
    assert t["jumps"] == direct.jump_count == path.jump_count
    assert t["thinning_points"] == math.comb(50 + states - 1, states - 1)
    assert tracing.unpatched()


def test_name_imported_bindings_are_patched_and_restored():
    tracer = tracing.Tracer()
    originals = (nlmc.stationary.find_invariant, nlmc.semigroup.integrate_flow)
    with tracer.installed():
        for module in (nlmc, nlmc.certify, nlmc.cli):
            assert module.find_invariant is not originals[0]
        for module in (nlmc, nlmc.stationary):
            assert module.integrate_flow is not originals[1]
        assert getattr(nlmc.GeneratorSpec.rates_batch, "_traced", False)
    assert tracing.unpatched()
    assert nlmc.certify.find_invariant is nlmc.cli.find_invariant is originals[0]
    assert nlmc.stationary.integrate_flow is originals[1]


@pytest.mark.parametrize("states", sorted(CHAINS))
def test_artifacts_identical_with_tracing_on_and_off(states, tmp_path):
    generator = tmp_path / "chain.json"
    nlmc.save_generator(nlmc.constant_generator(CHAINS[states]), generator)
    m0 = ",".join(repr(1.0 / states) for _ in range(states))
    argvs = [
        ["simulate", "--generator-file", str(generator), "--m0", m0, "--horizon", "5"],
        ["sample", "--generator-file", str(generator), "--m0", m0, "--horizon", "5", "--seed", "1"],
        ["invariant", "--generator-file", str(generator), "--grid", "6"],
    ]
    if states == 3:
        argvs.append(["certify-unique", "--generator-file", str(generator), "--grid", "6"])
    tracer = tracing.Tracer()
    for n, argv in enumerate(argvs):
        plain, traced = tmp_path / f"plain-{n}", tmp_path / f"traced-{n}"
        assert nlmc.cli.main([*argv, "--out", str(plain)]) == 0
        code, t = _traced(tracer, lambda: nlmc.cli.main([*argv, "--out", str(traced)]))
        assert code == 0
        assert plain.read_bytes() == traced.read_bytes()
        assert t["write_bytes"] == traced.stat().st_size
    assert tracing.unpatched()
