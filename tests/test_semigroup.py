"""Marginal-flow integration, dense output, invariance audits, jump-path sampling."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import nlmc.semigroup
from nlmc import (
    Distribution,
    Flow,
    GeneratorSpec,
    IntegrationDivergedError,
    IntegratorControls,
    JumpPath,
    SimplexGrid,
    Trajectory,
    constant_generator,
    corpus,
    evolve,
    flow_invariance_audit,
    integrate_flow,
    polynomial_generator,
    sample_path,
    thinning_bound,
)

from helpers import CONSUMER_PARAMS, expm_oracle, random_rate_matrix, stationary_oracle

TIGHT = IntegratorControls(rtol=1e-10, atol=1e-12)


def _two_state_closed_form(a, b, m10, t):
    pi1 = b / (a + b)
    return pi1 + (m10 - pi1) * math.exp(-(a + b) * t)


class TestIntegratorControls:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            IntegratorControls(rtol=0.0)
        with pytest.raises(ValueError):
            IntegratorControls(atol=-1e-9)
        with pytest.raises(ValueError):
            IntegratorControls(sample_every=0.0)
        with pytest.raises(ValueError):
            IntegratorControls(max_steps=0)

    @pytest.mark.parametrize("field", ["rtol", "atol", "sample_every"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_values(self, field, value):
        # A NaN tolerance would reject every step until max_steps.
        with pytest.raises(ValueError, match="positive and finite"):
            IntegratorControls(**{field: value})


class TestIntegrateFlow:
    def test_two_state_constant_chain_matches_closed_form(self):
        a, b = 2.0, 1.0
        spec = constant_generator([[-a, a], [b, -b]])
        flow = integrate_flow(spec, (0.9, 0.1), 2.0, TIGHT)
        rng = np.random.default_rng(0)
        times = rng.uniform(0.0, 2.0, size=64)
        states = flow.at_many(times)
        expected = np.array([_two_state_closed_form(a, b, 0.9, t) for t in times])
        # Dense output interpolates between accepted steps, so its error is
        # a notch above the step-level tolerance.
        assert float(np.max(np.abs(states[:, 0] - expected))) < 1e-8

    def test_matches_matrix_exponential_on_random_chain(self):
        rng = np.random.default_rng(31)
        q = random_rate_matrix(rng, 3)
        m0 = (0.5, 0.2, 0.3)
        spec = constant_generator(q)
        flow = integrate_flow(spec, m0, 5.0, TIGHT)
        for t in (0.5, 1.0, 2.5, 5.0):
            assert float(np.max(np.abs(flow.at(t) - expm_oracle(q, m0, t)))) < 1e-8

    def test_flow_bookkeeping(self):
        spec = corpus("bistable")
        flow = integrate_flow(spec, (0.9, 0.1), 10.0)
        assert flow.ts[0] == 0.0
        assert flow.ts[-1] == 10.0
        assert flow.steps > 0
        assert flow.generator_id == spec.generator_id
        assert float(np.max(np.abs(flow.ys.sum(axis=1) - 1.0))) < 1e-12
        assert flow.max_drift <= 1e-9

    def test_dense_output_clips_to_the_horizon(self):
        spec = corpus("bistable")
        flow = integrate_flow(spec, (0.9, 0.1), 1.0)
        assert np.array_equal(flow.at(-0.5), flow.at(0.0))
        assert np.array_equal(flow.at(7.0), flow.at(1.0))

    def test_rejects_bad_horizon(self):
        spec = corpus("bistable")
        with pytest.raises(ValueError):
            integrate_flow(spec, (0.5, 0.5), 0.0)
        with pytest.raises(ValueError):
            integrate_flow(spec, (0.5, 0.5), 2e6)

    def test_max_steps_exhaustion_raises(self):
        spec = corpus("oscillator")
        with pytest.raises(IntegrationDivergedError):
            integrate_flow(spec, (0.2, 0.4, 0.4), 10.0, IntegratorControls(max_steps=3))

    def test_grid_aligned_mass_leak_is_caught_at_integration_time(self):
        # The leak vanishes at every multiple of 1/20, so grid validation
        # passes, but the flow crosses the leak and the projection budget
        # (1e-6) catches the stray mass.
        def batch(points):
            n = points.shape[0]
            q = np.zeros((n, 2, 2))
            q[:, 0, 1] = 1.0 + 0.3 * np.sin(20.0 * np.pi * points[:, 0]) ** 2
            q[:, 0, 0] = -1.0
            q[:, 1, 0] = 1.0
            q[:, 1, 1] = -1.0
            return q

        spec = GeneratorSpec(2, "builtin", batch, name="grid-aligned-leak")
        with pytest.raises(IntegrationDivergedError):
            evolve(spec, (0.3, 0.7), 5.0)


FIG2_STARTS = (0.05, 0.2, 0.3, 0.45, 0.55, 0.6, 0.7, 0.9)


class TestFlowRows:
    @pytest.mark.parametrize(
        "spec, starts, horizon",
        [
            pytest.param(corpus("bistable"), [(s, 1.0 - s) for s in FIG2_STARTS], 50.0, id="bistable-fig2"),
            # Cells with coefficients other than 1.
            pytest.param(
                corpus("consumer", {"b": 2.0, "e": 3.0, "eps": 0.05, "lam": 0.5}),
                np.random.default_rng(41).dirichlet(np.ones(3), size=5),
                20.0,
                id="consumer-skewed",
            ),
            # Rates with kinks.
            pytest.param(
                corpus("oscillator"),
                [(0.5, 0.3, 0.2), *np.random.default_rng(42).dirichlet(np.ones(3), size=4)],
                12.0,
                id="oscillator",
            ),
        ],
    )
    def test_a_row_gets_the_same_bits_as_its_single_start_call(self, spec, starts, horizon):
        flow = integrate_flow(spec, np.array(starts), horizon)
        assert len(flow.offsets) == len(starts) + 1
        assert len(set(flow.row_steps)) > 1, "rows should finish at different step counts"
        assert flow.steps == sum(flow.row_steps)
        assert flow.max_drift == max(flow.row_drifts)
        for i, start in enumerate(starts):
            alone, row = integrate_flow(spec, start, horizon), flow.row(i)
            for name in ("ts", "ys", "fs"):
                assert np.array_equal(getattr(row, name), getattr(alone, name))
            assert (row.steps, row.max_drift) == (alone.steps, alone.max_drift)
        trajectories = evolve(spec, starts, horizon)
        assert len(trajectories) == len(starts)
        for start, trajectory in zip(starts, trajectories):
            alone = evolve(spec, start, horizon)
            assert trajectory.to_csv_text() == alone.to_csv_text()
            assert trajectory.max_drift == alone.max_drift

    def test_one_start_is_a_one_row_flow(self):
        spec = corpus("bistable")
        flow = integrate_flow(spec, (0.3, 0.7), 5.0)
        assert flow.offsets == (0, len(flow.ts))
        assert (flow.row_steps, flow.row_drifts) == ((flow.steps,), (flow.max_drift,))
        row = flow.row(0)
        assert np.array_equal(row.ts, flow.ts) and row.steps == flow.steps
        assert isinstance(evolve(spec, Distribution((0.3, 0.7)), 5.0), Trajectory)

    def test_a_stacked_flow_interpolates_only_row_by_row(self):
        spec = corpus("bistable")
        flow = integrate_flow(spec, [(0.3, 0.7), (0.6, 0.4)], 5.0)
        with pytest.raises(ValueError, match="row"):
            flow.at(1.0)
        assert np.array_equal(flow.row(1).at(1.0), integrate_flow(spec, (0.6, 0.4), 5.0).at(1.0))

    def test_rejects_an_empty_stack(self):
        with pytest.raises(ValueError):
            integrate_flow(corpus("bistable"), np.empty((0, 2)), 1.0)


class TestEvolve:
    def test_sampling_grid(self):
        spec = corpus("bistable")
        traj = evolve(spec, (0.9, 0.1), 2.0, IntegratorControls(sample_every=0.5))
        assert np.allclose(traj.times, [0.0, 0.5, 1.0, 1.5, 2.0], atol=0.0)
        assert traj.states.shape == (5, 2)
        default = evolve(spec, (0.9, 0.1), 1.0)
        assert len(default) == 1001

    def test_states_are_valid_distributions(self):
        spec = corpus("consumer", CONSUMER_PARAMS)
        traj = evolve(spec, (1.0, 0.0, 0.0), 20.0)
        assert float(traj.states.min()) >= 0.0
        assert float(np.max(np.abs(traj.states.sum(axis=1) - 1.0))) < 1e-12
        assert isinstance(traj.final, Distribution)
        assert np.array_equal(traj.final.probs, traj.state(len(traj) - 1).probs)

    def test_deterministic_artifacts(self):
        spec = corpus("bistable")
        one = evolve(spec, (0.6, 0.4), 5.0).to_csv_text()
        two = evolve(spec, (0.6, 0.4), 5.0).to_csv_text()
        assert one == two

    def test_csv_round_trip(self, tmp_path):
        spec = corpus("bistable")
        traj = evolve(spec, (0.9, 0.1), 1.0, IntegratorControls(sample_every=0.25))
        text = traj.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "t,m_1,m_2"
        assert len(lines) == 1 + len(traj)
        path = tmp_path / "trajectory.csv"
        traj.to_csv(path)
        assert path.read_text(encoding="utf-8") == text
        parsed = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(parsed[:, 0], traj.times)
        assert np.array_equal(parsed[:, 1:], traj.states)


    def test_csv_text_matches_a_per_float_oracle(self):
        awkward = [5e-324, -0.0, 1e-300, 1.0 / 3.0, 1e17]
        times = np.array(awkward)
        states = np.array([awkward[k:] + awkward[:k] for k in range(5)])[:, :3]
        traj = Trajectory(generator_id="manual", times=times, states=states)
        expected = "t,m_1,m_2,m_3\n" + "".join(
            ",".join(f"{x:.17g}" for x in (t, *row)) + "\n" for t, row in zip(times, states)
        )
        assert traj.to_csv_text() == expected

        path = JumpPath(
            generator_id="manual",
            seed=0,
            horizon=1e18,
            initial_state=2,
            jump_times=times,
            states_visited=np.array([0, 1, 2, 1, 0]),
        )
        expected = "t,state\n0,3\n" + "".join(
            f"{t:.17g},{s + 1}\n" for t, s in zip(awkward, (0, 1, 2, 1, 0))
        )
        assert path.to_csv_text() == expected


class TestInvarianceAudit:
    def test_corpus_trajectories_audit_clean(self):
        runs = (
            (corpus("bistable"), (0.9, 0.1), 50.0),
            (corpus("oscillator"), (0.2, 0.4, 0.4), 4.0 * math.pi),
            (corpus("consumer", CONSUMER_PARAMS), (1.0, 0.0, 0.0), 50.0),
        )
        for spec, m0, horizon in runs:
            traj = evolve(spec, m0, horizon)
            report = flow_invariance_audit(traj, spec)
            assert report.clean
            assert report.states_checked == len(traj)
            assert report.findings == ()
            assert report.worst_negative_entry >= -1e-9
            assert report.worst_mass_defect <= 1e-9

    def test_fabricated_violations_are_reported(self):
        spec = corpus("bistable")
        times = np.array([0.0, 1.0])
        states = np.array([[1.2, -0.2], [0.6, 0.39]])
        report = flow_invariance_audit(
            Trajectory(generator_id="fabricated", times=times, states=states), spec
        )
        assert not report.clean
        assert report.states_checked == 2
        assert report.worst_negative_entry == pytest.approx(-0.2)
        assert report.worst_mass_defect == pytest.approx(0.01)
        messages = " | ".join(f.message for f in report.findings)
        assert "below" in messages
        assert "mass" in messages


class TestThinningBound:
    def test_bistable_bound_is_headroom_times_peak_exit_rate(self):
        # Exit rates peak at m1 = 0: q12 = 22/3; the bound adds 10% headroom.
        assert thinning_bound(corpus("bistable")) == pytest.approx(1.1 * 22.0 / 3.0, rel=1e-12)

    def test_constant_chain_bound(self):
        spec = constant_generator([[-2.0, 2.0], [0.5, -0.5]])
        assert thinning_bound(spec) == pytest.approx(2.2, rel=1e-12)

    def test_bound_cache_does_not_keep_a_dropped_spec_alive(self):
        spec = constant_generator([[-2.0, 2.0], [0.5, -0.5]])
        sample_path(spec, (0.5, 0.5), horizon=1.0, seed=3)
        ref = weakref.ref(spec)
        del spec
        gc.collect()
        assert ref() is None


class TestSamplePath:
    def test_deterministic_per_seed(self):
        spec = corpus("bistable")
        one = sample_path(spec, (0.9, 0.1), horizon=20.0, seed=42)
        two = sample_path(spec, (0.9, 0.1), horizon=20.0, seed=42)
        assert one.initial_state == two.initial_state
        assert np.array_equal(one.jump_times, two.jump_times)
        assert np.array_equal(one.states_visited, two.states_visited)
        other = sample_path(spec, (0.9, 0.1), horizon=20.0, seed=43)
        assert one.jump_count != other.jump_count or not np.array_equal(
            one.jump_times, other.jump_times
        )

    def test_precomputed_flow_gives_identical_path(self):
        spec = corpus("bistable")
        flow = integrate_flow(spec, (0.9, 0.1), 20.0)
        direct = sample_path(spec, (0.9, 0.1), horizon=20.0, seed=7)
        reused = sample_path(spec, (0.9, 0.1), horizon=20.0, seed=7, flow=flow)
        assert direct.initial_state == reused.initial_state
        assert np.array_equal(direct.jump_times, reused.jump_times)
        assert np.array_equal(direct.states_visited, reused.states_visited)

    def test_block_size_does_not_change_the_path(self, monkeypatch):
        spec = corpus("consumer", {"b": 2.0, "e": 3.0, "eps": 0.05, "lam": 0.5})
        flow = integrate_flow(spec, (0.2, 0.3, 0.5), 2000.0)
        default = sample_path(spec, (0.2, 0.3, 0.5), horizon=2000.0, seed=5, flow=flow)
        assert thinning_bound(spec) * 2000.0 > 2 * nlmc.semigroup.THINNING_BLOCK
        assert default.jump_count > 100
        for size in (7, 10**9):
            monkeypatch.setattr(nlmc.semigroup, "THINNING_BLOCK", size)
            other = sample_path(spec, (0.2, 0.3, 0.5), horizon=2000.0, seed=5, flow=flow)
            assert np.array_equal(default.jump_times, other.jump_times)
            assert np.array_equal(default.states_visited, other.states_visited)

    def test_thinning_holds_one_block_of_rates_not_every_proposal(self):
        q = random_rate_matrix(np.random.default_rng(31), 4)
        spec = constant_generator(q)
        proposals = 40_000
        horizon = proposals / thinning_bound(spec)
        # Started at its stationary law, a constant chain's marginal flow stands still.
        pi = stationary_oracle(q)
        flow = Flow(spec.generator_id, horizon, np.array([0.0, horizon]), np.stack([pi, pi]),
                    np.zeros((2, 4)), 0.0, 1)
        tracemalloc.start()
        try:
            path = sample_path(spec, pi, horizon=horizon, seed=1, flow=flow)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.jump_count > 0
        assert peak < proposals * 4 * 4 * 8  # one (n, S, S) rates array

    def test_path_structure(self):
        spec = corpus("bistable")
        path = sample_path(spec, (0.5, 0.5), horizon=30.0, seed=3)
        assert path.horizon == 30.0
        assert path.initial_state in (0, 1)
        assert path.jump_count == path.jump_times.size == path.states_visited.size
        assert np.all(np.diff(path.jump_times) > 0.0)
        assert path.jump_times[0] > 0.0
        assert path.jump_times[-1] <= 30.0
        holders = np.concatenate(([path.initial_state], path.states_visited))
        assert np.all(np.diff(holders) != 0)
        total = path.occupation_time(0) + path.occupation_time(1)
        assert total == pytest.approx(30.0, abs=1e-9)

    def test_initial_state_handling(self):
        spec = corpus("bistable")
        forced = sample_path(spec, (0.1, 0.9), initial_state=0, horizon=5.0, seed=1)
        assert forced.initial_state == 0
        drawn = sample_path(spec, (1.0, 0.0), horizon=5.0, seed=9)
        assert drawn.initial_state == 0
        with pytest.raises(ValueError):
            sample_path(spec, (0.5, 0.5), initial_state=5, horizon=5.0)
        with pytest.raises(ValueError):
            sample_path(spec, (0.5, 0.5), horizon=0.0)

    def test_state_at_and_occupation_on_manual_path(self):
        path = JumpPath(
            generator_id="manual",
            seed=0,
            horizon=3.0,
            initial_state=0,
            jump_times=np.array([1.0, 2.0]),
            states_visited=np.array([1, 0]),
        )
        assert path.state_at(0.0) == 0
        assert path.state_at(0.5) == 0
        assert path.state_at(1.0) == 1
        assert path.state_at(1.5) == 1
        assert path.state_at(2.0) == 0
        assert path.state_at(3.0) == 0
        assert path.occupation_time(0) == pytest.approx(2.0)
        assert path.occupation_time(1) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            path.state_at(-0.1)
        with pytest.raises(ValueError):
            path.state_at(3.1)

    def test_csv_uses_one_based_states(self):
        path = JumpPath(
            generator_id="manual",
            seed=0,
            horizon=3.0,
            initial_state=0,
            jump_times=np.array([1.5]),
            states_visited=np.array([1]),
        )
        lines = path.to_csv_text().strip().split("\n")
        assert lines[0] == "t,state"
        assert lines[1] == "0,1"
        assert lines[2] == "1.5,2"

    def test_jump_law_matches_constant_chain(self):
        # Symmetric two-state chain at rate 1: P(X_t = X_0) = (1 + exp(-2t)) / 2.
        spec = constant_generator([[-1.0, 1.0], [1.0, -1.0]])
        horizon = 0.7
        flow = integrate_flow(spec, (0.5, 0.5), horizon)
        stay = sum(
            sample_path(
                spec, (0.5, 0.5), initial_state=0, horizon=horizon, seed=seed, flow=flow
            ).state_at(horizon)
            == 0
            for seed in range(2000)
        )
        expected = 0.5 * (1.0 + math.exp(-2.0 * horizon))
        assert abs(stay / 2000.0 - expected) < 0.03

    def test_offgrid_rate_spike_forces_bound_doubling(self):
        # Drift is identically zero, so the marginal stays at m1 = 0.505
        # where the exit rate is about 50; the resolution-50 bound grid only
        # sees rates near 2, so the sampler must double its way up.
        def batch(points):
            m1 = points[:, 0]
            g = 1.0 + 50.0 * np.exp(-((m1 - 0.505) ** 2) / 1e-6)
            q = np.zeros((points.shape[0], 2, 2))
            q[:, 0, 1] = 2.0 * (1.0 - m1) * g
            q[:, 1, 0] = 2.0 * m1 * g
            q[:, 0, 0] = -q[:, 0, 1]
            q[:, 1, 1] = -q[:, 1, 0]
            return q

        spec = GeneratorSpec(2, "builtin", batch, name="offgrid-spike")
        assert thinning_bound(spec) < 3.0
        path = sample_path(spec, (0.505, 0.495), horizon=1.0, seed=5)
        assert path.jump_count > 20
        again = sample_path(spec, (0.505, 0.495), horizon=1.0, seed=5)
        assert np.array_equal(path.jump_times, again.jump_times)

    def test_chain_without_rates_never_jumps(self):
        spec = polynomial_generator(2, {})
        path = sample_path(spec, (0.0, 1.0), horizon=5.0, seed=1)
        assert path.initial_state == 1
        assert path.jump_count == 0
        assert path.states_visited.dtype.kind == "i"
        assert path.occupation_time(1) == 5.0

    def test_proposal_count_over_the_cap_is_refused_before_integrating(self, monkeypatch):
        # Rates of 100 over 1e6 time units would hold about 1.1e8 proposals at once.
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated before checking the proposal count")

        monkeypatch.setattr(nlmc.semigroup, "integrate_flow", no_integration)
        spec = constant_generator([[-100.0, 100.0], [100.0, -100.0]])
        with pytest.raises(ValueError, match=r"110000000 proposals, above the cap 1000000"):
            sample_path(spec, (0.5, 0.5), horizon=1e6)

    def test_proposal_cap_is_checked_again_at_each_doubling(self, monkeypatch):
        # With the bound exceeded on every attempt, 1.1 x 2^k x 1e5 passes the
        # cap for k = 0..3 and fails at k = 4, before a fifth attempt.
        attempts = []

        def always_exceeded(spec, flow, start, horizon, bound, rng):
            attempts.append(bound)
            return None

        monkeypatch.setattr(nlmc.semigroup, "integrate_flow", lambda *args, **kwargs: None)
        monkeypatch.setattr(nlmc.semigroup, "_thin_path", always_exceeded)
        spec = constant_generator([[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(ValueError, match="1760000 proposals, above the cap 1000000"):
            sample_path(spec, (0.5, 0.5), horizon=1e5)
        assert len(attempts) == 4
