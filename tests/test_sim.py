"""Repeated-game engine: discounting, determinism, and published patterns."""

from dataclasses import replace

import numpy as np
import pytest

import slotshare as ss
from slotshare import equilibrium as eq
from slotshare import sim
from slotshare.sim import _Engine


def scenario(slots, na=5, nt=5, alpha=0.9, p_r=0.5, **kw):
    return ss.ScenarioParams(ss.NetworkSizes(na, nt), slots, alpha=alpha, p_r=p_r, **kw)


class TestDiscounting:
    @pytest.mark.parametrize("mode", [ss.Mode.COMPETITIVE, ss.Mode.COOPERATIVE])
    def test_payoff_recomputes_from_stage_stream(self, mode, small_collision):
        params = scenario(small_collision)
        config = ss.RunConfig(params, 400, mode, seed=11)
        run = (ss.run_competition if mode is ss.Mode.COMPETITIVE else ss.run_cooperation)(config)
        weights = (1.0 - params.alpha) * params.alpha ** np.arange(400)
        assert abs(run.u_aon_discounted - float(weights @ run.stages.u_aon)) < 1e-12
        assert abs(run.u_ton_discounted - float(weights @ run.stages.u_ton)) < 1e-12

    def test_geometric_identity_in_degenerate_run(self, large_collision):
        # Long collisions with a lone TON node force tau_aon*=0, tau_ton*=1:
        # the TON succeeds every stage and earns a constant payoff.
        params = scenario(large_collision, na=1, nt=1, alpha=0.9)
        run = ss.run_competition(ss.RunConfig(params, 300, ss.Mode.COMPETITIVE, seed=5))
        expected = (1.0 - 0.9**300) * large_collision.success
        assert abs(run.u_ton_discounted - expected) < 1e-12
        assert np.all(run.stages.events == ss.sim.EVENT_SUCCESS_TON)


class TestDeterminism:
    def test_thread_count_does_not_change_aggregates(self, equal_slots):
        config = ss.RunConfig(scenario(equal_slots), 80, ss.Mode.COOPERATIVE, seed=99)
        results = [ss.monte_carlo(config, 300, threads=t) for t in (1, 4, 16)]
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one_rejected(self, threads, equal_slots):
        config = ss.RunConfig(scenario(equal_slots), 5, ss.Mode.COMPETITIVE, seed=1)
        with pytest.raises(ss.ConfigurationError, match="thread"):
            ss.monte_carlo(config, 10, threads=threads)

    def test_chunk_size_does_not_change_aggregates(self, equal_slots, monkeypatch):
        config = ss.RunConfig(scenario(equal_slots), 60, ss.Mode.COMPETITIVE, seed=42)
        monkeypatch.setattr(sim, "_DEFAULT_CHUNK", 7)
        a = ss.monte_carlo(config, 250)
        monkeypatch.setattr(sim, "_DEFAULT_CHUNK", 1024)
        b = ss.monte_carlo(config, 250)
        assert a == b

    def test_single_run_matches_batch_entry(self, small_collision):
        config = ss.RunConfig(scenario(small_collision), 150, ss.Mode.COMPETITIVE, seed=3)
        single = ss.run_competition(config)
        agg = ss.monte_carlo(config, 1)
        assert agg.u_aon_mean == single.u_aon_discounted
        assert agg.u_ton_mean == single.u_ton_discounted
        assert agg.u_aon_se == 0.0
        assert agg.n_runs == 1


class TestUniformStream:
    # 1024 runs of width 11 leave a block of a few dozen stages: per run and
    # stage the block holds a raw row, its stage-major copy and 4 statistics.
    N_RUNS = 1024
    BLOCK = sim._BLOCK_BYTES // (8 * (2 * 11 + 4) * N_RUNS)

    @pytest.mark.parametrize(
        "n_stages",
        [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3],
        ids=["1", "block-1", "block", "block+1", "2block+3"],
    )
    def test_blocks_concatenate_to_one_draw(self, n_stages, equal_slots, monkeypatch):
        engine = _Engine(scenario(equal_slots))
        assert engine.width == 11 and 1 < self.BLOCK < 200
        blocks = []
        draw = _Engine.uniforms

        def record(self, generators, buf, n):
            block = draw(self, generators, buf, n)
            blocks.append(block.copy())
            return block

        monkeypatch.setattr(_Engine, "uniforms", record)
        # Each draw is a view into the reused block buffers: copy it when yielded.
        draws = [
            (d.stats.copy(), d.aon.copy())
            for d in engine.stage_rows(21, range(self.N_RUNS), n_stages)
        ]
        stats = np.stack([s for s, _ in draws], axis=1)
        aon = np.stack([a for _, a in draws], axis=1)
        assert [b.shape[1] for b in blocks[:-1]] == [self.BLOCK] * (len(blocks) - 1)
        assert 1 <= blocks[-1].shape[1] <= self.BLOCK
        streamed = np.concatenate(blocks, axis=1)
        # The two smallest AON and the two smallest TON draws, then the device draw.
        smallest = [
            np.sort(streamed[..., nodes], axis=-1)[..., :2] for nodes in (slice(1, 6), slice(6, 11))
        ]
        expected = np.concatenate([*smallest, streamed[..., :1]], axis=-1)
        assert np.array_equal(stats, expected.transpose(2, 1, 0))
        assert np.array_equal(aon, streamed[..., 1:6])
        for run in (0, 517, self.N_RUNS - 1):
            whole = ss.run_generator(21, run).random((n_stages, 11))
            assert np.array_equal(streamed[run], whole)


def counted_slot(engine, ages, urow, tau_a, tau_t):
    """The slot step that counted transmitters per row, kept as the reference."""
    ta = urow[:, 1 : 1 + engine.n_aon] < tau_a[:, None]
    tt = urow[:, 1 + engine.n_aon :] < tau_t[:, None]
    k_a = ta.sum(axis=1)
    k_t = tt.sum(axis=1)
    total = k_a + k_t
    ages += np.where(
        total == 0,
        engine.slots.idle,
        np.where(total >= 2, engine.slots.collision, engine.slots.success),
    )[:, None]
    resets = (k_a == 1) & (k_t == 0)
    if resets.any():
        rows = np.nonzero(resets)[0]
        ages[rows, ta[rows].argmax(axis=1)] = engine.slots.success
    return k_a, k_t


def counted_events(k_a, k_t):
    """Recorded event codes of unclipped transmitter counts, one mask per event."""
    events = np.full(k_a.shape, sim.EVENT_COLLISION, dtype=np.int8)
    events[(k_a == 0) & (k_t == 0)] = sim.EVENT_IDLE
    events[(k_a == 1) & (k_t == 0)] = sim.EVENT_SUCCESS_AON
    events[(k_a == 0) & (k_t == 1)] = sim.EVENT_SUCCESS_TON
    return events


class TestSlotOrderStatistics:
    ROWS = 3000

    def inputs(self, engine, rng):
        """Raw uniforms, per-row AON and TON taus with ties, duplicates and edge values."""
        urow = rng.random((self.ROWS, engine.width))
        tau_a = rng.choice([-1.0, 0.0, 1.0, 0.2, 0.5, 0.8], self.ROWS)
        tau_t = rng.choice([-1.0, 0.0, 1.0, 0.3, 0.6], self.ROWS)
        nodes_a, nodes_t = urow[:, 1 : 1 + engine.n_aon], urow[:, 1 + engine.n_aon :]
        # Draws set exactly equal to tau: a node at tau stays silent.
        tie = rng.random(nodes_a.shape) < 0.2
        nodes_a[tie] = np.broadcast_to(tau_a[:, None], nodes_a.shape)[tie]
        tie = rng.random(nodes_t.shape) < 0.2
        nodes_t[tie] = np.broadcast_to(tau_t[:, None], nodes_t.shape)[tie]
        # Duplicated draws within a network: both nodes transmit or neither.
        for nodes in (nodes_a, nodes_t):
            if nodes.shape[1] > 1:
                dup = rng.random(self.ROWS) < 0.3
                nodes[dup, -1] = nodes[dup, 0]
        return urow, tau_a, tau_t

    @pytest.mark.parametrize("na", [1, 2, 5, 10])
    @pytest.mark.parametrize("nt", [1, 2, 5])
    def test_matches_counting_transmitters(self, na, nt, small_collision):
        engine = _Engine(scenario(small_collision, na=na, nt=nt))
        rng = np.random.default_rng(100 * na + nt)
        urow, tau_a, tau_t = self.inputs(engine, rng)
        [draw] = engine.draws(urow[:, None])
        start = rng.choice([0.5, 1.5, 3.0], (self.ROWS, na))
        constant = (np.full(self.ROWS, t) for t in (engine.tau_ton_star, tau_t[0]))
        for tau_t_case in (tau_t, *constant):
            ref_ages, ages = start.copy(), start.copy()
            ref = counted_slot(engine, ref_ages, urow, tau_a, tau_t_case)
            code = engine.slot(ages, draw, tau_a, tau_t_case)
            k_a, k_t = np.divmod(code, 3)
            assert np.array_equal(ages, ref_ages)
            assert np.array_equal(k_a, np.minimum(ref[0], 2))
            assert np.array_equal(k_t, np.minimum(ref[1], 2))
            assert np.array_equal(engine.event_by_code[code], counted_events(*ref))
        # One draw replays each run in every copy of column-major ages.
        copies = 3
        ref_ages = np.tile(start, (copies, 1))
        ages = ref_ages.copy(order="F")
        taus = np.tile(tau_a, copies), np.tile(tau_t, copies)
        ref = counted_slot(engine, ref_ages, np.tile(urow, (copies, 1)), *taus)
        code = engine.slot(ages, draw, *taus)
        assert np.array_equal(ages, ref_ages)
        assert np.array_equal(engine.event_by_code[code], counted_events(*ref))


def test_column_sum_mean_is_numpy_row_mean():
    # The network age sums the columns of column-major ages in numpy's
    # pairwise order: sequential below 8 nodes, 8 partial sums to 128, halves
    # above.  Magnitudes from 1e-8 to 1e8, some negative, expose any change
    # in the order of additions.
    rng = np.random.default_rng(5)
    for n_aon in range(1, 131):
        rows = 67
        ages = rng.random((rows, n_aon)) * 10.0 ** rng.integers(-8, 9, (rows, n_aon))
        ages[rng.random(ages.shape) < 0.2] *= -1.0
        expected = ages.mean(axis=1)
        got = sim._column_sum(np.asfortranarray(ages)) / n_aon
        assert np.array_equal(got.view(np.int64), expected.view(np.int64)), n_aon


class TestCompetitiveRuns:
    def test_two_singletons_short_collisions_always_transmit(self, small_collision):
        params = scenario(small_collision, na=1, nt=1)
        run = ss.run_competition(ss.RunConfig(params, 200, ss.Mode.COMPETITIVE, seed=1))
        assert run.freq_tau_one == 1.0
        assert run.freq_tau_zero == 0.0

    def test_two_singletons_long_collisions_never_transmit(self, large_collision):
        params = scenario(large_collision, na=1, nt=1)
        run = ss.run_competition(ss.RunConfig(params, 200, ss.Mode.COMPETITIVE, seed=1))
        assert run.freq_tau_zero == 1.0

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_aggressive_opening_streak(self, seed, small_collision):
        # From the reset age, all-transmit collisions grow the network age
        # deterministically until it crosses the threshold, so the opening
        # tau=1 streak and the first interior value are seed-independent.
        params = scenario(small_collision)
        run = ss.run_competition(ss.RunConfig(params, 60, ss.Mode.COMPETITIVE, seed=seed))
        taus = run.stages.tau_aon
        first_interior = int(np.argmax(taus < 1.0))
        assert first_interior >= 30
        assert taus[first_interior] == pytest.approx(0.9295, abs=1e-4)

    def test_mode_mismatch_rejected(self, small_collision):
        config = ss.RunConfig(scenario(small_collision), 10, ss.Mode.COOPERATIVE, seed=1)
        with pytest.raises(ss.ConfigurationError):
            ss.run_competition(config)

    def test_silence_frequency_grows_with_network_size(self, equal_slots):
        aggs = []
        for n in (2, 5):
            params = scenario(equal_slots, na=n, nt=n)
            config = ss.RunConfig(params, 200, ss.Mode.COMPETITIVE, seed=2024)
            aggs.append(ss.monte_carlo(config, 1000))
        small, large = aggs
        pooled = np.hypot(small.freq_tau_zero_se, large.freq_tau_zero_se)
        assert large.freq_tau_zero_mean - small.freq_tau_zero_mean > 2.0 * pooled


class TestCooperativeRuns:
    def test_zero_bias_never_selects_aon(self, equal_slots):
        params = scenario(equal_slots, p_r=0.0)
        run = ss.run_cooperation(ss.RunConfig(params, 300, ss.Mode.COOPERATIVE, seed=9))
        assert run.freq_tau_one == 0.0 and run.freq_tau_zero == 0.0
        assert not np.any(run.stages.events == ss.sim.EVENT_SUCCESS_AON)
        assert not np.any(run.stages.aon_selected)

    def test_full_bias_never_selects_ton(self, equal_slots):
        params = scenario(equal_slots, p_r=1.0)
        run = ss.run_cooperation(ss.RunConfig(params, 300, ss.Mode.COOPERATIVE, seed=9))
        assert run.u_ton_discounted == 0.0
        assert not np.any(run.stages.events == ss.sim.EVENT_SUCCESS_TON)

    def test_full_bias_lone_aon_node_resets_every_stage(self, equal_slots):
        # One AON node holding the channel transmits with probability 1 and
        # its age comes back to the success-slot length after every stage.
        params = scenario(equal_slots, na=1, nt=3, p_r=1.0)
        run = ss.run_cooperation(ss.RunConfig(params, 100, ss.Mode.COOPERATIVE, seed=4))
        assert np.all(run.stages.events == ss.sim.EVENT_SUCCESS_AON)
        assert run.final_ages.ages.tolist() == [equal_slots.success]
        assert run.freq_tau_one == 1.0

    def test_device_prevents_cross_network_collisions(self, equal_slots):
        # With one node per network any collision would have to involve both
        # networks; under the device none may occur.
        params = scenario(equal_slots, na=1, nt=1)
        run = ss.run_cooperation(ss.RunConfig(params, 500, ss.Mode.COOPERATIVE, seed=21))
        assert not np.any(run.stages.events == ss.sim.EVENT_COLLISION)

    def test_equal_slots_aon_never_aggressive_sometimes_silent(self, equal_slots):
        params = scenario(equal_slots)
        run = ss.run_cooperation(ss.RunConfig(params, 300, ss.Mode.COOPERATIVE, seed=4))
        selected = run.stages.aon_selected
        assert np.all(run.stages.tau_aon[selected] < 1.0)
        assert np.any(run.stages.tau_aon[selected] == 0.0)
        assert run.freq_tau_one == 0.0
        assert run.freq_tau_zero > 0.0


class TestRealizedVersusExpected:
    def test_frozen_profile_slot_statistics(self, small_collision):
        # 1e5 sampled slots at a frozen profile; realized means must match the
        # closed-form stage payoffs within four standard errors.
        params = scenario(small_collision, na=3, nt=4)
        engine = _Engine(params)
        profile = ss.AccessProfile(0.3, 0.25)
        draws = 100_000
        rng = np.random.default_rng(123)
        uniforms = rng.random((draws, engine.width))
        [draw] = engine.draws(uniforms[:, None])
        prior = 2.0
        ages = np.full((draws, 3), prior)
        code = engine.slot(ages, draw, np.full(draws, 0.3), np.full(draws, 0.25))
        k_a, k_t = np.divmod(code, 3)
        realized_thr = np.where((k_t == 1) & (k_a == 0), engine.ton_payout, 0.0)
        realized_age = ages.mean(axis=1)
        expected = ss.expected_stage_payoffs(
            params.sizes, small_collision, profile, prior, params.rate
        )
        for sample, target in ((realized_thr, expected.u_ton), (realized_age, -expected.u_aon)):
            se = sample.std(ddof=1) / np.sqrt(draws)
            assert abs(sample.mean() - target) <= 4.0 * se

    @pytest.mark.parametrize("mode", [ss.Mode.COMPETITIVE, ss.Mode.COOPERATIVE])
    def test_expected_payoff_accumulation_agrees(self, mode, equal_slots):
        # On the same trajectories, the discounted sum of each stage's expected
        # payoff given its pre-slot network age must agree statistically with
        # the realized payoffs that monte_carlo accumulates.
        params = scenario(equal_slots)
        n_runs, n_stages = 400, 150
        realized = ss.monte_carlo(ss.RunConfig(params, n_stages, mode, seed=31), n_runs)
        engine = _Engine(params)
        p_r = None if mode is ss.Mode.COMPETITIVE else params.p_r
        weights = sim._discount_weights([params.alpha], n_stages)
        state = sim._simulate_batch(engine, 31, range(n_runs), [p_r], weights, record=True)
        # The recorded batch replays monte_carlo's runs.
        assert state.frequencies()[0].mean() == realized.freq_tau_one_mean
        assert state.frequencies()[1].mean() == realized.freq_tau_zero_mean
        rec, sizes, tau_t = state.streams, params.sizes, engine.tau_ton_star
        # Pre-slot network ages: the initial age, then each stage's post-slot age.
        delta = np.hstack([np.full((n_runs, 1), params.initial_age), -rec["u_aon"][:, :-1]])
        stage_aon = -eq._stage_age(rec["tau_aon"], tau_t, sizes, equal_slots, delta, p_r=p_r)
        stage_ton = eq._stage_throughput(
            rec["tau_aon"], tau_t, sizes, equal_slots, params.rate, p_r=p_r
        )
        for field, stage in (("u_aon", stage_aon), ("u_ton", stage_ton)):
            # Cooperative throughput does not depend on the state: a scalar.
            expected = np.broadcast_to(stage, delta.shape) @ weights[:, 0]
            e_mean, e_se = expected.mean(), expected.std(ddof=1) / np.sqrt(n_runs)
            r_mean, r_se = getattr(realized, field + "_mean"), getattr(realized, field + "_se")
            assert abs(r_mean - e_mean) <= max(4.0 * (r_se + e_se), 1e-12)


class TestGain:
    def test_self_comparison_is_exactly_zero(self, small_collision):
        # Copies of one mode replay the same run streams, so comparing
        # cooperation against itself gains exactly zero, run by run.
        payoffs, freqs, _ = sim._per_run(
            scenario(small_collision), 8, 50, 100, [0.4, 0.4], [0.5, 0.9], threads=1
        )
        assert np.array_equal(payoffs[:, 0], payoffs[:, 1])
        assert np.array_equal(freqs[:, 0], freqs[:, 1])

    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("chunk_size", [1, 7, 1024])
    def test_arms_equal_separate_monte_carlo(
        self, threads, chunk_size, small_collision, monkeypatch
    ):
        params = scenario(small_collision, p_r=0.4)
        separate = [
            ss.monte_carlo(ss.RunConfig(params, 45, mode, seed=13), 30)
            for mode in (ss.Mode.COMPETITIVE, ss.Mode.COOPERATIVE)
        ]
        monkeypatch.setattr(sim, "_DEFAULT_CHUNK", chunk_size)
        result = ss.gain_of_cooperation(params, 30, 45, seed=13, threads=threads)
        assert [result.competitive, result.cooperative] == separate

    def test_ton_gains_from_cooperation_under_short_collisions(self, small_collision):
        params = scenario(small_collision)
        for p_r in (0.1, 0.5):
            result = ss.gain_of_cooperation(
                replace(params, p_r=p_r), n_runs=600, n_stages=200, seed=8
            )
            assert result.gain_ton > 0.0

    def test_aon_gain_grows_with_collision_length(self):
        # Long collision slots make competing costly for the AON, so the
        # device becomes more attractive to it as the ratio grows.
        gains = []
        for collision in (0.101, 1.01, 2.02):
            params = scenario(ss.SlotLengths(0.01, 1.01, collision))
            gains.append(
                ss.gain_of_cooperation(params, n_runs=600, n_stages=200, seed=12).gain_aon
            )
        assert gains[0] < gains[1] < gains[2]

    def test_gains_grow_with_patience_under_equal_slots(self, equal_slots):
        params = scenario(equal_slots)
        low = ss.gain_of_cooperation(replace(params, alpha=0.1), n_runs=400, n_stages=300, seed=8)
        high = ss.gain_of_cooperation(
            replace(params, alpha=0.99), n_runs=400, n_stages=300, seed=8
        )
        assert high.gain_aon > low.gain_aon
        assert high.gain_ton > low.gain_ton

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("chunk_size", [1, 7, 1024])
    def test_gain_grid_cells_equal_single_points(
        self, threads, chunk_size, small_collision, monkeypatch
    ):
        # Every cell replays the master seed's run streams, so it is
        # bit-equal to the gain at that point alone.
        params = scenario(small_collision, initial_age=4.0)
        alphas, biases = [0.3, 0.8, 0.95], [0.0, 0.25, 0.6, 1.0]
        points = {
            (a, p): ss.gain_of_cooperation(replace(params, alpha=a, p_r=p), 30, 45, seed=21)
            for a in alphas
            for p in biases
        }
        monkeypatch.setattr(sim, "_DEFAULT_CHUNK", chunk_size)
        grid = ss.gain_grid(params, 30, 45, 21, alphas, biases, threads=threads)
        assert [[points[a, p] for p in biases] for a in alphas] == grid

    @pytest.mark.parametrize(
        "alphas, biases",
        [
            ([0.5, 1.5], [0.5]),
            ([0.0], [0.5]),
            ([0.5, float("nan")], [0.5]),
            ([0.5], [0.5, -0.1]),
            ([0.5], [1.5]),
            ([0.5], [float("nan")]),
            ([], [0.5]),
            ([0.5], []),
        ],
    )
    def test_bad_grid_rejected_before_simulating(self, alphas, biases, equal_slots, monkeypatch):
        def batch(*args, **kwargs):
            raise AssertionError("simulated a bad grid")

        monkeypatch.setattr(sim, "_simulate_batch", batch)
        with pytest.raises(ss.ConfigurationError):
            ss.gain_grid(scenario(equal_slots), 10, 10, 1, alphas, biases)


class TestRuleSharing:
    """Consecutive copies under one AON rule share one rule call per chunk and stage."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The length of every array rule call; scalar ones (``cooperative_optimum``) are left out."""
        lengths, tau = [], eq._tau

        def counted(delta, *args):
            if np.ndim(delta):
                lengths.append(len(delta))
            return tau(delta, *args)

        monkeypatch.setattr(eq, "_tau", counted)
        monkeypatch.setattr(sim, "_DEFAULT_CHUNK", 16)
        return lengths

    # Chunks of 16, 16 and 8 runs.  Equal slots give the competitive copies
    # the cooperative rule, so every copy shares one call; small collisions
    # split the copies into a competitive and a cooperative group.
    @pytest.mark.parametrize("slots, groups", [("equal_slots", 1), ("small_collision", 2)])
    def test_gain_grid(self, calls, slots, groups, request):
        params = scenario(request.getfixturevalue(slots))
        ss.gain_grid(params, 40, 12, 3, [0.5, 0.9], [0.2, 0.5, 0.8])
        assert len(calls) == 3 * 12 * groups
        assert sum(calls) == 40 * 4 * 12

    @pytest.mark.parametrize("slots, groups", [("equal_slots", 1), ("small_collision", 2)])
    def test_region_sweep(self, calls, slots, groups, request):
        # Stage 1 plays the forced profiles and calls no rule.
        params = scenario(request.getfixturevalue(slots))
        ss.region_sweep(params, [0.5, 0.9], [0.2, 0.5, 0.8], 40, 12, seed=3)
        assert len(calls) == 3 * 11 * groups
        assert sum(calls) == 40 * 8 * 11


def test_run_config_validation(small_collision):
    with pytest.raises(ss.ConfigurationError):
        ss.RunConfig(scenario(small_collision), 0, ss.Mode.COMPETITIVE, seed=1)
    with pytest.raises(ss.ConfigurationError):
        ss.monte_carlo(
            ss.RunConfig(scenario(small_collision), 5, ss.Mode.COMPETITIVE, seed=1), 0
        )
