"""Repeated-game engine: discounting, determinism, and published patterns."""

import itertools
import math
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

    def test_one_run_chunks_of_a_large_aon_match_one_chunk(self, small_collision, monkeypatch):
        # A one-run chunk of one copy holds a single row of node ages, which
        # numpy would sum pairwise along the row; at 8 or more AON nodes that
        # moves the last bits unless the columns are added left to right.
        params = scenario(small_collision, na=17, nt=4)
        config = ss.RunConfig(params, 300, ss.Mode.COMPETITIVE, seed=7)
        monkeypatch.setattr(sim, "_DEFAULT_CHUNK", 1)
        a = ss.monte_carlo(config, 3)
        monkeypatch.setattr(sim, "_DEFAULT_CHUNK", 1024)
        b = ss.monte_carlo(config, 3)
        assert a == b

    @pytest.mark.parametrize("mode", [ss.Mode.COMPETITIVE, ss.Mode.COOPERATIVE])
    @pytest.mark.parametrize("na, nt", [(5, 5), (17, 4), (1, 3), (3, 1)])
    def test_single_run_matches_batch_entry(self, mode, na, nt, small_collision):
        # A single run steps one row in floats (``_Engine.trace``); the batch
        # steps the same run in ``_Trajectories``.  Weight column 0 discounts,
        # and column 1 + n weights stage n alone: minus its network age.
        params = scenario(small_collision, na=na, nt=nt, p_r=0.4)
        n_stages = 150
        config = ss.RunConfig(params, n_stages, mode, seed=3)
        single = sim._run_single(config)
        p_r = None if mode is ss.Mode.COMPETITIVE else params.p_r
        weights = np.hstack([sim._discount_weights([params.alpha], n_stages), np.eye(n_stages)])
        state = sim._simulate_batch(_Engine(params), 3, range(1), [p_r], weights)
        assert single.u_aon_discounted == state.u_aon[0, 0]
        assert single.u_ton_discounted == state.u_ton[0, 0]
        assert [single.freq_tau_one, single.freq_tau_zero] == [f[0] for f in state.frequencies()]
        assert single.final_ages.ages.tolist() == state.ages[0].tolist()
        assert single.stages.u_aon.tolist() == state.u_aon[1:, 0].tolist()
        assert single.stages.u_ton.tolist() == state.u_ton[1:, 0].tolist()
        # Run 0 of a batch of two; one run has no standard error and is refused.
        payoffs, freqs = sim._per_run(params, 3, 2, [p_r], weights[:, :1], 1)
        assert payoffs[:, 0, 0, 0].tolist() == [single.u_aon_discounted, single.u_ton_discounted]
        assert freqs[:, 0, 0].tolist() == [single.freq_tau_one, single.freq_tau_zero]
        with pytest.raises(ss.ConfigurationError, match="two runs"):
            ss.monte_carlo(config, 1)


def smallest_two(engine, rows):
    """The draw of (... x width) uniform rows, written out per network: (6, ...) values.

    Reference for ``_Engine.draws``: raw node draws sorted for a network of
    one or two nodes, the direct statistics ``1 - G`` and ``1 - G * H`` of
    two uniforms for a larger one, then the device draw and the AON node
    that holds the smallest.
    """
    split = 1 + engine.aon_columns
    out = []
    for n, columns in ((engine.n_aon, rows[..., 1:split]), (engine.n_ton, rows[..., split:])):
        if n <= 2:
            ordered = np.sort(columns, axis=-1)
            second = ordered[..., 1] if n == 2 else np.full(ordered.shape[:-1], np.inf)
            out += [ordered[..., 0], second]
        else:
            g = np.power(1.0 - columns[..., 0], 1.0 / n)
            h = np.power(1.0 - columns[..., 1], 1.0 / (n - 1))
            out += [1.0 - g, 1.0 - g * h]
    aon = rows[..., 1:split]
    node = np.floor(aon[..., 2] * engine.n_aon) if engine.n_aon > 2 else np.argmin(aon, axis=-1)
    return np.stack([*out, rows[..., 0], node])


class TestUniformStream:
    # 1024 runs of width 6 leave a block of a few dozen stages: per run and
    # stage the block holds a raw row and the six values of its draw.
    N_RUNS = 1024
    BLOCK = sim._BLOCK_BYTES // (8 * (6 + 6) * N_RUNS)

    @pytest.mark.parametrize(
        "n_stages",
        [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3],
        ids=["1", "block-1", "block", "block+1", "2block+3"],
    )
    def test_blocks_concatenate_to_one_draw(self, n_stages, equal_slots, monkeypatch):
        engine = _Engine(scenario(equal_slots))
        assert engine.width == 6 and 1 < self.BLOCK < 200
        blocks = []
        draw = _Engine.uniforms

        def record(self, generators, buf, n):
            block = draw(self, generators, buf, n)
            blocks.append(block.copy())
            return block

        monkeypatch.setattr(_Engine, "uniforms", record)
        # Each draw is a view into the reused block buffer: copy it when yielded.
        draws = [d.copy() for d in engine.stage_rows(21, range(self.N_RUNS), n_stages)]
        assert [b.shape[1] for b in blocks[:-1]] == [self.BLOCK] * (len(blocks) - 1)
        assert 1 <= blocks[-1].shape[1] <= self.BLOCK
        streamed = np.concatenate(blocks, axis=1)
        expected = smallest_two(engine, streamed).swapaxes(1, 2)
        assert np.array_equal(np.stack(draws, axis=1), expected)
        for run in (0, 517, self.N_RUNS - 1):
            whole = ss.run_generator(21, run).random((n_stages, 6))
            assert np.array_equal(streamed[run], whole)

    @pytest.mark.parametrize("na, nt", [(1, 1), (2, 2), (1, 3), (5, 5), (17, 4)])
    def test_extreme_uniforms_stay_in_range(self, na, nt, equal_slots):
        # Uniforms of 0 and of the largest double below 1: every statistic
        # lies in [0, 1), so tau = 1 always transmits and tau = 0 never
        # does; the second is never below the first; the node is an index.
        engine = _Engine(scenario(equal_slots, na=na, nt=nt))
        top = np.nextafter(1.0, 0.0)
        rows = np.array(list(itertools.product((0.0, 0.5, top), repeat=engine.width)))
        [draw] = engine.draws(rows[:, None])
        assert np.array_equal(draw, smallest_two(engine, rows))
        for first, second, n in ((draw[0], draw[1], na), (draw[2], draw[3], nt)):
            assert np.all((first >= 0.0) & (first < 1.0) & (second >= first))
            assert np.all(second < 1.0) if n > 1 else np.all(second == np.inf)
        assert set(draw[5]) <= set(range(na))


def counted_slot(engine, ages, nodes, tau_a, tau_t):
    """The slot step that counted transmitters per row, kept as the reference.

    ``nodes`` holds one draw per node: the AON's ``n_aon``, then the TON's.
    """
    ta = nodes[:, : engine.n_aon] < tau_a[:, None]
    tt = nodes[:, engine.n_aon :] < tau_t[:, None]
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


def node_draws(engine, urow, draw):
    """One draw per node, AON then TON, for the reference to count over.

    A network of one or two nodes has its raw draws.  A larger one has its
    two smallest from ``draw``: the smallest at the AON node that ``draw``
    names (node 0 of the TON), the second-smallest at every other node.
    That gives the same counts clipped at 2 and the same lone transmitter.
    """
    split = 1 + engine.aon_columns
    rows = np.arange(len(urow))
    networks = (
        (engine.n_aon, urow[:, 1:split], draw[0], draw[1], draw[5].astype(int)),
        (engine.n_ton, urow[:, split:], draw[2], draw[3], 0),
    )
    out = []
    for n, raw, first, second, holder in networks:
        if n <= 2:
            out.append(raw)
        else:
            nodes = np.repeat(second[:, None], n, axis=1)
            nodes[rows, holder] = first
            out.append(nodes)
    return np.hstack(out)


class TestSlotOrderStatistics:
    ROWS = 3000

    def inputs(self, engine, rng):
        """Raw uniforms, their draw, and per-row AON and TON taus with ties and edge values.

        Networks of one or two nodes also get duplicated draws.
        """
        urow = rng.random((self.ROWS, engine.width))
        tau_a = rng.choice([-1.0, 0.0, 1.0, 0.2, 0.5, 0.8], self.ROWS)
        tau_t = rng.choice([-1.0, 0.0, 1.0, 0.3, 0.6], self.ROWS)
        split = 1 + engine.aon_columns
        [draw] = engine.draws(urow[:, None])
        networks = (
            (engine.n_aon, urow[:, 1:split], tau_a, draw[0:2]),
            (engine.n_ton, urow[:, split:], tau_t, draw[2:4]),
        )
        for n, nodes, taus, smallest in networks:
            tie = rng.random(nodes.shape[:1] + (2,)) < 0.2
            if n > 2:
                # A tau set exactly to a network's smallest or second draw.
                for k in (0, 1):
                    taus[tie[:, k]] = smallest[k, tie[:, k]]
                continue
            # Draws set exactly equal to tau: a node at tau stays silent.
            tie = rng.random(nodes.shape) < 0.2
            nodes[tie] = np.broadcast_to(taus[:, None], nodes.shape)[tie]
            # Duplicated draws within a network: both nodes transmit or neither.
            if n > 1:
                dup = rng.random(self.ROWS) < 0.3
                nodes[dup, -1] = nodes[dup, 0]
        [draw] = engine.draws(urow[:, None])
        return urow, draw, tau_a, tau_t

    @pytest.mark.parametrize("na", [1, 2, 5, 10])
    @pytest.mark.parametrize("nt", [1, 2, 5])
    def test_matches_counting_transmitters(self, na, nt, small_collision):
        # Bit for bit against counting over the raw draws of a network of one
        # or two nodes, and over draws rebuilt from the two smallest of a
        # larger one, whose law test_direct_draw_follows_the_exact_slot_law
        # certifies.
        engine = _Engine(scenario(small_collision, na=na, nt=nt))
        rng = np.random.default_rng(100 * na + nt)
        urow, draw, tau_a, tau_t = self.inputs(engine, rng)
        nodes = node_draws(engine, urow, draw)
        start = rng.choice([0.5, 1.5, 3.0], (self.ROWS, na))
        constant = (np.full(self.ROWS, t) for t in (engine.tau_ton_star, tau_t[0]))
        for tau_t_case in (tau_t, *constant):
            ref_ages, ages = start.copy(), start.copy()
            ref = counted_slot(engine, ref_ages, nodes, tau_a, tau_t_case)
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
        ref = counted_slot(engine, ref_ages, np.tile(nodes, (copies, 1)), *taus)
        code = engine.slot(ages, draw, *taus)
        assert np.array_equal(ages, ref_ages)
        assert np.array_equal(engine.event_by_code[code], counted_events(*ref))


def clipped_count_law(n, tau1, tau2):
    """Exact P(k(tau1) = i, k(tau2) = j) for n iid uniform node draws, counts clipped at 2.

    The numbers of draws in [0, tau1), [tau1, tau2) and [tau2, 1) are
    multinomial.
    """
    law = np.zeros((3, 3))
    for c1 in range(n + 1):
        for c2 in range(n + 1 - c1):
            c3 = n - c1 - c2
            ways = math.comb(n, c1) * math.comb(n - c1, c2)
            law[min(c1, 2), min(c1 + c2, 2)] += (
                ways * tau1**c1 * (tau2 - tau1) ** c2 * (1.0 - tau2) ** c3
            )
    return law


@pytest.mark.parametrize("n", [3, 5, 10, 17])
def test_direct_draw_follows_the_exact_slot_law(n, small_collision):
    # Two copies of 10**6 runs read one draw per run, at two access
    # probabilities per network.  The joint law of the four clipped counts
    # must be the product of the exact multinomial laws, and the AON node
    # whose age resets uniform and independent of the counts: |z| <= 4 per
    # cell.  Both copies reset the same node when both have a lone AON
    # transmitter (common random numbers).
    engine = _Engine(scenario(small_collision, na=n, nt=n))
    taus_a, taus_t = (0.5 / n, 1.5 / n), (1.0 / n, 2.5 / n)
    batch, n_batches = 125_000, 8
    total = batch * n_batches
    counts = np.zeros((3, 3, 3, 3), dtype=np.int64)
    # Reset node counts by copy, by the other copy's AON count (two values) and by node.
    resets = np.zeros((2, 2, n), dtype=np.int64)
    rng = np.random.default_rng(9000 + n)
    tau_a, tau_t = (np.repeat(taus, batch) for taus in (taus_a, taus_t))
    for _ in range(n_batches):
        [draw] = engine.draws(rng.random((batch, 1, engine.width)))
        ages = np.full((2 * batch, n), 100.0, order="F")
        k_a, k_t = np.divmod(engine.slot(ages, draw, tau_a, tau_t).reshape(2, batch), 3)
        np.add.at(counts, (k_a[0], k_a[1], k_t[0], k_t[1]), 1)
        node = ages.argmin(axis=1).reshape(2, batch)
        lone = (k_a == 1) & (k_t == 0)
        both = lone[0] & lone[1]
        assert np.array_equal(node[0, both], node[1, both])
        # Copy 0 resets at k_a(tau1) = 1, beside k_a(tau2) in {1, 2}; copy 1
        # at k_a(tau2) = 1, beside k_a(tau1) in {0, 1}.
        for copy, other in ((0, k_a[1] - 1), (1, k_a[0])):
            np.add.at(resets[copy], (other[lone[copy]], node[copy, lone[copy]]), 1)
    law_a = clipped_count_law(n, *taus_a)
    law_t = clipped_count_law(n, *taus_t)
    law = law_a[:, :, None, None] * law_t[None, None, :, :]
    assert np.all(counts[law == 0.0] == 0)

    def z(observed, p):
        return np.abs(observed / total - p) / np.sqrt(p * (1.0 - p) / total)

    assert np.all(z(counts[law > 0.0], law[law > 0.0]) <= 4.0)
    # The TON is silent at its copy's tau: k_t = 0.
    silent_t = law_t[0].sum(), law_t[:, 0].sum()
    expected = np.array([law_a[1, 1:] * silent_t[0], law_a[:2, 1] * silent_t[1]]) / n
    assert np.all(z(resets, expected[..., None]) <= 4.0)


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
        # Weight column n takes stage n alone: minus its network age, its TON payoff.
        state = sim._simulate_batch(engine, 31, range(n_runs), [p_r], np.eye(n_stages))
        # The batch replays monte_carlo's runs.
        assert state.frequencies()[0].mean() == realized.freq_tau_one_mean
        assert state.frequencies()[1].mean() == realized.freq_tau_zero_mean
        sizes, tau_t = params.sizes, engine.tau_ton_star
        # Pre-slot network ages: the initial age, then each stage's post-slot age.
        delta = np.hstack([np.full((n_runs, 1), params.initial_age), -state.u_aon[:-1].T])
        tau = eq._tau(delta, sizes, equal_slots, eq._rule(sizes, equal_slots, p_r is None))
        stage_aon = -eq._stage_age(tau, tau_t, sizes, equal_slots, delta, p_r=p_r)
        stage_ton = eq._stage_throughput(tau, tau_t, sizes, equal_slots, params.rate, p_r=p_r)
        for field, stage in (("u_aon", stage_aon), ("u_ton", stage_ton)):
            # Cooperative throughput does not depend on the state: a scalar.
            expected = np.broadcast_to(stage, delta.shape) @ weights[:, 0]
            e_mean, e_se = expected.mean(), expected.std(ddof=1) / np.sqrt(n_runs)
            r_mean, r_se = getattr(realized, field + "_mean"), getattr(realized, field + "_se")
            assert abs(r_mean - e_mean) <= max(4.0 * (r_se + e_se), 1e-12)


class TestSingleRow:
    def test_slot_one_replays_slot(self, small_collision):
        # Row by row, the scalar step reads the vectorized step's event code,
        # increments and reset, with silenced, idle, mixed and certain access.
        params = scenario(small_collision, na=3, nt=2)
        engine = _Engine(params)
        rows = 2000
        [draw] = engine.draws(np.random.default_rng(5).random((rows, 1, engine.width)))
        taus = np.random.default_rng(6).choice([-1.0, 0.0, 0.3, 0.8, 1.0], (2, rows))
        ages = np.full((rows, 3), 2.0, order="F")
        codes = engine.slot(ages, draw, *taus)
        assert set(codes.tolist()) == set(range(9))
        for r in range(rows):
            row = [2.0] * 3
            assert engine.slot_one(row, draw[:, r].tolist(), *taus[:, r].tolist()) == codes[r]
            assert row == ages[r].tolist()

    def test_network_age_one_adds_left_to_right(self, small_collision):
        # 1 + 1e-16 rounds back to 1 at each add, as in the engine's column
        # sum; a compensated sum would keep the two small ages.
        engine = _Engine(scenario(small_collision, na=3))
        ages = [1.0, 1e-16, 1e-16]
        state = sim._Trajectories(engine, 1, [None], sim._discount_weights([0.9], 1))
        state.ages[:] = ages
        assert engine.network_age_one(ages) == state._network_age()[0] == 1.0 / 3


class TestGain:
    def test_self_comparison_is_exactly_zero(self, small_collision):
        # Copies of one mode replay the same run streams, so comparing
        # cooperation against itself gains exactly zero, run by run.
        weights = sim._discount_weights([0.5, 0.9], 100)
        payoffs, freqs = sim._per_run(
            scenario(small_collision), 8, 50, [0.4, 0.4], weights, threads=1
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

    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("chunk_size", [7, 1024])
    def test_alpha_columns_equal_one_alpha_calls(
        self, forced, threads, chunk_size, small_collision, monkeypatch
    ):
        # The state keeps its payoffs column-major and ``_per_run`` swaps them
        # to copies x columns at each chunk's offset; every alpha column, and
        # with forced stage-1 profiles the stage-1 column, must equal that
        # column simulated alone.
        params = scenario(small_collision, initial_age=3.0)
        alphas, p_rs = [0.3, 0.8, 0.95], [None, 0.25, 0.7]
        stage1 = np.array([[1.0, 0.4, -1.0], [0.2, -1.0, 0.2]]) if forced else None
        columns = list(sim._discount_weights(alphas, 40).T) + ([np.eye(40)[0]] if forced else [])
        alone = [sim._per_run(params, 5, 30, p_rs, c[:, None], 1, stage1) for c in columns]
        monkeypatch.setattr(sim, "_DEFAULT_CHUNK", chunk_size)
        weights = np.transpose(columns)
        payoffs, freqs = sim._per_run(params, 5, 30, p_rs, weights, threads, stage1)
        assert payoffs.shape == (2, 3, len(columns), 30)
        for i, (pay, freq) in enumerate(alone):
            assert np.array_equal(payoffs[:, :, i], pay[:, :, 0])
            assert np.array_equal(freqs, freq)

    def test_gain_standard_errors_are_of_paired_run_differences(self, small_collision):
        params = scenario(small_collision, p_r=0.4)
        result = ss.gain_of_cooperation(params, 300, 60, seed=17)
        weights = sim._discount_weights([params.alpha], 60)
        payoffs, _ = sim._per_run(params, 17, 300, [None, 0.4], weights, 1)
        diffs = payoffs[:, 1, 0] - payoffs[:, 0, 0]
        for diff, se in zip(diffs, (result.se_gain_aon, result.se_gain_ton)):
            assert se == float(diff.std(ddof=1) / np.sqrt(300))
        # Both arms replay each run's stream, so their payoffs move together
        # and the paired SE is below the SE of two independent arms.
        base, coop = result.competitive, result.cooperative
        assert result.se_gain_aon < np.hypot(base.u_aon_se, coop.u_aon_se)
        assert result.se_gain_ton < np.hypot(base.u_ton_se, coop.u_ton_se)

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
