"""Repeated-game engine: discounting, determinism, and published patterns."""

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, replace

import numpy as np
import pytest

import slotshare as ss
from slotshare import equilibrium as eq
from slotshare import seeding, sim
from slotshare.config import SlotScenario, slots_from_scenario
from slotshare.sim import _Engine
from conftest import compact_draw, recorded_results, ton_count, with_ton_tau


def scenario(slots, na=5, nt=5, alpha=0.9, p_r=0.5, **kw):
    return ss.ScenarioParams(ss.NetworkSizes(na, nt), slots, alpha=alpha, p_r=p_r, **kw)


def traced(params, n_stages, seed, p_r=None):
    """Run 0 of ``seed`` as one ``_Engine.trace`` row, competing or obeying a device of bias p_r.

    Returns the rule's taus, the played taus and the event codes as arrays,
    and the final node ages.
    """
    stages = _Engine(params).trace(seed, 0, n_stages, [(0, [p_r])])
    _, tau, tau_a, code, _, ages = zip(*stages)
    return np.array(tau), np.array(tau_a), np.array(code), ages[-1]


class TestDiscounting:
    @pytest.mark.parametrize("mode", [ss.Mode.COMPETITIVE, ss.Mode.COOPERATIVE])
    def test_payoff_recomputes_from_stage_stream(self, mode, small_collision):
        # Weight column 0 discounts, and column 1 + n weights stage n alone.
        params = scenario(small_collision)
        p_r = None if mode is ss.Mode.COMPETITIVE else params.p_r
        columns = np.hstack([sim._discount_weights([params.alpha], 400), np.eye(400)])
        state = sim._simulate_batch(_Engine(params), 11, range(1), [(0, [p_r])], columns)
        weights = (1.0 - params.alpha) * params.alpha ** np.arange(400)
        for payoffs in (state.u_aon, state.u_ton):
            assert abs(payoffs[0, 0] - float(weights @ payoffs[1:, 0])) < 1e-12

    def test_geometric_identity_in_degenerate_run(self, large_collision):
        # Long collisions with a lone TON node force tau_aon*=0, tau_ton*=1:
        # the TON succeeds every stage (code 1) and earns a constant payoff.
        params = scenario(large_collision, na=1, nt=1, alpha=0.9)
        agg = ss.monte_carlo(ss.RunConfig(params, 300, ss.Mode.COMPETITIVE, seed=5), 2)
        expected = (1.0 - 0.9**300) * large_collision.success
        assert abs(agg.u_ton_mean - expected) < 1e-12 and agg.u_ton_se == 0.0
        assert np.all(traced(params, 300, 5)[2] == 1)


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

    @pytest.mark.parametrize("chunk", [1, 7, 16])
    def test_chunk_size_does_not_change_aggregates(self, chunk, equal_slots, monkeypatch):
        config = ss.RunConfig(scenario(equal_slots), 60, ss.Mode.COMPETITIVE, seed=42)
        widths, batch = [], sim._simulate_batch

        def recorded(engine, seed, runs, *args):
            widths.append(len(runs))
            return batch(engine, seed, runs, *args)

        monkeypatch.setattr(sim, "_simulate_batch", recorded)
        whole = ss.monte_carlo(config, 250)
        assert widths == [250]
        widths.clear()
        # The cap applies: 250 runs in chunks of at most ``chunk``.
        monkeypatch.setattr(sim, "_DEFAULT_CHUNK", chunk)
        assert ss.monte_carlo(config, 250) == whole
        assert len(widths) == -(-250 // chunk) and max(widths) == chunk

    @pytest.mark.parametrize(
        "n_runs, threads, n_chunks",
        [(4096, 1, 1), (512, 2, 1), (2000, 2, 2), (8192, 2, 2), (20000, 1, 5)],
    )
    def test_chunk_rule(self, n_runs, threads, n_chunks):
        # ceil(runs / threads) runs wide within [1024, 4096]: a batch of few
        # runs stays one chunk, off the thread pool, and a wide one is cut
        # into 4096-run chunks at any thread count.
        chunks = sim._chunks(n_runs, threads)
        assert len(chunks) == n_chunks
        starts, stops = zip(*chunks)
        assert starts == (0, *stops[:-1]) and stops[-1] == n_runs

    @pytest.mark.parametrize("copies, pooled, n_chunks", [(7, False, 1), (8, True, 2)])
    def test_pool_starts_only_for_many_copies(self, copies, pooled, n_chunks, monkeypatch):
        # The slot steps of fewer than 8 copies are too short to overlap
        # between threads, so they are chunked and stepped as at one thread.
        pools, chunks = [], []

        class Pool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(sim, "ThreadPoolExecutor", Pool)
        sim._fanout(chunks.append, 2, copies, (0, 2000))
        assert bool(pools) == pooled
        assert sorted(chunks) == sim._chunks(2000, 2 if pooled else 1)
        assert len(chunks) == n_chunks

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
    def test_trace_matches_batch_entry(self, mode, na, nt, small_collision):
        # A single row steps in floats (``_Engine.trace``); the batch steps
        # the same run in ``_Trajectories``.  Weight column 0 discounts, and
        # column 1 + n weights stage n alone: minus its network age, its TON payoff.
        params = scenario(small_collision, na=na, nt=nt, p_r=0.4)
        n_stages = 150
        p_r = None if mode is ss.Mode.COMPETITIVE else params.p_r
        engine = _Engine(params)
        weights = np.hstack([sim._discount_weights([params.alpha], n_stages), np.eye(n_stages)])
        state = sim._simulate_batch(engine, 3, range(1), [(0, [p_r])], weights)
        _, _, tau_a, code, delta, ages = zip(*engine.trace(3, 0, n_stages, [(0, [p_r])]))
        assert (-state.u_aon[1:, 0]).tolist() == list(delta)
        assert state.u_ton[1:, 0].tolist() == engine.ton_by_code[list(code)].tolist()
        assert ages[-1] == state.ages[0].tolist()
        # The shares of the AON's access stages at tau 1 and 0, counted on the row.
        tau_a = np.array(tau_a)
        access = np.count_nonzero(tau_a >= 0.0)
        shares = [np.count_nonzero(tau_a == x) / access if access else 0.0 for x in (1.0, 0.0)]
        assert shares == [f[0] for f in state.frequencies()]
        # Run 0 of a batch of two; one run has no standard error and is refused.
        _, payoffs, freqs, _ = sim._per_run(params, 3, 2, [(0, [p_r])], weights[:, :1], 1)
        assert payoffs[:, 0, 0, 0].tolist() == [state.u_aon[0, 0], state.u_ton[0, 0]]
        assert freqs[:, 0, 0].tolist() == shares
        with pytest.raises(ss.ConfigurationError, match="two runs"):
            ss.monte_carlo(ss.RunConfig(params, n_stages, mode, seed=3), 1)


def compact_reference(engine, rows):
    """The compact draw of (... x width) uniform rows: (aon, device, ton, node).

    Reference for ``_Engine.compact``.  The AON's two smallest are its raw
    node draws sorted for one or two nodes, and the direct statistics
    ``1 - G`` and ``1 - G * H`` of two uniforms for a larger one (stacked
    first); then the device draw, the TON's count at ``tau_T*`` from its one
    uniform, and the AON node that holds the smallest.
    """
    split = 1 + engine.aon_columns
    n, aon = engine.n_aon, rows[..., 1:split]
    if n <= 2:
        ordered = np.sort(aon, axis=-1)
        a1, a2 = ordered[..., 0], ordered[..., 1] if n == 2 else np.full(ordered.shape[:-1], np.inf)
        node = np.argmin(aon, axis=-1)
    else:
        g = np.power(1.0 - aon[..., 0], 1.0 / n)
        h = np.power(1.0 - aon[..., 1], 1.0 / (n - 1))
        a1, a2, node = 1.0 - g, 1.0 - g * h, np.floor(aon[..., 2] * n)
    return np.stack([a1, a2]), rows[..., 0], ton_count(engine, rows, engine.tau_ton_star), node


B = seeding.BLOCK_STAGES


def block_rows(seed, block, run, width):
    """Run ``run``'s ``B`` rows of stage block ``block``, from a literal Philox4x64 call.

    The stream contract: block ``b`` of seed ``s`` is the Philox4x64 stream
    keyed ``(s, b)``, and run ``r`` reads ``B`` rows of ``width`` doubles
    from its double ``r * B * width`` on, which is counter ``r * B * width / 4``.
    """
    bits = np.random.Philox(key=[seed, block], counter=run * B * width // 4)
    return np.random.Generator(bits).random((B, width))


class TestUniformStream:
    def test_a_counter_step_is_four_doubles(self):
        # Run r's rows are the stretch of its block's stream from double
        # r * B * width on: one call can draw consecutive runs.
        whole = np.random.Generator(np.random.Philox(key=[21, 3])).random(3 * B * 5)
        for run in range(3):
            assert np.array_equal(block_rows(21, 3, run, 5).ravel(), whole[run * B * 5 :][: B * 5])

    @pytest.mark.parametrize("n_stages", [B - 1, B, B + 1, 2 * B + 3])
    @pytest.mark.parametrize("n_runs", [1, 255, 257, 1100])
    def test_batch_and_trace_read_the_block_streams(
        self, n_runs, n_stages, equal_slots, monkeypatch
    ):
        # Around a stage block and a 256-run sub-chunk, and from run 7 on, as
        # a chunk that is not the first reads them.
        engine = _Engine(scenario(equal_slots))
        shapes, uniforms = [], _Engine.uniforms

        def record(self, *args):
            shapes.append(args[-1].shape)
            return uniforms(self, *args)

        monkeypatch.setattr(_Engine, "uniforms", record)
        # Three doubles, the TON's int8 count and a uint8 node per run and stage.
        assert engine.width == 5 and sum(t.nbytes for t in engine.table(1, 1, 1)) == 26
        runs = range(7, 7 + n_runs)
        blocks = range(-(-n_stages // B))
        rows = np.array(
            [np.concatenate([block_rows(21, b, r, 5) for b in blocks])[:n_stages] for r in runs]
        )
        reference = compact_reference(engine, rows)
        # Each draw is a view into the reused table: copy it when yielded.
        draws = [[a.copy() for a in d] for d in engine.stage_rows(21, runs, n_stages)]
        assert len(draws) == n_stages
        # One draw call per stage block and sub-chunk of at most 256 runs.
        subs = [min(256, n_runs - lo) for lo in range(0, n_runs, 256)]
        assert sorted(shapes) == sorted((m, B, 5) for m in subs for _ in blocks)
        for got, expected in zip(zip(*draws), reference):
            assert np.array_equal(np.stack(got), np.moveaxis(expected, -1, 0))
        # A single row reads its run's rows: the device draws, and each
        # stage's event code is the reference draw's slot at the played tau
        # (competing, so the TON always plays its count).
        aon, device, count, _ = reference
        for i in sorted({0, min(255, n_runs - 1), n_runs - 1}):
            stages = list(engine.trace(21, runs[i], n_stages, [(0, [None])]))
            assert [s[0] for s in stages] == device[i].tolist()
            tau_a = np.array([s[2] for s in stages])
            k_a = (aon[0, i] < tau_a).astype(int) + (aon[1, i] < tau_a)
            assert [s[3] for s in stages] == (3 * k_a + count[i]).tolist()

    def test_a_single_row_compacts_once(self, equal_slots, monkeypatch):
        # A 300-stage row draws its five stage blocks into one table and
        # compacts them in one pass, not one per block.
        engine, calls = _Engine(scenario(equal_slots)), []
        compact = _Engine.compact
        monkeypatch.setattr(
            _Engine, "compact", lambda self, *args: calls.append(1) or compact(self, *args)
        )
        assert len(list(engine.trace(4, 0, 300, [(0, [None])]))) == 300
        assert len(calls) == 1

    @pytest.mark.parametrize("na, nt", [(1, 1), (2, 2), (1, 3), (5, 5), (17, 4)])
    def test_extreme_uniforms_stay_in_range(self, na, nt, equal_slots):
        # Uniforms of 0 and of the largest double below 1: the AON's
        # statistics lie in [0, 1), so tau = 1 always transmits and tau = 0
        # never does; the second is never below the first; the node is an
        # index.  The TON's count is 0 at u = 0 (1 for a lone node, which
        # always sends) and min(n_ton, 2) at the top.
        engine = _Engine(scenario(equal_slots, na=na, nt=nt))
        top = np.nextafter(1.0, 0.0)
        rows = np.array(list(itertools.product((0.0, 0.5, top), repeat=engine.width)))
        draw = compact_draw(engine, rows)
        for got, expected in zip(draw, compact_reference(engine, rows)):
            assert np.array_equal(got, expected)
        (first, second), _, count, node = draw
        assert np.all((first >= 0.0) & (first < 1.0) & (second >= first))
        assert np.all(second < 1.0) if na > 1 else np.all(second == np.inf)
        u = rows[:, -1]
        assert np.all(count[u == 0.0] == (nt == 1)) and np.all(count[u == top] == min(nt, 2))
        assert set(node) <= set(range(na))
        assert node.dtype == np.min_scalar_type(na - 1)


def counted_slot(engine, ages, nodes, tau_a, k_t):
    """The slot step that counted the AON's transmitters per row, kept as the reference.

    ``nodes`` holds one draw per AON node and ``k_t`` the TON's count.
    """
    ta = nodes < tau_a[:, None]
    k_a = ta.sum(axis=1)
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
    return k_a


def aon_node_draws(engine, urow, draw):
    """One draw per AON node for the reference to count over.

    An AON of one or two nodes has its raw draws.  A larger one has the
    smallest of ``draw`` at the node that ``draw`` names and the
    second-smallest at every other node, which gives the same count clipped
    at 2 and the same lone transmitter.
    """
    (first, second), _, _, node = draw
    if engine.n_aon <= 2:
        return urow[:, 1 : 1 + engine.n_aon]
    nodes = np.repeat(second[:, None], engine.n_aon, axis=1)
    nodes[np.arange(len(urow)), node.astype(int)] = first
    return nodes


class TestSlotOrderStatistics:
    ROWS = 3000

    def inputs(self, engine, rng):
        """Raw uniforms, their draw, and per-row AON and TON taus with ties and edge values.

        An AON of one or two nodes also gets duplicated draws.
        """
        urow = rng.random((self.ROWS, engine.width))
        tau_a = rng.choice([-1.0, 0.0, 1.0, 0.2, 0.5, 0.8], self.ROWS)
        tau_t = rng.choice([-1.0, 0.0, 1.0, 0.3, 0.6], self.ROWS)
        nodes = urow[:, 1 : 1 + engine.aon_columns]
        if engine.n_aon > 2:
            # A tau set exactly to the AON's smallest or second draw.
            (first, second), *_ = compact_draw(engine, urow)
            tie = rng.random((self.ROWS, 2)) < 0.2
            tau_a[tie[:, 0]], tau_a[tie[:, 1]] = first[tie[:, 0]], second[tie[:, 1]]
        else:
            # Draws set exactly equal to tau: a node at tau stays silent.
            tie = rng.random(nodes.shape) < 0.2
            nodes[tie] = np.broadcast_to(tau_a[:, None], nodes.shape)[tie]
            # Duplicated draws: both nodes transmit or neither.
            if engine.n_aon > 1:
                dup = rng.random(self.ROWS) < 0.3
                nodes[dup, -1] = nodes[dup, 0]
        draw = compact_draw(engine, urow)
        return urow, draw, tau_a, tau_t

    @pytest.mark.parametrize("na", [1, 2, 5, 10])
    @pytest.mark.parametrize("nt", [1, 2, 5])
    def test_matches_counting_transmitters(self, na, nt, small_collision):
        # Bit for bit against counting over the AON's raw draws for one or
        # two nodes, and over draws rebuilt from the two smallest of a
        # larger AON, whose law test_direct_draw_follows_the_exact_slot_law
        # certifies.  The TON plays a count: at any tau its inverse-CDF
        # count (``conftest.ton_count``), which the slot reads off the draw.
        engine = _Engine(scenario(small_collision, na=na, nt=nt))
        rng = np.random.default_rng(100 * na + nt)
        urow, draw, tau_a, tau_t = self.inputs(engine, rng)
        nodes = aon_node_draws(engine, urow, draw)
        start = rng.choice([0.5, 1.5, 3.0], (self.ROWS, na))
        on = np.ones(self.ROWS, dtype=bool)
        constant = (np.full(self.ROWS, t) for t in (engine.tau_ton_star, tau_t[0]))
        for tau_t_case in (tau_t, *constant):
            k_t = ton_count(engine, urow, tau_t_case)
            ref_ages, ages = start.copy(), start.copy()
            k_a = counted_slot(engine, ref_ages, nodes, tau_a, k_t)
            code = engine.slot(ages, with_ton_tau(engine, urow, draw, tau_t_case), tau_a, on)
            assert np.array_equal(ages, ref_ages)
            assert np.array_equal(code, 3 * np.minimum(k_a, 2) + k_t)
        # The draw's own count is at tau_T*; the TON plays it or is silenced per row.
        ton = rng.random(self.ROWS) < 0.5
        k_t = np.where(ton, ton_count(engine, urow, engine.tau_ton_star), 0)
        ref_ages, ages = start.copy(), start.copy()
        k_a = counted_slot(engine, ref_ages, nodes, tau_a, k_t)
        code = engine.slot(ages, draw, tau_a, ton)
        assert np.array_equal(ages, ref_ages)
        assert np.array_equal(code, 3 * np.minimum(k_a, 2) + k_t)
        # One draw replays each run in every copy of column-major ages.
        copies = 3
        ref_ages = np.tile(start, (copies, 1))
        ages = ref_ages.copy(order="F")
        ton = rng.random(copies * self.ROWS) < 0.5
        taus = np.tile(tau_a, copies)
        k_t = np.where(ton, np.tile(ton_count(engine, urow, tau_t), copies), 0)
        k_a = counted_slot(engine, ref_ages, np.tile(nodes, (copies, 1)), taus, k_t)
        code = engine.slot(ages, with_ton_tau(engine, urow, draw, tau_t), taus, ton)
        assert np.array_equal(ages, ref_ages)
        assert np.array_equal(code, 3 * np.minimum(k_a, 2) + k_t)


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


def clipped_binomial_law(n, tau):
    """Exact P(min(Binomial(n, tau), 2) = k) for k = 0, 1, 2."""
    law = [math.comb(n, k) * tau**k * (1.0 - tau) ** (n - k) for k in (0, 1)]
    return np.array([*law, 1.0 - sum(law)])


def z_scores(observed, total, p):
    """|z| of observed counts of ``total`` draws against cell probabilities ``p``."""
    return np.abs(observed / total - p) / np.sqrt(p * (1.0 - p) / total)


@pytest.mark.parametrize("n", [3, 5, 10, 17])
def test_direct_draw_follows_the_exact_slot_law(n, small_collision):
    # Two copies of 10**6 runs read one draw per run, at two AON access
    # probabilities.  The joint law of the two clipped AON counts and the
    # TON's count at tau_T* (copy 0's TON plays it, copy 1's is silenced)
    # must be the product of the exact laws, and the AON node whose age
    # resets uniform and independent of the counts: |z| <= 4 per cell.
    # Both copies reset the same node when both have a lone AON
    # transmitter (common random numbers).
    engine = _Engine(scenario(small_collision, na=n, nt=n))
    taus_a = (0.5 / n, 1.5 / n)
    batch, n_batches = 125_000, 8
    total = batch * n_batches
    counts = np.zeros((3, 3, 3), dtype=np.int64)
    # Reset node counts by copy, by the other copy's AON count (two values) and by node.
    resets = np.zeros((2, 2, n), dtype=np.int64)
    rng = np.random.default_rng(9000 + n)
    tau_a, ton = np.repeat(taus_a, batch), np.repeat([True, False], batch)
    for _ in range(n_batches):
        draw = compact_draw(engine, rng.random((batch, engine.width)))
        ages = np.full((2 * batch, n), 100.0, order="F")
        k_a, k_t = np.divmod(engine.slot(ages, draw, tau_a, ton).reshape(2, batch), 3)
        assert np.array_equal(k_t[0], draw[2]) and not k_t[1].any()
        np.add.at(counts, (k_a[0], k_a[1], k_t[0]), 1)
        node = ages.argmin(axis=1).reshape(2, batch)
        lone = (k_a == 1) & (k_t == 0)
        both = lone[0] & lone[1]
        assert np.array_equal(node[0, both], node[1, both])
        # Copy 0 resets at k_a(tau1) = 1, beside k_a(tau2) in {1, 2}; copy 1
        # at k_a(tau2) = 1, beside k_a(tau1) in {0, 1}.
        for copy, other in ((0, k_a[1] - 1), (1, k_a[0])):
            np.add.at(resets[copy], (other[lone[copy]], node[copy, lone[copy]]), 1)
    law_a = clipped_count_law(n, *taus_a)
    law_t = clipped_binomial_law(n, 1.0 / n)
    law = law_a[:, :, None] * law_t
    assert np.all(counts[law == 0.0] == 0)
    assert np.all(z_scores(counts[law > 0.0], total, law[law > 0.0]) <= 4.0)
    expected = np.array([law_a[1, 1:] * law_t[0], law_a[:2, 1]]) / n
    assert np.all(z_scores(resets, total, expected[..., None]) <= 4.0)


@pytest.mark.parametrize("nt", [1, 2, 3, 5, 10])
def test_ton_count_follows_the_exact_binomial_law(nt, small_collision):
    # The TON's count at tau_T* = 1 / nt, made from one uniform, against the
    # exact law of min(Binomial(nt, tau_T*), 2) over 10**6 draws: |z| <= 4
    # per count, a count of probability 0 never drawn and one of
    # probability 1 (a lone node always sends) always.
    engine = _Engine(scenario(small_collision, na=2, nt=nt))
    law = clipped_binomial_law(nt, 1.0 / nt)
    rng = np.random.default_rng(7000 + nt)
    total = 10**6
    _, _, count, _ = compact_draw(engine, rng.random((total, engine.width)))
    observed = np.bincount(count, minlength=3)
    zero, sure = law <= 1e-15, law >= 1.0 - 1e-15
    assert np.all(observed[zero] == 0) and np.all(observed[sure] == total)
    cells = ~(zero | sure)
    assert np.all(z_scores(observed[cells], total, law[cells]) <= 4.0)


class TestCompetitiveRuns:
    def test_two_singletons_short_collisions_always_transmit(self, small_collision):
        params = scenario(small_collision, na=1, nt=1)
        agg = ss.monte_carlo(ss.RunConfig(params, 200, ss.Mode.COMPETITIVE, seed=1), 2)
        assert (agg.freq_tau_one_mean, agg.freq_tau_one_se) == (1.0, 0.0)
        assert agg.freq_tau_zero_mean == 0.0

    def test_two_singletons_long_collisions_never_transmit(self, large_collision):
        params = scenario(large_collision, na=1, nt=1)
        agg = ss.monte_carlo(ss.RunConfig(params, 200, ss.Mode.COMPETITIVE, seed=1), 2)
        assert (agg.freq_tau_zero_mean, agg.freq_tau_zero_se) == (1.0, 0.0)

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_aggressive_opening_streak(self, seed, small_collision):
        # From the reset age, all-transmit collisions grow the network age
        # deterministically until it crosses the threshold, so the opening
        # tau=1 streak and the first interior value are seed-independent.
        taus, _, _, _ = traced(scenario(small_collision), 60, seed)
        first_interior = int(np.argmax(taus < 1.0))
        assert first_interior >= 30
        assert taus[first_interior] == pytest.approx(0.9295, abs=1e-4)

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
    """Runs that obey the device.

    A slot's code is ``3 * k_a + k_t``: 0 is idle, 1 a TON success, 3 an AON
    success and any other a collision.
    """

    def test_zero_bias_never_selects_aon(self, equal_slots):
        params = scenario(equal_slots, p_r=0.0)
        agg = ss.monte_carlo(ss.RunConfig(params, 300, ss.Mode.COOPERATIVE, seed=9), 2)
        assert agg.freq_tau_one_mean == 0.0 and agg.freq_tau_zero_mean == 0.0
        _, tau_a, code, _ = traced(params, 300, 9, p_r=0.0)
        assert not np.any(code == 3)
        assert not np.any(tau_a >= 0.0)

    def test_full_bias_never_selects_ton(self, equal_slots):
        params = scenario(equal_slots, p_r=1.0)
        agg = ss.monte_carlo(ss.RunConfig(params, 300, ss.Mode.COOPERATIVE, seed=9), 2)
        assert agg.u_ton_mean == 0.0 and agg.u_ton_se == 0.0
        _, _, code, _ = traced(params, 300, 9, p_r=1.0)
        assert not np.any(code == 1)

    def test_full_bias_lone_aon_node_resets_every_stage(self, equal_slots):
        # One AON node holding the channel transmits with probability 1 and
        # its age comes back to the success-slot length after every stage.
        params = scenario(equal_slots, na=1, nt=3, p_r=1.0)
        _, _, code, ages = traced(params, 100, 4, p_r=1.0)
        assert np.all(code == 3)
        assert ages == [equal_slots.success]
        agg = ss.monte_carlo(ss.RunConfig(params, 100, ss.Mode.COOPERATIVE, seed=4), 2)
        assert (agg.freq_tau_one_mean, agg.freq_tau_one_se) == (1.0, 0.0)

    def test_device_prevents_cross_network_collisions(self, equal_slots):
        # With one node per network any collision would have to involve both
        # networks; under the device none may occur.
        params = scenario(equal_slots, na=1, nt=1)
        _, _, code, _ = traced(params, 500, 21, p_r=params.p_r)
        assert set(code.tolist()) <= {0, 1, 3}

    def test_equal_slots_aon_never_aggressive_sometimes_silent(self, equal_slots):
        params = scenario(equal_slots)
        tau, tau_a, _, _ = traced(params, 300, 4, p_r=params.p_r)
        selected = tau_a >= 0.0
        assert np.all(tau[selected] < 1.0)
        assert np.any(tau[selected] == 0.0)
        agg = ss.monte_carlo(ss.RunConfig(params, 300, ss.Mode.COOPERATIVE, seed=4), 2)
        assert agg.freq_tau_one_mean == 0.0
        assert agg.freq_tau_zero_mean > 0.0


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
        draw = compact_draw(engine, uniforms)
        prior = 2.0
        ages = np.full((draws, 3), prior)
        # The TON's 0.25 is its tau_T* at four nodes: the draw's own count.
        assert engine.tau_ton_star == profile.tau_ton
        code = engine.slot(ages, draw, np.full(draws, 0.3), np.full(draws, True))
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
        state = sim._simulate_batch(engine, 31, range(n_runs), [(0, [p_r])], np.eye(n_stages))
        # The batch replays monte_carlo's runs.
        assert state.frequencies()[0].mean() == realized.freq_tau_one_mean
        assert state.frequencies()[1].mean() == realized.freq_tau_zero_mean
        sizes, tau_t = params.sizes, engine.tau_ton_star
        # Pre-slot network ages: the initial age, then each stage's post-slot age.
        delta = np.hstack([np.full((n_runs, 1), params.initial_age), -state.u_aon[:-1].T])
        _, rows = eq._evaluators(sizes, equal_slots, eq._rule(sizes, equal_slots, p_r is None))
        tau = rows(delta)
        stage_aon = -eq._stage_age(tau, tau_t, sizes, equal_slots, delta, p_r=p_r)
        stage_ton = eq._stage_throughput(tau, tau_t, sizes, equal_slots, params.rate, p_r=p_r)
        for field, stage in (("u_aon", stage_aon), ("u_ton", stage_ton)):
            # Cooperative throughput does not depend on the state: a scalar.
            expected = np.broadcast_to(stage, delta.shape) @ weights[:, 0]
            e_mean, e_se = expected.mean(), expected.std(ddof=1) / np.sqrt(n_runs)
            r_mean, r_se = getattr(realized, field + "_mean"), getattr(realized, field + "_se")
            assert abs(r_mean - e_mean) <= max(4.0 * (r_se + e_se), 1e-12)


class TestSingleRow:
    def test_row_network_age_adds_left_to_right(self):
        # 1 + 1e-16 rounds back to 1 at each add, so the two small ages are
        # lost; a compensated sum would keep them, and so would numpy's own
        # pairwise sum at 8 or more nodes.  A list is one row; the batch's
        # column-major ages give the function a (nodes x rows) array.
        cases = [([1.0, 1e-16, 1e-16], 1.0 / 3), ([1.0] + [1e-16] * 8, 1.0 / 9)]
        cases += [([2.0, 2.0, 2.0], 2.0), ([1.0, 3.0], 2.0), ([1.01], 1.01), ([-0.0], -0.0)]
        for ages, mean in cases:
            got = sim._mean_left_to_right(ages)
            assert type(got) is float and math.copysign(1.0, got) == math.copysign(1.0, mean)
            assert got == mean, ages
            rows = np.asfortranarray(np.tile(ages, (4, 1)))
            network = sim._mean_left_to_right(rows.T)
            assert network.tolist() == [mean] * 4 and rows.tolist() == [ages] * 4

    @pytest.mark.parametrize(
        "initial, np_inputs",
        [(None, False), (float, False), (np.float64, False), (np.float64, True)],
        ids=["default-age", "interior-age", "np-interior-age", "np-sizes-slots"],
    )
    @pytest.mark.parametrize("scenario_", list(SlotScenario), ids=lambda s: s.value)
    def test_trace_replays_its_batch_row_under_random_schedules(
        self, scenario_, initial, np_inputs
    ):
        # Schedules of competition, device biases, JOINT and IDLE entries at
        # random stages: the single row's network age, TON payoff, rule tau
        # and played tau equal its one-run batch's bit for bit.  Weight
        # column n takes stage n alone: minus its network age, its TON payoff.
        # An interior initial age, the sizes and the slot lengths may be
        # numpy scalars: the row still steps in Python floats, whose two
        # comparisons add as counts (two np.bool_ would add as a logical OR
        # and miss the AON's collisions).
        slots = slots_from_scenario(scenario_)
        if np_inputs:
            slots = ss.SlotLengths(*np.array([slots.idle, slots.success, slots.collision]))
        rng = np.random.default_rng(1789)
        n_stages = 150
        plays = [None, 0.0, 1.0, 0.37, sim.JOINT, sim.IDLE]
        codes = set()

        def bits(values):
            return np.asarray(values, dtype=np.float64).view(np.int64).tolist()

        for na, nt in itertools.product((1, 2, 3, 9, 17), (1, 2, 5)):
            if np_inputs:
                na, nt = np.int64(na), np.int64(nt)
            sizes = ss.NetworkSizes(na, nt)
            rules = [eq._rule(sizes, slots, competitive) for competitive in (True, False)]
            # Above every finite threshold, so that stage 1 plays an interior tau.
            top = max(t for rule in rules for t in (rule.th0, rule.th1) if np.isfinite(t))
            initial_age = initial and initial(top + 0.7)
            params = scenario(slots, na=na, nt=nt, initial_age=initial_age)
            starts = sorted({0, *rng.integers(1, n_stages, 4).tolist()})
            schedule = [(s, [plays[i]]) for s, i in zip(starts, rng.integers(0, len(plays), 5))]
            seed, run = int(rng.integers(1000)), int(rng.integers(300))
            stages = list(_Engine(params).trace(seed, run, n_stages, schedule))
            engine, played = _Engine(params), []
            slot = engine.slot

            def recorded(ages, draw, tau_a, ton):
                played.append(tau_a[0])
                return slot(ages, draw, tau_a, ton)

            engine.slot = recorded
            weights = np.eye(n_stages)
            state = sim._simulate_batch(engine, seed, range(run, run + 1), schedule, weights)
            ages = (-state.u_aon[:, 0]).tolist()
            _, tau, tau_a, code, delta, _ = zip(*stages)
            codes.update(code)
            assert {type(v) for v in tau + tau_a + delta} == {float}
            assert bits(delta) == bits(ages), (na, nt, schedule)
            assert bits(engine.ton_by_code[list(code)]) == bits(state.u_ton[:, 0])
            assert bits(tau_a) == bits(played)
            # The rule's tau, by the array evaluator on the batch's pre-slot ages.
            before = np.array([params.initial_age] + ages[:-1])
            bounds = starts[1:] + [n_stages]
            for (start, (play,)), stop in zip(schedule, bounds):
                _, rows = engine.access(play)[0]
                want = rows(before[start:stop])
                assert bits(tau[start:stop]) == bits(want), (na, nt, schedule, start)
        assert codes == set(range(9))

    @pytest.mark.parametrize("na", [8, 9, 10, 17, 33])
    def test_final_network_age_is_last_stage_age(self, na, small_collision):
        # A run's final node ages, the row's floats and its batch row's, give
        # the network age its last stage paid.  The weight column takes the
        # last stage alone: minus its network age.
        params = scenario(small_collision, na=na, initial_age=3.3)
        engine, last = _Engine(params), np.eye(40)[:, -1:]
        for seed in range(1, 30):
            *_, ages = list(engine.trace(seed, 0, 40, [(0, [None])]))[-1]
            state = sim._simulate_batch(engine, seed, range(1), [(0, [None])], last)
            assert {type(age) for age in ages} == {float}
            assert ages == state.ages[0].tolist()
            assert sim._mean_left_to_right(ages) == -state.u_aon[0, 0]


class TestGain:
    def test_self_comparison_is_exactly_zero(self, small_collision):
        # Copies of one mode replay the same run streams, so comparing
        # cooperation against itself gains exactly zero, run by run.
        weights = sim._discount_weights([0.5, 0.9], 100)
        _, payoffs, freqs, _ = sim._per_run(
            scenario(small_collision), 8, 50, [(0, [0.4, 0.4])], weights, threads=1
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
        # with forced stage-1 plays the stage-1 column, must equal that
        # column simulated alone.
        params = scenario(small_collision, initial_age=3.0)
        alphas, p_rs = [0.3, 0.8, 0.95], [None, 0.25, 0.7]
        schedule = [(0, [sim.JOINT, 1.0, sim.IDLE]), (1, p_rs)] if forced else [(0, p_rs)]
        columns = list(sim._discount_weights(alphas, 40).T) + ([np.eye(40)[0]] if forced else [])
        alone = [sim._per_run(params, 5, 30, schedule, c[:, None], 1)[1:3] for c in columns]
        monkeypatch.setattr(sim, "_DEFAULT_CHUNK", chunk_size)
        weights = np.transpose(columns)
        _, payoffs, freqs, _ = sim._per_run(params, 5, 30, schedule, weights, threads)
        assert payoffs.shape == (2, 3, len(columns), 30)
        for i, (pay, freq) in enumerate(alone):
            assert np.array_equal(payoffs[:, :, i], pay[:, :, 0])
            assert np.array_equal(freqs, freq)

    def test_two_level_grid_invariant_to_threads_and_chunks(self, small_collision, monkeypatch):
        # 600 runs x 200 stages, above the pilot: the alpha-0.99 cells set the
        # call's cut at 128 with N1 between the pilot and N0; 8 copies, so 2
        # threads use the pool.
        params = scenario(small_collision, na=3, nt=3, initial_age=5.0)
        alphas, biases = [0.3, 0.99], [0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9]
        picks = recorded_results(monkeypatch, sim, "_two_levels")

        def flat(grid):
            return np.array(
                [
                    [c.gain_aon, c.gain_ton, c.se_gain_aon, c.se_gain_ton]
                    + [*astuple(c.competitive), *astuple(c.cooperative)]
                    for row in grid
                    for c in row
                ]
            ).tobytes()

        grids = []
        for threads, chunk_size in itertools.product([1, 2], [7, 1024]):
            monkeypatch.setattr(sim, "_DEFAULT_CHUNK", chunk_size)
            grid = ss.gain_grid(params, 600, 200, 21, alphas, biases, threads=threads)
            grids.append(flat(grid))
        assert grids == grids[:1] * 4
        cut, n1 = picks[0]
        assert cut == 128 and sim._SUB_CHUNK < n1 < 600
        for row in grid:
            for cell in row:
                base, coop = cell.competitive, cell.cooperative
                assert cell.gain_aon == coop.u_aon_mean - base.u_aon_mean
                assert cell.gain_ton == coop.u_ton_mean - base.u_ton_mean

    def test_two_level_competitive_baseline_is_one_estimate_per_alpha(
        self, small_collision, monkeypatch
    ):
        # Every cell of the call shares its cut and N1, so the competitive
        # copy of one alpha is one estimate across the biases.
        params = scenario(small_collision, na=3, nt=3, initial_age=5.0)
        picks = recorded_results(monkeypatch, sim, "_two_levels")
        grid = ss.gain_grid(params, 600, 200, 21, [0.3, 0.99], [0.1, 0.5, 0.9])
        ((_, n1),) = picks
        assert n1 < 600
        for row in grid:
            assert len({cell.competitive for cell in row}) == 1
        assert grid[0][0].competitive != grid[1][0].competitive

    def test_gain_standard_errors_are_of_paired_run_differences(
        self, small_collision, equal_slots
    ):
        params = scenario(small_collision, p_r=0.4)
        result = ss.gain_of_cooperation(params, 300, 60, seed=17)
        weights = sim._discount_weights([params.alpha], 60)
        _, payoffs, *_ = sim._per_run(params, 17, 300, [(0, [None, 0.4])], weights, 1)
        diffs = payoffs[:, 1, 0] - payoffs[:, 0, 0]
        for diff, se in zip(diffs, (result.se_gain_aon, result.se_gain_ton)):
            assert se == float(diff.std(ddof=1) / np.sqrt(300))
        # Both arms replay each run's stream, so their payoffs move together
        # and the paired SE is well below the SE of two independent arms.
        # Shown at equal slots: under short collisions the competitive AON is
        # nearly deterministic (SE about 7e-5), so there the two SEs differ
        # by noise alone.  At equal slots the ratio over seeds 0-39 is
        # 0.63-0.76 for the AON and 0.55-0.69 for the TON.
        result = ss.gain_of_cooperation(scenario(equal_slots, p_r=0.4), 300, 60, seed=17)
        base, coop = result.competitive, result.cooperative
        assert result.se_gain_aon < 0.85 * np.hypot(base.u_aon_se, coop.u_aon_se)
        assert result.se_gain_ton < 0.85 * np.hypot(base.u_ton_se, coop.u_ton_se)

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


class TestTwoLevelHorizon:
    def test_two_level_mean_se_by_hand(self):
        # Three estimates of 50 runs at N1 = 20, whose horizon values past
        # N1 are NaN and never read; at N1 = N0 the one-level estimate.
        rng = np.random.default_rng(5)
        head = rng.normal(size=(3, 50))
        full = head + 0.3 * rng.normal(size=(3, 50)) + 0.2 * head
        one = sim._mean_se(full)
        at_n0 = sim._mean_se(np.stack((head, full)), 50)
        assert [stat.tobytes() for stat in at_n0] == [stat.tobytes() for stat in one]
        n = 20
        full[:, n:] = np.nan
        mean, se = sim._mean_se(np.stack((head, full)), n)
        for k, h in enumerate(head):
            t = full[k, :n] - h[:n]
            cov = np.cov(h[:n], t)[0, 1]
            expected_se = np.sqrt(h.var(ddof=1) / 50 + t.var(ddof=1) / n + 2 * cov / 50)
            assert mean[k] == pytest.approx(full[k, :n].mean() + h.mean() - h[:n].mean(), rel=1e-13)
            assert se[k] == pytest.approx(expected_se, rel=1e-13)

    @pytest.mark.parametrize("tail_scale", [0.0, 0.05, 0.15, 0.4, 3.0])
    def test_n1_is_the_fewest_runs_within_the_se_slack(self, tail_scale):
        # From the pilot's moments, N1 runs meet the predicted-SE bound and
        # one run fewer (above the pilot's 256) does not.
        rng = np.random.default_rng(8)
        head = rng.normal(size=(4, sim._SUB_CHUNK))
        full = head + tail_scale * rng.normal(size=head.shape) * np.arange(1, 5)[:, None]
        n0 = 1000
        n1 = sim._tail_runs(head, full, n0)
        assert np.all((n1 >= sim._SUB_CHUNK) & (n1 <= n0))
        for h, f, n in zip(head, full, n1):
            (v_h, c), (_, v_t) = np.cov(h, f - h)
            one_level = np.var(f, ddof=1) / n0
            ratio = lambda runs: np.sqrt((v_h / n0 + v_t / runs + 2 * c / n0) / one_level)
            assert ratio(n) <= sim._SE_SLACK * (1 + 1e-12)
            assert n == sim._SUB_CHUNK or ratio(n - 1) > sim._SE_SLACK * (1 - 1e-12)
        if tail_scale == 0.0:
            assert n1.tolist() == [sim._SUB_CHUNK] * 4

    def test_cut_rule_by_hand(self):
        # Pilot values (boundaries 64, 128, 192, then the horizon x estimates
        # x pilot runs), 1000 runs over 256 stages: the cut is the boundary b
        # of least N0 b + N1(b) (n_stages - b), N1 the estimates' largest.
        n0, n_stages, pilot, bounds = 1000, 256, sim._SUB_CHUNK, [64, 128, 192]
        rng = np.random.default_rng(3)
        head = rng.normal(size=(1, pilot))
        # A tail without variance: the first block, at the pilot's N1.
        assert sim._two_levels(np.stack([head] * 4), n0, n_stages) == (64, pilot)
        # An estimate whose whole tail falls between 64 and 128: N1(64) is
        # near N0, N1(128) the pilot, so the later boundary is cheaper.
        late = head + 10.0 * rng.normal(size=head.shape)
        values = np.concatenate((np.stack([head] * 4), np.stack([head, late, late, late])), -2)
        n1_at = [int(sim._tail_runs(values[k], values[-1], n0).max()) for k in range(3)]
        assert n1_at[0] > 900 and n1_at[1:] == [pilot, pilot]
        costs = [n0 * b + n * (n_stages - b) for b, n in zip(bounds, n1_at)]
        assert costs == [64_000 + 192 * n1_at[0], 160_768, 208_384]
        assert int(np.argmin(costs)) == 1
        assert sim._two_levels(values, n0, n_stages) == (128, pilot)

    def test_one_cut_steps_fewer_rows_than_the_estimates_own_cuts(self):
        # Two estimates over 1000 runs x 256 stages.  Alone, ``late`` (its
        # whole tail between 64 and 128) would cut at 128 with the pilot's
        # N1, and ``spread`` (its tail partly between 64 and 128, partly
        # after 192) at 64 with N1 = 477.  A cut and an N1 per estimate step
        # every run to 128 and 477 runs through every stage; the call's one
        # cut and N1 are the least row-stages the call can step.
        n0, n_stages, pilot, bounds = 1000, 256, sim._SUB_CHUNK, [64, 128, 192]
        rng = np.random.default_rng(3)
        head = rng.normal(size=pilot)
        late = head + 10.0 * rng.normal(size=pilot)
        early, last = rng.normal(size=(2, pilot))
        spread = head + 0.155 * early
        values = np.array(
            [[head, head], [late, spread], [late, spread], [late, spread + 0.134 * last]]
        )
        n1_at = np.array([sim._tail_runs(values[k], values[-1], n0) for k in range(3)])
        cost = lambda k, n: n0 * bounds[k] + n * (n_stages - bounds[k])
        own = [min(range(3), key=lambda k: cost(k, n1_at[k, e])) for e in range(2)]
        assert own == [1, 0] and n1_at[1, 0] == pilot and n1_at[0, 1] == 477
        per_estimate = cost(max(own), max(n1_at[k, e] for e, k in enumerate(own)))
        cut, n1 = sim._two_levels(values, n0, n_stages)
        true_costs = [cost(k, n1_at[k].max()) for k in range(3)]
        assert (cut, n1) == (bounds[int(np.argmin(true_costs))], n1_at[1].max())
        assert cost(bounds.index(cut), n1) == min(true_costs) < per_estimate
        assert np.all(n1 >= n1_at[bounds.index(cut)])

    @pytest.mark.parametrize("n1_at_64, expected", [(534, 64), (535, 128)])
    def test_a_tie_goes_to_the_smallest_boundary(self, n1_at_64, expected, monkeypatch):
        # N0 = 1000 over 256 stages: N1 = 534 at 64 and 301 at 128 both cost
        # 64,000 + 534 * 192 = 128,000 + 301 * 128 = 166,528 row-stages; at
        # 192 no N1 can cost less than 192,000 + 256 * 64 = 208,384.
        n1_by_stage = {64: n1_at_64, 128: 301, 192: 256}
        rows = iter(np.array([n]) for n in n1_by_stage.values())
        monkeypatch.setattr(sim, "_tail_runs", lambda head, full, n_runs: next(rows))
        cut, n1 = sim._two_levels(np.zeros((4, 1, sim._SUB_CHUNK)), 1000, 256)
        assert (cut, n1) == (expected, n1_by_stage[expected])

    def test_n1_covers_every_estimate_at_the_cut(self, small_collision, monkeypatch):
        # A gain grid and a region sweep above the pilot: at the call's cut
        # no estimate needs more tail runs than the call's N1 steps.
        params = scenario(small_collision, na=3, nt=3, initial_age=5.0)
        tails = recorded_results(monkeypatch, sim, "_tail_runs")
        picks = recorded_results(monkeypatch, sim, "_two_levels")
        calls = (
            lambda: ss.gain_grid(params, 600, 200, 21, [0.3, 0.99], [0.1, 0.5, 0.9]),
            lambda: ss.region_sweep(params, [0.5, 0.97], [0.25, 0.75], 600, 130, seed=3),
        )
        for call in calls:
            tails.clear()
            call()
            cut, n1 = picks[-1]
            at_cut = tails[cut // seeding.BLOCK_STAGES - 1]
            assert at_cut.size > 1 and n1 == at_cut.max() and np.all(at_cut <= n1)

    def test_n1_of_every_run_stays_one_level_bit_for_bit(self, small_collision, monkeypatch):
        # With N1 = N0 at every boundary each boundary costs N0 n_stages, the
        # tie goes to the first block, and the cell is its one-level estimate.
        params = scenario(small_collision, p_r=0.4)
        every_run = lambda head, full, n_runs: np.full(head.shape[:-1], n_runs)
        monkeypatch.setattr(sim, "_tail_runs", every_run)
        picks = recorded_results(monkeypatch, sim, "_two_levels")
        result = ss.gain_of_cooperation(params, 300, 200, seed=13)
        assert picks == [(64, 300)]
        separate = [ss.monte_carlo(ss.RunConfig(params, 200, mode, seed=13), 300) for mode in ss.Mode]
        assert [result.competitive, result.cooperative] == separate
        weights = sim._discount_weights([params.alpha], 200)
        _, payoffs, *_ = sim._per_run(params, 13, 300, [(0, [None, 0.4])], weights, 1)
        diffs = payoffs[:, 1, 0] - payoffs[:, 0, 0]
        assert [result.se_gain_aon, result.se_gain_ton] == sim._mean_se(diffs)[1].tolist()


class TestRuleSharing:
    """Consecutive copies under one AON rule share one rule call per chunk and stage."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The length of every ``rows`` call; float ones (``cooperative_optimum``) are left out."""
        lengths, evaluators = [], eq._evaluators

        def counted(*args):
            one, rows = evaluators(*args)

            def counted_rows(delta):
                lengths.append(len(delta))
                return rows(delta)

            return one, counted_rows

        monkeypatch.setattr(eq, "_evaluators", counted)
        monkeypatch.setattr(sim, "_DEFAULT_CHUNK", 16)
        # Fold afresh through the counting evaluators, and keep none of their pairs.
        eq._fold.cache_clear()
        yield lengths
        eq._fold.cache_clear()

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
        # Every stage-1 play (joint, idle, heads, tails) reads the cooperative
        # rule, so stage 1 makes one call on every row of a chunk.
        params = scenario(request.getfixturevalue(slots))
        ss.region_sweep(params, [0.5, 0.9], [0.2, 0.5, 0.8], 40, 12, seed=3)
        assert len(calls) == 3 * (1 + 11 * groups)
        assert sum(calls) == 40 * 8 * 12


class TestRuleFolding:
    """The engine folds each distinct AON rule once; its trajectories fold none."""

    @pytest.fixture
    def folds(self, monkeypatch):
        """The rule of every fold, from an empty fold cache."""
        folds, evaluators = [], eq._evaluators

        def counted(*args):
            folds.append(args[-1])
            return evaluators(*args)

        monkeypatch.setattr(eq, "_evaluators", counted)
        eq._fold.cache_clear()
        yield folds
        eq._fold.cache_clear()

    @pytest.mark.parametrize("slots, shared", [("equal_slots", True), ("small_collision", False)])
    def test_engine_folds_each_rule_once(self, slots, shared, request, folds):
        engine = _Engine(scenario(request.getfixturevalue(slots)))
        # Equal slots give the competitive copies the cooperative rule.
        assert len(folds) == len(set(folds)) == (1 if shared else 2)
        assert (engine.access(None)[0] is engine.access(0.5)[0]) is shared
        folds.clear()
        schedule = [(0, [0.5, None]), (3, [sim.JOINT, sim.IDLE]), (7, [None, 1.0])]
        sim._simulate_batch(engine, 5, range(4), schedule, sim._discount_weights([0.9], 12))
        row = [(0, [0.5]), (3, [sim.JOINT]), (7, [None]), (9, [sim.IDLE])]
        assert len(list(engine.trace(5, 2, 12, row))) == 12
        assert folds == []

    @pytest.mark.parametrize("slots, rules", [("equal_slots", 1), ("small_collision", 2)])
    def test_engines_and_solves_of_one_scenario_fold_each_rule_once(
        self, slots, rules, request, folds
    ):
        # Two engines, then 1000 msne calls, half of them on numpy-typed
        # sizes and slots, which key the same scenario.
        params = scenario(request.getfixturevalue(slots))
        first, second = _Engine(params), _Engine(params)
        assert first.access(None)[0] is second.access(None)[0]
        assert first.access(0.5)[0] is second.access(0.5)[0]
        sizes, slots_ = params.sizes, params.slots
        typed = (
            ss.NetworkSizes(*map(np.int64, (sizes.n_aon, sizes.n_ton))),
            ss.SlotLengths(*map(np.float64, (slots_.idle, slots_.success, slots_.collision))),
        )
        for age in np.linspace(0.0, 20.0, 500).tolist():
            ss.msne(sizes, slots_, age)
            ss.msne(*typed, age)
        assert len(folds) == len(set(folds)) == rules


class TestSeedRange:
    """A seed is one Philox key word: only integers in [0, 2**64) key streams of their own."""

    @pytest.fixture
    def no_draw(self, monkeypatch):
        """Fail any uniform draw or thread pool: a refused seed must be refused first."""

        def refuse(*args, **kwargs):
            raise AssertionError("drew or pooled for a refused seed")

        monkeypatch.setattr(_Engine, "uniforms", refuse)
        monkeypatch.setattr(sim, "ThreadPoolExecutor", refuse)

    @staticmethod
    def readers(params, seed):
        """Every public reader of the run streams, at ``seed``."""
        config = ss.RunConfig(params, 5, ss.Mode.COMPETITIVE, seed)
        return [
            lambda: ss.monte_carlo(config, 3, threads=2),
            lambda: ss.gain_grid(params, 3, 5, seed, [0.9], [0.5], threads=2),
            lambda: ss.gain_of_cooperation(params, 3, 5, seed),
            lambda: ss.region_sweep(params, [0.9], [0.5], 3, 5, seed, threads=2),
            lambda: ss.deviation_inequalities(params, 3, 5, seed),
            lambda: ss.simulate_grim_trigger(params, 5, seed, 1, ss.DeviationCase.H_AON_DEVIATES),
        ]

    # -1 and 2**64 would key the streams of 2**64 - 1 and of 0, 2**64 + 3
    # those of 3, and 1.5 those of 1.
    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 3, 1.5, np.float64(3.0)])
    def test_seed_outside_one_word_refused_before_any_draw(self, seed, no_draw, equal_slots):
        for read in self.readers(scenario(equal_slots, na=2, nt=2), seed):
            with pytest.raises(ss.ConfigurationError, match="seed must be an integer"):
                read()

    @pytest.mark.parametrize("run_index", [-1, 1.0])
    def test_run_index_must_be_a_non_negative_integer(self, run_index, no_draw, equal_slots):
        engine = _Engine(scenario(equal_slots))
        with pytest.raises(ss.ConfigurationError, match="run index"):
            list(engine.trace(1, run_index, 5, [(0, [None])]))

    @pytest.mark.parametrize("na, width", [(1, 3), (5, 5)])
    def test_run_index_whose_counter_fits_in_64_bits_draws(self, na, width, equal_slots):
        # Run r's rows start at Philox counter r * BLOCK_STAGES * width / 4,
        # one 64-bit word (``BlockStream.seek``): the largest run index whose
        # counter fits draws its two blocks, and the next is refused.
        engine = _Engine(scenario(equal_slots, na=na, nt=2))
        assert engine.width == width
        last = (2**64 - 1) // (seeding.BLOCK_STAGES * width // 4)
        assert len(list(engine.trace(1, last, 70, [(0, [None])]))) == 70
        with pytest.raises(ss.ConfigurationError, match="run index .* past 64 bits"):
            list(engine.trace(1, last + 1, 70, [(0, [None])]))

    def test_edge_seeds_run_on_streams_of_their_own(self, equal_slots):
        params = scenario(equal_slots, na=2, nt=2)
        singles = {}
        for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
            for read in self.readers(params, seed):
                read()
            stages = _Engine(params).trace(seed, 0, 40, [(0, [None])])
            singles[int(seed)] = [delta for *_, delta, _ in stages]
        assert singles[0] != singles[2**64 - 1]


def test_run_config_validation(small_collision):
    with pytest.raises(ss.ConfigurationError):
        ss.RunConfig(scenario(small_collision), 0, ss.Mode.COMPETITIVE, seed=1)
    # A non-integer stage count is refused where it enters, not by a
    # TypeError deep in the batch; a numpy integer is a stage count.
    for n_stages in (5.5, 5.0, np.float64(5.0), "5"):
        with pytest.raises(ss.ConfigurationError, match="stage count must be an integer"):
            ss.RunConfig(scenario(small_collision), n_stages, ss.Mode.COMPETITIVE, seed=1)
    params = scenario(small_collision)
    for read in (
        lambda: ss.gain_grid(params, 4, 5.5, 1, [0.9], [0.5]),
        lambda: ss.region_sweep(params, [0.9], [0.5], 4, 5.5, seed=1),
        lambda: ss.deviation_inequalities(params, 4, 5.5, seed=1),
    ):
        with pytest.raises(ss.ConfigurationError, match="stage count must be an integer"):
            read()
    config = ss.RunConfig(params, np.int64(5), ss.Mode.COMPETITIVE, seed=1)
    assert ss.monte_carlo(config, 4).n_runs == 4
    with pytest.raises(ss.ConfigurationError):
        ss.monte_carlo(
            ss.RunConfig(scenario(small_collision), 5, ss.Mode.COMPETITIVE, seed=1), 0
        )
