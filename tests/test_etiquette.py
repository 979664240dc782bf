"""Grim-trigger etiquette: stage-1 forms, inequalities, and region sweeps."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import slotshare as ss
from slotshare import equilibrium as eq
from slotshare import etiquette, sim
from conftest import HEADS, TAILS, recorded_results


def scenario(slots, na=2, nt=2, alpha=0.9, p_r=0.3, **kw):
    return ss.ScenarioParams(ss.NetworkSizes(na, nt), slots, alpha=alpha, p_r=p_r, **kw)


class TestStageOneForms:
    def test_obey_heads_with_silent_aon_is_idle(self, small_collision):
        sizes = ss.NetworkSizes(3, 4)
        profile = ss.AccessProfile(0.0, 0.25)
        age = ss.expected_next_network_age(HEADS, sizes, small_collision, profile, 2.0)
        assert age == pytest.approx(2.0 + small_collision.idle, abs=1e-12)

    def test_aon_deviation_from_heads_is_always_idle(self, small_collision):
        sizes = ss.NetworkSizes(3, 4)
        profile = ss.AccessProfile(0.7, 0.25)
        age = ss.expected_next_network_age(
            ss.DeviationCase.H_AON_DEVIATES, sizes, small_collision, profile, 3.5
        )
        assert age == pytest.approx(3.5 + small_collision.idle, abs=1e-12)

    def test_obey_tails_with_two_always_on_singletons(self, equal_slots):
        sizes = ss.NetworkSizes(1, 1)
        profile, _ = ss.cooperative_optimum(sizes, equal_slots, 1.01)
        age = ss.expected_next_network_age(TAILS, sizes, equal_slots, profile, 1.01)
        assert age == pytest.approx(1.01 + equal_slots.success, abs=1e-12)

    def test_joint_deviation_matches_competitive_stage_age(self, small_collision):
        sizes = ss.NetworkSizes(3, 4)
        profile = ss.AccessProfile(0.4, 0.25)
        for case in (ss.DeviationCase.H_TON_DEVIATES, ss.DeviationCase.T_AON_DEVIATES):
            display = ss.expected_next_network_age(case, sizes, small_collision, profile, 2.5)
            kernel = eq._stage_age(0.4, 0.25, sizes, small_collision, 2.5)
            assert display == pytest.approx(kernel, abs=1e-12)

    def test_stage1_throughputs(self, small_collision):
        sizes = ss.NetworkSizes(3, 4)
        profile = ss.AccessProfile(0.4, 0.25)
        thr = lambda case: ss.stage1_expected_ton_throughput(
            case, sizes, small_collision, profile, 2.0
        )
        assert thr(HEADS) == 0.0
        assert thr(ss.DeviationCase.H_AON_DEVIATES) == 0.0
        assert thr(TAILS) == pytest.approx(0.25 * 0.75**3 * 1.01 * 2.0, abs=1e-12)
        assert thr(ss.DeviationCase.H_TON_DEVIATES) == pytest.approx(
            0.25 * 0.75**3 * 0.6**3 * 1.01 * 2.0, abs=1e-12
        )

    @pytest.mark.parametrize("age", [-5.0, float("nan"), float("inf")])
    def test_bad_network_age_rejected(self, age, small_collision):
        sizes = ss.NetworkSizes(2, 2)
        profile = ss.AccessProfile(0.3, 0.5)
        for case in (HEADS, TAILS, *ss.DeviationCase):
            with pytest.raises(ss.ConfigurationError, match="network age must be finite"):
                ss.expected_next_network_age(case, sizes, small_collision, profile, age)

    @pytest.mark.parametrize("rate", [-5.0, 0.0, float("nan"), float("inf")])
    def test_bad_rate_rejected(self, rate, small_collision):
        sizes = ss.NetworkSizes(2, 2)
        profile = ss.AccessProfile(0.3, 0.5)
        for case in (HEADS, TAILS, *ss.DeviationCase):
            with pytest.raises(
                ss.ConfigurationError, match="transmission rate must be finite and positive"
            ):
                ss.stage1_expected_ton_throughput(case, sizes, small_collision, profile, rate)

    def test_unknown_case_rejected(self, small_collision):
        with pytest.raises(ss.ConfigurationError):
            ss.expected_next_network_age(
                "heads", ss.NetworkSizes(1, 1), small_collision, ss.AccessProfile(1, 1), 1.0
            )


class TestDeviationInequalities:
    def test_stage1_monte_carlo_matches_analytic_forms(self, small_collision):
        # Interior cooperative profile so all branches have real randomness.
        params = scenario(small_collision, na=3, nt=4, alpha=0.8, p_r=0.4, initial_age=5.0)
        report = ss.deviation_inequalities(params, 3000, 30, seed=31)
        profile = report.stage1_profile
        assert 0.0 < profile.tau_aon < 1.0

        joint = ss.DeviationCase.H_TON_DEVIATES
        for branch, case in (("obey_heads", HEADS), ("obey_tails", TAILS), ("deviate_joint", joint)):
            mean, se = report.stage1_age_mc[branch]
            analytic = ss.expected_next_network_age(
                case, params.sizes, params.slots, profile, params.initial_age
            )
            assert abs(mean - analytic) <= 4.0 * se

        mean, se = report.stage1_age_mc["deviate_idle"]
        assert mean == pytest.approx(params.initial_age + params.slots.idle, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-15)

        for branch, case in (("obey_tails", TAILS), ("deviate_joint", ss.DeviationCase.H_TON_DEVIATES)):
            mean, se = report.stage1_throughput_mc[branch]
            analytic = ss.stage1_expected_ton_throughput(
                case, params.sizes, params.slots, profile, params.rate
            )
            assert abs(mean - analytic) <= 4.0 * se
        assert report.stage1_throughput_mc["obey_heads"][0] == 0.0
        assert report.stage1_throughput_mc["deviate_idle"][0] == 0.0

    def test_stage1_obey_tails_age_needs_ton_idle_weight(
        self, small_collision, equal_slots, large_collision
    ):
        # At initial age sigma_S the cooperative AON is silent.  The published
        # obey-tails display weights the idle slot by (1 - tau_aon)^N_A = 1,
        # but under tails only the TON transmits, so the slot is idle with
        # probability (1 - tau_ton)^N_T, the weight the function uses.  Short
        # collisions hide the display's gap.
        scenarios = ((small_collision, False), (equal_slots, True), (large_collision, True))
        for slots, literal_off in scenarios:
            params = scenario(slots, na=5, nt=5, initial_age=slots.success)
            report = ss.deviation_inequalities(params, 4000, 2, seed=5)
            profile, age = report.stage1_profile, params.initial_age
            assert profile.tau_aon == 0.0
            mean, se = report.stage1_age_mc["obey_tails"]
            ta, tt = profile.tau_aon, profile.tau_ton
            na, nt = params.sizes.n_aon, params.sizes.n_ton
            si, ss_, sc = slots.idle, slots.success, slots.collision
            one_t = tt * (1.0 - tt) ** (nt - 1)
            literal = age + sc + (1.0 - ta) ** na * (si - sc) + nt * one_t * (ss_ - sc)
            if literal_off:
                assert abs(mean - literal) > 5.0 * se
            function = ss.expected_next_network_age(TAILS, params.sizes, slots, profile, age)
            assert abs(mean - function) <= 4.0 * se

    def test_myopic_ton_always_deviates_under_heads(self, equal_slots):
        # As the discount factor vanishes only stage 1 matters, where the
        # deviation earns positive throughput against zero for compliance.
        params = scenario(equal_slots, alpha=0.01, p_r=0.3)
        report = ss.deviation_inequalities(params, 800, 150, seed=17)
        est = report.ton_obeys_heads
        assert est.margin <= -2.0 * est.se

    def test_two_node_networks_cooperate_at_patient_mid_bias(self, equal_slots):
        params = scenario(equal_slots, alpha=0.9, p_r=0.3)
        report = ss.deviation_inequalities(params, 2000, 300, seed=42)
        # All four margins hold beyond two SEs: obedience is self-enforceable.
        for est in report.inequalities:
            assert est.margin >= 2.0 * est.se, est

    def test_full_bias_device_runs_clean(self, small_collision):
        params = scenario(small_collision, na=1, nt=1, alpha=0.9, p_r=1.0)
        report = ss.deviation_inequalities(params, 500, 100, seed=5)
        assert all(np.isfinite(est.margin) for est in report.inequalities)
        # The device never selects the TON, so compliance leaves it at zero
        # and obeying tails can only be at most as good as deviating.
        assert report.ton_obeys_heads.obey_mean == 0.0

    def test_reports_are_reproducible_and_thread_invariant(self, equal_slots, monkeypatch):
        params = scenario(equal_slots, alpha=0.7, p_r=0.4)
        monkeypatch.setattr(sim, "_DEFAULT_CHUNK", 100)
        a = ss.deviation_inequalities(params, 600, 120, seed=64)
        monkeypatch.setattr(sim, "_DEFAULT_CHUNK", 64)
        b = ss.deviation_inequalities(params, 600, 120, seed=64, threads=4)
        assert a == b

    @pytest.mark.parametrize("case", ["equal_slots", "small_collision"])
    def test_reports_match_golden(self, case):
        # Reports stored with round-tripping float reprs, both as regenerated
        # when runs began to read stage-block streams.
        golden = json.loads((Path(__file__).parent / "golden_deviation.json").read_text())[case]
        spec = golden["scenario"]
        params = ss.ScenarioParams(
            ss.NetworkSizes(spec["n"], spec["n"]),
            ss.SlotLengths(*spec["slots"]),
            alpha=spec["alpha"],
            p_r=spec["p_r"],
            initial_age=spec["initial_age"],
        )
        expected = etiquette.DeviationReport(
            *(etiquette.InequalityEstimate(*row) for row in golden["inequalities"]),
            stage1_age_mc={k: tuple(v) for k, v in golden["stage1_age_mc"].items()},
            stage1_throughput_mc={
                k: tuple(v) for k, v in golden["stage1_throughput_mc"].items()
            },
            stage1_profile=ss.AccessProfile(*golden["stage1_profile"]),
            n_runs=golden["report_n_runs"],
        )
        report = ss.deviation_inequalities(
            params, golden["n_runs"], golden["n_stages"], seed=spec["seed"]
        )
        assert report == expected


# The Kleene AND of every pair of tri-states (1 holds, 0 fails, -1 indeterminate).
KLEENE_AND = [
    ((1, 1), 1),
    ((1, 0), 0),
    ((1, -1), -1),
    ((0, 1), 0),
    ((0, 0), 0),
    ((0, -1), 0),
    ((-1, 1), -1),
    ((-1, 0), 0),
    ((-1, -1), -1),
]


class TestTriState:
    @pytest.mark.parametrize(
        "margin, se, state",
        [
            (0.5, 0.25, 1),
            (-0.5, 0.25, 0),
            (-0.0, 0.0, 1),
            (-0.0, 0.01, -1),
            (0.0, 0.0, 1),
            (float("nan"), 0.01, -1),
            (0.001, 0.01, -1),
        ],
    )
    def test_ties_at_two_standard_errors(self, margin, se, state):
        # A margin of exactly two SEs is decided, -0.0 holds as 0.0 does, a
        # zero-variance zero margin holds, and NaN is indeterminate.
        states = etiquette._tri_state(np.full((2, 3), margin), np.full((2, 3), se))
        assert states.dtype == np.int8
        assert np.array_equal(states, np.full((2, 3), state))

    @pytest.mark.parametrize("states, combined", [*KLEENE_AND, ((), 1)])
    def test_kleene_and(self, states, combined):
        assert etiquette._tri_and(*states) == combined

    def test_array_and_is_elementwise(self):
        left, right = (np.array([p[k] for p, _ in KLEENE_AND], dtype=np.int8) for k in (0, 1))
        combined = etiquette._tri_and(left, right)
        assert combined.dtype == np.int8
        assert combined.tolist() == [c for _, c in KLEENE_AND]


def assert_invariant_to_threads_and_chunks(args, chunks, monkeypatch):
    """``region_sweep(*args)`` is the same bits at 1, 2 and 4 threads and at each chunk width."""
    base = ss.region_sweep(*args, seed=3)
    variants = [ss.region_sweep(*args, seed=3, threads=t) for t in (2, 4)]
    for chunk in chunks:
        monkeypatch.setattr(sim, "_DEFAULT_CHUNK", chunk)
        variants += [ss.region_sweep(*args, seed=3, threads=t) for t in (1, 2, 4)]
    for other in variants:
        for name in ("margins", "ses", "ton_prefers", "aon_prefers", "self_enforceable"):
            assert np.array_equal(getattr(base, name), getattr(other, name)), name


class TestRegionSweep:
    def test_intersection_law_and_determinism(self, equal_slots):
        params = scenario(equal_slots)
        alphas = [0.3, 0.9]
        biases = [0.2, 0.5]
        grid = ss.region_sweep(params, alphas, biases, 300, 120, seed=7)
        again = ss.region_sweep(params, alphas, biases, 300, 120, seed=7, threads=4)
        assert np.array_equal(grid.self_enforceable, again.self_enforceable)
        assert np.array_equal(grid.margins, again.margins)
        combined = etiquette._tri_and(grid.ton_prefers, grid.aon_prefers)
        assert np.array_equal(grid.self_enforceable, combined)

    def test_aon_preference_region_shrinks_with_size_under_short_collisions(
        self, small_collision
    ):
        # At a patient discount factor there is a device bias the two-node
        # AON decidedly cooperates at while the ten-node AON decidedly does
        # not: growing networks transmit aggressively more often when
        # competing, which makes competition better for the AON.
        verdicts = {}
        for n in (2, 10):
            params = scenario(small_collision, na=n, nt=n, alpha=0.9, p_r=0.75)
            grid = ss.region_sweep(params, [0.9], [0.75], 3000, 300, seed=77)
            verdicts[n] = grid.aon_prefers[0, 0]
        assert verdicts == {2: 1, 10: 0}

    @pytest.mark.parametrize(
        "slots_name, n, n_runs, n_stages",
        [
            pytest.param("equal_slots", 2, 120, 40, id="equal_slots-2"),
            pytest.param("small_collision", 5, 120, 40, id="small_collision-5"),
            pytest.param("equal_slots", 10, 120, 40, id="equal_slots-10"),
        ],
    )
    def test_cells_equal_single_point_reports(self, slots_name, n, n_runs, n_stages, request):
        # Common random numbers: every cell replays the master seed's run
        # streams, and at one level a cell is bit-equal to the report at
        # that point alone.
        params = scenario(request.getfixturevalue(slots_name), na=n, nt=n, initial_age=6.0)
        alphas, biases = [0.3, 0.75, 0.95], [0.2, 0.5, 0.8]
        grid = ss.region_sweep(params, alphas, biases, n_runs, n_stages, seed=9)
        for i, alpha in enumerate(alphas):
            for j, p_r in enumerate(biases):
                point = replace(params, alpha=alpha, p_r=p_r)
                report = ss.deviation_inequalities(point, n_runs, n_stages, seed=9)
                assert [e.margin for e in report.inequalities] == list(grid.margins[:, i, j])
                assert [e.se for e in report.inequalities] == list(grid.ses[:, i, j])
                aon_h, ton_h, aon_t, ton_t = (
                    etiquette._tri_state(e.margin, e.se) for e in report.inequalities
                )
                assert grid.ton_prefers[i, j] == etiquette._tri_and(ton_h, ton_t)
                assert grid.aon_prefers[i, j] == etiquette._tri_and(aon_h, aon_t)
                assert grid.self_enforceable[i, j] == etiquette._tri_and(
                    aon_h, aon_t, ton_h, ton_t
                )

    def test_two_level_report_is_a_one_cell_sweep(self, small_collision, monkeypatch):
        # Above the pilot, with N1 between the pilot and N0: the report's
        # stage-1 column adds no tail, so it takes the one-cell sweep's cut
        # and N1, and its margins are the cell's bits.
        params = scenario(small_collision, na=3, nt=3, initial_age=5.0, alpha=0.97, p_r=0.5)
        picks = recorded_results(monkeypatch, sim, "_two_levels")
        report = ss.deviation_inequalities(params, 600, 130, seed=3)
        grid = ss.region_sweep(params, [params.alpha], [params.p_r], 600, 130, seed=3)
        assert picks[0] == picks[1] and sim._SUB_CHUNK < picks[0][1] < 600
        assert [e.margin for e in report.inequalities] == grid.margins[:, 0, 0].tolist()
        assert [e.se for e in report.inequalities] == grid.ses[:, 0, 0].tolist()

    def test_sweep_invariant_to_threads_and_chunks(self, small_collision, monkeypatch):
        params = scenario(small_collision, na=3, nt=3, initial_age=5.0)
        args = (params, [0.5, 0.9], [0.25, 0.5, 0.75], 100, 30)
        assert_invariant_to_threads_and_chunks(args, (1, 7, 64), monkeypatch)

    def test_two_level_sweep_invariant_to_threads_and_chunks(self, small_collision, monkeypatch):
        # Its alpha-0.97 margins take N1 between the pilot and all 600 runs.
        params = scenario(small_collision, na=3, nt=3, initial_age=5.0)
        args = (params, [0.5, 0.9, 0.97], [0.25, 0.5, 0.75], 600, 130)
        assert_invariant_to_threads_and_chunks(args, (7, 64), monkeypatch)

    def test_two_level_sweep_steps_one_cut_and_one_n1(self, small_collision, monkeypatch):
        # The pilot steps every stage and snapshots at every block boundary,
        # then the runs below the call's N1 step every stage, and the rest
        # stop at its cut.
        calls, batch = [], sim._simulate_batch

        def recorded(engine, seed, runs, schedule, weights, counted, cuts):
            calls.append((runs.start, runs.stop, len(weights), tuple(cuts)))
            return batch(engine, seed, runs, schedule, weights, counted, cuts)

        monkeypatch.setattr(sim, "_simulate_batch", recorded)
        picks = recorded_results(monkeypatch, sim, "_two_levels")
        params = scenario(small_collision, na=3, nt=3, initial_age=5.0)
        ss.region_sweep(params, [0.5, 0.9, 0.97], [0.25, 0.5, 0.75], 600, 130, seed=3)
        ((cut, n1),) = picks
        assert cut == 64 and sim._SUB_CHUNK < n1 < 600
        assert calls == [(0, 256, 130, (64, 128)), (256, n1, 130, (64,)), (n1, 600, 64, (64,))]

    def test_benchmark_sweep_keeps_the_first_block(self, equal_slots, monkeypatch):
        # The region_sweep benchmark's inputs on its seeds 1-5: at the first
        # block every margin's N1 is the pilot, 512 * 64 + 256 * 236 = 93,184
        # row-stages, and no later boundary can cost less than 512 * 128 +
        # 256 * 172 = 109,568, so the sweep keeps the first block and no
        # later boundary is weighed.
        tails = recorded_results(monkeypatch, sim, "_tail_runs")
        picks = recorded_results(monkeypatch, sim, "_two_levels")
        params = scenario(equal_slots, na=2, nt=2)
        alphas, biases = [0.75, 0.85, 0.95], [0.15, 0.25, 0.35, 0.45, 0.55]
        for seed in range(1, 6):
            # The library seed that the benchmark draws from its own.
            lib_seed = int(np.random.default_rng(seed).integers(0, 2**63))
            ss.region_sweep(params, alphas, biases, 512, 300, lib_seed)
            (n1,) = tails
            assert n1.shape == (4, 5, 3) and np.all(512 * 64 + n1 * 236 == 93_184)
            assert picks[-1] == (64, 256)
            tails.clear()

    def test_grid_bounds_validated(self, equal_slots, monkeypatch):
        def batch(*args, **kwargs):
            raise AssertionError("simulated a bad grid")

        monkeypatch.setattr(sim, "_simulate_batch", batch)
        nan = float("nan")
        for alphas, biases in (([0.0, 0.5], [0.5]), ([nan], [0.5]), ([0.5], [0.5, nan])):
            with pytest.raises(ss.ConfigurationError):
                ss.region_sweep(scenario(equal_slots), alphas, biases, 10, 10, seed=1)

    @pytest.mark.parametrize(
        "n_runs, threads, match",
        [
            pytest.param(0, 1, "two runs", id="0"),
            pytest.param(1, 1, "two runs", id="1"),
            pytest.param(4.5, 1, "two runs", id="4.5"),
            pytest.param(4, 1.5, "thread", id="threads-1.5"),
        ],
    )
    def test_fewer_than_two_runs_rejected_before_simulating(
        self, n_runs, threads, match, equal_slots, monkeypatch
    ):
        # One run has no standard error, so every margin would read as decided;
        # run and thread counts are integers, as the CLI reads them.
        def batch(*args, **kwargs):
            raise AssertionError("simulated a sweep without a standard error")

        monkeypatch.setattr(sim, "_simulate_batch", batch)
        params = scenario(equal_slots)
        config = ss.RunConfig(params, 10, ss.Mode.COMPETITIVE, seed=1)
        calls = (
            lambda: ss.region_sweep(params, [0.5], [0.5], n_runs, 10, seed=1, threads=threads),
            lambda: ss.deviation_inequalities(params, n_runs, 10, seed=1, threads=threads),
            lambda: ss.monte_carlo(config, n_runs, threads=threads),
            lambda: ss.gain_grid(params, n_runs, 10, 1, [0.5], [0.5], threads=threads),
        )
        for call in calls:
            with pytest.raises(ss.ConfigurationError, match=match):
                call()

    def test_sweep_keeps_no_access_counters(self, small_collision, monkeypatch):
        # The sweep reads payoffs only: without the access counters its
        # payoffs are the same bits, at one level the head is the horizon,
        # and neither entry reads a frequency.
        params = scenario(small_collision)
        weights = sim._discount_weights([0.5, 0.9], 12)
        schedule = [(0, [sim.JOINT, sim.IDLE, 1.0, 0.0]), (1, [None, None, 0.3, 0.3])]
        _, payoffs, freqs, _ = sim._per_run(params, 4, 40, schedule, weights, 1)
        margin = lambda p: p[0, 2] - p[0, 0]
        head, full, none, n1 = sim._per_run(
            params, 4, 40, schedule, weights, 1, margin, counted=False
        )
        assert freqs.shape == (2, 4, 40) and none is None
        assert n1 == 40 and head is full and full.tobytes() == payoffs.tobytes()

        def frequencies(self):
            raise AssertionError("read access frequencies")

        monkeypatch.setattr(sim._Trajectories, "frequencies", frequencies)
        ss.region_sweep(params, [0.5, 0.9], [0.3], 40, 12, seed=4)
        ss.deviation_inequalities(params, 40, 12, seed=4)

    def test_only_deviation_reports_weight_the_stage1_column(self, equal_slots, monkeypatch):
        # The sweep weights one column per alpha; a single-point report adds
        # the stage-1 column for its diagnostics.
        widths, batch = [], sim._simulate_batch

        def recorded(engine, seed, runs, p_rs, weights, *args):
            widths.append(weights.shape[1])
            return batch(engine, seed, runs, p_rs, weights, *args)

        monkeypatch.setattr(sim, "_simulate_batch", recorded)
        params = scenario(equal_slots)
        ss.region_sweep(params, [0.3, 0.6, 0.9], [0.2, 0.5], 20, 10, seed=1)
        assert widths == [3]
        widths.clear()
        ss.deviation_inequalities(params, 20, 10, seed=1)
        assert widths == [2]

    def test_empty_axis_rejected_before_simulating(self, equal_slots, monkeypatch):
        def kernel(*args):
            raise AssertionError("the kernel ran on an empty grid")

        monkeypatch.setattr(etiquette, "_sweep", kernel)
        for alphas, biases in (([], [0.5]), ([0.5], [])):
            with pytest.raises(ss.ConfigurationError, match="at least one value"):
                ss.region_sweep(scenario(equal_slots), alphas, biases, 10, 10, seed=1)

    def test_monotonicity_flags_on_synthetic_grid(self):
        spe = np.array([[1, 0], [0, 0], [1, 1]], dtype=np.int8)
        grid = etiquette.RegionGrid(
            alpha_axis=np.array([0.1, 0.5, 0.9]),
            pr_axis=np.array([0.3, 0.6]),
            ton_prefers=spe.copy(),
            aon_prefers=spe.copy(),
            self_enforceable=spe,
            margins=np.zeros((4, 3, 2)),
            ses=np.zeros((4, 3, 2)),
        )
        assert grid.feasible_count() == 3
        # Column 0: feasible at alpha index 0, decidedly infeasible at index 1.
        assert grid.monotonicity_flags() == [(0, 1, 0)]

    def test_indeterminate_cells_are_not_flagged(self):
        spe = np.array([[1], [-1], [0]], dtype=np.int8)
        grid = etiquette.RegionGrid(
            alpha_axis=np.array([0.1, 0.5, 0.9]),
            pr_axis=np.array([0.3]),
            ton_prefers=spe.copy(),
            aon_prefers=spe.copy(),
            self_enforceable=spe,
            margins=np.zeros((4, 3, 1)),
            ses=np.zeros((4, 3, 1)),
        )
        assert grid.monotonicity_flags() == [(0, 2, 0)]


class TestGrimTrigger:
    @pytest.mark.parametrize("case", list(ss.DeviationCase))
    def test_injected_deviation_triggers_competition_forever(self, case, equal_slots):
        params = scenario(equal_slots, na=3, nt=3, alpha=0.9, p_r=0.5)
        trace = ss.simulate_grim_trigger(params, 40, seed=11, deviate_at_stage=12, case=case)
        for stage in trace.stages[:12]:
            assert stage.compliance.obeyed
            assert not stage.competitive_play
        deviation = trace.stages[12]
        assert not deviation.compliance.obeyed
        assert deviation.compliance.recommendation is case.recommendation
        if not case.joint_access:
            # Both networks silent: an idle slot ages every node by sigma_I.
            assert (deviation.tau_aon, deviation.tau_ton) == (0.0, 0.0)
            before = trace.stages[11].network_age_after
            assert deviation.network_age_after == before + equal_slots.idle
        previous_age = params.initial_age
        for k, stage in enumerate(trace.stages):
            if k > 12:
                assert stage.competitive_play
                assert not stage.compliance.obeyed
                expected, _ = ss.msne(params.sizes, params.slots, previous_age)
                assert stage.tau_aon == expected.tau_aon
                assert stage.tau_ton == expected.tau_ton
            previous_age = stage.network_age_after

    @pytest.mark.parametrize("na,nt", [(5, 5), (17, 4), (1, 3), (3, 1)])
    def test_cooperative_prefix_replays_a_cooperative_run(self, na, nt, small_collision):
        # Run 0 obeying the device: the rule's taus of its single row, and
        # the network ages of its batch row, whose weight column n takes
        # stage n alone (minus its network age).
        params = scenario(small_collision, na=na, nt=nt, p_r=0.4)
        k = 25
        engine, schedule = sim._Engine(params), [(0, [params.p_r])]
        taus = [tau for _, tau, *_ in engine.trace(7, 0, k, schedule)]
        state = sim._simulate_batch(engine, 7, range(1), schedule, np.eye(k))
        for case in ss.DeviationCase:
            trace = ss.simulate_grim_trigger(params, k + 5, 7, k, case)
            prefix = trace.stages[:k]
            assert [st.tau_aon for st in prefix] == taus
            assert [st.network_age_after for st in prefix] == (-state.u_aon[:, 0]).tolist()

    @pytest.mark.parametrize(
        "na, nt, slots, initial_age",
        [
            pytest.param(5, 5, "large_collision", None, id="5-5"),
            pytest.param(17, 4, "large_collision", None, id="17-4"),
            pytest.param(1, 3, "large_collision", None, id="1-3"),
            pytest.param(3, 1, "large_collision", None, id="3-1"),
            # Interior stage-1 taus (above th0 = N_A (sigma_S - sigma_I)), where
            # the mean of the equal node ages is not the initial age.
            pytest.param(3, 5, "small_collision", 3.3, id="3-5-interior"),
            pytest.param(6, 5, "small_collision", 9.7, id="6-5-interior"),
        ],
    )
    @pytest.mark.parametrize("case", list(ss.DeviationCase))
    def test_stage0_deviation_replays_the_engine_branch(
        self, case, na, nt, slots, initial_age, request
    ):
        slots = request.getfixturevalue(slots)
        params = scenario(slots, na=na, nt=nt, p_r=0.4)
        if initial_age is not None:
            params = replace(params, initial_age=initial_age)
        n_stages, seed = 40, 3
        trace = ss.simulate_grim_trigger(params, n_stages, seed, 0, case)
        # The sweep's branch, the audit and the report share one stage-1 tau.
        coop, _ = ss.cooperative_optimum(params.sizes, params.slots, params.initial_age)
        assert trace.stages[0].tau_aon == (coop.tau_aon if case.joint_access else 0.0)
        dev = sim.JOINT if case.joint_access else sim.IDLE
        # Weight column n takes stage n alone: minus its network age.
        state = sim._simulate_batch(
            sim._Engine(params), seed, range(1), [(0, [dev]), (1, [None])], np.eye(n_stages)
        )
        ages = [st.network_age_after for st in trace.stages]
        assert ages == (-state.u_aon[:, 0]).tolist()
        # After stage 1 the branch competes: the rule's tau at each pre-slot age.
        rule = eq._rule(params.sizes, params.slots, True)
        taus = [st.tau_aon for st in trace.stages[1:]]
        _, rows = eq._evaluators(params.sizes, params.slots, rule)
        assert taus == rows(-state.u_aon[:-1, 0]).tolist()

    def test_stage_records_are_immutable_tuples(self, equal_slots):
        # The records are named tuples: fixed field order, read-only fields,
        # and the trace's compliance is each stage's flag.
        trace = ss.simulate_grim_trigger(
            scenario(equal_slots), 8, seed=2, deviate_at_stage=3, case=ss.DeviationCase.H_AON_DEVIATES
        )
        assert etiquette.StageTrace._fields == (
            "stage", "compliance", "competitive_play", "tau_aon", "tau_ton", "network_age_after"
        )
        assert ss.ComplianceFlag._fields == ("stage", "recommendation", "obeyed")
        stage = trace.stages[3]
        # Built without their __new__, they are still the named tuples it makes.
        for st in trace.stages[2:4]:
            assert type(st) is etiquette.StageTrace and type(st.compliance) is ss.ComplianceFlag
            assert st == etiquette.StageTrace(*st[:1], ss.ComplianceFlag(*st.compliance), *st[2:])
            assert st.network_age_after == st[5] and st.compliance.obeyed == st.compliance[2]
        for record, field in ((stage, "tau_aon"), (stage.compliance, "obeyed")):
            with pytest.raises(AttributeError):
                setattr(record, field, 0.5)
        assert trace.compliance == tuple(st.compliance for st in trace.stages)
        assert [flag.obeyed for flag in trace.compliance] == [True] * 3 + [False] * 5
        assert [flag.stage for flag in trace.compliance] == list(range(8))
        assert stage.compliance == (3, ss.Recommendation.HEADS, False)

    @pytest.mark.parametrize("n_stages", [300.0, 10.5, "300"])
    def test_non_integer_stage_count_refused(self, n_stages, equal_slots):
        # 300.0 stages used to reach the draws and fail there with a TypeError.
        with pytest.raises(ss.ConfigurationError, match="stage count must be an integer"):
            ss.simulate_grim_trigger(
                scenario(equal_slots), n_stages, 1, 5, ss.DeviationCase.H_AON_DEVIATES
            )

    def test_deviation_stage_bounds_checked(self, equal_slots):
        # Past the run, or between two stages: a stage 2.5 would never deviate
        # and yet flag stages 3 on as competitive.
        for stage in (10, 2.5):
            with pytest.raises(ss.ConfigurationError):
                ss.simulate_grim_trigger(
                    scenario(equal_slots), 10, seed=1, deviate_at_stage=stage,
                    case=ss.DeviationCase.H_AON_DEVIATES,
                )
