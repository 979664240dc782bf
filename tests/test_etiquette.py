"""Grim-trigger etiquette: stage-1 forms, inequalities, and region sweeps."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import slotshare as ss
from slotshare import equilibrium as eq
from slotshare import etiquette, sim
from slotshare.etiquette import Feasibility, feasibility_and
from conftest import HEADS, TAILS


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
        assert report.ton_obeys_heads.margin < 0.0
        assert report.ton_obeys_heads.status is Feasibility.NO

    def test_two_node_networks_cooperate_at_patient_mid_bias(self, equal_slots):
        params = scenario(equal_slots, alpha=0.9, p_r=0.3)
        report = ss.deviation_inequalities(params, 2000, 300, seed=42)
        for est in report.inequalities:
            assert est.status is Feasibility.YES, est
        assert report.self_enforceable is Feasibility.YES

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
        # Reports stored with round-tripping float reprs: the two-node case
        # as the per-branch implementation that the shared-trajectory kernel
        # replaced wrote it, the five-node case as regenerated when networks
        # of three or more nodes began to draw their two smallest directly.
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


def assert_array_form(margin, se, status):
    """The region maps' array form of the 2-SE rule agrees with ``InequalityEstimate``."""
    margins, ses = np.full((2, 3), margin), np.full((2, 3), se)
    states = etiquette._tri_state(margins, ses)
    assert states.dtype == np.int8
    assert np.array_equal(states, np.full((2, 3), status.value))


class TestFeasibility:
    def test_kleene_and(self):
        yes, no, ind = Feasibility.YES, Feasibility.NO, Feasibility.INDETERMINATE
        assert feasibility_and(yes, yes) is yes
        assert feasibility_and(yes, no) is no
        assert feasibility_and(no, ind) is no
        assert feasibility_and(yes, ind) is ind
        assert feasibility_and(ind, ind) is ind

    def test_spe_feasible_examples(self, equal_slots):
        p2 = scenario(equal_slots, na=2, nt=2)
        assert ss.spe_feasible(p2, 0.9, 0.3, 800, 200, seed=17) is Feasibility.YES
        assert ss.spe_feasible(p2, 0.01, 0.3, 800, 200, seed=17) is Feasibility.NO
        p10 = scenario(equal_slots, na=10, nt=10)
        assert ss.spe_feasible(p10, 0.5, 0.5, 800, 200, seed=17) is Feasibility.NO

    def test_undecided_margin_is_indeterminate(self):
        est = etiquette.InequalityEstimate("x", 1.0, 1.0, margin=0.001, se=0.01)
        assert not est.decided
        assert est.status is Feasibility.INDETERMINATE
        assert_array_form(0.001, 0.01, Feasibility.INDETERMINATE)

    def test_zero_variance_margin_is_decided(self):
        est = etiquette.InequalityEstimate("x", 1.0, 1.0, margin=0.0, se=0.0)
        assert est.decided and est.holds
        assert est.status is Feasibility.YES
        assert_array_form(0.0, 0.0, Feasibility.YES)

    @pytest.mark.parametrize(
        "margin, se, status",
        [
            (0.5, 0.25, Feasibility.YES),
            (-0.5, 0.25, Feasibility.NO),
            (-0.0, 0.0, Feasibility.YES),
            (-0.0, 0.01, Feasibility.INDETERMINATE),
            (float("nan"), 0.01, Feasibility.INDETERMINATE),
        ],
    )
    def test_ties_at_two_standard_errors(self, margin, se, status):
        # A margin of exactly two SEs is decided, and -0.0 holds as 0.0 does.
        est = etiquette.InequalityEstimate("x", 1.0, 1.0, margin=margin, se=se)
        assert est.status is status
        assert_array_form(margin, se, status)

    def test_array_and_equals_kleene_and(self):
        values = list(Feasibility)
        pairs = [(a, b) for a in values for b in values]
        left, right = (np.array([p[k].value for p in pairs]) for k in (0, 1))
        combined = etiquette._tri_and(left, right)
        assert combined.tolist() == [feasibility_and(a, b).value for a, b in pairs]
        assert feasibility_and() is Feasibility.YES


class TestRegionSweep:
    def test_intersection_law_and_determinism(self, equal_slots):
        params = scenario(equal_slots)
        alphas = [0.3, 0.9]
        biases = [0.2, 0.5]
        grid = ss.region_sweep(params, alphas, biases, 300, 120, seed=7)
        again = ss.region_sweep(params, alphas, biases, 300, 120, seed=7, threads=4)
        assert np.array_equal(grid.self_enforceable, again.self_enforceable)
        assert np.array_equal(grid.margins, again.margins)
        for i in range(2):
            for j in range(2):
                combined = feasibility_and(
                    Feasibility(int(grid.ton_prefers[i, j])),
                    Feasibility(int(grid.aon_prefers[i, j])),
                )
                assert grid.self_enforceable[i, j] == combined.to_int()

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
            verdicts[n] = ss.deviation_inequalities(
                params, 3000, 300, seed=77
            ).aon_prefers
        assert verdicts[2] is Feasibility.YES
        assert verdicts[10] is Feasibility.NO

    @pytest.mark.parametrize(
        "slots_name, n", [("equal_slots", 2), ("small_collision", 5), ("equal_slots", 10)]
    )
    def test_cells_equal_single_point_reports(self, slots_name, n, request):
        # Common random numbers: every cell replays the master seed's run
        # streams, so it is bit-equal to the report at that point alone.
        params = scenario(request.getfixturevalue(slots_name), na=n, nt=n, initial_age=6.0)
        alphas, biases = [0.3, 0.75, 0.95], [0.2, 0.5, 0.8]
        grid = ss.region_sweep(params, alphas, biases, 120, 40, seed=9)
        for i, alpha in enumerate(alphas):
            for j, p_r in enumerate(biases):
                point = replace(params, alpha=alpha, p_r=p_r)
                report = ss.deviation_inequalities(point, 120, 40, seed=9)
                assert [e.margin for e in report.inequalities] == list(grid.margins[:, i, j])
                assert [e.se for e in report.inequalities] == list(grid.ses[:, i, j])
                assert grid.ton_prefers[i, j] == report.ton_prefers.to_int()
                assert grid.aon_prefers[i, j] == report.aon_prefers.to_int()
                assert grid.self_enforceable[i, j] == report.self_enforceable.to_int()

    def test_sweep_invariant_to_threads_and_chunks(self, small_collision, monkeypatch):
        params = scenario(small_collision, na=3, nt=3, initial_age=5.0)
        args = (params, [0.5, 0.9], [0.25, 0.5, 0.75], 100, 30)
        base = ss.region_sweep(*args, seed=3)
        variants = [ss.region_sweep(*args, seed=3, threads=t) for t in (2, 4)]
        for chunk in (1, 7, 64):
            monkeypatch.setattr(sim, "_DEFAULT_CHUNK", chunk)
            variants += [ss.region_sweep(*args, seed=3, threads=t) for t in (1, 2, 4)]
        for other in variants:
            for name in ("margins", "ses", "ton_prefers", "aon_prefers", "self_enforceable"):
                assert np.array_equal(getattr(base, name), getattr(other, name)), name

    def test_spe_feasible_is_the_one_cell_sweep(self, equal_slots):
        params = scenario(equal_slots, na=2, nt=2)
        for alpha, p_r in ((0.9, 0.3), (0.01, 0.3), (0.6, 0.7)):
            grid = ss.region_sweep(params, [alpha], [p_r], 300, 100, seed=17)
            verdict = ss.spe_feasible(params, alpha, p_r, 300, 100, seed=17)
            assert verdict.to_int() == grid.self_enforceable[0, 0]

    def test_grid_bounds_validated(self, equal_slots, monkeypatch):
        def batch(*args, **kwargs):
            raise AssertionError("simulated a bad grid")

        monkeypatch.setattr(sim, "_simulate_batch", batch)
        nan = float("nan")
        for alphas, biases in (([0.0, 0.5], [0.5]), ([nan], [0.5]), ([0.5], [0.5, nan])):
            with pytest.raises(ss.ConfigurationError):
                ss.region_sweep(scenario(equal_slots), alphas, biases, 10, 10, seed=1)

    @pytest.mark.parametrize("n_runs", [0, 1])
    def test_fewer_than_two_runs_rejected_before_simulating(
        self, n_runs, equal_slots, monkeypatch
    ):
        # One run has no standard error, so every margin would read as decided.
        def batch(*args, **kwargs):
            raise AssertionError("simulated a sweep without a standard error")

        monkeypatch.setattr(sim, "_simulate_batch", batch)
        params = scenario(equal_slots)
        config = ss.RunConfig(params, 10, ss.Mode.COMPETITIVE, seed=1)
        calls = (
            lambda: ss.region_sweep(params, [0.5], [0.5], n_runs, 10, seed=1),
            lambda: ss.deviation_inequalities(params, n_runs, 10, seed=1),
            lambda: ss.spe_feasible(params, 0.5, 0.5, n_runs, 10, seed=1),
            lambda: ss.monte_carlo(config, n_runs),
            lambda: ss.gain_grid(params, n_runs, 10, 1, [0.5], [0.5]),
        )
        for call in calls:
            with pytest.raises(ss.ConfigurationError, match="two runs"):
                call()

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
    def test_cooperative_prefix_replays_run_cooperation(self, na, nt, small_collision):
        params = scenario(small_collision, na=na, nt=nt, p_r=0.4)
        k = 25
        for case in ss.DeviationCase:
            trace = ss.simulate_grim_trigger(params, k + 5, 7, k, case)
            run = sim.run_cooperation(sim.RunConfig(params, k, sim.Mode.COOPERATIVE, 7))
            prefix = trace.stages[:k]
            assert [st.tau_aon for st in prefix] == run.stages.tau_aon.tolist()
            assert [st.network_age_after for st in prefix] == (-run.stages.u_aon).tolist()

    @pytest.mark.parametrize("na,nt", [(5, 5), (17, 4), (1, 3), (3, 1)])
    @pytest.mark.parametrize("case", list(ss.DeviationCase))
    def test_stage0_deviation_replays_the_engine_branch(self, case, na, nt, large_collision):
        params = scenario(large_collision, na=na, nt=nt, p_r=0.4)
        n_stages, seed = 40, 3
        trace = ss.simulate_grim_trigger(params, n_stages, seed, 0, case)
        coop, _ = ss.cooperative_optimum(params.sizes, params.slots, params.initial_age)
        forced = (coop.tau_aon, 1.0 / nt) if case.joint_access else (-1.0, -1.0)
        # Weight column n takes stage n alone: minus its network age.
        state = sim._simulate_batch(
            sim._Engine(params), seed, range(1), [None], np.eye(n_stages),
            stage1=np.array(forced).reshape(2, 1),
        )
        ages = [st.network_age_after for st in trace.stages]
        assert ages == (-state.u_aon[:, 0]).tolist()
        # After stage 1 the branch competes: the rule's tau at each pre-slot age.
        rule = eq._rule(params.sizes, params.slots, True)
        taus = [st.tau_aon for st in trace.stages[1:]]
        assert taus == eq._tau(-state.u_aon[:-1, 0], params.sizes, params.slots, rule).tolist()

    def test_deviation_stage_bounds_checked(self, equal_slots):
        with pytest.raises(ss.ConfigurationError):
            ss.simulate_grim_trigger(
                scenario(equal_slots), 10, seed=1, deviate_at_stage=10,
                case=ss.DeviationCase.H_AON_DEVIATES,
            )
