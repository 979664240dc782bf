"""Domain types, slot kernels and one-slot age dynamics against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slotshare as ss
from slotshare import model, sim
from conftest import compact_draw, enumerate_slot_probabilities, with_ton_tau

PROBS_FIELDS = (
    "p_idle",
    "p_success_total",
    "p_success_node_aon",
    "p_success_node_ton",
    "p_busy_aon",
    "p_busy_ton",
    "p_collision",
)


class TestDomainTypes:
    def test_slot_lengths_must_be_positive(self):
        with pytest.raises(ss.ConfigurationError):
            ss.SlotLengths(idle=0.0, success=1.0, collision=1.0)

    def test_idle_shorter_than_success(self):
        with pytest.raises(ss.ConfigurationError):
            ss.SlotLengths(idle=1.0, success=0.5, collision=1.0)

    def test_network_sizes_positive(self):
        with pytest.raises(ss.ConfigurationError):
            ss.NetworkSizes(0, 3)

    @pytest.mark.parametrize("counts", [(5, 2.5), (5.5, 5), (5.0, 5), (5, np.float64(2.0)), ("5", 5)])
    def test_network_sizes_must_be_integers(self, counts, equal_slots):
        # A 2.5-node TON would be simulated as such, and a 5.5-node AON
        # failed later with a bare TypeError.
        with pytest.raises(ss.ConfigurationError, match="node counts must be integers"):
            ss.NetworkSizes(*counts)

    def test_network_sizes_take_numpy_integers(self, equal_slots):
        sizes = ss.NetworkSizes(np.int64(5), np.uint8(2))
        assert sizes == ss.NetworkSizes(5, 2) and hash(sizes) == hash(ss.NetworkSizes(5, 2))
        params = ss.ScenarioParams(sizes, equal_slots)
        config = ss.RunConfig(params, 5, ss.Mode.COMPETITIVE, seed=1)
        assert ss.monte_carlo(config, 4).n_runs == 4

    def test_access_profile_range(self):
        with pytest.raises(ss.ConfigurationError):
            ss.AccessProfile(1.2, 0.1)

    def test_scenario_defaults_initial_age_to_success_slot(self, equal_slots):
        params = ss.ScenarioParams(ss.NetworkSizes(2, 2), equal_slots)
        assert params.initial_age == equal_slots.success

    @pytest.mark.parametrize("field", ["initial_age", "rate"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_scenario_rejects_non_finite(self, field, bad, equal_slots):
        with pytest.raises(ss.ConfigurationError):
            ss.ScenarioParams(ss.NetworkSizes(2, 2), equal_slots, **{field: bad})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_slot_lengths_reject_non_finite(self, bad):
        for lengths in ((bad, 1.0, 1.0), (0.01, bad, 1.0), (0.01, 1.0, bad)):
            with pytest.raises(ss.ConfigurationError):
                ss.SlotLengths(*lengths)


class TestCompetitiveKernel:
    def test_both_always_transmit_collide(self):
        probs = ss.slot_probabilities_competitive(
            ss.NetworkSizes(1, 1), ss.AccessProfile(1.0, 1.0)
        )
        assert (probs.p_idle, probs.p_success_total, probs.p_collision) == (0.0, 0.0, 1.0)

    def test_nobody_transmits_idle(self):
        probs = ss.slot_probabilities_competitive(
            ss.NetworkSizes(4, 7), ss.AccessProfile(0.0, 0.0)
        )
        assert (probs.p_idle, probs.p_success_total, probs.p_collision) == (1.0, 0.0, 0.0)

    def test_silent_aon_against_mixing_ton(self):
        # 0.8**5 and 5 * 0.2 * 0.8**4 evaluate exactly in binary floating point
        # scaled decimals; expected values checked against the enumeration oracle.
        probs = ss.slot_probabilities_competitive(
            ss.NetworkSizes(5, 5), ss.AccessProfile(0.0, 0.2)
        )
        assert probs.p_idle == pytest.approx(0.32768, abs=1e-12)
        assert probs.p_success_total == pytest.approx(0.4096, abs=1e-12)
        assert probs.p_collision == pytest.approx(0.26272, abs=1e-12)
        assert probs.p_success_node_ton == pytest.approx(0.08192, abs=1e-12)

    @pytest.mark.parametrize(
        "na,nt,tau_a,tau_t",
        [(1, 1, 0.3, 0.7), (2, 3, 0.5, 0.25), (3, 2, 0.0, 1.0), (4, 1, 0.9, 0.4)],
    )
    def test_matches_enumeration(self, na, nt, tau_a, tau_t):
        probs = ss.slot_probabilities_competitive(
            ss.NetworkSizes(na, nt), ss.AccessProfile(tau_a, tau_t)
        )
        oracle = enumerate_slot_probabilities(ss.NetworkSizes(na, nt), tau_a, tau_t)
        for field in PROBS_FIELDS:
            assert getattr(probs, field) == pytest.approx(oracle[field], abs=1e-12), field


class TestCooperativeKernel:
    def test_selected_but_silent_aon_idles(self):
        probs = ss.slot_probabilities_cooperative(
            ss.NetworkSizes(3, 3), ss.AccessProfile(0.0, 0.7), p_r=1.0
        )
        assert probs.p_idle == 1.0

    def test_single_ton_node_always_succeeds(self):
        probs = ss.slot_probabilities_cooperative(
            ss.NetworkSizes(3, 1), ss.AccessProfile(0.5, 1.0), p_r=0.0
        )
        assert probs.p_success_node_ton == 1.0
        assert probs.p_collision == 0.0

    def test_two_always_on_singletons_split_the_channel(self):
        probs = ss.slot_probabilities_cooperative(
            ss.NetworkSizes(1, 1), ss.AccessProfile(1.0, 1.0), p_r=0.5
        )
        assert probs.p_success_total == 1.0
        assert probs.p_idle == 0.0
        assert probs.p_collision == 0.0

    @pytest.mark.parametrize(
        "na,nt,tau_a,tau_t,p_r",
        [(2, 2, 0.4, 0.6, 0.3), (3, 1, 0.8, 1.0, 0.9), (1, 4, 1.0, 0.25, 0.2)],
    )
    def test_matches_enumeration(self, na, nt, tau_a, tau_t, p_r):
        probs = ss.slot_probabilities_cooperative(
            ss.NetworkSizes(na, nt), ss.AccessProfile(tau_a, tau_t), p_r
        )
        oracle = enumerate_slot_probabilities(ss.NetworkSizes(na, nt), tau_a, tau_t, p_r)
        for field in PROBS_FIELDS:
            assert getattr(probs, field) == pytest.approx(oracle[field], abs=1e-12), field

    def test_silent_aon_reduces_to_ton_only_channel_exactly(self):
        # Competitive play with a mute AON and device bias 0 describe the same
        # TON-only channel; every field must agree bitwise.
        sizes = ss.NetworkSizes(4, 3)
        competitive = ss.slot_probabilities_competitive(sizes, ss.AccessProfile(0.0, 0.35))
        cooperative = ss.slot_probabilities_cooperative(
            sizes, ss.AccessProfile(0.77, 0.35), p_r=0.0
        )
        for field in PROBS_FIELDS:
            assert getattr(competitive, field) == getattr(cooperative, field), field


class TestOneSlotCheck:
    """One check of the slot probabilities serves the kernels and the stage payoffs."""

    SIZES = ss.NetworkSizes(2, 3)
    # In field order (idle, success, node AON, node TON, busy AON, busy TON,
    # collision), each breaking one check and passing those before it.
    BROKEN = {
        "probability outside": (1.5, 0.0, 0.0, 0.0, 0.0, 0.0, -0.5),
        "slot-type probabilities do not sum": (0.5, 0.25, 0.0, 0.0625, 0.25, 0.0, 0.125),
        "per-node event partition": (0.25, 0.5, 0.125, 0.0625, 0.125, 0.4375, 0.25),
        "do not aggregate": (0.25, 0.5, 0.125, 0.0625, 0.375, 0.4375, 0.25),
    }

    @pytest.mark.parametrize("p_r", [None, 0.5])
    @pytest.mark.parametrize("check", list(BROKEN))
    def test_kernels_and_payoffs_raise_one_message(self, check, p_r, equal_slots, monkeypatch):
        terms = self.BROKEN[check]
        monkeypatch.setattr(model, "_slot_terms", lambda *args: terms)
        profile = ss.AccessProfile(0.5, 0.5)
        if p_r is None:
            kernel = lambda: ss.slot_probabilities_competitive(self.SIZES, profile)
        else:
            kernel = lambda: ss.slot_probabilities_cooperative(self.SIZES, profile, p_r)
        callers = [
            kernel,
            lambda: ss.expected_stage_payoffs(self.SIZES, equal_slots, profile, 2.0, 1.0, p_r),
            lambda: ss.SlotProbabilities(*terms).validate(self.SIZES),
        ]
        messages = set()
        for call in callers:
            with pytest.raises(ss.ConfigurationError, match=check) as err:
                call()
            messages.add(str(err.value))
        assert len(messages) == 1, messages


@given(
    na=st.integers(1, 10),
    nt=st.integers(1, 10),
    tau_a=st.floats(0.0, 1.0),
    tau_t=st.floats(0.0, 1.0),
    p_r=st.one_of(st.none(), st.floats(0.0, 1.0)),
)
@settings(max_examples=200, deadline=None)
def test_probability_partitions(na, nt, tau_a, tau_t, p_r):
    sizes = ss.NetworkSizes(na, nt)
    profile = ss.AccessProfile(tau_a, tau_t)
    if p_r is None:
        probs = ss.slot_probabilities_competitive(sizes, profile)
    else:
        probs = ss.slot_probabilities_cooperative(sizes, profile, p_r)
    assert abs(probs.p_idle + probs.p_success_total + probs.p_collision - 1.0) <= 1e-12
    for succ, busy in (
        (probs.p_success_node_aon, probs.p_busy_aon),
        (probs.p_success_node_ton, probs.p_busy_ton),
    ):
        assert abs(succ + busy + probs.p_idle + probs.p_collision - 1.0) <= 1e-12
    total = na * probs.p_success_node_aon + nt * probs.p_success_node_ton
    assert abs(total - probs.p_success_total) <= 1e-12


def _node_age(sizes, profile, prior_age, slots):
    # Every AON node has the same age here, so the expected network age after
    # the slot is that of one node.
    return -ss.expected_stage_payoffs(sizes, slots, profile, prior_age, 1.0).u_aon


def _throughput(sizes, profile, slots, rate):
    return ss.expected_stage_payoffs(sizes, slots, profile, 1.0, rate).u_ton


class TestExpectedNodeAge:
    def test_certain_success_resets(self, small_collision):
        sizes, profile = ss.NetworkSizes(1, 1), ss.AccessProfile(1.0, 0.0)
        probs = ss.slot_probabilities_competitive(sizes, profile)
        assert probs.p_success_node_aon == 1.0
        age = _node_age(sizes, profile, 7.0, small_collision)
        assert age == small_collision.success

    def test_silent_aon_stage_age(self, small_collision):
        age = _node_age(ss.NetworkSizes(5, 5), ss.AccessProfile(0.0, 0.2), 1.01, small_collision)
        assert age == pytest.approx(1.4535, abs=1e-4)

    def test_aggressive_aon_stage_age(self, small_collision):
        age = _node_age(ss.NetworkSizes(5, 5), ss.AccessProfile(1.0, 0.2), 1.01, small_collision)
        assert age == pytest.approx(1.1110, abs=1e-4)

    def test_matches_sampled_dynamics(self, small_collision):
        # One slot step of the engine on independent rows must reproduce the
        # closed form.
        sizes = ss.NetworkSizes(3, 2)
        profile = ss.AccessProfile(0.35, 0.4)
        prior = 2.5
        expected = _node_age(sizes, profile, prior, small_collision)
        engine = sim._Engine(ss.ScenarioParams(sizes, small_collision, initial_age=prior))
        rows = 20_000
        rng = np.random.default_rng(1234)
        uniforms = rng.random((rows, engine.width))
        draw = compact_draw(engine, uniforms)
        ages = np.full((rows, sizes.n_aon), prior, order="F")
        # The TON plays its count at tau_ton, read off its two smallest draws.
        draw = with_ton_tau(engine, uniforms, draw, profile.tau_ton)
        engine.slot(ages, draw, np.full(rows, profile.tau_aon), np.full(rows, True))
        samples = ages[:, 0]
        se = samples.std(ddof=1) / np.sqrt(rows)
        assert abs(samples.mean() - expected) <= 4.0 * se


class TestThroughputAndNetworkAge:
    def test_zero_when_no_ton_success(self, small_collision):
        profile = ss.AccessProfile(1.0, 1.0)
        assert _throughput(ss.NetworkSizes(1, 1), profile, small_collision, 2.0) == 0.0

    def test_lone_ton_node_full_slot(self, small_collision):
        profile = ss.AccessProfile(0.0, 1.0)
        assert _throughput(ss.NetworkSizes(1, 1), profile, small_collision, 1.0) == 1.01

    def test_mixing_ton_value(self, small_collision):
        profile = ss.AccessProfile(0.0, 0.2)
        assert _throughput(ss.NetworkSizes(5, 5), profile, small_collision, 1.0) == pytest.approx(
            0.0827392, abs=1e-12
        )
