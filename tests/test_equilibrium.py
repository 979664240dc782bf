"""Closed-form stage-game solutions certified by the grid-search oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slotshare as ss
from slotshare import equilibrium as eq
from slotshare.config import SlotScenario, slots_from_scenario

STEP = 1e-4


def oracle_check(closed, objective, grid_step=STEP):
    """Closed form must sit within one grid step of the oracle argmax.

    Flat stretches of the objective (a single-node AON has a linear stage
    objective, a fully silenced opponent a constant one) make the argmax
    arbitrary; there the closed form must instead attain the optimal value.
    """
    grid_arg = ss.best_response_oracle(objective, grid_step)
    if abs(closed - grid_arg) <= grid_step + 1e-12:
        return
    taus = np.linspace(0.0, 1.0, int(round(1.0 / grid_step)) + 1)
    best = float(np.max(objective(taus)))
    closed_value = float(objective(np.asarray([closed]))[0])
    assert closed_value >= best - 1e-10 * (1.0 + abs(best)), (
        f"closed form {closed} is {best - closed_value} below the grid optimum "
        f"(grid argmax {grid_arg})"
    )


class TestMsne:
    def test_threshold_regression(self, small_collision):
        _, th = ss.msne(ss.NetworkSizes(5, 5), small_collision, 1.0)
        assert th.th0 == pytest.approx(-0.6812, abs=1e-3)
        assert th.th1 == pytest.approx(4.5450, abs=1e-3)
        assert th.th == th.th1

    def test_forced_one_below_threshold(self, small_collision):
        profile, th = ss.msne(ss.NetworkSizes(5, 5), small_collision, 1.0)
        assert profile.tau_aon == 1.0
        assert th.regime is ss.Regime.FORCED_ONE

    def test_interior_regression(self, small_collision):
        profile, th = ss.msne(ss.NetworkSizes(5, 5), small_collision, 4.6460)
        assert profile.tau_aon == pytest.approx(0.9295, abs=1e-4)
        assert th.regime is ss.Regime.INTERIOR

    @pytest.mark.parametrize("nt", [1, 2, 5, 10, 50])
    def test_ton_side_is_reciprocal_size(self, nt, small_collision):
        profile, _ = ss.msne(ss.NetworkSizes(3, nt), small_collision, 2.0)
        assert profile.tau_ton == 1.0 / nt

    def test_ton_side_ignores_aon_and_slots(self, small_collision, large_collision):
        values = {
            ss.msne(ss.NetworkSizes(na, 4), slots, age)[0].tau_ton
            for na in (1, 7)
            for slots in (small_collision, large_collision)
            for age in (0.5, 9.0)
        }
        assert values == {0.25}

    def test_single_ton_node_keeps_aon_aggressive(self, small_collision):
        # tau_ton* = 1 removes the interior trade-off: always transmit when
        # collisions are cheaper than successes.
        for age in (0.1, 1.0, 50.0):
            profile, _ = ss.msne(ss.NetworkSizes(1, 1), small_collision, age)
            assert profile.tau_aon == 1.0

    def test_single_ton_node_silences_aon_for_long_collisions(self, large_collision):
        for age in (0.1, 1.0, 50.0):
            profile, th = ss.msne(ss.NetworkSizes(1, 1), large_collision, age)
            assert profile.tau_aon == 0.0
            assert th.th0 == np.inf

    def test_rejects_negative_age(self, small_collision):
        with pytest.raises(ss.ConfigurationError):
            ss.msne(ss.NetworkSizes(2, 2), small_collision, -0.5)


def equal_slots_display(sizes, slots, age):
    """The published equal-slots equilibrium: silent up to N_A (sigma_S - sigma_I)."""
    na = sizes.n_aon
    if age <= na * (slots.success - slots.idle):
        return 0.0
    tau = (na * (slots.idle - slots.success) + age) / (na * (slots.idle - slots.collision + age))
    return min(max(tau, 0.0), 1.0)


class TestEqualSlots:
    def test_singleton_aon_interior_value(self, equal_slots):
        profile, _ = ss.msne(ss.NetworkSizes(1, 3), equal_slots, 2.0)
        assert profile.tau_aon == 1.0

    def test_below_threshold_is_silent(self, equal_slots):
        profile, _ = ss.msne(ss.NetworkSizes(5, 5), equal_slots, 4.9)
        assert profile.tau_aon == 0.0

    def test_requires_equal_lengths(self, small_collision):
        # Unequal success and collision slots take the general rule.
        sizes = ss.NetworkSizes(2, 2)
        profile, th = ss.msne(sizes, small_collision, 3.0)
        assert th.regime is ss.Regime.INTERIOR
        assert profile.tau_aon != pytest.approx(equal_slots_display(sizes, small_collision, 3.0))

    @pytest.mark.parametrize("na,nt", [(1, 1), (2, 3), (5, 5), (10, 2)])
    @pytest.mark.parametrize("age", [0.0, 1.01, 4.99, 5.0, 5.5, 42.0])
    def test_general_rule_specializes_exactly(self, na, nt, age, equal_slots):
        sizes = ss.NetworkSizes(na, nt)
        general, _ = ss.msne(sizes, equal_slots, age)
        special = equal_slots_display(sizes, equal_slots, age)
        assert general == ss.AccessProfile(special, 1.0 / nt)

    def test_tie_resolves_to_silent_branch(self, equal_slots):
        _, th = ss.msne(ss.NetworkSizes(5, 5), equal_slots, 1.0)
        assert th.regime is ss.Regime.FORCED_ZERO


class TestCooperativeOptimum:
    def test_two_singletons_equal_slots(self, equal_slots):
        profile, _ = ss.cooperative_optimum(ss.NetworkSizes(1, 1), equal_slots, 1.01)
        assert (profile.tau_aon, profile.tau_ton) == (1.0, 1.0)

    def test_interior_value_against_fine_oracle(self, equal_slots):
        sizes = ss.NetworkSizes(5, 5)
        profile, th = ss.cooperative_optimum(sizes, equal_slots, 10.0)
        assert th.regime is ss.Regime.INTERIOR
        assert 0.0 < profile.tau_aon < 1.0
        oracle_check(
            profile.tau_aon,
            lambda taus: -eq._stage_age(taus, 0.2, sizes, equal_slots, 10.0, p_r=0.7),
            grid_step=1e-5,
        )

    @pytest.mark.parametrize("nt", [1, 2, 5, 10])
    def test_ton_side(self, nt, small_collision):
        profile, _ = ss.cooperative_optimum(ss.NetworkSizes(2, nt), small_collision, 3.0)
        assert profile.tau_ton == 1.0 / nt

    def test_thresholds(self, small_collision):
        _, th = ss.cooperative_optimum(ss.NetworkSizes(5, 5), small_collision, 1.0)
        assert th.th0 == 5 * (1.01 - 0.01)
        assert th.th1 == pytest.approx(5 * (1.01 - 0.101), abs=1e-12)


class TestStagePayoffs:
    def test_two_player_cooperation_example(self, equal_slots):
        sizes = ss.NetworkSizes(1, 1)
        profile, _ = ss.cooperative_optimum(sizes, equal_slots, 1.01)
        payoffs = ss.expected_stage_payoffs(sizes, equal_slots, profile, 1.01, 1.0, p_r=0.5)
        assert payoffs.u_aon == pytest.approx(-1.515, abs=1e-9)
        assert payoffs.u_ton == pytest.approx(0.505, abs=1e-9)

    def test_two_player_competition_cell(self, equal_slots):
        sizes = ss.NetworkSizes(1, 1)
        payoffs = ss.expected_stage_payoffs(
            sizes, equal_slots, ss.AccessProfile(1.0, 1.0), 1.01, 1.0
        )
        assert payoffs.u_aon == pytest.approx(-2.02, abs=1e-12)
        assert payoffs.u_ton == 0.0

    @pytest.mark.parametrize("p_r", [None, 0.4])
    def test_all_silent_gives_idle_growth(self, p_r, small_collision):
        payoffs = ss.expected_stage_payoffs(
            ss.NetworkSizes(2, 2), small_collision, ss.AccessProfile(0.0, 0.0), 3.0, 1.0, p_r=p_r
        )
        assert payoffs.u_ton == 0.0
        assert payoffs.u_aon == pytest.approx(-(3.0 + small_collision.idle), abs=1e-12)

    def test_vector_kernels_match_scalar_payoffs(self, small_collision):
        # The scalar API evaluates the payoff formulas on floats, the oracle
        # and the bias scan on arrays; a float's ** and an array's may round
        # differently, so the two agree to rounding.
        sizes = ss.NetworkSizes(3, 4)
        profile = ss.AccessProfile(0.3, 0.25)
        scalar = ss.expected_stage_payoffs(sizes, small_collision, profile, 2.0, 1.5)
        ta, tt = np.array([0.3]), np.array([0.25])
        age = eq._stage_age(ta, tt, sizes, small_collision, 2.0)[0]
        thr = eq._stage_throughput(ta, tt, sizes, small_collision, 1.5)[0]
        assert scalar.u_aon == pytest.approx(-age, abs=1e-14)
        assert scalar.u_ton == pytest.approx(thr, abs=1e-14)

    @pytest.mark.parametrize("rate", [0.0, -1.0, np.inf, np.nan])
    @pytest.mark.parametrize("p_r", [None, 0.4])
    def test_bad_rate_rejected(self, rate, p_r, equal_slots):
        with pytest.raises(ss.ConfigurationError, match="transmission rate"):
            ss.expected_stage_payoffs(
                ss.NetworkSizes(3, 3), equal_slots, ss.AccessProfile(0.3, 0.3), 2.0, rate, p_r
            )


class TestBestResponseOracle:
    def test_ton_best_response_quarter(self, small_collision):
        sizes = ss.NetworkSizes(3, 4)
        result = ss.best_response_oracle(
            lambda taus: eq._stage_throughput(0.37, taus, sizes, small_collision, 1.0),
            STEP,
        )
        assert abs(result - 0.25) <= STEP

    def test_aon_forced_one_when_below_threshold(self, small_collision):
        sizes = ss.NetworkSizes(5, 5)
        result = ss.best_response_oracle(
            lambda taus: -eq._stage_age(taus, 0.2, sizes, small_collision, 1.0),
            STEP,
        )
        assert result == 1.0

    def test_aon_interior_regression(self, small_collision):
        sizes = ss.NetworkSizes(5, 5)
        result = ss.best_response_oracle(
            lambda taus: -eq._stage_age(taus, 0.2, sizes, small_collision, 4.6460),
            STEP,
        )
        assert result == pytest.approx(0.9295, abs=STEP)

    def test_rejects_coarse_grid(self):
        with pytest.raises(ss.ConfigurationError):
            ss.best_response_oracle(lambda taus: taus, 0.5)

    def test_rejects_objective_not_mapping_the_grid(self):
        with pytest.raises(ss.ConfigurationError, match="shape"):
            ss.best_response_oracle(lambda taus: 0.0, STEP)


def random_scenarios(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        sizes = ss.NetworkSizes(int(rng.integers(1, 11)), int(rng.integers(1, 11)))
        ratio = float(rng.choice([0.1, 1.0, 2.0]))
        slots = ss.SlotLengths(0.01, 1.01, ratio * 1.01)
        yield sizes, slots, rng


def competitive_threshold(sizes, slots):
    rule = eq._rule(sizes, slots, competitive=True)
    return max(rule.th0, rule.th1)


def draw_age(rng, threshold):
    cap = threshold if np.isfinite(threshold) and threshold > 0 else 1.0
    return float(rng.uniform(0.0, 3.0 * cap))


def check_equilibrium_against_oracle(sizes, slots, age, grid_step=STEP):
    nash, _ = ss.msne(sizes, slots, age)
    oracle_check(
        nash.tau_aon,
        lambda taus: -eq._stage_age(taus, nash.tau_ton, sizes, slots, age),
        grid_step,
    )
    oracle_check(
        nash.tau_ton,
        lambda taus: eq._stage_throughput(nash.tau_aon, taus, sizes, slots, 1.0),
        grid_step,
    )
    coop, _ = ss.cooperative_optimum(sizes, slots, age)
    oracle_check(
        coop.tau_aon,
        lambda taus: -eq._stage_age(taus, coop.tau_ton, sizes, slots, age, p_r=0.7),
        grid_step,
    )
    oracle_check(
        coop.tau_ton,
        lambda taus: eq._stage_throughput(coop.tau_aon, taus, sizes, slots, 1.0, p_r=0.3),
        grid_step,
    )


def test_closed_forms_match_oracle_on_random_scenarios():
    for sizes, slots, rng in random_scenarios(150, seed=20240):
        age = draw_age(rng, competitive_threshold(sizes, slots))
        check_equilibrium_against_oracle(sizes, slots, age)


def test_mutual_best_response():
    grid = np.linspace(0.0, 1.0, 11)
    cases = [
        (ss.NetworkSizes(5, 5), ss.SlotLengths(0.01, 1.01, 0.101), 4.6460),
        (ss.NetworkSizes(5, 5), ss.SlotLengths(0.01, 1.01, 1.01), 6.0),
        (ss.NetworkSizes(3, 2), ss.SlotLengths(0.01, 1.01, 2.02), 8.0),
    ]
    for sizes, slots, age in cases:
        nash, _ = ss.msne(sizes, slots, age)
        u_aon = -eq._stage_age(nash.tau_aon, nash.tau_ton, sizes, slots, age)
        u_ton = eq._stage_throughput(nash.tau_aon, nash.tau_ton, sizes, slots, 1.0)
        dev_aon = -eq._stage_age(grid, nash.tau_ton, sizes, slots, age)
        dev_ton = eq._stage_throughput(nash.tau_aon, grid, sizes, slots, 1.0)
        assert float(np.max(dev_aon)) <= u_aon + 1e-9
        assert float(np.max(dev_ton)) <= u_ton + 1e-9


def test_interior_is_continuous_at_threshold_for_multinode_aon():
    # The single-node AON is excluded: its stage objective is linear, so the
    # rule is bang-bang with a genuine jump at the threshold.
    cases = [
        (ss.NetworkSizes(5, 5), ss.SlotLengths(0.01, 1.01, 0.101), 1.0),
        (ss.NetworkSizes(5, 5), ss.SlotLengths(0.01, 1.01, 1.01), 0.0),
        (ss.NetworkSizes(4, 3), ss.SlotLengths(0.01, 1.01, 2.02), 0.0),
        (ss.NetworkSizes(2, 6), ss.SlotLengths(0.01, 1.01, 0.101), 1.0),
    ]
    for sizes, slots, expected_boundary in cases:
        for competitive in (True, False):
            rule = eq._rule(sizes, slots, competitive)
            th = max(rule.th0, rule.th1)
            one, _ = eq._evaluators(sizes, slots, rule)
            below = one(th)
            above = one(th + 1e-9)
            assert abs(above - below) <= 1e-6, (sizes, slots, competitive, below, above)
            if expected_boundary is not None:
                assert below in (0.0, 1.0)


# Hand-built rules: on these slots, at age 1 the interior formula is c / (k + c).
HAND_SIZES, HAND_SLOTS = ss.NetworkSizes(2, 1), ss.SlotLengths(0.5, 1.0, 1.0)


def _hand_rule(k, c):
    return eq._Rule(k, c, 0.0, 0.5)


def test_out_of_range_raises_instead_of_clamping():
    # 50 / 1, and 0 / 0, where a Python float raises ZeroDivisionError: the
    # float evaluator must surface it as the same error, with the value numpy
    # reports, and read as the array evaluator's.
    for (k, c), value in (((-49.0, 50.0), "50.0"), ((0.0, 0.0), "nan")):
        one, rows = eq._evaluators(HAND_SIZES, HAND_SLOTS, _hand_rule(k, c))
        with pytest.raises(ss.OutOfRangeError, match=f"probability {value} ") as scalar:
            one(1.0)
        with pytest.raises(ss.OutOfRangeError, match=f"probability {value} ") as array:
            rows(np.array([1.0]))
        assert str(scalar.value) == str(array.value)


def _rule_result(tau, age):
    try:
        return tau(age)
    except ss.OutOfRangeError as err:
        return str(err)


@pytest.mark.parametrize("scenario", list(SlotScenario), ids=lambda s: s.value)
def test_scalar_path_equals_array_path(scenario):
    slots = slots_from_scenario(scenario)
    rng = np.random.default_rng(11)
    for na, nt in ((5, 5), (1, 3), (3, 1), (2, 6), (17, 4), (2, 1)):
        sizes = ss.NetworkSizes(na, nt)
        rules = [eq._rule(sizes, slots, competitive) for competitive in (True, False)]
        # Integer ages also go in as Python ints.
        ages = list(range(0, 21)) + [float(a) for a in rng.uniform(0.0, 20.0, 40)]
        for th in (t for rule in rules for t in (rule.th0, rule.th1)):
            if np.isfinite(th):
                ages += [np.nextafter(th, -np.inf), th, np.nextafter(th, np.inf)]
        for competitive, rule in zip((True, False), rules):
            one, rows = eq._evaluators(sizes, slots, rule)
            for age in ages:
                array = np.array([age], dtype=np.float64)
                expected = _rule_result(rows, array)
                if not isinstance(expected, str):
                    expected = float(expected[0]).hex()
                # The float evaluator, then the solver, which refuses a
                # negative age, on every scalar input type.
                scalars = (age, float(age), np.float64(age), np.array(float(age)))
                results = [("evaluator", _rule_result(one, float(age)))]
                results += [
                    (type(x), _rule_result(lambda a: _solved_tau(sizes, slots, a, competitive), x))
                    for x in scalars
                    if age >= 0.0
                ]
                for path, got in results:
                    if not isinstance(got, str):
                        assert type(got) is float
                        got = got.hex()
                    assert got == expected, (rule, sizes, age, path)


def _solved_tau(sizes, slots, age, competitive):
    return eq._solve(sizes, slots, age, competitive)[0].tau_aon


def _reference_thresholds(sizes, slots, competitive):
    """The competitive and the cooperative thresholds, each as written before they became one."""
    si, ss_, sc = slots.idle, slots.success, slots.collision
    na, nt = sizes.n_aon, sizes.n_ton
    if not competitive or ss_ == sc:
        return na * (ss_ - si), na * (ss_ - sc)
    th1 = na * (ss_ - sc)
    if nt == 1:
        return (-np.inf if ss_ > sc else np.inf), th1
    tt = 1.0 / nt
    return na * (ss_ - si) - na * nt * tt * (ss_ - sc) / (1.0 - tt), th1


def _reference_tau(delta, sizes, slots, competitive):
    """The competitive-equilibrium and the cooperative-optimum AON rules, written out apart.

    At sigma_S = sigma_C the competitive rule is the cooperative one.
    """
    si, ss_, sc = slots.idle, slots.success, slots.collision
    na, nt = sizes.n_aon, sizes.n_ton
    th0, th1 = _reference_thresholds(sizes, slots, competitive)

    def cooperative(d):
        if na == 1:
            return np.ones_like(d)
        return (d - na * (ss_ - si)) / (na * (d + (si - sc) - na * (ss_ - sc)))

    def competing(d):
        if na == 1:
            return np.ones_like(d)
        tt = 1.0 / nt
        cross = na * nt * tt * (ss_ - sc)
        num = (1.0 - tt) * (d - na * (ss_ - si)) + cross
        den = (1.0 - tt) * na * (d + (si - sc) - na * (ss_ - sc)) + cross
        return num / den

    interior = competing if competitive and ss_ != sc else cooperative
    return _clip_three_branch(delta, th0, th1, interior)


def _hex_or_text(result):
    """A rule's float, or its one-element array's entry, in hex; an error text as is."""
    if isinstance(result, str):
        return result
    assert type(result) in (float, np.ndarray)
    return float(np.ravel(result)[0]).hex()


def test_one_rule_equals_the_two_reference_rules():
    # The one rule and the reference rules each write their own formula;
    # every result and error text is identical.
    rng = np.random.default_rng(2025)
    grid = itertools.product((1, 2, 5, 17), (1, 2, 5), (0.1, 0.99, 1.0, 1.01, 2.0), (True, False))
    for na, nt, ratio, competitive in grid:
        sizes = ss.NetworkSizes(na, nt)
        slots = ss.SlotLengths(0.01, 1.01, ratio * 1.01)
        rule = eq._rule(sizes, slots, competitive)
        one, rows = eq._evaluators(sizes, slots, rule)
        reference = _reference_thresholds(sizes, slots, competitive)
        assert [_hex_or_text(t) for t in (rule.th0, rule.th1)] == [
            _hex_or_text(t) for t in reference
        ]
        # An infinite age gives inf / inf above the threshold: the
        # out-of-range error that valid slot lengths can reach.
        ages = [0, 1, 2, 3, np.inf] + [float(a) for a in rng.uniform(0.0, 4.0 * na, 30)]
        for th in filter(np.isfinite, reference):
            ages += [np.nextafter(th, -np.inf), th, np.nextafter(th, np.inf)]
        for age in (a for a in ages if a >= 0.0):
            # The array evaluator, then the float one, against the reference
            # rules on the array (their threshold rule has no scalar path of
            # its own).
            want = _rule_result(
                lambda a: _reference_tau(a, sizes, slots, competitive), np.array([age])
            )
            for tau, value in ((rows, np.array([age])), (one, float(age))):
                got = _rule_result(tau, value)
                assert _hex_or_text(got) == _hex_or_text(want), (sizes, slots, competitive, age)


def _clip_three_branch(delta, th0, th1, interior):
    """The threshold rule's array path as one where/clip expression, kept as the reference."""
    th = max(th0, th1)
    pinned = 0.0 if th == th0 else 1.0
    mask = delta > th
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = interior(delta)
    bad = mask & ~((raw >= -eq.BOUNDARY_TOL) & (raw <= 1.0 + eq.BOUNDARY_TOL))
    if np.any(bad):
        first = np.flatnonzero(bad)[0]
        eq._raise_out_of_range(raw[first], delta[first], th0, th1)
    return np.where(mask, np.clip(raw, 0.0, 1.0), pinned)


def _clip_tau(delta, sizes, slots, rule):
    """``rule``'s tau through the reference array path, every rule scaling by k and adding c."""
    si, ss_, sc = slots.idle, slots.success, slots.collision
    na = sizes.n_aon
    k, c, th0, th1 = rule

    def interior(d):
        if na == 1:
            return np.ones_like(d)
        num = k * (d - na * (ss_ - si)) + c
        den = k * na * (d + (si - sc) - na * (ss_ - sc)) + c
        return num / den

    return _clip_three_branch(delta, th0, th1, interior)


# Beside the three scenarios, sigma_I = sigma_C (gap 0) and another sigma_S = sigma_C (span 0).
FOLD_SLOTS = [slots_from_scenario(s) for s in SlotScenario] + [
    ss.SlotLengths(0.101, 1.01, 0.101),
    ss.SlotLengths(0.25, 2.0, 2.0),
]


@given(
    na=st.sampled_from([1, 2, 5, 17]),
    nt=st.sampled_from([1, 2, 5]),
    slots=st.sampled_from(FOLD_SLOTS),
    competitive=st.booleans(),
    drawn=st.lists(st.one_of(st.floats(0.0, 100.0), st.floats(0.0, 1e300)), max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_folded_rule_equals_the_unfolded_formula(na, nt, slots, competitive, drawn):
    # The fold leaves out k *, + c and - span where they are identities: both
    # evaluators equal the formula with every operation (``_clip_tau``) by
    # float.hex, and raise the same out-of-range error or none.
    sizes = ss.NetworkSizes(na, nt)
    rule = eq._rule(sizes, slots, competitive)
    one, rows = eq._evaluators(sizes, slots, rule)
    ages = [0.0, -0.0, *drawn]
    for th in filter(np.isfinite, rule[2:]):
        ages += [a for a in (np.nextafter(th, -np.inf), th, np.nextafter(th, np.inf)) if a >= 0.0]
    for age in ages:
        want = _rule_result(lambda d: _clip_tau(d, sizes, slots, rule), np.array([age]))
        for tau, value in ((rows, np.array([age])), (one, float(age))):
            got = _rule_result(tau, value)
            assert _hex_or_text(got) == _hex_or_text(want), (sizes, slots, rule, age)


def _bits(result):
    return result if isinstance(result, str) else result.view(np.int64).tolist()


@pytest.mark.parametrize("scenario", list(SlotScenario), ids=lambda s: s.value)
def test_rows_equals_the_clip_expression(scenario):
    # The array path clips in place and only when a row leaves [0, 1]: on
    # ages in every regime, near each threshold and infinite (an error), the
    # taus are bit-equal to the where/clip expression and errors read alike.
    slots = slots_from_scenario(scenario)
    rng = np.random.default_rng(404)
    for na, nt, competitive in itertools.product((1, 2, 5, 17), (1, 2, 5), (True, False)):
        sizes = ss.NetworkSizes(na, nt)
        rule = eq._rule(sizes, slots, competitive)
        _, rows = eq._evaluators(sizes, slots, rule)
        finite = [t for t in (rule.th0, rule.th1) if np.isfinite(t)]
        top = max(finite + [1.0])
        ages = [rng.uniform(0.0, 3.0 * top, 200)]
        for th in finite:
            ages.append(th + rng.uniform(-1.0, 1.0, 50) * max(abs(th), 1.0) * 1e-3)
            ages.append([np.nextafter(th, -np.inf), th, np.nextafter(th, np.inf)])
        delta = np.concatenate(ages)
        delta = delta[delta >= 0.0]
        for case in (delta, np.append(delta, np.inf)):
            got = _rule_result(rows, case)
            want = _rule_result(lambda d: _clip_tau(d, sizes, slots, rule), case)
            assert _bits(got) == _bits(want), (sizes, competitive)


def test_rows_clip_keeps_bits_of_the_clip_expression():
    # Rows slightly outside [0, 1] within the tolerance are clipped, and a
    # -0.0 row stays -0.0, exactly as np.clip leaves it; the float evaluator
    # reads the same bits.  Hand rules whose age-1 tau c / (k + c) is about
    # -1e-10, -0.0, 0.0, 0.5, 1.0, 1 + 1e-10 and 0.25, on both pinned
    # branches and with every age interior.
    kcs = ((1.0 + 1e-10, -1e-10), (-1.0, 0.0), (1.0, 0.0), (0.5, 0.5), (0.0, 1.0),
           (-1e-10, 1.0 + 1e-10), (0.75, 0.25))
    for th0, th1, ages in ((0.5, 0.0, [0.0, 1.0, 2.0]), (0.0, 0.5, [0.0, 1.0, 2.0]),
                           (-1.0, -2.0, [1.0, 2.0])):
        delta = np.array(ages)
        for k, c in kcs:
            rule = eq._Rule(k, c, th0, th1)
            one, rows = eq._evaluators(HAND_SIZES, HAND_SLOTS, rule)
            got = rows(delta)
            assert _bits(got) == _bits(_clip_tau(delta, HAND_SIZES, HAND_SLOTS, rule))
            assert _bits(got) == _bits(np.array([one(d) for d in ages]))
        one, rows = eq._evaluators(HAND_SIZES, HAND_SLOTS, eq._Rule(-1.0, 0.0, th0, th1))
        assert np.signbit(rows(np.array([1.0]))[0]) and np.signbit(one(1.0))


def _dataclass_payoffs(sizes, slots, profile, age, rate, p_r):
    """The stage payoffs read off the public ``SlotProbabilities`` kernels."""
    if p_r is None:
        probs = ss.slot_probabilities_competitive(sizes, profile)
    else:
        probs = ss.slot_probabilities_cooperative(sizes, profile, p_r)
    growth = (
        probs.p_idle * slots.idle
        + probs.p_success_total * slots.success
        + max(probs.p_collision, 0.0) * slots.collision
    )
    u_aon = -float((1.0 - probs.p_success_node_aon) * age + growth)
    return u_aon, float(probs.p_success_node_ton * slots.success * rate)


@given(
    na=st.sampled_from([1, 2, 5, 17]),
    nt=st.sampled_from([1, 2, 5]),
    scenario=st.sampled_from(list(SlotScenario)),
    calls=st.lists(st.tuples(st.floats(0.0, 60.0), st.booleans()), min_size=1, max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_cached_folds_equal_a_fresh_fold_and_the_dataclass_payoffs(na, nt, scenario, calls):
    # Numpy- and Python-typed sizes and slots of one scenario are equal fold
    # keys, so interleaved calls share the first call's cached pair.  Every
    # solve equals a fresh, uncached fold, and the stage payoffs equal those
    # read off SlotProbabilities, by float.hex; the thresholds keep the
    # caller's number types, since the rule itself is built per call.
    slots = slots_from_scenario(scenario)
    typed = ss.NetworkSizes(*map(np.int64, (na, nt))), ss.SlotLengths(
        *map(np.float64, (slots.idle, slots.success, slots.collision))
    )
    plain = ss.NetworkSizes(na, nt), slots
    # Each drawn age, then both rules' finite thresholds and their neighbours.
    ages = list(calls)
    for competitive in (True, False):
        for th in eq._rule(*plain, competitive)[2:]:
            if np.isfinite(th) and th >= 0.0:
                near = (np.nextafter(th, -np.inf), th, np.nextafter(th, np.inf))
                ages += [(float(a), i % 2 == 0) for i, a in enumerate(near) if a >= 0.0]
    eq._fold.cache_clear()
    for age, numpy_typed in ages:
        sizes, slots_ = typed if numpy_typed else plain
        for solver, competitive, p_r in ((ss.msne, True, None), (ss.cooperative_optimum, False, 0.4)):
            profile, th = solver(sizes, slots_, age)
            rule = eq._rule(sizes, slots_, competitive)
            fresh, _ = eq._evaluators(sizes, slots_, rule)
            assert type(profile.tau_aon) is float
            assert profile.tau_aon.hex() == fresh(float(age)).hex()
            assert (th.th0, th.th1) == rule[2:]
            assert [type(t) for t in (th.th0, th.th1)] == [type(t) for t in rule[2:]]
            assert type(th.th1) is (np.float64 if numpy_typed else float)
            pay = ss.expected_stage_payoffs(sizes, slots_, profile, age, 1.5, p_r)
            want = _dataclass_payoffs(sizes, slots_, profile, age, 1.5, p_r)
            assert [pay.u_aon.hex(), pay.u_ton.hex()] == [w.hex() for w in want]


@pytest.mark.parametrize("solver", [ss.msne, ss.cooperative_optimum])
@pytest.mark.parametrize("age", [np.nan, np.inf, -1.0])
def test_non_finite_or_negative_age_rejected(solver, age, equal_slots):
    with pytest.raises(ss.ConfigurationError, match="network age"):
        solver(ss.NetworkSizes(5, 5), equal_slots, age)


@pytest.mark.parametrize(
    "u_aon, u_ton", [(np.nan, 0.1), (-1.0, np.nan), (-np.inf, 0.1), (-1.0, np.inf)]
)
def test_stage_payoffs_reject_non_finite(u_aon, u_ton):
    with pytest.raises(ss.ConfigurationError):
        eq.StagePayoffs(u_aon=u_aon, u_ton=u_ton)


def test_boundary_tolerance_clamps_tiny_overshoot():
    # 1 / (1 - 1e-10) overshoots 1 by about 1e-10.
    one, rows = eq._evaluators(HAND_SIZES, HAND_SLOTS, _hand_rule(-1e-10, 1.0))
    assert 1.0 < 1.0 / (1.0 - 1e-10) <= 1.0 + eq.BOUNDARY_TOL
    assert rows(np.array([1.0])) == 1.0
    assert one(1.0) == 1.0


class TestCooperationRange:
    def test_two_singletons_equal_slots_full_interval(self, equal_slots):
        result = ss.cooperation_beneficial_pr_set(ss.NetworkSizes(1, 1), equal_slots, 1.01)
        assert result.intervals == ((0.0, 1.0),)

    def test_two_singletons_long_collisions_only_zero(self, large_collision):
        result = ss.cooperation_beneficial_pr_set(ss.NetworkSizes(1, 1), large_collision, 1.01)
        assert result.intervals == ((0.0, 0.0),)

    def test_five_node_networks_collapse_toward_zero_bias(self, equal_slots):
        result = ss.cooperation_beneficial_pr_set(ss.NetworkSizes(5, 5), equal_slots, 6.0)
        assert len(result.intervals) == 1
        lo, hi = result.intervals[0]
        assert lo <= 0.02
        assert hi < 0.5

    def test_reported_bounds_agree_with_grid(self, equal_slots):
        # The published closed-form bounds are reported, not asserted; here
        # they happen to bracket the grid interval, which we record.
        result = ss.cooperation_beneficial_pr_set(ss.NetworkSizes(5, 5), equal_slots, 6.0)
        lo, hi = result.intervals[0]
        assert result.reported_lower_bound == pytest.approx(lo, abs=2 * result.grid_step)
        assert result.reported_upper_bound == pytest.approx(hi, abs=2 * result.grid_step)
