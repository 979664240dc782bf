"""The engine against an independent reference simulator (``conftest.reference_payoffs``).

The reference draws one Bernoulli per node where the engine transforms
order statistics, counts transmitters by ``sum`` where the engine reads an
inverse-CDF TON count and compact tables, and discounts by ``alpha**n``
where the engine takes a running product; only the AON rules are shared.
Each comparison is a mean of the engine against the reference's on
independent draws, within four combined standard errors: per scenario the
AON and TON payoffs of ``monte_carlo`` in both modes (4) and the four
margins of ``deviation_inequalities`` on its two-level horizon (4), so 40
comparisons over the five scenarios.
"""

import numpy as np
import pytest

import slotshare as ss
from conftest import reference_payoffs

Z_MAX = 4.0
# (n_aon, n_ton, slot scenario, alpha): N_A from 1 to 17, every slot scenario.
SCENARIOS = [
    (1, 2, "small_collision", 0.9),
    (2, 2, "equal_slots", 0.97),
    (3, 5, "large_collision", 0.9),
    (5, 5, "small_collision", 0.97),
    (17, 4, "equal_slots", 0.9),
]
RUNS, STAGES = 1500, 130


def z_score(mean, se, ref):
    """The engine's mean less the reference's in combined SEs; a sure value must match exactly."""
    diff, scale = mean - ref.mean(), np.hypot(se, ref.std(ddof=1) / np.sqrt(ref.size))
    return diff / scale if scale else (0.0 if diff == 0.0 else np.inf)


@pytest.fixture(params=SCENARIOS, ids=lambda s: f"{s[0]}+{s[1]}-{s[2]}-a{s[3]}")
def params(request):
    na, nt, slots, alpha = request.param
    slots = request.getfixturevalue(slots)
    return ss.ScenarioParams(ss.NetworkSizes(na, nt), slots, alpha=alpha, p_r=0.4)


@pytest.mark.parametrize("mode", list(ss.Mode))
def test_monte_carlo_matches_reference(params, mode):
    agg = ss.monte_carlo(ss.RunConfig(params, STAGES, mode, seed=11), RUNS)
    play = None if mode is ss.Mode.COMPETITIVE else params.p_r
    u_aon, u_ton = reference_payoffs(params, RUNS, STAGES, (play, play), seed=12)
    z = [z_score(agg.u_aon_mean, agg.u_aon_se, u_aon), z_score(agg.u_ton_mean, agg.u_ton_se, u_ton)]
    assert np.all(np.abs(z) <= Z_MAX), z


def test_two_level_margins_match_reference(params):
    report = ss.deviation_inequalities(params, RUNS, STAGES, seed=13)
    # One seed for every branch, so the reference's branches pair as the engine's do.
    branch = {
        name: reference_payoffs(params, RUNS, STAGES, plays, seed=14)
        for name, plays in [
            ("heads", (1.0, params.p_r)),
            ("tails", (0.0, params.p_r)),
            ("joint", ("joint", None)),
            ("idle", ("idle", None)),
        ]
    }
    # (payoff, obey branch, deviation branch) of each inequality, in report order.
    pairs = [
        (0, "heads", "idle"),
        (1, "heads", "joint"),
        (0, "tails", "joint"),
        (1, "tails", "idle"),
    ]
    z = [
        z_score(e.margin, e.se, branch[obey][k] - branch[dev][k])
        for e, (k, obey, dev) in zip(report.inequalities, pairs)
    ]
    assert np.all(np.abs(z) <= Z_MAX), z
