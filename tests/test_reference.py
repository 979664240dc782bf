"""The engine against an independent reference simulator (``conftest.reference_payoffs``).

The reference draws one Bernoulli per node where the engine transforms
order statistics, counts transmitters by ``sum`` where the engine reads an
inverse-CDF TON count and compact tables, and discounts by ``alpha**n``
where the engine takes a running product; only the AON rules are shared.
Each comparison is a mean of the engine against the reference's on
independent draws, within four combined standard errors: per scenario the
AON and TON payoffs of ``monte_carlo`` in both modes (4) and the four
margins of ``deviation_inequalities`` on its two-level horizon (4), so 40
comparisons over the five scenarios.  Above the pilot, ``gain_grid`` cells
on their two-level horizons add the competitive, cooperative and gain means
of both networks (6) at two alphas in two scenarios: 24 more, 64 in all.
"""

from dataclasses import replace

import numpy as np
import pytest

import slotshare as ss
from slotshare import sim
from conftest import recorded_results, reference_payoffs

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


# (n_aon, n_ton, slot scenario) of the two-level gain cases: 1000 runs, above
# the 256-run pilot, so every cell steps its tail on fewer runs than its head.
GAIN_SCENARIOS = [(5, 5, "equal_slots"), (3, 5, "small_collision")]
GAIN_RUNS, GAIN_STAGES, GAIN_ALPHAS = 1000, 400, (0.9, 0.99)


@pytest.mark.parametrize("na, nt, slots", GAIN_SCENARIOS, ids=lambda s: str(s))
def test_two_level_gain_grid_matches_reference(na, nt, slots, request, monkeypatch):
    params = ss.ScenarioParams(ss.NetworkSizes(na, nt), request.getfixturevalue(slots), p_r=0.4)
    picks = recorded_results(monkeypatch, sim, "_two_levels")
    grid = ss.gain_grid(params, GAIN_RUNS, GAIN_STAGES, 15, GAIN_ALPHAS, [params.p_r])
    ((_, n1),) = picks
    assert np.all(n1 < GAIN_RUNS), n1
    z = []
    for alpha, (cell,) in zip(GAIN_ALPHAS, grid):
        # One seed for both arms, so the reference's arms pair as the engine's do.
        point = replace(params, alpha=alpha)
        base, coop = (
            reference_payoffs(point, GAIN_RUNS, GAIN_STAGES, (play, play), seed=16)
            for play in (None, params.p_r)
        )
        for k, net in enumerate(("aon", "ton")):
            for agg, ref in ((cell.competitive, base[k]), (cell.cooperative, coop[k])):
                z.append(z_score(getattr(agg, f"u_{net}_mean"), getattr(agg, f"u_{net}_se"), ref))
            gain, se = getattr(cell, f"gain_{net}"), getattr(cell, f"se_gain_{net}")
            z.append(z_score(gain, se, coop[k] - base[k]))
    assert np.all(np.abs(z) <= Z_MAX), z
