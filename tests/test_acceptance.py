"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with ``-s`` to stream them).
The ``fig4_always_transmit`` half is a documented known failure: with a
single-node AON the stage objective is linear in the access probability, so
the equilibrium transmits with probability 1 whenever collisions are shorter
than successes, and the always-transmit frequency starts at 1.0 instead of
rising from below; see the test body.
"""

import time

import numpy as np
import pytest

import slotshare as ss
from slotshare import cli, etiquette
from slotshare.config import parse_config
from slotshare.sim import _Engine
from conftest import compact_draw, with_ton_tau
from test_equilibrium import (
    check_equilibrium_against_oracle,
    competitive_threshold,
    draw_age,
    random_scenarios,
)

SMALL = ss.SlotLengths(idle=0.01, success=1.01, collision=0.101)
EQUAL = ss.SlotLengths(idle=0.01, success=1.01, collision=1.01)
LARGE = ss.SlotLengths(idle=0.01, success=1.01, collision=2.02)


def criterion(name, ok, detail=""):
    suffix = f"  [{detail}]" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}  {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_threshold_regression():
    _, th = ss.msne(ss.NetworkSizes(5, 5), SMALL, 1.0)
    ok = abs(th.th0 - (-0.6812)) <= 1e-3 and abs(th.th1 - 4.5450) <= 1e-3
    criterion("threshold regression", ok, f"th0={th.th0:.5f} th1={th.th1:.5f}")


def test_equilibrium_point_regression():
    profile, _ = ss.msne(ss.NetworkSizes(5, 5), SMALL, 4.6460)
    ok = abs(profile.tau_aon - 0.9295) <= 1e-4
    ok &= all(
        ss.msne(ss.NetworkSizes(3, nt), SMALL, 2.0)[0].tau_ton == 1.0 / nt
        for nt in (1, 2, 5, 10, 50)
    )
    criterion("equilibrium point regression", ok, f"tau_aon={profile.tau_aon:.6f}")


def test_stage_age_regression():
    sizes = ss.NetworkSizes(5, 5)
    silent, aggressive = (
        -ss.expected_stage_payoffs(sizes, SMALL, ss.AccessProfile(tau, 0.2), 1.01, 1.0).u_aon
        for tau in (0.0, 1.0)
    )
    ok = abs(silent - 1.4535) <= 1e-4 and abs(aggressive - 1.1110) <= 1e-4
    criterion("stage age regression", ok, f"silent={silent:.5f} aggressive={aggressive:.5f}")


def test_two_player_cooperation_example():
    sizes = ss.NetworkSizes(1, 1)
    coop, _ = ss.cooperative_optimum(sizes, EQUAL, 1.01)
    pay_c = ss.expected_stage_payoffs(sizes, EQUAL, coop, 1.01, 1.0, p_r=0.5)
    pay_nc = ss.expected_stage_payoffs(sizes, EQUAL, ss.AccessProfile(1.0, 1.0), 1.01, 1.0)
    ok = abs(pay_c.u_aon - (-1.515)) <= 1e-9 and abs(pay_c.u_ton - 0.505) <= 1e-9
    ok &= abs(pay_nc.u_aon - (-2.02)) <= 1e-9 and pay_nc.u_ton == 0.0
    criterion(
        "two-player cooperation example",
        ok,
        f"coop=({pay_c.u_aon:.4f}, {pay_c.u_ton:.4f}) nash=({pay_nc.u_aon:.4f}, {pay_nc.u_ton:.4f})",
    )


def test_oracle_equivalence():
    start = time.monotonic()
    for sizes, slots, rng in random_scenarios(1000, seed=88):
        age = draw_age(rng, competitive_threshold(sizes, slots))
        check_equilibrium_against_oracle(sizes, slots, age, grid_step=1e-4)
    elapsed = time.monotonic() - start
    criterion("oracle equivalence (1000 draws)", elapsed < 300.0, f"{elapsed:.1f}s")


def test_probability_kernel_invariants():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10_000):
        sizes = ss.NetworkSizes(int(rng.integers(1, 11)), int(rng.integers(1, 11)))
        profile = ss.AccessProfile(float(rng.random()), float(rng.random()))
        if rng.random() < 0.5:
            probs = ss.slot_probabilities_competitive(sizes, profile)
        else:
            probs = ss.slot_probabilities_cooperative(sizes, profile, float(rng.random()))
        worst = max(
            worst,
            abs(probs.p_idle + probs.p_success_total + probs.p_collision - 1.0),
            abs(
                probs.p_success_node_aon
                + probs.p_busy_aon
                + probs.p_idle
                + probs.p_collision
                - 1.0
            ),
            abs(
                probs.p_success_node_ton
                + probs.p_busy_ton
                + probs.p_idle
                + probs.p_collision
                - 1.0
            ),
            abs(
                sizes.n_aon * probs.p_success_node_aon
                + sizes.n_ton * probs.p_success_node_ton
                - probs.p_success_total
            ),
        )
    partitions_ok = worst <= 1e-12

    # One million sampled slots against the closed-form frequencies.
    draws = 1_000_000
    mc_ok = True
    for na, nt, tau_a, tau_t, rng_seed in ((5, 5, 0.0, 0.2, 3), (3, 2, 0.25, 0.4, 4)):
        params = ss.ScenarioParams(ss.NetworkSizes(na, nt), SMALL)
        engine = _Engine(params)
        uniforms = np.random.default_rng(rng_seed).random((draws, engine.width))
        draw = compact_draw(engine, uniforms)
        ages = np.zeros((draws, na))
        # The TON plays its count at tau_t, read off its two smallest draws.
        draw = with_ton_tau(engine, uniforms, draw, tau_t)
        code = engine.slot(ages, draw, np.full(draws, tau_a), np.full(draws, True))
        k_a, k_t = np.divmod(code, 3)
        probs = ss.slot_probabilities_competitive(
            params.sizes, ss.AccessProfile(tau_a, tau_t)
        )
        freqs = {
            "idle": ((k_a + k_t) == 0, probs.p_idle),
            "collision": ((k_a + k_t) >= 2, probs.p_collision),
            "success_aon": ((k_a == 1) & (k_t == 0), na * probs.p_success_node_aon),
            "success_ton": ((k_t == 1) & (k_a == 0), nt * probs.p_success_node_ton),
        }
        for mask, p in freqs.values():
            sigma = np.sqrt(p * (1.0 - p) / draws)
            mc_ok &= abs(mask.mean() - p) <= 4.0 * sigma
    criterion(
        "probability kernel invariants",
        partitions_ok and mc_ok,
        f"worst partition residual {worst:.2e}",
    )


def _fig4_frequencies(slots, field, seed):
    means, ses = [], []
    for n in (1, 2, 5, 10):
        params = ss.ScenarioParams(ss.NetworkSizes(n, n), slots, alpha=0.9)
        agg = ss.monte_carlo(ss.RunConfig(params, 200, ss.Mode.COMPETITIVE, seed), 1000)
        means.append(getattr(agg, field + "_mean"))
        ses.append(getattr(agg, field + "_se"))
    return means, ses


def _ordered(means, ses):
    return all(
        means[i + 1] - means[i] >= -2.0 * float(np.hypot(ses[i], ses[i + 1]))
        for i in range(len(means) - 1)
    )


def test_fig4_silence_frequency_monotone():
    start = time.monotonic()
    means, ses = _fig4_frequencies(EQUAL, "freq_tau_zero", seed=2024)
    elapsed = time.monotonic() - start
    ok = _ordered(means, ses) and elapsed < 600.0
    criterion(
        "fig4 silence frequency monotone (equal slots)",
        ok,
        "f0=" + ", ".join(f"{m:.4f}" for m in means),
    )


@pytest.mark.xfail(
    strict=True,
    reason="single-node AON equilibrium transmits always when collisions are "
    "short, so the always-transmit frequency is 1.0 at size 1 and the "
    "ordering cannot start there (see decisions ledger)",
)
def test_fig4_always_transmit_frequency_monotone():
    means, ses = _fig4_frequencies(SMALL, "freq_tau_one", seed=2024)
    ok = _ordered(means, ses)
    criterion(
        "fig4 always-transmit frequency monotone (short collisions)",
        ok,
        "f1=" + ", ".join(f"{m:.4f}" for m in means),
    )


def test_ua_avg_payoff_shorter_collisions_pay_the_aon_more():
    # The paper's ua_avg_payoff passage: though a larger AON collides more
    # often, its average discounted payoff is larger the shorter the
    # collision slots, as its tau = 1 branch then makes a collision cheaper
    # than staying silent.  The draws do not read the slot lengths, so the
    # three scenarios' runs pair: small - equal and equal - large must both
    # hold (tri-state 1) at every AON size.
    n_runs, n_stages = 300, 100
    weights = ss.sim._discount_weights([0.9], n_stages)
    details, ok = [], True
    for na in (1, 2, 5, 17):
        aon = [
            ss.sim._per_run(
                ss.ScenarioParams(ss.NetworkSizes(na, 5), slots, alpha=0.9),
                17, n_runs, [(0, [None])], weights, 1,
            )[0][0, 0, 0]
            for slots in (SMALL, EQUAL, LARGE)
        ]
        for shorter, longer in zip(aon, aon[1:]):
            mean, se = ss.sim._mean_se(shorter - longer)
            ok &= etiquette._tri_state(mean, se) == 1
            details.append(f"N_A={na}: z={mean / se:.1f}")
    criterion("ua_avg_payoff: AON payoff falls as collisions lengthen", ok, "; ".join(details))


def test_observation1_region_shrinks_with_size():
    start = time.monotonic()
    grid = [float(v) for v in np.linspace(0.05, 0.95, 10)]
    counts = {}
    flags = {}
    for n in (2, 5, 10):
        params = ss.ScenarioParams(ss.NetworkSizes(n, n), EQUAL, alpha=0.9, p_r=0.5)
        region = ss.region_sweep(params, grid, grid, 2000, 300, seed=1)
        counts[n] = region.feasible_count()
        flags[n] = region.monotonicity_flags()
    elapsed = time.monotonic() - start
    ok = counts[10] <= counts[5] <= counts[2]
    ok &= counts[2] >= 1
    ok &= counts[10] <= 2
    ok &= elapsed < 1800.0
    detail = (
        f"feasible cells N=2:{counts[2]} N=5:{counts[5]} N=10:{counts[10]}; "
        f"fixed-bias refinement flags {sum(len(f) for f in flags.values())}; "
        f"{elapsed:.0f}s"
    )
    criterion("observation 1: self-enforceable region shrinks", ok, detail)


def test_determinism_across_thread_counts(tmp_path):
    outputs = []
    for threads in (1, 4, 16):
        out = tmp_path / f"t{threads}.csv"
        config = parse_config("[run]\nn_runs = 64\nn_stages = 50\nmaster_seed = 9\n")
        code = cli.main(
            ["simulate", "--mode", "cooperative", "--threads", str(threads),
             "--out", str(out), "--runs", "64", "--stages", "50", "--seed", "9"]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    criterion("byte-identical CSV across 1/4/16 threads", ok)


def test_discounting_identity():
    params = ss.ScenarioParams(ss.NetworkSizes(1, 1), LARGE, alpha=0.9)
    run = ss.run_single(ss.RunConfig(params, 1000, ss.Mode.COMPETITIVE, seed=5))
    expected = (1.0 - 0.9**1000) * LARGE.success
    err = abs(run.u_ton_discounted - expected)
    criterion("discounting identity on degenerate run", err < 1e-12, f"error {err:.2e}")
