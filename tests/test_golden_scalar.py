"""The scalar API and single-run streams pinned bit for bit against golden files.

``golden_scalar.json`` holds grim-trigger traces (``simulate_grim_trigger``
for every deviation case in every slot scenario at three network-size pairs)
and equilibrium tables (``msne``, ``cooperative_optimum`` and
``expected_stage_payoffs`` on both channels) at ages on each threshold, one
ulp either side of it, and at random ages.  ``golden_records.json`` holds the
run scalars, final node ages and per-stage streams of single competitive and
cooperative runs, read off a one-run batch and its ``_Engine.trace`` row.
``golden_large_aon.json`` holds a paired gain and a deviation report of a
130-node AON that starts above its rule threshold, so that nodes 128 and 129
win slots and have their ages reset.
Each stage or table row is one string of ``float.hex`` values, so any change
to the random stream or to rounding fails here.  The files change only with a
declared output change; regenerate them with

    PYTHONPATH=src python tests/test_golden_scalar.py
"""

import json
import math
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import slotshare as ss
from slotshare import equilibrium as eq
from slotshare import etiquette, sim
from slotshare.config import SlotScenario, slots_from_scenario

GOLDEN = Path(__file__).parent / "golden_scalar.json"
GOLDEN_RECORDS = Path(__file__).parent / "golden_records.json"
GOLDEN_LARGE_AON = Path(__file__).parent / "golden_large_aon.json"
SIZES = [(5, 5), (1, 3), (3, 1)]
N_STAGES = 30
DEVIATE_AT = 5
N_RANDOM_AGES = 12
RECORD_STAGES = 60
RECORD_RUNS = (0, 3)


def _hex(value):
    return float(value).hex()


def _scenario(slot_scenario, n_aon, n_ton):
    return ss.ScenarioParams(
        ss.NetworkSizes(n_aon, n_ton), slots_from_scenario(slot_scenario), p_r=0.4
    )


def _trace_rows(params, seed, case):
    trace = etiquette.simulate_grim_trigger(params, N_STAGES, seed, DEVIATE_AT, case)
    return [
        " ".join(
            [
                st.compliance.recommendation.value,
                str(st.compliance.obeyed),
                str(st.competitive_play),
                _hex(st.tau_aon),
                _hex(st.tau_ton),
                _hex(st.network_age_after),
            ]
        )
        for st in trace.stages
    ]


def _table_ages(params, seed):
    """Ages on each finite threshold and one ulp either side (if non-negative), and random ones."""
    sizes, slots = params.sizes, params.slots
    ages = set()
    for competitive in (True, False):
        rule = eq._rule(sizes, slots, competitive)
        for th in filter(math.isfinite, (rule.th0, rule.th1)):
            for age in (math.nextafter(th, -math.inf), th, math.nextafter(th, math.inf)):
                if age >= 0.0:
                    ages.add(age)
    rng = np.random.default_rng(seed)
    ages.update(float(a) for a in rng.uniform(0.0, 4.0 * max(sizes.n_aon, 2), N_RANDOM_AGES))
    return sorted(ages)


def _table_row(params, age):
    sizes, slots, rate = params.sizes, params.slots, params.rate
    row = [_hex(age)]
    for solver, p_r in ((eq.msne, None), (eq.cooperative_optimum, params.p_r)):
        profile, th = solver(sizes, slots, age)
        pay = eq.expected_stage_payoffs(sizes, slots, profile, age, rate, p_r=p_r)
        values = (profile.tau_aon, profile.tau_ton, th.th0, th.th1, th.th, pay.u_aon, pay.u_ton)
        row += [_hex(v) for v in values] + [th.regime.value]
    return " ".join(row)


def _cases():
    for k, slot_scenario in enumerate(SlotScenario):
        for n_aon, n_ton in SIZES:
            name = f"{slot_scenario.value}/{n_aon}x{n_ton}"
            yield name, _scenario(slot_scenario, n_aon, n_ton), k


def capture():
    out = {}
    for name, params, k in _cases():
        seed = 1000 + 10 * k + params.sizes.n_aon
        out[name] = {
            "traces": {
                case.value: _trace_rows(params, seed + j, case)
                for j, case in enumerate(etiquette.DeviationCase)
            },
            "table": [_table_row(params, age) for age in _table_ages(params, seed)],
        }
    return out


def _record_cases():
    for slot_scenario in (SlotScenario.SMALL_COLLISION, SlotScenario.LARGE_COLLISION):
        for n_aon, n_ton in SIZES[:2]:
            for mode in sim.Mode:
                name = f"{slot_scenario.value}/{n_aon}x{n_ton}/{mode.value}"
                yield name, _scenario(slot_scenario, n_aon, n_ton), mode


# The recorded event of a slot's code 3 * k_a + k_t: idle 0, AON success 1,
# TON success 2, and 3 for any collision.
EVENTS = {0: 0, 1: 2, 3: 1}


def _record_rows(params, mode, seed, run):
    """Run scalars and final ages, then one row per stage of the recorded streams.

    Run ``run`` as a one-run batch: weight column 0 discounts and column
    ``1 + n`` weights stage ``n`` alone, so it holds minus the stage's
    network age and the stage's TON payoff.  The rule's tau, whether the
    device selected the AON (``-`` when competing) and the event come from
    the run's ``_Engine.trace`` row.
    """
    engine = sim._Engine(params)
    p_r = None if mode is sim.Mode.COMPETITIVE else params.p_r
    discount = sim._discount_weights([params.alpha], RECORD_STAGES)
    weights = np.hstack([discount, np.eye(RECORD_STAGES)])
    state = sim._simulate_batch(engine, seed, range(run, run + 1), [(0, [p_r])], weights)
    scalars = (state.u_aon[0, 0], state.u_ton[0, 0], *(f[0] for f in state.frequencies()))
    rows = [" ".join(_hex(v) for v in scalars), " ".join(_hex(a) for a in state.ages[0])]
    trace = engine.trace(seed, run, RECORD_STAGES, [(0, [p_r])])
    for n, (_, tau, tau_a, code, _, _) in enumerate(trace):
        selected = "-" if p_r is None else str(tau_a >= 0.0)
        values = (state.u_aon[1 + n, 0], state.u_ton[1 + n, 0], tau)
        rows.append(" ".join([*(_hex(v) for v in values), str(EVENTS.get(code, 3)), selected]))
    return rows


def capture_records():
    return {
        name: {
            str(run): _record_rows(params, mode, 2000 + k, run) for run in RECORD_RUNS
        }
        for k, (name, params, mode) in enumerate(_record_cases())
    }


def _large_aon_params(slot_scenario):
    sizes = ss.NetworkSizes(130, 2)
    slots = slots_from_scenario(slot_scenario)
    return ss.ScenarioParams(sizes, slots, alpha=0.9, p_r=0.4, initial_age=400.0)


def capture_large_aon():
    """Gain, deviation report and final node ages of a 130-node AON, per slot scenario.

    The reset node's index runs past 127, so a node index stored in too
    narrow an integer resets the wrong node: the final ages of the batch
    rows show it at once, and over 300 stages the payoffs move too.
    """
    out = {}
    for slot_scenario in (SlotScenario.SMALL_COLLISION, SlotScenario.EQUAL_SLOTS):
        params = _large_aon_params(slot_scenario)
        gain = ss.gain_of_cooperation(params, 40, 300, seed=5)
        report = ss.deviation_inequalities(params, 40, 300, seed=5)
        gains = (gain.gain_aon, gain.gain_ton, gain.se_gain_aon, gain.se_gain_ton)
        arms = (astuple(gain.competitive), astuple(gain.cooperative))
        gain_rows = [" ".join(map(_hex, values)) for values in (gains, *arms)]
        report_rows = [" ".join([e.name, *map(_hex, astuple(e)[1:])]) for e in report.inequalities]
        for branch in etiquette._BRANCHES:
            stage1 = (*report.stage1_age_mc[branch], *report.stage1_throughput_mc[branch])
            report_rows.append(" ".join([branch, *map(_hex, stage1)]))
        # Runs 0 and 1, competing and obeying the device.
        weights = sim._discount_weights([params.alpha], 300)
        schedule = [(0, [None, params.p_r])]
        state = sim._simulate_batch(sim._Engine(params), 5, range(2), schedule, weights)
        ages = [" ".join(map(_hex, row)) for row in state.ages]
        out[slot_scenario.value] = {"gain": gain_rows, "deviation": report_rows, "ages": ages}
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def current():
    return capture()


@pytest.mark.parametrize("name", [name for name, _, _ in _cases()])
def test_scalar_path_matches_golden(name, golden, current):
    assert current[name]["traces"] == golden[name]["traces"]
    assert current[name]["table"] == golden[name]["table"]


@pytest.fixture(scope="module")
def golden_records():
    return json.loads(GOLDEN_RECORDS.read_text())


@pytest.fixture(scope="module")
def current_records():
    return capture_records()


@pytest.mark.parametrize("name", [name for name, _, _ in _record_cases()])
def test_recorded_streams_match_golden(name, golden_records, current_records):
    assert current_records[name] == golden_records[name]


@pytest.mark.parametrize("chunk", [None, 7])
def test_large_aon_resets_match_golden(chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(sim, "_DEFAULT_CHUNK", chunk)
    assert capture_large_aon() == json.loads(GOLDEN_LARGE_AON.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=1) + "\n")
    GOLDEN_RECORDS.write_text(json.dumps(capture_records(), indent=1) + "\n")
    GOLDEN_LARGE_AON.write_text(json.dumps(capture_large_aon(), indent=1) + "\n")
    print(f"wrote {GOLDEN}, {GOLDEN_RECORDS} and {GOLDEN_LARGE_AON}", file=sys.stderr)
