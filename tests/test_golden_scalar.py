"""The scalar stage-game and slot API pinned bit for bit against ``golden_scalar.json``.

Grim-trigger traces (``simulate_grim_trigger`` for every deviation case in
every slot scenario at three network-size pairs) and equilibrium tables
(``msne``, ``cooperative_optimum`` and ``expected_stage_payoffs`` on both
channels) at ages on each threshold, one ulp either side of it, and at
random ages.  Each stage or table row is one string of ``float.hex`` values,
so any change to the random stream or to rounding fails here.  The file changes only with a declared
output change; regenerate it with

    PYTHONPATH=src python tests/test_golden_scalar.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import slotshare as ss
from slotshare import equilibrium as eq
from slotshare import etiquette
from slotshare.config import SlotScenario, slots_from_scenario

GOLDEN = Path(__file__).parent / "golden_scalar.json"
SIZES = [(5, 5), (1, 3), (3, 1)]
N_STAGES = 30
DEVIATE_AT = 5
N_RANDOM_AGES = 12


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
    for thresholds in (eq._msne_thresholds(sizes, slots), eq._coop_thresholds(sizes, slots)):
        for th in filter(math.isfinite, thresholds):
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


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
