"""The benchmark's workloads: inputs from a seed, the timed call, output checks.

Importing this module imports the package under test, so the import is part
of the measured set-up time.  Each workload exposes:

* ``setup(seed)``: parse the workload's config through ``slotshare.config``
  and generate every input from the seed;
* ``body(inputs, threads)``: the timed library call;
* ``check(inputs, output, reference)``: one pass/fail flag per operation;
* ``same(a, b)``: one flag per operation, true where two outputs of the same
  inputs agree bit for bit (results are deterministic at any thread count);
* ``useful_steps(inputs)``: trajectory steps the workload needs, counting
  every distinct (run, stage) pair once;
* ``indeterminate(output)``: undecided region cells.

The checks hold for any seed and any correct implementation: Monte Carlo
estimates are compared with stored reference estimates within five combined
standard errors, and structural properties are checked exactly.  No byte of
output and no trace value is pinned.
"""

from __future__ import annotations

import math

import numpy as np

import slotshare
from slotshare import cli, config, equilibrium, etiquette, sim  # noqa: F401  (cli: set-up cost)

Z_TOL = 5.0
ORACLE_STEP = 1e-3


def _seed_stream(seed: int):
    rng = np.random.default_rng(seed)
    return rng, int(rng.integers(0, 2**63))


def _within(value, se, ref, ref_se):
    combined = math.hypot(se, ref_se)
    return abs(value - ref) <= Z_TOL * combined + 1e-12 * (1.0 + abs(ref))


class SimulateGain:
    """Cooperation-vs-competition gain at the paper's stage count."""

    name = "simulate_gain"
    threads = 1
    alt_threads = 2
    ini = """
[scenario]
n_aon = 5
n_ton = 5
slot_scenario = equal_slots
alpha = 0.99
p_r = 0.5
[run]
n_runs = 4096
n_stages = 1000
master_seed = {seed}
threads = 1
"""
    ops_per_call = 1

    def setup(self, seed):
        _, lib_seed = _seed_stream(seed)
        return config.parse_config(self.ini.format(seed=lib_seed))

    def body(self, cfg, threads):
        return sim.gain_of_cooperation(
            cfg.scenario, cfg.n_runs, cfg.n_stages, cfg.master_seed, threads=threads
        )

    def check(self, cfg, result, reference):
        ok = result.competitive.n_runs == cfg.n_runs == result.cooperative.n_runs
        for mode in ("competitive", "cooperative"):
            agg = getattr(result, mode)
            for stat in ("u_aon", "u_ton", "freq_tau_one", "freq_tau_zero"):
                ref, ref_se = reference[mode][stat]
                ok &= _within(getattr(agg, stat + "_mean"), getattr(agg, stat + "_se"), ref, ref_se)
            ok &= agg.u_ton_mean >= 0.0 >= agg.u_aon_mean
            ok &= 0.0 <= agg.freq_tau_one_mean <= 1.0 and 0.0 <= agg.freq_tau_zero_mean <= 1.0
        for attr in ("u_aon", "u_ton"):
            diff = getattr(result.cooperative, attr + "_mean") - getattr(result.competitive, attr + "_mean")
            ok &= math.isclose(getattr(result, "gain_" + attr[2:]), diff, rel_tol=1e-9, abs_tol=1e-12)
        return [bool(ok)]

    def same(self, a, b):
        return [a == b]

    def useful_steps(self, cfg):
        return 2 * cfg.n_runs * cfg.n_stages

    def indeterminate(self, result):
        return 0


def _feasibility_and(*states):
    if 0 in states:
        return 0
    return 1 if all(s == 1 for s in states) else -1


class RegionSweep:
    """(alpha, device-bias) self-enforceability cells with narrow batches."""

    name = "region_sweep"
    threads = 2
    alt_threads = 1
    ini = """
[scenario]
n_aon = 2
n_ton = 2
slot_scenario = equal_slots
[run]
n_runs = 512
n_stages = 300
master_seed = {seed}
threads = 2
[grids]
alpha_grid = 0.75, 0.85, 0.95
pr_grid = 0.15, 0.25, 0.35, 0.45, 0.55
"""
    ops_per_call = 15

    def setup(self, seed):
        _, lib_seed = _seed_stream(seed)
        return config.parse_config(self.ini.format(seed=lib_seed))

    def body(self, cfg, threads):
        return etiquette.region_sweep(
            cfg.scenario, cfg.alpha_grid, cfg.pr_grid, cfg.n_runs, cfg.n_stages,
            cfg.master_seed, threads=threads,
        )

    def _cells(self, region):
        return [(i, j) for i in range(region.alpha_axis.size) for j in range(region.pr_axis.size)]

    def check(self, cfg, region, reference):
        ref_margin = np.asarray(reference["margins"])
        ref_se = np.asarray(reference["ses"])
        shape_ok = (
            region.margins.shape == ref_margin.shape
            and np.array_equal(region.alpha_axis, cfg.alpha_grid)
            and np.array_equal(region.pr_axis, cfg.pr_grid)
        )
        if not shape_ok:
            return [False] * self.ops_per_call
        flags = []
        for i, j in self._cells(region):
            ok = all(
                np.isfinite(region.ses[k, i, j])
                and region.ses[k, i, j] >= 0.0
                and _within(region.margins[k, i, j], region.ses[k, i, j], ref_margin[k, i, j], ref_se[k, i, j])
                for k in range(4)
            )
            states = (int(region.aon_prefers[i, j]), int(region.ton_prefers[i, j]))
            ok &= all(s in (-1, 0, 1) for s in states)
            ok &= int(region.self_enforceable[i, j]) == _feasibility_and(*states)
            flags.append(bool(ok))
        return flags

    def same(self, a, b):
        if a.margins.shape != b.margins.shape:
            return [False] * self.ops_per_call
        return [
            bool(
                np.array_equal(a.margins[:, i, j], b.margins[:, i, j])
                and np.array_equal(a.ses[:, i, j], b.ses[:, i, j])
                and a.self_enforceable[i, j] == b.self_enforceable[i, j]
                and a.aon_prefers[i, j] == b.aon_prefers[i, j]
                and a.ton_prefers[i, j] == b.ton_prefers[i, j]
            )
            for i, j in self._cells(a)
        ]

    def useful_steps(self, cfg):
        # Alpha only weights payoffs and the deviation branches ignore p_r:
        # two deviation trajectories plus two compliance ones per bias.
        return (2 + 2 * len(cfg.pr_grid)) * cfg.n_runs * cfg.n_stages

    def indeterminate(self, region):
        return int((region.self_enforceable == -1).sum())


# Stage-game formulas of the model, written out independently of the
# package: slot-outcome probabilities and the expected AON node age after a
# slot, vectorized over the AON (``ta``) or TON (``tt``) access probability.


def _competitive(ta, tt, na, nt, slots, age, rate):
    quiet_a = (1.0 - ta) ** na
    quiet_t = (1.0 - tt) ** nt
    succ_a = ta * (1.0 - ta) ** (na - 1) * quiet_t
    succ_t = tt * (1.0 - tt) ** (nt - 1) * quiet_a
    p_success = na * succ_a + nt * succ_t
    p_idle = quiet_a * quiet_t
    p_col = 1.0 - p_success - p_idle
    growth = p_idle * slots.idle + p_success * slots.success + p_col * slots.collision
    return (1.0 - succ_a) * age + growth, succ_t * slots.success * rate


def _cooperative(ta, tt, p_r, na, nt, slots, age, rate):
    one_a = ta * (1.0 - ta) ** (na - 1)
    one_t = tt * (1.0 - tt) ** (nt - 1)
    p_idle = p_r * (1.0 - ta) ** na + (1.0 - p_r) * (1.0 - tt) ** nt
    p_success = p_r * na * one_a + (1.0 - p_r) * nt * one_t
    p_col = 1.0 - p_success - p_idle
    growth = p_idle * slots.idle + p_success * slots.success + p_col * slots.collision
    return (1.0 - p_r * one_a) * age + growth, (1.0 - p_r) * one_t * slots.success * rate


def _oracle_agrees(closed, objective):
    """Closed-form tau within a grid step of the oracle, or as good on its grid."""
    arg = equilibrium.best_response_oracle(objective, ORACLE_STEP)
    if abs(closed - arg) <= ORACLE_STEP + 1e-12:
        return True
    taus = np.linspace(0.0, 1.0, int(round(1.0 / ORACLE_STEP)) + 1)
    best = float(np.max(objective(taus)))
    value = float(objective(np.asarray([closed]))[0])
    return value >= best - 1e-10 * (1.0 + abs(best))


class ScalarAudit:
    """Grim-trigger traces and an equilibrium table on the scalar API."""

    name = "scalar_audit"
    threads = 1
    alt_threads = None
    ini = """
[scenario]
n_aon = 5
n_ton = 5
slot_scenario = small_collision
alpha = 0.9
p_r = 0.5
[run]
n_stages = 300
master_seed = {seed}
threads = 1
"""
    n_traces = 100
    n_ages = 2000
    n_oracle_ages = 16
    deviate_at = 5
    ops_per_call = n_traces + n_ages

    def setup(self, seed):
        rng, lib_seed = _seed_stream(seed)
        cfg = config.parse_config(self.ini.format(seed=lib_seed))
        cases = list(etiquette.DeviationCase)
        return {
            "config": cfg,
            "traces": [
                (int(s), cases[k % len(cases)])
                for k, s in enumerate(rng.integers(0, 2**63, self.n_traces))
            ],
            "ages": [float(a) for a in rng.uniform(0.0, 15.0, self.n_ages)],
            "oracle_rows": sorted(
                int(i) for i in rng.choice(self.n_ages, self.n_oracle_ages, replace=False)
            ),
        }

    def body(self, inputs, threads):
        cfg = inputs["config"]
        params = cfg.scenario
        sizes, slots = params.sizes, params.slots
        traces = [
            etiquette.simulate_grim_trigger(params, cfg.n_stages, seed, self.deviate_at, case)
            for seed, case in inputs["traces"]
        ]
        table = []
        for age in inputs["ages"]:
            nash, _ = equilibrium.msne(sizes, slots, age)
            coop, _ = equilibrium.cooperative_optimum(sizes, slots, age)
            pay_n = equilibrium.expected_stage_payoffs(sizes, slots, nash, age, params.rate)
            pay_c = equilibrium.expected_stage_payoffs(
                sizes, slots, coop, age, params.rate, p_r=params.p_r
            )
            table.append(
                (nash.tau_aon, nash.tau_ton, coop.tau_aon, coop.tau_ton,
                 pay_n.u_aon, pay_n.u_ton, pay_c.u_aon, pay_c.u_ton)
            )
        return traces, table

    def _trace_ok(self, trace, n_stages):
        stages = trace.stages
        if len(stages) != n_stages:
            return False
        return all(
            st.stage == n
            and st.compliance.obeyed == (n < self.deviate_at)
            and 0.0 < st.network_age_after < math.inf
            and 0.0 <= st.tau_aon <= 1.0
            and 0.0 <= st.tau_ton <= 1.0
            for n, st in enumerate(stages)
        )

    def check(self, inputs, output, reference):
        cfg = inputs["config"]
        params = cfg.scenario
        na, nt = params.sizes.n_aon, params.sizes.n_ton
        slots, rate, p_r = params.slots, params.rate, params.p_r
        traces, table = output
        flags = [self._trace_ok(t, cfg.n_stages) for t in traces]
        if len(table) != self.n_ages:
            return flags + [False] * self.n_ages
        ages = np.asarray(inputs["ages"])
        t = np.asarray(table, dtype=np.float64)
        age_n, thr_n = _competitive(t[:, 0], t[:, 1], na, nt, slots, ages, rate)
        age_c, thr_c = _cooperative(t[:, 2], t[:, 3], p_r, na, nt, slots, ages, rate)
        rows_ok = (
            np.all((t[:, :4] >= 0.0) & (t[:, :4] <= 1.0), axis=1)
            & (t[:, 5] >= 0.0) & (t[:, 4] <= 0.0)
            & (t[:, 7] >= 0.0) & (t[:, 6] <= 0.0)
            & np.isclose(t[:, 4], -age_n, rtol=1e-9, atol=1e-12)
            & np.isclose(t[:, 5], thr_n, rtol=1e-9, atol=1e-12)
            & np.isclose(t[:, 6], -age_c, rtol=1e-9, atol=1e-12)
            & np.isclose(t[:, 7], thr_c, rtol=1e-9, atol=1e-12)
        )
        for row in inputs["oracle_rows"]:
            age = inputs["ages"][row]
            ta_n, tt_n, ta_c, tt_c = table[row][:4]
            rows_ok[row] &= (
                _oracle_agrees(ta_n, lambda x: -_competitive(x, tt_n, na, nt, slots, age, rate)[0])
                and _oracle_agrees(tt_n, lambda x: _competitive(ta_n, x, na, nt, slots, age, rate)[1])
                and _oracle_agrees(ta_c, lambda x: -_cooperative(x, tt_c, p_r, na, nt, slots, age, rate)[0])
                and _oracle_agrees(tt_c, lambda x: _cooperative(ta_c, x, p_r, na, nt, slots, age, rate)[1])
            )
        return flags + [bool(v) for v in rows_ok]

    def same(self, a, b):
        if len(a[0]) != len(b[0]) or len(a[1]) != len(b[1]):
            return [False] * self.ops_per_call
        return [x == y for x, y in zip(a[0], b[0])] + [x == y for x, y in zip(a[1], b[1])]

    def useful_steps(self, inputs):
        return self.n_traces * inputs["config"].n_stages

    def indeterminate(self, output):
        return 0


WORKLOADS = {w.name: w for w in (SimulateGain(), RegionSweep(), ScalarAudit())}
