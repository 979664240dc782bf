"""Experiment command line: equilibrium tables, Monte Carlo runs, sweeps.

Subcommands mirror the evaluation protocol: ``msne`` and ``stage`` print
stage-game tables, ``simulate`` runs repeated-game Monte Carlo, ``freq``
collects the equilibrium access-frequency statistics, ``gain`` compares
cooperation against competition, and ``region`` sweeps the
(discount, device-bias) grid for self-enforceability.  CSV output carries 17
significant digits so reruns can be compared byte for byte; all output is
written once at the end.

Exit codes: 0 success, 2 configuration error, 3 numeric-regime error
(equilibrium formula left [0, 1]), 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import replace

from . import equilibrium as eq
from . import etiquette, sim
from .config import _RUN_KEYS, ExperimentConfig, default_config, parse_config
from .model import ConfigurationError
from .equilibrium import OutOfRangeError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

def _g17(value) -> str:
    return format(float(value), ".17g")


def _csv_text(rows) -> str:
    """CSV of dict rows under the first row's keys; every row must have those keys, in order."""
    columns = list(rows[0])
    out = io.StringIO()
    writer = csv.DictWriter(out, columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        if list(row) != columns:
            raise ValueError(f"CSV row keys {list(row)} differ from the header {columns}")
        writer.writerow(row)
    return out.getvalue()


def _sigma_ratio(config: ExperimentConfig) -> float:
    slots = config.scenario.slots
    return slots.collision / slots.success


def cmd_msne(config: ExperimentConfig) -> str:
    """Equilibrium access probabilities and thresholds for each listed age."""
    scen = config.scenario
    lines = [
        f"{'age':>12} {'tau_aon':>12} {'tau_ton':>12} {'th0':>12} {'th1':>12} {'th':>12}  regime"
    ]
    for age in config.ages:
        profile, th = eq.msne(scen.sizes, scen.slots, age)
        lines.append(
            f"{age:>12.6g} {profile.tau_aon:>12.6g} {profile.tau_ton:>12.6g} "
            f"{th.th0:>12.6g} {th.th1:>12.6g} {th.th:>12.6g}  {th.regime.value}"
        )
    return "\n".join(lines) + "\n"


def cmd_stage(config: ExperimentConfig) -> str:
    """Expected stage payoffs at the equilibrium and the cooperative optimum."""
    scen = config.scenario
    lines = [
        f"{'age':>12} {'mode':>12} {'tau_aon':>12} {'tau_ton':>12} {'u_aon':>14} {'u_ton':>14}"
    ]
    for age in config.ages:
        nash, _ = eq.msne(scen.sizes, scen.slots, age)
        pay = eq.expected_stage_payoffs(scen.sizes, scen.slots, nash, age, scen.rate)
        lines.append(
            f"{age:>12.6g} {'compete':>12} {nash.tau_aon:>12.6g} {nash.tau_ton:>12.6g} "
            f"{pay.u_aon:>14.6g} {pay.u_ton:>14.6g}"
        )
        coop, _ = eq.cooperative_optimum(scen.sizes, scen.slots, age)
        pay = eq.expected_stage_payoffs(
            scen.sizes, scen.slots, coop, age, scen.rate, p_r=scen.p_r
        )
        lines.append(
            f"{age:>12.6g} {'cooperate':>12} {coop.tau_aon:>12.6g} {coop.tau_ton:>12.6g} "
            f"{pay.u_aon:>14.6g} {pay.u_ton:>14.6g}"
        )
    return "\n".join(lines) + "\n"


def cmd_simulate(config: ExperimentConfig, mode: sim.Mode) -> str:
    """Monte Carlo repeated game in one mode; one CSV row."""
    scen = config.scenario
    run_config = sim.RunConfig(scen, config.n_stages, mode, config.master_seed)
    agg = sim.monte_carlo(run_config, config.n_runs, threads=config.threads)
    row = {
        "mode": mode.value,
        "N_A": scen.sizes.n_aon,
        "N_T": scen.sizes.n_ton,
        "sigma_C_ratio": _g17(_sigma_ratio(config)),
        "alpha": _g17(scen.alpha),
        "p_r": _g17(scen.p_r),
        "n_runs": config.n_runs,
        "n_stages": config.n_stages,
        "seed": config.master_seed,
        "U_aon_mean": _g17(agg.u_aon_mean),
        "U_aon_se": _g17(agg.u_aon_se),
        "U_ton_mean": _g17(agg.u_ton_mean),
        "U_ton_se": _g17(agg.u_ton_se),
        "f_tau1_mean": _g17(agg.freq_tau_one_mean),
        "f_tau0_mean": _g17(agg.freq_tau_zero_mean),
    }
    return _csv_text([row])


def cmd_region(config: ExperimentConfig) -> str:
    """Self-enforceability sweep over the (alpha, device-bias) grid."""
    scen = config.scenario
    grid = etiquette.region_sweep(
        scen,
        config.alpha_grid,
        config.pr_grid,
        config.n_runs,
        config.n_stages,
        config.master_seed,
        threads=config.threads,
    )
    rows = []
    for i, alpha in enumerate(grid.alpha_axis):
        for j, p_r in enumerate(grid.pr_axis):
            tri = {
                "ton_prefers": int(grid.ton_prefers[i, j]),
                "aon_prefers": int(grid.aon_prefers[i, j]),
                "spe": int(grid.self_enforceable[i, j]),
            }
            row = {"alpha": _g17(alpha), "p_r": _g17(p_r), **tri}
            row["indeterminate"] = int(-1 in tri.values())
            for name, k in (("aon_h", 0), ("ton_h", 1), ("aon_t", 2), ("ton_t", 3)):
                row[f"margin_{name}"] = _g17(grid.margins[k, i, j])
                row[f"se_{name}"] = _g17(grid.ses[k, i, j])
            rows.append(row)
    return _csv_text(rows)


def cmd_gain(config: ExperimentConfig) -> str:
    """Gain of cooperation over competition across the alpha and bias grids."""
    grid = sim.gain_grid(
        config.scenario,
        config.n_runs,
        config.n_stages,
        config.master_seed,
        config.alphas,
        config.pr_grid,
        threads=config.threads,
    )
    rows = []
    for alpha, cells in zip(config.alphas, grid):
        for p_r, result in zip(config.pr_grid, cells):
            rows.append(
                {
                    "alpha": _g17(alpha),
                    "p_r": _g17(p_r),
                    "gain_aon": _g17(result.gain_aon),
                    "gain_ton": _g17(result.gain_ton),
                    "se_gain_aon": _g17(result.se_gain_aon),
                    "se_gain_ton": _g17(result.se_gain_ton),
                    "U_aon_competitive": _g17(result.competitive.u_aon_mean),
                    "U_ton_competitive": _g17(result.competitive.u_ton_mean),
                    "U_aon_cooperative": _g17(result.cooperative.u_aon_mean),
                    "U_ton_cooperative": _g17(result.cooperative.u_ton_mean),
                }
            )
    return _csv_text(rows)


def cmd_freq(config: ExperimentConfig) -> str:
    """Competitive access-frequency statistics versus the AON size."""
    scen = config.scenario
    rows = []
    for n_aon in config.n_aon_list:
        params = replace(scen, sizes=replace(scen.sizes, n_aon=int(n_aon)))
        run_config = sim.RunConfig(params, config.n_stages, sim.Mode.COMPETITIVE, config.master_seed)
        agg = sim.monte_carlo(run_config, config.n_runs, threads=config.threads)
        rows.append(
            {
                "N_A": int(n_aon),
                "N_T": params.sizes.n_ton,
                "sigma_C_ratio": _g17(_sigma_ratio(config)),
                "alpha": _g17(params.alpha),
                "n_runs": config.n_runs,
                "n_stages": config.n_stages,
                "seed": config.master_seed,
                "f_tau1_mean": _g17(agg.freq_tau_one_mean),
                "f_tau1_se": _g17(agg.freq_tau_one_se),
                "f_tau0_mean": _g17(agg.freq_tau_zero_mean),
                "f_tau0_se": _g17(agg.freq_tau_zero_se),
            }
        )
    return _csv_text(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slotshare", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("msne", "equilibrium table for a list of ages"),
        ("stage", "expected stage payoffs at equilibrium and cooperative optimum"),
        ("simulate", "Monte Carlo repeated game (CSV)"),
        ("region", "(alpha, device-bias) self-enforceability sweep (CSV)"),
        ("gain", "gain of cooperation over competition (CSV)"),
        ("freq", "equilibrium access-frequency statistics (CSV)"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="INI config file path")
        cmd.add_argument("--out", help="output path (default: stdout)")
        if name in ("msne", "stage"):
            # The tables read no runs, stages, seed or threads.
            continue
        # Each override's dest is its [run] key.
        cmd.add_argument("--seed", type=int, dest="master_seed", help="master seed override")
        cmd.add_argument("--runs", type=int, dest="n_runs", help="Monte Carlo runs override")
        cmd.add_argument("--stages", type=int, dest="n_stages", help="stages per run override")
        cmd.add_argument("--threads", type=int, help="worker threads override")
        cmd.add_argument(
            "--paper-scale",
            action="store_true",
            help="use the full evaluation scale (100000 runs x 1000 stages)",
        )
        if name == "simulate":
            cmd.add_argument(
                "--mode",
                choices=[m.value for m in sim.Mode],
                required=True,
            )
    return parser


def _load_config(args) -> ExperimentConfig:
    config = parse_config(args.config) if args.config else default_config()
    if getattr(args, "paper_scale", False):
        config = config.at_paper_scale()
    overrides = {key: getattr(args, key, None) for key in _RUN_KEYS}
    return replace(config, **{key: value for key, value in overrides.items() if value is not None})


def _dispatch(args) -> str:
    config = _load_config(args)
    if args.command == "simulate":
        return cmd_simulate(config, sim.Mode(args.mode))
    commands = {"msne": cmd_msne, "stage": cmd_stage, "region": cmd_region, "gain": cmd_gain}
    return commands.get(args.command, cmd_freq)(config)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = _dispatch(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OutOfRangeError as err:
        print(f"numeric-regime error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except ConfigurationError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
