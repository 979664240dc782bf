"""Regenerate ``perfbench/reference.json``, the checks' reference estimates.

Run from the repository root (about two minutes on two cores):

    python3 perfbench/make_reference.py

Each reference is the workload's own problem (same scenario, grids and stage
count) estimated with many more runs under a seed no benchmark run uses, and
stored as (mean, standard error) pairs.  The benchmark accepts an estimate
within five combined standard errors of its reference, so the file does not
need regenerating when an implementation changes its random streams.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from slotshare import etiquette, sim  # noqa: E402

REFERENCE_SEED = 0x5EED_0F_BE_AC_4
GAIN_RUNS = 32768
REGION_RUNS = 8192


def gain_reference():
    wl = workloads.WORKLOADS["simulate_gain"]
    cfg = wl.setup(0)
    result = sim.gain_of_cooperation(
        cfg.scenario, GAIN_RUNS, cfg.n_stages, REFERENCE_SEED, threads=2
    )
    out = {"n_runs": GAIN_RUNS, "n_stages": cfg.n_stages}
    for mode in ("competitive", "cooperative"):
        agg = getattr(result, mode)
        out[mode] = {
            stat: [getattr(agg, stat + "_mean"), getattr(agg, stat + "_se")]
            for stat in ("u_aon", "u_ton", "freq_tau_one", "freq_tau_zero")
        }
    return out


def region_reference():
    wl = workloads.WORKLOADS["region_sweep"]
    cfg = replace(wl.setup(0), n_runs=REGION_RUNS)
    region = etiquette.region_sweep(
        cfg.scenario, cfg.alpha_grid, cfg.pr_grid, cfg.n_runs, cfg.n_stages,
        REFERENCE_SEED, threads=2,
    )
    return {
        "n_runs": REGION_RUNS,
        "n_stages": cfg.n_stages,
        "margins": region.margins.tolist(),
        "ses": region.ses.tolist(),
    }


def main():
    commit = subprocess.run(
        ["git", "-C", str(BENCH.parent), "rev-parse", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    reference = {
        "seed": REFERENCE_SEED,
        "commit": commit,
        "simulate_gain": gain_reference(),
        "region_sweep": region_reference(),
    }
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
