"""CLI outputs pinned byte for byte against files in ``golden_cli/``.

Every subcommand runs on ``golden_cli/golden.ini`` at a small scale whose
uniform stage blocks and 256-run sub-chunks split inside a run, so a change
to streaming that moves any output digit fails here.  The Monte Carlo
subcommands also run on ``golden_cli/lone_ton.ini``, whose one-node TON
sends in every slot it accesses, and on ``golden_cli/equal_slots.ini``, whose
equal success and collision slots let every copy share one AON rule call
and whose 17-node AON sums 17 columns of node ages; on both, ``region``
runs its default 10 x 10 grid, and ``gain`` and ``region`` split their runs
into two chunks at the configs' 2 threads and one at a single thread.
``golden_cli/interior_stage1.ini`` starts a three-node AON above its
cooperative threshold, so its ``region`` plays an interior stage-1 tau, on
the thread pool at 2 threads.  ``region`` at 256 runs, the two-level
horizon's pilot, stays one level, so its bytes predate that horizon.  The
files change only with a declared output change; regenerate them with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from slotshare import cli

GOLDEN = Path(__file__).parent / "golden_cli"

# Output file -> (config file, CLI arguments after ``--config``).
CASES = {
    "msne.txt": ("golden.ini", ["msne"]),
    "stage.txt": ("golden.ini", ["stage"]),
    "simulate_competitive.csv": ("golden.ini", ["simulate", "--mode", "competitive"]),
    "simulate_cooperative.csv": (
        "golden.ini",
        ["simulate", "--mode", "cooperative", "--threads", "1"],
    ),
    "gain.csv": ("golden.ini", ["gain", "--stages", "120"]),
    "freq.csv": ("golden.ini", ["freq", "--runs", "600", "--stages", "150"]),
    "region.csv": ("golden.ini", ["region", "--runs", "2100", "--stages", "120"]),
    # No more runs than the pilot: the sweep stays one level.
    "region_runs256.csv": ("golden.ini", ["region", "--runs", "256", "--stages", "120"]),
    "lone_ton_simulate_competitive.csv": ("lone_ton.ini", ["simulate", "--mode", "competitive"]),
    "lone_ton_simulate_cooperative.csv": ("lone_ton.ini", ["simulate", "--mode", "cooperative"]),
    "lone_ton_gain.csv": ("lone_ton.ini", ["gain"]),
    "equal_slots_simulate_competitive.csv": (
        "equal_slots.ini",
        ["simulate", "--mode", "competitive"],
    ),
    "equal_slots_simulate_cooperative.csv": (
        "equal_slots.ini",
        ["simulate", "--mode", "cooperative"],
    ),
    "equal_slots_gain.csv": ("equal_slots.ini", ["gain"]),
    "lone_ton_region.csv": ("lone_ton.ini", ["region"]),
    "equal_slots_region.csv": ("equal_slots.ini", ["region"]),
    "interior_stage1_region.csv": ("interior_stage1.ini", ["region"]),
}

# Made at the configs' 2 threads, where their 1100 runs are a 1024-run and a
# 76-run chunk; checked again at one thread, where they are one chunk.
ONE_THREAD = [
    f"{config}_{name}.csv"
    for config in ("lone_ton", "equal_slots")
    for name in ("region", "simulate_competitive", "simulate_cooperative")
] + ["interior_stage1_region.csv", "region_runs256.csv"]


def cli_output(config, args) -> str:
    command, *rest = args
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main([command, "--config", str(GOLDEN / config), *rest])
    assert code == cli.EXIT_OK
    return buffer.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    assert cli_output(*CASES[name]).encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", ONE_THREAD)
def test_cli_output_matches_golden_at_one_thread(name):
    config, args = CASES[name]
    assert cli_output(config, [*args, "--threads", "1"]).encode() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    for name, case in CASES.items():
        (GOLDEN / name).write_bytes(cli_output(*case).encode())
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
