"""CLI outputs pinned byte for byte against files in ``golden_cli/``.

Every subcommand runs on ``golden_cli/golden.ini`` at a small scale whose run
chunks and uniform stage blocks split inside a run, so a change to chunking,
streaming or threading that moves any output digit fails here.  The
Monte Carlo subcommands also run on ``golden_cli/lone_ton.ini``, whose
one-node TON has no second TON draw in a slot, and on
``golden_cli/equal_slots.ini``, whose equal success and collision slots let
every copy share one AON rule call and whose 17-node AON sums 17 columns of
node ages; on both, ``region`` runs its default 10 x 10 grid.  The files
change only with a declared output change; regenerate them with

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
}

# Made at the configs' 2 threads; checked again at one.
ONE_THREAD = ["lone_ton_region.csv", "equal_slots_region.csv"]


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
