"""CLI outputs pinned byte for byte against files in ``golden_cli/``.

Every subcommand runs on ``golden_cli/golden.ini`` at a small scale whose run
chunks and uniform stage blocks split inside a run, so a change to chunking,
streaming or threading that moves any output digit fails here.  The files
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
CONFIG = str(GOLDEN / "golden.ini")

# Output file -> CLI arguments after ``--config``.
CASES = {
    "msne.txt": ["msne"],
    "stage.txt": ["stage"],
    "simulate_competitive.csv": ["simulate", "--mode", "competitive"],
    "simulate_cooperative.csv": ["simulate", "--mode", "cooperative", "--threads", "1"],
    "gain.csv": ["gain", "--stages", "120"],
    "gain_self_test.csv": ["gain", "--stages", "120", "--self-test"],
    "freq.csv": ["freq", "--runs", "600", "--stages", "150"],
    "region.csv": ["region", "--runs", "2100", "--stages", "120"],
}


def cli_output(args) -> str:
    command, *rest = args
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main([command, "--config", CONFIG, *rest])
    assert code == cli.EXIT_OK
    return buffer.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    assert cli_output(CASES[name]).encode() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    for name, args in CASES.items():
        (GOLDEN / name).write_bytes(cli_output(args).encode())
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
