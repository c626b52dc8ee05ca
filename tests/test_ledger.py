"""The value ledger: every run of tools/csv_matrix.py still writes the bytes that tools/csv_matrix.expected records."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _runs(lines) -> dict:
    """{(subcommand, config, seed, threads): exit code and digests} of the ledger's run lines."""
    return {tuple(line.split()[:4]): line.split()[4:] for line in lines}


def test_every_run_writes_the_bytes_in_the_ledger():
    expected = (TOOLS / "csv_matrix.expected").read_text().splitlines()
    got = subprocess.run([sys.executable, str(TOOLS / "csv_matrix.py")], capture_output=True, text=True,
                         check=True).stdout.splitlines()
    if got[0] != expected[0]:
        # another numpy, scipy or BLAS build may round differently, so its digests prove nothing either way
        pytest.skip(f"ledger made on another stack: ledger {expected[0]!r}, here {got[0]!r}")
    want, have = _runs(expected[1:]), _runs(got[1:])
    differ = sorted(" ".join(run) for run in want.keys() | have.keys() if want.get(run) != have.get(run))
    assert not differ, f"{len(differ)} runs differ from tools/csv_matrix.expected: " + "; ".join(differ)
    assert got == expected  # the same runs in the same order
