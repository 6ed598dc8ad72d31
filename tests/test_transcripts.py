"""Golden transcripts: CLI output on the shipped database, compared byte
for byte with the files under ``tests/golden/``.

A deliberate output change regenerates them with
``PYTHONPATH=src python tests/test_transcripts.py``; review the diff.
"""

import contextlib
import io
from pathlib import Path

import pytest

from cohomotopy.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
DB_PATH = ROOT / "src" / "cohomotopy" / "data" / "paper.cohdb"
GOLDEN = Path(__file__).resolve().parent / "golden"

TRANSCRIPTS = {
    "table_6.txt": ["table", "6"],
    "table_7.txt": ["table", "7"],
    "table_8.txt": ["table", "8"],
    "table_6.csv": ["table", "6", "--format", "csv"],
    "table_7.csv": ["table", "7", "--format", "csv"],
    "table_8.csv": ["table", "8", "--format", "csv"],
    "compute_6_6.txt": ["compute", "6", "6", "--show-evidence"],
    "compute_7_7.txt": ["compute", "7", "7", "--show-evidence"],
    "compute_7_8.txt": ["compute", "7", "8", "--show-evidence"],
    "compute_7_13.txt": ["compute", "7", "13", "--show-evidence"],
    "compute_8_4.txt": ["compute", "8", "4", "--show-evidence"],
    "mapspace.txt": ["mapspace"],
    "gottlieb.txt": ["gottlieb", "--equivalences"],
    "components.txt": ["components"],
    "verify.txt": ["verify"],
    "db-check.txt": ["db-check"],
}


def cli_output(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--db", str(DB_PATH)] + argv)
    assert code == EXIT_OK, (argv, code)
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(TRANSCRIPTS))
def test_cli_transcript(name):
    assert cli_output(TRANSCRIPTS[name]) == (GOLDEN / name).read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in TRANSCRIPTS.items():
        (GOLDEN / name).write_text(cli_output(argv))
