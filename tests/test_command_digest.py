"""Command-output digest: one sha256 over what the commands print on the
shipped database and on each of its record deletions.

For each text, in file order after the shipped text itself, and each command
of ``COMMANDS`` (every command that reads a whole table, list or pairing, and
``verify`` and ``db-check``), the digest takes the command, its exit code, its
stdout and its stderr, as ``cli.main`` gives them in this process.  Error
texts name the database file, so every text is written under one relative
file name, ``paper.cohdb``, in a temporary working directory.  Two trees that
print the same digest print byte-identical output for all of these runs.

A deliberate output change regenerates ``tests/command_digest.txt`` with
``PYTHONPATH=src python tests/test_command_digest.py``; say why in the change.
"""

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

from cohomotopy.cli import main
from cohomotopy.database import clear_memos
from test_record_deletions import record_blocks

HERE = Path(__file__).resolve().parent
DB_PATH = HERE.parent / "src" / "cohomotopy" / "data" / "paper.cohdb"
DIGEST = HERE / "command_digest.txt"

COMMANDS = (
    ("gottlieb", "--equivalences"), ("components",), ("mapspace",),
    ("table", "6"), ("table", "7"), ("table", "8"), ("verify",), ("db-check",),
)


def command_digest(db_text: str) -> str:
    """The digest of every command of ``COMMANDS`` on ``db_text`` and on each
    of its record deletions; run in the working directory, where it writes
    ``paper.cohdb``."""
    texts = [db_text] + [db_text[:a] + db_text[b:] for _, a, b in record_blocks(db_text)]
    digest = hashlib.sha256()
    clear_memos()  # the first load starts cold, whatever ran before
    for text in texts:
        Path("paper.cohdb").write_text(text)
        for argv in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["--db", "paper.cohdb", *argv])
            digest.update(repr((argv, code, out.getvalue(), err.getvalue())).encode())
    return digest.hexdigest()


def test_commands_print_what_the_digest_records(tmp_path, monkeypatch, db_text):
    monkeypatch.chdir(tmp_path)
    assert command_digest(db_text) == DIGEST.read_text().strip()


if __name__ == "__main__":
    text = DB_PATH.read_text()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        DIGEST.write_text(command_digest(text) + "\n")
