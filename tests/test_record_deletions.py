"""Every record of the shipped database is read: deleting any one record must
be caught by the curator's check (load, validate, verify), the one the
``mutants`` benchmark workload runs (``perfbench/mutants.py``, the ``mutants``
fixture).

Each record block is deleted in turn.  The deletions that survive are listed
in ``record_survivors.txt`` with their reasons: a new survivor is a record
that nothing checks, and a listed record whose deletion is now caught should
leave the list.  The count of each outcome is pinned too, so a check that
moves a deletion from one stage to another fails here.
"""

from collections import Counter
from pathlib import Path

from cohomotopy import database

SURVIVORS = Path(__file__).with_name("record_survivors.txt")


def record_blocks(text: str):
    """(label, start, end) of each record block of ``text``; blocks of
    comments alone are skipped.  A label names the record by what it is: its
    tag and first value (a context, or a symbol's name), then its evidence
    kind and lift when it has them."""
    out = []
    for block in database._BLOCK.finditer(text):
        lines = [line for line in block.group().splitlines() if not line.strip().startswith("#")]
        if not lines:
            continue
        values = [[side.strip() for side in line.split("=", 1)] for line in lines[1:]]
        keys = dict(values)
        parts = [lines[0].strip(), values[0][1]] + [keys[k] for k in ("kind", "lift") if k in keys]
        out.append((" ".join(parts), block.start(), block.end()))
    return out


def listed_survivors() -> dict[str, str]:
    """Label -> reason of each line ``label | reason`` of the survivor list."""
    listed = {}
    for line in SURVIVORS.read_text().splitlines():
        if line and not line.startswith("#"):
            label, _, reason = line.partition(" | ")
            listed[label] = reason.strip()
    return listed


def test_every_record_deletion_is_caught_or_a_listed_survivor(db_text, mutants):
    blocks = record_blocks(db_text)
    outcomes = {
        label: mutants.check_mutant(db_text[:start] + db_text[end:]) for label, start, end in blocks
    }
    assert len(outcomes) == len(blocks), "two records share a label"
    assert Counter(outcomes.values()) == {"validate-flagged": 231, "verify-failed": 2, "survived": 4}
    assert [label for label, o in outcomes.items() if o == "crashed"] == []
    listed = listed_survivors()
    assert [label for label, reason in listed.items() if not reason] == [], "a survivor needs a reason"
    survived = {label for label, o in outcomes.items() if o == "survived"}
    assert sorted(survived - set(listed)) == [], "new survivors: a record nothing reads"
    assert sorted(set(listed) - survived) == [], "caught now: take them off record_survivors.txt"
