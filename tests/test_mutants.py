"""Every single-number mutant of the shipped database against the curator's
check (load, validate, verify), as the ``mutants`` benchmark workload runs it.

The mutant generator and the check are the benchmark's own
(``perfbench/mutants.py``, the ``mutants`` fixture).  The mutants that survive
are listed in ``mutant_survivors.txt``: a new survivor is a weaker check, and
a listed mutant that is now caught should leave the list.  The count of each
outcome is pinned too, so a check that moves a mutant from one stage to
another (say from ``validate_db`` to ``verify_all``) fails here.
"""

from collections import Counter
from pathlib import Path

SURVIVORS = Path(__file__).with_name("mutant_survivors.txt")


def test_every_mutant_is_caught_or_a_listed_survivor(db_text, mutants):
    lines = db_text.split("\n")
    specs = mutants.mutant_specs(db_text)
    outcomes = {spec[4]: mutants.check_mutant(mutants.apply_spec(lines, spec)) for spec in specs}
    assert len(outcomes) == len(specs)
    assert Counter(outcomes.values()) == {
        "parse-rejected": 740, "validate-flagged": 2500, "verify-failed": 57, "survived": 13,
    }
    assert [label for label, o in outcomes.items() if o == "crashed"] == []
    listed = {
        line for line in SURVIVORS.read_text().splitlines() if line and not line.startswith("#")
    }
    survived = {label for label, o in outcomes.items() if o == "survived"}
    assert sorted(survived - listed) == [], "new survivors: a check got weaker"
    assert sorted(listed - survived) == [], "caught now: take them off mutant_survivors.txt"
