"""Exactness dump: one sha256 over what the curator's check (load, validate,
verify) gives on many edits of the shipped database, run in one process so
that every memo is warm from the texts before.

The texts, in this order: every single-number mutant (``perfbench/mutants.py``)
and every record deletion (``test_record_deletions.record_blocks``), first
forward and then reversed, then seeded texts with 2 to 5 number edits on
distinct lines.  For each text the dump takes the outcome (as the ``mutants``
workload names it), the ``DbParseError`` text, the family order, the
``validate_db`` problems and the ``CheckResult`` reprs of ``verify_all``.
Two trees that print the same digest give byte-identical results on all of
them.  Each section's own sha256 is printed after its tally, so when the
last line differs, the section lines of two trees name the section that
moved it.  A third line per section gives its wall time, which no digest
covers, so every run logs what the curator's loop costs.
``--per-text FILE`` also writes one line per text to FILE: its section, its
index in the section, its outcome and the sha256 of its record lines, tab
separated.  Diffing the files of two trees lists the texts whose results
moved, and says whether any outcome moved with them.
``tests/exactness_digest.txt`` holds the expected last line for
the default arguments and ``tests/exactness_digest_seed7.txt`` that for
``--seed 7``, whose multi-edit texts come in another order; CI compares
both, so a change that means to move the digest (an edit of the shipped
database, say) updates those files too.

    PYTHONPATH=src python tests/exactness_dump.py [--seed 0] [--texts 3000] [--per-text FILE]

It is not collected by pytest (no ``test_`` prefix).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import random
import sys
import time
from collections import Counter
from pathlib import Path

from cohomotopy import database, extensions, pipeline

ROOT = Path(__file__).resolve().parents[1]
DB_PATH = ROOT / "src" / "cohomotopy" / "data" / "paper.cohdb"


def _module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def dump(text: str) -> tuple[str, str]:
    """(outcome, the lines that record what the check gave) for one text."""
    try:
        db = database.loads_db(text, "dump.cohdb")
    except database.DbError as e:
        return "parse-rejected", f"error {e}"
    lines = [
        f"family {kind} {[sorted(key) for key in of_kind]}"
        for kind, of_kind in db.families.items()
    ]
    outcome = None
    try:
        problems = database.validate_db(db)
        lines.extend(f"problem {p}" for p in problems)
        if problems:
            outcome = "validate-flagged"
    except (database.DbError, extensions.ExtensionError) as e:
        lines.append(f"validate raised {e!r}")
        outcome = "validate-flagged"
    try:
        results = pipeline.verify_all(db)
        lines.extend(f"result {r!r}" for r in results)
        failed = not all(r.passed() for r in results)
    except (database.DbError, extensions.ExtensionError) as e:
        lines.append(f"verify raised {e!r}")
        failed = True
    return outcome or ("verify-failed" if failed else "survived"), "\n".join(lines)


def multi_edit_texts(text: str, specs: list, seed: int, count: int, apply_spec):
    """``count`` texts, each with 2 to 5 seeded number edits on distinct
    lines of ``text``."""
    rng = random.Random(seed)
    for _ in range(count):
        edits = rng.randint(2, 5)
        picked: dict = {}  # line -> edit; one edit per line keeps the offsets right
        while len(picked) < edits:
            spec = rng.choice(specs)
            picked.setdefault(spec[0], spec)
        lines = text.split("\n")
        for spec in picked.values():
            lines = apply_spec(lines, spec).split("\n")
        yield "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--texts", type=int, default=3000, help="seeded multi-edit texts")
    parser.add_argument(
        "--per-text", type=Path, metavar="FILE",
        help="write section, index, outcome and the sha256 of the record lines of each text",
    )
    args = parser.parse_args(argv)

    mutants = _module("perfbench_mutants", ROOT / "perfbench" / "mutants.py")
    deletions = _module("record_deletions", ROOT / "tests" / "test_record_deletions.py")
    text = DB_PATH.read_text()
    lines = text.split("\n")
    specs = mutants.mutant_specs(text)
    mutant_texts = [mutants.apply_spec(lines, spec) for spec in specs]
    deleted_texts = [text[:start] + text[end:] for _, start, end in deletions.record_blocks(text)]
    sections = [
        ("mutants", mutant_texts),
        ("deletions", deleted_texts),
        ("mutants reversed", mutant_texts[::-1]),
        ("deletions reversed", deleted_texts[::-1]),
        ("multi-edit", multi_edit_texts(text, specs, args.seed, args.texts, mutants.apply_spec)),
    ]
    digest, per_text = hashlib.sha256(), []
    database.clear_memos()
    for name, texts in sections:
        outcomes: Counter = Counter()
        section = hashlib.sha256()
        started = time.perf_counter()
        for index, edited in enumerate(texts):
            outcome, record = dump(edited)
            outcomes[outcome] += 1
            data = f"{outcome}\n{record}\n\n".encode()
            digest.update(data)
            section.update(data)
            lines_sha = hashlib.sha256(record.encode()).hexdigest()
            per_text.append(f"{name}\t{index}\t{outcome}\t{lines_sha}\n")
        tally = ", ".join(f"{o} {outcomes[o]}" for o in mutants.OUTCOMES if outcomes[o])
        print(f"{name}: {sum(outcomes.values())} texts: {tally}")
        print(f"{name}: sha256 {section.hexdigest()}")
        print(f"{name}: {time.perf_counter() - started:.1f} s wall")
    print(f"sha256 {digest.hexdigest()}")
    if args.per_text:
        args.per_text.write_text("".join(per_text))
    return 0


if __name__ == "__main__":
    sys.exit(main())
