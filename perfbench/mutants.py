"""Seeded single-number mutants of a ``.cohdb`` text and their outcomes.

A mutant changes one number that the loader parses as an integer by x2,
floor /2 or +1.  Numbers inside generator names, ``cite``, ``note`` and
``statement`` text, comments and the unread ``target`` field are never
touched, and edits that leave the text unchanged are skipped.
"""

from __future__ import annotations

import random
import re

from cohomotopy import database, extensions, pipeline

# key -> which numbers of its value the loader parses
_WHOLE = {"expected", "multiplier", "rhs-mult", "order", "source-n"}
_ORDER_LISTS = {"generators", "target-generators", "factors"}
_NUM = re.compile(r"\d+")

OPS = (("x2", lambda v: v * 2), ("/2", lambda v: v // 2), ("+1", lambda v: v + 1))

OUTCOMES = ("parse-rejected", "validate-flagged", "verify-failed", "survived", "crashed")
DETECTED = {"parse-rejected", "validate-flagged", "verify-failed"}


def _value_spans(key: str, value: str):
    """(start, end) offsets, within ``value``, of the parsed numbers."""
    if key == "context":
        kind_end = value.find(" ")
        if kind_end < 0:
            return
        for m in _NUM.finditer(value, kind_end):
            yield m.span()
    elif key == "group":
        for m in _NUM.finditer(value):
            yield m.span()
    elif key in _ORDER_LISTS:
        pos = 0
        for item in value.split(";"):
            colon = item.rfind(":")
            if colon >= 0:
                for m in _NUM.finditer(item, colon):
                    yield pos + m.start(), pos + m.end()
            pos += len(item) + 1
    elif key == "images":
        for m in re.finditer(r"\(([^)]*)\)", value):
            for n in _NUM.finditer(value, m.start(1), m.end(1)):
                yield n.span()
    elif key in _WHOLE and value.isdigit():
        yield 0, len(value)


def number_sites(text: str):
    """Every (line index, start, end) of a parsed number in ``text``."""
    sites = []
    for i, line in enumerate(text.split("\n")):
        if line.lstrip().startswith("#") or "=" not in line:
            continue
        key, value = line.split("=", 1)
        offset = len(key) + 1 + (len(value) - len(value.lstrip()))
        value = value.strip()
        for start, end in _value_spans(key.strip(), value):
            sites.append((i, offset + start, offset + end))
    return sites


def mutant_specs(text: str):
    """Every distinct single-number edit as (line index, start, end, new
    value, label)."""
    lines = text.split("\n")
    out = []
    for i, start, end in number_sites(text):
        old = int(lines[i][start:end])
        for op_name, op in OPS:
            new = op(old)
            if new != old:
                out.append((i, start, end, new, f"line {i + 1} col {start + 1}: {old} {op_name} -> {new}"))
    return out


def seeded_specs(text: str, seed: int):
    """All edits in a seed-determined order."""
    specs = mutant_specs(text)
    random.Random(seed).shuffle(specs)
    return specs


def apply_spec(lines: list[str], spec) -> str:
    i, start, end, new, _ = spec
    line = lines[i]
    return "\n".join(lines[:i] + [line[:start] + str(new) + line[end:]] + lines[i + 1:])


def check_mutant(text: str) -> str:
    """Run the curator's check (load, validate, verify) and name the first
    stage that catches the mutant.  Exceptions other than ``DbError`` and
    ``ExtensionError`` are crashes."""
    try:
        try:
            db = database.loads_db(text)
        except database.DbError:
            return "parse-rejected"
        try:
            if database.validate_db(db):
                return "validate-flagged"
        except (database.DbError, extensions.ExtensionError):
            return "validate-flagged"
        try:
            results = pipeline.verify_all(db)
        except (database.DbError, extensions.ExtensionError):
            return "verify-failed"
        return "survived" if all(r.passed() for r in results) else "verify-failed"
    except Exception:  # noqa: BLE001 - any other exception is the crash being counted
        return "crashed"
