"""Curated plain-text database (.cohdb) of group data and extension evidence.

File format
-----------

A ``.cohdb`` file is a sequence of records separated by blank lines.  Lines
starting with ``#`` are comments.  A record starts with a type tag in square
brackets followed by ``key = value`` lines:

    [group]
    context = coker-eta k=6 n=4
    group = Z/8 + Z/2
    generators = nu_4 . sigma' : 8 ; S eps' : 2
    cite = [Lee] ...

Record types: ``symbol``, ``group``, ``whitehead``, ``evidence``,
``relation``, ``components``.  Contexts take ``key=value`` parameters; the
``n`` parameter may be a single value (``n=4``), a closed range (``n=2..5``)
or an open range (``n=12..``).  Generator lists use ``name : order`` items
separated by ``;`` with ``inf`` for infinite order.  See the README for the
full grammar.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from pathlib import Path

from .abelian import (
    MEMO_SIZE,
    AbelianError,
    FinAbGroup,
    GroupHom,
    IllDefinedHomError,
    Presentation,
    parse_group,
    render_group,
)
from .extensions import (
    EVIDENCE_KINDS,
    INT,
    TERMS,
    TEXT,
    ValueType,
    map_names,
    record_field,
    schema,
    split_items,
)
from .symbols import NameParseError, families_of


class DbError(Exception):
    pass


class DbParseError(DbError):
    def __init__(self, path, line, msg):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {msg}")


@dataclass(frozen=True)
class NRange:
    """A single n, a closed range, or an open-ended stable range."""

    lo: int
    hi: int | None  # inclusive; None = open-ended

    def __contains__(self, n: int) -> bool:
        return n >= self.lo and (self.hi is None or n <= self.hi)

    def is_single(self) -> bool:
        return self.hi == self.lo

    def overlaps(self, other: "NRange") -> bool:
        return (self.hi is None or other.lo <= self.hi) and (other.hi is None or self.lo <= other.hi)

    def __str__(self) -> str:
        if self.is_single():
            return str(self.lo)
        if self.hi is None:
            return f"{self.lo}.."
        return f"{self.lo}..{self.hi}"

    @classmethod
    def parse(cls, text: str) -> "NRange":
        m = re.fullmatch(r"(\d+)(?:\.\.(\d+)?)?", text)
        if not m:
            raise ValueError(f"bad n value {text!r}")
        lo = int(m.group(1))
        if ".." not in text:
            return cls(lo, lo)
        hi = int(m.group(2)) if m.group(2) else None
        if hi is not None and hi < lo:
            raise ValueError(f"empty n range {text!r}")
        return cls(lo, hi)


EVERY_N = NRange(0, None)  # the n range of a context without n


@dataclass(frozen=True)
class Context:
    """A record's context: a kind and its parameters.  ``family`` (the
    parameters other than n, which with the kind name the context's family)
    and ``n_range`` are derived once, on construction."""

    kind: str
    params: tuple[tuple[str, object], ...]  # sorted (key, value); n is NRange
    family: frozenset = field(init=False, repr=False, compare=False)
    n_range: NRange = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "family", frozenset(kv for kv in self.params if kv[0] != "n"))
        object.__setattr__(self, "n_range", self.get("n", EVERY_N))

    def get(self, key, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

    def __str__(self) -> str:
        order = {"k": 0, "n": 1, "p": 2, "m": -1}
        items = sorted(self.params, key=lambda kv: order.get(kv[0], 9))
        return " ".join([self.kind] + [f"{k}={v}" for k, v in items])


def _context_problem(cls, ctx: Context) -> str | None:
    """Why ``ctx`` is not a valid context for a record of class ``cls``, if
    it is not: an unknown kind, or missing or extra parameters."""
    if ctx.kind not in cls.CONTEXTS:
        return f"unknown {cls.TAG} context {ctx.kind!r}"
    want = set(cls.CONTEXTS[ctx.kind])
    got = {k for k, _ in ctx.params}
    if want == got:
        return None
    wrong = []
    if want - got:
        wrong.append(f"lacks {', '.join(sorted(want - got))}")
    if got - want:
        wrong.append(f"has extra {', '.join(sorted(got - want))}")
    return f"context {ctx.kind} needs parameters {sorted(want)}: {' and '.join(wrong)}"


def parse_context(text: str) -> Context:
    parts = text.split()
    if not parts:
        raise ValueError("empty context")
    kind = parts[0]
    params = []
    for part in parts[1:]:
        if "=" not in part:
            raise ValueError(f"bad context parameter {part!r}")
        k, v = part.split("=", 1)
        if any(k == seen for seen, _ in params):
            raise ValueError(f"repeated context parameter {k!r}")
        if k == "n":
            params.append((k, NRange.parse(v)))
        else:
            value = int(v)
            if value < 0:
                raise ValueError(f"negative context parameter {part!r}")
            params.append((k, value))
    return Context(kind, tuple(sorted(params)))


def _parse_images(text: str):
    """Parse ``name -> (c, ...) ; ...`` into (name, coordinates) pairs."""
    out = []
    for _, name, vec in split_items(text, "->", "image", "->"):
        if not (vec.startswith("(") and vec.endswith(")")):
            raise ValueError(f"image vector {vec!r} must be parenthesized")
        inner = vec[1:-1].strip()
        coeffs = [c.strip() for c in inner.split(",")] if inner else []
        out.append((name, tuple("odd" if c in ("odd", "-odd") else int(c) for c in coeffs)))
    return tuple(out)


def _evidence_kind(text: str):
    cls = EVIDENCE_KINDS.get(text)
    if cls is None:
        raise _BlockError(0, f"unknown evidence kind {text!r}")
    return cls


# The value types of record fields beyond those the evidence kinds share
# (``extensions``):
CONTEXT = ValueType(parse_context)  # ``kind key=value ...``
GROUP = ValueType(parse_group, render_group)  # written from its ``terms`` when it has them
# ``name -> (c, ...) ; ...``, coordinates int or ``odd``; the names are those of
# the source row, which ``WhiteheadEntry.pairing`` checks
IMAGES = ValueType(
    _parse_images,
    lambda v: " ; ".join(f"{name} -> ({', '.join(map(str, vec))})" for name, vec in v),
)
WORDS = ValueType(lambda text: tuple(text.split()), " ".join)  # space-separated words
EQUATION = ValueType(  # ``name = name``
    str,
    names=lambda v: [side.strip() for side in v.split("=")],
    rename=lambda v, f: " = ".join(f(side.strip()) for side in v.split("=")),
)
EVIDENCE = ValueType(  # the ``kind`` value, read as its class, which reads the other keys
    _evidence_kind,
    lambda item: item.KIND,
    names=lambda item: [
        name
        for attr, _, vtype, _, _ in schema(type(item))
        for name in vtype.names(getattr(item, attr))
    ],
    rename=map_names,
)


# Each record class is the schema of its ``[TAG]`` record: ``CONTEXTS`` maps
# the context kinds it accepts to their parameters, ``UNIQUE`` names the field
# no two records of the file may share (a context is shared when two records
# of one family hold a common n), and every field carries its record
# key and value type (``extensions.record_field``), from which the record is
# parsed, dumped and validated.  Fields are written in the order declared.


@dataclass(frozen=True)
class SymbolEntry:
    TAG = "symbol"
    UNIQUE = "name"

    name: str = record_field("name", TEXT)
    cite: str = record_field("cite", TEXT, default="")
    note: str = record_field("note", TEXT, default="")


@dataclass(frozen=True)
class GroupEntry:
    """A group with named generators, as written in the source tables.

    ``terms`` pairs each written cyclic factor (order 0 = Z) with its
    generator name, in table order; ``group`` is the canonical form.
    """

    TAG = "group"
    UNIQUE = "context"
    CONTEXTS = {
        "coker-eta": ("k", "n"),
        "ker-eta": ("k", "n"),
        "odd-part": ("k", "n", "p"),
        "bracket": ("k", "n"),
        "mapspace": ("n",),
        "bracket-id": ("n",),
        "gottlieb": ("n",),
        "sphere-gottlieb": ("m", "k"),
    }

    context: Context = record_field("context", CONTEXT)
    group: FinAbGroup = record_field("group", GROUP, terms="terms")
    terms: tuple[tuple[int, str], ...] = record_field("generators", TERMS, default=())
    cite: str = record_field("cite", TEXT, default="")
    note: str = record_field("note", TEXT, default="")

    def generator_names(self) -> tuple[str, ...]:
        return tuple(name for _, name in self.terms)

    def presentation(self) -> Presentation:
        return Presentation.from_orders([o for o, _ in self.terms])


@dataclass(frozen=True)
class WhiteheadEntry:
    """The Whitehead-pairing map f |-> [f, identity-class] on a bracket-id row.

    ``target`` is the stated target group and ``target_terms`` present it;
    ``images`` map each source generator name to its image coordinates
    (integers, or "odd" for an undetermined odd unit, evaluated as 1).
    """

    TAG = "whitehead"
    UNIQUE = "context"
    CONTEXTS = {"whitehead": ("n",)}

    context: Context = record_field("context", CONTEXT)
    target: FinAbGroup = record_field("target", GROUP, terms="target_terms")
    target_terms: tuple[tuple[int, str], ...] = record_field(
        "target-generators", TERMS, default=()
    )
    images: tuple[tuple[str, tuple[object, ...]], ...] = record_field(
        "images", IMAGES, default=()
    )
    cite: str = record_field("cite", TEXT, default="")
    note: str = record_field("note", TEXT, default="")

    def target_presentation(self) -> Presentation:
        return Presentation.from_orders([o for o, _ in self.target_terms])

    def pairing(self, src: GroupEntry) -> GroupHom:
        """The pairing as a homomorphism from the bracket-id row ``src``.

        The one rule for a well-formed record: a ``DbError`` names this
        record and its first problem, in this order: a source generator
        without an image; then, image by image, one given twice, one for a
        generator ``src`` lacks, or one with the wrong number of coordinates;
        then an image whose order does not divide its generator's."""
        names = src.generator_names()
        imap = dict(self.images)
        width = len(self.target_terms)

        def fail(problem: str) -> DbError:
            return DbError(f"{self.context}: {problem}")

        for name in names:
            if name not in imap:
                raise fail(f"missing image for generator {name!r}")
        seen = set()
        for name, vec in self.images:
            if name in seen:
                raise fail(f"more than one image for generator {name!r}")
            if name not in names:
                raise fail(f"image for unknown generator {name!r}")
            if len(vec) != width:
                raise fail(f"image of {name!r} has {len(vec)} coordinates, target has {width}")
            seen.add(name)
        rows = [[1 if c == "odd" else c for c in imap[name]] for name in names]
        try:
            return GroupHom(src.presentation(), self.target_presentation(), rows)
        except IllDefinedHomError as e:
            raise fail(
                f"image of {names[e.index]!r} has order {e.image_order}, not a divisor of {e.order}"
            ) from e


@dataclass(frozen=True)
class EvidenceEntry:
    TAG = "evidence"
    UNIQUE = None
    CONTEXTS = {"extension": ("k", "n")}

    context: Context = record_field("context", CONTEXT)
    item: object = record_field("kind", EVIDENCE)  # an instance of an EVIDENCE_KINDS class


@dataclass(frozen=True)
class RelationEntry:
    TAG = "relation"
    UNIQUE = None

    rel_id: str = record_field("id", TEXT)
    statement: str = record_field("statement", EQUATION)
    cite: str = record_field("cite", TEXT, default="")


@dataclass(frozen=True)
class ComponentsEntry:
    TAG = "components"
    UNIQUE = "context"
    CONTEXTS = {"components": ("n",)}

    context: Context = record_field("context", CONTEXT)
    expected: int = record_field("expected", INT)
    flags: tuple[str, ...] = record_field("flags", WORDS, default=())
    cite: str = record_field("cite", TEXT, default="")
    note: str = record_field("note", TEXT, default="")


RECORD_TYPES = {
    cls.TAG: cls
    for cls in (
        SymbolEntry, GroupEntry, WhiteheadEntry, EvidenceEntry, RelationEntry, ComponentsEntry
    )
}


@dataclass
class Database:
    """The records of a ``.cohdb`` file in load order, indexed twice: symbols
    by name, and each record with a context by its family, the pair (context
    kind, parameters other than n), as (n.lo, n range, record) ordered by n."""

    records: list = field(default_factory=list)
    symbols: dict[str, SymbolEntry] = field(default_factory=dict)
    families: dict[str, dict[frozenset, list]] = field(default_factory=dict)

    def add(self, entry) -> None:
        """Store a record; ``ValueError`` if it clashes with a stored one."""
        if isinstance(entry, SymbolEntry):
            if entry.name in self.symbols:
                raise ValueError(f"duplicate name {entry.name!r}")
            self.symbols[entry.name] = entry
        ctx = getattr(entry, "context", None)
        if ctx is not None:
            nr = ctx.n_range
            family = self.families.setdefault(ctx.kind, {}).setdefault(ctx.family, [])
            i = bisect.bisect_right(family, nr.lo, key=itemgetter(0))
            if entry.UNIQUE == "context":  # its family's ranges are disjoint: check neighbours
                for _, other_nr, other in family[max(i - 1, 0):i + 1]:
                    if nr.overlaps(other_nr):
                        raise ValueError(f"context {ctx} overlaps {other.context}")
            family.insert(i, (nr.lo, nr, entry))
        self.records.append(entry)

    def entries(self):
        """Every record, in the order ``dumps_db`` writes them: by record type
        in ``RECORD_TYPES`` order, group records by context kind in order of
        first appearance, and otherwise in load order."""
        tags, kinds = list(RECORD_TYPES), list(self.families)
        return sorted(self.records, key=lambda e: (
            tags.index(e.TAG), kinds.index(e.context.kind) if hasattr(e, "context") else 0
        ))

    # -- queries ----------------------------------------------------------
    def find(self, kind: str, n: int | None = None, **params) -> list:
        """The records of a context kind whose other parameters equal
        ``params`` and whose n range holds ``n`` (any n when it is None),
        ordered by n and then p."""
        families = self.families.get(kind, {})
        # Every context of a kind has the same parameters (its record's
        # CONTEXTS), so a query naming all but n matches one family at most.
        family = families.get(frozenset(params.items()))
        if family is not None:
            return _holding(family, n)
        want = params.items()
        found = []
        for key, family in families.items():
            if want <= key:
                p = dict(key).get("p", 0)
                found.extend((e.context.n_range.lo, p, e) for e in _holding(family, n))
        found.sort(key=itemgetter(0, 1))
        return [e for _, _, e in found]

    def lookup(self, kind: str, **params):
        """The record ``find`` returns for a query that names every parameter
        of ``kind``, or None."""
        found = self.find(kind, **params)
        return found[0] if found else None

    def evidence_for(self, k: int, n: int) -> list[EvidenceEntry]:
        return self.find("extension", k=k, n=n)


def _holding(family: list, n: int | None) -> list:
    """The records of a family (ordered by n.lo) whose n range holds ``n``,
    every record when it is None."""
    if n is None:
        return [e for _, _, e in family]
    end = bisect.bisect_right(family, n, key=itemgetter(0))
    # the ranges of a family of unique contexts are disjoint: only the last
    # one starting at or below n can hold it
    start = end - 1 if end and family[0][2].UNIQUE == "context" else 0
    return [e for _, nr, e in family[start:end] if n in nr]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class _BlockError(Exception):
    """A parse error at line ``index`` of a record block (0 = the header)."""

    def __init__(self, index: int, msg: str):
        self.index = index
        super().__init__(msg)


def _parse_record(cls, record: dict, label: str):
    """A ``cls`` built from a record's ``key -> value`` strings, popping
    every key it reads; an evidence record's ``kind`` selects the item class
    that reads the keys left."""
    values = {}
    for attr, key, vtype, required, _ in schema(cls):
        if key not in record:
            if required:
                raise _BlockError(0, f"{label} lacks {key!r}")
            continue
        text = record.pop(key)
        value = vtype.parse(text)
        if vtype is EVIDENCE:
            value = _parse_record(value, record, f"{text} evidence")
        values[attr] = value
    return cls(**values)


@lru_cache(maxsize=MEMO_SIZE)
def _parse_block(block: str):
    """The record a block's text spells (None for a block of comments),
    memoised by that text: records are immutable, so every load of an
    unchanged block shares one.  Comment lines are dropped first.  Errors are
    not cached; ``_BlockError.index`` counts the block's lines that are not
    comments (0 = the header)."""
    lines = [line for line in block.splitlines() if not line.strip().startswith("#")]
    if not lines:
        return None
    header = lines[0]
    m = re.fullmatch(r"\[([a-z-]+)\]", header.strip())
    if not m:
        raise _BlockError(0, f"expected a [record-type] header, got {header!r}")
    tag = m.group(1)
    cls = RECORD_TYPES.get(tag)
    if cls is None:
        raise _BlockError(0, f"unknown record type [{tag}]")
    record: dict[str, str] = {}
    for i, line in enumerate(lines[1:], start=1):
        if "=" not in line:
            raise _BlockError(i, f"expected 'key = value', got {line!r}")
        k, v = line.split("=", 1)
        k = k.strip()
        if k in record:
            raise _BlockError(i, f"duplicate key {k!r}")
        record[k] = v.strip()
    if not record.get("cite"):
        raise _BlockError(0, f"[{tag}] record lacks a cite")
    try:
        entry = _parse_record(cls, record, f"[{tag}] record")
    except (ValueError, AbelianError) as e:
        raise _BlockError(0, f"bad [{tag}] record: {e}") from e
    problem = hasattr(cls, "CONTEXTS") and _context_problem(cls, entry.context)
    if problem:
        raise _BlockError(0, problem)
    if record:
        raise _BlockError(0, f"unknown key(s) in [{tag}] record: {', '.join(sorted(record))}")
    return entry


# A block is a run of lines that are not blank, once every line break that
# ``str.splitlines`` knows has become "\n".
_BLOCK = re.compile(r"(?m)^.*\S.*(?:\n.*\S.*)*")
_OTHER_BREAKS = "\r\v\f\x1c\x1d\x1e"  # and, beyond ASCII, \x85, \u2028, \u2029


def _line_no(text: str, block: re.Match, index: int) -> int:
    """The line number of the ``index``-th line that is not a comment of a
    block of a normalised ``text``."""
    kept = [
        i for i, line in enumerate(block.group().splitlines())
        if not line.strip().startswith("#")
    ]
    return text.count("\n", 0, block.start()) + 1 + kept[index]


def loads_db(text: str, path: str = "<string>") -> Database:
    """Parse a ``.cohdb`` text; ``DbParseError`` names ``path`` and the line.
    Each block is parsed once per text (``_parse_block``); the checks that
    read other records (``Database.add``) run on every load."""
    if not text.isascii() or any(c in text for c in _OTHER_BREAKS):
        text = "\n".join(text.splitlines())
    db = Database()
    for block in _BLOCK.finditer(text):
        try:
            entry = _parse_block(block.group())
        except _BlockError as e:
            raise DbParseError(path, _line_no(text, block, e.index), str(e)) from e.__cause__
        if entry is None:
            continue
        try:
            db.add(entry)
        except ValueError as e:
            raise DbParseError(path, _line_no(text, block, 0), str(e)) from e
    return db


def load_db(path) -> Database:
    """Read a UTF-8 ``.cohdb`` file and parse it; bytes that are not UTF-8
    are a ``DbParseError`` at the line of the first bad one."""
    p = Path(path)
    data = p.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise DbParseError(p, line, f"not UTF-8 text: {e.reason} at byte {e.start}") from e
    return loads_db(text, str(p))


# ---------------------------------------------------------------------------
# Serialization (round-trip)
# ---------------------------------------------------------------------------


def _dump_record(obj):
    """(record key, value text) for every field of a record.  A group with
    generators is written one term per generator, in table order."""
    for attr, key, vtype, _, terms in schema(type(obj)):
        value = getattr(obj, attr)
        if vtype is GROUP and getattr(obj, terms):
            yield key, " + ".join("Z" if o == 0 else f"Z/{o}" for o, _ in getattr(obj, terms))
        else:
            yield key, vtype.write(value)
        if vtype is EVIDENCE:
            yield from _dump_record(value)


def dumps_db(db: Database) -> str:
    out = []
    for entry in db.entries():
        out.append(f"[{entry.TAG}]")
        out.extend(f"{k} = {v}" for k, v in _dump_record(entry) if v)
        out.append("")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _where(entry) -> str:
    return f"relation {entry.rel_id}" if isinstance(entry, RelationEntry) else str(entry.context)


def _record_checks(entry):
    """What ``validate_db`` checks on one record alone, as a tuple: the
    symbol families its generator names reference; its problems if all of
    those are registered; its checks in field order, each a problem or a
    (generator name, families) pair; and the problems with the primes of its
    group (odd-part, coker-eta and ker-eta rows), which ``validate_db``
    lists with the other rows of their kind.

    Records are immutable, so the tuple is computed once and kept on the
    record itself (an attribute, not a field: equality, hashing, ``repr``
    and ``dumps_db`` do not see it).  ``_parse_block`` shares one record per
    unchanged block, so its bound is the bound on this work too."""
    done = entry.__dict__.get("_checks")
    if done is not None:
        return done
    checks: list = []
    for attr, _, vtype, _, terms in schema(type(entry)):
        value = getattr(entry, attr)
        if vtype is GROUP:
            orders = [o for o, _ in getattr(entry, terms)]
            if not orders and not value.is_trivial():
                checks.append(f"{_where(entry)}: nontrivial group without generators")
            elif orders and (written := FinAbGroup.from_factors(orders)) != value:
                checks.append(
                    f"{_where(entry)}: generator orders disagree with the group "
                    f"({written} vs {value})"
                )
        for name in vtype.names(value):
            try:
                checks.append((name, families_of(name)))
            except NameParseError as e:
                checks.append(f"{_where(entry)}: {e}")
    primes = ()
    kind = entry.context.kind if isinstance(entry, GroupEntry) else None
    if kind == "odd-part":
        p = entry.context.get("p")
        if entry.group.free_rank or any(q != p for q in entry.group.primary_decomposition()):
            primes = (f"{entry.context}: entry is not a {p}-group",)
    elif kind in ("coker-eta", "ker-eta"):
        if any(q != 2 for q in entry.group.primary_decomposition()):
            primes = (f"{entry.context}: entry has odd torsion",)
    done = (
        frozenset().union(*(c[1] for c in checks if isinstance(c, tuple))),
        tuple(c for c in checks if isinstance(c, str)),
        tuple(checks),
        primes,
    )
    object.__setattr__(entry, "_checks", done)
    return done


def validate_db(db: Database) -> list[str]:
    """Structural and cross-reference checks; returns a list of problems
    (empty list = valid).  The checks of each record alone run once per
    record (``_record_checks``); those that read other records run every
    time."""
    problems: list[str] = []
    symbols = set(db.symbols)

    for entry in db.records:
        families, record_problems, checks, _ = _record_checks(entry)
        if families <= symbols:
            problems.extend(record_problems)
            continue
        for check in checks:
            if isinstance(check, str):
                problems.append(check)
                continue
            name, fams = check
            for fam in sorted(fams - symbols):
                problems.append(
                    f"{_where(entry)}: generator {name!r} references "
                    f"unregistered symbol family {fam!r}"
                )

    for g in db.find("odd-part") + db.find("coker-eta") + db.find("ker-eta"):
        problems.extend(_record_checks(g)[3])

    # the pairing's own rule (``WhiteheadEntry.pairing``), as the commands
    # that read it apply it
    for w in db.find("whitehead"):
        src = db.lookup("bracket-id", n=w.context.n_range.lo)
        if src is None:
            problems.append(f"{w.context}: no bracket-id entry for this n")
            continue
        try:
            w.pairing(src)
        except DbError as e:
            problems.append(str(e))

    # odd parts must reassemble to the odd part of the golden bracket rows
    odd_families = {}  # k -> its odd-part families, one for each p
    for key, family in db.families.get("odd-part", {}).items():
        odd_families.setdefault(dict(key).get("k"), []).append(family)
    for bracket in db.find("bracket"):
        k, n = bracket.context.get("k"), bracket.context.n_range.lo
        odd = FinAbGroup.trivial()
        for family in odd_families.get(k, ()):
            for entry in _holding(family, n):
                odd = odd.direct_sum(entry.group)
        if odd != bracket.group.odd_part():
            problems.append(
                f"{bracket.context}: odd-part records sum to {odd}, "
                f"bracket has odd part {bracket.group.odd_part()}"
            )

    # the coker-eta, ker-eta and bracket rows of each k tile one range of n
    tiled = ("coker-eta", "ker-eta", "bracket")
    for k in sorted({e.context.get("k") for kind in tiled for e in db.find(kind)}):
        spans = {}
        for kind in tiled:
            ranges = [e.context.get("n") for e in db.find(kind, k=k)]
            for a, b in zip(ranges, ranges[1:]):
                if a.hi + 1 < b.lo:
                    problems.append(f"{kind} k={k}: no row for n={NRange(a.hi + 1, b.lo - 1)}")
            spans[kind] = NRange(ranges[0].lo, ranges[-1].hi) if ranges else "none"
        if len(set(spans.values())) > 1:
            covers = ", ".join(f"{kind} n={span}" for kind, span in spans.items())
            problems.append(f"k={k}: rows cover different n: {covers}")

    # evidence resolves a recorded bracket cell
    for e in db.find("extension"):
        nr = e.context.get("n")
        for n in sorted({nr.lo, nr.hi} - {None}):
            if db.lookup("bracket", k=e.context.get("k"), n=n) is None:
                problems.append(f"{e.context}: no bracket row for n={n}")

    return problems
