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
``components``.  Contexts take ``key=value`` parameters; the ``n`` parameter
may be a single value (``n=4``), a closed range (``n=2..5``) or an open range
(``n=12..``).  Generator lists use ``name : order`` items
separated by ``;`` with ``inf`` for infinite order.  See the README for the
full grammar.
"""

from __future__ import annotations

import bisect
import re
from collections import OrderedDict
from functools import lru_cache, wraps
from operator import attrgetter, is_, itemgetter
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
from .record import field, record, set_field
from .symbols import NameParseError, families_of


class DbError(Exception):
    pass


class DbParseError(DbError):
    def __init__(self, path, line, msg):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {msg}")


@record(frozen=True)
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


@record(frozen=True)
class Context:
    """A record's context: a kind and its parameters.  ``family`` (the
    parameters other than n, which with the kind name the context's family)
    and ``n_range`` are derived once, on construction."""

    kind: str
    params: tuple[tuple[str, object], ...]  # sorted (key, value); n is NRange
    family: frozenset = field(init=False, repr=False, compare=False)
    n_range: NRange = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        set_field(self, "family", frozenset(kv for kv in self.params if kv[0] != "n"))
        set_field(self, "n_range", self.get("n"))

    def get(self, key):
        for k, v in self.params:
            if k == key:
                return v
        return None

    def __str__(self) -> str:  # the keys k, n, p sort as they are written
        return " ".join([self.kind] + [f"{k}={v}" for k, v in self.params])


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
# an integer or None, written empty
OPT_INT = ValueType(lambda text: int(text) if text else None, lambda v: "" if v is None else str(v))
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


@record(frozen=True)
class SymbolEntry:
    TAG = "symbol"
    UNIQUE = "name"

    name: str = record_field("name", TEXT)
    cite: str = record_field("cite", TEXT, default="")
    note: str = record_field("note", TEXT, default="")


@record(frozen=True)
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


@record(frozen=True)
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


@record(frozen=True)
class EvidenceEntry:
    TAG = "evidence"
    UNIQUE = None
    CONTEXTS = {"extension": ("k", "n")}

    context: Context = record_field("context", CONTEXT)
    item: object = record_field("kind", EVIDENCE)  # an instance of an EVIDENCE_KINDS class


@record(frozen=True)
class ComponentsEntry:
    TAG = "components"
    UNIQUE = "context"
    CONTEXTS = {"components": ("n",)}

    context: Context = record_field("context", CONTEXT)
    expected: int = record_field("expected", INT)
    computed: int | None = record_field("computed", OPT_INT, default=None)
    cite: str = record_field("cite", TEXT, default="")
    note: str = record_field("note", TEXT, default="")


RECORD_TYPES = {
    cls.TAG: cls
    for cls in (SymbolEntry, GroupEntry, WhiteheadEntry, EvidenceEntry, ComponentsEntry)
}


@record
class Database:
    """The records of a ``.cohdb`` file in load order, indexed twice: symbols
    by name, and each record with a context by its family, the pair (context
    kind, parameters other than n).  A family is a tuple of (n.lo, n range,
    record) ordered by n (``_family``): it is never changed, and databases
    whose records of a family are the same objects share it."""

    records: list = field(default_factory=list)
    symbols: dict[str, SymbolEntry] = field(default_factory=dict)
    families: dict[str, dict[frozenset, tuple]] = field(default_factory=dict)

    def add(self, entry) -> None:
        """Store a record; ``ValueError`` if it clashes with a stored one.
        Its family is replaced by a new one, so a database that shares the
        old family does not see the record."""
        if isinstance(entry, SymbolEntry):
            if entry.name in self.symbols:
                raise ValueError(f"duplicate name {entry.name!r}")
            self.symbols[entry.name] = entry
        ctx = getattr(entry, "context", None)
        if ctx is not None:
            nr = ctx.n_range
            of_kind = self.families.setdefault(ctx.kind, {})
            of_kind[ctx.family] = _family([*of_kind.get(ctx.family, ()), (nr.lo, nr, entry)])
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
        ordered by n and then p.  The families read go to the open read
        trace, if there is one (``memoised``)."""
        families = self.families.get(kind, _NO_FAMILIES)
        want = frozenset(params.items())
        # Every context of a kind has the same parameters (its record's
        # CONTEXTS), so a query naming all but n matches one family at most.
        family = families.get(want)
        read = family if family is not None else _matching(families, want)
        if _TRACES:
            _TRACES[-1][kind, want] = read
        if family is not None:
            return _holding(family, n)
        found = []
        for family in read:
            p = family[0][2].context.get("p") or 0
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


_NO_FAMILIES: dict = {}  # the families of a kind no record has; never changed


def _matching(families: dict, want: frozenset) -> tuple:
    """The families of one kind whose parameters include ``want``."""
    return tuple([family for key, family in families.items() if want <= key])


def _holding(family: tuple, n: int | None) -> list:
    """The records of a family (ordered by n.lo) whose n range holds ``n``,
    every record when it is None."""
    if n is None:
        return [e for _, _, e in family]
    end = bisect.bisect_right(family, n, key=itemgetter(0))
    # the ranges of a family of unique contexts are disjoint: only the last
    # one starting at or below n can hold it
    start = end - 1 if end and family[0][2].UNIQUE == "context" else 0
    return [e for _, nr, e in family[start:end] if n in nr]


class _Clash(ValueError):
    """The record at ``index`` (in the order stored) clashes with an earlier
    one."""

    def __init__(self, index: int, msg: str):
        self.index = index
        super().__init__(msg)


def _remember(table: OrderedDict, key, value):
    """Store ``value`` as the newest entry of a memo table, dropping the
    oldest one past ``MEMO_SIZE``."""
    table[key] = value
    if len(table) > MEMO_SIZE:
        table.popitem(last=False)
    return value


# families by the identities of their records, in family order; an entry
# holds its records, so their ids are not reused while it is kept
_FAMILIES: OrderedDict = OrderedDict()


def _family(rows: list) -> tuple:
    """The family of ``rows``, the (n.lo, n range, record) triples of one
    context family in the order stored: a tuple ordered by n.lo, then by that
    order.  It is interned by the identity of its records, so a load that
    shares every record of a family with an earlier one shares the family,
    and only a family not kept yet is checked: when its contexts are unique
    (``UNIQUE``), the first row, in the order stored, whose n range overlaps
    that of an earlier row is a ``_Clash``."""
    ordered = sorted(rows, key=itemgetter(0))
    key = tuple([id(row[2]) for row in ordered])
    family = _FAMILIES.get(key)
    if family is not None:
        _FAMILIES.move_to_end(key)
        return family
    if rows[0][2].UNIQUE == "context":
        stored = []  # the rows so far, ordered by n.lo; their ranges are disjoint
        for i, row in enumerate(rows):
            lo, nr, entry = row
            j = bisect.bisect_right(stored, lo, key=itemgetter(0))
            for _, other_nr, other in stored[max(j - 1, 0):j + 1]:
                if nr.overlaps(other_nr):
                    raise _Clash(i, f"context {entry.context} overlaps {other.context}")
            stored.insert(j, row)
    return _remember(_FAMILIES, key, tuple(ordered))


def _indexed(records: list) -> Database:
    """The database of ``records``, in load order.  ``_Clash`` names the
    first record, in that order, that clashes with an earlier one: a symbol
    name taken, or an overlapping context (``_family``)."""
    symbols: dict = {}
    clashes = []
    grouped: dict = {}  # kind -> family key -> (rows, their indices in records)
    for i, entry in enumerate(records):
        if isinstance(entry, SymbolEntry):
            if entry.name not in symbols:
                symbols[entry.name] = entry
            elif not clashes:
                clashes.append(_Clash(i, f"duplicate name {entry.name!r}"))
            continue
        ctx = entry.context
        nr = ctx.n_range
        of_kind = grouped.get(ctx.kind)
        if of_kind is None:
            of_kind = grouped[ctx.kind] = {}
        rows = of_kind.get(ctx.family)
        if rows is None:
            rows = of_kind[ctx.family] = ([], [])
        rows[0].append((nr.lo, nr, entry))
        rows[1].append(i)
    families = {}
    for kind, of_kind in grouped.items():
        families[kind] = built = {}
        for key, (rows, where) in of_kind.items():
            try:
                built[key] = _family(rows)
            except _Clash as e:
                clashes.append(_Clash(where[e.index], str(e)))
    if clashes:
        raise min(clashes, key=attrgetter("index"))
    return Database(records, symbols, families)


# ---------------------------------------------------------------------------
# Checks remembered across databases
# ---------------------------------------------------------------------------


# The read traces open, innermost last: each maps (kind, parameters) of a
# ``Database.find`` query to the family, or tuple of families, it read.
_TRACES: list[dict] = []
# (check, arguments) -> (trace, value)
_MEMO: OrderedDict = OrderedDict()


def _unchanged(db: Database, trace: dict) -> bool:
    """Whether every query of ``trace`` reads the identical families in
    ``db``."""
    families = db.families
    for (kind, want), seen in trace.items():
        of_kind = families.get(kind, _NO_FAMILIES)
        now = of_kind.get(want)
        if now is None:
            now = _matching(of_kind, want)
        if now is not seen and (len(now) != len(seen) or not all(map(is_, now, seen))):
            return False
    return True


def memoised(check):
    """``check(db, *args)``, remembered by (check, args) across databases.

    ``check`` must read ``db`` only through ``find`` (``lookup``,
    ``evidence_for``): its value is kept with the families it read, and is
    returned again while a database's queries read the identical family
    objects.  A call inside another memoised check adds its reads, whether
    remembered or new, to the outer check's.  Exceptions are not kept."""

    @wraps(check)
    def run(db, *args):
        key = (check, args)
        kept = _MEMO.get(key)
        if kept is not None and _unchanged(db, kept[0]):
            _MEMO.move_to_end(key)
            if _TRACES:
                _TRACES[-1].update(kept[0])
            return kept[1]
        trace: dict = {}
        _TRACES.append(trace)
        try:
            value = check(db, *args)
        finally:
            _TRACES.pop()
            if _TRACES:
                _TRACES[-1].update(trace)
        _remember(_MEMO, key, (trace, value))
        return value

    return run


def clear_memos() -> None:
    """Forget every parsed block, family and remembered check, so that the
    next load and check start cold."""
    _parse_block.cache_clear()
    _FAMILIES.clear()
    _MEMO.clear()


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
    """Parse a ``.cohdb`` text; ``DbParseError`` names ``path`` and the line
    of the first problem in the file.  Each block is parsed once per text
    (``_parse_block``), and each family is built and checked for overlapping
    contexts once per set of records (``_family``): a load that changes one
    block shares every other family with earlier loads."""
    if not text.isascii() or any(c in text for c in _OTHER_BREAKS):
        text = "\n".join(text.splitlines())
    blocks, records = [], []
    failed = None
    for block in _BLOCK.finditer(text):
        try:
            entry = _parse_block(block.group())
        except _BlockError as e:
            failed = block, e
            break
        if entry is not None:
            blocks.append(block)
            records.append(entry)
    # a clash in the blocks before a bad one comes first in the file
    try:
        db = _indexed(records)
    except _Clash as e:
        raise DbParseError(path, _line_no(text, blocks[e.index], 0), str(e)) from e
    if failed:
        block, e = failed
        raise DbParseError(path, _line_no(text, block, e.index), str(e)) from e.__cause__
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
                checks.append(f"{entry.context}: nontrivial group without generators")
            elif orders and (written := FinAbGroup.from_factors(orders)) != value:
                checks.append(
                    f"{entry.context}: generator orders disagree with the group "
                    f"({written} vs {value})"
                )
        for name in vtype.names(value):
            try:
                checks.append((name, families_of(name)))
            except NameParseError as e:
                checks.append(f"{entry.context}: {e}")
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
    record (``_record_checks``); each of those that read other records is
    remembered with the families it read (``memoised``) and runs again only
    when one of them changed."""
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
                    f"{entry.context}: generator {name!r} references "
                    f"unregistered symbol family {fam!r}"
                )

    problems.extend(_prime_problems(db))
    problems.extend(_pairing_problems(db))
    problems.extend(_by_n(_odd_part_problems, db, "bracket"))
    tiled = ("coker-eta", "ker-eta", "bracket")
    for k in sorted({k for kind in tiled for k in _ks(db, kind)}):
        problems.extend(_tiling_problems(db, k))
    problems.extend(_by_n(_evidence_problems, db, "extension"))
    return problems


def _ks(db: Database, kind: str) -> list:
    """The k of each family of ``kind``, in the families' order."""
    return [dict(key).get("k") for key in db.families.get(kind, ())]


def _by_n(check, db: Database, kind: str) -> list[str]:
    """The problems ``check(db, k)`` finds for each k of ``kind``, as (n,
    problem) pairs, ordered as ``find(kind)`` orders its records: by n, then
    by family."""
    found = [pair for k in _ks(db, kind) for pair in check(db, k)]
    found.sort(key=itemgetter(0))
    return [problem for _, problem in found]


# The checks of validate_db that read more than one record.  Each reads the
# families of one kind or of one k through ``find``, so it is remembered with
# them and runs again when one of them changes (``memoised``).


@memoised
def _prime_problems(db: Database) -> tuple[str, ...]:
    """The odd-part records are p-groups and the coker-eta and ker-eta rows
    have no odd torsion (``_record_checks``), listed by kind."""
    return tuple(
        problem
        for kind in ("odd-part", "coker-eta", "ker-eta")
        for entry in db.find(kind)
        for problem in _record_checks(entry)[3]
    )


@memoised
def _pairing_problems(db: Database) -> tuple[str, ...]:
    """The pairing's own rule (``WhiteheadEntry.pairing``), as the commands
    that read it apply it; verify_all checks a pairing's n only through the
    gottlieb and components rows that exist, so each n needs both."""
    problems = []
    checked = {
        kind: {e.context.n_range.lo for e in db.find(kind)}
        for kind in ("gottlieb", "components")
    }
    for w in db.find("whitehead"):
        n = w.context.n_range.lo
        for kind, ns in checked.items():
            if n not in ns:
                problems.append(f"{w.context}: no {kind} row for this n")
        src = db.lookup("bracket-id", n=n)
        if src is None:
            problems.append(f"{w.context}: no bracket-id entry for this n")
            continue
        try:
            w.pairing(src)
        except DbError as e:
            problems.append(str(e))
    return tuple(problems)


@memoised
def _odd_part_problems(db: Database, k: int) -> tuple[tuple[int, str], ...]:
    """The odd-part records at k must reassemble to the odd part of each
    bracket row of k, at its first n."""
    problems = []
    odd_parts = db.find("odd-part", k=k)
    for bracket in db.find("bracket", k=k):
        n = bracket.context.n_range.lo
        odd = FinAbGroup.trivial()
        for entry in odd_parts:
            if n in entry.context.n_range:
                odd = odd.direct_sum(entry.group)
        if odd != bracket.group.odd_part():
            problems.append((n, (
                f"{bracket.context}: odd-part records sum to {odd}, "
                f"bracket has odd part {bracket.group.odd_part()}"
            )))
    return tuple(problems)


@memoised
def _tiling_problems(db: Database, k: int) -> tuple[str, ...]:
    """The coker-eta, ker-eta and bracket rows of k tile one range of n."""
    problems = []
    spans = {}
    for kind in ("coker-eta", "ker-eta", "bracket"):
        ranges = [e.context.get("n") for e in db.find(kind, k=k)]
        for a, b in zip(ranges, ranges[1:]):
            if a.hi + 1 < b.lo:
                problems.append(f"{kind} k={k}: no row for n={NRange(a.hi + 1, b.lo - 1)}")
        spans[kind] = NRange(ranges[0].lo, ranges[-1].hi) if ranges else "none"
    if len(set(spans.values())) > 1:
        covers = ", ".join(f"{kind} n={span}" for kind, span in spans.items())
        problems.append(f"k={k}: rows cover different n: {covers}")
    return tuple(problems)


@memoised
def _evidence_problems(db: Database, k: int) -> tuple[tuple[int, str], ...]:
    """Evidence at k resolves a recorded bracket cell at each end of its n
    range."""
    problems = []
    for e in db.find("extension", k=k):
        nr = e.context.n_range
        for n in sorted({nr.lo, nr.hi} - {None}):
            if db.lookup("bracket", k=k, n=n) is None:
                problems.append((nr.lo, f"{e.context}: no bracket row for n={n}"))
    return tuple(problems)
