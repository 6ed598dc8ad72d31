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
from contextlib import contextmanager
from functools import wraps
from itertools import combinations
from operator import attrgetter, is_, itemgetter
from pathlib import Path

from .abelian import (
    AbelianError,
    FinAbGroup,
    GroupHom,
    IllDefinedHomError,
    Presentation,
    parse_group,
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
from .record import field, fields, record, set_field


class DbError(Exception):
    pass


class DbParseError(DbError):
    def __init__(self, path, line, msg):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {msg}")


@record
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


@record
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
        out.append((name, tuple(c if c == "odd" else int(c) for c in coeffs)))
    return tuple(out)


def _evidence_kind(text: str):
    cls = EVIDENCE_KINDS.get(text)
    if cls is None:
        raise _BlockError(0, f"unknown evidence kind {text!r}")
    return cls


# The value types of record fields beyond those the evidence kinds share
# (``extensions``):
CONTEXT = ValueType(parse_context)  # ``kind key=value ...``
GROUP = ValueType(parse_group)  # checked against its ``terms`` when it has them
# ``name -> (c, ...) ; ...``, coordinates int or ``odd``; the names are those of
# the source row, which ``WhiteheadEntry.pairing`` checks
IMAGES = ValueType(_parse_images)
# an integer, or None when empty
OPT_INT = ValueType(lambda text: int(text) if text else None)
EVIDENCE = ValueType(  # the ``kind`` value, read as its class, which reads the other keys
    _evidence_kind,
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
# parsed and validated.


@record
class SymbolEntry:
    TAG = "symbol"
    UNIQUE = "name"

    name: str = record_field("name", TEXT)
    cite: str = record_field("cite", TEXT, default="")


@record
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

    def generator_names(self) -> tuple[str, ...]:
        return tuple(name for _, name in self.terms)

    def presentation(self) -> Presentation:
        return Presentation.from_orders([o for o, _ in self.terms])


@record
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

    def target_presentation(self) -> Presentation:
        return Presentation.from_orders([o for o, _ in self.target_terms])

    def pairing(self, src: GroupEntry) -> GroupHom:
        """The pairing as a homomorphism from the bracket-id row ``src``.

        The one rule for a usable record: a ``DbError`` names this record
        and its first problem, in this order: a source generator without an
        image; then, image by image, one given twice, one for a generator
        ``src`` lacks, or one with the wrong number of coordinates; then an
        image whose order does not divide its generator's; then an infinite
        image, which only a generator of infinite order can have."""
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
            h = GroupHom(src.presentation(), self.target_presentation(), rows)
        except IllDefinedHomError as e:
            raise fail(
                f"image of {names[e.index]!r} has order {e.image_order}, not a divisor of {e.order}"
            ) from e
        if any(not o and h.target.element_order(r) is None for o, r in zip(h.source.orders, rows)):
            raise fail("the pairing has an infinite image")
        return h


@record
class EvidenceEntry:
    TAG = "evidence"
    UNIQUE = None
    CONTEXTS = {"extension": ("k", "n")}

    context: Context = record_field("context", CONTEXT)
    item: object = record_field("kind", EVIDENCE)  # an instance of an EVIDENCE_KINDS class


@record
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
    record) ordered by n (``_family``).

    A database never changes: its fields are never assigned, and nothing in
    ``symbols`` or ``families`` is changed in place, not a family, not the
    dict of a kind, not a mapping.  A new state is a new database, made
    from another only by a load (``loads_db``), which shares what did not
    change with its base.

    ``memo`` holds the checks run on this database, and ``base_memo`` those
    of the database it was made from (``memoised``).  A load starts with an
    empty ``memo`` and its base's ``memo`` as its ``base_memo``; a database
    built by hand starts with neither.  ``rebuilt`` holds each family whose
    object is not its base's (rebuilt, added or removed) as its kind with
    every subset of its parameters, as the queries that can read it name
    them; it is None on a database that no load made."""

    records: tuple = ()
    symbols: dict[str, SymbolEntry] = field(default_factory=dict)
    families: dict[str, dict[frozenset, tuple]] = field(default_factory=dict)
    memo: dict = field(default_factory=dict, repr=False, compare=False)
    base_memo: dict = field(default_factory=dict, repr=False, compare=False)
    rebuilt: frozenset | None = field(default=None, repr=False, compare=False)

    # -- queries ----------------------------------------------------------
    def find(self, kind: str, n: int | None = None, **params) -> list:
        """The records of a context kind whose other parameters equal
        ``params`` and whose n range holds ``n`` (any n when it is None),
        ordered by n and then p.  The query, the families it read and the
        records it returned go to the open read trace, if there is one
        (``reading``)."""
        families = self.families.get(kind, _NO_FAMILIES)
        want = frozenset(params.items())
        # Every context of a kind has the same parameters (its record's
        # CONTEXTS), so a query naming all but n matches one family at most.
        family = families.get(want)
        matched = None if family is not None else _matching(families, want)
        found = _holding(family, n) if matched is None else _gathered(matched, n)
        if _TRACES:
            _TRACES[-1][kind, want, n] = family, matched, tuple(found)
        return found

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


def _gathered(matched: tuple, n: int | None) -> list:
    """The records of the families ``matched`` whose n range holds ``n``
    (every record when it is None), ordered by n and then p."""
    found = []
    for family in matched:
        p = family[0][2].context.get("p") or 0
        found.extend((e.context.n_range.lo, p, e) for e in _holding(family, n))
    found.sort(key=itemgetter(0, 1))
    return [e for _, _, e in found]


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


def _family(new, base: tuple = (), out: set = frozenset()) -> tuple:
    """The family of the rows of ``base``, a family, whose records' ids are
    not in ``out``, and of the records ``new`` in the order stored after
    them: a tuple of (n.lo, n range, record) ordered by n.lo, then by that
    order.  The first of ``new`` whose context is unique (``UNIQUE``) and
    whose n range overlaps that of a row before it is a ``_Clash``; given a
    ``base``, so is one that starts where a row does, as the order stored
    of the two is not known then."""
    rows = [row for row in base if id(row[2]) not in out]
    for i, entry in enumerate(new):
        nr = entry.context.n_range
        j = bisect.bisect_right(rows, nr.lo, key=itemgetter(0))
        for lo, other_nr, other in rows[max(j - 1, 0):j + 1]:
            if nr.overlaps(other_nr) if entry.UNIQUE else base and lo == nr.lo:
                raise _Clash(i, f"context {entry.context} overlaps {other.context}")
        rows.insert(j, (nr.lo, nr, entry))
    return tuple(rows)


def _reindexed(old: Database, keys: list, records: tuple, touched: dict, gone: tuple,
               reorder: bool):
    """The symbols and families of ``records`` (in load order, indexed at
    ``keys``), given ``old``, whose records are the same but for those
    ``gone``.  ``touched`` maps the keys of the new records, and of those
    gone, to the new ones' positions: only these names and families are
    built again, each from ``old``'s (``_family``), or by a scan of
    ``keys`` when a clash or a tie needs the others' positions.  Families
    are ordered by first appearance: as in ``old`` unless ``reorder``, as in
    ``touched`` when ``old`` is empty.  The symbols dict of ``old`` is
    returned itself when no name is touched, and its families mapping when
    no family is; otherwise the dict of each kind that no new family enters
    is shared with it, unless ``reorder``.
    ``_Clash`` names the first record, in load order, that clashes with an
    earlier one: a symbol name taken, or an overlapping context."""
    out = set(map(id, gone))
    symbols = dict(old.symbols) if any(type(key) is str for key in touched) else old.symbols
    built, clashes = {}, []
    for key, where in touched.items():
        if type(key) is str:
            if (held := old.symbols.get(key)) is not None and id(held) not in out:  # taken again
                where = [x for x, other in enumerate(keys) if other == key]
            if len(where) > 1:
                clashes.append(_Clash(where[1], f"duplicate name {key!r}"))
            elif where:
                symbols[key] = records[where[0]]
            else:
                del symbols[key]
            continue
        base = old.families.get(key[0], _NO_FAMILIES).get(key[1], ())
        try:
            family = _family(map(records.__getitem__, where), base, out)
        except _Clash:  # a clash or a tie: the family is built from all its rows in load order
            where = [x for x, other in enumerate(keys) if other == key]
            try:
                family = _family(map(records.__getitem__, where))
            except _Clash as e:
                clashes.append(_Clash(where[e.index], str(e)))
                continue
        if family:
            built[key] = family
    if clashes:
        raise min(clashes, key=attrgetter("index"))
    if not any(type(key) is tuple for key in touched):  # no family gained or lost a record
        families = old.families
    elif reorder:
        families: dict = {}
        for key in dict.fromkeys(keys):
            if type(key) is tuple:
                kind, fam = key
                families.setdefault(kind, {})[fam] = built.get(key) or old.families[kind][fam]
    else:  # a new dict for each kind with a new family; the other dicts are shared
        families = dict(old.families)
        for kind in dict.fromkeys(kind for kind, _ in built):  # in order: a new kind goes last
            families[kind] = dict(old.families.get(kind, _NO_FAMILIES))
        for (kind, fam), family in built.items():
            families[kind][fam] = family
    return symbols, families


# ---------------------------------------------------------------------------
# Checks remembered on the database they ran on
# ---------------------------------------------------------------------------


# The read traces open, innermost last (``reading``).
_TRACES: list[dict] = []


@contextmanager
def reading():
    """A read trace of the ``find`` queries (``lookup`` and ``evidence_for``
    too) made inside the block, yielded as a dict.  It maps each query, as
    (kind, parameters other than n as a frozenset of pairs, n), to (family,
    matched, records): the family the query read, or None and the tuple of
    families it matched when no single family has its parameters
    (``_matching``), and the tuple of records it returned, in order.  When
    the block ends, its queries are added to the trace open around it, if
    there is one."""
    trace: dict = {}
    _TRACES.append(trace)
    try:
        yield trace
    finally:
        _TRACES.pop()
        if _TRACES:
            _TRACES[-1].update(trace)


def _unchanged(db: Database, trace: dict) -> bool:
    """Whether every query of ``trace`` returns the identical records, in
    the same order, in ``db``.  A query whose family, or each of whose
    matched families, is the identical object in ``db`` holds at once; any
    other is run again on ``db`` and its records compared."""
    families = db.families
    for (kind, want, n), (family, matched, found) in trace.items():
        of_kind = families.get(kind, _NO_FAMILIES)
        now = of_kind.get(want)
        if now is not None:
            if now is family:
                continue
            got = _holding(now, n)
        else:
            now = _matching(of_kind, want)
            if matched is not None and len(now) == len(matched) and all(map(is_, now, matched)):
                continue
            got = _gathered(now, n)
        if len(got) != len(found) or not all(map(is_, got, found)):
            return False
    return True


def memoised(check):
    """``check(db, *args)``, remembered on ``db`` by (check, args).

    ``check`` must read ``db`` only through ``find`` (``lookup``,
    ``evidence_for``), so that a database on which its queries return the
    identical records gets the identical value.  The value is kept in
    ``db.memo`` with the read trace of its run (``reading``) and its
    queries' (kind, parameters), and is returned at once on the next call.
    A value of the database ``db`` was made from (``db.base_memo``) is used
    at once when none of those is in ``db.rebuilt``: every family its
    queries read or matched is then the base's own.  Otherwise, or on a
    database no load made, it is used when its trace, walked query by
    query, still holds on ``db`` (``_unchanged``); else the check runs.
    Either way the value is then kept in ``db.memo``.  A memo lives as long
    as its database, or a database made from it.  A call inside another
    memoised check adds its reads, whether remembered or new, to the outer
    check's.  Exceptions are not kept."""

    @wraps(check)
    def run(db, *args):
        key = (check, args)
        hit = db.memo.get(key)
        if hit is None:
            hit = db.base_memo.get(key)
            if hit is None or not (db.rebuilt is not None and hit[2].isdisjoint(db.rebuilt)
                                   or _unchanged(db, hit[1])):
                with reading() as trace:
                    value = check(db, *args)
                db.memo[key] = value, trace, frozenset(map(itemgetter(0, 1), trace))
                return value
            db.memo[key] = hit
        if _TRACES:
            _TRACES[-1].update(hit[1])
        return hit[0]

    return run


def clear_memos() -> None:
    """Forget the loads ``loads_db`` remembers, so that the next load and
    its checks start cold (``memoised``).  A database already given out
    keeps its checks."""
    _LOADED.clear()


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
    every key it reads, and called with every field by position (a key
    left out gives its field's default); an evidence record's ``kind``
    selects the item class that reads the keys left."""
    values = []
    for (_, key, vtype, required, _), f in zip(schema(cls), fields(cls)):
        if key not in record:
            if required:
                raise _BlockError(0, f"{label} lacks {key!r}")
            values.append(f.default)
            continue
        text = record.pop(key)
        value = vtype.parse(text)
        if vtype is EVIDENCE:
            value = _parse_record(value, record, f"{text} evidence")
        values.append(value)
    return cls(*values)


def _parse_block(block: str):
    """The record a block's text spells (None for a block of comments).
    Comment lines are dropped first; ``_BlockError.index`` counts the block's
    lines that are not comments (0 = the header)."""
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


def _line_no(text: str, start: int, end: int, index: int) -> int:
    """The line number of the ``index``-th line that is not a comment of the
    block at ``text[start:end]`` of a normalised ``text``."""
    kept = [
        i for i, line in enumerate(text[start:end].splitlines())
        if not line.strip().startswith("#")
    ]
    return text.count("\n", 0, start) + 1 + kept[index]


def _shared(a: str, b: str, lo: int, hi: int, at_end: bool) -> int:
    """How many characters ``a`` and ``b`` share at their start (at their
    end when ``at_end``), known to be from ``lo`` to ``hi``: by bisection."""
    na, nb = len(a), len(b)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a.endswith(b[nb - mid:nb - lo], 0, na - lo) if at_end else a.startswith(b[lo:mid], lo):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _common(a: str, b: str, pre=(0, False), suf=(0, False)) -> tuple[int, int]:
    """The lengths of the longest common prefix and suffix of ``a`` and
    ``b``, given each as (a length they share, whether it is the longest)."""
    most = min(len(a), len(b))
    return (pre[0] if pre[1] else _shared(a, b, pre[0], most, False),
            suf[0] if suf[1] else _shared(a, b, suf[0], most, True))


# The loads that ``loads_db`` remembers, at most two: the base of the latest
# load, then that load.  Each is a normalised text that loaded without error,
# with the (start, end) of each record's block, each record's index key (its
# name or family), its database, the one the load returned, and the common
# prefix and suffix of its text and its base's (``_common``).
_LOADED: list = []
_COLD = ("", [], [], Database(), (0, 0))  # no text: a load without a base; its memo stays empty


def _window(kept: tuple, text: str, pre: int, suf: int) -> tuple[int, int, int, int]:
    """The blocks of a remembered load that ``text`` does not keep, the ith
    to the (j - 1)th, and the part of ``text`` that replaces them, from lo to
    hi, given the texts' common prefix and suffix: a block is kept when a
    blank line, unchanged, lies between it and the lines that differ."""
    old, spans = kept[0], kept[1]
    suf = min(suf, len(old) - pre, len(text) - pre)  # the suffix of what follows the prefix
    start, end = text.rfind("\n", 0, pre) + 1, old.find("\n", len(old) - suf)
    i = bisect.bisect_left(spans, start - 1, key=itemgetter(1))
    j = bisect.bisect_right(spans, len(old) if end < 0 else end + 1, key=itemgetter(0))
    hi = spans[j][0] + len(text) - len(old) if j < len(spans) else len(text)
    return i, j, spans[i - 1][1] if i else 0, hi


def loads_db(text: str, path: str = "<string>") -> Database:
    """Parse a ``.cohdb`` text; ``DbParseError`` names ``path`` and the line
    of the first problem in the file.

    The load is incremental.  The normalised texts of the last two loads
    without error are remembered, with their blocks and records.  The new
    text is compared with each by common prefix and suffix, and its base is
    the one that leaves the least of it to scan (the older on a tie, so that
    edits of one file each keep that file as their base).  Only the older
    text is diffed in full: the newer one was loaded from it, so its diff
    follows from the two diffs with the older text.  The first load, or the
    first after ``clear_memos``, has no base and scans the whole text.  Only
    the blocks on or next to the lines that differ are scanned and parsed;
    the others keep their record objects.  Only the symbols and families
    that gained or lost a record are built again, from the base's
    (``_reindexed``); every other family object is shared with the base, and
    a load that builds no family or name shares the base's families mapping
    or symbols dict.

    The new database starts with no remembered checks, its base's as its
    ``base_memo``, and the families it built, added or removed as
    ``rebuilt`` (``Database``), against which ``memoised`` confirms the
    base's checks.  So a one-number edit costs one full diff, one family
    built again, and a walk only for each check that read that family.  A
    text equal to a remembered one gets that remembered database itself,
    and the loads remembered stay as they are."""
    if not text.isascii() or any(c in text for c in _OTHER_BREAKS):
        text = "\n".join(text.splitlines())
    for kept in _LOADED:
        if kept[0] == text:
            return kept[3]
    older, *newer = _LOADED or [_COLD]
    common = [_common(older[0], text)]
    # the newer text was loaded from the older: when it and the new text part
    # from the older one at different places, they part from each other at the
    # nearer one, from the start as from the end
    for kept in newer:
        (pre, suf), (p, s) = common[0], kept[4]
        common.append(_common(kept[0], text, (min(pre, p), pre != p), (min(suf, s), suf != s)))
    (i, j, lo, hi), base, common = min(
        ((_window(kept, text, *c), kept, c) for kept, c in zip([older, *newer], common)),
        key=lambda w: w[0][3] - w[0][2],
    )
    old, old_spans, old_keys, old_db, _ = base
    shift = len(text) - len(old)
    spans, records = [], []
    failed = None
    for block in _BLOCK.finditer(text, lo, hi):
        try:
            entry = _parse_block(block.group())
        except _BlockError as e:
            failed = block, e
            break
        if entry is not None:
            spans.append(block.span())
            records.append(entry)
    # a symbol is indexed by its name, any other record by its family
    keys = [e.name if isinstance(e, SymbolEntry) else (e.context.kind, e.context.family)
            for e in records]
    touched: dict = {}  # key -> the positions of its records, for those scanned
    for x, key in enumerate(keys, i):
        touched.setdefault(key, []).append(x)
    if failed:  # only a clash in the blocks before a bad one comes first in the file
        j = len(old_spans)
    else:  # the names and families that lost a record
        for key in old_keys[i:j]:
            touched.setdefault(key, [])
    # the families keep the base's order while every record keeps its key
    reorder = not failed and bool(old_keys) and keys != old_keys[i:j]
    after = [(s + shift, e + shift) for s, e in old_spans[j:]] if shift else old_spans[j:]
    spans = old_spans[:i] + spans + after
    records = (*old_db.records[:i], *records, *old_db.records[j:])
    keys = old_keys[:i] + keys + old_keys[j:]
    try:
        symbols, families = _reindexed(old_db, keys, records, touched, old_db.records[i:j],
                                       reorder)
    except _Clash as e:
        raise DbParseError(path, _line_no(text, *spans[e.index], 0), str(e)) from e
    if failed:
        block, e = failed
        raise DbParseError(path, _line_no(text, *block.span(), e.index), str(e)) from e.__cause__
    # a query of any part of a rebuilt family's parameters may find other records
    rebuilt = frozenset((key[0], frozenset(part)) for key in touched if type(key) is tuple
                        for r in range(len(key[1]) + 1) for part in combinations(key[1], r))
    db = Database(records, symbols, families, base_memo=old_db.memo, rebuilt=rebuilt)
    kept = (text, spans, keys, db, common)
    _LOADED[:] = [kept] if base is _COLD else [base, kept]
    return kept[3]


def load_db(path) -> Database:
    """Read a UTF-8 ``.cohdb`` file and parse it, less one leading byte-order
    mark; bytes that are not UTF-8 are a ``DbParseError`` at the line of the
    first bad one, and at its offset in the file."""
    p = Path(path)
    data = p.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise DbParseError(p, line, f"not UTF-8 text: {e.reason} at byte {e.start}") from e
    return loads_db(text.removeprefix("\ufeff"), str(p))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


# The kinds whose rows of each k must tile one range of n, and those whose
# groups' primes are checked, each in the order their problems are listed.
_TILED = ("coker-eta", "ker-eta", "bracket")
_PRIMED = ("odd-part", "coker-eta", "ker-eta")


def _record_checks(entry):
    """What ``validate_db`` checks on one record alone, as a tuple: the
    symbol families its generator names reference; its problems if all of
    those are registered; its checks in field order, each a problem or a
    (generator name, families) pair; and the problems with the primes of its
    group (an odd-part row that is not a p-group, a coker-eta or ker-eta row
    with odd torsion).  The family checks (``_family_checks``) gather these
    over each family.

    Records are immutable, so the tuple is computed once and kept on the
    record itself (an attribute, not a field: equality, hashing and
    ``repr`` do not see it).  ``loads_db`` keeps the record of each
    unchanged block, so the checks run once per parsed block."""
    done = entry.__dict__.get("_checks")
    if done is not None:
        return done
    from .symbols import NameParseError, families_of  # here, so a load compiles no name grammar

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


@memoised
def _family_checks(db: Database, kind: str, key: frozenset) -> tuple:
    """The checks of each record alone (``_record_checks``) over the family
    of context ``kind`` whose parameters other than n are ``key``, read with
    one ``find``, as a tuple: the symbol families its records reference; its
    records with problems of their own; the problems with their groups'
    primes, as (the kind's place in ``_PRIMED``, first n, p, problem), p 0
    for a kind without one; and for a family of k whose rows must tile a
    range of n (``_TILED``), its k, the gaps between its rows and the range
    they span, written (None for any other family).  Records and problems
    are in the family's order."""
    params = dict(key)
    rows = db.find(kind, **params)
    checks = list(map(_record_checks, rows))
    tiling = None
    if kind in _TILED and "k" in params:
        k, ranges = params["k"], [e.context.n_range for e in rows]
        gaps = tuple(
            f"{kind} k={k}: no row for n={NRange(a.hi + 1, b.lo - 1)}"
            for a, b in zip(ranges, ranges[1:]) if a.hi + 1 < b.lo
        )
        tiling = k, gaps, str(NRange(ranges[0].lo, ranges[-1].hi))
    primes = ()
    if kind in _PRIMED:
        rank, p = _PRIMED.index(kind), params.get("p") or 0
        primes = tuple(
            (rank, e.context.n_range.lo, p, problem)
            for e, c in zip(rows, checks) for problem in c[3]
        )
    return (
        frozenset().union(*(c[0] for c in checks)),
        tuple(e for e, c in zip(rows, checks) if c[1]),
        primes,
        tiling,
    )


def validate_db(db: Database) -> list[str]:
    """Structural and cross-reference checks; returns a list of problems
    (empty list = valid).  First the problems of each record alone, in
    file order; then those with the primes of the odd-part, coker-eta and
    ker-eta groups, kind by kind, ordered by n and then p; and the tiling of
    each k's rows, by k.  When none of these finds a problem, the text of
    each error that ends a check of ``pipeline.verify_all`` (status
    "error"), once each in its order: the commands read what ``verify``
    checks, so a file they cannot read fails.  Among those errors is the
    rule that the odd-part records sum to the bracket row's odd part, which
    ``pipeline.check_bracket`` checks at every cell ``verify`` plans.

    The checks of each record alone run once per record (``_record_checks``)
    and are gathered per family (``_family_checks``).  Those, and the checks
    that read more than one family, are remembered with the queries they
    made (``memoised``) and run again only when one of these returns other
    records: after an edit, the edited record's family and the checks that
    read it.  The test against the registered symbols is made on every
    call, outside every memo, on the symbol families each family
    references; only a family that references an unregistered one has its
    records tested one by one."""
    problems: list[str] = []
    symbols = set(db.symbols)
    flagged, primes, tiles = [], [], {}
    for kind, of_kind in db.families.items():
        for key, family in of_kind.items():
            names, own, prime, tiling = _family_checks(db, kind, key)
            if not names <= symbols:
                own = [
                    e for _, _, e in family
                    if _record_checks(e)[1] or not _record_checks(e)[0] <= symbols
                ]
            flagged.extend(own)
            primes.extend(prime)
            if tiling:
                tiles[kind, tiling[0]] = tiling[1:]
    if len(flagged) > 1:  # found family by family, each ordered by n: put back in file order
        ids = set(map(id, flagged))
        flagged = [e for e in db.records if id(e) in ids]
    for entry in flagged:
        for check in _record_checks(entry)[2]:
            if isinstance(check, str):
                problems.append(check)
                continue
            name, fams = check
            for fam in sorted(fams - symbols):
                problems.append(
                    f"{entry.context}: generator {name!r} references "
                    f"unregistered symbol family {fam!r}"
                )

    primes.sort(key=itemgetter(0, 1, 2))  # stable: families of a kind in order
    problems.extend(problem for *_, problem in primes)
    for k in sorted({k for _, k in tiles}):
        spans = {}
        for kind in _TILED:
            gaps, spans[kind] = tiles.get((kind, k), ((), "none"))
            problems.extend(gaps)
        if len(set(spans.values())) > 1:
            covers = ", ".join(f"{kind} n={span}" for kind, span in spans.items())
            problems.append(f"k={k}: rows cover different n: {covers}")
    if not problems:  # a record problem is reported alone, and no cell is resolved
        from .pipeline import verify_all  # here, since pipeline imports database

        problems.extend(dict.fromkeys(r.detail for r in verify_all(db) if r.status == "error"))
    return problems

