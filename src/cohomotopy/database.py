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

import re
from dataclasses import dataclass, field
from pathlib import Path

from .abelian import FinAbGroup, Presentation, render_group
from .extensions import (
    EhpInjectivity,
    ElementOrderLift,
    ExternalFact,
    RelationFact,
    Retraction,
)
from .symbols import NameParseError, families_of

GROUP_CONTEXTS = {
    "coker-eta": ("k", "n"),
    "ker-eta": ("k", "n"),
    "odd-part": ("k", "n", "p"),
    "bracket": ("k", "n"),
    "mapspace": ("n",),
    "bracket-id": ("n",),
    "gottlieb": ("n",),
    "sphere": ("m", "k"),
    "sphere-gottlieb": ("m", "k"),
}

# The context kinds each record type accepts, with their parameters.
RECORD_CONTEXTS = {
    "group": GROUP_CONTEXTS,
    "whitehead": {"whitehead": ("n", "m")},
    "evidence": {"extension": ("k", "n")},
    "components": {"components": ("n",)},
}


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
        return cls(lo, hi)


@dataclass(frozen=True)
class Context:
    kind: str
    params: tuple[tuple[str, object], ...]  # sorted (key, value); n is NRange

    def get(self, key, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

    def n_range(self) -> NRange:
        """The ``n`` parameter; a :class:`DbError` when the context has none
        (``loads_db`` checks the parameters of group contexts only, the other
        record types are left to ``validate_db``)."""
        nr = self.get("n")
        if nr is None:
            raise DbError(f"context {self} lacks the n parameter")
        return nr

    def __str__(self) -> str:
        order = {"k": 0, "n": 1, "p": 2, "m": -1}
        items = sorted(self.params, key=lambda kv: order.get(kv[0], 9))
        return " ".join([self.kind] + [f"{k}={v}" for k, v in items])


def _context_problem(rtype: str, ctx: Context) -> str | None:
    """Why ``ctx`` is not a valid context for a ``[rtype]`` record, if it is
    not: an unknown kind, or missing or extra parameters."""
    kinds = RECORD_CONTEXTS[rtype]
    if ctx.kind not in kinds:
        return f"unknown {rtype} context {ctx.kind!r}"
    want = set(kinds[ctx.kind])
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
        if k == "n":
            params.append((k, NRange.parse(v)))
        else:
            params.append((k, int(v)))
    return Context(kind, tuple(sorted(params)))


@dataclass(frozen=True)
class GroupEntry:
    """A group with named generators, as written in the source tables.

    ``terms`` pairs each written cyclic factor (order 0 = Z) with its
    generator name, in table order; ``group`` is the canonical form.
    """

    context: Context
    group: FinAbGroup
    terms: tuple[tuple[int, str], ...]
    cite: str
    note: str = ""
    flags: tuple[str, ...] = ()

    def generator_names(self) -> tuple[str, ...]:
        return tuple(name for _, name in self.terms)

    def presentation(self) -> Presentation:
        return Presentation.from_orders([o for o, _ in self.terms])


@dataclass(frozen=True)
class SymbolEntry:
    name: str
    cite: str
    note: str = ""


@dataclass(frozen=True)
class WhiteheadEntry:
    """The Whitehead-pairing map f |-> [f, identity-class] on a bracket-id row.

    ``target_terms`` present the target group; ``images`` map each source
    generator name to its image coordinates (integers, or "odd" for an
    undetermined odd unit, evaluated as 1).
    """

    context: Context  # kind "whitehead", params n, m
    target_terms: tuple[tuple[int, str], ...]
    images: tuple[tuple[str, tuple[object, ...]], ...]
    cite: str
    note: str = ""

    def target_group(self) -> FinAbGroup:
        return FinAbGroup.from_factors([o for o, _ in self.target_terms])

    def target_presentation(self) -> Presentation:
        return Presentation.from_orders([o for o, _ in self.target_terms])

    def image_matrix_rows(self, source_names) -> list[list[int]]:
        imap = dict(self.images)
        rows = []
        for name in source_names:
            if name not in imap:
                raise DbError(f"whitehead {self.context}: no image for {name!r}")
            rows.append([1 if c == "odd" else int(c) for c in imap[name]])
        return rows


@dataclass(frozen=True)
class EvidenceEntry:
    context: Context  # kind "extension", params k, n
    item: object  # Retraction | ElementOrderLift | RelationFact | ...
    cite: str


@dataclass(frozen=True)
class RelationEntry:
    rel_id: str
    statement: str
    cite: str


@dataclass(frozen=True)
class ComponentsEntry:
    context: Context  # kind "components", params n
    expected: int
    flags: tuple[str, ...]
    cite: str
    note: str = ""


@dataclass
class Database:
    path: str
    symbols: dict[str, SymbolEntry] = field(default_factory=dict)
    groups: dict[str, list[GroupEntry]] = field(default_factory=dict)
    whitehead: list[WhiteheadEntry] = field(default_factory=list)
    evidence: list[EvidenceEntry] = field(default_factory=list)
    relations: list[RelationEntry] = field(default_factory=list)
    components: list[ComponentsEntry] = field(default_factory=list)

    # -- lookups ----------------------------------------------------------
    def lookup(self, kind: str, **params) -> GroupEntry | None:
        """Find the group entry for a context; an explicit n match beats a
        range match."""
        n = params.pop("n", None)
        best = None
        for e in self.groups.get(kind, ()):
            if any(e.context.get(k) != v for k, v in params.items()):
                continue
            nr = e.context.get("n")
            if n is None:
                if nr is None:
                    return e
                continue
            if nr is None or n not in nr:
                continue
            if nr.is_single():
                return e
            if best is None:
                best = e
        return best

    def evidence_for(self, k: int, n: int) -> list[EvidenceEntry]:
        out = []
        for e in self.evidence:
            if e.context.get("k") != k:
                continue
            nr = e.context.get("n")
            if nr is not None and n in nr:
                out.append(e)
        return out

    def whitehead_for(self, n: int) -> WhiteheadEntry | None:
        for e in self.whitehead:
            nr = e.context.get("n")
            if nr and n in nr:
                return e
        return None

    def components_for(self, n: int) -> ComponentsEntry | None:
        for e in self.components:
            nr = e.context.get("n")
            if nr and n in nr:
                return e
        return None


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _parse_group_expr(text: str):
    """Parse a written group expression into a list of term orders
    (0 = Z), expanding ``Z^r``."""
    text = text.strip()
    if text == "0":
        return []
    orders = []
    for term in text.split("+"):
        term = term.strip()
        if term == "Z":
            orders.append(0)
        elif re.fullmatch(r"Z\^\d+", term):
            orders.extend([0] * int(term[2:]))
        elif re.fullmatch(r"Z/\d+", term):
            n = int(term[2:])
            if n < 2:
                raise ValueError(f"bad torsion order in {term!r}")
            orders.append(n)
        else:
            raise ValueError(f"bad group term {term!r}")
    return orders


def _parse_gen_list(text: str):
    """Parse ``name : order ; name : order`` into (order, name) pairs."""
    out = []
    if not text.strip():
        return out
    for item in text.split(";"):
        item = item.strip()
        if ":" not in item:
            raise ValueError(f"generator item {item!r} lacks ': order'")
        name, order = item.rsplit(":", 1)
        order = order.strip()
        out.append((0 if order == "inf" else int(order), name.strip()))
    return out


def _parse_images(text: str):
    out = []
    for item in text.split(";"):
        item = item.strip()
        if "->" not in item:
            raise ValueError(f"image item {item!r} lacks '->'")
        name, vec = item.split("->", 1)
        vec = vec.strip()
        if not (vec.startswith("(") and vec.endswith(")")):
            raise ValueError(f"image vector {vec!r} must be parenthesized")
        coeffs = []
        inner = vec[1:-1].strip()
        if inner:
            for c in inner.split(","):
                c = c.strip()
                if c in ("odd", "-odd"):
                    coeffs.append("odd")
                else:
                    coeffs.append(int(c))
        out.append((name.strip(), tuple(coeffs)))
    return out


_EVIDENCE_KINDS = {
    "retraction",
    "element-order-lift",
    "relation-fact",
    "external-fact",
    "ehp-injectivity",
}


def _build_evidence(kind: str, fields: dict, where):
    cite = fields.get("cite", "")
    if kind == "retraction":
        sections = []
        for item in fields.get("sections", "").split(";"):
            item = item.strip()
            if not item:
                continue
            if "->" not in item:
                raise DbParseError(*where, f"bad section {item!r}")
            a, b = item.split("->", 1)
            sections.append((a.strip(), b.strip()))
        return Retraction(tuple(sections), cite)
    if kind == "element-order-lift":
        order = fields["order"].strip()
        return ElementOrderLift(
            lift_name=fields["lift"].strip(),
            order=None if order == "inf" else int(order),
            maps_to=fields["maps-to"].strip(),
            absorbs=fields.get("absorbs", "").strip() or None,
            remainder_name=fields.get("remainder-name", "").strip() or None,
            cite=cite,
        )
    if kind == "relation-fact":
        return RelationFact(
            lift_name=fields["lift"].strip(),
            lift_of=fields["lift-of"].strip(),
            multiplier=int(fields["multiplier"]),
            rhs=fields["rhs"].strip(),
            rhs_mult=int(fields.get("rhs-mult", "1")),
            remainder_name=fields.get("remainder-name", "").strip() or None,
            cite=cite,
        )
    if kind == "external-fact":
        return ExternalFact(
            factors=tuple(_parse_gen_list(fields["factors"])),
            statement=fields.get("statement", "").strip(),
            cite=cite,
        )
    if kind == "ehp-injectivity":
        names = []
        for item in fields.get("names", "").split(";"):
            item = item.strip()
            if not item:
                continue
            if "->" not in item:
                raise DbParseError(*where, f"bad name translation {item!r}")
            a, b = item.split("->", 1)
            names.append((a.strip(), b.strip()))
        return EhpInjectivity(
            source_n=int(fields["source-n"]), names=tuple(names), cite=cite
        )
    raise DbParseError(*where, f"unknown evidence kind {kind!r}")


def _blocks(lines):
    """Group (line_no, text) pairs into records."""
    block = []
    for i, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if line.strip().startswith("#"):
            continue
        if not line.strip():
            if block:
                yield block
                block = []
            continue
        block.append((i, line))
    if block:
        yield block


def loads_db(text: str, path: str = "<string>") -> Database:
    db = Database(path=path)
    seen_contexts: set[str] = set()
    for block in _blocks(text.splitlines()):
        line0, header = block[0]
        m = re.fullmatch(r"\[([a-z-]+)\]", header.strip())
        if not m:
            raise DbParseError(path, line0, f"expected a [record-type] header, got {header!r}")
        rtype = m.group(1)
        fields: dict[str, str] = {}
        for line_no, line in block[1:]:
            if "=" not in line:
                raise DbParseError(path, line_no, f"expected 'key = value', got {line!r}")
            k, v = line.split("=", 1)
            k = k.strip()
            if k in fields:
                raise DbParseError(path, line_no, f"duplicate key {k!r}")
            fields[k] = v.strip()
        where = (path, line0)
        try:
            _add_record(db, rtype, fields, where, seen_contexts)
        except DbParseError:
            raise
        except (ValueError, KeyError) as e:
            raise DbParseError(path, line0, f"bad [{rtype}] record: {e}") from e
    return db


def _add_record(db, rtype, fields, where, seen_contexts):
    path, line0 = where
    cite = fields.get("cite", "")
    if not cite:
        raise DbParseError(path, line0, f"[{rtype}] record lacks a cite")
    if rtype == "symbol":
        name = fields["name"]
        if name in db.symbols:
            raise DbParseError(path, line0, f"duplicate symbol {name!r}")
        db.symbols[name] = SymbolEntry(name, cite, fields.get("note", ""))
        return
    if rtype == "relation":
        db.relations.append(
            RelationEntry(fields["id"], fields["statement"], cite)
        )
        return
    ctx = parse_context(fields["context"])
    key = str(ctx)
    if rtype != "evidence":
        if key in seen_contexts:
            raise DbParseError(path, line0, f"duplicate context {key!r}")
        seen_contexts.add(key)
    if rtype == "group":
        problem = _context_problem(rtype, ctx)
        if problem:
            raise DbParseError(path, line0, problem)
        orders = _parse_group_expr(fields["group"])
        terms = tuple(_parse_gen_list(fields.get("generators", "")))
        flags = tuple(fields.get("flags", "").split()) if fields.get("flags") else ()
        db.groups.setdefault(ctx.kind, []).append(
            GroupEntry(
                context=ctx,
                group=FinAbGroup.from_factors(orders),
                terms=terms,
                cite=cite,
                note=fields.get("note", ""),
                flags=flags,
            )
        )
        return
    if rtype == "whitehead":
        db.whitehead.append(
            WhiteheadEntry(
                context=ctx,
                target_terms=tuple(_parse_gen_list(fields.get("target-generators", ""))),
                images=tuple(_parse_images(fields["images"])) if fields.get("images") else (),
                cite=cite,
                note=fields.get("note", ""),
            )
        )
        return
    if rtype == "evidence":
        kind = fields["kind"]
        if kind not in _EVIDENCE_KINDS:
            raise DbParseError(path, line0, f"unknown evidence kind {kind!r}")
        db.evidence.append(
            EvidenceEntry(ctx, _build_evidence(kind, fields, where), cite)
        )
        return
    if rtype == "components":
        flags = tuple(fields.get("flags", "").split()) if fields.get("flags") else ()
        db.components.append(
            ComponentsEntry(ctx, int(fields["expected"]), flags, cite, fields.get("note", ""))
        )
        return
    raise DbParseError(path, line0, f"unknown record type [{rtype}]")


def load_db(path) -> Database:
    p = Path(path)
    return loads_db(p.read_text(), str(p))


# ---------------------------------------------------------------------------
# Serialization (round-trip)
# ---------------------------------------------------------------------------


def _fmt_gen_list(terms) -> str:
    return " ; ".join(
        f"{name} : {'inf' if order == 0 else order}" for order, name in terms
    )


def _fmt_group_terms(terms) -> str:
    if not terms:
        return "0"
    return " + ".join("Z" if o == 0 else f"Z/{o}" for o, _ in terms)


def dumps_db(db: Database) -> str:
    out = []

    def emit(header, pairs):
        out.append(f"[{header}]")
        for k, v in pairs:
            if v:
                out.append(f"{k} = {v}")
        out.append("")

    for s in db.symbols.values():
        emit("symbol", [("name", s.name), ("cite", s.cite), ("note", s.note)])
    for entries in db.groups.values():
        for g in entries:
            emit(
                "group",
                [
                    ("context", str(g.context)),
                    ("group", _fmt_group_terms(g.terms) if g.terms else render_group(g.group)),
                    ("generators", _fmt_gen_list(g.terms)),
                    ("flags", " ".join(g.flags)),
                    ("cite", g.cite),
                    ("note", g.note),
                ],
            )
    for w in db.whitehead:
        images = " ; ".join(
            f"{name} -> ({', '.join(str(c) for c in vec)})" for name, vec in w.images
        )
        emit(
            "whitehead",
            [
                ("context", str(w.context)),
                ("target", _fmt_group_terms(w.target_terms)),
                ("target-generators", _fmt_gen_list(w.target_terms)),
                ("images", images),
                ("cite", w.cite),
                ("note", w.note),
            ],
        )
    for e in db.evidence:
        item = e.item
        pairs = [("context", str(e.context))]
        if isinstance(item, Retraction):
            pairs += [
                ("kind", "retraction"),
                ("sections", " ; ".join(f"{a} -> {b}" for a, b in item.sections)),
            ]
        elif isinstance(item, ElementOrderLift):
            pairs += [
                ("kind", "element-order-lift"),
                ("lift", item.lift_name),
                ("order", "inf" if item.order is None else str(item.order)),
                ("maps-to", item.maps_to),
                ("absorbs", item.absorbs or ""),
                ("remainder-name", item.remainder_name or ""),
            ]
        elif isinstance(item, RelationFact):
            pairs += [
                ("kind", "relation-fact"),
                ("lift", item.lift_name),
                ("lift-of", item.lift_of),
                ("multiplier", str(item.multiplier)),
                ("rhs", item.rhs),
                ("rhs-mult", str(item.rhs_mult)),
                ("remainder-name", item.remainder_name or ""),
            ]
        elif isinstance(item, ExternalFact):
            pairs += [
                ("kind", "external-fact"),
                ("factors", _fmt_gen_list(item.factors)),
                ("statement", item.statement),
            ]
        elif isinstance(item, EhpInjectivity):
            pairs += [
                ("kind", "ehp-injectivity"),
                ("source-n", str(item.source_n)),
                ("names", " ; ".join(f"{a} -> {b}" for a, b in item.names)),
            ]
        pairs.append(("cite", e.cite))
        emit("evidence", pairs)
    for r in db.relations:
        emit("relation", [("id", r.rel_id), ("statement", r.statement), ("cite", r.cite)])
    for c in db.components:
        emit(
            "components",
            [
                ("context", str(c.context)),
                ("expected", str(c.expected)),
                ("flags", " ".join(c.flags)),
                ("cite", c.cite),
                ("note", c.note),
            ],
        )
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_db(db: Database) -> list[str]:
    """Structural and cross-reference checks; returns a list of problems
    (empty list = valid)."""
    problems: list[str] = []

    def check_names(terms, where):
        for order, name in terms:
            try:
                fams = families_of(name)
            except NameParseError as e:
                problems.append(f"{where}: {e}")
                continue
            for fam in sorted(fams):
                if fam not in db.symbols:
                    problems.append(
                        f"{where}: generator {name!r} references "
                        f"unregistered symbol family {fam!r}"
                    )

    contexts = [("group", g.context) for entries in db.groups.values() for g in entries]
    contexts += [("whitehead", w.context) for w in db.whitehead]
    contexts += [("evidence", e.context) for e in db.evidence]
    contexts += [("components", c.context) for c in db.components]
    for rtype, ctx in contexts:
        problem = _context_problem(rtype, ctx)
        if problem:
            problems.append(f"{ctx}: [{rtype}] {problem}")

    for entries in db.groups.values():
        for g in entries:
            where = str(g.context)
            if g.terms:
                written = FinAbGroup.from_factors([o for o, _ in g.terms])
                if written != g.group:
                    problems.append(
                        f"{where}: generator orders disagree with the group "
                        f"({written} vs {g.group})"
                    )
            elif not g.group.is_trivial():
                problems.append(f"{where}: nontrivial group without generators")
            check_names(g.terms, where)
            if g.context.kind == "odd-part":
                p = g.context.get("p")
                dec = g.group.primary_decomposition()
                if g.group.free_rank or any(q != p for q in dec):
                    problems.append(f"{where}: entry is not a {p}-group")
            if g.context.kind in ("coker-eta", "ker-eta"):
                dec = g.group.primary_decomposition()
                if any(q != 2 for q in dec):
                    problems.append(f"{where}: entry has odd torsion")

    for w in db.whitehead:
        where = str(w.context)
        check_names(w.target_terms, where)
        n = w.context.get("n")
        src = db.lookup("bracket-id", n=n.lo) if n else None
        if src is None:
            problems.append(f"{where}: no bracket-id entry for this n")
            continue
        imap = dict(w.images)
        for name in src.generator_names():
            if name not in imap:
                problems.append(f"{where}: missing image for generator {name!r}")
        for name, vec in w.images:
            if name not in src.generator_names():
                problems.append(f"{where}: image for unknown generator {name!r}")
                continue
            if len(vec) != len(w.target_terms):
                problems.append(
                    f"{where}: image of {name!r} has {len(vec)} coordinates, "
                    f"target has {len(w.target_terms)}"
                )
                continue
            # finite-order source generators must map to elements whose order
            # divides theirs
            src_order = dict((nm, o) for o, nm in src.terms)[name]
            if src_order:
                tgt = w.target_presentation()
                row = [1 if c == "odd" else int(c) for c in vec]
                im_order = tgt.element_order(row)
                if im_order is None or src_order % im_order != 0:
                    problems.append(
                        f"{where}: image of {name!r} has order {im_order}, "
                        f"not a divisor of {src_order}"
                    )

    for e in db.evidence:
        item = e.item
        names = []
        if isinstance(item, Retraction):
            names = [b for _, b in item.sections]
        elif isinstance(item, ElementOrderLift):
            names = [item.lift_name]
        elif isinstance(item, RelationFact):
            names = [item.lift_name, item.rhs]
        elif isinstance(item, ExternalFact):
            names = [n for _, n in item.factors]
        check_names([(1, n) for n in names], str(e.context))

    for r in db.relations:
        for side in r.statement.split("="):
            check_names([(1, side.strip())], f"relation {r.rel_id}")

    # odd parts must reassemble to the odd part of the golden bracket rows
    for bracket in db.groups.get("bracket", ()):
        k = bracket.context.get("k")
        nr = bracket.context.get("n")
        n = nr.lo
        odd = FinAbGroup.trivial()
        for entry in db.groups.get("odd-part", ()):
            if entry.context.get("k") == k and n in entry.context.get("n"):
                odd = odd.direct_sum(entry.group)
        if odd != bracket.group.odd_part():
            problems.append(
                f"{bracket.context}: odd-part records sum to {odd}, "
                f"bracket has odd part {bracket.group.odd_part()}"
            )

    return problems
