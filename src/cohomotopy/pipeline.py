"""Assembly of the bracket groups ``[Sigma^{n+k} CP^2, S^n]``.

For each (k, n) the 2-primary part sits in a short exact sequence

    0 -> coker-eta(k, n) -> bracket(k, n)_{(2)} -> ker-eta(k, n) -> 0

whose middle group is resolved from the recorded extension evidence; the
odd-primary records are then added as direct summands.  Generator names from
the sub side acquire the top-cell projection suffix ``. S^{n+k} p``; names
introduced by evidence (lifts, sections, remainders) are used verbatim.
"""

from __future__ import annotations

import re
from functools import wraps

from .abelian import FinAbGroup
from .database import Database, DbError, memoised
from .extensions import (
    ComputedRow,
    EhpInjectivity,
    ExtensionError,
    ExtensionProblem,
    apply_evidence,
    map_names,
)
from .gottlieb import classify_components, gottlieb_group, whitehead_hom
from .record import field, record


@record
class CheckResult:
    family: str  # "bracket" | "mapspace" | "gottlieb" | "components"
    label: str
    # "ok" | "documented-discrepancy" | "fail": a derived value differs from
    # the recorded one | "error": a DbError or ExtensionError, a db-check problem
    status: str
    detail: str = ""
    # what the check derived and the record it compared that with: a
    # ComputedRow each (bracket, mapspace), the kernel and the gottlieb record,
    # the count and the components record; None for an error
    computed: object = field(default=None, repr=False, compare=False)
    recorded: object = field(default=None, repr=False, compare=False)

    def passed(self) -> bool:
        return self.status in ("ok", "documented-discrepancy")


# ---------------------------------------------------------------------------
# Symbolic-row instantiation
# ---------------------------------------------------------------------------


# the symbolic-n forms of a generator name: ``{n}`` or ``{n+j}``, a subscript
# ``_n`` and an argument ``(n)``
_SHIFTED_N = re.compile(r"\{n(?:\+(\d+))?\}")
_SUBSCRIPT_N = re.compile(r"_n(?![A-Za-z0-9])")
_ARGUMENT_N = re.compile(r"\(n\)")


def instantiate_name(name: str, n: int) -> str:
    """Substitute a concrete row index for the symbolic ``n`` in a stable-range
    generator name: ``zeta_n``, ``eps_{n+1}``, ``beta_1(n)``, ``S^{n+6} p``."""

    def shifted(m: re.Match) -> str:
        return str(n + int(m.group(1) or 0))

    name = _SHIFTED_N.sub(shifted, name)
    name = _SUBSCRIPT_N.sub(f"_{n}", name)
    name = _ARGUMENT_N.sub(f"({n})", name)
    return name


def _instantiate_terms(terms, n: int):
    return [(order, instantiate_name(name, n)) for order, name in terms]


# ---------------------------------------------------------------------------
# EHP transport: reuse the resolution evidence of another row
# ---------------------------------------------------------------------------


def _two_primary_rows(db: Database, k: int, n: int):
    coker = db.lookup("coker-eta", k=k, n=n)
    ker = db.lookup("ker-eta", k=k, n=n)
    if coker is None or ker is None:
        raise DbError(f"no coker-eta/ker-eta rows for k={k} n={n}")
    return _instantiate_terms(coker.terms, n), _instantiate_terms(ker.terms, n), coker, ker


def _expand_ehp(db: Database, k: int, n: int, item: EhpInjectivity, sub_terms, quot_terms):
    """Replace an EHP transport item by the source row's concrete evidence,
    with generator names translated positionally onto this row."""
    src_n = item.source_n
    src_sub, src_quot, _, _ = _two_primary_rows(db, k, src_n)
    if [o for o, _ in src_sub] != [o for o, _ in sub_terms] or [
        o for o, _ in src_quot
    ] != [o for o, _ in quot_terms]:
        raise ExtensionError(
            f"k={k} n={n}: EHP source row n={src_n} has a different shape"
        )
    rename = dict(item.names)
    for (_, a), (_, b) in zip(src_sub, sub_terms):
        rename.setdefault(a, b)
    for (_, a), (_, b) in zip(src_quot, quot_terms):
        rename.setdefault(a, b)

    def to_local(name: str) -> str:
        name = instantiate_name(name, src_n)
        return rename.get(name, name)

    out = [
        map_names(entry.item, to_local)
        for entry in db.evidence_for(k, src_n)
        if entry.item.KIND != EhpInjectivity.KIND
    ]
    if not out:
        raise ExtensionError(
            f"k={k} n={n}: EHP source row n={src_n} carries no usable evidence"
        )
    return out


# ---------------------------------------------------------------------------
# Main entry points
# ---------------------------------------------------------------------------


def compute_group(db: Database, k: int, n: int) -> ComputedRow:
    """Compute ``[Sigma^{n+k} CP^2, S^n]`` with named generators."""
    sub_terms, quot_terms, coker, ker = _two_primary_rows(db, k, n)
    cites = [coker.cite, ker.cite]

    items = []
    for entry in db.evidence_for(k, n):
        item = map_names(entry.item, lambda name: instantiate_name(name, n))
        if item.KIND == EhpInjectivity.KIND:
            cites.append(item.cite)
            items.extend(_expand_ehp(db, k, n, item, sub_terms, quot_terms))
        else:
            items.append(item)
    cites.extend(i.cite for i in items if i.cite)

    problem = ExtensionProblem(tuple(sub_terms), tuple(quot_terms), f"bracket k={k} n={n}")
    resolved = apply_evidence(problem, items)

    suffix = f" . S^{n + k} p"
    raw_sub = {name for _, name in sub_terms}
    generators = [
        (order, name + suffix if name in raw_sub else name)
        for order, name in resolved.generators
    ]
    group = resolved.group

    for entry in db.find("odd-part", k=k, n=n):
        generators.extend(_instantiate_terms(entry.terms, n))
        group = group.direct_sum(entry.group)
        cites.append(entry.cite)

    return ComputedRow(
        group, tuple(generators), tuple(dict.fromkeys(c for c in cites if c)),
        resolved.evidence_used,
    )


def _recorded_row(db: Database, kind: str, at: int | None, **params) -> ComputedRow:
    """The ``kind`` record at ``params`` as a row, its names instantiated at
    ``at`` (kept as written when ``at`` is None)."""
    entry = db.lookup(kind, **params)
    if entry is None:
        raise DbError(f"no {kind} row for " + " ".join(f"{p}={v}" for p, v in params.items()))
    terms = entry.terms if at is None else _instantiate_terms(entry.terms, at)
    return ComputedRow(entry.group, tuple(terms), cites=(entry.cite,))


def golden_row(db: Database, k: int, n: int) -> ComputedRow:
    """The recorded (golden) bracket row, instantiated at n."""
    return _recorded_row(db, "bracket", n, k=k, n=n)


def _check(family: str, label: str):
    """A check of ``family``, remembered on its database (``memoised``), from
    a function of (db, *args) that returns its (status, detail, computed,
    recorded): labelled by ``label`` formatted with the args, and given
    status "error" with the error's text, and neither value, when the
    function raises a ``DbError`` or ``ExtensionError``."""

    def wrap(compare):
        @wraps(compare)
        def check(db: Database, *args) -> CheckResult:
            try:
                values = compare(db, *args)
            except (DbError, ExtensionError) as e:
                values = "error", str(e), None, None
            return CheckResult(family, label.format(*args), *values)

        return memoised(check)

    return wrap


def _compare_rows(computed: ComputedRow, recorded: ComputedRow):
    """Compare the group, then the sorted generators."""
    if computed.group != recorded.group:
        return "fail", f"group {computed.group} != recorded {recorded.group}", computed, recorded
    got, want = sorted(computed.generators), sorted(recorded.generators)
    if got != want:
        return "fail", f"generators {got} != recorded {want}", computed, recorded
    return "ok", str(computed.group), computed, recorded


@_check("bracket", "k={} n={}")
def check_bracket(db: Database, k: int, n: int):
    """Compare the computed bracket row against the golden row.  First the
    odd parts: the computed one is the sum of the odd-part records at
    (k, n), as the coker-eta and ker-eta groups have no odd torsion
    (``validate_db`` checks that), and one that is not the recorded row's
    is a ``DbError``."""
    computed, recorded = compute_group(db, k, n), golden_row(db, k, n)
    odd, want = computed.group.odd_part(), recorded.group.odd_part()
    if odd != want:
        raise DbError(
            f"{db.lookup('bracket', k=k, n=n).context}: odd-part records sum to {odd}, "
            f"bracket has odd part {want}"
        )
    return _compare_rows(computed, recorded)


# ---------------------------------------------------------------------------
# Mapping-space homotopy groups pi_n map_*(CP^2, CP^2)
# ---------------------------------------------------------------------------

MAPSPACE_RANGE = range(4, 14)


def mapping_space_pi(db: Database, n: int) -> ComputedRow:
    """pi_n of the based self-mapping space of CP^2, 4 <= n <= 13.

    For n >= 11 the group equals the bracket row (k = n - 5, n = 5) and is
    recomputed through the extension pipeline; lower rows come from the
    recorded table.
    """
    if n not in MAPSPACE_RANGE:
        raise DbError(f"mapping-space groups are recorded for n = 4..13, not {n}")
    if n >= 11:
        return compute_group(db, n - 5, 5)
    return _recorded_row(db, "mapspace", None, n=n)


@_check("mapspace", "pi_{}")
def check_mapspace(db: Database, n: int):
    # The record's names are compared as written, not instantiated at n: pi_n
    # is the bracket cell (k = n - 5, n = 5), and for n < 11 both sides are
    # this same record until pi_4..pi_10 are derived too (ROADMAP.md).
    return _compare_rows(mapping_space_pi(db, n), _recorded_row(db, "mapspace", None, n=n))


# ---------------------------------------------------------------------------
# Gottlieb groups and path components
# ---------------------------------------------------------------------------


@memoised
def pairing_ns(db: Database) -> tuple[int, ...]:
    """The n that a whitehead, gottlieb or components record names, sorted:
    where ``verify``, ``gottlieb`` and ``components`` read the pairing."""
    kinds = ("whitehead", "gottlieb", "components")
    return tuple(sorted({e.context.n_range.lo for kind in kinds for e in db.find(kind)}))


@_check("gottlieb", "G_{}")
def check_gottlieb(db: Database, n: int):
    h = whitehead_hom(db, n)  # the pairing's error comes before a missing row
    entry = db.lookup("gottlieb", n=n)
    if entry is None:
        raise DbError(f"no gottlieb row for n={n}")
    computed = gottlieb_group(h)
    if computed != entry.group:
        return "fail", f"kernel {computed} != recorded {entry.group}", computed, entry
    return "ok", str(computed), computed, entry


@_check("components", "components n={}")
def check_components(db: Database, n: int):
    """The count of ``classify_components`` against the components record.
    A record that documents a discrepancy records the count in ``computed``
    too: the status is ``documented-discrepancy`` when the count is that
    value and not ``expected``, and ``fail`` otherwise."""
    count = classify_components(db, n)  # the pairing's error comes before a missing row
    entry = db.lookup("components", n=n)
    if entry is None:
        raise DbError(f"no components row for n={n}")
    if entry.computed is None and count == entry.expected:
        status = "ok"
    elif count == entry.computed != entry.expected:
        status = "documented-discrepancy"
    else:
        status = "fail"
    detail = f"computed {count}, recorded {entry.expected}"
    if entry.note:
        detail += f" ({entry.note})"
    return status, detail, count, entry


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def paper_notation(g: FinAbGroup) -> str:
    """Compact order notation: ``8+2+63`` for Z/8 + Z/2 + Z/9 + Z/7.

    The 2-primary cyclic orders are listed descending (repeats as ``4^2``);
    the odd part is merged into a single number when every odd prime
    contributes one cyclic factor, and listed per prime otherwise.  Free
    factors render as ``inf``.
    """
    if g.is_trivial():
        return "0"
    dec = g.primary_decomposition()
    nums = list(dec.get(2, ()))
    odd = {p: v for p, v in dec.items() if p != 2}
    if odd and all(len(v) == 1 for v in odd.values()):
        prod = 1
        for v in odd.values():
            prod *= v[0]
        nums.append(prod)
    else:
        for p in sorted(odd):
            nums.extend(odd[p])
    parts = ["inf"] * g.free_rank
    i = 0
    while i < len(nums):
        j = i
        while j < len(nums) and nums[j] == nums[i]:
            j += 1
        parts.append(f"{nums[i]}^{j - i}" if j - i > 1 else str(nums[i]))
        i = j
    return "+".join(parts)


def table_rows(db: Database, k: int):
    """(n range, ComputedRow) pairs for every recorded row of a k-table,
    computed at the first n of each range."""
    entries = db.find("bracket", k=k)
    if not entries:
        raise DbError(f"no bracket rows for k={k}")
    return [(e.context.n_range, compute_group(db, k, e.context.n_range.lo)) for e in entries]


def render_table(db: Database, k: int, fmt: str = "ascii") -> str:
    rows = table_rows(db, k)
    if fmt == "csv":
        lines = ["k,n,paper,canonical"]
        for nr, row in rows:
            n = f">={nr.lo}" if nr.hi is None else str(nr)
            lines.append(f"{k},{n},{paper_notation(row.group)},{row.group}")
        return "\n".join(lines)
    if fmt != "ascii":
        raise ValueError(f"unknown table format {fmt!r}")
    header = (f"[Sigma^(n+{k}) CP^2, S^n]", "order notation", "canonical form")
    cells = [
        (f"n>={nr.lo}" if nr.hi is None else f"n={nr}", paper_notation(r.group), str(r.group))
        for nr, r in rows
    ]
    widths = [max(len(row[i]) for row in [header] + cells) for i in range(3)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Full verification sweep
# ---------------------------------------------------------------------------


@memoised
def planned_ns(db: Database, k: int) -> tuple[int, ...]:
    """The n at which ``verify_all`` checks the bracket cells of k, sorted:
    each bracket range's first n, and three above it when the range holds
    that n, and both ends of each evidence range."""
    ns = set()
    for entry in db.find("bracket", k=k):
        nr = entry.context.n_range
        ns.add(nr.lo)
        if nr.lo + 3 in nr:
            ns.add(nr.lo + 3)
    for entry in db.find("extension", k=k):
        nr = entry.context.n_range
        ns.add(nr.lo)
        if nr.hi is not None:
            ns.add(nr.hi)
    return tuple(sorted(ns))


def verify_all(db: Database) -> list[CheckResult]:
    """Recompute every recorded golden value and compare: the one list of
    what the product promises, so ``validate_db`` reports each check here
    that ends in an error (status "error").

    Covers the bracket cells of every k-table, in order of k and then n,
    at the n of ``planned_ns``: each row range at its first n and three
    above it (when the range holds that n), and every n at which an
    evidence range starts or ends.  Then all mapping-space rows, and the
    Gottlieb and path-component classifications at each n of
    ``pairing_ns``; both checks at an n read its one Whitehead pairing
    (``whitehead_hom``).

    Each check is remembered on ``db`` with the queries it made and the
    records they returned (``memoised``), and so are ``planned_ns`` and
    ``pairing_ns``.  So a second pass reuses every result, and so does a
    load of an edit for each check whose queries return the identical
    records as on its base, as they do when the check did not find the
    edited record.  Only the list of k is read from the families directly,
    past the read trace: ``verify_all`` is not memoised, so no remembered
    result depends on it.
    """
    results = []
    # one family per k: the only other parameter of these contexts is k
    ks = {k for kind in ("bracket", "extension") for ((_, k),) in db.families.get(kind, ())}
    for k in sorted(ks):
        for n in planned_ns(db, k):
            results.append(check_bracket(db, k, n))
    for n in MAPSPACE_RANGE:
        results.append(check_mapspace(db, n))
    ns = pairing_ns(db)
    for check in (check_gottlieb, check_components):
        for n in ns:
            results.append(check(db, n))
    return results
