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

from .abelian import FinAbGroup, GroupHom
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
from .record import record


@record(frozen=True)
class CheckResult:
    family: str  # "bracket" | "mapspace" | "gottlieb" | "components"
    label: str
    status: str  # "ok" | "documented-discrepancy" | "fail"
    detail: str = ""

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

    problem = ExtensionProblem(
        sub=tuple(sub_terms), quot=tuple(quot_terms), context=f"bracket k={k} n={n}"
    )
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


def _check_row(family: str, label: str, rows) -> CheckResult:
    """Compare the (computed, recorded) rows that ``rows()`` returns: the
    group, then the sorted generators."""
    try:
        computed, recorded = rows()
    except (DbError, ExtensionError) as e:
        return CheckResult(family, label, "fail", str(e))
    if computed.group != recorded.group:
        return CheckResult(
            family, label, "fail",
            f"group {computed.group} != recorded {recorded.group}",
        )
    if sorted(computed.generators) != sorted(recorded.generators):
        return CheckResult(
            family, label, "fail",
            f"generators {sorted(computed.generators)} != "
            f"recorded {sorted(recorded.generators)}",
        )
    return CheckResult(family, label, "ok", str(computed.group))


@memoised
def check_bracket(db: Database, k: int, n: int) -> CheckResult:
    """Compare the computed bracket row against the golden row."""
    return _check_row("bracket", f"k={k} n={n}", lambda: (
        compute_group(db, k, n), golden_row(db, k, n)))


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


@memoised
def check_mapspace(db: Database, n: int) -> CheckResult:
    # The record's names are compared as written, not instantiated at n: pi_n
    # is the bracket cell (k = n - 5, n = 5), and for n < 11 both sides are
    # this same record until pi_4..pi_10 are derived too (ROADMAP.md).
    return _check_row("mapspace", f"pi_{n}", lambda: (
        mapping_space_pi(db, n), _recorded_row(db, "mapspace", None, n=n)))


# ---------------------------------------------------------------------------
# Gottlieb groups and path components
# ---------------------------------------------------------------------------


# Each check takes the Whitehead pairing at n, ``whitehead_hom(db, n)``, or
# the ``DbError`` that building it raised (``_pairing``).


@memoised
def _pairing(db: Database, n: int) -> GroupHom | DbError:
    try:
        return whitehead_hom(db, n)
    except DbError as err:
        return err.with_traceback(None)  # a kept traceback would keep db alive


@memoised
def _paired_check(db: Database, check, n: int) -> CheckResult:
    """``check`` (``check_gottlieb`` or ``check_components``) at n, on the
    pairing that both read."""
    return check(db, n, _pairing(db, n))


def check_gottlieb(db: Database, n: int, h: GroupHom | DbError) -> CheckResult:
    label = f"G_{n}"
    entry = db.lookup("gottlieb", n=n)
    if entry is None:
        return CheckResult("gottlieb", label, "fail", f"no gottlieb row for n={n}")
    if isinstance(h, DbError):
        return CheckResult("gottlieb", label, "fail", str(h))
    computed = gottlieb_group(h)
    if computed != entry.group:
        return CheckResult(
            "gottlieb", label, "fail",
            f"kernel {computed} != recorded {entry.group}",
        )
    return CheckResult("gottlieb", label, "ok", str(computed))


def check_components(db: Database, n: int, h: GroupHom | DbError) -> CheckResult:
    label = f"components n={n}"
    if isinstance(h, DbError):
        return CheckResult("components", label, "fail", str(h))
    try:
        r = classify_components(db, n, h)
    except DbError as e:
        return CheckResult("components", label, "fail", str(e))
    detail = f"computed {r.computed}, recorded {r.expected}"
    if r.note:
        detail += f" ({r.note})"
    return CheckResult("components", label, r.status, detail)


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


def verify_all(db: Database) -> list[CheckResult]:
    """Recompute every recorded golden value and compare.

    Covers the bracket cells of every k-table, in order of n: each row
    range at its first n and three above it (when the range holds that n),
    and every n at which an evidence range starts or ends.  Then all
    mapping-space rows, and the Gottlieb and path-component
    classifications; both of these read one Whitehead pairing per n.

    Each check is remembered with the families it read (``memoised``), so
    a database that shares them with one checked before, as a reload after
    an edit of another family does, reuses its result.
    """
    results = []
    for k in sorted({e.context.get("k") for kind in ("bracket", "extension") for e in db.find(kind)}):
        ns = set()
        for e in db.find("bracket", k=k):
            nr = e.context.n_range
            ns.update(n for n in (nr.lo, nr.lo + 3) if n in nr)
        for e in db.find("extension", k=k):
            ns.update({e.context.n_range.lo, e.context.n_range.hi} - {None})
        results.extend(check_bracket(db, k, n) for n in sorted(ns))
    for n in MAPSPACE_RANGE:
        results.append(check_mapspace(db, n))
    for kind, check in (("gottlieb", check_gottlieb), ("components", check_components)):
        for e in db.find(kind):
            results.append(_paired_check(db, check, e.context.n_range.lo))
    return results
