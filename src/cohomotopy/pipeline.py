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
from dataclasses import dataclass

from .abelian import FinAbGroup
from .database import Database, DbError
from .extensions import (
    DEFAULT_BOUND,
    EhpInjectivity,
    ElementOrderLift,
    ExtensionError,
    ExtensionProblem,
    ExternalFact,
    RelationFact,
    Retraction,
    apply_evidence,
)


@dataclass(frozen=True)
class ComputedRow:
    k: int
    n: int
    group: FinAbGroup
    generators: tuple[tuple[int, str], ...]  # (order, name), 0 = infinite
    cites: tuple[str, ...] = ()
    evidence_used: tuple = ()

    def generator_names(self) -> tuple[str, ...]:
        return tuple(name for _, name in self.generators)


@dataclass(frozen=True)
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


def instantiate_name(name: str, n: int) -> str:
    """Substitute a concrete row index for the symbolic ``n`` in a stable-range
    generator name: ``zeta_n``, ``eps_{n+1}``, ``beta_1(n)``, ``S^{n+6} p``."""

    def shifted(m: re.Match) -> str:
        return str(n + int(m.group(1) or 0))

    name = re.sub(r"\{n(?:\+(\d+))?\}", shifted, name)
    name = re.sub(r"_n(?![A-Za-z0-9])", f"_{n}", name)
    name = re.sub(r"\(n\)", f"({n})", name)
    return name


def _instantiate_terms(terms, n: int):
    return [(order, instantiate_name(name, n)) for order, name in terms]


def _instantiate_item(item, n: int):
    """Instantiate every generator name inside an evidence item."""
    sub = lambda s: instantiate_name(s, n) if s else s  # noqa: E731
    if isinstance(item, Retraction):
        return Retraction(
            tuple((sub(a), sub(b)) for a, b in item.sections), item.cite
        )
    if isinstance(item, ElementOrderLift):
        return ElementOrderLift(
            sub(item.lift_name), item.order, sub(item.maps_to),
            sub(item.absorbs), sub(item.remainder_name), item.cite,
        )
    if isinstance(item, RelationFact):
        return RelationFact(
            sub(item.lift_name), sub(item.lift_of), item.multiplier,
            sub(item.rhs), item.rhs_mult, sub(item.remainder_name), item.cite,
        )
    if isinstance(item, ExternalFact):
        return ExternalFact(
            tuple((o, sub(nm)) for o, nm in item.factors),
            item.statement, item.cite,
        )
    if isinstance(item, EhpInjectivity):
        return EhpInjectivity(
            item.source_n,
            tuple((a, sub(b)) for a, b in item.names),
            item.cite,
        )
    return item


# ---------------------------------------------------------------------------
# EHP transport: reuse the resolution evidence of another row
# ---------------------------------------------------------------------------


def _translate_item(item, rename):
    tr = lambda s: rename.get(s, s) if s else s  # noqa: E731
    if isinstance(item, Retraction):
        return Retraction(
            tuple((tr(a), tr(b)) for a, b in item.sections), item.cite
        )
    if isinstance(item, ElementOrderLift):
        return ElementOrderLift(
            tr(item.lift_name), item.order, tr(item.maps_to),
            tr(item.absorbs), tr(item.remainder_name), item.cite,
        )
    if isinstance(item, RelationFact):
        return RelationFact(
            tr(item.lift_name), tr(item.lift_of), item.multiplier,
            tr(item.rhs), item.rhs_mult, tr(item.remainder_name), item.cite,
        )
    return item


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
    out = []
    for entry in db.evidence_for(k, src_n):
        src_item = _instantiate_item(entry.item, src_n)
        if isinstance(src_item, EhpInjectivity):
            continue
        out.append(_translate_item(src_item, rename))
    if not out:
        raise ExtensionError(
            f"k={k} n={n}: EHP source row n={src_n} carries no usable evidence"
        )
    return out


# ---------------------------------------------------------------------------
# Main entry points
# ---------------------------------------------------------------------------


def compute_group(db: Database, k: int, n: int, bound: int = DEFAULT_BOUND) -> ComputedRow:
    """Compute ``[Sigma^{n+k} CP^2, S^n]`` with named generators."""
    sub_terms, quot_terms, coker, ker = _two_primary_rows(db, k, n)
    cites = [coker.cite, ker.cite]

    items = []
    for entry in db.evidence_for(k, n):
        item = _instantiate_item(entry.item, n)
        if isinstance(item, EhpInjectivity):
            cites.append(entry.cite)
            items.extend(_expand_ehp(db, k, n, item, sub_terms, quot_terms))
        else:
            items.append(item)
    cites.extend(i.cite for i in items if getattr(i, "cite", ""))

    problem = ExtensionProblem(
        sub=tuple(sub_terms), quot=tuple(quot_terms), context=f"bracket k={k} n={n}"
    )
    resolved = apply_evidence(problem, items, bound)

    suffix = f" . S^{n + k} p"
    raw_sub = {name for _, name in sub_terms}
    generators = [
        (order, name + suffix if name in raw_sub else name)
        for order, name in resolved.generators
    ]
    group = resolved.group

    odd_entries = [
        e
        for e in db.groups.get("odd-part", ())
        if e.context.get("k") == k and n in e.context.get("n")
    ]
    for entry in sorted(odd_entries, key=lambda e: e.context.get("p")):
        generators.extend(_instantiate_terms(entry.terms, n))
        group = group.direct_sum(entry.group)
        cites.append(entry.cite)

    return ComputedRow(
        k=k, n=n, group=group, generators=tuple(generators),
        cites=tuple(dict.fromkeys(c for c in cites if c)),
        evidence_used=resolved.evidence_used,
    )


def golden_row(db: Database, k: int, n: int) -> ComputedRow:
    """The recorded (golden) bracket row, instantiated at n."""
    entry = db.lookup("bracket", k=k, n=n)
    if entry is None:
        raise DbError(f"no bracket row for k={k} n={n}")
    return ComputedRow(
        k=k, n=n, group=entry.group,
        generators=tuple(_instantiate_terms(entry.terms, n)),
        cites=(entry.cite,),
    )


def check_bracket(db: Database, k: int, n: int, bound: int = DEFAULT_BOUND) -> CheckResult:
    """Compare the computed bracket row against the golden row."""
    label = f"k={k} n={n}"
    try:
        computed = compute_group(db, k, n, bound)
        golden = golden_row(db, k, n)
    except (DbError, ExtensionError) as e:
        return CheckResult("bracket", label, "fail", str(e))
    if computed.group != golden.group:
        return CheckResult(
            "bracket", label, "fail",
            f"group {computed.group} != recorded {golden.group}",
        )
    if sorted(computed.generators) != sorted(golden.generators):
        return CheckResult(
            "bracket", label, "fail",
            f"generators {sorted(computed.generators)} != "
            f"recorded {sorted(golden.generators)}",
        )
    return CheckResult("bracket", label, "ok", str(computed.group))


# ---------------------------------------------------------------------------
# Mapping-space homotopy groups pi_n map_*(CP^2, CP^2)
# ---------------------------------------------------------------------------

MAPSPACE_RANGE = range(4, 14)


def mapping_space_pi(db: Database, n: int, bound: int = DEFAULT_BOUND) -> ComputedRow:
    """pi_n of the based self-mapping space of CP^2, 4 <= n <= 13.

    For n >= 11 the group equals the bracket row (k = n - 5, n = 5) and is
    recomputed through the extension pipeline; lower rows come from the
    recorded table.
    """
    if n not in MAPSPACE_RANGE:
        raise DbError(f"mapping-space groups are recorded for n = 4..13, not {n}")
    if n >= 11:
        row = compute_group(db, n - 5, 5, bound)
        return ComputedRow(k=row.k, n=n, group=row.group,
                           generators=row.generators, cites=row.cites,
                           evidence_used=row.evidence_used)
    entry = db.lookup("mapspace", n=n)
    if entry is None:
        raise DbError(f"no mapspace row for n={n}")
    return ComputedRow(k=0, n=n, group=entry.group,
                       generators=tuple(entry.terms), cites=(entry.cite,))


def check_mapspace(db: Database, n: int, bound: int = DEFAULT_BOUND) -> CheckResult:
    label = f"pi_{n}"
    entry = db.lookup("mapspace", n=n)
    if entry is None:
        return CheckResult("mapspace", label, "fail", f"no mapspace row for n={n}")
    try:
        row = mapping_space_pi(db, n, bound)
    except (DbError, ExtensionError) as e:
        return CheckResult("mapspace", label, "fail", str(e))
    if row.group != entry.group:
        return CheckResult(
            "mapspace", label, "fail",
            f"group {row.group} != recorded {entry.group}",
        )
    if n >= 11 and sorted(row.generators) != sorted(entry.terms):
        return CheckResult(
            "mapspace", label, "fail",
            f"generators {sorted(row.generators)} != recorded {sorted(entry.terms)}",
        )
    return CheckResult("mapspace", label, "ok", str(row.group))


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


def table_rows(db: Database, k: int, bound: int = DEFAULT_BOUND):
    """(label, ComputedRow) pairs for every recorded row of a k-table,
    computed at the first n of each range."""
    entries = sorted(
        (e for e in db.groups.get("bracket", ()) if e.context.get("k") == k),
        key=lambda e: e.context.get("n").lo,
    )
    if not entries:
        raise DbError(f"no bracket rows for k={k}")
    out = []
    for e in entries:
        nr = e.context.get("n")
        label = f"n={nr.lo}" if nr.is_single() else f"n>={nr.lo}"
        out.append((label, compute_group(db, k, nr.lo, bound)))
    return out


def render_table(db: Database, k: int, fmt: str = "ascii", bound: int = DEFAULT_BOUND) -> str:
    rows = table_rows(db, k, bound)
    if fmt == "csv":
        lines = ["k,n,paper,canonical"]
        for label, row in rows:
            n = label.split("=")[1].lstrip(">")
            prefix = ">=" if ">=" in label else ""
            lines.append(
                f"{k},{prefix}{n},{paper_notation(row.group)},{row.group}"
            )
        return "\n".join(lines)
    if fmt != "ascii":
        raise ValueError(f"unknown table format {fmt!r}")
    header = (f"[Sigma^(n+{k}) CP^2, S^n]", "order notation", "canonical form")
    cells = [(label, paper_notation(r.group), str(r.group)) for label, r in rows]
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


def verify_all(db: Database, bound: int = DEFAULT_BOUND) -> list[CheckResult]:
    """Recompute every recorded golden value and compare.

    Covers all bracket rows of every k-table (open ranges checked at two
    representative n), all mapping-space rows, and the Gottlieb and
    path-component classifications.
    """
    from .gottlieb import check_components, check_gottlieb

    results = []
    ks = sorted({e.context.get("k") for e in db.groups.get("bracket", ())})
    for k in ks:
        for e in sorted(
            (e for e in db.groups.get("bracket", ()) if e.context.get("k") == k),
            key=lambda e: e.context.get("n").lo,
        ):
            nr = e.context.get("n")
            ns = [nr.lo] if nr.is_single() else [nr.lo, nr.lo + 3]
            for n in ns:
                if nr.hi is not None and n > nr.hi:
                    continue
                results.append(check_bracket(db, k, n, bound))
    for n in MAPSPACE_RANGE:
        results.append(check_mapspace(db, n, bound))
    for e in sorted(db.groups.get("gottlieb", ()), key=lambda e: e.context.get("n").lo):
        results.append(check_gottlieb(db, e.context.get("n").lo))
    for c in sorted(db.components, key=lambda c: c.context.n_range().lo):
        results.append(check_components(db, c.context.n_range().lo))
    return results
