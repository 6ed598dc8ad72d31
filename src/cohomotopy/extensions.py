"""Extension problems 0 -> A -> G -> C -> 0 of finitely generated abelian
groups: Ext^1 computation, enumeration of the possible middle groups, and
evidence-driven resolution to a single middle group.

Enumeration contract: candidates have free rank rk(A) + rk(C) and torsion
order |A_t| * |C_t|.  Under that contract the candidates are exactly
Z^{rk A + rk C} (+) T where T is a torsion middle of (A_t, C_t), and the
torsion problem decomposes prime by prime.  At a prime p, a p-group of type
lambda admits a subgroup of type mu with quotient of type nu if and only if
the Littlewood-Richardson coefficient c^lambda_{mu,nu} is positive (Hall);
positivity is decided by an exhaustive skew-tableau search.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from functools import cache, lru_cache, reduce
from math import gcd

from .abelian import MEMO_SIZE, FinAbGroup
from .record import MISSING, field, fields, record, replace, set_field


class ExtensionError(Exception):
    pass


class EnumerationBoundError(ExtensionError):
    """Torsion order of the problem exceeds the enumeration bound."""


class UnresolvedExtensionError(ExtensionError):
    """Evidence does not pin down a unique middle group."""

    def __init__(self, context: str, candidates, detail: str):
        self.context = context
        self.candidates = tuple(candidates)
        super().__init__(
            f"unresolved extension ({context}): {detail}; candidates: "
            + ", ".join(str(c) for c in self.candidates)
        )


DEFAULT_BOUND = 2**20


# ---------------------------------------------------------------------------
# Ext^1
# ---------------------------------------------------------------------------


def ext_group(c: FinAbGroup, a: FinAbGroup) -> FinAbGroup:
    """Ext^1(C, A) for finitely generated abelian C, A.

    Additive in both arguments; Ext(Z, -) = 0, Ext(Z/n, Z) = Z/n,
    Ext(Z/n, Z/m) = Z/gcd(n, m).
    """
    orders = []
    for n in c.torsion:
        orders.extend([n] * a.free_rank)
        orders.extend(gcd(n, m) for m in a.torsion)
    return FinAbGroup.from_factors(orders)


# ---------------------------------------------------------------------------
# Partitions and Littlewood-Richardson positivity
# ---------------------------------------------------------------------------


@lru_cache(maxsize=MEMO_SIZE)
def partitions(n: int, max_part: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of n (descending tuples), lexicographically descending,
    with no part above ``max_part``.  Memoised; the tuple is shared."""
    if max_part is None:
        max_part = n
    if n == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for first in range(min(n, max_part), 0, -1)
        for rest in partitions(n - first, first)
    )


# Sized above the 33,450 keys that one sweep over all pairs of groups of
# order <= 64 leaves in the cache.
LR_MEMO_SIZE = 2**16


@lru_cache(maxsize=LR_MEMO_SIZE)
def lr_positive(lam: tuple, mu: tuple, nu: tuple) -> bool:
    """Whether c^lam_{mu, nu} > 0, by exhaustive skew LR-tableau search."""
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    if sum(lam) != sum(mu) + sum(nu):
        return False
    mu_p = mu + (0,) * (len(lam) - len(mu))
    if len(mu) > len(lam) or any(m > l for m, l in zip(mu, lam)):
        return False
    if not nu:
        return lam == mu
    # cells of lam/mu in reading order: rows top to bottom, right to left
    cells = []
    for i, l in enumerate(lam):
        for j in range(l - 1, mu_p[i] - 1, -1):
            cells.append((i, j))
    grid: dict[tuple[int, int], int] = {}
    counts = [0] * (len(nu) + 1)

    def fill(idx: int) -> bool:
        if idx == len(cells):
            return True
        i, j = cells[idx]
        right = grid.get((i, j + 1))
        above = grid.get((i - 1, j))
        for v in range(1, len(nu) + 1):
            if counts[v] >= nu[v - 1]:
                continue
            if right is not None and v > right:
                continue
            if above is not None and v <= above:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue  # lattice word condition
            grid[(i, j)] = v
            counts[v] += 1
            if fill(idx + 1):
                del grid[(i, j)]
                counts[v] -= 1
                return True
            del grid[(i, j)]
            counts[v] -= 1
        return False

    return fill(0)


# ---------------------------------------------------------------------------
# Candidate enumeration
# ---------------------------------------------------------------------------


@record(frozen=True)
class ExtensionCandidateSet:
    candidates: tuple[FinAbGroup, ...]

    # built by every enumeration, so written out like abelian's value classes
    def __init__(self, candidates: tuple[FinAbGroup, ...]):
        set_field(self, "candidates", candidates)

    def __contains__(self, g: FinAbGroup) -> bool:
        return g in self.candidates


def _torsion_order(g: FinAbGroup) -> int:
    return reduce(lambda a, b: a * b, g.torsion, 1)


def enumerate_middle_groups(a: FinAbGroup, c: FinAbGroup) -> ExtensionCandidateSet:
    """All middle groups of 0 -> A -> G -> C -> 0 under the rank/order
    contract (free rank adds, torsion order multiplies); raises
    :class:`EnumerationBoundError` above a torsion order of ``DEFAULT_BOUND``."""
    t = _torsion_order(a) * _torsion_order(c)
    if t > DEFAULT_BOUND:
        raise EnumerationBoundError(
            f"torsion order {t} exceeds enumeration bound {DEFAULT_BOUND}"
        )
    free = a.free_rank + c.free_rank
    primes = sorted(
        set(a.primary_decomposition()) | set(c.primary_decomposition())
    )
    per_prime: list[list[list[int]]] = []  # for each prime, list of factor-lists
    for p in primes:
        mu = a.exponents_at(p)
        nu = c.exponents_at(p)
        total = sum(mu) + sum(nu)
        shapes = [
            lam for lam in partitions(total) if lr_positive(lam, mu, nu)
        ]
        per_prime.append([[p**e for e in lam] for lam in shapes])

    results: set[FinAbGroup] = set()

    def combine(i: int, acc: list[int]):
        if i == len(per_prime):
            results.add(FinAbGroup.from_factors([0] * free + acc))
            return
        for factors in per_prime[i]:
            combine(i + 1, acc + factors)

    combine(0, [])
    ordered = tuple(
        sorted(results, key=lambda g: (g.free_rank, len(g.torsion), g.torsion))
    )
    return ExtensionCandidateSet(ordered)


# ---------------------------------------------------------------------------
# Record value types
# ---------------------------------------------------------------------------


class ValueType:
    """A value type of ``.cohdb`` record fields: how a value is read from its
    record text and written back, the generator names it holds (those
    ``validate_db`` checks) and the value with a map applied to those names.
    Value types compare by identity."""

    __slots__ = ("parse", "write", "names", "rename")

    def __init__(
        self,
        parse: Callable[[str], object],
        write: Callable[[object], str] = str,
        names: Callable[[object], Iterable[str]] = lambda value: (),
        rename: Callable[[object, Callable[[str], str]], object] = lambda value, f: value,
    ):
        self.parse = parse
        self.write = write
        self.names = names
        self.rename = rename


def split_items(text: str, sep: str, what: str, lacks: str, last=False, skip_blank=False):
    """(item, head, tail) for each ``;``-separated item of ``text``, stripped
    and split at its first ``sep`` (its last with ``last``); an item without
    ``sep`` is a ``ValueError`` naming the ``what`` item and what it
    ``lacks``.  Blank items are skipped with ``skip_blank``."""
    out = []
    for item in text.split(";") if text.strip() else ():
        item = item.strip()
        if not item and skip_blank:
            continue
        if sep not in item:
            raise ValueError(f"{what} item {item!r} lacks '{lacks}'")
        head, tail = item.rsplit(sep, 1) if last else item.split(sep, 1)
        out.append((item, head.strip(), tail.strip()))
    return out


def _order(text: str, what: str, item: str) -> int:
    """An order, written ``inf`` (kept as 0) or as a positive integer;
    messages name the ``what`` ``item`` that holds it."""
    if text == "inf":
        return 0
    value = int(text)
    if value < 0:
        raise ValueError(f"negative order in {what} {item!r}")
    if value == 0:
        raise ValueError(f"order 0 in {what} {item!r}: an infinite order is written inf")
    return value


def _parse_pairs(text: str):
    return tuple((a, b) for _, a, b in split_items(text, "->", "pair", "->", skip_blank=True))


def _parse_terms(text: str):
    return tuple(
        (_order(order, "generator item", item), name)
        for item, name, order in split_items(text, ":", "generator", ": order", last=True)
    )


# The value types of the evidence fields; ``database`` adds those only its
# records use.
TEXT = ValueType(str)  # free text
NAME = ValueType(str, names=lambda v: (v,), rename=lambda v, f: f(v))  # a generator name
OPT_NAME = ValueType(  # a generator name or None, written empty
    lambda text: text or None,
    lambda v: v or "",
    names=lambda v: (v,) if v else (),
    rename=lambda v, f: v and f(v),
)
INT = ValueType(int)
ORDER = ValueType(  # ``inf`` (0) or a positive integer
    lambda text: _order(text, "order value", text),
    lambda v: "inf" if v == 0 else str(v),
)
PAIRS = ValueType(  # ``name -> name ; ...``
    _parse_pairs,
    lambda v: " ; ".join(f"{a} -> {b}" for a, b in v),
    names=lambda v: [name for pair in v for name in pair],
    rename=lambda v, f: tuple((f(a), f(b)) for a, b in v),
)
# ``source-row name -> local name ; ...``: the source side names generators of
# another row, so only the local side is renamed
RENAMES = ValueType(
    PAIRS.parse, PAIRS.write, PAIRS.names, rename=lambda v, f: tuple((a, f(b)) for a, b in v)
)
TERMS = ValueType(  # ``name : order ; ...`` as (order, name) pairs
    _parse_terms,
    lambda v: " ; ".join(f"{name} : {ORDER.write(order)}" for order, name in v),
    names=lambda v: [name for _, name in v],
    rename=lambda v, f: tuple((order, f(name)) for order, name in v),
)


# ---------------------------------------------------------------------------
# Evidence-driven resolution
# ---------------------------------------------------------------------------


# Each evidence class is the schema of its ``[evidence]`` record: ``KIND`` is
# the record's ``kind`` value and every field carries its record key and value
# type, from which ``database`` parses, dumps and validates the record and
# ``map_names`` rewrites it (the other record types follow the same
# convention in ``database``).


def record_field(key: str, vtype: ValueType, terms: str | None = None, **default):
    """A field read from and written to record key ``key`` as a ``vtype``
    value; a group-valued field names the field of its ``terms``, from which
    it is written."""
    return field(metadata={"key": key, "type": vtype, "terms": terms}, **default)


@cache
def schema(cls) -> tuple[tuple[str, str, ValueType, bool, str | None], ...]:
    """(attribute, record key, value type, required, terms attribute) for each
    field of a record class, read once per class."""
    return tuple(
        (f.name, f.metadata["key"], f.metadata["type"],
         f.default is MISSING and f.default_factory is MISSING, f.metadata["terms"])
        for f in fields(cls)
    )


@record(frozen=True)
class Retraction:
    """The quotient map admits a section, so the sequence splits.

    ``sections`` maps quotient generator names to the names of their chosen
    lifts in the middle group.
    """

    KIND = "retraction"

    sections: tuple[tuple[str, str], ...] = record_field("sections", PAIRS, default=())
    cite: str = record_field("cite", TEXT, default="")


@record(frozen=True)
class ElementOrderLift:
    """A named lift of a quotient generator with known order.

    ``order`` is 0 for an infinite-order lift.  If the order exceeds the
    order of the quotient generator, ``absorbs`` names the sub-side factor
    the lift cyclically extends.
    """

    KIND = "element-order-lift"

    lift_name: str = record_field("lift", NAME)
    order: int = record_field("order", ORDER)
    maps_to: str = record_field("maps-to", NAME)
    absorbs: str | None = record_field("absorbs", OPT_NAME, default=None)
    remainder_name: str | None = record_field("remainder-name", OPT_NAME, default=None)
    cite: str = record_field("cite", TEXT, default="")


@record(frozen=True)
class RelationFact:
    """A composition relation m * lift = s * rhs determining a lift's order.

    ``lift_name`` lifts the quotient generator ``lift_of`` (m must equal that
    generator's order); ``rhs`` names a sub-side generator, ``rhs_mult`` its
    coefficient (odd unknowns normalized to their odd part).
    """

    KIND = "relation-fact"

    lift_name: str = record_field("lift", NAME)
    lift_of: str = record_field("lift-of", NAME)
    multiplier: int = record_field("multiplier", INT)
    rhs: str = record_field("rhs", NAME)
    rhs_mult: int = record_field("rhs-mult", INT, default=1)
    remainder_name: str | None = record_field("remainder-name", OPT_NAME, default=None)
    cite: str = record_field("cite", TEXT, default="")


@record(frozen=True)
class ExternalFact:
    """An external theorem pinning the middle group outright."""

    KIND = "external-fact"

    factors: tuple[tuple[int, str], ...] = record_field("factors", TERMS)
    statement: str = record_field("statement", TEXT, default="")
    cite: str = record_field("cite", TEXT, default="")


@record(frozen=True)
class EhpInjectivity:
    """Resolve by transporting the resolution of another row (n_source, k);
    translated into that row's concrete evidence before reaching the solver.
    ``names`` maps source-row lift names to their local counterparts."""

    KIND = "ehp-injectivity"

    source_n: int = record_field("source-n", INT)
    names: tuple[tuple[str, str], ...] = record_field("names", RENAMES, default=())
    cite: str = record_field("cite", TEXT, default="")


EVIDENCE_KINDS = {
    cls.KIND: cls
    for cls in (Retraction, ElementOrderLift, RelationFact, ExternalFact, EhpInjectivity)
}


def map_names(item, f):
    """``item`` with ``f`` applied to every generator name it holds, as its
    fields' value types rename them."""
    return replace(item, **{
        attr: vtype.rename(getattr(item, attr), f) for attr, _, vtype, _, _ in schema(type(item))
    })


@record(frozen=True)
class ExtensionProblem:
    """A concrete extension problem with named generators.

    ``sub`` and ``quot`` list (order, generator-name) pairs, order 0 meaning
    an infinite cyclic factor.
    """

    sub: tuple[tuple[int, str], ...]
    quot: tuple[tuple[int, str], ...]
    context: str = ""

    def sub_group(self) -> FinAbGroup:
        return FinAbGroup.from_factors([o for o, _ in self.sub])

    def quot_group(self) -> FinAbGroup:
        return FinAbGroup.from_factors([o for o, _ in self.quot])


@record(frozen=True)
class ComputedRow:
    """A group with named generators: resolved, derived or recorded."""

    group: FinAbGroup
    generators: tuple[tuple[int, str], ...]  # (order, name), 0 = infinite
    cites: tuple[str, ...] = ()
    evidence_used: tuple = ()

    # built for every derived cell, so written out like abelian's value classes
    def __init__(self, group: FinAbGroup, generators: tuple[tuple[int, str], ...],
                 cites: tuple[str, ...] = (), evidence_used: tuple = ()):
        set_field(self, "group", group)
        set_field(self, "generators", generators)
        set_field(self, "cites", cites)
        set_field(self, "evidence_used", evidence_used)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.group, self.generators, self.cites, self.evidence_used) == (
                other.group, other.generators, other.cites, other.evidence_used
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.group, self.generators, self.cites, self.evidence_used))

    def generator_names(self) -> tuple[str, ...]:
        return tuple(name for _, name in self.generators)


def _label(item) -> str:
    """An evidence item's kind with its lift name or citation, for messages."""
    name = getattr(item, "lift_name", None) or item.cite
    return f"{item.KIND} {name!r}" if name else item.KIND


def apply_evidence(problem: ExtensionProblem, evidence) -> ComputedRow:
    """Resolve an extension problem to a unique middle group.

    Raises :class:`UnresolvedExtensionError` if the evidence leaves more than
    one candidate, and :class:`ExtensionError` on inconsistent evidence (a
    claimed middle group outside the candidate set) or on an item it would
    not consume: an external fact or retraction that does not stand alone,
    a lift or relation fact naming no quotient generator, or a second one
    for the same quotient generator, a lift of an infinite-order quotient
    generator that claims a finite order or an ``absorbs``, a lift of the
    quotient generator's own order (``inf`` included) that claims an
    ``absorbs`` or a ``remainder-name``, a relation fact whose ``rhs`` or a
    lift whose ``absorbs`` has infinite order, or a ``remainder-name`` where
    nothing is left over.
    """
    evidence = list(evidence)
    a_group = problem.sub_group()
    candidates = enumerate_middle_groups(a_group, problem.quot_group())
    ctx = problem.context

    whole = [e for e in evidence if isinstance(e, (ExternalFact, Retraction))]
    if whole and len(evidence) > 1:
        other = next(e for e in evidence if e is not whole[0])
        raise ExtensionError(
            f"{ctx}: {_label(whole[0])} settles the extension alone, "
            f"but {_label(other)} is given too"
        )
    if whole and isinstance(whole[0], ExternalFact):
        return _finish(problem, candidates, list(whole[0].factors), evidence)
    if whole:
        sections = dict(whole[0].sections)
        factors = list(problem.sub)
        factors += [(o, sections.get(name, f"ext({name})")) for o, name in problem.quot]
        return _finish(problem, candidates, factors, evidence)

    # every remaining item lifts one quotient generator, and none shares it
    quot_names = {name for _, name in problem.quot}
    lift_for: dict[str, RelationFact | ElementOrderLift] = {}
    for e in evidence:
        if isinstance(e, RelationFact):
            name = e.lift_of
        elif isinstance(e, ElementOrderLift):
            name = e.maps_to
        else:
            continue  # an EHP transport item, expanded before it gets here
        if name not in quot_names:
            raise ExtensionError(
                f"{ctx}: {_label(e)} names {name!r}, which is no quotient generator"
            )
        if name in lift_for:
            raise ExtensionError(
                f"{ctx}: {_label(e)} and {_label(lift_for[name])} both lift {name}"
            )
        lift_for[name] = e

    factors = list(problem.sub)
    unresolved: list[str] = []
    for order, name in problem.quot:
        e = lift_for.get(name)
        if isinstance(e, RelationFact):
            if e.multiplier != order or not order:
                raise ExtensionError(
                    f"{ctx}: relation multiplier {e.multiplier} != "
                    f"order {order or 'inf'} of quotient generator {name}"
                )
            _absorb(factors, e, order, ctx)
        elif e is None:
            # no evidence: split automatically only when Ext forces it,
            # Ext(Z/order, A) = 0, A the torsion so far and the free sub
            # factors (Ext(Z, A) = 0, so a free quotient generator splits off)
            a = FinAbGroup.from_factors([o for o, _ in factors if o] + [0] * a_group.free_rank)
            if ext_group(FinAbGroup.from_factors([order]), a).is_trivial():
                factors.append((order, f"ext({name})"))
            else:
                unresolved.append(name)
        elif not order and (e.order or e.absorbs):
            raise ExtensionError(
                f"{ctx}: {_label(e)} lifts {name}, which has infinite "
                f"order, so it takes order inf and no absorbs"
            )
        elif e.order == order:
            if e.absorbs or e.remainder_name:
                raise ExtensionError(
                    f"{ctx}: {_label(e)} has the order of {name}, so it "
                    f"splits off and takes no absorbs or remainder-name"
                )
            factors.append((order, e.lift_name))
        elif e.order > order and e.absorbs:
            _absorb(factors, e, order, ctx)
        else:
            raise ExtensionError(
                f"{ctx}: lift {e.lift_name} has order {ORDER.write(e.order)} "
                f"incompatible with quotient generator {name} of order {order}"
            )
    if unresolved:
        raise UnresolvedExtensionError(
            ctx,
            candidates.candidates,
            "no evidence for quotient generator(s) " + ", ".join(unresolved),
        )
    return _finish(problem, candidates, factors, evidence)


def _absorb(factors, e: RelationFact | ElementOrderLift, order: int, context: str):
    """Put the lift of a quotient generator of finite ``order`` in place of
    the sub factor of order o_a that ``e`` absorbs (a relation's ``rhs``, a
    lift's ``absorbs``), with order m * o_a / gcd(o_a, s) for m * lift =
    s * rhs and ``e.order`` for a lift, then place what is left over."""
    relation = isinstance(e, RelationFact)
    absorbed = e.rhs if relation else e.absorbs
    idx = _factor_index(factors, absorbed, context)
    o_a = factors[idx][0]
    if not o_a:
        raise ExtensionError(
            f"{context}: {_label(e)} {'has rhs' if relation else 'absorbs'} {absorbed!r} "
            f"of infinite order, so its lift has no finite order"
        )
    lift_order = e.multiplier * (o_a // gcd(o_a, e.rhs_mult)) if relation else e.order
    leftover = o_a * order // lift_order
    factors[idx] = (lift_order, e.lift_name)
    if leftover > 1:
        factors.insert(idx + 1, (leftover, e.remainder_name or f"{leftover}-part({absorbed})"))
    elif e.remainder_name:
        raise ExtensionError(
            f"{context}: {_label(e)} leaves no remainder of {absorbed}, "
            f"so its remainder-name {e.remainder_name!r} is unused"
        )


def _factor_index(factors, name: str, context: str) -> int:
    for i, (_, n) in enumerate(factors):
        if n == name:
            return i
    raise ExtensionError(f"{context}: evidence references unknown generator {name!r}")


def _finish(problem, candidates, factors, evidence) -> ComputedRow:
    group = FinAbGroup.from_factors([o for o, _ in factors])
    if group not in candidates:
        raise ExtensionError(
            f"{problem.context}: resolved group {group} is not among the "
            f"enumerated candidates"
        )
    return ComputedRow(group, tuple(factors), evidence_used=tuple(evidence))
