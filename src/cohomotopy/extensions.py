"""Extension problems 0 -> A -> G -> C -> 0 of finitely generated abelian
groups: Ext^1 computation, enumeration of the possible middle groups, and
evidence-driven resolution to a single middle group.

Enumeration contract, an assumption: candidates have free rank
rk(A) + rk(C) and torsion order |A_t| * |C_t| (it misses G = Z for
0 -> Z -> G -> Z/2 -> 0).  Under that contract the candidates are exactly
Z^{rk A + rk C} (+) T where T is a torsion middle of (A_t, C_t), and the
torsion problem decomposes prime by prime.  At a prime p, a p-group of type
lambda admits a subgroup of type mu with quotient of type nu if and only if
the Littlewood-Richardson coefficient c^lambda_{mu,nu} is positive (Hall).
The lambda with positive coefficient are found together, by one search over
the LR tableaux of content nu on mu per (mu, nu), and the p-parts they give
are built once per (p, mu, nu).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from functools import cache, lru_cache
from itertools import product
from math import gcd, prod

from .abelian import MEMO_SIZE, FinAbGroup, _group_from_primary_powers, _primary_parts
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


def _partition(parts) -> tuple[int, ...]:
    """``parts`` as a tuple without trailing zeros."""
    parts = tuple(parts)
    while parts and not parts[-1]:
        parts = parts[:-1]
    return parts


def lr_support(mu, nu) -> tuple[tuple[int, ...], ...]:
    """Every lam with c^lam_{mu, nu} > 0, each once, in ``partitions`` order.
    ``mu`` and ``nu`` are partitions given as any sequences; trailing zeros
    are ignored."""
    return _oriented_support(_partition(mu), _partition(nu))


def _oriented_support(mu: tuple, nu: tuple) -> tuple[tuple[int, ...], ...]:
    """``_lr_support`` with the larger partition as the base: the support is
    symmetric in (mu, nu), and placing fewer boxes searches fewer tableaux."""
    if (sum(nu), len(nu), nu) > (sum(mu), len(mu), mu):
        mu, nu = nu, mu
    return _lr_support(mu, nu)


@lru_cache(maxsize=MEMO_SIZE)
def _lr_support(mu: tuple, nu: tuple) -> tuple[tuple[int, ...], ...]:
    """The support of c^-_{mu, nu} by one search over the LR tableaux of
    content ``nu`` on ``mu``.  Label v adds nu_v boxes as a horizontal strip;
    the reading word (rows top to bottom, each right to left) is a lattice
    word iff in every row r the v's in rows <= r never outnumber the
    (v-1)'s in rows < r.  The next strip needs only the shape so far and
    the last label's boxes per row, so tableaux that agree on both are
    searched on once."""
    states = {(mu, None)}
    for n in nu:
        states = {new for shape, last in states for new in _strips(shape, last, n)}
    return tuple(sorted({shape for shape, _ in states}, reverse=True))


def _strips(shape: tuple, last: tuple | None, n: int) -> list:
    """(new shape, boxes per row) for each horizontal strip of ``n`` boxes on
    ``shape`` whose boxes keep the lattice bound against ``last``, the
    previous label's boxes per row (``None`` for the first label, which is
    unbounded)."""
    rows = len(shape)
    ext = shape + (0,)
    added = [0] * (rows + 1)
    out = []

    def place(r: int, left: int, slack: int):
        # rows < r are placed; ``slack`` is how many boxes rows <= r may
        # still take: the last label's boxes in rows < r less this label's
        if not left:
            new = tuple(x + k for x, k in zip(ext, added))
            out.append((new if new[-1] else new[:-1], tuple(added)))
            return
        if r > rows:
            return
        room = min(left, slack) if r == 0 else min(left, slack, ext[r - 1] - ext[r])
        gain = last[r] if last is not None and r < len(last) else 0
        for k in range(room, -1, -1):
            added[r] = k
            place(r + 1, left - k, slack - k + gain)
        added[r] = 0

    place(0, n, n if last is None else 0)
    return out


@lru_cache(maxsize=MEMO_SIZE)
def _prime_parts(p: int, mu: tuple, nu: tuple) -> tuple[tuple[int, ...], ...]:
    """The p-parts of the middle groups of a p-group of type ``mu`` by one
    of type ``nu``: for each lam of ``_oriented_support(mu, nu)``, in that
    order, the powers p**lam_i, descending.  They are symmetric in (mu, nu),
    so ``enumerate_middle_groups`` passes the pair with ``mu >= nu``, and
    each unordered pair is built once."""
    return tuple(tuple(p**e for e in lam) for lam in _oriented_support(mu, nu))


def lr_positive(lam, mu, nu) -> bool:
    """Whether c^lam_{mu, nu} > 0: whether ``lam`` is in
    ``lr_support(mu, nu)``.  Any sequences are accepted and trailing zeros
    ignored.  ``cache_info()`` is the support memo's; ``cache_clear()``
    empties it and the p-part memo built on it, so a clear leaves nothing
    of the LR step warm."""
    return _partition(lam) in lr_support(mu, nu)


def _clear_lr_memos() -> None:
    _lr_support.cache_clear()
    _prime_parts.cache_clear()


lr_positive.cache_info = _lr_support.cache_info
lr_positive.cache_clear = _clear_lr_memos


# ---------------------------------------------------------------------------
# Candidate enumeration
# ---------------------------------------------------------------------------


@record
class ExtensionCandidateSet:
    candidates: tuple[FinAbGroup, ...]

    # built by every enumeration, so written out like abelian's value classes
    def __init__(self, candidates: tuple[FinAbGroup, ...]):
        set_field(self, "candidates", candidates)

    def __contains__(self, g: FinAbGroup) -> bool:
        return g in self.candidates


def enumerate_middle_groups(a: FinAbGroup, c: FinAbGroup) -> ExtensionCandidateSet:
    """All middle groups of 0 -> A -> G -> C -> 0 under the rank/order
    contract, which is an assumption: free rank adds and torsion order
    multiplies.  It misses middle groups such as G = Z for
    0 -> Z -> G -> Z/2 -> 0.  At each prime p the p-parts, one per type in
    ``lr_support`` order, are read from a memo keyed by p and the pair of
    types, oriented so that (A, C) and (C, A) share an entry.
    Raises :class:`EnumerationBoundError` above a torsion order of
    ``DEFAULT_BOUND``."""
    t = prod(a.torsion) * prod(c.torsion)
    if t > DEFAULT_BOUND:
        raise EnumerationBoundError(
            f"torsion order {t} exceeds enumeration bound {DEFAULT_BOUND}"
        )
    types: dict[int, list] = {}  # prime -> [type of A, type of C]
    for side, g in enumerate((a, c)):
        for p, _, exps in _primary_parts(g.torsion):
            types.setdefault(p, [(), ()])[side] = exps
    per_prime = [
        _prime_parts(p, mu, nu) if mu >= nu else _prime_parts(p, nu, mu)
        for p, (mu, nu) in types.items()
    ]
    # distinct types at some prime are distinct groups, so no two agree;
    # each type is a partition, so its powers come in descending order
    free = a.free_rank + c.free_rank
    results = [_group_from_primary_powers(free, combo) for combo in product(*per_prime)]
    results.sort(key=lambda g: (g.free_rank, len(g.torsion), g.torsion))
    return ExtensionCandidateSet(tuple(results))


# ---------------------------------------------------------------------------
# Record value types
# ---------------------------------------------------------------------------


class ValueType:
    """A value type of ``.cohdb`` record fields: how a value is read from its
    record text, the generator names it holds (those ``validate_db``
    checks) and the value with a map applied to those names.  Value types
    compare by identity."""

    __slots__ = ("parse", "names", "rename")

    def __init__(
        self,
        parse: Callable[[str], object],
        names: Callable[[object], Iterable[str]] = lambda value: (),
        rename: Callable[[object, Callable[[str], str]], object] = lambda value, f: value,
    ):
        self.parse = parse
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


def order_text(order: int) -> str:
    """An order as the records write it: ``inf`` for 0."""
    return "inf" if order == 0 else str(order)


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
OPT_NAME = ValueType(  # a generator name, or None when empty
    lambda text: text or None,
    names=lambda v: (v,) if v else (),
    rename=lambda v, f: v and f(v),
)
INT = ValueType(int)
ORDER = ValueType(  # ``inf`` (0) or a positive integer
    lambda text: _order(text, "order value", text),
)
PAIRS = ValueType(  # ``name -> name ; ...``
    _parse_pairs,
    names=lambda v: [name for pair in v for name in pair],
    rename=lambda v, f: tuple((f(a), f(b)) for a, b in v),
)
# ``source-row name -> local name ; ...``: the source side names generators of
# another row, so only the local side is renamed
RENAMES = ValueType(
    PAIRS.parse, PAIRS.names, rename=lambda v, f: tuple((a, f(b)) for a, b in v)
)
TERMS = ValueType(  # ``name : order ; ...`` as (order, name) pairs
    _parse_terms,
    names=lambda v: [name for _, name in v],
    rename=lambda v, f: tuple((order, f(name)) for order, name in v),
)


# ---------------------------------------------------------------------------
# Evidence-driven resolution
# ---------------------------------------------------------------------------


# Each evidence class is the schema of its ``[evidence]`` record: ``KIND`` is
# the record's ``kind`` value and every field carries its record key and value
# type, from which ``database`` parses and validates the record and
# ``map_names`` rewrites it (the other record types follow the same
# convention in ``database``).


def record_field(key: str, vtype: ValueType, terms: str | None = None, **default):
    """A field read from record key ``key`` as a ``vtype`` value; a
    group-valued field names the field of its ``terms``, which validation
    checks it against."""
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


@record
class Retraction:
    """The quotient map admits a section, so the sequence splits.

    ``sections`` maps quotient generator names to the names of their chosen
    lifts in the middle group.
    """

    KIND = "retraction"

    sections: tuple[tuple[str, str], ...] = record_field("sections", PAIRS, default=())
    cite: str = record_field("cite", TEXT, default="")


@record
class ElementOrderLift:
    """A named lift of a quotient generator with the generator's own order,
    so that it splits off.  ``order`` is 0 for an infinite-order lift."""

    KIND = "element-order-lift"

    lift_name: str = record_field("lift", NAME)
    order: int = record_field("order", ORDER)
    maps_to: str = record_field("maps-to", NAME)
    cite: str = record_field("cite", TEXT, default="")


@record
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


@record
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
    for cls in (Retraction, ElementOrderLift, RelationFact, EhpInjectivity)
}


def map_names(item, f):
    """``item`` with ``f`` applied to every generator name it holds, as its
    fields' value types rename them."""
    return replace(item, **{
        attr: vtype.rename(getattr(item, attr), f) for attr, _, vtype, _, _ in schema(type(item))
    })


@record
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


@record
class ComputedRow:
    """A group with named generators: resolved, derived or recorded."""

    group: FinAbGroup
    generators: tuple[tuple[int, str], ...]  # (order, name), 0 = infinite
    cites: tuple[str, ...] = ()
    evidence_used: tuple = ()

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
    resolved middle group outside the candidate set) or on an item it would
    not consume: a retraction that does not stand alone, a lift or relation
    fact naming no quotient generator, or a second one for the same quotient
    generator, a lift whose order is not its quotient generator's (``inf``
    for an infinite one), a relation fact whose ``rhs`` has infinite order,
    or a ``remainder-name`` where nothing is left over.
    """
    evidence = list(evidence)
    a_group = problem.sub_group()
    candidates = enumerate_middle_groups(a_group, problem.quot_group())
    ctx = problem.context

    retraction = next((e for e in evidence if isinstance(e, Retraction)), None)
    if retraction and len(evidence) > 1:
        other = next(e for e in evidence if e is not retraction)
        raise ExtensionError(
            f"{ctx}: {_label(retraction)} settles the extension alone, "
            f"but {_label(other)} is given too"
        )
    if retraction:
        sections = dict(retraction.sections)
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
            # m * lift = s * rhs, with rhs of order o_a: the lift takes the
            # place of rhs with order m * o_a / gcd(o_a, s), and gcd(o_a, s) is
            # left over
            idx = next((i for i, (_, n) in enumerate(factors) if n == e.rhs), None)
            if idx is None:
                raise ExtensionError(f"{ctx}: evidence references unknown generator {e.rhs!r}")
            o_a = factors[idx][0]
            if not o_a:
                raise ExtensionError(
                    f"{ctx}: {_label(e)} has rhs {e.rhs!r} of infinite order, "
                    f"so its lift has no finite order"
                )
            leftover = gcd(o_a, e.rhs_mult)
            factors[idx] = (order * (o_a // leftover), e.lift_name)
            if leftover > 1:
                factors.insert(idx + 1, (leftover, e.remainder_name or f"{leftover}-part({e.rhs})"))
            elif e.remainder_name:
                raise ExtensionError(
                    f"{ctx}: {_label(e)} leaves no remainder of {e.rhs}, "
                    f"so its remainder-name {e.remainder_name!r} is unused"
                )
        elif e is None:
            # no evidence: split automatically only when Ext forces it,
            # Ext(Z/order, A) = 0, A the torsion so far and the free sub
            # factors (Ext(Z, A) = 0, so a free quotient generator splits off)
            a = FinAbGroup.from_factors([o for o, _ in factors if o] + [0] * a_group.free_rank)
            if ext_group(FinAbGroup.from_factors([order]), a).is_trivial():
                factors.append((order, f"ext({name})"))
            else:
                unresolved.append(name)
        elif not order and e.order:
            raise ExtensionError(
                f"{ctx}: {_label(e)} lifts {name}, which has infinite "
                f"order, so it takes order inf"
            )
        elif e.order == order:
            factors.append((order, e.lift_name))
        else:
            raise ExtensionError(
                f"{ctx}: lift {e.lift_name} has order {order_text(e.order)} "
                f"incompatible with quotient generator {name} of order {order}"
            )
    if unresolved:
        raise UnresolvedExtensionError(
            ctx,
            candidates.candidates,
            "no evidence for quotient generator(s) " + ", ".join(unresolved),
        )
    return _finish(problem, candidates, factors, evidence)


def _finish(problem, candidates, factors, evidence) -> ComputedRow:
    group = FinAbGroup.from_factors([o for o, _ in factors])
    if group not in candidates:
        used = ", ".join(_label(e) for e in evidence)
        raise ExtensionError(
            f"{problem.context}: resolved group {group} from {used} is not among "
            f"the enumerated candidates; candidates: "
            + ", ".join(str(g) for g in candidates.candidates)
        )
    return ComputedRow(group, tuple(factors), evidence_used=tuple(evidence))
