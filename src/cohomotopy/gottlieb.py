"""Gottlieb (evaluation) subgroups and path components of self-mapping spaces.

The Whitehead pairing ``f |-> [f, identity]`` on the identity-component
bracket row is a homomorphism of finitely generated abelian groups; its
kernel is the Gottlieb subgroup, and evaluation fibrations over two classes
are equivalent exactly when their pairings agree up to sign, so the number of
fibre-homotopy equivalence classes is the number of negation orbits of the
pairing's image.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import FinAbGroup, GroupHom, IntMatrix
from .database import Database, DbError


def whitehead_hom(db: Database, n: int) -> GroupHom:
    """The pairing ``[-, identity]`` on the recorded bracket-id row."""
    src = db.lookup("bracket-id", n=n)
    wh = db.lookup("whitehead", n=n)
    if src is None or wh is None:
        raise DbError(f"no bracket-id/whitehead records for n={n}")
    rows = wh.image_matrix_rows(src.generator_names())
    cols = len(wh.target_terms)
    matrix = (
        IntMatrix.from_rows(rows)
        if rows and cols
        else IntMatrix(len(rows), cols, ())
    )
    return GroupHom(src.presentation(), wh.target_presentation(), matrix)


def gottlieb_group(db: Database, n: int) -> FinAbGroup:
    """G_n as the kernel of the Whitehead pairing."""
    return whitehead_hom(db, n).kernel()


# ---------------------------------------------------------------------------
# Path components of the self-mapping spaces
# ---------------------------------------------------------------------------


def _image_elements(h: GroupHom):
    """All elements of the image of ``h`` in canonical target coordinates.

    Requires a finite target; returns (orders, set of coordinate tuples).
    """
    orders, to_canonical = h.target.canonical_form_map()
    if any(o == 0 for o in orders):
        raise DbError("pairing target is infinite; cannot enumerate")

    def add(a, b):
        return tuple((x + y) % o for x, y, o in zip(a, b, orders))

    gens = [
        to_canonical(h.apply([1 if j == i else 0 for j in range(h.source.num_generators)]))
        for i in range(h.source.num_generators)
    ]
    zero = tuple(0 for _ in orders)
    seen = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = add(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return orders, seen


def _negation_orbits(orders, elements):
    orbits = set()
    for x in elements:
        neg = tuple((-c) % o for c, o in zip(x, orders))
        orbits.add(frozenset((x, neg)))
    return orbits


@dataclass(frozen=True)
class ComponentsResult:
    n: int
    computed: int
    expected: int
    status: str  # "ok" | "documented-discrepancy" | "fail"
    note: str = ""


def classify_components(db: Database, n: int) -> ComponentsResult:
    """Count fibre-homotopy equivalence classes of evaluation fibrations.

    Two classes f, g give equivalent fibrations iff [f, id] = +-[g, id], so
    the count is the number of negation orbits of the pairing image.  The
    recorded value wins when flagged ``documented-discrepancy``.
    """
    entry = db.lookup("components", n=n)
    if entry is None:
        raise DbError(f"no components row for n={n}")
    h = whitehead_hom(db, n)
    orders, elements = _image_elements(h)
    computed = len(_negation_orbits(orders, elements))
    if computed == entry.expected:
        status = "ok"
    elif "documented-discrepancy" in entry.flags:
        status = "documented-discrepancy"
    else:
        status = "fail"
    return ComponentsResult(n, computed, entry.expected, status, entry.note)


def fibration_equivalences(db: Database, n: int) -> dict[str, list[tuple[int, ...]]]:
    """For each bracket-id generator, partition its multiples by equivalence
    of the induced evaluation fibration (equal pairing up to sign).

    Finite generators contribute all residues 0..order-1; infinite ones are
    sampled at 0..3.
    """
    h = whitehead_hom(db, n)  # raises DbError when the bracket-id row is missing
    src = db.lookup("bracket-id", n=n)
    orders, to_canonical = h.target.canonical_form_map()
    out: dict[str, list[tuple[int, ...]]] = {}
    for i, (order, name) in enumerate(src.terms):
        classes: dict[tuple, list[int]] = {}
        for c in range(order if order else 4):
            vec = [c if j == i else 0 for j in range(len(src.terms))]
            img = tuple(to_canonical(h.apply(vec)))
            neg = tuple((-x) % o if o else -x for x, o in zip(img, orders))
            classes.setdefault(min(img, neg), []).append(c)
        out[name] = [tuple(v) for v in classes.values()]
    return out


def null_component_gottlieb(db: Database, n: int, m: int) -> FinAbGroup:
    """G_n of the null component of ``map(Sigma^m CP^2, S^{m+1})``.

    Splits as the n-th Gottlieb group of the sphere S^{m+1} plus the recorded
    G_m row; the sphere part vanishes when n < m + 1 and otherwise requires a
    sphere-gottlieb record at (m+1, n-m-1).
    """
    gott = db.lookup("gottlieb", n=m)
    if gott is None:
        raise DbError(f"no gottlieb row for n={m}")
    if n < m + 1:
        sphere = FinAbGroup.trivial()
    else:
        entry = db.lookup("sphere-gottlieb", m=m + 1, k=n - m - 1)
        if entry is None:
            raise DbError(
                f"no sphere-gottlieb record for S^{m + 1} in degree {n}"
            )
        sphere = entry.group
    return sphere.direct_sum(gott.group)
