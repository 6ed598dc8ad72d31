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

from .abelian import AbelianError, FinAbGroup, GroupHom, IntMatrix, Presentation
from .database import Database, DbError


def whitehead_hom(db: Database, n: int) -> GroupHom:
    """The pairing ``[-, identity]`` on the recorded bracket-id row.

    A ``DbError`` names the whitehead record when its images do not define
    a homomorphism (ragged or misfitting rows, or an image whose order does
    not divide its generator's)."""
    src = db.lookup("bracket-id", n=n)
    wh = db.lookup("whitehead", n=n)
    if src is None or wh is None:
        raise DbError(f"no bracket-id/whitehead records for n={n}")
    rows = wh.image_matrix_rows(src.generator_names())
    try:
        matrix = IntMatrix.from_rows(rows) if rows else IntMatrix(0, len(wh.target_terms), ())
        return GroupHom(src.presentation(), wh.target_presentation(), matrix)
    except AbelianError as e:
        raise DbError(f"{wh.context}: {e}") from e


def gottlieb_group(h: GroupHom) -> FinAbGroup:
    """G_n as the kernel of the Whitehead pairing ``h = whitehead_hom(db, n)``."""
    return h.kernel()


# ---------------------------------------------------------------------------
# Path components of the self-mapping spaces
# ---------------------------------------------------------------------------


def _up_to_sign(target: Presentation, x) -> tuple[int, ...]:
    """The class of ``x`` up to sign: a key that ``x`` and ``-x`` share and
    no other element of ``target`` has."""
    x = target.reduce(x)
    return min(x, target.reduce([-c for c in x]))


def _image_elements(h: GroupHom) -> set[tuple[int, ...]]:
    """All elements of the image of ``h`` in reduced target coordinates;
    the target must be finite."""
    orders = h.target.orders
    if any(o == 0 for o in orders):
        raise DbError("pairing target is infinite; cannot enumerate")

    def add(a, b):
        return tuple((x + y) % o for x, y, o in zip(a, b, orders))

    gens = [
        h.target.reduce(h.apply([1 if j == i else 0 for j in range(h.source.num_generators)]))
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
    return seen


@dataclass(frozen=True)
class ComponentsResult:
    n: int
    computed: int
    expected: int
    status: str  # "ok" | "documented-discrepancy" | "fail"
    note: str = ""


def classify_components(db: Database, n: int, h: GroupHom) -> ComponentsResult:
    """Count fibre-homotopy equivalence classes of evaluation fibrations,
    from the Whitehead pairing ``h = whitehead_hom(db, n)``.

    Two classes f, g give equivalent fibrations iff [f, id] = +-[g, id], so
    the count is the number of image elements up to sign.  The recorded
    value wins when flagged ``documented-discrepancy``.
    """
    entry = db.lookup("components", n=n)
    if entry is None:
        raise DbError(f"no components row for n={n}")
    computed = len({_up_to_sign(h.target, x) for x in _image_elements(h)})
    if computed == entry.expected:
        status = "ok"
    elif "documented-discrepancy" in entry.flags:
        status = "documented-discrepancy"
    else:
        status = "fail"
    return ComponentsResult(n, computed, entry.expected, status, entry.note)


def fibration_equivalences(
    db: Database, n: int, h: GroupHom
) -> dict[str, list[tuple[int, ...]]]:
    """For each bracket-id generator, partition its multiples by equivalence
    of the induced evaluation fibration (equal pairing ``h =
    whitehead_hom(db, n)`` up to sign).

    Finite generators contribute all residues 0..order-1; infinite ones are
    sampled at 0..3.
    """
    src = db.lookup("bracket-id", n=n)
    out: dict[str, list[tuple[int, ...]]] = {}
    for i, (order, name) in enumerate(src.terms):
        classes: dict[tuple, list[int]] = {}
        for c in range(order if order else 4):
            vec = [c if j == i else 0 for j in range(len(src.terms))]
            classes.setdefault(_up_to_sign(h.target, h.apply(vec)), []).append(c)
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
