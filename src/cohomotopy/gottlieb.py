"""Gottlieb (evaluation) subgroups and path components of self-mapping spaces.

The Whitehead pairing ``h: f |-> [f, identity]`` on the identity-component
bracket row is a homomorphism of finitely generated abelian groups, and both
results are read off it.  ``whitehead_hom`` builds it at n and remembers it
on the database; every reader of a row at n calls it first, so a broken
pairing is named before a missing row.  Its kernel is the Gottlieb subgroup.
Evaluation fibrations over two classes are equivalent exactly when their
pairings agree up to sign, so the number of fibre-homotopy equivalence
classes is the number of elements of the image I up to sign.  By Burnside's
lemma that is (|I| + |I[2]|) / 2, where the 2-torsion I[2] has one Z/2 for
each even invariant factor of I.  I is finite for every pairing read here,
also in an infinite target: a whitehead record whose pairing has an infinite
image breaks the pairing rule (``WhiteheadEntry.pairing``), so
``whitehead_hom`` raises its ``DbError`` to every reader, and ``db-check``
reports it.

This module reads no ``gottlieb`` or ``components`` record: the checks
``pipeline.check_gottlieb`` and ``check_components`` compare its values with
them, and the ``gottlieb`` and ``components`` commands print those checks.
"""

from __future__ import annotations

from .abelian import FinAbGroup, GroupHom, Presentation
from .database import Database, DbError, memoised


@memoised
def whitehead_hom(db: Database, n: int) -> GroupHom:
    """The pairing ``[-, identity]`` at n, from the ``whitehead`` record on
    the ``bracket-id`` row (``WhiteheadEntry.pairing``): the one place it is
    built, read by each function of (db, n) that needs it and remembered on
    ``db`` (``memoised``), so it is built once per n.

    A ``DbError`` names the whitehead record when its images define no
    homomorphism or one with an infinite image, with the problem
    ``db-check`` reports, or the n when either record is missing.  An error
    is not remembered, so each reader raises it anew."""
    src = db.lookup("bracket-id", n=n)
    wh = db.lookup("whitehead", n=n)
    if src is None or wh is None:
        raise DbError(f"no bracket-id/whitehead records for n={n}")
    return wh.pairing(src)


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


def _classes_up_to_sign(image: FinAbGroup) -> int:
    """The number of elements of the finite group ``image`` up to sign: the
    orbits of x |-> -x, which fixes exactly the 2-torsion."""
    fixed = 2 ** sum(1 for t in image.torsion if t % 2 == 0)
    return (image.order() + fixed) // 2


def classify_components(db: Database, n: int) -> int:
    """The number of fibre-homotopy equivalence classes of evaluation
    fibrations at n: the elements up to sign of the image of ``whitehead_hom``."""
    return _classes_up_to_sign(whitehead_hom(db, n).image())


def fibration_equivalences(db: Database, n: int) -> dict[str, list[tuple[int, ...]]]:
    """For each bracket-id generator, partition its multiples by equivalence
    of the induced evaluation fibration (equal Whitehead pairing at n,
    ``whitehead_hom``, up to sign).

    A finite generator contributes all residues 0..order-1, an infinite one
    its residues modulo the order of its image, which decides the pairing
    and is finite by the pairing rule: an infinite image is the pairing's
    ``DbError``.
    """
    h = whitehead_hom(db, n)
    src = db.lookup("bracket-id", n=n)
    out: dict[str, list[tuple[int, ...]]] = {}
    for i, (order, name) in enumerate(src.terms):
        order = order or h.target.element_order(h.matrix[i])
        classes: dict[tuple, list[int]] = {}
        for c in range(order):
            vec = [c if j == i else 0 for j in range(len(src.terms))]
            classes.setdefault(_up_to_sign(h.target, h.apply(vec)), []).append(c)
        out[name] = [tuple(v) for v in classes.values()]
    return out
