"""Gottlieb (evaluation) subgroups and path components of self-mapping spaces.

The Whitehead pairing ``h: f |-> [f, identity]`` on the identity-component
bracket row is a homomorphism of finitely generated abelian groups, and both
results are read off it.  Its kernel is the Gottlieb subgroup.  Evaluation
fibrations over two classes are equivalent exactly when their pairings agree
up to sign, so the number of fibre-homotopy equivalence classes is the number
of elements of the image I up to sign.  By Burnside's lemma that is
(|I| + |I[2]|) / 2, where the 2-torsion I[2] has one Z/2 for each even
invariant factor of I; it is counted whenever I is finite, also when the
pairing's target is infinite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import FinAbGroup, GroupHom, Presentation
from .database import Database, DbError


def whitehead_hom(db: Database, n: int) -> GroupHom:
    """The pairing ``[-, identity]`` on the recorded bracket-id row.

    A ``DbError`` names the whitehead record when its images define no
    homomorphism, with the problem ``db-check`` reports
    (``WhiteheadEntry.pairing``)."""
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
    the count is the number of image elements up to sign; an infinite image
    is a ``DbError`` naming the whitehead record.  The recorded value wins
    when flagged ``documented-discrepancy``.
    """
    entry = db.lookup("components", n=n)
    if entry is None:
        raise DbError(f"no components row for n={n}")
    image = h.image()
    if not image.is_finite():
        wh = db.lookup("whitehead", n=n)
        raise DbError(f"{wh.context}: the pairing has an infinite image")
    computed = _classes_up_to_sign(image)
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
