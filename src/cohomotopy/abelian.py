"""Exact arithmetic for finitely generated abelian groups.

Everything here works over arbitrary-precision integers.  The central tool is
Smith normal form with recorded unimodular transforms; on top of it sit
canonical forms for finitely generated abelian groups, presentations
(generators + integer relation matrices), homomorphisms given by integer
matrices, and the usual constructions (kernel, cokernel, image, direct sum,
subgroup/quotient from a generating set).

Conventions:

* Matrices act on row vectors: an element of a presented group with g
  generators is a length-g integer row vector, and a homomorphism with matrix
  M sends x to x @ M.
* A relation matrix R (r x g) presents Z^g / rowspace(R).
* smith_normal_form(m) returns (u, d, v) with u @ m @ v == d, u and v
  unimodular, d diagonal with d[0] | d[1] | ... and nonnegative entries.
  Pivot choice is deterministic: smallest nonzero absolute value, ties broken
  by lowest (row, col).

>>> m = IntMatrix.from_rows([[2, 4], [6, 8]])
>>> s = smith_normal_form(m)
>>> s.d.diagonal()
[2, 4]
>>> group_from_presentation(m)
FinAbGroup(free_rank=0, torsion=(2, 4))
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from math import gcd, lcm


class AbelianError(Exception):
    """Base class for errors raised by this module."""


class IllDefinedHomError(AbelianError):
    """A homomorphism matrix does not respect a source relation."""

    def __init__(self, relation_index: int, relation: tuple[int, ...]):
        self.relation_index = relation_index
        self.relation = relation
        super().__init__(
            f"matrix does not kill source relation #{relation_index}: {relation}"
        )


# ---------------------------------------------------------------------------
# Integer matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise AbelianError("ragged rows")
        flat = tuple(int(x) for r in rows for x in r)
        return cls(n, m, flat)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def diagonal_matrix(cls, diag, rows=None, cols=None) -> "IntMatrix":
        diag = list(diag)
        n = rows if rows is not None else len(diag)
        m = cols if cols is not None else len(diag)
        e = [[0] * m for _ in range(n)]
        for i, d in enumerate(diag):
            e[i][i] = d
        return cls.from_rows(e) if n else cls(0, m, ())

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self[i, j] for j in range(self.cols) for i in range(self.rows)),
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise AbelianError("dimension mismatch in matrix product")
        a, b = self.to_rows(), other.to_rows()
        out = []
        for i in range(self.rows):
            ai = a[i]
            out.append(
                [sum(ai[k] * b[k][j] for k in range(self.cols)) for j in range(other.cols)]
            )
        return IntMatrix.from_rows(out) if out else IntMatrix(0, other.cols, ())

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise AbelianError("dimension mismatch in vstack")
        return IntMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def diagonal(self) -> list[int]:
        return [self[i, i] for i in range(min(self.rows, self.cols))]

    def is_diagonal(self) -> bool:
        return all(
            self[i, j] == 0
            for i in range(self.rows)
            for j in range(self.cols)
            if i != j
        )

    def det(self) -> int:
        """Exact determinant (fraction-free Bareiss)."""
        if self.rows != self.cols:
            raise AbelianError("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and self.det() in (1, -1)

    def inverse_unimodular(self) -> "IntMatrix":
        """Inverse of a unimodular matrix (exact, via adjugate)."""
        d = self.det()
        if d not in (1, -1):
            raise AbelianError("matrix is not unimodular")
        n = self.rows
        rows = self.to_rows()
        inv = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                minor = [
                    [rows[r][c] for c in range(n) if c != i]
                    for r in range(n)
                    if r != j
                ]
                cof = IntMatrix.from_rows(minor).det() if n > 1 else 1
                inv[i][j] = d * ((-1) ** (i + j)) * cof
        return IntMatrix.from_rows(inv) if n else IntMatrix(0, 0, ())


def row_vector_times(vec, m: IntMatrix) -> list[int]:
    """(1 x r) @ (r x c) as plain lists."""
    vec = list(vec)
    if len(vec) != m.rows:
        raise AbelianError("dimension mismatch in vector-matrix product")
    return [
        sum(vec[k] * m[k, j] for k in range(m.rows)) for j in range(m.cols)
    ]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithDecomposition:
    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    def check(self, m: IntMatrix) -> bool:
        return (
            self.u @ m @ self.v == self.d
            and self.u.is_unimodular()
            and self.v.is_unimodular()
        )


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforms: u @ m @ v == d.

    Deterministic pivoting: among nonzero entries of the active submatrix the
    one with the smallest absolute value is chosen, ties broken by the lowest
    (row, col) pair.
    """
    n, c = m.rows, m.cols
    a = m.to_rows()
    u = IntMatrix.identity(n).to_rows()
    v = IntMatrix.identity(c).to_rows()

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row[dst] += q * row[src]
        arow, usrc = a[src], u[src]
        adst, udst = a[dst], u[dst]
        for j in range(c):
            adst[j] += q * arow[j]
        for j in range(n):
            udst[j] += q * usrc[j]

    def add_col(src, dst, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(n, c):
        # pick pivot: smallest |value| among nonzero entries of a[t:][t:]
        best = None
        for i in range(t, n):
            for j in range(t, c):
                x = a[i][j]
                if x != 0:
                    key = (abs(x), i, j)
                    if best is None or key < best:
                        best = key
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        if a[t][t] < 0:
            negate_row(t)
        p = a[t][t]
        # clear column t
        dirty = False
        for i in range(t + 1, n):
            if a[i][t] != 0:
                q = a[i][t] // p
                add_row(t, i, -q)
                if a[i][t] != 0:
                    dirty = True
        if dirty:
            continue
        # clear row t
        for j in range(t + 1, c):
            if a[t][j] != 0:
                q = a[t][j] // p
                add_col(t, j, -q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility: pivot must divide the remaining submatrix
        fix = None
        for i in range(t + 1, n):
            for j in range(t + 1, c):
                if a[i][j] % p != 0:
                    fix = i
                    break
            if fix is not None:
                break
        if fix is not None:
            add_row(fix, t, 1)
            continue
        t += 1

    um = IntMatrix.from_rows(u) if n else IntMatrix(0, 0, ())
    vm = IntMatrix.from_rows(v) if c else IntMatrix(0, 0, ())
    dm = IntMatrix.from_rows(a) if n else IntMatrix(0, c, ())
    return SmithDecomposition(um, dm, vm)


def smith_diagonal(rows) -> list[int]:
    """The diagonal of the Smith normal form of ``rows`` (a list of equal-length
    integer rows): ``min(rows, cols)`` nonnegative invariant factors.

    Same elimination and pivoting as :func:`smith_normal_form`, on the matrix
    alone: no transforms are tracked and no :class:`IntMatrix` is built, so it
    is the cheap entry point when only the group's type is wanted.

    >>> smith_diagonal([[2, 4], [6, 8]])
    [2, 4]
    """
    a = [list(r) for r in rows]
    n = len(a)
    c = len(a[0]) if a else 0
    for row in a:
        if len(row) != c:
            raise AbelianError("ragged rows")
    k = min(n, c)
    t = 0
    while t < k:
        # pivot: smallest |value| in a[t:][t:]; scanning in (row, col) order
        # and replacing only on a strictly smaller value keeps the lowest pair
        best = 0
        pi = pj = t
        for i in range(t, n):
            row = a[i]
            for j in range(t, c):
                x = row[j]
                if x:
                    x = -x if x < 0 else x
                    if not best or x < best:
                        best, pi, pj = x, i, j
        if not best:
            break
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        top = a[t]
        if top[t] < 0:
            top = a[t] = [-x for x in top]
        p = top[t]
        # clear column t
        dirty = False
        for i in range(t + 1, n):
            row = a[i]
            if row[t]:
                q = row[t] // p
                for j in range(t, c):
                    row[j] -= q * top[j]
                if row[t]:
                    dirty = True
        if dirty:
            continue
        # clear row t; column t is zero off the pivot now, so the column
        # operation only reduces top[j] modulo p
        for j in range(t + 1, c):
            if top[j]:
                top[j] %= p
                if top[j]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility: pivot must divide the remaining submatrix
        fix = None
        for i in range(t + 1, n):
            row = a[i]
            for j in range(t + 1, c):
                if row[j] % p:
                    fix = row
                    break
            if fix is not None:
                break
        if fix is not None:
            for j in range(t, c):
                top[j] += fix[j]
            continue
        t += 1
    return [a[i][i] for i in range(k)]


def kernel_lattice(m: IntMatrix) -> list[list[int]]:
    """Basis (rows) of { x in Z^rows : x @ m == 0 }."""
    s = smith_normal_form(m)
    out = []
    for i in range(m.rows):
        if all(s.d[i, j] == 0 for j in range(m.cols)):
            out.append(list(s.u.row(i)))
    return out


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------


def _primary_from_orders(orders) -> dict[int, list[int]]:
    primary: dict[int, list[int]] = {}
    for d in orders:
        d = int(d)
        if d < 0:
            d = -d
        if d in (0, 1):
            continue
        for p, e in _factorint(d).items():
            primary.setdefault(p, []).append(p**e)
    for p in primary:
        primary[p].sort()
    return primary


def _factorint(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _invariant_factors(primary: dict[int, list[int]]) -> tuple[int, ...]:
    """Merge primary cyclic factors into an ascending divisibility chain."""
    piles = {p: list(v) for p, v in primary.items() if v}
    factors = []
    while any(piles.values()):
        f = 1
        for p in sorted(piles):
            if piles[p]:
                f *= piles[p].pop()  # largest remaining p-power
        factors.append(f)
    factors.reverse()
    return tuple(factors)


@dataclass(frozen=True)
class FinAbGroup:
    """Finitely generated abelian group in canonical form.

    ``free_rank`` copies of Z plus cyclic factors ``torsion`` forming an
    ascending divisibility chain (each >= 2).  Structural equality of two
    canonical forms is exactly isomorphism.
    """

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        if self.free_rank < 0:
            raise AbelianError("negative free rank")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise AbelianError(f"torsion {self.torsion} is not a divisor chain")
        if any(t < 2 for t in self.torsion):
            raise AbelianError("torsion coefficients must be >= 2")

    @classmethod
    def from_factors(cls, orders) -> "FinAbGroup":
        """Build from arbitrary cyclic orders (0 means an infinite factor)."""
        orders = [int(x) for x in orders]
        free = sum(1 for x in orders if x == 0)
        return cls(free, _invariant_factors(_primary_from_orders(orders)))

    @classmethod
    def trivial(cls) -> "FinAbGroup":
        return cls(0, ())

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self):
        """Group order, or None if infinite."""
        if self.free_rank:
            return None
        return reduce(lambda a, b: a * b, self.torsion, 1)

    def direct_sum(self, other: "FinAbGroup") -> "FinAbGroup":
        return FinAbGroup.from_factors(
            [0] * (self.free_rank + other.free_rank)
            + list(self.torsion)
            + list(other.torsion)
        )

    def primary_decomposition(self) -> dict[int, tuple[int, ...]]:
        """Map prime -> descending list of p-power cyclic orders."""
        primary = _primary_from_orders(self.torsion)
        return {p: tuple(sorted(v, reverse=True)) for p, v in sorted(primary.items())}

    def p_part(self, p: int) -> "FinAbGroup":
        return FinAbGroup.from_factors(self.primary_decomposition().get(p, ()))

    def odd_part(self) -> "FinAbGroup":
        orders = []
        for p, powers in self.primary_decomposition().items():
            if p != 2:
                orders.extend(powers)
        return FinAbGroup.from_factors(orders)

    def exponents_at(self, p: int) -> tuple[int, ...]:
        """Descending partition of p-exponents (the 'type' at p)."""
        powers = self.primary_decomposition().get(p, ())
        return tuple(_factorint(x)[p] for x in powers)

    def presentation(self) -> "Presentation":
        """The canonical presentation: one generator per invariant factor/Z."""
        orders = list(self.torsion) + [0] * self.free_rank
        g = len(orders)
        rel = [
            [orders[i] if i == j else 0 for j in range(g)]
            for i in range(g)
            if orders[i] != 0
        ]
        return Presentation(g, IntMatrix.from_rows(rel) if rel else IntMatrix(0, g, ()))

    def __str__(self) -> str:
        return render_group(self)

    def __repr__(self) -> str:
        return f"FinAbGroup(free_rank={self.free_rank}, torsion={self.torsion})"


def render_group(g: FinAbGroup) -> str:
    """Canonical ASCII rendering, e.g. ``Z^2 + Z/2 + Z/4`` or ``0``."""
    parts = []
    if g.free_rank == 1:
        parts.append("Z")
    elif g.free_rank > 1:
        parts.append(f"Z^{g.free_rank}")
    parts.extend(f"Z/{t}" for t in g.torsion)
    return " + ".join(parts) if parts else "0"


def parse_group(text: str) -> FinAbGroup:
    """Inverse of :func:`render_group` (accepts any term order)."""
    text = text.strip()
    if text == "0":
        return FinAbGroup.trivial()
    orders = []
    for term in text.split("+"):
        term = term.strip()
        if term == "Z":
            orders.append(0)
        elif term.startswith("Z^"):
            orders.extend([0] * int(term[2:]))
        elif term.startswith("Z/"):
            n = int(term[2:])
            if n < 2:
                raise AbelianError(f"bad torsion coefficient in {term!r}")
            orders.append(n)
        else:
            raise AbelianError(f"cannot parse group term {term!r}")
    return FinAbGroup.from_factors(orders)


# ---------------------------------------------------------------------------
# Presentations and elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Presentation:
    """Z^num_generators modulo the row space of ``relations``."""

    num_generators: int
    relations: IntMatrix

    def __post_init__(self):
        if self.relations.cols != self.num_generators:
            raise AbelianError("relation width != number of generators")

    @classmethod
    def from_orders(cls, orders) -> "Presentation":
        """Diagonal presentation; order 0 means an infinite generator."""
        orders = list(orders)
        g = len(orders)
        rows = [
            [orders[i] if i == j else 0 for j in range(g)]
            for i in range(g)
            if orders[i] != 0
        ]
        return cls(g, IntMatrix.from_rows(rows) if rows else IntMatrix(0, g, ()))

    def group(self) -> FinAbGroup:
        return group_from_presentation(self.relations)

    @cached_property
    def smith(self) -> SmithDecomposition:
        """Smith normal form of ``relations``, computed once per presentation
        (the dataclass is frozen, so it cannot go stale)."""
        return smith_normal_form(self.relations)

    def element_order(self, vec):
        """Order of the class of ``vec``; None if infinite."""
        vec = list(vec)
        if len(vec) != self.num_generators:
            raise AbelianError("element length != number of generators")
        s = self.smith
        w = row_vector_times(vec, s.v)
        d = s.d.diagonal()
        order = 1
        for j in range(self.num_generators):
            dj = d[j] if j < len(d) else 0
            if dj == 0:
                if w[j] != 0:
                    return None
            else:
                order = lcm(order, dj // gcd(dj, w[j]))
        return order

    def contains_zero(self, vec) -> bool:
        return self.element_order(vec) == 1

    def canonical_form_map(self):
        """Return (orders, to_canonical, from_canonical).

        ``orders`` lists cyclic orders (0 = infinite) of a canonical
        coordinate system; the two callables convert between generator
        coordinates and canonical coordinates.
        """
        s = self.smith
        d = s.d.diagonal()
        g = self.num_generators
        orders = [(d[j] if j < len(d) else 0) for j in range(g)]
        vinv = s.v.inverse_unimodular()

        def to_canonical(vec):
            w = row_vector_times(list(vec), s.v)
            return tuple(
                w[j] % orders[j] if orders[j] else w[j] for j in range(g)
            )

        def from_canonical(w):
            return row_vector_times(list(w), vinv)

        return orders, to_canonical, from_canonical


def group_from_presentation(relations: IntMatrix) -> FinAbGroup:
    d = smith_diagonal(relations.to_rows())
    g = relations.cols
    orders = [(d[j] if j < len(d) else 0) for j in range(g)]
    return FinAbGroup.from_factors(orders)


def subgroup_and_quotient(pres: Presentation, gens):
    """Subgroup generated by ``gens`` (coordinate vectors) and the quotient.

    Returns ``(subgroup, quotient)`` as canonical :class:`FinAbGroup` values.
    """
    gens = [list(g) for g in gens]
    g = pres.num_generators
    if any(len(x) != g for x in gens):
        raise AbelianError("generator vector length mismatch")
    gm = IntMatrix.from_rows(gens) if gens else IntMatrix(0, g, ())
    quotient = group_from_presentation(pres.relations.vstack(gm))
    # relations among the chosen generators modulo the ambient relations
    stacked = gm.vstack(pres.relations)
    ker = kernel_lattice(stacked)
    sub_rel = [row[: len(gens)] for row in ker]
    sub_relm = (
        IntMatrix.from_rows(sub_rel) if sub_rel else IntMatrix(0, len(gens), ())
    )
    subgroup = group_from_presentation(sub_relm)
    return subgroup, quotient


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism between presented groups, x |-> x @ matrix.

    Row i of ``matrix`` is the image (in target generator coordinates) of the
    i-th source generator.  Construction fails with
    :class:`IllDefinedHomError` unless every source relation maps into the
    target relation lattice.
    """

    source: Presentation
    target: Presentation
    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.rows != self.source.num_generators:
            raise AbelianError("matrix height != source generators")
        if self.matrix.cols != self.target.num_generators:
            raise AbelianError("matrix width != target generators")
        for i in range(self.source.relations.rows):
            r = list(self.source.relations.row(i))
            img = row_vector_times(r, self.matrix)
            if not self.target.contains_zero(img):
                raise IllDefinedHomError(i, tuple(r))

    def apply(self, vec) -> list[int]:
        return row_vector_times(list(vec), self.matrix)

    def kernel_vectors(self) -> list[list[int]]:
        """Generators (source coordinates) of the kernel subgroup."""
        stacked = self.matrix.vstack(self.target.relations)
        ker = kernel_lattice(stacked)
        return [row[: self.source.num_generators] for row in ker]

    def kernel(self) -> FinAbGroup:
        sub, _ = subgroup_and_quotient(self.source, self.kernel_vectors())
        return sub

    def image(self) -> FinAbGroup:
        rows = [list(self.matrix.row(i)) for i in range(self.matrix.rows)]
        sub, _ = subgroup_and_quotient(self.target, rows)
        return sub

    def cokernel(self) -> FinAbGroup:
        return group_from_presentation(self.target.relations.vstack(self.matrix))


def is_zero_hom(h: GroupHom) -> bool:
    return all(
        h.target.contains_zero(h.apply(row))
        for row in IntMatrix.identity(h.source.num_generators).to_rows()
    )


# ---------------------------------------------------------------------------
# Oracles used by the test-suite (kept here so they are importable, tiny)
# ---------------------------------------------------------------------------


def minor_gcds(m: IntMatrix) -> list[int]:
    """gcd of all k x k minors, k = 1..min(rows, cols); exact and independent
    of Smith normal form (used to cross-check d_1*...*d_k)."""
    n, c = m.rows, m.cols
    rows = m.to_rows()
    cache: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}

    def det(rsel: tuple[int, ...], csel: tuple[int, ...]) -> int:
        if len(rsel) == 1:
            return rows[rsel[0]][csel[0]]
        key = (rsel, csel)
        if key in cache:
            return cache[key]
        total = 0
        rest = rsel[1:]
        for idx, col in enumerate(csel):
            sub = det(rest, csel[:idx] + csel[idx + 1 :])
            term = rows[rsel[0]][col] * sub
            total += term if idx % 2 == 0 else -term
        cache[key] = total
        return total

    out = []
    for k in range(1, min(n, c) + 1):
        g = 0
        for rsel in itertools.combinations(range(n), k):
            for csel in itertools.combinations(range(c), k):
                g = gcd(g, det(rsel, csel))
        out.append(g)
    return out
