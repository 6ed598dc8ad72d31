"""Exact arithmetic for finitely generated abelian groups.

Everything here works over arbitrary-precision integers.  The central tool is
Smith normal form; on top of it sit canonical forms for finitely generated
abelian groups, presentations (sums of cyclic groups, given by their orders),
homomorphisms given by integer rows with their kernel and image, and direct
sums.

Conventions:

* Matrices are tuples or lists of integer rows and act on row vectors: an
  element of a presented group with g generators is a length-g integer row
  vector, and a homomorphism with rows M sends x to x @ M.
* Relation rows (r rows of length g) present Z^g modulo their row span.
* smith_normal_form(m) returns (u, d, v) with u @ m @ v == d, u and v
  unimodular, d diagonal with d[0] | d[1] | ... and nonnegative entries.
  Pivot choice is deterministic: smallest nonzero absolute value, ties broken
  by lowest (row, col).  The pivot's column and then its row are cleared in
  one pass each: an entry the pivot divides by subtracting a multiple of the
  pivot's row or column, any other by a unimodular 2 x 2 Bezout step that
  leaves their gcd at the pivot (Kannan and Bachem, SIAM J. Comput. 8(4),
  1979).  Its input and certificate are :class:`IntMatrix`.

>>> s = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
>>> s.d.diagonal()
[2, 4]
>>> group_from_presentation([[2, 4], [6, 8]], 2)
FinAbGroup(free_rank=0, torsion=(2, 4))
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import chain
from math import gcd, lcm, prod

from .record import record, set_field


class AbelianError(Exception):
    """Base class for errors raised by this module."""


class IllDefinedHomError(AbelianError):
    """A homomorphism sends source generator ``index``, of finite ``order``,
    to an element whose order ``image_order`` (None: infinite) does not
    divide it."""

    def __init__(self, index: int, order: int, image_order: int | None):
        self.index = index
        self.order = order
        self.image_order = image_order
        super().__init__(
            f"image of generator #{index} has order {image_order}, not a divisor of {order}"
        )


# ---------------------------------------------------------------------------
# Integer matrices
# ---------------------------------------------------------------------------


# The value classes of this module write out their __init__:
# smith_normal_form builds IntMatrix and SmithDecomposition on each call, and
# every product path builds FinAbGroup.  Only FinAbGroup, which those paths
# also compare and hash, writes out its __eq__ and __hash__.


@record
class IntMatrix:
    """Immutable integer matrix, row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]):
        set_field(self, "rows", rows)
        set_field(self, "cols", cols)
        set_field(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise AbelianError("ragged rows")
        flat = tuple(int(x) for r in rows for x in r)
        return cls(n, m, flat)

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

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


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@record
class SmithDecomposition:
    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    def __init__(self, u: IntMatrix, d: IntMatrix, v: IntMatrix):
        set_field(self, "u", u)
        set_field(self, "d", d)
        set_field(self, "v", v)


def _bezout(p, x):
    """(g, s, u) with s * p + u * x == g == gcd(p, x), for p > 0."""
    s, s1, u, u1 = 1, 0, 0, 1
    while x:
        q = p // x
        p, x = x, p - q * x
        s, s1 = s1, s - q * s1
        u, u1 = u1, u - q * u1
    if p < 0:
        return -p, -s, -u
    return p, s, u


def _eliminate(a, n, c) -> None:
    """Bring the top-left ``n x c`` block of ``a`` (a list of lists) to Smith
    normal form in place.

    Deterministic pivoting: among nonzero entries of the active block the one
    with the smallest absolute value is chosen, ties broken by the lowest
    (row, col) pair.  Row operations act on whole rows ``0..n-1``; column
    operations act on the columns ``< c`` of every row of ``a``.  So columns
    beyond ``c`` of the first ``n`` rows record the row transform, and rows
    beyond ``n`` record the column transform.

    The pivot p's column, then its row, is cleared in one pass each.  An
    entry the pivot divides is cleared by subtracting a multiple of the
    pivot's row (column).  Any other entry x is cleared by the unimodular
    2 x 2 Bezout step that puts g = gcd(p, x) = s p + u x at the pivot and 0
    at x, so the pivot shrinks to a proper divisor of itself.  A Bezout step
    on the columns can refill the pivot's column below the pivot; from then
    on the exact column steps of that pass update those rows too, and the
    column and row are cleared once more.  Last, if the pivot does not
    divide some entry of the remaining block, that entry's row is added to
    the pivot's row and the step starts over with a fresh pivot scan.
    """
    below = a[n:]
    k = min(n, c)
    w = len(a[0]) if a else 0
    t = 0
    while t < k:
        # pivot: smallest |value| in a[t:n][t:c]; scanning in (row, col) order
        # and replacing only on a strictly smaller value keeps the lowest pair,
        # so the scan may stop after the row where it first finds a 1
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
            if best == 1:
                break
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
        rest = below
        while True:
            # clear column t; columns < t of rows >= t are zero already
            for i in range(t + 1, n):
                row = a[i]
                x = row[t]
                if x:
                    if x % p:
                        g, s, u = _bezout(p, x)
                        xg, pg = x // g, p // g
                        pivot_row = [s * y + u * z for y, z in zip(top, row)]
                        a[i] = [pg * z - xg * y for y, z in zip(top, row)]
                        top = a[t] = pivot_row
                        p = g
                    else:
                        q = x // p
                        for j in range(t, w):
                            row[j] -= q * top[j]
            # clear row t; column t of the block is zero off the pivot until
            # a Bezout step refills it, so until then an exact column step
            # only changes top[j] and the rows beyond n
            for j in range(t + 1, c):
                y = top[j]
                if y:
                    if y % p:
                        g, s, u = _bezout(p, y)
                        yg, pg = y // g, p // g
                        for i in range(t, len(a)):
                            row = a[i]
                            x, z = row[t], row[j]
                            row[t] = s * x + u * z
                            row[j] = pg * z - yg * x
                        p = g
                        rest = a[t + 1 :]
                    else:
                        q = y // p
                        for row in rest:
                            row[j] -= q * row[t]
                        top[j] = 0
            if rest is below:
                break
            # a Bezout column step may have refilled column t
            rest = below
        # enforce divisibility: pivot must divide the remaining block
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
            for j in range(t, w):
                top[j] += fix[j]
            continue
        t += 1


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforms: u @ m @ v == d.

    Runs :func:`_eliminate` on ``m`` bordered by ``I_n`` on the right (each
    row carries its row of ``u``) and by ``I_c`` below (those rows become
    ``v``).
    """
    n, c = m.rows, m.cols
    entries = m.entries
    a = []
    for i in range(n):
        row = list(entries[i * c : (i + 1) * c])
        row += [0] * n
        row[c + i] = 1
        a.append(row)
    for i in range(c):
        row = [0] * c
        row[i] = 1
        a.append(row)
    _eliminate(a, n, c)
    upper = a[:n]
    u = IntMatrix(n, n, tuple(chain.from_iterable(row[c:] for row in upper)))
    d = IntMatrix(n, c, tuple(chain.from_iterable(row[:c] for row in upper)))
    v = IntMatrix(c, c, tuple(chain.from_iterable(a[n:])))
    return SmithDecomposition(u, d, v)


def smith_diagonal(rows) -> list[int]:
    """The diagonal of the Smith normal form of ``rows`` (a list of equal-length
    integer rows): ``min(rows, cols)`` nonnegative invariant factors.

    The elimination of :func:`smith_normal_form` on the matrix alone: no
    transforms are tracked and no :class:`IntMatrix` is built, so it is the
    cheap entry point when only the group's type is wanted.

    >>> smith_diagonal([[2, 4], [6, 8]])
    [2, 4]
    """
    a = [list(r) for r in rows]
    n = len(a)
    c = len(a[0]) if a else 0
    for row in a:
        if len(row) != c:
            raise AbelianError("ragged rows")
    _eliminate(a, n, c)
    return [a[i][i] for i in range(min(n, c))]


def kernel_lattice(rows, width: int) -> list[list[int]]:
    """Basis (rows) of { x in Z^len(rows) : x @ rows == 0 }, for ``rows`` of
    length ``width``.

    Runs :func:`_eliminate` on ``rows`` bordered by the identity on the right
    only, so each row carries its row of the transform u and no column
    transform is tracked; the rows that end up zero left of the border are
    the basis.

    >>> kernel_lattice([[2, 0], [0, 3], [2, 3]], 2)
    [[-1, -1, 1]]
    """
    n = len(rows)
    if any(len(row) != width for row in rows):
        raise AbelianError("ragged rows")
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    _eliminate(a, n, width)
    return [row[width:] for row in a if not any(row[:width])]


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------


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


def _primary_exponents(orders) -> dict[int, tuple[int, ...]]:
    """Map prime -> descending p-exponents of the cyclic orders ``orders``
    (nonnegative; 0 and 1 contribute nothing), primes ascending."""
    exps: dict[int, list[int]] = {}
    for d in orders:
        for p, e in _factorint(d).items():
            exps.setdefault(p, []).append(e)
    return {p: tuple(sorted(exps[p], reverse=True)) for p in sorted(exps)}


# Groups are immutable values, so each canonical group is built once and
# shared, and so is the primary decomposition of each torsion chain.  Every
# memo is bounded (an evicted entry is rebuilt on its next use) and sized
# above the working set of one sweep over all pairs of groups of order <= 64.
# ``cache_clear()`` on each of them starts cold.
MEMO_SIZE = 2**13


@lru_cache(maxsize=MEMO_SIZE)
def _interned(free_rank: int, torsion: tuple[int, ...]) -> "FinAbGroup":
    """The one shared :class:`FinAbGroup` with these fields."""
    return FinAbGroup(free_rank, torsion)


def _group_from_primary_powers(free_rank: int, powers) -> "FinAbGroup":
    """The shared group Z^free_rank + the primary cyclic factors ``powers``,
    one sequence per prime, each holding that prime's powers in descending
    order (other orders make a non-chain, which raises :class:`AbelianError`).
    The i-th largest invariant factor is the product of the i-th largest
    power of each prime, so one prime's powers are the factors reversed."""
    if len(powers) == 1:
        return _interned(free_rank, tuple(reversed(powers[0])))
    factors = [1] * max(map(len, powers), default=0)
    for qs in powers:
        for i, q in enumerate(qs):
            factors[i] *= q
    factors.reverse()
    return _interned(free_rank, tuple(factors))


@lru_cache(maxsize=MEMO_SIZE)
def _canonical_group(orders: tuple[int, ...]) -> "FinAbGroup":
    """Memo of :meth:`FinAbGroup.from_factors`, keyed by the sorted absolute
    cyclic orders."""
    powers = [[p**e for e in es] for p, es in _primary_exponents(orders).items()]
    return _group_from_primary_powers(orders.count(0), powers)


@lru_cache(maxsize=MEMO_SIZE)
def _primary_parts(torsion: tuple[int, ...]):
    """``(p, p-power orders, p-exponents)`` for each prime of ``torsion``,
    primes ascending, both tuples descending."""
    return tuple(
        (p, tuple(p**e for e in es), es) for p, es in _primary_exponents(torsion).items()
    )


@record
class FinAbGroup:
    """Finitely generated abelian group in canonical form.

    ``free_rank`` copies of Z plus cyclic factors ``torsion`` forming an
    ascending divisibility chain (each >= 2).  Structural equality of two
    canonical forms is exactly isomorphism.
    """

    free_rank: int
    torsion: tuple[int, ...]

    def __init__(self, free_rank: int, torsion: tuple[int, ...]):
        if free_rank < 0:
            raise AbelianError("negative free rank")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise AbelianError(f"torsion {torsion} is not a divisor chain")
        if any(t < 2 for t in torsion):
            raise AbelianError("torsion coefficients must be >= 2")
        set_field(self, "free_rank", free_rank)
        set_field(self, "torsion", torsion)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.free_rank, self.torsion) == (other.free_rank, other.torsion)
        return NotImplemented

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    @classmethod
    def from_factors(cls, orders) -> "FinAbGroup":
        """Build from arbitrary cyclic orders (0 means an infinite factor, a
        negative order counts as its absolute value).  Isomorphic inputs,
        such as ``[6]`` and ``[3, 2]``, give the one shared group."""
        return _canonical_group(tuple(sorted(abs(int(x)) for x in orders)))

    @classmethod
    def trivial(cls) -> "FinAbGroup":
        return _interned(0, ())

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def order(self):
        """Group order, or None if infinite."""
        if self.free_rank:
            return None
        return prod(self.torsion)

    def direct_sum(self, other: "FinAbGroup") -> "FinAbGroup":
        return FinAbGroup.from_factors(
            [0] * (self.free_rank + other.free_rank)
            + list(self.torsion)
            + list(other.torsion)
        )

    def primary_decomposition(self) -> dict[int, tuple[int, ...]]:
        """Map prime -> descending tuple of p-power cyclic orders; a new dict
        on every call."""
        return {p: powers for p, powers, _ in _primary_parts(self.torsion)}

    def odd_part(self) -> "FinAbGroup":
        return FinAbGroup.from_factors(
            [q for p, powers, _ in _primary_parts(self.torsion) if p != 2 for q in powers]
        )

    def exponents_at(self, p: int) -> tuple[int, ...]:
        """Descending partition of p-exponents (the 'type' at p)."""
        for q, _, exps in _primary_parts(self.torsion):
            if q == p:
                return exps
        return ()

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


_GROUP_TERM = re.compile(r"Z(?:\^([0-9]+)|/([0-9]+))?")


@lru_cache(maxsize=MEMO_SIZE)
def parse_group(text: str) -> FinAbGroup:
    """Inverse of :func:`render_group` (accepts any term order): ``0``, or
    terms ``Z``, ``Z^r`` and ``Z/n`` (n >= 2) joined by ``+``.  Memoised by
    ``text``; a text that fails to parse raises again on every call."""
    text = text.strip()
    if text == "0":
        return FinAbGroup.trivial()
    orders = []
    for term in text.split("+"):
        term = term.strip()
        m = _GROUP_TERM.fullmatch(term)
        if not m:
            raise AbelianError(f"cannot parse group term {term!r}")
        rank, n = m.groups()
        if n is None:
            orders.extend([0] * int(rank or 1))
        elif int(n) < 2:
            raise AbelianError(f"bad torsion coefficient in {term!r}")
        else:
            orders.append(int(n))
    return FinAbGroup.from_factors(orders)


# ---------------------------------------------------------------------------
# Presentations and elements
# ---------------------------------------------------------------------------


@record
class Presentation:
    """Z^num_generators modulo ``orders[i]`` times the i-th generator: a sum of
    cyclic groups, where order 0 means a copy of Z."""

    orders: tuple[int, ...]

    def __init__(self, orders: tuple[int, ...]):
        set_field(self, "orders", orders)

    @classmethod
    def from_orders(cls, orders) -> "Presentation":
        """Order 0 means an infinite generator."""
        return cls(tuple(orders))

    @property
    def num_generators(self) -> int:
        return len(self.orders)

    def relations(self) -> list[list[int]]:
        """The diagonal relation rows, one per finite-order generator."""
        g = self.num_generators
        return [[o if i == j else 0 for j in range(g)] for i, o in enumerate(self.orders) if o]

    def group(self) -> FinAbGroup:
        return FinAbGroup.from_factors(self.orders)

    def element_order(self, vec):
        """Order of the class of ``vec``; None if infinite."""
        vec = list(vec)
        if len(vec) != self.num_generators:
            raise AbelianError("element length != number of generators")
        order = 1
        for o, x in zip(self.orders, vec):
            if o:
                order = lcm(order, o // gcd(o, x))
            elif x:
                return None
        return order

    def reduce(self, vec) -> tuple[int, ...]:
        """Coordinates of ``vec`` reduced modulo the orders: two vectors reduce
        to the same tuple iff they represent the same element."""
        return tuple(x % o if o else x for x, o in zip(vec, self.orders))


def group_from_presentation(relations, g: int) -> FinAbGroup:
    """Z^g modulo the span of ``relations``, rows of length ``g``."""
    d = smith_diagonal(relations)
    return FinAbGroup.from_factors(d + [0] * (g - len(d)))


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------


@record
class GroupHom:
    """Homomorphism between presented groups, x |-> x @ matrix.

    ``matrix`` is a tuple of integer rows: row i is the image (in target
    generator coordinates) of the i-th source generator.  Construction fails
    with :class:`IllDefinedHomError` unless every source relation maps into
    the target relation lattice, that is unless the image of each
    finite-order source generator has an order dividing the generator's.

    Kernel and image are read off one lattice, L = {x in Z^g : x @ matrix
    lies in the target relations} (:meth:`kernel_vectors`), which contains
    the source relations: ker = L / (source relations) and im = Z^g / L.
    """

    source: Presentation
    target: Presentation
    matrix: tuple[tuple[int, ...], ...]

    def __init__(self, source: Presentation, target: Presentation, matrix):
        matrix = tuple(tuple(row) for row in matrix)
        if len(matrix) != source.num_generators:
            raise AbelianError("matrix height != source generators")
        if any(len(row) != target.num_generators for row in matrix):
            raise AbelianError("matrix width != target generators")
        for i, (order, row) in enumerate(zip(source.orders, matrix)):
            if order:
                im = target.element_order(row)
                if im is None or order % im:
                    raise IllDefinedHomError(i, order, im)
        set_field(self, "source", source)
        set_field(self, "target", target)
        set_field(self, "matrix", matrix)

    def apply(self, vec) -> list[int]:
        vec = list(vec)
        if len(vec) != len(self.matrix):
            raise AbelianError("dimension mismatch in vector-matrix product")
        return [
            sum(x * row[j] for x, row in zip(vec, self.matrix))
            for j in range(self.target.num_generators)
        ]

    def kernel_vectors(self) -> list[list[int]]:
        """A basis (rows, source coordinates) of the lattice L of vectors that
        the matrix sends into the target relations."""
        rows = list(self.matrix) + self.target.relations()
        g = self.source.num_generators
        return [row[:g] for row in kernel_lattice(rows, self.target.num_generators)]

    def kernel(self) -> FinAbGroup:
        """ker h = L / (source relations): the relations among the basis of L
        that hold modulo the source relations present it."""
        basis = self.kernel_vectors()
        k = len(basis)
        relations = kernel_lattice(basis + self.source.relations(), self.source.num_generators)
        return group_from_presentation([row[:k] for row in relations], k)

    def image(self) -> FinAbGroup:
        """im h = Z^g / L, for g source generators."""
        return group_from_presentation(self.kernel_vectors(), self.source.num_generators)
