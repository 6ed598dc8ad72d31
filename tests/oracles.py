"""Independent oracle for extension-middle-group enumeration.

A finite abelian group G contains a subgroup isomorphic to A with quotient
isomorphic to C exactly when, at every prime p, the p-part of G contains a
subgroup of the right type with the right quotient type.  This oracle decides
that by exhaustive search: subgroups of Z^g / diag(p^lam) correspond one-to-one
to the full-rank sublattices L of Z^g containing M = diag(p^lam), and each L
has exactly one Hermite-normal-form basis: upper-triangular rows, row i with
p^a_i on the diagonal (a_i <= lam_i) and entries right of it reduced modulo
the diagonal entry of their column.  The subgroup L/M is Z^g modulo the
coordinates of M's rows in that basis, the quotient Z^g/L is Z^g modulo the
basis itself; both types are read off as p-adic valuations of the Smith
diagonal.

The bases are built bottom-up, row g-1 first.  Because the basis is upper
triangular, the coordinates x of p^lam_i e_i in it involve only rows
i..g-1.  Row i is (0, ..., 0, p^a_i, t_{i+1}, ..., t_{g-1}), so x_i =
p^(lam_i - a_i), and the other x_j are linear in x_i: those at a_i = lo + s
are those at the smallest allowed exponent lo divided by p^s.  The search
therefore walks the tail depth first, one entry t_j at a time, and solves
x_j at a_i = lo as soon as t_j is fixed.  Only the t_j that make x_j
integral are visited; when none does, no completion of the prefix and no
larger a_i lies over M, so the prefix is dropped.  At the end of a tail the
valid a_i are lo + s for every p^s dividing all x_j, up to the largest
exponent the target subgroup order allows (see below).  The search still visits every
basis of that order that lies over M exactly once.  The sums the solve
reads, the later columns of the rows fixed so far weighted by their
coordinates, are carried down the walk, one vector added per entry.
:func:`_subgroup_quotient_types_bruteforce` keeps the plain enumeration of
every basis, for the tests to compare against.

The search is by subgroup order: one search builds only the bases whose
subgroup order p^sum(lam_i - a_i) is exactly p^m.  Bottom-up, row i adds
lam_i - a_i to that exponent; it may add at most what the rows below row i
have left to reach m, and at least that less lam_0 + ... + lam_{i-1}, the
most rows 0..i-1 can add.  So each row's exponents form one interval, and
at row 0 the target leaves a single a_0.  Pontryagin duality halves the
layers: G ~ G^, and for a subgroup H the annihilator H^perp in G^
satisfies H^perp ~ (G/H)^ ~ G/H and G^/H^perp ~ H^ ~ H.  So when G has a
subgroup of type mu with quotient of type nu, it also has one of type nu
with quotient of type mu, of order |G|/|H|.  The search of order p^m
therefore records each pair both ways round, and so also answers for order
p^(|lam| - m): :func:`realizable` asks only for m = min(|mu|, |nu|), at
most floor(|lam|/2), and searches no other order.  This is elementary
duality, not Hall's theorem, which the enumerator implements, so the oracle
stays independent of it.

The leaves under one choice of rows 1..g-1 differ only in row 0, and
likewise the coordinate matrices only in their row 0 (column 0 of rows
1..g-1 is zero in both).  So each of the two shared blocks, rows 1..g-1
restricted to columns 1..g-1, is brought to Smith form U B V = diag(d) once
per parent.  With row 0 = (c, t), multiplying by diag(1, U) on the left and
diag(1, V) on the right, then reducing t V modulo d by the rows of diag(d),
leaves the arrow matrix [[c, t V mod d], [0, diag(d)]], of the same type as
the whole matrix.  Columns with d_j = 1 carry only zeros and are dropped.
For g = 1 the block is empty and the arrow is [[c]].  At row 0 the walk
carries t V and x V in place of t and x, adding t_j or x_j times row j of V
per entry (at rows i >= 1 V is the identity, so one walk serves every row),
and at its last entry it reads both residues t V mod d and x V mod d of
each leaf directly.  Block forms (by block rows) and arrow types (by p, c,
the residues and d) recur across parents and across the keys and orders of
the same prime, so both are memoised.

Since subgroup types are invariant under conjugating all three partitions,
each key is searched in whichever orientation has fewer generators, keeping
g small.  :func:`oracle_middle_groups` needs, at each prime p, the types
lam of the p-part of G over the types (mu, nu) of A and C at p; that list
recurs across pairs and is memoised per (p, mu, nu), with mu and nu
conjugated once per key.  :func:`subgroup_quotient_types` caches each
search per (p, lam, m), and the block, arrow and shape memos live exactly
as long as that cache: its ``cache_clear()`` empties all four, so a sweep
that clears it starts cold.
"""

from functools import lru_cache
from itertools import product
from math import gcd

from cohomotopy.abelian import (
    FinAbGroup,
    IntMatrix,
    _primary_parts,
    group_from_presentation,
    smith_diagonal,
    smith_normal_form,
)
from cohomotopy.extensions import partitions


def exponents_at(g, p) -> tuple[int, ...]:
    """Descending partition of the p-exponents of ``g`` (its 'type' at p)."""
    for q, _, exps in _primary_parts(g.torsion):
        if q == p:
            return exps
    return ()


def conjugate_partition(lam) -> tuple[int, ...]:
    lam = tuple(lam)
    if not lam:
        return ()
    return tuple(sum(1 for x in lam if x > j) for j in range(lam[0]))


_BLOCKS = {}  # block rows -> (rows of V, d); see the module docstring
_ARROWS = {}  # (p, corner, residues, d) -> type of the arrow matrix
_SHAPES = {}  # (p, mu, nu) -> the realizable lam, as lists of factors


def _block_form(block):
    """The Smith form U @ block @ V == diag(d) of a square block of rows,
    as the rows of V and the entries of d, keeping only the columns with
    d_j > 1 (a unit d_j reduces every residue to 0)."""
    form = _BLOCKS.get(block)
    if form is None:
        snf = smith_normal_form(IntMatrix.from_rows(block))
        d, v = snf.d.diagonal(), snf.v
        keep = [j for j, dj in enumerate(d) if dj > 1]
        form = (
            tuple(tuple(v[l, j] for j in keep) for l in range(v.rows)),
            tuple(d[j] for j in keep),
        )
        _BLOCKS[block] = form
    return form


def _arrow_type(p, corner, residues, d):
    """Type of the arrow matrix [[corner, residues], [0, diag(d)]]."""
    key = (p, corner, residues, d)
    t = _ARROWS.get(key)
    if t is None:
        k = len(d)
        rows = [[corner, *residues]]
        rows += [[0] * (j + 1) + [dj] + [0] * (k - j - 1) for j, dj in enumerate(d)]
        # every invariant factor is a power of p; the chain ascends
        t = tuple(_exponent(p, x) for x in reversed(smith_diagonal(rows)) if x > 1)
        _ARROWS[key] = t
    return t


def _exponent(p, q):
    e = 0
    while q > 1:
        q //= p
        e += 1
    return e


@lru_cache(maxsize=None)
def _subgroup_quotient_types(p, lam, m):
    g = len(lam)
    if not g:
        return frozenset({((), ())})
    room = [sum(lam[:i]) for i in range(g)]  # the most rows 0..i-1 can add
    rows = [None] * g  # rows[i]: basis row i
    coords = [None] * g  # coords[i]: p^lam_i e_i in the basis rows i..g-1
    out = set()

    def place(i, need):
        # need: m less sum(lam_j - a_j) over the rows j > i placed so far,
        # what rows 0..i must still add to the p-exponent of the subgroup
        # order; row i adds lam_i - a_i, at most need and at least
        # need - room[i], so a_i runs over lo .. lo + span
        lo = max(lam[i] - need, 0)
        span = min(lam[i], lam[i] - need + room[i]) - lo  # 0 at row 0
        top = p ** (lam[i] - lo)  # x_i at a_i = lo, its largest value
        p_lo = p**lo
        n = g - 1 - i  # tail entries t_{i+1..g-1}
        pivots = [rows[j][j] for j in range(i + 1, g)]
        right = [rows[j][j + 1 :] for j in range(i + 1, g)]
        if i:
            # carry the tail and the coordinates themselves
            row_map = coord_map = [tuple(int(j == k) for k in range(n)) for j in range(n)]
        else:
            # rows and coords 1..g-1 are shared by every leaf below here
            row_map, row_d = _block_form(tuple(r[1:] for r in rows[1:]))
            coord_map, coord_d = _block_form(tuple(x[1:] for x in coords[1:]))

        def record(row_res, coord_res):
            # a_0 = lo, the one exponent that meets the target
            out.add((_arrow_type(p, top, coord_res, coord_d), _arrow_type(p, p_lo, row_res, row_d)))

        def walk(k, acc, r, w):
            # t_{i+1..i+k} are fixed, and so x_{i+1..i+k} (at x_i = top):
            # acc holds columns i+k+1.. of sum x_j rows[j] over those j,
            # and r = t @ row_map and w = x @ coord_map over them
            if k == n:
                if not i:  # g = 1; a longer row 0 records at its last entry
                    record((), ())
                    return
                # w = x here: a_i = lo + s keeps every x_j / p^s integral
                # exactly for p^s dividing gcd(top, x_{i+1..g-1})
                gcd_x = gcd(top, *w)
                s, ps = 0, 1
                while s <= span and ps <= gcd_x:
                    rows[i] = (0,) * i + (p_lo * ps, *r)
                    # exact: ps divides every x_j, so x_j // ps = x_j / ps
                    coords[i] = (0,) * i + (top // ps, *(x // ps for x in w))
                    place(i - 1, need - lam[i] + lo + s)
                    s, ps = s + 1, ps * p
                return
            d, c = pivots[k], acc[0]
            # x = -(c + top t) / d is integral exactly for the t = -c/q mod
            # d/q, q = gcd(top, d), when q divides c; else for no t, and
            # then no completion of this prefix lies over M
            q = min(top, d)
            if c % q:
                return
            step = d // q
            if not i and k == n - 1:
                # the last entry of row 0: read each leaf's types here
                rm, cm = row_map[k], coord_map[k]
                for t in range(-(c // q) % step, d, step):
                    x = -(c + top * t) // d
                    record(
                        tuple((u + t * e) % dj for u, e, dj in zip(r, rm, row_d)),
                        tuple((u + x * e) % dj for u, e, dj in zip(w, cm, coord_d)),
                    )
                return
            for t in range(-(c // q) % step, d, step):
                x = -(c + top * t) // d
                walk(
                    k + 1,
                    [u + x * e for u, e in zip(acc[1:], right[k])],
                    [u + t * e for u, e in zip(r, row_map[k])],
                    [u + x * e for u, e in zip(w, coord_map[k])],
                )

        # zip trims r and w to the width of their maps at the first step
        zeros = [0] * n
        walk(0, zeros, zeros, zeros)

    place(g - 1, m)
    return frozenset(out | {(nu, mu) for mu, nu in out})


def subgroup_quotient_types(p, lam, m):
    """All (subgroup type, quotient type) pairs realized inside the abelian
    p-group of type ``lam`` (a descending partition) whose subgroup has
    order p^m or p^(|lam| - m), for 0 <= m <= |lam|.  Cached per (p, lam,
    m), with the ``cache_info()`` of that cache; ``cache_clear()`` also
    empties the block, arrow and shape memos."""
    return _subgroup_quotient_types(p, tuple(lam), m)


def _cache_clear():
    _subgroup_quotient_types.cache_clear()
    _BLOCKS.clear()
    _ARROWS.clear()
    _SHAPES.clear()


subgroup_quotient_types.cache_info = _subgroup_quotient_types.cache_info
subgroup_quotient_types.cache_clear = _cache_clear


def _solve_rows_over(h_rows, lam, p):
    """Coordinates of diag(p^lam) in the basis ``h_rows`` (upper triangular),
    or None when the diagonal lattice is not contained in it."""
    g = len(lam)
    coords = []
    for i in range(g):
        v = [p ** lam[i] if j == i else 0 for j in range(g)]
        x = [0] * g
        for j in range(g):
            rem = v[j] - sum(x[l] * h_rows[l][j] for l in range(j))
            if rem % h_rows[j][j] != 0:
                return None
            x[j] = rem // h_rows[j][j]
        coords.append(x)
    return coords


def _type_of(rows, p):
    g = group_from_presentation(rows, len(rows))
    return exponents_at(g, p)


def _subgroup_quotient_types_bruteforce(p, lam):
    """:func:`subgroup_quotient_types` by building every HNF basis in full,
    then testing it; uncached, for the tests."""
    lam = tuple(lam)
    if not lam:
        return frozenset({((), ())})
    g = len(lam)
    out = set()
    diag_choices = [[p**a for a in range(e + 1)] for e in lam]
    for diag in product(*diag_choices):
        # upper-triangular HNF rows: row i has diag[i] at i, free entries right
        free = [(i, j) for i in range(g) for j in range(i + 1, g)]
        for combo in product(*[range(diag[j]) for _, j in free]):
            rows = [[diag[i] if j == i else 0 for j in range(g)] for i in range(g)]
            for (i, j), v in zip(free, combo):
                rows[i][j] = v
            coords = _solve_rows_over(rows, lam, p)
            if coords is None:
                continue
            out.add((_type_of(coords, p), _type_of(rows, p)))
    return frozenset(out)


@lru_cache(maxsize=None)
def realizable(p, lam, mu, nu):
    """Whether the p-group of type ``lam`` has a subgroup of type ``mu`` with
    quotient of type ``nu``.  It searches only the subgroups of order
    p^min(|mu|, |nu|), which by duality answer either way round.
    :func:`_shapes` asks it in the orientation of fewer generators."""
    return (mu, nu) in subgroup_quotient_types(p, lam, min(sum(mu), sum(nu)))


def _shapes(p, mu, nu):
    """The factor lists [p^e for e in lam] of every lam realizable over a
    subgroup of type ``mu`` with quotient of type ``nu``, memoised."""
    shapes = _SHAPES.get((p, mu, nu))
    if shapes is None:
        flipped = conjugate_partition(mu), conjugate_partition(nu)
        shapes = _SHAPES[p, mu, nu] = [
            [p**e for e in lam]
            for lam in partitions(sum(mu) + sum(nu))
            if (
                realizable(p, lam, mu, nu)
                if len(lam) <= lam[0]
                else realizable(p, conjugate_partition(lam), *flipped)
            )
        ]
    return shapes


def oracle_middle_groups(a, c):
    """All middle groups of 0 -> A -> G -> C -> 0 for finite A, C, as a set
    of FinAbGroup values, by exhaustive subgroup search."""
    assert not a.free_rank and not c.free_rank
    per_prime = [
        _shapes(p, exponents_at(a, p), exponents_at(c, p))
        for p in a.primary_decomposition().keys() | c.primary_decomposition().keys()
    ]
    return {
        FinAbGroup.from_factors([f for fs in combo for f in fs])
        for combo in product(*per_prime)
    }
