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
triangular, the coordinates of p^lam_i e_i in it involve only rows i..g-1, so
they are solved as soon as row i is fixed.  When they are not integral, L does
not contain M for any choice of rows 0..i-1, so dropping that prefix discards
no basis that lies over M: the search still visits every such basis exactly
once.  :func:`_subgroup_quotient_types_bruteforce` keeps the plain
enumeration of every basis, for the tests to compare against.

Only half of the subgroups are searched.  Pontryagin duality gives G ~ G^,
and for a subgroup H the annihilator H^perp in G^ satisfies H^perp ~ (G/H)^
~ G/H and G^/H^perp ~ H^ ~ H.  So when G has a subgroup of type mu with
quotient of type nu, it also has one of type nu with quotient of type mu,
of order |G|/|H|.  Every subgroup of order above p^floor(|lam|/2) is
therefore the annihilator of one of order at most p^floor(|lam|/2) with the
two types swapped: the search builds only the bases whose subgroup order
p^sum(lam_i - a_i) is at most that bound (pruned bottom-up, as the partial
sum over rows i..g-1 only grows) and records each pair both ways round.
This is elementary duality, not Hall's theorem, which the enumerator
implements, so the oracle stays independent of it.

Many bases and coordinate matrices recur, within one key and across keys of
the same prime, so their types are memoised by (p, rows).  The memo lives
exactly as long as the cache of :func:`subgroup_quotient_types`: its
``cache_clear()`` empties both, so a sweep that clears it starts cold.

Since subgroup types are invariant under conjugating all three partitions,
each query is first conjugated to whichever orientation has fewer generators,
keeping g small.
"""

from functools import lru_cache, reduce
from itertools import product

from cohomotopy.abelian import group_from_presentation, smith_diagonal

def conjugate_partition(lam) -> tuple[int, ...]:
    lam = tuple(lam)
    if not lam:
        return ()
    return tuple(sum(1 for x in lam if x > j) for j in range(lam[0]))


_SMITH_TYPES = {}  # (p, rows) -> type of Z^g modulo rows; see the module docstring


@lru_cache(maxsize=None)
def _subgroup_quotient_types(p, lam):
    g = len(lam)
    half = sum(lam) // 2
    exponent = {p**e: e for e in range(sum(lam) + 1)}

    def type_of(rows):
        key = (p, tuple(rows))
        t = _SMITH_TYPES.get(key)
        if t is None:
            # every invariant factor divides p^|lam|; the chain ascends
            t = tuple(exponent[d] for d in reversed(smith_diagonal(rows)) if d > 1)
            _SMITH_TYPES[key] = t
        return t

    rows = [None] * g  # rows[i]: basis row i
    coords = [None] * g  # coords[i]: p^lam_i e_i in the basis rows i..g-1
    out = set()

    def place(i, sub_exp):
        # sub_exp: sum(lam_j - a_j) over the rows j > i placed so far, the
        # p-exponent of the subgroup order they account for
        if i < 0:
            mu, nu = type_of(coords), type_of(rows)
            out.add((mu, nu))
            out.add((nu, mu))
            return
        pivots = [rows[j][j] for j in range(i + 1, g)]
        for a in range(max(lam[i] - (half - sub_exp), 0), lam[i] + 1):
            for tail in product(*map(range, pivots)):
                row = (0,) * i + (p**a, *tail)
                x = [0] * i + [p ** (lam[i] - a)]
                for j in range(i + 1, g):
                    s = x[i] * row[j] + sum(x[l] * rows[l][j] for l in range(i + 1, j))
                    if s % rows[j][j]:
                        break
                    x.append(-s // rows[j][j])
                else:
                    rows[i], coords[i] = row, tuple(x)
                    place(i - 1, sub_exp + lam[i] - a)

    place(g - 1, 0)
    return frozenset(out)


def subgroup_quotient_types(p, lam):
    """All (subgroup type, quotient type) pairs realized inside the abelian
    p-group of type ``lam`` (a descending partition).  Cached, with the
    ``cache_info()`` of that cache; ``cache_clear()`` also empties the
    Smith-type memo."""
    return _subgroup_quotient_types(p, tuple(lam))


def _cache_clear():
    _subgroup_quotient_types.cache_clear()
    _SMITH_TYPES.clear()


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
    return g.exponents_at(p)


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
    quotient of type ``nu`` (conjugating first to minimize the rank)."""
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    if sum(lam) != sum(mu) + sum(nu):
        return False
    if lam and len(lam) > lam[0]:
        lam, mu, nu = (
            conjugate_partition(lam),
            conjugate_partition(mu),
            conjugate_partition(nu),
        )
    return (mu, nu) in subgroup_quotient_types(p, lam)


def oracle_middle_groups(a, c):
    """All middle groups of 0 -> A -> G -> C -> 0 for finite A, C, as a set
    of FinAbGroup values, by exhaustive subgroup search."""
    from cohomotopy.abelian import FinAbGroup
    from cohomotopy.extensions import partitions

    assert a.is_finite() and c.is_finite()
    per_prime = []
    for p in sorted(a.primary_decomposition().keys() | c.primary_decomposition().keys()):
        mu, nu = a.exponents_at(p), c.exponents_at(p)
        shapes = [
            lam
            for lam in partitions(sum(mu) + sum(nu))
            if realizable(p, lam, mu, nu)
        ]
        per_prime.append([[p ** e for e in lam] for lam in shapes])
    results = set()
    for combo in product(*per_prime) if per_prime else [()]:
        factors = reduce(lambda acc, fs: acc + fs, combo, [])
        results.add(FinAbGroup.from_factors(factors))
    return results
