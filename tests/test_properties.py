"""Randomized property checks for the exact linear algebra (seeded)."""

import random
from math import gcd

from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form

from cohomotopy.abelian import (
    FinAbGroup,
    GroupHom,
    IntMatrix,
    Presentation,
    group_from_presentation,
    minor_gcds,
    smith_diagonal,
    smith_normal_form,
    subgroup_and_quotient,
)

SNF_TRIALS = 1000
ISO_TRIALS = 500
PRESENTATION_TRIALS = 500


def random_matrix(rng, rows, cols, lo=-30, hi=30):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


class TestSmithProperties:
    def test_randomized_snf(self):
        rng = random.Random(20260824)
        for _ in range(SNF_TRIALS):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 5)
            m = random_matrix(rng, rows, cols)
            s = smith_normal_form(m)
            # certificate: u @ m @ v == d with unimodular u, v
            assert s.check(m)
            assert s.u.is_unimodular() and s.v.is_unimodular()
            diag = s.d.diagonal()
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0 if a else b == 0
            # minor-gcd identity: d_1 ... d_i = gcd of i x i minors
            gcds = minor_gcds(m)
            prod = 1
            for i, d in enumerate(diag):
                prod *= d
                assert gcds[i] == abs(prod)
            # the transform-free diagonal is the same, and agrees with an
            # independent implementation up to the signs of its entries
            assert smith_diagonal(m.to_rows()) == diag
            assert [abs(x) for x in sympy_diagonal(m)] == diag

    def test_smith_diagonal_edge_cases(self):
        assert smith_diagonal([]) == []
        assert smith_diagonal([[], []]) == []
        assert smith_diagonal([[0, 0, 0], [0, 0, 0]]) == [0, 0]
        assert smith_diagonal([[-7]]) == [7]
        for rows in ([[0, 0, 0], [0, 0, 0]], [[-7]], [[0, -4], [6, 0], [0, 0]]):
            assert smith_diagonal(rows) == smith_normal_form(IntMatrix.from_rows(rows)).d.diagonal()


def sympy_diagonal(m):
    """Diagonal of sympy's Smith normal form of ``m``, over the integers."""
    d = sympy_smith_normal_form(Matrix(m.to_rows()), domain=ZZ)
    return [int(d[i, i]) for i in range(min(m.rows, m.cols))]


def random_hom(rng):
    """A well-defined random homomorphism between random finite groups."""
    src_orders = [rng.choice([2, 3, 4, 6, 8, 9, 12]) for _ in range(rng.randint(1, 3))]
    tgt_orders = [rng.choice([2, 3, 4, 6, 8, 9, 12]) for _ in range(rng.randint(1, 3))]
    rows = []
    for o in src_orders:
        row = []
        for t in tgt_orders:
            step = t // gcd(t, o)  # o * (step * x) is 0 mod t for any x
            row.append(step * rng.randint(0, t // step))
        rows.append(row)
    src = Presentation.from_orders(src_orders)
    tgt = Presentation.from_orders(tgt_orders)
    return GroupHom(src, tgt, IntMatrix.from_rows(rows))


class TestFirstIsomorphism:
    def test_randomized_source_mod_kernel_is_image(self):
        rng = random.Random(6_28_1900)
        for _ in range(ISO_TRIALS):
            h = random_hom(rng)
            kernel = h.kernel()
            image = h.image()
            _, quotient = subgroup_and_quotient(h.source, h.kernel_vectors())
            assert quotient == image
            assert kernel.order() * image.order() == h.source.group().order()


def unimodular_shuffle(rng, m, passes=6):
    rows = [list(r) for r in m.to_rows()]
    cols = m.cols
    for _ in range(passes):
        op = rng.randrange(3)
        if op == 0 and len(rows) >= 2:  # add multiple of one row to another
            i, j = rng.sample(range(len(rows)), 2)
            c = rng.randint(-3, 3)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif op == 1 and cols >= 2:  # column operation (change of generators)
            i, j = rng.sample(range(cols), 2)
            c = rng.randint(-3, 3)
            for row in rows:
                row[i] += c * row[j]
        else:  # negate a row
            if rows:
                i = rng.randrange(len(rows))
                rows[i] = [-a for a in rows[i]]
    return IntMatrix.from_rows(rows)


class TestPresentationInvariance:
    def test_randomized_unimodular_invariance(self):
        rng = random.Random(1742)
        for _ in range(PRESENTATION_TRIALS):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = random_matrix(rng, rows, cols, -12, 12)
            g = group_from_presentation(m)
            # row/column unimodular operations preserve the group
            assert group_from_presentation(unimodular_shuffle(rng, m)) == g
            # redundant relations (integer combinations) change nothing
            coeffs = [rng.randint(-2, 2) for _ in range(rows)]
            combo = [
                sum(coeffs[i] * m[i, j] for i in range(rows)) for j in range(cols)
            ]
            extended = m.vstack(IntMatrix.from_rows([combo]))
            assert group_from_presentation(extended) == g

    def test_canonical_form_is_complete_invariant(self):
        rng = random.Random(99)
        for _ in range(100):
            orders = [rng.choice([0, 2, 3, 4, 8, 9]) for _ in range(rng.randint(1, 4))]
            rng_orders = list(orders)
            rng.shuffle(rng_orders)
            assert FinAbGroup.from_factors(orders) == FinAbGroup.from_factors(rng_orders)
