"""Randomized property checks for the exact linear algebra (seeded)."""

import itertools
import random
from collections import Counter
from math import gcd

from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form

from cohomotopy.abelian import (
    FinAbGroup,
    GroupHom,
    IntMatrix,
    Presentation,
    group_from_presentation,
    smith_diagonal,
    smith_normal_form,
)
from cohomotopy.gottlieb import _classes_up_to_sign


def identity(n: int) -> IntMatrix:
    return IntMatrix(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))


def is_certificate(s, m: IntMatrix) -> bool:
    """Whether the decomposition ``s`` of ``m`` has u @ m @ v == d with u
    and v unimodular."""
    return s.u @ m @ s.v == s.d and s.u.is_unimodular() and s.v.is_unimodular()


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
            assert is_certificate(s, m)
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


def random_hom(rng, infinite=False):
    """A well-defined random homomorphism from a random finite group; with
    ``infinite`` the target gains a copy of Z that every generator maps to 0,
    so the target is infinite and the image is not."""
    src_orders = [rng.choice([2, 3, 4, 6, 8, 9, 12]) for _ in range(rng.randint(1, 3))]
    tgt_orders = [rng.choice([2, 3, 4, 6, 8, 9, 12]) for _ in range(rng.randint(1, 3))]
    rows = []
    for o in src_orders:
        row = []
        for t in tgt_orders:
            step = t // gcd(t, o)  # o * (step * x) is 0 mod t for any x
            row.append(step * rng.randint(0, t // step))
        rows.append(row + [0] * int(infinite))
    src = Presentation.from_orders(src_orders)
    tgt = Presentation.from_orders(tgt_orders + [0] * int(infinite))
    return GroupHom(src, tgt, rows)


def order_profile(orders, elements):
    """How many of ``elements`` (coordinate vectors over cyclic ``orders``)
    have each order."""
    pres = Presentation.from_orders(orders)
    return Counter(pres.element_order(x) for x in elements)


def check_against_brute_force(h):
    """Kernel, image and the +- class count of ``h`` (finite source) against
    a run over every source element: the image as a set of reduced target
    vectors, its size and element orders, the kernel's size and the image
    elements up to sign."""
    image, kernel_size = set(), 0
    for x in itertools.product(*(range(o) for o in h.source.orders)):
        y = h.target.reduce(h.apply(x))
        image.add(y)
        kernel_size += h.target.element_order(y) == 1
    im = h.image()
    assert im.order() == len(image)
    assert order_profile(h.target.orders, image) == order_profile(
        im.torsion, itertools.product(*(range(t) for t in im.torsion))
    )
    assert h.kernel().order() == kernel_size
    signs = {min(y, h.target.reduce([-c for c in y])) for y in image}
    assert _classes_up_to_sign(im) == len(signs)


class TestFirstIsomorphism:
    def test_randomized_source_mod_kernel_is_image(self):
        rng = random.Random(6_28_1900)
        for trial in range(ISO_TRIALS):
            h = random_hom(rng, infinite=trial % 3 == 2)
            check_against_brute_force(h)
            assert h.kernel().order() * h.image().order() == h.source.group().order()


def unimodular_shuffle(rng, m, cols, passes=6):
    rows = [list(r) for r in m]
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
    return rows


class TestPresentationInvariance:
    def test_randomized_unimodular_invariance(self):
        rng = random.Random(1742)
        for _ in range(PRESENTATION_TRIALS):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = random_matrix(rng, rows, cols, -12, 12).to_rows()
            g = group_from_presentation(m, cols)
            # row/column unimodular operations preserve the group
            assert group_from_presentation(unimodular_shuffle(rng, m, cols), cols) == g
            # redundant relations (integer combinations) change nothing
            coeffs = [rng.randint(-2, 2) for _ in range(rows)]
            combo = [
                sum(coeffs[i] * m[i][j] for i in range(rows)) for j in range(cols)
            ]
            assert group_from_presentation(m + [combo], cols) == g

    def test_canonical_form_is_complete_invariant(self):
        rng = random.Random(99)
        for _ in range(100):
            orders = [rng.choice([0, 2, 3, 4, 8, 9]) for _ in range(rng.randint(1, 4))]
            rng_orders = list(orders)
            rng.shuffle(rng_orders)
            assert FinAbGroup.from_factors(orders) == FinAbGroup.from_factors(rng_orders)
