from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomotopy import abelian, database
from cohomotopy.abelian import (
    AbelianError,
    FinAbGroup,
    GroupHom,
    IllDefinedHomError,
    IntMatrix,
    Presentation,
    group_from_presentation,
    kernel_lattice,
    parse_group,
    render_group,
    smith_diagonal,
    smith_normal_form,
)
from cohomotopy.extensions import lr_positive, partitions
from cohomotopy.symbols import families_of
from test_properties import check_against_brute_force, identity, is_certificate, minor_gcds


def is_zero_hom(h: GroupHom) -> bool:
    return all(
        h.target.element_order(h.apply(row)) == 1
        for row in identity(h.source.num_generators).to_rows()
    )


class TestIntMatrix:
    def test_matmul_identity(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert m @ identity(2) == m

    def test_det_bareiss(self):
        m = IntMatrix.from_rows([[2, 3, 1], [4, 1, -3], [0, 5, 2]])
        # expansion by hand: 2*(2+15) - 3*(8-0) + 1*(20-0)
        assert m.det() == 2 * 17 - 3 * 8 + 1 * 20


class TestSmithNormalForm:
    def test_diagonal_and_certificate(self):
        m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        s = smith_normal_form(m)
        assert is_certificate(s, m)
        diag = s.d.diagonal()
        assert diag == [2, 2, 156]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0

    def test_zero_matrix(self):
        m = IntMatrix(2, 3, (0,) * 6)
        s = smith_normal_form(m)
        assert is_certificate(s, m)
        assert s.d.diagonal() == [0, 0]

    @pytest.mark.parametrize("rows, cols", [(0, 3), (2, 0)])
    def test_empty_shapes(self, rows, cols):
        m = IntMatrix(rows, cols, ())
        s = smith_normal_form(m)
        assert s.u == identity(rows)
        assert s.v == identity(cols)
        assert s.d == m
        assert is_certificate(s, m)

    def test_smith_diagonal_rejects_ragged_rows(self):
        with pytest.raises(AbelianError):
            smith_diagonal([[1, 2], [3]])

    def test_minor_gcd_identity(self):
        m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        diag = smith_normal_form(m).d.diagonal()
        gcds = minor_gcds(m)
        prod = 1
        for i, d in enumerate(diag):
            prod *= d
            assert gcds[i] == abs(prod)

    def test_kernel_lattice(self):
        ker = kernel_lattice([[2, 0], [0, 3], [2, 3]], 2)
        assert len(ker) == 1
        x = ker[0]
        assert [x[0] * 2 + x[2] * 2, x[1] * 3 + x[2] * 3] == [0, 0]


class TestFinAbGroup:
    def test_invariant_factor_chain(self):
        g = FinAbGroup.from_factors([8, 2, 9, 3, 3, 5])
        assert g.torsion == (3, 6, 360)
        assert g.order() == 6480

    def test_equality_is_isomorphism(self):
        assert FinAbGroup.from_factors([2, 3]) == FinAbGroup.from_factors([6])
        assert FinAbGroup.from_factors([4]) != FinAbGroup.from_factors([2, 2])

    def test_primary_decomposition(self):
        g = FinAbGroup.from_factors([8, 2, 9, 3, 5])
        assert g.primary_decomposition() == {2: (8, 2), 3: (9, 3), 5: (5,)}
        assert g.odd_part() == FinAbGroup.from_factors([9, 3, 5])
        assert g.exponents_at(2) == (3, 1)

    def test_render_parse_roundtrip(self):
        for orders in ([], [0], [0, 0, 2, 4], [6], [2, 2, 2]):
            g = FinAbGroup.from_factors(orders)
            assert parse_group(render_group(g)) == g

    @pytest.mark.parametrize("text", ["Z/1", "Z/x", "Q", "Z^ 2", "Z/ 2", "Z/8 +", ""])
    def test_parse_rejects(self, text):
        with pytest.raises(AbelianError):
            parse_group(text)

    def test_rejects_bad_chain(self):
        with pytest.raises(AbelianError):
            FinAbGroup(0, (4, 2))
        with pytest.raises(AbelianError):
            FinAbGroup(-1, ())


def _smith_element_order(p: Presentation, vec):
    """Order of ``vec`` in ``p``, read in the basis of the Smith normal form
    of its relation rows: the general algorithm, kept as the reference."""
    rows = p.relations()
    s = smith_normal_form(
        IntMatrix.from_rows(rows) if rows else IntMatrix(0, p.num_generators, ())
    )
    w = [sum(x * s.v[k, j] for k, x in enumerate(vec)) for j in range(s.v.cols)]
    d = s.d.diagonal()
    order = 1
    for j, wj in enumerate(w):
        dj = d[j] if j < len(d) else 0
        if dj == 0:
            if wj != 0:
                return None
        else:
            order = lcm(order, dj // gcd(dj, wj))
    return order


class TestPresentation:
    def test_element_order(self):
        p = Presentation.from_orders([8, 2])
        assert p.element_order([1, 0]) == 8
        assert p.element_order([2, 0]) == 4
        assert p.element_order([0, 0]) == 1
        assert p.element_order([8, 2]) == 1

    def test_infinite_order(self):
        p = Presentation.from_orders([0, 2])
        assert p.element_order([1, 0]) is None
        assert p.element_order([0, 1]) == 2

    def test_canonical_form_roundtrip(self):
        # reduced coordinates agree exactly on vectors of the same class, also
        # when the orders are not a divisor chain
        p = Presentation.from_orders([2, 6, 0, 1])
        assert p.group() == group_from_presentation(p.relations(), p.num_generators)
        grid = [[a, b, c, d] for a in (0, 1, 2) for b in (-6, 0, 1, 5, 7)
                for c in (-1, 0, 1) for d in (0, 1)]
        for x in grid:
            for y in grid:
                diff = [a - b for a, b in zip(x, y)]
                assert (p.reduce(x) == p.reduce(y)) == (p.element_order(diff) == 1)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0, 1]) | st.integers(2, 36), max_size=5), st.data())
    def test_element_order_matches_smith(self, orders, data):
        vec = st.lists(st.integers(-50, 50), min_size=len(orders), max_size=len(orders))
        x, y = data.draw(vec), data.draw(vec)
        p = Presentation.from_orders(orders)
        assert p.element_order(x) == _smith_element_order(p, x)
        diff = [a - b for a, b in zip(x, y)]
        assert (p.reduce(x) == p.reduce(y)) == (p.element_order(diff) == 1)


class TestGroupHom:
    def test_well_defined_required(self):
        src = Presentation.from_orders([2])
        tgt = Presentation.from_orders([4])
        with pytest.raises(IllDefinedHomError):
            GroupHom(src, tgt, [[1]])
        GroupHom(src, tgt, [[2]])  # fine
        # the first generator, in source order, whose image order fails
        src = Presentation.from_orders([0, 4, 2])
        with pytest.raises(IllDefinedHomError, match=r"generator #2 has order 4, not a divisor of 2$"):
            GroupHom(src, tgt, [[1], [1], [1]])

    def test_kernel_and_image(self):
        src = Presentation.from_orders([8, 2])
        tgt = Presentation.from_orders([2, 2])
        h = GroupHom(src, tgt, [[1, 0], [0, 1]])
        assert h.kernel() == FinAbGroup.from_factors([4])
        assert h.image() == FinAbGroup.from_factors([2, 2])

    def test_first_isomorphism_small(self):
        src = Presentation.from_orders([12])
        tgt = Presentation.from_orders([8])
        h = GroupHom(src, tgt, [[2]])
        # image = <2> in Z/8 = Z/4, kernel = <3> in Z/12 = Z/4... no:
        # 12*2 = 24 = 0 mod 8; x*2 = 0 mod 8 iff x = 0 mod 4 -> kernel Z/3
        assert h.image() == FinAbGroup.from_factors([4])
        assert h.kernel() == FinAbGroup.from_factors([3])
        check_against_brute_force(h)

    def test_zero_hom(self):
        src = Presentation.from_orders([2])
        tgt = Presentation.from_orders([4])
        assert is_zero_hom(GroupHom(src, tgt, [[0]]))
        assert not is_zero_hom(GroupHom(src, tgt, [[2]]))


def _partitions_reference(n, max_part=None):
    """The plain recursive generator that ``partitions`` memoises."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_reference(n - first, first):
            yield (first,) + rest


class TestMemos:
    MEMOS = (
        abelian._interned,
        abelian._canonical_group,
        abelian._primary_parts,
        parse_group,
        partitions,
        lr_positive,
        database._parse_block,
        families_of,
    )

    def test_from_factors_shares_one_group(self):
        g = FinAbGroup.from_factors([6])
        assert FinAbGroup.from_factors([3, 2]) is g
        assert FinAbGroup.from_factors([2, 3, 1]) is g
        assert FinAbGroup.from_factors((-6,)) is g
        h = FinAbGroup.from_factors([0, 4, 2, 3])
        assert FinAbGroup.from_factors([3, 0, 2, 4]) is h
        assert FinAbGroup.from_factors([12, 2, 0]) is h
        assert parse_group("Z + Z/2 + Z/12") is h
        assert FinAbGroup.trivial() is FinAbGroup.from_factors([1, 1])

    def test_primary_decomposition_is_a_fresh_dict(self):
        g = FinAbGroup.from_factors([8, 2, 9, 3, 5])
        dec = g.primary_decomposition()
        dec[2] = (2,)
        dec.pop(3)
        dec[7] = (7,)
        assert g.primary_decomposition() == {2: (8, 2), 3: (9, 3), 5: (5,)}
        assert g.exponents_at(2) == (3, 1) and g.exponents_at(7) == ()
        assert g.odd_part() == FinAbGroup.from_factors([9, 3, 5])

    def test_parse_errors_are_not_cached(self):
        for _ in range(2):
            with pytest.raises(AbelianError, match="bad torsion coefficient"):
                parse_group("Z/1")

    def test_every_memo_is_bounded(self):
        for memo in self.MEMOS:
            maxsize = memo.cache_info().maxsize
            assert maxsize is not None and 0 < maxsize < float("inf")

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.just(0), st.integers(1, 72)), max_size=6))
    def test_from_factors_matches_diagonal_presentation(self, orders):
        g = len(orders)
        diag = [[orders[i] if i == j else 0 for j in range(g)] for i in range(g)]
        group = FinAbGroup.from_factors(orders)
        assert group == group_from_presentation(diag, g)
        # and against the Smith diagonal itself, which skips from_factors
        d = smith_diagonal(diag)
        assert (group.free_rank, group.torsion) == (d.count(0), tuple(x for x in d if x > 1))

    def test_partitions_match_the_generator(self):
        for n in range(13):
            assert partitions(n) == tuple(_partitions_reference(n))
            for max_part in range(n + 2):
                assert partitions(n, max_part) == tuple(_partitions_reference(n, max_part))
