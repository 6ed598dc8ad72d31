import ast
import sys
from itertools import product
from pathlib import Path

import pytest

from cohomotopy import extensions
from cohomotopy.abelian import FinAbGroup, _primary_parts
from cohomotopy.extensions import (
    EhpInjectivity,
    ElementOrderLift,
    EnumerationBoundError,
    ExtensionError,
    ExtensionProblem,
    RelationFact,
    Retraction,
    UnresolvedExtensionError,
    apply_evidence,
    enumerate_middle_groups,
    ext_group,
    lr_positive,
    lr_support,
    partitions,
)

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (  # noqa: E402
    _ARROWS,
    _BLOCKS,
    _SHAPES,
    _subgroup_quotient_types_bruteforce,
    conjugate_partition,
    oracle_middle_groups,
    realizable,
    subgroup_quotient_types,
)
from test_acceptance import _all_abelian_groups_up_to  # noqa: E402


def G(*orders):
    return FinAbGroup.from_factors(orders)


class TestExtGroup:
    def test_basic_values(self):
        assert ext_group(G(0), G(4)) == G()
        assert ext_group(G(4), G(0)) == G(4)
        assert ext_group(G(4), G(6)) == G(2)
        assert ext_group(G(2, 2), G(4, 3)) == G(2, 2)


class TestPartitions:
    def test_count(self):
        assert len(list(partitions(6))) == 11
        assert list(partitions(0)) == [()]

    def test_conjugate(self):
        assert conjugate_partition((3, 1)) == (2, 1, 1)
        assert conjugate_partition(conjugate_partition((4, 2, 1))) == (4, 2, 1)
        assert conjugate_partition(()) == ()


class TestLRPositivity:
    def test_pieri_examples(self):
        assert lr_positive((2,), (1,), (1,))
        assert lr_positive((1, 1), (1,), (1,))
        assert not lr_positive((2, 1), (1,), (1,))  # weight mismatch
        assert lr_positive((2, 1), (1, 1), (1,))
        assert lr_positive((2, 1), (2,), (1,))
        assert not lr_positive((3,), (1, 1), (1,))  # mu not inside lam

    def test_containment_required(self):
        assert not lr_positive((2, 2), (3,), (1,))

    def test_symmetry_under_conjugation(self):
        for lam in partitions(5):
            for mu in partitions(3):
                for nu in partitions(2):
                    assert lr_positive(lam, mu, nu) == lr_positive(
                        conjugate_partition(lam),
                        conjugate_partition(mu),
                        conjugate_partition(nu),
                    )


def _lr_positive_reference(lam, mu, nu) -> bool:
    """Whether c^lam_{mu, nu} > 0, by exhaustive skew LR-tableau search of
    lam/mu, one search per lam; uncached, for the tests."""
    if sum(lam) != sum(mu) + sum(nu):
        return False
    mu_p = mu + (0,) * (len(lam) - len(mu))
    if len(mu) > len(lam) or any(m > l for m, l in zip(mu, lam)):
        return False
    if not nu:
        return lam == mu
    # cells of lam/mu in reading order: rows top to bottom, right to left
    cells = []
    for i, l in enumerate(lam):
        for j in range(l - 1, mu_p[i] - 1, -1):
            cells.append((i, j))
    grid: dict[tuple[int, int], int] = {}
    counts = [0] * (len(nu) + 1)

    def fill(idx: int) -> bool:
        if idx == len(cells):
            return True
        i, j = cells[idx]
        right = grid.get((i, j + 1))
        above = grid.get((i - 1, j))
        for v in range(1, len(nu) + 1):
            if counts[v] >= nu[v - 1]:
                continue
            if right is not None and v > right:
                continue
            if above is not None and v <= above:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue  # lattice word condition
            grid[(i, j)] = v
            counts[v] += 1
            found = fill(idx + 1)
            del grid[(i, j)]
            counts[v] -= 1
            if found:
                return True
        return False

    return fill(0)


def _lr_support_reference(mu, nu):
    return tuple(
        lam for lam in partitions(sum(mu) + sum(nu)) if _lr_positive_reference(lam, mu, nu)
    )


class TestLRSupport:
    def test_matches_the_per_lambda_search(self):
        # every key with |mu|, |nu| <= 6, criterion 5's range, in both orders
        keys = [(mu, nu) for m in range(7) for n in range(7)
                for mu in partitions(m) for nu in partitions(n)]
        assert len(keys) == 900
        for mu, nu in keys:
            assert lr_support(mu, nu) == _lr_support_reference(mu, nu), (mu, nu)

    def test_matches_at_the_enumeration_bound(self):
        # |mu| = |nu| = 10 reaches torsion order 2^20, DEFAULT_BOUND
        keys = [
            ((10,), (10,)),
            ((4, 3, 2, 1), (3, 3, 2, 1, 1)),
            ((1,) * 10, (2, 2, 2, 2, 2)),
            ((5, 3, 1, 1), (4, 2, 2, 1, 1)),
        ]
        for mu, nu in keys:
            assert lr_support(mu, nu) == _lr_support_reference(mu, nu), (mu, nu)

    def test_zero_padding_and_sequences(self):
        # c^(2)_{(1),(1)} = 1, however the partitions are written
        assert lr_positive((2,), (1, 0), (1,))
        assert lr_positive((2, 0), (1,), (1,))
        assert lr_positive([2], [1, 0, 0], [1])
        assert not lr_positive([2, 1], (1,), (1, 0))
        assert lr_support([1, 0], (1,)) == lr_support((1,), [1]) == ((2,), (1, 1))
        assert lr_support((), (0,)) == ((),)

    def test_a_clear_leaves_nothing_warm(self):
        # the enum benchmark clears lr_positive before each sweep; the
        # support memo and the p-part memo built on it must both empty, so
        # the next enumeration misses each
        parts = extensions._prime_parts
        enumerate_middle_groups(G(4, 2), G(2))
        assert lr_positive.cache_info().currsize > 0 and parts.cache_info().currsize > 0
        lr_positive.cache_clear()
        info = lr_positive.cache_info()
        assert info.currsize == 0 and info.misses == 0
        assert parts.cache_info().currsize == 0 and parts.cache_info().misses == 0
        enumerate_middle_groups(G(4, 2), G(2))
        assert lr_positive.cache_info().misses == 1 and parts.cache_info().misses == 1
        assert lr_positive((3, 1), (2, 1), (1,)) and lr_positive.cache_info().misses == 1
        # a second enumeration at the same (p, mu, nu) reads the p-part memo
        enumerate_middle_groups(G(4, 2, 3), G(2, 9))
        assert parts.cache_info().hits == 1 and lr_positive.cache_info().misses == 2

    def test_a_pair_and_its_mirror_share_one_p_part(self):
        # the p-parts are symmetric in the two types, so (A, C) and (C, A)
        # build them once, and the candidates are the same in the same order
        parts = extensions._prime_parts
        lr_positive.cache_clear()
        one = enumerate_middle_groups(G(4, 2), G(8))
        two = enumerate_middle_groups(G(8), G(4, 2))
        assert one.candidates == two.candidates
        assert parts.cache_info().misses == 1 and parts.cache_info().hits == 1


def _enumerate_reference(a, c):
    """The candidate tuple of one pair, built from scratch with no p-part
    memo: each prime's p-power lists read off the LR support, the i-th
    invariant factor the product of each prime's i-th largest power, sorted
    by (free rank, number of factors, factors)."""
    types = {}
    for side, g in enumerate((a, c)):
        for p, _, exps in _primary_parts(g.torsion):
            types.setdefault(p, [(), ()])[side] = exps
    per_prime = [
        [[p**e for e in lam] for lam in lr_support(mu, nu)] for p, (mu, nu) in types.items()
    ]
    results = []
    for combo in product(*per_prime):
        factors = [1] * max(map(len, combo), default=0)
        for qs in combo:
            for i, q in enumerate(qs):
                factors[i] *= q
        results.append(FinAbGroup(a.free_rank + c.free_rank, tuple(reversed(factors))))
    results.sort(key=lambda g: (g.free_rank, len(g.torsion), g.torsion))
    return tuple(results)


class TestEnumeration:
    def test_candidate_order_matches_the_per_pair_construction(self):
        # the order is part of the output: UnresolvedExtensionError lists
        # the candidates in it, and criterion 5 compares sets only
        groups = _all_abelian_groups_up_to(32)
        pairs = [(a, c) for a in groups for c in groups]
        pairs += [
            (G(0), G(2)),
            (G(0, 4), G(2, 2)),
            (G(0, 0, 12), G(0, 6)),
            (G(8, 9), G(0, 4, 3)),
            (G(0, 2, 2), G(0, 0)),
        ]
        assert len(pairs) == 55**2 + 5
        for a, c in pairs:
            assert enumerate_middle_groups(a, c).candidates == _enumerate_reference(a, c), (a, c)

    def test_z2_by_z2(self):
        cands = enumerate_middle_groups(G(2), G(2))
        assert set(cands.candidates) == {G(4), G(2, 2)}

    def test_free_rank_adds(self):
        cands = enumerate_middle_groups(G(0, 2), G(0))
        assert set(cands.candidates) == {G(0, 0, 2)}

    def test_mixed_primes_decompose(self):
        cands = enumerate_middle_groups(G(2, 3), G(2))
        assert set(cands.candidates) == {G(4, 3), G(2, 2, 3)}

    def test_bound(self):
        with pytest.raises(EnumerationBoundError):
            enumerate_middle_groups(G(2**11), G(2**11))

    def test_oracle_agreement_small(self):
        groups = [G(), G(2), G(4), G(2, 2), G(8), G(4, 2), G(2, 2, 2),
                  G(3), G(9), G(3, 3), G(6), G(12)]
        for a in groups:
            for c in groups:
                got = set(enumerate_middle_groups(a, c).candidates)
                assert got == oracle_middle_groups(a, c), (a, c)


class TestOracle:
    def test_pruned_search_matches_bruteforce(self):
        # every rank-minimised key (len(lam) <= lam[0]) with p^|lam| <= 256,
        # at each prime that divides an order <= 64 (criterion 5's range)
        primes = [p for p in range(2, 65) if all(p % d for d in range(2, p))]
        keys = [
            (p, lam)
            for p in primes
            for n in range(1, 9)
            if p**n <= 256
            for lam in partitions(n)
            if len(lam) <= lam[0]
        ]
        assert len(keys) == 71
        # criterion 5 reaches g = 6; a g = 5 key brute-forces in about
        # 0.3 s, the g = 6 key (6, 1, 1, 1, 1, 1) in about 12 s.  The keys
        # above reach g = 4 only at p = 2, so two p = 3 keys of rank 4
        # (about 0.1 s and 0.3 s) check the walk at an odd prime there
        keys += [(2, (5, 1, 1, 1, 1)), (3, (4, 1, 1, 1)), (3, (3, 2, 1, 1))]
        for p, lam in keys:
            # each order p^m searched alone holds exactly the pairs whose
            # subgroup has order p^m or, by duality, p^(|lam| - m)
            pairs = _subgroup_quotient_types_bruteforce(p, lam)
            n = sum(lam)
            for m in range(n // 2 + 1):
                want = {(mu, nu) for mu, nu in pairs if sum(mu) in (m, n - m)}
                assert subgroup_quotient_types(p, lam, m) == want, (p, lam, m)
        assert subgroup_quotient_types(2, (), 0) == _subgroup_quotient_types_bruteforce(2, ())

    def test_memos_live_as_long_as_the_cache(self):
        # a sweep that clears the cache starts cold: no searched order,
        # block form, arrow type or shape list outlives the clear
        key = (2, (3, 2, 1), 1)
        want = subgroup_quotient_types(*key)
        oracle_middle_groups(G(4, 2), G(2))
        subgroup_quotient_types.cache_clear()
        realizable.cache_clear()
        assert subgroup_quotient_types.cache_info().currsize == 0
        assert not _BLOCKS and not _ARROWS and not _SHAPES
        # one realizable query searches one order, the smaller one of its
        # pair: Z/2 in Z/8 + Z/4 + Z/2, with quotient Z/8 + Z/4
        assert realizable(2, (3, 2, 1), (1,), (3, 2))
        assert subgroup_quotient_types.cache_info().currsize == 1
        assert subgroup_quotient_types(*key) == want
        assert subgroup_quotient_types.cache_info()[:2] == (1, 1)  # hits, misses
        assert _BLOCKS and _ARROWS
        assert oracle_middle_groups(G(4, 2), G(2)) == {G(8, 2), G(4, 4), G(4, 2, 2)}
        assert _SHAPES == {(2, (2, 1), (1,)): [[8, 2], [4, 4], [4, 2, 2]]}

    def test_the_oracle_uses_none_of_the_enumerators_search(self):
        # criterion 5 trusts the enumerator because an independent search
        # agrees with it: the oracle may share partitions, but no name of
        # the Hall/Littlewood-Richardson search it checks
        enumerator = {
            "enumerate_middle_groups", "lr_support", "_lr_support", "_strips",
            "lr_positive", "_prime_parts", "_oriented_support",
        }
        tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {part for alias in node.names for part in alias.name.split(".")}
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
        assert "*" not in names
        assert not names & enumerator, names & enumerator


class TestApplyEvidence:
    def test_retraction_splits(self):
        problem = ExtensionProblem(
            sub=((4, "x"),), quot=((4, "y"),), context="t"
        )
        r = apply_evidence(problem, [Retraction(sections=(("y", "lift(y)"),))])
        assert r.group == G(4, 4)
        assert r.generators == ((4, "x"), (4, "lift(y)"))

    def test_retraction_default_names(self):
        problem = ExtensionProblem(sub=(), quot=((2, "y"),), context="t")
        r = apply_evidence(problem, [Retraction()])
        assert r.generators == ((2, "ext(y)"),)

    def test_order_lift_split(self):
        problem = ExtensionProblem(
            sub=((4, "a"),), quot=((2, "c"),), context="t"
        )
        r = apply_evidence(
            problem, [ElementOrderLift("L", 2, maps_to="c")]
        )
        assert r.group == G(4, 2)
        assert r.generators == ((4, "a"), (2, "L"))

    def test_relation_fact(self):
        # 0 -> Z/4{a} -> G -> Z/2{c} -> 0 with 2*L = a: L has order 8
        problem = ExtensionProblem(
            sub=((4, "a"),), quot=((2, "c"),), context="t"
        )
        r = apply_evidence(
            problem,
            [RelationFact("L", lift_of="c", multiplier=2, rhs="a")],
        )
        assert r.group == G(8)
        assert r.generators == ((8, "L"),)

    def test_relation_fact_with_rhs_mult_and_remainder(self):
        # 2*L = 2*a with a of order 4: L has order 4, Z/2 remainder survives
        problem = ExtensionProblem(
            sub=((4, "a"),), quot=((2, "c"),), context="t"
        )
        r = apply_evidence(
            problem,
            [RelationFact("L", lift_of="c", multiplier=2, rhs="a",
                          rhs_mult=2, remainder_name="R")],
        )
        assert r.group == G(4, 2)
        assert r.generators == ((4, "L"), (2, "R"))

    def test_relation_fact_on_a_larger_quotient_generator(self):
        # 4*L = 2*a with a and c of order 4: L has order 8, Z/2 remainder
        # survives
        problem = ExtensionProblem(sub=((4, "a"),), quot=((4, "c"),), context="t")
        r = apply_evidence(
            problem,
            [RelationFact("L", lift_of="c", multiplier=4, rhs="a",
                          rhs_mult=2, remainder_name="R")],
        )
        assert r.group == G(8, 2)
        assert r.generators == ((8, "L"), (2, "R"))

    def test_relation_fact_names_an_unnamed_remainder(self):
        # without a remainder-name, the Z/2 left of a is named for a
        problem = ExtensionProblem(sub=((4, "a"),), quot=((2, "c"),), context="t")
        r = apply_evidence(
            problem, [RelationFact("L", lift_of="c", multiplier=2, rhs="a", rhs_mult=2)]
        )
        assert r.generators == ((4, "L"), (2, "2-part(a)"))

    def test_relation_multiplier_must_match_order(self):
        problem = ExtensionProblem(
            sub=((4, "a"),), quot=((2, "c"),), context="t"
        )
        with pytest.raises(ExtensionError):
            apply_evidence(
                problem,
                [RelationFact("L", lift_of="c", multiplier=4, rhs="a")],
            )

    def test_coprime_auto_split(self):
        problem = ExtensionProblem(
            sub=((3, "a"),), quot=((2, "c"),), context="t"
        )
        r = apply_evidence(problem, [])
        assert r.group == G(6)
        assert r.generators == ((3, "a"), (2, "ext(c)"))

    def test_no_auto_split_onto_a_free_sub_factor(self):
        # Ext(Z/2, Z) = Z/2: G = Z is the other extension, so Z + Z/2 is a guess
        problem = ExtensionProblem(sub=((0, "z"),), quot=((2, "c"),), context="t")
        with pytest.raises(UnresolvedExtensionError, match="quotient generator.* c;"):
            apply_evidence(problem, [])

    def test_lift_of_a_free_quotient_generator_splits_off(self):
        problem = ExtensionProblem(
            sub=((3, "a"),), quot=((0, "b"), (2, "c")), context="t"
        )
        r = apply_evidence(problem, [])
        assert r.group == G(0, 6)
        assert r.generators == ((3, "a"), (0, "ext(b)"), (2, "ext(c)"))

    def test_unresolved_without_evidence(self):
        problem = ExtensionProblem(
            sub=((2, "a"),), quot=((2, "c"),), context="t"
        )
        with pytest.raises(UnresolvedExtensionError) as exc:
            apply_evidence(problem, [])
        assert set(exc.value.candidates) == {G(4), G(2, 2)}

    def test_inconsistent_lift_order(self):
        problem = ExtensionProblem(
            sub=((2, "a"),), quot=((2, "c"),), context="t"
        )
        with pytest.raises(ExtensionError):
            apply_evidence(problem, [ElementOrderLift("L", 3, maps_to="c")])

    def test_resolved_group_outside_candidates_names_the_item(self):
        # 2 x = 4 a with a of order 8 gives x order 4 and leaves Z/4 over:
        # Z/4 + Z/4 is no extension of Z/2 by Z/8, and the error names the
        # relation
        problem = ExtensionProblem(sub=((8, "a"),), quot=((2, "c"),), context="t")
        relation = RelationFact("x", lift_of="c", multiplier=2, rhs="a", rhs_mult=4)
        with pytest.raises(ExtensionError) as exc:
            apply_evidence(problem, [relation])
        assert not isinstance(exc.value, UnresolvedExtensionError)
        assert str(exc.value) == (
            "t: resolved group Z/4 + Z/4 from relation-fact 'x' is not among "
            "the enumerated candidates; candidates: Z/16, Z/2 + Z/8"
        )

    def test_infinite_lift(self):
        problem = ExtensionProblem(
            sub=((4, "a"),), quot=((0, "z"),), context="t"
        )
        r = apply_evidence(problem, [ElementOrderLift("L", 0, maps_to="z")])
        assert r.group == G(0, 4)
        assert (0, "L") in r.generators

    def test_ehp_item_is_not_consumed_here(self):
        # the solver itself ignores transport items; with nothing else the
        # problem stays unresolved
        problem = ExtensionProblem(
            sub=((2, "a"),), quot=((2, "c"),), context="t"
        )
        with pytest.raises(UnresolvedExtensionError):
            apply_evidence(problem, [EhpInjectivity(source_n=9)])

    @pytest.mark.parametrize(
        "evidence, match",
        [
            (
                [Retraction(cite="[A]"), Retraction(cite="[B]")],
                "retraction '\\[A\\]' settles the extension alone, but retraction '\\[B\\]'",
            ),
            (
                [Retraction(cite="[A]"), ElementOrderLift("L", 2, maps_to="c")],
                "but element-order-lift 'L' is given too",
            ),
            (
                [RelationFact("L", lift_of="c", multiplier=2, rhs="a"), Retraction()],
                "retraction settles .* relation-fact 'L'",
            ),
            (
                [
                    RelationFact("L", lift_of="c", multiplier=2, rhs="a"),
                    RelationFact("M", lift_of="c", multiplier=2, rhs="a"),
                ],
                "relation-fact 'M' and relation-fact 'L' both lift c",
            ),
            (
                [ElementOrderLift("L", 2, maps_to="c"), ElementOrderLift("M", 2, maps_to="c")],
                "element-order-lift 'M' and element-order-lift 'L' both lift c",
            ),
            (
                [
                    RelationFact("L", lift_of="c", multiplier=2, rhs="a"),
                    ElementOrderLift("M", 2, maps_to="c"),
                ],
                "element-order-lift 'M' and relation-fact 'L' both lift c",
            ),
            (
                [RelationFact("L", lift_of="x", multiplier=2, rhs="a")],
                "relation-fact 'L' names 'x', which is no quotient generator",
            ),
            (
                [ElementOrderLift("L", 2, maps_to="a")],
                "element-order-lift 'L' names 'a', which is no quotient generator",
            ),
            (
                [ElementOrderLift("L", 8, maps_to="c")],
                "lift L has order 8 incompatible with quotient generator c of order 2",
            ),
            (
                [RelationFact("L", lift_of="c", multiplier=2, rhs="a", remainder_name="R")],
                "relation-fact 'L' leaves no remainder of a, so its remainder-name 'R' is unused",
            ),
            (
                [RelationFact("L", lift_of="c", multiplier=2, rhs="z")],
                "relation-fact 'L' has rhs 'z' of infinite order, so its lift has no finite order",
            ),
            (
                [ElementOrderLift("L", 0, maps_to="c")],
                "lift L has order inf incompatible with quotient generator c of order 2",
            ),
            (
                [RelationFact("L", lift_of="c", multiplier=2, rhs="b")],
                "evidence references unknown generator 'b'",
            ),
        ],
    )
    def test_unconsumed_evidence_rejected(self, evidence, match):
        problem = ExtensionProblem(sub=((4, "a"), (0, "z")), quot=((2, "c"),), context="t")
        with pytest.raises(ExtensionError, match=match):
            apply_evidence(problem, evidence)

    def test_relation_fact_for_infinite_generator_rejected(self):
        problem = ExtensionProblem(sub=((4, "a"),), quot=((0, "c"),), context="t")
        with pytest.raises(ExtensionError, match="order inf of quotient generator c"):
            apply_evidence(problem, [RelationFact("L", lift_of="c", multiplier=2, rhs="a")])

    @pytest.mark.parametrize(
        "lift",
        [
            ElementOrderLift("L", 2, maps_to="c"),
            ElementOrderLift("L", 8, maps_to="c"),
        ],
    )
    def test_finite_claim_on_infinite_generator_rejected(self, lift):
        problem = ExtensionProblem(sub=((4, "a"),), quot=((0, "c"),), context="t")
        with pytest.raises(ExtensionError) as err:
            apply_evidence(problem, [lift])
        assert str(err.value) == (
            "t: element-order-lift 'L' lifts c, which has infinite order, so it takes order inf"
        )
