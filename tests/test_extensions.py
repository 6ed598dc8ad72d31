import sys
from pathlib import Path

import pytest

from cohomotopy.abelian import FinAbGroup
from cohomotopy.extensions import (
    EhpInjectivity,
    ElementOrderLift,
    EnumerationBoundError,
    ExtensionError,
    ExtensionProblem,
    ExternalFact,
    RelationFact,
    Retraction,
    UnresolvedExtensionError,
    apply_evidence,
    enumerate_middle_groups,
    ext_group,
    lr_positive,
    partitions,
)

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (  # noqa: E402
    _SMITH_TYPES,
    _subgroup_quotient_types_bruteforce,
    conjugate_partition,
    oracle_middle_groups,
    subgroup_quotient_types,
)


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


class TestEnumeration:
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
        for p, lam in keys:
            want = _subgroup_quotient_types_bruteforce(p, lam)
            assert subgroup_quotient_types(p, lam) == want, (p, lam)
        assert subgroup_quotient_types(2, ()) == _subgroup_quotient_types_bruteforce(2, ())

    def test_smith_type_memo_lives_as_long_as_the_cache(self):
        # a sweep that clears the cache starts cold: nothing outlives the clear
        key = (2, (3, 2, 1))
        want = subgroup_quotient_types(*key)
        subgroup_quotient_types.cache_clear()
        assert subgroup_quotient_types.cache_info().currsize == 0
        assert not _SMITH_TYPES
        assert subgroup_quotient_types(*key) == want
        assert subgroup_quotient_types.cache_info().currsize == 1
        assert _SMITH_TYPES


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

    def test_order_lift_fuse(self):
        problem = ExtensionProblem(
            sub=((4, "a"),), quot=((2, "c"),), context="t"
        )
        r = apply_evidence(
            problem, [ElementOrderLift("L", 8, maps_to="c", absorbs="a")]
        )
        assert r.group == G(8)
        assert r.generators == ((8, "L"),)

    def test_order_lift_fuse_with_remainder(self):
        problem = ExtensionProblem(
            sub=((4, "a"),), quot=((4, "c"),), context="t"
        )
        r = apply_evidence(
            problem,
            [ElementOrderLift("L", 8, maps_to="c", absorbs="a", remainder_name="R")],
        )
        assert r.group == G(8, 2)
        assert r.generators == ((8, "L"), (2, "R"))

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

    def test_relation_multiplier_must_match_order(self):
        problem = ExtensionProblem(
            sub=((4, "a"),), quot=((2, "c"),), context="t"
        )
        with pytest.raises(ExtensionError):
            apply_evidence(
                problem,
                [RelationFact("L", lift_of="c", multiplier=4, rhs="a")],
            )

    def test_external_fact(self):
        problem = ExtensionProblem(
            sub=((2, "a"),), quot=((2, "c"),), context="t"
        )
        r = apply_evidence(
            problem, [ExternalFact(factors=((4, "g"),))]
        )
        assert r.group == G(4)

    def test_coprime_auto_split(self):
        problem = ExtensionProblem(
            sub=((3, "a"),), quot=((2, "c"),), context="t"
        )
        r = apply_evidence(problem, [])
        assert r.group == G(6)
        assert r.generators == ((3, "a"), (2, "ext(c)"))

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

    def test_claimed_group_outside_candidates(self):
        problem = ExtensionProblem(
            sub=((2, "a"),), quot=((2, "c"),), context="t"
        )
        with pytest.raises(ExtensionError):
            apply_evidence(problem, [ExternalFact(factors=((8, "g"),))])

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
                [ExternalFact(((8, "L"),), cite="[A]"), ExternalFact(((8, "M"),), cite="[B]")],
                "external-fact '\\[A\\]' settles the extension alone, but external-fact '\\[B\\]'",
            ),
            (
                [Retraction(cite="[A]"), Retraction(cite="[B]")],
                "retraction '\\[A\\]' settles .* retraction '\\[B\\]'",
            ),
            (
                [ExternalFact(((8, "L"),), cite="[A]"), ElementOrderLift("L", 2, maps_to="c")],
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
                [ElementOrderLift("L", 2, maps_to="c", remainder_name="R")],
                "'L' has the order of c, so it splits off and takes no absorbs or remainder-name",
            ),
            ([ElementOrderLift("L", 2, maps_to="c", absorbs="a")], "'L' has the order of c"),
            (
                [ElementOrderLift("L", 8, maps_to="c", absorbs="a", remainder_name="R")],
                "'L' leaves no remainder of a, so its remainder-name 'R' is unused",
            ),
            (
                [RelationFact("L", lift_of="c", multiplier=2, rhs="a", remainder_name="R")],
                "relation-fact 'L' leaves no remainder of a, so its remainder-name 'R' is unused",
            ),
            (
                [RelationFact("L", lift_of="c", multiplier=2, rhs="z")],
                "relation-fact 'L' has rhs 'z' of infinite order, so its lift has no finite order",
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
            ElementOrderLift("L", 0, maps_to="c", absorbs="a"),
            ElementOrderLift("L", 8, maps_to="c", absorbs="a"),
        ],
    )
    def test_finite_claim_on_infinite_generator_rejected(self, lift):
        problem = ExtensionProblem(sub=((4, "a"),), quot=((0, "c"),), context="t")
        with pytest.raises(
            ExtensionError, match="element-order-lift 'L' lifts c, which has infinite order"
        ):
            apply_evidence(problem, [lift])
