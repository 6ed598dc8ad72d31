"""Acceptance gate: one test per criterion, each ending in a clear pass line."""

import sys
import time
from itertools import product
from pathlib import Path

from cohomotopy.abelian import FinAbGroup, parse_group
from cohomotopy.database import loads_db, validate_db
from cohomotopy.extensions import enumerate_middle_groups, partitions
from cohomotopy.gottlieb import gottlieb_group, whitehead_hom
from cohomotopy.pipeline import check_components, compute_group, mapping_space_pi, verify_all

sys.path.insert(0, str(Path(__file__).parent))
from oracles import oracle_middle_groups, realizable, subgroup_quotient_types  # noqa: E402


def G(text):
    return parse_group(text)


# --------------------------------------------------------------------------
# Criterion 1: the three golden bracket tables, exactly, in under 60 seconds
# --------------------------------------------------------------------------

BRACKET_TABLES = {
    6: {
        2: "Z/2 + Z/3 + Z/5",
        3: "Z/2 + Z/3",
        4: "Z/8 + Z/2 + Z/3 + Z/3 + Z/5",
        5: "Z/4 + Z/9",
        6: "Z/4 + Z/4 + Z/9 + Z/3",
        7: "Z/4 + Z/3",
        8: "Z/4 + Z/4 + Z/3 + Z/3",
        9: "Z/4 + Z/3",
        10: "Z/2 + Z/3",
        11: "Z/2 + Z/3",
        12: "Z/3",
        15: "Z/3",  # stable range
    },
    7: {
        2: "Z/2 + Z/3",
        3: "Z/2 + Z/2 + Z/3 + Z/7",
        4: "Z/4 + Z/2 + Z/2 + Z/2 + Z/3 + Z/7",
        5: "Z/4 + Z/2 + Z/2 + Z/9 + Z/7",
        6: "Z/4 + Z/2 + Z/2 + Z/9 + Z/7",
        7: "Z/8 + Z/2 + Z/2 + Z/9 + Z/7",
        8: "Z/8 + Z/2 + Z/2 + Z/9 + Z/7",
        9: "Z/8 + Z/2 + Z/2 + Z/9 + Z/7",
        10: "Z + Z/8 + Z/2 + Z/9 + Z/7",
        11: "Z/8 + Z/2 + Z/9 + Z/7",
        12: "Z + Z/8 + Z/2 + Z/9 + Z/7",
        13: "Z/8 + Z/2 + Z/9 + Z/7",
        16: "Z/8 + Z/2 + Z/9 + Z/7",  # stable range
    },
    8: {
        2: "Z/2 + Z/2 + Z/3 + Z/7",
        3: "Z/2 + Z/3",
        4: "Z/8 + Z/2 + Z/3 + Z/3",
        5: "Z/4 + Z/9",
        6: "Z/8 + Z/4 + Z/9 + Z/3 + Z/5",
        7: "Z/8 + Z/3",
        8: "Z/8 + Z/8 + Z/3 + Z/3",
        9: "Z/8 + Z/3",
        10: "Z/8 + Z/2 + Z/3 + Z/3",
        11: "Z/2 + Z/2 + Z/3",
        12: "Z/2 + Z/3",
        13: "Z/2 + Z/3",
        14: "Z/3",
        17: "Z/3",  # stable range
    },
}


def test_criterion_1_golden_tables(db):
    start = time.monotonic()
    for k, table in BRACKET_TABLES.items():
        for n, expected in table.items():
            row = compute_group(db, k, n)
            assert row.group == G(expected), f"k={k} n={n}: {row.group}"
    results = [r for r in verify_all(db) if r.family == "bracket"]
    assert all(r.passed() for r in results)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"full table run took {elapsed:.1f}s"
    cells = sum(len(t) for t in BRACKET_TABLES.values())
    print(f"PASS criterion 1: {cells} golden table cells reproduced in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# Criterion 2: the ten mapping-space homotopy groups
# --------------------------------------------------------------------------

MAPSPACE_GROUPS = {
    4: "Z/4 + Z/3",
    5: "0",
    6: "Z/4 + Z/3",
    7: "Z/2",
    8: "Z/4 + Z/3 + Z/5",
    9: "Z/4",
    10: "Z/2 + Z/4 + Z/3 + Z/5",
    11: "Z/4 + Z/9",
    12: "Z/4 + Z/2 + Z/2 + Z/9 + Z/7",
    13: "Z/4 + Z/9",
}


def test_criterion_2_mapping_space_suite(db):
    for n, expected in MAPSPACE_GROUPS.items():
        row = mapping_space_pi(db, n)
        assert row.group == G(expected), f"pi_{n}: {row.group}"
    print("PASS criterion 2: pi_4..pi_13 of the self-mapping space all match")


# --------------------------------------------------------------------------
# Criterion 3: Gottlieb subgroups for n = 1..8
# --------------------------------------------------------------------------

GOTTLIEB_GROUPS = {
    1: "Z",
    2: "Z/2 + Z/3",
    3: "Z + Z/2",
    4: "Z/4 + Z/3",
    5: "Z/2",
    6: "Z/4 + Z/3",
    7: "0",
    8: "Z/2 + Z/3",
}


def test_criterion_3_gottlieb_suite(db):
    for n, expected in GOTTLIEB_GROUPS.items():
        assert gottlieb_group(whitehead_hom(db, n)) == G(expected), f"G_{n}"
    # the n=3 subgroup sits with index 6 (the pairing image has order 6)
    assert whitehead_hom(db, 3).image().order() == 6
    assert gottlieb_group(whitehead_hom(db, 7)).is_trivial()
    print("PASS criterion 3: Gottlieb subgroups G_1..G_8 all match")


# --------------------------------------------------------------------------
# Criterion 4: path-component counts, with the flagged n=7 discrepancy
# --------------------------------------------------------------------------


def test_criterion_4_component_counts(db):
    for n, expected in ((1, 1), (2, 1), (4, 1), (6, 1), (3, 4), (5, 4), (8, 2)):
        r = check_components(db, n)
        assert r.computed == r.recorded.expected == expected, f"n={n}"
        assert r.status == "ok"
    r7 = check_components(db, 7)
    assert r7.computed == 7 and r7.recorded.expected == 6
    assert r7.status == "documented-discrepancy"
    print(
        "PASS criterion 4: component counts exact; n=7 shows 7 rule-derived "
        "orbits flagged documented-discrepancy against the recorded 6"
    )


# --------------------------------------------------------------------------
# Criterion 5: enumeration agrees with the exhaustive subgroup oracle
# --------------------------------------------------------------------------


def _all_abelian_groups_up_to(limit):
    from cohomotopy.abelian import _factorint

    out = []
    for order in range(1, limit + 1):
        fac = _factorint(order)
        per_prime = [
            [tuple(p**e for e in lam) for lam in partitions(exp)]
            for p, exp in fac.items()
        ]
        for combo in product(*per_prime) if per_prime else [()]:
            factors = [x for part in combo for x in part]
            out.append(FinAbGroup.from_factors(factors))
    return out


def test_criterion_5_oracle_equivalence():
    groups = _all_abelian_groups_up_to(64)
    checked = 0
    try:
        for a in groups:
            for c in groups:
                got = set(enumerate_middle_groups(a, c).candidates)
                want = oracle_middle_groups(a, c)
                assert got == want, f"A={a}, C={c}: {got ^ want}"
                checked += 1
    finally:
        # the oracle memos hold 335 searched orders (per prime, type and
        # subgroup order), about 5,600 block forms and arrow types and 1,000
        # shape lists (per prime and pair of types), and realizable's
        # lru_cache 18,753 entries; free them for the rest of the suite
        subgroup_quotient_types.cache_clear()
        realizable.cache_clear()
    print(
        f"PASS criterion 5: enumeration matches the subgroup-quotient oracle "
        f"on all {checked} pairs with |A|, |C| <= 64"
    )


# --------------------------------------------------------------------------
# Criterion 6: randomized algebra property suite
# --------------------------------------------------------------------------


def test_criterion_6_algebra_properties():
    from test_properties import (
        ISO_TRIALS,
        PRESENTATION_TRIALS,
        SNF_TRIALS,
        TestFirstIsomorphism,
        TestPresentationInvariance,
        TestSmithProperties,
    )

    assert SNF_TRIALS >= 1000 and ISO_TRIALS >= 500 and PRESENTATION_TRIALS >= 500
    TestSmithProperties().test_randomized_snf()
    TestFirstIsomorphism().test_randomized_source_mod_kernel_is_image()
    TestPresentationInvariance().test_randomized_unimodular_invariance()
    print(
        f"PASS criterion 6: {SNF_TRIALS} SNF certificates, {ISO_TRIALS} "
        f"first-isomorphism checks, {PRESENTATION_TRIALS} presentation-"
        f"invariance trials"
    )


# --------------------------------------------------------------------------
# Criterion 7: database integrity and mutation detection
# --------------------------------------------------------------------------


def test_criterion_7_database_integrity(db, db_text):
    assert validate_db(db) == []

    corrupted_order = db_text.replace(
        "generators = nu_5 . sigma_8 : 4", "generators = nu_5 . sigma_8 : 2"
    )
    assert corrupted_order != db_text
    assert any("disagree" in p for p in validate_db(loads_db(corrupted_order)))

    dangling = db_text.replace(
        "generators = eps' : 2", "generators = upsilon' : 2"
    )
    assert dangling != db_text
    assert any(
        "unregistered symbol" in p for p in validate_db(loads_db(dangling))
    )
    print(
        "PASS criterion 7: shipped database validates cleanly; corrupted "
        "order and dangling symbol mutations are both detected"
    )
