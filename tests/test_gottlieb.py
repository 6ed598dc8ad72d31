from math import gcd

import pytest

from cohomotopy.abelian import parse_group
from cohomotopy.database import DbError, loads_db
from cohomotopy.gottlieb import (
    classify_components,
    fibration_equivalences,
    gottlieb_group,
    whitehead_hom,
)
from cohomotopy.pipeline import check_components, check_gottlieb
from conftest import replaced


def G(text):
    return parse_group(text)


class TestWhiteheadHom:
    def test_zero_pairing_rows(self, db):
        for n in (1, 2, 4, 6):
            h = whitehead_hom(db, n)
            assert h.image().is_trivial()

    def test_n3_image(self, db):
        h = whitehead_hom(db, 3)
        assert h.image() == G("Z/2 + Z/3")

    def test_n7_image(self, db):
        h = whitehead_hom(db, 7)
        assert h.image() == G("Z/12")

    def test_n8_image(self, db):
        h = whitehead_hom(db, 8)
        assert h.image() == G("Z/2")

    def test_missing_row(self, db):
        with pytest.raises(DbError):
            whitehead_hom(db, 9)


class TestGottliebGroups:
    EXPECTED = {
        1: "Z",
        2: "Z/2 + Z/3",
        3: "Z + Z/2",
        4: "Z/4 + Z/3",
        5: "Z/2",
        6: "Z/4 + Z/3",
        7: "0",
        8: "Z/2 + Z/3",
    }

    @pytest.mark.parametrize("n", sorted(EXPECTED))
    def test_kernel_matches(self, db, n):
        assert gottlieb_group(whitehead_hom(db, n)) == G(self.EXPECTED[n])

    def test_index_six_embedding_at_n3(self, db):
        # the subgroup misses exactly the image, of order 6
        assert whitehead_hom(db, 3).image().order() == 6

    def test_check_helper(self, db):
        for n in sorted(self.EXPECTED):
            assert check_gottlieb(db, n, whitehead_hom(db, n)).status == "ok"

    def test_check_flags_mismatch(self, db_text):
        broken = loads_db(
            replaced(
                db_text,
                "context = gottlieb n=7\ngroup = 0",
                "context = gottlieb n=7\ngroup = Z/2\ngenerators = nu_8 . S^7 p : 2",
            )
        )
        assert check_gottlieb(broken, 7, whitehead_hom(broken, 7)).status == "fail"


class TestComponents:
    EXPECTED = {1: 1, 2: 1, 3: 4, 4: 1, 5: 4, 6: 1, 7: 7, 8: 2}

    @pytest.mark.parametrize("n", sorted(EXPECTED))
    def test_orbit_counts(self, db, n):
        r = classify_components(db, n, whitehead_hom(db, n))
        assert r.computed == self.EXPECTED[n]

    def test_n7_discrepancy_is_flagged_pass(self, db):
        r = classify_components(db, 7, whitehead_hom(db, 7))
        assert r.computed == 7 and r.expected == 6
        assert r.status == "documented-discrepancy"
        assert check_components(db, 7, whitehead_hom(db, 7)).passed()

    def test_unflagged_mismatch_fails(self, db_text):
        broken = loads_db(replaced(db_text, "expected = 2", "expected = 3"))
        assert check_components(broken, 8, whitehead_hom(broken, 8)).status == "fail"

    @pytest.mark.parametrize(
        "old, new",
        [
            # the n=7 image Z/12 becomes Z/4, whose 3 classes are not the computed 7
            ("alpha_1(8) . S^7 p -> (0, 0, 1)", "alpha_1(8) . S^7 p -> (0, 0, 0)"),
            # a computed count equal to the expected one documents no discrepancy
            ("expected = 6\ncomputed = 7", "expected = 7\ncomputed = 7"),
            # without a computed count, the count 7 is a plain mismatch
            ("expected = 6\ncomputed = 7", "expected = 6\ncomputed = "),
        ],
    )
    def test_n7_discrepancy_checks_both_numbers(self, db_text, old, new):
        broken = loads_db(replaced(db_text, old, new))
        assert check_components(broken, 7, whitehead_hom(broken, 7)).status == "fail"


class TestFibrationEquivalences:
    def test_n3_partitions(self, db):
        eq = fibration_equivalences(db, 3, whitehead_hom(db, 3))
        assert sorted(eq["nu_4 . S^3 p"]) == [(0,), (1,)]
        assert eq["S nu' . S^3 p"] == [(0, 1)]
        assert sorted(eq["alpha_1(4) . S^3 p"]) == [(0,), (1, 2)]

    def test_zero_pairing_means_all_equivalent(self, db):
        eq = fibration_equivalences(db, 4, whitehead_hom(db, 4))
        for classes in eq.values():
            assert len(classes) == 1


class TestOddUnits:
    """An image coordinate written ``odd`` is evaluated as 1; every other
    unit modulo the coordinate's target order must give the same results."""

    @staticmethod
    def results(db, n):
        h = whitehead_hom(db, n)
        return (
            gottlieb_group(h),
            classify_components(db, n, h).computed,
            fibration_equivalences(db, n, h),
        )

    def test_every_odd_unit_gives_the_shipped_results(self, db, db_text):
        checked = []
        for w in db.find("whitehead"):
            n = w.context.get("n").lo
            shipped = self.results(db, n)
            at = db_text.index(f"context = whitehead n={n}\n")
            line = db_text[at:].split("\nimages = ", 1)[1].split("\n", 1)[0]
            written = line.split(" ; ")  # the images as the file writes them, in order
            for i, (name, vec) in enumerate(w.images):
                for j, c in enumerate(vec):
                    if c != "odd":
                        continue
                    order = w.target_terms[j][0]
                    units = [u for u in range(1, order) if gcd(u, order) == 1]
                    head, coords = written[i][:-1].split(" -> (")
                    assert head == name and coords.split(", ")[j] == "odd"
                    for u in units:
                        image = coords.split(", ")
                        image[j] = str(u)
                        images = [*written[:i], f"{name} -> ({', '.join(image)})", *written[i + 1:]]
                        variant = loads_db(replaced(
                            db_text, f"images = {line}\n", f"images = {' ; '.join(images)}\n"
                        ))
                        assert self.results(variant, n) == shipped, (n, name, u)
                    checked.append((n, name, tuple(units)))
        assert (7, "nu_8 . S^7 p", (1, 3)) in checked

