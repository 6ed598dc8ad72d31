from math import gcd

import pytest

from cohomotopy.abelian import parse_group
from cohomotopy.database import DbError, clear_memos, loads_db, validate_db
from cohomotopy.gottlieb import (
    classify_components,
    fibration_equivalences,
    gottlieb_group,
    whitehead_hom,
)
from cohomotopy.pipeline import check_components, check_gottlieb, verify_all
from conftest import replaced
from test_record_deletions import record_blocks


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
            assert check_gottlieb(db, n).status == "ok"

    def test_check_flags_mismatch(self, db_text):
        broken = loads_db(
            replaced(
                db_text,
                "context = gottlieb n=7\ngroup = 0",
                "context = gottlieb n=7\ngroup = Z/2\ngenerators = nu_8 . S^7 p : 2",
            )
        )
        assert check_gottlieb(broken, 7).status == "fail"


class TestComponents:
    EXPECTED = {1: 1, 2: 1, 3: 4, 4: 1, 5: 4, 6: 1, 7: 7, 8: 2}

    @pytest.mark.parametrize("n", sorted(EXPECTED))
    def test_orbit_counts(self, db, n):
        assert classify_components(db, n) == self.EXPECTED[n]

    def test_n7_discrepancy_is_flagged_pass(self, db):
        r = check_components(db, 7)
        assert r.computed == 7 and r.recorded.expected == 6
        assert r.status == "documented-discrepancy"
        assert r.passed()

    def test_unflagged_mismatch_fails(self, db_text):
        broken = loads_db(replaced(db_text, "expected = 2", "expected = 3"))
        assert check_components(broken, 8).status == "fail"

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
        assert check_components(broken, 7).status == "fail"


class TestFibrationEquivalences:
    def test_n3_partitions(self, db):
        eq = fibration_equivalences(db, 3)
        assert sorted(eq["nu_4 . S^3 p"]) == [(0,), (1,)]
        assert eq["S nu' . S^3 p"] == [(0, 1)]
        assert sorted(eq["alpha_1(4) . S^3 p"]) == [(0,), (1, 2)]

    def test_zero_pairing_means_all_equivalent(self, db):
        eq = fibration_equivalences(db, 4)
        for classes in eq.values():
            assert len(classes) == 1


class TestBrokenPairing:
    """Each function of (db, n) reads the pairing at n itself, so an edit
    that breaks it gives the same text wherever the pairing is read."""

    # name -> (old text, new text, n, the problem the pairing rule
    # (WhiteheadEntry.pairing) reports)
    EDITS = {
        "image missing": (
            "nu_4 . S^3 p -> (2, 0, 0) ; ", "", 3,
            "whitehead n=3: missing image for generator 'nu_4 . S^3 p'",
        ),
        "image of wrong order": (
            "alpha_1(6) . S^5 p -> (0, 1)", "alpha_1(6) . S^5 p -> (1, 1)", 5,
            "whitehead n=5: image of 'alpha_1(6) . S^5 p' has order 12, not a divisor of 3",
        ),
        "infinite image": (
            "target = Z/4 + Z/3 + Z/3\ntarget-generators = nu_4^2 . S^6 p : 4 ;",
            "target = Z + Z/3 + Z/3\ntarget-generators = nu_4^2 . S^6 p : inf ;", 3,
            "whitehead n=3: the pairing has an infinite image",
        ),
    }

    @pytest.fixture(params=sorted(EDITS))
    def edit(self, request, db_text):
        old, new, n, problem = self.EDITS[request.param]
        return replaced(db_text, old, new), n, problem

    def test_every_reader_reports_the_same_problem(self, edit):
        text, n, problem = edit
        broken = loads_db(text)
        for check in (check_gottlieb, check_components):
            assert (check(broken, n).status, check(broken, n).detail) == ("error", problem)
        for read in (classify_components, fibration_equivalences):
            with pytest.raises(DbError) as e:
                read(broken, n)
            assert str(e.value) == problem
        assert validate_db(broken) == [problem]

    def test_db_check_reports_what_the_readers_raise(self, db_text):
        # on every record deletion of the shipped text and every edit above,
        # at each n that a whitehead, gottlieb or components record names:
        # the error of a reader of the pairing is a problem of validate_db,
        # word for word
        texts = [(label, db_text[:a] + db_text[b:]) for label, a, b in record_blocks(db_text)]
        texts += [(name, replaced(db_text, *edit[:2])) for name, edit in self.EDITS.items()]
        kinds = ("whitehead", "gottlieb", "components")
        gaps = []
        for label, text in texts:
            broken = loads_db(text)
            problems = validate_db(broken)
            for n in sorted({e.context.n_range.lo for kind in kinds for e in broken.find(kind)}):
                for read in (classify_components, fibration_equivalences):
                    try:
                        read(broken, n)
                    except DbError as e:
                        if str(e) not in problems:
                            gaps.append((label, n, read.__name__, str(e)))
        assert gaps == []

    def test_each_check_reports_its_first_problem(self, db_text):
        # at n=5 the gottlieb and components rows are gone and the pairing is
        # ill-defined: both checks name the pairing's error, which comes
        # before a missing row; only with the pairing repaired do they name
        # their rows
        old, new, n, problem = self.EDITS["image of wrong order"]
        text = db_text
        for row in ("context = gottlieb n=5\n", "context = components n=5\n"):
            start = text.index(row)
            text = text[:text.rindex("\n\n", 0, start)] + text[text.index("\n\n", start):]
        broken = loads_db(replaced(text, old, new))
        assert check_gottlieb(broken, n).detail == problem
        assert check_components(broken, n).detail == problem
        repaired = loads_db(text)
        assert check_gottlieb(repaired, n).detail == "no gottlieb row for n=5"
        assert check_components(repaired, n).detail == "no components row for n=5"

    def test_an_edit_reruns_the_two_checks_at_its_n_alone(self, edit, db_text):
        text, n, _ = edit
        clear_memos()
        shipped = loads_db(db_text)
        verify_all(shipped)
        edited = loads_db(text)
        assert edited.base_memo is shipped.memo
        verify_all(edited)
        for check in (check_gottlieb, check_components):
            key = check.__wrapped__  # the function the memo is keyed by
            checked = {args for f, args in shipped.memo if f is key}
            assert checked == {(m,) for m in range(1, 9)}
            rerun = {a for a in checked if edited.memo[key, a] is not shipped.memo[key, a]}
            assert rerun == {(n,)}


class TestOddUnits:
    """An image coordinate written ``odd`` is evaluated as 1; every other
    unit modulo the coordinate's target order must give the same results."""

    @staticmethod
    def results(db, n):
        return (
            gottlieb_group(whitehead_hom(db, n)),
            classify_components(db, n),
            fibration_equivalences(db, n),
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

