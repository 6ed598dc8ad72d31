import pytest

from cohomotopy import pipeline
from cohomotopy.abelian import FinAbGroup, parse_group
from cohomotopy.database import (
    DbError,
    NRange,
    WhiteheadEntry,
    clear_memos,
    loads_db,
    validate_db,
)
from cohomotopy.extensions import ExtensionError, UnresolvedExtensionError
from cohomotopy.pipeline import (
    check_bracket,
    check_mapspace,
    compute_group,
    golden_row,
    instantiate_name,
    mapping_space_pi,
    paper_notation,
    render_table,
    table_rows,
    verify_all,
)
from conftest import replaced
from test_record_deletions import record_blocks


def G(text):
    return parse_group(text)


class TestInstantiateName:
    @pytest.mark.parametrize(
        "template,n,expected",
        [
            ("zeta_n", 13, "zeta_13"),
            ("nu_n^3", 10, "nu_10^3"),
            ("eta_n . eps_{n+1}", 13, "eta_13 . eps_14"),
            ("beta_1(n) . S^{n+6} p", 12, "beta_1(12) . S^18 p"),
            ("nu_n^2 . g_{n+6}(C)", 13, "nu_13^2 . g_19(C)"),
            ("alpha_1_7(n) . S^{n+7} p", 14, "alpha_1_7(14) . S^21 p"),
            # concrete names pass through untouched
            ("nu_4 . sigma' . S^10 p", 9, "nu_4 . sigma' . S^10 p"),
            ("alpha_3'(5) . S^12 p", 9, "alpha_3'(5) . S^12 p"),
        ],
    )
    def test_substitution(self, template, n, expected):
        assert instantiate_name(template, n) == expected


class TestComputeGroup:
    def test_split_row_with_suffix(self, db):
        row = compute_group(db, 6, 5)
        assert row.group == G("Z/4 + Z/9")
        assert row.generators == (
            (4, "nu_5 . sigma_8 . S^11 p"),
            (9, "beta_1(5) . S^11 p"),
        )

    def test_retraction_row(self, db):
        row = compute_group(db, 6, 6)
        assert row.group == G("Z/12 + Z/36")
        names = row.generator_names()
        assert "nu_6 . sigma_9 . S^12 p" in names
        assert "nubar_6 . coext(2 iota_14)" in names

    def test_relation_fact_fuses(self, db):
        row = compute_group(db, 7, 9)
        assert row.group == G("Z/2 + Z/2 + Z/504")
        assert (8, "ext(eta_9 . eps_10)") in row.generators

    def test_free_factor_survives(self, db):
        row = compute_group(db, 7, 10)
        assert row.group == G("Z + Z/2 + Z/504")
        assert (0, "P(iota_21) . coext(2 iota_19)") in row.generators

    def test_ehp_transport(self, db):
        row7 = compute_group(db, 7, 7)
        row8 = compute_group(db, 7, 8)
        assert row7.group == row8.group == G("Z/2 + Z/2 + Z/504")
        assert (8, "ext(sigma' . eta_14^2 + eta_7 . eps_8)") in row7.generators
        assert (2, "nu_8^2 . g_14(C)") in row8.generators

    def test_remainder_generator(self, db):
        row = compute_group(db, 8, 10)
        assert row.group == G("Z/6 + Z/24")
        assert (2, "2 sigma_10 . g_17(C) - P(nu_21) . S^18 p") in row.generators

    def test_stable_range_instantiation(self, db):
        row = compute_group(db, 7, 20)
        assert row.group == G("Z/2 + Z/504")
        assert (8, "ext(eta_20 . eps_21)") in row.generators
        assert (9, "alpha_3'(20) . S^27 p") in row.generators

    def test_missing_row_raises(self, db):
        with pytest.raises(DbError):
            compute_group(db, 9, 4)

    def test_matches_golden_everywhere(self, db):
        for k, ns in ((6, range(2, 16)), (7, range(2, 17)), (8, range(2, 18))):
            for n in ns:
                computed = compute_group(db, k, n)
                golden = golden_row(db, k, n)
                assert computed.group == golden.group, (k, n)
                assert sorted(computed.generators) == sorted(golden.generators), (k, n)


class TestFailureModes:
    def test_dropped_evidence_leaves_extension_unresolved(self, db, db_text):
        blocks = [b for b in db_text.split("\n\n") if "context = extension k=7 n=9\n" not in b]
        broken = loads_db("\n\n".join(blocks))
        assert len(broken.evidence_for(7, 9)) == 0 and len(db.evidence_for(7, 9)) == 2
        with pytest.raises(UnresolvedExtensionError):
            compute_group(broken, 7, 9)

    def test_corrupted_golden_row_is_caught(self, db_text):
        text = replaced(
            db_text,
            "context = bracket k=6 n=5\ngroup = Z/4 + Z/9\n"
            "generators = nu_5 . sigma_8 . S^11 p : 4",
            "context = bracket k=6 n=5\ngroup = Z/2 + Z/2 + Z/9\n"
            "generators = nu_5 . sigma_8 . S^11 p : 2 ; extra : 2",
        )
        broken = loads_db(text)
        result = check_bracket(broken, 6, 5)
        assert result.status == "fail"

    def test_ehp_transports_a_retraction(self, db, db_text):
        # split row n=9 by a retraction; rows 7 and 8 pull it back along EHP
        # and must name both sides of its sections in their own terms (the
        # shipped rows transport a relation fact and a lift)
        blocks = [b for b in db_text.split("\n\n") if "context = extension k=7 n=9\n" not in b]
        blocks.append(
            "[evidence]\ncontext = extension k=7 n=9\nkind = retraction\n"
            "sections = eta_9 . eps_10 -> ext(eta_9 . eps_10) ; "
            "nu_9^3 -> nu_9^2 . g_15(C)\ncite = x\n"
        )
        broken = loads_db("\n\n".join(blocks))
        assert len(broken.find("extension")) == len(db.find("extension")) - 1
        rows = {n: compute_group(broken, 7, n) for n in (7, 8, 9)}
        assert rows[7].group == rows[8].group == rows[9].group
        assert {(2, "ext(eta_9 . eps_10)"), (2, "nu_9^2 . g_15(C)")} <= set(rows[9].generators)
        assert {
            (2, "ext(sigma' . eta_14^2 + eta_7 . eps_8)"), (2, "nu_7^2 . g_13(C)")
        } <= set(rows[7].generators)
        assert {
            (2, "ext(S sigma' . eta_15^2 + eta_8 . eps_9)"), (2, "nu_8^2 . g_14(C)")
        } <= set(rows[8].generators)

    def test_ehp_shape_mismatch_detected(self, db_text):
        # the rows n=7 and n=8 both transport the n=9 resolution
        text = replaced(db_text, "source-n = 9", "source-n = 5", count=2)
        broken = loads_db(text)
        with pytest.raises(ExtensionError):
            compute_group(broken, 7, 7)


class TestMapSpace:
    def test_low_rows_from_records(self, db):
        assert mapping_space_pi(db, 7).group == G("Z/2")
        assert mapping_space_pi(db, 5).group == G("0")

    def test_high_rows_recomputed(self, db):
        row = mapping_space_pi(db, 12)
        assert row.group == G("Z/4 + Z/2 + Z/2 + Z/9 + Z/7")
        assert (4, "zeta_5 . S^12 p") in row.generators

    def test_out_of_range(self, db):
        with pytest.raises(DbError):
            mapping_space_pi(db, 3)

    @staticmethod
    def edited(db_text, old, new):
        assert db_text.count(old) == 1
        return loads_db(db_text.replace(old, new))

    def test_check_catches_a_renamed_generator(self, db_text):
        row = (
            "context = mapspace n=12\ngroup = Z/4 + Z/2 + Z/2 + Z/9 + Z/7\n"
            "generators = zeta_5 . S^12 p : 4 ; "
        )
        broken = self.edited(db_text, row + "nu_5 . nubar_8", row + "nu_5 . nubar_9")
        result = check_mapspace(broken, 12)
        assert (result.label, result.status) == ("pi_12", "fail")
        assert result.detail.startswith("generators [(2, 'nu_5 . nubar_8 . S^12 p'), ")
        assert "!= recorded [(2, 'nu_5 . nubar_9 . S^12 p'), " in result.detail

    def test_check_catches_an_edited_group(self, db_text):
        row = "context = mapspace n=12\ngroup = "
        broken = self.edited(db_text, row + "Z/4 +", row + "Z/8 +")
        result = check_mapspace(broken, 12)
        assert (result.status, result.detail) == (
            "fail", "group Z/2 + Z/2 + Z/252 != recorded Z/2 + Z/2 + Z/504"
        )

    def test_check_catches_a_deleted_row(self, db_text):
        blocks = db_text.split("\n\n")
        kept = [b for b in blocks if "context = mapspace n=7\n" not in b]
        assert len(kept) == len(blocks) - 1
        result = check_mapspace(loads_db("\n\n".join(kept)), 7)
        assert (result.status, result.detail) == ("error", "no mapspace row for n=7")


class TestRendering:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0", "0"),
            ("Z/8 + Z/2 + Z/9 + Z/7", "8+2+63"),
            ("Z/4 + Z/4 + Z/3 + Z/3", "4^2+3^2"),
            ("Z + Z/8 + Z/2 + Z/9 + Z/7", "inf+8+2+63"),
            ("Z/2 + Z/3 + Z/5", "2+15"),
            ("Z/8 + Z/2 + Z/3 + Z/3 + Z/5", "8+2+3^2+5"),
            ("Z^2", "inf+inf"),
        ],
    )
    def test_paper_notation(self, text, expected):
        assert paper_notation(G(text)) == expected

    def test_table_rows_cover_all_ranges(self, db):
        ranges = [nr for nr, _ in table_rows(db, 7)]
        assert ranges[0] == NRange(2, 2) and ranges[-1] == NRange(13, None)
        assert len(ranges) == 12

    def test_csv_table(self, db):
        csv = render_table(db, 6, "csv")
        lines = csv.splitlines()
        assert lines[0] == "k,n,paper,canonical"
        assert "6,4,8+2+3^2+5,Z/6 + Z/120" in lines
        assert lines[-1].startswith("6,>=12,")

    def test_closed_range_labelled_as_written(self):
        rows = "".join(
            f"[group]\ncontext = {kind} k=6 n={n}\ngroup = 0\ncite = x\n\n"
            for kind in ("coker-eta", "ker-eta", "bracket")
            for n in ("2..5", "6..")
        )
        db = loads_db(rows)
        assert [nr for nr, _ in table_rows(db, 6)] == [NRange(2, 5), NRange(6, None)]
        assert render_table(db, 6, "csv").splitlines()[1:] == ["6,2..5,0,0", "6,>=6,0,0"]
        assert render_table(db, 6).splitlines()[2].startswith("n=2..5 ")

    def test_ascii_table(self, db):
        text = render_table(db, 8)
        assert "n>=14" in text and "8^2+3^2" in text

    def test_unknown_format(self, db):
        with pytest.raises(ValueError):
            render_table(db, 6, "json")


def planned_cells(db):
    """The (k, n) bracket cells ``verify_all`` promises to check, read from
    the records one by one: each bracket range's first n, and three above it
    when the range holds that n, and both ends of each evidence range."""
    cells = set()
    for entry in db.records:
        context = getattr(entry, "context", None)
        if context is None or context.kind not in ("bracket", "extension"):
            continue
        k, nr = context.get("k"), context.n_range
        cells.add((k, nr.lo))
        if context.kind == "bracket" and nr.lo + 3 in nr:
            cells.add((k, nr.lo + 3))
        if context.kind == "extension" and nr.hi is not None:
            cells.add((k, nr.hi))
    return [f"k={k} n={n}" for k, n in sorted(cells)]


class TestVerifyAll:
    def test_bracket_cells_are_the_planned_ones_in_order(self, db, db_text):
        def bracket_labels(db):
            return [r.label for r in verify_all(db) if r.family == "bracket"]

        assert bracket_labels(db) == planned_cells(db)
        assert "k=6 n=15" in planned_cells(db)  # the range n=12.. at its first n + 3
        loaded = 0
        for _, start, end in record_blocks(db_text):
            try:
                deleted = loads_db(db_text[:start] + db_text[end:])
            except DbError:
                continue
            loaded += 1
            assert bracket_labels(deleted) == planned_cells(deleted), db_text[start:end]
        assert loaded == 237

    def test_everything_passes(self, db):
        results = verify_all(db)
        failures = [r for r in results if not r.passed()]
        assert failures == []
        docs = [r for r in results if r.status == "documented-discrepancy"]
        assert [r.label for r in docs] == ["components n=7"]

    def test_families_covered(self, db):
        results = verify_all(db)
        fams = {r.family for r in results}
        assert fams == {"bracket", "mapspace", "gottlieb", "components"}

    def test_checks_carry_their_values(self, db, db_text):
        # what each check derived and the record it compared that with; they
        # agree where the check is ok
        results = verify_all(db)
        for r in results:
            assert r.computed is not None and r.recorded is not None, r.label
            if r.family in ("bracket", "mapspace"):
                got, want = r.computed, r.recorded
                agree = (got.group, sorted(got.generators)) == (want.group, sorted(want.generators))
            elif r.family == "gottlieb":
                agree = r.computed == r.recorded.group
            else:
                agree = r.computed == r.recorded.expected and r.recorded.computed is None
            assert agree == (r.status == "ok"), r.label
        documented = [r for r in results if r.status == "documented-discrepancy"]
        assert [(r.label, r.computed, r.recorded.computed) for r in documented] == [
            ("components n=7", 7, 7)
        ]
        # an error keeps neither value
        image = "alpha_1(6) . S^5 p -> (0, 1)"
        broken = verify_all(loads_db(replaced(db_text, image, image.replace("(0", "(1"))))
        errors = [(r.label, r.computed, r.recorded) for r in broken if r.status == "error"]
        assert errors == [("G_5", None, None), ("components n=5", None, None)]

    def test_one_whitehead_pairing_per_n(self, db_text, monkeypatch):
        built = []
        real = WhiteheadEntry.pairing

        def counted(self, src):
            built.append(self.context.n_range.lo)
            return real(self, src)

        monkeypatch.setattr(WhiteheadEntry, "pairing", counted)
        clear_memos()  # a cold validate_db, then verify_all, builds each pairing once
        db = loads_db(db_text)
        assert validate_db(db) == []
        results = verify_all(db)
        labels = {r.label for r in results if r.family in ("gottlieb", "components")}
        assert labels == {f"G_{n}" for n in built} | {f"components n={n}" for n in built}
        assert sorted(built) == list(range(1, 9))
        # a second pass over the same database builds none
        built.clear()
        assert verify_all(db) == results and validate_db(db) == [] and built == []
        # an edit of one image builds the pairing at its n alone
        image = "nu_4 . S^3 p -> (2, 0, 0)"
        edited = loads_db(db_text.replace(image, image.replace("(2", "(0"), 1))
        validate_db(edited)
        verify_all(edited)
        assert built == [3]

    def test_evidence_range_ends_are_checked(self, db_text):
        # the sigma_8 . nu_15 lift moved to n=16, a cell no row range starts at
        old = "context = extension k=8 n=8\nkind = element-order-lift\nlift = ext(sigma_8 . nu_15)"
        assert old in db_text
        moved = loads_db(db_text.replace(old, old.replace("n=8", "n=16")))
        failed = [r for r in verify_all(moved) if not r.passed()]
        assert [(r.label, r.status) for r in failed] == [("k=8 n=16", "error")]
        assert validate_db(moved) == [failed[0].detail]

    def test_cells_are_resolved_only_once_no_record_has_a_problem(self, db_text, monkeypatch):
        # the lift above moved to n=16, a cell error, with a group that its
        # generator orders disagree with, a record problem
        old = "context = extension k=8 n=8\nkind = element-order-lift\nlift = ext(sigma_8 . nu_15)"
        moved = replaced(db_text, old, old.replace("n=8", "n=16"))
        row = "context = mapspace n=7\ngroup = Z/2\n"
        both = replaced(moved, row, row.replace("Z/2", "Z/4"))
        computed, real = [], pipeline.compute_group
        monkeypatch.setattr(
            pipeline, "compute_group", lambda db, k, n: computed.append((k, n)) or real(db, k, n)
        )
        clear_memos()  # cold loads: no check is remembered from the shipped text
        assert validate_db(loads_db(both)) == [
            "mapspace n=7: generator orders disagree with the group (Z/2 vs Z/4)"
        ]
        assert computed == []
        assert validate_db(loads_db(moved)) == [
            "bracket k=8 n=16: element-order-lift 'ext(sigma_8 . nu_15)' names "
            "'sigma_8 . nu_15', which is no quotient generator"
        ]
        assert (8, 16) in computed
