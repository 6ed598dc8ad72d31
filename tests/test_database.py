import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomotopy.abelian import FinAbGroup
from cohomotopy.database import (
    DbError,
    DbParseError,
    NRange,
    dumps_db,
    loads_db,
    parse_context,
    validate_db,
)
from cohomotopy.extensions import EhpInjectivity, RelationFact


class TestNRange:
    def test_single(self):
        r = NRange.parse("4")
        assert r.is_single() and 4 in r and 5 not in r
        assert str(r) == "4"

    def test_closed(self):
        r = NRange.parse("2..5")
        assert 2 in r and 5 in r and 6 not in r
        assert str(r) == "2..5"

    def test_open(self):
        r = NRange.parse("12..")
        assert 12 in r and 1000 in r and 11 not in r
        assert str(r) == "12.."

    def test_rejects(self):
        with pytest.raises(ValueError):
            NRange.parse("x..y")


class TestContext:
    def test_roundtrip(self):
        ctx = parse_context("odd-part k=6 n=2..5 p=3")
        assert ctx.kind == "odd-part"
        assert ctx.get("k") == 6 and ctx.get("p") == 3
        assert str(ctx) == "odd-part k=6 n=2..5 p=3"


MINI = """
[symbol]
name = nu
cite = [T]

[symbol]
name = p
cite = [T]

[group]
context = coker-eta k=6 n=4
group = Z/8
generators = nu_4 : 8
cite = [T]

[group]
context = coker-eta k=6 n=5..
group = Z/4
generators = nu_n : 4
cite = [T]

[evidence]
context = extension k=6 n=5
kind = relation-fact
lift = L
lift-of = nu_5
multiplier = 2
rhs = nu_4
cite = [T]

[evidence]
context = extension k=6 n=7
kind = ehp-injectivity
source-n = 5
names = a -> b
cite = [T]
"""


class TestParsing:
    def test_mini_db(self):
        db = loads_db(MINI)
        assert set(db.symbols) == {"nu", "p"}
        assert len(db.find("coker-eta")) == 2
        item = db.find("extension")[0].item
        assert isinstance(item, RelationFact) and item.multiplier == 2
        ehp = db.find("extension")[1].item
        assert isinstance(ehp, EhpInjectivity)
        assert ehp.source_n == 5 and ehp.names == (("a", "b"),)

    def test_lookup_finds_the_record_holding_n(self):
        d = loads_db(MINI)
        assert d.lookup("coker-eta", k=6, n=4).group == FinAbGroup.from_factors([8])
        assert d.lookup("coker-eta", k=6, n=9).group == FinAbGroup.from_factors([4])
        assert d.lookup("coker-eta", k=6, n=3) is None

    def test_find_matches_given_parameters_ordered_by_n_then_p(self, db):
        contexts = [str(e.context) for e in db.find("odd-part", k=7, n=5)]
        assert contexts == ["odd-part k=7 n=5 p=3", "odd-part k=7 n=5 p=7"]
        assert [str(e.context) for e in db.find("odd-part", n=13, p=7)] == [
            "odd-part k=7 n=13.. p=7"
        ]
        assert [e.context.get("n").lo for e in db.find("bracket", k=6)] == list(range(2, 13))
        assert [e.context.get("k") for e in db.find("bracket", n=2)] == [6, 7, 8]
        assert db.find("bracket", k=9) == [] and db.find("frobnicate") == []

    def test_evidence_for_honors_ranges(self):
        d = loads_db(MINI)
        assert len(d.evidence_for(6, 5)) == 1
        assert d.evidence_for(6, 4) == []

    def test_missing_cite_rejected(self):
        with pytest.raises(DbParseError):
            loads_db("[symbol]\nname = nu\n")

    def test_duplicate_context_rejected(self):
        text = MINI + "\n[group]\ncontext = coker-eta k=6 n=4\ngroup = 0\ncite = x\n"
        with pytest.raises(DbParseError):
            loads_db(text)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("ker-eta k=6 n=2..5\n", "ker-eta k=6 n=2..10\n",
             "context ker-eta k=6 n=6 overlaps ker-eta k=6 n=2..10"),
            ("bracket k=7 n=12\n", "bracket k=7 n=12..\n",
             "context bracket k=7 n=13.. overlaps bracket k=7 n=12.."),
            ("odd-part k=8 n=13 p=3\n", "odd-part k=8 n=13.. p=3\n",
             "context odd-part k=8 n=14.. p=3 overlaps odd-part k=8 n=13.. p=3"),
            ("whitehead n=4\n", "whitehead n=3\n", "context whitehead n=3 overlaps whitehead n=3"),
            ("components n=8\n", "components n=1..\n",
             "context components n=1.. overlaps components n=1"),
            ("sphere-gottlieb m=9 k=3\n", "sphere-gottlieb m=5 k=3\n",
             "context sphere-gottlieb m=5 k=3 overlaps sphere-gottlieb m=5 k=3"),
        ],
    )
    def test_overlapping_contexts_of_one_family_rejected(self, db_text, old, new, message):
        broken = db_text.replace(old, new, 1)
        assert broken != db_text
        with pytest.raises(DbParseError, match=re.escape(message) + "$"):
            loads_db(broken)

    def test_ranges_of_different_families_may_overlap(self, db_text):
        # p=5 has its own family at k=8, which holds only n=6
        loads_db(db_text.replace("odd-part k=8 n=6 p=5\n", "odd-part k=8 n=6..7 p=5\n", 1))

    def test_evidence_records_may_share_a_cell(self, db):
        assert len(db.evidence_for(8, 4)) == 2

    def test_bad_key_line_rejected(self):
        with pytest.raises(DbParseError):
            loads_db("[symbol]\nname nu\ncite = x\n")

    def test_unknown_record_type_rejected(self):
        with pytest.raises(DbParseError):
            loads_db("[frobnicate]\ncite = x\n")

    def test_unknown_evidence_kind_rejected(self):
        with pytest.raises(DbParseError):
            loads_db(
                "[evidence]\ncontext = extension k=6 n=4\nkind = guesswork\ncite = x\n"
            )

    def test_group_context_parameter_check(self):
        with pytest.raises(DbParseError):
            loads_db("[group]\ncontext = coker-eta n=4\ngroup = 0\ncite = x\n")

    @pytest.mark.parametrize("bad", ["Z/x", "Z^ 2", "Z/1", "Q"])
    def test_bad_group_line_rejected(self, bad):
        text = MINI.replace("group = Z/8\n", f"group = {bad}\n")
        assert text != MINI
        with pytest.raises(DbParseError):
            loads_db(text)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("rhs = nu_4\n", "rhs = nu_4\nremainder_name = R\n"),
            ("group = Z/8\n", "group = Z/8\nflags = x\n"),
            ("name = nu\n", "name = nu\nnote = a\nnotes = b\n"),
        ],
    )
    def test_unknown_key_rejected(self, old, new):
        text = MINI.replace(old, new, 1)
        assert text != MINI
        with pytest.raises(DbParseError, match="unknown key"):
            loads_db(text)

    @pytest.mark.parametrize(
        "old, new, match",
        [
            ("k=6 n=4\n", "k=6 k=7 n=4\n", "repeated context parameter 'k'"),
            ("k=6 n=4\n", "k=6 n=4 n=5\n", "repeated context parameter 'n'"),
            ("k=6 n=5..\n", "k=6 n=5..3\n", "empty n range '5..3'"),
            ("extension k=6 n=7\n", "extension k=6 n=7..6\n", "empty n range"),
            ("k=6 n=4\n", "k=-6 n=4\n", "negative context parameter 'k=-6'"),
            ("extension k=6 n=5\n", "extension k=-6 n=5\n", "negative context parameter 'k=-6'"),
        ],
    )
    def test_malformed_context_rejected(self, old, new, match):
        text = MINI.replace(old, new, 1)
        assert text != MINI
        with pytest.raises(DbParseError, match=match):
            loads_db(text)

    def test_negative_generator_order_rejected(self):
        text = MINI.replace("nu_4 : 8\n", "nu_4 : -8\n", 1)
        with pytest.raises(DbParseError, match="negative order in generator item 'nu_4 : -8'"):
            loads_db(text)

    def test_evidence_without_required_key_rejected(self):
        text = MINI.replace("lift = L\n", "")
        with pytest.raises(DbParseError, match="lacks 'lift'"):
            loads_db(text)


# One record of every type and one evidence record of every kind, with the
# optional keys that the shipped database leaves out.
EVERY_RECORD = """
[symbol]
name = nu
cite = [T]
note = a symbol note

[group]
context = bracket k=6 n=4..
group = Z/8 + Z
generators = nu_n : 8 ; S^{n+1} nu : inf
cite = [T]

[group]
context = sphere-gottlieb m=3 k=2
group = 0
cite = [T]

[whitehead]
context = whitehead n=3
target = Z/2
target-generators = nu_4 : 2
cite = [T]
note = no images

[evidence]
context = extension k=6 n=5
kind = retraction
sections = nu_5 -> s ; nu_6 -> t
cite = [T]

[evidence]
context = extension k=6 n=6
kind = element-order-lift
lift = L
order = inf
maps-to = nu_6
absorbs = nu_5
remainder-name = R
cite = [T]

[evidence]
context = extension k=6 n=7..9
kind = relation-fact
lift = L
lift-of = nu_7
multiplier = 2
rhs = nu_4
rhs-mult = 3
remainder-name = R
cite = [T]

[evidence]
context = extension k=6 n=10..
kind = external-fact
factors = a : 4 ; b : inf
statement = a theorem
cite = [T]

[evidence]
context = extension k=6 n=4
kind = ehp-injectivity
source-n = 5
names = a -> b ; c -> d
cite = [T]

[relation]
id = r1
statement = 2 nu_4 = nu_4 . S^3 p
cite = [T]

[components]
context = components n=7
expected = 6
flags = documented-discrepancy other-flag
note = recorded value kept
cite = [T]
"""


class TestRoundTrip:
    def test_shipped_db_roundtrips(self, db, db_text):
        again = loads_db(dumps_db(db))
        assert list(again.entries()) == list(db.entries())
        assert dumps_db(again) == dumps_db(db)

    def test_every_record_type_roundtrips(self):
        db = loads_db(EVERY_RECORD)
        kinds = {type(e.item).__name__ for e in db.find("extension")}
        assert kinds == {
            "Retraction", "ElementOrderLift", "RelationFact", "ExternalFact", "EhpInjectivity"
        }
        assert db.lookup("whitehead", n=3).images == ()
        assert db.lookup("components", n=7).flags[0] == "documented-discrepancy"
        assert [e.TAG for e in db.records].count("relation") == 1
        again = loads_db(dumps_db(db))
        assert list(again.entries()) == list(db.entries())
        assert dumps_db(again) == dumps_db(db)


class TestValidation:
    def test_shipped_db_is_clean(self, db):
        assert validate_db(db) == []

    def test_detects_wrong_generator_orders(self):
        text = MINI.replace("generators = nu_4 : 8", "generators = nu_4 : 4")
        problems = validate_db(loads_db(text))
        assert any("disagree" in p for p in problems)

    def test_detects_dangling_symbol(self):
        text = MINI.replace("generators = nu_4 : 8", "generators = xi_4 : 8")
        problems = validate_db(loads_db(text))
        assert any("unregistered symbol" in p for p in problems)

    def test_detects_odd_torsion_in_two_primary_row(self):
        text = MINI.replace(
            "context = coker-eta k=6 n=4\ngroup = Z/8\ngenerators = nu_4 : 8",
            "context = coker-eta k=6 n=4\ngroup = Z/3\ngenerators = nu_4 : 3",
        )
        problems = validate_db(loads_db(text))
        assert any("odd torsion" in p for p in problems)

    def test_detects_whitehead_target_disagreeing_with_its_generators(self, db_text):
        broken = db_text.replace("target = Z/4 + Z/3 + Z/3\n", "target = Z/8 + Z/3 + Z/3\n")
        assert broken != db_text
        problems = validate_db(loads_db(broken))
        assert any(
            p.startswith("whitehead n=3: generator orders disagree") for p in problems
        ), problems

    def test_detects_missing_whitehead_image(self, db_text):
        broken = db_text.replace(
            "images = nu_8 . S^7 p -> (2, odd, 0) ; alpha_1(8) . S^7 p -> (0, 0, 1)",
            "images = nu_8 . S^7 p -> (2, odd, 0)",
        )
        assert broken != db_text
        problems = validate_db(loads_db(broken))
        assert any("missing image" in p for p in problems)

    def test_detects_odd_part_sum_mismatch(self, db_text):
        broken = db_text.replace(
            "context = odd-part k=6 n=7 p=3\ngroup = Z/3",
            "context = odd-part k=6 n=7 p=3\ngroup = Z/9",
        )
        assert broken != db_text
        problems = validate_db(loads_db(broken))
        assert any("odd-part records sum" in p for p in problems)

    @pytest.mark.parametrize(
        "old, new, problem",
        [
            ("bracket k=6 n=12..\n", "bracket k=6 n=24..\n", "bracket k=6: no row for n=12..23"),
            ("ker-eta k=7 n=13..\n", "ker-eta k=7 n=13..20\n",
             "k=7: rows cover different n: coker-eta n=2.., ker-eta n=2..20, bracket n=2.."),
            ("extension k=8 n=3\n", "extension k=16 n=3\n",
             "extension k=16 n=3: no bracket row for n=3"),
        ],
    )
    def test_detects_rows_and_evidence_off_the_bracket_cells(self, db_text, old, new, problem):
        broken = db_text.replace(f"context = {old}", f"context = {new}", 1)
        assert broken != db_text
        assert validate_db(loads_db(broken)) == [problem]

    def test_components_context_without_n_is_flagged_not_a_crash(self, db_text):
        broken = db_text.replace(
            "context = components n=1\n", "context = components m=1\n"
        )
        assert broken != db_text
        with pytest.raises(DbParseError, match="components needs parameters.*lacks n"):
            loads_db(broken)

    @pytest.mark.parametrize(
        "old, new, wrong",
        [
            ("context = whitehead n=3\n", "context = whitehead\n", "lacks n"),
            ("context = whitehead n=3\n", "context = whitehead n=3 k=1\n", "has extra k"),
            ("context = extension k=6 n=6\n", "context = extension n=6\n", "lacks k"),
            ("context = extension k=6 n=6\n", "context = ext k=6 n=6\n", "unknown evidence context"),
            ("context = components n=2\n", "context = components n=2 p=3\n", "has extra p"),
        ],
    )
    def test_context_parameters_checked_for_every_record_type(self, db_text, old, new, wrong):
        broken = db_text.replace(old, new, 1)
        assert broken != db_text
        with pytest.raises(DbParseError, match=wrong):
            loads_db(broken)


# Characters that carry the record syntax, with a few from names and numbers.
EDIT_CHARS = "=[]#\n ;:.,->()0123456789abknmpS/Z+^'_{}"

edits = st.lists(
    st.tuples(
        st.integers(min_value=0),
        st.sampled_from(("replace", "insert", "delete")),
        st.sampled_from(EDIT_CHARS),
    ),
    min_size=1,
    max_size=3,
)


def edited(text, edit_list):
    for pos, op, ch in edit_list:
        i = pos % len(text)
        if op == "replace":
            text = text[:i] + ch + text[i + 1:]
        elif op == "insert":
            text = text[:i] + ch + text[i:]
        else:
            text = text[:i] + text[i + 1:]
    return text


def load_and_validate(text):
    """``loads_db`` raises only ``DbError``; ``validate_db`` on whatever
    loads returns a list and raises nothing."""
    try:
        db = loads_db(text)
    except DbError:
        return
    assert isinstance(validate_db(db), list)


class TestRandomEdits:
    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(edits)
    def test_edits_of_mini(self, edit_list):
        load_and_validate(edited(MINI, edit_list))

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(edits)
    def test_edits_of_every_record(self, edit_list):
        load_and_validate(edited(EVERY_RECORD, edit_list))

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(edits)
    def test_edits_of_shipped_db(self, db_text, edit_list):
        load_and_validate(edited(db_text, edit_list))
