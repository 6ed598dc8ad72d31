import pytest

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
from cohomotopy.pipeline import verify_all


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
        assert len(db.groups["coker-eta"]) == 2
        item = db.evidence[0].item
        assert isinstance(item, RelationFact) and item.multiplier == 2
        ehp = db.evidence[1].item
        assert isinstance(ehp, EhpInjectivity)
        assert ehp.source_n == 5 and ehp.names == (("a", "b"),)

    def test_lookup_explicit_beats_range(self):
        d = loads_db(MINI)
        assert d.lookup("coker-eta", k=6, n=4).group == FinAbGroup.from_factors([8])
        assert d.lookup("coker-eta", k=6, n=9).group == FinAbGroup.from_factors([4])
        assert d.lookup("coker-eta", k=6, n=3) is None

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


class TestRoundTrip:
    def test_shipped_db_roundtrips(self, db, db_text):
        again = loads_db(dumps_db(db))
        assert {k: len(v) for k, v in again.groups.items()} == {
            k: len(v) for k, v in db.groups.items()
        }
        assert len(again.evidence) == len(db.evidence)
        assert len(again.whitehead) == len(db.whitehead)
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

    def test_components_context_without_n_is_flagged_not_a_crash(self, db_text):
        broken = db_text.replace(
            "context = components n=1\n", "context = components m=1\n"
        )
        assert broken != db_text
        db = loads_db(broken)
        problems = validate_db(db)
        assert any(
            p.startswith("components m=1: [components]") and "lacks n" in p
            for p in problems
        ), problems
        with pytest.raises(DbError, match="lacks the n parameter"):
            verify_all(db)

    @pytest.mark.parametrize(
        "old, new, wrong",
        [
            ("context = whitehead n=3 m=4\n", "context = whitehead n=3\n", "lacks m"),
            ("context = whitehead n=3 m=4\n", "context = whitehead n=3 m=4 k=1\n", "has extra k"),
            ("context = extension k=6 n=6\n", "context = extension n=6\n", "lacks k"),
            ("context = extension k=6 n=6\n", "context = ext k=6 n=6\n", "unknown evidence context"),
            ("context = components n=2\n", "context = components n=2 p=3\n", "has extra p"),
        ],
    )
    def test_context_parameters_checked_for_every_record_type(self, db_text, old, new, wrong):
        broken = db_text.replace(old, new, 1)
        assert broken != db_text
        assert any(wrong in p for p in validate_db(loads_db(broken)))
