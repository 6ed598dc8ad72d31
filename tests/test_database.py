import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomotopy import database, extensions
from cohomotopy.abelian import FinAbGroup
from cohomotopy.database import (
    EVIDENCE,
    _BlockError,
    _dump_record,
    _parse_block,
    _record_checks,
    Database,
    DbError,
    DbParseError,
    NRange,
    clear_memos,
    dumps_db,
    loads_db,
    parse_context,
    validate_db,
)
from cohomotopy.extensions import RENAMES, EhpInjectivity, ExtensionError, RelationFact, schema
from cohomotopy.pipeline import verify_all
from cohomotopy.record import replace


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
        ],
    )
    def test_overlapping_contexts_of_one_family_rejected(self, db_text, old, new, message):
        broken = db_text.replace(old, new, 1)
        assert broken != db_text
        with pytest.raises(DbParseError, match=re.escape(message) + "$"):
            loads_db(broken)

    # Families are checked for overlaps one at a time, after every block is
    # parsed; the error is still the one first in the file.
    OVERLAP = "[group]\ncontext = coker-eta k=6 n=4\ngroup = 0\ncite = x\n"
    OVERLAP_MESSAGE = "context coker-eta k=6 n=4 overlaps coker-eta k=6 n=4"
    BAD_BLOCK = "[group]\ncontext = ker-eta k=6 n=4\ngroup = Z/1\ncite = x\n"
    BAD_BLOCK_MESSAGE = "bad [group] record: bad torsion coefficient in 'Z/1'"
    TAKEN = "[symbol]\nname = nu\ncite = x\n"  # MINI has nu
    TAKEN_MESSAGE = "duplicate name 'nu'"
    # a family MINI lacks, so that the first overlap in the file is in the
    # family built last
    KER_ETA = "[group]\ncontext = ker-eta k=6 n=2..\ngroup = 0\ncite = x\n"
    KER_ETA_MESSAGE = "context ker-eta k=6 n=2.. overlaps ker-eta k=6 n=2.."

    @pytest.mark.parametrize(
        "first, second",
        [
            ("OVERLAP", "BAD_BLOCK"), ("BAD_BLOCK", "OVERLAP"),
            ("TAKEN", "OVERLAP"), ("OVERLAP", "TAKEN"),
            ("KER_ETA", "OVERLAP"),
        ],
    )
    def test_the_first_problem_in_the_file_is_reported(self, first, second):
        blocks = [getattr(self, first), getattr(self, second)]
        if first == "KER_ETA":  # the second one overlaps the first
            blocks.insert(0, self.KER_ETA)
        text = "\n".join([MINI] + blocks)
        line = text[:text.rindex(getattr(self, first))].count("\n") + 1
        message = getattr(self, f"{first}_MESSAGE")
        for memo in ("cold", "warm"):
            if memo == "cold":
                clear_memos()
            with pytest.raises(DbParseError) as err:
                loads_db(text, "f.cohdb")
            assert (err.value.line, str(err.value)) == (line, f"f.cohdb:{line}: {message}")

    def test_ranges_of_different_families_may_overlap(self, db_text):
        # p=5 has its own family at k=8, which holds only n=6
        loads_db(db_text.replace("odd-part k=8 n=6 p=5\n", "odd-part k=8 n=6..7 p=5\n", 1))

    def test_evidence_records_may_share_a_cell(self, db):
        assert len(db.evidence_for(8, 4)) == 2

    def test_bad_key_line_rejected(self):
        with pytest.raises(DbParseError):
            loads_db("[symbol]\nname nu\ncite = x\n")

    def test_unknown_record_type_rejected(self):
        for tag in ("frobnicate", "relation"):
            text = MINI + f"\n[{tag}]\nid = r1\nstatement = 2 nu_4 = nu_4 . S^3 p\ncite = [T]\n"
            line = text[:text.index(f"[{tag}]")].count("\n") + 1
            message = f"<string>:{line}: unknown record type [{tag}]"
            with pytest.raises(DbParseError, match=re.escape(message) + "$"):
                loads_db(text)

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

    def test_zero_generator_order_rejected(self):
        text = MINI.replace("nu_4 : 8\n", "nu_4 : 0\n", 1)
        with pytest.raises(
            DbParseError,
            match="order 0 in generator item 'nu_4 : 0': an infinite order is written inf",
        ):
            loads_db(text)

    @pytest.mark.parametrize(
        "order, match",
        [
            ("0", "order 0 in order value '0': an infinite order is written inf"),
            ("-2", "negative order in order value '-2'"),
        ],
    )
    def test_zero_or_negative_lift_order_rejected(self, order, match):
        text = EVERY_RECORD.replace("order = inf\n", f"order = {order}\n", 1)
        assert text != EVERY_RECORD
        with pytest.raises(DbParseError, match=match):
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
context = gottlieb n=7
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

[components]
context = components n=7
expected = 6
computed = 7
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
        assert db.lookup("components", n=7).computed == 7
        again = loads_db(dumps_db(db))
        assert list(again.entries()) == list(db.entries())
        assert dumps_db(again) == dumps_db(db)


VALUE_TYPES = [
    getattr(extensions, name)
    for name in ("TEXT", "NAME", "OPT_NAME", "INT", "ORDER", "PAIRS", "RENAMES", "TERMS")
] + [
    getattr(database, name)
    for name in ("CONTEXT", "GROUP", "IMAGES", "OPT_INT", "EVIDENCE")
]
MARK = "\x01"  # appended to every renamed name; no record value holds it


def field_values(obj):
    """(value type, value) of every field of a record, and of the fields of
    its evidence item."""
    for attr, _, vtype, _, _ in schema(type(obj)):
        yield vtype, getattr(obj, attr)
        if vtype is EVIDENCE:
            yield from field_values(getattr(obj, attr))


def written(vtype, value) -> str:
    """A value's record text; an evidence item's is that of all its keys."""
    if vtype is EVIDENCE:
        return "\n".join(f"{k} = {v}" for k, v in _dump_record(value))
    return vtype.write(value)


def renamed_names(vtype, value) -> list:
    """The names of ``value`` once renamed: each marked, except the source
    side of a ``RENAMES`` map."""
    if vtype is EVIDENCE:
        return [
            name
            for attr, _, item_type, _, _ in schema(type(value))
            for name in renamed_names(item_type, getattr(value, attr))
        ]
    names = list(vtype.names(value))
    marked = [name + MARK for name in names]
    if vtype is RENAMES:
        marked[0::2] = names[0::2]
    return marked


class TestValueTypes:
    @pytest.fixture(scope="class")
    def values(self, db):
        return [pair for entry in db.records for pair in field_values(entry)]

    def test_every_type_occurs_in_the_shipped_db(self, values):
        assert {id(vtype) for vtype, _ in values} == {id(t) for t in VALUE_TYPES}

    def test_write_then_parse_gives_the_value(self, values):
        for vtype, value in values:
            if vtype is EVIDENCE:  # the kind: its class reads the other keys
                assert vtype.parse(vtype.write(value)) is type(value)
            else:
                assert vtype.parse(vtype.write(value)) == value

    def test_rename_changes_exactly_the_listed_names(self, values):
        for vtype, value in values:
            renamed = vtype.rename(value, lambda name: name + MARK)
            want = renamed_names(vtype, value)
            assert list(vtype.names(renamed)) == want
            text = written(vtype, renamed)
            assert text.count(MARK) == sum(name.endswith(MARK) for name in want)
            assert text.replace(MARK, "") == written(vtype, value)


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
        assert validate_db(loads_db(broken)) == [
            "whitehead n=7: missing image for generator 'alpha_1(8) . S^7 p'"
        ]

    def test_detects_a_whitehead_image_given_twice(self, db_text):
        # the pairing would take the last one and never see the first
        old = "alpha_1(4) . S^3 p -> (0, 0, 1)"
        broken = db_text.replace(old, "alpha_1(4) . S^3 p -> (1, 0, 0) ; " + old)
        assert broken != db_text
        assert validate_db(loads_db(broken)) == [
            "whitehead n=3: more than one image for generator 'alpha_1(4) . S^3 p'"
        ]

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

    @pytest.mark.parametrize("kind", ["gottlieb", "components"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_detects_a_whitehead_n_without_its_row(self, db_text, kind, n):
        # verify_all checks only the rows that exist, so a deleted one
        # would vanish from its count unseen
        block = re.compile(rf"\[\w+\]\ncontext = {kind} n={n}\n(?:[^\n]+\n)*\n")
        broken, deleted = block.subn("", db_text)
        assert deleted == 1
        assert validate_db(loads_db(broken)) == [f"whitehead n={n}: no {kind} row for this n"]

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
            ("context = gottlieb n=7\n", "context = null-gottlieb m=5 k=3\n",
             "unknown group context 'null-gottlieb'"),
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


def load_outcome(text):
    """What a load gives: the dumped database, or the error message."""
    try:
        return dumps_db(loads_db(text))
    except DbError as e:
        return str(e)


def lines_of_n(text, n):
    """The line indices of the bracket-id, whitehead, gottlieb and
    components records at n."""
    contexts = {f"{kind} n={n}" for kind in ("bracket-id", "whitehead", "gottlieb", "components")}
    out = set()
    for block in database._BLOCK.finditer(text):
        m = re.search(r"^context = (.*)$", block.group(), re.M)
        if m and m.group(1) in contexts:
            first = text.count("\n", 0, block.start())
            out.update(range(first, first + block.group().count("\n") + 1))
    return out


def checked(db):
    """What the curator's check reads of a database: the problems and the
    verify results, or the error that ended either."""
    out = []
    for check in (validate_db, verify_all):
        try:
            out.append(check(db))
        except (DbError, ExtensionError) as e:
            out.append(repr(e))
    return out


class TestBlockMemo:
    def test_unchanged_blocks_are_parsed_once(self, db_text):
        first = loads_db(db_text, "a.cohdb").records
        again = loads_db(db_text, "a.cohdb").records
        assert len(again) == len(first) and all(x is y for x, y in zip(first, again))
        # moved to other lines, read from another file
        moved = loads_db("# moved\n\n\n" + db_text, "b.cohdb").records
        assert len(moved) == len(first) and all(x is y for x, y in zip(first, moved))
        reordered = "\n\n".join(reversed(EVERY_RECORD.strip().split("\n\n")))
        assert {id(e) for e in loads_db(reordered).records} == {
            id(e) for e in loads_db(EVERY_RECORD).records
        }

    @pytest.mark.parametrize(
        "bad, offset, message",
        [
            ("[symbol]\nname = nu\nname = mu\ncite = [T]\n", 2, "duplicate key 'name'"),
            ("[group]\ncontext = coker-eta k=6 n=30\ngroup = Z/1\ncite = [T]\n", 0,
             "bad [group] record: bad torsion coefficient in 'Z/1'"),
        ],
        ids=["duplicate-key", "bad-group"],
    )
    def test_errors_name_their_own_path_and_line(self, bad, offset, message):
        # path -> (text before the bad block, text after it)
        texts = {"first.cohdb": (MINI + "\n", ""), "second.cohdb": ("# header\n\n", "\n" + MINI)}
        _parse_block.cache_clear()
        for _ in ("cold", "warm"):
            for path, (before, after) in texts.items():
                line = before.count("\n") + 1 + offset
                with pytest.raises(DbParseError) as err:
                    loads_db(before + bad + after, path)
                assert (err.value.path, err.value.line) == (path, line)
                assert str(err.value) == f"{path}:{line}: {message}"

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(edits)
    def test_a_warm_memo_loads_like_a_cold_one(self, db_text, edit_list):
        text = edited(db_text, edit_list)
        loads_db(db_text)
        warm = load_outcome(text)
        _parse_block.cache_clear()
        assert load_outcome(text) == warm

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(edits)
    def test_a_warm_record_memo_validates_like_a_cold_one(self, db_text, edit_list):
        validate_db(loads_db(db_text))
        try:
            db = loads_db(edited(db_text, edit_list))
        except DbError:
            return
        warm = validate_db(db)
        copies = Database()  # equal records, none checked yet
        for entry in db.records:
            copies.add(replace(entry))
        assert validate_db(copies) == warm
        _parse_block.cache_clear()
        assert validate_db(loads_db(edited(db_text, edit_list))) == warm

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(st.data())
    def test_a_warm_check_memo_checks_like_a_cold_one(self, db_text, mutants, data):
        """A run of number edits, each text keeping the edits before it, is
        checked with every memo warm from the texts before; the checks must
        agree with those of a cold start and of equal records built by
        ``add``.  Half of the edits fall on the records of one n that the
        Gottlieb and components checks read through their shared pairing."""
        specs = mutants.mutant_specs(db_text)
        n = data.draw(st.integers(1, 8))
        at_n = lines_of_n(db_text, n)
        near = [spec for spec in specs if spec[0] in at_n]
        picked = data.draw(st.lists(
            st.sampled_from(near) | st.sampled_from(specs), min_size=1, max_size=3,
        ))
        lines, texts, done = db_text.split("\n"), [db_text], set()
        for spec in picked:
            if spec[0] not in done:  # one edit per line keeps the offsets right
                done.add(spec[0])
                texts.append(mutants.apply_spec(lines, spec))
                lines = texts[-1].split("\n")
        dbs = []
        for text in texts:
            try:
                dbs.append(loads_db(text))
            except DbError:
                pass
        warm = [checked(db) for db in dbs]
        for db, got in zip(dbs, warm):
            copies = Database()  # equal records, sharing no family
            for entry in db.records:
                copies.add(replace(entry))
            assert checked(copies) == got
        for db, got in zip(dbs, warm):
            clear_memos()
            assert checked(db) == got

    def test_add_leaves_a_database_loaded_from_the_same_text_alone(self, db_text):
        one, two = loads_db(db_text), loads_db(db_text)
        assert all(
            one.families[kind][key] is family
            for kind, families in two.families.items() for key, family in families.items()
        )
        shared = {kind: dict(families) for kind, families in two.families.items()}
        text = dumps_db(two)
        one.add(_parse_block("[group]\ncontext = odd-part k=6 n=3 p=5\ngroup = Z/5\n"
                             "generators = eta_3 . ext(alpha_1_5(4)) : 5\ncite = [T]"))
        assert two.families == shared and dumps_db(two) == text
        assert all(
            two.families[kind][key] is family
            for kind, families in shared.items() for key, family in families.items()
        )
        assert len(one.find("odd-part", k=6, p=5)) == len(two.find("odd-part", k=6, p=5)) + 1

    @pytest.mark.parametrize("p", [5, 11], ids=["into-a-family", "a-new-family"])
    def test_checks_after_add_see_the_new_record(self, db_text, p):
        db = loads_db(db_text)
        before = verify_all(db)
        assert all(r.passed() for r in before) and validate_db(db) == []
        db.add(_parse_block(f"[group]\ncontext = odd-part k=6 n=3 p={p}\ngroup = Z/{p}\n"
                            f"generators = eta_3 . ext(alpha_1_5(4)) : {p}\ncite = [T]"))
        assert [r.label for r in verify_all(db) if not r.passed()] == ["k=6 n=3"]
        assert validate_db(db) == [
            f"bracket k=6 n=3: odd-part records sum to Z/{3 * p}, bracket has odd part Z/3"
        ]
        assert verify_all(loads_db(db_text)) == before

    def test_record_checks_are_kept_on_their_record(self, db):
        entry = db.lookup("bracket", k=6, n=4)
        first = _record_checks(entry)
        assert _record_checks(entry) is first
        copy = replace(entry)  # an equal record with its own checks
        again = _record_checks(copy)
        assert again is not first and again == first
        # the kept checks are no field: equality, hashing and text ignore them
        fresh = replace(entry)
        assert (fresh, hash(fresh), repr(fresh)) == (copy, hash(copy), repr(copy))
        dumped = []
        for record in (copy, fresh):
            one = Database()
            one.add(record)
            dumped.append(dumps_db(one))
        assert dumped[0] == dumped[1]

    def test_removing_a_symbol_is_seen_through_the_record_memo(self, db_text):
        """Dropping a ``[symbol]`` record changes the registered families
        but none of the checked records that name them."""
        validate_db(loads_db(db_text))
        blocks = db_text.split("\n\n")
        symbols = [i for i, block in enumerate(blocks) if block.lstrip().startswith("[symbol]")]
        assert len(symbols) > 10
        for i in symbols:
            name = re.search(r"^name = (.*)$", blocks[i], re.M).group(1)
            db = loads_db("\n\n".join(blocks[:i] + blocks[i + 1:]))
            warm = validate_db(db)
            assert f"unregistered symbol family {name!r}" in "\n".join(warm)
            _parse_block.cache_clear()
            assert validate_db(loads_db("\n\n".join(blocks[:i] + blocks[i + 1:]))) == warm


def reference_blocks(lines):
    """Group (line_no, text) pairs into records, dropping comment lines: the
    block splitter ``loads_db`` used when it walked the text line by line."""
    block = []
    for i, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if line.strip().startswith("#"):
            continue
        if not line.strip():
            if block:
                yield block
                block = []
            continue
        block.append((i, line))
    if block:
        yield block


def reference_outcome(text, path="ref.cohdb"):
    """``load_outcome`` through ``reference_blocks``, each error at the line
    the line-by-line loader named."""
    db = Database()
    try:
        for block in reference_blocks(text.splitlines()):
            try:
                entry = _parse_block("\n".join(line for _, line in block))
            except _BlockError as e:
                raise DbParseError(path, block[e.index][0], str(e)) from e
            try:
                db.add(entry)
            except ValueError as e:
                raise DbParseError(path, block[0][0], str(e)) from e
    except DbParseError as e:
        return (e.path, e.line, str(e))
    return dumps_db(db)


def split_outcome(text, path="ref.cohdb"):
    try:
        return dumps_db(loads_db(text, path))
    except DbParseError as e:
        return (e.path, e.line, str(e))


BAD_KEY = "[symbol]\nname = mu\nname = mu\ncite = [T]\n"  # an error on the block's third line
CLASH = "[symbol]\nname = nu\ncite = [T]\n"  # MINI has nu: an error on the header


class TestBlockSplitter:
    """``loads_db`` finds its blocks with one regular expression; every
    record and every error line is the line-by-line splitter's."""

    @pytest.mark.parametrize(
        "text",
        [
            MINI + " \t\n" + BAD_KEY,
            MINI + "\n  \n\t\n \n" + CLASH,
            MINI.replace("\n\n", "\n   \n") + "\n" + BAD_KEY,
            MINI + "\n[symbol]\n# inside\nname = mu\n  # indented\nname = mu\ncite = [T]\n",
            MINI + "\n# before the header\n" + BAD_KEY,
            MINI + "\n# before the header\n" + CLASH,
            "# only\n# comments\n\n" + MINI + "\n# a block\n# of comments\n\n" + BAD_KEY,
            "# a comment\n" + MINI.lstrip() + "# between\n" + BAD_KEY,
            (MINI + "\n" + BAD_KEY).replace("\n", "\r\n"),
            (MINI + "\n" + CLASH).replace("\n", "\r\n"),
            MINI.replace("\n", "\r\n") + "\r\n \r\n" + BAD_KEY,
            MINI + "\n" + BAD_KEY.rstrip("\n"),
            MINI + "\n" + CLASH.rstrip("\n"),
            MINI.rstrip("\n"),
            MINI + "\n" + BAD_KEY + "   ",
            MINI + "\x0c\n" + CLASH,
            MINI.replace("\n\n", "\n\x0b\n") + "\n" + BAD_KEY,
            MINI.replace("\n\n", "\n\u2028") + "\n" + BAD_KEY,
            "\n\n\n" + MINI + "\n\n\n\n" + BAD_KEY + "\n\n\n",
        ],
        ids=[
            "whitespace-separator", "whitespace-separators", "whitespace-everywhere",
            "comments-inside", "comment-before-header", "comment-before-clash",
            "comment-only-blocks", "comment-joins-blocks", "crlf", "crlf-clash", "crlf-blank",
            "no-trailing-newline", "no-trailing-newline-clash", "valid-no-trailing-newline",
            "trailing-spaces", "form-feed", "vertical-tab", "line-separator", "blank-runs",
        ],
    )
    def test_blocks_and_error_lines_match_the_line_by_line_splitter(self, text):
        for memo in ("cold", "warm"):
            if memo == "cold":
                _parse_block.cache_clear()
            assert split_outcome(text) == reference_outcome(text)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(edits, st.sampled_from((MINI, EVERY_RECORD)))
    def test_edits(self, edit_list, text):
        text = edited(text, edit_list)
        assert split_outcome(text) == reference_outcome(text)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0),
                st.sampled_from(("replace", "insert", "delete")),
                st.sampled_from("\n\r\x0b\x0c\x1c\x85\u2028 \t#\xa0"),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_edits_with_every_line_break_and_space(self, edit_list):
        text = edited(EVERY_RECORD, edit_list)
        assert split_outcome(text) == reference_outcome(text)

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(edits)
    def test_edits_of_shipped_db(self, db_text, edit_list):
        text = edited(db_text, edit_list)
        assert split_outcome(text) == reference_outcome(text)
