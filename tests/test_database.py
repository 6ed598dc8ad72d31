import gc
import re
import weakref
from contextlib import contextmanager
from itertools import combinations
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohomotopy import database, extensions, pipeline
from cohomotopy.abelian import FinAbGroup
from cohomotopy.database import (
    EVIDENCE,
    _BlockError,
    _parse_block,
    _record_checks,
    Database,
    DbError,
    DbParseError,
    NRange,
    SymbolEntry,
    clear_memos,
    loads_db,
    parse_context,
    validate_db,
)
from cohomotopy.extensions import RENAMES, EhpInjectivity, ExtensionError, RelationFact, schema
from cohomotopy.pipeline import compute_group, verify_all
from cohomotopy.record import replace
from conftest import (
    NINEFOLD_ODD_PART_K6_N7,
    ODD_PART_K6_N7,
    ODD_PART_K6_STABLE,
    SPLIT_ODD_PART_K6_STABLE,
    replaced,
)
from test_record_deletions import record_blocks


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


# One record of every type and one evidence record of every kind, with every
# optional key.
EVERY_RECORD = """
[symbol]
name = nu
cite = [T]

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


class TestEveryRecord:
    def test_every_record_type_parses(self):
        db = loads_db(EVERY_RECORD)
        kinds = {type(e.item).__name__ for e in db.find("extension")}
        assert kinds == {"Retraction", "ElementOrderLift", "RelationFact", "EhpInjectivity"}
        assert db.lookup("whitehead", n=3).images == ()
        assert db.lookup("components", n=7).computed == 7


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

    def test_every_record_key_occurs_in_the_shipped_db(self, db_text):
        # the keys each record class and evidence kind reads, against those
        # the shipped records write
        written = {}
        for block in re.split(r"\n\s*\n", db_text):
            lines = [line for line in block.splitlines() if not line.startswith("#")]
            if not lines:
                continue
            keys = dict(map(str.strip, line.split("=", 1)) for line in lines[1:])
            classes = [database.RECORD_TYPES[lines[0].strip("[]")]]
            if "kind" in keys:
                classes.append(extensions.EVIDENCE_KINDS[keys["kind"]])
            for cls in classes:
                written.setdefault(cls, set()).update(keys)
        unused = {
            cls.__name__: keys
            for cls in [*database.RECORD_TYPES.values(), *extensions.EVIDENCE_KINDS.values()]
            if (keys := [key for _, key, *_ in schema(cls) if key not in written.get(cls, ())])
        }
        assert unused == {}

    def test_rename_changes_exactly_the_listed_names(self, values):
        for vtype, value in values:
            renamed = vtype.rename(value, lambda name: name + MARK)
            assert list(vtype.names(renamed)) == renamed_names(vtype, value)
            # renaming back restores the value: nothing but the names changed
            assert vtype.rename(renamed, lambda name: name.removesuffix(MARK)) == value


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
        # the edited record agrees with itself (group and generator order 9),
        # so the sum of the odd parts at n=7 is the one problem
        broken = replaced(db_text, ODD_PART_K6_N7, NINEFOLD_ODD_PART_K6_N7)
        assert validate_db(loads_db(broken)) == [
            "bracket k=6 n=7: odd-part records sum to Z/9, bracket has odd part Z/3"
        ]

    def test_odd_part_sums_hold_past_a_rows_first_n(self, db_text):
        # the stable odd-part row split in two: its first n=12..14 still sum
        # to the bracket row's Z/3, its n=15.. do not
        broken = replaced(db_text, ODD_PART_K6_STABLE, SPLIT_ODD_PART_K6_STABLE)
        db = loads_db(broken)
        assert validate_db(db) == [
            "bracket k=6 n=12..: odd-part records sum to Z/9, bracket has odd part Z/3"
        ]
        cells = {r.label: r.status for r in verify_all(db) if not r.passed()}
        assert cells == {"k=6 n=15": "error"}

    @pytest.mark.parametrize(
        "old, new, problem",
        [
            ("bracket k=6 n=12..\n", "bracket k=6 n=24..\n", "bracket k=6: no row for n=12..23"),
            ("ker-eta k=7 n=13..\n", "ker-eta k=7 n=13..20\n",
             "k=7: rows cover different n: coker-eta n=2.., ker-eta n=2..20, bracket n=2.."),
            # verify_all plans every evidence end, so the cell's error is the
            # problem, as `compute 16 3` prints it
            ("extension k=8 n=3\n", "extension k=16 n=3\n",
             "no coker-eta/ker-eta rows for k=16 n=3"),
        ],
    )
    def test_detects_rows_and_evidence_off_the_bracket_cells(self, db_text, old, new, problem):
        broken = db_text.replace(f"context = {old}", f"context = {new}", 1)
        assert broken != db_text
        assert validate_db(loads_db(broken)) == [problem]

    @pytest.mark.parametrize("kind", ["gottlieb", "components"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_detects_a_whitehead_n_without_its_row(self, db_text, kind, n):
        # verify_all checks both rows at each n a pairing record names, so a
        # deleted one is the error the commands print, not a smaller count
        block = re.compile(rf"\[\w+\]\ncontext = {kind} n={n}\n(?:[^\n]+\n)*\n")
        broken, deleted = block.subn("", db_text)
        assert deleted == 1
        assert validate_db(loads_db(broken)) == [f"no {kind} row for n={n}"]

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


def interleaved_edits(text):
    """Edits of ``text`` (for ``edited``) that give records of their own
    problems in two families that interleave in the file, the odd-part rows
    of k=6 at p=3 and p=5, and comment out the ``[symbol]`` record of mu,
    which leaves records of four other families naming an unregistered
    family.  The edits run from the end of the text back, so that each
    position holds."""
    out = []
    for context, old, new in (
        ("odd-part k=6 n=2 p=3", "Z/3", "9"),
        ("odd-part k=6 n=2 p=5", "Z/5", "7"),  # not a 5-group either
        ("odd-part k=6 n=4 p=3", "Z/3", "9"),
    ):
        at = text.index(old, text.index(f"context = {context}\n")) + len(old) - 1
        out.append((at, "replace", new))
    block = text.index("[symbol]\nname = mu\n")
    out.extend(
        (at, "insert", "#") for at in range(block, text.index("\n\n", block))
        if text[at - 1] == "\n"  # each line of the block
    )
    return sorted(out, reverse=True)


SHIPPED_TEXT = (Path(__file__).resolve().parents[1] / "src" / "cohomotopy" / "data"
                / "paper.cohdb").read_text()


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


def indexed(records):
    """A ``Database`` of ``records`` (in load order) indexed one record at a
    time, apart from ``loads_db``'s indexer: symbols by name, and each
    family (context kind and parameters other than n), in order of first
    appearance, as its (n.lo, n range, record) rows in load order, sorted by
    n.lo.  The first record that clashes with an earlier one, a symbol name
    taken or a context that overlaps one of its family's, is a
    ``ValueError`` of (message, its position)."""
    symbols, families = {}, {}
    for i, entry in enumerate(records):
        if isinstance(entry, SymbolEntry):
            if entry.name in symbols:
                raise ValueError(f"duplicate name {entry.name!r}", i)
            symbols[entry.name] = entry
            continue
        ctx = entry.context
        rows = families.setdefault(ctx.kind, {}).setdefault(ctx.family, [])
        if entry.UNIQUE == "context":
            for _, nr, other in sorted(rows, key=itemgetter(0)):
                if nr.overlaps(ctx.n_range):
                    raise ValueError(f"context {ctx} overlaps {other.context}", i)
        rows.append((ctx.n_range.lo, ctx.n_range, entry))
    families = {
        kind: {key: tuple(sorted(rows, key=itemgetter(0))) for key, rows in of_kind.items()}
        for kind, of_kind in families.items()
    }
    return Database(tuple(records), symbols, families)


class TestBlockMemo:
    def test_unchanged_blocks_are_parsed_once(self, db_text):
        first = loads_db(db_text, "a.cohdb").records
        again = loads_db(db_text, "a.cohdb").records
        assert len(again) == len(first) and all(x is y for x, y in zip(first, again))
        # moved to other lines, read from another file
        moved = loads_db("# moved\n\n\n" + db_text, "b.cohdb").records
        assert len(moved) == len(first) and all(x is y for x, y in zip(first, moved))

    @pytest.mark.parametrize(
        "bad, offset, message",
        [
            ("[symbol]\nname = nu\nname = mu\ncite = [T]\n", 2, "duplicate key 'name'"),
            ("[group]\ncontext = coker-eta k=6 n=30\ngroup = Z/1\ncite = [T]\n", 0,
             "bad [group] record: bad torsion coefficient in 'Z/1'"),
            # keys and spellings that no shipped record used, since deleted
            ("[evidence]\ncontext = extension k=6 n=30\nkind = external-fact\n"
             "factors = a : 4\ncite = [T]\n", 0, "unknown evidence kind 'external-fact'"),
            ("[evidence]\ncontext = extension k=6 n=30\nkind = element-order-lift\nlift = L\n"
             "order = 16\nmaps-to = nu_30\nabsorbs = nu_4\ncite = [T]\n", 0,
             "unknown key(s) in [evidence] record: absorbs"),
            ("[group]\ncontext = coker-eta k=6 n=30\ngroup = 0\nnote = a note\ncite = [T]\n", 0,
             "unknown key(s) in [group] record: note"),
            ("[whitehead]\ncontext = whitehead n=3\ntarget = Z/2\ntarget-generators = x : 2\n"
             "images = y -> (-odd)\ncite = [T]\n", 0,
             "bad [whitehead] record: invalid literal for int() with base 10: '-odd'"),
            ("[evidence]\ncontext = extension k=6 n=30\nkind = element-order-lift\nlift = L\n"
             "order = 16\nmaps-to = nu_30\nremainder-name = R\ncite = [T]\n", 0,
             "unknown key(s) in [evidence] record: remainder-name"),
            ("[symbol]\nname = nu\nnote = a note\ncite = [T]\n", 0,
             "unknown key(s) in [symbol] record: note"),
            ("[whitehead]\ncontext = whitehead n=3\ntarget = Z/2\ntarget-generators = x : 2\n"
             "note = a note\ncite = [T]\n", 0,
             "unknown key(s) in [whitehead] record: note"),
        ],
        ids=[
            "duplicate-key", "bad-group", "external-fact", "absorbs", "group-note", "minus-odd",
            "lift-remainder-name", "symbol-note", "whitehead-note",
        ],
    )
    def test_errors_name_their_own_path_and_line(self, bad, offset, message):
        # path -> (text before the bad block, text after it)
        texts = {"first.cohdb": (MINI + "\n", ""), "second.cohdb": ("# header\n\n", "\n" + MINI)}
        clear_memos()
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
        warm = loaded(text)
        clear_memos()
        assert loaded(text) == warm

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(edits)
    @example(interleaved_edits(SHIPPED_TEXT))  # records flagged out of their families' order
    def test_a_warm_record_memo_validates_like_a_cold_one(self, db_text, edit_list):
        validate_db(loads_db(db_text))
        try:
            db = loads_db(edited(db_text, edit_list))
        except DbError:
            return
        warm = validate_db(db)
        # equal records, none checked yet
        assert validate_db(indexed(tuple(map(replace, db.records)))) == warm
        clear_memos()
        assert validate_db(loads_db(edited(db_text, edit_list))) == warm

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(st.data())
    def test_a_warm_check_memo_checks_like_a_cold_one(self, db_text, mutants, data):
        """A run of number edits, each text keeping the edits before it, is
        checked with every memo warm from the texts before; the checks must
        agree with those of a cold start and of equal records indexed apart
        (``indexed``).  Half of the edits fall on the records of one n that
        the Gottlieb and components checks read through their shared
        pairing."""
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
        loading = []
        for text in texts:
            try:
                loading.append((text, loads_db(text)))
            except DbError:
                pass
        warm = [checked(db) for _, db in loading]
        for (_, db), got in zip(loading, warm):
            # equal records, sharing no family
            assert checked(indexed(tuple(map(replace, db.records)))) == got
        for (text, _), got in zip(loading, warm):
            clear_memos()
            assert checked(loads_db(text)) == got

    @pytest.mark.parametrize("p", [5, 11], ids=["into-a-family", "a-new-family"])
    def test_checks_see_an_appended_record(self, db_text, p):
        base = loads_db(db_text)
        before = verify_all(base)
        assert all(r.passed() for r in before) and validate_db(base) == []
        held = parts(base)
        copies = [type(part)(part) for part in held]
        db = loads_db(appended(
            db_text,
            f"[group]\ncontext = odd-part k=6 n=3 p={p}\ngroup = Z/{p}\n"
            f"generators = eta_3 . ext(alpha_1_5(4)) : {p}\ncite = [T]",
        ))
        assert db.memo == {} and db.base_memo is base.memo
        assert [r.label for r in verify_all(db) if not r.passed()] == ["k=6 n=3"]
        assert validate_db(db) == [
            f"bracket k=6 n=3: odd-part records sum to Z/{3 * p}, bracket has odd part Z/3"
        ]
        # the base's fields, its families mapping and each dict of a kind:
        # the same objects, holding what they held
        assert list(map(id, parts(base))) == list(map(id, held)) and parts(base) == copies
        assert verify_all(loads_db(db_text)) == before

    def test_record_checks_are_kept_on_their_record(self, db):
        entry = db.lookup("bracket", k=6, n=4)
        first = _record_checks(entry)
        assert _record_checks(entry) is first
        copy = replace(entry)  # an equal record with its own checks
        again = _record_checks(copy)
        assert again is not first and again == first
        # the kept checks are no field: equality, hashing and repr ignore them
        fresh = replace(entry)
        assert (fresh, hash(fresh), repr(fresh)) == (copy, hash(copy), repr(copy))

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
            clear_memos()
            assert validate_db(loads_db("\n\n".join(blocks[:i] + blocks[i + 1:]))) == warm


# a record that makes the checks of k=6 n=3 fail: the odd parts sum to Z/15
ODD_PART_5 = ("[group]\ncontext = odd-part k=6 n=3 p=5\ngroup = Z/5\n"
              "generators = eta_3 . ext(alpha_1_5(4)) : 5\ncite = [T]")


def parts(db):
    """The objects a database is made of: its fields, then the dict of each
    kind in its families mapping."""
    return [db.records, db.symbols, db.families, db.memo, db.base_memo, *db.families.values()]


def appended(text, block):
    """``text`` with the record ``block`` added after its last record."""
    return text.rstrip("\n") + "\n\n" + block + "\n"


def first_caught_mutant(db_text, mutants):
    """The first single-number mutant of ``db_text`` that loads and whose
    checks differ from the shipped text's."""
    clear_memos()
    shipped = checked(loads_db(db_text))
    lines = db_text.split("\n")
    for spec in mutants.mutant_specs(db_text):
        text = mutants.apply_spec(lines, spec)
        try:
            if checked(loads_db(text)) != shipped:
                return text
        except DbError:
            continue
    raise AssertionError("no mutant changes a check")


@pytest.fixture
def walks(monkeypatch):
    """What each trace walk (``database._unchanged``) made during a test
    found, in order."""
    found = []
    unchanged = database._unchanged

    def walk(*args):
        found.append(unchanged(*args))
        return found[-1]

    monkeypatch.setattr(database, "_unchanged", walk)
    return found


class TestStateMemo:
    """A database keeps the checks run on it (``memo``) and those of the
    state it was made from (``base_memo``); a hit in its own memo walks no
    trace."""

    def test_a_second_pass_walks_no_trace(self, db_text, mutants, walks):
        for text in (first_caught_mutant(db_text, mutants), db_text):
            db = loads_db(text)
            checked(db)
            walks.clear()
            checked(db)
            assert walks == []
            # a reload of the text shares the state of the load before
            assert loads_db(text).families is db.families
            checked(loads_db(text))
            assert walks == []

    def test_a_confirmed_hit_is_kept_on_the_new_state(self, db_text, runs, walks):
        db = loads_db(db_text)
        shipped = checked(db)
        kept = dict(db.memo)
        # the same families in a new mapping, built by hand: every check runs
        runs.clear()
        walks.clear()
        assert checked(Database(db.records, db.symbols, dict(db.families))) == shipped
        assert runs and walks == []
        # the same, made from db: every check hits after a walk
        copy = Database(db.records, db.symbols, dict(db.families), base_memo=db.memo)
        runs.clear()
        assert checked(copy) == shipped
        assert runs == [] and walks and all(walks)
        walks.clear()
        assert checked(copy) == shipped
        assert walks == [] and runs == []
        assert db.memo == kept and copy.memo.items() <= kept.items()

    @pytest.mark.parametrize("make_b", ["mutant", "added"])
    def test_alternating_databases_check_like_cold_ones(self, db_text, mutants, make_b):
        if make_b == "mutant":
            text_b = first_caught_mutant(db_text, mutants)
            build = {"a": lambda: loads_db(db_text), "b": lambda: loads_db(text_b)}
        else:
            build = {"a": lambda: loads_db(db_text),
                     "b": lambda: loads_db(appended(db_text, ODD_PART_5))}
        cold = {}
        for name, make in build.items():
            clear_memos()
            cold[name] = checked(make())
        assert cold["a"] != cold["b"]
        clear_memos()
        a, b = build["a"](), build["b"]()
        assert [checked(db) for db in (a, b, a)] == [cold["a"], cold["b"], cold["a"]]

    def test_the_memo_keeps_no_database_alive(self, db_text):
        """Nor does a memo made from it: a database made from another keeps
        the other's memo, with the checks confirmed from it, but not the
        other database, also where a check keeps the error a pairing gave."""
        image = "S nu' . S^3 p -> (0, 0, 0)"  # of order 2: an image of order 4 is an error
        for text in (db_text, replaced(db_text, image, image.replace("(0", "(1"))):
            for base in (text, appended(text, ODD_PART_5)):
                db = loads_db(base)
                checked(db)
                child = loads_db(appended(base, "[symbol]\nname = zz\ncite = [T]"))
                assert child.base_memo is db.memo
                assert checked(child) == checked(db) and child.memo.items() <= db.memo.items()
                gone = weakref.ref(db)
                del db
                clear_memos()  # a loaded database is the load loads_db remembers
                gc.collect()
                assert gone() is None


def doubled(text, context):
    """``text`` with the first number of the group of the row at ``context``
    doubled."""
    m = re.compile(r"group = \D*(\d+)").search(text, text.index(f"context = {context}\n"))
    return text[:m.start(1)] + str(2 * int(m.group(1))) + text[m.end(1):]


def moved(text, context, new):
    """``text`` with the context ``context`` of one record made ``new``."""
    return text.replace(f"context = {context}\n", f"context = {new}\n", 1)


@pytest.fixture
def computed(monkeypatch):
    """The (k, n) of each ``compute_group`` run during a test, in order."""
    cells = []
    compute = pipeline.compute_group

    def counting(db, k, n):
        cells.append((k, n))
        return compute(db, k, n)

    monkeypatch.setattr(pipeline, "compute_group", counting)
    return cells


@pytest.fixture
def runs(monkeypatch):
    """The read trace of each memoised check body run during a test, in
    order: each run opens one (``database.reading``)."""
    opened = []
    reading = database.reading

    @contextmanager
    def recording():
        with reading() as trace:
            opened.append(trace)
            yield trace

    monkeypatch.setattr(database, "reading", recording)
    return opened


@pytest.fixture
def record_checks(monkeypatch):
    """The records ``database._record_checks`` was called on during a test,
    in order."""
    seen = []
    checks = database._record_checks

    def counting(entry):
        seen.append(entry)
        return checks(entry)

    monkeypatch.setattr(database, "_record_checks", counting)
    return seen


class TestFamilyChecks:
    """``validate_db`` gathers the checks of each record alone per family
    (``_family_checks``), so an edit costs what it touches: the edited
    record's family and the checks that read it."""

    def test_a_one_number_edit_rebuilds_its_family_alone(self, db_text, runs, record_checks):
        clear_memos()
        validate_db(loads_db(db_text))
        text = doubled(db_text, "bracket k=6 n=4")
        db = loads_db(text)
        runs.clear()
        record_checks.clear()
        got = validate_db(db)
        assert got == [
            "bracket k=6 n=4: generator orders disagree with the group (Z/6 + Z/120 vs Z/6 + Z/240)"
        ]
        # every family's checks call _record_checks on each of its records:
        # only the edited family's are rebuilt
        family = {id(e) for _, _, e in db.families["bracket"][frozenset({("k", 6)})]}
        assert record_checks and {id(e) for e in record_checks} <= family
        # the bodies that ran read the families of k=6 alone
        assert runs and all(("k", 6) in want for trace in runs for _, want, _ in trace)
        clear_memos()
        assert validate_db(loads_db(text)) == got

    def test_records_are_listed_in_file_order(self, db_text):
        """The problems of each record alone come in file order, though the
        records are found family by family: two families that interleave,
        and four more that name the family of a removed symbol."""
        text = edited(db_text, interleaved_edits(db_text))
        validate_db(loads_db(db_text))
        for _ in ("warm", "cold"):
            listed = [
                problem.split(": ")[0] for problem in validate_db(loads_db(text))
                if "disagree" in problem or "unregistered" in problem
            ]
            assert len(listed) == 7
            assert listed == sorted(listed, key=lambda c: text.index(f"context = {c}\n"))
            clear_memos()


def bracket_cells(results):
    """The (k, n) of the bracket cells among ``verify_all``'s results."""
    return [
        tuple(int(part.split("=")[1]) for part in r.label.split())
        for r in results if r.family == "bracket"
    ]


class TestRecordConfirmation:
    """A remembered check of a base whose trace reads a changed family is
    confirmed query by query: it holds while every query returns the
    identical records.  A base database and an edit of it each keep their
    own results."""

    @pytest.mark.parametrize("context", ["bracket k=6 n=12..", "bracket k=7 n=5", "bracket k=8 n=2"])
    def test_an_edited_row_reruns_only_the_cells_that_found_it(self, db_text, computed, context):
        clear_memos()
        checked(loads_db(db_text))
        text = doubled(db_text, context)
        db = loads_db(text)
        computed.clear()
        got = checked(db)
        row = next(e for e in db.find("bracket") if str(e.context) == context)
        found = {(k, n) for k, n in bracket_cells(got[1]) if db.lookup("bracket", k=k, n=n) is row}
        assert found and set(computed) == found
        if context == "bracket k=6 n=12..":
            assert found == {(6, 12), (6, 15)}
        clear_memos()
        assert checked(loads_db(text)) == got

    @pytest.mark.parametrize("context, new, cells", [
        ("extension k=7 n=4", "extension k=7 n=3", {(7, 3), (7, 4)}),
        ("odd-part k=6 n=4 p=5", "odd-part k=6 n=3 p=5", {(6, 3), (6, 4)}),
    ])
    def test_a_moved_range_reruns_the_cells_at_the_old_and_the_new_n(
        self, db_text, computed, context, new, cells
    ):
        clear_memos()
        checked(loads_db(db_text))
        text = moved(db_text, context, new)
        computed.clear()
        got = checked(loads_db(text))
        assert set(computed) == cells
        clear_memos()
        assert checked(loads_db(text)) == got

    def test_a_partial_query_is_invalidated_by_any_family_it_matched(self, db_text):
        db = loads_db(db_text)
        with database.reading() as whole:
            db.find("odd-part", k=6)
        with database.reading() as at_5:
            db.find("odd-part", k=6, n=5)
        ((_, (family, matched, found)),) = whole.items()
        assert family is None and len(matched) == 2 and len(found) > 2  # p = 3 and p = 5
        for context, holds in (
            ("odd-part k=6 n=2 p=3", (False, True)),
            ("odd-part k=6 n=2 p=5", (False, True)),
            ("odd-part k=6 n=5 p=3", (False, False)),
            ("odd-part k=7 n=2 p=3", (True, True)),
        ):
            edited = loads_db(doubled(db_text, context))
            assert (database._unchanged(edited, whole), database._unchanged(edited, at_5)) == holds

    def test_a_base_and_its_edit_keep_their_own_results(self, db_text, computed, runs, walks):
        texts = {
            "a": db_text,
            "b": doubled(db_text, "bracket k=6 n=12.."),
            "c": doubled(db_text, "bracket k=6 n=11"),  # the same family as b
        }
        cold = {}
        for name, text in texts.items():
            clear_memos()
            cold[name] = checked(loads_db(text))
        assert cold["a"] != cold["b"] and cold["a"] != cold["c"]
        clear_memos()
        assert [checked(loads_db(texts[name])) for name in "ab"] == [cold["a"], cold["b"]]
        runs.clear()
        walks.clear()
        # each reload gets the checks of its text's load: none runs, none walks
        assert [checked(loads_db(texts[name])) for name in "ab"] == [cold["a"], cold["b"]]
        assert runs == [] and walks == []
        # c is an edit of a, not of b: only the cell that reads its row runs
        computed.clear()
        assert checked(loads_db(texts["c"])) == cold["c"]
        assert computed == [(6, 11)]


def widened(keys):
    """Each (kind, parameters) of the family keys ``keys`` with every subset
    of its parameters: the queries that can read or match the family."""
    return {(kind, frozenset(part))
            for kind, fam in keys for r in range(len(fam) + 1) for part in combinations(fam, r)}


def changed_families(db, base):
    """The family keys whose object in ``db`` is not ``base``'s: rebuilt,
    added or removed."""
    return {
        (kind, fam)
        for kind in {**base.families, **db.families}
        for fam in {**base.families.get(kind, {}), **db.families.get(kind, {})}
        if db.families.get(kind, {}).get(fam) is not base.families.get(kind, {}).get(fam)
    }


K6 = frozenset({("k", 6)})


def reads_bracket_k6(trace):
    """Whether a read trace read, or matched, the bracket family at k=6."""
    return any(kind == "bracket" and want <= K6 for kind, want, _ in trace)


class TestRebuiltFamilies:
    """A load records the families it rebuilt relative to its base
    (``Database.rebuilt``), and a remembered check of the base is confirmed
    at once when it read none of them: only the checks that read an edited
    family are walked, and only those whose walk fails run again."""

    def test_a_one_number_edit_walks_and_reruns_only_what_read_its_family(
        self, db_text, walks, runs, monkeypatch
    ):
        clear_memos()
        shipped = loads_db(db_text)
        checked(shipped)
        text = doubled(db_text, "bracket k=6 n=4")
        db = loads_db(text)
        assert db.base_memo is shipped.memo
        walked = []
        walk = database._unchanged  # the walks fixture's
        monkeypatch.setattr(database, "_unchanged",
                            lambda db, trace: walked.append(trace) or walk(db, trace))
        walks.clear()
        runs.clear()
        got = checked(db)
        assert walked and len(walked) == len(walks) < len(shipped.memo) // 4
        assert all(map(reads_bracket_k6, walked))
        assert runs and all(map(reads_bracket_k6, runs))
        # every other check consulted is the base's own entry, taken unwalked
        others = [key for key, hit in shipped.memo.items()
                  if key in db.memo and not reads_bracket_k6(hit[1])]
        assert others and all(db.memo[key] is shipped.memo[key] for key in others)
        clear_memos()
        assert checked(loads_db(text)) == got

    def test_the_recorded_families_confirm_what_a_walk_confirms(self, db_text, mutants):
        """Over seeded mutants, every record deletion, the file with its
        blocks reversed, a record that makes a new family and the edits that
        a partial query matches: the recorded set is the families the load
        changed, and a remembered check that read none of them holds on a
        walk too."""
        clear_memos()
        shipped = loads_db(db_text)
        assert shipped.rebuilt == widened(changed_families(shipped, Database()))
        checked(shipped)
        with database.reading() as whole:
            shipped.find("odd-part", k=6)
        with database.reading() as at_5:
            shipped.find("odd-part", k=6, n=5)
        entries = [*shipped.memo.values(), *((None, trace, frozenset(map(itemgetter(0, 1), trace)))
                                             for trace in (whole, at_5))]
        lines = db_text.split("\n")
        blocks = [m.group() for m in database._BLOCK.finditer(db_text)]
        texts = [mutants.apply_spec(lines, spec) for spec in mutants.seeded_specs(db_text, 1)[:300]]
        texts += [db_text[:start] + db_text[end:] for _, start, end in record_blocks(db_text)]
        texts += ["\n\n".join(reversed(blocks)) + "\n",
                  appended(db_text, "[group]\ncontext = odd-part k=6 n=3 p=11\ngroup = Z/11\ncite = [T]")]
        texts += [doubled(db_text, f"odd-part k={k} n={n} p={p}")
                  for k, n, p in ((6, 2, 3), (6, 2, 5), (6, 5, 3), (7, 2, 3))]
        held = confirmed = 0
        for text in texts:
            assert loads_db(db_text) is shipped
            try:
                db = loads_db(text)
            except DbError:
                continue
            assert db.base_memo is shipped.memo
            assert db.rebuilt == widened(changed_families(db, shipped))
            for _, trace, queries in entries:
                assert queries == frozenset(map(itemgetter(0, 1), trace))
                holds = database._unchanged(db, trace)
                if queries.isdisjoint(db.rebuilt):
                    assert holds, (text, trace)
                    confirmed += 1
                held += holds
        assert confirmed > held * 3 // 4  # the set test leaves few walks that hold

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(st.data())
    def test_the_newer_text_is_diffed_from_what_its_load_found(self, db_text, data):
        """The common prefix and suffix with the newer remembered text are
        derived from its diff with the older one: they equal a full diff."""
        common = database._common

        def checking(a, b, *bounds):
            got = common(a, b, *bounds)
            assert got == common(a, b)
            return got

        clear_memos()
        loads_db(db_text)
        text = db_text
        database._common = checking
        try:
            for _ in range(data.draw(st.integers(2, 5))):
                text = edit_once(data, data.draw(st.sampled_from((text, db_text))))
                try:
                    loads_db(text)
                except DbError:
                    pass
        finally:
            database._common = common


class TestPlannedCells:
    """``verify_all`` plans its bracket cells per k (``pipeline.planned_ns``),
    a memoised check like the others: an edit plans its own k again, and a
    second pass plans nothing."""

    def test_an_edit_plans_only_its_own_k_again(self, db_text, runs, monkeypatch):
        clear_memos()
        shipped = loads_db(db_text)
        checked(shipped)
        db = loads_db(doubled(db_text, "bracket k=6 n=4"))
        assert db.base_memo is shipped.memo
        walked = []
        walk = database._unchanged
        monkeypatch.setattr(database, "_unchanged",
                            lambda db, trace: walked.append(trace) or walk(db, trace))
        runs.clear()
        checked(db)
        plan = pipeline.planned_ns.__wrapped__  # the function the memo is keyed by
        base = {k: shipped.memo[plan, (k,)] for k in (6, 7, 8)}
        for k in (7, 8):
            assert db.memo[plan, (k,)] is base[k]
            assert not any(trace is base[k][1] for trace in walked)
        assert any(trace is base[6][1] for trace in walked)
        assert db.memo[plan, (6,)][0] == base[6][0]
        assert any(reads_bracket_k6(trace) and ("extension", K6, None) in trace for trace in runs)

    def test_a_second_pass_runs_nothing_and_finds_nothing(self, db_text, runs, monkeypatch):
        found = []
        find = Database.find

        def counting(self, *args, **params):
            found.append((args, params))
            return find(self, *args, **params)

        monkeypatch.setattr(Database, "find", counting)
        for text in (db_text, doubled(db_text, "bracket k=6 n=4")):
            db = loads_db(text)
            first = verify_all(db)
            runs.clear()
            found.clear()
            assert verify_all(db) == first
            assert runs == [] and found == []


class TestReadTrace:
    def test_the_trace_of_compute_group_lists_the_records_it_found(self, db, monkeypatch):
        returned = []
        find = Database.find

        def recording(self, *args, **params):
            found = find(self, *args, **params)
            returned.extend(found)
            return found

        monkeypatch.setattr(Database, "find", recording)
        for k, ns in ((6, range(2, 16)), (7, range(2, 17)), (8, range(2, 18))):
            for n in ns:
                returned.clear()
                with database.reading() as trace:
                    compute_group(db, k, n)
                assert ("coker-eta", frozenset({("k", k)}), n) in trace
                listed = [e for _, _, found in trace.values() for e in found]
                assert {id(e) for e in listed} == {id(e) for e in returned}, (k, n)
                for (_, _, at), (_, _, found) in trace.items():
                    assert at is None or all(at in e.context.n_range for e in found), (k, n)

    def test_a_trace_inside_another_adds_its_queries_to_it(self, db):
        with database.reading() as outer:
            db.lookup("bracket", k=6, n=4)
            with database.reading() as inner:
                db.evidence_for(7, 9)
        assert len(inner) == 1 and set(inner) < set(outer) and len(outer) == 2
        assert database._TRACES == []


def contents(db):
    """What a database holds, to compare: its records (their ``repr`` and the
    records themselves), its symbols and its families, in order."""
    families = [(kind, list(of_kind.items())) for kind, of_kind in db.families.items()]
    return repr(db.records), db.records, db.symbols, families


def loaded(text):
    """What a load gives, to compare: the error text, or its ``contents``."""
    try:
        return contents(loads_db(text, "run.cohdb"))
    except DbParseError as e:
        return str(e)


def edit_once(data, text):
    """``text`` with one drawn edit: a number changed; a block deleted,
    duplicated or moved before or after another block; two blocks joined by
    removing the blank line between them; a block split by a blank or
    whitespace-only line; a blank line or a comment line added; every line
    break made CRLF or U+2028; or the empty text.  The first and the last
    block are drawn more often."""
    kind = data.draw(st.sampled_from((  # the edits that keep a text loading, twice
        "number", "number", "delete", "duplicate", "move", "move", "join", "split",
        "blank", "blank", "comment", "comment", "crlf", "u2028", "empty",
    )))
    spans = [m.span() for m in database._BLOCK.finditer(text)]
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    if kind == "u2028":
        return text.replace("\n", "\u2028")
    if kind == "empty" or not spans:
        return ""
    last = len(spans) - 1
    # a uniform block (drawn integers favour the small ones), or the first or the last
    b = data.draw(st.sampled_from((0, last)) | st.randoms(use_true_random=False).map(
        lambda r: r.randint(0, last)
    ))
    start, end = spans[b]
    space = data.draw(st.sampled_from(("", " ", "\t  ")))
    breaks = [start] + [m.end() for m in re.finditer("\n", text[start:end])]
    at = data.draw(st.sampled_from(breaks)) if kind in ("split", "comment") else end
    if kind == "number":
        numbers = [m.span() for m in re.finditer(r"\d+", text[start:end])]
        if not numbers:
            return text
        s, e = data.draw(st.sampled_from(numbers))
        return text[:start + s] + str(data.draw(st.integers(0, 20))) + text[start + e:]
    if kind == "delete":
        return text[:start] + text[end:]
    if kind == "duplicate":
        return text[:start] + text[start:end] + "\n\n" + text[start:]
    if kind == "move":  # before an earlier block, or after a later one
        c = data.draw(st.sampled_from((0, last)) | st.integers(0, last))
        if c < b:
            at = spans[c][0]
            return text[:at] + text[start:end] + "\n\n" + text[at:start] + text[end:]
        if c > b:
            at = spans[c][1]
            return text[:start] + text[end:at] + "\n\n" + text[start:end] + text[at:]
        return text
    if kind == "join":
        return text[:end] + "\n" + text[spans[b + 1][0]:] if b < last else text
    if kind == "split":
        return text[:at] + space + "\n" + text[at:]
    if kind == "blank":
        return text[:end] + "\n" + space + text[end:]
    return text[:at] + "# an added comment\n" + text[at:]


class TestIncrementalLoad:
    """``loads_db`` re-scans only what differs from a remembered text; every
    load must give what a cold load of its text gives."""

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.data())
    def test_a_run_of_loads_loads_like_cold_ones(self, db_text, data):
        """A run of one to four texts, each made by one or two edits of the
        text before it (most often, as in an editing session) or of the
        shipped text, loaded one after another with every memo warm, then
        each again after ``clear_memos``."""
        texts, text = [], db_text
        for _ in range(data.draw(st.integers(1, 4))):
            text = data.draw(st.sampled_from((text, text, text, db_text)))
            for _ in range(data.draw(st.integers(1, 2))):
                text = edit_once(data, text)
            texts.append(text)
        clear_memos()
        loads_db(db_text)
        warm = [loaded(text) for text in texts]
        for text, got in zip(texts, warm):
            clear_memos()
            assert database._LOADED == []
            assert loaded(text) == got
            # a load after clear_memos has no base: it remembers its own text alone
            assert len(database._LOADED) == (0 if isinstance(got, str) else 1)

    def test_a_record_no_remembered_text_holds_is_freed(self, db_text, mutants):
        """Only the two texts ``loads_db`` remembers keep records alive: once
        later loads have replaced a mutant's text, the record of its edited
        block goes with the caller's database."""
        shipped = loads_db(db_text).records
        lines = db_text.split("\n")
        for spec in mutants.mutant_specs(db_text):
            try:
                mutant = loads_db(mutants.apply_spec(lines, spec))
            except DbError:
                continue
            break
        (new,) = [e for e in mutant.records if not any(e is x for x in shipped)]
        gone = weakref.ref(new)
        for text in (MINI, EVERY_RECORD):
            loads_db(text)
        del mutant, new
        gc.collect()
        assert gone() is None

    def test_a_text_loaded_again_keeps_the_base(self, db_text):
        """A second load of a remembered text gets the remembered database
        and leaves the remembered texts as they are, so the next edit of the
        base is still diffed against it."""
        m, m2 = doubled(db_text, "bracket k=7 n=5"), doubled(db_text, "bracket k=8 n=2")
        clear_memos()
        loads_db(db_text)
        first = loads_db(m)
        assert loads_db(m) is first
        assert [kept[0] for kept in database._LOADED] == [db_text, m]
        loads_db(m2)
        assert [kept[0] for kept in database._LOADED] == [db_text, m2]

    @pytest.mark.parametrize(
        "block",
        [
            ODD_PART_5,
            "[group]\ncontext = odd-part k=6 n=3 p=11\ngroup = Z/11\ncite = [T]",
            "[components]\ncontext = components n=30\nexpected = 1\ncite = [T]",
            "[symbol]\nname = zz\ncite = [T]",
        ],
        ids=["into-a-family", "a-new-family", "a-new-range-of-n", "a-symbol"],
    )
    def test_an_appended_record_builds_only_what_it_enters(self, db_text, block):
        """Loading a text with one record added after the base's records
        changes nothing of the base, builds only the family or the symbols
        dict the record enters, and shares every other family with the base."""
        clear_memos()
        base = loads_db(db_text)
        checked(base)
        held = parts(base)
        copies = [type(part)(part) for part in held]
        db = loads_db(appended(db_text, block))
        assert list(map(id, parts(base))) == list(map(id, held)) and parts(base) == copies
        assert db.memo == {} and db.base_memo is base.memo
        new = db.records[-1]
        assert db.records[:-1] == base.records
        if block.startswith("[symbol]"):  # a symbol is in no family
            assert db.families is base.families and db.symbols is not base.symbols
            assert db.symbols == {**base.symbols, new.name: new}
        else:
            assert db.symbols is base.symbols and db.families is not base.families
            entered = (new.context.kind, new.context.family)
            assert new in (row[2] for row in db.families[entered[0]][entered[1]])
            for kind, of_kind in db.families.items():
                for fam, family in of_kind.items():
                    if (kind, fam) != entered:
                        assert family is base.families[kind][fam]
            assert sum(map(len, db.families.values())) == (
                sum(map(len, base.families.values())) + (entered[1] not in base.families[entered[0]]))
        clear_memos()
        assert contents(loads_db(appended(db_text, block))) == contents(db)

    def test_the_base_is_the_remembered_text_that_leaves_least_to_scan(self, db_text):
        """Single edits of one file each keep that file as the base, also
        two in a row in one block; edits that pile up follow the latest
        text."""
        cites = [m.end() for m in re.finditer("^cite =", db_text, re.M)][:3]
        clear_memos()
        loads_db(db_text)
        for at, space in zip([cites[0], *cites], ["  ", " ", " ", " "]):
            text = db_text[:at] + space + db_text[at:]  # the same record, from a new block
            loads_db(text)
            assert [kept[0] for kept in database._LOADED] == [db_text, text]
        clear_memos()
        loads_db(db_text)
        session, warm = [db_text], []
        for n, at in enumerate(cites):  # each edit after the last, so n spaces before it
            session.append(session[-1][:at + n] + " " + session[-1][at + n:])
            warm.append(loaded(session[-1]))
            assert [kept[0] for kept in database._LOADED] == session[-2:]
        for text, got in zip(session[1:], warm):  # blocks after an edit were shifted
            clear_memos()
            assert loaded(text) == got

    # edits of the shipped file, each loaded after the file: a clash and a
    # bad block after it; a symbol taken twice, after and before the first
    # one; two overlaps, the one first in the file in the family that
    # appears last among the edited records
    BAD_LINE = ("context = whitehead n=6\n", "context = whitehead n=6\nbogus\n")
    CASES = {
        "clash-then-bad-block": (
            [("context = bracket k=6 n=12..\n", "context = bracket k=6 n=11..\n"), BAD_LINE],
            "context bracket k=6 n=11.. overlaps bracket k=6 n=11",
        ),
        "clash-with-a-later-record-then-bad-block": (
            [("context = bracket k=6 n=4\n", "context = bracket k=6 n=4..5\n"), BAD_LINE],
            "context bracket k=6 n=5 overlaps bracket k=6 n=4..5",
        ),
        "symbol-taken-again": (
            [("[group]\ncontext = bracket k=6 n=4\n",
              "[symbol]\nname = eta\ncite = x\n\n[group]\ncontext = bracket k=6 n=4\n")],
            "duplicate name 'eta'",
        ),
        "symbol-taken-before": (
            [("[symbol]\nname = eta\n", "[symbol]\nname = eta\ncite = x\n\n[symbol]\nname = eta\n")],
            "duplicate name 'eta'",
        ),
        "overlap-in-the-family-built-last": (
            [("context = odd-part k=6 n=2 p=5\n", "context = odd-part k=6 n=2..4 p=5\n"),
             ("context = odd-part k=6 n=4 p=3\n", "context = odd-part k=6 n=3 p=3\n")],
            "context odd-part k=6 n=3 p=3 overlaps odd-part k=6 n=3 p=3",
        ),
    }

    @pytest.mark.parametrize("breaks", ["\n", "\r\n", "\u2028"], ids=["lf", "crlf", "u2028"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_the_first_problem_is_found_from_a_base(self, db_text, case, breaks):
        edits, message = self.CASES[case]
        text = db_text
        for old, new in edits:
            assert text.count(old) == 1
            text = text.replace(old, new)
        clear_memos()
        cold = loaded(text.replace("\n", breaks))
        assert cold.endswith(f": {message}")
        loads_db(db_text)
        remembered = list(database._LOADED)
        assert loaded(text.replace("\n", breaks)) == cold
        assert database._LOADED == remembered  # a text that fails is no base


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
    """``split_outcome`` through ``reference_blocks`` and ``indexed``, each
    error at the line the line-by-line loader named: a clash among the
    records before the first bad block, at its record's header, or else
    that block's error."""
    records, headers, failed = [], [], None
    for block in reference_blocks(text.splitlines()):
        try:
            records.append(_parse_block("\n".join(line for _, line in block)))
        except _BlockError as e:
            failed = DbParseError(path, block[e.index][0], str(e))
            break
        headers.append(block[0][0])
    try:
        db = indexed(records)
    except ValueError as e:
        failed = DbParseError(path, headers[e.args[1]], e.args[0])
    if failed:
        return (failed.path, failed.line, str(failed))
    return contents(db)


def split_outcome(text, path="ref.cohdb"):
    try:
        return contents(loads_db(text, path))
    except DbParseError as e:
        return (e.path, e.line, str(e))


BAD_KEY = "[symbol]\nname = mu\nname = mu\ncite = [T]\n"  # an error on the block's third line
CLASH = "[symbol]\nname = nu\ncite = [T]\n"  # MINI has nu: an error on the header
# MINI has coker-eta k=6 n=5..: an error on the header
OVERLAP = "[group]\ncontext = coker-eta k=6 n=7\ngroup = Z/2\ngenerators = nu_n : 2\ncite = [T]\n"


class TestBlockSplitter:
    """``loads_db`` finds its blocks with one regular expression and indexes
    them incrementally; every record, every family and every error line is
    that of the line-by-line splitter and the one-by-one indexer."""

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
            MINI + "\n# before the header\n" + OVERLAP,
            (MINI + "\n" + OVERLAP + "\n" + BAD_KEY).replace("\n", "\r\n"),
        ],
        ids=[
            "whitespace-separator", "whitespace-separators", "whitespace-everywhere",
            "comments-inside", "comment-before-header", "comment-before-clash",
            "comment-only-blocks", "comment-joins-blocks", "crlf", "crlf-clash", "crlf-blank",
            "no-trailing-newline", "no-trailing-newline-clash", "valid-no-trailing-newline",
            "trailing-spaces", "form-feed", "vertical-tab", "line-separator", "blank-runs",
            "comment-before-overlap", "crlf-overlap-then-bad-key",
        ],
    )
    def test_blocks_and_error_lines_match_the_line_by_line_splitter(self, text):
        for memo in ("cold", "warm"):
            if memo == "cold":
                clear_memos()
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
