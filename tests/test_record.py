"""The record classes (``cohomotopy.record``): the import path stays free of
``dataclasses``, and every record and value class keeps the equality, hash,
``repr``, ``replace`` and frozenness it had as a dataclass."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cohomotopy import abelian, database, extensions, gottlieb, pipeline
from cohomotopy.abelian import FinAbGroup, GroupHom, IllDefinedHomError, IntMatrix, Presentation
from cohomotopy.database import (
    CONTEXT,
    EVIDENCE,
    GROUP,
    IMAGES,
    OPT_INT,
    ComponentsEntry,
    Database,
    EvidenceEntry,
    GroupEntry,
    NRange,
    SymbolEntry,
    WhiteheadEntry,
    parse_context,
)
from cohomotopy.extensions import (
    INT,
    NAME,
    OPT_NAME,
    ORDER,
    PAIRS,
    RENAMES,
    TERMS,
    TEXT,
    EhpInjectivity,
    ElementOrderLift,
    ExternalFact,
    RelationFact,
    Retraction,
    schema,
)
from cohomotopy.record import FrozenInstanceError, fields, replace

SRC = Path(__file__).resolve().parents[1] / "src"


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # without site (-S), so that only the package's own imports count; nor
    # typing, which a site .pth may import first
    code = (
        "import cohomotopy.cli, sys; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


# Every record and value class, as the repr a dataclass printed for it, with
# a change of one field.
NAMESPACE = {
    name: getattr(module, name)
    for module in (abelian, database, extensions, gottlieb, pipeline)
    for name in dir(module) if name[0].isupper()
}
SAMPLES = {
    "IntMatrix(rows=1, cols=2, entries=(3, 4))": {"entries": (3, 5)},
    "SmithDecomposition(u=IntMatrix(rows=1, cols=1, entries=(1,)), "
    "d=IntMatrix(rows=1, cols=1, entries=(2,)), v=IntMatrix(rows=1, cols=1, entries=(1,)))":
        {"d": IntMatrix(1, 1, (4,))},
    "FinAbGroup(free_rank=1, torsion=(2, 4))": {"torsion": (2,)},
    "Presentation(orders=(4, 0))": {"orders": (4,)},
    "GroupHom(source=Presentation(orders=(2,)), target=Presentation(orders=(4, 0)), "
    "matrix=((2, 0),))": {"matrix": ((0, 0),)},
    "NRange(lo=3, hi=None)": {"hi": 4},
    "Context(kind='bracket', params=(('k', 7), ('n', NRange(lo=3, hi=5))))": {"kind": "ker-eta"},
    "SymbolEntry(name='eta', cite='[T]', note='')": {"note": "Hopf"},
    "GroupEntry(context=Context(kind='gottlieb', params=(('n', NRange(lo=3, hi=3)),)), "
    "group=FinAbGroup(free_rank=0, torsion=(2,)), terms=((2, 'x'),), cite='[C]', note='')":
        {"terms": ((2, "y"),)},
    "WhiteheadEntry(context=Context(kind='whitehead', params=(('n', NRange(lo=3, hi=3)),)), "
    "target=FinAbGroup(free_rank=0, torsion=(2,)), target_terms=((2, 'y'),), "
    "images=(('x', (1, 'odd')),), cite='[W]', note='')": {"images": ()},
    "EvidenceEntry(context=Context(kind='extension', params=(('k', 7), ('n', NRange(lo=4, hi=4)))), "
    "item=Retraction(sections=(('c', 's'),), cite=''))": {"item": Retraction()},
    "ComponentsEntry(context=Context(kind='components', params=(('n', NRange(lo=7, hi=7)),)), "
    "expected=6, computed=7, cite='[L]', note='')": {"computed": None},
    "ExtensionCandidateSet(candidates=(FinAbGroup(free_rank=0, torsion=(2,)),))": {"candidates": ()},
    "Retraction(sections=(('c', 's'),), cite='[X]')": {"sections": ()},
    "ElementOrderLift(lift_name='L', order=4, maps_to='c', absorbs='a', remainder_name=None, "
    "cite='')": {"absorbs": None},
    "RelationFact(lift_name='L', lift_of='c', multiplier=2, rhs='a', rhs_mult=1, "
    "remainder_name=None, cite='')": {"rhs_mult": 3},
    "ExternalFact(factors=((2, 'x'),), statement='st', cite='[Y]')": {"statement": ""},
    "EhpInjectivity(source_n=5, names=(('a', 'b'),), cite='')": {"source_n": 6},
    "ExtensionProblem(sub=((2, 'a'),), quot=((2, 'c'),), context='ctx')": {"context": ""},
    "ComputedRow(group=FinAbGroup(free_rank=0, torsion=(2,)), generators=((2, 'x'),), "
    "cites=('[Z]',), evidence_used=())": {"evidence_used": (Retraction(),)},
    "ComponentsResult(computed=7, expected=6, status='documented-discrepancy', note='')":
        {"status": "fail"},
    "CheckResult(family='bracket', label='b', status='ok', detail='Z/2')": {"detail": ""},
}


@pytest.fixture(params=sorted(SAMPLES), ids=lambda text: text.split("(")[0])
def sample(request):
    return eval(request.param, NAMESPACE), request.param, SAMPLES[request.param]


class TestEveryClass:
    def test_every_record_and_value_class_is_sampled(self):
        sampled = {text.split("(")[0] for text in SAMPLES}
        frozen = {
            name for name, cls in NAMESPACE.items()
            if hasattr(cls, "__record_fields__") and cls is not Database
        }
        assert sampled == frozen and len(sampled) == 22

    def test_repr_is_the_dataclass_repr(self, sample):
        x, text, _ = sample
        assert repr(x) == text

    def test_eq_and_hash_read_the_compared_fields(self, sample):
        x, _, change = sample
        compared = tuple(getattr(x, f.name) for f in fields(type(x)) if f.compare)
        copy = replace(x)
        assert copy is not x and copy == x and not copy != x
        assert hash(x) == hash(copy) == hash(compared)
        other = replace(x, **change)
        assert other != x and not other == x
        assert x != compared  # only instances of one class compare equal

    def test_frozen(self, sample):
        x, _, _ = sample
        for f in fields(type(x)):
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{f.name}'"):
                setattr(x, f.name, None)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{f.name}'"):
                delattr(x, f.name)


class TestReplace:
    def test_reruns_post_init_and_derives_init_false_fields(self):
        ctx = parse_context("bracket k=7 n=3..5")
        moved = replace(ctx, params=(("k", 8), ("n", NRange(6, 6))))
        assert (moved.family, moved.n_range) == (frozenset({("k", 8)}), NRange(6, 6))
        assert (ctx.family, ctx.n_range) == (frozenset({("k", 7)}), NRange(3, 5))
        with pytest.raises(ValueError, match="family is declared with init=False"):
            replace(ctx, family=frozenset())

    def test_rebuilds_through_the_value_checks(self):
        h = GroupHom(Presentation((2,)), Presentation((4, 0)), [[2, 0]])
        assert replace(h, matrix=[[0, 0]]).matrix == ((0, 0),)
        with pytest.raises(IllDefinedHomError):
            replace(h, matrix=[[1, 0]])
        with pytest.raises(abelian.AbelianError, match="not a divisor chain"):
            replace(FinAbGroup(0, (2, 4)), torsion=(4, 6))

    def test_unknown_field(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 'order'"):
            replace(Retraction(), order=2)


class TestInit:
    def test_keywords_defaults_and_errors(self):
        assert RelationFact("L", "c", 2, rhs="a") == RelationFact(
            lift_name="L", lift_of="c", multiplier=2, rhs="a", rhs_mult=1
        )
        with pytest.raises(TypeError, match="missing required argument: 'rhs'"):
            RelationFact("L", "c", 2)
        with pytest.raises(TypeError, match="multiple values for argument 'lift_name'"):
            RelationFact("L", "c", 2, "a", lift_name="M")
        with pytest.raises(TypeError, match="takes 8 positional arguments but 9 were given"):
            RelationFact("L", "c", 2, "a", 1, None, "", "extra")

    def test_database_is_mutable_unhashable_and_gets_fresh_defaults(self):
        a, b = Database(), Database()
        assert a == b and a.records is not b.records
        a.records.append(None)
        assert a != b
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


# The schema of every record class, as it was read from dataclass fields.
SCHEMAS = {
    SymbolEntry: (
        ("name", "name", TEXT, True, None),
        ("cite", "cite", TEXT, False, None),
        ("note", "note", TEXT, False, None),
    ),
    GroupEntry: (
        ("context", "context", CONTEXT, True, None),
        ("group", "group", GROUP, True, "terms"),
        ("terms", "generators", TERMS, False, None),
        ("cite", "cite", TEXT, False, None),
        ("note", "note", TEXT, False, None),
    ),
    WhiteheadEntry: (
        ("context", "context", CONTEXT, True, None),
        ("target", "target", GROUP, True, "target_terms"),
        ("target_terms", "target-generators", TERMS, False, None),
        ("images", "images", IMAGES, False, None),
        ("cite", "cite", TEXT, False, None),
        ("note", "note", TEXT, False, None),
    ),
    EvidenceEntry: (
        ("context", "context", CONTEXT, True, None),
        ("item", "kind", EVIDENCE, True, None),
    ),
    ComponentsEntry: (
        ("context", "context", CONTEXT, True, None),
        ("expected", "expected", INT, True, None),
        ("computed", "computed", OPT_INT, False, None),
        ("cite", "cite", TEXT, False, None),
        ("note", "note", TEXT, False, None),
    ),
    Retraction: (
        ("sections", "sections", PAIRS, False, None),
        ("cite", "cite", TEXT, False, None),
    ),
    ElementOrderLift: (
        ("lift_name", "lift", NAME, True, None),
        ("order", "order", ORDER, True, None),
        ("maps_to", "maps-to", NAME, True, None),
        ("absorbs", "absorbs", OPT_NAME, False, None),
        ("remainder_name", "remainder-name", OPT_NAME, False, None),
        ("cite", "cite", TEXT, False, None),
    ),
    RelationFact: (
        ("lift_name", "lift", NAME, True, None),
        ("lift_of", "lift-of", NAME, True, None),
        ("multiplier", "multiplier", INT, True, None),
        ("rhs", "rhs", NAME, True, None),
        ("rhs_mult", "rhs-mult", INT, False, None),
        ("remainder_name", "remainder-name", OPT_NAME, False, None),
        ("cite", "cite", TEXT, False, None),
    ),
    ExternalFact: (
        ("factors", "factors", TERMS, True, None),
        ("statement", "statement", TEXT, False, None),
        ("cite", "cite", TEXT, False, None),
    ),
    EhpInjectivity: (
        ("source_n", "source-n", INT, True, None),
        ("names", "names", RENAMES, False, None),
        ("cite", "cite", TEXT, False, None),
    ),
}


def test_every_record_class_keeps_its_schema():
    record_classes = [*database.RECORD_TYPES.values(), *extensions.EVIDENCE_KINDS.values()]
    assert sorted(SCHEMAS, key=record_classes.index) == record_classes
    for cls, expected in SCHEMAS.items():
        assert schema(cls) == expected, cls.__name__
